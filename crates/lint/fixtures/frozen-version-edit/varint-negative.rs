//! Fixture: a varint-coded section whose lockfile records exactly what
//! the source writes. `varint` is a lock codec like `u32`, so the frozen
//! baseline parses and the tree is clean.

pub struct Counts(pub Vec<u64>);

impl Persist for Counts {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_varint(self.0.len() as u64);
        for n in &self.0 {
            w.put_varint(*n);
        }
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        r.get_section(decode_counts).map(Counts)
    }
}
