//! Fixture: a frozen varint element re-encoded at a fixed width.
//!
//! Relative to `varint-positive.lock`, `Counts` still writes its length
//! as a varint but each element as a `u64`: a codec change inside a
//! frozen layout, so the edit is breaking.

pub struct Counts(pub Vec<u64>);

impl Persist for Counts {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_varint(self.0.len() as u64);
        for n in &self.0 {
            w.put_u64(*n);
        }
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        r.get_section(decode_counts).map(Counts)
    }
}
