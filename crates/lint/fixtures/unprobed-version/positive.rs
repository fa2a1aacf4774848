//! Fixture: a versioned wire root whose write set and read set disagree.
//!
//! The encoder writes V3, but the decoder's `match version` only accepts
//! V1, V2 and V9 — a campaign checkpointed at v3 could never resume. V1
//! and V2 are read-only, their layouts frozen in `positive.lock`; V9 has
//! no frozen layout and nothing writes it, so its acceptance is dead.

const V1: u32 = 1;
const V2: u32 = 2;
const V3: u32 = 3;
const V9: u32 = 9;

pub struct Snapshot {
    base: u32,
    tail: Vec<u32>,
}

impl Persist for Snapshot {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u32(V3);
        w.put_u32(self.base);
        self.tail.persist(w);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        let version = r.get_u32()?;
        let base = r.get_u32()?;
        let tail = match version {
            V1 => Vec::new(),
            V2 => Vec::<u32>::restore(r)?,
            V9 => Vec::<u32>::restore(r)?,
            other => return Err(FbsError::corrupt_snapshot(other.to_string())),
        };
        Ok(Snapshot { base, tail })
    }
}
