//! Fixture: a versioned wire root whose decoder accepts the version its
//! encoder writes (V3) plus two read-only versions whose layouts
//! `negative.lock` freezes — every accepted tag is live.

const V1: u32 = 1;
const V2: u32 = 2;
const V3: u32 = 3;

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
            V3 => Vec::<u32>::restore(r)?,
            other => return Err(FbsError::corrupt_snapshot(other.to_string())),
        };
        Ok(Snapshot { base, tail })
    }
}
