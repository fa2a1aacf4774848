//! Fixture: the same wire types as the positive case, but
//! `negative.lock` records exactly the layouts the source writes, plus the
//! read-only v1 layout of `Record` that no source derives — a clean tree
//! against its frozen baseline.

const V1: u32 = 1;
const V2: u32 = 2;

pub struct Header {
    id: u32,
    flags: u8,
}

impl Persist for Header {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u32(self.id);
        w.put_u8(self.flags);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        let id = r.get_u32()?;
        let flags = r.get_u8()?;
        Ok(Header { id, flags })
    }
}

pub struct Record {
    head: Header,
    notes: Vec<u8>,
}

impl Persist for Record {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u32(V2);
        self.head.persist(w);
        self.notes.persist(w);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        let version = r.get_u32()?;
        let head = Header::restore(r)?;
        let notes = match version {
            V1 => Vec::new(),
            V2 => Vec::<u8>::restore(r)?,
            other => return Err(FbsError::corrupt_snapshot(other.to_string())),
        };
        Ok(Record { head, notes })
    }
}
