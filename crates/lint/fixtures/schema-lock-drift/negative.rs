//! Fixture: every wire type is recorded in `negative.lock` with the exact
//! layouts the source writes, and `Record`'s read-only v1 and v2 layouts
//! are carried by the lock alone — no drift.

pub struct Point {
    x: u32,
    y: u32,
}

impl Persist for Point {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u32(self.x);
        w.put_u32(self.y);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        let x = r.get_u32()?;
        let y = r.get_u32()?;
        Ok(Point { x, y })
    }
}

pub struct Extra {
    n: u64,
}

impl Persist for Extra {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u64(self.n);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        let n = r.get_u64()?;
        Ok(Extra { n })
    }
}

const V1: u32 = 1;
const V2: u32 = 2;
const V3: u32 = 3;

pub struct Record {
    at: Point,
    extra: Option<Extra>,
}

impl Persist for Record {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u32(V3);
        self.at.persist(w);
        self.extra.persist(w);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        let version = r.get_u32()?;
        let at = Point::restore(r)?;
        let extra = match version {
            V1 | V2 => None,
            V3 => Option::<Extra>::restore(r)?,
            other => return Err(FbsError::corrupt_snapshot(other.to_string())),
        };
        Ok(Record { at, extra })
    }
}
