//! Result lines and export digests.
//!
//! Every phase ends by printing one flat JSON object on stdout, which
//! `campaignbench/run.py` reads. The encoder is local because the values
//! are flat scalars and integer lists.

use std::fmt::Write as _;
use std::path::Path;

/// A flat JSON object under construction, keys in insertion order.
#[derive(Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    fn key(&mut self, k: &str) {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        let _ = write!(self.body, "\"{k}\": ");
    }

    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.body, "{v}");
        } else {
            self.body.push_str("null");
        }
        self
    }

    pub fn int(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.body, "{v}");
        self
    }

    pub fn flag(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.body.push_str(if v { "true" } else { "false" });
        self
    }

    pub fn text(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.body.push('"');
        for c in v.chars() {
            match c {
                '"' => self.body.push_str("\\\""),
                '\\' => self.body.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.body, "\\u{:04x}", c as u32);
                }
                c => self.body.push(c),
            }
        }
        self.body.push('"');
        self
    }

    pub fn ints(&mut self, k: &str, vs: &[u64]) -> &mut Self {
        self.key(k);
        self.body.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.body.push(',');
            }
            let _ = write!(self.body, "{v}");
        }
        self.body.push(']');
        self
    }

    pub fn nums(&mut self, k: &str, vs: &[f64]) -> &mut Self {
        self.key(k);
        self.body.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.body.push(',');
            }
            let _ = write!(self.body, "{v}");
        }
        self.body.push(']');
        self
    }

    pub fn line(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// FNV-1a 64 over every file of an export directory, in name order:
/// name, length, then bytes. Returns the digest and the total byte count.
pub fn digest_dir(dir: &Path) -> std::io::Result<(String, u64)> {
    let mut names: Vec<_> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.file_name()))
        .collect::<std::io::Result<_>>()?;
    names.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut total = 0u64;
    for name in names {
        let bytes = std::fs::read(dir.join(&name))?;
        total += bytes.len() as u64;
        eat(name.to_string_lossy().as_bytes());
        eat(&(bytes.len() as u64).to_le_bytes());
        eat(&bytes);
    }
    Ok((format!("{h:016x}"), total))
}

/// Median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
