//! Host-speed calibration.
//!
//! On a host shared with other tenants a core runs the same code at 0.55
//! to 1.0 of its best speed, changing within seconds. So a
//! fixed reference kernel — the benchmark's own code, never the
//! program's — is timed next to every measured interval, and `run.py`
//! scales each interval by the reference's nominal time over its observed
//! time (campaignbench/README.md, "Noise controls").

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Reruns the reference kernel; owns its scratch buffer so every sample
/// does the same work.
#[derive(Default)]
pub struct Calib {
    buf: String,
}

impl Calib {
    /// One run of the reference kernel, in nanoseconds.
    pub fn sample(&mut self) -> u64 {
        let t = Instant::now();
        black_box(reference_kernel(&mut self.buf));
        t.elapsed().as_nanos() as u64
    }

    /// Median of `n` samples, in nanoseconds.
    pub fn median(&mut self, n: usize) -> u64 {
        let mut v: Vec<u64> = (0..n.max(1)).map(|_| self.sample()).collect();
        v.sort_unstable();
        v[v.len() / 2]
    }
}

/// A few tens of microseconds of the program's kind of work: formatting
/// records into text, parsing them back, and tallying them in an ordered
/// map.
fn reference_kernel(buf: &mut String) -> u64 {
    buf.clear();
    for i in 0..160u64 {
        let _ = writeln!(
            buf,
            "{}|{}.{}|{}",
            i.wrapping_mul(2_654_435_761) % 1_000_003,
            i,
            i % 7,
            i * 3
        );
    }
    let mut tally = std::collections::BTreeMap::new();
    let mut acc = 0u64;
    for line in buf.lines() {
        if let Some((key, rest)) = line.split_once('|') {
            let v = key.parse::<u64>().unwrap_or(0);
            acc = acc.wrapping_add(v);
            *tally.entry(v % 97).or_insert(0u64) += rest.len() as u64;
        }
    }
    acc.wrapping_add(tally.values().sum::<u64>())
}
