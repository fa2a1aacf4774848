//! Near-misses: integer reductions, an order-free max-fold, a pragma'd
//! pinned-order sum, and a float sum no emission surface reaches.

pub fn emit_table(xs: &[u64], out: &mut String) {
    out.push_str(&format!("{} {} {}", count(xs), peak(xs), snr(xs)));
}

fn count(xs: &[u64]) -> u64 {
    xs.iter().sum::<u64>()
}

fn peak(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0f64, f64::max)
}

fn snr(xs: &[f64]) -> f64 {
    // fbs-lint: allow(float-reduction-order) sequential sum over round-ordered input
    xs.iter().sum::<f64>()
}

fn offline_mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

pub fn emit_counts(xs: &[u64], ys: &[Vec<u64>], out: &mut String) {
    out.push_str(&format!("{} {} {}", blocks(xs), rounds(xs), busiest(ys)));
}

fn blocks(xs: &[u64]) -> f64 {
    let n: u64 = xs.iter().sum();
    n as f64
}

fn rounds(xs: &[u64]) -> u64 {
    xs.iter().sum()
}

fn busiest(ys: &[Vec<u64>]) -> f64 {
    let counts: Vec<u64> = ys.iter().map(|y| y.iter().sum()).collect();
    counts.iter().copied().max().unwrap_or(0) as f64
}
