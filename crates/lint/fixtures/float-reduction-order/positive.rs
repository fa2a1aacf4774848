//! Deliberate violations: an f64 sum and an additive fold inside
//! helpers an emitter calls — accumulation order becomes report bytes.

pub fn emit_table(xs: &[f64], out: &mut String) {
    out.push_str(&format!("{} {}", mean(xs), total(xs)));
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn total(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0, |acc, x| acc + x)
}

pub fn emit_summary(xs: &[f64], out: &mut String) {
    out.push_str(&format!("{} {} {}", spread(xs), volume(xs), early(xs)));
}

fn spread(xs: &[f64]) -> f64 {
    let total: f64 = xs.iter().sum();
    total / xs.len() as f64
}

fn volume(xs: &[f64]) -> f64 {
    xs.iter().product()
}

fn early(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    return xs.iter().sum();
}
