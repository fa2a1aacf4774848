//! Paper Fig. 27 (appendix G): signal stability over one quiet day —
//! full-block scanning vs Trinocular (paper SNR: 99.7 vs 7.6), extended to
//! the four-way comparison with the BGP routed-block signal and the
//! passive IBR volume signal.

#![forbid(unsafe_code)]

use fbs_analysis::{snr, snr_summary, Series, SnrSummary, TextTable};
use fbs_bench::{emit_series, fmt_f, world};
use fbs_netsim::{ibr, IbrConfig};
use fbs_trinocular::{assess_block, BlockBelief, BlockState, TrinocularConfig};
use fbs_types::{CivilDate, MonthId, Round};

fn main() {
    let world = world();
    let cfg = TrinocularConfig::default();
    let ibr_cfg = IbrConfig::default();
    let ibr_rng = ibr::ibr_domain(world.rng());
    // The paper samples 2023-03-02; warm Trinocular beliefs up for two days.
    let day = CivilDate::new(2023, 3, 2);
    let warm = Round::containing(day.plus_days(-2).midnight()).expect("in campaign");
    let start = Round::containing(day.midnight()).expect("in campaign");

    let by_as = world.blocks_by_as();
    let month_rounds = world.month_rounds(MonthId::new(2023, 3));
    let mut ours_snrs = Vec::new();
    let mut trin_snrs = Vec::new();
    let mut bgp_snrs = Vec::new();
    let mut ibr_snrs = Vec::new();
    for blocks in by_as.values() {
        let mut beliefs: Vec<BlockBelief> = vec![BlockBelief::new(); blocks.len()];
        // Eligibility and believed long-term availability for the month.
        let long_term: Vec<f64> = blocks
            .iter()
            .map(|&bi| {
                [start.0, start.0 + 7, start.0.saturating_sub(9)]
                    .iter()
                    .map(|&r| world.trin_availability(Round(r), bi))
                    .fold(0.0f64, f64::max)
            })
            .collect();
        let eligible: Vec<bool> = blocks
            .iter()
            .zip(&long_term)
            .map(|(&bi, &a)| {
                let ever = world.ever_active(month_rounds.clone(), bi);
                cfg.eligible(ever as u32, a)
            })
            .collect();
        let mut ours = Vec::new();
        let mut trin = Vec::new();
        let mut bgp = Vec::new();
        let mut radiation = Vec::new();
        for r in warm.0..start.0 + 12 {
            let round = Round(r);
            let mut ips = 0.0;
            let mut up = 0.0;
            let mut routed = 0.0;
            let mut volume = 0.0;
            for (k, &bi) in blocks.iter().enumerate() {
                let truth = world.block_truth(round, bi);
                ips += truth.responsive as f64;
                if truth.routed {
                    routed += 1.0;
                }
                volume += ibr::volume_from_truth(&truth, &ibr_cfg, &ibr_rng, round, bi) as f64;
                if eligible[k] {
                    let stale = 0.2 + 0.8 * world.rng().uniform3(r as u64, bi as u64, 777);
                    let p_probe = world.trin_availability(round, bi) * stale;
                    let out = assess_block(beliefs[k], long_term[k], &cfg, |probe| {
                        truth.routed
                            && world.rng().chance3(
                                p_probe,
                                r as u64,
                                bi as u64,
                                9000 + probe as u64,
                            )
                    });
                    beliefs[k] = out.belief;
                    if out.state == BlockState::Up {
                        up += 1.0;
                    }
                }
            }
            if r >= start.0 {
                ours.push(ips);
                trin.push(up);
                bgp.push(routed);
                radiation.push(volume);
            }
        }
        // Only ASes with signal throughout (paper: 1,073 ASes, no signal loss).
        if ours.iter().all(|v| *v > 0.0) {
            if let Some(s) = snr(&ours) {
                ours_snrs.push(s);
            }
            if trin.iter().any(|v| *v > 0.0) {
                if let Some(s) = snr(&trin) {
                    trin_snrs.push(s);
                }
            }
            if let Some(s) = snr(&bgp) {
                bgp_snrs.push(s);
            }
            if let Some(s) = snr(&radiation) {
                ibr_snrs.push(s);
            }
        }
    }
    // A perfectly steady series saturates the SNR; averaging the cap into
    // a mean would let those ASes drown out the noisy ones the figure is
    // about, so they get their own column instead.
    let fmt_snr = |s: &SnrSummary| match s.noisy_mean {
        Some(v) => fmt_f(v, 1),
        None if s.saturated > 0 => "saturated".to_string(),
        None => "-".to_string(),
    };
    let mut t = TextTable::new(
        "Fig. 27: per-AS signal-to-noise over one day (2023-03-02), four-way",
        &["Signal", "ASes", "Mean SNR (noisy)", "Saturated"],
    );
    let rows: [(&str, &Vec<f64>); 4] = [
        ("BGP (routed blocks)", &bgp_snrs),
        ("Full block scans (IPS)", &ours_snrs),
        ("Trinocular (up blocks)", &trin_snrs),
        ("Passive IBR (volume)", &ibr_snrs),
    ];
    let mut summaries = Vec::new();
    for (label, snrs) in rows {
        let s = snr_summary(snrs);
        t.row(&[
            label.into(),
            snrs.len().to_string(),
            fmt_snr(&s),
            s.saturated.to_string(),
        ]);
        summaries.push(s);
    }
    println!("{}", t.render());
    println!(
        "Paper shape: FBS-derived signals are far more stable (SNR ~99.7) than\n\
         Trinocular's (~7.6), whose few probes flap sparse blocks between states.\n\
         BGP barely moves on a quiet day (steady series count as saturated, in\n\
         their own column); passive IBR sits between Trinocular and IPS —\n\
         noisier than probing every address, but alive with zero probes."
    );
    emit_series(
        "fig27_signal_stability",
        &[Series::from_pairs(
            "fig27_signal_stability",
            "snr",
            &[
                ("bgp".to_string(), summaries[0].noisy_mean.unwrap_or(0.0)),
                ("ours".to_string(), summaries[1].noisy_mean.unwrap_or(0.0)),
                (
                    "trinocular".to_string(),
                    summaries[2].noisy_mean.unwrap_or(0.0),
                ),
                ("ibr".to_string(), summaries[3].noisy_mean.unwrap_or(0.0)),
            ],
        )],
    );
}
