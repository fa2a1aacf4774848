//! Calendar aggregation of outage events.
//!
//! The paper's headline numbers are calendar aggregates: monthly outage
//! hours for frontline vs. non-frontline regions (Fig. 9), daily outage
//! hours correlated with power cuts in 2024 (Fig. 10), worst-case daily
//! maxima (2,822 hours across oblasts). [`DailyHours`] and [`MonthlyHours`]
//! turn round-based [`OutageEvent`]s into those matrices.

use fbs_signals::{merge_overlapping, OutageEvent};
use fbs_types::{CivilDate, MonthId, Round};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Outage hours per calendar day for one entity (or one group).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DailyHours {
    hours: BTreeMap<CivilDate, f64>,
}

impl DailyHours {
    /// Builds daily hours from events, counting overlapping events once.
    pub fn from_events(events: &[OutageEvent]) -> Self {
        let mut out = DailyHours::default();
        for (start, end) in merge_overlapping(events) {
            for r in start.0..end.0 {
                *out.hours.entry(Round(r).date()).or_insert(0.0) += 2.0;
            }
        }
        out
    }

    /// Hours on `date` (0 when none).
    pub fn get(&self, date: CivilDate) -> f64 {
        self.hours.get(&date).copied().unwrap_or(0.0)
    }

    /// Adds hours onto a date (for combining groups).
    pub fn add(&mut self, date: CivilDate, hours: f64) {
        *self.hours.entry(date).or_insert(0.0) += hours;
    }

    /// Sums another matrix into this one.
    pub fn merge(&mut self, other: &DailyHours) {
        for (d, h) in &other.hours {
            self.add(*d, *h);
        }
    }

    /// Total hours (`+0.0` when empty).
    pub fn total(&self) -> f64 {
        positive_sum(self.hours.values())
    }

    /// Iterates `(date, hours)` in calendar order.
    pub fn iter(&self) -> impl Iterator<Item = (CivilDate, f64)> + '_ {
        self.hours.iter().map(|(d, h)| (*d, *h))
    }

    /// Dense daily vector over an inclusive date range (missing days = 0) —
    /// the input shape for Pearson correlation against power data.
    pub fn dense_range(&self, from: CivilDate, to: CivilDate) -> Vec<f64> {
        let mut out = Vec::new();
        let mut d = from;
        while d <= to {
            out.push(self.get(d));
            d = d.plus_days(1);
        }
        out
    }

    /// Collapses to monthly totals.
    pub fn monthly(&self) -> MonthlyHours {
        let mut m = MonthlyHours::default();
        for (d, h) in &self.hours {
            m.add(d.month_id(), *h);
        }
        m
    }
}

/// Outage hours per calendar month.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MonthlyHours {
    hours: BTreeMap<MonthId, f64>,
}

impl MonthlyHours {
    /// Hours in `month` (0 when none).
    pub fn get(&self, month: MonthId) -> f64 {
        self.hours.get(&month).copied().unwrap_or(0.0)
    }

    /// Adds hours to a month.
    pub fn add(&mut self, month: MonthId, hours: f64) {
        *self.hours.entry(month).or_insert(0.0) += hours;
    }

    /// Iterates `(month, hours)` in order.
    pub fn iter(&self) -> impl Iterator<Item = (MonthId, f64)> + '_ {
        self.hours.iter().map(|(m, h)| (*m, *h))
    }

    /// Total hours (`+0.0` when empty).
    pub fn total(&self) -> f64 {
        positive_sum(self.hours.values())
    }

    /// The month with the most hours, if any.
    pub fn peak(&self) -> Option<(MonthId, f64)> {
        self.hours
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(m, h)| (*m, *h))
    }
}

/// Sums hours from `+0.0`: `Iterator::sum` over `f64` starts at `-0.0`,
/// so an empty matrix would total `-0.0` and print as `-0`.
fn positive_sum<'a>(hours: impl Iterator<Item = &'a f64>) -> f64 {
    // fbs-lint: allow(float-reduction-order) sequential sum over a BTreeMap's values in key (calendar) order
    hours.fold(0.0, |total, h| total + h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbs_signals::{EntityId, SignalKind};
    use fbs_types::Asn;

    fn ev(start: u32, end: u32) -> OutageEvent {
        OutageEvent {
            entity: EntityId::As(Asn(1)),
            signal: SignalKind::Ips,
            start: Round(start),
            end: Round(end),
            min_ratio: 0.0,
        }
    }

    #[test]
    fn day_boundaries_respected() {
        // Round 0 = 2022-03-02 22:00; round 1 = 2022-03-03 00:00.
        let d = DailyHours::from_events(&[ev(0, 2)]);
        assert_eq!(d.get(CivilDate::new(2022, 3, 2)), 2.0);
        assert_eq!(d.get(CivilDate::new(2022, 3, 3)), 2.0);
        assert_eq!(d.total(), 4.0);
    }

    #[test]
    fn overlaps_count_once() {
        let d = DailyHours::from_events(&[ev(0, 6), ev(3, 8)]);
        assert_eq!(d.total(), 16.0);
    }

    #[test]
    fn dense_range_fills_gaps() {
        let d = DailyHours::from_events(&[ev(0, 1)]);
        let v = d.dense_range(CivilDate::new(2022, 3, 1), CivilDate::new(2022, 3, 4));
        assert_eq!(v, vec![0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn merge_sums_groups() {
        let mut a = DailyHours::from_events(&[ev(0, 1)]);
        let b = DailyHours::from_events(&[ev(0, 1)]);
        a.merge(&b);
        assert_eq!(a.get(CivilDate::new(2022, 3, 2)), 4.0);
    }

    #[test]
    fn monthly_rollup() {
        // 20 days of continuous outage from round 0 spans March and April 2022?
        // Round 0 starts Mar 2; 20 days later is Mar 22 — all March.
        let d = DailyHours::from_events(&[ev(0, 20 * 12)]);
        let m = d.monthly();
        assert_eq!(m.get(MonthId::new(2022, 3)), 480.0);
        assert_eq!(m.get(MonthId::new(2022, 4)), 0.0);
        assert_eq!(m.total(), 480.0);
        assert_eq!(m.peak(), Some((MonthId::new(2022, 3), 480.0)));
    }

    #[test]
    fn empty_events_empty_matrices() {
        let d = DailyHours::from_events(&[]);
        assert_eq!(d.total(), 0.0);
        assert_eq!(d.monthly().peak(), None);
        assert_eq!(d.iter().count(), 0);
        // `-0.0 == 0.0`, so the sign needs its own check.
        assert!(d.total().is_sign_positive());
        assert!(d.monthly().total().is_sign_positive());
    }
}
