//! End-of-run phase metrics: aggregating a journal's spans into the
//! `--metrics` breakdown table.

use crate::journal::{Event, EventKind, Phase};
use std::fmt::Write as _;

/// Aggregated wall-clock of one phase across a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseRow {
    /// The phase.
    pub phase: Phase,
    /// Number of spans of this phase.
    pub count: usize,
    /// Summed duration of all its spans, in microseconds. Spans of
    /// *different* phases nest (a cluster span contains its joint
    /// attempt and fallbacks), so rows are per-phase totals, not an
    /// exclusive partition.
    pub total_us: u64,
}

/// Sums span durations by phase, in [`Phase::ALL`] order; phases with
/// no spans are omitted.
///
/// # Examples
///
/// ```
/// use japrove_obs::{metrics::phase_breakdown, Journal, Phase};
///
/// let j = Journal::new();
/// drop(j.span(Phase::Encode));
/// drop(j.span(Phase::Property));
/// drop(j.span(Phase::Property));
/// let rows = phase_breakdown(&j.events());
/// assert_eq!(rows.len(), 2);
/// assert_eq!(rows[1].count, 2);
/// ```
pub fn phase_breakdown(events: &[Event]) -> Vec<PhaseRow> {
    let mut rows: Vec<PhaseRow> = Phase::ALL
        .iter()
        .map(|&phase| PhaseRow {
            phase,
            count: 0,
            total_us: 0,
        })
        .collect();
    for e in events {
        if let EventKind::Span { phase, dur_us, .. } = e.kind {
            let row = rows.iter_mut().find(|r| r.phase == phase).unwrap();
            row.count += 1;
            row.total_us += dur_us;
        }
    }
    rows.retain(|r| r.count > 0);
    rows
}

/// Sums the durations of *top-level* phase spans: spans with no
/// parent, or whose parent is the [`Phase::Run`] root. With a single
/// worker these partition the run, so their sum tracks wall-clock —
/// the property the trace-coverage acceptance test checks.
pub fn top_level_span_us(events: &[Event]) -> u64 {
    let run_ids: Vec<u64> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Span {
                phase: Phase::Run,
                id,
                ..
            } => Some(id),
            _ => None,
        })
        .collect();
    events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Span { phase, dur_us, .. } if phase != Phase::Run => {
                let top = match e.span {
                    None => true,
                    Some(parent) => run_ids.contains(&parent),
                };
                top.then_some(dur_us)
            }
            _ => None,
        })
        .sum()
}

/// The denominator of the breakdown's share column: the root
/// [`Phase::Run`] span, or the summed top-level spans
/// ([`top_level_span_us`]) where those are longer — parallel workers'
/// top-level spans overlap in time. Neither the root row nor the
/// top-level rows together can then exceed 100%.
pub fn share_base_us(events: &[Event]) -> u64 {
    let root = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Span {
                phase: Phase::Run,
                dur_us,
                ..
            } => Some(dur_us),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    root.max(top_level_span_us(events))
}

/// Renders the breakdown as a right-aligned text table with each
/// phase's share of `wall_us` (normally [`share_base_us`]).
pub fn render_breakdown(rows: &[PhaseRow], wall_us: u64) -> String {
    let mut out = String::from("phase            spans        total    share\n");
    for r in rows {
        let share = if wall_us > 0 {
            100.0 * r.total_us as f64 / wall_us as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:<15} {:>6} {:>10.3} s {:>7.1}%",
            r.phase.name(),
            r.count,
            r.total_us as f64 / 1e6,
            share
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Journal;

    #[test]
    fn breakdown_counts_and_orders_phases() {
        let j = Journal::new();
        {
            let _run = j.span(Phase::Run);
            drop(j.span(Phase::Encode));
            drop(j.span_labeled(Phase::Cluster, "0"));
            drop(j.span_labeled(Phase::Cluster, "1"));
        }
        let rows = phase_breakdown(&j.events());
        let phases: Vec<Phase> = rows.iter().map(|r| r.phase).collect();
        assert_eq!(phases, vec![Phase::Run, Phase::Encode, Phase::Cluster]);
        assert_eq!(rows[2].count, 2);
        let table = render_breakdown(&rows, 1_000_000);
        assert!(table.contains("cluster"));
        assert!(table.lines().count() == 4);
    }

    /// The share column of `table`'s row for `phase`, in percent.
    fn share_of(table: &str, phase: Phase) -> f64 {
        table
            .lines()
            .find(|l| l.split_whitespace().next() == Some(phase.name()))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|s| s.trim_end_matches('%').parse().ok())
            .expect("row with a share")
    }

    #[test]
    fn top_level_shares_sum_to_at_most_100_percent() {
        let j = Journal::new();
        {
            let _run = j.span(Phase::Run);
            drop(j.span(Phase::Plan));
            drop(j.span(Phase::Encode));
            // Two workers' top-level spans, overlapping in time.
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let j = j.clone();
                    s.spawn(move || {
                        let _p = j.span(Phase::Property);
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    });
                }
            });
        }
        let events = j.events();
        let base = share_base_us(&events);
        let table = render_breakdown(&phase_breakdown(&events), base);
        let top: f64 = [Phase::Plan, Phase::Encode, Phase::Property]
            .iter()
            .map(|&p| share_of(&table, p))
            .sum();
        // Rendered shares are rounded to 0.1% each.
        assert!(top <= 100.15, "top-level shares sum to {top}%:\n{table}");
        assert!(share_of(&table, Phase::Run) <= 100.0, "{table}");
    }

    #[test]
    fn top_level_sums_only_direct_children_of_run() {
        let j = Journal::new();
        {
            let _run = j.span(Phase::Run);
            let _cluster = j.span(Phase::Cluster);
            // Nested under the cluster: must not be double-counted.
            drop(j.span(Phase::Property));
        }
        let events = j.events();
        let cluster_dur = events
            .iter()
            .find_map(|e| match e.kind {
                EventKind::Span {
                    phase: Phase::Cluster,
                    dur_us,
                    ..
                } => Some(dur_us),
                _ => None,
            })
            .unwrap();
        assert_eq!(top_level_span_us(&events), cluster_dur);
    }
}
