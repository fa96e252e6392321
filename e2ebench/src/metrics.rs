//! Metric definitions and their computation from passes.
//!
//! End-to-end metrics come from untraced passes. Per-layer metrics
//! come from traced passes: the harness times its own calls into each
//! crate and reads the counters the program already returns
//! (`RunStats`, `SolverStats`, `MiningStats`).

use crate::oracle::Evidence;
use crate::Pass;
use japrove_aig::Cone;
use japrove_sat::SolverStats;
use std::time::Duration;

/// A metric the benchmark reports.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name as printed (and listed in `BENCHMARK.json`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// The end-to-end metric and workload this one should move.
    pub moves: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        moves,
    }
}

/// The end-to-end metrics (untraced runs; median over passes, except
/// the process-wide high-water mark).
pub const END_TO_END: [MetricDef; 4] = [
    def(
        "wall_s",
        "s",
        "lower",
        "one pass, AIGER bytes to all verdicts",
    ),
    def(
        "setup_s",
        "s",
        "lower",
        "read_aiger + from_aiger (+ mine) before each design's Session::run",
    ),
    def(
        "props_per_s",
        "1/s",
        "higher",
        "decided properties / time in Session::run",
    ),
    def(
        "peak_rss_mb",
        "MB",
        "lower",
        "VmHWM of the benchmark process",
    ),
];

const SETUP: &str = "setup_s on ja-failing / global-deep";
const MINE: &str = "setup_s on ja-mined";
const CORE_FIXED: &str = "props_per_s on ja-mined (fixed cost)";
const CORE_RETRY: &str = "wall_s on ja-failing (retries)";
const IC3: &str = "wall_s on global-deep, then ja-failing";
const SAT_PROP: &str = "props_per_s on ja-mined";
const SAT_CONFLICT: &str = "wall_s and peak_rss_mb on global-deep";
const DESCRIPTOR: &str = "descriptor only";

/// The per-layer metrics (traced runs), each with what it should move.
pub const PER_LAYER: [MetricDef; 50] = [
    def("aig.parse_ms", "ms", "lower", SETUP),
    def("aig.ands", "count", "lower", DESCRIPTOR),
    def("aig.latches", "count", "lower", DESCRIPTOR),
    def("tsys.build_ms", "ms", "lower", SETUP),
    def("tsys.cone_latches_mean", "count", "lower", DESCRIPTOR),
    def("tsys.replay_ms", "ms", "lower", "sizes a certify stage"),
    def("tsys.replays", "count", "lower", DESCRIPTOR),
    def("mine.ms", "ms", "lower", MINE),
    def("mine.generated", "count", "lower", MINE),
    def("mine.sim_killed", "count", "higher", MINE),
    def("mine.induction_killed", "count", "lower", MINE),
    def("mine.promoted", "count", "higher", DESCRIPTOR),
    def("mine.promoted_ratio", "ratio", "higher", MINE),
    def("mine.induction_ms", "ms", "lower", MINE),
    def(
        "core.run_ms",
        "ms",
        "lower",
        "props_per_s on every workload",
    ),
    def("core.plan_ms", "ms", "lower", CORE_FIXED),
    def("core.encode_ms", "ms", "lower", CORE_FIXED),
    def("core.property_ms", "ms", "lower", IC3),
    def("core.outside_property_ms", "ms", "lower", CORE_FIXED),
    def("core.outside_us_per_prop", "us", "lower", CORE_FIXED),
    def("core.prop_ms_p50", "ms", "lower", CORE_FIXED),
    def("core.prop_ms_max", "ms", "lower", IC3),
    def("core.proved", "count", "higher", DESCRIPTOR),
    def("core.falsified", "count", "higher", DESCRIPTOR),
    def("core.spurious_retries", "count", "lower", CORE_RETRY),
    def("core.retry_ratio", "ratio", "lower", CORE_RETRY),
    def("core.debug_set_size", "count", "lower", DESCRIPTOR),
    def("core.validate_ms", "ms", "lower", "sizes a certify stage"),
    def("ic3.frames", "count", "lower", IC3),
    def("ic3.queries", "count", "lower", IC3),
    def("ic3.obligations", "count", "lower", IC3),
    def("ic3.generalized_lits", "count", "higher", IC3),
    def("ic3.clauses", "count", "lower", IC3),
    def("ic3.queries_per_prop", "count", "lower", CORE_FIXED),
    def("ic3.certify_ms", "ms", "lower", "sizes a certify stage"),
    def("ic3.certificates", "count", "lower", DESCRIPTOR),
    def("sat.solves", "count", "lower", IC3),
    def("sat.decisions", "count", "lower", SAT_CONFLICT),
    def("sat.propagations", "count", "lower", SAT_PROP),
    def("sat.conflicts", "count", "lower", SAT_CONFLICT),
    def("sat.learnt_clauses", "count", "lower", SAT_CONFLICT),
    def("sat.deleted_clauses", "count", "lower", SAT_CONFLICT),
    def("sat.restarts", "count", "lower", SAT_CONFLICT),
    def("sat.propagations_per_solve", "count", "lower", SAT_PROP),
    def("sat.conflicts_per_solve", "count", "lower", SAT_CONFLICT),
    def("sat.property_us_per_solve", "us", "lower", IC3),
    def(
        "obs.trace_overhead_frac",
        "frac",
        "lower",
        "must stay near 0 on all three",
    ),
    def(
        "obs.unattributed_ms",
        "ms",
        "lower",
        "wall_s: the pass time outside parse, build, mine and run",
    ),
    def("pass.wall_ms", "ms", "lower", "wall_s (traced)"),
    def("pass.setup_ms", "ms", "lower", "setup_s (traced)"),
];

/// The median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs` (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end quantities of one untraced pass:
/// `(wall_s, setup_s, props_per_s)`.
pub fn pass_end_to_end(pass: &Pass) -> [f64; 3] {
    let decided = (pass.attempted() - pass.unsolved()) as f64;
    [
        pass.wall.as_secs_f64(),
        pass.setup().as_secs_f64(),
        ratio(decided, pass.run().as_secs_f64()),
    ]
}

/// The per-layer values one traced pass yields (every [`PER_LAYER`]
/// metric except those from the oracle and the traced/untraced
/// comparison), in `(name, value)` form.
pub fn pass_layers(pass: &Pass) -> Vec<(&'static str, f64)> {
    let ds = &pass.designs;
    let sum_d = |f: fn(&crate::DesignRun) -> Duration| ms(ds.iter().map(f).sum());
    let results = || ds.iter().flat_map(|d| d.report.results.iter());
    let mining = || ds.iter().filter_map(|d| d.mining.as_ref());

    let parse = sum_d(|d| d.parse);
    let build = sum_d(|d| d.build);
    let mine = sum_d(|d| d.mine);
    let run = sum_d(|d| d.run);
    let property = ms(results().map(|r| r.time).sum());
    let props = results().count() as f64;
    let prop_ms: Vec<f64> = results().map(|r| ms(r.time)).collect();
    let falsified = results().filter(|r| r.fails()).count() as f64;
    let retried = results().filter(|r| r.retried).count() as f64;
    let generated = mining().map(|m| m.generated()).sum::<usize>() as f64;
    let promoted = mining().map(|m| m.promoted()).sum::<usize>() as f64;
    let sat = results().fold(SolverStats::default(), |acc, r| acc + r.stats.sat);
    let ic3 =
        |f: fn(&japrove_ic3::RunStats) -> u64| results().map(|r| f(&r.stats)).sum::<u64>() as f64;
    let queries = ic3(|s| s.queries);
    let solves = sat.solves as f64;

    vec![
        ("aig.parse_ms", parse),
        ("aig.ands", ds.iter().map(|d| d.ands).sum::<usize>() as f64),
        (
            "aig.latches",
            ds.iter().map(|d| d.latches).sum::<usize>() as f64,
        ),
        ("tsys.build_ms", build),
        ("mine.ms", mine),
        ("mine.generated", generated),
        (
            "mine.sim_killed",
            mining().map(|m| m.sim_killed()).sum::<usize>() as f64,
        ),
        (
            "mine.induction_killed",
            mining().map(|m| m.induction_killed()).sum::<usize>() as f64,
        ),
        ("mine.promoted", promoted),
        ("mine.promoted_ratio", ratio(promoted, generated)),
        (
            "mine.induction_ms",
            mining().map(|m| m.induction_us).sum::<u64>() as f64 / 1e3,
        ),
        ("core.run_ms", run),
        ("core.plan_ms", sum_d(|d| d.plan)),
        ("core.encode_ms", sum_d(|d| d.encode)),
        ("core.property_ms", property),
        ("core.outside_property_ms", run - property),
        (
            "core.outside_us_per_prop",
            ratio((run - property) * 1e3, props),
        ),
        ("core.prop_ms_p50", median(&prop_ms)),
        (
            "core.prop_ms_max",
            prop_ms.iter().copied().fold(0.0, f64::max),
        ),
        (
            "core.proved",
            results().filter(|r| r.holds()).count() as f64,
        ),
        ("core.falsified", falsified),
        ("core.spurious_retries", retried),
        ("core.retry_ratio", ratio(retried, falsified)),
        (
            "core.debug_set_size",
            ds.iter()
                .map(|d| d.report.debugging_set().len())
                .sum::<usize>() as f64,
        ),
        ("ic3.frames", ic3(|s| s.frames as u64)),
        ("ic3.queries", queries),
        ("ic3.obligations", ic3(|s| s.obligations)),
        ("ic3.generalized_lits", ic3(|s| s.generalized_lits)),
        ("ic3.clauses", ic3(|s| s.clauses as u64)),
        ("ic3.queries_per_prop", ratio(queries, props)),
        ("sat.solves", solves),
        ("sat.decisions", sat.decisions as f64),
        ("sat.propagations", sat.propagations as f64),
        ("sat.conflicts", sat.conflicts as f64),
        ("sat.learnt_clauses", sat.learnt_clauses as f64),
        ("sat.deleted_clauses", sat.deleted_clauses as f64),
        ("sat.restarts", sat.restarts as f64),
        (
            "sat.propagations_per_solve",
            ratio(sat.propagations as f64, solves),
        ),
        (
            "sat.conflicts_per_solve",
            ratio(sat.conflicts as f64, solves),
        ),
        ("sat.property_us_per_solve", ratio(property * 1e3, solves)),
        (
            "obs.unattributed_ms",
            ms(pass.wall) - parse - build - mine - run,
        ),
        ("pass.wall_ms", ms(pass.wall)),
        ("pass.setup_ms", ms(pass.setup())),
    ]
}

/// The per-layer values taken from the oracle's evidence check and the
/// design's structure (once per traced run).
pub fn evidence_layers(pass: &Pass, ev: &Evidence) -> Vec<(&'static str, f64)> {
    let cone_latches: Vec<f64> = pass
        .designs
        .iter()
        .flat_map(|d| {
            d.sys
                .properties()
                .iter()
                .map(|p| Cone::sequential(d.sys.aig(), [p.good]).num_latches() as f64)
        })
        .collect();
    let mean = ratio(cone_latches.iter().sum(), cone_latches.len() as f64);
    vec![
        ("tsys.cone_latches_mean", mean),
        ("tsys.replay_ms", ms(ev.replay)),
        ("tsys.replays", ev.replays as f64),
        ("ic3.certify_ms", ms(ev.certify)),
        ("ic3.certificates", ev.certificates as f64),
        ("core.validate_ms", ms(ev.validate)),
    ]
}

/// Whether a per-layer metric is a count (or a ratio of counts), which
/// must repeat exactly for a seed, rather than a time.
pub fn is_counter(name: &str) -> bool {
    PER_LAYER
        .iter()
        .any(|d| d.name == name && matches!(d.unit, "count" | "ratio"))
}

/// The high-water mark of this process's resident set, in MB (VmHWM
/// from `/proc/self/status`), or `None` where it is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
