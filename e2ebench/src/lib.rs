//! The japrove end-to-end benchmark: three named workloads, each a
//! fixed list of genbench families, run through the public API of the
//! `aig`, `tsys`, `mine`, `core`, `ic3` and `sat` crates.
//!
//! One *pass* takes every design of a workload from AIGER bytes to
//! verdicts: `read_aiger` → `TransitionSystem::from_aiger` (→ `mine`)
//! → `Session::run`. Generating the designs and serializing them to
//! AIGER is the harness's own work and happens before any pass. The
//! oracle ([`oracle`]) checks every pass's verdicts against the
//! generator's ground truth, and the evidence (counterexample replays,
//! proof certificates, the debugging set) of one pass per run.

pub mod metrics;
pub mod oracle;

use japrove_aig::{read_aiger, write_aiger_binary};
use japrove_core::{MultiReport, Scope, SeparateOptions, Session};
use japrove_genbench::{all_true_specs, failing_specs, many_props_specs, Expected, FamilyParams};
use japrove_mine::{mine, MineOptions, MiningStats};
use japrove_obs::{EventKind, Journal, Phase};
use japrove_tsys::TransitionSystem;
use std::time::{Duration, Instant};

/// A named workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// JA (local proofs, clause re-use) on every failing and
    /// many-property family.
    JaFailing,
    /// Property mining, then JA on the mined all-true systems.
    JaMined,
    /// The separate-global baseline on the families with deep
    /// counterexamples.
    GlobalDeep,
}

/// The `ja-mined` families. `syn_6s407` (two-thirds of a pass on its
/// own) and the tiny `syn_6s256` / `syn_6s273` are left out.
const MINED_FAMILIES: [&str; 5] = [
    "syn_6s124",
    "syn_6s135",
    "syn_6s139",
    "syn_bob12m09",
    "syn_6s275",
];

/// The `global-deep` families.
const DEEP_FAMILIES: [&str; 3] = ["syn_6s260", "syn_6s207", "syn_6s335"];

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::JaFailing, Workload::JaMined, Workload::GlobalDeep];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::JaFailing => "ja-failing",
            Workload::JaMined => "ja-mined",
            Workload::GlobalDeep => "global-deep",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::JaFailing => {
                "the paper's JA driver on failing designs: assumptions, short local cexes, \
                 spurious-cex retries, clause re-use and the debugging set"
            }
            Workload::JaMined => {
                "thousands of near-trivial mined proofs: mining cost plus JA's per-property \
                 fixed cost and O(#props) assumptions per query"
            }
            Workload::GlobalDeep => {
                "separate-global baseline: no assumptions, a few deep cexes with many \
                 conflicts, so SAT and IC3 hot paths dominate"
            }
        }
    }

    /// The proof scope of the workload's driver.
    pub fn scope(self) -> Scope {
        match self {
            Workload::JaFailing | Workload::JaMined => Scope::Local,
            Workload::GlobalDeep => Scope::Global,
        }
    }

    /// Whether a pass mines properties before verifying.
    pub fn mines(self) -> bool {
        self == Workload::JaMined
    }

    /// The workload's genbench families with their canonical seeds.
    pub fn families(self) -> Vec<FamilyParams> {
        let pick = |specs: Vec<FamilyParams>, names: &[&str]| -> Vec<FamilyParams> {
            names
                .iter()
                .map(|&n| {
                    specs
                        .iter()
                        .find(|s| s.name == n)
                        .unwrap_or_else(|| panic!("genbench has no family {n}"))
                        .clone()
                })
                .collect()
        };
        match self {
            Workload::JaFailing => failing_specs()
                .into_iter()
                .chain(many_props_specs())
                .collect(),
            Workload::JaMined => pick(all_true_specs(), &MINED_FAMILIES),
            Workload::GlobalDeep => pick(failing_specs(), &DEEP_FAMILIES),
        }
    }

    /// Which share of the Proved certificates an untraced run
    /// re-checks: every one, except on `ja-mined`, where re-checking
    /// all ~3,100 takes about ten passes' time, and every eighth one
    /// (from a seed-chosen offset) is checked. Traced runs check all.
    pub fn certify_stride(self) -> usize {
        if self.mines() {
            8
        } else {
            1
        }
    }

    /// Designs generated per family: `global-deep` verifies each of
    /// its three families under three seeds, because the work of one
    /// design moves by ±10% with its property order.
    pub fn variants(self) -> u64 {
        match self {
            Workload::GlobalDeep => 3,
            Workload::JaFailing | Workload::JaMined => 1,
        }
    }

    /// The workload's inputs under workload seed `seed`.
    pub fn inputs(self, seed: u64) -> Vec<Input> {
        make_inputs(&self.families(), seed, self.variants())
    }

    /// The session a pass runs on each design: the JA driver or the
    /// separate-global baseline, sequential (one thread).
    pub fn session(self, journal: Journal) -> Session {
        let opts = match self.scope() {
            Scope::Local => SeparateOptions::local(),
            Scope::Global => SeparateOptions::global(),
        };
        Session::separate(opts.journal(journal))
    }
}

/// Derives a per-use seed from the workload seed; workload seed 0
/// keeps `base` (the canonical genbench / mining seed).
fn reseed(base: u64, seed: u64) -> u64 {
    base.wrapping_add(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// The mining options of a `ja-mined` pass under workload seed `seed`.
fn mine_options(seed: u64) -> MineOptions {
    let defaults = MineOptions::new();
    let stimulus = reseed(defaults.seed, seed);
    defaults.seed(stimulus)
}

/// One design as it reaches the program: AIGER bytes plus the
/// generator's ground truth (aligned with property ids).
#[derive(Clone, Debug)]
pub struct Input {
    /// Design name.
    pub name: String,
    /// The design in binary AIGER.
    pub aiger: Vec<u8>,
    /// Ground truth per property of the generated design.
    pub expected: Vec<Expected>,
}

/// Generates `variants` designs of each of `families` under workload
/// seed `seed` and serializes each to binary AIGER (the harness's
/// untimed work). The seed re-seeds `FamilyParams.seed`, which orders
/// the property kinds; the ground truth travels with the design.
/// Variant 0 of seed 0 is the canonical genbench design.
pub fn make_inputs(families: &[FamilyParams], seed: u64, variants: u64) -> Vec<Input> {
    let mut inputs = Vec::new();
    for v in 0..variants {
        for spec in families {
            let mut params = spec.clone();
            params.seed = reseed(spec.seed, seed.wrapping_mul(variants).wrapping_add(v));
            let design = params.generate();
            let mut aiger = Vec::new();
            write_aiger_binary(&mut aiger, &design.sys.to_aiger())
                .expect("writing to a Vec cannot fail");
            let name = if variants == 1 {
                spec.name.clone()
            } else {
                format!("{}#{v}", spec.name)
            };
            inputs.push(Input {
                name,
                aiger,
                expected: design.expected,
            });
        }
    }
    inputs
}

/// One design's share of a pass.
#[derive(Debug)]
pub struct DesignRun {
    /// Design name.
    pub name: String,
    /// The system the session verified (the mined system on
    /// `ja-mined`).
    pub sys: TransitionSystem,
    /// Ground truth for `sys`'s properties.
    pub expected: Vec<Expected>,
    /// The session's report.
    pub report: MultiReport,
    /// AND gates of the parsed design.
    pub ands: usize,
    /// Latches of the parsed design.
    pub latches: usize,
    /// Mining accounting (`ja-mined` only).
    pub mining: Option<MiningStats>,
    /// Time in `read_aiger`.
    pub parse: Duration,
    /// Time in `TransitionSystem::from_aiger`.
    pub build: Duration,
    /// Time in `mine` (zero unless the workload mines).
    pub mine: Duration,
    /// Time in `Session::run`.
    pub run: Duration,
    /// Σ `plan` span durations (traced passes only).
    pub plan: Duration,
    /// Σ `encode` span durations (traced passes only).
    pub encode: Duration,
}

impl DesignRun {
    /// Everything before the first `Session::run` on this design.
    pub fn setup(&self) -> Duration {
        self.parse + self.build + self.mine
    }
}

/// One pass over every design of a workload.
#[derive(Debug)]
pub struct Pass {
    /// Per-design outcomes, in input order.
    pub designs: Vec<DesignRun>,
    /// Wall time of the whole pass.
    pub wall: Duration,
}

impl Pass {
    /// Set-up time of the pass (Σ over designs).
    pub fn setup(&self) -> Duration {
        self.designs.iter().map(DesignRun::setup).sum()
    }

    /// Time spent in `Session::run` (Σ over designs).
    pub fn run(&self) -> Duration {
        self.designs.iter().map(|d| d.run).sum()
    }

    /// Properties attempted.
    pub fn attempted(&self) -> usize {
        self.designs.iter().map(|d| d.report.results.len()).sum()
    }

    /// Properties left `Unknown`.
    pub fn unsolved(&self) -> usize {
        self.designs.iter().map(|d| d.report.num_unsolved()).sum()
    }
}

/// A design after set-up: the system its session will verify.
struct Prepared {
    sys: TransitionSystem,
    expected: Vec<Expected>,
    mining: Option<MiningStats>,
    ands: usize,
    latches: usize,
    parse: Duration,
    build: Duration,
    mine: Duration,
}

/// The set-up of one design: `read_aiger`, `from_aiger` and, on
/// `ja-mined`, `mine`.
fn set_up(workload: Workload, input: &Input, seed: u64) -> Result<Prepared, String> {
    let t = Instant::now();
    let model = read_aiger(&input.aiger).map_err(|e| format!("{}: {e}", input.name))?;
    let parse = t.elapsed();
    let (ands, latches) = (model.aig.num_ands(), model.aig.num_latches());

    let t = Instant::now();
    let sys = TransitionSystem::from_aiger(input.name.as_str(), model);
    let build = t.elapsed();

    if !workload.mines() {
        let expected = input.expected.clone();
        return Ok(Prepared {
            sys,
            expected,
            mining: None,
            ands,
            latches,
            parse,
            build,
            mine: Duration::ZERO,
        });
    }
    let t = Instant::now();
    let outcome = mine(&sys, &mine_options(seed));
    let mine = t.elapsed();
    Ok(Prepared {
        expected: vec![Expected::True; outcome.sys.num_properties()],
        sys: outcome.sys,
        mining: Some(outcome.stats),
        ands,
        latches,
        parse,
        build,
        mine,
    })
}

/// Runs one pass of `workload` over `inputs`. A traced pass attaches
/// an `obs::Journal` to each session (for the plan/encode spans); an
/// untraced pass runs exactly what a user's run would.
///
/// # Errors
///
/// Returns a description of an input the program rejected.
pub fn run_pass(
    workload: Workload,
    inputs: &[Input],
    seed: u64,
    traced: bool,
) -> Result<Pass, String> {
    let started = Instant::now();
    let mut designs = Vec::with_capacity(inputs.len());
    for input in inputs {
        let Prepared {
            sys,
            expected,
            mining,
            ands,
            latches,
            parse,
            build,
            mine,
        } = set_up(workload, input, seed)?;

        let journal = if traced {
            Journal::new()
        } else {
            Journal::disabled()
        };
        let mut session = workload.session(journal.clone());
        let t = Instant::now();
        let report = session.run(&sys);
        let run = t.elapsed();

        designs.push(DesignRun {
            name: input.name.clone(),
            sys,
            expected,
            report,
            ands,
            latches,
            mining,
            parse,
            build,
            mine,
            run,
            plan: span_total(&journal, Phase::Plan),
            encode: span_total(&journal, Phase::Encode),
        });
    }
    Ok(Pass {
        designs,
        wall: started.elapsed(),
    })
}

/// Σ of the durations of every `phase` span in `journal`.
fn span_total(journal: &Journal, phase: Phase) -> Duration {
    let us: u64 = journal
        .events()
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Span {
                phase: p, dur_us, ..
            } if *p == phase => Some(*dur_us),
            _ => None,
        })
        .sum();
    Duration::from_micros(us)
}
