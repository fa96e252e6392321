//! The correctness oracle. Every check runs outside the timed region.
//!
//! * [`check_verdicts`] (every pass): each verdict against genbench's
//!   [`Expected`], under local semantics for JA and global semantics
//!   for the separate-global baseline, and the JA debugging set
//!   against the expected one.
//! * [`check_evidence`] (one pass per run): every counterexample
//!   replays on the netlist and ends in a violation, the Proved
//!   certificates pass `verify_certificate` under their assumption set
//!   (`local_assumptions` for local proofs), and the debugging set
//!   passes `validate_debugging_set`.

use crate::DesignRun;
use japrove_core::{local_assumptions, validate_debugging_set, Scope};
use japrove_genbench::Expected;
use japrove_ic3::{verify_certificate, CheckOutcome};
use japrove_tsys::{replay, PropertyId};
use std::time::{Duration, Instant};

/// Whether `expected` means the property fails under `scope`.
fn expected_to_fail(expected: Expected, scope: Scope) -> bool {
    match scope {
        Scope::Local => expected.fails_locally(),
        Scope::Global => !expected.holds_globally(),
    }
}

/// The earliest depth at which a counterexample for a property with
/// ground truth `expected` can end, under `scope`.
fn min_cex_depth(expected: Expected, scope: Scope) -> usize {
    match (expected, scope) {
        (Expected::FailsAt(d), _) => d,
        (Expected::ShadowedFailsAt { own_depth, .. }, Scope::Global) => own_depth,
        _ => 0,
    }
}

/// Checks every verdict of one design against its ground truth and
/// returns the number of `Unknown` verdicts (failed, not wrong).
///
/// # Errors
///
/// Describes the first missing, duplicated, mis-scoped or wrong
/// verdict, or a debugging set that differs from the expected one.
pub fn check_verdicts(d: &DesignRun, scope: Scope) -> Result<usize, String> {
    let report = &d.report;
    if report.results.len() != d.sys.num_properties() || d.expected.len() != d.sys.num_properties()
    {
        return Err(format!(
            "{}: {} verdicts and {} ground-truth entries for {} properties",
            d.name,
            report.results.len(),
            d.expected.len(),
            d.sys.num_properties()
        ));
    }
    let mut seen = vec![false; d.sys.num_properties()];
    let mut unknown = 0;
    for r in &report.results {
        let i = r.id.index();
        if i >= seen.len() || std::mem::replace(&mut seen[i], true) {
            return Err(format!("{}: duplicate or foreign verdict {}", d.name, r.id));
        }
        if r.scope != scope {
            return Err(format!(
                "{}/{}: {} verdict, expected {scope}",
                d.name, r.name, r.scope
            ));
        }
        if r.outcome.is_unknown() {
            unknown += 1;
            continue;
        }
        let want_fail = expected_to_fail(d.expected[i], scope);
        if r.fails() != want_fail {
            return Err(format!(
                "{}/{}: {} ({scope}), ground truth {:?}",
                d.name, r.name, r.outcome, d.expected[i]
            ));
        }
    }
    if scope == Scope::Local {
        // genbench's `expected_debugging_set`, restricted to the
        // properties that got a verdict.
        let decided = |p: &PropertyId| report.result(*p).is_some_and(|r| !r.outcome.is_unknown());
        let want: Vec<PropertyId> = (0..d.expected.len())
            .filter(|&i| d.expected[i].fails_locally())
            .map(PropertyId::new)
            .filter(decided)
            .collect();
        let mut got = report.debugging_set();
        got.sort();
        if got != want {
            return Err(format!(
                "{}: debugging set {got:?}, expected {want:?}",
                d.name
            ));
        }
    }
    Ok(unknown)
}

/// What [`check_evidence`] checked and how long each check took.
#[derive(Clone, Copy, Debug, Default)]
pub struct Evidence {
    /// Counterexamples replayed.
    pub replays: usize,
    /// Time in `tsys::replay`.
    pub replay: Duration,
    /// Certificates re-checked.
    pub certificates: usize,
    /// Time in `verify_certificate`.
    pub certify: Duration,
    /// Time in `validate_debugging_set` (local scope only).
    pub validate: Duration,
}

impl std::ops::AddAssign for Evidence {
    fn add_assign(&mut self, rhs: Evidence) {
        self.replays += rhs.replays;
        self.replay += rhs.replay;
        self.certificates += rhs.certificates;
        self.certify += rhs.certify;
        self.validate += rhs.validate;
    }
}

/// Re-checks the evidence behind the verdicts of one design: every
/// counterexample, and the certificate of every `certify_stride`-th
/// Proved property (counting from `offset`; stride 1 checks them all).
///
/// # Errors
///
/// Describes the first counterexample that does not replay to a
/// violation (or ends too early for the ground truth), the first
/// certificate that does not verify, or a debugging-set guarantee
/// that does not hold.
pub fn check_evidence(
    d: &DesignRun,
    scope: Scope,
    certify_stride: usize,
    offset: usize,
) -> Result<Evidence, String> {
    let mut ev = Evidence::default();
    let assumed = local_assumptions(&d.sys);
    let mut proved = 0;
    for r in &d.report.results {
        match &r.outcome {
            CheckOutcome::Falsified(cex) => {
                let t = Instant::now();
                let replayed = replay(&d.sys, &cex.trace);
                ev.replay += t.elapsed();
                ev.replays += 1;
                let replayed =
                    replayed.map_err(|e| format!("{}/{}: cex replay: {e}", d.name, r.name))?;
                if !replayed.violates_finally(r.id) {
                    return Err(format!(
                        "{}/{}: cex does not end in a violation",
                        d.name, r.name
                    ));
                }
                let min_depth = min_cex_depth(d.expected[r.id.index()], scope);
                if cex.depth != cex.trace.len() || cex.trace.len() < min_depth {
                    return Err(format!(
                        "{}/{}: cex of depth {} and length {}; the earliest violation is at {min_depth}",
                        d.name,
                        r.name,
                        cex.depth,
                        cex.trace.len()
                    ));
                }
            }
            CheckOutcome::Proved(cert) => {
                proved += 1;
                if !(proved + offset).is_multiple_of(certify_stride.max(1)) {
                    continue;
                }
                let assumed: &[PropertyId] = match r.scope {
                    Scope::Local => &assumed,
                    Scope::Global => &[],
                };
                let t = Instant::now();
                let verified = verify_certificate(&d.sys, r.id, assumed, cert);
                ev.certify += t.elapsed();
                ev.certificates += 1;
                verified.map_err(|e| format!("{}/{}: certificate: {e}", d.name, r.name))?;
            }
            CheckOutcome::Unknown(_) => {}
        }
    }
    if scope == Scope::Local {
        let t = Instant::now();
        let valid = validate_debugging_set(&d.sys, &d.report, &assumed);
        ev.validate = t.elapsed();
        valid.map_err(|e| format!("{}: debugging set: {e}", d.name))?;
    }
    Ok(ev)
}
