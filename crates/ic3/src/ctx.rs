//! Warm solver contexts: encode once, check many.
//!
//! In a multi-property run the transition relation is the same for
//! every property, yet the original drivers re-encoded the AIG and
//! rebuilt a fresh SAT solver per property. A [`SolverCtx`] removes
//! both costs: the [`TsEncoding`] is computed once per design and
//! shared (via `Arc`, also across worker threads), and the consecution
//! and lifting solvers stay loaded between consecutive property checks
//! on the same worker. Everything property-specific lives behind
//! activation literals ([`SatBackend::add_clause_guarded`]), which are
//! retired and simplified away when a check finishes, so the next
//! property starts from a *warm* solver that still holds the encoding
//! (and its accumulated learnt clauses). What a JA run shares across
//! properties, the assumed-property constraints and the imported
//! clauses, stays resident in the warm solver instead (see `Layers`).
//!
//! [`SatBackend::add_clause_guarded`]: japrove_sat::SatBackend::add_clause_guarded

use crate::{CheckOutcome, Ic3, Ic3Options, RunStats, TsEncoding};
use japrove_logic::{Clause, Var};
use japrove_obs::Journal;
use japrove_sat::{BackendChoice, SatBackend};
use japrove_tsys::{PropertyId, TransitionSystem};
use std::collections::HashSet;
use std::sync::Arc;

/// A live, growing source of strengthening clauses.
///
/// The multi-property drivers publish each proof's certificate into a
/// shared store; engines that run for a long time can *refresh* their
/// imported set mid-run instead of seeing only the snapshot taken when
/// they started. Every clause the source hands out must hold in all
/// reachable states of the (projected) transition system — the §6-B
/// re-use soundness condition.
pub trait ClauseSource {
    /// A monotone cursor counting clauses ever added to the source.
    /// Engines poll this (it must be cheap) and fetch clauses only
    /// when it moved past their own cursor.
    fn version(&self) -> u64;

    /// A snapshot of all clauses currently in the source.
    fn clauses(&self) -> Vec<Clause>;

    /// The clauses added after cursor `since`, plus the new cursor to
    /// resume from. The default falls back to a full snapshot (callers
    /// deduplicate), but sources with an addition log — like the
    /// drivers' clause store — hand out only the delta, which keeps a
    /// per-frame poll O(new clauses) instead of O(store).
    fn clauses_since(&self, since: u64) -> (Vec<Clause>, u64) {
        let _ = since;
        (self.clauses(), self.version())
    }
}

/// The JA layers of a consecution solver: the assumed-property
/// constraints and the imported strengthening clauses, each behind one
/// activation literal.
///
/// In a JA run every check assumes the same properties and imports
/// from the same growing store, so a warm [`SolverCtx`] keeps both
/// layers *resident* between checks and adds only imports it has not
/// seen yet. That is sound because an imported clause holds in every
/// reachable state of the system projected on the layer's assumed set
/// (§6-B), whichever property is checked next. A check under a
/// different assumed set retires both layers and starts new ones.
#[derive(Debug)]
pub(crate) struct Layers {
    /// The assumed set the layers were built for.
    pub(crate) assumed: Vec<PropertyId>,
    /// Guard of the assumed-property constraints; `None` when nothing
    /// is assumed.
    pub(crate) assume_act: Option<Var>,
    /// Guard of the imported clauses, allocated with the first one.
    pub(crate) import_act: Option<Var>,
    /// The resident imported clauses, normalized, in installation
    /// order. Every certificate carries all of them.
    pub(crate) imported: Vec<Clause>,
    imported_set: HashSet<Clause>,
}

impl Layers {
    /// Layers for `assumed` holding `imported`, not yet in any solver
    /// (see [`Layers::install`]).
    pub(crate) fn new(assumed: Vec<PropertyId>, imported: Vec<Clause>) -> Self {
        let mut layers = Layers {
            assumed,
            assume_act: None,
            import_act: None,
            imported: Vec::new(),
            imported_set: HashSet::new(),
        };
        for clause in imported {
            layers.remember(clause);
        }
        layers
    }

    /// Records `clause` unless it is a tautology or already resident;
    /// returns the normalized clause if it is new.
    fn remember(&mut self, clause: Clause) -> Option<&Clause> {
        // Store clauses arrive normalized: try them as they are before
        // paying for a normalized copy.
        if self.imported_set.contains(&clause) {
            return None;
        }
        let normalized = clause.normalized()?;
        if !self.imported_set.insert(normalized.clone()) {
            return None;
        }
        self.imported.push(normalized);
        self.imported.last()
    }

    /// Installs both layers into a solver holding only the base
    /// content, under fresh activation literals: the import layer
    /// first, then the assumed-property constraints.
    pub(crate) fn install(&mut self, solver: &mut dyn SatBackend, enc: &TsEncoding) {
        self.import_act = None;
        if !self.imported.is_empty() {
            let a = solver.new_var();
            for clause in &self.imported {
                solver.add_clause_guarded(a, clause.lits());
            }
            self.import_act = Some(a);
        }
        self.assume_act = None;
        if !self.assumed.is_empty() {
            let a = solver.new_var();
            for &p in &self.assumed {
                solver.add_clause_guarded(a, &[enc.good_lit(p)]);
            }
            self.assume_act = Some(a);
        }
    }

    /// Adds `clause` to the import layer of `solver` unless it is
    /// already resident; returns `true` if it was new.
    pub(crate) fn import(&mut self, solver: &mut dyn SatBackend, clause: Clause) -> bool {
        let act = self.import_act;
        let Some(clause) = self.remember(clause) else {
            return false;
        };
        let act = act.unwrap_or_else(|| solver.new_var());
        solver.add_clause_guarded(act, clause.lits());
        self.import_act = Some(act);
        true
    }

    /// Retires both guards in `solver`; the next
    /// [`SatBackend::simplify`] reclaims the layers' clauses.
    fn retire(&self, solver: &mut dyn SatBackend) {
        for act in self.import_act.into_iter().chain(self.assume_act) {
            solver.retire(act);
        }
    }
}

/// Number of fresh variables a warm solver may accumulate beyond the
/// encoding before it is dropped instead of being reused (temporary
/// activation variables are never reclaimed, only their clauses are).
const VAR_HEADROOM: u32 = 100_000;

/// A reusable per-worker solver context for checking many properties
/// of one design.
///
/// Holds the design's shared [`TsEncoding`] plus warm consecution and
/// lifting solvers. [`SolverCtx::check`] runs one full IC3 check
/// (including clause import and an optional mid-run refresh source) and
/// returns the solvers to the context afterwards.
///
/// # Examples
///
/// ```
/// use japrove_aig::Aig;
/// use japrove_ic3::{Ic3Options, SolverCtx};
/// use japrove_tsys::{TransitionSystem, Word};
///
/// let mut aig = Aig::new();
/// let c = Word::latches(&mut aig, 4, 0);
/// let n = c.increment(&mut aig);
/// c.set_next(&mut aig, &n);
/// let ok = c.lt_const(&mut aig, 16);
/// let le15 = c.le_const(&mut aig, 15);
/// let mut sys = TransitionSystem::new("cnt", aig);
/// let p = sys.add_property("lt16", ok);
/// let q = sys.add_property("le15", le15);
///
/// let mut ctx = SolverCtx::new(&sys);
/// // Both checks share one encoding and one warm solver pair.
/// let (out_p, _) = ctx.check(&sys, p, Ic3Options::new(), &[], Vec::new(), None);
/// let (out_q, _) = ctx.check(&sys, q, Ic3Options::new(), &[], Vec::new(), None);
/// assert!(out_p.is_proved() && out_q.is_proved());
/// ```
pub struct SolverCtx {
    enc: Arc<TsEncoding>,
    backend: BackendChoice,
    /// The warm consecution solver with its resident JA layers.
    cons: Option<(Box<dyn SatBackend>, Layers)>,
    lift: Option<Box<dyn SatBackend>>,
    journal: Journal,
}

impl std::fmt::Debug for SolverCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverCtx")
            .field("backend", &self.backend)
            .field("vars", &self.enc.num_vars())
            .field("warm_cons", &self.cons.is_some())
            .field("warm_lift", &self.lift.is_some())
            .finish()
    }
}

impl SolverCtx {
    /// A context on the default backend, encoding `sys` now.
    pub fn new(sys: &TransitionSystem) -> Self {
        SolverCtx::with_encoding(Arc::new(TsEncoding::new(sys)), BackendChoice::default())
    }

    /// A context over an already-shared encoding (the multi-worker
    /// case: encode the design once, hand the `Arc` to every worker).
    pub fn with_encoding(enc: Arc<TsEncoding>, backend: BackendChoice) -> Self {
        SolverCtx {
            enc,
            backend,
            cons: None,
            lift: None,
            journal: Journal::disabled(),
        }
    }

    /// The shared encoding.
    pub fn encoding(&self) -> &Arc<TsEncoding> {
        &self.enc
    }

    /// Attaches an observability journal; every engine warmed on this
    /// context (and its solver pair) reports into it.
    pub fn set_journal(&mut self, journal: Journal) {
        self.journal = journal;
    }

    /// The attached journal (disabled by default).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The backend every solver of this context is built on.
    pub fn backend(&self) -> BackendChoice {
        self.backend
    }

    /// `true` if a warm consecution solver is currently parked here.
    pub fn is_warm(&self) -> bool {
        self.cons.is_some()
    }

    /// Checks `prop` with a (re)warmed engine: local-proof assumptions
    /// `assumed`, initially `imported` strengthening clauses, and an
    /// optional refresh source the engine polls for clauses published
    /// while it runs. The `u64` alongside the source is its
    /// [`ClauseSource::version`] observed *before* `imported` was
    /// snapshotted from it, so the engine only re-reads the source once
    /// it actually changed (pass `0` to force a first refresh). Returns
    /// the verdict and the run statistics.
    ///
    /// Imported clauses must hold in every reachable state of the
    /// system projected on `assumed`. They stay resident for later
    /// checks under the same `assumed` set, and every certificate
    /// carries all resident imports; a check under another set starts
    /// without them.
    ///
    /// # Panics
    ///
    /// Panics if `sys` is not the design this context encodes (design
    /// name, latch, input or property count differs).
    pub fn check(
        &mut self,
        sys: &TransitionSystem,
        prop: PropertyId,
        opts: Ic3Options,
        assumed: &[PropertyId],
        imported: Vec<Clause>,
        source: Option<(&dyn ClauseSource, u64)>,
    ) -> (CheckOutcome, RunStats) {
        let opts = opts.backend(self.backend);
        let mut engine = Ic3::warm(sys, prop, opts, assumed, imported, self, source);
        let outcome = engine.run();
        let stats = *engine.stats();
        engine.release(self);
        (outcome, stats)
    }

    /// Takes the warm consecution solver with its resident layers if
    /// they were built for `assumed`. Layers for another assumed set
    /// are retired first: their imports need not hold under `assumed`.
    /// Without a warm solver, builds a fresh one with the encoding,
    /// the design constraints and empty layers for `assumed`.
    pub(crate) fn take_cons(&mut self, assumed: &[PropertyId]) -> (Box<dyn SatBackend>, Layers) {
        let mut solver = match self.cons.take() {
            Some((solver, layers)) if layers.assumed == assumed => return (solver, layers),
            Some((mut solver, stale)) => {
                stale.retire(solver.as_mut());
                solver.simplify();
                solver
            }
            None => base_cons(&self.enc, self.backend),
        };
        let mut layers = Layers::new(assumed.to_vec(), Vec::new());
        layers.install(solver.as_mut(), &self.enc);
        (solver, layers)
    }

    /// Takes the warm lifting solver, or builds a fresh one with the
    /// encoding loaded.
    pub(crate) fn take_lift(&mut self) -> Box<dyn SatBackend> {
        self.lift
            .take()
            .unwrap_or_else(|| base_lift(&self.enc, self.backend))
    }

    /// Parks a released solver pair, the consecution solver with its
    /// resident layers, for the next check. Solvers that grew past the
    /// variable headroom (activation variables are never reclaimed) or
    /// hit an unconditional contradiction are dropped, so the next
    /// [`SolverCtx::take_cons`] starts clean.
    pub(crate) fn put_back(
        &mut self,
        cons: Box<dyn SatBackend>,
        layers: Layers,
        lift: Box<dyn SatBackend>,
    ) {
        let cap = self.enc.num_vars().saturating_add(VAR_HEADROOM);
        if cons.is_ok() && cons.num_vars() <= cap {
            self.cons = Some((cons, layers));
        }
        if lift.is_ok() && lift.num_vars() <= cap {
            self.lift = Some(lift);
        }
    }
}

/// A fresh consecution base solver: encoding plus design-constraint
/// units, nothing property-specific. This is exactly the state a warm
/// solver returns to after its per-run activation literals are retired
/// (modulo learnt clauses and dead variables).
pub(crate) fn base_cons(enc: &TsEncoding, backend: BackendChoice) -> Box<dyn SatBackend> {
    let mut solver = backend.build();
    enc.load_into(solver.as_mut());
    for &c in enc.constraint_lits() {
        solver.add_clause(&[c]);
    }
    solver
}

/// A fresh lifting base solver: the bare encoding.
pub(crate) fn base_lift(enc: &TsEncoding, backend: BackendChoice) -> Box<dyn SatBackend> {
    let mut solver = backend.build();
    enc.load_into(solver.as_mut());
    solver
}

#[cfg(test)]
mod tests {
    use super::*;
    use japrove_aig::Aig;
    use japrove_tsys::Word;
    use std::sync::Mutex;

    fn counters(bits: usize, limits: &[u64]) -> TransitionSystem {
        let mut aig = Aig::new();
        let c = Word::latches(&mut aig, bits, 0);
        let n = c.increment(&mut aig);
        c.set_next(&mut aig, &n);
        let goods: Vec<_> = limits.iter().map(|&l| c.lt_const(&mut aig, l)).collect();
        let mut sys = TransitionSystem::new("cnt", aig);
        for (i, g) in goods.into_iter().enumerate() {
            sys.add_property(format!("p{i}"), g);
        }
        sys
    }

    #[test]
    fn warm_checks_reuse_the_solver_pair() {
        let sys = counters(4, &[16, 16, 3]);
        let mut ctx = SolverCtx::new(&sys);
        assert!(!ctx.is_warm());
        let (a, _) = ctx.check(
            &sys,
            PropertyId::new(0),
            Ic3Options::new(),
            &[],
            Vec::new(),
            None,
        );
        assert!(a.is_proved());
        assert!(ctx.is_warm());
        let vars_after_first = ctx.cons.as_ref().expect("warm").0.num_vars();
        let (b, _) = ctx.check(
            &sys,
            PropertyId::new(1),
            Ic3Options::new(),
            &[],
            Vec::new(),
            None,
        );
        assert!(b.is_proved());
        // The falsified property reuses the same pair and still finds
        // its counterexample.
        let (c, _) = ctx.check(
            &sys,
            PropertyId::new(2),
            Ic3Options::new(),
            &[],
            Vec::new(),
            None,
        );
        assert_eq!(c.counterexample().expect("fails").depth, 3);
        // The solver really was reused, not rebuilt: variables only grow.
        assert!(ctx.cons.as_ref().expect("warm").0.num_vars() >= vars_after_first);
    }

    #[test]
    fn warm_and_cold_verdicts_agree() {
        let sys = counters(5, &[32, 9, 20]);
        let mut ctx = SolverCtx::new(&sys);
        for p in sys.property_ids() {
            let cold = Ic3::new(&sys, p, Ic3Options::new()).run();
            let (warm, _) = ctx.check(&sys, p, Ic3Options::new(), &[], Vec::new(), None);
            assert_eq!(cold.is_proved(), warm.is_proved(), "{p}");
            assert_eq!(
                cold.counterexample().map(|c| c.depth),
                warm.counterexample().map(|c| c.depth),
                "{p}"
            );
        }
    }

    /// Checks every property of `sys` under `assumed` on one warm
    /// context, importing every earlier certificate as a JA run does,
    /// and returns the outcomes in property order.
    fn warm_ja_sequence(
        ctx: &mut SolverCtx,
        sys: &TransitionSystem,
        assumed: &[PropertyId],
        opts: Ic3Options,
    ) -> Vec<CheckOutcome> {
        let mut store: Vec<Clause> = Vec::new();
        let mut outcomes = Vec::new();
        for p in sys.property_ids() {
            let (out, _) = ctx.check(sys, p, opts, assumed, store.clone(), None);
            if let Some(cert) = out.certificate() {
                crate::verify_certificate(sys, p, assumed, cert)
                    .unwrap_or_else(|e| panic!("{p}: certificate rejected: {e:?}"));
                store.extend(cert.clauses.iter().cloned());
            }
            outcomes.push(out);
        }
        outcomes
    }

    fn family(name: &str) -> japrove_genbench::GeneratedDesign {
        japrove_genbench::failing_specs()
            .into_iter()
            .find(|f| f.name == name)
            .expect("known family")
            .generate()
    }

    #[test]
    fn resident_layers_match_cold_local_verdicts() {
        for name in ["syn_6s175", "syn_6s254"] {
            let design = family(name);
            let sys = &design.sys;
            let assumed: Vec<PropertyId> = sys.property_ids().collect();
            let opts = Ic3Options::new().lifting(crate::Lifting::Respect);
            let mut ctx = SolverCtx::new(sys);
            let warm = warm_ja_sequence(&mut ctx, sys, &assumed, opts);
            for (p, out) in sys.property_ids().zip(&warm) {
                let cold = Ic3::with_context(sys, p, opts, assumed.clone(), Vec::new()).run();
                assert_eq!(out.is_proved(), cold.is_proved(), "{name} {p}");
                assert_eq!(
                    out.is_proved(),
                    !design.expected[p.index()].fails_locally(),
                    "{name} {p}"
                );
            }
        }
    }

    #[test]
    fn switching_the_assumed_set_retires_the_layers() {
        // The shadowed property fails globally at depth 2 + 5, but
        // holds once its guard (failing at depth 2) is assumed.
        let design = japrove_genbench::FamilyParams::new("shadow", 3)
            .easy_true(2)
            .shadow_group(2, vec![5])
            .generate();
        let sys = &design.sys;
        let shadowed = sys
            .property_ids()
            .find(|p| {
                let e = design.expected[p.index()];
                !e.holds_globally() && !e.fails_locally()
            })
            .expect("a shadowed property");
        let local: Vec<PropertyId> = sys.property_ids().collect();
        let opts = Ic3Options::new().lifting(crate::Lifting::Respect);
        let mut ctx = SolverCtx::new(sys);
        let first = warm_ja_sequence(&mut ctx, sys, &local, opts);
        assert!(first[shadowed.index()].is_proved());
        // Global check on the same warm solver: neither the assumptions
        // nor the local proofs' imports may leak into it.
        let (global, _) = ctx.check(sys, shadowed, opts, &[], Vec::new(), None);
        assert_eq!(global.counterexample().expect("fails globally").depth, 7);
        let again = warm_ja_sequence(&mut ctx, sys, &local, opts);
        assert!(again[shadowed.index()].is_proved());
    }

    #[test]
    fn layers_survive_mid_run_rebuilds() {
        let design = family("syn_6s254");
        let sys = &design.sys;
        let assumed: Vec<PropertyId> = sys.property_ids().collect();
        let mut opts = Ic3Options::new().lifting(crate::Lifting::Respect);
        opts.rebuild_interval = 2;
        let mut ctx = SolverCtx::new(sys);
        let outcomes = warm_ja_sequence(&mut ctx, sys, &assumed, opts);
        for (p, out) in sys.property_ids().zip(&outcomes) {
            let expect_proved = !design.expected[p.index()].fails_locally();
            assert_eq!(out.is_proved(), expect_proved, "{p}");
        }
        let resident = ctx.cons.as_ref().expect("warm").1.imported.clone();
        assert!(!resident.is_empty(), "proofs left imports behind");
        // A check that imports nothing still runs on, and certifies
        // with, the resident import layer.
        let p = sys
            .property_ids()
            .find(|p| !design.expected[p.index()].fails_locally())
            .expect("a locally true property");
        let (out, _) = ctx.check(sys, p, opts, &assumed, Vec::new(), None);
        let cert = out.certificate().expect("holds locally");
        assert!(resident.iter().all(|c| cert.clauses.contains(c)));
        assert!(crate::verify_certificate(sys, p, &assumed, cert).is_ok());
    }

    /// A toy source that versions a mutex-guarded clause vector.
    struct VecSource(Mutex<(u64, Vec<Clause>)>);

    impl ClauseSource for VecSource {
        fn version(&self) -> u64 {
            self.0.lock().unwrap_or_else(|p| p.into_inner()).0
        }
        fn clauses(&self) -> Vec<Clause> {
            self.0.lock().unwrap_or_else(|p| p.into_inner()).1.clone()
        }
    }

    #[test]
    fn source_clauses_land_in_the_certificate() {
        use japrove_logic::Var;
        // Counter wraps at 9; "count < 12" needs strengthening. Seed a
        // source with a sound invariant clause (!b1 | !b3 : count is
        // never 10 or 11 — in fact never >= 10).
        let mut aig = Aig::new();
        let c = Word::latches(&mut aig, 4, 0);
        let wrap = c.eq_const(&mut aig, 9);
        let inc = c.increment(&mut aig);
        let zero = Word::constant(&mut aig, 0, 4);
        let next = Word::mux(&mut aig, wrap, &zero, &inc);
        c.set_next(&mut aig, &next);
        let safe = c.lt_const(&mut aig, 12);
        let mut sys = TransitionSystem::new("wrap", aig);
        let p = sys.add_property("lt12", safe);
        let inv = Clause::from_lits([Var::new(1).neg(), Var::new(3).neg()]);
        let source = VecSource(Mutex::new((1, vec![inv.clone()])));
        let mut ctx = SolverCtx::new(&sys);
        let (outcome, _) = ctx.check(
            &sys,
            p,
            Ic3Options::new(),
            &[],
            Vec::new(),
            Some((&source, 0)),
        );
        let cert = outcome.certificate().expect("holds");
        assert!(
            cert.clauses.iter().any(|cl| {
                cl.normalized().map(|n| n == inv.normalized().unwrap()) == Some(true)
            }),
            "refreshed clause must be part of the certificate"
        );
        assert!(crate::verify_certificate(&sys, p, &[], cert).is_ok());
    }
}
