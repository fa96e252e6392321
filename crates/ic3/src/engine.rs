//! The IC3/PDR engine.
//!
//! A faithful re-implementation of the Ic3-db baseline of the paper:
//! property-directed reachability with inductive generalization, state
//! lifting (Chockler et al., FMCAD'11), deep-counterexample obligation
//! re-enqueueing (as in ABC's `pdr`), plus the two features the paper
//! adds for multi-property verification:
//!
//! * **local proofs** (§4, §7-A): a set of *assumed properties* is
//!   treated as present-state constraints of every consecution query,
//!   realizing the projected transition relation `T^P`;
//! * **clause re-use** (§6): externally supplied state clauses that
//!   over-approximate the reachable states seed every frame.

use crate::ctx::{base_cons, base_lift, ClauseSource, Layers, SolverCtx};
use crate::{
    Certificate, CheckOutcome, Counterexample, Ic3Options, Lifting, RunStats, TsEncoding,
    UnknownReason,
};
use japrove_logic::{Clause, Cube, Lit, Var};
use japrove_obs::{EventKind, Journal};
use japrove_sat::{SatBackend, SolveResult, SolverStats};
use japrove_tsys::{complete_trace, PropertyId, TransitionSystem};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

/// Result of a consecution query.
enum Consecution {
    /// The cube is unreachable from the previous frame; a core-shrunk
    /// sub-cube (still excluding the initial state) is returned.
    Blocked(Cube),
    /// A predecessor (state, inputs) was found.
    Predecessor(Vec<bool>, Vec<bool>),
    /// The budget ran out mid-query.
    OutOfBudget,
}

/// A proof obligation: block `cube` at `frame`.
struct Obligation {
    cube: Cube,
    frame: usize,
    /// Arena index of the successor obligation (toward the bad state).
    parent: Option<usize>,
    /// Inputs: for inner obligations, the step from this obligation's
    /// state toward the parent's cube; for the root, the final-state
    /// evaluation inputs.
    inputs: Vec<bool>,
}

enum BlockOutcome {
    Blocked,
    Cex(usize),
    OutOfBudget,
}

/// Result of a bad-state query at a frame.
enum BadState {
    /// A bad (state, inputs) pair in the queried frame.
    Found(Vec<bool>, Vec<bool>),
    /// The frame provably contains no bad state.
    None,
    /// The budget ran out mid-query — *not* the same as `None`.
    OutOfBudget,
}

/// The IC3 model checker for a single property of a
/// [`TransitionSystem`].
///
/// # Examples
///
/// ```
/// use japrove_aig::Aig;
/// use japrove_ic3::{Ic3, Ic3Options};
/// use japrove_tsys::{TransitionSystem, Word};
///
/// let mut aig = Aig::new();
/// let c = Word::latches(&mut aig, 4, 0);
/// let n = c.increment(&mut aig);
/// c.set_next(&mut aig, &n);
/// let safe = c.lt_const(&mut aig, 16); // trivially true
/// let mut sys = TransitionSystem::new("cnt", aig);
/// let p = sys.add_property("in_range", safe);
///
/// let outcome = Ic3::new(&sys, p, Ic3Options::new()).run();
/// assert!(outcome.is_proved());
/// ```
pub struct Ic3<'a> {
    sys: &'a TransitionSystem,
    enc: Arc<TsEncoding>,
    prop: PropertyId,
    opts: Ic3Options,
    /// The assumed properties and the imported clauses, each behind an
    /// activation literal of `cons`. On a warm [`SolverCtx`] they stay
    /// resident across checks; only the frames are per run.
    layers: Layers,
    /// Live store to poll for clauses published while this engine runs.
    source: Option<&'a dyn ClauseSource>,
    /// Last [`ClauseSource::version`] already folded into the imports.
    source_version: u64,
    /// Delta-encoded frames: `frames[j]` holds the cubes blocked
    /// exactly at level `j`; level 0 is the initial-state frame.
    frames: Vec<Vec<Cube>>,
    cons: Box<dyn SatBackend>,
    frame_act: Vec<Var>,
    cons_temp: usize,
    lift: Box<dyn SatBackend>,
    lift_temp: usize,
    stats: RunStats,
    obligations: Vec<Obligation>,
    journal: Journal,
    /// SAT counters folded in from solvers this run already replaced
    /// (see [`Ic3::rebuild_cons`]).
    sat_acc: SolverStats,
    /// Counter snapshots of the *current* solver pair at attach time;
    /// warm solvers arrive with history that is not this run's.
    cons_base: SolverStats,
    lift_base: SolverStats,
    /// In-progress frame timing for the journal's `frame` events.
    frame_mark: Option<FrameMark>,
}

/// Progress snapshot taken when a frame opens, turned into one
/// [`EventKind::Frame`] when the frame finishes.
struct FrameMark {
    frame: usize,
    started: Instant,
    obligations: u64,
    gen_lits: u64,
    clauses: usize,
}

impl<'a> Ic3<'a> {
    /// Creates an engine for a *global* proof of `prop` (no assumed
    /// properties, no imported clauses).
    pub fn new(sys: &'a TransitionSystem, prop: PropertyId, opts: Ic3Options) -> Self {
        Ic3::with_context(sys, prop, opts, Vec::new(), Vec::new())
    }

    /// Creates an engine with a *local-proof* context: `assumed`
    /// properties are constrained true in every non-final state (the
    /// `T^P` projection), and `imported` clauses — known to hold in
    /// every reachable state of the (projected) system — seed the
    /// frames.
    pub fn with_context(
        sys: &'a TransitionSystem,
        prop: PropertyId,
        opts: Ic3Options,
        assumed: Vec<PropertyId>,
        imported: Vec<Clause>,
    ) -> Self {
        let enc = Arc::new(TsEncoding::new(sys));
        let mut cons = base_cons(&enc, opts.backend);
        let mut layers = Layers::new(assumed, imported);
        layers.install(cons.as_mut(), &enc);
        let lift = base_lift(&enc, opts.backend);
        Ic3::build(sys, enc, cons, layers, lift, prop, opts, None)
    }

    /// Creates an engine on a warm [`SolverCtx`]: the shared encoding
    /// and (if available) the parked solver pair are taken from the
    /// context instead of being rebuilt from the AIG. Resident layers
    /// built for the same `assumed` set are reused, and only the
    /// `imported` clauses not resident yet are added. The engine must
    /// be handed back with [`Ic3::release`] once the run is over;
    /// [`SolverCtx::check`] wraps the full cycle.
    ///
    /// # Panics
    ///
    /// Panics if the context's encoding disagrees with `sys` (design
    /// name, latch, input or property count) — a mismatched context
    /// would silently solve a different design's transition relation.
    pub(crate) fn warm(
        sys: &'a TransitionSystem,
        prop: PropertyId,
        opts: Ic3Options,
        assumed: &[PropertyId],
        imported: Vec<Clause>,
        ctx: &mut SolverCtx,
        source: Option<(&'a dyn ClauseSource, u64)>,
    ) -> Self {
        let enc = Arc::clone(ctx.encoding());
        assert!(
            enc.design() == sys.name()
                && enc.num_latches() == sys.aig().num_latches()
                && enc.num_inputs() == sys.aig().num_inputs()
                && enc.num_properties() == sys.num_properties(),
            "solver context encodes design '{}', not '{}'",
            enc.design(),
            sys.name()
        );
        let (mut cons, mut layers) = ctx.take_cons(assumed);
        for clause in imported {
            layers.import(cons.as_mut(), clause);
        }
        let lift = ctx.take_lift();
        let mut engine = Ic3::build(sys, enc, cons, layers, lift, prop, opts, source);
        engine.set_journal(ctx.journal().clone());
        engine
    }

    /// Assembles an engine around a consecution solver that already
    /// holds the base content plus `layers`, and installs the frames.
    #[allow(clippy::too_many_arguments)]
    fn build(
        sys: &'a TransitionSystem,
        enc: Arc<TsEncoding>,
        cons: Box<dyn SatBackend>,
        layers: Layers,
        lift: Box<dyn SatBackend>,
        prop: PropertyId,
        opts: Ic3Options,
        source: Option<(&'a dyn ClauseSource, u64)>,
    ) -> Self {
        let (source, source_version) = match source {
            Some((s, v)) => (Some(s), v),
            None => (None, 0),
        };
        let cons_base = *cons.stats();
        let lift_base = *lift.stats();
        let mut engine = Ic3 {
            sys,
            enc,
            prop,
            opts,
            layers,
            source,
            source_version,
            frames: vec![Vec::new()],
            cons,
            frame_act: Vec::new(),
            cons_temp: 0,
            lift,
            lift_temp: 0,
            stats: RunStats::default(),
            obligations: Vec::new(),
            journal: Journal::disabled(),
            sat_acc: SolverStats::default(),
            cons_base,
            lift_base,
            frame_mark: None,
        };
        engine.install_frames();
        engine
    }

    /// Ends a warm run: retires the run's frame activation literals
    /// (its temporary ones were retired after each query), lets the
    /// solvers reclaim the retired clauses and parks the pair in `ctx`
    /// with the resident layers for the next property.
    pub(crate) fn release(mut self, ctx: &mut SolverCtx) {
        for &a in &self.frame_act {
            self.cons.retire(a);
        }
        self.cons.simplify();
        self.lift.simplify();
        ctx.put_back(self.cons, self.layers, self.lift);
    }

    /// Statistics of the run so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Attaches an observability journal to the engine and its solver
    /// pair; the engine reports per-frame timings and clause-import
    /// hit rates, the solvers restarts/reductions/samples.
    pub fn set_journal(&mut self, journal: Journal) {
        self.cons.set_journal(journal.clone());
        self.lift.set_journal(journal.clone());
        self.journal = journal;
    }

    /// SAT counters attributable to this run: the current solver
    /// pair's deltas over their attach-time snapshots, plus whatever
    /// replaced solvers accumulated.
    fn current_sat(&self) -> SolverStats {
        self.sat_acc + (*self.cons.stats() - self.cons_base) + (*self.lift.stats() - self.lift_base)
    }

    /// Name of the SAT backend this engine runs on.
    pub fn backend_name(&self) -> &'static str {
        self.cons.backend_name()
    }

    /// Runs the engine to completion (or budget exhaustion).
    pub fn run(&mut self) -> CheckOutcome {
        let outcome = self.run_inner();
        self.flush_frame_mark();
        self.stats.sat = self.current_sat();
        outcome
    }

    fn run_inner(&mut self) -> CheckOutcome {
        // 0-step base case: an initial state (under some inputs)
        // violating the property.
        self.stats.queries += 1;
        self.cons.set_budget(self.opts.budget);
        let mut assumptions = self.init_frame_assumptions();
        assumptions.push(self.enc.bad_lit(self.prop));
        match self.cons.solve(&assumptions) {
            SolveResult::Unknown => return CheckOutcome::Unknown(UnknownReason::Budget),
            SolveResult::Sat => {
                let inputs = self.model_inputs();
                let trace = complete_trace(self.sys, vec![inputs]);
                return CheckOutcome::Falsified(Counterexample { trace, depth: 0 });
            }
            SolveResult::Unsat => {}
        }

        self.open_frame(); // frame 1
        let mut k = 1;
        loop {
            self.stats.frames = k;
            self.begin_frame_mark(k);
            // Pick up clauses other workers published since the last
            // frame — long-running proofs see more than their initial
            // snapshot.
            self.refresh_imports();
            // Blocking phase: clear all bad states from F_k.
            loop {
                if self.opts.budget.deadline_passed() {
                    return CheckOutcome::Unknown(UnknownReason::Budget);
                }
                match self.bad_state_at(k) {
                    BadState::None => break,
                    BadState::OutOfBudget => return CheckOutcome::Unknown(UnknownReason::Budget),
                    BadState::Found(state, inputs) => match self.block(state, inputs, k) {
                        BlockOutcome::Blocked => {}
                        BlockOutcome::OutOfBudget => {
                            return CheckOutcome::Unknown(UnknownReason::Budget)
                        }
                        BlockOutcome::Cex(idx) => {
                            let cex = self.materialize_cex(idx);
                            return CheckOutcome::Falsified(cex);
                        }
                    },
                }
            }
            if k >= self.opts.max_frames {
                return CheckOutcome::Unknown(UnknownReason::FrameLimit);
            }
            // Open the next frame and propagate clauses forward.
            self.open_frame();
            k += 1;
            for j in 1..k {
                let cubes: Vec<Cube> = self.frames[j].clone();
                for cube in cubes {
                    if !self.frames[j].contains(&cube) {
                        continue; // subsumed away in the meantime
                    }
                    match self.consecution(&cube, j + 1) {
                        Consecution::Blocked(_) => {
                            self.frames[j].retain(|c| c != &cube);
                            self.add_blocked(cube, j + 1);
                        }
                        Consecution::Predecessor(..) => {}
                        Consecution::OutOfBudget => {
                            return CheckOutcome::Unknown(UnknownReason::Budget)
                        }
                    }
                }
                if self.frames[j].is_empty() {
                    return CheckOutcome::Proved(self.certificate(j + 1));
                }
            }
        }
    }

    // ----- solver construction ------------------------------------------

    /// Installs the frames into `self.cons`, which must hold the base
    /// content (encoding + design constraints) and the layers: each
    /// frame's clauses behind its own activation literal, so a warm
    /// solver can retire them when the run ends.
    fn install_frames(&mut self) {
        self.frame_act.clear();
        for level in 0..self.frames.len() {
            let a = self.cons.new_var();
            self.frame_act.push(a);
            if level == 0 {
                for &init in self.enc.init_lits() {
                    self.cons.add_clause_guarded(a, &[init]);
                }
            } else {
                for cube in &self.frames[level] {
                    let clause: Vec<Lit> = cube.iter().map(|&l| !l).collect();
                    self.cons.add_clause_guarded(a, &clause);
                }
            }
        }
    }

    fn rebuild_cons(&mut self) {
        // Fold the retiring solver's contribution into the run's SAT
        // stats before dropping it.
        self.sat_acc += *self.cons.stats() - self.cons_base;
        self.cons = base_cons(&self.enc, self.opts.backend);
        self.cons.set_journal(self.journal.clone());
        self.cons_base = *self.cons.stats();
        self.cons_temp = 0;
        self.layers.install(self.cons.as_mut(), &self.enc);
        self.install_frames();
    }

    fn rebuild_lift(&mut self) {
        self.sat_acc += *self.lift.stats() - self.lift_base;
        self.lift = base_lift(&self.enc, self.opts.backend);
        self.lift.set_journal(self.journal.clone());
        self.lift_base = *self.lift.stats();
        self.lift_temp = 0;
    }

    /// Closes the pending frame mark (if any) as a journal `frame`
    /// event and opens one for frame `k`. No-op on a disabled journal.
    fn begin_frame_mark(&mut self, k: usize) {
        if !self.journal.enabled() {
            return;
        }
        self.flush_frame_mark();
        self.frame_mark = Some(FrameMark {
            frame: k,
            started: Instant::now(),
            obligations: self.stats.obligations,
            gen_lits: self.stats.generalized_lits,
            clauses: self.stats.clauses,
        });
    }

    /// Emits the in-progress frame's `frame` event, reporting the
    /// counter deltas accumulated since the frame opened.
    fn flush_frame_mark(&mut self) {
        let Some(m) = self.frame_mark.take() else {
            return;
        };
        self.journal.event(EventKind::Frame {
            frame: m.frame,
            dur_us: m.started.elapsed().as_micros() as u64,
            clauses: (self.stats.clauses as u64).saturating_sub(m.clauses as u64),
            obligations: self.stats.obligations - m.obligations,
            gen_lits: self.stats.generalized_lits - m.gen_lits,
        });
    }

    /// Folds clauses published to the attached [`ClauseSource`] since
    /// the last poll into the run: new clauses are added to the solver
    /// under the import guard and recorded for the certificate. Sound
    /// because every source clause holds in all reachable states, so it
    /// may strengthen every frame at any point of the run (§6-B).
    fn refresh_imports(&mut self) {
        let Some(source) = self.source else {
            return;
        };
        let version = source.version();
        if version == self.source_version {
            return;
        }
        let (fresh, cursor) = source.clauses_since(self.source_version);
        self.source_version = cursor;
        let offered = fresh.len();
        let mut added = 0usize;
        for clause in fresh {
            if self.layers.import(self.cons.as_mut(), clause) {
                added += 1;
            }
        }
        if offered > 0 {
            // Import hit/miss: `added` of the `offered` delta were new
            // to this engine, the rest were already present.
            self.journal.event(EventKind::Import { offered, added });
        }
    }

    fn open_frame(&mut self) {
        self.frames.push(Vec::new());
        let a = self.cons.new_var();
        self.frame_act.push(a);
    }

    fn init_frame_assumptions(&self) -> Vec<Lit> {
        self.frame_assumptions(0)
    }

    /// Assumptions activating `F_frame` (all levels `>= frame`) plus
    /// the imported strengthening clauses, which hold in every
    /// reachable state and therefore apply to every query.
    fn frame_assumptions(&self, frame: usize) -> Vec<Lit> {
        let mut assumptions: Vec<Lit> = self.frame_act[frame..].iter().map(|a| a.pos()).collect();
        if let Some(a) = self.layers.import_act {
            assumptions.push(a.pos());
        }
        assumptions
    }

    // ----- queries -------------------------------------------------------

    /// Looks for a bad state in `F_k` (no property constraints: the
    /// final state of a local counterexample is unconstrained).
    ///
    /// Budget exhaustion is reported distinctly: treating it as "no
    /// bad state" would let the main loop conclude `F_k` is clear and,
    /// with an empty frame, unsoundly report a *proof* on a property
    /// whose falsification the solver simply never got to.
    fn bad_state_at(&mut self, k: usize) -> BadState {
        self.stats.queries += 1;
        self.cons.set_budget(self.opts.budget);
        let mut assumptions = self.frame_assumptions(k);
        assumptions.push(self.enc.bad_lit(self.prop));
        match self.cons.solve(&assumptions) {
            SolveResult::Sat => BadState::Found(self.model_state(), self.model_inputs()),
            SolveResult::Unsat => BadState::None,
            SolveResult::Unknown => BadState::OutOfBudget,
        }
    }

    /// Consecution query: is `cube` unreachable from `F_{frame-1}` in
    /// one (constrained) step, assuming `!cube` as well?
    fn consecution(&mut self, cube: &Cube, frame: usize) -> Consecution {
        debug_assert!(frame >= 1);
        self.maybe_rebuild();
        self.stats.queries += 1;
        self.cons.set_budget(self.opts.budget);
        // Temporary activation for the !cube clause.
        let t = self.cons.new_var();
        let mut not_cube: Vec<Lit> = vec![t.neg()];
        not_cube.extend(cube.iter().map(|&l| !l));
        self.cons.add_clause(&not_cube);
        let mut assumptions = self.frame_assumptions(frame - 1);
        if let Some(a) = self.layers.assume_act {
            assumptions.push(a.pos());
        }
        assumptions.push(t.pos());
        let primed = self.enc.primed_cube(cube);
        assumptions.extend(&primed);
        let result = self.cons.solve(&assumptions);
        let outcome = match result {
            SolveResult::Unknown => Consecution::OutOfBudget,
            SolveResult::Sat => Consecution::Predecessor(self.model_state(), self.model_inputs()),
            SolveResult::Unsat => {
                // Core-based shrinking: keep literals whose primed
                // versions appear in the final conflict.
                let mut kept: Vec<Lit> = cube
                    .iter()
                    .zip(&primed)
                    .filter(|&(_, &pl)| self.cons.core_contains(pl))
                    .map(|(&l, _)| l)
                    .collect();
                if kept.is_empty() {
                    kept = cube.lits().to_vec();
                }
                let mut shrunk = Cube::from_lits(kept);
                if self.enc.cube_intersects_init(&shrunk) {
                    shrunk = self.restore_init_exclusion(shrunk, cube);
                }
                Consecution::Blocked(shrunk)
            }
        };
        self.cons.add_clause(&[t.neg()]);
        self.cons_temp += 1;
        outcome
    }

    /// Re-adds a literal of `original` that disagrees with the initial
    /// state (one must exist because `original` excludes it).
    fn restore_init_exclusion(&self, shrunk: Cube, original: &Cube) -> Cube {
        for &l in original.iter() {
            let i = l.var().index() as usize;
            if self.enc.init_lits()[i] != l && !shrunk.contains(l) {
                let mut lits = shrunk.into_lits();
                lits.push(l);
                return Cube::from_lits(lits);
            }
        }
        panic!("original cube already intersected the initial state");
    }

    fn maybe_rebuild(&mut self) {
        if self.cons_temp >= self.opts.rebuild_interval {
            self.rebuild_cons();
        }
        if self.lift_temp >= self.opts.rebuild_interval {
            self.rebuild_lift();
        }
    }

    fn model_state(&self) -> Vec<bool> {
        (0..self.enc.num_latches())
            .map(|i| {
                self.cons
                    .model_value(self.enc.state_var(i).pos())
                    .to_bool()
                    .unwrap_or(false)
            })
            .collect()
    }

    fn model_inputs(&self) -> Vec<bool> {
        (0..self.enc.num_inputs())
            .map(|i| {
                self.cons
                    .model_value(self.enc.input_var(i).pos())
                    .to_bool()
                    .unwrap_or(false)
            })
            .collect()
    }

    // ----- lifting (§6-C, §7-A) -------------------------------------------

    /// Lifts a concrete state to a cube of states that all reach the
    /// target (the successor cube, or the bad states) under `inputs`.
    fn lift_state(&mut self, state: &[bool], inputs: &[bool], target: Option<&Cube>) -> Cube {
        self.stats.queries += 1;
        self.lift.set_budget(self.opts.budget);
        let t = self.lift.new_var();
        let mut clause: Vec<Lit> = vec![t.neg()];
        match target {
            // Successor cube target: !(cube' & constraints [& assumed]).
            Some(cube) => {
                clause.extend(self.enc.primed_cube(cube).iter().map(|&pl| !pl));
                clause.extend(self.enc.constraint_lits().iter().map(|&c| !c));
                if self.opts.lifting == Lifting::Respect {
                    for &p in &self.layers.assumed {
                        clause.push(!self.enc.good_lit(p));
                    }
                }
            }
            // Bad target: !(bad & constraints).
            None => {
                clause.push(self.enc.good_lit(self.prop));
                clause.extend(self.enc.constraint_lits().iter().map(|&c| !c));
            }
        }
        self.lift.add_clause(&clause);
        let state_lits: Vec<Lit> = state
            .iter()
            .enumerate()
            .map(|(i, &b)| self.enc.state_var(i).lit(!b))
            .collect();
        let mut assumptions = vec![t.pos()];
        assumptions.extend(&state_lits);
        assumptions.extend(
            inputs
                .iter()
                .enumerate()
                .map(|(i, &b)| self.enc.input_var(i).lit(!b)),
        );
        let result = self.lift.solve(&assumptions);
        let cube = match result {
            SolveResult::Unsat => {
                let kept: Vec<Lit> = state_lits
                    .iter()
                    .copied()
                    .filter(|&l| self.lift.core_contains(l))
                    .collect();
                self.stats.generalized_lits += (state_lits.len() - kept.len()) as u64;
                Cube::from_lits(kept)
            }
            // Defensive: lifting must be UNSAT; fall back to the full state.
            _ => Cube::from_lits(state_lits.iter().copied()),
        };
        self.lift.add_clause(&[t.neg()]);
        self.lift_temp += 1;
        // Keep obligation cubes disjoint from the initial state.
        if self.enc.cube_intersects_init(&cube) {
            let full = Cube::from_lits(
                state
                    .iter()
                    .enumerate()
                    .map(|(i, &b)| self.enc.state_var(i).lit(!b)),
            );
            self.restore_init_exclusion(cube, &full)
        } else {
            cube
        }
    }

    // ----- blocking -------------------------------------------------------

    fn block(&mut self, bad_state: Vec<bool>, bad_inputs: Vec<bool>, k: usize) -> BlockOutcome {
        self.obligations.clear();
        let root_cube = self.lift_state(&bad_state, &bad_inputs, None);
        self.obligations.push(Obligation {
            cube: root_cube,
            frame: k,
            parent: None,
            inputs: bad_inputs,
        });
        let mut queue: BinaryHeap<Reverse<(usize, usize)>> = BinaryHeap::new();
        queue.push(Reverse((k, 0)));
        while let Some(Reverse((frame, idx))) = queue.pop() {
            if self.opts.budget.deadline_passed() {
                return BlockOutcome::OutOfBudget;
            }
            self.stats.obligations += 1;
            let cube = self.obligations[idx].cube.clone();
            if self.is_blocked_syntactically(&cube, frame) {
                if self.opts.push_obligations && frame < k {
                    self.obligations[idx].frame = frame + 1;
                    queue.push(Reverse((frame + 1, idx)));
                }
                continue;
            }
            match self.consecution(&cube, frame) {
                Consecution::OutOfBudget => return BlockOutcome::OutOfBudget,
                Consecution::Blocked(shrunk) => {
                    let generalized = self.generalize(shrunk, frame);
                    // Push the blocked cube as far forward as it stays
                    // inductive.
                    let mut level = frame;
                    while level < k {
                        match self.consecution(&generalized, level + 1) {
                            Consecution::Blocked(_) => level += 1,
                            Consecution::OutOfBudget => return BlockOutcome::OutOfBudget,
                            Consecution::Predecessor(..) => break,
                        }
                    }
                    self.add_blocked(generalized, level);
                    if self.opts.push_obligations && level < k {
                        self.obligations[idx].frame = level + 1;
                        queue.push(Reverse((level + 1, idx)));
                    }
                }
                Consecution::Predecessor(state, inputs) => {
                    if state == self.init_state() || frame == 1 {
                        // Predecessor in F_0: the chain is complete.
                        let pred = Obligation {
                            cube: Cube::new(),
                            frame: 0,
                            parent: Some(idx),
                            inputs,
                        };
                        self.obligations.push(pred);
                        return BlockOutcome::Cex(self.obligations.len() - 1);
                    }
                    let pred_cube = self.lift_state(&state, &inputs, Some(&cube));
                    self.obligations.push(Obligation {
                        cube: pred_cube,
                        frame: frame - 1,
                        parent: Some(idx),
                        inputs,
                    });
                    queue.push(Reverse((frame - 1, self.obligations.len() - 1)));
                    queue.push(Reverse((frame, idx)));
                }
            }
        }
        BlockOutcome::Blocked
    }

    fn init_state(&self) -> Vec<bool> {
        self.enc
            .init_lits()
            .iter()
            .map(|l| l.is_positive())
            .collect()
    }

    fn is_blocked_syntactically(&self, cube: &Cube, frame: usize) -> bool {
        self.frames[frame..]
            .iter()
            .any(|level| level.iter().any(|c| c.subsumes(cube)))
    }

    fn generalize(&mut self, mut cube: Cube, frame: usize) -> Cube {
        for _ in 0..self.opts.generalize_passes {
            let mut changed = false;
            for lit in cube.lits().to_vec() {
                if cube.len() <= 1 || !cube.contains(lit) {
                    continue;
                }
                let candidate = cube.without_lit(lit);
                if self.enc.cube_intersects_init(&candidate) {
                    continue;
                }
                if let Consecution::Blocked(shrunk) = self.consecution(&candidate, frame) {
                    self.stats.generalized_lits += (cube.len() - shrunk.len()) as u64;
                    cube = shrunk;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        cube
    }

    fn add_blocked(&mut self, cube: Cube, level: usize) {
        // Subsumption: drop weaker cubes at this level and below.
        for l in 1..=level {
            self.frames[l].retain(|c| !cube.subsumes(c));
        }
        let act = self.frame_act[level];
        let mut clause: Vec<Lit> = vec![act.neg()];
        clause.extend(cube.iter().map(|&l| !l));
        self.cons.add_clause(&clause);
        self.frames[level].push(cube);
        self.stats.clauses = self.frames.iter().map(Vec::len).sum();
    }

    // ----- results --------------------------------------------------------

    fn certificate(&self, from_level: usize) -> Certificate {
        let mut clauses: Vec<Clause> = self.frames[from_level..]
            .iter()
            .flat_map(|level| level.iter().map(Cube::to_clause))
            .collect();
        clauses.extend(self.layers.imported.iter().cloned());
        Certificate { clauses }
    }

    fn materialize_cex(&self, terminal: usize) -> Counterexample {
        // Walk from the initial obligation toward the bad state,
        // collecting input vectors; states then follow by simulation.
        let mut inputs = Vec::new();
        let mut cursor = Some(terminal);
        while let Some(idx) = cursor {
            inputs.push(self.obligations[idx].inputs.clone());
            cursor = self.obligations[idx].parent;
        }
        let depth = inputs.len() - 1;
        let trace = complete_trace(self.sys, inputs);
        Counterexample { trace, depth }
    }
}
