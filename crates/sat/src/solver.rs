//! The incremental CDCL solver.

use crate::heap::VarOrder;
use crate::store::{ClauseRef, ClauseStore};
use crate::{Budget, SolverStats};
use japrove_logic::{Assignment, LBool, Lit, Var};
use japrove_obs::{EventKind, Journal, SAMPLE_INTERVAL};

/// Outcome of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found; query it with
    /// [`Solver::model_value`].
    Sat,
    /// The formula is unsatisfiable under the given assumptions; the
    /// involved assumptions are available via [`Solver::unsat_core`].
    Unsat,
    /// The search budget (conflicts or wall clock) was exhausted.
    Unknown,
}

impl SolveResult {
    /// Returns `true` for [`SolveResult::Sat`].
    pub fn is_sat(self) -> bool {
        self == SolveResult::Sat
    }

    /// Returns `true` for [`SolveResult::Unsat`].
    pub fn is_unsat(self) -> bool {
        self == SolveResult::Unsat
    }
}

#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

const VAR_DECAY: f64 = 0.95;
const CLA_DECAY: f32 = 0.999;
const RESTART_BASE: u64 = 100;

/// An incremental CDCL SAT solver.
///
/// Implements the standard architecture: two-watched-literal
/// propagation, first-UIP conflict analysis with clause minimization,
/// VSIDS decision order with phase saving, Luby restarts, LBD-aware
/// learnt-clause reduction and an assumption interface with
/// final-conflict (unsat core) extraction.
///
/// # Examples
///
/// ```
/// use japrove_sat::{Solver, SolveResult};
/// use japrove_logic::Lit;
///
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause([a.pos(), b.pos()]);
/// s.add_clause([a.neg()]);
/// assert_eq!(s.solve(&[]), SolveResult::Sat);
/// assert!(s.model_value(b.pos()).is_true());
/// assert_eq!(s.solve(&[b.neg()]), SolveResult::Unsat);
/// assert_eq!(s.unsat_core(), &[b.neg()]);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Solver {
    store: ClauseStore,
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    order: VarOrder,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f32,
    seen: Vec<bool>,
    /// Scratch for conflict analysis.
    analyze_clear: Vec<Var>,
    model: Assignment,
    core: Vec<Lit>,
    /// `false` once an unconditional contradiction was derived.
    ok: bool,
    budget: Budget,
    stats: SolverStats,
    max_learnts: f64,
    /// Observability sink for restart/reduction/progress samples;
    /// disabled (free) unless a driver attaches an enabled journal.
    journal: Journal,
    /// Backtrack chronologically (one level per conflict) instead of
    /// backjumping to the asserting level.
    chrono: bool,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            var_inc: 1.0,
            cla_inc: 1.0,
            ok: true,
            max_learnts: 4000.0,
            ..Solver::default()
        }
    }

    /// Creates an empty solver that backtracks *chronologically*: after
    /// a conflict it undoes a single decision level instead of
    /// backjumping to the asserting level (Nadel & Ryvchin, SAT'18).
    ///
    /// The learnt clause stays asserting — all its non-UIP literals are
    /// assigned at or below the asserting level, which is at or below
    /// the new decision level — so learning, cores and models are
    /// unaffected; only the search trajectory differs. This is the
    /// `ChronoCdcl` backend of [`crate::BackendChoice`].
    pub fn chronological() -> Self {
        Solver {
            chrono: true,
            ..Solver::new()
        }
    }

    /// `true` if this solver backtracks chronologically.
    pub fn is_chronological(&self) -> bool {
        self.chrono
    }

    /// Attaches an observability journal. The solver reports restarts,
    /// learnt-database reductions and a progress sample every
    /// [`japrove_obs::SAMPLE_INTERVAL`] conflicts; with the default
    /// disabled journal every report site is a single pointer check.
    pub fn set_journal(&mut self, journal: Journal) {
        self.journal = journal;
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow_to(self.assigns.len());
        self.order.insert(v, &self.activity);
        v
    }

    /// Ensures variables `0..n` exist.
    pub fn ensure_vars(&mut self, n: u32) {
        while (self.assigns.len() as u32) < n {
            self.new_var();
        }
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> u32 {
        self.assigns.len() as u32
    }

    /// Number of problem (non-learnt) clauses, excluding units.
    pub fn num_clauses(&self) -> usize {
        self.store.num_problem()
    }

    /// Number of currently retained learnt clauses.
    pub fn num_learnts(&self) -> usize {
        self.store.num_learnt()
    }

    /// Cumulative statistics of this solver instance.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Sets the budget applied to subsequent [`Solver::solve`] calls.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Returns `false` once the clause set is known unsatisfiable
    /// regardless of assumptions.
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// Adds a clause over existing variables.
    ///
    /// Returns `false` if the solver is already in an unconditionally
    /// unsatisfiable state after the addition (e.g. the clause is empty
    /// under the level-0 assignment).
    ///
    /// # Panics
    ///
    /// Panics if a literal refers to a variable that was never
    /// allocated with [`Solver::new_var`]/[`Solver::ensure_vars`].
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        if !self.ok {
            return false;
        }
        self.cancel_until(0);
        let mut lits: Vec<Lit> = lits.into_iter().collect();
        for &l in &lits {
            assert!(
                (l.var().index() as usize) < self.assigns.len(),
                "literal {l:?} refers to an unallocated variable"
            );
        }
        lits.sort_unstable();
        lits.dedup();
        // Detect tautologies and drop level-0-false literals.
        let mut write = 0;
        let mut prev: Option<Lit> = None;
        for i in 0..lits.len() {
            let l = lits[i];
            if let Some(p) = prev {
                if p.var() == l.var() {
                    return true; // tautology: l and !l both present
                }
            }
            prev = Some(l);
            match self.lit_value(l) {
                LBool::True if self.level[l.var().index() as usize] == 0 => return true,
                LBool::False if self.level[l.var().index() as usize] == 0 => {}
                _ => {
                    lits[write] = l;
                    write += 1;
                }
            }
        }
        lits.truncate(write);
        match lits.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(lits[0], None);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                let cref = self.store.add(lits, false, 0);
                self.attach(cref);
                true
            }
        }
    }

    /// Solves under the given assumptions.
    ///
    /// On [`SolveResult::Sat`] the model is kept until the next call;
    /// on [`SolveResult::Unsat`] the subset of assumptions responsible
    /// is available from [`Solver::unsat_core`].
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.stats.solves += 1;
        self.core.clear();
        if !self.ok {
            return SolveResult::Unsat;
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }
        let mut budget = self.budget;
        budget.rebase(self.stats.conflicts);
        let mut restarts: u64 = 0;
        loop {
            let limit = RESTART_BASE * luby(restarts);
            match self.search(assumptions, limit, &budget) {
                SearchOutcome::Sat => {
                    self.save_model();
                    self.cancel_until(0);
                    return SolveResult::Sat;
                }
                SearchOutcome::Unsat => {
                    self.cancel_until(0);
                    return SolveResult::Unsat;
                }
                SearchOutcome::Restart => {
                    restarts += 1;
                    self.stats.restarts += 1;
                    self.journal.event(EventKind::Restart {
                        conflicts: self.stats.conflicts,
                    });
                    self.cancel_until(0);
                }
                SearchOutcome::Budget => {
                    self.cancel_until(0);
                    return SolveResult::Unknown;
                }
            }
        }
    }

    /// Value of `lit` in the most recent satisfying model.
    ///
    /// Returns [`LBool::Undef`] for variables the search never
    /// assigned (any value satisfies).
    pub fn model_value(&self, lit: Lit) -> LBool {
        self.model.lit_value(lit)
    }

    /// The most recent satisfying model.
    pub fn model(&self) -> &Assignment {
        &self.model
    }

    /// Subset of assumptions proved jointly unsatisfiable by the most
    /// recent [`SolveResult::Unsat`] answer (empty if the clause set
    /// itself is unsatisfiable).
    pub fn unsat_core(&self) -> &[Lit] {
        &self.core
    }

    /// Returns `true` if `lit` occurs in the current unsat core.
    pub fn core_contains(&self, lit: Lit) -> bool {
        self.core.contains(&lit)
    }

    /// Removes clauses satisfied at level 0. Cheap housekeeping for
    /// long-lived incremental solvers.
    pub fn simplify(&mut self) {
        if !self.ok {
            return;
        }
        self.cancel_until(0);
        let satisfied: Vec<ClauseRef> = self
            .store
            .refs()
            .filter(|&cref| {
                !self.locked(cref)
                    && self.store.get(cref).lits.iter().any(|&l| {
                        self.lit_value(l).is_true() && self.level[l.var().index() as usize] == 0
                    })
            })
            .collect();
        self.remove_clauses(&satisfied);
    }

    // ----- internals ---------------------------------------------------

    #[inline]
    fn lit_value(&self, lit: Lit) -> LBool {
        self.assigns[lit.var().index() as usize].apply_sign(lit.is_negated())
    }

    #[inline]
    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn attach(&mut self, cref: ClauseRef) {
        let (l0, l1) = {
            let lits = &self.store.get(cref).lits;
            (lits[0], lits[1])
        };
        self.watches[(!l0).code() as usize].push(Watcher { cref, blocker: l1 });
        self.watches[(!l1).code() as usize].push(Watcher { cref, blocker: l0 });
    }

    /// Deletes `crefs` from the store and drops their watchers with one
    /// sweep over each affected watch list. Detaching clause by clause
    /// would scan a shared list once per clause: quadratic when
    /// thousands of clauses carry the same activation literal.
    fn remove_clauses(&mut self, crefs: &[ClauseRef]) {
        let mut lists: Vec<usize> = Vec::with_capacity(2 * crefs.len());
        for &cref in crefs {
            let lits = &self.store.get(cref).lits;
            lists.push((!lits[0]).code() as usize);
            lists.push((!lits[1]).code() as usize);
            self.store.remove(cref);
        }
        lists.sort_unstable();
        lists.dedup();
        // No clause is added before the sweep, so no freed slot has
        // been recycled yet: a dead slot means a removed clause.
        let store = &self.store;
        for w in lists {
            self.watches[w].retain(|watcher| store.is_live(watcher.cref));
        }
    }

    fn locked(&self, cref: ClauseRef) -> bool {
        let l0 = self.store.get(cref).lits[0];
        self.lit_value(l0).is_true() && self.reason[l0.var().index() as usize] == Some(cref)
    }

    fn enqueue(&mut self, lit: Lit, reason: Option<ClauseRef>) {
        debug_assert!(self.lit_value(lit).is_undef());
        let v = lit.var().index() as usize;
        self.assigns[v] = LBool::from_bool(lit.is_positive());
        self.phase[v] = lit.is_positive();
        self.level[v] = self.decision_level() as u32;
        self.reason[v] = reason;
        self.trail.push(lit);
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn cancel_until(&mut self, level: usize) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level];
        for i in (lim..self.trail.len()).rev() {
            let v = self.trail[i].var();
            self.assigns[v.index() as usize] = LBool::Undef;
            self.reason[v.index() as usize] = None;
            self.order.insert(v, &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level);
        self.qhead = self.trail.len();
    }

    fn propagate(&mut self) -> Option<ClauseRef> {
        let mut conflict = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let mut ws = std::mem::take(&mut self.watches[p.code() as usize]);
            let mut keep = 0;
            let mut i = 0;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.lit_value(w.blocker).is_true() {
                    ws[keep] = w;
                    keep += 1;
                    continue;
                }
                let cref = w.cref;
                // Make sure the false literal (!p) sits at position 1.
                let first = {
                    let lits = &mut self.store.get_mut(cref).lits;
                    if lits[0] == !p {
                        lits.swap(0, 1);
                    }
                    lits[0]
                };
                if first != w.blocker && self.lit_value(first).is_true() {
                    ws[keep] = Watcher {
                        cref,
                        blocker: first,
                    };
                    keep += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.store.get(cref).lits.len();
                for k in 2..len {
                    let lk = self.store.get(cref).lits[k];
                    if !self.lit_value(lk).is_false() {
                        let lits = &mut self.store.get_mut(cref).lits;
                        lits.swap(1, k);
                        let new_watch = lits[1];
                        self.watches[(!new_watch).code() as usize].push(Watcher {
                            cref,
                            blocker: first,
                        });
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting.
                ws[keep] = Watcher {
                    cref,
                    blocker: first,
                };
                keep += 1;
                if self.lit_value(first).is_false() {
                    conflict = Some(cref);
                    self.qhead = self.trail.len();
                    // keep remaining watchers
                    while i < ws.len() {
                        ws[keep] = ws[i];
                        keep += 1;
                        i += 1;
                    }
                } else {
                    self.enqueue(first, Some(cref));
                }
            }
            ws.truncate(keep);
            self.watches[p.code() as usize] = ws;
            if conflict.is_some() {
                break;
            }
        }
        conflict
    }

    /// First-UIP conflict analysis; returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, mut conflict: ClauseRef) -> (Vec<Lit>, usize) {
        let mut learnt: Vec<Lit> = vec![Lit::from_code(0)]; // placeholder
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        self.analyze_clear.clear();
        loop {
            if self.store.get(conflict).learnt {
                self.bump_clause(conflict);
            }
            let start = if p.is_some() { 1 } else { 0 };
            let lits: Vec<Lit> = self.store.get(conflict).lits[start..].to_vec();
            for q in lits {
                let v = q.var().index() as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.analyze_clear.push(q.var());
                    self.bump_var(q.var());
                    if self.level[v] >= self.decision_level() as u32 {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next literal to expand.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index() as usize] {
                    break;
                }
            }
            let pl = self.trail[index];
            p = Some(pl);
            self.seen[pl.var().index() as usize] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            conflict = self.reason[pl.var().index() as usize].expect("non-decision has a reason");
        }
        learnt[0] = !p.expect("UIP found");
        // Conflict-clause minimization: drop literals implied by the rest.
        let mut minimized: Vec<Lit> = vec![learnt[0]];
        for &q in &learnt[1..] {
            if !self.redundant(q) {
                minimized.push(q);
            }
        }
        // Find backtrack level: the highest level among non-asserting lits.
        let mut bt = 0usize;
        if minimized.len() > 1 {
            let mut max_i = 1;
            for i in 2..minimized.len() {
                if self.level[minimized[i].var().index() as usize]
                    > self.level[minimized[max_i].var().index() as usize]
                {
                    max_i = i;
                }
            }
            minimized.swap(1, max_i);
            bt = self.level[minimized[1].var().index() as usize] as usize;
        }
        for v in self.analyze_clear.drain(..) {
            self.seen[v.index() as usize] = false;
        }
        (minimized, bt)
    }

    /// Local minimization: `q` is redundant if it has a reason whose
    /// other literals are all seen or at level 0.
    fn redundant(&self, q: Lit) -> bool {
        let v = q.var().index() as usize;
        match self.reason[v] {
            None => false,
            Some(cref) => self.store.get(cref).lits[1..].iter().all(|&l| {
                let lv = l.var().index() as usize;
                self.seen[lv] || self.level[lv] == 0
            }),
        }
    }

    /// Computes the subset of assumptions implying the falsification of
    /// assumption `p` (MiniSat's `analyzeFinal`).
    fn analyze_final(&mut self, p: Lit) -> Vec<Lit> {
        let mut core = vec![p];
        if self.decision_level() == 0 {
            return core;
        }
        let pv = p.var().index() as usize;
        self.seen[pv] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let x = self.trail[i];
            let xv = x.var().index() as usize;
            if !self.seen[xv] {
                continue;
            }
            match self.reason[xv] {
                None => {
                    // A decision inside the assumption prefix: part of the core.
                    if x.var() != p.var() {
                        core.push(x);
                    }
                }
                Some(cref) => {
                    let lits: Vec<Lit> = self.store.get(cref).lits[1..].to_vec();
                    for l in lits {
                        let lv = l.var().index() as usize;
                        if self.level[lv] > 0 {
                            self.seen[lv] = true;
                        }
                    }
                }
            }
            self.seen[xv] = false;
        }
        self.seen[pv] = false;
        core
    }

    fn bump_var(&mut self, v: Var) {
        let i = v.index() as usize;
        self.activity[i] += self.var_inc;
        if self.activity[i] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bumped(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let inc = self.cla_inc;
        let act = {
            let d = self.store.get_mut(cref);
            d.activity += inc;
            d.activity
        };
        if act > 1e20 {
            for r in self.store.learnt_refs().collect::<Vec<_>>() {
                self.store.get_mut(r).activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= VAR_DECAY;
        self.cla_inc /= CLA_DECAY;
    }

    fn save_model(&mut self) {
        self.model = Assignment::new(self.assigns.len());
        for (i, &v) in self.assigns.iter().enumerate() {
            if let Some(b) = v.to_bool() {
                self.model.assign(Var::new(i as u32), b);
            }
        }
    }

    fn reduce_db(&mut self) {
        let mut learnts: Vec<ClauseRef> = self
            .store
            .learnt_refs()
            .filter(|&c| !self.locked(c) && self.store.get(c).lits.len() > 2)
            .collect();
        // Remove the worse half: high LBD first, then low activity.
        learnts.sort_by(|&a, &b| {
            let (da, db) = (self.store.get(a), self.store.get(b));
            db.lbd.cmp(&da.lbd).then(
                da.activity
                    .partial_cmp(&db.activity)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let to_remove = learnts.len() / 2;
        self.remove_clauses(&learnts[..to_remove]);
        self.stats.deleted_clauses += to_remove as u64;
        self.journal.event(EventKind::Reduce {
            learnt: learnts.len(),
            removed: to_remove,
        });
    }

    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits
            .iter()
            .map(|&l| self.level[l.var().index() as usize])
            .collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    fn search(
        &mut self,
        assumptions: &[Lit],
        conflict_limit: u64,
        budget: &Budget,
    ) -> SearchOutcome {
        let mut conflicts_here: u64 = 0;
        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                // Conflict-rate sampling: the modulo keeps the
                // disabled-journal cost to one branch per conflict.
                if self.stats.conflicts % SAMPLE_INTERVAL == 0 {
                    self.journal.event(EventKind::Sample {
                        conflicts: self.stats.conflicts,
                        decisions: self.stats.decisions,
                        propagations: self.stats.propagations,
                    });
                }
                if self.decision_level() == 0 {
                    self.ok = false;
                    self.core.clear();
                    return SearchOutcome::Unsat;
                }
                let (learnt, bt) = self.analyze(conflict);
                // Never backjump into the assumption prefix below the
                // asserting level; cancel_until handles re-picking.
                // Chronological mode keeps the trail and retreats one
                // level; bt <= decision_level - 1 always, so the learnt
                // clause is asserting at the target level either way.
                let target = if self.chrono {
                    self.decision_level() - 1
                } else {
                    bt
                };
                self.cancel_until(target);
                if learnt.len() == 1 {
                    if self.decision_level() > 0 {
                        self.cancel_until(0);
                    }
                    if self.lit_value(learnt[0]).is_false() {
                        self.ok = false;
                        self.core.clear();
                        return SearchOutcome::Unsat;
                    }
                    if self.lit_value(learnt[0]).is_undef() {
                        self.enqueue(learnt[0], None);
                    }
                } else {
                    let lbd = self.compute_lbd(&learnt);
                    let first = learnt[0];
                    let cref = self.store.add(learnt, true, lbd);
                    self.attach(cref);
                    self.enqueue(first, Some(cref));
                    self.stats.learnt_clauses += 1;
                }
                self.decay_activities();
                // The conflict allowance is exact (no clock read); the
                // wall-clock deadline is only polled every 64 conflicts.
                if budget.conflicts_exhausted(self.stats.conflicts)
                    || (self.stats.conflicts % 64 == 0 && budget.exhausted(self.stats.conflicts))
                {
                    return SearchOutcome::Budget;
                }
                if conflicts_here >= conflict_limit {
                    return SearchOutcome::Restart;
                }
                if self.store.num_learnt() as f64 > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= 1.1;
                }
            } else {
                // Establish pending assumptions, one decision level each.
                while self.decision_level() < assumptions.len() {
                    let p = assumptions[self.decision_level()];
                    debug_assert!(
                        (p.var().index() as usize) < self.assigns.len(),
                        "assumption over unallocated variable"
                    );
                    match self.lit_value(p) {
                        LBool::True => {
                            // Already implied; dummy level keeps indices aligned.
                            self.new_decision_level();
                        }
                        LBool::False => {
                            self.core = self.analyze_final(p);
                            return SearchOutcome::Unsat;
                        }
                        LBool::Undef => {
                            self.new_decision_level();
                            self.enqueue(p, None);
                            break;
                        }
                    }
                }
                if self.decision_level() < assumptions.len() {
                    continue; // propagate the newly enqueued assumption
                }
                // Regular decision.
                let next = loop {
                    match self.order.pop(&self.activity) {
                        None => break None,
                        Some(v) => {
                            if self.assigns[v.index() as usize].is_undef() {
                                break Some(v);
                            }
                        }
                    }
                };
                match next {
                    None => return SearchOutcome::Sat,
                    Some(v) => {
                        self.stats.decisions += 1;
                        let lit = v.lit(!self.phase[v.index() as usize]);
                        self.new_decision_level();
                        self.enqueue(lit, None);
                    }
                }
            }
        }
    }
}

enum SearchOutcome {
    Sat,
    Unsat,
    Restart,
    Budget,
}

/// The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
fn luby(mut i: u64) -> u64 {
    // Find the finite subsequence containing index i and its size.
    let mut size: u64 = 1;
    let mut seq: u32 = 0;
    while size < i + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != i {
        size = (size - 1) >> 1;
        seq -= 1;
        i %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(s: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn luby_prefix() {
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn trivial_sat_and_model() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause([v[0].pos(), v[1].pos()]);
        s.add_clause([v[0].neg(), v[1].neg()]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        let m0 = s.model_value(v[0].pos());
        let m1 = s.model_value(v[1].pos());
        assert_ne!(m0, m1);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        let _ = vars(&mut s, 1);
        assert!(!s.add_clause([]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(!s.is_ok());
    }

    #[test]
    fn unit_contradiction() {
        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        assert!(s.add_clause([v[0].pos()]));
        assert!(!s.add_clause([v[0].neg()]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_two_in_one_is_unsat() {
        // 3 pigeons, 2 holes.
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..3).map(|_| vars(&mut s, 2)).collect();
        for row in &p {
            s.add_clause(row.iter().map(|v| v.pos()));
        }
        for (a, row_a) in p.iter().enumerate() {
            for row_b in &p[a + 1..] {
                for (va, vb) in row_a.iter().zip(row_b) {
                    s.add_clause([va.neg(), vb.neg()]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_and_core() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        // v0 & v1 -> v2 ; assume v0, v1, !v2 : unsat with core over all three.
        s.add_clause([v[0].neg(), v[1].neg(), v[2].pos()]);
        let assumptions = [v[0].pos(), v[1].pos(), v[2].neg()];
        assert_eq!(s.solve(&assumptions), SolveResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(!core.is_empty());
        for l in &core {
            assert!(
                assumptions.contains(l),
                "core literal {l:?} not an assumption"
            );
        }
        // The core itself must be unsat.
        assert_eq!(s.solve(&core), SolveResult::Unsat);
        // Remains sat without assumptions.
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn irrelevant_assumption_left_out_of_core() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        s.add_clause([v[0].neg(), v[1].pos()]);
        // v2 is unrelated.
        let res = s.solve(&[v[2].pos(), v[0].pos(), v[1].neg()]);
        assert_eq!(res, SolveResult::Unsat);
        assert!(!s.core_contains(v[2].pos()), "unrelated assumption in core");
    }

    #[test]
    fn incremental_use_after_unsat_assumptions() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause([v[0].pos(), v[1].pos()]);
        assert_eq!(s.solve(&[v[0].neg(), v[1].neg()]), SolveResult::Unsat);
        assert_eq!(s.solve(&[v[0].neg()]), SolveResult::Sat);
        assert!(s.model_value(v[1].pos()).is_true());
        s.add_clause([v[1].neg()]);
        assert_eq!(s.solve(&[v[0].neg()]), SolveResult::Unsat);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert!(s.model_value(v[0].pos()).is_true());
    }

    #[test]
    fn budget_returns_unknown() {
        // A hard pigeonhole instance with a 1-conflict budget.
        let n = 6;
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..n + 1).map(|_| vars(&mut s, n)).collect();
        for row in &p {
            s.add_clause(row.iter().map(|v| v.pos()));
        }
        for (a, row_a) in p.iter().enumerate() {
            for row_b in &p[a + 1..] {
                for (va, vb) in row_a.iter().zip(row_b) {
                    s.add_clause([va.neg(), vb.neg()]);
                }
            }
        }
        s.set_budget(Budget::conflicts(1));
        assert_eq!(s.solve(&[]), SolveResult::Unknown);
        s.set_budget(Budget::unlimited());
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        assert!(s.add_clause([v[0].pos(), v[0].pos(), v[1].pos()]));
        assert!(s.add_clause([v[0].pos(), v[0].neg()])); // tautology: dropped
        assert_eq!(s.solve(&[v[0].neg(), v[1].neg()]), SolveResult::Unsat);
    }

    #[test]
    fn simplify_keeps_equivalence() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        s.add_clause([v[0].pos()]);
        s.add_clause([v[0].pos(), v[1].pos()]); // satisfied at level 0
        s.add_clause([v[1].neg(), v[2].pos()]);
        s.simplify();
        assert_eq!(s.solve(&[v[1].pos(), v[2].neg()]), SolveResult::Unsat);
        assert_eq!(s.solve(&[v[1].pos()]), SolveResult::Sat);
        assert!(s.model_value(v[2].pos()).is_true());
    }

    #[test]
    fn retiring_a_shared_guard_leaves_no_stale_watchers() {
        use japrove_rng::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(7);
        // Variable 0 is the guard: `!act` sorts first in every guarded
        // clause, so all of them are watched on it and share one list.
        let n = 25u32;
        let random_lit =
            |rng: &mut SplitMix64| Var::new(rng.gen_range(1, n as u64) as u32).lit(rng.gen_bool());
        let random_clause =
            |rng: &mut SplitMix64| -> Vec<Lit> { (0..3).map(|_| random_lit(rng)).collect() };
        let free: Vec<Vec<Lit>> = (0..40).map(|_| random_clause(&mut rng)).collect();
        let mut s = Solver::new();
        let mut fresh = Solver::new();
        s.ensure_vars(n);
        fresh.ensure_vars(n);
        let act = Var::new(0);
        for c in &free {
            s.add_clause(c.iter().copied());
            fresh.add_clause(c.iter().copied());
        }
        let base = s.num_clauses();
        for _ in 0..5000 {
            let mut c = vec![act.neg()];
            c.extend(random_clause(&mut rng));
            s.add_clause(c);
        }
        assert!(s.num_clauses() - base > 4500, "few tautologies dropped");
        assert!(s.watches[act.pos().code() as usize].len() > 4500);
        assert!(s.add_clause([act.neg()]));
        s.simplify();
        assert!(s.num_clauses() <= base);
        for (code, list) in s.watches.iter().enumerate() {
            for w in list {
                assert!(
                    s.store.is_live(w.cref),
                    "watch list {code} references freed slot {}",
                    w.cref.index()
                );
            }
        }
        for _ in 0..200 {
            let k = rng.gen_index(0, 6);
            let assumptions: Vec<Lit> = (0..k).map(|_| random_lit(&mut rng)).collect();
            assert_eq!(s.solve(&assumptions), fresh.solve(&assumptions));
        }
    }

    #[test]
    fn chain_implication_forces_assignment() {
        // x0 -> x1 -> ... -> x19; assume x0, so all must be true.
        let mut s = Solver::new();
        let v = vars(&mut s, 20);
        for i in 0..19 {
            s.add_clause([v[i].neg(), v[i + 1].pos()]);
        }
        assert_eq!(s.solve(&[v[0].pos()]), SolveResult::Sat);
        for x in &v {
            assert!(s.model_value(x.pos()).is_true());
        }
        assert_eq!(s.solve(&[v[0].pos(), v[19].neg()]), SolveResult::Unsat);
    }
}
