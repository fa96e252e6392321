//! An incremental CDCL SAT solver built for the japrove model checkers.
//!
//! The solver implements the classic MiniSat architecture with the
//! refinements modern IC3 implementations rely on:
//!
//! * two-watched-literal unit propagation with blocker literals,
//! * first-UIP clause learning with local minimization,
//! * VSIDS decision heuristics with phase saving,
//! * Luby restarts and LBD/activity-guided learnt-clause reduction,
//! * an *assumption* interface with final-conflict analysis, yielding
//!   unsatisfiable cores over the assumption set — the primitive that
//!   powers IC3 generalization and state lifting,
//! * per-call [`Budget`]s (conflicts and/or wall clock), used by the
//!   multi-property engines to implement per-property time limits,
//! * the [`SatBackend`] trait and [`BackendChoice`] registry: the
//!   engines talk to the solver only through this object-safe
//!   interface, so every property of a multi-property run can be
//!   assigned its own backend ([`Solver`] or the chronological
//!   [`Solver::chronological`] variant).
//!
//! # Examples
//!
//! ```
//! use japrove_sat::{Solver, SolveResult};
//!
//! let mut solver = Solver::new();
//! let x = solver.new_var();
//! let y = solver.new_var();
//! solver.add_clause([x.pos(), y.pos()]);
//! solver.add_clause([x.neg(), y.pos()]);
//! assert_eq!(solver.solve(&[]), SolveResult::Sat);
//! assert!(solver.model_value(y.pos()).is_true());
//! // Under the assumption !y the formula is unsatisfiable:
//! assert_eq!(solver.solve(&[y.neg()]), SolveResult::Unsat);
//! assert_eq!(solver.unsat_core(), &[y.neg()]);
//! ```

mod backend;
mod budget;
mod heap;
mod solver;
mod stats;
mod store;

pub use backend::{BackendChoice, SatBackend};
pub use budget::Budget;
pub use solver::{SolveResult, Solver};
pub use stats::SolverStats;

#[cfg(test)]
mod randomized {
    use super::*;
    use japrove_logic::{Clause, Cnf, Lit, Var};
    use japrove_rng::SplitMix64;

    /// Brute-force satisfiability over up to 2^n assignments.
    fn brute_force_sat(cnf: &Cnf) -> bool {
        let n = cnf.num_vars();
        assert!(n <= 16, "brute force limited to 16 vars");
        'outer: for bits in 0u32..(1 << n) {
            for clause in cnf.clauses() {
                let sat = clause.lits().iter().any(|l| {
                    let val = (bits >> l.var().index()) & 1 == 1;
                    val != l.is_negated()
                });
                if !sat {
                    continue 'outer;
                }
            }
            return true;
        }
        false
    }

    /// A random CNF over `max_vars` variables with 1..=`max_clauses`
    /// clauses of 1..=4 literals each.
    fn random_cnf(rng: &mut SplitMix64, max_vars: u32, max_clauses: usize) -> Cnf {
        let num_clauses = rng.gen_index(1, max_clauses + 1);
        let clauses: Vec<Clause> = (0..num_clauses)
            .map(|_| {
                let len = rng.gen_index(1, 5);
                Clause::from_lits((0..len).map(|_| {
                    Var::new(rng.gen_range(0, u64::from(max_vars)) as u32).lit(rng.gen_bool())
                }))
            })
            .collect();
        let mut cnf = Cnf::with_vars(max_vars);
        cnf.extend(clauses);
        cnf
    }

    #[test]
    fn solver_agrees_with_brute_force() {
        for case in 0..256u64 {
            let mut rng = SplitMix64::seed_from_u64(0xb1ce_0000 + case);
            let cnf = random_cnf(&mut rng, 8, 24);
            let mut s = Solver::new();
            s.ensure_vars(cnf.num_vars());
            for c in cnf.clauses() {
                s.add_clause(c.lits().iter().copied());
            }
            let result = s.solve(&[]);
            let expected = brute_force_sat(&cnf);
            assert_eq!(result == SolveResult::Sat, expected, "case {case}");
            if !expected {
                assert_eq!(result, SolveResult::Unsat, "case {case}");
            }
            if result == SolveResult::Sat {
                // Model must actually satisfy the formula.
                for c in cnf.clauses() {
                    let ok = c.lits().iter().any(|&l| !s.model_value(l).is_false());
                    assert!(ok, "case {case}: model falsifies clause {c:?}");
                }
            }
        }
    }

    #[test]
    fn unsat_core_is_sound() {
        for case in 0..256u64 {
            let mut rng = SplitMix64::seed_from_u64(0xc04e_0000 + case);
            let cnf = random_cnf(&mut rng, 8, 16);
            let mut s = Solver::new();
            s.ensure_vars(cnf.num_vars().max(8));
            for c in cnf.clauses() {
                s.add_clause(c.lits().iter().copied());
            }
            // Random assumptions, one literal per variable at most so
            // the query stays meaningful.
            let mut clean: Vec<Lit> = Vec::new();
            for _ in 0..rng.gen_index(1, 6) {
                let l = Var::new(rng.gen_range(0, 8) as u32).lit(rng.gen_bool());
                if !clean.iter().any(|&c| c.var() == l.var()) {
                    clean.push(l);
                }
            }
            if s.solve(&clean) == SolveResult::Unsat {
                let core = s.unsat_core().to_vec();
                for l in &core {
                    assert!(clean.contains(l), "case {case}");
                }
                // Solving just the core must still be unsat.
                assert_eq!(s.solve(&core), SolveResult::Unsat, "case {case}");
            }
        }
    }

    #[test]
    fn chronological_backtracking_agrees_with_backjumping() {
        // Verdict parity of the two CDCL backends on random CNFs,
        // including under assumptions; models are checked, cores must
        // be sound in both modes.
        for case in 0..256u64 {
            let mut rng = SplitMix64::seed_from_u64(0xc4_0000 + case);
            let cnf = random_cnf(&mut rng, 8, 24);
            let mut assumptions: Vec<Lit> = Vec::new();
            for _ in 0..rng.gen_index(0, 4) {
                let l = Var::new(rng.gen_range(0, 8) as u32).lit(rng.gen_bool());
                if !assumptions.iter().any(|&c| c.var() == l.var()) {
                    assumptions.push(l);
                }
            }
            let mut verdicts = Vec::new();
            for chrono in [false, true] {
                let mut s = if chrono {
                    Solver::chronological()
                } else {
                    Solver::new()
                };
                s.ensure_vars(cnf.num_vars().max(8));
                for c in cnf.clauses() {
                    s.add_clause(c.lits().iter().copied());
                }
                let result = s.solve(&assumptions);
                if result == SolveResult::Sat {
                    for c in cnf.clauses() {
                        let ok = c.lits().iter().any(|&l| !s.model_value(l).is_false());
                        assert!(ok, "case {case} chrono={chrono}: model falsifies {c:?}");
                    }
                } else {
                    let core = s.unsat_core().to_vec();
                    assert!(core.iter().all(|l| assumptions.contains(l)), "case {case}");
                    assert_eq!(s.solve(&core), SolveResult::Unsat, "case {case}");
                }
                verdicts.push(result);
            }
            assert_eq!(verdicts[0], verdicts[1], "case {case}: backends disagree");
        }
    }

    #[test]
    fn incremental_equals_from_scratch() {
        for case in 0..256u64 {
            let mut rng = SplitMix64::seed_from_u64(0x14c0_0000 + case);
            let cnf = random_cnf(&mut rng, 8, 20);
            // Add clauses one at a time with a solve call in between;
            // the final verdict must match a fresh solver.
            let mut inc = Solver::new();
            inc.ensure_vars(cnf.num_vars());
            for c in cnf.clauses() {
                inc.add_clause(c.lits().iter().copied());
                let _ = inc.solve(&[]);
            }
            let final_inc = inc.solve(&[]);

            let mut fresh = Solver::new();
            fresh.ensure_vars(cnf.num_vars());
            for c in cnf.clauses() {
                fresh.add_clause(c.lits().iter().copied());
            }
            assert_eq!(final_inc, fresh.solve(&[]), "case {case}");
        }
    }
}
