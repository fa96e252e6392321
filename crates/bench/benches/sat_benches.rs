//! Criterion micro-benchmarks for the CDCL solver.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use japrove_logic::Lit;
use japrove_sat::{SolveResult, Solver};

/// Unsatisfiable pigeonhole instance: n+1 pigeons, n holes.
fn pigeonhole(n: usize) -> Solver {
    let mut s = Solver::new();
    let vars: Vec<Vec<_>> = (0..n + 1)
        .map(|_| (0..n).map(|_| s.new_var()).collect())
        .collect();
    for row in &vars {
        s.add_clause(row.iter().map(|v| v.pos()));
    }
    for (a, row_a) in vars.iter().enumerate() {
        for row_b in &vars[a + 1..] {
            for (va, vb) in row_a.iter().zip(row_b) {
                s.add_clause([va.neg(), vb.neg()]);
            }
        }
    }
    s
}

fn bench_pigeonhole(c: &mut Criterion) {
    let mut group = c.benchmark_group("sat/pigeonhole_unsat");
    group.sample_size(10);
    for n in [5usize, 6, 7] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut s = pigeonhole(n);
                assert_eq!(s.solve(&[]), SolveResult::Unsat);
            })
        });
    }
    group.finish();
}

fn bench_incremental_assumptions(c: &mut Criterion) {
    // Implication chain solved under many alternating assumptions.
    c.bench_function("sat/incremental_chain", |b| {
        let mut s = Solver::new();
        let vars: Vec<_> = (0..400).map(|_| s.new_var()).collect();
        for w in vars.windows(2) {
            s.add_clause([w[0].neg(), w[1].pos()]);
        }
        b.iter(|| {
            let sat = s.solve(&[vars[0].pos()]);
            assert_eq!(sat, SolveResult::Sat);
            let unsat = s.solve(&[vars[0].pos(), vars[399].neg()]);
            assert_eq!(unsat, SolveResult::Unsat);
            let core: Vec<Lit> = s.unsat_core().to_vec();
            assert!(!core.is_empty());
        })
    });
}

fn bench_retire_simplify(c: &mut Criterion) {
    // 5,000 clauses behind one activation literal, all watched on its
    // negation (the guard is variable 0, so `!act` sorts first): the
    // teardown a warm IC3 solver does after every run. Each iteration
    // builds the solver, retires the guard and simplifies; the build is
    // the same on every iteration.
    c.bench_function("sat/retire_simplify_5000", |b| {
        b.iter(|| {
            let mut s = Solver::new();
            let act = s.new_var();
            let vars: Vec<_> = (0..64).map(|_| s.new_var()).collect();
            for i in 0..5000usize {
                let (x, y) = (vars[i % 64], vars[(i * 7 + 1) % 64]);
                s.add_clause([act.neg(), x.lit(i % 3 == 0), y.lit(i % 5 == 0)]);
            }
            s.add_clause([act.neg()]);
            s.simplify();
            assert_eq!(s.num_clauses(), 0);
        })
    });
}

criterion_group!(
    benches,
    bench_pigeonhole,
    bench_incremental_assumptions,
    bench_retire_simplify
);
criterion_main!(benches);
