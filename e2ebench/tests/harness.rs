//! Self-tests of the benchmark: determinism of the counters it
//! reports, the oracle's power to reject wrong output, and agreement
//! between the code and `BENCHMARK.json`.

use japrove_e2ebench::metrics::{is_counter, pass_layers, END_TO_END, PER_LAYER};
use japrove_e2ebench::oracle::{check_evidence, check_verdicts};
use japrove_e2ebench::{make_inputs, run_pass, Pass, Workload};
use japrove_ic3::{Certificate, CheckOutcome};
use japrove_obs::json::Value;

/// One traced pass of `workload` restricted to the named families.
fn pass_over(workload: Workload, families: &[&str], seed: u64) -> Pass {
    let specs: Vec<_> = workload
        .families()
        .into_iter()
        .filter(|s| families.contains(&s.name.as_str()))
        .collect();
    assert_eq!(
        specs.len(),
        families.len(),
        "every family belongs to the workload"
    );
    let inputs = make_inputs(&specs, seed, 1);
    run_pass(workload, &inputs, seed, true).expect("generated AIGER parses")
}

#[test]
fn counters_repeat_exactly_for_a_seed() {
    for (workload, family) in [
        (Workload::JaFailing, "syn_6s380"),
        (Workload::GlobalDeep, "syn_6s335"),
        (Workload::JaMined, "syn_6s139"),
    ] {
        let counters = || -> Vec<(&'static str, f64)> {
            pass_layers(&pass_over(workload, &[family], 3))
                .into_iter()
                .filter(|(name, _)| {
                    is_counter(name)
                        && ["sat.", "ic3.", "mine."]
                            .iter()
                            .any(|p| name.starts_with(p))
                })
                .collect()
        };
        let first = counters();
        assert!(first.iter().any(|(n, v)| *n == "sat.solves" && *v > 0.0));
        assert_eq!(first, counters(), "{} on {family}", workload.name());
    }
}

#[test]
fn seeded_passes_pass_the_oracle() {
    for seed in [0, 7] {
        let pass = pass_over(Workload::JaFailing, &["syn_6s104", "syn_6s380"], seed);
        for d in &pass.designs {
            assert_eq!(check_verdicts(d, Workload::JaFailing.scope()), Ok(0));
            check_evidence(d, Workload::JaFailing.scope(), 1, 0).expect("evidence holds");
        }
    }
}

#[test]
fn oracle_rejects_any_flipped_verdict() {
    let scope = Workload::JaFailing.scope();
    let mut pass = pass_over(Workload::JaFailing, &["syn_6s104"], 0);
    let d = &mut pass.designs[0];
    let cex = d
        .report
        .results
        .iter()
        .find_map(|r| r.counterexample().cloned())
        .expect("syn_6s104 has a local failure");
    for i in 0..d.report.results.len() {
        let original = d.report.results[i].outcome.clone();
        d.report.results[i].outcome = if original.is_proved() {
            CheckOutcome::Falsified(cex.clone())
        } else {
            CheckOutcome::Proved(Certificate::default())
        };
        assert!(
            check_verdicts(d, scope).is_err(),
            "flipped verdict {i} accepted"
        );
        d.report.results[i].outcome = original;
    }
    assert_eq!(check_verdicts(d, scope), Ok(0));
}

#[test]
fn oracle_rejects_a_truncated_counterexample() {
    let scope = Workload::JaFailing.scope();
    let mut pass = pass_over(Workload::JaFailing, &["syn_6s104"], 0);
    let d = &mut pass.designs[0];
    let r = d
        .report
        .results
        .iter_mut()
        .find(|r| r.counterexample().is_some_and(|c| c.depth >= 1))
        .expect("syn_6s104 has a failure of depth >= 1");
    let CheckOutcome::Falsified(cex) = &mut r.outcome else {
        unreachable!("found by its counterexample")
    };
    cex.depth -= 1;
    cex.trace.truncate(cex.depth);
    let verdicts = check_verdicts(d, scope);
    assert_eq!(verdicts, Ok(0), "the verdict itself is still right");
    assert!(check_evidence(d, scope, 1, 0).is_err());
}

fn names(list: &Value) -> Vec<&str> {
    let Value::Arr(items) = list else {
        panic!("expected an array")
    };
    items
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).expect("named entry"))
        .collect()
}

#[test]
fn benchmark_json_matches_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = Value::parse(&text).expect("BENCHMARK.json parses");
    let field = |k: &str| {
        spec.get(k)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {k}"))
    };
    assert_eq!(
        names(field("workloads")),
        Workload::ALL.map(Workload::name).to_vec()
    );
    assert_eq!(
        names(field("end_to_end")),
        END_TO_END.map(|d| d.name).to_vec()
    );
    assert_eq!(
        names(field("per_layer")),
        PER_LAYER.map(|d| d.name).to_vec()
    );
    let Value::Arr(per_layer) = field("per_layer") else {
        unreachable!("checked by names()")
    };
    for (entry, def) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(entry.get("unit").and_then(Value::as_str), Some(def.unit));
        assert_eq!(
            entry.get("better").and_then(Value::as_str),
            Some(def.better)
        );
    }
}
