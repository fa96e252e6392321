//! Command-line driver of the japrove end-to-end benchmark.
//!
//! ```text
//! japrove-e2ebench --workload <ja-failing|ja-mined|global-deep>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! japrove-e2ebench --rationale
//! ```
//!
//! A run generates the workload's designs from the seed, then repeats
//! passes for about `--seconds` (stopping at the nearest pass
//! boundary). With `--trace 0` it prints
//! the end-to-end metrics (medians over passes); with `--trace 1` it
//! alternates untraced and traced passes and prints the per-layer
//! metrics. The last stdout line is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! records the seed, the designs and the per-pass samples. An oracle
//! failure prints `"correct": false` and exits with code 1; a usage
//! error exits with code 2.

use japrove_bench::{provenance, Json};
use japrove_core::Scope;
use japrove_e2ebench::metrics::{
    evidence_layers, is_counter, median, pass_end_to_end, pass_layers, peak_rss_mb, quantile,
    MetricDef, END_TO_END, PER_LAYER,
};
use japrove_e2ebench::oracle::{check_evidence, check_verdicts, Evidence};
use japrove_e2ebench::{run_pass, Input, Pass, Workload};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: japrove-e2ebench --workload <ja-failing|ja-mined|global-deep> \
                     --seed <n> --seconds <s> --trace <0|1>\n       japrove-e2ebench --rationale";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--rationale" {
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// What a run accumulates besides its metrics.
#[derive(Default)]
struct Tally {
    passes: usize,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

impl Tally {
    /// Counts `pass` and checks its verdicts.
    fn pass(&mut self, workload: Workload, pass: &Pass) {
        self.passes += 1;
        self.attempted += pass.attempted();
        for d in &pass.designs {
            match check_verdicts(d, workload.scope()) {
                Ok(unknown) => self.failed += unknown,
                Err(e) => self.errors.push(e),
            }
        }
    }

    /// Checks the evidence of `pass` (counterexamples, certificates,
    /// debugging set), re-checking every `certify_stride`-th certificate
    /// from a seed-chosen offset.
    fn evidence(&mut self, args: &Args, pass: &Pass, certify_stride: usize) -> Evidence {
        let offset = (args.seed % certify_stride as u64) as usize;
        let mut total = Evidence::default();
        for d in &pass.designs {
            match check_evidence(d, args.workload.scope(), certify_stride, offset) {
                Ok(ev) => total += ev,
                Err(e) => self.errors.push(e),
            }
        }
        total
    }
}

/// Runs passes for about `seconds` (at least `min` of them), handing
/// each to `each`; `traced(i)` says whether pass `i` is traced. The run
/// stops at the pass boundary nearest to `seconds`, so that runs of
/// workloads with long passes keep to the time they were given. A pass
/// is dropped before the next one starts, except the last, which is
/// returned.
fn passes(
    args: &Args,
    inputs: &[Input],
    min: usize,
    traced: impl Fn(usize) -> bool,
    mut each: impl FnMut(&Pass, bool),
) -> Result<Pass, String> {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut i = 0;
    loop {
        let pass = run_pass(args.workload, inputs, args.seed, traced(i))?;
        each(&pass, traced(i));
        i += 1;
        if i >= min && started.elapsed() + pass.wall / 2 >= budget {
            return Ok(pass);
        }
    }
}

fn metric(def: &MetricDef, value: f64) -> (&'static str, Json) {
    (
        def.name,
        Json::obj([("value", Json::num(value)), ("unit", Json::str(def.unit))]),
    )
}

fn samples(name: &str, xs: &[f64]) -> (String, Json) {
    let summary = Json::obj([
        ("n", Json::int(xs.len())),
        ("median", Json::num(median(xs))),
        ("p25", Json::num(quantile(xs, 0.25))),
        ("p75", Json::num(quantile(xs, 0.75))),
        ("max", Json::num(xs.iter().copied().fold(0.0, f64::max))),
    ]);
    (name.to_string(), summary)
}

/// A `--trace 0` run: end-to-end metrics from untraced passes.
fn timed_run(args: &Args, inputs: &[Input], tally: &mut Tally) -> Result<(Json, Json), String> {
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let last = passes(
        args,
        inputs,
        1,
        |_| false,
        |pass, _| {
            tally.pass(args.workload, pass);
            let [wall, setup, rate] = pass_end_to_end(pass);
            walls.push(wall);
            setups.push(setup);
            rates.push(rate);
        },
    )?;
    let rss = peak_rss_mb().ok_or("VmHWM is unavailable")?;
    tally.evidence(args, &last, args.workload.certify_stride());
    let values = [median(&walls), median(&setups), median(&rates), rss];
    let metrics = Json::obj(END_TO_END.iter().zip(values).map(|(d, v)| metric(d, v)));
    let detail = Json::Obj(vec![
        samples("wall_s", &walls),
        samples("setup_s", &setups),
        samples("props_per_s", &rates),
    ]);
    Ok((metrics, detail))
}

/// A `--trace 1` run: per-layer metrics from traced passes, alternated
/// with untraced passes for the tracing overhead.
fn traced_run(args: &Args, inputs: &[Input], tally: &mut Tally) -> Result<(Json, Json), String> {
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut layers: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let last = passes(
        args,
        inputs,
        2,
        |i| i % 2 == 1,
        |pass, traced| {
            tally.pass(args.workload, pass);
            if traced {
                traced_walls.push(pass.wall.as_secs_f64());
                layers.push(pass_layers(pass));
            } else {
                untraced_walls.push(pass.wall.as_secs_f64());
            }
        },
    )?;
    // Counters must repeat exactly from pass to pass.
    let first = &layers[0];
    for other in &layers[1..] {
        for ((name, a), (_, b)) in first.iter().zip(other) {
            if is_counter(name) && a != b {
                eprintln!("warning: {name} differs between traced passes: {a} vs {b}");
            }
        }
    }
    let evidence = tally.evidence(args, &last, 1);
    let mut values: Vec<(&'static str, f64)> = (0..first.len())
        .map(|i| {
            let xs: Vec<f64> = layers.iter().map(|l| l[i].1).collect();
            (first[i].0, median(&xs))
        })
        .collect();
    values.extend(evidence_layers(&last, &evidence));
    let overhead = median(&traced_walls) / median(&untraced_walls) - 1.0;
    values.push(("obs.trace_overhead_frac", overhead));
    let metrics = Json::obj(PER_LAYER.iter().map(|d| {
        let value = values
            .iter()
            .find(|(n, _)| *n == d.name)
            .unwrap_or_else(|| panic!("no value computed for {}", d.name))
            .1;
        metric(d, value)
    }));
    let detail = Json::Obj(vec![
        samples("untraced_wall_s", &untraced_walls),
        samples("traced_wall_s", &traced_walls),
    ]);
    Ok((metrics, detail))
}

fn run(args: &Args) -> Result<bool, String> {
    let inputs = args.workload.inputs(args.seed);
    let mut tally = Tally::default();
    let (metrics, detail) = if args.trace {
        traced_run(args, &inputs, &mut tally)?
    } else {
        timed_run(args, &inputs, &mut tally)?
    };
    for e in &tally.errors {
        eprintln!("oracle: {e}");
    }
    let correct = tally.errors.is_empty();
    let designs = Json::arr(inputs.iter().map(|i| {
        Json::obj([
            ("name", Json::str(&i.name)),
            ("aiger_bytes", Json::int(i.aiger.len())),
        ])
    }));
    let context = Json::obj([
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::int(args.seed)),
        ("seconds", Json::num(args.seconds)),
        ("trace", Json::bool(args.trace)),
        ("threads", Json::int(1)),
        ("designs", designs),
        ("passes", Json::int(tally.passes)),
        ("samples", detail),
    ]);
    println!("{context}");
    let result = Json::obj([
        ("correct", Json::bool(correct)),
        ("attempted", Json::int(tally.attempted)),
        ("failed", Json::int(tally.failed)),
        ("metrics", metrics),
    ]);
    println!("{result}");
    Ok(correct)
}

/// The benchmark's rationale: workloads with their designs and property
/// counts at seed 0 (from one pass each), what each per-layer metric
/// should move, the modes left out, and provenance.
fn rationale() -> Result<Json, String> {
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let pass = run_pass(w, &w.inputs(0), 0, false)?;
        let designs = Json::arr(pass.designs.iter().map(|d| {
            Json::obj([
                ("name", Json::str(&d.name)),
                ("properties", Json::int(d.sys.num_properties())),
                ("falsified", Json::int(d.report.num_false())),
            ])
        }));
        let driver = match w.scope() {
            Scope::Local => "Session::separate(SeparateOptions::local())",
            Scope::Global => "Session::separate(SeparateOptions::global())",
        };
        workloads.push(Json::obj([
            ("name", Json::str(w.name())),
            ("why", Json::str(w.why())),
            ("driver", Json::str(driver)),
            ("mines", Json::bool(w.mines())),
            ("threads", Json::int(1)),
            ("designs", designs),
        ]));
    }
    let defs = |list: &[MetricDef]| {
        Json::arr(list.iter().map(|d| {
            Json::obj([
                ("name", Json::str(d.name)),
                ("unit", Json::str(d.unit)),
                ("better", Json::str(d.better)),
                ("moves", Json::str(d.moves)),
            ])
        }))
    };
    let skipped = |mode: &str| {
        (
            mode.to_string(),
            Json::str(
                "not the paper's JA driver or its separate-global baseline; with 2 CPUs a \
                 parallel speed-up cannot show. A mode that wants measuring adds its own \
                 workload in its own benchmark change.",
            ),
        )
    };
    Ok(Json::obj([
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", defs(&END_TO_END)),
        ("per_layer", defs(&PER_LAYER)),
        (
            "not_benchmarked",
            Json::Obj(
                ["clustered", "joint", "grouped", "parallel"]
                    .map(skipped)
                    .to_vec(),
            ),
        ),
        ("provenance", provenance()),
    ]))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            return match rationale() {
                Ok(r) => {
                    println!("{r}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(1)
                }
            };
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
