//! The repository benchmark.
//!
//! `perfbench --workload <screening|screening_full|fine_blocks|dist_pca>
//! --seed <n> --seconds <s> --trace <0|1>`
//!
//! Each workload runs jobs back to back (a closed loop, one job at a
//! time) for `--seconds`, from inputs generated from `--seed`. Every job
//! pays its own set-up (input generation, runtime construction, worker
//! launch), then runs, then is validated against an oracle computed once
//! per invocation before the timed loop. `--trace 0` prints the
//! end-to-end metrics (medians over the jobs, tracing off); `--trace 1`
//! interleaves untraced, traced and (in-process workloads) metrics-off
//! jobs and prints the per-layer metrics. The last stdout line is the
//! result object; the full record (provenance, every job, every span) is
//! written under `perfbench/out/`.

mod check;
mod dist_pca;
mod fine_blocks;
mod host;
mod inproc;
mod metrics;
mod rng;
mod screening;
mod spans;

use spans::{JobLedger, Spans};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use taskrt::json::Value;

/// Directory (relative to the checkout root the benchmark runs from)
/// for the run record and the dist workers' socket directory.
const OUT_DIR: &str = "perfbench/out";

/// Fewest rounds per run, whatever `--seconds` says: untraced runs
/// (one job per round) and traced runs (one job of each kind per round).
const MIN_ROUNDS: usize = 3;
const MIN_TRACED_ROUNDS: usize = 2;

/// What one job reports after it ran.
pub struct JobOut {
    /// Tasks the job submitted.
    pub tasks: u64,
    /// Pooled accuracy per estimator the job ran (end-to-end names).
    pub accuracy: Vec<(&'static str, f64)>,
    /// Validation against the oracle.
    pub check: Result<(), String>,
    /// Per-layer numbers read from the crates' counters (traced jobs).
    pub layers: Vec<(&'static str, f64)>,
}

/// One benchmark workload.
pub trait Workload {
    /// What set-up hands to the job.
    type Ready;
    /// What the job hands to [`Workload::finish`].
    type Done;
    /// Wall time of the inline oracle job, the speed-up baseline.
    fn inline_wall_s(&self) -> f64;
    /// Whether jobs run on an in-process runtime whose metrics and
    /// telemetry can be switched off.
    fn in_process(&self) -> bool;
    /// Per-job set-up, timed as `setup_s`. `obs` selects the default
    /// runtime configuration (`true`) or metrics and telemetry off.
    fn setup(&self, obs: bool, sp: &mut Spans) -> Self::Ready;
    /// The job, timed as `wall_s`.
    fn job(&self, ready: Self::Ready, sp: &mut Spans) -> Self::Done;
    /// Tear-down, validation, and (when `sp` records) per-layer numbers.
    fn finish(&self, done: Self::Done, wall_s: f64, sp: &mut Spans) -> JobOut;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Default configuration, tracing off: the end-to-end sample.
    Plain,
    /// Default configuration with spans recorded.
    Traced,
    /// Metrics and telemetry off, tracing off.
    ObsOff,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Plain => "plain",
            Kind::Traced => "traced",
            Kind::ObsOff => "obs_off",
        }
    }
}

struct Sample {
    kind: Kind,
    setup_s: f64,
    wall_s: f64,
    rss_mb: f64,
    out: JobOut,
    ledger: Option<JobLedger>,
}

impl Sample {
    fn ok(&self) -> bool {
        self.out.check.is_ok()
    }
}

/// Runs one job of `kind`: set-up, job, finish. A panic anywhere counts
/// as a failed job.
fn run_one<W: Workload>(w: &W, kind: Kind, job: u32, quiet: &mut Spans, rec: &mut Spans) -> Sample {
    let sp = if kind == Kind::Traced { rec } else { quiet };
    sp.set_job(job);
    let res = catch_unwind(AssertUnwindSafe(|| {
        let t = Instant::now();
        let ready = sp.span("setup", |sp| w.setup(kind != Kind::ObsOff, sp));
        let setup_s = t.elapsed().as_secs_f64();
        host::reset_peak_rss();
        let root = sp.all().len();
        let t = Instant::now();
        let done = sp.span("job", |sp| w.job(ready, sp));
        let wall_s = t.elapsed().as_secs_f64();
        let rss_mb = host::peak_rss_mb();
        let ledger = sp.enabled().then(|| spans::ledger(sp.all(), root));
        let out = w.finish(done, wall_s, sp);
        (setup_s, wall_s, rss_mb, out, ledger)
    }));
    match res {
        Ok((setup_s, wall_s, rss_mb, out, ledger)) => Sample {
            kind,
            setup_s,
            wall_s,
            rss_mb,
            out,
            ledger,
        },
        Err(e) => {
            let msg = e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".into());
            Sample {
                kind,
                setup_s: f64::NAN,
                wall_s: f64::NAN,
                rss_mb: f64::NAN,
                out: JobOut {
                    tasks: 0,
                    accuracy: Vec::new(),
                    check: Err(format!("panicked: {msg}")),
                    layers: Vec::new(),
                },
                ledger: None,
            }
        }
    }
}

/// Median of the finite values; 0 when there are none.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The job schedule: untraced jobs only for `--trace 0`; otherwise
/// rounds of untraced, traced and metrics-off jobs (the last for
/// in-process workloads), in alternating order so that drift over the
/// run does not favour one side of a pair.
fn round(trace: bool, in_process: bool, r: usize) -> Vec<Kind> {
    if !trace {
        return vec![Kind::Plain];
    }
    let mut kinds = vec![Kind::Plain, Kind::Traced];
    if in_process {
        kinds.push(Kind::ObsOff);
    }
    if r % 2 == 1 {
        kinds.reverse();
    }
    kinds
}

struct Run {
    samples: Vec<Sample>,
    rec: Spans,
    rounds: usize,
}

fn run_loop<W: Workload>(w: &W, seconds: f64, trace: bool) -> Run {
    let mut quiet = Spans::new(false);
    let mut rec = Spans::new(true);
    let mut samples = Vec::new();
    let t0 = Instant::now();
    let mut r = 0;
    let min_rounds = if trace { MIN_TRACED_ROUNDS } else { MIN_ROUNDS };
    while t0.elapsed().as_secs_f64() < seconds || r < min_rounds {
        for kind in round(trace, w.in_process(), r) {
            let s = run_one(w, kind, samples.len() as u32, &mut quiet, &mut rec);
            eprintln!(
                "job {:>3} {:<7} setup {:.4}s wall {:.4}s rss {:.1}MB tasks {} {}",
                samples.len(),
                kind.name(),
                s.setup_s,
                s.wall_s,
                s.rss_mb,
                s.out.tasks,
                match &s.out.check {
                    Ok(()) => "ok".to_string(),
                    Err(e) => format!("FAILED: {e}"),
                }
            );
            samples.push(s);
        }
        r += 1;
    }
    Run {
        samples,
        rec,
        rounds: r,
    }
}

fn of_kind(samples: &[Sample], kind: Kind) -> impl Iterator<Item = &Sample> {
    samples.iter().filter(move |s| s.kind == kind && s.ok())
}

/// `--trace 0` result: every end-to-end metric.
fn end_to_end(samples: &[Sample]) -> Vec<(&'static str, f64)> {
    let plain: Vec<&Sample> = of_kind(samples, Kind::Plain).collect();
    let attempted = samples.iter().filter(|s| s.kind == Kind::Plain).count();
    let mut out: Vec<(&'static str, f64)> = vec![
        ("wall_s", median(plain.iter().map(|s| s.wall_s))),
        ("setup_s", median(plain.iter().map(|s| s.setup_s))),
        ("peak_rss_mb", median(plain.iter().map(|s| s.rss_mb))),
        (
            "tasks_per_s",
            median(plain.iter().map(|s| s.out.tasks as f64 / s.wall_s)),
        ),
        ("ok_frac", plain.len() as f64 / attempted.max(1) as f64),
    ];
    for &(name, _) in metrics::END_TO_END {
        if !name.starts_with("accuracy.") {
            continue;
        }
        // An estimator the workload does not run reads 1.0: nothing of
        // it was mispredicted (see METRICS.md).
        let acc: Vec<f64> = plain
            .iter()
            .filter_map(|s| s.out.accuracy.iter().find(|(n, _)| *n == name).map(|a| a.1))
            .collect();
        out.push((name, if acc.is_empty() { 1.0 } else { median(acc) }));
    }
    out
}

/// Median over rounds of `num / den - 1`, pairing the `r`-th successful
/// job of each kind.
fn paired_overhead(samples: &[Sample], num: Kind, den: Kind) -> f64 {
    let a: Vec<f64> = of_kind(samples, num).map(|s| s.wall_s).collect();
    let b: Vec<f64> = of_kind(samples, den).map(|s| s.wall_s).collect();
    median(a.iter().zip(&b).map(|(x, y)| x / y - 1.0))
}

/// `--trace 1` result: every per-layer metric.
fn per_layer<W: Workload>(w: &W, samples: &[Sample]) -> Vec<(&'static str, f64)> {
    let traced: Vec<&Sample> = of_kind(samples, Kind::Traced).collect();
    let plain_wall = median(of_kind(samples, Kind::Plain).map(|s| s.wall_s));
    let layer = |name: &str| -> f64 {
        let span = metrics::SPAN_METRICS.iter().find(|(_, m)| *m == name);
        median(traced.iter().map(|s| {
            match (span, &s.ledger) {
                (Some((span, _)), Some(l)) => l.get(span),
                _ => s
                    .out
                    .layers
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |l| l.1),
            }
        }))
    };
    metrics::PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let v = match name {
                "runtime.speedup_vs_inline" => w.inline_wall_s() / plain_wall,
                "obs.overhead_frac" if w.in_process() => {
                    paired_overhead(samples, Kind::Plain, Kind::ObsOff)
                }
                "trace.overhead_frac" => paired_overhead(samples, Kind::Traced, Kind::Plain),
                "trace.explained_frac" => median(
                    traced
                        .iter()
                        .filter_map(|s| s.ledger.as_ref().map(|l| l.explained_frac)),
                ),
                _ => layer(name),
            };
            (name, v)
        })
        .collect()
}

fn metrics_value(metrics: &[(&'static str, f64)], units: &[(&str, &str)]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|&(name, v)| {
                assert!(metrics::valid_name(name), "invalid metric name {name}");
                let unit = units.iter().find(|(n, _)| *n == name).map_or("", |u| u.1);
                assert!(metrics::valid_unit(unit), "invalid unit for {name}");
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".into(), Value::Number(v)),
                        ("unit".into(), Value::String(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn sample_value(s: &Sample) -> Value {
    let mut fields = vec![
        ("kind".into(), Value::String(s.kind.name().into())),
        ("setup_s".into(), Value::Number(s.setup_s)),
        ("wall_s".into(), Value::Number(s.wall_s)),
        ("peak_rss_mb".into(), Value::Number(s.rss_mb)),
        ("tasks".into(), Value::Number(s.out.tasks as f64)),
        (
            "error".into(),
            s.out
                .check
                .as_ref()
                .err()
                .map_or(Value::Null, |e| Value::String(e.clone())),
        ),
    ];
    for (n, v) in s.out.accuracy.iter().chain(&s.out.layers) {
        fields.push(((*n).to_string(), Value::Number(*v)));
    }
    if let Some(l) = &s.ledger {
        fields.push(("explained_frac".into(), Value::Number(l.explained_frac)));
    }
    Value::Object(fields)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = a.next() {
        let val = a.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn execute<W: Workload>(w: &W, args: &Args, prep_s: f64) -> Value {
    let run = run_loop(w, args.seconds, args.trace);
    let attempted = run.samples.len();
    let failed = run.samples.iter().filter(|s| !s.ok()).count();
    let result_metrics = if args.trace {
        metrics_value(&per_layer(w, &run.samples), metrics::PER_LAYER)
    } else {
        metrics_value(&end_to_end(&run.samples), metrics::END_TO_END)
    };
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::Number(attempted as f64)),
        ("failed".into(), Value::Number(failed as f64)),
        ("metrics".into(), result_metrics),
    ]);

    let reps = |k: Kind| run.samples.iter().filter(|s| s.kind == k).count() as f64;
    let mut prov = host::provenance();
    prov.extend([
        ("workload".into(), Value::String(args.workload.clone())),
        ("seed".into(), Value::Number(args.seed as f64)),
        ("seconds".into(), Value::Number(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("rounds".into(), Value::Number(run.rounds as f64)),
        ("jobs_plain".into(), Value::Number(reps(Kind::Plain))),
        ("jobs_traced".into(), Value::Number(reps(Kind::Traced))),
        ("jobs_obs_off".into(), Value::Number(reps(Kind::ObsOff))),
        ("oracle_s".into(), Value::Number(prep_s)),
        ("inline_wall_s".into(), Value::Number(w.inline_wall_s())),
    ]);
    let prov = Value::Object(prov);
    println!(
        "{}",
        Value::Object(vec![("provenance".into(), prov.clone())]).compact()
    );

    let record = Value::Object(vec![
        ("provenance".into(), prov),
        ("result".into(), result.clone()),
        (
            "jobs".into(),
            Value::Array(run.samples.iter().map(sample_value).collect()),
        ),
        ("spans".into(), run.rec.to_value()),
    ]);
    let file = format!(
        "{OUT_DIR}/{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = std::fs::write(&file, record.pretty()) {
        eprintln!("warning: could not write {file}: {e}");
    }
    result
}

fn main() {
    // Worker processes of `dist_pca` re-execute this binary and never
    // return from here; the registry must match the driver's.
    let registry = dist_pca::registry();
    taskrt::dist::maybe_worker(&registry);

    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <screening|screening_full|fine_blocks|dist_pca> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // The dist driver puts its socket directory under the temp dir; keep
    // it inside the checkout, relative so socket paths stay short.
    let tmp = format!("{OUT_DIR}/tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {tmp}: {e}");
        std::process::exit(1);
    }
    std::env::set_var("TMPDIR", &tmp);

    let t = Instant::now();
    let result = match args.workload.as_str() {
        "screening" => {
            let w = screening::Screening::new(args.seed, Some(screening::CROP_HZ));
            execute(&w, &args, t.elapsed().as_secs_f64())
        }
        "screening_full" => {
            let w = screening::Screening::new(args.seed, None);
            execute(&w, &args, t.elapsed().as_secs_f64())
        }
        "fine_blocks" => {
            let w = fine_blocks::FineBlocks::new(args.seed);
            execute(&w, &args, t.elapsed().as_secs_f64())
        }
        "dist_pca" => {
            let w = dist_pca::DistPca::new(args.seed, registry);
            execute(&w, &args, t.elapsed().as_secs_f64())
        }
        other => {
            eprintln!("perfbench: unknown workload '{other}' (screening|screening_full|fine_blocks|dist_pca)");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir(&tmp);
    println!("{}", result.compact());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload whose job output can be corrupted after the fact.
    struct Fake {
        corrupt_job: Option<u32>,
        seen: std::cell::Cell<u32>,
    }

    impl Workload for Fake {
        type Ready = ();
        type Done = Vec<Vec<u8>>;
        fn inline_wall_s(&self) -> f64 {
            1.0
        }
        fn in_process(&self) -> bool {
            true
        }
        fn setup(&self, _obs: bool, _sp: &mut Spans) {}
        fn job(&self, _: (), sp: &mut Spans) -> Vec<Vec<u8>> {
            sp.span("dislib.knn.cv", |_| vec![vec![0, 1, 1], vec![1, 0]])
        }
        fn finish(&self, mut preds: Vec<Vec<u8>>, _wall_s: f64, _sp: &mut Spans) -> JobOut {
            let job = self.seen.get();
            self.seen.set(job + 1);
            if self.corrupt_job == Some(job) {
                preds[0][2] ^= 1;
            }
            let oracle = vec![vec![0, 1, 1], vec![1, 0]];
            JobOut {
                tasks: 10,
                accuracy: vec![("accuracy.knn", 0.5)],
                check: check::same_predictions("knn", &preds, &oracle),
                layers: vec![("runtime.tasks", 10.0)],
            }
        }
    }

    fn fake(corrupt_job: Option<u32>) -> Fake {
        Fake {
            corrupt_job,
            seen: std::cell::Cell::new(0),
        }
    }

    #[test]
    fn corrupted_job_counts_as_failed() {
        let w = fake(Some(1));
        let run = run_loop(&w, 0.0, false);
        assert_eq!(run.samples.len(), MIN_ROUNDS);
        let failed: Vec<bool> = run.samples.iter().map(|s| !s.ok()).collect();
        assert_eq!(failed, vec![false, true, false]);
        let e2e = end_to_end(&run.samples);
        let ok = e2e.iter().find(|(n, _)| *n == "ok_frac").unwrap().1;
        assert!((ok - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn panicking_job_counts_as_failed() {
        struct Boom;
        impl Workload for Boom {
            type Ready = ();
            type Done = ();
            fn inline_wall_s(&self) -> f64 {
                1.0
            }
            fn in_process(&self) -> bool {
                false
            }
            fn setup(&self, _obs: bool, _sp: &mut Spans) {}
            fn job(&self, _: (), _sp: &mut Spans) {
                panic!("worker lost");
            }
            fn finish(&self, _: (), _wall_s: f64, _sp: &mut Spans) -> JobOut {
                unreachable!()
            }
        }
        let (mut q, mut r) = (Spans::new(false), Spans::new(true));
        let s = run_one(&Boom, Kind::Plain, 0, &mut q, &mut r);
        assert!(s.out.check.unwrap_err().contains("worker lost"));
    }

    #[test]
    fn traced_rounds_pair_every_kind_and_fill_every_layer() {
        let w = fake(None);
        let run = run_loop(&w, 0.0, true);
        assert_eq!(run.samples.len(), 3 * MIN_TRACED_ROUNDS);
        let layers = per_layer(&w, &run.samples);
        assert_eq!(layers.len(), metrics::PER_LAYER.len());
        let get = |n: &str| layers.iter().find(|(m, _)| *m == n).unwrap().1;
        assert_eq!(get("runtime.tasks"), 10.0);
        assert!(get("dislib.knn.cv_s") > 0.0);
        assert_eq!(get("ecg.features_s"), 0.0);
        assert!(get("trace.explained_frac") > 0.0);
        let e2e = end_to_end(&run.samples);
        assert_eq!(e2e.len(), metrics::END_TO_END.len());
        assert!(e2e.iter().all(|(_, v)| v.is_finite()));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median([f64::NAN]), 0.0);
    }
}
