//! The coMtainer pipeline benchmark.
//!
//! ```text
//! perfbench --workload ship|update|buildd --seed N --seconds S --trace 0|1
//! ```
//!
//! Sets the workload up several times (reporting the median as `setup_s`),
//! measures it for `--seconds`, checks every output, and prints a summary
//! followed, as the last line, by one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` alternates untraced and traced iterations and
//! reports the per-layer metrics (and writes every span to
//! `.perfbench/trace-<workload>-<seed>.json`). Scratch layouts live under
//! `.perfbench/` in the working directory and are removed on exit.
//! Workloads, metrics and the layer → metric predictions: NOTES.md.

mod buildd;
mod outcome;
mod pipeline;
mod stats;
mod trace;
mod world;

use outcome::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use world::Res;

/// Set-ups per run: at least `SETUP_MIN_REPS`, more while their total stays
/// under `SETUP_BUDGET_S` (a cheap set-up is noisier, so it is repeated
/// more), at most `SETUP_MAX_REPS`. `setup_s` is their median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 9;
const SETUP_BUDGET_S: f64 = 3.0;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("publish_s", "s"),
    ("adapt_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("wire_mib", "MiB"),
    ("adapted_speedup", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a layer
/// that does no work on a workload reports 0.
const PER_LAYER: [(&str, &str); 44] = [
    ("buildsys.build_s", "s"),
    ("frontend.build_s", "s"),
    ("cache.layer_bytes", "bytes"),
    ("dist.push_s", "s"),
    ("dist.push_mib_s", "MiB/s"),
    ("dist.server.verify_ms", "ms"),
    ("chunk.build_s", "s"),
    ("chunk.build_mib_s", "MiB/s"),
    ("dist.pull_s", "s"),
    ("dist.pull_mib_s", "MiB/s"),
    ("chunk.delta_pull_s", "s"),
    ("chunk.hit_ratio", "ratio"),
    ("chunk.bytes_saved", "bytes"),
    ("dist.full_pull_ref_s", "s"),
    ("digest.mib_s", "MiB/s"),
    ("digest.passes_implied.push", "ratio"),
    ("digest.passes_implied.pull", "ratio"),
    ("tar.read_mib_s", "MiB/s"),
    ("vfs.apply_mib_s", "MiB/s"),
    ("cache.load_s", "s"),
    ("oci.save_s", "s"),
    ("oci.load_s", "s"),
    ("engine.materialize_s", "s"),
    ("engine.adapt_s", "s"),
    ("engine.replay_s", "s"),
    ("engine.collect_s", "s"),
    ("engine.exec_compile", "count"),
    ("engine.cache_hit_ratio", "ratio"),
    ("sched.workers_max", "count"),
    ("sched.critical_path", "count"),
    ("redirect.wall_s", "s"),
    ("retarget.wall_s", "s"),
    ("retarget.exec_compile", "count"),
    ("retarget.workers_max", "count"),
    ("service.run_ms", "ms"),
    ("service.engine_ms", "ms"),
    ("service.commit_ms", "ms"),
    ("service.wait_ms", "ms"),
    ("service.cold_job_ms", "ms"),
    ("publish.untraced_share", "ratio"),
    ("adapt.untraced_share", "ratio"),
    ("retarget.untraced_share", "ratio"),
    ("job.untraced_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// One run's settings and scratch space.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work: PathBuf,
    pub epoch: Instant,
}

impl Ctx {
    /// An empty scratch directory `name` under the run's work dir.
    pub fn fresh_dir(&self, name: &str) -> Res<PathBuf> {
        let dir = self.work.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(world::err("clear scratch dir"))?;
        }
        std::fs::create_dir_all(&dir).map_err(world::err("create scratch dir"))?;
        Ok(dir)
    }

    /// Whether to start iteration `i` of a window opened at `start`: while
    /// the window is open, and at least once (twice when tracing, so both
    /// an untraced and a traced iteration exist).
    pub fn more(&self, start: Instant, i: usize) -> bool {
        i < 1 + usize::from(self.trace) || start.elapsed().as_secs_f64() < self.seconds
    }

    /// Traced runs alternate: odd iterations are traced.
    pub fn traced(&self, i: usize) -> bool {
        self.trace && i % 2 == 1
    }
}

enum Workload {
    Ship(pipeline::Ship),
    Update(pipeline::Update),
    Buildd(buildd::Buildd),
}

impl Workload {
    fn setup(name: &str, ctx: &Ctx) -> Res<Workload> {
        Ok(match name {
            "ship" => Workload::Ship(pipeline::Ship::setup(ctx)?),
            "update" => Workload::Update(pipeline::Update::setup(ctx)?),
            "buildd" => Workload::Buildd(buildd::Buildd::setup(ctx)?),
            other => return Err(format!("unknown workload {other:?} (ship, update, buildd)")),
        })
    }

    fn measure(&mut self, ctx: &Ctx, out: &mut Outcome) -> Res<()> {
        match self {
            Workload::Ship(w) => w.measure(ctx, out),
            Workload::Update(w) => w.measure(ctx, out),
            Workload::Buildd(w) => w.measure(ctx, out),
        }
    }

    fn teardown(self) {
        match self {
            Workload::Ship(_) => {}
            Workload::Update(w) => w.teardown(),
            Workload::Buildd(w) => w.teardown(),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Res<Args> {
    let value = |name: &str| -> Res<&str> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = value("--workload")?.to_string();
    let seed = value("--seed")?.parse().map_err(world::err("--seed"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(world::err("--seconds"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Set the workload up (keeping the last state), then measure it.
fn run(args: &Args, ctx: &Ctx) -> Res<Outcome> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut state = None;
    while setups.len() < SETUP_MIN_REPS
        || (setups.len() < SETUP_MAX_REPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        if let Some(old) = state.take() {
            Workload::teardown(old);
        }
        let t = Instant::now();
        state = Some(Workload::setup(&args.workload, ctx)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut state = state.expect("at least one set-up");
    out.set(
        "setup_s",
        stats::median(&setups).expect("set-up times"),
        "s",
        format!("median of {} set-ups", setups.len()),
    );
    let measured = state.measure(ctx, &mut out);
    state.teardown();
    measured?;
    out.set(
        "peak_rss_mib",
        world::peak_rss_mib(),
        "MiB",
        "VmHWM of this process",
    );
    Ok(out)
}

/// Reduce per-layer samples to medians; derived ratios from those medians.
fn per_layer(out: &mut Outcome) {
    let layers = std::mem::take(&mut out.layers);
    for (name, unit) in PER_LAYER {
        out.median_or_idle(
            name,
            layers.get(name).map(Vec::as_slice).unwrap_or(&[]),
            unit,
        );
    }
    let value = |out: &Outcome, name: &str| out.metrics.get(name).map_or(0.0, |m| m.value);
    let digest = value(out, "digest.mib_s");
    for (name, rate) in [
        ("digest.passes_implied.push", "dist.push_mib_s"),
        ("digest.passes_implied.pull", "dist.pull_mib_s"),
    ] {
        let moved = value(out, rate);
        if digest > 0.0 && moved > 0.0 {
            out.set(
                name,
                digest / moved,
                "ratio",
                format!("digest.mib_s / {rate}, computed"),
            );
        }
    }
}

fn print_result(args: &Args, out: &Outcome) {
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut json = Vec::new();
    for (name, unit) in names {
        let (value, note) = match out.metrics.get(*name) {
            Some(m) => {
                assert_eq!(m.unit, *unit, "{name} measured in the wrong unit");
                (m.value, m.note.as_str())
            }
            None => (0.0, "NOT MEASURED"),
        };
        println!("  {name:28} {value:>14.6} {unit:6} {note}");
        // Names and units are plain identifiers: nothing to escape.
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "  {:28} {:>14.6} {:6} {} failed of {} attempted",
        "failed_share",
        out.failed_share(),
        "ratio",
        out.failed,
        out.attempted
    );
    for f in &out.failures {
        println!("  FAILED: {f}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failures.is_empty(),
        out.attempted.max(1),
        out.failed,
        json.join(", ")
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload ship|update|buildd --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".perfbench");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: root.join(format!("work-{}", std::process::id())),
        epoch: Instant::now(),
    };
    let result = run(&args, &ctx);
    let _ = std::fs::remove_dir_all(&ctx.work);
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        per_layer(&mut out);
        if let Some(spans) = out.trace_json.take() {
            let path = root.join(format!("trace-{}-{}.json", args.workload, args.seed));
            if let Err(e) = std::fs::write(&path, spans) {
                eprintln!("perfbench: writing {}: {e}", path.display());
            }
        }
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in names {
        let value = out.metrics.get(*name).map(|m| m.value);
        if !value.is_some_and(f64::is_finite) {
            out.check(&format!("{name} measured"), false, || format!("{value:?}"));
            out.metrics.remove(*name);
        }
    }
    print_result(&args, &out);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in BENCHMARK.json must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            let obj = doc.as_object().expect("object");
            let list = match serde_json::Value::field(obj, key) {
                Some(serde_json::Value::Array(items)) => items.clone(),
                other => panic!("{key}: {other:?}"),
            };
            list.iter()
                .map(|m| {
                    let o = m.as_object().expect("metric object");
                    let s = |k| {
                        serde_json::Value::field(o, k)
                            .and_then(|v| v.as_str())
                            .expect(k)
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn args_are_checked() {
        let a = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&a("--workload ship --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 10.0, true));
        assert!(parse_args(&a("--workload ship --seed x --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&a("--workload ship --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&a("--workload ship --seed 1 --seconds 5 --trace 2")).is_err());
    }
}
