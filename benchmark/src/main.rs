//! `itbench`: the benchmark every performance or simplicity claim in this
//! repository is measured with. See `benchmark/README.md`.
//!
//! ```text
//! itbench run --workload W --seed N --seconds S --trace 0|1
//!             [--threads T] [--smoke] [--out-dir DIR] [--record FILE]
//! itbench compare A.jsonl B.jsonl
//! itbench manifest
//! ```
//!
//! `run` drives one workload in this process and prints the result object
//! as the last line of standard output; everything for people goes to
//! standard error. It drives the system through its public API only
//! (`InferenceSession::builder()..plan()`, `InferencePlan::run`,
//! `GnnServer::{submit, tick, drain_ready}`).

mod compare;
mod engine;
mod inputs;
mod json;
mod metrics;
mod outcome;
mod probe;
mod serve;
mod spans;
mod stats;

use inputs::Sizes;
use json::Json;
use metrics::{MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS};
use outcome::{msg, Ctx, Outcome, Res};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One: on the two-CPU host this benchmark was sized on, a second thread
/// makes run time bimodal (see the README), and the load generator of the
/// serve workload is the calling thread anyway.
const DEFAULT_THREADS: usize = 1;

const USAGE: &str = "usage: itbench run --workload W --seed N --seconds S --trace 0|1 \
                     [--threads T] [--smoke] [--out-dir DIR] [--record FILE]\n       \
                     itbench compare A.jsonl B.jsonl\n       itbench manifest";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare_files(Path::new(a), Path::new(b)),
            _ => Err(USAGE.into()),
        },
        Some("manifest") => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        _ => Err(USAGE.into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("itbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs and bare switches, in any order.
struct Flags<'a>(&'a [String]);

impl Flags<'_> {
    fn value(&self, flag: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == flag)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Res<T> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag}: cannot read `{v}`\n{USAGE}")),
        }
    }

    fn switch(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn parse_ctx(flags: &Flags<'_>) -> Res<(Ctx, bool)> {
    let workload = flags
        .value("--workload")
        .ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    if !metrics::workload_known(workload) {
        let names: Vec<&str> = metrics::WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "unknown workload `{workload}`; one of: {}",
            names.join(", ")
        ));
    }
    let smoke = flags.switch("--smoke");
    let seconds: f64 = flags.parsed(
        "--seconds",
        if smoke { 1.0 } else { f64::from(RUN_SECONDS) },
    )?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], not {seconds}"));
    }
    let trace: u8 = flags.parsed("--trace", 0)?;
    if trace > 1 {
        return Err(format!("--trace is 0 or 1, not {trace}"));
    }
    let out_dir = PathBuf::from(flags.value("--out-dir").unwrap_or("target/itbench"));
    // `itworker` is built into the directory this executable is in.
    let exe = std::env::current_exe().map_err(msg)?;
    let worker_bin = exe
        .parent()
        .map(|d| d.join(format!("itworker{}", std::env::consts::EXE_SUFFIX)))
        .ok_or("this executable has no directory")?;
    Ok((
        Ctx {
            workload: workload.to_string(),
            seed: flags.parsed("--seed", 11)?,
            seconds,
            threads: flags.parsed("--threads", DEFAULT_THREADS)?.max(1),
            smoke,
            sizes: if smoke { Sizes::SMOKE } else { Sizes::FULL },
            out_dir,
            worker_bin,
        },
        trace == 1,
    ))
}

fn run(args: &[String]) -> Res<bool> {
    let flags = Flags(args);
    let (ctx, traced) = parse_ctx(&flags)?;
    std::fs::create_dir_all(ctx.out_dir.join("spill")).map_err(msg)?;
    // Set, not read: the thread budget never comes from the environment.
    inferturbo_common::Parallelism::set(ctx.threads);

    let (mut outcome, recorder) = match inputs::engine_cfg(&ctx.workload) {
        Some(cfg) if traced => engine::run_traced(&ctx, cfg)?,
        Some(cfg) => (engine::run_untraced(&ctx, cfg)?, spans::Recorder::new()),
        None => serve::run(&ctx, traced)?,
    };
    let defs = if traced { PER_LAYER } else { END_TO_END };
    let result = outcome.result_json(defs);
    report(&ctx, traced, defs, &outcome);
    if traced {
        let path = ctx.out_dir.join(format!("{}.spans.json", ctx.workload));
        std::fs::write(&path, recorder.to_json().render()).map_err(msg)?;
        eprintln!("spans: {} in {}", recorder.spans().len(), path.display());
    }
    if let Some(path) = flags.value("--record") {
        let mut line = vec![
            ("workload".to_string(), Json::str(ctx.workload.clone())),
            ("seed".to_string(), Json::Num(ctx.seed as f64)),
            ("seconds".to_string(), Json::Num(ctx.seconds)),
            ("threads".to_string(), Json::Num(ctx.threads as f64)),
            ("smoke".to_string(), Json::Bool(ctx.smoke)),
            ("trace".to_string(), Json::Num(f64::from(u8::from(traced)))),
        ];
        line.extend(result.fields().iter().cloned());
        line.push(("samples".to_string(), outcome.samples_json()));
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(msg)?;
        writeln!(f, "{}", Json::Obj(line).render()).map_err(msg)?;
    }
    println!("{}", result.render());
    Ok(outcome.correct())
}

/// Every metric by name with its unit, sample counts and quartiles where a
/// median was taken, and every check, for the person running the command.
fn report(ctx: &Ctx, traced: bool, defs: &[MetricDef], o: &Outcome) {
    eprintln!(
        "== {} seed={} seconds={} threads={} host_cpus={} {}{}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        ctx.threads,
        std::thread::available_parallelism().map_or(1, usize::from),
        if traced { "traced" } else { "tracing off" },
        if ctx.smoke { " SMOKE" } else { "" },
    );
    for d in defs {
        let v = o.get(d.name);
        match o.summary_of(d.name) {
            Some(s) => eprintln!(
                "  {:<32} {:>14.6} {:<6} n={} q1={:.6} q3={:.6}",
                d.name, v, d.unit, s.n, s.q1, s.q3
            ),
            None => eprintln!("  {:<32} {:>14.6} {}", d.name, v, d.unit),
        }
    }
    for name in ["run_s.traced", "run_s.untraced"] {
        if let Some(s) = o.summary_of(name) {
            eprintln!(
                "  {:<32} {:>14.6} s      n={} q1={:.6} q3={:.6}",
                name, s.median, s.n, s.q1, s.q3
            );
        }
    }
    let failed_share = o.failed as f64 / o.attempted.max(1) as f64;
    eprintln!(
        "  {:<32} {:>14.6} ratio  ({} failed of {} attempted)",
        "failed_share", failed_share, o.failed, o.attempted
    );
    for (what, ok) in &o.checks {
        eprintln!("  [{}] {what}", if *ok { "ok" } else { "FAILED" });
    }
}
