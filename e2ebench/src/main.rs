//! End-to-end and per-layer benchmark of the truss workspace.
//!
//! ```text
//! e2ebench --truss PATH --workload build|outofcore|serve
//!          --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run generates its inputs from `--seed`, drives the release
//! `truss` binary (end-to-end metrics, `--trace 0`) or times the calls
//! into each layer's public functions from this crate (per-layer
//! metrics, `--trace 1`), checks every output, and prints one JSON
//! result object as the last line of stdout. Every workload prints the
//! same end-to-end metrics, and a traced run replays all three
//! workloads' layers, whichever `--workload` names, so that every run
//! prints every metric of its list. `run.sh` builds both binaries and
//! is the entry point. Workload rationale: `README.md`.

mod build;
mod inputs;
mod outofcore;
mod proc;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Everything a workload needs to know about its run.
pub struct Ctx {
    /// The release `truss` binary under test.
    pub truss: PathBuf,
    /// Private scratch directory inside the checkout, removed at exit.
    pub work: PathBuf,
    pub seed: u64,
    /// Length of the measured phases.
    pub seconds: f64,
    pub nproc: usize,
    /// A traced run reports per-layer metrics only.
    pub trace: bool,
    /// Spawns the children whose peak RSS is measured.
    launcher: std::sync::Mutex<proc::Launcher>,
}

impl Ctx {
    /// Runs `truss args…` to completion through the launcher, with its
    /// stdout and stderr sent to the given files.
    pub fn run_truss(
        &self,
        args: &[&str],
        stdout: &Path,
        stderr: &Path,
    ) -> Result<proc::Reaped, String> {
        self.launcher
            .lock()
            .expect("launcher lock")
            .run(&self.truss, args, stdout, stderr)
            .map_err(|e| format!("truss {}: {e}", args.join(" ")))
    }

    /// A path inside the work directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }
}

/// A run's result: metrics, the operation ledger and context facts.
#[derive(Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    context: Vec<(String, String)>,
}

impl Outcome {
    /// Records one operation; a wrong answer is a failure.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("FAILED: {}", what());
            }
        }
        ok
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// A fact about the run (sizes, settings, sample counts), printed in
    /// the context line before the result.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.context.push((key.to_string(), value.to_string()));
    }

    /// Median of repeated timings, with its repetition count noted.
    pub fn median_metric(&mut self, name: &str, values: &[f64], unit: &'static str) {
        self.note(&format!("samples.{name}"), values.len());
        match stats::median(values) {
            Some(v) => self.metric(name, v, unit),
            None => {
                self.op(false, || format!("{name}: no samples"));
            }
        }
    }

    /// A distribution percentile, with its sample count noted. A
    /// percentile with too few samples beyond it is a failed run, never a
    /// made-up number.
    pub fn percentile_metric(
        &mut self,
        name: &str,
        series: &stats::Series,
        p: f64,
        unit: &'static str,
    ) {
        let pct = series.percentile(p);
        self.note(&format!("samples.{name}"), pct.samples);
        match pct.value {
            Some(v) => self.metric(name, v, unit),
            None => {
                self.op(false, || {
                    format!(
                        "{name}: {} samples leave fewer than 10 beyond p{p}",
                        pct.samples
                    )
                });
            }
        }
    }

    fn result_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }

    /// Takes in a traced workload's ledger and metrics, its context keys
    /// prefixed with the workload's name.
    fn absorb(&mut self, workload: &str, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
        for (k, v) in other.context {
            self.context.push((format!("{workload}.{k}"), v));
        }
    }

    fn context_json(&self) -> String {
        let body: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
            .collect();
        format!("{{\"context\": {{{}}}}}", body.join(", "))
    }
}

struct Args {
    truss: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        raw.iter()
            .position(|a| a == key)
            .and_then(|i| raw.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {key}"))
    };
    let parse = |key: &str| -> Result<u64, String> {
        get(key)?
            .parse()
            .map_err(|_| format!("{key}: not a whole number"))
    };
    let seconds = parse("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        truss: PathBuf::from(get("--truss")?),
        workload: get("--workload")?.to_string(),
        seed: parse("--seed")?,
        seconds: seconds as f64,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace {other}: expected 0 or 1")),
        },
    })
}

const WORKLOADS: [&str; 3] = ["build", "outofcore", "serve"];

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--launcher") {
        return match proc::launcher_main() {
            Ok(()) => ExitCode::SUCCESS,
            Err(_) => ExitCode::FAILURE,
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    if !WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!(
            "e2ebench: unknown workload {:?} (build|outofcore|serve)",
            args.workload
        );
        return ExitCode::from(2);
    }
    if !args.truss.is_file() {
        eprintln!("e2ebench: no truss binary at {}", args.truss.display());
        return ExitCode::from(2);
    }
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("e2ebench: {}: {e}", work.display());
        return ExitCode::from(2);
    }
    // First, while this process is still small: see `proc`.
    let launcher = std::env::current_exe().and_then(|exe| {
        let mut cmd = std::process::Command::new(exe);
        cmd.arg("--launcher").env("TMPDIR", &work);
        proc::Launcher::start(cmd)
    });
    let launcher = match launcher {
        Ok(l) => std::sync::Mutex::new(l),
        Err(e) => {
            eprintln!("e2ebench: launcher: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ctx = Ctx {
        launcher,
        truss: args.truss,
        work,
        seed: args.seed,
        // A traced run shares its time among the three workloads.
        seconds: if args.trace {
            args.seconds / WORKLOADS.len() as f64
        } else {
            args.seconds
        },
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        trace: args.trace,
    };
    let mut out = Outcome::default();
    out.note("workload", &args.workload);
    out.note("seed", ctx.seed);
    out.note("host_nproc", ctx.nproc);
    out.note("engine_width", ctx.nproc);
    out.note("commit", commit());
    out.note("trace", args.trace);
    let run = if args.trace {
        WORKLOADS.iter().try_for_each(|&w| {
            let mut sub = Outcome::default();
            match w {
                "build" => build::trace(&ctx, &mut sub),
                "outofcore" => outofcore::trace(&ctx, &mut sub),
                _ => serve::trace(&ctx, &mut sub),
            }?;
            out.absorb(w, sub);
            // A fresh work directory for the next workload.
            std::fs::remove_dir_all(&ctx.work)
                .and_then(|()| std::fs::create_dir_all(&ctx.work))
                .map_err(|e| format!("{}: {e}", ctx.work.display()))
        })
    } else {
        match args.workload.as_str() {
            "build" => build::measure(&ctx, &mut out),
            "outofcore" => outofcore::measure(&ctx, &mut out),
            _ => serve::measure(&ctx, &mut out),
        }
    };
    let work = ctx.work.clone();
    drop(ctx);
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = run {
        eprintln!("e2ebench: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", out.context_json());
    println!("{}", out.result_json());
    ExitCode::SUCCESS
}

/// A path as the UTF-8 string command lines take.
pub fn path(p: &Path) -> Result<&str, String> {
    p.to_str()
        .ok_or_else(|| format!("non-UTF-8 path {}", p.display()))
}

/// Fewest measured repetitions of a timed phase, however long they take.
const MIN_REPS: usize = 3;

/// Runs a workload's set-up: `reps` times in an untraced run, noting
/// their median wall time as `setup_s`, once in a traced run. Returns
/// the last set-up's result.
pub fn setup_phase<T>(
    ctx: &Ctx,
    out: &mut Outcome,
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let reps = if ctx.trace { 1 } else { reps };
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        // An earlier set-up's result (a running daemon) goes first.
        drop(last.take());
        let t0 = std::time::Instant::now();
        last = Some(f()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    if !ctx.trace {
        out.median_metric("setup_s", &times, "s");
    }
    Ok(last.expect("at least one set-up"))
}

pub fn note_input(out: &mut Outcome, key: &str, input: &inputs::Input) {
    out.note(&format!("{key}.dataset"), input.dataset);
    out.note(&format!("{key}.scale"), input.scale);
    out.note(&format!("{key}.vertices"), input.vertices);
    out.note(&format!("{key}.edges"), input.edges);
    out.note(&format!("{key}.bytes"), input.bytes);
    out.note(&format!("{key}.digest"), format!("{:016x}", input.digest));
}

/// Runs a measured child `f` at least `MIN_REPS` times and until
/// `ctx.seconds` have passed, counting each as one operation; returns
/// the wall times (s) and peak RSS (bytes) of the correct runs.
pub fn repeat_children(
    ctx: &Ctx,
    out: &mut Outcome,
    mut f: impl FnMut() -> Result<(proc::Reaped, bool, String), String>,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let (mut walls, mut rss) = (Vec::new(), Vec::new());
    let start = std::time::Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || start.elapsed().as_secs_f64() < ctx.seconds {
        reps += 1;
        let (reaped, ok, stderr) = f()?;
        eprintln!(
            "rep {reps}: {:.4} s, peak RSS {} B",
            reaped.wall.as_secs_f64(),
            reaped.max_rss_bytes
        );
        if out.op(ok, || {
            format!("child run {reps} ({:?}): {stderr}", reaped.exit)
        }) {
            walls.push(reaped.wall.as_secs_f64());
            rss.push(reaped.max_rss_bytes as f64);
        }
    }
    Ok((walls, rss))
}

/// `<workload>.trace_overhead`: traced over untraced median wall of the
/// same in-process pipeline, minus one.
pub fn overhead_metric(out: &mut Outcome, workload: &str, traced: &[f64], untraced: &[f64]) {
    if let (Some(t), Some(u)) = (stats::median(traced), stats::median(untraced)) {
        out.note(&format!("samples.{workload}.trace_overhead"), traced.len());
        out.metric(&format!("{workload}.trace_overhead"), t / u - 1.0, "ratio");
    }
}

/// `<workload>.coverage` of a workload whose traced run replays a CLI
/// command: the median time the replay's layer spans cover, over the
/// median wall time of the command's own child. Whatever the child does
/// that no span replays (process start-up, a path the replay leaves
/// out) lowers it.
pub fn child_coverage(out: &mut Outcome, workload: &str, covered: &[f64], child_walls: &[f64]) {
    if let (Some(c), Some(w)) = (stats::median(covered), stats::median(child_walls)) {
        out.note(&format!("samples.{workload}.coverage"), child_walls.len());
        out.metric(&format!("{workload}.coverage"), c / w, "ratio");
    }
}

/// Writes the run's spans under `.bench_work/traces/`.
pub fn write_trace(ctx: &Ctx, t: &trace::Tracer, workload: &str) -> Result<(), String> {
    let dir = PathBuf::from(".bench_work").join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!(
        "{workload}-seed{}-{}.jsonl",
        ctx.seed,
        std::process::id()
    ));
    t.write_jsonl(&path).map_err(|e| e.to_string())?;
    eprintln!("spans written to {}", path.display());
    Ok(())
}

/// The commit under test, when the checkout knows it.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}
