//! `outofcore`: a `TRUSSGR2` snapshot of the p2p analogue ×40 →
//! `truss decompose --algo outofcore` under a memory budget well below
//! the snapshot size, with a warm page cache.
//!
//! Chosen as the paper's massive-sparse setting and the opposite of
//! `build`: windowing, shard spill and state-file I/O dominate, triangle
//! work is negligible and there is no text parse.

use crate::inputs::{self, Format};
use crate::trace::Tracer;
use crate::{path, proc, Ctx, Outcome};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;
use truss_decomposition::core::{
    outofcore_decompose_in, outofcore_minimum_budget, OutOfCoreConfig, TrussDecomposition,
};
use truss_decomposition::engine::{registry, EngineConfig, EngineInput};
use truss_decomposition::graph::CsrGraph;
use truss_decomposition::storage::{self, LoadMode, ScratchDir};

/// Set-ups per untraced run (a set-up is ~0.8 s); `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The memory budget: 16 MiB against a ~42 MB snapshot.
const BUDGET: u64 = 16 << 20;
/// The p2p analogue at 40× its default scale: n ≈ 252k, m ≈ 1.66M.
const SCALE: f64 = 40.0;

struct Setup {
    gr2: std::path::PathBuf,
    snapshot_bytes: u64,
    /// The default in-memory engine's TSV for the snapshot.
    reference: Vec<u8>,
    /// That engine's registry name.
    inmem_engine: String,
}

/// Writes the snapshot (the timed set-up; reading it back for its digest
/// leaves the page cache warm), then runs the default in-memory engine once for the
/// reference TSV.
fn setup(ctx: &Ctx, out: &mut Outcome) -> Result<Setup, String> {
    let gr2 = ctx.path("p2p.gr2");
    let input = crate::setup_phase(ctx, out, SETUP_REPS, || {
        inputs::generate("p2p", SCALE, ctx.seed, Format::Gr2, &gr2)
    })?;
    crate::note_input(out, "input", &input);
    out.note("budget_bytes", BUDGET);
    out.note(
        "page_cache",
        "warm: the snapshot was just written and read back",
    );

    let ref_path = ctx.path("ref.tsv");
    let err_path = ctx.path("ref.err");
    let threads = ctx.nproc.to_string();
    let reaped = ctx.run_truss(
        &["decompose", "--threads", &threads, path(&gr2)?],
        &ref_path,
        &err_path,
    )?;
    let stderr = std::fs::read_to_string(&err_path).unwrap_or_default();
    let inmem_engine = engine_line_name(&stderr)
        .filter(|_| reaped.success())
        .ok_or_else(|| format!("reference decompose failed: {stderr}"))?;
    out.note("reference_engine", &inmem_engine);
    Ok(Setup {
        gr2,
        snapshot_bytes: input.bytes,
        reference: std::fs::read(&ref_path).map_err(|e| e.to_string())?,
        inmem_engine,
    })
}

/// The engine name in `decompose`'s "NAME: 1.234s, 2 thread(s), …" line.
fn engine_line_name(stderr: &str) -> Option<String> {
    stderr
        .lines()
        .find(|l| l.contains("s, ") && l.contains("thread(s)"))
        .and_then(|l| l.split(':').next())
        .map(str::to_string)
}

/// A `"key":123` number from a one-line JSON report.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One out-of-core `decompose` child writing its TSV to `tsv`.
fn decompose(
    ctx: &Ctx,
    s: &Setup,
    report: bool,
    tsv: &Path,
) -> Result<(proc::Reaped, String), String> {
    let (threads, budget) = (ctx.nproc.to_string(), BUDGET.to_string());
    let scratch = ctx.path("spill");
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let err_path = ctx.path("ooc.err");
    let mut args = vec![
        "decompose",
        "--algo",
        "outofcore",
        "--memory",
        &budget,
        "--threads",
        &threads,
    ];
    args.extend(["--scratch", path(&scratch)?]);
    if report {
        args.extend(["--report", "json"]);
    }
    args.push(path(&s.gr2)?);
    let reaped = ctx.run_truss(&args, tsv, &err_path)?;
    Ok((
        reaped,
        std::fs::read_to_string(&err_path).unwrap_or_default(),
    ))
}

pub fn measure(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let s = setup(ctx, out)?;
    let tsv = ctx.path("ooc.tsv");

    // An unmeasured first run with `--report json` proves the run is out
    // of core: the budget the engine honoured is the one asked for (no
    // clamp) and below the snapshot size, and it spilled. The report's
    // extra support pass would distort wall time and RSS, so measured
    // runs go without it.
    let (reaped, stderr) = decompose(ctx, &s, true, &tsv)?;
    let body = std::fs::read(&tsv).map_err(|e| e.to_string())?;
    let split = body[..body.len().saturating_sub(1)]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    let report = String::from_utf8_lossy(&body[split..]).to_string();
    let budget = json_u64(&report, "effective_memory_budget");
    let spilled = json_u64(&report, "spill_bytes_written").unwrap_or(0);
    out.note("effective_budget_bytes", budget.unwrap_or(0));
    out.note("spill_bytes_written", spilled);
    out.op(reaped.success() && body[..split] == s.reference[..], || {
        format!("report run: TSV differs from the in-memory engine ({stderr})")
    });
    out.op(
        budget == Some(BUDGET) && BUDGET < s.snapshot_bytes && spilled > 0,
        || {
            format!(
                "not out of core: budget {budget:?} vs snapshot {} B, spill {spilled} B",
                s.snapshot_bytes
            )
        },
    );

    let (walls, rss) = crate::repeat_children(ctx, out, || {
        let (reaped, stderr) = decompose(ctx, &s, false, &tsv)?;
        let same = std::fs::read(&tsv).map_err(|e| e.to_string())? == s.reference;
        Ok((reaped, reaped.success() && same, stderr))
    })?;
    let walls_ms: Vec<f64> = walls.iter().map(|s| s * 1e3).collect();
    out.median_metric("latency_ms", &walls_ms, "ms");
    out.median_metric("peak_rss_bytes", &rss, "bytes");
    Ok(())
}

fn write_tsv(g: &CsrGraph, d: &TrussDecomposition, path: &Path) -> std::io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    for (id, e) in g.iter_edges() {
        writeln!(w, "{}\t{}\t{}", e.u, e.v, d.edge_trussness(id))?;
    }
    w.flush()
}

pub fn trace(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let s = setup(ctx, out)?;
    let tsv = ctx.path("trace.tsv");
    let engines = registry();
    let inmem = engines
        .by_name(&s.inmem_engine)
        .ok_or_else(|| format!("engine {} not in the registry", s.inmem_engine))?;

    // What `truss decompose --algo outofcore` does: open (with checksum
    // verification), the engine, TSV output.
    let pipeline = |t: &mut Tracer| -> Result<_, String> {
        t.span("outofcore.pipeline", |t| {
            let g = t
                .span("storage.open", |_| {
                    storage::load_graph_auto(&s.gr2, LoadMode::Auto)
                })
                .map_err(|e| e.to_string())?;
            let config = EngineConfig::with_budget(BUDGET as usize);
            let (io, _) = config.effective_io_floored(&g, outofcore_minimum_budget(&g));
            let cfg = OutOfCoreConfig::new(io).with_threads(ctx.nproc);
            let scratch = ScratchDir::under(&ctx.work).map_err(|e| e.to_string())?;
            let (d, report) = t
                .span("core.ooc", |_| outofcore_decompose_in(&g, &cfg, &scratch))
                .map_err(|e| e.to_string())?;
            t.span("bin.tsv_write", |_| write_tsv(&g, &d, &tsv))
                .map_err(|e| e.to_string())?;
            Ok((g, report))
        })
    };

    let mut t = Tracer::new(true);
    let mut untraced = Tracer::new(false);
    let (mut traced_walls, mut untraced_walls) = (Vec::new(), Vec::new());
    let (mut written, mut read, mut high_water) = (Vec::new(), Vec::new(), Vec::new());
    let mut child_walls = Vec::new();
    let start = Instant::now();
    for pass in 0.. {
        if pass >= 2 && start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        // The arms swap order every pass, so neither always runs warm.
        let mut traced_run = None;
        for traced in [pass % 2 == 1, pass % 2 == 0] {
            let t0 = Instant::now();
            if traced {
                traced_run = Some(pipeline(&mut t)?);
                traced_walls.push(t0.elapsed().as_secs_f64());
            } else {
                pipeline(&mut untraced)?;
                untraced_walls.push(t0.elapsed().as_secs_f64());
            }
        }
        let (g, report) = traced_run.expect("the traced arm ran");
        let same = std::fs::read(&tsv).map_err(|e| e.to_string())? == s.reference;
        out.op(same, || {
            "out-of-core pipeline TSV differs from the in-memory engine".into()
        });

        // The command the pipeline replays, for coverage.
        let (reaped, stderr) = decompose(ctx, &s, false, &tsv)?;
        let same = std::fs::read(&tsv).map_err(|e| e.to_string())? == s.reference;
        if out.op(reaped.success() && same, || {
            format!("out-of-core child: {stderr}")
        }) {
            child_walls.push(reaped.wall.as_secs_f64());
        }
        written.push(report.spill_bytes_written as f64);
        read.push(report.spill_bytes_read as f64);
        high_water.push(report.window_high_water as f64);

        // Probes outside the pipeline: the checksum pass alone, and the
        // in-memory engine on the same mapped snapshot (the out-of-core
        // overhead baseline).
        let checksum = t.span("storage.checksum", |_| storage::snapshot_checksum(&s.gr2));
        out.op(checksum.is_ok(), || {
            format!("snapshot_checksum: {checksum:?}")
        });
        let mut config = EngineConfig::sized_for(&g);
        config.threads = ctx.nproc;
        config.collect_support_stats = false;
        let inmem_run = t.span("core.inmem_same_input", |_| {
            inmem.run(EngineInput::Graph(&g), &config)
        });
        let (d, _) = inmem_run.map_err(|e| e.to_string())?;
        write_tsv(&g, &d, &tsv).map_err(|e| e.to_string())?;
        let same = std::fs::read(&tsv).map_err(|e| e.to_string())? == s.reference;
        out.op(same, || {
            "in-process in-memory TSV differs from the CLI's".into()
        });
    }
    for (metric, span) in [
        ("storage.open_s", "storage.open"),
        ("storage.checksum_s", "storage.checksum"),
        ("core.ooc_s", "core.ooc"),
        ("bin.tsv_write_s", "bin.tsv_write"),
        ("core.inmem_same_input_s", "core.inmem_same_input"),
    ] {
        out.median_metric(metric, &t.durations(span), "s");
    }
    out.median_metric("core.ooc_spill_bytes_written", &written, "bytes");
    out.median_metric("core.ooc_spill_bytes_read", &read, "bytes");
    out.median_metric("storage.window_high_water_bytes", &high_water, "bytes");
    crate::child_coverage(
        out,
        "outofcore",
        &t.covered("outofcore.pipeline"),
        &child_walls,
    );
    crate::overhead_metric(out, "outofcore", &traced_walls, &untraced_walls);
    crate::write_trace(ctx, &t, "outofcore")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_and_stderr_parsing() {
        let line = r#"{"algorithm":"outofcore","effective_memory_budget":16777216,"spill_bytes_written":81978624,"x":null}"#;
        assert_eq!(json_u64(line, "effective_memory_budget"), Some(16 << 20));
        assert_eq!(json_u64(line, "spill_bytes_written"), Some(81_978_624));
        assert_eq!(json_u64(line, "x"), None);
        assert_eq!(json_u64(line, "missing"), None);
        let stderr = "loaded g.gr2: 5 vertices (mmap)\nk_max = 5\n  Φ_2: 9 edges\ninmem+: 1.466s, 1 thread(s), peak memory ~1 bytes, 0 blocks of I/O\n";
        assert_eq!(engine_line_name(stderr).as_deref(), Some("inmem+"));
    }
}
