//! `build`: SNAP text of the lj analogue → `truss index build` → v2
//! index, with the CLI's default engine at width `nproc`.
//!
//! Chosen because the lj analogue is triangle-dense and deep (k_max 362),
//! so support initialisation and the peel dominate, while the data fits
//! in memory and no serving or out-of-core code runs.

use crate::inputs::{self, Format};
use crate::trace::Tracer;
use crate::{path, proc, Ctx, Outcome};
use std::fs::File;
use std::path::Path;
use std::time::Instant;
use truss_decomposition::core::index::{IndexFormat, TrussIndex};
use truss_decomposition::core::parallel::peel::peel;
use truss_decomposition::core::ThreadPool;
use truss_decomposition::engine::{registry, EngineConfig, EngineInput, TrussEngine};
use truss_decomposition::graph::{io as gio, CsrGraph};
use truss_decomposition::storage::{self, LoadMode};
use truss_decomposition::triangle::{edge_supports_fwd_par, ForwardAdjacency};

/// Set-ups per untraced run (a set-up is ~0.3 s); `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// The reference engine for correctness: the paper's TD-inmem+.
const REFERENCE_ENGINE: &str = "inmem+";

/// Generates the SNAP input (the timed set-up), then computes the
/// reference trussness digest.
fn setup(ctx: &Ctx, out: &mut Outcome) -> Result<u64, String> {
    let snap = ctx.path("lj.snap");
    let input = crate::setup_phase(ctx, out, SETUP_REPS, || {
        inputs::generate("lj", 1.0, ctx.seed, Format::Snap, &snap)
    })?;
    crate::note_input(out, "input", &input);
    let g = read_snap(&snap)?;
    let engines = registry();
    let engine = engines
        .by_name(REFERENCE_ENGINE)
        .expect("inmem+ is registered");
    let (d, report) = engine
        .run(EngineInput::Graph(&g), &EngineConfig::sized_for(&g))
        .map_err(|e| e.to_string())?;
    out.note("input.triangles", report.triangles.unwrap_or(0));
    out.note("input.k_max", d.k_max());
    Ok(digest(&g, |id| d.edge_trussness(id)))
}

fn read_snap(path: &Path) -> Result<CsrGraph, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    gio::read_snap(file).map_err(|e| e.to_string())
}

/// FNV-1a over every edge's (u, v, trussness) in edge-id order.
fn digest(g: &CsrGraph, truss: impl Fn(u32) -> u32) -> u64 {
    let mut bytes = Vec::with_capacity(g.num_edges() * 12);
    for (id, e) in g.iter_edges() {
        for x in [e.u, e.v, truss(id)] {
            bytes.extend_from_slice(&x.to_le_bytes());
        }
    }
    storage::snapshot::fnv1a64(&bytes)
}

fn index_digest(path: &Path) -> Result<u64, String> {
    let (index, _) = TrussIndex::load_with(path, LoadMode::Auto).map_err(|e| e.to_string())?;
    Ok(digest(index.graph(), |id| index.truss_of_edge(id)))
}

/// One `truss index build` child; returns the kernel's account of it and
/// its stderr.
fn index_build(ctx: &Ctx, snap: &Path, tix: &Path) -> Result<(proc::Reaped, String), String> {
    let err_path = ctx.path("build.err");
    let threads = ctx.nproc.to_string();
    let (snap, tix) = (path(snap)?, path(tix)?);
    let args = ["index", "build", "--threads", &threads, "--out", tix, snap];
    let reaped = ctx.run_truss(&args, &ctx.path("build.out"), &err_path)?;
    Ok((
        reaped,
        std::fs::read_to_string(&err_path).unwrap_or_default(),
    ))
}

pub fn measure(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let reference = setup(ctx, out)?;
    let (snap, tix) = (ctx.path("lj.snap"), ctx.path("lj.tix"));
    out.note("engine", "CLI default (no --algo)");
    out.note(
        "page_cache",
        "warm: the input was just written and read back",
    );
    let (walls, rss) = crate::repeat_children(ctx, out, || {
        let (reaped, stderr) = index_build(ctx, &snap, &tix)?;
        let ok = reaped.success() && index_digest(&tix).ok() == Some(reference);
        Ok((reaped, ok, stderr))
    })?;
    let walls_ms: Vec<f64> = walls.iter().map(|s| s * 1e3).collect();
    out.median_metric("latency_ms", &walls_ms, "ms");
    out.median_metric("peak_rss_bytes", &rss, "bytes");
    Ok(())
}

/// What `truss index build` does, call by call: parse, the default
/// engine, derive, atomic save.
fn pipeline(
    t: &mut Tracer,
    engine: &dyn TrussEngine,
    nproc: usize,
    snap: &Path,
    tix: &Path,
) -> Result<TrussIndex, String> {
    t.span("build.pipeline", |t| {
        let g = t.span("graph.parse", |_| read_snap(snap))?;
        let mut config = EngineConfig::sized_for(&g);
        config.threads = nproc;
        config.collect_support_stats = false;
        let (d, _) = t
            .span("core.decompose", |_| {
                engine.run(EngineInput::Graph(&g), &config)
            })
            .map_err(|e| e.to_string())?;
        let index = t.span("core.derive", |_| TrussIndex::from_parts(g, d));
        // As the CLI saves: a synced sibling temp file renamed over the
        // target, then a directory fsync.
        t.span("storage.save", |_| {
            storage::atomic_replace(tix, "index-save", |w| {
                index
                    .write_as(w, IndexFormat::V2)
                    .map_err(|e| std::io::Error::other(e.to_string()))
            })
        })
        .map_err(|e| e.to_string())?;
        Ok(index)
    })
}

pub fn trace(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let reference = setup(ctx, out)?;
    let (snap, tix) = (ctx.path("lj.snap"), ctx.path("lj.tix"));
    // The engine `truss index build` picks by default, read from what it
    // reports, so the traced calls follow a change of default.
    let (reaped, stderr) = index_build(ctx, &snap, &tix)?;
    let engine_name = default_engine(&stderr)
        .filter(|_| reaped.success())
        .ok_or_else(|| format!("index build failed: {stderr}"))?;
    out.note("engine", &engine_name);
    let engines = registry();
    let engine = engines
        .by_name(&engine_name)
        .ok_or_else(|| format!("engine {engine_name} not in the registry"))?;

    let mut t = Tracer::new(true);
    let mut untraced = Tracer::new(false);
    let (mut traced_walls, mut untraced_walls) = (Vec::new(), Vec::new());
    let mut child_walls = Vec::new();
    let (mut triangles, mut levels, mut sub_iterations, mut index_bytes) = (0, 0, 0, 0);
    let start = Instant::now();
    for pass in 0.. {
        if pass >= 2 && start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        // The arms swap order every pass, so neither always runs warm.
        let mut index = None;
        for traced in [pass % 2 == 1, pass % 2 == 0] {
            let t0 = Instant::now();
            if traced {
                index = Some(pipeline(&mut t, engine, ctx.nproc, &snap, &tix)?);
                traced_walls.push(t0.elapsed().as_secs_f64());
            } else {
                pipeline(&mut untraced, engine, ctx.nproc, &snap, &tix)?;
                untraced_walls.push(t0.elapsed().as_secs_f64());
            }
        }
        let index = index.expect("the traced arm ran");
        out.op(
            digest(index.graph(), |id| index.truss_of_edge(id)) == reference,
            || "traced pipeline: trussness differs from the reference".into(),
        );
        index_bytes = std::fs::metadata(&tix).map_err(|e| e.to_string())?.len();

        // The command the pipeline replays, for coverage.
        let (reaped, stderr) = index_build(ctx, &snap, &tix)?;
        if out.op(
            reaped.success() && index_digest(&tix).ok() == Some(reference),
            || format!("index build child: {stderr}"),
        ) {
            child_walls.push(reaped.wall.as_secs_f64());
        }

        // Layer probes outside the pipeline: PKT's phases at width nproc
        // and at width 1 on the same input.
        let g = read_snap(&snap)?;
        let fwd = t.span("triangle.orient", |_| {
            ForwardAdjacency::build_par(&g, ctx.nproc)
        });
        let sup = t.span("triangle.support", |_| {
            edge_supports_fwd_par(&fwd, ctx.nproc)
        });
        triangles = sup.iter().map(|&s| u64::from(s)).sum::<u64>() / 3;
        let wide = ThreadPool::new(ctx.nproc);
        let (truss, stats) = t.span("core.pkt_peel", |_| peel(&g, &fwd, sup.clone(), &wide));
        let (truss_w1, _) = t.span("core.pkt_peel_w1", |_| {
            peel(&g, &fwd, sup, &ThreadPool::new(1))
        });
        levels = stats.levels;
        sub_iterations = stats.sub_iterations;
        out.op(digest(&g, |id| truss[id as usize]) == reference, || {
            "PKT peel at width nproc differs from the reference".into()
        });
        out.op(truss_w1 == truss, || {
            "PKT peel at width 1 differs from width nproc".into()
        });
    }
    for (metric, span) in [
        ("graph.parse_s", "graph.parse"),
        ("core.decompose_s", "core.decompose"),
        ("core.derive_s", "core.derive"),
        ("storage.save_s", "storage.save"),
        ("triangle.orient_s", "triangle.orient"),
        ("triangle.support_s", "triangle.support"),
        ("core.pkt_peel_s", "core.pkt_peel"),
        ("core.pkt_peel_w1_s", "core.pkt_peel_w1"),
    ] {
        out.median_metric(metric, &t.durations(span), "s");
    }
    out.metric("triangle.triangles", triangles as f64, "count");
    out.metric("core.pkt_peel_levels", f64::from(levels), "count");
    out.metric("core.pkt_sub_iterations", sub_iterations as f64, "count");
    out.metric("storage.index_bytes", index_bytes as f64, "bytes");
    crate::child_coverage(out, "build", &t.covered("build.pipeline"), &child_walls);
    crate::overhead_metric(out, "build", &traced_walls, &untraced_walls);
    crate::write_trace(ctx, &t, "build")
}

/// The engine name in `index build`'s "wrote index … (NAME: 1.234s)".
fn default_engine(stderr: &str) -> Option<String> {
    let line = stderr.lines().find(|l| l.starts_with("wrote index"))?;
    let inner = &line[line.rfind('(')? + 1..];
    Some(inner[..inner.find(':')?].to_string())
}

#[cfg(test)]
mod tests {
    #[test]
    fn default_engine_is_read_from_the_build_line() {
        let stderr = "loaded x: 1 vertices\nwrote index x.tix (v2): 3 vertices, 3 edges, \
                      k_max = 3 (inmem+: 0.001s)\n";
        assert_eq!(super::default_engine(stderr).as_deref(), Some("inmem+"));
        assert_eq!(super::default_engine("nothing"), None);
    }
}
