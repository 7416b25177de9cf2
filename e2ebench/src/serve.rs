//! `serve`: a `truss serve --wal` daemon over the lj analogue's v2 index,
//! driven by one client process in three phases:
//!
//! * `read`: one closed-loop connection sends a seeded mix of `edge`
//!   lookups (existing edges) and `community-of` at a fixed k;
//! * `mixed`: the same read loop beside open-loop single-edge updates on
//!   a second connection, each ack timed from its due time;
//! * `recover`: SIGKILL the daemon with a fixed-length log, restart it,
//!   and time until a reply carries the last acked identity.
//!
//! The untraced run measures the `mixed` phase: its median ack is the
//! workload's `latency_ms`, and the daemon's peak RSS its
//! `peak_rss_bytes`. The traced run runs all three phases for the
//! read, tail and recovery figures.
//!
//! Chosen because it is the only workload that runs the wire protocol,
//! the daemon, the incremental index update, the WAL and compaction.
//!
//! Every inserted edge closes no triangle, so no other edge's trussness
//! ever changes: each `edge` reply has one right answer at every
//! generation. Each insert is followed by a delete of the same edge, so
//! m stays constant and late acks cost what early ones do.

use crate::inputs::{self, Format, Rng};
use crate::stats::Series;
use crate::trace::Tracer;
use crate::{path, proc, Ctx, Outcome};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{ErrorKind, Read};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use truss_decomposition::core::index::TrussIndex;
use truss_decomposition::graph::{CsrGraph, Edge, EdgeDelta};
use truss_decomposition::serve::proto::{
    decode_reply, decode_request, encode_reply, encode_request, write_frame, Reply, GENERATION_ANY,
    MAX_RESPONSE_FRAME,
};
use truss_decomposition::serve::{answer, index_checksum, Client, Request, Response};
use truss_decomposition::storage::wal::{plan_recovery, scan_wal, WalWriter};
use truss_decomposition::storage::{fsync_dir, snapshot_checksum, LoadMode};

/// Set-ups per untraced run (a set-up is ~2 s); `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Daemon reader threads: readers are thread-per-connection, and the
/// mixed phase holds two connections (reads and updates) at once.
const READERS: usize = 2;
/// Compaction threshold: a single-edge delta record is ~37 bytes, so the
/// mixed phase compacts every ~27 acks.
const COMPACT_BYTES: u64 = 1024;
/// Open-loop update rate, below the writer's capacity at m ≈ 628k.
const UPDATE_RATE_PER_S: f64 = 5.0;
/// Fewest acks per mixed phase: enough for ten samples beyond p90.
const UPDATES: usize = 110;
/// The fixed level of `community-of` queries.
const COMMUNITY_K: u32 = 200;
/// One read in `COMMUNITY_EVERY` is a `community-of`; the rest are `edge`.
/// The ratio is a choice, not measured traffic: it keeps enough
/// `community-of` samples for their own series, and the `edge` figures
/// (`serve.reads_per_s` and the `edge` latencies) leave `community-of`
/// out.
const COMMUNITY_EVERY: usize = 1000;
/// Kill/restart cycles, and the acked records in the log at each kill.
const RECOVERY_REPS: usize = 5;
const RECOVERY_RECORDS: usize = 5;

/// A `truss serve` child. Dropping it SIGKILLs and reaps it.
struct Daemon {
    child: Child,
    addr: String,
    spawned: Instant,
    reaped: Option<proc::Reaped>,
}

impl Daemon {
    /// Spawns the daemon and waits until it reports its bound address.
    fn spawn(ctx: &Ctx, tix: &Path, log: &Path, err: &Path) -> Result<Daemon, String> {
        let spawned = Instant::now();
        let threads = READERS.to_string();
        let compact = COMPACT_BYTES.to_string();
        // Not through the launcher: the daemon outlives the call. Its
        // `ru_maxrss` would carry this process's peak, so its peak RSS is
        // read from `/proc` instead (`peak_rss`).
        let child = std::process::Command::new(&ctx.truss)
            .args(["serve", "--host", "127.0.0.1", "--port", "0"])
            .args(["--threads", &threads, "--compact-bytes", &compact])
            .arg("--wal")
            .arg(log)
            .arg(tix)
            .env("TMPDIR", &ctx.work)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(File::create(err).map_err(|e| e.to_string())?)
            .spawn()
            .map_err(|e| format!("truss serve: {e}"))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            spawned,
            reaped: None,
        };
        loop {
            let text = std::fs::read_to_string(err).unwrap_or_default();
            // Only complete lines: stderr is unbuffered, so a line can be
            // read while it is still being written.
            let complete = &text[..text.rfind('\n').map_or(0, |i| i + 1)];
            if let Some(addr) = complete.lines().find_map(|l| {
                let rest = l.strip_prefix("serving ")?;
                let rest = &rest[rest.find(" on ")? + 4..];
                Some(&rest[..rest.find(" with ")?])
            }) {
                daemon.addr = addr.to_string();
                return Ok(daemon);
            }
            if spawned.elapsed() > Duration::from_secs(60) || text.contains("error:") {
                return Err(format!("daemon did not come up: {text}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn client(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| format!("{}: {e}", self.addr))
    }

    /// The daemon's own peak RSS so far (`VmHWM`).
    fn peak_rss(&self) -> Result<u64, String> {
        proc::vm_hwm_bytes(self.child.id()).map_err(|e| format!("daemon peak RSS: {e}"))
    }

    /// SIGKILL + reap.
    fn kill(&mut self) -> Result<proc::Reaped, String> {
        if self.reaped.is_none() {
            self.reaped = Some(proc::kill(&mut self.child).map_err(|e| e.to_string())?);
        }
        Ok(self.reaped.expect("set above"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.kill();
    }
}

/// Every (generation, checksum) pair a reply carried; one generation
/// must always carry the same checksum.
#[derive(Default)]
struct Identities(BTreeMap<u64, u64>);

impl Identities {
    fn see(&mut self, out: &mut Outcome, generation: u64, checksum: u64) {
        let first = *self.0.entry(generation).or_insert(checksum);
        if first != checksum {
            out.op(false, || {
                format!(
                    "generation {generation} carried checksums {first:016x} and {checksum:016x}"
                )
            });
        }
    }
}

/// The seeded query and update material, with the expected answers.
struct Plan {
    edges: Vec<(Edge, u32)>,
    /// (vertex, community edge count, community vertex count) at
    /// `COMMUNITY_K`.
    communities: Vec<(u32, u64, usize)>,
    /// Non-edges whose endpoints share no neighbour.
    updates: Vec<Edge>,
}

fn plan(index: &TrussIndex, seed: u64) -> Plan {
    let g: &CsrGraph = index.graph();
    let mut rng = Rng::new(seed);
    let edges = (0..4096)
        .map(|_| {
            let id = rng.below(g.num_edges()) as u32;
            (g.edges()[id as usize], index.truss_of_edge(id))
        })
        .collect();
    let deep: Vec<u32> = (0..g.num_vertices() as u32)
        .filter(|&v| index.vertex_truss(v) >= COMMUNITY_K)
        .collect();
    let communities = (0..32)
        .map(|_| {
            let v = deep[rng.below(deep.len())];
            let c = index
                .community_of(v, COMMUNITY_K)
                .expect("v is in a k-truss");
            (v, c.edges.len() as u64, c.vertices.len())
        })
        .collect();
    let n = g.num_vertices();
    let mut updates = Vec::new();
    while updates.len() < UPDATES {
        let (a, b) = (rng.below(n) as u32, rng.below(n) as u32);
        if a == b || g.has_edge(a, b) || shares_neighbour(g.neighbors(a), g.neighbors(b)) {
            continue;
        }
        let e = Edge::new(a, b);
        if !updates.contains(&e) {
            updates.push(e);
        }
    }
    Plan {
        edges,
        communities,
        updates,
    }
}

fn shares_neighbour(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// Update `i` of a run: even `i` inserts edge `i/2`, odd `i` removes it.
fn update_delta(plan: &Plan, i: usize) -> EdgeDelta {
    let e = plan.updates[(i / 2) % plan.updates.len()];
    if i.is_multiple_of(2) {
        EdgeDelta::inserting([e])
    } else {
        EdgeDelta::removing([e])
    }
}

/// Checks an update ack: the summary matches the delta and the
/// generation is the next one.
fn check_ack(out: &mut Outcome, reply: &Reply, i: usize, expected_gen: u64) -> bool {
    let body_ok = match &reply.body {
        Ok(Response::Update(s)) => {
            (s.inserted, s.removed, s.skipped)
                == if i.is_multiple_of(2) {
                    (1, 0, 0)
                } else {
                    (0, 1, 0)
                }
        }
        _ => false,
    };
    out.op(body_ok && reply.generation == expected_gen, || {
        format!(
            "update {i}: expected generation {expected_gen}, got {} {:?}",
            reply.generation, reply.body
        )
    })
}

/// Length of the windows a read phase is cut into: a latency tail or a
/// throughput is taken per window and the median over windows reported,
/// so one stalled burst moves one window, not the run's figure.
const WINDOW: Duration = Duration::from_millis(500);

/// One window of the read loop. Only its `edge` reads are kept: a
/// `community-of` is counted in its own series, and its time is taken
/// out of the window's.
#[derive(Default)]
struct Window {
    edge_us: Series,
    /// Wall time of the window less its `community-of` requests.
    edge_secs: f64,
    community_secs: f64,
}

/// Per-phase results of the closed read loop.
#[derive(Default)]
struct Reads {
    /// Full windows; the last, partial one is dropped.
    windows: Vec<Window>,
    /// Every `community-of` of the phase: too rare to window.
    community_us: Series,
    completed: u64,
    wrong: Vec<String>,
    identities: Vec<(u64, u64)>,
}

/// The closed read loop: one request in flight on one connection while
/// `running()`.
fn read_loop(
    addr: &str,
    plan: &Plan,
    seed: u64,
    running: &dyn Fn() -> bool,
) -> Result<Reads, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    let mut rng = Rng::new(seed ^ 0x5eed);
    let mut r = Reads::default();
    let mut last = (u64::MAX, 0);
    let mut last_gen = 0;
    let mut window = Window::default();
    let mut window_start = Instant::now();
    while running() {
        let community = rng.below(COMMUNITY_EVERY) == 0;
        let (req, expect) = if community {
            let (v, edges, vertices) = plan.communities[rng.below(plan.communities.len())];
            (
                Request::CommunityOf { v, k: COMMUNITY_K },
                (edges, vertices),
            )
        } else {
            let (e, t) = plan.edges[rng.below(plan.edges.len())];
            (Request::Edge { u: e.u, v: e.v }, (u64::from(t), 0))
        };
        let t0 = Instant::now();
        let reply = client.request(&req).map_err(|e| format!("read: {e}"))?;
        let us = t0.elapsed().as_secs_f64() * 1e6;
        let ok = match (&reply.body, community) {
            (Ok(Response::Edge { trussness }), false) => u64::from(*trussness) == expect.0,
            (Ok(Response::CommunityOf { community: c, .. }), true) => {
                c.k == COMMUNITY_K && (c.num_edges, c.vertices.len()) == expect
            }
            _ => false,
        };
        if !ok || reply.generation < last_gen {
            r.wrong.push(format!(
                "{req:?} -> generation {} {:?}",
                reply.generation, reply.body
            ));
        }
        last_gen = reply.generation;
        if (reply.generation, reply.checksum) != last {
            last = (reply.generation, reply.checksum);
            r.identities.push(last);
        }
        if community {
            r.community_us.push(us);
            window.community_secs += us / 1e6;
        } else {
            window.edge_us.push(us);
        }
        r.completed += 1;
        let elapsed = window_start.elapsed();
        if elapsed >= WINDOW {
            window.edge_secs = elapsed.as_secs_f64() - window.community_secs;
            r.windows.push(std::mem::take(&mut window));
            window_start = Instant::now();
        }
    }
    Ok(r)
}

/// Notes the median over `series` (windows, or read halves) of each
/// one's `p`-th percentile. Series whose percentile is unknown are left
/// out; a run where that is most of them has failed.
fn windowed_percentile(out: &mut Outcome, name: &str, series: &[&Series], p: f64) {
    let known: Vec<f64> = series
        .iter()
        .filter_map(|s| s.percentile(p).value)
        .collect();
    let samples: usize = series.iter().map(|s| s.len()).sum();
    out.note(&format!("samples.{name}"), samples);
    out.note(
        &format!("windows.{name}"),
        format!("{} of {}", known.len(), series.len()),
    );
    if out.op(2 * known.len() > series.len(), || {
        format!(
            "{name}: p{p} known in {} of {} windows",
            known.len(),
            series.len()
        )
    }) {
        out.median_metric(name, &known, "us");
    }
}

/// The `edge` series of every window of `reads`.
fn edge_windows<'a>(reads: &[&'a Reads]) -> Vec<&'a Series> {
    reads
        .iter()
        .flat_map(|r| r.windows.iter().map(|w| &w.edge_us))
        .collect()
}

fn account_reads(out: &mut Outcome, ids: &mut Identities, r: &Reads) {
    out.attempted += r.completed - r.wrong.len() as u64;
    for w in &r.wrong {
        out.op(false, || format!("wrong read: {w}"));
    }
    for &(g, c) in &r.identities {
        ids.see(out, g, c);
    }
}

/// Open-loop updates on one connection: update `i` is due at
/// `start + i / rate`, sent then however many acks are outstanding, and
/// its latency runs from the due time to the ack. Returns (ack ms, send
/// lateness ms).
fn update_loop(
    out: &mut Outcome,
    ids: &mut Identities,
    addr: &str,
    plan: &Plan,
    first_gen: u64,
    updates: usize,
) -> Result<(Series, Series), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.set_nonblocking(true).map_err(|e| e.to_string())?;
    let (mut acks, mut lateness) = (Series::new(), Series::new());
    let start = Instant::now();
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / UPDATE_RATE_PER_S);
    let (mut sent, mut acked) = (0usize, 0usize);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let deadline = due(updates) + Duration::from_secs(60);
    while acked < updates {
        let now = Instant::now();
        if now > deadline {
            return Err(format!("only {acked} of {updates} updates acked in time"));
        }
        if sent < updates && now >= due(sent) {
            lateness.push((now - due(sent)).as_secs_f64() * 1e3);
            let req = Request::Update {
                base_generation: GENERATION_ANY,
                delta: update_delta(plan, sent),
            };
            write_frame(&mut stream, &encode_request(&req))
                .map_err(|e| format!("update send: {e}"))?;
            sent += 1;
            continue;
        }
        // Non-blocking reads and short sleeps: socket receive timeouts
        // have scheduler-tick granularity, which would make the
        // generator milliseconds late.
        match stream.read(&mut chunk) {
            Ok(0) => return Err("daemon closed the update connection".into()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                std::thread::sleep(Duration::from_micros(100));
                continue;
            }
            Err(e) => return Err(format!("update read: {e}")),
        }
        let got = Instant::now();
        while buf.len() >= 4 {
            let len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
            if len > MAX_RESPONSE_FRAME {
                return Err(format!("oversized reply frame {len}"));
            }
            if buf.len() < 4 + len {
                break;
            }
            let reply = decode_reply(&buf[4..4 + len]).map_err(|e| format!("bad reply: {e:?}"))?;
            buf.drain(..4 + len);
            acks.push((got - due(acked)).as_secs_f64() * 1e3);
            check_ack(out, &reply, acked, first_gen + acked as u64 + 1);
            ids.see(out, reply.generation, reply.checksum);
            acked += 1;
        }
    }
    Ok((acks, lateness))
}

fn status(
    client: &mut Client,
) -> Result<(Reply, truss_decomposition::serve::proto::StatusSummary), String> {
    let reply = client
        .request(&Request::Status)
        .map_err(|e| format!("status: {e}"))?;
    match &reply.body {
        Ok(Response::Status(s)) => Ok((reply.clone(), *s)),
        other => Err(format!("status: {other:?}")),
    }
}

/// Copies `from` to `to` and makes the copy durable, so its write-back
/// does not land in a measured phase.
fn copy_synced(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::copy(from, to).map_err(|e| e.to_string())?;
    File::open(to)
        .and_then(|f| f.sync_all())
        .map_err(|e| format!("{}: {e}", to.display()))
}

struct Setup {
    base: PathBuf,
    index: TrussIndex,
    daemon: Daemon,
}

/// Generates the SNAP input, builds the v2 index with the CLI and
/// brings a daemon up over a copy of it, until its first status reply.
fn setup(ctx: &Ctx, out: &mut Outcome) -> Result<Setup, String> {
    let (snap, base, tix, log) = (
        ctx.path("lj.snap"),
        ctx.path("base.tix"),
        ctx.path("serve.tix"),
        ctx.path("serve.log"),
    );
    let threads = ctx.nproc.to_string();
    let (daemon, input) = crate::setup_phase(ctx, out, SETUP_REPS, || {
        let input = inputs::generate("lj", 1.0, ctx.seed, Format::Snap, &snap)?;
        let args = [
            "index",
            "build",
            "--threads",
            &threads,
            "--out",
            path(&base)?,
            path(&snap)?,
        ];
        let reaped = ctx.run_truss(&args, &ctx.path("build.out"), &ctx.path("build.err"))?;
        if !reaped.success() {
            return Err(format!("index build: {:?}", reaped.exit));
        }
        copy_synced(&base, &tix)?;
        let _ = std::fs::remove_file(&log);
        let daemon = Daemon::spawn(ctx, &tix, &log, &ctx.path("serve.err"))?;
        status(&mut daemon.client()?)?;
        Ok((daemon, input))
    })?;
    crate::note_input(out, "input", &input);
    let (index, _) = TrussIndex::load_with(&base, LoadMode::Auto).map_err(|e| e.to_string())?;
    out.note("page_cache", "warm: the index was just built and copied");
    out.note("serve.readers", READERS);
    out.note(
        "serve.flush_policy",
        "fsync per group commit, before the ack",
    );
    out.note("serve.compact_bytes", COMPACT_BYTES);
    out.note("serve.update_rate_per_s", UPDATE_RATE_PER_S);
    out.note("serve.community_k", COMMUNITY_K);
    out.note("serve.community_every", COMMUNITY_EVERY);
    out.note(
        "serve.client",
        "one process: a closed read loop and an open update loop",
    );
    Ok(Setup {
        base,
        index,
        daemon,
    })
}

/// Runs the mixed phase: the read loop on a scoped thread beside the
/// update loop on this one. It lasts `ctx.seconds`, and at least
/// `UPDATES` acks.
fn mixed(
    ctx: &Ctx,
    out: &mut Outcome,
    ids: &mut Identities,
    daemon: &Daemon,
    plan: &Plan,
) -> Result<(Reads, Series, Series), String> {
    let updates = ((ctx.seconds * UPDATE_RATE_PER_S) as usize).max(UPDATES);
    out.note("mixed.updates", updates);
    let (first, _) = status(&mut daemon.client()?)?;
    ids.see(out, first.generation, first.checksum);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            read_loop(&daemon.addr, plan, ctx.seed ^ 0x313, &|| {
                !done.load(Ordering::SeqCst)
            })
        });
        let acked = update_loop(out, ids, &daemon.addr, plan, first.generation, updates);
        done.store(true, Ordering::SeqCst);
        let reads = reader.join().expect("read loop panicked")?;
        let (acks, lateness) = acked?;
        Ok((reads, acks, lateness))
    })
}

pub fn measure(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let mut s = setup(ctx, out)?;
    let plan = plan(&s.index, ctx.seed);
    let mut ids = Identities::default();
    let (reads, acks, lateness) = mixed(ctx, out, &mut ids, &s.daemon, &plan)?;
    account_reads(out, &mut ids, &reads);
    out.note("mixed.reads", reads.completed);
    out.note("mixed.max_lateness_ms", lateness.max().unwrap_or(0.0));
    out.percentile_metric("latency_ms", &acks, 50.0, "ms");
    let (_, st) = status(&mut s.daemon.client()?)?;
    out.note("mixed.wal_fsyncs", st.wal_fsyncs);
    out.note("mixed.group_commit_batches", st.group_commit_batches);
    out.note("mixed.compactions", st.compactions);
    out.op(st.compactions >= 2, || {
        format!("mixed phase compacted {} time(s)", st.compactions)
    });
    let rss = s.daemon.peak_rss()?;
    out.metric("peak_rss_bytes", rss as f64, "bytes");
    s.daemon.kill()?;
    Ok(())
}

/// Fresh daemon + log, `RECOVERY_RECORDS` acked updates, SIGKILL,
/// restart; returns seconds from the restart's spawn to a status reply
/// carrying the last acked identity.
fn recover_once(
    ctx: &Ctx,
    out: &mut Outcome,
    base: &Path,
    plan: &Plan,
    rep: usize,
) -> Result<Option<f64>, String> {
    let (tix, log, err) = (
        ctx.path("rec.tix"),
        ctx.path("rec.log"),
        ctx.path("rec.err"),
    );
    copy_synced(base, &tix)?;
    let _ = std::fs::remove_file(&log);
    let mut daemon = Daemon::spawn(ctx, &tix, &log, &err)?;
    let mut client = daemon.client()?;
    let (first, _) = status(&mut client)?;
    let mut last = (first.generation, first.checksum);
    for i in 0..RECOVERY_RECORDS {
        let req = Request::Update {
            base_generation: GENERATION_ANY,
            delta: update_delta(plan, 2 * rep + i),
        };
        let reply = client.request(&req).map_err(|e| format!("update: {e}"))?;
        if check_ack(out, &reply, 2 * rep + i, last.0 + 1) {
            last = (reply.generation, reply.checksum);
        }
    }
    drop(client);
    daemon.kill()?;
    let restarted = Daemon::spawn(ctx, &tix, &log, &err)?;
    let (reply, _) = status(&mut restarted.client()?)?;
    let secs = restarted.spawned.elapsed().as_secs_f64();
    let ok = out.op((reply.generation, reply.checksum) == last, || {
        format!(
            "recovered to {} {:016x}, last ack was {} {:016x}",
            reply.generation, reply.checksum, last.0, last.1
        )
    });
    Ok(ok.then_some(secs))
}

pub fn trace(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let mut s = setup(ctx, out)?;
    let plan = plan(&s.index, ctx.seed);
    let mut ids = Identities::default();

    // The live phases, for the figures that are not end-to-end metrics
    // (the read path's, the ack tail's and recovery's), the daemon's own
    // counters and the generator's lateness.
    let read_secs = (ctx.seconds * 0.4).max(2.0);
    out.note("phase.read_s", read_secs);
    let until = Instant::now() + Duration::from_secs_f64(read_secs);
    let reads = read_loop(&s.daemon.addr, &plan, ctx.seed, &|| Instant::now() < until)?;
    account_reads(out, &mut ids, &reads);
    let windows = edge_windows(&[&reads]);
    windowed_percentile(out, "serve.edge_p50_us", &windows, 50.0);
    windowed_percentile(out, "serve.edge_p99_us", &windows, 99.0);
    windowed_percentile(out, "serve.community_p50_us", &[&reads.community_us], 50.0);
    // `edge` reads only, over the time they had: the rare `community-of`
    // neither counts nor costs, so the mix ratio cannot move this figure.
    let rates: Vec<f64> = reads
        .windows
        .iter()
        .map(|w| w.edge_us.len() as f64 / w.edge_secs)
        .collect();
    out.median_metric("serve.reads_per_s", &rates, "1/s");
    let (mixed_reads, acks, lateness) = mixed(ctx, out, &mut ids, &s.daemon, &plan)?;
    account_reads(out, &mut ids, &mixed_reads);
    let mixed_windows = edge_windows(&[&mixed_reads]);
    windowed_percentile(out, "serve.mixed_edge_p99_us", &mixed_windows, 99.0);
    out.percentile_metric("serve.ack_p90_ms", &acks, 90.0, "ms");
    let (_, st) = status(&mut s.daemon.client()?)?;
    s.daemon.kill()?;
    let mut times = Vec::new();
    for rep in 0..RECOVERY_REPS {
        if let Some(t) = recover_once(ctx, out, &s.base, &plan, rep)? {
            times.push(t);
        }
    }
    out.note("recover.log_records", RECOVERY_RECORDS);
    out.median_metric("serve.recovery_s", &times, "s");
    out.metric("serve.wal_fsyncs", st.wal_fsyncs as f64, "count");
    out.metric(
        "serve.group_commit_batches",
        st.group_commit_batches as f64,
        "count",
    );
    out.metric("serve.compactions", st.compactions as f64, "count");
    out.percentile_metric("serve.gen_lateness_ms", &lateness, 50.0, "ms");

    let mut t = Tracer::new(true);
    let index = &s.index;

    // Read path, in process: proto round trip around `answer`.
    let read_op = |t: &mut Tracer, rng: &mut Rng, community: bool| -> Result<bool, String> {
        let (req, expect) = if community {
            let (v, edges, vertices) = plan.communities[rng.below(plan.communities.len())];
            (
                Request::CommunityOf { v, k: COMMUNITY_K },
                (edges, vertices),
            )
        } else {
            let (e, truss) = plan.edges[rng.below(plan.edges.len())];
            (Request::Edge { u: e.u, v: e.v }, (u64::from(truss), 0))
        };
        t.span("serve.read_op", |t| {
            let decoded = t.span("serve.proto_request", |_| {
                decode_request(&encode_request(&req))
            });
            let decoded = decoded.map_err(|e| format!("{e:?}"))?;
            let name = if community {
                "serve.answer_community"
            } else {
                "serve.answer_edge"
            };
            let body = t.span(name, |_| answer(index, &decoded));
            let reply = Reply {
                generation: 0,
                checksum: 0,
                body,
            };
            let back = t.span("serve.proto_reply", |_| decode_reply(&encode_reply(&reply)));
            Ok(match back.map_err(|e| format!("{e:?}"))?.body {
                Ok(Response::Edge { trussness }) => u64::from(trussness) == expect.0,
                Ok(Response::CommunityOf { community: c, .. }) => {
                    (c.num_edges, c.vertices.len()) == expect
                }
                _ => false,
            })
        })
    };
    let mut untraced = Tracer::new(false);
    let (mut traced_walls, mut untraced_walls) = (Vec::new(), Vec::new());
    for pass in 0..6 {
        // The arms swap order every pass, so neither always runs warm.
        for traced in [pass % 2 == 1, pass % 2 == 0] {
            let (tracer, walls) = if traced {
                (&mut t, &mut traced_walls)
            } else {
                (&mut untraced, &mut untraced_walls)
            };
            let mut rng = Rng::new(ctx.seed);
            let t0 = Instant::now();
            let mut right = 0;
            for _ in 0..2000 {
                right += usize::from(read_op(tracer, &mut rng, false)?);
            }
            walls.push(t0.elapsed().as_secs_f64());
            out.op(right == 2000, || {
                format!("{} of 2000 in-process edge reads wrong", 2000 - right)
            });
        }
        // `community-of` apart: at milliseconds each, a few would
        // outweigh the 2000 edge reads of an overhead arm.
        let mut rng = Rng::new(ctx.seed ^ pass);
        for _ in 0..3 {
            out.op(read_op(&mut t, &mut rng, true)?, || {
                "in-process community-of wrong".into()
            });
        }
    }

    // Write path, in process: what the writer does per ack.
    let wal_path = ctx.path("trace.log");
    let base_checksum = snapshot_checksum(&s.base).map_err(|e| e.to_string())?;
    let mut wal = WalWriter::create(&wal_path, 0, base_checksum).map_err(|e| e.to_string())?;
    let mut cur = s.index.clone();
    for i in 0..10 {
        let delta = update_delta(&plan, i);
        cur = t.span("serve.ack_op", |t| -> Result<TrussIndex, String> {
            t.span("storage.wal_append", |_| wal.append_delta(&delta))
                .map_err(|e| e.to_string())?;
            let mut next = t.span("core.update_clone", |_| cur.clone());
            t.span("core.update_apply", |_| next.apply(&delta));
            t.span("serve.checksum", |_| index_checksum(&next))
                .map_err(|e| e.to_string())?;
            t.span("storage.wal_fsync", |_| wal.sync())
                .map_err(|e| e.to_string())?;
            Ok(next)
        })?;
    }

    // Compaction, as the daemon's writer does it.
    let snap_path = ctx.path("trace.tix");
    for _ in 0..3 {
        let tmp = ctx.path("trace.tix.tmp");
        t.span("storage.compaction", |_| {
            compact(&cur, 10, &mut wal, &snap_path, &tmp)
        })?;
    }

    // Recovery, as the daemon's start-up does it.
    let (rec_tix, rec_log) = (ctx.path("trace-rec.tix"), ctx.path("trace-rec.log"));
    std::fs::copy(&s.base, &rec_tix).map_err(|e| e.to_string())?;
    let mut w = WalWriter::create(&rec_log, 0, base_checksum).map_err(|e| e.to_string())?;
    for i in 0..RECOVERY_RECORDS {
        w.append_delta(&update_delta(&plan, i))
            .map_err(|e| e.to_string())?;
    }
    w.sync().map_err(|e| e.to_string())?;
    drop(w);
    for _ in 0..3 {
        t.span("serve.recover_op", |t| -> Result<(), String> {
            let (mut index, disk) = t.span("storage.index_open", |_| -> Result<_, String> {
                let (index, _) =
                    TrussIndex::load_with(&rec_tix, LoadMode::Auto).map_err(|e| e.to_string())?;
                Ok((
                    index,
                    snapshot_checksum(&rec_tix).map_err(|e| e.to_string())?,
                ))
            })?;
            let plan = t.span("storage.recovery_scan", |_| -> Result<_, String> {
                let scan = scan_wal(&rec_log).map_err(|e| e.to_string())?;
                plan_recovery(&scan, disk).map_err(|e| e.to_string())
            })?;
            t.span("core.replay", |_| {
                for (_, delta) in &plan.replay {
                    index.apply(delta);
                }
                index_checksum(&index).map_err(|e| e.to_string())
            })?;
            out.op(plan.replay.len() == RECOVERY_RECORDS, || {
                "replay count".into()
            });
            Ok(())
        })?;
    }

    let us = |name: &str| -> Vec<f64> { t.durations(name).iter().map(|s| s * 1e6).collect() };
    let ms = |name: &str| -> Vec<f64> { t.durations(name).iter().map(|s| s * 1e3).collect() };
    out.median_metric("serve.answer_edge_us", &us("serve.answer_edge"), "us");
    out.median_metric(
        "serve.answer_community_us",
        &us("serve.answer_community"),
        "us",
    );
    let proto: Vec<f64> = us("serve.proto_request")
        .iter()
        .zip(us("serve.proto_reply"))
        .map(|(a, b)| a + b)
        .collect();
    out.median_metric("serve.proto_us", &proto, "us");
    out.median_metric("core.update_clone_ms", &ms("core.update_clone"), "ms");
    out.median_metric("core.update_apply_ms", &ms("core.update_apply"), "ms");
    out.median_metric("serve.checksum_ms", &ms("serve.checksum"), "ms");
    out.median_metric("storage.wal_append_us", &us("storage.wal_append"), "us");
    out.median_metric("storage.wal_fsync_us", &us("storage.wal_fsync"), "us");
    out.median_metric("storage.compaction_ms", &ms("storage.compaction"), "ms");
    out.median_metric(
        "storage.recovery_scan_ms",
        &ms("storage.recovery_scan"),
        "ms",
    );
    out.median_metric("storage.index_open_ms", &ms("storage.index_open"), "ms");
    out.median_metric("core.replay_ms", &ms("core.replay"), "ms");
    out.metric(
        "serve.coverage",
        t.coverage(&["serve.read_op", "serve.ack_op", "serve.recover_op"]),
        "ratio",
    );
    crate::overhead_metric(out, "serve", &traced_walls, &untraced_walls);
    crate::write_trace(ctx, &t, "serve")
}

/// The writer's compaction sequence: snapshot to a temp file + fsync,
/// intent record + fsync, rename, directory fsync, log reset.
fn compact(
    index: &TrussIndex,
    generation: u64,
    wal: &mut WalWriter,
    path: &Path,
    tmp: &Path,
) -> Result<(), String> {
    let e = |e: &dyn std::fmt::Display| e.to_string();
    let mut w = std::io::BufWriter::new(File::create(tmp).map_err(|x| e(&x))?);
    let checksum = index.write_snapshot(&mut w).map_err(|x| e(&x))?;
    let file = w.into_inner().map_err(|x| e(&x))?;
    file.sync_all().map_err(|x| e(&x))?;
    wal.append_compact(generation, checksum)
        .map_err(|x| e(&x))?;
    wal.sync().map_err(|x| e(&x))?;
    std::fs::rename(tmp, path).map_err(|x| e(&x))?;
    fsync_dir(path.parent().unwrap_or(Path::new("."))).map_err(|x| e(&x))?;
    wal.reset(generation, checksum).map_err(|x| e(&x))
}
