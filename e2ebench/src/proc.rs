//! Child processes measured from outside: wall time from spawn to reap,
//! exit status, and the kernel's `ru_maxrss` for exactly that child,
//! read with `wait4(2)` through a direct `extern "C"` declaration (the
//! workspace's no-libc idiom, as in `truss_storage::mmap`).
//!
//! A child's `ru_maxrss` is at least the peak RSS of the address space
//! it was spawned from: `execve` carries the old address space's
//! high-water mark into the process's maximum. Measured children are
//! therefore spawned by a [`Launcher`], a copy of this binary started
//! before the benchmark allocates anything, which stays a few MB.

use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    Code(i32),
    Signal(i32),
}

/// What the kernel reported for one reaped child.
#[derive(Debug, Clone, Copy)]
pub struct Reaped {
    pub exit: Exit,
    /// Peak resident set of the child alone, in bytes.
    pub max_rss_bytes: u64,
    /// From [`Command::spawn`] (or the given start) to the reap.
    pub wall: Duration,
}

impl Reaped {
    pub fn success(&self) -> bool {
        self.exit == Exit::Code(0)
    }
}

/// Blocks until `child` exits and reaps it with `wait4`. The `Child`
/// handle must not be waited on afterwards.
pub fn reap(child: &Child, started: Instant) -> io::Result<Reaped> {
    let pid = i32::try_from(child.id()).map_err(io::Error::other)?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are valid, exclusively borrowed
        // out-parameters of the layout `wait4` writes (`int` and the
        // 64-bit Linux `struct rusage`), alive for the whole call.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall = started.elapsed();
    let exit = if status & 0x7f == 0 {
        Exit::Code((status >> 8) & 0xff)
    } else {
        Exit::Signal(status & 0x7f)
    };
    Ok(Reaped {
        exit,
        max_rss_bytes: u64::try_from(usage.ru_maxrss).unwrap_or(0) * 1024,
        wall,
    })
}

/// Spawns `cmd`, waits for it and returns the kernel's account of it.
pub fn run(cmd: &mut Command) -> io::Result<Reaped> {
    let started = Instant::now();
    let child = cmd.spawn()?;
    reap(&child, started)
}

/// SIGKILLs a child and reaps it.
pub fn kill(child: &mut Child) -> io::Result<Reaped> {
    let started = Instant::now();
    child.kill()?;
    reap(child, started)
}

/// The peak resident set of a live process's current image, in bytes:
/// `VmHWM` in `/proc/PID/status`. Unlike `ru_maxrss` it starts afresh at
/// `execve`, so it holds for a child spawned from a large process; read
/// it just before the child ends.
pub fn vm_hwm_bytes(pid: u32) -> io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| io::Error::other(format!("no VmHWM for pid {pid}")))
}

/// Requests go one per line: stdout path, stderr path, program and
/// arguments, tab-separated. Replies are `exit|signal N RSS WALL_NS` or
/// `error TEXT`, marked so stray output on the same stream is skipped.
const REPLY: &str = "e2ebench-launcher ";

/// A small process that spawns and reaps measured children.
pub struct Launcher {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Launcher {
    /// Starts `cmd`, which must run [`launcher_main`] (this binary with
    /// `--launcher`); its children inherit its environment.
    pub fn start(mut cmd: Command) -> io::Result<Launcher> {
        let mut child = cmd.stdin(Stdio::piped()).stdout(Stdio::piped()).spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Launcher {
            child,
            stdin,
            stdout,
        })
    }

    /// Runs `program args…` to completion with stdout and stderr sent to
    /// the given files.
    pub fn run(
        &mut self,
        program: &Path,
        args: &[&str],
        stdout: &Path,
        stderr: &Path,
    ) -> io::Result<Reaped> {
        let mut fields = vec![path_str(stdout)?, path_str(stderr)?, path_str(program)?];
        fields.extend_from_slice(args);
        if fields.iter().any(|f| f.contains(['\t', '\n'])) {
            return Err(io::Error::other(
                "launcher fields cannot hold tabs or newlines",
            ));
        }
        let stdin = self.stdin.as_mut().expect("stdin is open until drop");
        writeln!(stdin, "{}", fields.join("\t"))?;
        stdin.flush()?;
        let mut line = String::new();
        loop {
            line.clear();
            if self.stdout.read_line(&mut line)? == 0 {
                return Err(io::Error::other("launcher exited"));
            }
            if let Some(at) = line.find(REPLY) {
                return parse_reply(line[at + REPLY.len()..].trim_end());
            }
        }
    }
}

impl Drop for Launcher {
    fn drop(&mut self) {
        // EOF on its stdin ends the launcher's loop.
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}

fn path_str(p: &Path) -> io::Result<&str> {
    p.to_str().ok_or_else(|| io::Error::other("non-UTF-8 path"))
}

fn parse_reply(reply: &str) -> io::Result<Reaped> {
    let bad = || io::Error::other(format!("launcher: {reply}"));
    let f: Vec<&str> = reply.split(' ').collect();
    let num = |i: usize| f.get(i).and_then(|x| x.parse::<u64>().ok()).ok_or_else(bad);
    let exit = match f[0] {
        "exit" => Exit::Code(num(1)? as i32),
        "signal" => Exit::Signal(num(1)? as i32),
        _ => return Err(bad()),
    };
    Ok(Reaped {
        exit,
        max_rss_bytes: num(2)?,
        wall: Duration::from_nanos(num(3)?),
    })
}

/// The launcher's side: serves requests from stdin until EOF.
pub fn launcher_main() -> io::Result<()> {
    let stdin = io::stdin();
    let mut out = io::stdout();
    for line in stdin.lock().lines() {
        let line = line?;
        let f: Vec<&str> = line.split('\t').collect();
        let reply = if f.len() < 3 {
            Err(io::Error::other("short request"))
        } else {
            (|| {
                run(Command::new(f[2])
                    .args(&f[3..])
                    .stdin(Stdio::null())
                    .stdout(std::fs::File::create(f[0])?)
                    .stderr(std::fs::File::create(f[1])?))
            })()
        };
        match reply {
            Ok(r) => {
                let (kind, n) = match r.exit {
                    Exit::Code(c) => ("exit", c),
                    Exit::Signal(s) => ("signal", s),
                };
                writeln!(
                    out,
                    "{REPLY}{kind} {n} {} {}",
                    r.max_rss_bytes,
                    r.wall.as_nanos()
                )?;
            }
            Err(e) => writeln!(out, "{REPLY}error {e}")?,
        }
        out.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOUCH_ENV: &str = "E2EBENCH_TOUCH_MIB";

    /// Child half of `child_rss_counts_touched_memory`: when re-executed
    /// with `E2EBENCH_TOUCH_MIB` set, allocates and touches that much.
    #[test]
    fn touch_child() {
        if let Some(mib) = std::env::var(TOUCH_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            let mut buf = vec![0u8; mib << 20];
            for page in buf.chunks_mut(4096) {
                page[0] = 1;
            }
            std::hint::black_box(&buf);
        }
    }

    #[test]
    fn child_rss_counts_touched_memory() {
        const MIB: u64 = 48;
        let exe = std::env::current_exe().unwrap();
        let reaped = run(Command::new(exe)
            .args(["--exact", "proc::tests::touch_child", "--test-threads", "1"])
            .env(TOUCH_ENV, MIB.to_string())
            .stdout(std::process::Stdio::null()))
        .unwrap();
        assert!(reaped.success(), "{:?}", reaped.exit);
        assert!(
            reaped.max_rss_bytes >= MIB << 20,
            "child touched {MIB} MiB but ru_maxrss says {} bytes",
            reaped.max_rss_bytes
        );
        // The parent's own peak is not the child's: an idle child is small.
        let idle = run(&mut Command::new("true")).unwrap();
        assert!(idle.success());
        assert!(idle.max_rss_bytes < MIB << 20);
    }

    const LAUNCHER_ENV: &str = "E2EBENCH_TEST_LAUNCHER";

    /// Launcher half of `launcher_children_report_their_own_peak`.
    #[test]
    fn launcher_entry() {
        if std::env::var_os(LAUNCHER_ENV).is_some() {
            launcher_main().unwrap();
        }
    }

    #[test]
    fn launcher_children_report_their_own_peak() {
        const MIB: u64 = 48;
        let exe = std::env::current_exe().unwrap();
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--exact",
            "proc::tests::launcher_entry",
            "--test-threads",
            "1",
            "--nocapture",
        ])
        .env(LAUNCHER_ENV, "1")
        .env(TOUCH_ENV, MIB.to_string());
        let mut launcher = Launcher::start(cmd).unwrap();
        // Grow this process well past the child after the launcher started.
        let mut big = vec![0u8; (4 * MIB as usize) << 20];
        for page in big.chunks_mut(4096) {
            page[0] = 1;
        }
        std::hint::black_box(&big);
        let dir = std::env::temp_dir();
        let (o, e) = (
            dir.join(format!("e2eb-{}.out", std::process::id())),
            dir.join(format!("e2eb-{}.err", std::process::id())),
        );
        let args = ["--exact", "proc::tests::touch_child", "--test-threads", "1"];
        let r = launcher.run(&exe, &args, &o, &e).unwrap();
        assert!(r.success(), "{:?}", r.exit);
        assert!(r.max_rss_bytes >= MIB << 20, "{}", r.max_rss_bytes);
        assert!(
            r.max_rss_bytes < (3 * MIB) << 20,
            "parent's peak leaked in: {}",
            r.max_rss_bytes
        );
        let failed = launcher
            .run(Path::new("sh"), &["-c", "exit 4"], &o, &e)
            .unwrap();
        assert_eq!(failed.exit, Exit::Code(4));
        drop(launcher);
        let _ = (std::fs::remove_file(o), std::fs::remove_file(e));
    }

    #[test]
    fn vm_hwm_counts_this_process_touched_memory() {
        const MIB: u64 = 48;
        let mut buf = vec![0u8; (MIB as usize) << 20];
        for page in buf.chunks_mut(4096) {
            page[0] = 1;
        }
        std::hint::black_box(&buf);
        let hwm = vm_hwm_bytes(std::process::id()).unwrap();
        assert!(hwm >= MIB << 20, "touched {MIB} MiB, VmHWM {hwm}");
        assert!(vm_hwm_bytes(u32::MAX).is_err());
    }

    #[test]
    fn exit_codes_and_signals_are_decoded() {
        let r = run(Command::new("sh").args(["-c", "exit 3"])).unwrap();
        assert_eq!(r.exit, Exit::Code(3));
        let mut child = Command::new("sleep").arg("30").spawn().unwrap();
        assert_eq!(kill(&mut child).unwrap().exit, Exit::Signal(9));
    }
}
