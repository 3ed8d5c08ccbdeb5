//! Child processes and `/proc` accounting.
//!
//! Node children sit behind a guard that kills and reaps them when it is
//! dropped — on a normal return, an early error or an unwinding panic —
//! and the kernel kills them if the benchmark itself is killed
//! (`PR_SET_PDEATHSIG`), so no exit path leaves a `heap-node-serve` behind.

use std::io::{BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc, Mutex, OnceLock, Weak};
use std::time::Duration;

/// How long a spawned node may take to print its `LISTENING` line.
const READY_DEADLINE: Duration = Duration::from_secs(20);

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// Makes the kernel send the child `SIGKILL` when the thread that spawned
/// it dies. Children are only spawned from the main thread, which lives as
/// long as the process.
pub fn die_with_parent(cmd: &mut Command) {
    // SAFETY: the closure runs in the forked child before exec and makes
    // one async-signal-safe system call with constant arguments; it
    // touches no memory shared with the parent.
    unsafe {
        cmd.pre_exec(|| {
            if prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(())
        });
    }
}

type Shared = Arc<Mutex<Child>>;

/// Every live child, so the watchdog can kill them before it exits the
/// process (which runs no destructors).
fn registry() -> &'static Mutex<Vec<Weak<Mutex<Child>>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Weak<Mutex<Child>>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn kill_and_reap(child: &Shared) {
    let mut child = child
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let _ = child.kill();
    let _ = child.wait();
}

/// Kills and reaps every child still alive.
pub fn kill_all_children() {
    let live: Vec<Shared> = registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .filter_map(Weak::upgrade)
        .collect();
    for child in &live {
        kill_and_reap(child);
    }
}

/// Exits the whole process with `code` if it is still running after
/// `limit`: a hung node becomes a failed run, never a hung benchmark.
pub fn start_watchdog(limit: Duration, code: i32) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("benchmark: still running after {limit:?}, giving up");
        kill_all_children();
        std::process::exit(code);
    });
}

/// The `heap-node-serve` binary, built next to this one.
pub fn node_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = exe
        .parent()
        .ok_or("benchmark binary has no parent directory")?
        .join("heap-node-serve");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found: build it with benchmark/run.sh",
            path.display()
        ))
    }
}

/// One `heap-node-serve` child on an ephemeral loopback port.
pub struct NodeProc {
    child: Shared,
    pub pid: u32,
    pub addr: String,
}

impl NodeProc {
    /// Spawns a keyless Tiny node with one rotation thread and waits for
    /// its `LISTENING <addr>` line.
    pub fn spawn(extra_args: &[String]) -> Result<Self, String> {
        let bin = node_binary()?;
        let mut cmd = Command::new(&bin);
        cmd.args([
            "--addr",
            "127.0.0.1:0",
            "--preset",
            "tiny",
            "--threads",
            "1",
        ])
        .args(extra_args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
        die_with_parent(&mut cmd);
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let pid = child.id();
        let stdout = child.stdout.take().expect("stdout was piped");
        let child = Arc::new(Mutex::new(child));
        registry()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(Arc::downgrade(&child));
        // From here the guard owns the child: an error below drops it.
        let mut node = Self {
            child,
            pid,
            addr: String::new(),
        };
        let (tx, rx) = mpsc::channel();
        // The reader ends when the child closes its stdout, which it does
        // at the latest when the guard kills it.
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        loop {
            match rx.recv_timeout(READY_DEADLINE) {
                Ok(line) => {
                    if let Some(addr) = line.strip_prefix("LISTENING ") {
                        node.addr = addr.trim().to_string();
                        return Ok(node);
                    }
                }
                Err(_) => return Err(format!("node {pid} never printed LISTENING")),
            }
        }
    }
}

impl Drop for NodeProc {
    fn drop(&mut self) {
        kill_and_reap(&self.child);
    }
}

/// Pids of running processes whose executable is `bin`.
pub fn processes_running(bin: &Path) -> Vec<u32> {
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(Result::ok)
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            std::fs::read_link(format!("/proc/{pid}/exe")).is_ok_and(|exe| exe.as_path() == bin)
        })
        .collect()
}

/// Clock ticks per second of `/proc` CPU times (`getconf CLK_TCK`; Linux
/// reports 100 on every supported architecture, which is the fallback).
fn ticks_per_second() -> f64 {
    static TICKS: OnceLock<f64> = OnceLock::new();
    *TICKS.get_or_init(|| {
        Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse::<f64>().ok())
            .filter(|t| *t > 0.0)
            .unwrap_or(100.0)
    })
}

/// User + system CPU seconds consumed so far by `pid`, all threads
/// included (`/proc/<pid>/stat` fields 14 and 15).
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / ticks_per_second())
}

/// Peak resident set of `pid` in MiB (`VmHWM`).
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `(steal, total)` CPU ticks of the whole machine since boot.
pub fn machine_ticks() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<f64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user time.
    let total: f64 = fields.iter().take(8).sum();
    Some((*fields.get(7)?, total))
}

/// CPU, memory and steal accounting over the benchmark process and a set
/// of node children.
#[derive(Clone)]
pub struct Accounting {
    pids: Vec<u32>,
    cpu0: f64,
    ticks0: Option<(f64, f64)>,
}

impl Accounting {
    /// Starts accounting for this process plus `children`.
    pub fn start(children: &[u32]) -> Self {
        let mut pids = vec![std::process::id()];
        pids.extend_from_slice(children);
        let cpu0 = pids.iter().filter_map(|&p| cpu_seconds(p)).sum();
        Self {
            pids,
            cpu0,
            ticks0: machine_ticks(),
        }
    }

    /// CPU seconds used by all accounted processes since the start.
    pub fn cpu_seconds(&self) -> f64 {
        let now: f64 = self.pids.iter().filter_map(|&p| cpu_seconds(p)).sum();
        now - self.cpu0
    }

    /// Share of machine CPU time stolen by the hypervisor since the start.
    pub fn steal_ratio(&self) -> f64 {
        match (self.ticks0, machine_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) / (t1 - t0),
            _ => 0.0,
        }
    }

    /// Sum of the peak resident sets of all accounted processes, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.pids.iter().filter_map(|&p| peak_rss_mb(p)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_is_accounted() {
        let acct = Accounting::start(&[]);
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(acct.cpu_seconds() >= 0.0);
        assert!(acct.peak_rss_mb() > 0.5);
        assert!((0.0..=1.0).contains(&acct.steal_ratio()));
    }
}
