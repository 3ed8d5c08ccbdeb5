//! The one benchmark of the HEAP reproduction.
//!
//! `--workload <name>` runs one workload and ends its standard output with
//! the JSON result line the driver reads. Without it, every workload runs
//! in a child process of its own (so peak memory and set-up time belong to
//! one workload each) and the results are printed as tables; `--trace 1`
//! adds a traced pass with the per-layer metrics and budget trees,
//! `--repeat N` compares whole sets against the bounds, and `--smoke`
//! checks the harness itself in seconds. See `benchmark/README.md`.

mod api;
mod layers;
mod procs;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use report::{END_TO_END, PER_LAYER, RUN_SECONDS};
use workloads::{RunOpts, WORKLOADS};

/// A single run is killed by its own watchdog after this long; the driver
/// allows 180 s.
const RUN_LIMIT: Duration = Duration::from_secs(160);

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    smoke: bool,
    print_benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        repeat: 1,
        smoke: false,
        print_benchmark_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: '{other}' (0|1)")),
                }
            }
            "--repeat" => {
                args.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--smoke" => args.smoke = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            "--help" | "-h" => {
                return Err(format!(
                    "usage: run.sh [--workload {}] [--seed N] [--seconds S] [--trace 0|1] \
                     [--repeat N] [--smoke]",
                    workloads::names().join("|")
                ))
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    if args.smoke {
        args.seconds = 2.0;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.print_benchmark_json {
        print!("{}", report::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let ok = match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    };
    // No `process::exit`: every guard has been dropped by now, so no node
    // child outlives this process.
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload in this process and prints its metrics, ending with
/// the result line. `Ok(false)` = ran, but an output check failed.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    procs::start_watchdog(RUN_LIMIT, 3);
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        repeat_setups: !(args.trace || args.smoke),
    };
    let mut out = workloads::run(name, opts)?;
    let fail_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    out.layers.insert("bench.fail_ratio", fail_ratio);
    out.layers.insert("bench.samples", out.samples as f64);
    out.layers
        .insert("bench.host_cores", api::available_threads() as f64);
    println!(
        "workload {name}: seed {}, {} s, trace {}, {} jobs attempted, {} failed, {} latency samples, simd {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.attempted,
        out.failed,
        out.samples,
        api::simd_active().name(),
    );
    for (metric, unit, value) in report::metrics(&out, args.trace) {
        println!("  {metric:<32} {value:>16.4} {unit}");
    }
    if !out.tree.is_empty() {
        println!("{}", out.tree);
    }
    for v in &out.violations {
        println!("  OUTPUT CHECK FAILED: {v}");
    }
    println!("{}", report::result_line(&out, args.trace));
    Ok(out.violations.is_empty() && out.failed == 0)
}

/// One child run of one workload; returns its result line.
fn child_run(name: &str, args: &Args, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    procs::die_with_parent(&mut cmd);
    // The child's own watchdog bounds its run time, so `output` returns.
    let output = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default().to_string();
    for line in lines {
        println!("{line}");
    }
    if last.starts_with("{\"correct\": ") {
        Ok(last)
    } else {
        Err(format!(
            "{name} ended with {} and no result line",
            output.status
        ))
    }
}

/// One run of every workload, each in a child of its own; the result
/// lines in [`WORKLOADS`] order.
fn run_set(args: &Args, trace: bool) -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    for (name, _) in WORKLOADS {
        lines.push(child_run(name, args, trace)?);
        println!();
    }
    Ok(lines)
}

/// Prints one row per metric, one column per workload.
fn print_table<'a>(metrics: impl Iterator<Item = (&'a str, &'a str)>, lines: &[String]) {
    print!("{:<32}", "metric");
    for (name, _) in WORKLOADS {
        print!(" {name:>20}");
    }
    println!();
    for (metric, unit) in metrics {
        print!("{:<32}", format!("{metric} [{unit}]"));
        for line in lines {
            let v = report::parse_metric(line, metric).unwrap_or(f64::NAN);
            print!(" {v:>20.4}");
        }
        println!();
    }
}

/// Runs every workload; `--repeat`, `--trace` and `--smoke` build on the
/// sets of result lines.
fn run_all(args: &Args) -> Result<bool, String> {
    let node_bin = procs::node_binary()?;
    let mut sets = Vec::new();
    for set in 0..args.repeat.max(1) {
        if args.repeat > 1 {
            println!("=== set {} of {} ===", set + 1, args.repeat);
        }
        sets.push(run_set(args, false)?);
    }
    println!(
        "end-to-end metrics (tracing off), set 1{}:",
        if args.smoke { ", SMOKE RUN" } else { "" }
    );
    print_table(END_TO_END.iter().map(|m| (m.name, m.unit)), &sets[0]);
    let mut within = true;
    for (k, set) in sets.iter().enumerate().skip(1) {
        println!(
            "\nset {} against set 1 (worsening as a share of set 1; bound):",
            k + 1
        );
        for (w, (name, _)) in WORKLOADS.iter().enumerate() {
            for m in &END_TO_END {
                let a = report::parse_metric(&sets[0][w], m.name).unwrap_or(f64::NAN);
                let b = report::parse_metric(&set[w], m.name).unwrap_or(f64::NAN);
                let worse = report::worsening(m, a, b);
                let over = !args.smoke && (worse.is_nan() || worse > m.bound);
                within &= !over;
                println!(
                    "  {name:<20} {:<16} {a:>14.4} -> {b:>14.4} {:>+8.2}%  (bound {:.0}%){}",
                    m.name,
                    worse * 100.0,
                    m.bound * 100.0,
                    if over { "  EXCEEDED" } else { "" }
                );
            }
        }
    }
    if args.trace {
        println!("\n=== traced pass: per-layer metrics and budget trees ===");
        let traced = run_set(args, true)?;
        print_table(PER_LAYER.iter().map(|m| (m.name, m.unit)), &traced);
        sets.push(traced);
    }
    let all_correct = sets
        .iter()
        .flatten()
        .all(|line| report::parse_correct(line));
    let strays = procs::processes_running(&node_bin);
    if !strays.is_empty() {
        println!("stray heap-node-serve processes left behind: {strays:?}");
        return Ok(false);
    }
    if !all_correct {
        println!("\nat least one output check failed");
    }
    if !within {
        println!("\nat least one metric moved by more than its bound between identical sets");
    }
    Ok(all_correct && within)
}
