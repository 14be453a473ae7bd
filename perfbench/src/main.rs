//! The LAER-MoE reproduction's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet-plan|train-paper|serve-chaos> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives the library from one thread through its public
//! entry points, as a closed loop, for `--seconds` seconds:
//!
//! * `fleet-plan` — `Planner::plan` + `refine_layout` + one simulated
//!   FSEP step per round on the `ext-scale` N1024 instance;
//! * `train-paper` — `run_experiment_diagnosed` at the Fig. 8 operating
//!   point, with the `ext-diagnose` exports;
//! * `serve-chaos` — `run_serving` of LAER under recurring faults, with
//!   the `record_observability` exports.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` runs the same ops untraced and then traced, checks that
//! both produce the same simulated outputs, and reports per-layer
//! metrics from host spans the benchmark records around its own calls
//! into each layer; the spans are written as a Chrome trace under
//! `perfbench/out/`. Every op's output is checked; the last line of
//! standard output is one JSON object with the run's verdict and
//! metrics, and the exit code is non-zero if any check failed.

mod fleet;
mod report;
mod serve;
mod tracer;
mod train;

use report::{result_line, MetricDef, Report, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Seed reserved for verifying later performance claims: do not tune
/// against it.
const HELD_OUT_SEED: u64 = 9001;

const USAGE: &str = "usage: laer-perfbench --workload <fleet-plan|train-paper|serve-chaos> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["fleet-plan", "train-paper", "serve-chaos"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// What a host-time row depends on: the machine and the code.
struct Env {
    parallelism: usize,
    cpu: String,
    commit: String,
    /// Names the code where no `.git` names the commit.
    source: String,
}

impl Env {
    fn detect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            parallelism: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu,
            commit: git_commit().unwrap_or_else(|| "unknown".to_string()),
            source: format!("fnv1a:{:016x}", source_digest()),
        }
    }
}

/// Digest of every file under `crates/`, `third_party/` and
/// `perfbench/src/`, by sorted relative path.
fn source_digest() -> u64 {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut dirs: Vec<PathBuf> = ["crates", "third_party", "perfbench/src"]
        .iter()
        .map(|d| root.join(d))
        .collect();
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut manifest = String::new();
    for f in &files {
        let digest = std::fs::read(f).map_or(0, |b| report::fnv(&b));
        let name = f.strip_prefix(&root).unwrap_or(f).display();
        let _ = writeln!(manifest, "{name} {digest:016x}");
    }
    report::fnv(manifest.as_bytes())
}

/// The checked-out commit, read from `.git` in the working directory (the
/// repository root the benchmark runs from) without running git.
fn git_commit() -> Option<String> {
    let git = Path::new(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// Runs `workload` (one of [`WORKLOADS`]) for `budget`.
fn run_workload(workload: &str, seed: u64, budget: Duration, trace: bool) -> Report {
    match workload {
        "fleet-plan" => fleet::run(seed, budget, trace),
        "train-paper" => train::run(seed, budget, trace),
        "serve-chaos" => serve::run(seed, budget, trace),
        other => unreachable!("parse_args accepts only known workloads, not {other}"),
    }
}

fn print_table(title: &str, table: &[MetricDef], report: &Report) {
    println!("{title}");
    for m in table {
        let value = match report.values.get(m.name) {
            Some(v) => format!("{v:.6}"),
            None => "-".to_string(),
        };
        let kind = if m.exact { "exact" } else { "host" };
        println!(
            "  {:<28} {:>18} {:<12} {:<6} {:<5} {}",
            m.name, value, m.unit, m.better, kind, m.about
        );
    }
}

/// Directory the traced run writes its artifacts to.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes the run's metrics, tagged with the environment, as JSON, and a
/// traced run's host spans as a Chrome trace.
fn write_artifacts(args: &Args, env: &Env, report: &Report) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let (table, kind) = if args.trace {
        (PER_LAYER, "per-layer")
    } else {
        (END_TO_END, "end-to-end")
    };
    let stem = format!("{}-seed{}", args.workload, args.seed);
    if let Some(tracer) = &report.spans {
        let path = dir.join(format!("{stem}.host-trace.json"));
        let file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tracer.write_chrome(file, &format!("perfbench {}", args.workload))?;
        println!("host spans: {}", path.display());
    }
    let mut json = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"available_parallelism\": {}, \
         \"cpu\": \"{}\", \"commit\": \"{}\", \"source\": \"{}\", \"result\": ",
        args.workload,
        args.seed,
        args.seconds,
        env.parallelism,
        env.cpu.replace(['"', '\\'], ""),
        env.commit,
        env.source
    );
    json.push_str(&result_line(report, table));
    json.push_str("}\n");
    let path = dir.join(format!("{stem}.{kind}.json"));
    std::fs::write(&path, json)?;
    println!("{kind} metrics: {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let env = Env::detect();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} (held-out seed: {HELD_OUT_SEED})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "env: available_parallelism={} cpu=\"{}\" commit={} source={}",
        env.parallelism, env.cpu, env.commit, env.source
    );

    let budget = Duration::from_secs(args.seconds);
    let mut report = run_workload(args.workload, args.seed, budget, args.trace);
    // Printed, not in BENCHMARK.json: on fleet-plan the peak depends on
    // whether the seed's demands make the planner pick a dense
    // (~300k-entry) routing, so it jumps between ~45 and ~75 MB by seed.
    report.note(format!(
        "peak_rss_mb = {:.3} MB (process VmHWM)",
        report::peak_rss_mb()
    ));

    for line in &report.notes {
        println!("{line}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    print_table(
        if args.trace {
            "per-layer metrics (traced run):"
        } else {
            "end-to-end metrics (tracing off):"
        },
        table,
        &report,
    );
    if let Err(e) = write_artifacts(&args, &env, &report) {
        eprintln!(
            "warning: cannot write artifacts under {}: {e}",
            out_dir().display()
        );
    }
    for e in &report.checks.errors {
        eprintln!("check failed: {e}");
    }
    println!(
        "checks: {} ops attempted, {} failed",
        report.checks.attempted, report.checks.failed
    );
    println!("{}", result_line(&report, table));
    if report.checks.failed == 0 && report.checks.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "serve-chaos",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("serve-chaos", 7, 12, true)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "fleet-plan", "--trace", "2"]).is_err());
        assert!(args(&["--seed", "3"]).is_err());
    }

    /// Two invocations with the same seed reproduce every work counter
    /// and simulated value exactly, and pass every output check. Slow in
    /// a debug build: run with `cargo test --release`.
    #[test]
    fn same_seed_reproduces_every_exact_metric() {
        for workload in WORKLOADS {
            let a = run_workload(workload, 11, Duration::ZERO, true);
            let b = run_workload(workload, 11, Duration::ZERO, true);
            for r in [&a, &b] {
                assert!(r.checks.attempted > 0, "{workload}: no ops");
                assert_eq!(r.checks.failed, 0, "{workload}: {:?}", r.checks.errors);
            }
            for m in END_TO_END.iter().chain(PER_LAYER).filter(|m| m.exact) {
                let bits = |r: &Report| r.values.get(m.name).map(|v| v.to_bits());
                assert_eq!(bits(&a), bits(&b), "{workload}: {} differs", m.name);
            }
        }
    }
}
