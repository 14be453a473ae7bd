//! The parallel harness's core guarantee: a pooled run is byte-
//! identical to a serial run — same stdout, same JSON artifacts — for
//! any `--jobs` count. Exercised end to end through the `repro` binary
//! on the fully deterministic targets (`fig8` and `ext-obs`; targets
//! that report wall-clock values, like `fig11`, are inherently
//! non-reproducible even serially and are excluded by design).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs `repro` with the given args, directing artifacts to a fresh
/// directory, and returns (output, artifact dir).
fn repro(test: &str, jobs: usize, args: &[&str]) -> (Output, PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "laer-determinism-{}-{test}-jobs{jobs}",
        std::process::id()
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clean artifact dir");
    }
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .args(["--jobs", &jobs.to_string()])
        .env("LAER_REPRO_DIR", &dir)
        .output()
        .expect("spawn repro");
    (out, dir)
}

fn read(dir: &Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(name))
        .unwrap_or_else(|e| panic!("read {name} from {}: {e}", dir.display()))
}

/// Runs `repro <args>` at `--jobs 1` and at `--jobs {jobs}`, asserts
/// the same exit code, byte-identical stdout and byte-identical
/// `artifacts`, and returns the serial run's output.
fn assert_identical_across_jobs(
    test: &str,
    jobs: usize,
    args: &[&str],
    artifacts: &[&str],
) -> Output {
    let (serial, serial_dir) = repro(test, 1, args);
    let (pooled, pooled_dir) = repro(test, jobs, args);
    assert_eq!(
        serial.status.code(),
        pooled.status.code(),
        "{test}: exit code (gate verdict) must match across job counts"
    );
    assert_eq!(
        serial.stdout, pooled.stdout,
        "{test}: stdout must be byte-identical across job counts"
    );
    for artifact in artifacts {
        assert_eq!(
            read(&serial_dir, artifact),
            read(&pooled_dir, artifact),
            "{artifact} must be byte-identical across job counts"
        );
    }
    serial
}

/// `fig8 --quick` renders and saves identically at `--jobs 1` and
/// `--jobs 8`.
#[test]
fn fig8_is_byte_identical_across_job_counts() {
    let out = assert_identical_across_jobs("fig8", 8, &["fig8", "--quick"], &["fig8.json"]);
    assert!(out.status.success(), "fig8 failed");
}

/// The pooled `ext-pipeline` sweep reproduces its stdout and all three
/// artifacts — the sweep JSON, the per-chunk journal and the headline
/// Chrome trace — byte for byte at any job count.
#[test]
fn ext_pipeline_is_byte_identical_across_job_counts() {
    let artifacts = [
        "ext_pipeline.json",
        "ext_pipeline_journal.jsonl",
        "ext_pipeline_trace.json",
    ];
    let out = assert_identical_across_jobs("pipeline", 2, &["ext-pipeline"], &artifacts);
    assert!(out.status.success(), "ext-pipeline failed");
}

/// The pooled `ext-replay` sweep — RL rollout→train epochs under both
/// predictor modes — reproduces its stdout and all four artifacts (the
/// sweep JSON, the per-iteration/per-epoch journal, the per-cell
/// metrics export and the headline Chrome trace) byte for byte at any
/// job count.
#[test]
fn ext_replay_is_byte_identical_across_job_counts() {
    let artifacts = [
        "ext_replay.json",
        "ext_replay_journal.jsonl",
        "ext_replay_metrics.txt",
        "ext_replay_trace.json",
    ];
    let args = ["ext-replay", "--quick"];
    let out = assert_identical_across_jobs("replay", 2, &args, &artifacts);
    assert!(out.status.success(), "ext-replay failed");
}

/// The chaos sweep — fault injection, retries, brownout, elastic
/// recovery — reproduces its stdout and all five artifacts (the sweep
/// JSON, the replayable fault plans, the headline Chrome trace and the
/// resilience journal/metrics exports) byte for byte at any job count.
#[test]
fn ext_chaos_is_byte_identical_across_job_counts() {
    let artifacts = [
        "ext_chaos.json",
        "ext_chaos_plans.json",
        "ext_chaos_trace.json",
        "ext_chaos_metrics.txt",
        "ext_chaos_journal.jsonl",
    ];
    let args = ["ext-chaos", "--iters", "40"];
    let out = assert_identical_across_jobs("chaos", 2, &args, &artifacts);
    assert!(out.status.success(), "ext-chaos failed");
}

/// The diagnosis sweep — dependency-recorded training runs with
/// critical-path extraction, plus the chaos detector scoreboard —
/// reproduces its stdout and all four artifacts (the report JSON, the
/// flow-event Chrome trace and the headline journal/metrics exports)
/// byte for byte at any job count.
#[test]
fn ext_diagnose_is_byte_identical_across_job_counts() {
    let artifacts = [
        "ext_diagnose.json",
        "ext_diagnose_trace.json",
        "ext_diagnose_metrics.txt",
        "ext_diagnose_journal.jsonl",
    ];
    let args = ["ext-diagnose", "--quick", "--iters", "40"];
    let out = assert_identical_across_jobs("diagnose", 2, &args, &artifacts);
    assert!(out.status.success(), "ext-diagnose failed");
}

/// The pooled `ext-obs` run reproduces every artifact byte for byte
/// and reaches the same gate verdict as the serial run.
#[test]
fn ext_obs_is_byte_identical_across_job_counts() {
    let mut baseline = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    baseline.pop(); // crates/
    baseline.pop(); // repo root
    baseline.push("BENCH_obs.json");
    let baseline = baseline.to_str().expect("utf-8 path");
    let artifacts = [
        "ext_obs.json",
        "ext_obs_metrics.txt",
        "ext_obs_journal.jsonl",
    ];
    let args = ["ext-obs", "--baseline", baseline];
    assert_identical_across_jobs("obs", 8, &args, &artifacts);
}

/// `ext-scale --quick` passes at `--jobs 1` and `--jobs 2`, and its
/// `ext_scale.json` rows agree once the wall-clock fields are masked.
/// (The sweep's stdout and JSON carry wall-clock columns, so unlike the
/// targets above its bytes are not reproducible even serially.)
#[test]
fn ext_scale_rows_are_identical_across_job_counts() {
    use laer_bench::ext_scale::ScaleRow;
    let masked_rows = |jobs: usize| -> Vec<String> {
        let (out, dir) = repro("scale", jobs, &["ext-scale", "--quick"]);
        assert!(out.status.success(), "ext-scale --jobs {jobs} failed");
        let json = String::from_utf8(read(&dir, "ext_scale.json")).expect("utf-8 json");
        let rows: Vec<ScaleRow> = serde_json::from_str(&json).expect("ext_scale rows");
        assert!(!rows.is_empty(), "ext-scale wrote no rows");
        rows.into_iter()
            .map(|mut r| {
                r.plan_wall_ms = 0.0;
                r.delta_probes_per_sec = 0.0;
                r.scratch_probes_per_sec = r.scratch_probes_per_sec.map(|_| 0.0);
                r.probe_speedup = r.probe_speedup.map(|_| 0.0);
                serde_json::to_string(&r).expect("encode row")
            })
            .collect()
    };
    assert_eq!(masked_rows(1), masked_rows(2));
}
