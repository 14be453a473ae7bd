//! The `laer` CLI rejects bad flag values with one `error:` line and
//! exit code 1 — never a panic (exit 101) deep inside the library — and
//! runs its serving and fault studies to success, deterministically.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::Command;

/// Runs `laer` with `args`, asserting exit 1 and a single `error:` line
/// on stderr, and returns that line.
fn rejects(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_laer"))
        .args(args)
        .output()
        .expect("spawn laer");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert_eq!(out.status.code(), Some(1), "laer {args:?}: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "laer {args:?}: {stderr}");
    assert!(lines[0].starts_with("error: "), "laer {args:?}: {stderr}");
    lines[0].to_string()
}

/// Runs `laer` with `args` twice, asserting exit 0 and the same stdout
/// both times, and returns that stdout.
fn succeeds(args: &[&str]) -> String {
    let run = || {
        let out = Command::new(env!("CARGO_BIN_EXE_laer"))
            .args(args)
            .output()
            .expect("spawn laer");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "laer {args:?}: {stderr}");
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    let first = run();
    assert_eq!(
        first,
        run(),
        "laer {args:?} must print the same bytes twice"
    );
    first
}

/// `laer serve` and `laer faults` print one table row per system.
#[test]
fn serve_and_faults_run_to_success() {
    for (args, systems) in [
        (
            &["serve", "--requests", "60"][..],
            &["static-ep", "replicate-hot", "laer"],
        ),
        (
            &["faults", "--fault", "failure", "--iters", "4"][..],
            &["Laer", "FsdpEp", "VanillaEp"],
        ),
    ] {
        let stdout = succeeds(args);
        for system in systems {
            let rows = stdout
                .lines()
                .filter(|line| line.split_whitespace().next() == Some(system))
                .count();
            assert_eq!(rows, 1, "laer {args:?}, {system}:\n{stdout}");
        }
    }
}

#[test]
fn plan_rejects_capacity_that_cannot_host_every_expert() {
    assert_eq!(
        rejects(&["plan", "--capacity", "0"]),
        "error: 8 survivors x capacity 0 cannot host 8 experts"
    );
    assert_eq!(
        rejects(&[
            "plan",
            "--devices",
            "4",
            "--experts",
            "64",
            "--capacity",
            "1"
        ]),
        "error: 4 survivors x capacity 1 cannot host 64 experts"
    );
}

/// A capacity above the expert count is rejected up front: a huge one
/// would plan `N · C` replicas without end.
#[test]
fn plan_rejects_capacity_above_expert_count() {
    assert_eq!(
        rejects(&["plan", "--capacity", "18446744073709551615"]),
        "error: --capacity 18446744073709551615 exceeds --experts 8"
    );
    assert_eq!(
        rejects(&["plan", "--experts", "4", "--capacity", "5"]),
        "error: --capacity 5 exceeds --experts 4"
    );
}

/// `laer obs` and `laer serve` check the cluster shape against every
/// system they will run before running any: a shape a system cannot run
/// is one `error:` line, not a panic deep in the run.
#[test]
fn obs_and_serve_reject_shapes_their_systems_cannot_run() {
    assert_eq!(
        rejects(&["obs", "--system", "megatron"]),
        "error: megatron fits device memory at no TP degree up to 8 on 2x8 = 16 devices"
    );
    assert_eq!(
        rejects(&["obs", "--devices", "3"]),
        "error: FSDP routes within EP groups of 4 devices, which 2x3 = 6 devices do not tile"
    );
    for system in ["FLEX", "smartmoe"] {
        assert_eq!(
            rejects(&["obs", "--nodes", "2", "--devices", "3", "--system", system]),
            format!(
                "error: {system} gives every expert the same replica count, \
                 which 2x3 = 6 devices x capacity 2 cannot split among 8 experts"
            )
        );
    }
    assert_eq!(
        rejects(&["obs", "--nodes", "1", "--devices", "1"]),
        "error: 1 survivors x capacity 2 cannot host 8 experts"
    );
    assert_eq!(
        rejects(&["serve", "--devices", "3"]),
        "error: 3 survivors x capacity 2 cannot host 8 experts"
    );
}

#[test]
fn zero_counts_are_rejected() {
    for (cmd, flag) in [
        ("plan", "--experts"),
        ("trace", "--devices"),
        ("trace", "--experts"),
        ("simulate", "--layers"),
        ("simulate", "--iters"),
        ("obs", "--layers"),
        ("obs", "--iters"),
        ("obs", "--nodes"),
        ("obs", "--devices"),
        ("serve", "--devices"),
        ("serve", "--nodes"),
        ("faults", "--iters"),
    ] {
        assert_eq!(
            rejects(&[cmd, flag, "0"]),
            format!("error: {flag} must be at least 1")
        );
    }
}

/// `laer replay` checks a trace against the model before running it:
/// a trace over another expert count, one whose matrix holds fewer
/// counts than its shape, and a file nested too deep to parse are each
/// one `error:` line.
#[test]
fn replay_rejects_a_trace_that_does_not_fit() {
    let dir = std::env::temp_dir().join(format!("laer-cli-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();

    let e16 = path("e16.json");
    let out = Command::new(env!("CARGO_BIN_EXE_laer"))
        .args([
            "trace",
            "--devices",
            "16",
            "--experts",
            "16",
            "--iters",
            "3",
        ])
        .args(["--out", &e16])
        .output()
        .expect("spawn laer");
    assert!(out.status.success(), "laer trace failed");
    assert_eq!(
        rejects(&["replay", "--model", "mixtral-8x7b-e8k2", "--in", &e16]),
        "error: trace routes to 16 experts but --model mixtral-8x7b-e8k2 has 8"
    );

    let short = path("short.json");
    let counts = vec!["1"; 16 * 16 - 1].join(",");
    let json = format!(
        r#"{{"meta":{{"description":"","seed":null}},"iterations":[{{"devices":16,"experts":16,"counts":[{counts}]}}]}}"#
    );
    std::fs::write(&short, json).unwrap();
    assert_eq!(
        rejects(&["replay", "--model", "mixtral-8x7b-e16k4", "--in", &short]),
        "error: trace iteration 0: routing data length 255, expected 256"
    );

    // Nesting far deeper than the stack would hold is a parse error,
    // not a stack overflow.
    let deep = path("deep.json");
    std::fs::write(&deep, format!(r#"{{"meta":{}"#, "[".repeat(300_000))).unwrap();
    let line = rejects(&["replay", "--in", &deep]);
    assert!(line.contains("recursion limit"), "{line}");
    std::fs::remove_dir_all(&dir).ok();
}
