//! The `laer` CLI rejects bad flag values with one `error:` line and
//! exit code 1 — never a panic (exit 101) deep inside the library.

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
