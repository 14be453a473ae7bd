//! The `repro` command line: `help` lists every target, and malformed
//! flags are rejected with one `error:` line and exit code 2 before any
//! experiment cell runs.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Every target name and alias `repro` accepts.
const NAMES: &str = "tab2 eq1 fig1 fig1a fig1b fig2 fig8 fig9 fig10 fig10a fig10b fig11 fig12 \
    tab3 tab4 ext-refine ext-staleness ext-rack ext-overlap ext-pipeline ext-replay ext-faults \
    ext-serve ext-chaos ext-obs ext-diagnose ext-scale harness-bench";

/// A fresh scratch directory for one test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("laer-cli-{}-{test}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clean scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `repro` with artifacts directed into `dir`.
fn repro(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("LAER_REPRO_DIR", dir)
        .output()
        .expect("spawn repro")
}

/// Asserts a usage error: exit 2, nothing on stdout (no cell rendered)
/// and exactly one `error:` line on stderr.
fn assert_rejected(out: &Output, args: &[&str]) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: a cell ran");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "{args:?}: {stderr}");
    assert!(lines[0].starts_with("error: "), "{args:?}: {stderr}");
}

#[test]
fn help_lists_every_target() {
    let dir = scratch("help");
    let out = repro(&dir, &["help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let words: BTreeSet<&str> = stdout.split_whitespace().collect();
    for name in NAMES.split_whitespace() {
        assert!(
            words.contains(name),
            "`{name}` missing from help:\n{stdout}"
        );
    }

    let out = repro(&dir, &["bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: unknown target `bogus`"),
        "{stderr}"
    );
}

#[test]
fn malformed_flags_are_rejected_before_any_cell_runs() {
    let dir = scratch("flags");
    let cases: [&[&str]; 16] = [
        &["tab2", "--jobs", "abc"],
        &["tab2", "--jobs", "0"],
        &["tab2", "--jobs"],
        &["ext-serve", "--iters", "x"],
        &["ext-serve", "--iters", "0"],
        &["tab2", "--jbos", "2"],
        &["tab2", "--baseline"],
        &["ext-obs", "--baseline", "--jobs", "2"],
        &["ext-obs", "--tolerance", "abc"],
        &["ext-obs", "--tolerance", "0"],
        &["ext-obs", "--tolerance", "nan"],
        &["ext-obs", "--tolerance", "1.5"],
        &["ext-obs", "--tolerance", "-5"],
        &["ext-scale", "--tolerance", "0"],
        &["ext-scale", "--tolerance", "1.5"],
        &["all", "--quick", "--jobs", "-1"],
    ];
    for args in cases {
        assert_rejected(&repro(&dir, args), args);
    }
}

/// Only a `--full` sweep may rewrite `BENCH_planner.json`: a quick one
/// would truncate it to the N64/N256 rows.
#[test]
fn quick_ext_scale_refuses_to_rewrite_its_baseline() {
    let dir = scratch("baseline");
    let mut committed = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    committed.pop(); // crates/
    committed.pop(); // repo root
    committed.push("BENCH_planner.json");
    let before = std::fs::read(&committed).expect("read BENCH_planner.json");
    let copy = dir.join("BENCH_planner.json");
    std::fs::write(&copy, &before).expect("write baseline copy");
    let copy = copy.to_str().expect("utf-8 path");
    for effort in [None, Some("--quick")] {
        let mut args = vec!["ext-scale", "--update-baseline", "--baseline", copy];
        args.extend(effort);
        assert_rejected(&repro(&dir, &args), &args);
        assert_eq!(
            std::fs::read(copy).expect("read baseline copy"),
            before,
            "{args:?} touched the baseline"
        );
    }
}
