//! `repro` — regenerate any table or figure of the paper.
//!
//! ```text
//! repro <target|all|help> [--quick|--full] [--jobs N] [--iters N]
//!                         [--update-baseline] [--baseline PATH] [--tolerance F]
//! ```
//!
//! The targets live in one table, `TARGETS`; `repro help` lists them,
//! and `repro all` runs every entry marked for it in table order.
//!
//! `--quick` (the default) and `--full` pick the [`Effort`]. `--jobs N`
//! fans the chosen targets' independent experiment cells across `N`
//! worker threads (default: the machine's available parallelism), all
//! on one shared pool. Results are rendered in table order after all
//! cells finish, so stdout and every JSON artifact are byte-identical
//! to a `--jobs 1` run.
//!
//! `--iters N` only affects `ext-serve`, `ext-chaos` and
//! `ext-diagnose`, where it overrides the number of requests served
//! per operating point (smoke runs in CI use a small value). The
//! baseline/tolerance flags only affect the perf-regression gates of
//! `ext-obs` and `ext-scale`, which exit 1 on failure; `ext-scale`
//! rewrites its baseline only from a `--full` sweep.
//!
//! Malformed flags are rejected with one `error:` line and exit 2
//! before any cell runs.

use laer_bench::pool::{self, Batch};
use laer_bench::{
    eq1, ext_chaos, ext_diagnose, ext_faults, ext_obs, ext_overlap, ext_pipeline, ext_rack,
    ext_refine, ext_replay, ext_scale, ext_serve, ext_staleness, fig1, fig10, fig11, fig12, fig2,
    fig8, fig9, tab2, tab3, tab4, Effort,
};
use std::time::Instant;

/// The parsed command-line flags every target reads from.
struct Opts {
    effort: Effort,
    jobs: usize,
    /// Requests per serving operating point (`--iters`).
    iters: Option<usize>,
    obs: ext_obs::ObsOptions,
}

/// Deferred renderer of one target's pooled cells; returns the
/// target's pass/fail verdict (`false` only from a failed perf gate).
type Finisher = Box<dyn FnOnce() -> bool>;

/// One `repro` target.
struct Target {
    name: &'static str,
    /// Other names that run the same target.
    aliases: &'static [&'static str],
    /// Whether `repro all` runs it.
    in_all: bool,
    /// Submits the target's cells and returns its renderer.
    submit: fn(&mut Batch, &Opts) -> Finisher,
}

const fn target(
    name: &'static str,
    aliases: &'static [&'static str],
    in_all: bool,
    submit: fn(&mut Batch, &Opts) -> Finisher,
) -> Target {
    Target {
        name,
        aliases,
        in_all,
        submit,
    }
}

/// Defers a module's `finish` for a target without a gate.
fn render<P: 'static, R: 'static>(finish: fn(P) -> R, pending: P) -> Finisher {
    Box::new(move || {
        finish(pending);
        true
    })
}

/// Every target, in `repro all` order: (name, aliases, run by `all`,
/// submit).
const TARGETS: &[Target] = &[
    target("tab2", &[], true, |b, _| {
        render(tab2::finish, tab2::submit(b))
    }),
    target("eq1", &[], true, |b, _| render(eq1::finish, eq1::submit(b))),
    target("fig1", &["fig1a", "fig1b"], true, |b, o| {
        render(fig1::finish, fig1::submit(b, o.effort))
    }),
    target("fig2", &[], true, |b, _| {
        render(fig2::finish, fig2::submit(b))
    }),
    target("fig8", &[], true, |b, o| {
        render(fig8::finish, fig8::submit(b, o.effort))
    }),
    target("fig9", &[], true, |b, o| {
        render(fig9::finish, fig9::submit(b, o.effort))
    }),
    target("fig10", &["fig10a", "fig10b"], true, |b, o| {
        render(fig10::finish, fig10::submit(b, o.effort))
    }),
    target("fig11", &[], true, |b, _| {
        render(fig11::finish, fig11::submit(b))
    }),
    target("fig12", &[], true, |b, o| {
        render(fig12::finish, fig12::submit(b, o.effort))
    }),
    target("tab3", &[], true, |b, o| {
        render(tab3::finish, tab3::submit(b, o.effort))
    }),
    target("tab4", &[], true, |b, _| {
        render(tab4::finish, tab4::submit(b))
    }),
    target("ext-refine", &[], true, |b, _| {
        render(ext_refine::finish, ext_refine::submit(b))
    }),
    target("ext-staleness", &[], true, |b, _| {
        render(ext_staleness::finish, ext_staleness::submit(b))
    }),
    target("ext-rack", &[], true, |b, _| {
        render(ext_rack::finish, ext_rack::submit(b))
    }),
    target("ext-overlap", &[], true, |b, _| {
        render(ext_overlap::finish, ext_overlap::submit(b))
    }),
    target("ext-pipeline", &[], true, |b, _| {
        render(ext_pipeline::finish, ext_pipeline::submit(b))
    }),
    target("ext-replay", &[], true, |b, o| {
        render(ext_replay::finish, ext_replay::submit(b, o.effort))
    }),
    target("ext-faults", &[], true, |b, _| {
        render(ext_faults::finish, ext_faults::submit(b))
    }),
    target("ext-serve", &[], true, |b, o| {
        render(ext_serve::finish, ext_serve::submit(b, o.effort, o.iters))
    }),
    target("ext-chaos", &[], true, |b, o| {
        render(ext_chaos::finish, ext_chaos::submit(b, o.effort, o.iters))
    }),
    target("ext-obs", &[], true, |b, o| {
        let (pending, obs) = (ext_obs::submit(b), o.obs.clone());
        Box::new(move || ext_obs::finish(&obs, pending))
    }),
    target("ext-diagnose", &[], true, |b, o| {
        render(
            ext_diagnose::finish,
            ext_diagnose::submit(b, o.effort, o.iters),
        )
    }),
    // Gated against its own `BENCH_planner.json`; its two-phase driver
    // runs its own batches at `--jobs`.
    target("ext-scale", &[], false, |_, o| {
        if o.obs.update_baseline && o.effort == Effort::Quick {
            fail("ext-scale rewrites its baseline only from a --full sweep");
        }
        let (obs, effort, jobs) = (o.obs.clone(), o.effort, o.jobs);
        Box::new(move || ext_scale::run_jobs(&obs, effort, jobs))
    }),
    target("harness-bench", &[], false, |_, _| {
        Box::new(|| {
            harness_bench();
            true
        })
    }),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, flags) = match args.split_first() {
        Some((name, flags)) => (name.as_str(), flags),
        None => ("help", &[][..]),
    };
    let opts = parse_flags(flags).unwrap_or_else(|msg| fail(&msg));
    let chosen: Vec<&Target> = match name {
        "help" => {
            print!("{}", usage());
            return;
        }
        "all" => TARGETS.iter().filter(|t| t.in_all).collect(),
        _ => match TARGETS
            .iter()
            .find(|t| t.name == name || t.aliases.contains(&name))
        {
            Some(t) => vec![t],
            None => {
                eprint!("error: unknown target `{name}`\n{}", usage());
                std::process::exit(2);
            }
        },
    };
    let start = Instant::now();
    let ok = run(&chosen, name == "all", &opts);
    eprintln!("[{name}: {:.2}s elapsed]", start.elapsed().as_secs_f64());
    if !ok {
        std::process::exit(1);
    }
}

/// Submits every chosen target's cells into one batch, runs it across
/// `--jobs` workers, then renders the targets in order — so stdout and
/// every artifact are byte-identical to a serial run. `all` adds a
/// section header and the per-target compute seconds.
fn run(targets: &[&Target], all: bool, opts: &Opts) -> bool {
    let mut batch = Batch::new();
    let finishers: Vec<Finisher> = targets
        .iter()
        .map(|t| (t.submit)(&mut batch, opts))
        .collect();
    let stats = batch.run(opts.jobs);
    let mut ok = true;
    for (t, finish) in targets.iter().zip(finishers) {
        if all {
            println!("\n================ {} ================\n", t.name);
        }
        ok &= finish();
        if all {
            // Cell labels read `target/cell`.
            let compute: f64 = stats
                .iter()
                .filter(|s| s.label.split('/').next() == Some(t.name))
                .map(|s| s.seconds)
                .sum();
            eprintln!("[{}: {compute:.2}s compute across cells]", t.name);
        }
    }
    ok
}

/// Parses the flags after the target name; `Err` is the message of the
/// one `error:` line.
fn parse_flags(flags: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        effort: Effort::Quick,
        jobs: pool::default_jobs(),
        iters: None,
        obs: ext_obs::ObsOptions::default(),
    };
    let mut rest = flags.iter();
    while let Some(flag) = rest.next() {
        let mut value = || {
            rest.next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--quick" => opts.effort = Effort::Quick,
            "--full" => opts.effort = Effort::Full,
            "--jobs" => opts.jobs = parse(flag, value()?, "a positive integer", |&n| n > 0)?,
            "--iters" => {
                opts.iters = Some(parse(flag, value()?, "a positive integer", |&n| n > 0)?)
            }
            "--update-baseline" => opts.obs.update_baseline = true,
            "--baseline" => opts.obs.baseline = Some(value()?.into()),
            "--tolerance" => {
                let fraction = |&t: &f64| t > 0.0 && t < 1.0;
                opts.obs.tolerance = Some(parse(flag, value()?, "a fraction in (0, 1)", fraction)?);
            }
            other => return Err(format!("unknown flag `{other}` (see `repro help`)")),
        }
    }
    Ok(opts)
}

/// Parses `flag`'s value `v`, which must satisfy `valid`.
fn parse<T: std::str::FromStr>(
    flag: &str,
    v: &str,
    expected: &str,
    valid: fn(&T) -> bool,
) -> Result<T, String> {
    v.parse()
        .ok()
        .filter(valid)
        .ok_or_else(|| format!("{flag} expects {expected}, got `{v}`"))
}

/// Rejects the command line with one `error:` line and exit code 2.
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The usage text, listing every target of [`TARGETS`].
fn usage() -> String {
    let mut out = String::from(
        "usage: repro <target|all|help> [--quick|--full] [--jobs N] [--iters N] \
         [--update-baseline] [--baseline PATH] [--tolerance F]\ntargets:\n",
    );
    for t in TARGETS {
        let mut line = format!("  {:<14}", t.name);
        if !t.aliases.is_empty() {
            line += &format!(" aliases: {}", t.aliases.join(" "));
        }
        if !t.in_all {
            line += " (not run by `all`)";
        }
        out += line.trim_end();
        out.push('\n');
    }
    out
}

/// Path of the informational harness benchmark report at the repo root.
fn harness_report_path() -> std::path::PathBuf {
    let mut p = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/
    p.pop(); // repo root
    p.push("BENCH_harness.json");
    p
}

#[derive(serde::Serialize)]
struct HarnessRun {
    jobs: usize,
    wall_seconds: f64,
}

#[derive(serde::Serialize)]
struct HarnessReport {
    description: String,
    available_parallelism: usize,
    runs: Vec<HarnessRun>,
    speedup: f64,
}

/// Times `repro all --quick` at `--jobs 1` vs the default job count and
/// writes `BENCH_harness.json`. Informational only — never gated, since
/// wall-clock depends on the runner.
fn harness_bench() {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate own executable: {e}");
            std::process::exit(1);
        }
    };
    let default = pool::default_jobs();
    let mut runs = Vec::new();
    for jobs in [1usize, default] {
        let dir = std::env::temp_dir().join(format!("laer-harness-jobs{jobs}"));
        eprintln!("[harness-bench: timing `repro all --quick --jobs {jobs}`]");
        let start = Instant::now();
        let status = std::process::Command::new(&exe)
            .args(["all", "--quick", "--jobs", &jobs.to_string()])
            .env("LAER_REPRO_DIR", &dir)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status();
        let wall_seconds = start.elapsed().as_secs_f64();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("error: `repro all --jobs {jobs}` exited with {s}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("error: cannot spawn `repro all --jobs {jobs}`: {e}");
                std::process::exit(1);
            }
        }
        eprintln!("[harness-bench: --jobs {jobs} took {wall_seconds:.2}s]");
        runs.push(HarnessRun { jobs, wall_seconds });
    }
    let speedup = runs[0].wall_seconds / runs[1].wall_seconds.max(1e-9);
    let report = HarnessReport {
        description: format!(
            "wall-clock of `repro all --quick` at --jobs 1 vs --jobs {default} \
             (informational, runner-dependent; not CI-gated)"
        ),
        available_parallelism: default,
        runs,
        speedup,
    };
    println!("harness speedup: {speedup:.2}x at --jobs {default} on {default} available cores");
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            let path = harness_report_path();
            match std::fs::write(&path, json + "\n") {
                Ok(()) => eprintln!("[saved {}]", path.display()),
                Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
            }
            laer_bench::output::save_json("harness_bench", &report);
        }
        Err(e) => eprintln!("warning: cannot serialize harness report: {e}"),
    }
}
