//! `laer` — command-line explorer for the LAER-MoE reproduction.
//!
//! ```text
//! laer plan     [--devices N] [--experts E] [--capacity C] [--seed S]
//! laer simulate [--model ID] [--system KIND] [--layers L] [--iters I] [--seed S]
//! laer memory   [--model ID]
//! laer trace    [--devices N] [--experts E] [--iters I] [--seed S] --out FILE
//! laer replay   --model ID --system KIND --in FILE
//! laer faults   [--model ID] [--fault CLASS] [--iters I] [--seed S]
//! laer serve    [--system KIND|all] [--nodes N] [--devices D] [--rate R]
//!               [--requests N] [--burst B] [--flip P] [--seed S] [--out FILE]
//! laer obs      [--model ID] [--system KIND|all] [--layers L] [--iters I]
//!               [--seed S] [--out DIR]
//! ```

use laer_moe::planner::{CostParams, PlanError};
use laer_moe::prelude::*;
use laer_moe::train::run_experiment_on_trace;
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage(0);
    };
    let flags = match parse_flags(&args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return usage(2);
        }
    };
    let result = match command.as_str() {
        "plan" => cmd_plan(&flags),
        "simulate" => cmd_simulate(&flags),
        "memory" => cmd_memory(&flags),
        "trace" => cmd_trace(&flags),
        "replay" => cmd_replay(&flags),
        "faults" => cmd_faults(&flags),
        "serve" => cmd_serve(&flags),
        "obs" => cmd_obs(&flags),
        "help" | "--help" | "-h" => return usage(0),
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn usage(code: u8) -> ExitCode {
    eprintln!(
        "laer — LAER-MoE reproduction CLI\n\n\
         commands:\n\
         \x20 plan      plan one iteration's expert re-layout and show it\n\
         \x20 simulate  run an end-to-end throughput experiment\n\
         \x20 memory    per-device memory analysis for a model\n\
         \x20 trace     record a synthetic routing trace to JSON\n\
         \x20 replay    run an experiment over a recorded trace\n\
         \x20 faults    compare systems under injected faults\n\
         \x20           (--fault straggler|link|failure|outage|random)\n\
         \x20 serve     online inference serving with live re-layout\n\
         \x20           (--system static-ep|replicate-hot|laer|all,\n\
         \x20            --rate RPS --flip STEPS --out trace.json)\n\
         \x20 obs       observed training run: metrics registry, event journal,\n\
         \x20           planner decision audit (--out DIR writes metrics.txt,\n\
         \x20           journal.jsonl and Perfetto traces with counter tracks)\n\n\
         common flags: --model <id> --system <LAER|FLEX|FSDP|megatron|vanillaEP>\n\
         \x20             --devices N --experts E --capacity C --layers L\n\
         \x20             --iters I --seed S --aux W --in FILE --out FILE\n\n\
         model ids: {}",
        ModelPreset::ALL.map(|p| p.id()).join(" ")
    );
    ExitCode::from(code)
}

type Flags = HashMap<String, String>;

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("expected --flag, got `{flag}`"));
        };
        let value = it
            .next()
            .ok_or_else(|| format!("--{name} requires a value"))?;
        out.insert(name.to_string(), value.clone());
    }
    Ok(out)
}

fn get<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("--{name}: {e}")),
    }
}

/// [`get`] for a count that must be at least 1.
fn get_count(flags: &Flags, name: &str, default: usize) -> Result<usize, String> {
    match get(flags, name, default)? {
        0 => Err(format!("--{name} must be at least 1")),
        n => Ok(n),
    }
}

fn model(flags: &Flags) -> Result<ModelPreset, String> {
    get(flags, "model", ModelPreset::Mixtral8x7bE8k2).map_err(|e| {
        format!(
            "{e} (valid: {})",
            ModelPreset::ALL.map(|p| p.id()).join(" ")
        )
    })
}

fn cmd_plan(flags: &Flags) -> Result<(), String> {
    let devices: usize = get(flags, "devices", 8)?;
    let experts = get_count(flags, "experts", 8)?;
    let capacity: usize = get(flags, "capacity", 2)?;
    let seed: u64 = get(flags, "seed", 0)?;
    if !devices.is_multiple_of(8) && devices > 8 {
        return Err("--devices must be ≤8 or a multiple of 8".into());
    }
    let topo = if devices <= 8 {
        Topology::single_node(devices).map_err(|e| e.to_string())?
    } else {
        Topology::new(devices / 8, 8).map_err(|e| e.to_string())?
    };
    if devices.saturating_mul(capacity) < experts {
        return Err(PlanError::InsufficientCapacity {
            survivors: devices,
            capacity,
            experts,
        }
        .to_string());
    }
    if capacity > experts {
        // Each slot restores one expert; more slots than experts would
        // only duplicate replicas (and a huge C never finishes planning).
        return Err(format!("--capacity {capacity} exceeds --experts {experts}"));
    }
    let demand = RoutingGenerator::new(
        RoutingGeneratorConfig::new(devices, experts, 16 * 1024).with_seed(seed),
    )
    .next_iteration();
    let planner = Planner::new(
        PlannerConfig::new(capacity),
        CostParams::mixtral_8x7b(),
        topo,
    );
    let plan = planner.plan(&demand);
    println!("expert loads: {:?}", demand.expert_loads());
    println!("replica vector: {:?}", plan.layout.replica_vector());
    println!("{}", plan.layout);
    let loads = plan.routing.device_compute_loads();
    let ideal = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
    let max = *loads.iter().max().unwrap_or(&0) as f64;
    println!(
        "device loads {:?}\nmax/ideal {:.3}, predicted T = {:.3} ms (comm {:.3} + comp {:.3})",
        loads,
        max / ideal,
        plan.predicted.total() * 1e3,
        plan.predicted.comm * 1e3,
        plan.predicted.comp * 1e3
    );
    Ok(())
}

fn cmd_simulate(flags: &Flags) -> Result<(), String> {
    let preset = model(flags)?;
    let system: SystemKind = get(flags, "system", SystemKind::Laer)?;
    let layers = get_count(flags, "layers", 8)?;
    let iters = get_count(flags, "iters", 15)?;
    let seed: u64 = get(flags, "seed", 0)?;
    let aux: f64 = get(flags, "aux", 0.0)?;
    let cfg = ExperimentConfig::new(preset, system)
        .with_layers(layers)
        .with_iterations(iters, (iters / 3).max(1))
        .with_aux_loss(aux)
        .with_seed(seed);
    let r = run_experiment(&cfg);
    print_result(&r);
    Ok(())
}

fn print_result(r: &ExperimentResult) {
    println!(
        "{}: {:.0} tokens/s  (iter {:.1} ms)",
        r.system,
        r.tokens_per_second,
        r.avg_iteration_time * 1e3
    );
    println!(
        "breakdown: a2a {:.1} ms ({:.1}%), expert {:.1} ms, others {:.1} ms",
        r.breakdown.a2a * 1e3,
        r.breakdown.a2a_fraction() * 100.0,
        r.breakdown.expert_compute * 1e3,
        r.breakdown.others * 1e3
    );
    println!("max/ideal device load: {:.3}", r.avg_max_token_ratio);
}

fn cmd_memory(flags: &Flags) -> Result<(), String> {
    use laer_moe::model::memory;
    let preset = model(flags)?;
    let cfg = preset.config();
    let c = cfg.default_capacity();
    println!("{cfg}");
    println!(
        "total {:.2} B params, activated {:.2} B",
        cfg.total_params() as f64 / 1e9,
        cfg.activated_params() as f64 / 1e9
    );
    let fsep = memory::memory_report(&cfg, 32, c);
    println!(
        "FSEP @32 devices: optimizer {:.1} GiB + params {:.1} GiB + grads {:.1} GiB = {:.1} GiB",
        gib(fsep.optimizer_state),
        gib(fsep.parameter_state),
        gib(fsep.gradient_state),
        gib(fsep.total())
    );
    let full = memory::fully_sharded_memory_bytes(&cfg, 32, c, 16 * 1024);
    println!("FSEP + activations @16K tokens: {:.1} GiB", gib(full));
    for tp in [1usize, 2, 4, 8] {
        let bytes = memory::megatron_memory_bytes(&cfg, 32, tp, c, 16 * 1024);
        let fits = bytes <= memory::DEVICE_MEMORY_BUDGET;
        println!(
            "Megatron TP={tp}: {:.1} GiB {}",
            gib(bytes),
            if fits { "(fits)" } else { "(OOM)" }
        );
    }
    Ok(())
}

fn gib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}

fn cmd_trace(flags: &Flags) -> Result<(), String> {
    let devices = get_count(flags, "devices", 32)?;
    let experts = get_count(flags, "experts", 8)?;
    let iters: usize = get(flags, "iters", 100)?;
    let seed: u64 = get(flags, "seed", 0)?;
    let out = flags.get("out").ok_or("--out FILE required")?;
    let trace = RoutingTrace::record(
        RoutingGeneratorConfig::new(devices, experts, 32 * 1024).with_seed(seed),
        iters,
    );
    trace.save_json(out).map_err(|e| e.to_string())?;
    println!("wrote {iters} iterations of {devices}x{experts} routing to {out}");
    Ok(())
}

fn cmd_faults(flags: &Flags) -> Result<(), String> {
    use laer_moe::sim::{FaultEvent, FaultKind, FaultPlan};
    use laer_moe::train::{window_throughput, FaultRunner};

    let preset = model(flags)?;
    let fault = flags.get("fault").map(String::as_str).unwrap_or("failure");
    let window = get_count(flags, "iters", 10)? as u64;
    let seed: u64 = get(flags, "seed", 3)?;
    let onset: u64 = 4;
    let total = onset + window;

    let mut plan = FaultPlan::new();
    let mut push = |kind: FaultKind, end: u64| {
        plan.push(FaultEvent {
            kind,
            start: onset,
            end,
        })
        .map_err(|e| e.to_string())
    };
    match fault {
        "straggler" => push(
            FaultKind::Straggler {
                device: DeviceId::new(5),
                factor: 2.0,
            },
            total,
        )?,
        "link" => push(
            FaultKind::LinkDegrade {
                a: DeviceId::new(0),
                b: DeviceId::new(1),
                factor: 0.25,
            },
            total,
        )?,
        "failure" => push(
            FaultKind::DeviceFailure {
                device: DeviceId::new(13),
            },
            u64::MAX,
        )?,
        "outage" => push(FaultKind::PlannerOutage, total)?,
        "random" => {
            if total < 8 {
                return Err("--fault random needs --iters >= 4".into());
            }
            plan = FaultPlan::random(seed, 32, total);
        }
        other => {
            return Err(format!(
                "unknown --fault `{other}` (straggler|link|failure|outage|random)"
            ))
        }
    }

    println!(
        "fault `{fault}` from iteration {onset}, throughput over the {window} iterations after onset:\n"
    );
    println!(
        "{:<10} {:>14} {:>14} {:>9}",
        "system", "faulted tok/s", "clean tok/s", "ratio"
    );
    for system in [SystemKind::Laer, SystemKind::FsdpEp, SystemKind::VanillaEp] {
        let cfg = ExperimentConfig::new(preset, system)
            .with_layers(2)
            .with_seed(seed);
        let run = |p: FaultPlan| -> Result<f64, String> {
            let reports = FaultRunner::new(cfg.clone(), p)
                .run(total)
                .map_err(|e| e.to_string())?;
            Ok(window_throughput(&reports[onset as usize..]))
        };
        let faulted = run(plan.clone())?;
        let clean = run(FaultPlan::new())?;
        println!(
            "{:<10} {:>14.0} {:>14.0} {:>8.1}%",
            format!("{system:?}"),
            faulted,
            clean,
            faulted / clean * 100.0
        );
    }
    Ok(())
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    use laer_moe::serve::{run_serving, ServeConfig, ServingSystemKind, WorkloadConfig};
    use laer_moe::sim::write_chrome_trace;

    let preset = model(flags)?;
    let nodes = get_count(flags, "nodes", 1)?;
    let devices = get_count(flags, "devices", 4)?;
    let rate: f64 = get(flags, "rate", 1200.0)?;
    let requests: usize = get(flags, "requests", 300)?;
    let burst: f64 = get(flags, "burst", 1.0)?;
    let flip: u64 = get(flags, "flip", 30)?;
    let seed: u64 = get(flags, "seed", 17)?;
    if rate <= 0.0 {
        return Err("--rate must be positive".into());
    }
    if burst < 1.0 {
        return Err("--burst must be at least 1".into());
    }
    let systems: Vec<ServingSystemKind> = match flags.get("system").map(String::as_str) {
        None | Some("all") => ServingSystemKind::ALL.to_vec(),
        Some(s) => vec![s.parse()?],
    };

    println!(
        "serving {requests} requests at {rate:.0} rps (burstiness {burst}) on {nodes}x{devices}, \
         hot-expert flips {}:\n",
        if flip == 0 {
            "off".to_string()
        } else {
            format!("every {flip} steps")
        }
    );
    println!(
        "{:<13} {:>5} {:>5} {:>9} {:>9} {:>9} {:>9} {:>8} {:>6} {:>9}",
        "system",
        "done",
        "rej",
        "p50 ttft",
        "p99 ttft",
        "p99 tpot",
        "goodput",
        "tok/s",
        "relay",
        "reloc s"
    );
    for kind in systems {
        let mut cfg = ServeConfig::new(kind);
        cfg.preset = preset;
        cfg.nodes = nodes;
        cfg.devices_per_node = devices;
        cfg.queue_capacity = 512;
        cfg.step_overhead = 2.0e-4;
        cfg.workload = WorkloadConfig::default()
            .with_seed(seed)
            .with_requests(requests)
            .with_arrival_rate(rate)
            .with_burstiness(burst)
            .with_flip_period((flip > 0).then_some(flip));
        cfg.workload.mean_decode_tokens = 16.0;
        let out = run_serving(&cfg);
        let r = &out.report;
        println!(
            "{:<13} {:>5} {:>5} {:>7.1}ms {:>7.1}ms {:>7.2}ms {:>9.1} {:>8.0} {:>6} {:>9.4}",
            r.system,
            r.completed,
            r.rejected,
            r.ttft.p50 * 1e3,
            r.ttft.p99 * 1e3,
            r.tpot.p99 * 1e3,
            r.goodput_rps,
            r.throughput_tps,
            r.relayouts,
            r.relocation_time
        );
        if kind == ServingSystemKind::Laer {
            if let Some(path) = flags.get("out") {
                let f = std::fs::File::create(path).map_err(|e| format!("--out {path}: {e}"))?;
                write_chrome_trace(&out.timeline, f).map_err(|e| e.to_string())?;
                println!("  [laer timeline written to {path}]");
            }
        }
    }
    Ok(())
}

fn cmd_obs(flags: &Flags) -> Result<(), String> {
    use laer_moe::obs::{stream_utilization_tracks, Observer};
    use laer_moe::sim::write_chrome_trace_with_counters;
    use laer_moe::train::run_experiment_observed;

    let preset = model(flags)?;
    let layers = get_count(flags, "layers", 4)?;
    let iters = get_count(flags, "iters", 10)?;
    let seed: u64 = get(flags, "seed", 0)?;
    let nodes = get_count(flags, "nodes", 2)?;
    let devices = get_count(flags, "devices", 8)?;
    let systems: Vec<SystemKind> = match flags.get("system").map(String::as_str) {
        None | Some("all") => vec![SystemKind::Laer, SystemKind::FsdpEp, SystemKind::SmartMoe],
        Some(s) => vec![s.parse()?],
    };

    let mut observer = Observer::new();
    let mut timelines = Vec::new();
    for &system in &systems {
        let cfg = ExperimentConfig::new(preset, system)
            .with_cluster(nodes, devices)
            .with_layers(layers)
            .with_iterations(iters, (iters / 3).max(1))
            .with_seed(seed);
        let (r, timeline) = run_experiment_observed(&cfg, &mut observer);
        print_result(&r);
        timelines.push((r.system.clone(), timeline));
    }

    println!("\nplanner decision audit (predicted Eq. 1 vs simulated actual):");
    for a in observer.audit.summaries() {
        println!(
            "  {:<10} {:>4} decisions  mean |err| {:>6.2}%  bias {:>+6.2}%  worst {:>6.2}%",
            a.system,
            a.decisions,
            a.mean_abs_rel_error * 100.0,
            a.mean_rel_error * 100.0,
            a.worst_abs_rel_error * 100.0
        );
    }
    println!(
        "\njournal: {} events; registry: {} metric families",
        observer.journal.len(),
        observer.registry.len()
    );

    if let Some(dir) = flags.get("out") {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("--out {}: {e}", dir.display()))?;
        let write = |name: &str, body: &str| -> Result<(), String> {
            let path = dir.join(name);
            std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
            println!("  [wrote {}]", path.display());
            Ok(())
        };
        write("metrics.txt", &observer.registry.to_openmetrics())?;
        write("journal.jsonl", &observer.journal.to_jsonl())?;
        let n = nodes * devices;
        for (name, timeline) in &timelines {
            let makespan = timeline.makespan();
            let tracks = if makespan > 0.0 {
                stream_utilization_tracks(timeline, n, makespan / 48.0)
            } else {
                Vec::new()
            };
            let path = dir.join(format!("trace_{name}.json"));
            let f = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            write_chrome_trace_with_counters(timeline, &tracks, f).map_err(|e| e.to_string())?;
            println!("  [wrote {} — open in Perfetto]", path.display());
        }
    } else {
        print!("\n{}", observer.registry.to_openmetrics());
    }
    Ok(())
}

fn cmd_replay(flags: &Flags) -> Result<(), String> {
    let preset = model(flags)?;
    let system: SystemKind = get(flags, "system", SystemKind::Laer)?;
    let input = flags.get("in").ok_or("--in FILE required")?;
    let trace = RoutingTrace::load_json(input).map_err(|e| e.to_string())?;
    let first = trace.get(0).ok_or("trace is empty")?;
    let devices = first.num_devices();
    if devices % 8 != 0 {
        return Err("trace must cover a multiple of 8 devices".into());
    }
    let experts = preset.config().experts();
    if first.num_experts() != experts {
        return Err(format!(
            "trace routes to {} experts but --model {} has {experts}",
            first.num_experts(),
            preset.id()
        ));
    }
    let cfg = ExperimentConfig::new(preset, system)
        .with_cluster(devices / 8, 8)
        .with_layers(4)
        .with_iterations(trace.len().min(30), 2);
    let r = run_experiment_on_trace(&cfg, &trace).map_err(|e| e.to_string())?;
    print_result(&r);
    Ok(())
}
