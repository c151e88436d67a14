//! Flow profiler: runs ONE (kernel, flow, config) job uncached with span
//! recording force-enabled, then prints a per-phase and per-block time
//! breakdown recovered from the recorded Chrome trace, and writes the
//! trace itself for `chrome://tracing` / Perfetto.
//!
//! This is the observability layer's own smoke test: the numbers printed
//! here are parsed back out of [`cmam_obs::chrome_trace_json`] through
//! [`cmam_obs::json`], so a run that prints a sensible table has also
//! proven the export/import round trip, and the written file is
//! validated with [`cmam_obs::validate_chrome_trace`] before the process
//! exits.
//!
//! ```text
//! profile_flow [--kernel conv] [--config het2] [--flow cab]
//!              [--batch-lanes N] [--trace-out profile_flow.trace.json]
//!              [--jobs N] [--no-cache] [--csv] [--metrics]
//! profile_flow --validate-trace FILE
//! ```
//!
//! * `--kernel N`   kernel name (default `conv`; one of the seven)
//! * `--config N`   `hom64 | hom32 | het1 | het2 | u4x4` (default `het2`)
//! * `--flow N`     `basic | weighted | acmap | ecmap | cab` (default `cab`)
//! * `--batch-lanes N`  lanes of the batched input sweep run after the
//!   solo job, so the trace also carries the `batch_sim` /
//!   `simulate_batch` phases (default 64; `0` skips the sweep)
//! * `--trace-out F`  where to write the trace (default
//!   `profile_flow.trace.json`; `-` skips the file)
//! * `--validate-trace F`  don't profile: parse and validate an existing
//!   trace file (schema + per-thread span nesting) and exit — the CI
//!   check behind `smoke --trace-out`.
//! * `--jobs N`, `--no-cache`, `--csv`, `--metrics`  the flags every
//!   binary shares (see [`cmam_bench::cli`]); `--no-cache` changes
//!   nothing here, the profiled engine never caches.

use cmam_arch::CgraConfig;
use cmam_bench::cli::Kind::{Count, Text};
use cmam_bench::cli::{self, Args, Flag};
use cmam_bench::{emit_table, JobRequest, BATCH_SEED};
use cmam_core::FlowVariant;
use cmam_engine::{BatchSimRequest, Engine, EngineOptions};
use cmam_obs::json::{self, Value};
use std::collections::BTreeMap;

fn parse_flow(args: &Args, name: &str) -> FlowVariant {
    match name.to_ascii_lowercase().as_str() {
        "basic" => FlowVariant::Basic,
        "weighted" => FlowVariant::Weighted,
        "acmap" => FlowVariant::Acmap,
        "ecmap" => FlowVariant::Ecmap,
        "cab" => FlowVariant::Cab,
        other => args.fail(&format!("unknown flow {other:?}")),
    }
}

fn parse_config(args: &Args, name: &str) -> CgraConfig {
    match name.to_ascii_lowercase().as_str() {
        "hom64" => CgraConfig::hom64(),
        "hom32" => CgraConfig::hom32(),
        "het1" => CgraConfig::het1(),
        "het2" => CgraConfig::het2(),
        "u4x4" => CgraConfig::unconstrained_4x4(),
        other => args.fail(&format!("unknown config {other:?}")),
    }
}

/// Validates a trace file from disk; the process exit code is the
/// verdict. Used by CI on the artifact `smoke --trace-out` wrote.
fn validate_file(path: &str) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("profile_flow: reading {path}: {e}");
        std::process::exit(2);
    });
    match cmam_obs::validate_chrome_trace(&text) {
        Ok(n) => {
            println!("{path}: valid Chrome trace ({n} events)");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("profile_flow: {path}: INVALID trace: {e}");
            std::process::exit(1);
        }
    }
}

/// Per-span-name aggregate over the recorded trace.
#[derive(Default)]
struct PhaseAgg {
    count: u64,
    total_us: f64,
    max_us: f64,
}

fn main() {
    let args = cli::parse(
        "profile_flow",
        &[
            Flag("--kernel", Text("NAME")),
            Flag("--config", Text("hom64|hom32|het1|het2|u4x4")),
            Flag("--flow", Text("basic|weighted|acmap|ecmap|cab")),
            Flag("--batch-lanes", Count),
            Flag("--validate-trace", Text("FILE")),
        ],
    );
    if let Some(path) = args.text("--validate-trace") {
        validate_file(path);
    }
    let kernel = args.text("--kernel").unwrap_or("conv");
    let trace_out = cli::shared()
        .trace_out
        .unwrap_or_else(|| "profile_flow.trace.json".into());
    let batch_lanes = args.count("--batch-lanes").unwrap_or(64);

    let specs = cmam_kernels::all();
    // Exact (case-insensitive) name, else a unique substring — `conv`
    // finds `Convolution`, `fir` stays exact-only against `FIR`.
    let wanted = kernel.to_ascii_lowercase();
    let matches: Vec<&cmam_kernels::KernelSpec> = specs
        .iter()
        .filter(|s| s.name.to_ascii_lowercase().contains(&wanted))
        .collect();
    let spec = matches
        .iter()
        .find(|s| s.name.eq_ignore_ascii_case(kernel))
        .copied()
        .or(if matches.len() == 1 {
            Some(matches[0])
        } else {
            None
        })
        .unwrap_or_else(|| {
            let known: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
            args.fail(&format!(
                "unknown or ambiguous kernel {kernel:?} (known: {})",
                known.join(", ")
            ))
        });
    let config = parse_config(&args, args.text("--config").unwrap_or("het2"));
    let flow = parse_flow(&args, args.text("--flow").unwrap_or("cab"));

    // Record everything; an uncached private engine so the phases
    // actually run instead of answering from `target/cmam-cache/`.
    cmam_obs::enable_tracing();
    let engine = Engine::new(EngineOptions {
        jobs: cli::shared().jobs,
        cache_dir: None,
        cache_bytes: None,
    });
    let request = JobRequest::flow(spec, flow, &config);
    let outcome = engine.run_batch(std::slice::from_ref(&request));
    println!(
        "# profile_flow: {} / {} / {}\n",
        spec.name,
        config.name(),
        flow
    );
    match &outcome[0] {
        Ok(out) => println!(
            "result: OK — {} cycles, {} context words (max tile), {} moves, {} pnops\n",
            out.cycles,
            out.binary.max_context_words(),
            out.report.total_moves(),
            out.report.total_pnops(),
        ),
        Err(e) => println!("result: FAIL — {e}\n"),
    }

    // A batched input sweep of the same job, so the per-phase table
    // breaks down the batch path too (`batch_sim` wraps the job;
    // `simulate_batch` is the simulator's own span).
    if batch_lanes > 0 && outcome[0].is_ok() {
        let sweep = BatchSimRequest::flow(spec, flow, &config, BATCH_SEED, batch_lanes);
        let swept = engine.run_batch_sim(&sweep).expect("solo job compiled");
        println!(
            "batch sweep: {}/{} lanes ok, {} aggregate cycles{}\n",
            swept.ok_lanes(),
            batch_lanes,
            swept.agg_cycles,
            swept
                .agg_cycles_per_sec()
                .map(|r| format!(" ({:.1}M cycles/s)", r / 1e6))
                .unwrap_or_default(),
        );
    }

    // Everything below is read back out of the Chrome trace itself.
    let text = cmam_obs::chrome_trace_json();
    let doc = json::parse(&text).expect("own trace parses");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");

    let mut phases: BTreeMap<String, PhaseAgg> = BTreeMap::new();
    let mut blocks: Vec<(u64, u64, f64)> = Vec::new(); // (block, ops, µs)
    for ev in events {
        if ev.get("ph").and_then(Value::as_str) != Some("X") {
            continue;
        }
        let name = ev.get("name").and_then(Value::as_str).unwrap_or("?");
        let dur = ev.get("dur").and_then(Value::as_f64).unwrap_or(0.0);
        let agg = phases.entry(name.to_owned()).or_default();
        agg.count += 1;
        agg.total_us += dur;
        agg.max_us = agg.max_us.max(dur);
        if name == "map_block" {
            let arg = |k: &str| {
                ev.get("args")
                    .and_then(|a| a.get(k))
                    .and_then(Value::as_f64)
                    .unwrap_or(-1.0) as u64
            };
            blocks.push((arg("block"), arg("ops"), dur));
        }
    }

    // Phase table in pipeline order; anything unanticipated follows
    // alphabetically so new spans can't silently vanish from the report.
    const ORDER: [&str; 12] = [
        "run_batch",
        "job",
        "map",
        "map_block",
        "expand",
        "materialise",
        "finalize",
        "assemble",
        "decode",
        "simulate",
        "batch_sim",
        "simulate_batch",
    ];
    let mut names: Vec<&String> = phases.keys().collect();
    names.sort_by_key(|n| ORDER.iter().position(|o| o == n).unwrap_or(ORDER.len()));
    let rows: Vec<Vec<String>> = names
        .iter()
        .map(|n| {
            let p = &phases[*n];
            vec![
                (*n).clone(),
                p.count.to_string(),
                format!("{:.1}", p.total_us),
                format!("{:.1}", p.total_us / p.count as f64),
                format!("{:.1}", p.max_us),
            ]
        })
        .collect();
    println!("## per-phase (from recorded spans)\n");
    emit_table(&["span", "count", "total µs", "mean µs", "max µs"], &rows);

    if !blocks.is_empty() {
        blocks.sort_by_key(|&(block, _, _)| block);
        let rows: Vec<Vec<String>> = blocks
            .iter()
            .map(|&(block, ops, us)| {
                vec![
                    format!("bb{block}"),
                    ops.to_string(),
                    format!("{us:.1}"),
                    format!("{:.2}", us / ops.max(1) as f64),
                ]
            })
            .collect();
        println!("\n## per-block mapping cost\n");
        emit_table(&["block", "ops", "µs", "µs/op"], &rows);
    }

    // Mapper search-effort counters, straight from the metrics registry.
    let counters = cmam_obs::metrics::registry().counter_snapshot();
    println!("\n## mapper counters\n");
    let rows: Vec<Vec<String>> = counters
        .iter()
        .filter(|(name, _)| {
            (name.starts_with("mapper.") || name.starts_with("sim."))
                && !name.starts_with("mapper.stage_ns.")
        })
        .map(|(name, v)| vec![(*name).to_owned(), v.to_string()])
        .collect();
    emit_table(&["counter", "value"], &rows);

    // Where the mapper's wall time went, from the per-stage timers every
    // `Mapper::map` call flushes.
    const STAGES: [&str; 5] = ["schedule", "expand", "prune", "materialise", "finalize"];
    let stages: Vec<(&str, u64)> = STAGES
        .iter()
        .map(|&stage| {
            let ns = counters
                .iter()
                .find(|(name, _)| name.strip_prefix("mapper.stage_ns.") == Some(stage))
                .map_or(0, |&(_, v)| v);
            (stage, ns)
        })
        .collect();
    let total: u64 = stages.iter().map(|&(_, ns)| ns).sum();
    println!("\n## mapper stage split\n");
    let rows: Vec<Vec<String>> = stages
        .iter()
        .map(|&(stage, ns)| {
            vec![
                stage.to_owned(),
                format!("{:.1}", ns as f64 / 1e3),
                format!("{:.1}", 100.0 * ns as f64 / total.max(1) as f64),
            ]
        })
        .collect();
    emit_table(&["stage", "µs", "share %"], &rows);

    if cli::shared().metrics {
        eprint!("METRICS {}", cmam_obs::metrics::metrics_json());
    }
    if trace_out.as_os_str() != "-" {
        let shown = trace_out.display();
        if let Err(e) = cmam_obs::write_chrome_trace(&trace_out) {
            eprintln!("profile_flow: writing {shown}: {e}");
            std::process::exit(1);
        }
        let written = std::fs::read_to_string(&trace_out).expect("trace file readable");
        match cmam_obs::validate_chrome_trace(&written) {
            Ok(n) => eprintln!("profile_flow: wrote {shown} ({n} events, validated)"),
            Err(e) => {
                eprintln!("profile_flow: {shown} failed validation: {e}");
                std::process::exit(1);
            }
        }
    }
}
