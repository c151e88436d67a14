//! Figs 6–8: latency of each context-aware flow step on the constrained
//! configurations (HOM32, HET1, HET2), normalised to the basic mapping
//! on HOM64 — Fig 6 adds ACMAP to the basic flow, Fig 7 also ECMAP and
//! Fig 8 also CAB. Failures print as `0 (none)` — the zero bars of the
//! paper's charts.
//!
//! All 70 distinct jobs (7 kernels x (1 baseline + 3 flows x 3 configs))
//! go to the engine as one batch, so they run in parallel and each
//! baseline compiles once; the three tables render afterwards in fixed
//! order, so the output is byte-identical for any `--jobs` count.
//!
//! `--min-memory` prints instead, per kernel and flow, the smallest
//! uniform context memory at which the kernel maps and assembles, and
//! every larger one at which it fails (see [`cmam_bench::min_memory`]):
//! 7 kernels x 5 flows x 61 sizes in one batch. Under the table, each
//! flow's minima summed over the kernels, and that sum's ratio to the
//! basic flow's. How many of those jobs
//! the engine had to map depends on scheduling and on the artifact
//! store, so that count goes to stderr and stdout stays a function of
//! the jobs.

use cmam_arch::CgraConfig;
use cmam_bench::cli::{Flag, Kind::Switch};
use cmam_bench::min_memory::{summed_minima, uniform_scan, WORDS};
use cmam_bench::{emit_table, engine, ratio, JobRequest};
use cmam_core::FlowVariant::{self, Acmap, Cab, Ecmap};
use std::iter::once;

const FIGURES: [(&str, FlowVariant); 3] = [
    ("Fig 6: latency, basic + ACMAP", Acmap),
    ("Fig 7: latency, basic + ACMAP + ECMAP", Ecmap),
    ("Fig 8: latency, basic + ACMAP + ECMAP + CAB", Cab),
];

/// Column heads of the `--min-memory` table, in `FlowVariant::ALL` order.
const FLOW_HEADS: [&str; 5] = ["basic", "weighted", "ACMAP", "ECMAP", "CAB"];

fn main() {
    let args = cmam_bench::cli::parse("fig6_8_latency", &[Flag("--min-memory", Switch)]);
    let _obs = cmam_bench::obs_session("fig6_8_latency");
    if args.on("--min-memory") {
        min_memory();
    } else {
        figures();
    }
}

fn min_memory() {
    let specs = cmam_kernels::all();
    let before = engine().stats();
    let scans = uniform_scan(engine(), &specs);
    let after = engine().stats();
    println!("# Smallest uniform context memory (words per tile) that maps and assembles\n");
    let mut heads = vec!["Kernel"];
    heads.extend(FLOW_HEADS);
    let words = |min: Option<usize>| min.map_or_else(|| "none".to_owned(), |w| w.to_string());
    let mut rows: Vec<Vec<String>> = scans
        .chunks(FLOW_HEADS.len())
        .map(|flows| {
            let mut row = vec![flows[0].kernel.clone()];
            row.extend(flows.iter().map(|s| words(s.min)));
            row
        })
        .collect();
    let sums = summed_minima(&scans);
    let to_basic = sums
        .iter()
        .map(|s| ratio(s.zip(sums[0]).map(|(s, b)| s as f64 / b as f64)));
    rows.push(
        once("Sum".to_owned())
            .chain(sums.iter().map(|&s| words(s)))
            .collect(),
    );
    rows.push(once("Sum vs basic".to_owned()).chain(to_basic).collect());
    emit_table(&heads, &rows);
    println!("\nFailures above the minimum:");
    let mut breaks = 0;
    for scan in scans.iter().filter(|s| !s.fails_above.is_empty()) {
        let sizes: Vec<String> = scan.fails_above.iter().map(usize::to_string).collect();
        println!(
            "  {} / {}: W = {}",
            scan.kernel,
            scan.flow,
            sizes.join(", ")
        );
        breaks += scan.fails_above.len();
    }
    println!(
        "\n({} jobs: {} kernels x {} flows x W = {}..={} on a uniform 4x4 array; \
         {breaks} sizes fail above their minimum)",
        specs.len() * FLOW_HEADS.len() * WORDS.count(),
        specs.len(),
        FLOW_HEADS.len(),
        WORDS.start(),
        WORDS.end(),
    );
    let executed = after.executed - before.executed;
    let in_regions = after.region_hits - before.region_hits;
    eprintln!(
        "min-memory: {} jobs submitted, {} maps run, {in_regions} answered inside an earlier \
         map's region, {} answered by the memo table or the artifact store",
        after.submitted - before.submitted,
        executed - in_regions,
        (after.memory_hits - before.memory_hits) + (after.disk_hits - before.disk_hits),
    );
}

fn figures() {
    let specs = cmam_kernels::all();
    let hom64 = CgraConfig::hom64();
    let configs = [CgraConfig::hom32(), CgraConfig::het1(), CgraConfig::het2()];
    let mut requests: Vec<JobRequest> = specs
        .iter()
        .map(|spec| JobRequest::flow(spec, FlowVariant::Basic, &hom64))
        .collect();
    for (_, variant) in FIGURES {
        for spec in &specs {
            for config in &configs {
                requests.push(JobRequest::flow(spec, variant, config));
            }
        }
    }
    let results = engine().run_batch(&requests);
    let (bases, cells) = results.split_at(specs.len());
    for ((title, variant), cells) in FIGURES
        .iter()
        .zip(cells.chunks(bases.len() * configs.len()))
    {
        println!("# {title} (flow: {variant})\n");
        let mut rows = Vec::new();
        for ((spec, base), cells) in specs.iter().zip(bases).zip(cells.chunks(configs.len())) {
            let base = base.as_ref().expect("basic maps on HOM64");
            let mut row = vec![spec.name.to_owned(), base.cycles.to_string()];
            for (config, cell) in configs.iter().zip(cells) {
                match cell {
                    Ok(out) => row.push(format!("{:.2}", out.cycles as f64 / base.cycles as f64)),
                    Err(e) => {
                        row.push("0 (none)".to_owned());
                        eprintln!("  [{}] {}: {e}", config.name(), spec.name);
                    }
                }
            }
            rows.push(row);
        }
        emit_table(&["Kernel", "base cyc", "HOM32", "HET1", "HET2"], &rows);
        println!("\n(latency normalised to basic mapping on HOM64; 0 = no mapping found)");
    }
}
