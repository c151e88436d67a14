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

use cmam_arch::CgraConfig;
use cmam_bench::{emit_table, engine, JobRequest};
use cmam_core::FlowVariant::{self, Acmap, Cab, Ecmap};

const FIGURES: [(&str, FlowVariant); 3] = [
    ("Fig 6: latency, basic + ACMAP", Acmap),
    ("Fig 7: latency, basic + ACMAP + ECMAP", Ecmap),
    ("Fig 8: latency, basic + ACMAP + ECMAP + CAB", Cab),
];

fn main() {
    cmam_bench::cli::parse("fig6_8_latency", &[]);
    let _obs = cmam_bench::obs_session("fig6_8_latency");
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
