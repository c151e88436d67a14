//! # cmam-bench — experiment harness
//!
//! Shared plumbing for the experiment binaries: one per paper table or
//! figure (`tab1_configs`, `fig2_occupancy`, `fig5_traversal`,
//! `fig6_8_latency`, `fig9_compile_time`, `fig10_speedup`, `fig11_area`,
//! `tab2_energy`), one per scenario beyond the paper (`dse_pareto`,
//! `input_sweep`, `ablation_population`) and the `smoke`, `gen_suite`
//! and `profile_flow` checks. The repository's benchmark is the separate
//! `perfbench/` package, which uses only [`cgra_energy_of`] and
//! [`mul_fraction`] from this crate.
//!
//! Every binary's `main` first calls [`cli::parse`] with its own flag
//! table. All mapping work goes through the shared [`engine()`] — a
//! [`cmam_engine::Engine`] that deduplicates identical jobs, runs batches
//! on a work-stealing thread pool (`--jobs N`) and memoises every outcome
//! in memory and on disk (`target/cmam-cache/`, skipped under
//! `--no-cache`); tables go through [`emit_table`] (`--csv`).

use cmam_arch::CgraConfig;
use cmam_cdfg::{Cdfg, Opcode};
use cmam_core::FlowVariant;
use cmam_cpu::{CpuModel, CpuStats};
use cmam_energy::{cpu_energy, EnergyBreakdown, EnergyParams};
use cmam_kernels::KernelSpec;
use std::sync::OnceLock;

pub mod cli;
pub mod gen;
pub mod obs_session;

pub use gen::GenCli;
pub use obs_session::{obs_session, ObsSession};

pub use cmam_engine::{
    smoke_matrix, Engine, EngineOptions, EngineStats, FailStage, JobFailure, JobRequest, RunOutcome,
};

/// Root seed of the batched input sets of `input_sweep` and
/// `profile_flow` (lane `l` of a kernel simulates
/// `input_image(BATCH_SEED, l, ..)`).
pub const BATCH_SEED: u64 = 0xBA7C_5EED;

/// The process-wide compilation engine, configured once from the shared
/// flags `main` parsed (`--jobs N`, `--no-cache`; see [`cli::shared`]).
///
/// Binaries share this instance so that repeated (kernel, flow, config)
/// combinations — e.g. the HOM64 baseline every figure normalises to —
/// compile exactly once per process, and once per *cache lifetime* across
/// processes.
pub fn engine() -> &'static Engine {
    ENGINE.get_or_init(|| {
        let flags = cli::shared();
        Engine::new(EngineOptions {
            jobs: flags.jobs,
            cache_dir: (!flags.no_cache).then(EngineOptions::default_cache_dir),
            cache_bytes: EngineOptions::cache_bytes_from_env(),
        })
    })
}

static ENGINE: OnceLock<Engine> = OnceLock::new();

/// The shared engine if some code path already constructed it — used by
/// the [`obs_session()`] end-of-run summary, which must not *create* an
/// engine (and its cache directory) in binaries that never compiled
/// anything.
pub fn engine_if_started() -> Option<&'static Engine> {
    ENGINE.get()
}

/// Warms the shared engine with one parallel batch over the canonical
/// smoke matrix for the given kernels; per-row [`run_flow`] lookups after
/// this are memo hits, so callers keep simple sequential table-building
/// code while the actual mapping work ran in parallel.
pub fn prewarm_smoke_matrix(specs: &[KernelSpec]) {
    let matrix = smoke_matrix();
    let requests: Vec<JobRequest> = specs
        .iter()
        .flat_map(|s| matrix.iter().map(move |(v, c)| JobRequest::flow(s, *v, c)))
        .collect();
    engine().run_batch(&requests);
}

/// Maps, assembles, simulates and checks one kernel with one flow variant
/// on one configuration, through the shared [`engine()`].
pub fn run_flow(
    spec: &KernelSpec,
    variant: FlowVariant,
    config: &CgraConfig,
) -> Result<RunOutcome, JobFailure> {
    engine().run_one(&JobRequest::flow(spec, variant, config))
}

/// Runs the CPU baseline for a kernel, returning the profile and checking
/// the outputs against the reference.
pub fn run_cpu(spec: &KernelSpec) -> (CpuStats, EnergyBreakdown) {
    let model = CpuModel::default();
    let mut mem = spec.mem.clone();
    let (stats, _) = model
        .run(&spec.cdfg, &mut mem, 100_000_000)
        .expect("kernels terminate");
    spec.check(&mem)
        .unwrap_or_else(|(i, got, want)| panic!("CPU run wrong: mem[{i}]={got}, want {want}"));
    let energy = cpu_energy(&EnergyParams::default(), &stats);
    (stats, energy)
}

/// Static fraction of multiply operations among a kernel's ALU operations
/// (weights the CGRA datapath energy).
pub fn mul_fraction(cdfg: &Cdfg) -> f64 {
    let mut alu = 0usize;
    let mut mul = 0usize;
    for b in cdfg.block_ids() {
        for op in cdfg.dfg(b).ops() {
            if !op.opcode.is_memory() {
                alu += 1;
                if op.opcode == Opcode::Mul {
                    mul += 1;
                }
            }
        }
    }
    if alu == 0 {
        0.0
    } else {
        mul as f64 / alu as f64
    }
}

/// CGRA energy of a run outcome under the default parameters.
pub fn cgra_energy_of(spec: &KernelSpec, config: &CgraConfig, out: &RunOutcome) -> EnergyBreakdown {
    cmam_energy::cgra_energy(
        &EnergyParams::default(),
        config,
        &out.sim,
        mul_fraction(&spec.cdfg),
    )
}

/// Renders a markdown-style table: a header row plus data rows.
///
/// Ragged input is tolerated: rows wider than the header grow extra
/// columns, rows narrower than the widest are padded with empty cells.
/// An empty row set prints just the header and separator.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let ncols = rows
        .iter()
        .map(Vec::len)
        .max()
        .unwrap_or(0)
        .max(headers.len());
    let mut widths = vec![0usize; ncols];
    for (i, h) in headers.iter().enumerate() {
        widths[i] = h.len();
    }
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::from("|");
        for (i, w) in widths.iter().enumerate() {
            let empty = String::new();
            let c = cells.get(i).unwrap_or(&empty);
            s.push_str(&format!(" {:<w$} |", c, w = w));
        }
        println!("{s}");
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    println!("{sep}");
    for row in rows {
        line(row);
    }
}

/// Renders the same data as RFC-4180-style CSV (quoting cells containing
/// commas, quotes or newlines).
pub fn print_csv(headers: &[&str], rows: &[Vec<String>]) {
    let quote = |cell: &str| -> String {
        if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_owned()
        }
    };
    println!(
        "{}",
        headers
            .iter()
            .map(|h| quote(h))
            .collect::<Vec<_>>()
            .join(",")
    );
    for row in rows {
        println!(
            "{}",
            row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(",")
        );
    }
}

/// Prints the table, and — when `main` parsed `--csv` — the same data
/// again as CSV after a blank line. Every experiment binary emits its
/// tables through this.
pub fn emit_table(headers: &[&str], rows: &[Vec<String>]) {
    print_table(headers, rows);
    if cli::shared().csv {
        println!();
        print_csv(headers, rows);
    }
}

/// Formats a ratio as e.g. `2.31x`, or `-` for a missing or undefined
/// data point (`None`, NaN or an infinity — a `0/0` latency ratio must
/// render as missing, not as `NaNx`).
pub fn ratio(value: Option<f64>) -> String {
    match value {
        Some(v) if v.is_finite() => format!("{v:.2}x"),
        _ => "-".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_fraction_counts_static_ops() {
        let spec = cmam_kernels::fir::spec();
        let f = mul_fraction(&spec.cdfg);
        assert!(f > 0.1 && f < 0.5, "{f}");
    }

    #[test]
    fn run_cpu_produces_cycles_and_energy() {
        let spec = cmam_kernels::dc::spec();
        let (stats, energy) = run_cpu(&spec);
        assert!(stats.cycles > 0);
        assert!(energy.total() > 0.0);
    }

    #[test]
    fn ratio_formats_values_and_rejects_non_finite() {
        assert_eq!(ratio(Some(2.309)), "2.31x");
        assert_eq!(ratio(Some(0.0)), "0.00x");
        assert_eq!(ratio(None), "-");
        assert_eq!(ratio(Some(f64::NAN)), "-");
        assert_eq!(ratio(Some(f64::INFINITY)), "-");
        assert_eq!(ratio(Some(f64::NEG_INFINITY)), "-");
    }

    #[test]
    fn print_table_handles_empty_and_ragged_rows() {
        // These must simply not panic; the old implementation indexed
        // `widths[i]` out of bounds for rows wider than the header.
        print_table(&["A", "B"], &[]);
        print_table(&["A"], &[vec!["1".into(), "2".into(), "3".into()], vec![]]);
        print_table(&[], &[vec!["x".into()]]);
    }

    #[test]
    fn csv_quotes_only_what_needs_quoting() {
        // print_csv writes to stdout; exercise the quoting rule through a
        // row that would break naive joining.
        print_csv(
            &["name", "note"],
            &[vec!["a,b".into(), "say \"hi\"\nok".into()]],
        );
    }

    #[test]
    fn run_flow_through_engine_matches_direct_execution() {
        let spec = cmam_kernels::dc::spec();
        let config = CgraConfig::hom64();
        let via_engine = run_flow(&spec, FlowVariant::Basic, &config).expect("DC maps");
        let direct = cmam_engine::execute(&JobRequest::flow(&spec, FlowVariant::Basic, &config))
            .expect("DC maps");
        assert_eq!(via_engine.content_digest(), direct.content_digest());
    }
}
