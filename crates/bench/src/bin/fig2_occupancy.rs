//! Fig 2: context-memory occupancy of the basic (context-unaware) mapping
//! of matrix multiplication on HOM64 — the load/store tiles become hot
//! spots while most compute tiles stay underused.

use cmam_arch::{CgraConfig, TileId};
use cmam_bench::{emit_table, run_flow};
use cmam_core::FlowVariant;

fn main() {
    cmam_bench::cli::parse("fig2_occupancy", &[]);
    let _obs = cmam_bench::obs_session("fig2_occupancy");
    println!("# Fig 2: per-tile context words, MatM, basic mapping on HOM64\n");
    let spec = cmam_kernels::matm::spec();
    let config = CgraConfig::hom64();
    let out = run_flow(&spec, FlowVariant::Basic, &config).expect("basic fits HOM64");
    let mut rows = Vec::new();
    for i in 0..16 {
        let t = TileId(i);
        let (ops, moves, pnops) = out.report.per_tile[i];
        let words = ops + moves + pnops;
        let cap = config.tile(t).cm_words;
        let bar = "#".repeat((words * 40) / cap.max(1));
        rows.push(vec![
            t.to_string(),
            if config.tile(t).has_lsu { "LSU" } else { "" }.to_owned(),
            ops.to_string(),
            moves.to_string(),
            pnops.to_string(),
            format!("{words}/{cap}"),
            format!("{:>3.0}% {bar}", 100.0 * words as f64 / cap as f64),
        ]);
    }
    emit_table(
        &[
            "Tile",
            "Kind",
            "Ops",
            "Moves",
            "Pnops",
            "Words",
            "Occupancy",
        ],
        &rows,
    );
    let max = out.binary.max_context_words();
    let min = (0..16)
        .map(|i| out.binary.context_words(TileId(i)))
        .min()
        .unwrap();
    println!("\nmax/min context words: {max}/{min} (uneven distribution motivates the paper)");
}
