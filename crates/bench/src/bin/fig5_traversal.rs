//! Fig 5: pnop and move counts of the weighted CDFG traversal normalised
//! to the forward traversal (basic flow), on an unconstrained 4x4 CGRA.
//! The paper plots FFT; the trend holds for all kernels, so all seven are
//! reported with FFT highlighted.

use cmam_arch::CgraConfig;
use cmam_bench::{emit_table, engine, run_flow, JobRequest};
use cmam_core::FlowVariant;

fn main() {
    cmam_bench::cli::parse("fig5_traversal", &[]);
    let _obs = cmam_bench::obs_session("fig5_traversal");
    println!("# Fig 5: weighted traversal vs forward traversal (pnops, moves)\n");
    let config = CgraConfig::unconstrained_4x4();
    // Warm the engine in one parallel batch; the per-row lookups below
    // are then memo hits, so the table renders in deterministic order.
    let specs = cmam_kernels::all();
    let requests: Vec<JobRequest> = specs
        .iter()
        .flat_map(|s| {
            [
                JobRequest::flow(s, FlowVariant::Basic, &config),
                JobRequest::flow(s, FlowVariant::Weighted, &config),
            ]
        })
        .collect();
    engine().run_batch(&requests);
    let mut rows = Vec::new();
    let mut sums = (0.0, 0.0, 0usize);
    for spec in &specs {
        let fwd = run_flow(spec, FlowVariant::Basic, &config).expect("forward maps");
        let wgt = run_flow(spec, FlowVariant::Weighted, &config).expect("weighted maps");
        let pn_f = fwd.report.total_pnops() as f64;
        let pn_w = wgt.report.total_pnops() as f64;
        let mv_f = fwd.report.total_moves().max(1) as f64;
        let mv_w = wgt.report.total_moves() as f64;
        let rp = pn_w / pn_f;
        let rm = mv_w / mv_f;
        sums.0 += rp;
        sums.1 += rm;
        sums.2 += 1;
        rows.push(vec![
            spec.name.to_owned(),
            format!("{:.0}", pn_f),
            format!("{:.0}", pn_w),
            format!("{:.2}", rp),
            format!("{:.0}", mv_f),
            format!("{:.0}", mv_w),
            format!("{:.2}", rm),
        ]);
    }
    emit_table(
        &[
            "Kernel",
            "pnops fwd",
            "pnops wgt",
            "pnop ratio",
            "moves fwd",
            "moves wgt",
            "move ratio",
        ],
        &rows,
    );
    println!(
        "\naverage ratios: pnops {:.2}, moves {:.2} (paper, FFT: pnops 0.76, moves 0.58)",
        sums.0 / sums.2 as f64,
        sums.1 / sums.2 as f64
    );
}
