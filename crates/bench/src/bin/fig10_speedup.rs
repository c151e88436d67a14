//! Fig 10: execution time of the CGRA mappings normalised to the or1k-like
//! CPU. Paper: context-aware mapping performs almost like the basic
//! mapping with much less context memory; average ~10x speed-up, max 22x
//! (HET1) / 19x (HET2), min 5x.

use cmam_arch::CgraConfig;
use cmam_bench::{emit_table, prewarm_smoke_matrix, run_cpu, run_flow};
use cmam_core::FlowVariant;

fn main() {
    cmam_bench::cli::parse("fig10_speedup", &[]);
    let _obs = cmam_bench::obs_session("fig10_speedup");
    println!("# Fig 10: CGRA speed-up over the CPU\n");
    let specs = cmam_kernels::all();
    prewarm_smoke_matrix(&specs);
    let mut rows = Vec::new();
    let mut agg: Vec<f64> = Vec::new();
    for spec in &specs {
        let (cpu, _) = run_cpu(spec);
        let basic =
            run_flow(spec, FlowVariant::Basic, &CgraConfig::hom64()).expect("basic maps on HOM64");
        let het1 = run_flow(spec, FlowVariant::Cab, &CgraConfig::het1());
        let het2 = run_flow(spec, FlowVariant::Cab, &CgraConfig::het2());
        let spd = |c: u64| cpu.cycles as f64 / c as f64;
        let mut row = vec![
            spec.name.to_owned(),
            cpu.cycles.to_string(),
            format!("{:.1}x", spd(basic.cycles)),
        ];
        for r in [&het1, &het2] {
            match r {
                Ok(o) => {
                    row.push(format!("{:.1}x", spd(o.cycles)));
                    agg.push(spd(o.cycles));
                }
                Err(e) => {
                    row.push("-".to_owned());
                    eprintln!("  {}: {e}", spec.name);
                }
            }
        }
        rows.push(row);
    }
    emit_table(
        &[
            "Kernel",
            "CPU cyc",
            "basic/HOM64",
            "aware/HET1",
            "aware/HET2",
        ],
        &rows,
    );
    if !agg.is_empty() {
        let avg = agg.iter().sum::<f64>() / agg.len() as f64;
        let max = agg.iter().cloned().fold(f64::MIN, f64::max);
        let min = agg.iter().cloned().fold(f64::MAX, f64::min);
        println!(
            "\ncontext-aware speed-up: avg {avg:.1}x, max {max:.1}x, min {min:.1}x \
             (paper: avg ~10x, max 22x/19x, min 5x)"
        );
    }
}
