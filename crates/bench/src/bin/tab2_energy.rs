//! Table II: energy per kernel (µJ) for the CPU, the basic mapping on
//! HOM64 and the context-aware mapping on HET1/HET2, with gains.
//! Paper: aware vs basic avg 2.3x (max 3.1x, min 1.4x); aware vs CPU avg
//! 14x (max 23x, min 5x).

use cmam_arch::CgraConfig;
use cmam_bench::{cgra_energy_of, emit_table, prewarm_smoke_matrix, run_cpu, run_flow};
use cmam_core::FlowVariant;

fn main() {
    cmam_bench::cli::parse("tab2_energy", &[]);
    let _obs = cmam_bench::obs_session("tab2_energy");
    println!("# Table II: energy (µJ)\n");
    let hom64 = CgraConfig::hom64();
    let het1 = CgraConfig::het1();
    let het2 = CgraConfig::het2();
    let specs = cmam_kernels::all();
    prewarm_smoke_matrix(&specs);
    let mut rows = Vec::new();
    let mut gains_vs_basic: Vec<f64> = Vec::new();
    let mut gains_vs_cpu: Vec<f64> = Vec::new();
    for spec in &specs {
        let (_, cpu_e) = run_cpu(spec);
        let cpu_uj = cpu_e.total();
        let basic = run_flow(spec, FlowVariant::Basic, &hom64).expect("basic maps");
        let b_uj = cgra_energy_of(spec, &hom64, &basic).total();
        let mut row = vec![
            spec.name.to_owned(),
            format!("{cpu_uj:.4}"),
            format!("{b_uj:.4} ({:.0}x)", cpu_uj / b_uj),
        ];
        for config in [&het1, &het2] {
            match run_flow(spec, FlowVariant::Cab, config) {
                Ok(out) => {
                    let uj = cgra_energy_of(spec, config, &out).total();
                    row.push(format!("{uj:.4} ({:.0}x)", cpu_uj / uj));
                    gains_vs_basic.push(b_uj / uj);
                    gains_vs_cpu.push(cpu_uj / uj);
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
            "CPU µJ",
            "basic HOM64 µJ (vs CPU)",
            "aware HET1 µJ (vs CPU)",
            "aware HET2 µJ (vs CPU)",
        ],
        &rows,
    );
    let stats = |v: &[f64]| {
        let avg = v.iter().sum::<f64>() / v.len() as f64;
        let max = v.iter().cloned().fold(f64::MIN, f64::max);
        let min = v.iter().cloned().fold(f64::MAX, f64::min);
        (avg, max, min)
    };
    if !gains_vs_basic.is_empty() {
        let (a, mx, mn) = stats(&gains_vs_basic);
        println!(
            "\naware vs basic: avg {a:.2}x, max {mx:.2}x, min {mn:.2}x (paper: 2.3x / 3.1x / 1.4x)"
        );
        let (a, mx, mn) = stats(&gains_vs_cpu);
        println!("aware vs CPU:   avg {a:.1}x, max {mx:.1}x, min {mn:.1}x (paper: 14x / 23x / 5x)");
    }
}
