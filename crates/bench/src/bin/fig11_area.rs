//! Fig 11: area comparison of the CGRA configurations against the CPU.
//! Paper: HOM64 ~2x the CPU, HET1/HET2 ~1.5x thanks to the smaller
//! context memories; a 64-word CM is ~40% of a PE.

use cmam_arch::CgraConfig;
use cmam_bench::emit_table;
use cmam_energy::{cgra_area, cpu_area, AreaParams};

fn main() {
    cmam_bench::cli::parse("fig11_area", &[]);
    let _obs = cmam_bench::obs_session("fig11_area");
    println!("# Fig 11: area comparison (µm², synthetic 28nm-scale model)\n");
    let p = AreaParams::default();
    let cpu = cpu_area(&p);
    let mut rows = vec![vec![
        "CPU (or1k + mem)".to_owned(),
        format!("{:.0}", cpu.logic),
        format!("{:.0}", cpu.instruction_memory),
        format!("{:.0}", cpu.interconnect),
        format!("{:.0}", cpu.data_memory),
        format!("{:.0}", cpu.total()),
        "1.00x".to_owned(),
    ]];
    for config in CgraConfig::table_one() {
        let a = cgra_area(&p, &config);
        rows.push(vec![
            config.name().to_owned(),
            format!("{:.0}", a.logic),
            format!("{:.0}", a.instruction_memory),
            format!("{:.0}", a.interconnect),
            format!("{:.0}", a.data_memory),
            format!("{:.0}", a.total()),
            format!("{:.2}x", a.total() / cpu.total()),
        ]);
    }
    emit_table(
        &[
            "Design",
            "Logic",
            "Instr mem",
            "Interco+ctrl",
            "Data mem",
            "Total",
            "vs CPU",
        ],
        &rows,
    );
    println!("\n(paper: HOM64 ~2x CPU, HET1/HET2 ~1.5x)");
}
