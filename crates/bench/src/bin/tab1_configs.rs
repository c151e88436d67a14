//! Table I: the four context-memory configurations.

use cmam_arch::CgraConfig;
use cmam_bench::emit_table;

fn main() {
    cmam_bench::cli::parse("tab1_configs", &[]);
    let _obs = cmam_bench::obs_session("tab1_configs");
    println!("# Table I: context-memory configurations\n");
    let rows: Vec<Vec<String>> = CgraConfig::table_one()
        .iter()
        .map(|c| {
            let lsu = c
                .lsu_tiles()
                .iter()
                .map(|t| t.display_index().to_string())
                .collect::<Vec<_>>()
                .join(",");
            let group = |words: usize| {
                let tiles: Vec<String> = c
                    .tiles()
                    .filter(|(_, t)| t.cm_words == words)
                    .map(|(i, _)| i.display_index().to_string())
                    .collect();
                if tiles.is_empty() {
                    "-".to_owned()
                } else {
                    tiles.join(",")
                }
            };
            vec![
                c.name().to_owned(),
                lsu,
                group(64),
                group(32),
                group(16),
                c.total_cm_words().to_string(),
            ]
        })
        .collect();
    emit_table(
        &["Config", "LSU tiles", "CM 64", "CM 32", "CM 16", "Total"],
        &rows,
    );
}
