//! Golden digest of the **batched** simulator over the same 175-job
//! suite (7 kernels × 5 golden configurations × 5 flow variants) that
//! `golden_equivalence` pins for the solo path: every mappable job is
//! run over four seeded input lanes through
//! [`DecodedProgram::simulate_batch`], each lane is checked bit-for-bit
//! against a solo [`DecodedProgram::simulate`] call, and one combined
//! per-job digest (lane stats + lane memories) is pinned in
//! `tests/golden/simulator_batch.golden`.
//!
//! Regenerate (only when an *intentional* semantic change lands) with:
//!
//! ```text
//! CMAM_REGEN_GOLDEN=1 cargo test -p cmam_sim --test golden_batch
//! ```

use cmam_core::{FlowVariant, Mapper};
use cmam_sim::{DecodedProgram, LaneState, SimOptions};
use common::{configs, mem_digest, stats_digest, Fnv};
use std::fmt::Write as _;
use std::path::PathBuf;

mod common;

/// Lanes per job: small (the suite maps 175 jobs), but enough to cover
/// distinct per-lane images.
const LANES: usize = 4;
const SEED: u64 = 0xBA7C_901D;

/// One observed line:
///
/// `<kernel> <variant> <config> ok <combined digest>`
/// `<kernel> <variant> <config> maperr|asmerr <escaped message>`
///
/// A lane that fails to simulate contributes its error string to the
/// digest — mid-batch errors are part of the pinned behaviour.
fn observe(kernel: &str, variant: FlowVariant, config: &cmam_arch::CgraConfig) -> String {
    let spec = cmam_kernels::all()
        .into_iter()
        .find(|s| s.name == kernel)
        .expect("known kernel");
    let head = format!("{kernel} {variant} {}", config.name());
    let esc = |e: String| e.replace(' ', "_");
    let mapper = Mapper::new(variant.options());
    let result = match mapper.map(&spec.cdfg, config) {
        Ok(r) => r,
        Err(e) => return format!("{head} maperr {}", esc(e.to_string())),
    };
    let (binary, _) = match cmam_isa::assemble(&spec.cdfg, &result.mapping, config) {
        Ok(b) => b,
        Err(e) => return format!("{head} asmerr {}", esc(e.to_string())),
    };
    let decoded = DecodedProgram::decode(&binary, config).expect("valid binary decodes");
    let images = cmam_kernels::lane_images(&spec, SEED, LANES);
    let mut lanes: Vec<LaneState> = images.iter().map(|m| LaneState::new(m.clone())).collect();
    let batch = decoded.simulate_batch(&mut lanes, SimOptions::default());
    let mut h = Fnv::new();
    for (l, image) in images.iter().enumerate() {
        // The digest pins the batched path; the solo cross-check makes
        // the pinned value provably the solo simulator's too.
        let mut solo_mem = image.clone();
        let solo = decoded.simulate(&mut solo_mem, SimOptions::default());
        assert_eq!(batch[l], solo, "{head}: lane {l} result diverges from solo");
        assert_eq!(
            lanes[l].mem, solo_mem,
            "{head}: lane {l} memory diverges from solo"
        );
        match &batch[l] {
            Ok(stats) => {
                h.u64(stats_digest(stats));
                h.u64(mem_digest(&lanes[l].mem));
            }
            Err(e) => h.str(&e.to_string()),
        }
    }
    format!("{head} ok {:016x}", h.0)
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("simulator_batch.golden")
}

fn run_suite() -> String {
    let kernels: Vec<String> = cmam_kernels::all().iter().map(|s| s.name.clone()).collect();
    let mut out = String::new();
    for kernel in &kernels {
        for config in &configs() {
            for variant in FlowVariant::ALL {
                let _ = writeln!(out, "{}", observe(kernel, variant, config));
            }
        }
    }
    out
}

#[test]
fn batched_simulator_matches_golden() {
    let path = golden_path();
    let observed = run_suite();
    if std::env::var_os("CMAM_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        std::fs::write(&path, &observed).expect("write golden");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate it with \
             CMAM_REGEN_GOLDEN=1 cargo test -p cmam_sim --test golden_batch",
            path.display()
        )
    });
    let golden_lines: Vec<&str> = golden.lines().collect();
    let observed_lines: Vec<&str> = observed.lines().collect();
    assert_eq!(
        golden_lines.len(),
        observed_lines.len(),
        "suite shape changed: {} golden lines vs {} observed",
        golden_lines.len(),
        observed_lines.len()
    );
    let mut diffs = Vec::new();
    for (g, o) in golden_lines.iter().zip(&observed_lines) {
        if g != o {
            diffs.push(format!("  golden:   {g}\n  observed: {o}"));
        }
    }
    assert!(
        diffs.is_empty(),
        "{} of {} jobs diverged from the golden batched simulator:\n{}",
        diffs.len(),
        golden_lines.len(),
        diffs.join("\n")
    );
}
