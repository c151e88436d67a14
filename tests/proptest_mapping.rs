//! Property-based end-to-end test over *generated* kernels: seeded CDFGs
//! from `cmam_cdfg::generate` (multi-block, loops, branches, symbol
//! pressure — not just straight-line code) are mapped, assembled and
//! simulated, and the CGRA's memory image must always equal the reference
//! interpreter's.
//!
//! Cases are `(profile, seed)` pairs drawn as `gen_suite` draws its
//! kernels: case `k` takes profile `PROFILES[k % PROFILES.len()]` and the
//! `k`-th of `kernel_seeds(root, CASES)`, so every case is a valid kernel
//! by construction and `gen_suite --profile P --kernel-seed S` replays a
//! failing one.

use cmam::arch::CgraConfig;
use cmam::cdfg::generate::GenParams;
use cmam::core::{FlowVariant, Mapper};
use cmam::isa::assemble;
use cmam::kernels::{generated_spec, kernel_seeds};
use cmam::sim::{simulate, SimOptions};

/// Cases per test; each maps and simulates a whole kernel.
const CASES: usize = 64;

/// The cases of the suite rooted at `root`: each one's generator
/// parameters and a label naming its case index and its replay command.
fn cases(root: u64) -> impl Iterator<Item = (GenParams, u64, String)> {
    kernel_seeds(root, CASES)
        .into_iter()
        .enumerate()
        .map(|(k, seed)| {
            let profile = GenParams::PROFILES[k % GenParams::PROFILES.len()];
            let params = GenParams::profile(profile).expect("known profile");
            let at = format!("case {k} (--profile {profile} --kernel-seed {seed:#x})");
            (params, seed, at)
        })
}

#[test]
fn random_kernels_simulate_to_golden() {
    let config = CgraConfig::hom64();
    let mapper = Mapper::new(FlowVariant::Basic.options());
    for (params, seed, at) in cases(0x601d_e45e) {
        let spec = generated_spec(&params, seed);
        let result = mapper.map(&spec.cdfg, &config).unwrap_or_else(|e| {
            panic!("{at}: basic flow maps generated kernels on the unconstrained config: {e}")
        });
        let (binary, report) = assemble(&spec.cdfg, &result.mapping, &config)
            .unwrap_or_else(|e| panic!("{at}: assembles: {e}"));

        // CGRA execution against the interpreter golden (spec.expected).
        let mut mem = spec.mem.clone();
        simulate(&binary, &config, &mut mem, SimOptions::default())
            .unwrap_or_else(|e| panic!("{at}: simulates: {e}"));
        spec.check(&mem)
            .unwrap_or_else(|(i, got, want)| panic!("{at}: mem[{i}] = {got}, want {want}"));

        // Accounting invariants hold for arbitrary programs too.
        for i in 0..16 {
            let t = cmam::arch::TileId(i);
            assert_eq!(
                result.mapping.context_words(t),
                report.words(t),
                "{at}: tile {i}"
            );
        }
    }
}

/// Cases of [`random_kernels_map_context_aware_on_het1`] whose kernel
/// maps, and so reaches the capacity check.
const HET1_MAPPED_FLOOR: usize = 64;

#[test]
fn random_kernels_map_context_aware_on_het1() {
    let config = CgraConfig::het1();
    let mapper = Mapper::new(FlowVariant::Cab.options());
    let mut mapped = 0;
    for (params, seed, at) in cases(0xca8_4e71) {
        let spec = generated_spec(&params, seed);
        // A generated kernel can legitimately exceed HET1's context
        // memories; what must *never* happen is a returned mapping that
        // overflows them.
        let Ok(result) = mapper.map(&spec.cdfg, &config) else {
            continue;
        };
        mapped += 1;
        let (_, report) = assemble(&spec.cdfg, &result.mapping, &config)
            .unwrap_or_else(|e| panic!("{at}: fits: {e}"));
        for (t, tile) in config.tiles() {
            assert!(report.words(t) <= tile.cm_words, "{at}: {t:?}");
        }
    }
    assert!(
        mapped >= HET1_MAPPED_FLOOR,
        "only {mapped} of {CASES} kernels mapped"
    );
}
