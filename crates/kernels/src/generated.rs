//! Bridge from the seeded CDFG generator to runnable [`KernelSpec`]s.
//!
//! [`generated_spec`] turns a `(GenParams, seed)` pair into the same
//! descriptor the seven hand-written kernels use, with the *reference
//! interpreter* as the reference implementation: the expected output is
//! the interpreter's final memory image over the generator-produced input,
//! and the output range is the whole image (every word the pipeline may
//! touch is checked, not just a designated result slot).
//!
//! Seed policy (shared with `gen_suite` and the mapping property suite):
//! a suite is identified by one root seed; per-kernel seeds are derived
//! with [`kernel_seeds`]'s splitmix64 stream so adding or removing a
//! kernel never shifts its neighbours' inputs.

use crate::spec::KernelSpec;
use cmam_cdfg::generate::{generate, GenParams, SplitMix64};

/// Interpreter step budget for computing a generated kernel's expected
/// output. Generated kernels are bounded (counted loops, trip ≤ 32), so
/// this is orders of magnitude above any reachable dynamic op count.
pub const GEN_INTERP_BUDGET: u64 = 10_000_000;

/// Builds a runnable spec for the kernel generated from `(params, seed)`.
///
/// # Panics
///
/// Panics if the reference interpreter fails on the generated kernel —
/// that would be a generator bug (generated kernels terminate and stay in
/// bounds by construction), and every caller wants it loud.
pub fn generated_spec(params: &GenParams, seed: u64) -> KernelSpec {
    let g = generate(params, seed);
    let mut expected = g.mem.clone();
    cmam_cdfg::interp::run(&g.cdfg, &mut expected, GEN_INTERP_BUDGET)
        .unwrap_or_else(|e| panic!("generated kernel {} does not interpret: {e}", g.name));
    let out = 0..g.mem.len();
    KernelSpec {
        name: g.name,
        cdfg: g.cdfg,
        mem: g.mem,
        out,
        expected,
    }
}

/// The per-kernel seed stream for a suite rooted at `root`: the first `n`
/// draws of [`SplitMix64::from_state`]`(root)` (never the root itself, so
/// reusing the root for a kernel does not alias suite and kernel streams).
pub fn kernel_seeds(root: u64, n: usize) -> Vec<u64> {
    let mut rng = SplitMix64::from_state(root);
    (0..n).map(|_| rng.next_u64()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_specs_check_against_themselves() {
        for name in GenParams::PROFILES {
            let p = GenParams::profile(name).unwrap();
            let spec = generated_spec(&p, 99);
            spec.cdfg
                .validate()
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            // The expected image is by definition what the interpreter
            // produces over `mem`.
            let mut mem = spec.mem.clone();
            cmam_cdfg::interp::run(&spec.cdfg, &mut mem, GEN_INTERP_BUDGET).unwrap();
            spec.check(&mem)
                .unwrap_or_else(|(i, g, w)| panic!("{name}: mem[{i}] = {g}, want {w}"));
        }
    }

    #[test]
    fn spec_names_embed_profile_and_seed() {
        let p = GenParams::profile("deep").unwrap();
        let spec = generated_spec(&p, 0xABCD);
        assert_eq!(spec.name, "gen-deep-000000000000abcd");
    }

    #[test]
    fn kernel_seeds_are_stable_and_distinct() {
        let a = kernel_seeds(1, 16);
        let b = kernel_seeds(1, 16);
        assert_eq!(a, b);
        let mut c = a.clone();
        c.sort_unstable();
        c.dedup();
        assert_eq!(c.len(), 16, "collision in the first 16 seeds");
        assert_ne!(kernel_seeds(2, 16), a);
    }

    /// perfbench's `cold_compile` and `input_sweep` pick their kernels
    /// from this stream, so its values are pinned.
    #[test]
    fn kernel_seed_stream_is_pinned() {
        assert_eq!(
            kernel_seeds(1, 4),
            [
                0x910a_2dec_8902_5cc1,
                0xbeeb_8da1_658e_ec67,
                0xf893_a2ee_fb32_555e,
                0x71c1_8690_ee42_c90b,
            ]
        );
    }
}
