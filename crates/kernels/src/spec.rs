//! The kernel descriptor consumed by experiments and tests.

use cmam_cdfg::Cdfg;
use std::ops::Range;

/// A ready-to-run kernel instance: CDFG, initial memory, and the expected
/// output (computed by the kernel's plain-Rust reference implementation).
#[derive(Debug, Clone)]
pub struct KernelSpec {
    /// Kernel name: a paper-table name ("FIR", "MatM", …) for the seven
    /// hand-written kernels, or `gen-<profile>-<seed>` for generated ones.
    pub name: String,
    /// The kernel CDFG.
    pub cdfg: Cdfg,
    /// Initial data-memory image.
    pub mem: Vec<i32>,
    /// Where the outputs land in memory.
    pub out: Range<usize>,
    /// Expected contents of `out` after execution.
    pub expected: Vec<i32>,
}

impl KernelSpec {
    /// Checks a post-run memory image against the expected outputs,
    /// returning the first mismatch as `(index, got, want)`.
    pub fn check(&self, mem: &[i32]) -> Result<(), (usize, i32, i32)> {
        for (k, (&got, &want)) in mem[self.out.clone()]
            .iter()
            .zip(self.expected.iter())
            .enumerate()
        {
            if got != want {
                return Err((self.out.start + k, got, want));
            }
        }
        Ok(())
    }
}

/// Value range of swept input images: small enough that long multiply
/// chains stay interesting, matching the generated kernels' own fill.
const INPUT_RANGE: i32 = 64;

/// `n` deterministic input memory images for `spec`, one per lane,
/// derived from `(seed, lane)` via [`cmam_cdfg::input_image`]. Input
/// sweeps, the batch bench and the batch property tests all regenerate
/// identical images from the same two integers. Each image has the
/// spec's own memory size, so every in-bounds kernel stays in bounds on
/// every lane.
pub fn lane_images(spec: &KernelSpec, seed: u64, n: usize) -> Vec<Vec<i32>> {
    lane_images_in(spec.mem.len(), seed, 0..n)
}

/// The images of lanes `lanes` of the same input set, for a kernel whose
/// memory holds `mem_len` words: `lane_images_in(spec.mem.len(), seed,
/// a..b)` equals `lane_images(spec, seed, b)[a..b]`, so a sweep cut into
/// lane chunks generates each chunk on its own.
pub fn lane_images_in(mem_len: usize, seed: u64, lanes: Range<usize>) -> Vec<Vec<i32>> {
    lanes
        .map(|lane| cmam_cdfg::input_image(seed, lane as u64, mem_len, INPUT_RANGE))
        .collect()
}

/// The paper-sized instances of all seven kernels, in Table II order.
pub fn all() -> Vec<KernelSpec> {
    vec![
        crate::fir::spec(),
        crate::matm::spec(),
        crate::conv::spec(),
        crate::sep::spec(),
        crate::nonsep::spec(),
        crate::fft::spec(),
        crate::dc::spec(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_seven_kernels_build_and_validate() {
        let kernels = all();
        assert_eq!(kernels.len(), 7);
        let names: Vec<_> = kernels.iter().map(|k| k.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "FIR",
                "MatM",
                "Convolution",
                "SepFilter",
                "NonSepFilter",
                "FFT",
                "DC Filter"
            ]
        );
        for k in &kernels {
            k.cdfg
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", k.name));
            assert!(!k.expected.is_empty(), "{} has no expected data", k.name);
            assert!(k.out.end <= k.mem.len(), "{} output range oob", k.name);
        }
    }

    #[test]
    fn every_kernel_interprets_to_its_reference() {
        for k in all() {
            let mut mem = k.mem.clone();
            cmam_cdfg::interp::run(&k.cdfg, &mut mem, 10_000_000)
                .unwrap_or_else(|e| panic!("{}: {e}", k.name));
            k.check(&mem).unwrap_or_else(|(i, got, want)| {
                panic!("{}: mem[{i}] = {got}, want {want}", k.name)
            });
        }
    }
}
