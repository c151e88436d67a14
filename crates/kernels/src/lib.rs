//! # cmam-kernels — the paper's seven evaluation kernels
//!
//! Each kernel of Section IV (FIR, matrix multiplication, 2D convolution,
//! separable filter, non-separable filter, FFT, DC filter) is provided as:
//!
//! * a CDFG built with `cmam_cdfg::CdfgBuilder`, structured exactly like
//!   the C kernels the paper compiles: counted loops with symbol-variable
//!   induction, load/compute/store bodies, LSU pressure on the memory
//!   operations;
//! * a deterministic input-memory image;
//! * a plain-Rust *reference implementation* computing the expected output
//!   (each module's tests check `interp(cdfg) == reference`; the
//!   integration tests then check `simulate(map(cdfg)) == interp(cdfg)`).
//!
//! [`all`] returns the paper-sized instances used by every experiment
//! binary in `cmam-bench`.

pub mod conv;
pub mod data;
pub mod dc;
pub mod fft;
pub mod fir;
pub mod generated;
pub mod matm;
pub mod nonsep;
pub mod sep;
pub mod spec;

pub use generated::{generated_spec, kernel_seeds};
pub use spec::{all, lane_images, lane_images_in, KernelSpec};
