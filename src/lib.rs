//! # cmam — Context-Memory Aware Mapping for CGRAs
//!
//! Umbrella crate re-exporting the whole tool-chain of the DATE 2019 paper
//! reproduction *"Context-memory Aware Mapping for Energy Efficient
//! Acceleration with CGRAs"* (Das, Martin, Coussy):
//!
//! * [`arch`] — CGRA architecture model (torus grid, tiles, Table I
//!   context-memory configurations, TEDG);
//! * [`cdfg`] — control-data-flow-graph IR, builder, analyses, reference
//!   interpreter;
//! * [`kernels`] — the seven evaluation kernels (FIR, MatMul, Convolution,
//!   separable/non-separable filters, FFT, DC filter);
//! * [`isa`] — instruction encoding, mapping model, assembler with pnop
//!   compression;
//! * [`pool`] — the shared persistent thread pool the engine's batches
//!   run on;
//! * [`core`] — the paper's contribution: the basic mapping flow and the
//!   context-memory aware flow (weighted traversal + ACMAP + ECMAP + CAB);
//! * [`sim`] — cycle-level CGRA simulator;
//! * [`cpu`] — or1k-like scalar CPU baseline;
//! * [`energy`] — area and energy models (Fig 11, Table II);
//! * [`engine`] — parallel, content-addressed batch compilation engine
//!   (job dedup, work-stealing pool, in-memory + on-disk memoisation);
//! * [`fault`] — seeded deterministic fault injection (chaos testing of
//!   the engine's retry/quarantine and self-healing cache paths).
//!
//! See the repository README for a quickstart and `DESIGN.md` for the
//! system inventory and experiment index.

pub use cmam_arch as arch;
pub use cmam_cdfg as cdfg;
pub use cmam_core as core;
pub use cmam_cpu as cpu;
pub use cmam_energy as energy;
pub use cmam_engine as engine;
pub use cmam_fault as fault;
pub use cmam_isa as isa;
pub use cmam_kernels as kernels;
pub use cmam_pool as pool;
pub use cmam_sim as sim;
