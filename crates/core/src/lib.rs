//! # cmam-core — the paper's contribution: CGRA mapping flows
//!
//! Implements the *basic* mapping flow of Das et al. (the baseline from
//! reference \[1\] of the paper) and the proposed **context-memory aware**
//! flow, as a set of independently toggleable steps so that every
//! experiment of the paper (Figs 5-10) can be reproduced:
//!
//! 1. **Weighted CDFG traversal** (Section III-D.1) — basic blocks mapped
//!    in descending `Wbb = n(s) + Σ f_s`;
//! 2. **ACMAP** (Section III-D.2) — approximate context-memory aware
//!    pruning of partial mappings before the stochastic pruning;
//! 3. **ECMAP** (Section III-D.3) — exact context-memory aware pruning at
//!    cycle boundaries;
//! 4. **CAB** (Section III-D.4) — constraint-aware binding: tiles with a
//!    full context memory are blacklisted from candidate generation.
//!
//! The binding is an exact incremental feasibility check against the
//! time-extended resource graph: every operand must be readable from the
//! executing tile's own or a direct neighbour's register file at the
//! scheduled cycle, with `move` instructions inserted over the torus when
//! it is not (re-routing), and producers duplicated near their consumers
//! when even that fails (re-computing). A population of partial mappings
//! is maintained and reduced by a seeded stochastic pruning step, exactly
//! as in the basic flow of the paper.
//!
//! The deviation from the paper (documented in `DESIGN.md`): the per-block
//! list scheduling here traverses the DFG *forward* (producers before
//! consumers) with the same priority function (mobility, then fan-outs)
//! instead of backward. Forward traversal makes every operand location
//! exact at bind time; the context-memory accounting this paper
//! contributes is unaffected.
//!
//! ```
//! use cmam_core::{Mapper, MapperOptions};
//! use cmam_arch::CgraConfig;
//! use cmam_cdfg::{CdfgBuilder, Opcode};
//!
//! let mut b = CdfgBuilder::new("axpy");
//! let bb = b.block("body");
//! b.select(bb);
//! let a0 = b.constant(0);
//! let a1 = b.constant(1);
//! let x = b.load_name(a0, "x");
//! let k = b.constant(3);
//! let kx = b.op(Opcode::Mul, &[k, x]);
//! b.store(a1, kx, "y");
//! b.ret();
//! let cdfg = b.finish()?;
//!
//! let config = CgraConfig::het2();
//! let mapper = Mapper::new(MapperOptions::context_aware());
//! let result = mapper.map(&cdfg, &config)?;
//! assert!(result.mapping.total_length() >= 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod flow;
pub mod options;
pub mod partial;
pub mod prune;
pub mod region;
pub mod schedule;

pub use flow::{CertifiedMap, MapError, MapResult, MapStats, Mapper};
pub use options::{FlowVariant, MapperOptions, Traversal};
pub use partial::{MapPre, Partial};
pub use prune::{acmap_filter, ecmap_filter, stochastic_prune, stochastic_prune_by};
pub use region::{CmRegion, Memory};
pub use schedule::priority_order;
