//! # cmam-isa — CGRA instruction set, mapping model and assembler
//!
//! The interface between the mapper (`cmam-core`), the cycle-level
//! simulator (`cmam-sim`) and the experiment harness:
//!
//! * [`instr`] — the per-tile instruction encoding. A context memory holds
//!   three kinds of words, exactly the taxonomy of the paper: *operations*
//!   (including control), *moves*, and *programmable nops* (`pnop`), each
//!   compressing a run of consecutive idle cycles into one word;
//! * [`mapping`] — the placement/routing result produced by the mapper:
//!   operation instances on `(tile, cycle)` slots, move chains, symbol
//!   home tiles;
//! * [`program`] — assembled per-tile contexts ([`TileProgram`],
//!   [`CgraBinary`]) with per-tile word counts;
//! * [`mod@assemble`] — lowers a [`KernelMapping`] to a [`CgraBinary`]:
//!   register allocation, CRF allocation, pnop compression, then
//!   [`check_fit`], the register-file checks and the Section III-C
//!   accounting check `n(Mo) + n(pnop) ≤ n(I)` for every tile.

pub mod assemble;
pub mod instr;
pub mod listing;
pub mod mapping;
pub mod program;

pub use assemble::{assemble, check_fit, lower, AsmReport, AssembleError};
pub use instr::{Instr, Operand};
pub use mapping::{BlockMapping, KernelMapping, OperandSource, PlacedMove, PlacedOp};
pub use program::{CgraBinary, TileProgram};
