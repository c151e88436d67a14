//! # cmam-cdfg — Control Data Flow Graph IR
//!
//! The application representation mapped onto the CGRA, following
//! Section III-A of the paper: a CDFG `C = (V, E)` whose nodes are basic
//! blocks and whose edges are control flow; each basic block holds a
//! bipartite data-flow graph `b = (Vd, Vo, E)` of data nodes and operation
//! nodes.
//!
//! Cross-block values are **symbol variables** ([`Symbol`]): named storage
//! locations that the mapper pins to a register-file slot of a *home tile*
//! ("the symbol variables are always placed into the register file rather
//! than spilling into the memory"). Within a block, values are in SSA form.
//!
//! The crate provides:
//!
//! * the IR itself ([`Cdfg`], [`BasicBlock`], [`Dfg`], [`Op`], [`Value`]);
//! * a fluent [`CdfgBuilder`] used by `cmam-kernels` and the examples;
//! * structural validation ([`Cdfg::validate`]);
//! * per-block analyses ([`analysis`]): ASAP/ALAP schedules, mobility,
//!   fan-outs, memory-order edges and the block weight
//!   `Wbb = n(s) + Σ f_s` driving the paper's weighted traversal;
//! * a reference interpreter ([`interp`]) providing golden outputs for the
//!   CGRA simulator and the execution trace for the CPU baseline model.
//!
//! ```
//! use cmam_cdfg::{CdfgBuilder, Opcode};
//!
//! // acc = 0; for i in 0..4 { acc += i }; mem[0] = acc
//! let mut b = CdfgBuilder::new("sum");
//! let entry = b.block("entry");
//! let body = b.block("body");
//! let exit = b.block("exit");
//! let i = b.symbol("i");
//! let acc = b.symbol("acc");
//!
//! b.select(entry);
//! b.mov_const_to_symbol(0, i);
//! b.mov_const_to_symbol(0, acc);
//! b.jump(body);
//!
//! b.select(body);
//! let iv = b.use_symbol(i);
//! let av = b.use_symbol(acc);
//! let sum = b.op(Opcode::Add, &[av, iv]);
//! b.write_symbol(sum, acc);
//! let c1 = b.constant(1);
//! let inext = b.op(Opcode::Add, &[iv, c1]);
//! b.write_symbol(inext, i);
//! let n = b.constant(4);
//! let cond = b.op(Opcode::Lt, &[inext, n]);
//! b.branch(cond, body, exit);
//!
//! b.select(exit);
//! let a2 = b.use_symbol(acc);
//! let addr = b.constant(0);
//! b.store(addr, a2, "out");
//! b.ret();
//!
//! let cdfg = b.finish()?;
//! let mut mem = vec![0i32; 4];
//! cmam_cdfg::interp::run(&cdfg, &mut mem, 10_000)?;
//! assert_eq!(mem[0], 0 + 1 + 2 + 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod analysis;
pub mod builder;
pub mod cdfg;
pub mod dfg;
pub mod generate;
pub mod interp;
pub mod op;
pub mod validate;
pub mod value;

pub use builder::CdfgBuilder;
pub use cdfg::{BasicBlock, BlockId, Cdfg, Terminator};
pub use dfg::{Dfg, Op, OpId};
pub use generate::{generate, input_image, Fanout, GenParams, GeneratedKernel, SplitMix64};
pub use interp::{InterpError, InterpStats};
pub use op::Opcode;
pub use validate::ValidateError;
pub use value::{Symbol, SymbolId, Value, ValueId, ValueKind};
