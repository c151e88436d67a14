//! The lock-step execution engine: options, errors, and the one-call
//! entry point.
//!
//! The heavy lifting lives in [`crate::decode`]: [`simulate`] decodes
//! the binary into a flat [`DecodedProgram`] and runs its allocation-free
//! cycle loop. Callers that simulate one binary many times (benchmarks,
//! sweeps over memory contents) should decode once and call
//! [`DecodedProgram::simulate`] directly.

use crate::decode::DecodedProgram;
use crate::stats::SimStats;
use cmam_arch::CgraConfig;
use cmam_isa::CgraBinary;
use std::error::Error;
use std::fmt;

/// Simulator knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Number of TCDM banks (bank = word address modulo banks). A value
    /// of `0` is treated as `1` — normalization happens once, in
    /// [`SimOptions::normalized`], never at the point of use.
    pub mem_banks: usize,
    /// Hard cycle budget; exceeded means a non-terminating kernel.
    pub max_cycles: u64,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            mem_banks: 8,
            max_cycles: 50_000_000,
        }
    }
}

impl SimOptions {
    /// The same options with `mem_banks == 0` normalized to `1` (a
    /// degenerate "single bank" memory). Every simulation entry point
    /// calls this exactly once up front, so the cycle loop can divide by
    /// `mem_banks` unguarded.
    pub fn normalized(self) -> Self {
        SimOptions {
            mem_banks: self.mem_banks.max(1),
            ..self
        }
    }
}

/// Failure during simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Memory access outside the data memory.
    OutOfBounds {
        /// Offending word address.
        addr: i64,
        /// Memory size in words.
        size: usize,
    },
    /// Register index outside the tile's RF (corrupt binary).
    BadRegister {
        /// Tile index.
        tile: usize,
        /// Register index.
        reg: u8,
    },
    /// CRF index outside the tile's constants (corrupt binary).
    BadConstant {
        /// Tile index.
        tile: usize,
        /// CRF index.
        idx: u8,
    },
    /// The cycle budget was exhausted.
    MaxCycles(u64),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfBounds { addr, size } => {
                write!(f, "memory access at word {addr} outside size {size}")
            }
            SimError::BadRegister { tile, reg } => {
                write!(f, "tile {tile} reads unknown register r{reg}")
            }
            SimError::BadConstant { tile, idx } => {
                write!(f, "tile {tile} reads unknown CRF slot c{idx}")
            }
            SimError::MaxCycles(n) => write!(f, "cycle budget of {n} exhausted"),
        }
    }
}

impl Error for SimError {}

/// Runs `binary` on the CGRA described by `config` over `mem`.
///
/// Decodes the binary (see [`DecodedProgram::decode`]) and executes the
/// flat program. Output is bit-identical to the reference interpretation
/// in [`crate::reference`].
///
/// # Errors
///
/// See [`SimError`]. On error the memory may be partially updated.
pub fn simulate(
    binary: &CgraBinary,
    config: &CgraConfig,
    mem: &mut [i32],
    options: SimOptions,
) -> Result<SimStats, SimError> {
    DecodedProgram::decode(binary, config)?.simulate(mem, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmam_arch::TileId;
    use cmam_cdfg::{interp, CdfgBuilder, Opcode};
    use cmam_core::{Mapper, MapperOptions};
    use cmam_isa::assemble;

    /// Maps, assembles and simulates `cdfg`, returning (stats, memory).
    fn run_end_to_end(
        cdfg: &cmam_cdfg::Cdfg,
        config: &CgraConfig,
        mem_init: &[i32],
    ) -> (SimStats, Vec<i32>) {
        let mapper = Mapper::new(MapperOptions::basic());
        let result = mapper.map(cdfg, config).expect("mapping");
        let (binary, _) = assemble(cdfg, &result.mapping, config).expect("assembly");
        let mut mem = mem_init.to_vec();
        let stats = simulate(&binary, config, &mut mem, SimOptions::default()).expect("sim");
        (stats, mem)
    }

    fn sum_squares_cdfg(n: i32, out: i32) -> cmam_cdfg::Cdfg {
        let mut b = CdfgBuilder::new("ssq");
        let b0 = b.block("entry");
        let b1 = b.block("body");
        let b2 = b.block("exit");
        let i = b.symbol("i");
        let acc = b.symbol("acc");
        b.select(b0);
        b.mov_const_to_symbol(0, i);
        b.mov_const_to_symbol(0, acc);
        b.jump(b1);
        b.select(b1);
        let iv = b.use_symbol(i);
        let av = b.use_symbol(acc);
        let x = b.load_name(iv, "x");
        let sq = b.op(Opcode::Mul, &[x, x]);
        let a2 = b.op(Opcode::Add, &[av, sq]);
        b.write_symbol(a2, acc);
        let one = b.constant(1);
        let i2 = b.op(Opcode::Add, &[iv, one]);
        b.write_symbol(i2, i);
        let nv = b.constant(n);
        let c = b.op(Opcode::Lt, &[i2, nv]);
        b.branch(c, b1, b2);
        b.select(b2);
        let av2 = b.use_symbol(acc);
        let o = b.constant(out);
        b.store(o, av2, "out");
        b.ret();
        b.finish().unwrap()
    }

    #[test]
    fn simulated_loop_matches_interpreter() {
        let cdfg = sum_squares_cdfg(8, 100);
        let config = CgraConfig::hom64();
        let mut init = vec![0i32; 128];
        #[allow(
            clippy::needless_range_loop,
            reason = "the index is the stored value's source"
        )]
        for i in 0..8 {
            init[i] = (i as i32) + 1;
        }
        let (stats, mem) = run_end_to_end(&cdfg, &config, &init);
        let mut golden = init.clone();
        interp::run(&cdfg, &mut golden, 1_000_000).unwrap();
        assert_eq!(mem, golden, "simulated memory differs from golden");
        assert_eq!(mem[100], (1..=8).map(|x: i32| x * x).sum::<i32>());
        // The loop body ran 8 times.
        assert_eq!(stats.block_execs[1], 8);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn stats_account_every_cycle() {
        let cdfg = sum_squares_cdfg(4, 64);
        let config = CgraConfig::hom64();
        let init = vec![1i32; 80];
        let (stats, _) = run_end_to_end(&cdfg, &config, &init);
        // Per tile: active + idle == total non-stall cycles.
        let busy_cycles = stats.cycles - stats.stall_cycles;
        for (i, t) in stats.tiles.iter().enumerate() {
            assert_eq!(
                t.active_cycles + t.idle_cycles,
                busy_cycles,
                "tile {i} cycle accounting"
            );
        }
        // Fetches are bounded by active cycles + idle runs.
        for t in &stats.tiles {
            assert!(t.cm_fetches <= t.active_cycles + t.idle_cycles);
            assert!(t.cm_fetches >= t.active_cycles);
        }
    }

    #[test]
    fn bank_conflicts_stall() {
        // Two loads to the same bank in one cycle. Build by hand: two
        // parallel loads of address 0 and 8 (same bank with 8 banks).
        let mut b = CdfgBuilder::new("conflict");
        let bb = b.block("b");
        b.select(bb);
        let a0 = b.constant(0);
        let a8 = b.constant(8);
        let x = b.load_name(a0, "x");
        let y = b.load_name(a8, "x");
        let s = b.op(Opcode::Add, &[x, y]);
        let out = b.constant(1);
        b.store(out, s, "y");
        b.ret();
        let cdfg = b.finish().unwrap();
        let config = CgraConfig::hom64();

        // Hand placement: loads on tiles 0 and 1 at cycle 0.
        use cmam_isa::{BlockMapping, KernelMapping, OperandSource, PlacedOp};
        let ids = cdfg.dfg(bb).op_ids().to_vec();
        let vx = cdfg.op(ids[0]).result.unwrap();
        let vy = cdfg.op(ids[1]).result.unwrap();
        let vs = cdfg.op(ids[2]).result.unwrap();
        let mapping = KernelMapping {
            blocks: vec![BlockMapping {
                length: 3,
                ops: vec![
                    PlacedOp {
                        op: ids[0],
                        tile: TileId(0),
                        cycle: 0,
                        operands: vec![OperandSource::Const(0)],
                        direct_symbol_write: false,
                    },
                    PlacedOp {
                        op: ids[1],
                        tile: TileId(1),
                        cycle: 0,
                        operands: vec![OperandSource::Const(8)],
                        direct_symbol_write: false,
                    },
                    PlacedOp {
                        op: ids[2],
                        tile: TileId(0),
                        cycle: 1,
                        operands: vec![
                            OperandSource::Rf {
                                tile: TileId(0),
                                value: vx,
                            },
                            OperandSource::Rf {
                                tile: TileId(1),
                                value: vy,
                            },
                        ],
                        direct_symbol_write: false,
                    },
                    PlacedOp {
                        op: ids[3],
                        tile: TileId(0),
                        cycle: 2,
                        operands: vec![
                            OperandSource::Const(1),
                            OperandSource::Rf {
                                tile: TileId(0),
                                value: vs,
                            },
                        ],
                        direct_symbol_write: false,
                    },
                ],
                moves: vec![],
            }],
            symbol_homes: Default::default(),
        };
        let (binary, _) = assemble(&cdfg, &mapping, &config).unwrap();
        let mut mem = vec![7i32; 16];
        let stats = simulate(&binary, &config, &mut mem, SimOptions::default()).unwrap();
        // Both loads hit bank 0 in cycle 0: one stall cycle.
        assert_eq!(stats.stall_cycles, 1);
        assert_eq!(mem[1], 14);
        // With 16 banks there is no conflict.
        let mut mem2 = vec![7i32; 16];
        let stats2 = simulate(
            &binary,
            &config,
            &mut mem2,
            SimOptions {
                mem_banks: 16,
                max_cycles: 1000,
            },
        )
        .unwrap();
        assert_eq!(stats2.stall_cycles, 0);
    }

    #[test]
    fn zero_banks_normalizes_to_one() {
        // `mem_banks: 0` is the degenerate single-bank memory: every
        // same-cycle access pair conflicts, and nothing divides by zero.
        let cdfg = sum_squares_cdfg(4, 64);
        let config = CgraConfig::hom64();
        let mapper = Mapper::new(MapperOptions::basic());
        let result = mapper.map(&cdfg, &config).expect("mapping");
        let (binary, _) = assemble(&cdfg, &result.mapping, &config).expect("assembly");
        let run = |banks: usize| {
            let mut mem = vec![1i32; 80];
            let stats = simulate(
                &binary,
                &config,
                &mut mem,
                SimOptions {
                    mem_banks: banks,
                    max_cycles: 1_000_000,
                },
            )
            .expect("sim");
            (stats, mem)
        };
        let (s0, m0) = run(0);
        let (s1, m1) = run(1);
        assert_eq!(s0, s1, "0 banks must behave exactly like 1 bank");
        assert_eq!(m0, m1);
        assert_eq!(SimOptions::default().normalized(), SimOptions::default());
    }

    #[test]
    fn out_of_bounds_reported() {
        let mut b = CdfgBuilder::new("oob");
        let _ = b.block("b");
        let a = b.constant(500);
        let x = b.load_name(a, "x");
        let o = b.constant(0);
        b.store(o, x, "x");
        b.ret();
        let cdfg = b.finish().unwrap();
        let config = CgraConfig::hom64();
        let mapper = Mapper::new(MapperOptions::basic());
        let r = mapper.map(&cdfg, &config).unwrap();
        let (binary, _) = assemble(&cdfg, &r.mapping, &config).unwrap();
        let mut mem = vec![0i32; 16];
        let err = simulate(&binary, &config, &mut mem, SimOptions::default()).unwrap_err();
        assert!(matches!(err, SimError::OutOfBounds { addr: 500, .. }));
    }

    #[test]
    fn corrupt_register_index_fails_at_decode() {
        // A hand-corrupted binary referencing a register outside the RF
        // must fail before cycle 0 (decode-time validation), with the
        // same error the reference simulator reports lazily.
        let cdfg = sum_squares_cdfg(2, 64);
        let config = CgraConfig::hom64();
        let mapper = Mapper::new(MapperOptions::basic());
        let result = mapper.map(&cdfg, &config).expect("mapping");
        let (mut binary, _) = assemble(&cdfg, &result.mapping, &config).expect("assembly");
        let bad = config.tile(TileId(0)).rf_words as u8;
        'corrupt: for block in &mut binary.tiles[0].blocks {
            for word in block.iter_mut() {
                if let cmam_isa::Instr::Exec { dst: Some(d), .. } = word {
                    *d = bad;
                    break 'corrupt;
                }
            }
        }
        let err = DecodedProgram::decode(&binary, &config).unwrap_err();
        assert_eq!(err, SimError::BadRegister { tile: 0, reg: bad });
    }
}
