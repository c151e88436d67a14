//! The pre-optimization simulator, kept as the executable specification.
//!
//! This is the naive interpretation of a [`CgraBinary`]: every call
//! re-expands the pnop-compressed word lists, and the cycle loop
//! allocates its operand/write/memory-op buffers per simulated cycle.
//! It is deliberately left untouched by the performance work in
//! [`crate::decode`] so that:
//!
//! * the property tests can assert the decoded fast path agrees with a
//!   straightforward reading of the ISA on arbitrary binaries, and
//! * `generated_edges` and the `gen_suite` binary can check the decoded
//!   simulator's stats and memory against the original implementation
//!   on every kernel they run.
//!
//! Only [`SimOptions::normalized`] is shared with the fast path, so the
//! `mem_banks == 0` convention lives in exactly one place.

use crate::machine::{SimError, SimOptions};
use crate::stats::{SimStats, TileStats};
use cmam_arch::CgraConfig;
use cmam_cdfg::Opcode;
use cmam_isa::program::BinTerminator;
use cmam_isa::{CgraBinary, Instr, Operand};

/// One expanded schedule slot: the instruction (if any) and whether this
/// cycle performs the context-memory fetch for its word.
#[derive(Debug, Clone)]
struct Slot {
    instr: Option<Instr>,
    fetch: bool,
}

fn expand_with_fetch(words: &[Instr]) -> Vec<Slot> {
    let mut out = Vec::new();
    for w in words {
        match w {
            Instr::Pnop { cycles } => {
                for i in 0..*cycles {
                    out.push(Slot {
                        instr: None,
                        fetch: i == 0,
                    });
                }
            }
            e => out.push(Slot {
                instr: Some(e.clone()),
                fetch: true,
            }),
        }
    }
    out
}

/// Runs `binary` on the CGRA described by `config` over `mem` with the
/// reference interpretation. Same contract as [`crate::simulate`]; the
/// two must agree bit-for-bit on every valid binary.
///
/// # Errors
///
/// See [`SimError`]. On error the memory may be partially updated.
pub fn simulate_reference(
    binary: &CgraBinary,
    config: &CgraConfig,
    mem: &mut [i32],
    options: SimOptions,
) -> Result<SimStats, SimError> {
    let options = options.normalized();
    let geom = config.geometry();
    let ntiles = binary.num_tiles();
    assert_eq!(
        ntiles,
        geom.num_tiles(),
        "binary and configuration disagree on the tile count"
    );

    // Pre-expand every (block, tile) word list once.
    let nblocks = binary.block_lengths.len();
    let mut expanded: Vec<Vec<Vec<Slot>>> = Vec::with_capacity(nblocks);
    for b in 0..nblocks {
        let mut per_tile = Vec::with_capacity(ntiles);
        for t in 0..ntiles {
            let slots = expand_with_fetch(&binary.tiles[t].blocks[b]);
            debug_assert_eq!(slots.len(), binary.block_lengths[b]);
            per_tile.push(slots);
        }
        expanded.push(per_tile);
    }

    let mut rf: Vec<Vec<i32>> = (0..ntiles)
        .map(|i| vec![0; config.tile(cmam_arch::TileId(i)).rf_words])
        .collect();
    let mut stats = SimStats {
        block_execs: vec![0; nblocks],
        tiles: vec![TileStats::default(); ntiles],
        ..SimStats::default()
    };

    let mut block = binary.entry as usize;
    loop {
        stats.block_execs[block] += 1;
        let length = binary.block_lengths[block];
        let mut br_flag = false;

        #[allow(
            clippy::needless_range_loop,
            reason = "the executable spec reads cycle by cycle, as the hardware steps"
        )]
        for cycle in 0..length {
            stats.cycles += 1;
            if stats.cycles > options.max_cycles {
                return Err(SimError::MaxCycles(options.max_cycles));
            }
            // Phase 1: evaluate all tiles against the start-of-cycle state.
            let mut rf_writes: Vec<(usize, u8, i32)> = Vec::new();
            let mut mem_ops: Vec<(usize, Opcode, i64, i32, Option<u8>)> = Vec::new();
            for t in 0..ntiles {
                let slot = &expanded[block][t][cycle];
                let ts = &mut stats.tiles[t];
                if slot.fetch {
                    ts.cm_fetches += 1;
                }
                let Some(instr) = &slot.instr else {
                    ts.idle_cycles += 1;
                    continue;
                };
                ts.active_cycles += 1;
                let Instr::Exec { opcode, dst, srcs } = instr else {
                    unreachable!("pnops were expanded away");
                };
                // Operand fetch.
                let mut args = Vec::with_capacity(srcs.len());
                for s in srcs {
                    let v = match *s {
                        Operand::Crf(i) => {
                            stats.tiles[t].crf_reads += 1;
                            *binary.crf[t]
                                .get(i as usize)
                                .ok_or(SimError::BadConstant { tile: t, idx: i })?
                        }
                        Operand::Reg(r) => {
                            stats.tiles[t].rf_reads += 1;
                            *rf[t]
                                .get(r as usize)
                                .ok_or(SimError::BadRegister { tile: t, reg: r })?
                        }
                        Operand::Neighbor(d, r) => {
                            stats.tiles[t].neighbor_reads += 1;
                            let n = geom.neighbor(cmam_arch::TileId(t), d).0;
                            *rf[n]
                                .get(r as usize)
                                .ok_or(SimError::BadRegister { tile: n, reg: r })?
                        }
                    };
                    args.push(v);
                }
                match opcode {
                    Opcode::Load => {
                        stats.tiles[t].loads += 1;
                        mem_ops.push((t, Opcode::Load, args[0] as i64, 0, *dst));
                    }
                    Opcode::Store => {
                        stats.tiles[t].stores += 1;
                        mem_ops.push((t, Opcode::Store, args[0] as i64, args[1], None));
                    }
                    Opcode::Br => {
                        stats.tiles[t].alu_ops += 1;
                        br_flag = args[0] != 0;
                    }
                    Opcode::Mov => {
                        stats.tiles[t].moves += 1;
                        rf_writes.push((t, dst.expect("mov has a destination"), args[0]));
                    }
                    op => {
                        stats.tiles[t].alu_ops += 1;
                        let r = op.eval(&args);
                        if let Some(d) = dst {
                            rf_writes.push((t, *d, r));
                        }
                    }
                }
            }

            // Phase 2: TCDM accesses with bank-conflict stalls.
            if !mem_ops.is_empty() {
                let mut bank_load = vec![0u64; options.mem_banks];
                for &(t, op, addr, val, dst) in &mem_ops {
                    let idx = usize::try_from(addr).ok().filter(|&i| i < mem.len());
                    let Some(i) = idx else {
                        return Err(SimError::OutOfBounds {
                            addr,
                            size: mem.len(),
                        });
                    };
                    bank_load[i % options.mem_banks] += 1;
                    match op {
                        Opcode::Load => {
                            rf_writes.push((t, dst.expect("load has a destination"), mem[i]));
                        }
                        Opcode::Store => mem[i] = val,
                        _ => unreachable!(),
                    }
                }
                let stall: u64 = bank_load.iter().map(|&c| c.saturating_sub(1)).sum();
                stats.cycles += stall;
                stats.stall_cycles += stall;
            }

            // Phase 3: commit register writes.
            for (t, r, v) in rf_writes {
                let cell = rf[t]
                    .get_mut(r as usize)
                    .ok_or(SimError::BadRegister { tile: t, reg: r })?;
                *cell = v;
                stats.tiles[t].rf_writes += 1;
            }
        }

        match binary.terminators[block] {
            BinTerminator::Jump(b) => block = b as usize,
            BinTerminator::Branch { taken, fallthrough } => {
                block = if br_flag { taken } else { fallthrough } as usize;
            }
            BinTerminator::Return => break,
        }
    }
    Ok(stats)
}
