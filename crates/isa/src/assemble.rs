//! Lowering a [`KernelMapping`] to a [`CgraBinary`].
//!
//! Besides code generation (register allocation, CRF allocation, pnop
//! compression), the assembler is the repository's *definitive validity
//! check* for mappings. It re-derives every architectural constraint
//! independently of the mapper and fails loudly when one is violated:
//!
//! * memory operations only on LSU tiles;
//! * one instruction per tile per cycle;
//! * operands read from the executing tile or a direct torus neighbour,
//!   and only after the value copy is ready;
//! * symbol overwrite hazards (a symbol's home register is overwritten
//!   only after every read of the old value from that register);
//! * RF / CRF capacity;
//! * the Section III-C inequality per tile:
//!   `n(Mo) + n(pnop) ≤ n(I)` (context words fit the context memory).
//!
//! The last two are [`check_fit`], which compares the finished report's
//! needs with the tiles' memory sizes; [`lower`] is everything before it.

use crate::instr::{compress, Instr, Operand};
use crate::mapping::{KernelMapping, OperandSource};
use crate::program::{BinTerminator, CgraBinary, TileProgram};
use cmam_arch::{CgraConfig, Direction, TileId};
use cmam_cdfg::{Cdfg, SymbolId, Terminator, ValueId, ValueKind};
use std::error::Error;
use std::fmt;

/// A constraint violation found while assembling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssembleError {
    /// A memory operation was placed on a tile without a load/store unit.
    LsuViolation {
        /// Offending tile.
        tile: TileId,
    },
    /// Two instructions share one `(tile, cycle)` slot.
    SlotConflict {
        /// Offending tile.
        tile: TileId,
        /// Offending cycle.
        cycle: usize,
    },
    /// An instruction's cycle lies outside its block's schedule length.
    CycleOutOfRange {
        /// Offending tile.
        tile: TileId,
        /// Offending cycle.
        cycle: usize,
    },
    /// An operand names a source tile that is neither the executing tile
    /// nor a direct neighbour.
    NonAdjacentRead {
        /// Executing tile.
        tile: TileId,
        /// Claimed source tile.
        src: TileId,
    },
    /// An operand reads a value copy before it is written.
    ValueNotReady {
        /// The value.
        value: ValueId,
        /// Tile whose RF was read.
        tile: TileId,
        /// Read cycle.
        cycle: usize,
    },
    /// An operand reads a value that has no copy at the named tile.
    MissingCopy {
        /// The value.
        value: ValueId,
        /// Tile whose RF was (wrongly) read.
        tile: TileId,
    },
    /// A symbol home register is overwritten while a later instruction
    /// still reads the old value from it.
    SymbolOverwriteHazard {
        /// The symbol.
        symbol: SymbolId,
        /// Cycle of the offending old-value read.
        read_cycle: usize,
        /// Cycle of the overwrite.
        write_cycle: usize,
    },
    /// A symbol has no home tile in the mapping.
    MissingHome {
        /// The symbol.
        symbol: SymbolId,
    },
    /// A direct symbol write / commit move targets a tile that is not the
    /// symbol's home.
    WrongHome {
        /// The symbol.
        symbol: SymbolId,
        /// The tile written instead of the home.
        tile: TileId,
    },
    /// Register demand exceeds the tile's RF.
    RfOverflow {
        /// Offending tile.
        tile: TileId,
        /// Registers needed.
        need: usize,
        /// Registers available.
        capacity: usize,
    },
    /// Distinct constants exceed the tile's CRF.
    CrfOverflow {
        /// Offending tile.
        tile: TileId,
        /// Slots needed.
        need: usize,
        /// Slots available.
        capacity: usize,
    },
    /// Context words exceed the tile's context memory — the inequality of
    /// Section III-C is violated.
    ContextOverflow {
        /// Offending tile.
        tile: TileId,
        /// Words needed.
        need: usize,
        /// Words available.
        capacity: usize,
    },
}

impl fmt::Display for AssembleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssembleError::LsuViolation { tile } => {
                write!(f, "memory operation on non-LSU tile {tile}")
            }
            AssembleError::SlotConflict { tile, cycle } => {
                write!(f, "two instructions on {tile} at cycle {cycle}")
            }
            AssembleError::CycleOutOfRange { tile, cycle } => {
                write!(f, "instruction on {tile} at cycle {cycle} outside block schedule")
            }
            AssembleError::NonAdjacentRead { tile, src } => {
                write!(f, "{tile} cannot read RF of non-neighbour {src}")
            }
            AssembleError::ValueNotReady { value, tile, cycle } => {
                write!(f, "{value} read from {tile} at cycle {cycle} before it is written")
            }
            AssembleError::MissingCopy { value, tile } => {
                write!(f, "{value} has no copy in the RF of {tile}")
            }
            AssembleError::SymbolOverwriteHazard {
                symbol,
                read_cycle,
                write_cycle,
            } => write!(
                f,
                "home register of {symbol} overwritten at cycle {write_cycle} but old value read at cycle {read_cycle}"
            ),
            AssembleError::MissingHome { symbol } => {
                write!(f, "symbol {symbol} has no home tile")
            }
            AssembleError::WrongHome { symbol, tile } => {
                write!(f, "symbol {symbol} committed on non-home tile {tile}")
            }
            AssembleError::RfOverflow {
                tile,
                need,
                capacity,
            } => write!(f, "{tile} needs {need} registers, has {capacity}"),
            AssembleError::CrfOverflow {
                tile,
                need,
                capacity,
            } => write!(f, "{tile} needs {need} CRF slots, has {capacity}"),
            AssembleError::ContextOverflow {
                tile,
                need,
                capacity,
            } => write!(f, "{tile} needs {need} context words, has {capacity}"),
        }
    }
}

impl Error for AssembleError {}

/// Per-tile word accounting, the measured counterpart of the paper's
/// `n(Vo)`, `n(To)`, `n(pnop)`, `n(I)` bookkeeping, and the register and
/// constant needs [`check_fit`] compares with the register files.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AsmReport {
    /// Per tile: (operation words, move words, pnop words).
    pub per_tile: Vec<(usize, usize, usize)>,
    /// Per tile: the registers the binary uses, its persistent symbol
    /// registers included.
    pub registers: Vec<usize>,
    /// Per tile: the distinct constants of its CRF.
    pub constants: Vec<usize>,
}

impl AsmReport {
    /// Context words used on one tile.
    pub fn words(&self, tile: TileId) -> usize {
        let (o, m, p) = self.per_tile[tile.0];
        o + m + p
    }

    /// Total operation words.
    pub fn total_ops(&self) -> usize {
        self.per_tile.iter().map(|t| t.0).sum()
    }

    /// Total move words (the paper's transformed operations `n(To)` are
    /// realised as moves and re-computed ops).
    pub fn total_moves(&self) -> usize {
        self.per_tile.iter().map(|t| t.1).sum()
    }

    /// Total pnop words.
    pub fn total_pnops(&self) -> usize {
        self.per_tile.iter().map(|t| t.2).sum()
    }

    /// Per-tile context occupancy as a fraction of capacity (Fig 2 data).
    pub fn occupancy(&self, config: &CgraConfig) -> Vec<f64> {
        self.per_tile
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let cap = config.tile(TileId(i)).cm_words;
                self.words(TileId(i)) as f64 / cap as f64
            })
            .collect()
    }
}

/// Epoch-stamped entry of the dense `(tile, value)` copy tables: a block
/// entry is live only while its `stamp` equals the current block's epoch,
/// so "clearing" all tables between blocks is a counter increment.
#[derive(Debug, Clone, Copy, Default)]
struct CopySlot {
    stamp: u32,
    reg: u8,
    ready: usize,
}

/// Epoch-stamped entry of the dense `(tile, value)` live-interval table.
#[derive(Debug, Clone, Copy, Default)]
struct IntervalSlot {
    stamp: u32,
    start: usize,
    end: usize,
}

/// Assembles `mapping` of `cdfg` for `config`: [`lower`], then
/// [`check_fit`].
///
/// # Errors
///
/// Returns the first [`AssembleError`] found; see the module docs for the
/// checked constraints.
pub fn assemble(
    cdfg: &Cdfg,
    mapping: &KernelMapping,
    config: &CgraConfig,
) -> Result<(CgraBinary, AsmReport), AssembleError> {
    let (binary, report) = lower(cdfg, mapping, config)?;
    check_fit(&report, config)?;
    Ok((binary, report))
}

/// Lowers `mapping` of `cdfg` to its binary and report without comparing
/// them with any memory size: [`assemble`] without [`check_fit`]. It
/// reads only `config`'s geometry and LSUs, so a configuration that
/// differs from `config` only in memory sizes lowers the mapping to the
/// same binary and report, and `assemble` succeeds there exactly when
/// the report passes `check_fit` there.
///
/// # Errors
///
/// Returns the first [`AssembleError`] found among the constraints of the
/// module docs that `check_fit` does not check.
pub fn lower(
    cdfg: &Cdfg,
    mapping: &KernelMapping,
    config: &CgraConfig,
) -> Result<(CgraBinary, AsmReport), AssembleError> {
    let _span = cmam_obs::span!("assemble", blocks = mapping.blocks.len() as u64);
    let geom = config.geometry();
    let ntiles = geom.num_tiles();

    // --- Persistent registers: symbols grouped by home tile. ---
    // `symbol_homes` is a BTreeMap, so iteration is already sorted by
    // symbol id — register numbers are deterministic by construction.
    // Homes live in a dense `SymbolId`-indexed table, so `home_of` is a
    // single array load.
    let nsymbols = cdfg.num_symbols();
    let mut persistent: Vec<Option<(TileId, u8)>> = vec![None; nsymbols];
    let mut persistent_count = vec![0usize; ntiles];
    for (&s, &home) in &mapping.symbol_homes {
        let reg = persistent_count[home.0];
        persistent[s.0 as usize] = Some((home, reg as u8));
        persistent_count[home.0] += 1;
    }
    // Per tile, the registers in use: the persistent ones, then the peak
    // of each block's allocation.
    let mut registers = persistent_count.clone();
    let home_of = |s: SymbolId| -> Result<(TileId, u8), AssembleError> {
        persistent
            .get(s.0 as usize)
            .copied()
            .flatten()
            .ok_or(AssembleError::MissingHome { symbol: s })
    };

    // --- CRF allocation (kernel-wide per tile). ---
    let mut crf: Vec<Vec<i32>> = vec![Vec::new(); ntiles];
    for bm in &mapping.blocks {
        for po in &bm.ops {
            for src in &po.operands {
                if let OperandSource::Const(c) = src {
                    if !crf[po.tile.0].contains(c) {
                        crf[po.tile.0].push(*c);
                    }
                }
            }
        }
    }

    let dir_to = |t: TileId, src: TileId| -> Result<Option<Direction>, AssembleError> {
        if t == src {
            return Ok(None);
        }
        for d in Direction::ALL {
            if geom.neighbor(t, d) == src {
                return Ok(Some(d));
            }
        }
        Err(AssembleError::NonAdjacentRead { tile: t, src })
    };

    let mut tiles = vec![TileProgram { blocks: Vec::new() }; ntiles];

    // --- Dense per-block scratch, allocated once and epoch-stamped. ---
    // Every block-local hot table is an index-keyed array mirroring
    // `cmam_core::partial`'s flat layout: `(tile, value)` keys flatten to
    // `tile * nvalues + value`, `(tile, cycle)` keys to
    // `cycle * ntiles + tile`, symbols index directly. Entries are live
    // only under the current block's epoch stamp, so moving to the next
    // block "clears" all tables by bumping a counter.
    let nvalues = cdfg.num_values();
    let max_len = mapping.blocks.iter().map(|b| b.length).max().unwrap_or(0);
    // Slot occupancy (the old `(tile, cycle) -> Intent` conflict map).
    let mut slot_used = vec![0u32; ntiles * max_len];
    // Overwrite cycle of each symbol's home register in this block.
    let mut overwrite: Vec<(u32, usize)> = vec![(0, 0); nsymbols];
    // Values landing in persistent registers (direct writes / commits).
    let mut persistent_values: Vec<CopySlot> = vec![CopySlot::default(); ntiles * nvalues];
    // (tile, value) -> live interval, plus the keys touched this block in
    // insertion order (ops before moves — a deterministic work list the
    // register allocator sorts per tile).
    let mut intervals: Vec<IntervalSlot> = vec![IntervalSlot::default(); ntiles * nvalues];
    let mut touched: Vec<usize> = Vec::new();
    // Block-local copies produced by the register allocator.
    let mut copies: Vec<CopySlot> = vec![CopySlot::default(); ntiles * nvalues];
    let mut per_tile_ivals: Vec<Vec<(usize, usize, ValueId)>> = vec![Vec::new(); ntiles];
    // The cycle-indexed schedule, one contiguous row of `bm.length`
    // slots per tile.
    let mut sched: Vec<Option<Instr>> = Vec::new();

    for (bidx, bm) in mapping.blocks.iter().enumerate() {
        let epoch = bidx as u32 + 1;
        let tv = |tile: TileId, value: ValueId| tile.0 * nvalues + value.0 as usize;

        // --- Detect slot conflicts and architectural violations. ---
        for po in &bm.ops {
            if po.cycle >= bm.length {
                return Err(AssembleError::CycleOutOfRange {
                    tile: po.tile,
                    cycle: po.cycle,
                });
            }
            let opcode = cdfg.op(po.op).opcode;
            if opcode.is_memory() && !config.tile(po.tile).has_lsu {
                return Err(AssembleError::LsuViolation { tile: po.tile });
            }
            let slot = &mut slot_used[po.cycle * ntiles + po.tile.0];
            if *slot == epoch {
                return Err(AssembleError::SlotConflict {
                    tile: po.tile,
                    cycle: po.cycle,
                });
            }
            *slot = epoch;
        }
        for mv in &bm.moves {
            if mv.cycle >= bm.length {
                return Err(AssembleError::CycleOutOfRange {
                    tile: mv.tile,
                    cycle: mv.cycle,
                });
            }
            let slot = &mut slot_used[mv.cycle * ntiles + mv.tile.0];
            if *slot == epoch {
                return Err(AssembleError::SlotConflict {
                    tile: mv.tile,
                    cycle: mv.cycle,
                });
            }
            *slot = epoch;
        }

        // --- Collect block-local copies with live intervals. ---
        // Copy key: (tile, value). Persistent writes (direct symbol writes
        // and commit moves) target the persistent register instead.
        touched.clear();
        let mut start_interval = |k: usize, cycle: usize, touched: &mut Vec<usize>| {
            let e = &mut intervals[k];
            if e.stamp != epoch {
                *e = IntervalSlot {
                    stamp: epoch,
                    start: cycle + 1,
                    end: cycle + 1,
                };
                touched.push(k);
            } else {
                e.start = e.start.min(cycle + 1); // re-computed duplicates merge
            }
        };
        for po in &bm.ops {
            let op = cdfg.op(po.op);
            let Some(result) = op.result else { continue };
            if po.direct_symbol_write {
                let s = op.writes_symbol.ok_or(AssembleError::WrongHome {
                    symbol: SymbolId(u32::MAX),
                    tile: po.tile,
                })?;
                let (home, reg) = home_of(s)?;
                if home != po.tile {
                    return Err(AssembleError::WrongHome {
                        symbol: s,
                        tile: po.tile,
                    });
                }
                overwrite[s.0 as usize] = (epoch, po.cycle);
                persistent_values[tv(home, result)] = CopySlot {
                    stamp: epoch,
                    reg,
                    ready: po.cycle + 1,
                };
            } else {
                start_interval(tv(po.tile, result), po.cycle, &mut touched);
            }
        }
        for mv in &bm.moves {
            if let Some(s) = mv.commit_symbol {
                let (home, reg) = home_of(s)?;
                if home != mv.tile {
                    return Err(AssembleError::WrongHome {
                        symbol: s,
                        tile: mv.tile,
                    });
                }
                overwrite[s.0 as usize] = (epoch, mv.cycle);
                persistent_values[tv(home, mv.value)] = CopySlot {
                    stamp: epoch,
                    reg,
                    ready: mv.cycle + 1,
                };
            } else {
                start_interval(tv(mv.tile, mv.value), mv.cycle, &mut touched);
            }
        }

        // Reads extend the interval of the copy they resolve to.
        {
            let mut extend = |tile: TileId, value: ValueId, cycle: usize| {
                let e = &mut intervals[tv(tile, value)];
                if e.stamp == epoch {
                    e.end = e.end.max(cycle);
                }
            };
            for po in &bm.ops {
                for osrc in &po.operands {
                    if let OperandSource::Rf { tile: src, value } = *osrc {
                        extend(src, value, po.cycle);
                    }
                }
            }
            for mv in &bm.moves {
                extend(mv.src_tile, mv.value, mv.cycle);
            }
        }

        // --- Linear-scan register allocation per tile. ---
        // Live intervals of an interval graph colour optimally with
        // max-overlap registers, so the binary fits whenever the mapper's
        // occupancy checks passed. Each copy takes the lowest free
        // register, from an unbounded file: whenever the registers used
        // fit a tile's RF, this is the allocation that RF would give.
        for list in per_tile_ivals.iter_mut() {
            list.clear();
        }
        for &k in &touched {
            let e = intervals[k];
            per_tile_ivals[k / nvalues].push((e.start, e.end, ValueId((k % nvalues) as u32)));
        }
        for (i, list) in per_tile_ivals.iter_mut().enumerate() {
            let tile = TileId(i);
            list.sort();
            // Released registers, all below `next`, the lowest one never
            // used in this block.
            let mut free: Vec<u8> = Vec::new();
            let mut next = persistent_count[i];
            let mut active: Vec<(usize, u8)> = Vec::new(); // (end, reg)
            for &(start, end, value) in list.iter() {
                // Release registers whose interval ended before `start`.
                active.retain(|&(e, reg)| {
                    if e < start {
                        free.push(reg);
                        false
                    } else {
                        true
                    }
                });
                free.sort_by(|a, b| b.cmp(a)); // lowest register first (pop from end)
                let reg = free.pop().unwrap_or_else(|| {
                    next += 1;
                    (next - 1) as u8
                });
                active.push((end, reg));
                copies[tv(tile, value)] = CopySlot {
                    stamp: epoch,
                    reg,
                    ready: start,
                };
            }
            registers[i] = registers[i].max(next);
        }

        // --- Resolve a read of `value` from `src`'s RF at `cycle`. ---
        let copies = &copies;
        let persistent_values = &persistent_values;
        let overwrite = &overwrite;
        let resolve = |value: ValueId, src: TileId, cycle: usize| -> Result<u8, AssembleError> {
            let c = copies[tv(src, value)];
            if c.stamp == epoch {
                if cycle < c.ready {
                    return Err(AssembleError::ValueNotReady {
                        value,
                        tile: src,
                        cycle,
                    });
                }
                return Ok(c.reg);
            }
            // Old symbol value: read the home register, checking the
            // overwrite hazard.
            if let ValueKind::SymbolUse(s) = cdfg.value(value).kind {
                let (home, reg) = home_of(s)?;
                if home == src {
                    let (stamp, w) = overwrite[s.0 as usize];
                    if stamp == epoch && cycle > w {
                        return Err(AssembleError::SymbolOverwriteHazard {
                            symbol: s,
                            read_cycle: cycle,
                            write_cycle: w,
                        });
                    }
                    return Ok(reg);
                }
            }
            // New symbol value written directly / committed to home.
            let p = persistent_values[tv(src, value)];
            if p.stamp == epoch {
                if cycle < p.ready {
                    return Err(AssembleError::ValueNotReady {
                        value,
                        tile: src,
                        cycle,
                    });
                }
                return Ok(p.reg);
            }
            Err(AssembleError::MissingCopy { value, tile: src })
        };

        // --- Emit the cycle-indexed schedule per tile, then compress. ---
        sched.clear();
        sched.resize(ntiles * bm.length, None);
        for po in &bm.ops {
            let op = cdfg.op(po.op);
            let mut srcs = Vec::with_capacity(po.operands.len());
            for osrc in &po.operands {
                let operand = match *osrc {
                    OperandSource::Const(c) => {
                        let idx = crf[po.tile.0]
                            .iter()
                            .position(|&x| x == c)
                            .expect("constant was collected above");
                        Operand::Crf(idx as u8)
                    }
                    OperandSource::Rf { tile: src, value } => {
                        let reg = resolve(value, src, po.cycle)?;
                        match dir_to(po.tile, src)? {
                            None => Operand::Reg(reg),
                            Some(d) => Operand::Neighbor(d, reg),
                        }
                    }
                };
                srcs.push(operand);
            }
            let dst = match op.result {
                None => None,
                Some(r) => {
                    // The first pass registered every result in exactly
                    // one of the two tables under this block's epoch; a
                    // stale stamp here means the collection pass and the
                    // emit pass disagree (the dense-table analogue of
                    // the old HashMap-indexing panic).
                    let slot = if po.direct_symbol_write {
                        persistent_values[tv(po.tile, r)]
                    } else {
                        copies[tv(po.tile, r)]
                    };
                    debug_assert_eq!(slot.stamp, epoch, "result was registered above");
                    Some(slot.reg)
                }
            };
            sched[po.tile.0 * bm.length + po.cycle] = Some(Instr::Exec {
                opcode: op.opcode,
                dst,
                srcs,
            });
        }
        for mv in &bm.moves {
            let reg = resolve(mv.value, mv.src_tile, mv.cycle)?;
            let src = match dir_to(mv.tile, mv.src_tile)? {
                None => Operand::Reg(reg),
                Some(d) => Operand::Neighbor(d, reg),
            };
            let slot = if mv.commit_symbol.is_some() {
                persistent_values[tv(mv.tile, mv.value)]
            } else {
                copies[tv(mv.tile, mv.value)]
            };
            debug_assert_eq!(slot.stamp, epoch, "move target was registered above");
            let dst = slot.reg;
            sched[mv.tile.0 * bm.length + mv.cycle] = Some(Instr::Exec {
                opcode: cmam_cdfg::Opcode::Mov,
                dst: Some(dst),
                srcs: vec![src],
            });
        }

        for (i, tp) in tiles.iter_mut().enumerate() {
            tp.blocks
                .push(compress(&sched[i * bm.length..(i + 1) * bm.length]));
        }
    }

    // --- Accounting and the Section III-C fit check. ---
    // Operation words are the mapped CDFG operation instances (including
    // source-level `mov`s); move words are the mapper-inserted routing and
    // commit moves; the rest of each tile's words are pnops.
    let mut per_tile = vec![(0usize, 0usize, 0usize); ntiles];
    for bm in &mapping.blocks {
        for po in &bm.ops {
            per_tile[po.tile.0].0 += 1;
        }
        for mv in &bm.moves {
            per_tile[mv.tile.0].1 += 1;
        }
    }
    for (i, tp) in tiles.iter().enumerate() {
        let words = tp.words();
        let (ops, moves, _) = per_tile[i];
        debug_assert!(words >= ops + moves, "tile {i}: word accounting broke");
        per_tile[i].2 = words - ops - moves;
    }
    let report = AsmReport {
        per_tile,
        registers,
        constants: crf.iter().map(Vec::len).collect(),
    };

    let terminators = cdfg
        .block_ids()
        .map(
            |b| match cdfg.block(b).terminator.as_ref().expect("validated") {
                Terminator::Jump(t) => BinTerminator::Jump(t.0),
                Terminator::Branch {
                    taken, fallthrough, ..
                } => BinTerminator::Branch {
                    taken: taken.0,
                    fallthrough: fallthrough.0,
                },
                Terminator::Return => BinTerminator::Return,
            },
        )
        .collect();

    let binary = CgraBinary {
        name: cdfg.name().to_owned(),
        tiles,
        crf,
        block_lengths: mapping.blocks.iter().map(|b| b.length).collect(),
        terminators,
        entry: cdfg.entry().0,
    };
    Ok((binary, report))
}

/// The capacity checks of [`assemble`]: each tile's registers fit its
/// register file, its constants its constant register file, and its
/// context words its context memory — the Section III-C fit
/// `n(Mo) + n(pnop) ≤ n(I)`.
///
/// Assembly reads `rf_words`, `crf_words` and `cm_words` only here, once
/// [`lower`] has built the binary and counted its needs. So a mapping
/// that lowers for one configuration lowers to the same binary and report
/// for every configuration that differs from it only in memory sizes, and
/// assembles there exactly when its report passes this check there.
///
/// # Errors
///
/// The first overflow: an [`AssembleError::RfOverflow`], else an
/// [`AssembleError::CrfOverflow`], else an
/// [`AssembleError::ContextOverflow`], each of the lowest-numbered tile
/// that does not fit.
pub fn check_fit(report: &AsmReport, config: &CgraConfig) -> Result<(), AssembleError> {
    for (i, &need) in report.registers.iter().enumerate() {
        let (tile, capacity) = (TileId(i), config.tile(TileId(i)).rf_words);
        if need > capacity {
            return Err(AssembleError::RfOverflow {
                tile,
                need,
                capacity,
            });
        }
    }
    for (i, &need) in report.constants.iter().enumerate() {
        let (tile, capacity) = (TileId(i), config.tile(TileId(i)).crf_words);
        if need > capacity {
            return Err(AssembleError::CrfOverflow {
                tile,
                need,
                capacity,
            });
        }
    }
    for i in 0..report.per_tile.len() {
        let (tile, capacity) = (TileId(i), config.tile(TileId(i)).cm_words);
        let need = report.words(tile);
        if need > capacity {
            return Err(AssembleError::ContextOverflow {
                tile,
                need,
                capacity,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{BlockMapping, PlacedMove, PlacedOp};
    use cmam_cdfg::CdfgBuilder;

    /// One block: r = load(0); store(1, r). Two LSU ops.
    fn tiny_cdfg() -> (Cdfg, ValueId) {
        let mut b = CdfgBuilder::new("tiny");
        let _ = b.block("b0");
        let a0 = b.constant(0);
        let a1 = b.constant(1);
        let v = b.load_name(a0, "m");
        b.store(a1, v, "m");
        b.ret();
        (b.finish().unwrap(), v)
    }

    fn tiny_mapping(v: ValueId, load_tile: usize, store_tile: usize) -> KernelMapping {
        KernelMapping {
            blocks: vec![BlockMapping {
                length: 2,
                ops: vec![
                    PlacedOp {
                        op: cmam_cdfg::OpId(0),
                        tile: TileId(load_tile),
                        cycle: 0,
                        operands: vec![OperandSource::Const(0)],
                        direct_symbol_write: false,
                    },
                    PlacedOp {
                        op: cmam_cdfg::OpId(1),
                        tile: TileId(store_tile),
                        cycle: 1,
                        operands: vec![
                            OperandSource::Const(1),
                            OperandSource::Rf {
                                tile: TileId(load_tile),
                                value: v,
                            },
                        ],
                        direct_symbol_write: false,
                    },
                ],
                moves: vec![],
            }],
            symbol_homes: std::collections::BTreeMap::new(),
        }
    }

    #[test]
    fn assembles_load_store_pair() {
        let (cdfg, v) = tiny_cdfg();
        let cfg = CgraConfig::hom64();
        // Tile 0 and its neighbour tile 1, both LSU tiles.
        let (bin, report) = assemble(&cdfg, &tiny_mapping(v, 0, 1), &cfg).unwrap();
        assert_eq!(bin.context_words(TileId(0)), 2); // load + pnop(1)
        assert_eq!(bin.context_words(TileId(1)), 2); // pnop(1) + store
        assert_eq!(report.total_ops(), 2);
        assert_eq!(report.total_moves(), 0);
        // 14 untouched tiles contribute 1 pnop each; tiles 0 and 1 one each.
        assert_eq!(report.total_pnops(), 16);
        assert_eq!(bin.crf[0], vec![0]);
        assert_eq!(bin.crf[1], vec![1]);
    }

    #[test]
    fn rejects_memory_op_on_compute_tile() {
        let (cdfg, v) = tiny_cdfg();
        let cfg = CgraConfig::hom64();
        // Tile 12 has no LSU (tiles 9..16 are compute-only).
        let err = assemble(&cdfg, &tiny_mapping(v, 0, 12), &cfg).unwrap_err();
        assert!(matches!(err, AssembleError::LsuViolation { .. }));
    }

    #[test]
    fn rejects_non_adjacent_read() {
        let (cdfg, v) = tiny_cdfg();
        let cfg = CgraConfig::hom64();
        // Tile 0 and tile 5 are distance 2 apart on the 4x4 torus.
        let err = assemble(&cdfg, &tiny_mapping(v, 0, 5), &cfg).unwrap_err();
        assert!(matches!(err, AssembleError::NonAdjacentRead { .. }));
    }

    #[test]
    fn rejects_value_read_too_early() {
        let (cdfg, v) = tiny_cdfg();
        let cfg = CgraConfig::hom64();
        let mut m = tiny_mapping(v, 0, 1);
        // Store at cycle 0 would read the load's result in the same cycle.
        m.blocks[0].ops[1].cycle = 0;
        let err = assemble(&cdfg, &m, &cfg).unwrap_err();
        assert!(matches!(err, AssembleError::ValueNotReady { .. }));
    }

    #[test]
    fn rejects_slot_conflict() {
        let (cdfg, v) = tiny_cdfg();
        let cfg = CgraConfig::hom64();
        let mut m = tiny_mapping(v, 0, 0);
        m.blocks[0].ops[1].cycle = 0; // same tile, same cycle as the load
        let err = assemble(&cdfg, &m, &cfg).unwrap_err();
        assert!(matches!(err, AssembleError::SlotConflict { .. }));
    }

    #[test]
    fn rejects_context_overflow_on_tiny_cm() {
        let (cdfg, v) = tiny_cdfg();
        let cfg = CgraConfig::builder(4, 4)
            .name("TINY")
            .uniform_cm(1)
            .build()
            .unwrap();
        let err = assemble(&cdfg, &tiny_mapping(v, 0, 1), &cfg).unwrap_err();
        assert!(matches!(err, AssembleError::ContextOverflow { .. }));
        // The same error as the fit check of the report the mapping
        // assembles to on a memory that holds it.
        let (_, report) = assemble(&cdfg, &tiny_mapping(v, 0, 1), &CgraConfig::hom64()).unwrap();
        assert_eq!(check_fit(&report, &cfg), Err(err));
        assert_eq!(check_fit(&report, &CgraConfig::hom64()), Ok(()));
    }

    /// Two loads on tile 0 whose values tile 1 adds and stores: tile 0
    /// needs 2 registers and 2 constants, tile 1 needs 1 of each.
    fn two_loads() -> (Cdfg, KernelMapping) {
        let mut b = CdfgBuilder::new("two_loads");
        let _ = b.block("b0");
        let (a0, a1, a2) = (b.constant(0), b.constant(1), b.constant(2));
        let x = b.load_name(a0, "m");
        let y = b.load_name(a1, "m");
        let sum = b.op(cmam_cdfg::Opcode::Add, &[x, y]);
        b.store(a2, sum, "m");
        b.ret();
        let placed = |op: u32, tile: usize, cycle: usize, operands: Vec<OperandSource>| PlacedOp {
            op: cmam_cdfg::OpId(op),
            tile: TileId(tile),
            cycle,
            operands,
            direct_symbol_write: false,
        };
        let rf = |tile: usize, value: ValueId| OperandSource::Rf {
            tile: TileId(tile),
            value,
        };
        let mapping = KernelMapping {
            blocks: vec![BlockMapping {
                length: 4,
                ops: vec![
                    placed(0, 0, 0, vec![OperandSource::Const(0)]),
                    placed(1, 0, 1, vec![OperandSource::Const(1)]),
                    placed(2, 1, 2, vec![rf(0, x), rf(0, y)]),
                    placed(3, 1, 3, vec![OperandSource::Const(2), rf(1, sum)]),
                ],
                moves: vec![],
            }],
            symbol_homes: std::collections::BTreeMap::new(),
        };
        (b.finish().unwrap(), mapping)
    }

    /// HOM64 with tile 0's register files set to `rf` and `crf` words and
    /// every other tile's to one word.
    fn register_files(rf: usize, crf: usize) -> CgraConfig {
        let hom64 = CgraConfig::hom64();
        let tiles = hom64
            .tiles()
            .map(|(t, &tile)| cmam_arch::TileConfig {
                rf_words: if t == TileId(0) { rf } else { 1 },
                crf_words: if t == TileId(0) { crf } else { 1 },
                ..tile
            })
            .collect();
        CgraConfig::new("RF", hom64.geometry(), tiles).unwrap()
    }

    #[test]
    fn exact_register_files_assemble_identically_and_smaller_ones_do_not() {
        let (cdfg, mapping) = two_loads();
        let roomy = assemble(&cdfg, &mapping, &CgraConfig::hom64()).unwrap();
        assert_eq!((roomy.1.registers[0], roomy.1.registers[1]), (2, 1));
        assert_eq!((roomy.1.constants[0], roomy.1.constants[1]), (2, 1));
        for (rf, crf) in [(2, 2), (3, 2), (2, 5)] {
            let config = register_files(rf, crf);
            assert_eq!(
                assemble(&cdfg, &mapping, &config),
                Ok(roomy.clone()),
                "{rf}/{crf}"
            );
        }
        let rf_short = register_files(1, 2);
        let err = AssembleError::RfOverflow {
            tile: TileId(0),
            need: 2,
            capacity: 1,
        };
        assert_eq!(check_fit(&roomy.1, &rf_short), Err(err.clone()));
        assert_eq!(assemble(&cdfg, &mapping, &rf_short), Err(err));
        let crf_short = register_files(2, 1);
        let err = AssembleError::CrfOverflow {
            tile: TileId(0),
            need: 2,
            capacity: 1,
        };
        assert_eq!(check_fit(&roomy.1, &crf_short), Err(err.clone()));
        assert_eq!(assemble(&cdfg, &mapping, &crf_short), Err(err));
        // Lowering reads no memory size.
        assert_eq!(lower(&cdfg, &mapping, &crf_short), Ok(roomy));
    }

    #[test]
    fn moves_assemble_and_count() {
        // load on tile 0; move result to tile 1; store from tile 1's copy
        // on tile 2 reading neighbour RF.
        let (cdfg, v) = tiny_cdfg();
        let cfg = CgraConfig::hom64();
        let mapping = KernelMapping {
            blocks: vec![BlockMapping {
                length: 3,
                ops: vec![
                    PlacedOp {
                        op: cmam_cdfg::OpId(0),
                        tile: TileId(0),
                        cycle: 0,
                        operands: vec![OperandSource::Const(0)],
                        direct_symbol_write: false,
                    },
                    PlacedOp {
                        op: cmam_cdfg::OpId(1),
                        tile: TileId(2),
                        cycle: 2,
                        operands: vec![
                            OperandSource::Const(1),
                            OperandSource::Rf {
                                tile: TileId(1),
                                value: v,
                            },
                        ],
                        direct_symbol_write: false,
                    },
                ],
                moves: vec![PlacedMove {
                    value: v,
                    src_tile: TileId(0),
                    tile: TileId(1),
                    cycle: 1,
                    commit_symbol: None,
                }],
            }],
            symbol_homes: std::collections::BTreeMap::new(),
        };
        let (bin, report) = assemble(&cdfg, &mapping, &cfg).unwrap();
        assert_eq!(report.total_moves(), 1);
        assert_eq!(report.total_ops(), 2);
        // The move on tile 1 reads west neighbour (tile 0) register 0.
        let words = &bin.tiles[1].blocks[0];
        assert!(words.iter().any(|w| w.is_move()));
    }
}
