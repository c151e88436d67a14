//! The mapper's output: placements, routes and symbol homes.
//!
//! A [`KernelMapping`] is pure *placement* data — which operation instance
//! executes on which `(tile, cycle)` slot, where each operand is read from,
//! which `move` instructions realise the routing, and where each symbol
//! variable lives. Lowering to concrete registers, CRF slots and context
//! words is the assembler's job ([`crate::assemble()`]).

use cmam_arch::TileId;
use cmam_cdfg::{BlockId, OpId, SymbolId, ValueId};
use std::collections::BTreeMap;

/// Where a placed operation reads one operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperandSource {
    /// An immediate constant, materialised from the executing tile's CRF.
    Const(i32),
    /// A value copy residing in `tile`'s register file (the executing tile
    /// itself or one of its direct torus neighbours).
    Rf {
        /// Tile whose RF holds the copy.
        tile: TileId,
        /// The value read.
        value: ValueId,
    },
}

/// One executed instance of a CDFG operation.
///
/// Re-computation (the graph transformation of Section III-B) duplicates an
/// operation, so the same [`OpId`] may appear in several instances within a
/// block; each instance produces a copy of the same result value on its own
/// tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacedOp {
    /// The CDFG operation.
    pub op: OpId,
    /// Executing tile.
    pub tile: TileId,
    /// Cycle within the block schedule.
    pub cycle: usize,
    /// Operand sources, positional (parallel to the op's `args`).
    pub operands: Vec<OperandSource>,
    /// When `true`, the result is written directly into the executing
    /// tile's *persistent* register of the symbol this op defines
    /// (commit-move elision; requires `tile` to be the symbol's home).
    pub direct_symbol_write: bool,
}

/// One routing `move` instruction: the executing tile copies `value` from
/// `src_tile`'s register file (own or direct neighbour) into its own RF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacedMove {
    /// Value being copied.
    pub value: ValueId,
    /// Tile whose RF is read (must be `tile` itself or a neighbour).
    pub src_tile: TileId,
    /// Executing tile (destination RF).
    pub tile: TileId,
    /// Cycle within the block schedule.
    pub cycle: usize,
    /// When `Some(s)`, this move commits `value` into the persistent
    /// register of symbol `s` (so `tile` must be `s`'s home tile).
    pub commit_symbol: Option<SymbolId>,
}

/// Mapping of one basic block.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BlockMapping {
    /// Schedule length in cycles (all tiles run this many cycles).
    pub length: usize,
    /// Placed operation instances.
    pub ops: Vec<PlacedOp>,
    /// Placed routing/commit moves.
    pub moves: Vec<PlacedMove>,
}

impl BlockMapping {
    /// Number of instructions (ops + moves) mapped onto `tile`.
    pub fn instr_count(&self, tile: TileId) -> usize {
        self.ops.iter().filter(|o| o.tile == tile).count()
            + self.moves.iter().filter(|m| m.tile == tile).count()
    }

    /// Exact number of `pnop` words tile `tile` needs for this block: the
    /// number of maximal idle runs in its `length`-cycle schedule.
    pub fn pnop_count(&self, tile: TileId) -> usize {
        let mut occupied = vec![false; self.length];
        for (t, c) in self
            .ops
            .iter()
            .map(|o| (o.tile, o.cycle))
            .chain(self.moves.iter().map(|m| (m.tile, m.cycle)))
        {
            if t == tile {
                occupied[c] = true;
            }
        }
        let mut runs = 0;
        let mut in_run = false;
        for &occ in &occupied {
            if !occ && !in_run {
                runs += 1;
                in_run = true;
            } else if occ {
                in_run = false;
            }
        }
        runs
    }

    /// Exact context words tile `tile` needs for this block:
    /// `instr_count + pnop_count` (Section III-C accounting).
    pub fn context_words(&self, tile: TileId) -> usize {
        self.instr_count(tile) + self.pnop_count(tile)
    }
}

/// Mapping of a whole kernel: one [`BlockMapping`] per basic block plus the
/// symbol-variable home assignment.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KernelMapping {
    /// Per-block mappings, indexed by `BlockId`.
    pub blocks: Vec<BlockMapping>,
    /// Home tile of every symbol variable (its persistent RF slot).
    /// A `BTreeMap` so iteration order is sorted by symbol id *by
    /// construction* — everything downstream of the mapper (assembler
    /// register assignment, listings, CSV reports) observes a
    /// deterministic order without having to re-sort.
    pub symbol_homes: BTreeMap<SymbolId, TileId>,
}

impl KernelMapping {
    /// The mapping of one block.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn block(&self, block: BlockId) -> &BlockMapping {
        &self.blocks[block.0 as usize]
    }

    /// Total context words tile `tile` needs across all blocks.
    pub fn context_words(&self, tile: TileId) -> usize {
        self.blocks.iter().map(|b| b.context_words(tile)).sum()
    }

    /// Total mapped instructions (ops + moves) on `tile` across blocks.
    pub fn instr_count(&self, tile: TileId) -> usize {
        self.blocks.iter().map(|b| b.instr_count(tile)).sum()
    }

    /// Total moves across all tiles and blocks (the Fig 5 "moves" series).
    pub fn total_moves(&self) -> usize {
        self.blocks.iter().map(|b| b.moves.len()).sum()
    }

    /// Total pnop words across all tiles and blocks (the Fig 5 "pnops"
    /// series) for a CGRA with `num_tiles` tiles.
    pub fn total_pnops(&self, num_tiles: usize) -> usize {
        (0..num_tiles)
            .map(TileId)
            .map(|t| self.blocks.iter().map(|b| b.pnop_count(t)).sum::<usize>())
            .sum()
    }

    /// Sum of schedule lengths (static latency of one pass through every
    /// block).
    pub fn total_length(&self) -> usize {
        self.blocks.iter().map(|b| b.length).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn placed(tile: usize, cycle: usize) -> PlacedOp {
        PlacedOp {
            op: OpId(0),
            tile: TileId(tile),
            cycle,
            operands: vec![],
            direct_symbol_write: false,
        }
    }

    #[test]
    fn pnop_count_counts_idle_runs() {
        let bm = BlockMapping {
            length: 8,
            ops: vec![placed(0, 2), placed(0, 5)],
            moves: vec![],
        };
        // tile 0: idle 0-1, busy 2, idle 3-4, busy 5, idle 6-7 -> 3 runs.
        assert_eq!(bm.pnop_count(TileId(0)), 3);
        assert_eq!(bm.instr_count(TileId(0)), 2);
        assert_eq!(bm.context_words(TileId(0)), 5);
        // An untouched tile is one big idle run.
        assert_eq!(bm.pnop_count(TileId(1)), 1);
        assert_eq!(bm.context_words(TileId(1)), 1);
    }

    #[test]
    fn fully_busy_tile_needs_no_pnops() {
        let bm = BlockMapping {
            length: 3,
            ops: vec![placed(2, 0), placed(2, 1), placed(2, 2)],
            moves: vec![],
        };
        assert_eq!(bm.pnop_count(TileId(2)), 0);
        assert_eq!(bm.context_words(TileId(2)), 3);
    }

    #[test]
    fn kernel_totals_aggregate_blocks() {
        let b0 = BlockMapping {
            length: 2,
            ops: vec![placed(0, 0)],
            moves: vec![PlacedMove {
                value: ValueId(0),
                src_tile: TileId(0),
                tile: TileId(1),
                cycle: 1,
                commit_symbol: None,
            }],
        };
        let b1 = BlockMapping {
            length: 1,
            ops: vec![placed(1, 0)],
            moves: vec![],
        };
        let km = KernelMapping {
            blocks: vec![b0, b1],
            symbol_homes: BTreeMap::new(),
        };
        assert_eq!(km.total_moves(), 1);
        assert_eq!(km.total_length(), 3);
        assert_eq!(km.instr_count(TileId(1)), 2);
        // tile0: block0 words = 1 op + pnop(cycle1) = 2; block1 = pnop = 1.
        assert_eq!(km.context_words(TileId(0)), 3);
    }
}
