//! Memory regions: the tile memory sizes one map's decisions hold for.
//!
//! A tile has three sized memories: its context memory (`cm_words`), its
//! register file (`rf_words`) and its constant register file
//! (`crf_words`). The mapper reads each of them only in recorded
//! comparisons of [`MapCtx`](crate::partial::MapCtx), every one of the
//! form `size ≥ need`:
//!
//! * [`fits`](crate::partial::MapCtx::fits): whether `words` context words
//!   fit the tile once `reserve` words are kept for the blocks still to
//!   map, `words ≤ cm_words − reserve` (saturating at zero), i.e.
//!   `cm_words ≥ words + reserve` (`need = 0` for `words = 0`, which fits
//!   every tile). The CAB blacklist, the ACMAP and ECMAP verdicts (the
//!   ECMAP flip threshold included) and the finalize fit all ask it.
//! * The register-file room of a live range: one more block-local copy
//!   fits every cycle of the range next to `persistent` symbol registers
//!   when every live-copy count `c` of the range is below `rf_words −
//!   persistent`. It passes iff `rf_words ≥ peak + persistent + 1`, with
//!   `peak` the range's highest count; a failure at count `c` holds for
//!   every `rf_words ≤ c + persistent`.
//! * Pinning a symbol home: `persistent + pressure < rf_words`, i.e.
//!   `rf_words ≥ persistent + pressure + 1`.
//! * The CRF checks of binding and re-computation: `n` distinct constants
//!   fit iff `crf_words ≥ n`.
//!
//! Each outcome bounds the size on one side: `size ≥ need` holding gives
//! the lower bound `need`, failing gives the upper bound `need − 1`. A map
//! intersects the bounds of every comparison it made into one closed
//! interval per tile and memory, its [`CmRegion`]. Everything else the
//! mapper reads — the CDFG, the options, the geometry and each tile's
//! LSU — is the same for every configuration the region is compared
//! against, so a configuration whose memories all lie inside the region
//! makes every comparison come out the same. The same comparisons build
//! the same candidate pools, so the seeded pruning draws the same random
//! numbers: the map returns the same mapping (or error) and the same
//! [`MapStats`](crate::MapStats).

use cmam_arch::{CgraConfig, TileConfig, TileId};
use std::cell::Cell;

/// One of a tile's three sized memories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Memory {
    /// The context memory, `cm_words`.
    Cm,
    /// The register file, `rf_words`.
    Rf,
    /// The constant register file, `crf_words`.
    Crf,
}

impl Memory {
    /// The three memories, in the order of a [`CmRegion`]'s bounds.
    pub const ALL: [Memory; 3] = [Memory::Cm, Memory::Rf, Memory::Crf];

    /// This memory's size on `tile`, in words.
    pub fn size(self, tile: &TileConfig) -> usize {
        match self {
            Memory::Cm => tile.cm_words,
            Memory::Rf => tile.rf_words,
            Memory::Crf => tile.crf_words,
        }
    }
}

/// Per tile, a box of memory sizes: for each [`Memory`], the closed
/// interval over which every comparison of one map comes out as it did
/// (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CmRegion {
    bounds: Vec<[(usize, usize); 3]>,
}

impl CmRegion {
    /// Per tile, the lowest and highest size of each memory, in
    /// [`Memory::ALL`] order (the highest is `usize::MAX` when no
    /// comparison failed on it).
    pub fn bounds(&self) -> &[[(usize, usize); 3]] {
        &self.bounds
    }

    /// Whether every memory of every tile of `config` lies inside the
    /// region (a configuration with another tile count never does).
    pub fn contains(&self, config: &CgraConfig) -> bool {
        self.bounds.len() == config.geometry().num_tiles()
            && config.tiles().zip(&self.bounds).all(|((_, tile), b)| {
                Memory::ALL
                    .iter()
                    .zip(b)
                    .all(|(m, &(lo, hi))| (lo..=hi).contains(&m.size(tile)))
            })
    }
}

/// The region being recorded while a map runs: one interval per tile and
/// memory, narrowed by every comparison. Each starts at `1..=usize::MAX`,
/// since no configuration has an empty memory.
#[derive(Debug, Clone)]
pub(crate) struct RegionLog {
    /// Row-major per tile, in [`Memory::ALL`] order.
    bounds: Vec<Cell<(usize, usize)>>,
}

impl RegionLog {
    pub(crate) fn new(ntiles: usize) -> Self {
        RegionLog {
            bounds: vec![Cell::new((1, usize::MAX)); ntiles * Memory::ALL.len()],
        }
    }

    /// Narrows `tile`'s `memory` interval to the sizes for which `size ≥
    /// need` has the outcome `holds`.
    #[inline]
    pub(crate) fn record(&self, memory: Memory, tile: TileId, need: usize, holds: bool) {
        let cell = &self.bounds[tile.0 * Memory::ALL.len() + memory as usize];
        let (lo, hi) = cell.get();
        // A failure means `need > size ≥ 0`, so `need − 1` cannot wrap.
        cell.set(if holds {
            (lo.max(need), hi)
        } else {
            (lo, hi.min(need - 1))
        });
    }

    /// The region recorded so far.
    pub(crate) fn region(&self) -> CmRegion {
        CmRegion {
            bounds: self
                .bounds
                .chunks(Memory::ALL.len())
                .map(|b| [b[0].get(), b[1].get(), b[2].get()])
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_outcome_bounds_one_side() {
        let log = RegionLog::new(3);
        log.record(Memory::Cm, TileId(0), 7, true); // cm ≥ 7
        log.record(Memory::Cm, TileId(0), 11, false); // cm ≤ 10
        log.record(Memory::Rf, TileId(0), 3, true); // rf ≥ 3
        log.record(Memory::Cm, TileId(1), 0, true); // holds on any tile
        log.record(Memory::Crf, TileId(2), 4, false); // crf ≤ 3
        let region = log.region();
        let any = (1, usize::MAX);
        assert_eq!(
            region.bounds(),
            &[
                [(7, 10), (3, usize::MAX), any],
                [any, any, any],
                [any, any, (1, 3)]
            ][..],
            "{region:?}"
        );
    }

    /// Every outcome the recorder turns into a bound is the comparison's
    /// outcome at every size inside the bound, and the opposite one just
    /// outside it.
    #[test]
    fn bounds_are_exactly_the_memories_with_the_same_outcome() {
        for memory in Memory::ALL {
            for need in 0..12 {
                for size in 1..16 {
                    let holds = size >= need;
                    let log = RegionLog::new(1);
                    log.record(memory, TileId(0), need, holds);
                    let (lo, hi) = log.region().bounds()[0][memory as usize];
                    for other in 1..32 {
                        assert_eq!(
                            (lo..=hi).contains(&other),
                            (other >= need) == holds,
                            "{memory:?} need {need} size {size} other {other}"
                        );
                    }
                }
            }
        }
    }
}
