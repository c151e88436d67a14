//! Context-memory regions: the memory sizes one map's decisions hold for.
//!
//! The mapper reads a tile's context-memory size `cm_words` in exactly
//! one place, [`MapCtx::fits`](crate::partial::MapCtx::fits): whether
//! `words` context words fit the tile once `reserve` words are kept for
//! the blocks still to map, `words ≤ cm_words − reserve` (saturating at
//! zero). The CAB blacklist, the ACMAP and ECMAP verdicts (the ECMAP flip
//! threshold included) and the finalize fit all ask that question.
//!
//! Each outcome bounds `cm_words` on one side:
//!
//! * `words` fits  ⇔ `cm_words ≥ words + reserve` (no bound for
//!   `words = 0`, which fits every tile);
//! * `words` overflows ⇔ `cm_words ≤ words + reserve − 1`.
//!
//! A map intersects the bounds of every comparison it made into one
//! closed interval per tile, its [`CmRegion`]. Everything else the mapper
//! reads — the CDFG, the options, the geometry and each tile's LSU, RF
//! and CRF — is the same for every configuration the region is compared
//! against, so a configuration whose memories all lie inside the region
//! makes every comparison come out the same. The same comparisons build
//! the same candidate pools, so the seeded pruning draws the same random
//! numbers: the map returns the same mapping (or error) and the same
//! [`MapStats`](crate::MapStats).

use cmam_arch::{CgraConfig, TileId};
use std::cell::Cell;

/// Per tile, the closed interval of `cm_words` over which every capacity
/// comparison of one map comes out as it did (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CmRegion {
    bounds: Vec<(usize, usize)>,
}

impl CmRegion {
    /// Per tile, the lowest and highest `cm_words` of the region (the
    /// highest is `usize::MAX` when no comparison overflowed the tile).
    pub fn bounds(&self) -> &[(usize, usize)] {
        &self.bounds
    }

    /// Whether every tile of `config` has its context memory inside the
    /// region (a configuration with another tile count never is).
    pub fn contains(&self, config: &CgraConfig) -> bool {
        self.bounds.len() == config.geometry().num_tiles()
            && config
                .tiles()
                .zip(&self.bounds)
                .all(|((_, tile), &(lo, hi))| (lo..=hi).contains(&tile.cm_words))
    }
}

/// The region being recorded while a map runs: one interval per tile,
/// narrowed by every comparison. Starts at `1..=usize::MAX`, since no
/// configuration has an empty context memory.
#[derive(Debug, Clone)]
pub(crate) struct RegionLog {
    bounds: Vec<Cell<(usize, usize)>>,
}

impl RegionLog {
    pub(crate) fn new(ntiles: usize) -> Self {
        RegionLog {
            bounds: vec![Cell::new((1, usize::MAX)); ntiles],
        }
    }

    /// Narrows `tile`'s interval to the memories for which `words ≤
    /// cm_words − reserve` has the outcome `fits`.
    #[inline]
    pub(crate) fn record(&self, tile: TileId, words: usize, reserve: usize, fits: bool) {
        let cell = &self.bounds[tile.0];
        let (lo, hi) = cell.get();
        if !fits {
            cell.set((lo, hi.min(words + reserve - 1)));
        } else if words > 0 {
            cell.set((lo.max(words + reserve), hi));
        }
    }

    /// The region recorded so far.
    pub(crate) fn region(&self) -> CmRegion {
        CmRegion {
            bounds: self.bounds.iter().map(Cell::get).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_outcome_bounds_one_side() {
        let log = RegionLog::new(3);
        log.record(TileId(0), 5, 2, true); // 5 ≤ cm − 2 ⇒ cm ≥ 7
        log.record(TileId(0), 9, 2, false); // 9 > cm − 2 ⇒ cm ≤ 10
        log.record(TileId(1), 0, 4, true); // fits any tile
        log.record(TileId(2), 1, 3, false); // 1 > cm − 3 ⇒ cm ≤ 3
        let region = log.region();
        assert_eq!(
            region.bounds(),
            &[(7, 10), (1, usize::MAX), (1, 3)][..],
            "{region:?}"
        );
    }

    /// Every outcome the recorder turns into a bound is the comparison's
    /// outcome at every memory inside the bound, and the opposite one
    /// just outside it.
    #[test]
    fn bounds_are_exactly_the_memories_with_the_same_outcome() {
        for reserve in 0..4 {
            for words in 0..8 {
                for cm in 1..16 {
                    let fits = words <= usize::saturating_sub(cm, reserve);
                    let log = RegionLog::new(1);
                    log.record(TileId(0), words, reserve, fits);
                    let (lo, hi) = log.region().bounds()[0];
                    for other in 1..32 {
                        let same = (words <= usize::saturating_sub(other, reserve)) == fits;
                        assert_eq!(
                            (lo..=hi).contains(&other),
                            same,
                            "words {words} reserve {reserve} cm {cm} other {other}"
                        );
                    }
                }
            }
        }
    }
}
