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
//!
//! # Flow families
//!
//! The memory-aware steps only prune, and each context-memory comparison
//! runs behind one flag of [`MapperOptions`]:
//!
//! | comparison | runs when |
//! |---|---|
//! | the CAB blacklist (`tile_open`, `route_value`, `try_recompute`) | `cab` |
//! | the ACMAP verdicts (`verdict_base`, `child_verdicts`) | `acmap` |
//! | the ECMAP verdicts and flip threshold (same two) | `ecmap` |
//! | the finalize fit | any of the three ([`MapperOptions::memory_aware`]) |
//!
//! When every context-memory comparison of a map under flags `F` held,
//! no filter dropped anything: nothing was blacklisted, every verdict
//! passed, every finalize fit held, so `acmap_pruned` and `ecmap_pruned`
//! are 0 and every pool is the unpruned one. The expansion cut reads the
//! verdicts only through the enabled filters (a candidate counts toward
//! pruning's truncation when they keep it), so with every verdict passing
//! it counts every candidate under `F` and under any `F′ ⊆ F` alike, and
//! stops at the same slot. Take a job under flags
//! `F′ ⊆ F` with everything else the mapper reads equal and its memories
//! inside the region. By induction over the run it makes the same
//! trials: each comparison it makes is one `F` also made at the same
//! point, and that comparison holds at every size inside the region.
//! Its pools, seeded draws, `KernelMapping` and `MapStats` are therefore
//! the map's. A job with no flag (the weighted flow) reads no context
//! memory at all, so only its register files must lie inside the region.
//! [`CmRegion::covers`] states the rule. It answers weaker flows with
//! successful maps only: a failed map's error names its flow's step
//! (`MemoryConstraint` under an aware flow, `Unroutable` without one).

use crate::MapperOptions;
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
        self.holds(config, &Memory::ALL)
    }

    /// Whether every context-memory comparison of the map held: no tile's
    /// context-memory interval has a finite upper bound.
    pub fn all_held(&self) -> bool {
        self.bounds
            .iter()
            .all(|b| b[Memory::Cm as usize].1 == usize::MAX)
    }

    /// Whether a map under `mapped`, whose region this is and which
    /// `succeeded` or not, answers a job under `job` on `config`, that is
    /// returns the job's own mapping (or error) and [`MapStats`]. Both
    /// option sets must agree on everything but the three memory-step
    /// flags ([`MapperOptions::threads`] is ignored, like the mapper
    /// ignores it). Then:
    ///
    /// * under the same flags, when `config` lies inside the region, for
    ///   any outcome (see the module docs);
    /// * under strictly fewer flags, when the map succeeded, every
    ///   context-memory comparison held ([`all_held`](Self::all_held)) and
    ///   `config` lies inside the region, its context memories left out
    ///   when the job has no flag (see "Flow families" in the module
    ///   docs).
    ///
    /// [`MapStats`]: crate::MapStats
    pub fn covers(
        &self,
        mapped: &MapperOptions,
        succeeded: bool,
        job: &MapperOptions,
        config: &CgraConfig,
    ) -> bool {
        let flags = |o: &MapperOptions| [o.acmap, o.ecmap, o.cab];
        let family = |o: &MapperOptions| MapperOptions {
            acmap: false,
            ecmap: false,
            cab: false,
            threads: 0,
            ..o.clone()
        };
        let (m, j) = (flags(mapped), flags(job));
        if family(mapped) != family(job) {
            false
        } else if m == j {
            self.contains(config)
        } else if !succeeded || j.iter().zip(m).any(|(&j, m)| j && !m) || !self.all_held() {
            false
        } else if job.memory_aware() {
            self.contains(config)
        } else {
            self.holds(config, &[Memory::Rf, Memory::Crf])
        }
    }

    /// Whether each of `memories` of every tile of `config` lies inside
    /// the region.
    fn holds(&self, config: &CgraConfig, memories: &[Memory]) -> bool {
        self.bounds.len() == config.geometry().num_tiles()
            && config.tiles().zip(&self.bounds).all(|((_, tile), b)| {
                memories.iter().all(|&m| {
                    let (lo, hi) = b[m as usize];
                    (lo..=hi).contains(&m.size(tile))
                })
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

    #[test]
    fn weaker_flows_only_from_successful_maps_whose_comparisons_all_held() {
        use crate::FlowVariant::{Acmap, Basic, Cab, Weighted};
        let hom64 = CgraConfig::hom64();
        let tight = CgraConfig::builder(4, 4).uniform_cm(16).build().unwrap();
        let ntiles = hom64.geometry().num_tiles();
        let held = RegionLog::new(ntiles);
        held.record(Memory::Cm, TileId(0), 20, true); // cm ≥ 20
        let held = held.region();
        let (cab, acmap) = (Cab.options(), Acmap.options());
        assert!(held.covers(&cab, true, &acmap, &hom64));
        assert!(held.covers(&cab, false, &cab, &hom64), "its own flow");
        assert!(!held.covers(&cab, false, &acmap, &hom64), "a failure");
        assert!(!held.covers(&acmap, true, &cab, &hom64), "a stronger flow");
        assert!(
            !held.covers(&cab, true, &Basic.options(), &hom64),
            "forward"
        );
        let reseeded = MapperOptions { seed: 1, ..acmap };
        assert!(!held.covers(&cab, true, &reseeded, &hom64), "another seed");
        let threaded = MapperOptions {
            threads: 4,
            ..cab.clone()
        };
        assert!(held.covers(&threaded, true, &Weighted.options(), &hom64));
        // Below a context-memory lower bound only the weighted flow, which
        // reads no context memory, stays covered.
        assert!(!held.covers(&cab, true, &Acmap.options(), &tight));
        assert!(held.covers(&cab, true, &Weighted.options(), &tight));
        let overflowed = RegionLog::new(ntiles);
        overflowed.record(Memory::Cm, TileId(3), 80, false); // cm ≤ 79
        let overflowed = overflowed.region();
        assert!(!overflowed.all_held());
        assert!(overflowed.covers(&cab, true, &cab, &hom64));
        assert!(!overflowed.covers(&cab, true, &Weighted.options(), &hom64));
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
