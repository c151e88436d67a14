//! The engine's memory region table.
//!
//! Every map certifies a [`CmRegion`]: per tile, the context-memory,
//! register-file and constant-register-file sizes over which each of its
//! capacity comparisons comes out the same (see [`cmam_core::region`]).
//! Two jobs whose CDFG, mapper options and array structure match —
//! everything the mapper reads except memory sizes — therefore map
//! identically when the second job's memories lie inside the first job's
//! region, and their mapping lowers to the same binary and report
//! ([`cmam_isa::lower`]). The table remembers, per such *map key*, the
//! region of every job whose map ran and produced a map failure or a
//! binary, whether or not that binary fit the job's own memories; a later
//! job inside one of them reuses the map instead of running it and checks
//! the binary's fit on its own memories (see
//! [`job::execute_in_region`](crate::job)).
//!
//! Entries are published as soon as their job finishes, so later jobs of
//! the same batch can use them. Which job of a batch maps and which reuses
//! its region therefore depends on scheduling when the engine has more
//! than one worker; the results never do.

use crate::fingerprint::{Fingerprint, Fnv64};
use crate::job::{Certificate, FailStage, JobRequest, Lowered};
use crate::{lock_recover, Memo};
use cmam_arch::CgraConfig;
use cmam_core::{CmRegion, MapStats};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// What one certified map answers the jobs inside its region with.
#[derive(Debug, Clone)]
pub(crate) enum Produced {
    /// The producing job's memo entry: a mapping's outcome, or a map
    /// failure.
    Memo(Arc<Memo>),
    /// A binary that failed [`cmam_isa::check_fit`] on the producing
    /// job's own memories (its memo entry holds only that failure).
    Unfit(Arc<Lowered>),
}

/// One certified map: its region, its search statistics (a failed map's
/// result carries none) and what it produced, shared with the producing
/// job's memo entry where that holds it.
#[derive(Debug)]
struct Entry {
    region: CmRegion,
    stats: MapStats,
    produced: Produced,
}

/// The certified maps of one engine, by map key.
#[derive(Debug, Default)]
pub(crate) struct RegionTable {
    entries: Mutex<HashMap<u64, Vec<Entry>>>,
}

/// The part of a job the mapper reads, apart from memory sizes: the
/// CDFG, the mapper options, the geometry and each tile's LSU. The
/// configuration's name and its `cm_words`, `rf_words` and `crf_words`
/// stay out.
pub(crate) fn map_key(req: &JobRequest<'_>) -> u64 {
    let mut h = Fnv64::new();
    req.spec.cdfg.fingerprint(&mut h);
    req.options.fingerprint(&mut h);
    req.config.geometry().fingerprint(&mut h);
    for (_, tile) in req.config.tiles() {
        h.feed_bool(tile.has_lsu);
    }
    h.finish()
}

impl RegionTable {
    /// What an earlier map under `key` whose region holds `config`'s
    /// memories produced, and its map statistics.
    pub(crate) fn find(&self, key: u64, config: &CgraConfig) -> Option<(Produced, MapStats)> {
        let entries = lock_recover(&self.entries);
        let hit = entries
            .get(&key)?
            .iter()
            .find(|e| e.region.contains(config))?;
        Some((hit.produced.clone(), hit.stats.clone()))
    }

    /// Records the region of a job whose map ran, when what it produced
    /// is one a later job can share: a mapping whose binary fits or does
    /// not fit the job's memories, or a map failure.
    pub(crate) fn publish(&self, key: u64, certificate: Certificate, memo: &Arc<Memo>) {
        let Certificate {
            region,
            stats,
            unfit,
        } = certificate;
        let produced = match (unfit, &memo.result) {
            (Some(unfit), _) => Produced::Unfit(Arc::new(unfit)),
            (None, Ok(_)) => Produced::Memo(Arc::clone(memo)),
            (None, Err(f)) if f.stage == FailStage::Map => Produced::Memo(Arc::clone(memo)),
            (None, Err(_)) => return,
        };
        lock_recover(&self.entries)
            .entry(key)
            .or_default()
            .push(Entry {
                region,
                stats,
                produced,
            });
    }
}
