//! The engine's context-memory region table.
//!
//! Every map certifies a [`CmRegion`]: per tile, the context-memory
//! sizes over which each of its capacity comparisons comes out the same
//! (see [`cmam_core::region`]). Two jobs whose CDFG, mapper options and
//! array structure match — everything the mapper reads except `cm_words`
//! — therefore map identically when the second job's memories lie inside
//! the first job's region. The table remembers, per such *map key*, the
//! region of every job whose map ran and whose result is a mapping or a
//! map failure, next to that job's memo entry; a later job inside one of
//! them reuses the map instead of running it (see
//! [`job::execute_in_region`](crate::job)).
//!
//! Entries are published as soon as their job finishes, so later jobs of
//! the same batch can use them. Which job of a batch maps and which reuses
//! its region therefore depends on scheduling when the engine has more
//! than one worker; the results never do.

use crate::fingerprint::{Fingerprint, Fnv64};
use crate::job::{FailStage, JobRequest};
use crate::{lock_recover, Memo};
use cmam_arch::CgraConfig;
use cmam_core::{CmRegion, MapStats};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One certified map: its region, its search statistics (a failed map's
/// result carries none) and the producing job's memo entry, which holds
/// the only copy of its binary.
#[derive(Debug)]
struct Entry {
    region: CmRegion,
    stats: MapStats,
    memo: Arc<Memo>,
}

/// The certified maps of one engine, by map key.
#[derive(Debug, Default)]
pub(crate) struct RegionTable {
    entries: Mutex<HashMap<u64, Vec<Entry>>>,
}

/// The part of a job the mapper reads, apart from context-memory sizes:
/// the CDFG, the mapper options, the geometry and each tile's LSU, RF
/// and CRF. The configuration's name and `cm_words` stay out.
pub(crate) fn map_key(req: &JobRequest<'_>) -> u64 {
    let mut h = Fnv64::new();
    req.spec.cdfg.fingerprint(&mut h);
    req.options.fingerprint(&mut h);
    req.config.geometry().fingerprint(&mut h);
    for (_, tile) in req.config.tiles() {
        h.feed_bool(tile.has_lsu);
        h.feed_usize(tile.rf_words);
        h.feed_usize(tile.crf_words);
    }
    h.finish()
}

impl RegionTable {
    /// The memo entry and map statistics of an earlier map under `key`
    /// whose region holds `config`'s memories.
    pub(crate) fn find(&self, key: u64, config: &CgraConfig) -> Option<(Arc<Memo>, MapStats)> {
        let entries = lock_recover(&self.entries);
        let hit = entries
            .get(&key)?
            .iter()
            .find(|e| e.region.contains(config))?;
        Some((Arc::clone(&hit.memo), hit.stats.clone()))
    }

    /// Records the region of a job whose map ran, when its result is one
    /// a later job can share: a mapping, or a map failure.
    pub(crate) fn publish(&self, key: u64, region: CmRegion, stats: MapStats, memo: &Arc<Memo>) {
        let shareable = match &memo.result {
            Ok(_) => true,
            Err(f) => f.stage == FailStage::Map,
        };
        if shareable {
            lock_recover(&self.entries)
                .entry(key)
                .or_default()
                .push(Entry {
                    region,
                    stats,
                    memo: Arc::clone(memo),
                });
        }
    }
}
