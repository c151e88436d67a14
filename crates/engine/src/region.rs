//! The engine's memory region table.
//!
//! Every map certifies a [`CmRegion`]: per tile, the context-memory,
//! register-file and constant-register-file sizes over which each of its
//! capacity comparisons comes out the same (see [`cmam_core::region`]).
//! Two jobs whose CDFG, mapper options and array structure match —
//! everything the mapper reads except memory sizes — therefore map
//! identically when the second job's memories lie inside the first job's
//! region, and their mapping lowers to the same binary and report
//! ([`cmam_isa::lower`]). A successful map whose context-memory
//! comparisons all held also answers the same kernel under every flow
//! that prunes less ([`CmRegion::covers`]).
//!
//! The table remembers, per *map key* (that part of a job without the
//! three memory-step flags, so one key holds a whole flow family), the
//! region of every map that produced a map failure or a binary, whether
//! or not that binary fit its job's own memories, with the options it
//! mapped under. A later job that such a region covers reuses the map
//! instead of running it and checks the binary's fit on its own memories
//! (see [`job::execute_in_region`](crate::job)).
//!
//! A job under weighted traversal and a strict subset of the flags (the
//! weighted, ACMAP and ECMAP flows) that finds no region first maps the
//! full flow on its own configuration with every context memory
//! unbounded ([`job::map_unbounded`](crate::job)), once per map key. On
//! unbounded memory every context-memory comparison holds, so a
//! successful map answers the weighted job outright, and an ACMAP or
//! ECMAP job whose memories lie inside its region. The map is published
//! as an ordinary full-flow entry, its binary kept lowered, a failure
//! too (it answers full-flow jobs inside its region); a job it does not
//! answer maps its own flow. Only the map that answers a job feeds the
//! `mapper.*` counters, once per job, so their totals stay a function of
//! the jobs.
//!
//! Entries are published as soon as their map finishes, so later jobs of
//! the same batch can use them. Which job of a batch maps and which reuses
//! its region therefore depends on scheduling when the engine has more
//! than one worker; the results never do.

use crate::fingerprint::{Fingerprint, Fnv64};
use crate::job::{Certificate, FailStage, JobRequest, Lowered, LoweredMap};
use crate::{lock_recover, Memo};
use cmam_arch::CgraConfig;
use cmam_core::{CmRegion, MapStats, MapperOptions, Traversal};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// What one certified map answers the jobs it covers with.
#[derive(Debug, Clone)]
pub(crate) enum Produced {
    /// The producing job's memo entry: a mapping's outcome, or a map
    /// failure.
    Memo(Arc<Memo>),
    /// A binary no job of its own simulated: one that failed
    /// [`cmam_isa::check_fit`] on the producing job's own memories (its
    /// memo entry holds only that failure), or an unbounded map's.
    Lowered(Arc<Lowered>),
}

/// One certified map: the options it mapped under, its region, its
/// search statistics (a failed map's result carries none) and what it
/// produced, shared with the producing job's memo entry where that holds
/// it.
#[derive(Debug)]
struct Entry {
    options: MapperOptions,
    region: CmRegion,
    stats: MapStats,
    produced: Produced,
}

/// The certified maps of one map key.
#[derive(Debug, Default)]
struct Family {
    entries: Vec<Entry>,
    /// Whether a job has claimed the key's unbounded map.
    unbounded_claimed: bool,
}

/// The certified maps of one engine, by map key.
#[derive(Debug, Default)]
pub(crate) struct RegionTable {
    families: Mutex<HashMap<u64, Family>>,
}

/// The part of a job the mapper reads, apart from memory sizes and the
/// three memory-step flags: the CDFG, the other mapper options, the
/// geometry and each tile's LSU. The configuration's name and its
/// `cm_words`, `rf_words` and `crf_words` stay out.
pub(crate) fn map_key(req: &JobRequest<'_>) -> u64 {
    let mut h = Fnv64::new();
    req.spec.cdfg.fingerprint(&mut h);
    MapperOptions {
        acmap: false,
        ecmap: false,
        cab: false,
        ..req.options.clone()
    }
    .fingerprint(&mut h);
    req.config.geometry().fingerprint(&mut h);
    for (_, tile) in req.config.tiles() {
        h.feed_bool(tile.has_lsu);
    }
    h.finish()
}

/// Whether a job under `options` that finds no region first takes its
/// map key's unbounded full-flow map: weighted traversal under a strict
/// subset of the three flags.
pub(crate) fn takes_unbounded(options: &MapperOptions) -> bool {
    options.traversal == Traversal::Weighted && !(options.acmap && options.ecmap && options.cab)
}

impl RegionTable {
    /// What an earlier map under `key` whose region covers a job under
    /// `options` on `config` produced, and its map statistics.
    pub(crate) fn find(
        &self,
        key: u64,
        options: &MapperOptions,
        config: &CgraConfig,
    ) -> Option<(Produced, MapStats)> {
        let families = lock_recover(&self.families);
        let hit = families.get(&key)?.entries.iter().find(|e| {
            let succeeded = !matches!(&e.produced, Produced::Memo(m) if m.result.is_err());
            e.region.covers(&e.options, succeeded, options, config)
        })?;
        Some((hit.produced.clone(), hit.stats.clone()))
    }

    /// Claims `key`'s unbounded map: `true` for the first caller only.
    pub(crate) fn claim_unbounded(&self, key: u64) -> bool {
        let mut families = lock_recover(&self.families);
        let family = families.entry(key).or_default();
        !std::mem::replace(&mut family.unbounded_claimed, true)
    }

    /// Records the map a job under `options` ran, when what it produced
    /// is one a later job can share: a mapping whose binary fits or does
    /// not fit the job's memories, or a map failure.
    pub(crate) fn publish(
        &self,
        key: u64,
        options: &MapperOptions,
        certificate: Certificate,
        memo: &Arc<Memo>,
    ) {
        let Certificate {
            region,
            stats,
            unfit,
        } = certificate;
        let produced = match (unfit, &memo.result) {
            (Some(unfit), _) => Produced::Lowered(Arc::new(unfit)),
            (None, Ok(_)) => Produced::Memo(Arc::clone(memo)),
            (None, Err(f)) if f.stage == FailStage::Map => Produced::Memo(Arc::clone(memo)),
            (None, Err(_)) => return,
        };
        self.push(key, options.clone(), region, stats, produced);
    }

    /// Records an unbounded map: its binary, or its map failure.
    pub(crate) fn publish_unbounded(&self, key: u64, map: LoweredMap) {
        let produced = match map.lowered {
            Ok(lowered) => Produced::Lowered(Arc::new(lowered)),
            Err(f) if f.stage == FailStage::Map => Produced::Memo(Memo::new(Err(f))),
            Err(_) => return,
        };
        self.push(key, map.options, map.region, map.stats, produced);
    }

    fn push(
        &self,
        key: u64,
        options: MapperOptions,
        region: CmRegion,
        stats: MapStats,
        produced: Produced,
    ) {
        lock_recover(&self.families)
            .entry(key)
            .or_default()
            .entries
            .push(Entry {
                options,
                region,
                stats,
                produced,
            });
    }
}
