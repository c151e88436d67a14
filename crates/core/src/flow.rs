//! The whole-kernel mapping driver (Fig 4 of the paper).
//!
//! For every basic block (in forward or weighted traversal order), the
//! driver runs the population-based list-scheduling/binding loop:
//!
//! ```text
//! for op in priority order:
//!     candidates = { partial + (op -> tile, cycle) : feasible bindings }
//!     ACMAP filter          (if enabled)
//!     ECMAP filter          (if enabled)
//!     stochastic pruning    (population cap)
//! finalize (symbol commits, exact fit check), pick the cheapest mapping
//! ```
//!
//! and commits the winner's context-word usage, CRF contents and symbol
//! homes before moving to the next block.

use crate::options::{MapperOptions, Traversal};
use crate::partial::{FlowState, MapCtx, MapPre, Partial};
use crate::prune::stochastic_prune_by;
use crate::schedule::priority_order;
use cmam_arch::{CgraConfig, TileId};
use cmam_cdfg::analysis::{forward_order, weighted_order, DepGraph};
use cmam_cdfg::{BlockId, Cdfg, OpId, ValidateError};
use cmam_isa::KernelMapping;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Why a kernel could not be mapped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// The CDFG failed structural validation.
    Invalid(ValidateError),
    /// The [`MapperOptions`] cannot drive a search (a zero population,
    /// expansion or schedule bound); rejected before any work.
    InvalidOptions(&'static str),
    /// No feasible binding existed for an operation of `block` even after
    /// slack escalation (routing/recomputation exhausted).
    Unroutable {
        /// The failing block.
        block: BlockId,
    },
    /// Every candidate was pruned by the context-memory constraints — the
    /// kernel does not fit this configuration (the "zero" bars of
    /// Figs 6-8).
    MemoryConstraint {
        /// The failing block.
        block: BlockId,
        /// Which step rejected the last candidates (`"binding"`,
        /// `"ACMAP"`, `"ECMAP"` or `"finalize"`).
        step: &'static str,
    },
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Invalid(e) => write!(f, "invalid cdfg: {e}"),
            MapError::InvalidOptions(why) => write!(f, "invalid mapper options: {why}"),
            MapError::Unroutable { block } => {
                write!(f, "no feasible binding while mapping {block}")
            }
            MapError::MemoryConstraint { block, step } => {
                write!(
                    f,
                    "context-memory constraints unsatisfiable in {block} ({step})"
                )
            }
        }
    }
}

impl Error for MapError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MapError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ValidateError> for MapError {
    fn from(e: ValidateError) -> Self {
        MapError::Invalid(e)
    }
}

/// Search statistics of one mapping run (used by the Fig 9 compilation
/// effort comparison and by tests).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MapStats {
    /// Candidate bindings generated (successful `try_place_op` calls).
    pub candidates: u64,
    /// Candidate bindings attempted (including failures): every
    /// `(partial, tile, cycle)` of the expansion window. A tile that
    /// cannot take the op at all (no LSU for a memory op, or CAB
    /// blacklisted) counts its whole window, `slack + 1` attempts,
    /// without trying any.
    pub attempts: u64,
    /// Partials dropped by the ACMAP filter.
    pub acmap_pruned: u64,
    /// Partials dropped by the ECMAP filter.
    pub ecmap_pruned: u64,
    /// Partials dropped by the stochastic pruning.
    pub stochastic_pruned: u64,
    /// Partials that failed finalisation (commit or exact fit).
    pub finalize_failures: u64,
    /// Number of slack escalations needed.
    pub escalations: u64,
    /// Largest candidate pool alive at once (after binding expansion,
    /// before the memory filters) — the search's peak memory pressure,
    /// a timing-noise-free effort measure for Fig 9 and the DSE sweep.
    pub peak_population: u64,
    /// Trial bindings undone on the shared partial state during candidate
    /// expansion — every try that left a delta (surviving candidates and
    /// failed attempts alike) is rolled back rather than cloned away.
    /// Zero for mapper implementations that evaluate candidates on
    /// clones; together with `attempts` this measures how much work the
    /// try/undo scheme saves over clone-per-candidate.
    pub rollbacks: u64,
}

impl MapStats {
    /// Flushes this run's aggregated statistics into the global
    /// `mapper.*` metrics — called once per [`Mapper::map`], so the
    /// search loops themselves carry no metrics instructions. The totals
    /// are deterministic across thread counts because `MapStats` itself
    /// is (pinned by the golden-equivalence suite).
    pub fn flush_metrics(&self, failed: bool) {
        cmam_obs::counter!("mapper.maps").add(1);
        if failed {
            cmam_obs::counter!("mapper.map_failures").add(1);
        }
        cmam_obs::counter!("mapper.candidates").add(self.candidates);
        cmam_obs::counter!("mapper.attempts").add(self.attempts);
        cmam_obs::counter!("mapper.acmap_pruned").add(self.acmap_pruned);
        cmam_obs::counter!("mapper.ecmap_pruned").add(self.ecmap_pruned);
        cmam_obs::counter!("mapper.stochastic_pruned").add(self.stochastic_pruned);
        cmam_obs::counter!("mapper.finalize_failures").add(self.finalize_failures);
        cmam_obs::counter!("mapper.escalations").add(self.escalations);
        cmam_obs::counter!("mapper.rollbacks").add(self.rollbacks);
        cmam_obs::gauge!("mapper.peak_population").raise(self.peak_population as i64);
    }
}

/// Wall time per mapper stage of one [`Mapper::map`] call, in
/// nanoseconds. Accumulated per op step (expansion, filter + prune,
/// materialise) and per block (schedule, finalize) — never per trial —
/// and flushed once per call into the `mapper.stage_ns.*` counters.
/// Timings vary from run to run, so they stay out of [`MapStats`], which
/// tests compare for equality.
#[derive(Debug, Default)]
struct StageNs {
    schedule: u64,
    expand: u64,
    prune: u64,
    materialise: u64,
    finalize: u64,
}

impl StageNs {
    fn flush_metrics(&self) {
        cmam_obs::counter!("mapper.stage_ns.schedule").add(self.schedule);
        cmam_obs::counter!("mapper.stage_ns.expand").add(self.expand);
        cmam_obs::counter!("mapper.stage_ns.prune").add(self.prune);
        cmam_obs::counter!("mapper.stage_ns.materialise").add(self.materialise);
        cmam_obs::counter!("mapper.stage_ns.finalize").add(self.finalize);
    }
}

/// Nanoseconds since `*mark`, moving the mark to now: consecutive laps
/// split one stretch of wall time into disjoint stages.
fn lap(mark: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = now.duration_since(*mark).as_nanos() as u64;
    *mark = now;
    ns
}

/// A successful mapping plus its statistics.
#[derive(Debug, Clone)]
pub struct MapResult {
    /// The mapping, ready for `cmam_isa::assemble`.
    pub mapping: KernelMapping,
    /// Search statistics.
    pub stats: MapStats,
}

/// The mapping engine. One instance is reusable across kernels and
/// configurations; each [`map`](Mapper::map) call is deterministic for the
/// options' seed.
#[derive(Debug, Clone, Default)]
pub struct Mapper {
    options: MapperOptions,
}

/// One successful trial binding: which parent it extends and where the op
/// goes, plus everything the downstream pipeline steps need (cost for
/// ranking, the memory-filter verdicts) — recorded while the delta was
/// applied, before it was rolled back. Only the candidates that survive
/// pruning are ever materialised into real [`Partial`]s.
struct Candidate {
    parent: u32,
    tile: TileId,
    cycle: u32,
    cost: (usize, usize),
    acmap_ok: bool,
    ecmap_ok: bool,
}

impl Candidate {
    /// Rank within one parent's candidates: cost, then generation order
    /// (tiles ascending, then cycles ascending) — a total order, so
    /// selecting by it keeps exactly what a stable sort by cost keeps.
    fn rank(&self) -> ((usize, usize), TileId, u32) {
        (self.cost, self.tile, self.cycle)
    }
}

/// Search counters produced by one expansion shard; folded into
/// [`MapStats`] after the (sequential or parallel) round joins. Plain
/// integer sums, so the fold order cannot influence the totals.
#[derive(Debug, Clone, Copy, Default)]
struct ExpandStats {
    attempts: u64,
    candidates: u64,
    rollbacks: u64,
}

impl ExpandStats {
    fn absorb(&mut self, other: ExpandStats) {
        self.attempts = self.attempts.saturating_add(other.attempts);
        self.candidates += other.candidates;
        self.rollbacks += other.rollbacks;
    }
}

/// Expands one partial mapping for `op` at the given `slack`: the
/// tiles × cycles try/rollback loop, the per-candidate memory-filter
/// verdicts, and the per-partial expansion cut. **The** candidate
/// generator — the sequential path and every parallel beam shard call
/// exactly this function, which is what makes the parallel search
/// bit-identical to the sequential one by construction.
///
/// Everything that does not depend on the trial is decided once: tile
/// legality (LSU, CAB blacklist) per tile, window cycles past
/// `max_schedule` per call, and the parent half of the memory verdicts.
/// These checks never mutate, so skipping a closed tile or an
/// out-of-range cycle counts the attempt exactly as trying it would.
#[allow(clippy::too_many_arguments)]
fn expand_partial(
    ctx: &MapCtx<'_>,
    deps: &DepGraph,
    tiles: &[TileId],
    op: OpId,
    slack: usize,
    pi: usize,
    partial: &mut Partial,
    out: &mut Vec<Candidate>,
) -> ExpandStats {
    let mut st = ExpandStats::default();
    let earliest = partial.earliest_cycle(deps, op);
    let window = (slack as u64).saturating_add(1);
    // Cycles at or past `max_schedule` fail before any mutation.
    let last = earliest
        .saturating_add(slack)
        .min(ctx.options.max_schedule - 1);
    let cp = partial.checkpoint();
    let base = partial.verdict_base(ctx);
    let start = out.len();
    for &tile in tiles {
        st.attempts = st.attempts.saturating_add(window);
        if !partial.tile_open(ctx, op, tile) {
            continue;
        }
        for cycle in earliest..=last {
            if !partial.slot_free(tile, cycle) {
                continue;
            }
            if partial.place_on_open_tile(ctx, op, tile, cycle) {
                st.candidates += 1;
                let (acmap_ok, ecmap_ok) = partial.child_verdicts(ctx, &base, cp);
                out.push(Candidate {
                    parent: pi as u32,
                    tile,
                    cycle: cycle as u32,
                    cost: partial.cost(),
                    acmap_ok,
                    ecmap_ok,
                });
            }
            if partial.dirty_since(cp) {
                st.rollbacks += 1;
                partial.rollback(cp);
            }
        }
    }
    // Note the expansion cut happens *before* the memory filters, exactly
    // like the paper's Fig 4 pipeline (binding -> ACMAP -> stochastic
    // pruning): the memory-aware steps prune the partial-mapping set,
    // they do not re-rank the binder's candidates. This is what makes
    // over-constrained targets fail (the zero bars of Figs 6-8) instead
    // of being rescued by exhaustive candidate filtering. The cut keeps
    // the `expansion` best by cost, ties in generation order — what a
    // stable sort by cost then truncation keeps — selected, then sorted.
    let keep = ctx.options.expansion;
    if out.len() - start > keep {
        out[start..].select_nth_unstable_by_key(keep - 1, Candidate::rank);
        out.truncate(start + keep);
    }
    out[start..].sort_unstable_by_key(Candidate::rank);
    st
}

/// The owned copy of one `map()` call's inputs that parallel beam shards
/// share through an `Arc`. Cloning the CDFG and configuration once per
/// `map()` call (graph-sized, microseconds) is what lets the shard jobs
/// be `'static` for the persistent [`cmam_pool`] workers — no borrow of
/// the caller's stack ever crosses a thread.
#[derive(Debug)]
struct SharedSearch {
    cdfg: Cdfg,
    config: CgraConfig,
    options: MapperOptions,
    pre: MapPre,
}

impl SharedSearch {
    fn ctx(&self, reserve: usize) -> MapCtx<'_> {
        MapCtx {
            cdfg: &self.cdfg,
            config: &self.config,
            options: &self.options,
            reserve,
            pre: &self.pre,
        }
    }
}

/// Handle for the intra-search beam parallelism: the shared inputs plus
/// the resolved thread count. Present only when
/// [`MapperOptions::effective_threads`] > 1.
struct BeamPool {
    shared: Arc<SharedSearch>,
    threads: usize,
}

/// Takes every partial back out of the per-index slots after a parallel
/// round joined, restoring the population in index order.
fn take_back(slots: &[Mutex<Option<Partial>>]) -> Vec<Partial> {
    slots
        .iter()
        .map(|s| {
            s.lock()
                .expect("beam slot poisoned")
                .take()
                .expect("every shard returned its partial")
        })
        .collect()
}

/// Wraps a population into the `Mutex<Option<_>>` slots parallel jobs
/// move their partials in and out of.
fn into_slots(population: Vec<Partial>) -> Arc<Vec<Mutex<Option<Partial>>>> {
    Arc::new(
        population
            .into_iter()
            .map(|p| Mutex::new(Some(p)))
            .collect(),
    )
}

impl BeamPool {
    /// One parallel expansion round: shards the `tiles × slack`
    /// try/rollback loop across the beam (one shard per live partial) and
    /// concatenates the per-partial candidate lists back **in partial
    /// index order** — the exact order the sequential loop produces.
    fn expand_round(
        &self,
        reserve: usize,
        deps: &Arc<DepGraph>,
        tiles: &Arc<Vec<TileId>>,
        op: OpId,
        slack: usize,
        population: Vec<Partial>,
    ) -> (Vec<Partial>, Vec<Candidate>, ExpandStats) {
        let n = population.len();
        let slots = into_slots(population);
        let job_slots = Arc::clone(&slots);
        let shared = Arc::clone(&self.shared);
        let deps = Arc::clone(deps);
        let tiles = Arc::clone(tiles);
        let results = cmam_pool::global().run_indexed(n, self.threads, move |i| {
            let ctx = shared.ctx(reserve);
            let mut p = job_slots[i]
                .lock()
                .expect("beam slot poisoned")
                .take()
                .expect("partial present");
            let mut local = Vec::new();
            let st = expand_partial(&ctx, &deps, &tiles, op, slack, i, &mut p, &mut local);
            *job_slots[i].lock().expect("beam slot poisoned") = Some(p);
            (local, st)
        });
        let population = take_back(&slots);
        let mut pool: Vec<Candidate> = Vec::new();
        let mut st = ExpandStats::default();
        for (local, s) in results {
            pool.extend(local);
            st.absorb(s);
        }
        (population, pool, st)
    }

    /// One parallel finalisation round: every surviving partial runs its
    /// (independent) symbol-commit + exact-fit trials on a shard; verdicts
    /// come back in partial index order.
    fn finalize_round(
        &self,
        reserve: usize,
        block: BlockId,
        population: Vec<Partial>,
    ) -> (Vec<Partial>, Vec<bool>) {
        let n = population.len();
        let slots = into_slots(population);
        let job_slots = Arc::clone(&slots);
        let shared = Arc::clone(&self.shared);
        let flags = cmam_pool::global().run_indexed(n, self.threads, move |i| {
            let ctx = shared.ctx(reserve);
            let mut p = job_slots[i]
                .lock()
                .expect("beam slot poisoned")
                .take()
                .expect("partial present");
            let ok = p.finalize(&ctx, block);
            *job_slots[i].lock().expect("beam slot poisoned") = Some(p);
            ok
        });
        (take_back(&slots), flags)
    }
}

impl Mapper {
    /// Creates a mapper with the given options.
    pub fn new(options: MapperOptions) -> Self {
        Mapper { options }
    }

    /// The options in use.
    pub fn options(&self) -> &MapperOptions {
        &self.options
    }

    /// Maps `cdfg` onto `config`.
    ///
    /// With [`MapperOptions::threads`] (or `CMAM_THREADS`) above 1 the
    /// candidate expansion and finalisation shard across the shared
    /// [`cmam_pool`] — the result is **bit-identical** to the sequential
    /// search for every thread count, because every shard runs the same
    /// per-partial generator, shards join in partial index order, and the
    /// only RNG consumer (the stochastic pruning) always runs
    /// sequentially on the ordered candidate pool.
    ///
    /// # Errors
    ///
    /// [`MapError::InvalidOptions`] for options that cannot drive a search,
    /// [`MapError::Invalid`] for malformed CDFGs, [`MapError::Unroutable`]
    /// when binding fails structurally, and [`MapError::MemoryConstraint`]
    /// when the context-memory constraints cannot be met (memory-aware
    /// flows only).
    pub fn map(&self, cdfg: &Cdfg, config: &CgraConfig) -> Result<MapResult, MapError> {
        let _span = cmam_obs::span!("map", blocks = cdfg.num_blocks() as u64);
        let mut stats = MapStats::default();
        let mut stages = StageNs::default();
        let result = self.map_impl(cdfg, config, &mut stats, &mut stages);
        stats.flush_metrics(result.is_err());
        stages.flush_metrics();
        result.map(|mapping| MapResult { mapping, stats })
    }

    fn map_impl(
        &self,
        cdfg: &Cdfg,
        config: &CgraConfig,
        stats: &mut MapStats,
        stages: &mut StageNs,
    ) -> Result<KernelMapping, MapError> {
        self.options.validate().map_err(MapError::InvalidOptions)?;
        cdfg.validate()?;
        let order = match self.options.traversal {
            Traversal::Forward => forward_order(cdfg),
            Traversal::Weighted => weighted_order(cdfg),
        };
        let ntiles = config.geometry().num_tiles();
        let pre = MapPre::new(config);
        let threads = self.options.effective_threads();
        let beam = (threads > 1).then(|| BeamPool {
            shared: Arc::new(SharedSearch {
                cdfg: cdfg.clone(),
                config: config.clone(),
                options: self.options.clone(),
                pre: pre.clone(),
            }),
            threads,
        });
        let mut state = FlowState::new(ntiles);
        let mut rng = StdRng::seed_from_u64(self.options.seed);
        let mut blocks: Vec<Option<cmam_isa::BlockMapping>> = vec![None; cdfg.num_blocks()];
        // Retired partials whose allocations the survivor materialisation
        // reuses (see `map_block`); shared across blocks because every
        // partial of one run has identically sized tables.
        let mut pool_mem: Vec<Partial> = Vec::new();

        for (pos, &block) in order.iter().enumerate() {
            // Reserve one context word per tile for every block still to
            // be mapped (each costs at least a pnop everywhere).
            let ctx = MapCtx {
                cdfg,
                config,
                options: &self.options,
                reserve: order.len() - 1 - pos,
                pre: &pre,
            };
            let bm = self.map_block(
                &ctx,
                block,
                &mut state,
                &mut rng,
                stats,
                stages,
                &mut pool_mem,
                beam.as_ref(),
            )?;
            blocks[block.0 as usize] = Some(bm);
        }

        let mapping = KernelMapping {
            blocks: blocks
                .into_iter()
                .map(|b| b.expect("all blocks mapped"))
                .collect(),
            symbol_homes: state.homes.clone(),
        };
        Ok(mapping)
    }

    #[allow(clippy::too_many_arguments)]
    fn map_block(
        &self,
        ctx: &MapCtx<'_>,
        block: BlockId,
        state: &mut FlowState,
        rng: &mut StdRng,
        stats: &mut MapStats,
        stages: &mut StageNs,
        pool_mem: &mut Vec<Partial>,
        beam: Option<&BeamPool>,
    ) -> Result<cmam_isa::BlockMapping, MapError> {
        let mut mark = Instant::now();
        let dfg = ctx.cdfg.dfg(block);
        let deps = Arc::new(DepGraph::build(&dfg));
        let order = priority_order(&dfg, &deps);
        stages.schedule += lap(&mut mark);
        let _span = cmam_obs::span!(
            "map_block",
            block = block.0 as u64,
            ops = order.len() as u64
        );
        let tiles: Arc<Vec<TileId>> = Arc::new(ctx.config.geometry().tiles().collect());

        let mut population = vec![Partial::new(state, ctx)];
        // The candidate pool's buffer is reused across op steps.
        let mut pool: Vec<Candidate> = Vec::new();

        for &op in &order {
            // Candidate generation with slack escalation. Every trial is
            // applied to the shared parent state and rolled back; cloning
            // happens only for pruning survivors below. With beam
            // parallelism on, the per-partial shards run concurrently and
            // join in partial index order — the pool below is identical
            // either way.
            let expand_span = cmam_obs::span!("expand", op = op.0 as u64);
            pool.clear();
            for escalation in 0..3 {
                let slack = self.options.slack.saturating_mul(1 << (2 * escalation));
                if escalation > 0 {
                    stats.escalations += 1;
                }
                let round_stats = match beam {
                    Some(bp) if population.len() > 1 => {
                        let (pop, cands, st) = bp.expand_round(
                            ctx.reserve,
                            &deps,
                            &tiles,
                            op,
                            slack,
                            std::mem::take(&mut population),
                        );
                        population = pop;
                        pool = cands;
                        st
                    }
                    _ => {
                        let mut st = ExpandStats::default();
                        for (pi, partial) in population.iter_mut().enumerate() {
                            st.absorb(expand_partial(
                                ctx, &deps, &tiles, op, slack, pi, partial, &mut pool,
                            ));
                        }
                        st
                    }
                };
                stats.attempts = stats.attempts.saturating_add(round_stats.attempts);
                stats.candidates += round_stats.candidates;
                stats.rollbacks += round_stats.rollbacks;
                if !pool.is_empty() {
                    break;
                }
            }
            drop(expand_span);
            stages.expand += lap(&mut mark);
            if pool.is_empty() {
                // With memory awareness on, an empty pool usually means
                // the CAB blacklist / capacity reservation left no legal
                // tile — a constraint failure, not a routing failure.
                if self.options.memory_aware() {
                    return Err(MapError::MemoryConstraint {
                        block,
                        step: "binding",
                    });
                }
                return Err(MapError::Unroutable { block });
            }

            stats.peak_population = stats.peak_population.max(pool.len() as u64);

            // ACMAP / ECMAP filters: the verdicts were computed per
            // candidate at trial time; the filters reduce to retains.
            // ECMAP counts only candidates that survived ACMAP, like the
            // sequential filter pipeline did.
            if self.options.acmap {
                let before = pool.len();
                pool.retain(|c| c.acmap_ok);
                stats.acmap_pruned += (before - pool.len()) as u64;
                if pool.is_empty() {
                    return Err(MapError::MemoryConstraint {
                        block,
                        step: "ACMAP",
                    });
                }
            }
            if self.options.ecmap {
                let before = pool.len();
                pool.retain(|c| c.ecmap_ok);
                stats.ecmap_pruned += (before - pool.len()) as u64;
                if pool.is_empty() {
                    return Err(MapError::MemoryConstraint {
                        block,
                        step: "ECMAP",
                    });
                }
            }
            let before = pool.len();
            let chosen = stochastic_prune_by(
                std::mem::take(&mut pool),
                self.options.population,
                rng,
                |c| c.cost,
            );
            stats.stochastic_pruned += (before - chosen.len()) as u64;
            stages.prune += lap(&mut mark);
            let _materialise_span = cmam_obs::span!("materialise", survivors = chosen.len() as u64);

            // Materialise the survivors: re-apply each chosen delta onto
            // (a clone of) its parent. The last reference to a parent
            // takes it by move; buffers of never-chosen parents are
            // recycled through `pool_mem` instead of reallocated.
            let mut refs = vec![0u32; population.len()];
            for c in &chosen {
                refs[c.parent as usize] += 1;
            }
            let mut parents: Vec<Option<Partial>> = population.into_iter().map(Some).collect();
            let mut next: Vec<Partial> = Vec::with_capacity(chosen.len());
            for c in &chosen {
                let pi = c.parent as usize;
                refs[pi] -= 1;
                let mut p = if refs[pi] == 0 {
                    parents[pi].take().expect("last reference")
                } else {
                    let parent = parents[pi].as_ref().expect("parent still live");
                    match pool_mem.pop() {
                        Some(mut buf) => {
                            buf.clone_from(parent);
                            buf
                        }
                        None => parent.clone(),
                    }
                };
                let ok = p.try_place_op(ctx, op, c.tile, c.cycle as usize);
                debug_assert!(ok, "re-applying a proven-feasible binding");
                if !ok {
                    // A rolled-back trial failing on re-application would
                    // mean the journal is broken; never ship a corrupt
                    // mapping in release builds either.
                    return Err(MapError::Unroutable { block });
                }
                p.clear_journal();
                next.push(p);
            }
            // Recycle the allocations of parents nothing descended from.
            pool_mem.extend(parents.into_iter().flatten());
            population = next;
            pool = chosen;
            stages.materialise += lap(&mut mark);
        }

        // Finalisation: symbol commits + exact feasibility. Each trial
        // only touches its own partial, so the surviving beam shards the
        // same way expansion did; verdicts join in partial index order.
        let _finalize_span = cmam_obs::span!("finalize", survivors = population.len() as u64);
        let (population, verdicts) = match beam {
            Some(bp) if population.len() > 1 => bp.finalize_round(ctx.reserve, block, population),
            _ => {
                let mut flags = Vec::with_capacity(population.len());
                for p in population.iter_mut() {
                    flags.push(p.finalize(ctx, block));
                }
                (population, flags)
            }
        };
        let mut finalized: Vec<Partial> = Vec::new();
        for (p, ok) in population.into_iter().zip(verdicts) {
            if ok {
                finalized.push(p);
            } else {
                stats.finalize_failures += 1;
                pool_mem.push(p);
            }
        }
        if finalized.is_empty() {
            return Err(MapError::MemoryConstraint {
                block,
                step: "finalize",
            });
        }
        finalized.sort_by_key(|p| (p.length(), p.cost()));
        let best = finalized.swap_remove(0);
        // Every partial of one run has identically sized tables, so the
        // losers seed the next block's survivor clones.
        pool_mem.append(&mut finalized);
        best.commit_into(state);
        let mapping = best.into_block_mapping();
        stages.finalize += lap(&mut mark);
        Ok(mapping)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::FlowVariant;
    use crate::prune::{acmap_filter, ecmap_filter};
    use cmam_cdfg::analysis::weighted_order;
    use cmam_cdfg::{CdfgBuilder, Opcode};

    /// acc = Σ mem[i]^2 over n elements, stored to mem[out].
    fn sum_squares(n: i32, out: i32) -> Cdfg {
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
    fn basic_flow_maps_a_loop_kernel() {
        let cdfg = sum_squares(8, 100);
        let config = CgraConfig::hom64();
        let mapper = Mapper::new(MapperOptions::basic());
        let r = mapper.map(&cdfg, &config).unwrap();
        assert_eq!(r.mapping.blocks.len(), 3);
        // Every op of every block is placed at least once.
        for b in cdfg.block_ids() {
            let dfg = cdfg.dfg(b);
            let bm = r.mapping.block(b);
            for &op in dfg.op_ids() {
                assert!(bm.ops.iter().any(|p| p.op == op), "{op} unplaced in {b}");
            }
        }
        // And the mapping assembles (the assembler re-validates everything).
        cmam_isa::assemble(&cdfg, &r.mapping, &config).unwrap();
    }

    #[test]
    fn context_aware_flow_maps_and_assembles_on_het2() {
        let cdfg = sum_squares(8, 100);
        let config = CgraConfig::het2();
        let mapper = Mapper::new(MapperOptions::context_aware());
        let r = mapper.map(&cdfg, &config).unwrap();
        let (_bin, report) = cmam_isa::assemble(&cdfg, &r.mapping, &config).unwrap();
        // The memory-aware flow guarantees the fit.
        for (t, cfg) in config.tiles() {
            assert!(report.words(t) <= cfg.cm_words, "{t} overflows");
        }
    }

    #[test]
    fn mapping_is_deterministic_for_a_seed() {
        let cdfg = sum_squares(6, 90);
        let config = CgraConfig::hom64();
        let mapper = Mapper::new(MapperOptions::basic());
        let a = mapper.map(&cdfg, &config).unwrap();
        let b = mapper.map(&cdfg, &config).unwrap();
        assert_eq!(a.mapping, b.mapping);
    }

    #[test]
    fn impossible_memory_constraints_are_reported() {
        let cdfg = sum_squares(8, 100);
        // 2-word context memories cannot hold the loop body anywhere.
        let config = CgraConfig::builder(4, 4).uniform_cm(2).build().unwrap();
        let mapper = Mapper::new(MapperOptions::context_aware());
        let err = mapper.map(&cdfg, &config).unwrap_err();
        assert!(matches!(err, MapError::MemoryConstraint { .. }), "{err}");
    }

    fn map_with(options: MapperOptions) -> Result<MapResult, MapError> {
        Mapper::new(options).map(&sum_squares(4, 80), &CgraConfig::hom64())
    }

    #[test]
    fn zero_population_is_an_options_error() {
        let mut options = MapperOptions::basic();
        options.population = 0;
        let err = map_with(options).unwrap_err();
        assert_eq!(
            err,
            MapError::InvalidOptions("population must be at least 1")
        );
        assert!(
            err.to_string().starts_with("invalid mapper options"),
            "{err}"
        );
    }

    #[test]
    fn zero_expansion_is_an_options_error() {
        let mut options = MapperOptions::context_aware();
        options.expansion = 0;
        assert_eq!(
            map_with(options).unwrap_err(),
            MapError::InvalidOptions("expansion must be at least 1")
        );
    }

    #[test]
    fn zero_max_schedule_is_an_options_error() {
        let mut options = MapperOptions::context_aware();
        options.max_schedule = 0;
        assert_eq!(
            map_with(options).unwrap_err(),
            MapError::InvalidOptions("max_schedule must be at least 1")
        );
    }

    #[test]
    fn huge_slack_saturates_instead_of_overflowing() {
        // Escalation multiplies the slack; the window end saturates and
        // cycles past `max_schedule` count as attempts without a trial.
        let mut options = MapperOptions::basic();
        options.slack = usize::MAX / 2;
        options.max_schedule = 48;
        let r = map_with(options).expect("maps within the schedule bound");
        assert_eq!(r.stats.attempts, u64::MAX, "attempt count saturates");
    }

    /// Drives a small beam of `expand_partial` rounds over `cdfg` and
    /// checks every expanded candidate's ACMAP/ECMAP verdict against the
    /// reference filters run on its parent with the candidate re-applied.
    /// `seen` counts `[acmap pass, acmap fail, ecmap pass, ecmap fail]`.
    fn check_verdicts(
        cdfg: &Cdfg,
        config: &CgraConfig,
        options: &MapperOptions,
        seen: &mut [u64; 4],
    ) {
        let order = weighted_order(cdfg);
        let pre = MapPre::new(config);
        let tiles: Vec<TileId> = config.geometry().tiles().collect();
        let mut state = FlowState::new(tiles.len());
        for (pos, &block) in order.iter().enumerate() {
            let ctx = MapCtx {
                cdfg,
                config,
                options,
                reserve: order.len() - 1 - pos,
                pre: &pre,
            };
            let dfg = cdfg.dfg(block);
            let deps = DepGraph::build(&dfg);
            let mut population = vec![Partial::new(&state, &ctx)];
            for op in priority_order(&dfg, &deps) {
                let mut pool = Vec::new();
                for (pi, p) in population.iter_mut().enumerate() {
                    expand_partial(&ctx, &deps, &tiles, op, options.slack, pi, p, &mut pool);
                }
                let mut next = Vec::new();
                for c in &pool {
                    let mut child = population[c.parent as usize].clone();
                    assert!(child.try_place_op(&ctx, op, c.tile, c.cycle as usize));
                    child.clear_journal();
                    let acmap_ok = acmap_filter(&mut vec![child.clone()], &ctx) == 0;
                    let ecmap_ok = ecmap_filter(&mut vec![child.clone()], &ctx) == 0;
                    let at = format!("{} @{} in {block}", c.tile, c.cycle);
                    assert_eq!(c.acmap_ok, acmap_ok, "ACMAP verdict at {at}");
                    assert_eq!(c.ecmap_ok, ecmap_ok, "ECMAP verdict at {at}");
                    seen[usize::from(!acmap_ok)] += 1;
                    seen[2 + usize::from(!ecmap_ok)] += 1;
                    if acmap_ok && ecmap_ok && next.len() < 4 {
                        next.push(child);
                    }
                }
                if next.is_empty() {
                    return;
                }
                population = next;
            }
            let Some(best) = population
                .into_iter()
                .find_map(|mut p| p.finalize(&ctx, block).then_some(p))
            else {
                return;
            };
            best.commit_into(&mut state);
        }
    }

    #[test]
    fn expansion_verdicts_equal_the_reference_filters() {
        use cmam_cdfg::generate::GenParams;
        let mut kernels: Vec<Cdfg> = cmam_kernels::all()
            .into_iter()
            .filter(|s| s.name == "DC Filter" || s.name == "FIR")
            .map(|s| s.cdfg)
            .collect();
        assert_eq!(kernels.len(), 2, "expected kernels present");
        for (profile, seed) in [("default", 11), ("memory_bound", 12)] {
            let params = GenParams::profile(profile).expect("known profile");
            kernels.push(cmam_kernels::generated_spec(&params, seed).cdfg);
        }
        let configs = [
            CgraConfig::het2(),
            CgraConfig::builder(4, 4).uniform_cm(12).build().unwrap(),
        ];
        let mut seen = [0u64; 4];
        for cdfg in &kernels {
            for config in &configs {
                for variant in [FlowVariant::Ecmap, FlowVariant::Cab] {
                    check_verdicts(cdfg, config, &variant.options(), &mut seen);
                }
            }
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "both verdicts of both filters must occur: {seen:?}"
        );
    }

    #[test]
    fn all_flow_variants_map_the_kernel_on_hom64() {
        let cdfg = sum_squares(4, 80);
        let config = CgraConfig::hom64();
        for variant in FlowVariant::ALL {
            let mapper = Mapper::new(variant.options());
            let r = mapper
                .map(&cdfg, &config)
                .unwrap_or_else(|e| panic!("{variant}: {e}"));
            cmam_isa::assemble(&cdfg, &r.mapping, &config)
                .unwrap_or_else(|e| panic!("{variant}: {e}"));
        }
    }
}
