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
use std::time::Instant;

/// Why a kernel could not be mapped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// The CDFG failed structural validation.
    Invalid(ValidateError),
    /// The [`MapperOptions`] cannot drive a search (a zero population,
    /// expansion or schedule bound, or a schedule bound above
    /// [`MapperOptions::MAX_SCHEDULE_LIMIT`]); rejected before any work.
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
    /// Successful trial bindings: the trials that ran and placed the op.
    /// Expansion tries slots in order of a lower bound on their rank and
    /// stops once no untried slot can enter the expansion cut, so this
    /// counts only the trials the cut needed, not the whole window.
    pub candidates: u64,
    /// The expansion window: every `(partial, tile, cycle)` an expansion
    /// considers, tried or not — including tiles that cannot take the op
    /// at all (no LSU for a memory op, or CAB blacklisted), slots past
    /// `max_schedule` and slots the bound ordering leaves untried. Each
    /// expansion adds `tiles × (slack + 1)`.
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
    /// expansion — every trial that ran and left a delta (surviving
    /// candidates and failed trials alike) is rolled back rather than
    /// cloned away. Zero for mapper implementations that evaluate
    /// candidates on clones; together with `attempts` this measures how
    /// much of the window the search actually touched.
    pub rollbacks: u64,
}

impl MapStats {
    /// Flushes this run's aggregated statistics into the global
    /// `mapper.*` metrics — called once per [`Mapper::map`], so the
    /// search loops themselves carry no metrics instructions. The totals
    /// are deterministic because `MapStats` itself is a pure function of
    /// the inputs and the seed (pinned by the golden-equivalence suite).
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
#[derive(Debug, PartialEq, Eq)]
struct Candidate {
    parent: u32,
    tile: TileId,
    cycle: u32,
    cost: (usize, usize),
    acmap_ok: bool,
    ecmap_ok: bool,
}

impl Candidate {
    /// Rank within one parent's candidates: cost, then tile, then cycle —
    /// a total order, so selecting by it keeps exactly what a stable sort
    /// by cost of a tile-major, cycle-ascending trial loop keeps.
    fn rank(&self) -> ((usize, usize), TileId, u32) {
        (self.cost, self.tile, self.cycle)
    }
}

/// Search counters produced by one partial's expansion; a round folds
/// them into [`MapStats`].
#[derive(Debug, Clone, Copy, Default)]
struct ExpandStats {
    attempts: u64,
    candidates: u64,
    rollbacks: u64,
}

/// Expands one partial mapping for `op` at the given `slack`: the
/// per-partial expansion cut over the tiles × window slots, with the
/// memory-filter verdicts of the candidates it keeps.
///
/// The cut keeps the `expansion` best successful trials by
/// [`Candidate::rank`], sorted. Slots are tried in ascending order of an
/// admissible lower bound on that rank: the child's frontier is exactly
/// `max(frontier, cycle + 1)` and its moves + commit debt at least the
/// parent's plus [`Partial::cost_floor`] of the tile. So all cycles below
/// the parent's frontier come first (tiles by `(floor, tile)`, cycles
/// ascending), then each later cycle in turn (tiles by `(floor, tile)`).
/// Once the cut is full and the next slot's bound is not below its worst
/// rank, no untried slot can enter it, and the expansion stops.
///
/// Everything that does not depend on the trial is decided once: tile
/// legality (LSU, CAB blacklist) and the floor per tile, window cycles
/// past `max_schedule` per call, and the parent half of the memory
/// verdicts. `attempts` counts the whole window of every tile, tried or
/// not; `candidates` and `rollbacks` count the trials that ran. `open` is
/// the caller's scratch for the open tiles.
#[allow(clippy::too_many_arguments)]
fn expand_partial(
    ctx: &MapCtx<'_>,
    deps: &DepGraph,
    tiles: &[TileId],
    op: OpId,
    slack: usize,
    pi: usize,
    partial: &mut Partial,
    open: &mut Vec<(usize, TileId)>,
    out: &mut Vec<Candidate>,
) -> ExpandStats {
    let window = (slack as u64).saturating_add(1);
    let mut st = ExpandStats {
        attempts: window.saturating_mul(tiles.len() as u64),
        ..ExpandStats::default()
    };
    let earliest = partial.earliest_cycle(deps, op);
    // Cycles at or past `max_schedule` fail before any mutation.
    let last = earliest
        .saturating_add(slack)
        .min(ctx.options.max_schedule - 1);
    let (frontier, moves) = partial.cost();
    let terms = partial.floor_terms(ctx, op);
    open.clear();
    open.extend(
        tiles
            .iter()
            .filter(|&&tile| partial.tile_open(ctx, op, tile))
            .map(|&tile| (partial.cost_floor(ctx, &terms, tile), tile)),
    );
    open.sort_unstable();
    let below = earliest..frontier.min(last + 1);
    let slots = open
        .iter()
        .flat_map(|&(floor, tile)| below.clone().map(move |c| (floor, tile, c)))
        .chain(
            (earliest.max(frontier)..=last)
                .flat_map(|c| open.iter().map(move |&(floor, tile)| (floor, tile, c))),
        );

    let cp = partial.checkpoint();
    let base = partial.verdict_base(ctx);
    let start = out.len();
    let keep = ctx.options.expansion;
    for (floor, tile, cycle) in slots {
        // The worst kept rank, once the cut is full.
        let worst = (out.len() - start == keep).then(|| out[out.len() - 1].rank());
        if let Some(worst) = worst {
            let bound = (
                (frontier.max(cycle + 1), moves.saturating_add(floor)),
                tile,
                cycle as u32,
            );
            if bound >= worst {
                break; // every later slot bounds higher still
            }
        }
        if !partial.slot_free(tile, cycle) {
            continue;
        }
        if partial.place_on_open_tile(ctx, op, tile, cycle) {
            st.candidates += 1;
            let cost = partial.cost();
            let rank = (cost, tile, cycle as u32);
            if worst.is_none_or(|w| rank < w) {
                let (acmap_ok, ecmap_ok) = partial.child_verdicts(ctx, &base, cp);
                let cand = Candidate {
                    parent: pi as u32,
                    tile,
                    cycle: cycle as u32,
                    cost,
                    acmap_ok,
                    ecmap_ok,
                };
                if worst.is_some() {
                    let at = start + out[start..].partition_point(|c| c.rank() < rank);
                    out.pop();
                    out.insert(at, cand);
                } else {
                    out.push(cand);
                    if out.len() - start == keep {
                        out[start..].sort_unstable_by_key(Candidate::rank);
                    }
                }
            }
        }
        if partial.dirty_since(cp) {
            st.rollbacks += 1;
            partial.rollback(cp);
        }
    }
    // Note the expansion cut happens *before* the memory filters, exactly
    // like the paper's Fig 4 pipeline (binding -> ACMAP -> stochastic
    // pruning): the memory-aware steps prune the partial-mapping set,
    // they do not re-rank the binder's candidates. This is what makes
    // over-constrained targets fail (the zero bars of Figs 6-8) instead
    // of being rescued by exhaustive candidate filtering. The cut keeps
    // the `expansion` best by cost, ties in generation order (tiles, then
    // cycles, ascending) — what a stable sort by cost then truncation of
    // every trial's candidate keeps.
    out[start..].sort_unstable_by_key(Candidate::rank);
    st
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

    /// Maps `cdfg` onto `config`, entirely on the calling thread: a pure
    /// function of the inputs and [`MapperOptions::seed`], so the engine
    /// may run many maps at once without changing any of them.
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
    ) -> Result<cmam_isa::BlockMapping, MapError> {
        let mut mark = Instant::now();
        let dfg = ctx.cdfg.dfg(block);
        let deps = DepGraph::build(&dfg);
        let order = priority_order(&dfg, &deps);
        stages.schedule += lap(&mut mark);
        let _span = cmam_obs::span!(
            "map_block",
            block = block.0 as u64,
            ops = order.len() as u64
        );
        let tiles: Vec<TileId> = ctx.config.geometry().tiles().collect();

        let mut population = vec![Partial::new(state, ctx)];
        // The candidate pool's and the open-tile list's buffers are reused
        // across op steps.
        let mut pool: Vec<Candidate> = Vec::new();
        let mut open: Vec<(usize, TileId)> = Vec::new();

        for &op in &order {
            // Candidate generation with slack escalation. Every trial is
            // applied to the shared parent state and rolled back; cloning
            // happens only for pruning survivors below.
            let expand_span = cmam_obs::span!("expand", op = op.0 as u64);
            pool.clear();
            for escalation in 0..3 {
                let slack = self.options.slack.saturating_mul(1 << (2 * escalation));
                if escalation > 0 {
                    stats.escalations += 1;
                }
                for (pi, partial) in population.iter_mut().enumerate() {
                    let st = expand_partial(
                        ctx, &deps, &tiles, op, slack, pi, partial, &mut open, &mut pool,
                    );
                    stats.attempts = stats.attempts.saturating_add(st.attempts);
                    stats.candidates += st.candidates;
                    stats.rollbacks += st.rollbacks;
                }
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

        // Finalisation: symbol commits + exact feasibility, per partial.
        // Only when every survivor fails does a second pass let commits
        // park on a neighbour of their home, so a block that maps without
        // parking keeps its mapping.
        let _finalize_span = cmam_obs::span!("finalize", survivors = population.len() as u64);
        let mut finalized: Vec<Partial> = Vec::new();
        let mut failed: Vec<Partial> = Vec::new();
        for mut p in population {
            let cp = p.checkpoint();
            if p.finalize(ctx, block, false) {
                finalized.push(p);
            } else {
                stats.finalize_failures += 1;
                p.rollback(cp);
                failed.push(p);
            }
        }
        if finalized.is_empty() {
            for mut p in failed.drain(..) {
                if p.finalize(ctx, block, true) {
                    finalized.push(p);
                } else {
                    pool_mem.push(p);
                }
            }
        }
        pool_mem.append(&mut failed);
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
    fn a_schedule_bound_above_the_limit_is_an_options_error() {
        let limit = MapperOptions::MAX_SCHEDULE_LIMIT;
        assert_eq!(limit.to_string(), "65536", "the error message names it");
        for max_schedule in [usize::MAX, 1 << 33, limit + 1] {
            let mut options = MapperOptions::context_aware();
            options.max_schedule = max_schedule;
            assert_eq!(
                map_with(options).unwrap_err(),
                MapError::InvalidOptions("max_schedule must be at most 65536"),
                "max_schedule = {max_schedule}"
            );
        }
    }

    #[test]
    fn a_schedule_bound_at_the_limit_maps() {
        // A small population keeps the limit-sized partials (about 2 MB of
        // RF counts each on 16 tiles) few.
        let mut options = MapperOptions::basic();
        options.max_schedule = MapperOptions::MAX_SCHEDULE_LIMIT;
        options.population = 2;
        let r = map_with(options).expect("maps at the limit");
        let config = CgraConfig::hom64();
        cmam_isa::assemble(&sum_squares(4, 80), &r.mapping, &config).unwrap();
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
        let mut open = Vec::new();
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
                    let slack = options.slack;
                    expand_partial(&ctx, &deps, &tiles, op, slack, pi, p, &mut open, &mut pool);
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
                .find_map(|mut p| p.finalize(&ctx, block, false).then_some(p))
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

    /// The candidate generator without bound ordering: every open tile ×
    /// every window cycle, then the expansion cut. The reference the
    /// bounded [`expand_partial`] must equal; it also asserts that no
    /// successful trial costs less than the bound its slot is ranked by.
    #[allow(clippy::too_many_arguments)]
    fn expand_exhaustive(
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
        let last = earliest
            .saturating_add(slack)
            .min(ctx.options.max_schedule - 1);
        let (frontier, moves) = partial.cost();
        let terms = partial.floor_terms(ctx, op);
        let cp = partial.checkpoint();
        let base = partial.verdict_base(ctx);
        let start = out.len();
        for &tile in tiles {
            st.attempts = st.attempts.saturating_add(window);
            if !partial.tile_open(ctx, op, tile) {
                continue;
            }
            let floor = partial.cost_floor(ctx, &terms, tile);
            for cycle in earliest..=last {
                if !partial.slot_free(tile, cycle) {
                    continue;
                }
                if partial.place_on_open_tile(ctx, op, tile, cycle) {
                    st.candidates += 1;
                    let cost = partial.cost();
                    let bound = (frontier.max(cycle + 1), moves.saturating_add(floor));
                    assert!(
                        cost.0 >= bound.0 && cost.1 >= bound.1,
                        "{op} on {tile} @{cycle} costs {cost:?}, below its bound {bound:?}"
                    );
                    let (acmap_ok, ecmap_ok) = partial.child_verdicts(ctx, &base, cp);
                    out.push(Candidate {
                        parent: pi as u32,
                        tile,
                        cycle: cycle as u32,
                        cost,
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
        let keep = ctx.options.expansion;
        if out.len() - start > keep {
            out[start..].select_nth_unstable_by_key(keep - 1, Candidate::rank);
            out.truncate(start + keep);
        }
        out[start..].sort_unstable_by_key(Candidate::rank);
        st
    }

    /// Expansions of [`check_generators`], and the trials each generator
    /// ran and rolled back over them.
    #[derive(Debug, Default)]
    struct Trials {
        expansions: u64,
        exhaustive: u64,
        bounded: u64,
    }

    /// Maps `cdfg` the way [`Mapper::map`] does — same traversal, slack
    /// escalation, filters, seeded pruning and finalisation — running
    /// every expansion through both generators: they must return
    /// identical candidates (parent, slot, cost and both verdicts) and
    /// attempt counts.
    fn check_generators(
        cdfg: &Cdfg,
        config: &CgraConfig,
        options: &MapperOptions,
        trials: &mut Trials,
    ) {
        let order = match options.traversal {
            Traversal::Forward => forward_order(cdfg),
            Traversal::Weighted => weighted_order(cdfg),
        };
        let pre = MapPre::new(config);
        let tiles: Vec<TileId> = config.geometry().tiles().collect();
        let mut state = FlowState::new(tiles.len());
        let mut rng = StdRng::seed_from_u64(options.seed);
        let (mut open, mut reference) = (Vec::new(), Vec::new());
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
                for escalation in 0..3 {
                    let slack = options.slack.saturating_mul(1 << (2 * escalation));
                    for (pi, p) in population.iter_mut().enumerate() {
                        reference.clear();
                        let want = expand_exhaustive(
                            &ctx,
                            &deps,
                            &tiles,
                            op,
                            slack,
                            pi,
                            p,
                            &mut reference,
                        );
                        let start = pool.len();
                        let got = expand_partial(
                            &ctx, &deps, &tiles, op, slack, pi, p, &mut open, &mut pool,
                        );
                        let at = format!("{op} in {block}, partial {pi}, slack {slack}");
                        assert_eq!(pool[start..], reference[..], "{at}");
                        assert_eq!(got.attempts, want.attempts, "{at}");
                        assert!(got.candidates <= want.candidates, "{at}");
                        assert!(got.rollbacks <= want.rollbacks, "{at}");
                        trials.expansions += 1;
                        trials.exhaustive += want.rollbacks;
                        trials.bounded += got.rollbacks;
                    }
                    if !pool.is_empty() {
                        break;
                    }
                }
                pool.retain(|c| (!options.acmap || c.acmap_ok) && (!options.ecmap || c.ecmap_ok));
                if pool.is_empty() {
                    return;
                }
                let chosen = stochastic_prune_by(pool, options.population, &mut rng, |c| c.cost);
                population = chosen
                    .iter()
                    .map(|c| {
                        let mut child = population[c.parent as usize].clone();
                        assert!(child.try_place_op(&ctx, op, c.tile, c.cycle as usize));
                        child.clear_journal();
                        child
                    })
                    .collect();
            }
            let mut finalized: Vec<Partial> = population
                .into_iter()
                .filter_map(|mut p| p.finalize(&ctx, block, false).then_some(p))
                .collect();
            finalized.sort_by_key(|p| (p.length(), p.cost()));
            let Some(best) = finalized.first() else {
                return;
            };
            best.commit_into(&mut state);
        }
    }

    /// One block whose multiply reads a loaded value twice (`x * x`), so
    /// a trial far from the load routes `x` once for both reads, and whose
    /// sum reads `k = 3 + 5`, a producer a trial may duplicate next to
    /// itself instead of routing its result.
    fn square_plus_constant() -> Cdfg {
        let mut b = CdfgBuilder::new("sq_k");
        let bb = b.block("body");
        b.select(bb);
        let a0 = b.constant(0);
        let x = b.load_name(a0, "x");
        let c3 = b.constant(3);
        let c5 = b.constant(5);
        let k = b.op(Opcode::Add, &[c3, c5]);
        let sq = b.op(Opcode::Mul, &[x, x]);
        let y = b.op(Opcode::Add, &[sq, k]);
        let a1 = b.constant(1);
        b.store(a1, y, "y");
        b.ret();
        b.finish().unwrap()
    }

    /// Runs [`check_generators`] for every flow at slack 3 and 12 over
    /// `kernels` on `config`. A population of 8 rather than the flows' 24
    /// keeps the exhaustive reference affordable.
    fn generators_agree(kernels: &[Cdfg], config: &CgraConfig) {
        let mut trials = Trials::default();
        for cdfg in kernels {
            for variant in FlowVariant::ALL {
                for slack in [3, 12] {
                    let mut options = variant.options();
                    options.slack = slack;
                    options.population = 8;
                    check_generators(cdfg, config, &options, &mut trials);
                }
            }
        }
        assert!(
            trials.bounded < trials.exhaustive,
            "bound ordering must skip trials: {trials:?}"
        );
    }

    /// The paper's kernels and one generated kernel per profile.
    fn generator_kernels() -> Vec<Cdfg> {
        use cmam_cdfg::generate::{generate, GenParams};
        let mut kernels: Vec<Cdfg> = cmam_kernels::all().into_iter().map(|s| s.cdfg).collect();
        for (i, profile) in GenParams::PROFILES.iter().enumerate() {
            let params = GenParams::profile(profile).expect("known profile");
            kernels.push(generate(&params, 0x5EED + i as u64).cdfg);
        }
        kernels
    }

    /// HOM64, HET1, HET2 and two uniformly tight 4×4 targets, where the
    /// memory filters and the CAB blacklist act.
    fn generator_configs() -> [CgraConfig; 5] {
        let tight = |words| CgraConfig::builder(4, 4).uniform_cm(words).build().unwrap();
        [
            CgraConfig::hom64(),
            CgraConfig::het1(),
            CgraConfig::het2(),
            tight(16),
            tight(12),
        ]
    }

    #[test]
    fn bounded_generator_equals_exhaustive_on_hom64() {
        generators_agree(&generator_kernels(), &generator_configs()[0]);
    }

    #[test]
    fn bounded_generator_equals_exhaustive_on_het1() {
        generators_agree(&generator_kernels(), &generator_configs()[1]);
    }

    #[test]
    fn bounded_generator_equals_exhaustive_on_het2() {
        generators_agree(&generator_kernels(), &generator_configs()[2]);
    }

    #[test]
    fn bounded_generator_equals_exhaustive_on_tight16() {
        generators_agree(&generator_kernels(), &generator_configs()[3]);
    }

    #[test]
    fn bounded_generator_equals_exhaustive_on_cm12() {
        generators_agree(&generator_kernels(), &generator_configs()[4]);
    }

    #[test]
    fn bounded_generator_equals_exhaustive_on_a_squared_routed_value() {
        let kernel = [square_plus_constant()];
        for config in &generator_configs() {
            generators_agree(&kernel, config);
        }
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
