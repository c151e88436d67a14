//! Partial mappings: the unit of the population-based search.
//!
//! A [`Partial`] is one in-progress mapping of the *current* basic block on
//! top of the committed state of previously mapped blocks (context words
//! already used per tile, CRF contents, symbol homes). It owns every
//! architectural feasibility rule of the binding:
//!
//! * one instruction per `(tile, cycle)` slot;
//! * memory operations only on LSU tiles;
//! * operands readable from the executing tile's own RF or a direct torus
//!   neighbour's RF, at a cycle after the value copy was written;
//! * register-file capacity via **live intervals**: a copy occupies a
//!   register from its write until its last read (every read extends the
//!   interval, and the extension must not push the overlap over the RF
//!   size); symbols occupy a persistent register at their home tile for
//!   the whole kernel, and pinning a home also respects the peak RF
//!   pressure of previously committed blocks;
//! * constant-register-file capacity (distinct constants per tile);
//! * **re-routing**: when no copy is reachable, a shortest chain of `move`
//!   instructions over free slots is inserted (the paper's first graph
//!   transformation);
//! * **re-computing**: when even routing fails, a producer whose operands
//!   are constants or symbol reads is duplicated next to the consumer (the
//!   paper's second graph transformation);
//! * symbol-variable location constraints: every symbol lives in one
//!   register of its home tile; old-value reads and the new-value commit
//!   are ordered so the home register is never overwritten early.
//!
//! The same struct computes the two context-memory metrics that drive the
//! paper's pruning steps: the [`acmap`](Partial::acmap_words) approximation
//! (instructions + interior idle runs) and the
//! [`ecmap`](Partial::ecmap_words) exact lower bound (instructions + all
//! idle runs in the current extent). Because filling an idle cycle can
//! never decrease `instructions + runs`, the ECMAP metric is a true lower
//! bound on the final context words of the tile — pruning on it never
//! discards a partial mapping that could still fit.
//!
//! # Data layout (hot-loop representation)
//!
//! All per-candidate state is **flat and index-keyed** so feasibility
//! checks are O(1) loads, never hashes:
//!
//! * slot occupancy is a per-tile bitset (`occ_bits`, row-major `u64`
//!   words) with **incrementally maintained** per-tile instruction
//!   counts, interior-idle-run counts and first/last occupied cycles, so
//!   `acmap_words`/`ecmap_words`/`exact_words` are table lookups;
//! * value copies live in one insertion-ordered arena (`copies`), each
//!   value's copies linked from its dense `ValueId`-indexed first/last
//!   slots, so a clone copies three flat buffers;
//! * RF pressure is a row-major per-`(tile, cycle)` live-copy count
//!   (`rf_count`) plus a per-tile running peak, updated on every interval
//!   insertion/extension;
//! * symbol homes and last-home-read cycles are dense
//!   `SymbolId`-indexed tables; the first placed cycle of every op is a
//!   dense `OpId`-indexed table (for O(preds) dependency slack);
//! * placed ops keep their operand sources inline, so a trial allocates
//!   nothing; hop distances and per-tile resources come from [`MapPre`]
//!   tables.
//!
//! Candidate evaluation is **clone-free**: every mutation appends an
//! inverse record to an undo journal, so the search tries a binding on
//! the shared parent state ([`Partial::try_place_op`]), records its cost
//! and metrics, and [rolls back](Partial::rollback) to the
//! [checkpoint](Partial::checkpoint) — cloning only the few survivors
//! that enter the next population (see `flow.rs`).

use crate::options::MapperOptions;
use cmam_arch::{CgraConfig, TileId};
use cmam_cdfg::analysis::DepGraph;
use cmam_cdfg::{BlockId, Cdfg, OpId, SymbolId, ValueId, ValueKind};
use cmam_isa::{BlockMapping, OperandSource, PlacedMove, PlacedOp};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Immutable per-`map()` precomputation: the torus neighbourhoods in the
/// two orders the binder consumes, all-pairs hop distances, the
/// home-pinning probe orders and the per-tile resources, so the hot loop
/// never re-derives (or re-allocates) them per call.
#[derive(Debug, Clone)]
pub struct MapPre {
    ntiles: usize,
    /// Per tile: neighbours in `Direction::ALL` (N,E,S,W) order,
    /// deduplicated — the order home pinning and re-computation probe
    /// sites.
    nbr_dir: Vec<Vec<TileId>>,
    /// Per tile: the same neighbours sorted by ascending tile id — the
    /// order the routing BFS expands.
    nbr_sorted: Vec<Vec<TileId>>,
    /// Row-major all-pairs torus hop distance (`u16`: exact for any
    /// geometry whose tables fit in memory).
    dist: Vec<u16>,
    /// Row-major per preferred tile: the order [`Partial`] probes home
    /// tiles in — the tile, its neighbours in direction order, then every
    /// other tile by `(distance, id)`.
    pin_order: Vec<TileId>,
    /// Context-memory words per tile.
    cm_words: Vec<usize>,
    /// Register-file words per tile.
    rf_words: Vec<usize>,
    /// Constant-register-file words per tile.
    crf_words: Vec<usize>,
    /// Whether each tile has a load/store unit.
    has_lsu: Vec<bool>,
}

impl MapPre {
    /// Precomputes the neighbourhood, distance and resource tables of
    /// `config`.
    pub fn new(config: &CgraConfig) -> Self {
        let geom = config.geometry();
        let n = geom.num_tiles();
        let mut nbr_dir = Vec::with_capacity(n);
        let mut nbr_sorted = Vec::with_capacity(n);
        for t in geom.tiles() {
            let dir: Vec<TileId> = geom.neighbors(t).into_iter().map(|(_, n)| n).collect();
            let mut sorted = dir.clone();
            sorted.sort_unstable();
            nbr_dir.push(dir);
            nbr_sorted.push(sorted);
        }
        let mut dist = Vec::with_capacity(n * n);
        for a in geom.tiles() {
            for b in geom.tiles() {
                let d = u16::try_from(geom.distance(a, b)).unwrap_or(u16::MAX);
                dist.push(d);
            }
        }
        let mut pin_order = Vec::with_capacity(n * n);
        let mut in_head = vec![false; n];
        for preferred in geom.tiles() {
            let start = pin_order.len();
            pin_order.push(preferred);
            pin_order.extend_from_slice(&nbr_dir[preferred.0]);
            in_head.fill(false);
            for &t in &pin_order[start..] {
                in_head[t.0] = true;
            }
            let rest_start = pin_order.len();
            pin_order.extend(geom.tiles().filter(|t| !in_head[t.0]));
            pin_order[rest_start..].sort_by_key(|&t| (dist[t.0 * n + preferred.0], t));
        }
        let tiles = || config.tiles().map(|(_, c)| c);
        MapPre {
            ntiles: n,
            nbr_dir,
            nbr_sorted,
            dist,
            pin_order,
            cm_words: tiles().map(|c| c.cm_words).collect(),
            rf_words: tiles().map(|c| c.rf_words).collect(),
            crf_words: tiles().map(|c| c.crf_words).collect(),
            has_lsu: tiles().map(|c| c.has_lsu).collect(),
        }
    }

    /// Torus hop distance between `a` and `b` (a table load).
    #[inline]
    pub(crate) fn distance(&self, a: TileId, b: TileId) -> usize {
        self.dist[a.0 * self.ntiles + b.0] as usize
    }

    /// Whether `tile` has a load/store unit.
    #[inline]
    pub(crate) fn has_lsu(&self, tile: TileId) -> bool {
        self.has_lsu[tile.0]
    }

    /// The home-pinning probe order for a symbol first used at
    /// `preferred`.
    fn pin_order(&self, preferred: TileId) -> &[TileId] {
        &self.pin_order[preferred.0 * self.ntiles..(preferred.0 + 1) * self.ntiles]
    }
}

/// Shared, immutable context for one mapping run.
#[derive(Debug, Clone, Copy)]
pub struct MapCtx<'a> {
    /// The kernel being mapped.
    pub cdfg: &'a Cdfg,
    /// The target CGRA.
    pub config: &'a CgraConfig,
    /// Flow options.
    pub options: &'a MapperOptions,
    /// Context words reserved per tile for blocks not yet mapped (every
    /// basic block costs each tile at least one word — an instruction or
    /// one pnop — so the flow must not let earlier blocks spend the whole
    /// budget).
    pub reserve: usize,
    /// Precomputed neighbourhood, distance and resource tables (see
    /// [`MapPre`]).
    pub pre: &'a MapPre,
}

impl<'a> MapCtx<'a> {
    /// Effective context capacity of `tile` for the block being mapped.
    #[inline]
    pub fn capacity(&self, tile: TileId) -> usize {
        self.pre.cm_words[tile.0].saturating_sub(self.reserve)
    }
}

/// The parent side of the incremental memory verdicts of one expansion:
/// whether every tile of the parent passes ACMAP and ECMAP, and the
/// lowest frontier at which an untouched tile sitting exactly at capacity
/// gains an idle run (`usize::MAX` when none can).
#[derive(Debug, Clone, Copy)]
pub(crate) struct VerdictBase {
    acmap_ok: bool,
    ecmap_ok: bool,
    flip_at: usize,
}

/// Committed cross-block mapper state (updated after each block).
#[derive(Debug, Clone)]
pub struct FlowState {
    /// Context words already used per tile by previously mapped blocks.
    pub base_words: Vec<usize>,
    /// CRF contents per tile accumulated so far.
    pub crf: Vec<Vec<i32>>,
    /// Pinned symbol homes (sorted by symbol id, so every consumer
    /// observes a deterministic order).
    pub homes: BTreeMap<SymbolId, TileId>,
    /// Persistent (symbol) registers in use per tile.
    pub persistent_count: Vec<usize>,
    /// Peak block-local register pressure per tile over the committed
    /// blocks (pinning a new home must leave room for it).
    pub rf_pressure: Vec<usize>,
}

impl FlowState {
    /// Fresh state for a CGRA with `ntiles` tiles.
    pub fn new(ntiles: usize) -> Self {
        FlowState {
            base_words: vec![0; ntiles],
            crf: vec![Vec::new(); ntiles],
            homes: BTreeMap::new(),
            persistent_count: vec![0; ntiles],
            rf_pressure: vec![0; ntiles],
        }
    }
}

/// A block-local value copy living in a tile's register file during
/// `[start, end]` (write visible at `start`, last read at `end`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CopyInterval {
    value: ValueId,
    start: usize,
    end: usize,
}

/// One inverse record of the try/undo journal. Every mutation of a
/// [`Partial`]'s semantic state appends exactly the data needed to undo
/// it; [`Partial::rollback`] pops and applies them in reverse.
#[derive(Debug, Clone, Copy)]
enum UndoOp {
    /// Pop the last placed op and restore its `first_cycle` entry.
    PopOp {
        /// Previous first-instance cycle of the popped op.
        first: u32,
    },
    /// Pop the last placed move.
    PopMove,
    /// Clear the occupancy bit of `(tile, cycle)` and restore the tile's
    /// incremental counters and the global frontier.
    Occupy {
        /// The tile.
        tile: u32,
        /// The occupied cycle.
        cycle: u32,
        /// Previous interior-run count.
        interior: u32,
        /// Previous first occupied cycle.
        occ_min: u32,
        /// Previous last occupied cycle.
        occ_max: u32,
        /// Previous global frontier.
        frontier: u32,
    },
    /// Pop the last CRF word of `tile`.
    PopCrf {
        /// The tile.
        tile: u32,
    },
    /// Pop the last copy of `value` (the arena's last slot).
    PopAvail {
        /// The value.
        value: u32,
        /// The value's previous last slot.
        prev: u32,
    },
    /// Restore the ready cycle of the copy in arena slot `slot`.
    AvailReady {
        /// The arena slot.
        slot: u32,
        /// Previous ready cycle.
        old: u32,
    },
    /// Drop a fresh copy: pop the last live interval of `tile` (still
    /// the single cycle it was added with), its RF count and its value's
    /// last copy (the arena's last slot), and restore the tile's running
    /// peak.
    PopCopy {
        /// The tile.
        tile: u32,
        /// Previous running peak.
        peak: u16,
        /// The value's previous last slot.
        prev: u32,
    },
    /// Restore the start of interval `idx` of `tile`.
    IntervalStart {
        /// The tile.
        tile: u32,
        /// Interval index.
        idx: u32,
        /// Previous start cycle.
        old: u32,
    },
    /// Shorten interval `idx` of `tile` back to end at `old`, taking the
    /// extension's RF counts back out and restoring the running peak.
    Retract {
        /// The tile.
        tile: u32,
        /// Interval index.
        idx: u32,
        /// Previous end cycle.
        old: u32,
        /// Previous running peak.
        peak: u16,
    },
    /// Decrement the RF live-copy counts of `tile` over `[from, to]` and
    /// restore the tile's running peak.
    RfDec {
        /// The tile.
        tile: u32,
        /// First incremented cycle.
        from: u32,
        /// Last incremented cycle.
        to: u32,
        /// Previous running peak.
        peak: u16,
    },
    /// Unpin the home of `symbol` and restore the commit debt.
    UnpinHome {
        /// The symbol.
        symbol: u32,
        /// The home tile that was pinned.
        home: u32,
        /// Previous commit debt.
        debt: usize,
    },
    /// Restore the last-home-read cycle of `symbol`.
    LastHomeRead {
        /// The symbol.
        symbol: u32,
        /// Previous last-home-read cycle.
        old: u32,
    },
    /// Restore the commit debt.
    CommitDebt {
        /// Previous commit debt.
        old: usize,
    },
    /// Clear the direct-symbol-write flag of op instance `idx`.
    ClearDirectWrite {
        /// Index into the placed-ops list.
        idx: u32,
    },
}

/// End of a value's copy list, or the first/last slot of a value without
/// copies.
const NIL: u32 = u32::MAX;

/// One value copy in a [`Partial`]'s arena: the tile whose register file
/// holds it, the cycle it is readable from, and the arena slot of the
/// same value's next copy (`NIL` for the last).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CopySlot {
    tile: u32,
    ready: u32,
    next: u32,
}

/// The copies of one value as `(tile, ready)`, in insertion order,
/// following the `next` links from a first slot.
struct Copies<'a> {
    arena: &'a [CopySlot],
    at: u32,
}

impl Iterator for Copies<'_> {
    type Item = (TileId, u32);

    fn next(&mut self) -> Option<(TileId, u32)> {
        // `NIL` indexes past any arena, which ends the list.
        let c = self.arena.get(self.at as usize)?;
        self.at = c.next;
        Some((TileId(c.tile as usize), c.ready))
    }
}

/// Per-tile scratch entry of the routing BFS (stamped, so clearing it
/// between calls is O(1)).
#[derive(Debug, Clone, Copy, Default)]
struct RouteVisit {
    stamp: u32,
    ready: u32,
    /// Previous hop tile; `u32::MAX` marks a start copy.
    prev_tile: u32,
    /// Cycle of the move from the previous hop.
    prev_cycle: u32,
}

/// Most operands any opcode reads (`select`); validated CDFGs never
/// exceed it.
const MAX_ARITY: usize = 3;

/// One placed op instance with its operand sources stored inline, so
/// placing, rolling back and cloning it never touches the heap. Becomes a
/// [`PlacedOp`] in [`Partial::into_block_mapping`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OpInst {
    op: OpId,
    tile: TileId,
    cycle: usize,
    operands: [OperandSource; MAX_ARITY],
    arity: u8,
    direct_symbol_write: bool,
}

impl OpInst {
    fn new(op: OpId, tile: TileId, cycle: usize, sources: &[OperandSource]) -> Self {
        let mut operands = [OperandSource::Const(0); MAX_ARITY];
        operands[..sources.len()].copy_from_slice(sources);
        OpInst {
            op,
            tile,
            cycle,
            operands,
            arity: sources.len() as u8,
            direct_symbol_write: false,
        }
    }

    fn placed(&self) -> PlacedOp {
        PlacedOp {
            op: self.op,
            tile: self.tile,
            cycle: self.cycle,
            operands: self.operands[..self.arity as usize].to_vec(),
            direct_symbol_write: self.direct_symbol_write,
        }
    }
}

/// The static half of re-computation: whether `producer` may ever be
/// duplicated — a non-memory, non-branch op with a result that writes no
/// symbol and reads only constants and symbols.
fn recomputable(ctx: &MapCtx<'_>, producer: OpId) -> bool {
    let op = ctx.cdfg.op(producer);
    !(op.opcode.is_memory()
        || op.opcode.is_branch()
        || op.result.is_none()
        || op.writes_symbol.is_some())
        && op
            .args
            .iter()
            .all(|&a| !matches!(ctx.cdfg.value(a).kind, ValueKind::Def(_)))
}

/// The parent-side inputs of [`Partial::cost_floor`] for one op.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FloorTerms {
    /// Distinct operands only a route can bring next to the trial's tile,
    /// each with its symbol's pinned home.
    routed: [(ValueId, Option<TileId>); MAX_ARITY],
    len: usize,
    /// Home of the symbol the op writes, when already pinned.
    write_home: Option<TileId>,
}

/// Spare capacity a fresh clone reserves in the buffers the next binding
/// round pushes to, so a survivor's first trials do not reallocate.
const CLONE_HEADROOM: usize = 16;

/// Clones `src` into a new vector with [`CLONE_HEADROOM`] spare slots
/// (none for an empty `src`: most per-value tables stay empty).
fn clone_with_headroom<T: Clone>(src: &[T]) -> Vec<T> {
    if src.is_empty() {
        return Vec::new();
    }
    let mut v = Vec::with_capacity(src.len() + CLONE_HEADROOM);
    v.extend_from_slice(src);
    v
}

/// One partial mapping of the current block.
///
/// Candidate bindings are evaluated **in place**: take a
/// [`checkpoint`](Partial::checkpoint), call
/// [`try_place_op`](Partial::try_place_op) (which mutates on both success
/// and failure), read off cost and metrics, then
/// [`rollback`](Partial::rollback). Cloning is reserved for the pruned
/// survivors that seed the next binding round.
#[derive(Debug)]
pub struct Partial {
    ops: Vec<OpInst>,
    moves: Vec<PlacedMove>,

    // --- flat slot occupancy + incremental context-word counters ---
    /// Row-major per-tile occupancy bitset (`words_per_tile` words each).
    occ_bits: Vec<u64>,
    /// Instructions (ops + moves) of this block per tile.
    instr: Vec<u32>,
    /// Interior idle runs per tile (gaps between consecutive occupied
    /// cycles), maintained on every insertion.
    interior: Vec<u32>,
    /// First occupied cycle per tile (valid when `instr > 0`).
    occ_min: Vec<u32>,
    /// Last occupied cycle per tile (valid when `instr > 0`).
    occ_max: Vec<u32>,
    frontier: usize,

    // --- value copies: one insertion-ordered arena ---
    /// Every copy of every value, in insertion order; a value's copies
    /// are linked through `next`. Copies are only appended and rolled
    /// back, so the arena holds exactly the live copies.
    copies: Vec<CopySlot>,
    /// Arena slot of each value's first copy (`NIL` without copies),
    /// indexed by `ValueId`.
    first_copy: Vec<u32>,
    /// Arena slot of each value's last copy (`NIL` without copies).
    last_copy: Vec<u32>,

    // --- register-file live intervals ---
    /// Live intervals of block-local copies per tile.
    intervals: Vec<Vec<CopyInterval>>,
    /// Row-major live-copy count per `(tile, cycle)`
    /// (`max_schedule + 1` entries per tile).
    rf_count: Vec<u16>,
    /// Every `rf_count` entry at a cycle `>= rf_hi` is zero, on every
    /// tile; cloning into a recycled partial copies only the cycles below
    /// it.
    rf_hi: usize,
    /// Running peak of `rf_count` per tile — equals the old
    /// `max_overlap` interval scan because counts only grow (rollback
    /// restores the recorded previous peak).
    rf_peak: Vec<u16>,

    crf: Vec<Vec<i32>>,
    /// Home tile per symbol, indexed by `SymbolId`.
    homes: Vec<Option<TileId>>,
    persistent_count: Vec<usize>,
    /// Peak committed RF pressure per tile (from previous blocks).
    rf_pressure: Vec<usize>,
    /// Latest cycle at which the *old* value of a symbol was read from its
    /// home register in this block, indexed by `SymbolId`.
    last_home_read: Vec<u32>,
    /// Accumulated distance from placed symbol-writing ops to their
    /// symbols' home tiles — the expected commit-routing cost (the
    /// paper's location constraints influencing the binding).
    commit_debt: usize,
    base_words: Vec<usize>,
    /// Earliest placed cycle per `OpId` (`u32::MAX` when unplaced), for
    /// O(preds) dependency-slack queries.
    first_cycle: Vec<u32>,
    length: usize,

    /// Bitset stride (`ceil(max_schedule / 64)`).
    words_per_tile: usize,
    /// RF-count stride minus one (`rf_count` has `max_schedule + 1`
    /// entries per tile: a result written at the last legal cycle is
    /// ready *at* `max_schedule`).
    max_schedule: usize,

    // --- non-semantic state (never cloned, excluded from comparisons) ---
    journal: Vec<UndoOp>,
    route_visited: Vec<RouteVisit>,
    route_stamp: u32,
    route_queue: VecDeque<TileId>,
    /// The move chain `(src, dst, cycle)` the routing BFS reconstructs.
    route_chain: Vec<(TileId, TileId, usize)>,
    read_cands: Vec<(usize, TileId)>,
}

impl Clone for Partial {
    fn clone(&self) -> Self {
        Partial {
            ops: clone_with_headroom(&self.ops),
            moves: clone_with_headroom(&self.moves),
            occ_bits: self.occ_bits.clone(),
            instr: self.instr.clone(),
            interior: self.interior.clone(),
            occ_min: self.occ_min.clone(),
            occ_max: self.occ_max.clone(),
            frontier: self.frontier,
            copies: clone_with_headroom(&self.copies),
            first_copy: self.first_copy.clone(),
            last_copy: self.last_copy.clone(),
            intervals: self
                .intervals
                .iter()
                .map(|iv| clone_with_headroom(iv))
                .collect(),
            rf_count: self.rf_count.clone(),
            rf_hi: self.rf_hi,
            rf_peak: self.rf_peak.clone(),
            crf: self.crf.iter().map(|c| clone_with_headroom(c)).collect(),
            homes: self.homes.clone(),
            persistent_count: self.persistent_count.clone(),
            rf_pressure: self.rf_pressure.clone(),
            last_home_read: self.last_home_read.clone(),
            commit_debt: self.commit_debt,
            base_words: self.base_words.clone(),
            first_cycle: self.first_cycle.clone(),
            length: self.length,
            words_per_tile: self.words_per_tile,
            max_schedule: self.max_schedule,
            // Scratch and journal start fresh: a clone is taken only at a
            // consistent point (no trial in flight).
            journal: Vec::with_capacity(4 * CLONE_HEADROOM),
            route_visited: vec![RouteVisit::default(); self.route_visited.len()],
            route_stamp: 0,
            route_queue: VecDeque::new(),
            route_chain: Vec::new(),
            read_cands: Vec::new(),
        }
    }

    /// Clone into an existing allocation, reusing every buffer the
    /// destination already owns — the survivor-materialisation path pulls
    /// retired partials from a pool and overwrites them with this.
    fn clone_from(&mut self, src: &Self) {
        self.ops.clone_from(&src.ops);
        self.moves.clone_from(&src.moves);
        self.occ_bits.clone_from(&src.occ_bits);
        self.instr.clone_from(&src.instr);
        self.interior.clone_from(&src.interior);
        self.occ_min.clone_from(&src.occ_min);
        self.occ_max.clone_from(&src.occ_max);
        self.frontier = src.frontier;
        self.copies.clone_from(&src.copies);
        self.first_copy.clone_from(&src.first_copy);
        self.last_copy.clone_from(&src.last_copy);
        clone_nested(&mut self.intervals, &src.intervals);
        if self.rf_count.len() == src.rf_count.len() {
            let stride = src.max_schedule + 1;
            copy_rf_prefix(
                &mut self.rf_count,
                self.rf_hi,
                &src.rf_count,
                src.rf_hi,
                stride,
            );
        } else {
            self.rf_count.clone_from(&src.rf_count);
        }
        self.rf_hi = src.rf_hi;
        self.rf_peak.clone_from(&src.rf_peak);
        clone_nested(&mut self.crf, &src.crf);
        self.homes.clone_from(&src.homes);
        self.persistent_count.clone_from(&src.persistent_count);
        self.rf_pressure.clone_from(&src.rf_pressure);
        self.last_home_read.clone_from(&src.last_home_read);
        self.commit_debt = src.commit_debt;
        self.base_words.clone_from(&src.base_words);
        self.first_cycle.clone_from(&src.first_cycle);
        self.length = src.length;
        self.words_per_tile = src.words_per_tile;
        self.max_schedule = src.max_schedule;
        self.journal.clear();
        self.route_visited
            .resize(src.route_visited.len(), RouteVisit::default());
        self.read_cands.clear();
    }
}

/// Copies the per-tile RF counts below cycle `src_hi` from `src` into
/// `dst` (rows of `stride` cycles), zeroing `dst`'s old counts up to
/// `dst_hi` — both buffers are zero at and above their bounds.
fn copy_rf_prefix(dst: &mut [u16], dst_hi: usize, src: &[u16], src_hi: usize, stride: usize) {
    for (d, s) in dst.chunks_exact_mut(stride).zip(src.chunks_exact(stride)) {
        d[..src_hi].copy_from_slice(&s[..src_hi]);
        if dst_hi > src_hi {
            d[src_hi..dst_hi].fill(0);
        }
    }
}

/// Clones a `Vec<Vec<T>>` reusing every inner buffer of the destination
/// (plain `Vec::clone_from` would drop and reallocate the inner vectors).
fn clone_nested<T: Clone>(dst: &mut Vec<Vec<T>>, src: &[Vec<T>]) {
    dst.truncate(src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        d.clone_from(s);
    }
    let have = dst.len();
    dst.extend(src[have..].iter().map(|s| clone_with_headroom(s)));
}

impl Partial {
    /// Starts an empty partial mapping of a new block on top of `state`.
    pub fn new(state: &FlowState, ctx: &MapCtx<'_>) -> Self {
        let n = state.base_words.len();
        let max_schedule = ctx.options.max_schedule;
        let words_per_tile = max_schedule.div_ceil(64);
        let num_values = ctx.cdfg.num_values();
        let num_symbols = ctx.cdfg.num_symbols();
        let mut homes = vec![None; num_symbols];
        for (&s, &t) in &state.homes {
            homes[s.0 as usize] = Some(t);
        }
        Partial {
            ops: Vec::new(),
            moves: Vec::new(),
            occ_bits: vec![0; n * words_per_tile],
            instr: vec![0; n],
            interior: vec![0; n],
            occ_min: vec![0; n],
            occ_max: vec![0; n],
            frontier: 0,
            copies: Vec::new(),
            first_copy: vec![NIL; num_values],
            last_copy: vec![NIL; num_values],
            intervals: vec![Vec::new(); n],
            rf_count: vec![0; n * (max_schedule + 1)],
            rf_hi: 0,
            rf_peak: vec![0; n],
            crf: state.crf.clone(),
            homes,
            persistent_count: state.persistent_count.clone(),
            rf_pressure: state.rf_pressure.clone(),
            last_home_read: vec![0; num_symbols],
            commit_debt: 0,
            base_words: state.base_words.clone(),
            first_cycle: vec![u32::MAX; ctx.cdfg.total_ops()],
            length: 0,
            words_per_tile,
            max_schedule,
            journal: Vec::new(),
            route_visited: vec![RouteVisit::default(); n],
            route_stamp: 0,
            route_queue: VecDeque::new(),
            route_chain: Vec::new(),
            read_cands: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Try/undo journal
    // ------------------------------------------------------------------

    /// A point of the undo journal to [`rollback`](Partial::rollback) to.
    pub fn checkpoint(&self) -> usize {
        self.journal.len()
    }

    /// Whether any mutation happened since `cp` (a rollback would do
    /// work).
    pub fn dirty_since(&self, cp: usize) -> bool {
        self.journal.len() > cp
    }

    /// Tiles that gained an instruction since `cp` (with repeats): the
    /// only tiles whose instruction and run counters a trial changed.
    fn touched_since(&self, cp: usize) -> impl Iterator<Item = TileId> + '_ {
        self.journal[cp..].iter().filter_map(|e| match *e {
            UndoOp::Occupy { tile, .. } => Some(TileId(tile as usize)),
            _ => None,
        })
    }

    /// Undoes every mutation since `cp`, restoring the exact state the
    /// checkpoint observed.
    pub fn rollback(&mut self, cp: usize) {
        while self.journal.len() > cp {
            let e = self.journal.pop().expect("len > cp");
            match e {
                UndoOp::PopOp { first } => {
                    let inst = self.ops.pop().expect("journaled op");
                    self.first_cycle[inst.op.0 as usize] = first;
                }
                UndoOp::PopMove => {
                    self.moves.pop();
                }
                UndoOp::Occupy {
                    tile,
                    cycle,
                    interior,
                    occ_min,
                    occ_max,
                    frontier,
                } => {
                    let t = tile as usize;
                    self.occ_bits[t * self.words_per_tile + cycle as usize / 64] &=
                        !(1u64 << (cycle % 64));
                    self.instr[t] -= 1;
                    self.interior[t] = interior;
                    self.occ_min[t] = occ_min;
                    self.occ_max[t] = occ_max;
                    self.frontier = frontier as usize;
                }
                UndoOp::PopCrf { tile } => {
                    self.crf[tile as usize].pop();
                }
                UndoOp::PopAvail { value, prev } => {
                    self.pop_copy(ValueId(value), prev);
                }
                UndoOp::AvailReady { slot, old } => {
                    self.copies[slot as usize].ready = old;
                }
                UndoOp::PopCopy { tile, peak, prev } => {
                    let iv = self.intervals[tile as usize].pop().expect("journaled copy");
                    self.rf_count[tile as usize * (self.max_schedule + 1) + iv.start] -= 1;
                    self.rf_peak[tile as usize] = peak;
                    self.pop_copy(iv.value, prev);
                }
                UndoOp::IntervalStart { tile, idx, old } => {
                    self.intervals[tile as usize][idx as usize].start = old as usize;
                }
                UndoOp::Retract {
                    tile,
                    idx,
                    old,
                    peak,
                } => {
                    let t = tile as usize;
                    let iv = &mut self.intervals[t][idx as usize];
                    let (from, to) = (old as usize + 1, iv.end);
                    iv.end = old as usize;
                    let base = t * (self.max_schedule + 1);
                    for c in &mut self.rf_count[base + from..=base + to] {
                        *c -= 1;
                    }
                    self.rf_peak[t] = peak;
                }
                UndoOp::RfDec {
                    tile,
                    from,
                    to,
                    peak,
                } => {
                    let base = tile as usize * (self.max_schedule + 1);
                    for c in from..=to {
                        self.rf_count[base + c as usize] -= 1;
                    }
                    self.rf_peak[tile as usize] = peak;
                }
                UndoOp::UnpinHome { symbol, home, debt } => {
                    self.homes[symbol as usize] = None;
                    self.persistent_count[home as usize] -= 1;
                    self.commit_debt = debt;
                }
                UndoOp::LastHomeRead { symbol, old } => {
                    self.last_home_read[symbol as usize] = old;
                }
                UndoOp::CommitDebt { old } => {
                    self.commit_debt = old;
                }
                UndoOp::ClearDirectWrite { idx } => {
                    self.ops[idx as usize].direct_symbol_write = false;
                }
            }
        }
    }

    /// Drops the journal (all mutations become permanent). Called once a
    /// partial is promoted into the next population — nothing ever rolls
    /// back past a promotion.
    pub fn clear_journal(&mut self) {
        self.journal.clear();
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Placed operation instances so far.
    pub fn placed_ops(&self) -> impl ExactSizeIterator<Item = PlacedOp> + '_ {
        self.ops.iter().map(OpInst::placed)
    }

    /// Inserted moves so far.
    pub fn placed_moves(&self) -> &[PlacedMove] {
        &self.moves
    }

    /// Current home of symbol `s` (including homes pinned by this
    /// partial).
    pub fn home_of(&self, s: SymbolId) -> Option<TileId> {
        self.homes[s.0 as usize]
    }

    /// Persistent register counts per tile.
    pub fn persistent_count(&self) -> &[usize] {
        &self.persistent_count
    }

    /// Per-tile CRF contents.
    pub fn crf(&self) -> &[Vec<i32>] {
        &self.crf
    }

    /// Current schedule extent (max occupied cycle + 1).
    pub fn frontier(&self) -> usize {
        self.frontier
    }

    /// Final schedule length; valid after [`finalize`](Partial::finalize).
    pub fn length(&self) -> usize {
        self.length
    }

    // ------------------------------------------------------------------
    // Value copies (insertion-ordered arena)
    // ------------------------------------------------------------------

    /// The copies of `v` as `(tile, ready)`, in insertion order.
    fn copies_of(&self, v: ValueId) -> Copies<'_> {
        Copies {
            arena: &self.copies,
            at: self.first_copy[v.0 as usize],
        }
    }

    /// Appends a copy of `v` on `tile`, readable from `ready`, to the
    /// arena and to the end of `v`'s list. Not journaled: returns the
    /// value's previous last slot for the caller's undo record.
    fn push_copy(&mut self, v: ValueId, tile: TileId, ready: u32) -> u32 {
        // Every copy but a symbol's home seed is written by an instruction
        // in a slot of its own, so real arenas stay far below `NIL`.
        let slot = u32::try_from(self.copies.len())
            .ok()
            .filter(|&s| s != NIL)
            .expect("a partial holds fewer than u32::MAX copies");
        self.copies.push(CopySlot {
            tile: tile.0 as u32,
            ready,
            next: NIL,
        });
        let prev = std::mem::replace(&mut self.last_copy[v.0 as usize], slot);
        match prev {
            NIL => self.first_copy[v.0 as usize] = slot,
            p => self.copies[p as usize].next = slot,
        }
        prev
    }

    /// Undoes the latest [`push_copy`](Partial::push_copy) of value `v`,
    /// whose copy is the arena's last slot (the journal undoes in reverse
    /// order), given the previous last slot it returned.
    fn pop_copy(&mut self, v: ValueId, prev: u32) {
        self.copies.pop();
        self.last_copy[v.0 as usize] = prev;
        match prev {
            NIL => self.first_copy[v.0 as usize] = NIL,
            p => self.copies[p as usize].next = NIL,
        }
    }

    // ------------------------------------------------------------------
    // Slot occupancy (bitset + incremental run counters)
    // ------------------------------------------------------------------

    /// Whether `(t, c)` holds no instruction yet.
    pub(crate) fn slot_free(&self, t: TileId, c: usize) -> bool {
        self.occ_bits[t.0 * self.words_per_tile + c / 64] & (1u64 << (c % 64)) == 0
    }

    /// Last occupied cycle of `t` strictly below `c`, if any.
    fn prev_occupied(&self, t: TileId, c: usize) -> Option<usize> {
        if self.instr[t.0] == 0 || c <= self.occ_min[t.0] as usize {
            return None;
        }
        let base = t.0 * self.words_per_tile;
        let mut w = (c - 1) / 64;
        let mut bits = self.occ_bits[base + w] & (!0u64 >> (63 - (c - 1) % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + 63 - bits.leading_zeros() as usize);
            }
            if w == 0 {
                return None;
            }
            w -= 1;
            bits = self.occ_bits[base + w];
        }
    }

    /// First occupied cycle of `t` strictly above `c`, if any.
    fn next_occupied(&self, t: TileId, c: usize) -> Option<usize> {
        if self.instr[t.0] == 0 || c >= self.occ_max[t.0] as usize {
            return None;
        }
        let base = t.0 * self.words_per_tile;
        let mut w = (c + 1) / 64;
        let mut bits = self.occ_bits[base + w] & (!0u64 << ((c + 1) % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            if w >= self.words_per_tile {
                return None;
            }
            bits = self.occ_bits[base + w];
        }
    }

    /// Marks `(t, c)` occupied, maintaining the per-tile instruction
    /// count, interior-run count, occupied range and the global frontier
    /// incrementally (journaled).
    fn occupy(&mut self, t: TileId, c: usize) {
        debug_assert!(self.slot_free(t, c), "occupying a taken slot");
        self.journal.push(UndoOp::Occupy {
            tile: t.0 as u32,
            cycle: c as u32,
            interior: self.interior[t.0],
            occ_min: self.occ_min[t.0],
            occ_max: self.occ_max[t.0],
            frontier: self.frontier as u32,
        });
        let prev = self.prev_occupied(t, c);
        let next = self.next_occupied(t, c);
        self.occ_bits[t.0 * self.words_per_tile + c / 64] |= 1u64 << (c % 64);
        // Interior runs change only around the inserted cycle: the old
        // (prev, next) gap is split into (prev, c) and (c, next).
        let gap = |a: usize, b: usize| u32::from(b - a > 1);
        match (prev, next) {
            (Some(p), Some(n)) => {
                self.interior[t.0] = self.interior[t.0] - gap(p, n) + gap(p, c) + gap(c, n);
            }
            (Some(p), None) => self.interior[t.0] += gap(p, c),
            (None, Some(n)) => self.interior[t.0] += gap(c, n),
            (None, None) => {}
        }
        if self.instr[t.0] == 0 {
            self.occ_min[t.0] = c as u32;
            self.occ_max[t.0] = c as u32;
        } else {
            self.occ_min[t.0] = self.occ_min[t.0].min(c as u32);
            self.occ_max[t.0] = self.occ_max[t.0].max(c as u32);
        }
        self.instr[t.0] += 1;
        self.frontier = self.frontier.max(c + 1);
    }

    /// Mapped instructions (ops + moves) of this block on `tile`.
    pub fn instr_count(&self, tile: TileId) -> usize {
        self.instr[tile.0] as usize
    }

    /// Idle runs of `tile` within `[0, extent)`: `(interior, leading,
    /// trailing)` run counts — O(1) from the incremental counters.
    fn runs(&self, tile: TileId, extent: usize) -> (usize, usize, usize) {
        if extent == 0 {
            return (0, 0, 0);
        }
        if self.instr[tile.0] == 0 {
            return (0, 1, 0); // one big leading run
        }
        let leading = usize::from(self.occ_min[tile.0] > 0);
        let trailing = usize::from(self.occ_max[tile.0] as usize + 1 < extent);
        (self.interior[tile.0] as usize, leading, trailing)
    }

    /// ACMAP metric (Section III-D.2): committed words + instructions +
    /// *interior* idle runs only. An approximation — leading/trailing runs
    /// are ignored, so infeasible partials can survive this filter.
    pub fn acmap_words(&self, tile: TileId) -> usize {
        self.base_words[tile.0] + (self.instr[tile.0] + self.interior[tile.0]) as usize
    }

    /// ECMAP metric (Section III-D.3): committed words + instructions +
    /// all idle runs in the current extent. A true lower bound of the
    /// tile's final context words.
    pub fn ecmap_words(&self, tile: TileId) -> usize {
        let (i, l, t) = self.runs(tile, self.frontier);
        self.base_words[tile.0] + self.instr_count(tile) + i + l + t
    }

    /// Exact context words of `tile` for a finished block of `length`
    /// cycles (matches `BlockMapping::context_words` plus the committed
    /// base).
    pub fn exact_words(&self, tile: TileId, length: usize) -> usize {
        let (i, l, t) = self.runs(tile, length);
        self.base_words[tile.0] + self.instr_count(tile) + i + l + t
    }

    /// CAB blacklist test (Section III-D.4): the tile cannot take any
    /// further instruction without overflowing its context memory.
    pub fn blacklisted(&self, ctx: &MapCtx<'_>, tile: TileId) -> bool {
        self.ecmap_words(tile) >= ctx.capacity(tile)
    }

    /// The parent half of the incremental ACMAP/ECMAP verdicts, taken at
    /// a checkpoint before the trials of one expansion (see
    /// [`child_verdicts`](Partial::child_verdicts)).
    pub(crate) fn verdict_base(&self, ctx: &MapCtx<'_>) -> VerdictBase {
        let mut base = VerdictBase {
            acmap_ok: true,
            ecmap_ok: true,
            flip_at: usize::MAX,
        };
        for t in 0..self.instr.len() {
            let tile = TileId(t);
            let cap = ctx.capacity(tile);
            if ctx.options.acmap && self.acmap_words(tile) > cap {
                base.acmap_ok = false;
            }
            if ctx.options.ecmap {
                let words = self.ecmap_words(tile);
                if words > cap {
                    base.ecmap_ok = false;
                } else if words == cap {
                    // A full tile the trial leaves alone still overflows
                    // once the frontier grows it one more idle run: the
                    // trailing run of a busy tile, the leading run of an
                    // idle tile while nothing is placed yet.
                    if self.instr[t] == 0 {
                        if self.frontier == 0 {
                            base.flip_at = base.flip_at.min(1);
                        }
                    } else if self.occ_max[t] as usize + 1 >= self.frontier {
                        base.flip_at = base.flip_at.min(self.occ_max[t] as usize + 2);
                    }
                }
            }
        }
        base
    }

    /// ACMAP and ECMAP verdicts of the trial applied since `cp`, equal to
    /// [`acmap_filter`](crate::acmap_filter) and
    /// [`ecmap_filter`](crate::ecmap_filter) on the trial's state (a
    /// disabled filter passes everything).
    ///
    /// A tile's words never decrease: filling an idle cycle cannot lower
    /// instructions + idle runs, and neither can a larger frontier. So a
    /// tile the trial did not touch keeps its parent ACMAP words, and its
    /// ECMAP words grow by one exactly when the frontier reaches the
    /// [`VerdictBase`]'s flip threshold; only the touched tiles need a
    /// fresh look.
    pub(crate) fn child_verdicts(
        &self,
        ctx: &MapCtx<'_>,
        base: &VerdictBase,
        cp: usize,
    ) -> (bool, bool) {
        let acmap_ok = !ctx.options.acmap
            || (base.acmap_ok
                && self
                    .touched_since(cp)
                    .all(|t| self.acmap_words(t) <= ctx.capacity(t)));
        let ecmap_ok = !ctx.options.ecmap
            || (base.ecmap_ok
                && self.frontier < base.flip_at
                && self
                    .touched_since(cp)
                    .all(|t| self.ecmap_words(t) <= ctx.capacity(t)));
        (acmap_ok, ecmap_ok)
    }

    // ------------------------------------------------------------------
    // Register-file intervals (flat per-cycle live-copy counts)
    // ------------------------------------------------------------------

    /// Block-local registers available on `tile` (RF minus persistent
    /// symbol registers).
    fn local_cap(&self, ctx: &MapCtx<'_>, tile: TileId) -> usize {
        ctx.pre.rf_words[tile.0].saturating_sub(self.persistent_count[tile.0])
    }

    /// Peak occupancy of `tile` over the whole block so far.
    fn max_overlap(&self, tile: TileId) -> usize {
        self.rf_peak[tile.0] as usize
    }

    /// Whether one more copy can be live on `tile` across `[from, to]`.
    fn range_has_room(&self, ctx: &MapCtx<'_>, tile: TileId, from: usize, to: usize) -> bool {
        let cap = self.local_cap(ctx, tile);
        let base = tile.0 * (self.max_schedule + 1);
        self.rf_count[base + from..=base + to]
            .iter()
            .all(|&c| (c as usize) < cap)
    }

    /// Increments the live-copy counts of `tile` over `[from, to]`,
    /// maintaining the running peak. Not journaled: the caller records the
    /// returned previous peak in its own undo record.
    fn rf_inc(&mut self, tile: TileId, from: usize, to: usize) -> u16 {
        self.rf_hi = self.rf_hi.max(to + 1);
        let base = tile.0 * (self.max_schedule + 1);
        let old_peak = self.rf_peak[tile.0];
        let mut peak = old_peak;
        for c in &mut self.rf_count[base + from..=base + to] {
            *c += 1;
            peak = peak.max(*c);
        }
        self.rf_peak[tile.0] = peak;
        old_peak
    }

    /// Registers a copy of `v` on `tile` written at the end of cycle
    /// `ready - 1` (readable from `ready`). Fails when the RF is full at
    /// that point.
    fn try_add_copy(&mut self, ctx: &MapCtx<'_>, tile: TileId, v: ValueId, ready: usize) -> bool {
        // Every interval has a copy in the arena, so a value without
        // copies (a fresh result) needs no interval scan.
        let existing = if self.first_copy[v.0 as usize] == NIL {
            None
        } else {
            self.intervals[tile.0].iter().position(|iv| iv.value == v)
        };
        if let Some(pos) = existing {
            // Re-computed duplicate: widen the interval start if needed.
            let old_start = self.intervals[tile.0][pos].start;
            if ready < old_start {
                if !self.range_has_room(ctx, tile, ready, old_start - 1) {
                    return false;
                }
                self.journal.push(UndoOp::IntervalStart {
                    tile: tile.0 as u32,
                    idx: pos as u32,
                    old: old_start as u32,
                });
                self.intervals[tile.0][pos].start = ready;
                let peak = self.rf_inc(tile, ready, old_start - 1);
                self.journal.push(UndoOp::RfDec {
                    tile: tile.0 as u32,
                    from: ready as u32,
                    to: (old_start - 1) as u32,
                    peak,
                });
                let mut slot = self.first_copy[v.0 as usize];
                while slot != NIL && self.copies[slot as usize].tile != tile.0 as u32 {
                    slot = self.copies[slot as usize].next;
                }
                if slot != NIL {
                    let copy = &mut self.copies[slot as usize];
                    self.journal.push(UndoOp::AvailReady {
                        slot,
                        old: copy.ready,
                    });
                    copy.ready = ready as u32;
                }
            }
            return true;
        }
        if !self.range_has_room(ctx, tile, ready, ready) {
            return false;
        }
        self.intervals[tile.0].push(CopyInterval {
            value: v,
            start: ready,
            end: ready,
        });
        let peak = self.rf_inc(tile, ready, ready);
        let prev = self.push_copy(v, tile, ready as u32);
        self.journal.push(UndoOp::PopCopy {
            tile: tile.0 as u32,
            peak,
            prev,
        });
        true
    }

    /// Whether the copy of `v` on `tile` is the persistent home register
    /// of a symbol (not subject to interval accounting).
    fn is_home_copy(&self, ctx: &MapCtx<'_>, v: ValueId, tile: TileId) -> bool {
        matches!(
            ctx.cdfg.value(v).kind,
            ValueKind::SymbolUse(s) if self.homes[s.0 as usize] == Some(tile)
        )
    }

    /// Extends the live interval of the copy of `v` on `tile` to cover a
    /// read at `cycle`; fails when the extension would overflow the RF.
    fn try_extend_use(&mut self, ctx: &MapCtx<'_>, tile: TileId, v: ValueId, cycle: usize) -> bool {
        if self.is_home_copy(ctx, v, tile) {
            return true;
        }
        let Some(pos) = self.intervals[tile.0].iter().position(|iv| iv.value == v) else {
            return false;
        };
        let end = self.intervals[tile.0][pos].end;
        if cycle <= end {
            return true;
        }
        if !self.range_has_room(ctx, tile, end + 1, cycle) {
            return false;
        }
        self.intervals[tile.0][pos].end = cycle;
        let peak = self.rf_inc(tile, end + 1, cycle);
        self.journal.push(UndoOp::Retract {
            tile: tile.0 as u32,
            idx: pos as u32,
            old: end as u32,
            peak,
        });
        true
    }

    /// Finds a copy of `v` readable by an instruction on `tile` at `cycle`
    /// (the tile itself or a direct neighbour), extending its live
    /// interval. Prefers the tile itself, then the lowest-id neighbour.
    fn acquire_read(
        &mut self,
        ctx: &MapCtx<'_>,
        v: ValueId,
        tile: TileId,
        cycle: usize,
    ) -> Option<TileId> {
        let mut cands = std::mem::take(&mut self.read_cands);
        cands.clear();
        for (t, ready) in self.copies_of(v) {
            if ready as usize <= cycle {
                let d = ctx.pre.distance(t, tile);
                if d <= 1 {
                    cands.push((d, t));
                }
            }
        }
        // At most 5 entries (the tile + its torus neighbours); total
        // order, so the sort is deterministic.
        cands.sort_unstable();
        let mut found = None;
        for &(_, src) in &cands {
            if self.try_extend_use(ctx, src, v, cycle) {
                found = Some(src);
                break;
            }
        }
        self.read_cands = cands;
        let src = found?;
        self.note_home_read(ctx, v, src, cycle);
        Some(src)
    }

    fn note_home_read(&mut self, ctx: &MapCtx<'_>, v: ValueId, src: TileId, cycle: usize) {
        if let ValueKind::SymbolUse(s) = ctx.cdfg.value(v).kind {
            if self.homes[s.0 as usize] == Some(src) {
                let old = self.last_home_read[s.0 as usize];
                if cycle as u32 > old {
                    self.journal.push(UndoOp::LastHomeRead { symbol: s.0, old });
                    self.last_home_read[s.0 as usize] = cycle as u32;
                }
            }
        }
    }

    /// Pins a home for symbol `s` near `preferred`; returns the home tile.
    ///
    /// The chosen tile must fit one more persistent register next to both
    /// the current block's peak local pressure *and* the peak pressure of
    /// every previously committed block.
    fn pin_home(&mut self, ctx: &MapCtx<'_>, s: SymbolId, preferred: TileId) -> Option<TileId> {
        // The tile, its neighbours, then every tile by distance and id
        // (precomputed in `MapPre`).
        for &home in ctx.pre.pin_order(preferred) {
            let cap = ctx.pre.rf_words[home.0];
            let pressure = self.rf_pressure[home.0].max(self.max_overlap(home));
            if self.persistent_count[home.0] + pressure < cap {
                self.journal.push(UndoOp::UnpinHome {
                    symbol: s.0,
                    home: home.0 as u32,
                    debt: self.commit_debt,
                });
                self.persistent_count[home.0] += 1;
                self.homes[s.0 as usize] = Some(home);
                // Writers of `s` placed before the home was known now have
                // a definite commit distance.
                let writer_debt: usize = self
                    .ops
                    .iter()
                    .filter(|po| ctx.cdfg.op(po.op).writes_symbol == Some(s))
                    .map(|po| ctx.pre.distance(po.tile, home))
                    .sum();
                self.commit_debt += writer_debt;
                return Some(home);
            }
        }
        None
    }

    /// Makes `v` readable at `(tile, cycle)`: ensures a copy of `v` exists
    /// on `tile` or one of its neighbours, ready by `cycle`, inserting
    /// `move` instructions if needed. Returns the source tile.
    ///
    /// Mutates `self` on both success and failure: callers must take a
    /// [`checkpoint`](Partial::checkpoint) and
    /// [`rollback`](Partial::rollback) when this returns `None`.
    fn ensure_readable(
        &mut self,
        ctx: &MapCtx<'_>,
        v: ValueId,
        tile: TileId,
        cycle: usize,
    ) -> Option<TileId> {
        // Symbol reads come from the home register: seed the home copy on
        // first encounter in this block, pinning an unpinned home at the
        // consumer.
        if let ValueKind::SymbolUse(s) = ctx.cdfg.value(v).kind {
            let home = match self.homes[s.0 as usize] {
                Some(h) => h,
                None => self.pin_home(ctx, s, tile)?,
            };
            let seeded = self.copies_of(v).any(|(t, _)| t == home);
            if !seeded {
                // The home copy lives in a persistent register, not a
                // block-local one, so it carries no live interval.
                let prev = self.push_copy(v, home, 0);
                self.journal.push(UndoOp::PopAvail { value: v.0, prev });
            }
        }
        if let Some(src) = self.acquire_read(ctx, v, tile, cycle) {
            return Some(src);
        }
        let src = self.route_value(ctx, v, tile, cycle)?;
        // The consumer's read at `cycle` must keep the routed copy alive.
        if !self.try_extend_use(ctx, src, v, cycle) {
            return None;
        }
        self.note_home_read(ctx, v, src, cycle);
        Some(src)
    }

    /// Re-routing transformation: inserts a shortest chain of moves over
    /// free slots so that a copy of `v` is readable by `(dest, need)`.
    /// Returns the tile the consumer should read from.
    fn route_value(
        &mut self,
        ctx: &MapCtx<'_>,
        v: ValueId,
        dest: TileId,
        need: usize,
    ) -> Option<TileId> {
        // Hop bound: each move takes one cycle and one hop, and the chain
        // needs at least one move ending next to `dest`, so a copy ready at
        // `r` that is `d` hops away cannot arrive unless
        // `r + max(1, d - 1) <= need`. When no copy can, the BFS below
        // would find nothing either.
        let in_reach = self.copies_of(v).any(|(t, ready)| {
            let hops = ctx.pre.distance(t, dest).saturating_sub(1).max(1);
            ready as usize + hops <= need
        });
        if !in_reach {
            return None;
        }
        // BFS by move count over tiles; per tile keep the earliest ready.
        // The visited table is a stamped per-tile scratch array — no
        // hashing, no per-call allocation.
        self.route_stamp += 1;
        let stamp = self.route_stamp;
        let mut queue = std::mem::take(&mut self.route_queue);
        queue.clear();
        // Borrows the arena field alone (not `copies_of`'s `&self`), so
        // the loop may write `route_visited`.
        let starts = Copies {
            arena: &self.copies,
            at: self.first_copy[v.0 as usize],
        };
        for (t, ready) in starts {
            if (ready as usize) < need {
                let vis = &mut self.route_visited[t.0];
                if vis.stamp != stamp || ready < vis.ready {
                    *vis = RouteVisit {
                        stamp,
                        ready,
                        prev_tile: u32::MAX,
                        prev_cycle: 0,
                    };
                    queue.push_back(t);
                }
            }
        }
        let mut goal: Option<TileId> = None;
        'bfs: while let Some(x) = queue.pop_front() {
            let ready = self.route_visited[x.0].ready as usize;
            for i in 0..ctx.pre.nbr_sorted[x.0].len() {
                let y = ctx.pre.nbr_sorted[x.0][i];
                if self.route_visited[y.0].stamp == stamp {
                    continue;
                }
                if ctx.options.cab && self.blacklisted(ctx, y) {
                    continue;
                }
                // Earliest free slot m on y with ready <= m < need whose
                // destination RF has room for the new copy.
                let mut m = ready;
                let slot = loop {
                    if m >= need {
                        break None;
                    }
                    if m >= ctx.options.max_schedule {
                        break None;
                    }
                    if self.slot_free(y, m) && self.range_has_room(ctx, y, m + 1, m + 1) {
                        break Some(m);
                    }
                    m += 1;
                };
                let Some(m) = slot else { continue };
                self.route_visited[y.0] = RouteVisit {
                    stamp,
                    ready: (m + 1) as u32,
                    prev_tile: x.0 as u32,
                    prev_cycle: m as u32,
                };
                if ctx.pre.distance(y, dest) <= 1 {
                    goal = Some(y);
                    break 'bfs;
                }
                queue.push_back(y);
            }
        }
        self.route_queue = queue;
        let goal = goal?;
        // Reconstruct and apply the move chain from the start copy.
        let mut chain = std::mem::take(&mut self.route_chain);
        chain.clear();
        let mut cur = goal;
        while self.route_visited[cur.0].prev_tile != u32::MAX {
            let vis = self.route_visited[cur.0];
            let prev = TileId(vis.prev_tile as usize);
            chain.push((prev, cur, vis.prev_cycle as usize));
            cur = prev;
        }
        let applied = chain
            .iter()
            .rev()
            .all(|&(src, dst, m)| self.apply_move(ctx, v, src, dst, m));
        self.route_chain = chain;
        // The consumer's read extends the goal copy via the caller.
        applied.then_some(goal)
    }

    /// Applies one routing hop: the move on `dst` at cycle `m` reads the
    /// copy of `v` on `src` (extending its interval) and writes a new copy
    /// on `dst`. Fails (dirty) when either register file is full.
    fn apply_move(
        &mut self,
        ctx: &MapCtx<'_>,
        v: ValueId,
        src: TileId,
        dst: TileId,
        m: usize,
    ) -> bool {
        if !self.try_extend_use(ctx, src, v, m) {
            return false;
        }
        self.note_home_read(ctx, v, src, m);
        if !self.try_add_copy(ctx, dst, v, m + 1) {
            return false;
        }
        self.occupy(dst, m);
        self.journal.push(UndoOp::PopMove);
        self.moves.push(PlacedMove {
            value: v,
            src_tile: src,
            tile: dst,
            cycle: m,
            commit_symbol: None,
        });
        true
    }

    /// Re-computing transformation: duplicates `producer` (a non-memory op
    /// whose operands are constants or symbol reads) on `tile` or one of
    /// its neighbours before `before`, making its result locally
    /// available.
    fn try_recompute(
        &mut self,
        ctx: &MapCtx<'_>,
        producer: OpId,
        tile: TileId,
        before: usize,
    ) -> bool {
        if !recomputable(ctx, producer) {
            return false;
        }
        let op = ctx.cdfg.op(producer);
        // Depth-1 only: every operand must be a constant or a pinned
        // symbol whose home is adjacent to the duplicate's tile.
        let nbrs = &ctx.pre.nbr_dir[tile.0];
        let mut sites = [tile; 5];
        sites[1..=nbrs.len()].copy_from_slice(nbrs);
        'site: for &t2 in &sites[..=nbrs.len()] {
            if ctx.options.cab && self.blacklisted(ctx, t2) {
                continue;
            }
            // Check operands are resolvable at t2 without routing.
            let mut sources = [OperandSource::Const(0); MAX_ARITY];
            for (slot, &a) in sources.iter_mut().zip(&op.args) {
                *slot = match ctx.cdfg.value(a).kind {
                    ValueKind::Const(c) => {
                        let in_crf = self.crf[t2.0].contains(&c);
                        if !in_crf && self.crf[t2.0].len() >= ctx.pre.crf_words[t2.0] {
                            continue 'site;
                        }
                        OperandSource::Const(c)
                    }
                    ValueKind::SymbolUse(s) => {
                        let Some(home) = self.homes[s.0 as usize] else {
                            continue 'site;
                        };
                        if ctx.pre.distance(home, t2) > 1 {
                            continue 'site;
                        }
                        OperandSource::Rf {
                            tile: home,
                            value: a,
                        }
                    }
                    // Excluded by `recomputable`.
                    ValueKind::Def(_) => continue 'site,
                };
            }
            let sources = &sources[..op.args.len()];
            // Earliest free slot before `before` with RF room for the
            // duplicated result.
            let mut c2 = 0;
            let slot = loop {
                if c2 >= before {
                    break None;
                }
                if self.slot_free(t2, c2) && self.range_has_room(ctx, t2, c2 + 1, c2 + 1) {
                    break Some(c2);
                }
                c2 += 1;
            };
            let Some(c2) = slot else { continue };
            // Apply.
            for src in sources {
                match *src {
                    OperandSource::Const(c) => {
                        if !self.crf[t2.0].contains(&c) {
                            self.journal.push(UndoOp::PopCrf { tile: t2.0 as u32 });
                            self.crf[t2.0].push(c);
                        }
                    }
                    OperandSource::Rf { tile: home, value } => {
                        self.note_home_read(ctx, value, home, c2);
                    }
                }
            }
            let result = op.result.expect("checked above");
            if !self.try_add_copy(ctx, t2, result, c2 + 1) {
                continue;
            }
            self.occupy(t2, c2);
            self.push_op(OpInst::new(producer, t2, c2, sources));
            return true;
        }
        false
    }

    /// Appends a placed op, maintaining the dense first-instance-cycle
    /// table (journaled).
    fn push_op(&mut self, inst: OpInst) {
        let first = &mut self.first_cycle[inst.op.0 as usize];
        self.journal.push(UndoOp::PopOp { first: *first });
        *first = (*first).min(inst.cycle as u32);
        self.ops.push(inst);
    }

    /// Attempts to bind `op` on `(tile, cycle)`, resolving all operands
    /// (inserting moves / re-computations as needed). Returns `false` on
    /// infeasibility; the state is then dirty, so callers must
    /// [`rollback`](Partial::rollback) to their
    /// [`checkpoint`](Partial::checkpoint).
    pub fn try_place_op(
        &mut self,
        ctx: &MapCtx<'_>,
        op_id: OpId,
        tile: TileId,
        cycle: usize,
    ) -> bool {
        if cycle >= ctx.options.max_schedule || !self.slot_free(tile, cycle) {
            return false;
        }
        if !self.tile_open(ctx, op_id, tile) {
            return false;
        }
        self.place_on_open_tile(ctx, op_id, tile, cycle)
    }

    /// Whether `tile` may take `op` at all in the current state: LSU
    /// legality and the CAB blacklist. Neither depends on the cycle, so
    /// candidate expansion decides it once per tile.
    pub(crate) fn tile_open(&self, ctx: &MapCtx<'_>, op_id: OpId, tile: TileId) -> bool {
        if ctx.cdfg.op(op_id).opcode.is_memory() && !ctx.pre.has_lsu(tile) {
            return false;
        }
        !(ctx.options.cab && self.blacklisted(ctx, tile))
    }

    /// The mutating half of [`try_place_op`](Partial::try_place_op), for a
    /// free in-range slot on a tile that passed
    /// [`tile_open`](Partial::tile_open).
    pub(crate) fn place_on_open_tile(
        &mut self,
        ctx: &MapCtx<'_>,
        op_id: OpId,
        tile: TileId,
        cycle: usize,
    ) -> bool {
        let op = ctx.cdfg.op(op_id);
        let mut sources = [OperandSource::Const(0); MAX_ARITY];
        for (slot, &a) in sources.iter_mut().zip(&op.args) {
            *slot = match ctx.cdfg.value(a).kind {
                ValueKind::Const(c) => {
                    let in_crf = self.crf[tile.0].contains(&c);
                    if !in_crf {
                        if self.crf[tile.0].len() >= ctx.pre.crf_words[tile.0] {
                            return false;
                        }
                        self.journal.push(UndoOp::PopCrf {
                            tile: tile.0 as u32,
                        });
                        self.crf[tile.0].push(c);
                    }
                    OperandSource::Const(c)
                }
                _ => {
                    let src = match self.ensure_readable(ctx, a, tile, cycle) {
                        Some(s) => s,
                        None => {
                            // Re-computing transformation, then retry.
                            let producer = match ctx.cdfg.value(a).kind {
                                ValueKind::Def(p) => p,
                                _ => return false,
                            };
                            if !self.try_recompute(ctx, producer, tile, cycle) {
                                return false;
                            }
                            match self.acquire_read(ctx, a, tile, cycle) {
                                Some(s) => s,
                                None => return false,
                            }
                        }
                    };
                    OperandSource::Rf {
                        tile: src,
                        value: a,
                    }
                }
            };
        }
        if let Some(r) = op.result {
            if !self.try_add_copy(ctx, tile, r, cycle + 1) {
                return false;
            }
        }
        self.occupy(tile, cycle);
        if let Some(s) = op.writes_symbol {
            if let Some(home) = self.homes[s.0 as usize] {
                self.journal.push(UndoOp::CommitDebt {
                    old: self.commit_debt,
                });
                self.commit_debt += ctx.pre.distance(tile, home);
            }
        }
        self.push_op(OpInst::new(op_id, tile, cycle, &sources[..op.args.len()]));
        true
    }

    /// Earliest feasible cycle for `op` given its placed dependency
    /// predecessors (their first-instance cycles + 1) — O(preds) via the
    /// dense first-cycle table.
    pub fn earliest_cycle(&self, deps: &DepGraph, op: OpId) -> usize {
        deps.preds_of(op)
            .iter()
            .map(|p| match self.first_cycle[p.0 as usize] {
                u32::MAX => 0,
                c => c as usize + 1,
            })
            .max()
            .unwrap_or(0)
    }

    /// Completes the block: resolves symbol writes (direct-write elision
    /// or commit moves), fixes the final schedule length, and — when the
    /// flow is memory-aware — verifies the exact per-tile context words
    /// against the configuration. With `park`, a commit that finds no
    /// slot falls back to parking the value on a neighbour of the home
    /// (`park_and_commit`). Returns `false` when the partial cannot be
    /// completed; the state is then dirty.
    pub fn finalize(&mut self, ctx: &MapCtx<'_>, block: BlockId, park: bool) -> bool {
        let dfg = ctx.cdfg.dfg(block);
        let writes: Vec<(OpId, SymbolId, ValueId)> = dfg
            .ops()
            .filter_map(|o| {
                o.writes_symbol
                    .map(|s| (o.id, s, o.result.expect("writers have results")))
            })
            .collect();
        for (op_id, s, v) in writes {
            let home = match self.homes[s.0 as usize] {
                Some(h) => h,
                None => {
                    // First touch is a write: pin at the producer's tile.
                    let site = self
                        .ops
                        .iter()
                        .find(|po| po.op == op_id)
                        .map(|po| po.tile)
                        .expect("producer was placed");
                    match self.pin_home(ctx, s, site) {
                        Some(h) => h,
                        None => return false,
                    }
                }
            };
            let lhr = self.last_home_read[s.0 as usize] as usize;
            // Commit-move elision: a producer instance on the home tile
            // whose write happens no earlier than the last old-value read.
            if let Some(idx) = self
                .ops
                .iter()
                .position(|po| po.op == op_id && po.tile == home && po.cycle >= lhr)
            {
                self.journal
                    .push(UndoOp::ClearDirectWrite { idx: idx as u32 });
                self.ops[idx].direct_symbol_write = true;
                continue;
            }
            // Commit move on the home tile. Each trial mutates in place
            // and rolls back on failure (the pre-optimization mapper
            // cloned the whole partial per trial cycle).
            let mut committed = false;
            for c in lhr..ctx.options.max_schedule {
                if !self.slot_free(home, c) {
                    continue;
                }
                let cp = self.checkpoint();
                if let Some(src) = self.acquire_read(ctx, v, home, c) {
                    self.occupy(home, c);
                    self.journal.push(UndoOp::PopMove);
                    self.moves.push(PlacedMove {
                        value: v,
                        src_tile: src,
                        tile: home,
                        cycle: c,
                        commit_symbol: Some(s),
                    });
                    committed = true;
                    break;
                }
                self.rollback(cp);
                // Try routing the value into the home neighbourhood first.
                let cp = self.checkpoint();
                if let Some(src) = self.route_value(ctx, v, home, c) {
                    if self.slot_free(home, c) && self.try_extend_use(ctx, src, v, c) {
                        self.occupy(home, c);
                        self.journal.push(UndoOp::PopMove);
                        self.moves.push(PlacedMove {
                            value: v,
                            src_tile: src,
                            tile: home,
                            cycle: c,
                            commit_symbol: Some(s),
                        });
                        committed = true;
                        break;
                    }
                }
                self.rollback(cp);
            }
            let committed = committed || (park && self.park_and_commit(ctx, s, v, home, lhr));
            if !committed {
                return false;
            }
        }
        self.length = self.frontier.max(1);
        if ctx.options.memory_aware() {
            for t in (0..self.instr.len()).map(TileId) {
                if self.exact_words(t, self.length) > ctx.capacity(t) {
                    return false;
                }
            }
        }
        true
    }

    /// Commits `v` to symbol `s` through a neighbour `y` of its `home`: a
    /// move parks `v` on `y` at some cycle `m`, and the commit move reads
    /// it there at the first free home cycle `c ≥ max(from, m + 1)`.
    ///
    /// The regular commit search misses this when no copy of `v` can live
    /// until a free home slot — say a producer on the home whose write
    /// waits for a later read of the old value while the home's register
    /// file fills up — because [`route_value`](Partial::route_value)
    /// moves the value at the first free slot of the first neighbour it
    /// tries, even when the copy it reads is gone by then. Returns `false`
    /// with the state unchanged.
    fn park_and_commit(
        &mut self,
        ctx: &MapCtx<'_>,
        s: SymbolId,
        v: ValueId,
        home: TileId,
        from: usize,
    ) -> bool {
        let max_schedule = ctx.options.max_schedule;
        for i in 0..ctx.pre.nbr_sorted[home.0].len() {
            let y = ctx.pre.nbr_sorted[home.0][i];
            // A copy on `y` itself was already tried by the regular search.
            if (ctx.options.cab && self.blacklisted(ctx, y))
                || self.copies_of(v).any(|(t, _)| t == y)
            {
                continue;
            }
            // The latest ready cycle of a copy a move on `y` can read.
            let Some(latest) = self
                .copies_of(v)
                .filter(|&(t, _)| ctx.pre.distance(t, y) == 1)
                .map(|(_, ready)| ready as usize)
                .max()
            else {
                continue;
            };
            for m in 0..max_schedule {
                if !self.slot_free(y, m) {
                    continue;
                }
                let Some(c) = (from.max(m + 1)..max_schedule).find(|&c| self.slot_free(home, c))
                else {
                    break;
                };
                let cp = self.checkpoint();
                let Some(src) = self.acquire_read(ctx, v, y, m) else {
                    self.rollback(cp);
                    // Every copy is ready by `latest`, so past it a
                    // failed read means no copy lives until `m`, nor
                    // will it later.
                    if m >= latest {
                        break;
                    }
                    continue;
                };
                if self.try_add_copy(ctx, y, v, m + 1) && self.try_extend_use(ctx, y, v, c) {
                    for (tile, cycle, src_tile, commit_symbol) in
                        [(y, m, src, None), (home, c, y, Some(s))]
                    {
                        self.occupy(tile, cycle);
                        self.journal.push(UndoOp::PopMove);
                        self.moves.push(PlacedMove {
                            value: v,
                            src_tile,
                            tile,
                            cycle,
                            commit_symbol,
                        });
                    }
                    return true;
                }
                self.rollback(cp);
            }
        }
        false
    }

    /// Search cost: `(schedule extent, move count + commit debt)` —
    /// lexicographically
    /// smaller is better. Deliberately **context-memory unaware**, like the
    /// basic flow of the paper: the cost drives latency and routing effort
    /// only, so placements cluster around the operand sources (the
    /// load/store tiles become the hot spots of Fig 2) and the memory
    /// constraints enter exclusively through the ACMAP/ECMAP/CAB pruning
    /// steps.
    pub fn cost(&self) -> (usize, usize) {
        (self.frontier, self.moves.len() + self.commit_debt)
    }

    /// The per-op half of [`cost_floor`](Partial::cost_floor), taken on
    /// the parent state once per expansion: the op's distinct operands
    /// that only a route can bring next to a trial's tile, and the pinned
    /// home of the symbol it writes.
    pub(crate) fn floor_terms(&self, ctx: &MapCtx<'_>, op_id: OpId) -> FloorTerms {
        let op = ctx.cdfg.op(op_id);
        let mut terms = FloorTerms {
            routed: [(ValueId(0), None); MAX_ARITY],
            len: 0,
            write_home: op.writes_symbol.and_then(|s| self.homes[s.0 as usize]),
        };
        for (i, &a) in op.args.iter().enumerate() {
            if op.args[..i].contains(&a) {
                continue; // one route serves every read of a value
            }
            let home = match ctx.cdfg.value(a).kind {
                ValueKind::Const(_) => continue,
                ValueKind::SymbolUse(s) => match self.homes[s.0 as usize] {
                    Some(h) => Some(h),
                    // The trial may pin it on its own tile.
                    None => continue,
                },
                // A duplicate may be placed next to the trial's tile.
                ValueKind::Def(p) if recomputable(ctx, p) => continue,
                ValueKind::Def(_) => None,
            };
            terms.routed[terms.len] = (a, home);
            terms.len += 1;
        }
        terms
    }

    /// A lower bound on the moves + commit debt a successful trial of the
    /// op of `terms` on `tile` adds to [`cost`](Partial::cost): each
    /// routed operand whose nearest copy (a pinned symbol's home counts)
    /// is `d` hops away needs at least `d − 1` moves, and a write to a
    /// pinned symbol adds its distance to the home. The trial's frontier
    /// is exactly `max(frontier, cycle + 1)`, because moves and duplicates
    /// go before the op's cycle.
    ///
    /// Admissible because within a trial moves and debt only grow, a move
    /// goes one hop, a route ends next to the tile, and a routed value
    /// gains copies only from its own route: a symbol's home is counted
    /// and a recomputable producer is left out in
    /// [`floor_terms`](Partial::floor_terms).
    pub(crate) fn cost_floor(&self, ctx: &MapCtx<'_>, terms: &FloorTerms, tile: TileId) -> usize {
        let mut floor = terms.write_home.map_or(0, |h| ctx.pre.distance(tile, h));
        for &(v, home) in &terms.routed[..terms.len] {
            let nearest = self
                .copies_of(v)
                .map(|(t, _)| t)
                .chain(home)
                .map(|t| ctx.pre.distance(t, tile))
                .min()
                .unwrap_or(usize::MAX);
            floor = floor.saturating_add(nearest.saturating_sub(1));
        }
        floor
    }

    /// Converts the finished partial into its [`BlockMapping`].
    ///
    /// # Panics
    ///
    /// Panics if called before a successful [`finalize`](Partial::finalize).
    pub fn into_block_mapping(self) -> BlockMapping {
        assert!(self.length > 0, "finalize the partial first");
        BlockMapping {
            length: self.length,
            ops: self.ops.iter().map(OpInst::placed).collect(),
            moves: self.moves,
        }
    }

    /// Commits this partial's kernel-wide state into `state` (called for
    /// the selected winner of a block).
    pub fn commit_into(&self, state: &mut FlowState) {
        for i in 0..state.base_words.len() {
            let t = TileId(i);
            state.base_words[i] = self.exact_words(t, self.length);
            state.rf_pressure[i] = state.rf_pressure[i].max(self.max_overlap(t));
        }
        state.crf = self.crf.clone();
        state.homes = self
            .homes
            .iter()
            .enumerate()
            .filter_map(|(s, h)| h.map(|t| (SymbolId(s as u32), t)))
            .collect();
        state.persistent_count = self.persistent_count.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::MapperOptions;
    use cmam_cdfg::{CdfgBuilder, Opcode};

    fn ctx_objects() -> (Cdfg, CgraConfig, MapperOptions) {
        let mut b = CdfgBuilder::new("t");
        let bb = b.block("b");
        b.select(bb);
        let a0 = b.constant(0);
        let x = b.load_name(a0, "m");
        let y = b.op(Opcode::Add, &[x, x]);
        let a1 = b.constant(1);
        b.store(a1, y, "m");
        b.ret();
        (
            b.finish().unwrap(),
            CgraConfig::hom64(),
            MapperOptions::basic(),
        )
    }

    /// A context with no words reserved for later blocks.
    fn test_ctx<'a>(
        cdfg: &'a Cdfg,
        config: &'a CgraConfig,
        options: &'a MapperOptions,
        pre: &'a MapPre,
    ) -> MapCtx<'a> {
        MapCtx {
            cdfg,
            config,
            options,
            reserve: 0,
            pre,
        }
    }

    #[test]
    fn place_and_read_same_tile() {
        let (cdfg, config, options) = ctx_objects();
        let pre = MapPre::new(&config);
        let ctx = test_ctx(&cdfg, &config, &options, &pre);
        let state = FlowState::new(16);
        let mut p = Partial::new(&state, &ctx);
        let ops: Vec<OpId> = cdfg.dfg(cmam_cdfg::BlockId(0)).op_ids().to_vec();
        assert!(p.try_place_op(&ctx, ops[0], TileId(0), 0)); // load
        assert!(p.try_place_op(&ctx, ops[1], TileId(0), 1)); // add reads r
        assert!(p.try_place_op(&ctx, ops[2], TileId(0), 2)); // store
        assert_eq!(p.placed_moves().len(), 0);
        assert_eq!(p.frontier(), 3);
        // Occupied slots cannot be reused.
        assert!(!p.clone().try_place_op(&ctx, ops[1], TileId(0), 0));
    }

    #[test]
    fn distant_read_inserts_moves() {
        let (cdfg, config, options) = ctx_objects();
        let pre = MapPre::new(&config);
        let ctx = test_ctx(&cdfg, &config, &options, &pre);
        let state = FlowState::new(16);
        let mut p = Partial::new(&state, &ctx);
        let ops: Vec<OpId> = cdfg.dfg(cmam_cdfg::BlockId(0)).op_ids().to_vec();
        // Load at T1.
        assert!(p.try_place_op(&ctx, ops[0], TileId(0), 0));
        // Add placed on tile 10 (distance 4): needs a 3-move chain arriving
        // by cycle 4 at a neighbour of tile 10.
        assert!(p.try_place_op(&ctx, ops[1], TileId(10), 4));
        assert_eq!(p.placed_moves().len(), 3);
        // Store back on an LSU tile.
        assert!(p.try_place_op(&ctx, ops[2], TileId(6), 6));
    }

    #[test]
    fn memory_ops_rejected_on_compute_tiles() {
        let (cdfg, config, options) = ctx_objects();
        let pre = MapPre::new(&config);
        let ctx = test_ctx(&cdfg, &config, &options, &pre);
        let state = FlowState::new(16);
        let mut p = Partial::new(&state, &ctx);
        let ops: Vec<OpId> = cdfg.dfg(cmam_cdfg::BlockId(0)).op_ids().to_vec();
        assert!(!p.try_place_op(&ctx, ops[0], TileId(12), 0));
    }

    #[test]
    fn too_early_read_fails_even_with_routing() {
        let (cdfg, config, options) = ctx_objects();
        let pre = MapPre::new(&config);
        let ctx = test_ctx(&cdfg, &config, &options, &pre);
        let state = FlowState::new(16);
        let mut p = Partial::new(&state, &ctx);
        let ops: Vec<OpId> = cdfg.dfg(cmam_cdfg::BlockId(0)).op_ids().to_vec();
        assert!(p.try_place_op(&ctx, ops[0], TileId(0), 0));
        // Result ready at cycle 1; reading it at distance 4 at cycle 1 is
        // impossible (and the add is not recomputable since its operand is
        // a load result).
        assert!(!p.clone().try_place_op(&ctx, ops[1], TileId(10), 1));
    }

    #[test]
    fn words_metrics_track_runs() {
        let (cdfg, config, options) = ctx_objects();
        let pre = MapPre::new(&config);
        let ctx = test_ctx(&cdfg, &config, &options, &pre);
        let state = FlowState::new(16);
        let mut p = Partial::new(&state, &ctx);
        let ops: Vec<OpId> = cdfg.dfg(cmam_cdfg::BlockId(0)).op_ids().to_vec();
        assert!(p.try_place_op(&ctx, ops[0], TileId(0), 0));
        assert!(p.try_place_op(&ctx, ops[1], TileId(0), 3)); // gap 1-2
        let t0 = TileId(0);
        // 2 instructions + 1 interior run.
        assert_eq!(p.acmap_words(t0), 3);
        // No leading/trailing at frontier 4... interior only.
        assert_eq!(p.ecmap_words(t0), 3);
        // An idle tile costs one leading run under ECMAP but zero under
        // ACMAP.
        let t5 = TileId(5);
        assert_eq!(p.acmap_words(t5), 0);
        assert_eq!(p.ecmap_words(t5), 1);
        let _ = ctx;
    }

    #[test]
    fn symbol_write_elision_and_commit() {
        // Block reading and writing symbol i: i2 = i + 1.
        let mut b = CdfgBuilder::new("sym");
        let bb = b.block("b");
        let s = b.symbol("i");
        b.select(bb);
        let iv = b.use_symbol(s);
        let one = b.constant(1);
        let i2 = b.op(Opcode::Add, &[iv, one]);
        b.write_symbol(i2, s);
        b.ret();
        let cdfg = b.finish().unwrap();
        let config = CgraConfig::hom64();
        let options = MapperOptions::basic();
        let pre = MapPre::new(&config);
        let ctx = test_ctx(&cdfg, &config, &options, &pre);
        let state = FlowState::new(16);
        let mut p = Partial::new(&state, &ctx);
        let ops: Vec<OpId> = cdfg.dfg(bb).op_ids().to_vec();
        // Place the add on tile 3: the unpinned symbol gets pinned there.
        assert!(p.try_place_op(&ctx, ops[0], TileId(3), 0));
        assert_eq!(p.home_of(s), Some(TileId(3)));
        assert!(p.finalize(&ctx, bb, false));
        // Producer sits on the home tile: the write is elided into a
        // direct write, no commit move.
        let bm = p.into_block_mapping();
        assert_eq!(bm.moves.len(), 0);
        assert!(bm.ops.iter().any(|o| o.direct_symbol_write));
    }

    #[test]
    fn commit_move_inserted_when_producer_far_from_home() {
        let mut b = CdfgBuilder::new("sym2");
        let bb = b.block("b");
        let s = b.symbol("x");
        b.select(bb);
        let xv = b.use_symbol(s);
        let one = b.constant(1);
        let x2 = b.op(Opcode::Add, &[xv, one]);
        b.write_symbol(x2, s);
        b.ret();
        let cdfg = b.finish().unwrap();
        let config = CgraConfig::hom64();
        let options = MapperOptions::basic();
        let pre = MapPre::new(&config);
        let ctx = test_ctx(&cdfg, &config, &options, &pre);
        let mut state = FlowState::new(16);
        // Pre-pin the home far from where we will place the producer.
        state.homes.insert(s, TileId(0));
        state.persistent_count[0] = 1;
        let mut p = Partial::new(&state, &ctx);
        let ops: Vec<OpId> = cdfg.dfg(bb).op_ids().to_vec();
        // Producer on tile 10 (distance 4 from home 0); reading the symbol
        // from home needs moves, and committing back needs more.
        assert!(p.try_place_op(&ctx, ops[0], TileId(10), 4));
        assert!(p.finalize(&ctx, bb, false));
        let bm = p.into_block_mapping();
        let commit = bm
            .moves
            .iter()
            .filter(|m| m.commit_symbol == Some(s))
            .count();
        assert_eq!(commit, 1);
        assert!(bm.moves.len() >= 4, "read route + commit route");
        assert!(!bm.ops.iter().any(|o| o.direct_symbol_write));
    }

    #[test]
    fn ecmap_is_lower_bound_of_final_words() {
        let (cdfg, config, options) = ctx_objects();
        let pre = MapPre::new(&config);
        let ctx = test_ctx(&cdfg, &config, &options, &pre);
        let state = FlowState::new(16);
        let mut p = Partial::new(&state, &ctx);
        let ops: Vec<OpId> = cdfg.dfg(cmam_cdfg::BlockId(0)).op_ids().to_vec();
        assert!(p.try_place_op(&ctx, ops[0], TileId(0), 0));
        let before: Vec<usize> = (0..16).map(|i| p.ecmap_words(TileId(i))).collect();
        assert!(p.try_place_op(&ctx, ops[1], TileId(1), 3));
        assert!(p.try_place_op(&ctx, ops[2], TileId(1), 5));
        assert!(p.finalize(&ctx, cmam_cdfg::BlockId(0), false));
        for (i, &words) in before.iter().enumerate() {
            let t = TileId(i);
            assert!(
                words <= p.exact_words(t, p.length()),
                "tile {t}: {words} > {}",
                p.exact_words(t, p.length())
            );
        }
    }

    /// Checks the arena's links: each value's list runs from its first
    /// to its last slot in ascending (insertion) order, a value without
    /// copies has `NIL` for both, and the lists cover every arena slot
    /// exactly once.
    fn assert_arena_links(p: &Partial) {
        let mut seen = vec![false; p.copies.len()];
        for v in 0..p.first_copy.len() {
            let (mut at, mut last) = (p.first_copy[v], NIL);
            while at != NIL {
                assert!(
                    last == NIL || at > last,
                    "value {v}: slot {at} after {last}"
                );
                assert!(!std::mem::replace(&mut seen[at as usize], true));
                last = at;
                at = p.copies[at as usize].next;
            }
            assert_eq!(p.last_copy[v], last, "last slot of value {v}");
        }
        assert!(seen.iter().all(|&s| s), "an arena slot is in no list");
    }

    /// Compares every semantic field (everything but journal/scratch).
    fn assert_semantically_equal(a: &Partial, b: &Partial) {
        assert_arena_links(a);
        assert_arena_links(b);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.moves, b.moves);
        assert_eq!(a.occ_bits, b.occ_bits);
        assert_eq!(a.instr, b.instr);
        assert_eq!(a.interior, b.interior);
        assert_eq!(a.occ_min, b.occ_min);
        assert_eq!(a.occ_max, b.occ_max);
        assert_eq!(a.frontier, b.frontier);
        assert_eq!(a.first_copy.len(), b.first_copy.len());
        for v in (0..a.first_copy.len() as u32).map(ValueId) {
            assert_eq!(
                a.copies_of(v).collect::<Vec<_>>(),
                b.copies_of(v).collect::<Vec<_>>(),
                "copies of {v:?}"
            );
        }
        assert_eq!(a.intervals, b.intervals);
        assert_eq!(a.rf_count, b.rf_count);
        assert_eq!(a.rf_peak, b.rf_peak);
        assert_eq!(a.crf, b.crf);
        assert_eq!(a.homes, b.homes);
        assert_eq!(a.persistent_count, b.persistent_count);
        assert_eq!(a.last_home_read, b.last_home_read);
        assert_eq!(a.commit_debt, b.commit_debt);
        assert_eq!(a.first_cycle, b.first_cycle);
    }

    #[test]
    fn rollback_restores_the_exact_pre_trial_state() {
        let (cdfg, config, options) = ctx_objects();
        let pre = MapPre::new(&config);
        let ctx = test_ctx(&cdfg, &config, &options, &pre);
        let state = FlowState::new(16);
        let mut p = Partial::new(&state, &ctx);
        let ops: Vec<OpId> = cdfg.dfg(cmam_cdfg::BlockId(0)).op_ids().to_vec();
        assert!(p.try_place_op(&ctx, ops[0], TileId(0), 0));
        p.clear_journal();

        let snapshot = p.clone();
        // A successful trial with routing (mutates heavily), rolled back.
        let cp = p.checkpoint();
        assert!(p.try_place_op(&ctx, ops[1], TileId(10), 4));
        assert!(p.dirty_since(cp));
        p.rollback(cp);
        assert_semantically_equal(&p, &snapshot);

        // A failing trial (leaves residue), rolled back.
        let cp = p.checkpoint();
        assert!(!p.try_place_op(&ctx, ops[1], TileId(10), 1));
        p.rollback(cp);
        assert_semantically_equal(&p, &snapshot);

        // After rollback the original bindings must still work, and the
        // partial must finish exactly as an untouched one would.
        assert!(p.try_place_op(&ctx, ops[1], TileId(0), 1));
        assert!(p.try_place_op(&ctx, ops[2], TileId(0), 2));
        assert!(p.finalize(&ctx, cmam_cdfg::BlockId(0), false));
    }

    #[test]
    fn a_rolled_back_trial_undoes_every_kind_of_copy_record() {
        // `y = select(i, x, k)` on tile 10 at cycle 5: the unpinned symbol
        // `i` gets a home and a seeded copy there (`PopAvail`); the load
        // result `x` sits on tile 0, four hops away, so it is routed
        // (`PopCopy` per move); `k = 3 + 5` is already on tile 10 but only
        // from cycle 7, too late, so a duplicate is recomputed there at
        // cycle 0, widening k's interval on tile 10 (`AvailReady`).
        // `try_place_op` checks no dependencies, which lets the test put
        // k's original after its reader.
        let mut b = CdfgBuilder::new("copies");
        let bb = b.block("b");
        let s = b.symbol("i");
        b.select(bb);
        let a0 = b.constant(0);
        let x = b.load_name(a0, "m");
        let c3 = b.constant(3);
        let c5 = b.constant(5);
        let k = b.op(Opcode::Add, &[c3, c5]);
        let iv = b.use_symbol(s);
        let y = b.op(Opcode::Select, &[iv, x, k]);
        let a1 = b.constant(1);
        b.store(a1, y, "m");
        b.ret();
        let cdfg = b.finish().unwrap();
        let (config, options) = (CgraConfig::hom64(), MapperOptions::basic());
        let pre = MapPre::new(&config);
        let ctx = test_ctx(&cdfg, &config, &options, &pre);
        let ops: Vec<OpId> = cdfg.dfg(bb).op_ids().to_vec();
        let mut p = Partial::new(&FlowState::new(16), &ctx);
        assert!(p.try_place_op(&ctx, ops[0], TileId(0), 0)); // x
        assert!(p.try_place_op(&ctx, ops[1], TileId(10), 6)); // k
        p.clear_journal();
        let snapshot = p.clone();

        let cp = p.checkpoint();
        assert!(p.try_place_op(&ctx, ops[2], TileId(10), 5));
        let hits = |kind: fn(&UndoOp) -> bool| p.journal[cp..].iter().filter(|e| kind(e)).count();
        assert_eq!(hits(|e| matches!(e, UndoOp::PopAvail { .. })), 1);
        assert!(
            hits(|e| matches!(e, UndoOp::PopCopy { .. })) >= 3,
            "a routed chain"
        );
        assert_eq!(hits(|e| matches!(e, UndoOp::AvailReady { .. })), 1);
        assert_eq!(p.home_of(s), Some(TileId(10)));
        let k_copies: Vec<_> = p.copies_of(k).collect();
        assert_eq!(k_copies, [(TileId(10), 1)], "k widened in place");
        p.rollback(cp);
        assert_semantically_equal(&p, &snapshot);
        assert_eq!(p.copies.len(), snapshot.copies.len());

        // A different trial reuses the rolled-back arena slots for other
        // values' copies, so a link the rollback left dangling would now
        // splice them into x's or k's list.
        let mut untouched = snapshot.clone();
        for q in [&mut p, &mut untouched] {
            assert!(q.try_place_op(&ctx, ops[2], TileId(1), 7));
        }
        assert_semantically_equal(&p, &untouched);
    }

    #[test]
    fn clone_from_a_larger_recycled_partial_equals_a_fresh_clone() {
        let (cdfg, config, options) = ctx_objects();
        let pre = MapPre::new(&config);
        let ctx = test_ctx(&cdfg, &config, &options, &pre);
        let ops: Vec<OpId> = cdfg.dfg(cmam_cdfg::BlockId(0)).op_ids().to_vec();
        let state = FlowState::new(16);
        // The source: the load alone. The recycled partial: the whole
        // block, with a routed add, so it holds more ops, copies and
        // intervals and RF counts at higher cycles.
        let mut src = Partial::new(&state, &ctx);
        assert!(src.try_place_op(&ctx, ops[0], TileId(0), 0));
        src.clear_journal();
        let mut recycled = Partial::new(&state, &ctx);
        assert!(recycled.try_place_op(&ctx, ops[0], TileId(0), 0));
        assert!(recycled.try_place_op(&ctx, ops[1], TileId(10), 4));
        assert!(recycled.try_place_op(&ctx, ops[2], TileId(6), 6));
        let intervals = |p: &Partial| p.intervals.iter().map(Vec::len).sum::<usize>();
        assert!(recycled.ops.len() > src.ops.len());
        assert!(recycled.copies.len() > src.copies.len());
        assert!(intervals(&recycled) > intervals(&src));
        assert!(recycled.rf_hi > src.rf_hi);

        recycled.clone_from(&src);
        let mut fresh = src.clone();
        assert_semantically_equal(&recycled, &fresh);
        // The same next trial: a routed read of the load's result.
        for p in [&mut recycled, &mut fresh] {
            assert!(p.try_place_op(&ctx, ops[1], TileId(10), 4));
        }
        assert_semantically_equal(&recycled, &fresh);
        for p in [&mut recycled, &mut fresh] {
            assert!(p.try_place_op(&ctx, ops[2], TileId(6), 6));
            assert!(p.finalize(&ctx, cmam_cdfg::BlockId(0), false));
        }
        assert_eq!(recycled.into_block_mapping(), fresh.into_block_mapping());
    }

    #[test]
    fn a_full_idle_tile_fails_ecmap_once_the_block_starts() {
        // Tile 5 is idle in this block but its context memory is already
        // full: at frontier 0 it passes ECMAP, and any placement elsewhere
        // gives it a leading idle run, one word too many.
        let (cdfg, _, _) = ctx_objects();
        let config = CgraConfig::builder(4, 4).uniform_cm(16).build().unwrap();
        let options = MapperOptions::context_aware();
        let pre = MapPre::new(&config);
        let ctx = test_ctx(&cdfg, &config, &options, &pre);
        let mut state = FlowState::new(16);
        state.base_words[5] = 16;
        let mut p = Partial::new(&state, &ctx);
        let ops: Vec<OpId> = cdfg.dfg(cmam_cdfg::BlockId(0)).op_ids().to_vec();
        let base = p.verdict_base(&ctx);
        let cp = p.checkpoint();
        assert!(p.try_place_op(&ctx, ops[0], TileId(0), 0));
        assert_eq!(p.child_verdicts(&ctx, &base, cp), (true, false));
        assert_eq!(crate::prune::ecmap_filter(&mut vec![p.clone()], &ctx), 1);
    }

    #[test]
    fn incremental_run_counters_match_a_rescan() {
        let (cdfg, config, options) = ctx_objects();
        let pre = MapPre::new(&config);
        let ctx = test_ctx(&cdfg, &config, &options, &pre);
        let state = FlowState::new(16);
        let mut p = Partial::new(&state, &ctx);
        // Occupy a scattered pattern on one tile and check the counters
        // against a from-scratch recount at every step.
        let t = TileId(2);
        for &c in &[7usize, 2, 9, 3, 15, 0, 8] {
            p.occupy(t, c);
            let occ: Vec<usize> = (0..p.max_schedule)
                .filter(|&c| !p.slot_free(t, c))
                .collect();
            let interior = occ.windows(2).filter(|w| w[1] - w[0] > 1).count();
            assert_eq!(p.interior[t.0] as usize, interior, "after cycle {c}");
            assert_eq!(p.occ_min[t.0] as usize, *occ.first().unwrap());
            assert_eq!(p.occ_max[t.0] as usize, *occ.last().unwrap());
            assert_eq!(p.instr_count(t), occ.len());
        }
        // exact_words against the definition: instr + idle runs.
        // occ = {0,2,3,7,8,9,15}: gaps 3->7 and 9->15 are interior runs,
        // plus the single-cycle gap at 1.
        assert_eq!(p.interior[t.0], 3);
        assert_eq!(p.exact_words(t, 16), 7 + 3);
        assert_eq!(p.exact_words(t, 20), 7 + 3 + 1); // trailing run
    }
}
