//! Pruning of the partial-mapping population.
//!
//! Three filters, applied in the paper's order after every binding round:
//!
//! 1. [`acmap_filter`] — approximate context-memory aware pruning
//!    (Section III-D.2), cheap but approximate;
//! 2. [`ecmap_filter`] — exact context-memory aware pruning
//!    (Section III-D.3) on the exact lower bound of each tile's context
//!    words;
//! 3. [`stochastic_prune`] — the basic flow's stochastic pruning: keeps
//!    an elite by cost, fills the rest of the population by seeded random
//!    sampling below a cost threshold.

use crate::partial::{MapCtx, Partial};
use rand::rngs::StdRng;
use rand::RngExt;

// The flow driver itself evaluates the ACMAP/ECMAP verdicts per
// candidate while the trial delta is applied (see `flow.rs`); the filter
// functions below remain the reference formulation over materialised
// partials (and are what the filter unit tests exercise).

/// Drops partials whose ACMAP word estimate exceeds any tile's context
/// memory. Returns the number of dropped partials.
pub fn acmap_filter(pool: &mut Vec<Partial>, ctx: &MapCtx<'_>) -> usize {
    let before = pool.len();
    pool.retain(|p| {
        ctx.config
            .geometry()
            .tiles()
            .all(|t| ctx.fits(t, p.acmap_words(t)))
    });
    before - pool.len()
}

/// Drops partials whose exact context-word lower bound exceeds any tile's
/// context memory. Returns the number of dropped partials.
pub fn ecmap_filter(pool: &mut Vec<Partial>, ctx: &MapCtx<'_>) -> usize {
    let before = pool.len();
    pool.retain(|p| {
        ctx.config
            .geometry()
            .tiles()
            .all(|t| ctx.fits(t, p.ecmap_words(t)))
    });
    before - pool.len()
}

/// The basic flow's stochastic pruning. Sorts the pool by cost, always
/// keeps the best `cap / 2` (the elite), and fills the remaining
/// population by uniform random sampling (seeded, deterministic) from the
/// partials below the cost threshold set by rank `4 * cap`.
///
/// Returns the surviving population (at most `cap` partials).
pub fn stochastic_prune(pool: Vec<Partial>, cap: usize, rng: &mut StdRng) -> Vec<Partial> {
    stochastic_prune_by(pool, cap, rng, Partial::cost)
}

/// [`stochastic_prune`] generalised over the pruned element type.
///
/// The mapper's clone-free candidate expansion prunes lightweight
/// *candidate descriptors* (parent index + placement + cached cost)
/// instead of materialised [`Partial`]s; because the sort is stable and
/// the RNG consumption depends only on pool length and order, pruning
/// descriptors selects exactly the candidates pruning partials would.
pub fn stochastic_prune_by<T, K, F>(
    mut pool: Vec<T>,
    cap: usize,
    rng: &mut StdRng,
    cost: F,
) -> Vec<T>
where
    K: Ord,
    F: Fn(&T) -> K,
{
    assert!(cap > 0, "population cap must be positive");
    pool.sort_by_key(&cost);
    if pool.len() <= cap {
        return pool;
    }
    // Threshold function: everything ranked worse than 4*cap is discarded
    // outright; the elite survives; the middle is sampled.
    pool.truncate(4 * cap);
    let elite = cap / 2;
    let mut survivors: Vec<T> = Vec::with_capacity(cap);
    let mut rest: Vec<T> = Vec::new();
    for (i, p) in pool.into_iter().enumerate() {
        if i < elite {
            survivors.push(p);
        } else {
            rest.push(p);
        }
    }
    // Reservoir-style sampling of the remaining slots.
    let slots = cap - survivors.len();
    let mut chosen: Vec<T> = Vec::with_capacity(slots);
    for (i, p) in rest.into_iter().enumerate() {
        if chosen.len() < slots {
            chosen.push(p);
        } else {
            let j = rng.random_range(0..=i);
            if j < slots {
                chosen[j] = p;
            }
        }
    }
    survivors.extend(chosen);
    survivors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::MapperOptions;
    use crate::partial::FlowState;
    use cmam_arch::{CgraConfig, TileId};
    use cmam_cdfg::{CdfgBuilder, Opcode};
    use rand::SeedableRng;

    fn make_pool(n: usize) -> (Vec<Partial>, cmam_cdfg::Cdfg, CgraConfig, MapperOptions) {
        let mut b = CdfgBuilder::new("t");
        let bb = b.block("b");
        b.select(bb);
        let c1 = b.constant(1);
        let c2 = b.constant(2);
        let v = b.op(Opcode::Add, &[c1, c2]);
        let a = b.constant(0);
        b.store(a, v, "m");
        b.ret();
        let cdfg = b.finish().unwrap();
        let config = CgraConfig::hom64();
        let options = MapperOptions::basic();
        let state = FlowState::new(16);
        let mut pool = Vec::new();
        {
            let pre = crate::partial::MapPre::new(&config);
            let ctx = MapCtx {
                cdfg: &cdfg,
                config: &config,
                options: &options,
                reserve: 0,
                pre: &pre,
            };
            let ops: Vec<_> = cdfg.dfg(bb).op_ids().to_vec();
            for i in 0..n {
                let mut p = Partial::new(&state, &ctx);
                // Spread over different cycles to vary cost.
                assert!(p.try_place_op(&ctx, ops[0], TileId(8 + (i % 8)), i % 5));
                pool.push(p);
            }
        }
        (pool, cdfg, config, options)
    }

    #[test]
    fn stochastic_prune_caps_population_and_keeps_elite() {
        let (pool, _c, _g, _o) = make_pool(100);
        let best_cost = pool.iter().map(Partial::cost).min().unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let out = stochastic_prune(pool, 10, &mut rng);
        assert_eq!(out.len(), 10);
        assert_eq!(out[0].cost(), best_cost);
        // Elite is sorted by cost at the front.
        for w in out[..5].windows(2) {
            assert!(w[0].cost() <= w[1].cost());
        }
    }

    #[test]
    fn stochastic_prune_is_deterministic_for_a_seed() {
        let (pool, _c, _g, _o) = make_pool(60);
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        let a = stochastic_prune(pool.clone(), 8, &mut r1);
        let b = stochastic_prune(pool, 8, &mut r2);
        let ca: Vec<_> = a.iter().map(Partial::cost).collect();
        let cb: Vec<_> = b.iter().map(Partial::cost).collect();
        assert_eq!(ca, cb);
    }

    #[test]
    fn small_pools_pass_through() {
        let (pool, _c, _g, _o) = make_pool(5);
        let mut rng = StdRng::seed_from_u64(1);
        let out = stochastic_prune(pool, 10, &mut rng);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn memory_filters_drop_overfull_partials() {
        let (pool, cdfg, _config, options) = make_pool(6);
        // A 1-word CM per tile makes everything infeasible under ECMAP
        // (every tile pays at least one word).
        let tiny = CgraConfig::builder(4, 4).uniform_cm(1).build().unwrap();
        let pre = crate::partial::MapPre::new(&tiny);
        let ctx = MapCtx {
            cdfg: &cdfg,
            config: &tiny,
            options: &options,
            reserve: 0,
            pre: &pre,
        };
        // Placements at cycle 0 fit (one instruction, no idle run); every
        // placement at a later cycle also needs a leading pnop -> 2 words.
        // The pool cycles are i % 5 for i in 0..6: cycles 1..=4 overflow.
        let mut p2 = pool.clone();
        let dropped = ecmap_filter(&mut p2, &ctx);
        assert_eq!(dropped, 4);
        // ACMAP (interior runs only) is weaker: a single placed op with no
        // interior gap still passes a 1-word CM.
        let mut p3 = pool.clone();
        let dropped_a = acmap_filter(&mut p3, &ctx);
        assert!(dropped_a <= dropped);
    }
}
