//! Successive-halving DSE search over (configuration × kernel) jobs.
//!
//! [`run_search`] explores a configuration space against a kernel mix
//! without fully evaluating every configuration. Two elimination rules
//! drive the savings. The *sound* one exploits the fact that both
//! objectives — total mix energy and total mix cycles — are sums over
//! kernels, so the partial sums over any evaluated kernel subset are
//! component-wise **lower bounds** on the full values: a
//! partially-evaluated configuration whose lower bounds are already
//! matched-or-beaten in both objectives by a *completed* feasible
//! configuration can never reach the frontier (every remaining kernel
//! adds strictly positive energy and cycles) and is eliminated without
//! spending its remaining evaluations. The *racing* rule (rule 4 below)
//! is a prefix-dominance heuristic that does the heavy lifting on wide
//! spaces; it is validated rather than proved — see its entry.
//!
//! The schedule is successive halving / racing, tuned by two empirical
//! facts about CGRA provisioning spaces: mix cycles depend almost
//! entirely on the array *shape* (configurations differing only in
//! memory provisioning land within a percent of each other, often on
//! exactly the same count), while energy spreads by multiples; and on a
//! generated space more than half the configurations are infeasible,
//! usually failing one or two specific kernels.
//!
//! 1. **Probe**: a stratified sample of configurations (every
//!    `space/divisor`-th, at least four) is fully evaluated up front.
//!    Completed probes become racing/domination eliminators spread
//!    across the provisioning spectrum, and each probe failure counts
//!    against the kernel that caused it — a per-kernel *lethality*
//!    census.
//! 2. **Rungs in lethality order**: the budget is evaluations, not
//!    wall-clock, so the remaining kernels run most-lethal-first (ties:
//!    cheapest by CDFG op count). Infeasible configurations — the bulk
//!    of a generated space — die after one or two evaluations instead
//!    of surviving to whichever late kernel they fail.
//! 3. **Signature groups and representative promotion**: after each
//!    rung the live configurations are grouped by their *prefix cycle
//!    signature* — the exact vector of per-kernel cycle counts over the
//!    evaluated prefix. Cycles are structural: configurations sharing
//!    an array shape produce identical per-kernel counts, so once the
//!    prefix is two kernels deep a signature all but names a shape
//!    class, and the full-mix cycles of every member of a group land on
//!    the same total. Each group lacking a completed member *promotes*
//!    its cheapest pending member (minimum prefix energy, ties by
//!    index), the engine's content-addressed cache answering the
//!    already-evaluated prefix warm. Promotion is *screened*: the
//!    remaining kernels with a recorded kill run first, and only a
//!    representative surviving them gets the rest of the mix — the
//!    cheapest member of a group is its least provisioned, so an
//!    infeasible representative dies within the lethal chunk instead
//!    of paying for the full remainder. The completed representatives
//!    are exactly the per-shape frontier candidates: the number of
//!    full evaluations scales with the number of shape classes, not
//!    with the space size.
//! 4. **Racing**: from the second rung on (one-kernel signatures still
//!    alias distinct shapes), a pending configuration is raced out by
//!    completed configurations only — they are proven feasible and
//!    never eliminated themselves, so a raced configuration always
//!    lost to a surviving full evaluation. Two forms:
//!    - *Projection through the group representative*: a pending
//!      member of a group with a completed representative inherits the
//!      representative's full cycle count, and its full energy is
//!      projected by scaling the representative's full energy by the
//!      ratio of prefix energies (energy is near-proportional across
//!      kernels within a shape). The configuration is raced when some
//!      completed configuration beats the projected point with a 10%
//!      energy margin to spare. With the representative itself as the
//!      eliminator this reduces to a margined prefix-energy comparison,
//!      killing same-shape memory-provisioning duds after one or two
//!      kernels.
//!    - *Floor projection for representative-less groups*: direct
//!      cross-shape prefix comparison is noisy (prefix ratios drift a
//!      few percent from full-mix ratios), so a configuration whose
//!      group has no completed member gets an *optimistic* full-mix
//!      point instead: its prefix sums plus, for every unevaluated
//!      kernel, the component-wise minimum energy and cycles any
//!      completed configuration spent on that kernel, scaled down by a
//!      further safety slack. Only a completed configuration that
//!      dominates even this best-case projection — with the energy
//!      margin to spare — races it out. This prunes hopeless shapes
//!      without ever completing them, while a shape whose strength is
//!      cycles keeps a projected cycle total no eliminator can reach.
//!
//!    Racing is a heuristic: prefix dominance does not *prove*
//!    full-mix dominance. It is empirically exact on the validation
//!    space (asserted by tests and gated in CI), and on generated
//!    spaces the benchmark reports frontier quality rather than
//!    assuming it. Racing is always on: a provably exact (but far less
//!    frugal) search is rules 5 and 6 alone.
//! 5. The sound backstop described above: lower-bound domination
//!    against completed feasible configurations.
//! 6. Configurations failing any kernel are closed out as infeasible
//!    on the spot.
//!
//! Jobs are ordinary full-fidelity [`JobRequest::flow`] jobs — no
//! reduced-effort proxies — so every scheduled evaluation shares its
//! cache key with the exhaustive sweep. That gives resumability for
//! free: a killed run restarted with the same seed replays the same
//! schedule, and every already-finished job is a disk hit instead of an
//! execution (see [`SearchOptions::max_jobs`], which exists to simulate
//! the kill in tests).

use crate::job::{JobRequest, RunOutcome};
use crate::{Engine, EngineStats};
use cmam_arch::CgraConfig;
use cmam_core::FlowVariant;
use cmam_kernels::KernelSpec;

/// Callback scoring one successful run: `(config_index, kernel_index,
/// outcome) -> energy`. Kernel indices refer to the caller's spec slice
/// (not rung order). The returned energy **must be strictly positive**
/// for every successful run — the lower-bound elimination rule is only
/// sound when every remaining kernel strictly increases the objective.
/// (The engine crate has no energy model of its own; `cmam_bench`
/// injects the paper's.)
pub type EnergyFn<'a> = dyn Fn(usize, usize, &RunOutcome) -> f64 + 'a;

/// Search knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchOptions {
    /// Abort after scheduling this many jobs (counting cache hits).
    /// `None` runs to completion. This simulates a killed sweep: the
    /// resume tests restart an aborted search over the same artifact
    /// store and assert zero re-execution.
    pub max_jobs: Option<usize>,
}

/// Probe size as a fraction of the space: probe `space / 16` configs up
/// front (floored at [`MIN_PROBES`]). Small enough that probing stays
/// within the evaluation budget, large enough to seed eliminators across
/// the provisioning spectrum and a usable lethality census.
const PROBE_DIVISOR: usize = 16;

/// Probe at least this many configurations regardless of space size.
const MIN_PROBES: usize = 4;

/// Relative energy margin for racing: the eliminator must beat the
/// victim's projected energy by at least this fraction.
const RACE_MARGIN_ENERGY: f64 = 0.10;

/// Safety slack on the floor projection for representative-less groups
/// (rule 4 in the module docs): every unevaluated kernel's contribution
/// is taken as the cheapest any completed configuration paid for it,
/// scaled down by this fraction — the projection must stay optimistic
/// for the racing decision to be safe.
const PROJECTION_SLACK: f64 = 0.10;

/// Why a configuration stopped being evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigStatus {
    /// Still pending when the search aborted (`max_jobs`).
    Pending,
    /// Every kernel evaluated and mapped; full sums are exact.
    Completed,
    /// Some kernel failed to compile or simulate (original index given);
    /// the configuration cannot run the mix.
    Infeasible(usize),
    /// Lower-bound dominated by a completed feasible configuration
    /// after evaluating this many kernels; provably off the frontier.
    Dominated(usize),
    /// Raced out: partial-prefix dominated by another surviving
    /// configuration after evaluating this many kernels. Heuristic
    /// (see the module docs), unlike [`ConfigStatus::Dominated`].
    Raced(usize),
}

/// Per-configuration search outcome.
#[derive(Debug, Clone)]
pub struct ConfigEval {
    /// Index into the caller's configuration slice.
    pub config_index: usize,
    /// Terminal status.
    pub status: ConfigStatus,
    /// Per-kernel `(energy, cycles)` for evaluated kernels, indexed by
    /// the caller's kernel order; `None` where never evaluated.
    pub per_kernel: Vec<Option<(f64, u64)>>,
    /// Sum of evaluated kernel energies, added in kernel index order —
    /// exact for `Completed`, a lower bound otherwise.
    pub energy: f64,
    /// Sum of evaluated kernel cycle counts (same caveat).
    pub cycles: u64,
    /// How many kernels were evaluated (successfully or not).
    pub kernels_evaluated: usize,
}

/// Aggregate counters for one [`run_search`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchStats {
    /// (config, kernel) jobs scheduled, including cache hits.
    pub jobs_scheduled: usize,
    /// Rungs processed (≤ kernel count).
    pub rungs: usize,
    /// Configurations fully evaluated up front as probes.
    pub probed: usize,
    /// Configurations promoted to full evaluation.
    pub promoted: usize,
    /// Configurations eliminated by lower-bound domination.
    pub dominated: usize,
    /// Configurations eliminated by racing (prefix dominance).
    pub raced: usize,
    /// Configurations eliminated as infeasible.
    pub infeasible: usize,
    /// Engine counter deltas over the search (cache behaviour).
    pub engine: EngineStats,
}

/// The result of a (possibly aborted) search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// One entry per configuration, in the caller's order.
    pub evaluated: Vec<ConfigEval>,
    /// Configuration indices on the exact Pareto frontier (ascending).
    /// Empty if the search aborted before completing.
    pub frontier: Vec<usize>,
    /// Aggregate counters.
    pub stats: SearchStats,
    /// True when `max_jobs` stopped the search early.
    pub aborted: bool,
}

/// `a` dominates `b` in the (energy, cycles) plane — same predicate as
/// the exhaustive sweep in `dse_pareto`.
pub fn dominates(a: (f64, u64), b: (f64, u64)) -> bool {
    a.0 <= b.0 && a.1 <= b.1 && (a.0 < b.0 || a.1 < b.1)
}

/// Exact Pareto frontier over `(index, energy, cycles)` points:
/// members not dominated by any other point, ascending by index.
pub fn pareto_frontier(points: &[(usize, f64, u64)]) -> Vec<usize> {
    points
        .iter()
        .filter(|&&(_, e, c)| {
            !points
                .iter()
                .any(|&(_, oe, oc)| dominates((oe, oc), (e, c)))
        })
        .map(|&(i, _, _)| i)
        .collect()
}

struct ConfigState {
    per_kernel: Vec<Option<(f64, u64)>>,
    status: ConfigStatus,
    /// Kernels evaluated so far (counted in rung order).
    evaluated: usize,
}

impl ConfigState {
    /// Partial (or full) sums, added in original kernel index order so
    /// completed totals are bit-identical to an exhaustive sweep's.
    fn sums(&self) -> (f64, u64) {
        let mut e = 0.0;
        let mut c = 0u64;
        for v in self.per_kernel.iter().flatten() {
            e += v.0;
            c += v.1;
        }
        (e, c)
    }
}

/// Runs the successive-halving search. See the module docs for the
/// algorithm and its exactness argument.
///
/// Deterministic at any engine thread count: scheduling decisions
/// depend only on job results (themselves deterministic) with all ties
/// broken by configuration index.
pub fn run_search(
    engine: &Engine,
    specs: &[KernelSpec],
    configs: &[CgraConfig],
    variant: FlowVariant,
    energy_of: &EnergyFn<'_>,
    options: &SearchOptions,
) -> SearchResult {
    let _span = cmam_obs::span!("dse_search");
    let nk = specs.len();
    let stats_before = engine.stats();

    // Provisional rung order (re-sorted by lethality after the probe).
    let mut rung_order: Vec<usize> = (0..nk).collect();

    let mut states: Vec<ConfigState> = configs
        .iter()
        .map(|_| ConfigState {
            per_kernel: vec![None; nk],
            status: ConfigStatus::Pending,
            evaluated: 0,
        })
        .collect();
    let mut stats = SearchStats::default();
    let mut aborted = false;

    // Runs `(config, kernel)` jobs through the engine, honouring the
    // `max_jobs` abort budget, and folds results into the states;
    // every failure counts against its kernel in the lethality census.
    // Returns false when the budget ran out (search must stop).
    let run_jobs = |jobs: &mut Vec<(usize, usize)>,
                    states: &mut Vec<ConfigState>,
                    stats: &mut SearchStats,
                    deaths: &mut [u64]|
     -> bool {
        let mut fits = true;
        if let Some(max) = options.max_jobs {
            let room = max.saturating_sub(stats.jobs_scheduled);
            if jobs.len() > room {
                jobs.truncate(room);
                fits = false;
            }
        }
        if !jobs.is_empty() {
            let requests: Vec<JobRequest<'_>> = jobs
                .iter()
                .map(|&(ci, ki)| JobRequest::flow(&specs[ki], variant, &configs[ci]))
                .collect();
            let results = engine.run_batch(&requests);
            stats.jobs_scheduled += jobs.len();
            for (&(ci, ki), result) in jobs.iter().zip(&results) {
                let st = &mut states[ci];
                st.evaluated += 1;
                match result {
                    Ok(out) => {
                        st.per_kernel[ki] = Some((energy_of(ci, ki, out), out.cycles));
                    }
                    Err(_) => {
                        deaths[ki] += 1;
                        if st.status == ConfigStatus::Pending {
                            st.status = ConfigStatus::Infeasible(ki);
                            stats.infeasible += 1;
                        }
                    }
                }
            }
        }
        fits
    };

    let mut deaths = vec![0u64; nk];

    // Probe: a stratified sample of configurations, fully evaluated.
    // Completed probes seed the eliminator pool across the provisioning
    // spectrum; probe failures build the lethality census that orders
    // the rungs.
    let probe_n = (configs.len() / PROBE_DIVISOR)
        .max(MIN_PROBES)
        .min(configs.len());
    let stride = (configs.len() / probe_n).max(1);
    let probes: Vec<usize> = (0..probe_n).map(|i| i * stride).collect();
    stats.probed = probes.len();
    // Probes run their kernels biggest-first, each probe stopping at
    // its first failure: infeasibility concentrates in the demanding
    // kernels, so an infeasible probe dies within a job or two —
    // crediting the census with the real killer — instead of paying
    // for the full mix.
    let mut probe_order: Vec<usize> = (0..nk).collect();
    probe_order.sort_by_key(|&k| (std::cmp::Reverse(specs[k].cdfg.total_ops()), k));
    for &ki in &probe_order {
        let mut jobs: Vec<(usize, usize)> = probes
            .iter()
            .copied()
            .filter(|&ci| states[ci].status == ConfigStatus::Pending)
            .map(|ci| (ci, ki))
            .collect();
        if !run_jobs(&mut jobs, &mut states, &mut stats, &mut deaths) {
            aborted = true;
            break;
        }
    }
    for &ci in &probes {
        let st = &mut states[ci];
        if st.status == ConfigStatus::Pending && st.evaluated == nk {
            st.status = ConfigStatus::Completed;
        }
    }

    // Rung order: most lethal kernel first (kills the infeasible bulk
    // after one evaluation), ties broken cheapest-first, then by index.
    rung_order.sort_by_key(|&k| (std::cmp::Reverse(deaths[k]), specs[k].cdfg.total_ops(), k));

    'rungs: for (rung, &kernel) in rung_order.iter().enumerate() {
        if aborted {
            break 'rungs;
        }
        stats.rungs = rung + 1;
        cmam_obs::counter!("dse.search_rungs").add(1);

        // Rung evaluation: the rung's kernel for every pending config.
        let mut jobs: Vec<(usize, usize)> = states
            .iter()
            .enumerate()
            .filter(|(_, s)| s.status == ConfigStatus::Pending)
            .map(|(ci, _)| (ci, kernel))
            .collect();
        if !run_jobs(&mut jobs, &mut states, &mut stats, &mut deaths) {
            aborted = true;
            break 'rungs;
        }

        let last_rung = rung + 1 == nk;
        if last_rung {
            // Every surviving config now has all kernels evaluated.
            for st in states.iter_mut() {
                if st.status == ConfigStatus::Pending {
                    st.status = ConfigStatus::Completed;
                }
            }
            break 'rungs;
        }

        // Group the live configurations by prefix cycle signature (rule
        // 3): the exact per-kernel cycle vector over the evaluated
        // prefix, in ascending kernel index order. Pending members have
        // evaluated exactly the prefix; completed members restrict
        // their full evaluation to it. A BTreeMap keyed by the
        // signature keeps iteration — and hence promotion order —
        // deterministic.
        let mut prefix: Vec<usize> = rung_order[..=rung].to_vec();
        prefix.sort_unstable();
        let completed: Vec<(f64, u64)> = states
            .iter()
            .filter(|s| s.status == ConfigStatus::Completed)
            .map(|s| s.sums())
            .collect();
        // Per-kernel floors over the completed configurations:
        // component-wise minimum energy and cycles anyone paid for each
        // kernel, the optimistic remainder for the floor projection.
        let mut floors: Vec<(f64, u64)> = vec![(f64::INFINITY, u64::MAX); nk];
        for s in states
            .iter()
            .filter(|s| s.status == ConfigStatus::Completed)
        {
            for (k, v) in s.per_kernel.iter().enumerate() {
                if let Some((e, c)) = v {
                    floors[k].0 = floors[k].0.min(*e);
                    floors[k].1 = floors[k].1.min(*c);
                }
            }
        }
        let mut in_prefix = vec![false; nk];
        for &k in &prefix {
            in_prefix[k] = true;
        }
        #[derive(Default)]
        struct Group {
            /// Cheapest completed member: full energy, full cycles,
            /// prefix energy. First-by-index wins energy ties.
            rep: Option<(f64, u64, f64)>,
            /// Pending members: `(config index, prefix energy)`.
            pending: Vec<(usize, f64)>,
        }
        let mut groups: std::collections::BTreeMap<Vec<u64>, Group> =
            std::collections::BTreeMap::new();
        for (ci, s) in states.iter().enumerate() {
            if s.status != ConfigStatus::Completed && s.status != ConfigStatus::Pending {
                continue;
            }
            let signature: Vec<u64> = prefix
                .iter()
                .map(|&k| s.per_kernel[k].map_or(0, |(_, c)| c))
                .collect();
            let group = groups.entry(signature).or_default();
            if s.status == ConfigStatus::Completed {
                let (fe, fc) = s.sums();
                let (pe, _) = prefix_sums(&s.per_kernel, &prefix);
                if group.rep.is_none_or(|(re, _, _)| fe < re) {
                    group.rep = Some((fe, fc, pe));
                }
            } else {
                let (pe, _) = s.sums();
                group.pending.push((ci, pe));
            }
        }

        // Elimination. The sound rule first: a pending config whose
        // partial sums are already matched-or-beaten in both objectives
        // by a completed feasible config can never reach the frontier —
        // its full sums exceed the partial sums strictly in both
        // components. Then racing (rule 4, heuristic): projection
        // through the group representative, or the wide-margin prefix
        // comparison for representative-less groups. Racing waits for
        // the second rung — one-kernel signatures still alias distinct
        // shapes, and a merged group's representative would race out
        // members whose shapes it does not speak for.
        for (signature, group) in &groups {
            let prefix_cycles: u64 = signature.iter().sum();
            for &(ci, prefix_energy) in &group.pending {
                if completed
                    .iter()
                    .any(|&(fe, fc)| fe <= prefix_energy && fc <= prefix_cycles)
                {
                    states[ci].status = ConfigStatus::Dominated(states[ci].evaluated);
                    stats.dominated += 1;
                    cmam_obs::counter!("dse.search_dominated").add(1);
                    continue;
                }
                if rung == 0 {
                    continue;
                }
                let raced = match group.rep {
                    Some((rep_energy, rep_cycles, rep_prefix_energy)) => {
                        // Full cycles inherited from the representative;
                        // full energy projected by the prefix-energy
                        // ratio. The representative eliminating its own
                        // group reduces to a margined prefix-energy
                        // comparison.
                        let projected = rep_energy * (prefix_energy / rep_prefix_energy);
                        completed.iter().any(|&(fe, fc)| {
                            fe <= projected * (1.0 - RACE_MARGIN_ENERGY) && fc <= rep_cycles
                        })
                    }
                    None => {
                        // Floor projection: the optimistic full-mix
                        // point assuming every remaining kernel costs
                        // the least anyone completed paid for it, less
                        // the safety slack. Only domination of even
                        // this best case races the config out.
                        let mut proj_e = prefix_energy;
                        let mut proj_c = prefix_cycles as f64;
                        for k in 0..nk {
                            if !in_prefix[k] && floors[k].0.is_finite() {
                                proj_e += floors[k].0 * (1.0 - PROJECTION_SLACK);
                                proj_c += floors[k].1 as f64 * (1.0 - PROJECTION_SLACK);
                            }
                        }
                        completed.iter().any(|&(fe, fc)| {
                            fe <= proj_e * (1.0 - RACE_MARGIN_ENERGY) && (fc as f64) <= proj_c
                        })
                    }
                };
                if raced {
                    states[ci].status = ConfigStatus::Raced(states[ci].evaluated);
                    stats.raced += 1;
                    cmam_obs::counter!("dse.search_raced").add(1);
                }
            }
        }

        // Representative promotion (rule 3): every group without a
        // completed member promotes its cheapest surviving pending
        // member — all remaining kernels at once, the cache answering
        // the prefix warm. Full evaluations therefore scale with the
        // number of shape classes, not the space size.
        let promoted: Vec<usize> = groups
            .values()
            .filter(|g| g.rep.is_none())
            .filter_map(|g| {
                g.pending
                    .iter()
                    .filter(|&&(ci, _)| states[ci].status == ConfigStatus::Pending)
                    .min_by(|a, b| {
                        a.1.partial_cmp(&b.1)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.0.cmp(&b.0))
                    })
                    .map(|&(ci, _)| ci)
            })
            .collect();
        // Screened promotion: the remaining kernels with a recorded
        // kill (the live lethality census) run first; only survivors
        // get the rest of the mix. A representative is its group's
        // least provisioned member, so an infeasible one usually dies
        // within the lethal chunk.
        let screen: Vec<usize> = {
            let lethal: Vec<usize> = rung_order[rung + 1..]
                .iter()
                .copied()
                .filter(|&k| deaths[k] > 0)
                .collect();
            if lethal.is_empty() {
                vec![rung_order[rung + 1]]
            } else {
                lethal
            }
        };
        let mut jobs: Vec<(usize, usize)> = promoted
            .iter()
            .flat_map(|&ci| screen.iter().map(move |&ki| (ci, ki)))
            .collect();
        if !run_jobs(&mut jobs, &mut states, &mut stats, &mut deaths) {
            aborted = true;
            break 'rungs;
        }
        let survivors: Vec<usize> = promoted
            .iter()
            .copied()
            .filter(|&ci| states[ci].status == ConfigStatus::Pending)
            .collect();
        let mut jobs: Vec<(usize, usize)> = survivors
            .iter()
            .flat_map(|&ci| {
                rung_order[rung + 1..]
                    .iter()
                    .copied()
                    .filter(|ki| !screen.contains(ki))
                    .map(move |ki| (ci, ki))
            })
            .collect();
        if !run_jobs(&mut jobs, &mut states, &mut stats, &mut deaths) {
            aborted = true;
            break 'rungs;
        }
        for &ci in &survivors {
            let st = &mut states[ci];
            if st.status == ConfigStatus::Pending {
                st.status = ConfigStatus::Completed;
                stats.promoted += 1;
            }
        }

        if states.iter().all(|s| s.status != ConfigStatus::Pending) {
            break 'rungs;
        }
    }

    // Final frontier over completed feasible configurations. Dominated
    // configs are provably off it; infeasible configs are excluded just
    // as in the exhaustive sweep.
    let points: Vec<(usize, f64, u64)> = states
        .iter()
        .enumerate()
        .filter(|(_, s)| s.status == ConfigStatus::Completed)
        .map(|(ci, s)| {
            let (e, c) = s.sums();
            (ci, e, c)
        })
        .collect();
    let frontier = if aborted {
        Vec::new()
    } else {
        pareto_frontier(&points)
    };

    stats.engine = engine_delta(stats_before, engine.stats());
    cmam_obs::counter!("dse.search_jobs").add(stats.jobs_scheduled as u64);
    cmam_obs::counter!("dse.search_completed").add(points.len() as u64);

    let evaluated = states
        .into_iter()
        .enumerate()
        .map(|(ci, st)| {
            let (e, c) = st.sums();
            ConfigEval {
                config_index: ci,
                status: st.status,
                energy: e,
                cycles: c,
                kernels_evaluated: st.evaluated,
                per_kernel: st.per_kernel,
            }
        })
        .collect();

    SearchResult {
        evaluated,
        frontier,
        stats,
        aborted,
    }
}

/// Sums `(energy, cycles)` over the given kernels, in ascending kernel
/// index order (the `prefix` slice is pre-sorted) so the accumulation
/// order — and hence the f64 result — is deterministic.
fn prefix_sums(per_kernel: &[Option<(f64, u64)>], prefix: &[usize]) -> (f64, u64) {
    let mut e = 0.0;
    let mut c = 0u64;
    for &k in prefix {
        if let Some((ke, kc)) = per_kernel[k] {
            e += ke;
            c += kc;
        }
    }
    (e, c)
}

fn engine_delta(before: EngineStats, after: EngineStats) -> EngineStats {
    EngineStats {
        submitted: after.submitted - before.submitted,
        deduped: after.deduped - before.deduped,
        memory_hits: after.memory_hits - before.memory_hits,
        disk_hits: after.disk_hits - before.disk_hits,
        executed: after.executed - before.executed,
        region_hits: after.region_hits - before.region_hits,
        retries: after.retries - before.retries,
        quarantined: after.quarantined - before.quarantined,
    }
}
