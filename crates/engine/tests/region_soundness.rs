//! Memory regions are sound: a configuration whose memories lie inside
//! the region a map certified maps to that map's result.
//!
//! Three job sets, each job mapped directly with
//! [`Mapper::map_certified`]: Table I under every flow, the uniform
//! 4..=64-word scan under every flow (the `fig6_8_latency --min-memory`
//! jobs) and the 100-config generated DSE space under CAB, all over the
//! seven paper kernels. Jobs that share everything the mapper reads
//! except memory sizes (CDFG, options, geometry, per-tile LSU) are
//! compared in submission order, as the engine meets them:
//!
//! * every region contains its own configuration;
//! * a job inside an earlier job's region maps to the identical
//!   `KernelMapping` (or `MapError`), `MapStats` and region;
//! * a job inside no earlier region is mapped again at its region's two
//!   corners — every memory of every tile at its lower bound, and every
//!   one at its upper bound capped at 256 words — with the identical
//!   result, statistics and region.

use cmam_arch::{CgraConfig, TileConfig};
use cmam_core::{CertifiedMap, CmRegion, FlowVariant, Mapper, Memory};
use cmam_engine::dse::{generate_space, SpaceParams, DEFAULT_SPACE_SEED};
use cmam_kernels::KernelSpec;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The corner cap: regions of maps that never overflowed a tile are
/// unbounded above.
const CAP: usize = 256;

/// Everything the mapper reads apart from memory sizes.
type MapKey = (usize, FlowVariant, usize, usize, Vec<bool>);

fn map_key(kernel: usize, flow: FlowVariant, config: &CgraConfig) -> MapKey {
    let geometry = config.geometry();
    let lsus = config.tiles().map(|(_, t)| t.has_lsu).collect();
    (kernel, flow, geometry.rows(), geometry.cols(), lsus)
}

/// `config` with tile `i`'s context memory, register file and constant
/// register file set to `words(i)`, in [`Memory::ALL`] order.
fn with_memories(config: &CgraConfig, words: impl Fn(usize) -> [usize; 3]) -> CgraConfig {
    let tiles: Vec<TileConfig> = config
        .tiles()
        .enumerate()
        .map(|(i, (_, t))| {
            let [cm_words, rf_words, crf_words] = words(i);
            TileConfig {
                cm_words,
                rf_words,
                crf_words,
                ..*t
            }
        })
        .collect();
    CgraConfig::new(
        format!("{}-corner", config.name()),
        config.geometry(),
        tiles,
    )
    .expect("a corner of a region is a valid configuration")
}

fn uniform(words: usize) -> CgraConfig {
    CgraConfig::builder(4, 4)
        .name(format!("U{words}"))
        .uniform_cm(words)
        .build()
        .expect("valid")
}

/// What two certified maps must agree on.
fn same(a: &CertifiedMap, b: &CertifiedMap) -> bool {
    a.result == b.result && a.stats == b.stats && a.region == b.region
}

#[derive(Debug, Default)]
struct Tally {
    jobs: usize,
    reuses: usize,
    corner_maps: usize,
    mismatches: Vec<String>,
}

/// Maps one key's jobs in order, checking each against the regions of
/// the earlier ones.
fn check_group(
    specs: &[KernelSpec],
    jobs: &[(usize, FlowVariant, CgraConfig)],
    tally: &Mutex<Tally>,
) {
    let mut certified: Vec<CertifiedMap> = Vec::new();
    let mut local = Tally::default();
    for (kernel, flow, config) in jobs {
        let mapper = Mapper::new(flow.options());
        let cdfg = &specs[*kernel].cdfg;
        let job = format!("{} / {flow} / {}", specs[*kernel].name, config.name());
        let map = mapper.map_certified(cdfg, config);
        local.jobs += 1;
        if !map.region.contains(config) {
            local.mismatches.push(format!(
                "{job}: region {:?} misses its own config",
                map.region
            ));
        }
        if let Some(earlier) = certified.iter().find(|c| c.region.contains(config)) {
            local.reuses += 1;
            if !same(earlier, &map) {
                local.mismatches.push(format!(
                    "{job}: differs from an earlier map whose region holds it"
                ));
            }
            continue;
        }
        let bounds = map.region.bounds();
        for (corner, words) in [
            (
                "lower",
                bounds.iter().map(|b| b.map(|m| m.0)).collect::<Vec<_>>(),
            ),
            (
                "upper",
                bounds.iter().map(|b| b.map(|m| m.1.min(CAP))).collect(),
            ),
        ] {
            let at = with_memories(config, |i| words[i]);
            local.corner_maps += 1;
            if !same(&map, &mapper.map_certified(cdfg, &at)) {
                local.mismatches.push(format!(
                    "{job}: differs at its region's {corner} corner {words:?}"
                ));
            }
        }
        certified.push(map);
    }
    let mut tally = tally.lock().unwrap();
    tally.jobs += local.jobs;
    tally.reuses += local.reuses;
    tally.corner_maps += local.corner_maps;
    tally.mismatches.extend(local.mismatches);
}

/// Groups `jobs` by map key, each group in submission order, and checks
/// the groups on two threads.
fn check(specs: &[KernelSpec], jobs: Vec<(usize, FlowVariant, CgraConfig)>) -> Tally {
    let mut groups: Vec<Vec<(usize, FlowVariant, CgraConfig)>> = Vec::new();
    let mut index: HashMap<MapKey, usize> = HashMap::new();
    for job in jobs {
        let key = map_key(job.0, job.1, &job.2);
        let g = *index.entry(key).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(job);
    }
    let tally = Mutex::new(Tally::default());
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let g = next.fetch_add(1, Ordering::Relaxed);
                match groups.get(g) {
                    Some(group) => check_group(specs, group, &tally),
                    None => break,
                }
            });
        }
    });
    tally.into_inner().unwrap()
}

fn assert_sound(set: &str, tally: &Tally) {
    eprintln!(
        "{set}: {} jobs, {} inside an earlier region, {} corner maps, {} mismatches",
        tally.jobs,
        tally.reuses,
        tally.corner_maps,
        tally.mismatches.len()
    );
    assert!(
        tally.mismatches.is_empty(),
        "{set}: {} mismatches, first: {:#?}",
        tally.mismatches.len(),
        &tally.mismatches[..tally.mismatches.len().min(10)]
    );
}

#[test]
fn table_one_under_every_flow() {
    let specs = cmam_kernels::all();
    let mut jobs = Vec::new();
    for config in CgraConfig::table_one() {
        for flow in FlowVariant::ALL {
            for kernel in 0..specs.len() {
                jobs.push((kernel, flow, config.clone()));
            }
        }
    }
    let tally = check(&specs, jobs);
    assert_sound("Table I", &tally);
    assert!(tally.reuses > 0, "the basic flows alone share their maps");
}

#[test]
fn the_uniform_scan_under_every_flow() {
    let specs = cmam_kernels::all();
    let mut jobs = Vec::new();
    for kernel in 0..specs.len() {
        for flow in FlowVariant::ALL {
            for words in 4..=64 {
                jobs.push((kernel, flow, uniform(words)));
            }
        }
    }
    let tally = check(&specs, jobs);
    assert_sound("uniform scan", &tally);
    assert!(tally.reuses > tally.jobs / 2, "{tally:?}");
}

#[test]
fn the_generated_dse_space_under_cab() {
    let specs = cmam_kernels::all();
    let space = generate_space(&SpaceParams {
        target: 100,
        seed: DEFAULT_SPACE_SEED,
    });
    let mut jobs = Vec::new();
    for config in &space {
        for kernel in 0..specs.len() {
            jobs.push((kernel, FlowVariant::Cab, config.clone()));
        }
    }
    let tally = check(&specs, jobs);
    assert_sound("DSE space", &tally);
}

/// A region never holds a configuration of another tile count, and holds
/// one of the same shape exactly when every memory of every tile is
/// inside.
#[test]
fn containment_is_per_tile() {
    let spec = cmam_kernels::fir::spec();
    let het1 = CgraConfig::het1();
    let map = Mapper::new(FlowVariant::Cab.options()).map_certified(&spec.cdfg, &het1);
    let region: &CmRegion = &map.region;
    assert!(region.contains(&het1));
    let wide = CgraConfig::builder(4, 8).build().expect("valid");
    assert!(!region.contains(&wide));
    let sizes = |i: usize| Memory::ALL.map(|m| m.size(het1.tile(cmam_arch::TileId(i))));
    for memory in Memory::ALL {
        let m = memory as usize;
        let (tile, lo) = region
            .bounds()
            .iter()
            .enumerate()
            .find_map(|(i, b)| (b[m].0 > 1).then_some((i, b[m].0)))
            .unwrap_or_else(|| panic!("some tile's {memory:?} was compared"));
        let below = with_memories(&het1, |i| {
            let mut words = sizes(i);
            if i == tile {
                words[m] = lo - 1;
            }
            words
        });
        assert!(!region.contains(&below), "{memory:?}");
    }
}
