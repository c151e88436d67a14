//! Design-space generation for the `dse_pareto` workload.
//!
//! Two spaces live here. [`validation_space`] is the legacy hand-written
//! 24-configuration sweep (CM depth x heterogeneity x geometry) kept as
//! the ground-truth space the search scheduler is validated against.
//! [`generate_space`] is the scalable replacement: a seeded,
//! provisioning-aware sampler that co-varies array geometry, LSU
//! placement, context-memory depth profile, and register-file sizing
//! under a total-context-words budget, producing thousands of distinct,
//! valid-by-construction configurations. Candidates are deduplicated by
//! structural fingerprint (names excluded), and collisions are counted
//! and reported through [`cmam_obs::warn!`].

use crate::fingerprint::{Fingerprint, Fnv64};
use cmam_arch::{CgraConfig, Geometry, TileConfig, TileId};
use cmam_cdfg::SplitMix64;
use std::collections::HashSet;

/// Default seed for [`generate_space`]; echoes the paper year.
pub const DEFAULT_SPACE_SEED: u64 = 0xD5E_2019;

/// Parameters for [`generate_space`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceParams {
    /// Number of distinct configurations to emit.
    pub target: usize,
    /// RNG seed; the space is a pure function of `(target, seed)`.
    pub seed: u64,
}

impl Default for SpaceParams {
    fn default() -> Self {
        SpaceParams {
            target: 1000,
            seed: DEFAULT_SPACE_SEED,
        }
    }
}

fn pick<T: Copy>(rng: &mut SplitMix64, options: &[T]) -> T {
    options[rng.below(options.len() as u64) as usize]
}

/// Structural identity of a configuration: geometry plus the full tile
/// list, with the name deliberately excluded — two samples that build
/// the same array must collapse to one entry regardless of labels.
fn structural_key(geometry: Geometry, tiles: &[TileConfig]) -> u64 {
    let mut h = Fnv64::new();
    geometry.fingerprint(&mut h);
    h.feed_usize(tiles.len());
    for t in tiles {
        t.fingerprint(&mut h);
    }
    h.finish()
}

/// Rounds a context-memory depth to the next multiple of 8, clamped to
/// the hardware-plausible 8..=128 word range.
fn snap_depth(words: usize) -> usize {
    words.div_ceil(8).clamp(1, 16) * 8
}

/// How the per-tile CM depth varies across the array.
#[derive(Debug, Clone, Copy)]
enum DepthProfile {
    /// Every tile at the base depth.
    Uniform,
    /// Depth halves per row away from row 0 (never below 8 words).
    RowGraded,
    /// LSU rows at the base depth, compute rows at a fixed fraction.
    LsuBiased,
    /// Alternating base / half-base in a checkerboard.
    Checkerboard,
}

/// One sampled candidate, before dedup.
fn sample(rng: &mut SplitMix64) -> (Geometry, Vec<TileConfig>) {
    // Geometry: 4x4 is weighted (the paper's shape) but the sampler
    // roams from narrow 2-column strips to wide 4x8 / tall 8x4 arrays.
    // Tile counts stay in 8..=32 so a single mapping remains cheap.
    let (rows, cols) = pick(
        rng,
        &[
            (2usize, 4usize),
            (2, 8),
            (3, 3),
            (3, 4),
            (3, 6),
            (4, 2),
            (4, 4),
            (4, 4),
            (4, 6),
            (4, 8),
            (5, 4),
            (6, 4),
            (8, 2),
            (8, 4),
        ],
    );
    let tiles_n = rows * cols;

    // LSU provisioning: between one row and half the array, so memory
    // bandwidth co-varies with compute instead of being fixed.
    let lsu_rows = 1 + rng.below((rows / 2).max(1) as u64) as usize;

    // Context-memory provisioning: a whole-array word budget, spread by
    // the tile count — bigger arrays get shallower memories, which is
    // exactly the compute-vs-storage trade the paper's Table I probes.
    let budget_words = pick(rng, &[256usize, 384, 512, 768, 1024, 1536]);
    let base_depth = snap_depth(budget_words / tiles_n);
    let profile = pick(
        rng,
        &[
            DepthProfile::Uniform,
            DepthProfile::Uniform,
            DepthProfile::RowGraded,
            DepthProfile::LsuBiased,
            DepthProfile::Checkerboard,
        ],
    );
    // Register-file provisioning co-varies with CM depth: deep context
    // memories pair with more live values and immediates.
    let rf_words = if base_depth >= 48 {
        pick(rng, &[8usize, 16])
    } else {
        pick(rng, &[4usize, 8, 16])
    };
    let crf_words = pick(rng, &[8usize, 16, 32]);

    let depth_for = |r: usize, c: usize| -> usize {
        match profile {
            DepthProfile::Uniform => base_depth,
            DepthProfile::RowGraded => snap_depth(base_depth >> r.min(3)),
            DepthProfile::LsuBiased => {
                if r < lsu_rows {
                    base_depth
                } else {
                    snap_depth(base_depth / 2)
                }
            }
            DepthProfile::Checkerboard => {
                if (r + c) % 2 == 0 {
                    base_depth
                } else {
                    snap_depth(base_depth / 2)
                }
            }
        }
    };

    let tiles = (0..tiles_n)
        .map(|i| {
            let (r, c) = (i / cols, i % cols);
            TileConfig {
                has_lsu: r < lsu_rows,
                cm_words: depth_for(r, c),
                rf_words,
                crf_words,
            }
        })
        .collect();
    (Geometry::new(rows, cols), tiles)
}

/// Generates `params.target` distinct configurations from the seed.
///
/// Determinism: the result is a pure function of `params` — the same
/// seed reproduces the same space in the same order on any machine or
/// thread count, which is what makes killed sweeps resumable. Every
/// configuration is validated by construction ([`CgraConfig::new`]
/// checks it) and named after its structural hash (`g<hash>-<r>x<c>`),
/// so names — which participate in job fingerprints — are stable across
/// runs and cache entries stay warm.
///
/// Duplicate samples (same geometry and tile list) are dropped; the
/// collision count is recorded on the `dse.generator_collisions`
/// counter and surfaced once per call through [`cmam_obs::warn!`].
pub fn generate_space(params: &SpaceParams) -> Vec<CgraConfig> {
    let mut rng = SplitMix64::from_state(params.seed);
    let mut seen: HashSet<u64> = HashSet::new();
    let mut out = Vec::with_capacity(params.target);
    let mut collisions: u64 = 0;
    // The sampler's support is far larger than any realistic target,
    // but cap the attempts so a pathological request terminates.
    let max_attempts = params.target.saturating_mul(64).max(4096);
    for _ in 0..max_attempts {
        if out.len() >= params.target {
            break;
        }
        let (geometry, tiles) = sample(&mut rng);
        let key = structural_key(geometry, &tiles);
        if !seen.insert(key) {
            collisions += 1;
            continue;
        }
        let name = format!("g{key:016x}-{}x{}", geometry.rows(), geometry.cols());
        let config = CgraConfig::new(name, geometry, tiles)
            .expect("sampled configuration is valid by construction");
        out.push(config);
    }
    if collisions > 0 {
        cmam_obs::counter!("dse.generator_collisions").add(collisions);
        cmam_obs::warn!(
            "dse generator deduped {collisions} structural collisions \
             while producing {} configs (seed {:#x})",
            out.len(),
            params.seed
        );
    }
    if out.len() < params.target {
        cmam_obs::warn!(
            "dse generator exhausted {max_attempts} attempts at {} of {} configs",
            out.len(),
            params.target
        );
    }
    out
}

fn build(
    name: String,
    rows: usize,
    cols: usize,
    lsu_rows: usize,
    cm_for: impl Fn(usize, usize) -> usize,
) -> CgraConfig {
    let mut b = CgraConfig::builder(rows, cols)
        .name(name)
        .lsu_rows(lsu_rows);
    for r in 0..rows {
        for c in 0..cols {
            b = b.cm_for(TileId(r * cols + c), cm_for(r, c));
        }
    }
    b.build().expect("generated configuration is valid")
}

/// The legacy hand-written space: 24 configurations spanning CM depth
/// (16/32/48/64 words), heterogeneity (uniform, row-graded, LSU-biased,
/// checkerboard) and geometry/LSU placement (4x4 with 1 or 2 LSU rows,
/// plus a wide 4x8 and a tall 8x2 variant).
///
/// This is the ground-truth space for search validation: small enough to
/// sweep exhaustively, so `--search` results can be checked against the
/// exact Pareto frontier.
///
/// Names encode the axes: `U<d>` uniform depth, `G…` graded rows,
/// `B<l>/<c>` LSU-biased, `C<a>/<b>` checkerboard; an `-L<n>` suffix gives
/// the number of LSU rows and `-<r>x<c>` the geometry when not 4x4.
pub fn validation_space() -> Vec<CgraConfig> {
    let mut out = Vec::new();
    // Axis 1: uniform CM depth x LSU placement (8 configs). U64-L2 is the
    // paper's HOM64 shape, so the space contains Table I's corners.
    for depth in [16usize, 32, 48, 64] {
        for lsu_rows in [1usize, 2] {
            out.push(build(
                format!("U{depth}-L{lsu_rows}"),
                4,
                4,
                lsu_rows,
                |_, _| depth,
            ));
        }
    }
    // Axis 2a: row-graded heterogeneity — deeper CMs on the LSU rows,
    // shallow on the far rows (6 configs).
    for (tag, profile) in [
        ("G64", [64usize, 48, 32, 16]),
        ("G48", [48, 32, 32, 16]),
        ("G32", [32, 32, 16, 16]),
    ] {
        for lsu_rows in [1usize, 2] {
            out.push(build(
                format!("{tag}-L{lsu_rows}"),
                4,
                4,
                lsu_rows,
                move |r, _| profile[r],
            ));
        }
    }
    // Axis 2b: LSU-biased — deep CMs only where the load/store pressure
    // concentrates (4 configs).
    for (lsu_depth, compute_depth) in [(64usize, 16usize), (64, 32)] {
        for lsu_rows in [1usize, 2] {
            out.push(build(
                format!("B{lsu_depth}/{compute_depth}-L{lsu_rows}"),
                4,
                4,
                lsu_rows,
                move |r, _| {
                    if r < lsu_rows {
                        lsu_depth
                    } else {
                        compute_depth
                    }
                },
            ));
        }
    }
    // Axis 2c: checkerboard heterogeneity (2 configs).
    for (a, b) in [(64usize, 16usize), (48, 32)] {
        out.push(build(format!("C{a}/{b}-L2"), 4, 4, 2, move |r, c| {
            if (r + c) % 2 == 0 {
                a
            } else {
                b
            }
        }));
    }
    // Axis 3: geometry — a wide 4x8 array (more tiles, shallow CMs) and a
    // tall 8x2 array (long routes, the stress case) (4 configs).
    for depth in [16usize, 32] {
        out.push(build(format!("U{depth}-L1-4x8"), 4, 8, 1, move |_, _| {
            depth
        }));
    }
    for depth in [32usize, 64] {
        out.push(build(format!("U{depth}-L2-8x2"), 8, 2, 2, move |_, _| {
            depth
        }));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_space_has_at_least_twenty_distinct_configs() {
        let space = validation_space();
        assert!(space.len() >= 20, "only {} configs", space.len());
        let names: HashSet<&str> = space.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), space.len(), "duplicate config names");
    }

    #[test]
    fn every_validation_config_validates_and_has_lsus() {
        for c in validation_space() {
            assert!(!c.lsu_tiles().is_empty(), "{}", c.name());
            assert!(c.total_cm_words() > 0, "{}", c.name());
        }
    }

    #[test]
    fn generated_space_hits_its_target_and_is_structurally_distinct() {
        let params = SpaceParams {
            target: 500,
            seed: DEFAULT_SPACE_SEED,
        };
        let space = generate_space(&params);
        assert_eq!(space.len(), 500);
        let mut keys = HashSet::new();
        for c in &space {
            let tiles: Vec<TileConfig> = c.tiles().map(|(_, t)| *t).collect();
            assert!(
                keys.insert(structural_key(c.geometry(), &tiles)),
                "structural duplicate {}",
                c.name()
            );
            assert!(!c.lsu_tiles().is_empty(), "{}", c.name());
            assert!(c.total_cm_words() > 0, "{}", c.name());
        }
    }

    #[test]
    fn generated_space_is_a_pure_function_of_its_params() {
        let params = SpaceParams {
            target: 200,
            seed: 42,
        };
        let a = generate_space(&params);
        let b = generate_space(&params);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y);
        }
        // A different seed explores a different space.
        let c = generate_space(&SpaceParams {
            target: 200,
            seed: 43,
        });
        assert!(a.iter().zip(&c).any(|(x, y)| x != y));
    }

    #[test]
    fn generated_names_encode_the_structural_hash() {
        let space = generate_space(&SpaceParams {
            target: 50,
            seed: 7,
        });
        for config in &space {
            let tiles: Vec<TileConfig> = config.tiles().map(|(_, t)| *t).collect();
            let key = structural_key(config.geometry(), &tiles);
            assert!(
                config.name().starts_with(&format!("g{key:016x}-")),
                "name {} does not match structure",
                config.name()
            );
        }
    }

    /// perfbench's `dse_search` searches this space, so its structure is
    /// pinned. Plain FNV-1a over every config's shape and tiles: the
    /// names (and [`Fnv64`]) are salted with the toolchain hash.
    #[test]
    fn perfbench_space_is_pinned() {
        let space = generate_space(&SpaceParams {
            target: 100,
            seed: DEFAULT_SPACE_SEED,
        });
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut feed = |x: usize| {
            for b in (x as u64).to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for c in &space {
            feed(c.geometry().rows());
            feed(c.geometry().cols());
            for (_, t) in c.tiles() {
                feed(usize::from(t.has_lsu));
                feed(t.cm_words);
                feed(t.rf_words);
                feed(t.crf_words);
            }
        }
        assert_eq!((space.len(), h), (100, 0x2551_68cc_de33_3fa9));
    }
}
