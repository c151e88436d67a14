//! Property tests: the torus geometry is a metric space and paths are
//! consistent with distances. The domain — every shape from 1×1 to 6×6
//! and every tile, pair and triple on it — is small enough to enumerate,
//! so each property is checked on all of it.

use cmam_arch::{Direction, Geometry, TileId};

/// Every torus shape with 1..=6 rows and 1..=6 columns.
fn geometries() -> impl Iterator<Item = Geometry> {
    (1..=6).flat_map(|r| (1..=6).map(move |c| Geometry::new(r, c)))
}

/// Every tile of `g`.
fn tiles(g: &Geometry) -> impl Iterator<Item = TileId> {
    (0..g.num_tiles()).map(TileId)
}

#[test]
fn distance_is_a_metric() {
    let mut triples = 0;
    for g in geometries() {
        let diameter = g.rows() / 2 + g.cols() / 2;
        for a in tiles(&g) {
            assert_eq!(g.distance(a, a), 0, "{g:?}: {a:?}");
            for b in tiles(&g) {
                let ab = g.distance(a, b);
                assert_eq!(ab, g.distance(b, a), "{g:?}: {a:?}, {b:?}");
                // Bounded by the torus diameter.
                assert!(ab <= diameter, "{g:?}: {a:?}, {b:?}");
                for c in tiles(&g) {
                    assert!(
                        g.distance(a, c) <= ab + g.distance(b, c),
                        "{g:?}: {a:?}, {b:?}, {c:?}"
                    );
                    triples += 1;
                }
            }
        }
    }
    assert_eq!(triples, 194_481, "Σ (r·c)³ over the shapes");
}

#[test]
fn shortest_paths_realize_distances() {
    let mut pairs = 0;
    for g in geometries() {
        for a in tiles(&g) {
            for b in tiles(&g) {
                let path = g.shortest_path(a, b);
                assert_eq!(path.len(), g.distance(a, b), "{g:?}: {a:?}, {b:?}");
                let end = path.into_iter().fold(a, |cur, d| g.neighbor(cur, d));
                assert_eq!(end, b, "{g:?}: {a:?}, {b:?}");
                pairs += 1;
            }
        }
    }
    assert_eq!(pairs, 8_281, "Σ (r·c)² over the shapes");
}

#[test]
fn neighbors_are_mutual() {
    let mut count = 0;
    for g in geometries() {
        for t in tiles(&g) {
            for (_, n) in g.neighbors(t) {
                assert!(
                    g.neighbors(n).iter().any(|&(_, m)| m == t),
                    "{g:?}: {t:?}, {n:?}"
                );
                assert_eq!(g.distance(t, n), 1, "{g:?}: {t:?}, {n:?}");
            }
            for d in Direction::ALL {
                assert_eq!(
                    g.neighbor(g.neighbor(t, d), d.opposite()),
                    t,
                    "{g:?}: {t:?}, {d:?}"
                );
            }
            count += 1;
        }
    }
    assert_eq!(count, 441, "Σ r·c over the shapes");
}
