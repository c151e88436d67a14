//! Torus grid geometry: positions, neighbourhoods, hop distances.
//!
//! The CGRA interconnect is a 2D mesh with wrap-around links (a torus), as
//! in the paper's target architecture. Every tile has exactly four
//! point-to-point neighbours (north, east, south, west); a tile can read
//! operands directly from the register files of its neighbours, so a hop
//! distance of 1 is "free" for the mapper while longer distances require
//! explicit `move` instructions.

use crate::tile::TileId;
use std::fmt;

/// Cardinal direction towards a torus neighbour.
///
/// ```
/// use cmam_arch::Direction;
/// assert_eq!(Direction::North.opposite(), Direction::South);
/// assert_eq!(Direction::ALL.len(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// Towards row - 1 (wrapping).
    North,
    /// Towards col + 1 (wrapping).
    East,
    /// Towards row + 1 (wrapping).
    South,
    /// Towards col - 1 (wrapping).
    West,
}

impl Direction {
    /// All four directions, in a fixed deterministic order.
    pub const ALL: [Direction; 4] = [
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
    ];

    /// The direction pointing back where this one came from.
    pub fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::East => Direction::West,
            Direction::South => Direction::North,
            Direction::West => Direction::East,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::North => "N",
            Direction::East => "E",
            Direction::South => "S",
            Direction::West => "W",
        };
        f.write_str(s)
    }
}

/// A tile position on the grid: `row` in `0..rows`, `col` in `0..cols`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Pos {
    /// Row index, 0 at the top.
    pub row: usize,
    /// Column index, 0 at the left.
    pub col: usize,
}

impl Pos {
    /// Creates a position. No bounds are enforced here; bounds belong to a
    /// [`Geometry`].
    pub fn new(row: usize, col: usize) -> Self {
        Pos { row, col }
    }
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.row, self.col)
    }
}

/// Rectangular torus geometry of the CGRA.
///
/// Tile ids are assigned row-major: tile 0 is `(0,0)`, tile 1 is `(0,1)`,
/// etc. The paper's 4x4 array numbers tiles 1..=16; this crate uses 0-based
/// [`TileId`]s internally and formats them 1-based in reports to match the
/// paper's tables.
///
/// ```
/// use cmam_arch::{Geometry, TileId};
/// let g = Geometry::new(4, 4);
/// // Torus wrap: tile (0,0) and tile (3,0) are direct neighbours.
/// assert_eq!(g.distance(TileId(0), TileId(12)), 1);
/// // Farthest pair on a 4x4 torus is 2+2 hops away.
/// assert_eq!(g.distance(TileId(0), TileId(10)), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    rows: usize,
    cols: usize,
}

impl Geometry {
    /// Creates a `rows x cols` torus.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "geometry must be non-empty");
        Geometry { rows, cols }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of tiles.
    pub fn num_tiles(&self) -> usize {
        self.rows * self.cols
    }

    /// Converts a tile id into its grid position.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn pos(&self, id: TileId) -> Pos {
        assert!(id.0 < self.num_tiles(), "tile id {id} out of range");
        Pos::new(id.0 / self.cols, id.0 % self.cols)
    }

    /// Converts a grid position into a tile id (row-major).
    ///
    /// # Panics
    ///
    /// Panics if the position is out of range.
    pub fn id(&self, pos: Pos) -> TileId {
        assert!(
            pos.row < self.rows && pos.col < self.cols,
            "position {pos} out of range"
        );
        TileId(pos.row * self.cols + pos.col)
    }

    /// The neighbour of `id` in direction `dir`, with torus wrap-around.
    pub fn neighbor(&self, id: TileId, dir: Direction) -> TileId {
        let p = self.pos(id);
        let q = match dir {
            Direction::North => Pos::new((p.row + self.rows - 1) % self.rows, p.col),
            Direction::South => Pos::new((p.row + 1) % self.rows, p.col),
            Direction::East => Pos::new(p.row, (p.col + 1) % self.cols),
            Direction::West => Pos::new(p.row, (p.col + self.cols - 1) % self.cols),
        };
        self.id(q)
    }

    /// All torus neighbours of `id` (deduplicated on degenerate 1xN / Nx1
    /// geometries), paired with the direction leading to them.
    pub fn neighbors(&self, id: TileId) -> Vec<(Direction, TileId)> {
        let mut out = Vec::with_capacity(4);
        for dir in Direction::ALL {
            let n = self.neighbor(id, dir);
            if n != id && !out.iter().any(|&(_, t)| t == n) {
                out.push((dir, n));
            }
        }
        out
    }

    /// Minimal hop distance between two tiles on the torus.
    pub fn distance(&self, a: TileId, b: TileId) -> usize {
        let pa = self.pos(a);
        let pb = self.pos(b);
        let dr = pa.row.abs_diff(pb.row);
        let dc = pa.col.abs_diff(pb.col);
        dr.min(self.rows - dr) + dc.min(self.cols - dc)
    }

    /// Iterator over all tile ids in row-major order.
    pub fn tiles(&self) -> impl Iterator<Item = TileId> + '_ {
        (0..self.num_tiles()).map(TileId)
    }

    /// One shortest path from `a` to `b` as a list of directions
    /// (deterministic: row movement first, then column movement).
    pub fn shortest_path(&self, a: TileId, b: TileId) -> Vec<Direction> {
        let pa = self.pos(a);
        let pb = self.pos(b);
        let mut dirs = Vec::new();

        let down = (pb.row + self.rows - pa.row) % self.rows;
        let up = (pa.row + self.rows - pb.row) % self.rows;
        if down <= up {
            dirs.extend(std::iter::repeat_n(Direction::South, down));
        } else {
            dirs.extend(std::iter::repeat_n(Direction::North, up));
        }

        let right = (pb.col + self.cols - pa.col) % self.cols;
        let left = (pa.col + self.cols - pb.col) % self.cols;
        if right <= left {
            dirs.extend(std::iter::repeat_n(Direction::East, right));
        } else {
            dirs.extend(std::iter::repeat_n(Direction::West, left));
        }
        dirs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_by_four_basics() {
        let g = Geometry::new(4, 4);
        assert_eq!(g.num_tiles(), 16);
        assert_eq!(g.pos(TileId(5)), Pos::new(1, 1));
        assert_eq!(g.id(Pos::new(3, 3)), TileId(15));
    }

    #[test]
    fn torus_wraparound_neighbors() {
        let g = Geometry::new(4, 4);
        assert_eq!(g.neighbor(TileId(0), Direction::North), TileId(12));
        assert_eq!(g.neighbor(TileId(0), Direction::West), TileId(3));
        assert_eq!(g.neighbor(TileId(15), Direction::South), TileId(3));
        assert_eq!(g.neighbor(TileId(15), Direction::East), TileId(12));
    }

    #[test]
    fn neighbors_are_four_on_4x4() {
        let g = Geometry::new(4, 4);
        for t in g.tiles() {
            assert_eq!(g.neighbors(t).len(), 4, "tile {t}");
        }
    }

    #[test]
    fn neighbors_deduplicate_on_degenerate_grid() {
        let g = Geometry::new(1, 2);
        // On a 1x2 torus, east and west lead to the same tile and
        // north/south lead back to self.
        let n = g.neighbors(TileId(0));
        assert_eq!(n.len(), 1);
        assert_eq!(n[0].1, TileId(1));
    }

    #[test]
    fn distance_is_torus_metric() {
        let g = Geometry::new(4, 4);
        assert_eq!(g.distance(TileId(0), TileId(0)), 0);
        // Wrap in cols, then the 4x4 maximum.
        assert_eq!(g.distance(TileId(0), TileId(3)), 1);
        assert_eq!(g.distance(TileId(0), TileId(10)), 4);
        // Symmetry.
        for a in g.tiles() {
            for b in g.tiles() {
                assert_eq!(g.distance(a, b), g.distance(b, a));
            }
        }
    }

    #[test]
    fn shortest_path_has_distance_length_and_arrives() {
        let g = Geometry::new(4, 4);
        for a in g.tiles() {
            for b in g.tiles() {
                let path = g.shortest_path(a, b);
                assert_eq!(path.len(), g.distance(a, b), "{a}->{b}");
                let mut cur = a;
                for d in path {
                    cur = g.neighbor(cur, d);
                }
                assert_eq!(cur, b);
            }
        }
    }

    #[test]
    fn opposite_directions_roundtrip() {
        let g = Geometry::new(3, 5);
        for t in g.tiles() {
            for d in Direction::ALL {
                assert_eq!(g.neighbor(g.neighbor(t, d), d.opposite()), t);
            }
        }
    }
}
