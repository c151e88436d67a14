//! Whole-array configurations, including the four of Table I.
//!
//! | Config | LSU tiles | CM 64 | CM 32 | CM 16 | Total words |
//! |--------|-----------|-------|-------|-------|-------------|
//! | HOM64  | 1-8       | 1-16  |       |       | 1024        |
//! | HOM32  | 1-8       |       | 1-16  |       | 512         |
//! | HET1   | 1-8       | 1-4   | 5-8, 13-16 | 9-12 | 576    |
//! | HET2   | 1-8       | 1-4   | 5-8   | 9-16  | 512         |

use crate::geometry::Geometry;
use crate::tile::{TileConfig, TileId};
use std::error::Error;
use std::fmt;

/// Error building or validating a [`CgraConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The per-tile configuration list does not match the geometry.
    TileCountMismatch {
        /// Tiles implied by the geometry.
        expected: usize,
        /// Tiles supplied.
        actual: usize,
    },
    /// No tile has a load/store unit, so no kernel touching memory can map.
    NoLoadStoreTile,
    /// A tile has a zero-sized context memory.
    EmptyContextMemory(TileId),
    /// A tile has a zero-sized register file (no operand can ever be
    /// produced or routed through it).
    EmptyRegisterFile(TileId),
    /// A tile has a zero-sized constant register file (no immediate can
    /// be materialised on it).
    EmptyConstantRegisterFile(TileId),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::TileCountMismatch { expected, actual } => write!(
                f,
                "tile config count {actual} does not match geometry ({expected} tiles)"
            ),
            ConfigError::NoLoadStoreTile => f.write_str("configuration has no load/store tile"),
            ConfigError::EmptyContextMemory(t) => {
                write!(f, "tile {t} has an empty context memory")
            }
            ConfigError::EmptyRegisterFile(t) => {
                write!(f, "tile {t} has an empty register file")
            }
            ConfigError::EmptyConstantRegisterFile(t) => {
                write!(f, "tile {t} has an empty constant register file")
            }
        }
    }
}

impl Error for ConfigError {}

/// A complete CGRA instance: geometry plus per-tile resources.
///
/// ```
/// use cmam_arch::CgraConfig;
/// // Table I totals.
/// assert_eq!(CgraConfig::hom64().total_cm_words(), 1024);
/// assert_eq!(CgraConfig::hom32().total_cm_words(), 512);
/// assert_eq!(CgraConfig::het1().total_cm_words(), 576);
/// assert_eq!(CgraConfig::het2().total_cm_words(), 512);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CgraConfig {
    name: String,
    geometry: Geometry,
    tiles: Vec<TileConfig>,
}

impl CgraConfig {
    /// Builds a configuration after validating it.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the tile list length does not match the
    /// geometry, if no tile has an LSU, or if any context memory is empty.
    pub fn new(
        name: impl Into<String>,
        geometry: Geometry,
        tiles: Vec<TileConfig>,
    ) -> Result<Self, ConfigError> {
        if tiles.len() != geometry.num_tiles() {
            return Err(ConfigError::TileCountMismatch {
                expected: geometry.num_tiles(),
                actual: tiles.len(),
            });
        }
        if !tiles.iter().any(|t| t.has_lsu) {
            return Err(ConfigError::NoLoadStoreTile);
        }
        if let Some(i) = tiles.iter().position(|t| t.cm_words == 0) {
            return Err(ConfigError::EmptyContextMemory(TileId(i)));
        }
        if let Some(i) = tiles.iter().position(|t| t.rf_words == 0) {
            return Err(ConfigError::EmptyRegisterFile(TileId(i)));
        }
        if let Some(i) = tiles.iter().position(|t| t.crf_words == 0) {
            return Err(ConfigError::EmptyConstantRegisterFile(TileId(i)));
        }
        Ok(CgraConfig {
            name: name.into(),
            geometry,
            tiles,
        })
    }

    /// Starts a [`CgraConfigBuilder`] for custom configurations.
    pub fn builder(rows: usize, cols: usize) -> CgraConfigBuilder {
        CgraConfigBuilder::new(rows, cols)
    }

    fn paper_4x4(name: &str, cm_for_tile: impl Fn(usize) -> usize) -> CgraConfig {
        let geometry = Geometry::new(4, 4);
        let tiles = (0..16)
            .map(|i| {
                // Paper numbering is 1-based; tiles 1-8 (rows 0 and 1) carry
                // the load/store units in all Table I configurations.
                let display = i + 1;
                let cm = cm_for_tile(display);
                if display <= 8 {
                    TileConfig::load_store(cm)
                } else {
                    TileConfig::compute(cm)
                }
            })
            .collect();
        CgraConfig::new(name, geometry, tiles).expect("paper configuration is valid")
    }

    /// Table I `HOM64`: all 16 tiles with a 64-word CM (1024 words total).
    pub fn hom64() -> CgraConfig {
        CgraConfig::paper_4x4("HOM64", |_| 64)
    }

    /// Table I `HOM32`: all 16 tiles with a 32-word CM (512 words total).
    pub fn hom32() -> CgraConfig {
        CgraConfig::paper_4x4("HOM32", |_| 32)
    }

    /// Table I `HET1`: tiles 1-4 CM-64, tiles 5-8 and 13-16 CM-32,
    /// tiles 9-12 CM-16 (576 words total).
    pub fn het1() -> CgraConfig {
        CgraConfig::paper_4x4("HET1", |t| match t {
            1..=4 => 64,
            5..=8 | 13..=16 => 32,
            _ => 16,
        })
    }

    /// Table I `HET2`: tiles 1-4 CM-64, tiles 5-8 CM-32, tiles 9-16 CM-16
    /// (512 words total).
    pub fn het2() -> CgraConfig {
        CgraConfig::paper_4x4("HET2", |t| match t {
            1..=4 => 64,
            5..=8 => 32,
            _ => 16,
        })
    }

    /// The four configurations evaluated in the paper, in Table I order.
    pub fn table_one() -> Vec<CgraConfig> {
        vec![
            CgraConfig::hom64(),
            CgraConfig::hom32(),
            CgraConfig::het1(),
            CgraConfig::het2(),
        ]
    }

    /// A 4x4 array with effectively unbounded context memories; used to
    /// study traversal strategies (Fig 5) independent of memory limits.
    pub fn unconstrained_4x4() -> CgraConfig {
        CgraConfig::paper_4x4("UNCONSTRAINED", |_| usize::MAX / 2)
    }

    /// Configuration name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The torus geometry.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Per-tile configuration.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the geometry.
    pub fn tile(&self, id: TileId) -> &TileConfig {
        &self.tiles[id.0]
    }

    /// All tiles with their ids, row-major.
    pub fn tiles(&self) -> impl Iterator<Item = (TileId, &TileConfig)> + '_ {
        self.tiles.iter().enumerate().map(|(i, t)| (TileId(i), t))
    }

    /// Ids of tiles with a load/store unit.
    pub fn lsu_tiles(&self) -> Vec<TileId> {
        self.tiles()
            .filter(|(_, t)| t.has_lsu)
            .map(|(i, _)| i)
            .collect()
    }

    /// Total context-memory capacity across all tiles (the "Total" column
    /// of Table I).
    pub fn total_cm_words(&self) -> usize {
        self.tiles.iter().map(|t| t.cm_words).sum()
    }
}

impl fmt::Display for CgraConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}x{}, {} CM words)",
            self.name,
            self.geometry.rows(),
            self.geometry.cols(),
            self.total_cm_words()
        )
    }
}

/// Builder for custom CGRA configurations (grid size, LSU placement, CM
/// sizes). Used by the design-space exploration example and tests.
///
/// ```
/// use cmam_arch::CgraConfig;
/// let cfg = CgraConfig::builder(2, 2)
///     .name("TINY")
///     .lsu_rows(1)
///     .uniform_cm(32)
///     .build()?;
/// assert_eq!(cfg.total_cm_words(), 128);
/// assert_eq!(cfg.lsu_tiles().len(), 2);
/// # Ok::<(), cmam_arch::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CgraConfigBuilder {
    name: String,
    geometry: Geometry,
    lsu_rows: usize,
    cm_words: Vec<usize>,
    rf_words: usize,
    crf_words: usize,
}

impl CgraConfigBuilder {
    /// Starts a builder for a `rows x cols` torus; by default the first two
    /// rows carry LSUs (as in the paper) and every CM has 64 words.
    pub fn new(rows: usize, cols: usize) -> Self {
        let geometry = Geometry::new(rows, cols);
        CgraConfigBuilder {
            name: "CUSTOM".to_owned(),
            geometry,
            lsu_rows: 2.min(rows),
            cm_words: vec![64; geometry.num_tiles()],
            rf_words: 8,
            crf_words: 16,
        }
    }

    /// Sets the configuration name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Number of leading rows whose tiles carry a load/store unit.
    pub fn lsu_rows(mut self, rows: usize) -> Self {
        self.lsu_rows = rows;
        self
    }

    /// Gives every tile the same context-memory size.
    pub fn uniform_cm(mut self, words: usize) -> Self {
        self.cm_words = vec![words; self.geometry.num_tiles()];
        self
    }

    /// Sets the context-memory size of one tile.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is out of range.
    pub fn cm_for(mut self, tile: TileId, words: usize) -> Self {
        self.cm_words[tile.0] = words;
        self
    }

    /// Sets the regular register file size for all tiles.
    pub fn rf_words(mut self, words: usize) -> Self {
        self.rf_words = words;
        self
    }

    /// Sets the constant register file size for all tiles.
    pub fn crf_words(mut self, words: usize) -> Self {
        self.crf_words = words;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// See [`CgraConfig::new`].
    pub fn build(self) -> Result<CgraConfig, ConfigError> {
        let cols = self.geometry.cols();
        let tiles = self
            .cm_words
            .iter()
            .enumerate()
            .map(|(i, &cm)| TileConfig {
                has_lsu: (i / cols) < self.lsu_rows,
                cm_words: cm,
                rf_words: self.rf_words,
                crf_words: self.crf_words,
            })
            .collect();
        CgraConfig::new(self.name, self.geometry, tiles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_totals() {
        assert_eq!(CgraConfig::hom64().total_cm_words(), 1024);
        assert_eq!(CgraConfig::hom32().total_cm_words(), 512);
        assert_eq!(CgraConfig::het1().total_cm_words(), 576);
        assert_eq!(CgraConfig::het2().total_cm_words(), 512);
    }

    #[test]
    fn lsu_tiles_are_one_through_eight() {
        for cfg in CgraConfig::table_one() {
            let lsus = cfg.lsu_tiles();
            assert_eq!(lsus.len(), 8, "{}", cfg.name());
            for t in lsus {
                assert!(t.display_index() <= 8);
            }
        }
    }

    #[test]
    fn het1_cm_distribution() {
        let c = CgraConfig::het1();
        assert_eq!(c.tile(TileId(0)).cm_words, 64); // tile 1
        assert_eq!(c.tile(TileId(4)).cm_words, 32); // tile 5
        assert_eq!(c.tile(TileId(8)).cm_words, 16); // tile 9
        assert_eq!(c.tile(TileId(12)).cm_words, 32); // tile 13
    }

    #[test]
    fn het2_cm_distribution() {
        let c = CgraConfig::het2();
        assert_eq!(c.tile(TileId(3)).cm_words, 64); // tile 4
        assert_eq!(c.tile(TileId(7)).cm_words, 32); // tile 8
        assert_eq!(c.tile(TileId(8)).cm_words, 16); // tile 9
        assert_eq!(c.tile(TileId(15)).cm_words, 16); // tile 16
    }

    #[test]
    fn builder_validation_catches_missing_lsu() {
        let err = CgraConfig::builder(2, 2).lsu_rows(0).build().unwrap_err();
        assert_eq!(err, ConfigError::NoLoadStoreTile);
    }

    #[test]
    fn builder_validation_catches_empty_cm() {
        let err = CgraConfig::builder(2, 2)
            .cm_for(TileId(3), 0)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::EmptyContextMemory(TileId(3)));
    }

    #[test]
    fn builder_validation_catches_empty_register_files() {
        let err = CgraConfig::builder(2, 2).rf_words(0).build().unwrap_err();
        assert_eq!(err, ConfigError::EmptyRegisterFile(TileId(0)));
        let err = CgraConfig::builder(2, 2).crf_words(0).build().unwrap_err();
        assert_eq!(err, ConfigError::EmptyConstantRegisterFile(TileId(0)));
    }

    #[test]
    fn new_rejects_wrong_tile_count() {
        let err =
            CgraConfig::new("X", Geometry::new(2, 2), vec![TileConfig::load_store(8)]).unwrap_err();
        assert!(matches!(err, ConfigError::TileCountMismatch { .. }));
    }

    #[test]
    fn display_is_informative() {
        let s = CgraConfig::hom64().to_string();
        assert!(s.contains("HOM64"));
        assert!(s.contains("1024"));
    }
}
