//! Mapper configuration: flow variants and tuning knobs.

use std::fmt;

/// CDFG traversal strategy (Section III-D.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Traversal {
    /// The basic flow's forward traversal (reverse post-order).
    #[default]
    Forward,
    /// The proposed weighted traversal: blocks in descending
    /// `Wbb = n(s) + Σ f_s`.
    Weighted,
}

/// The cumulative flow variants evaluated in the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowVariant {
    /// Basic mapping of \[1\]: forward traversal, no memory awareness.
    Basic,
    /// Basic + weighted traversal (the Fig 5 comparison).
    Weighted,
    /// + approximate context-memory aware pruning (Fig 6).
    Acmap,
    /// + exact context-memory aware pruning (Fig 7).
    Ecmap,
    /// + constraint-aware binding (Fig 8) — the full proposed flow.
    Cab,
}

impl FlowVariant {
    /// All variants in the paper's cumulative order.
    pub const ALL: [FlowVariant; 5] = [
        FlowVariant::Basic,
        FlowVariant::Weighted,
        FlowVariant::Acmap,
        FlowVariant::Ecmap,
        FlowVariant::Cab,
    ];

    /// The option set for this variant (with default tuning knobs).
    pub fn options(self) -> MapperOptions {
        let mut o = MapperOptions::basic();
        if self != FlowVariant::Basic {
            o.traversal = Traversal::Weighted;
        }
        o.acmap = matches!(
            self,
            FlowVariant::Acmap | FlowVariant::Ecmap | FlowVariant::Cab
        );
        o.ecmap = matches!(self, FlowVariant::Ecmap | FlowVariant::Cab);
        o.cab = self == FlowVariant::Cab;
        o
    }
}

impl fmt::Display for FlowVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FlowVariant::Basic => "basic",
            FlowVariant::Weighted => "basic+weighted",
            FlowVariant::Acmap => "basic+ACMAP",
            FlowVariant::Ecmap => "basic+ACMAP+ECMAP",
            FlowVariant::Cab => "basic+ACMAP+ECMAP+CAB",
        };
        f.write_str(s)
    }
}

/// All mapper knobs. Construct via [`MapperOptions::basic`],
/// [`MapperOptions::context_aware`] or [`FlowVariant::options`], then
/// adjust fields as needed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapperOptions {
    /// CDFG traversal strategy.
    pub traversal: Traversal,
    /// Enable approximate context-memory aware pruning (filters the
    /// candidate pool before the stochastic pruning).
    pub acmap: bool,
    /// Enable exact context-memory aware pruning (filters on the exact
    /// word lower bound after every binding round).
    pub ecmap: bool,
    /// Enable constraint-aware binding (blacklist full tiles during
    /// candidate generation and routing).
    pub cab: bool,
    /// Maximum surviving partial mappings after stochastic pruning.
    pub population: usize,
    /// Maximum candidate placements kept per partial mapping per
    /// operation.
    pub expansion: usize,
    /// Extra cycles beyond the earliest feasible tried for each placement.
    pub slack: usize,
    /// Hard bound on a block's schedule length.
    pub max_schedule: usize,
    /// Seed of the stochastic pruning RNG (the flow is deterministic for a
    /// fixed seed).
    pub seed: u64,
    /// Worker threads for the intra-search beam parallelism (candidate
    /// expansion and finalisation sharded across the partial-mapping
    /// population). `0` means *auto*: the `CMAM_THREADS` environment
    /// variable if set, else 1 (sequential). The mapping produced is
    /// **bit-identical** for every thread count — see
    /// [`Mapper::map`](crate::Mapper::map) — so this knob trades wall
    /// clock only; it is deliberately excluded from the engine's job
    /// fingerprints.
    pub threads: usize,
}

impl MapperOptions {
    /// The basic (context-memory *unaware*) flow of \[1\].
    pub fn basic() -> Self {
        MapperOptions {
            traversal: Traversal::Forward,
            acmap: false,
            ecmap: false,
            cab: false,
            population: 24,
            expansion: 8,
            slack: 3,
            max_schedule: 512,
            seed: 0xC64A,
            threads: 0,
        }
    }

    /// The full proposed flow: weighted traversal + ACMAP + ECMAP + CAB.
    pub fn context_aware() -> Self {
        FlowVariant::Cab.options()
    }

    /// Whether any context-memory constraint step is active (the mapper
    /// then refuses mappings that overflow a tile's context memory).
    pub fn memory_aware(&self) -> bool {
        self.acmap || self.ecmap || self.cab
    }

    /// Checks that these options can drive a search: the population,
    /// the expansion cut and the schedule bound must each be at least 1.
    ///
    /// # Errors
    ///
    /// A short reason naming the first zero knob.
    pub(crate) fn validate(&self) -> Result<(), &'static str> {
        if self.population == 0 {
            return Err("population must be at least 1");
        }
        if self.expansion == 0 {
            return Err("expansion must be at least 1");
        }
        if self.max_schedule == 0 {
            return Err("max_schedule must be at least 1");
        }
        Ok(())
    }

    /// Resolves [`threads`](MapperOptions::threads): an explicit value
    /// wins, `0` falls back to `CMAM_THREADS` (ignored unless it parses
    /// to a positive integer) and finally to 1.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        std::env::var("CMAM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(1)
    }
}

impl Default for MapperOptions {
    fn default() -> Self {
        MapperOptions::context_aware()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_are_cumulative() {
        let b = FlowVariant::Basic.options();
        assert_eq!(b.traversal, Traversal::Forward);
        assert!(!b.acmap && !b.ecmap && !b.cab);
        assert!(!b.memory_aware());

        let w = FlowVariant::Weighted.options();
        assert_eq!(w.traversal, Traversal::Weighted);
        assert!(!w.memory_aware());

        let a = FlowVariant::Acmap.options();
        assert!(a.acmap && !a.ecmap && !a.cab);

        let e = FlowVariant::Ecmap.options();
        assert!(e.acmap && e.ecmap && !e.cab);

        let c = FlowVariant::Cab.options();
        assert!(c.acmap && c.ecmap && c.cab);
        assert!(c.memory_aware());
    }

    #[test]
    fn default_is_full_flow() {
        assert_eq!(MapperOptions::default(), MapperOptions::context_aware());
    }

    #[test]
    fn display_labels() {
        assert_eq!(FlowVariant::Basic.to_string(), "basic");
        assert_eq!(FlowVariant::Cab.to_string(), "basic+ACMAP+ECMAP+CAB");
    }
}
