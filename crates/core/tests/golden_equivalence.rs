//! Golden-equivalence suite: for every kernel × configuration × flow
//! variant at the fixed default seed, the mapper must keep producing
//! **exactly** the `KernelMapping` it produced before the hot-loop
//! optimizations, and exactly the `MapStats` of the golden file.
//!
//! The golden file (`tests/golden/mapper.golden`) is the contract every
//! performance refactor must preserve. Its mapping digests, its error
//! lines and three of its nine counters (`attempts`,
//! `finalize_failures`, `escalations`) are those of the
//! pre-optimization mapper (the clone-per-candidate, HashMap-state
//! implementation): flat state, incremental ACMAP/ECMAP counters,
//! try/undo candidate expansion, bound-ordered candidate generation and
//! the population-wide expansion cut are all invisible in them. The other
//! six are effort counters. `candidates` and `rollbacks` count the trials
//! that actually run, so they moved when bound-ordered generation cut the
//! trials to about a quarter, and again when the population-wide cut
//! halved them. `peak_population`, `acmap_pruned`, `ecmap_pruned` and
//! `stochastic_pruned` count the generated pool, which that cut trims to
//! what stochastic pruning can keep. `flow.rs`'s
//! `bounded_generator_equals_exhaustive_*` tests prove both cuts exact.
//!
//! Regenerate (only when an *intentional* change lands) with:
//!
//! ```text
//! CMAM_REGEN_GOLDEN=1 cargo test -p cmam_core --test golden_equivalence
//! ```
//!
//! The regeneration prints to stderr, per counter column, how many lines
//! changed and the column's sum before and after, then how many mapping
//! digests and `err` lines changed: a change meant to move only effort
//! counters must report 0 for both.

use cmam_arch::CgraConfig;
use cmam_core::{FlowVariant, Mapper};
use cmam_isa::{KernelMapping, OperandSource};
use std::fmt::Write as _;
use std::path::PathBuf;

/// FNV-1a, the same construction the engine uses for content hashes
/// (reimplemented here because `cmam_core` must not depend on
/// `cmam_engine`).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
}

/// A canonical content hash of a mapping: every placement, route, operand
/// source, commit flag and symbol home. Two mappings with equal digests
/// are byte-identical for every downstream consumer (assembler,
/// simulator, reports).
fn mapping_digest(m: &KernelMapping) -> u64 {
    let mut h = Fnv::new();
    h.usize(m.blocks.len());
    for b in &m.blocks {
        h.usize(b.length);
        h.usize(b.ops.len());
        for o in &b.ops {
            h.u64(o.op.0 as u64);
            h.usize(o.tile.0);
            h.usize(o.cycle);
            h.u64(o.direct_symbol_write as u64);
            h.usize(o.operands.len());
            for s in &o.operands {
                match s {
                    OperandSource::Const(c) => {
                        h.u64(1);
                        h.u64(*c as u32 as u64);
                    }
                    OperandSource::Rf { tile, value } => {
                        h.u64(2);
                        h.usize(tile.0);
                        h.u64(value.0 as u64);
                    }
                }
            }
        }
        h.usize(b.moves.len());
        for mv in &b.moves {
            h.u64(mv.value.0 as u64);
            h.usize(mv.src_tile.0);
            h.usize(mv.tile.0);
            h.usize(mv.cycle);
            match mv.commit_symbol {
                Some(s) => {
                    h.u64(1);
                    h.u64(s.0 as u64);
                }
                None => h.u64(0),
            }
        }
    }
    // Homes sorted by symbol id: stable across map-representation changes.
    let mut homes: Vec<(u32, usize)> = m.symbol_homes.iter().map(|(s, t)| (s.0, t.0)).collect();
    homes.sort_unstable();
    h.usize(homes.len());
    for (s, t) in homes {
        h.u64(s as u64);
        h.usize(t);
    }
    h.0
}

fn configs() -> Vec<CgraConfig> {
    // The smoke configurations (the unconstrained baseline plus both
    // heterogeneous constrained targets), and two uniformly tight
    // targets chosen so that the ACMAP/ECMAP filters actually drop
    // candidates and some searches fail — covering the pruning counters,
    // the finalize-failure path and the error formatting, which the
    // smoke configurations never trigger.
    vec![
        CgraConfig::hom64(),
        CgraConfig::het1(),
        CgraConfig::het2(),
        CgraConfig::builder(4, 4)
            .uniform_cm(16)
            .name("TIGHT16")
            .build()
            .expect("valid config"),
        CgraConfig::builder(4, 4)
            .uniform_cm(24)
            .name("TIGHT24")
            .build()
            .expect("valid config"),
    ]
}

/// One observed line of the suite, in the golden file's format:
///
/// `<kernel> <variant> <config> ok <mapping-hash> <9 stat counters>`
/// `<kernel> <variant> <config> err <error message with spaces escaped>`
fn observe(kernel: &str, variant: FlowVariant, config: &CgraConfig) -> String {
    let spec = cmam_kernels::all()
        .into_iter()
        .find(|s| s.name == kernel)
        .expect("known kernel");
    let mapper = Mapper::new(variant.options());
    match mapper.map(&spec.cdfg, config) {
        Ok(r) => {
            let s = &r.stats;
            // Every counter, `rollbacks` (the last column) included:
            // `RunOutcome::content_digest` hashes all of them, so a
            // mapper change that moves any one changes every cached
            // outcome's digest.
            format!(
                "{kernel} {variant} {} ok {:016x} {} {} {} {} {} {} {} {} {}",
                config.name(),
                mapping_digest(&r.mapping),
                s.candidates,
                s.attempts,
                s.acmap_pruned,
                s.ecmap_pruned,
                s.stochastic_pruned,
                s.finalize_failures,
                s.escalations,
                s.peak_population,
                s.rollbacks,
            )
        }
        Err(e) => format!(
            "{kernel} {variant} {} err {}",
            config.name(),
            e.to_string().replace(' ', "_")
        ),
    }
}

/// The nine counter columns of an `ok` line, in order.
const COLUMNS: [&str; 9] = [
    "candidates",
    "attempts",
    "acmap_pruned",
    "ecmap_pruned",
    "stochastic_pruned",
    "finalize_failures",
    "escalations",
    "peak_population",
    "rollbacks",
];

/// An `ok` line's mapping digest and counters; `None` for an `err` line.
fn ok_fields(line: &str) -> Option<(&str, Vec<&str>)> {
    let tokens: Vec<&str> = line.split(' ').collect();
    let at = tokens.len().checked_sub(COLUMNS.len() + 2)?;
    (tokens[at] == "ok").then(|| (tokens[at + 1], tokens[at + 2..].to_vec()))
}

/// What a regeneration changes, line by line: per counter column the
/// `ok` lines whose value moved and the column's sum before and after,
/// then the mapping digests and `err` lines that changed. A mapping
/// change shows in the last line even when only counters were meant to
/// move.
fn regen_summary(old: &str, new: &str) -> String {
    let (old, new): (Vec<&str>, Vec<&str>) = (old.lines().collect(), new.lines().collect());
    if old.len() != new.len() {
        return format!(
            "suite shape changed: {} lines, was {}\n",
            new.len(),
            old.len()
        );
    }
    let mut moved = [0usize; COLUMNS.len()];
    let mut sums = [(0u64, 0u64); COLUMNS.len()];
    let (mut digests, mut errs) = (0, 0);
    for (o, n) in old.iter().zip(&new) {
        let (Some((od, oc)), Some((nd, nc))) = (ok_fields(o), ok_fields(n)) else {
            errs += usize::from(o != n);
            continue;
        };
        digests += usize::from(od != nd);
        for (c, (a, b)) in oc.iter().zip(&nc).enumerate() {
            moved[c] += usize::from(a != b);
            sums[c].0 += a.parse::<u64>().unwrap_or(0);
            sums[c].1 += b.parse::<u64>().unwrap_or(0);
        }
    }
    let mut out = String::new();
    for (c, name) in COLUMNS.iter().enumerate() {
        let (a, b) = sums[c];
        let _ = writeln!(
            out,
            "{name}: {} of {} lines changed, sum {a} -> {b}",
            moved[c],
            new.len()
        );
    }
    let _ = writeln!(
        out,
        "mapping digests changed: {digests}; err lines changed: {errs}"
    );
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("mapper.golden")
}

fn run_suite() -> String {
    let kernels: Vec<String> = cmam_kernels::all().iter().map(|s| s.name.clone()).collect();
    let mut out = String::new();
    for kernel in &kernels {
        for config in &configs() {
            for variant in FlowVariant::ALL {
                let _ = writeln!(out, "{}", observe(kernel, variant, config));
            }
        }
    }
    out
}

/// The observability layer's zero-interference contract: running the
/// whole 175-job suite with span recording force-enabled must produce
/// byte-identical results to the golden file. Recording happens purely
/// at phase boundaries, so the search — every candidate, every counter —
/// cannot be perturbed by it. (This test shares the process with
/// `mapper_output_matches_golden`, which therefore may also run with
/// tracing on; both compare against the same golden bytes, so tracing
/// on/off equivalence is exactly what the pair pins.)
#[test]
fn mapper_output_matches_golden_with_tracing_enabled() {
    if std::env::var_os("CMAM_REGEN_GOLDEN").is_some() {
        return; // the plain test regenerates; nothing to compare yet
    }
    cmam_obs::enable_tracing();
    let golden = std::fs::read_to_string(golden_path()).expect("golden file present");
    let observed = run_suite();
    assert!(
        cmam_obs::trace::events_recorded() > 0,
        "tracing was supposed to be recording during this run"
    );
    assert_eq!(
        golden, observed,
        "suite output changed when span recording was enabled"
    );
}

#[test]
fn mapper_output_matches_golden() {
    let path = golden_path();
    let observed = run_suite();
    if std::env::var_os("CMAM_REGEN_GOLDEN").is_some() {
        if let Ok(old) = std::fs::read_to_string(&path) {
            // Straight to stderr: the test harness captures `eprint!`.
            let summary = regen_summary(&old, &observed);
            let _ = std::io::Write::write_all(&mut std::io::stderr(), summary.as_bytes());
        }
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        std::fs::write(&path, &observed).expect("write golden");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate it with \
             CMAM_REGEN_GOLDEN=1 cargo test -p cmam_core --test golden_equivalence",
            path.display()
        )
    });
    let golden_lines: Vec<&str> = golden.lines().collect();
    let observed_lines: Vec<&str> = observed.lines().collect();
    assert_eq!(
        golden_lines.len(),
        observed_lines.len(),
        "suite shape changed: {} golden lines vs {} observed",
        golden_lines.len(),
        observed_lines.len()
    );
    let mut diffs = Vec::new();
    for (g, o) in golden_lines.iter().zip(&observed_lines) {
        if g != o {
            diffs.push(format!("  golden:   {g}\n  observed: {o}"));
        }
    }
    assert!(
        diffs.is_empty(),
        "{} of {} jobs diverged from the golden mapper:\n{}",
        diffs.len(),
        golden_lines.len(),
        diffs.join("\n")
    );
}
