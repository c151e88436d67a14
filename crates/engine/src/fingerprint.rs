//! Stable content hashing for job keys and outcome digests.
//!
//! The engine addresses every compilation job by a content hash of its
//! inputs `(Cdfg, CgraConfig, MapperOptions)`. [`std::hash::Hash`] is not
//! used because its output is not guaranteed stable across Rust releases,
//! while the hash here names on-disk cache artifacts that must survive
//! recompilation. The implementation is 64-bit FNV-1a, which is stable by
//! construction, dependency-free, and fast enough for graph-sized inputs.

use cmam_arch::{CgraConfig, Geometry, TileConfig};
use cmam_cdfg::{Cdfg, Terminator, ValueKind};
use cmam_core::{MapperOptions, Traversal};
use cmam_isa::program::BinTerminator;
use cmam_isa::{CgraBinary, Instr, Operand};
use cmam_kernels::KernelSpec;
use cmam_sim::SimStats;

/// Bumped whenever the fingerprint coverage or the on-disk artifact format
/// changes, so stale cache entries are never misread.
///
/// v2: `MapStats` gained `peak_population` and `rollbacks` (the `map`
/// artifact line carries 9 counters instead of 7).
///
/// v3: the artifact format switched from line-oriented text to the
/// length-prefixed binary layout of [`crate::cache`]; pre-v3 text
/// artifacts are clean misses.
///
/// v4: `RunOutcome` gained per-phase wall times (`assemble_time`,
/// `sim_time`) and `SimStats::block_execs` became a dense per-block
/// vector (serialized as a plain `u64` list in block order instead of
/// sorted `(block, count)` pairs).
///
/// v5: artifacts gained a trailing FNV-64 integrity checksum (any
/// single-bit corruption is now a provable miss instead of a possible
/// misparse) and failures carry their recovery fields (`retriable`,
/// `attempts`) plus the `Panic` stage tag.
///
/// Still v5: reports gained their per-tile register and constant needs.
/// The version salts every job key and content digest, and every layout
/// change ships with a source change, whose [`TOOLCHAIN_HASH`] already
/// keys the older artifacts away.
pub const FORMAT_VERSION: u32 = 5;

/// Build-time hash of every toolchain source file whose code influences a
/// job outcome (mapper, assembler, simulator, kernels, arch, and the
/// engine itself — see `build.rs`). Folded into every job key so that
/// editing the toolchain invalidates the on-disk cache: without this, a
/// rebuilt `smoke` would happily answer "did my mapper change help?" from
/// artifacts produced by the *old* mapper.
pub const TOOLCHAIN_HASH: &str = env!("CMAM_TOOLCHAIN_HASH");

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^k` for `k` in `0..=8`: the FNV-1a step of a zero byte is a
/// bare multiply by the prime, so `k` zero bytes fold into one multiply.
const PRIME_POW: [u64; 9] = {
    let mut t = [1u64; 9];
    let mut k = 1;
    while k < t.len() {
        t[k] = t[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    t
};

/// A 64-bit FNV-1a hasher with typed `feed` helpers.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A fresh hasher, salted with [`FORMAT_VERSION`] and
    /// [`TOOLCHAIN_HASH`].
    pub fn new() -> Self {
        let mut h = Fnv64(FNV_OFFSET);
        h.feed_u64(FORMAT_VERSION as u64);
        h.feed_bytes(TOOLCHAIN_HASH.as_bytes());
        h
    }

    /// Absorbs raw bytes.
    pub fn feed_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` in little-endian byte order.
    ///
    /// The result equals [`Fnv64::feed_bytes`] over `v.to_le_bytes()` for
    /// every `v`. The zero high bytes of a small value (ids, lengths and
    /// counts, which fill most keys) are not stepped one by one: their
    /// steps are bare multiplies by the prime, folded into one multiply
    /// by the matching prime power.
    pub fn feed_u64(&mut self, v: u64) {
        let significant = 8 - (v.leading_zeros() / 8) as usize;
        let mut h = self.0;
        for &b in &v.to_le_bytes()[..significant] {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self.0 = h.wrapping_mul(PRIME_POW[8 - significant]);
    }

    /// Absorbs a 32-bit memory word widened to `u64`, exactly as
    /// `feed_u64(w as u32 as u64)`: the four low bytes step as usual, the
    /// four zero high bytes fold into one multiply. Branch-free, so a
    /// memory image hashes at a steady five multiplies per word.
    #[inline(always)]
    pub(crate) fn feed_word(&mut self, w: i32) {
        let mut h = self.0;
        for b in (w as u32).to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self.0 = h.wrapping_mul(PRIME_POW[4]);
    }

    /// Absorbs a `usize` (widened so 32- and 64-bit hosts agree).
    pub fn feed_usize(&mut self, v: usize) {
        self.feed_u64(v as u64);
    }

    /// Absorbs an `i64` (two's-complement bit pattern).
    pub fn feed_i64(&mut self, v: i64) {
        self.feed_u64(v as u64);
    }

    /// Absorbs a length-prefixed string.
    pub fn feed_str(&mut self, s: &str) {
        self.feed_usize(s.len());
        self.feed_bytes(s.as_bytes());
    }

    /// Absorbs a boolean.
    pub fn feed_bool(&mut self, v: bool) {
        self.feed_u64(v as u64);
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// Types that can absorb themselves into a [`Fnv64`] content hash.
///
/// Implementations must cover every field that influences the outcome of a
/// compilation job; two inputs with equal fingerprints are treated as the
/// same job and deduplicated.
pub trait Fingerprint {
    /// Feeds `self` into the hasher.
    fn fingerprint(&self, h: &mut Fnv64);

    /// Convenience: hashes `self` alone.
    fn content_hash(&self) -> u64 {
        let mut h = Fnv64::new();
        self.fingerprint(&mut h);
        h.finish()
    }
}

impl Fingerprint for Traversal {
    fn fingerprint(&self, h: &mut Fnv64) {
        h.feed_u64(match self {
            Traversal::Forward => 0,
            Traversal::Weighted => 1,
        });
    }
}

impl Fingerprint for MapperOptions {
    fn fingerprint(&self, h: &mut Fnv64) {
        self.traversal.fingerprint(h);
        h.feed_bool(self.acmap);
        h.feed_bool(self.ecmap);
        h.feed_bool(self.cab);
        h.feed_usize(self.population);
        h.feed_usize(self.expansion);
        h.feed_usize(self.slack);
        h.feed_usize(self.max_schedule);
        h.feed_u64(self.seed);
        // `threads` is deliberately NOT hashed: the mapper ignores it,
        // so jobs differing only in it are the same job.
    }
}

impl Fingerprint for Geometry {
    fn fingerprint(&self, h: &mut Fnv64) {
        h.feed_usize(self.rows());
        h.feed_usize(self.cols());
    }
}

impl Fingerprint for TileConfig {
    fn fingerprint(&self, h: &mut Fnv64) {
        h.feed_bool(self.has_lsu);
        h.feed_usize(self.cm_words);
        h.feed_usize(self.rf_words);
        h.feed_usize(self.crf_words);
    }
}

impl Fingerprint for CgraConfig {
    fn fingerprint(&self, h: &mut Fnv64) {
        // The name is part of the identity on purpose: experiment tables
        // key rows by configuration name, and a renamed config should not
        // silently alias a cached artifact produced under another label.
        h.feed_str(self.name());
        self.geometry().fingerprint(h);
        for (_, tile) in self.tiles() {
            tile.fingerprint(h);
        }
    }
}

impl Fingerprint for Cdfg {
    fn fingerprint(&self, h: &mut Fnv64) {
        h.feed_str(self.name());
        h.feed_u64(self.entry().0 as u64);
        h.feed_usize(self.num_blocks());
        for b in self.block_ids() {
            let block = self.block(b);
            h.feed_u64(b.0 as u64);
            h.feed_usize(block.ops.len());
            for &op_id in &block.ops {
                let op = self.op(op_id);
                h.feed_u64(op.opcode as u64);
                h.feed_usize(op.args.len());
                for a in &op.args {
                    h.feed_u64(a.0 as u64);
                }
                match op.result {
                    Some(v) => h.feed_i64(v.0 as i64),
                    None => h.feed_i64(-1),
                }
                match op.writes_symbol {
                    Some(s) => h.feed_i64(s.0 as i64),
                    None => h.feed_i64(-1),
                }
                match op.alias {
                    Some(a) => h.feed_i64(a.0 as i64),
                    None => h.feed_i64(-1),
                }
            }
            match block.terminator {
                None => h.feed_u64(0),
                Some(Terminator::Jump(t)) => {
                    h.feed_u64(1);
                    h.feed_u64(t.0 as u64);
                }
                Some(Terminator::Branch {
                    op,
                    taken,
                    fallthrough,
                }) => {
                    h.feed_u64(2);
                    h.feed_u64(op.0 as u64);
                    h.feed_u64(taken.0 as u64);
                    h.feed_u64(fallthrough.0 as u64);
                }
                Some(Terminator::Return) => h.feed_u64(3),
            }
            // Per-block data nodes: constants feed the CRF allocation,
            // symbol uses feed the home-tile routing, so both are inputs.
            for v in self.dfg(b).values() {
                h.feed_u64(v.id.0 as u64);
                match v.kind {
                    ValueKind::Const(c) => {
                        h.feed_u64(0);
                        h.feed_i64(c as i64);
                    }
                    ValueKind::SymbolUse(s) => {
                        h.feed_u64(1);
                        h.feed_u64(s.0 as u64);
                    }
                    ValueKind::Def(o) => {
                        h.feed_u64(2);
                        h.feed_u64(o.0 as u64);
                    }
                }
            }
        }
        h.feed_usize(self.num_symbols());
        for (_, sym) in self.symbols() {
            h.feed_str(&sym.name);
        }
    }
}

impl Fingerprint for Instr {
    fn fingerprint(&self, h: &mut Fnv64) {
        match self {
            Instr::Pnop { cycles } => h.feed_u64(u64::from(*cycles) << 8),
            Instr::Exec { opcode, dst, srcs } => {
                h.feed_u64(1 + ((*opcode as u64) << 8));
                h.feed_i64(dst.map_or(-1, i64::from));
                h.feed_usize(srcs.len());
                for src in srcs {
                    let (tag, reg) = match *src {
                        Operand::Crf(i) => (0, i),
                        Operand::Reg(i) => (1, i),
                        Operand::Neighbor(d, i) => (2 + d as u64, i),
                    };
                    h.feed_u64(tag << 8 | u64::from(reg));
                }
            }
        }
    }
}

impl Fingerprint for CgraBinary {
    fn fingerprint(&self, h: &mut Fnv64) {
        h.feed_str(&self.name);
        h.feed_usize(self.tiles.len());
        for tile in &self.tiles {
            h.feed_usize(tile.blocks.len());
            for block in &tile.blocks {
                h.feed_usize(block.len());
                block.iter().for_each(|word| word.fingerprint(h));
            }
        }
        h.feed_usize(self.crf.len());
        for crf in &self.crf {
            h.feed_usize(crf.len());
            crf.iter().for_each(|&c| h.feed_i64(i64::from(c)));
        }
        h.feed_usize(self.block_lengths.len());
        self.block_lengths.iter().for_each(|&len| h.feed_usize(len));
        h.feed_usize(self.terminators.len());
        for t in &self.terminators {
            let (tag, a, b) = match *t {
                BinTerminator::Jump(to) => (0, to, 0),
                BinTerminator::Branch { taken, fallthrough } => (1, taken, fallthrough),
                BinTerminator::Return => (2, 0, 0),
            };
            h.feed_u64(tag << 32 | u64::from(a));
            h.feed_u64(u64::from(b));
        }
        h.feed_u64(u64::from(self.entry));
    }
}

/// Every counter: the totals, the per-block execution counts and the 11
/// per-tile counters, in declaration order.
impl Fingerprint for SimStats {
    fn fingerprint(&self, h: &mut Fnv64) {
        h.feed_u64(self.cycles);
        h.feed_u64(self.stall_cycles);
        // Dense per-block counts: iteration order is the block order.
        h.feed_usize(self.block_execs.len());
        self.block_execs.iter().for_each(|&n| h.feed_u64(n));
        for t in &self.tiles {
            for v in [
                t.active_cycles,
                t.idle_cycles,
                t.cm_fetches,
                t.alu_ops,
                t.moves,
                t.loads,
                t.stores,
                t.rf_reads,
                t.neighbor_reads,
                t.crf_reads,
                t.rf_writes,
            ] {
                h.feed_u64(v);
            }
        }
    }
}

impl Fingerprint for KernelSpec {
    fn fingerprint(&self, h: &mut Fnv64) {
        h.feed_str(&self.name);
        self.cdfg.fingerprint(h);
        // The memory image and expected outputs are simulation inputs: a
        // kernel re-instanced with different data is a different job.
        h.feed_usize(self.mem.len());
        for &w in &self.mem {
            h.feed_i64(w as i64);
        }
        h.feed_usize(self.out.start);
        h.feed_usize(self.out.end);
        h.feed_usize(self.expected.len());
        for &w in &self.expected {
            h.feed_i64(w as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmam_cdfg::{BlockId, GenParams, SplitMix64, Value};
    use cmam_core::FlowVariant;

    #[test]
    fn folded_feed_u64_equals_bytewise_fnv() {
        let mut values = vec![0, u64::MAX];
        for k in 0..8 {
            let p = 1u64 << (8 * k);
            values.extend([p - 1, p, p + 1]);
        }
        let mut rng = SplitMix64::from_state(0x5eed);
        for _ in 0..10_000 {
            let r = rng.next_u64();
            // Shifted by a seeded amount, so every significant-byte
            // count occurs, not only full-width values.
            values.push(r >> rng.below(64));
        }
        // One running chain, so every value starts from a fresh state;
        // `feed_bytes` is byte-wise FNV-1a, one step per byte.
        let mut folded = Fnv64::new();
        let mut bytewise = Fnv64::new();
        for &v in &values {
            folded.feed_u64(v);
            bytewise.feed_bytes(&v.to_le_bytes());
            assert_eq!(folded.finish(), bytewise.finish(), "{v:#x}");
        }
    }

    #[test]
    fn feed_word_equals_bytewise_fnv_of_the_widened_word() {
        let mut words = vec![0, 1, -1, 255, 256, -256, i32::MIN, i32::MAX];
        let mut rng = SplitMix64::from_state(7);
        words.extend((0..1000).map(|_| rng.next_u64() as i32));
        let mut word = Fnv64::new();
        let mut bytewise = Fnv64::new();
        for w in words {
            word.feed_word(w);
            bytewise.feed_bytes(&(w as u32 as u64).to_le_bytes());
            assert_eq!(word.finish(), bytewise.finish(), "{w}");
        }
    }

    /// `Dfg::values` with the hash-set dedup it had before the dense
    /// table: first-appearance order over operands, then results.
    fn values_by_hash_set(cdfg: &Cdfg, b: BlockId) -> Vec<Value> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for op in cdfg.dfg(b).ops() {
            for &a in &op.args {
                if seen.insert(a) {
                    out.push(*cdfg.value(a));
                }
            }
            if let Some(r) = op.result {
                if seen.insert(r) {
                    out.push(*cdfg.value(r));
                }
            }
        }
        out
    }

    #[test]
    fn dense_values_walk_equals_the_hash_set_walk() {
        let mut specs = cmam_kernels::all();
        for name in GenParams::PROFILES {
            let params = GenParams::profile(name).expect("known profile");
            specs.push(cmam_kernels::generated_spec(&params, 0x5eed));
        }
        let mut walked = 0;
        for spec in &specs {
            for b in spec.cdfg.block_ids() {
                let dense: Vec<Value> = spec.cdfg.dfg(b).values().into_iter().copied().collect();
                assert_eq!(dense, values_by_hash_set(&spec.cdfg, b), "{}", spec.name);
                walked += dense.len();
            }
        }
        assert!(walked > 1000, "only {walked} values walked");
    }

    #[test]
    fn fnv_is_stable_and_order_sensitive() {
        let mut a = Fnv64::new();
        a.feed_str("ab");
        let mut b = Fnv64::new();
        b.feed_str("ab");
        assert_eq!(a.finish(), b.finish());
        let mut c = Fnv64::new();
        c.feed_str("ba");
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn options_hash_separates_variants() {
        let hashes: Vec<u64> = FlowVariant::ALL
            .iter()
            .map(|v| v.options().content_hash())
            .collect();
        for i in 0..hashes.len() {
            for j in (i + 1)..hashes.len() {
                assert_ne!(hashes[i], hashes[j], "variants {i} and {j} collide");
            }
        }
    }

    #[test]
    fn config_hash_separates_table_one() {
        let hashes: Vec<u64> = CgraConfig::table_one()
            .iter()
            .map(Fingerprint::content_hash)
            .collect();
        for i in 0..hashes.len() {
            for j in (i + 1)..hashes.len() {
                assert_ne!(hashes[i], hashes[j]);
            }
        }
    }

    #[test]
    fn kernel_hashes_are_distinct_and_reproducible() {
        let first: Vec<u64> = cmam_kernels::all()
            .iter()
            .map(Fingerprint::content_hash)
            .collect();
        let second: Vec<u64> = cmam_kernels::all()
            .iter()
            .map(Fingerprint::content_hash)
            .collect();
        assert_eq!(first, second, "hashing must be a pure function");
        for i in 0..first.len() {
            for j in (i + 1)..first.len() {
                assert_ne!(first[i], first[j]);
            }
        }
    }
}
