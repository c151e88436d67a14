//! Seeded, parameterised CDFG workload generation.
//!
//! Every scaling and correctness claim in this repository used to rest on
//! the seven hand-written kernels. This module turns the pipeline into a
//! differentially-testable system over *hundreds* of structurally diverse
//! kernels: [`generate`] deterministically derives a complete kernel — a
//! [`Cdfg`] **valid by construction** (it always passes [`Cdfg::validate`])
//! plus an input-memory image — from a `(GenParams, seed)` pair.
//!
//! Design constraints, all guaranteed by construction:
//!
//! * **Termination.** Control flow is built from structured regions
//!   (straight-line blocks, if/else diamonds, counted loops with a private
//!   induction symbol and a bounded trip count), so every generated kernel
//!   terminates in the interpreter and the simulator.
//! * **Memory safety & honest aliasing.** `mem_words` is rounded up to a
//!   power of two and every data-dependent address is masked into its
//!   alias class's private region (`heap0` owns the first quarter of the
//!   image, `heap1` the second, the final `out` store the last word), so
//!   accesses are always in bounds *and* distinct alias classes really
//!   never touch the same word — the class annotation licenses the
//!   scheduler to reorder across classes, so a dishonest one would make
//!   the generated kernel's semantics schedule-dependent.
//! * **Determinism.** Generation consumes a private splitmix64 stream and
//!   touches no hash-map iteration order, clocks or ambient state: the same
//!   `(GenParams, seed)` yields a byte-identical kernel on every thread
//!   count, every run, every process (pinned by the generator-determinism
//!   suite).
//!
//! The [`GenParams`] knob set spans the axes the differential harness
//! sweeps: op count, op mix (including load/store density), block count
//! and branch shape, fan-out/depth profile, and symbol pressure. Named
//! [`GenParams::profile`]s pin interesting corners — including the
//! memory-intensive and edge shapes the seven paper kernels never hit
//! (single-block, load/store-only, maximum fan-out, zero-symbol).

use crate::builder::CdfgBuilder;
use crate::cdfg::Cdfg;
use crate::op::Opcode;
use crate::value::{SymbolId, ValueId};

/// How operand reuse picks among a block's existing results — the
/// fan-out / depth ("mobility") profile of the generated data flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fanout {
    /// Pick uniformly among all earlier results: wide graphs, moderate
    /// fan-out, high mobility.
    Uniform,
    /// Pick among the few most recent results: deep dependence chains,
    /// low mobility (the shapes exact-mapping work stresses).
    Recent,
    /// Always pick the block's first result: one value feeding almost
    /// every consumer — the maximum-fan-out edge shape.
    Focus,
}

/// Generator knobs. Construct via [`GenParams::default`] or a named
/// [`GenParams::profile`], then adjust fields; [`generate`] sanitises the
/// values (percentages clamped, `mem_words` rounded to a power of two,
/// zero counts bumped to one) so any knob setting produces a valid kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenParams {
    /// Short label folded into the kernel name (`gen-<label>-<seed>`),
    /// usually the profile name.
    pub label: String,
    /// Target number of basic blocks (regions are appended until this is
    /// reached; diamonds and loops add several blocks at once).
    pub blocks: usize,
    /// Target operation count per block body (each body samples around
    /// this value).
    pub ops_per_block: usize,
    /// Percentage of region choices that become a counted loop.
    pub loop_pct: u32,
    /// Percentage of region choices that become an if/else diamond.
    pub diamond_pct: u32,
    /// Percentage of op slots that become a `load` (with generated
    /// address computation).
    pub load_pct: u32,
    /// Percentage of op slots that become a `store`.
    pub store_pct: u32,
    /// Number of cross-block symbol variables (the register-file /
    /// home-tile pressure knob). Loop induction counters are extra.
    pub symbols: usize,
    /// Percentage chance, per result-producing op, of latching the result
    /// into a not-yet-written symbol at block exit.
    pub sym_write_pct: u32,
    /// Percentage chance an operand reuses an earlier result of the block
    /// (the rest are fresh constants or symbol reads).
    pub reuse_pct: u32,
    /// Fan-out / depth profile of operand reuse.
    pub fanout: Fanout,
    /// Loop trip counts are drawn from `1..=max_trip`.
    pub max_trip: u32,
    /// Data-memory size in words (rounded up to a power of two, min 8).
    pub mem_words: usize,
    /// Constants are drawn from `-const_range..=const_range`.
    pub const_range: i32,
}

impl Default for GenParams {
    /// A mid-size mixed kernel in the ballpark of the paper's seven.
    fn default() -> Self {
        GenParams {
            label: "default".to_owned(),
            blocks: 5,
            ops_per_block: 10,
            loop_pct: 30,
            diamond_pct: 30,
            load_pct: 15,
            store_pct: 10,
            symbols: 4,
            sym_write_pct: 35,
            reuse_pct: 70,
            fanout: Fanout::Uniform,
            max_trip: 6,
            mem_words: 64,
            const_range: 32,
        }
    }
}

impl GenParams {
    /// Every named profile, in the order `mixed` sweeps cycle through.
    pub const PROFILES: [&'static str; 9] = [
        "default",
        "memory_bound",
        "deep",
        "branchy",
        "wide",
        "single_block",
        "load_store_only",
        "max_fanout",
        "zero_symbol",
    ];

    /// A named parameter profile, or `None` for an unknown name.
    ///
    /// The profiles cover the axes the differential harness cares about:
    /// `memory_bound` (the load/store-heavy shapes of the memory-bound
    /// CGRA literature), `deep` (long dependence chains, low mobility),
    /// `branchy` (control-heavy), `wide` (flat, parallel data flow), and
    /// the four edge shapes the seven hand-written kernels never produce:
    /// `single_block`, `load_store_only`, `max_fanout`, `zero_symbol`.
    pub fn profile(name: &str) -> Option<GenParams> {
        let mut p = GenParams {
            label: name.to_owned(),
            ..GenParams::default()
        };
        match name {
            "default" => {}
            "memory_bound" => {
                p.load_pct = 35;
                p.store_pct = 25;
                p.ops_per_block = 12;
            }
            "deep" => {
                p.blocks = 3;
                p.ops_per_block = 18;
                p.reuse_pct = 90;
                p.fanout = Fanout::Recent;
                p.load_pct = 8;
                p.store_pct = 5;
            }
            "branchy" => {
                p.blocks = 10;
                p.ops_per_block = 4;
                p.diamond_pct = 55;
                p.loop_pct = 25;
            }
            "wide" => {
                p.blocks = 2;
                p.ops_per_block = 20;
                p.reuse_pct = 45;
                p.fanout = Fanout::Uniform;
            }
            "single_block" => {
                p.blocks = 1;
                p.ops_per_block = 16;
            }
            "load_store_only" => {
                p.load_pct = 50;
                p.store_pct = 50;
                p.ops_per_block = 12;
                p.symbols = 1;
                p.sym_write_pct = 0;
            }
            "max_fanout" => {
                p.blocks = 2;
                p.ops_per_block = 16;
                p.reuse_pct = 85;
                p.fanout = Fanout::Focus;
            }
            "zero_symbol" => {
                p.symbols = 0;
                p.sym_write_pct = 0;
                p.loop_pct = 0; // loops need induction symbols
                p.diamond_pct = 45;
            }
            _ => return None,
        }
        Some(p)
    }

    /// The same parameters with every knob forced into its valid range
    /// (what [`generate`] actually consumes).
    pub fn sanitized(&self) -> GenParams {
        let mut p = self.clone();
        p.blocks = p.blocks.clamp(1, 64);
        p.ops_per_block = p.ops_per_block.clamp(1, 48);
        p.loop_pct = p.loop_pct.min(100);
        p.diamond_pct = p.diamond_pct.min(100 - p.loop_pct.min(100));
        p.load_pct = p.load_pct.min(100);
        p.store_pct = p.store_pct.min(100 - p.load_pct);
        p.symbols = p.symbols.min(16);
        p.sym_write_pct = p.sym_write_pct.min(100);
        p.reuse_pct = p.reuse_pct.min(100);
        p.max_trip = p.max_trip.clamp(1, 32);
        p.mem_words = p.mem_words.clamp(8, 1 << 16).next_power_of_two();
        p.const_range = p.const_range.clamp(1, 1 << 20);
        p
    }
}

/// A complete generated kernel: the CDFG plus the input-memory image it
/// is meant to execute over. The expected output is *not* carried here —
/// the reference interpreter defines it (see `cmam_kernels::generated`).
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedKernel {
    /// Kernel name: `gen-<label>-<seed as 16 hex digits>`.
    pub name: String,
    /// The generated CDFG (always passes [`Cdfg::validate`]).
    pub cdfg: Cdfg,
    /// Generator-produced initial data-memory image (`mem_words` long).
    pub mem: Vec<i32>,
}

/// Private splitmix64 stream: dependency-free, stable across platforms.
struct Rng(u64);

/// splitmix64's state increment.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// splitmix64's output function of a state.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    fn new(seed: u64) -> Self {
        // Pre-mix so seed 0 and seed 1 diverge immediately.
        let mut r = Rng(seed ^ GAMMA);
        r.next();
        r
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GAMMA);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// True with probability `pct`/100.
    fn pct(&mut self, pct: u32) -> bool {
        self.below(100) < pct as u64
    }

    /// Uniform in `-range..=range`.
    fn imm(&mut self, range: i32) -> i32 {
        (self.below(2 * range as u64 + 1) as i64 - range as i64) as i32
    }
}

/// `a % d` for a divisor fixed across many numerators, without a
/// hardware divide (Granlund and Montgomery, "Division by invariant
/// integers using multiplication", 1994, in libdivide's unsigned 64-bit
/// form): the quotient is the high half of `a` times a magic, shifted,
/// and the remainder `a − q·d`. With `s = ⌊log₂ d⌋`, the round-up magic
/// `⌊2^(64+s) / d⌋ + 1` is exact for every 64-bit numerator when its
/// error `d − (2^(64+s) mod d)` is below `2^s`; otherwise the magic takes
/// one more bit, kept implicit by the `add` step. That is one wide and
/// one narrow multiply per word; Lemire, Kaser and Kurz's 128-bit direct
/// remainder takes four and lost to the hardware divide on small images.
struct FastMod {
    /// Low 64 bits of the magic; 0 for a power of two, which only shifts.
    magic: u64,
    shift: u32,
    /// Whether the magic has the implicit 65th bit.
    add: bool,
    d: u64,
}

impl FastMod {
    /// The magic for divisor `d > 0`.
    fn new(d: u64) -> Self {
        let shift = d.ilog2();
        if d.is_power_of_two() {
            return FastMod {
                magic: 0,
                shift,
                add: false,
                d,
            };
        }
        // `d > 2^s`, so the quotient fits 64 bits and is below 2^64 − 1.
        let power = 1u128 << (64 + shift);
        let m = (power / u128::from(d)) as u64;
        let rem = (power % u128::from(d)) as u64;
        if d - rem < 1 << shift {
            return FastMod {
                magic: m + 1,
                shift,
                add: false,
                d,
            };
        }
        // ⌊2^(65+s) / d⌋ from the quotient and remainder above, wrapped
        // past 2^64.
        let twice = rem.wrapping_add(rem);
        let m = m
            .wrapping_add(m)
            .wrapping_add(u64::from(twice >= d || twice < rem));
        FastMod {
            magic: m.wrapping_add(1),
            shift,
            add: true,
            d,
        }
    }

    /// `a % d`.
    fn rem(&self, a: u64) -> u64 {
        let q = if self.magic == 0 {
            a >> self.shift
        } else {
            let high = ((u128::from(self.magic) * u128::from(a)) >> 64) as u64;
            if self.add {
                (((a - high) >> 1) + high) >> self.shift
            } else {
                high >> self.shift
            }
        };
        a - q * self.d
    }
}

/// A deterministic input memory image for lane `lane` of an input sweep:
/// `len` words uniform in `-range..=range`, from the same splitmix64
/// stream family as [`generate`] (platform-stable, dependency-free).
/// `(seed, lane)` fully determines the image, so sweeps, benches and
/// property tests can all regenerate the exact same inputs from two
/// integers. Word `k` is the draw `Rng::imm` would make `k`-th,
/// computed from its index (splitmix64's state advances by a constant,
/// so no word waits on the one before), with the remainder by
/// `2·range + 1` strength-reduced (`FastMod`).
pub fn input_image(seed: u64, lane: u64, len: usize, range: i32) -> Vec<i32> {
    // Mix the lane into the seed with an odd multiplier so consecutive
    // lanes land on unrelated streams.
    let rng = Rng::new(seed ^ lane.wrapping_mul(0xa076_1d64_78bd_642f));
    let first = rng.0.wrapping_add(GAMMA);
    let span = FastMod::new(2 * range as u64 + 1);
    (0..len as u64)
        .map(|k| {
            let draw = mix(first.wrapping_add(k.wrapping_mul(GAMMA)));
            (span.rem(draw) as i64 - range as i64) as i32
        })
        .collect()
}

/// The weighted ALU-op mix (repetition = weight): arithmetic-heavy like
/// the paper kernels, with compares, `select` and `mov` sprinkled in.
const ALU_MIX: [Opcode; 24] = [
    Opcode::Add,
    Opcode::Add,
    Opcode::Add,
    Opcode::Add,
    Opcode::Sub,
    Opcode::Sub,
    Opcode::Mul,
    Opcode::Mul,
    Opcode::Mul,
    Opcode::Shl,
    Opcode::Shr,
    Opcode::And,
    Opcode::Or,
    Opcode::Xor,
    Opcode::Min,
    Opcode::Max,
    Opcode::Abs,
    Opcode::Eq,
    Opcode::Ne,
    Opcode::Lt,
    Opcode::Le,
    Opcode::Gt,
    Opcode::Select,
    Opcode::Mov,
];

/// Per-block generation state: the results produced so far (the only
/// values operand reuse draws from — constants and symbol reads are
/// interned by the builder and re-picked fresh) and the symbols already
/// latched in this block.
struct BlockCtx {
    defs: Vec<ValueId>,
    written: Vec<SymbolId>,
}

impl BlockCtx {
    fn new() -> Self {
        BlockCtx {
            defs: Vec::new(),
            written: Vec::new(),
        }
    }
}

fn pick_operand(
    b: &mut CdfgBuilder,
    rng: &mut Rng,
    p: &GenParams,
    syms: &[SymbolId],
    ctx: &BlockCtx,
) -> ValueId {
    if !ctx.defs.is_empty() && rng.pct(p.reuse_pct) {
        let i = match p.fanout {
            Fanout::Focus => 0,
            Fanout::Uniform => rng.below(ctx.defs.len() as u64) as usize,
            Fanout::Recent => {
                let window = ctx.defs.len().min(3) as u64;
                ctx.defs.len() - 1 - rng.below(window) as usize
            }
        };
        ctx.defs[i]
    } else if !syms.is_empty() && rng.pct(40) {
        let s = syms[rng.below(syms.len() as u64) as usize];
        b.use_symbol(s)
    } else {
        let c = rng.imm(p.const_range);
        b.constant(c)
    }
}

/// An always-in-bounds word address confined to `[base, base + size)`:
/// either a constant, or a data-dependent value masked into the region
/// (the extra `And`/`Add` ops are address computation — part of the
/// workload, as in real kernels). `size` is a power of two.
///
/// Confinement is what keeps alias classes honest: a class annotation is
/// a *promise* that two classes never touch the same word (the scheduler
/// is free to reorder memory ops across classes), so each class owns a
/// disjoint address region.
fn gen_addr(
    b: &mut CdfgBuilder,
    rng: &mut Rng,
    p: &GenParams,
    syms: &[SymbolId],
    ctx: &mut BlockCtx,
    base: usize,
    size: usize,
) -> ValueId {
    if ctx.defs.is_empty() || rng.pct(50) {
        b.constant((base + rng.below(size as u64) as usize) as i32)
    } else {
        let x = pick_operand(b, rng, p, syms, ctx);
        let mask = b.constant(size as i32 - 1);
        let mut a = b.op(Opcode::And, &[x, mask]);
        ctx.defs.push(a);
        if base > 0 {
            let off = b.constant(base as i32);
            a = b.op(Opcode::Add, &[a, off]);
            ctx.defs.push(a);
        }
        a
    }
}

/// Appends a sampled body of operations to the currently selected block.
fn fill_block(
    b: &mut CdfgBuilder,
    rng: &mut Rng,
    p: &GenParams,
    syms: &[SymbolId],
    ctx: &mut BlockCtx,
) {
    // Sample around the target: ops_per_block/2 ..= 3*ops_per_block/2.
    let lo = (p.ops_per_block / 2).max(1);
    let n = lo + rng.below((p.ops_per_block + 1) as u64) as usize;
    // Each alias class owns a quarter of the address space (the final
    // `out` store owns the last word, outside both regions).
    let q = p.mem_words / 4;
    let region = |cls: bool| if cls { ("heap1", q) } else { ("heap0", 0) };
    for _ in 0..n {
        let roll = rng.below(100) as u32;
        let result = if roll < p.load_pct {
            let (class, base) = region(rng.pct(50));
            let addr = gen_addr(b, rng, p, syms, ctx, base, q);
            Some(b.load_name(addr, class))
        } else if roll < p.load_pct + p.store_pct {
            let (class, base) = region(rng.pct(50));
            let addr = gen_addr(b, rng, p, syms, ctx, base, q);
            let val = pick_operand(b, rng, p, syms, ctx);
            b.store(addr, val, class);
            None
        } else {
            let opcode = ALU_MIX[rng.below(ALU_MIX.len() as u64) as usize];
            let args: Vec<ValueId> = (0..opcode.arity())
                .map(|_| pick_operand(b, rng, p, syms, ctx))
                .collect();
            Some(b.op(opcode, &args))
        };
        if let Some(v) = result {
            ctx.defs.push(v);
            if rng.pct(p.sym_write_pct) {
                let free: Vec<SymbolId> = syms
                    .iter()
                    .copied()
                    .filter(|s| !ctx.written.contains(s))
                    .collect();
                if !free.is_empty() {
                    let s = free[rng.below(free.len() as u64) as usize];
                    b.write_symbol(v, s);
                    ctx.written.push(s);
                }
            }
        }
    }
}

/// A branch condition computed in the currently selected block: a compare
/// of a symbol read (or an existing result, or a constant) against a
/// constant.
fn gen_cond(
    b: &mut CdfgBuilder,
    rng: &mut Rng,
    p: &GenParams,
    syms: &[SymbolId],
    ctx: &mut BlockCtx,
) -> ValueId {
    let x = pick_operand(b, rng, p, syms, ctx);
    let k = b.constant(rng.imm(p.const_range));
    let cmp = [Opcode::Lt, Opcode::Le, Opcode::Gt, Opcode::Ge, Opcode::Eq][rng.below(5) as usize];
    let c = b.op(cmp, &[x, k]);
    ctx.defs.push(c);
    c
}

/// Deterministically generates one kernel from `(params, seed)`.
///
/// The returned CDFG always validates, always terminates, and never
/// accesses memory outside its `mem` image — see the module docs for how
/// each guarantee is met. Two calls with equal inputs return equal
/// outputs (`GeneratedKernel` implements `PartialEq` over the full graph).
pub fn generate(params: &GenParams, seed: u64) -> GeneratedKernel {
    let p = params.sanitized();
    let mut rng = Rng::new(seed);
    let name = format!("gen-{}-{seed:016x}", p.label);
    let mut b = CdfgBuilder::new(name.clone());

    let entry = b.block("entry");
    let syms: Vec<SymbolId> = (0..p.symbols).map(|i| b.symbol(format!("g{i}"))).collect();

    // Entry: initialise a few symbols so symbol reads see varied data.
    b.select(entry);
    let mut ctx = BlockCtx::new();
    for &s in &syms {
        if rng.pct(70) {
            b.mov_const_to_symbol(rng.imm(p.const_range), s);
            ctx.written.push(s);
        }
    }
    fill_block(&mut b, &mut rng, &p, &syms, &mut ctx);

    // Append structured regions until the block budget is spent.
    let mut blocks_made = 1usize;
    let mut loops_made = 0usize;
    while blocks_made < p.blocks {
        let roll = rng.below(100) as u32;
        if roll < p.loop_pct && blocks_made + 2 <= p.blocks {
            // Counted loop: the current block initialises a fresh private
            // counter, the body increments it and branches back until the
            // trip count.
            let ctr = b.symbol(format!("L{loops_made}"));
            b.mov_const_to_symbol(0, ctr);
            let body = b.block(format!("loop{loops_made}"));
            let exit = b.block(format!("endl{loops_made}"));
            b.jump(body);
            b.select(body);
            let mut bctx = BlockCtx::new();
            fill_block(&mut b, &mut rng, &p, &syms, &mut bctx);
            let iv = b.use_symbol(ctr);
            let one = b.constant(1);
            let inext = b.op(Opcode::Add, &[iv, one]);
            b.write_symbol(inext, ctr);
            let trip = b.constant(1 + rng.below(p.max_trip as u64) as i32);
            let c = b.op(Opcode::Lt, &[inext, trip]);
            b.branch(c, body, exit);
            b.select(exit);
            let mut ectx = BlockCtx::new();
            fill_block(&mut b, &mut rng, &p, &syms, &mut ectx);
            ctx = ectx;
            blocks_made += 2;
            loops_made += 1;
        } else if roll < p.loop_pct + p.diamond_pct && blocks_made + 3 <= p.blocks {
            // If/else diamond: cur computes the condition, both arms run
            // a body and join.
            let cond = gen_cond(&mut b, &mut rng, &p, &syms, &mut ctx);
            let then_b = b.block(format!("then{blocks_made}"));
            let else_b = b.block(format!("else{blocks_made}"));
            let join = b.block(format!("join{blocks_made}"));
            b.branch(cond, then_b, else_b);
            for arm in [then_b, else_b] {
                b.select(arm);
                let mut actx = BlockCtx::new();
                fill_block(&mut b, &mut rng, &p, &syms, &mut actx);
                b.jump(join);
            }
            b.select(join);
            let mut jctx = BlockCtx::new();
            fill_block(&mut b, &mut rng, &p, &syms, &mut jctx);
            ctx = jctx;
            blocks_made += 3;
        } else {
            // Straight-line successor.
            let next = b.block(format!("bb{blocks_made}"));
            b.jump(next);
            b.select(next);
            let mut nctx = BlockCtx::new();
            fill_block(&mut b, &mut rng, &p, &syms, &mut nctx);
            ctx = nctx;
            blocks_made += 1;
        }
    }

    // Guaranteed observable output: store a final value to the last word.
    let out_val = if !ctx.defs.is_empty() {
        ctx.defs[ctx.defs.len() - 1]
    } else if !syms.is_empty() {
        b.use_symbol(syms[0])
    } else {
        b.constant(rng.imm(p.const_range))
    };
    let out_addr = b.constant(p.mem_words as i32 - 1);
    b.store(out_addr, out_val, "out");
    b.ret();

    let cdfg = b
        .finish()
        .expect("generated CDFGs are valid by construction");

    // Input image: a private deterministic fill (small values, so long
    // multiply chains stay interesting without saturating).
    let mut mem = Vec::with_capacity(p.mem_words);
    for _ in 0..p.mem_words {
        mem.push(rng.imm(64));
    }

    GeneratedKernel { name, cdfg, mem }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp;

    fn profiles() -> Vec<GenParams> {
        GenParams::PROFILES
            .iter()
            .map(|n| GenParams::profile(n).expect("known profile"))
            .collect()
    }

    #[test]
    fn every_profile_generates_valid_terminating_kernels() {
        for p in profiles() {
            for seed in 0..8u64 {
                let g = generate(&p, seed);
                g.cdfg
                    .validate()
                    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", p.label));
                let mut mem = g.mem.clone();
                let stats = interp::run(&g.cdfg, &mut mem, 1_000_000)
                    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", p.label));
                assert!(stats.dynamic_ops > 0, "{} seed {seed} ran nothing", p.label);
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for p in profiles() {
            let a = generate(&p, 42);
            let b = generate(&p, 42);
            assert_eq!(a, b, "profile {} not deterministic", p.label);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p = GenParams::default();
        let a = generate(&p, 1);
        let b = generate(&p, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn unknown_profile_is_none_and_all_names_resolve() {
        assert!(GenParams::profile("nope").is_none());
        for n in GenParams::PROFILES {
            assert!(GenParams::profile(n).is_some(), "{n}");
        }
    }

    #[test]
    fn single_block_profile_really_is_single_block() {
        let p = GenParams::profile("single_block").unwrap();
        for seed in 0..16u64 {
            assert_eq!(generate(&p, seed).cdfg.num_blocks(), 1);
        }
    }

    #[test]
    fn zero_symbol_profile_declares_no_symbols() {
        let p = GenParams::profile("zero_symbol").unwrap();
        for seed in 0..16u64 {
            assert_eq!(generate(&p, seed).cdfg.num_symbols(), 0);
        }
    }

    #[test]
    fn load_store_only_profile_is_memory_dominated() {
        let p = GenParams::profile("load_store_only").unwrap();
        let g = generate(&p, 7);
        let mut mem_ops = 0usize;
        let mut total = 0usize;
        for blk in g.cdfg.block_ids() {
            for op in g.cdfg.dfg(blk).ops() {
                total += 1;
                if op.opcode.is_memory() {
                    mem_ops += 1;
                }
            }
        }
        assert!(
            mem_ops * 2 >= total,
            "memory ops {mem_ops} of {total} is not dominated"
        );
    }

    #[test]
    fn sanitize_rounds_memory_to_power_of_two() {
        let mut p = GenParams {
            mem_words: 100,
            ..GenParams::default()
        };
        assert_eq!(p.sanitized().mem_words, 128);
        p.mem_words = 0;
        assert_eq!(p.sanitized().mem_words, 8);
    }

    #[test]
    fn max_trip_is_honoured_by_termination_budget() {
        // A loop-heavy profile with the largest trip count still
        // terminates well inside the budget.
        let p = GenParams {
            loop_pct: 80,
            diamond_pct: 0,
            blocks: 21,
            max_trip: 32,
            ..GenParams::default()
        };
        let g = generate(&p, 3);
        let mut mem = g.mem.clone();
        interp::run(&g.cdfg, &mut mem, 1_000_000).expect("terminates");
    }

    #[test]
    fn fast_remainder_equals_the_hardware_remainder() {
        let mut rng = Rng::new(0xfa57);
        let seeded: Vec<u64> = (0..10_000).map(|_| rng.next()).collect();
        // `input_image` divides by 2·range + 1: 2³¹ − 1 at range 2³⁰ − 1
        // and 2³² − 1 at `i32::MAX`. The last divisors span 64 bits.
        let extremes = [
            (1 << 31) - 1,
            u64::from(u32::MAX),
            1 << 63,
            (1 << 63) + 1,
            u64::MAX,
        ];
        for d in (1..=4096).chain(extremes) {
            let fast = FastMod::new(d);
            for a in seeded.iter().copied().chain([0, d - 1, d, u64::MAX]) {
                assert_eq!(fast.rem(a), a % d, "{a} % {d}");
            }
        }
    }

    #[test]
    fn input_images_equal_the_remainder_draws() {
        for range in [0, 1, 64, i32::MAX] {
            for (seed, lane) in [(0, 0), (7, 3), (u64::MAX, 255u64)] {
                let mut rng = Rng::new(seed ^ lane.wrapping_mul(0xa076_1d64_78bd_642f));
                let want: Vec<i32> = (0..300).map(|_| rng.imm(range)).collect();
                assert_eq!(input_image(seed, lane, 300, range), want, "range {range}");
            }
        }
    }
}
