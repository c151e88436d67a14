//! Property test: on random straight-line kernels, the decoded fast-path
//! simulator must agree **bit-for-bit** with the naive reference
//! interpretation of the same binary — every `SimStats` counter and the
//! final memory image, across bank counts (including the normalized
//! `mem_banks == 0`).
//!
//! The golden suite pins the seven paper kernels; this covers arbitrary
//! dataflow shapes, so a decode bug that only shows on an operand or
//! pnop pattern the kernels never produce still gets caught.
//!
//! Case `k` draws its kernel from `SplitMix64::new(seed)`, where `seed`
//! is `kernel_seeds(ROOT, CASES)[k]`, and a failure names both.

use cmam_arch::CgraConfig;
use cmam_cdfg::{Cdfg, CdfgBuilder, Opcode, SplitMix64, ValueId};
use cmam_core::{FlowVariant, Mapper};
use cmam_isa::assemble;
use cmam_kernels::kernel_seeds;
use cmam_sim::{simulate_reference, DecodedProgram, SimOptions};

/// Root of the suite's case seeds.
const ROOT: u64 = 0xdec0_de5e;

/// Cases; each maps, assembles and simulates four bank counts twice.
const CASES: usize = 24;

/// One randomly generated operation: opcode selector plus operand picks.
#[derive(Debug, Clone)]
struct GenOp {
    kind: u8,
    a: usize,
    b: usize,
    c: usize,
    imm: i32,
}

/// `1..max` operations, each with an opcode selector in `0..8`, operand
/// picks in `0..64` and an immediate in `-20..20`.
fn gen_ops(rng: &mut SplitMix64, max: u64) -> Vec<GenOp> {
    let len = 1 + rng.below(max - 1);
    (0..len)
        .map(|_| GenOp {
            kind: rng.below(8) as u8,
            a: rng.below(64) as usize,
            b: rng.below(64) as usize,
            c: rng.below(64) as usize,
            imm: rng.below(40) as i32 - 20,
        })
        .collect()
}

/// Builds a single-block CDFG from the generated recipe: values are
/// drawn from earlier results or fresh constants, a few loads read the
/// low 16 memory words, and the last value is stored to word 40.
fn build(ops: &[GenOp]) -> Cdfg {
    let mut b = CdfgBuilder::new("prop");
    let bb = b.block("b0");
    b.select(bb);
    let mut values: Vec<ValueId> = Vec::new();
    let pick = |values: &[ValueId], b: &mut CdfgBuilder, idx: usize, imm: i32| -> ValueId {
        if values.is_empty() || idx % 3 == 0 {
            b.constant(imm)
        } else {
            values[idx % values.len()]
        }
    };
    for g in ops {
        let v = match g.kind {
            0 => {
                let addr = b.constant((g.a % 16) as i32);
                b.load_name(addr, "m")
            }
            1 => {
                let x = pick(&values, &mut b, g.a, g.imm);
                let y = pick(&values, &mut b, g.b, g.imm.wrapping_add(1));
                b.op(Opcode::Add, &[x, y])
            }
            2 => {
                let x = pick(&values, &mut b, g.a, g.imm);
                let y = pick(&values, &mut b, g.b, 3);
                b.op(Opcode::Mul, &[x, y])
            }
            3 => {
                let x = pick(&values, &mut b, g.a, g.imm);
                let y = pick(&values, &mut b, g.b, g.imm);
                b.op(Opcode::Sub, &[x, y])
            }
            4 => {
                let x = pick(&values, &mut b, g.a, g.imm);
                let y = pick(&values, &mut b, g.b, g.imm);
                b.op(Opcode::Xor, &[x, y])
            }
            5 => {
                let x = pick(&values, &mut b, g.a, g.imm);
                let y = pick(&values, &mut b, g.b, g.imm);
                b.op(Opcode::Min, &[x, y])
            }
            6 => {
                let cnd = pick(&values, &mut b, g.c, 1);
                let x = pick(&values, &mut b, g.a, g.imm);
                let y = pick(&values, &mut b, g.b, g.imm);
                b.op(Opcode::Select, &[cnd, x, y])
            }
            _ => {
                let x = pick(&values, &mut b, g.a, g.imm);
                b.op(Opcode::Mov, &[x])
            }
        };
        values.push(v);
    }
    let last = *values.last().expect("at least one op");
    let out = b.constant(40);
    b.store(out, last, "out");
    b.ret();
    b.finish().expect("generated cdfg is valid")
}

#[test]
fn decoded_matches_reference_on_random_kernels() {
    let config = CgraConfig::hom64();
    let mapper = Mapper::new(FlowVariant::Basic.options());
    for (case, seed) in kernel_seeds(ROOT, CASES).into_iter().enumerate() {
        let at = format!("case {case} (seed {seed:#x})");
        let cdfg = build(&gen_ops(&mut SplitMix64::new(seed), 28));
        let result = mapper
            .map(&cdfg, &config)
            .unwrap_or_else(|e| panic!("{at}: basic flow maps straight-line code: {e}"));
        let (binary, _) = assemble(&cdfg, &result.mapping, &config)
            .unwrap_or_else(|e| panic!("{at}: assembles: {e}"));
        let decoded = DecodedProgram::decode(&binary, &config)
            .unwrap_or_else(|e| panic!("{at}: valid binary decodes: {e}"));

        // Bank counts bracketing the interesting cases: the normalized
        // zero, a single bank (max conflicts), the default, and more
        // banks than concurrent accesses (no conflicts).
        for banks in [0usize, 1, 8, 64] {
            let options = SimOptions {
                mem_banks: banks,
                max_cycles: 1_000_000,
            };
            let mut mem_ref = vec![7i32; 64];
            let stats_ref = simulate_reference(&binary, &config, &mut mem_ref, options)
                .unwrap_or_else(|e| panic!("{at}: reference simulates: {e}"));
            let mut mem_fast = vec![7i32; 64];
            let stats_fast = decoded
                .simulate(&mut mem_fast, options)
                .unwrap_or_else(|e| panic!("{at}: decoded simulates: {e}"));
            assert_eq!(
                stats_fast, stats_ref,
                "{at}: stats diverge at {banks} banks"
            );
            assert_eq!(mem_fast, mem_ref, "{at}: memory diverges at {banks} banks");
        }
    }
}
