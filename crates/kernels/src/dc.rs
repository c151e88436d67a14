//! DC-blocking IIR filter: `y[n] = x[n] - x[n-1] + (a * y[n-1]) >> Q`
//! with `a = 0.95` in Q8 — the smallest kernel of Table II, with tight
//! loop-carried dependencies through two state symbols.

use crate::data::lcg_fill;
use crate::spec::KernelSpec;
use cmam_cdfg::{Cdfg, CdfgBuilder, Opcode};

/// Number of samples.
pub const LEN: usize = 24;
/// Output base address.
pub const Y0: usize = 32;
/// Memory size in words.
pub const MEM: usize = 64;
/// Feedback coefficient in Q8 (0.95 * 256).
pub const A_Q8: i32 = 243;
/// Fixed-point fraction bits.
pub const Q: u32 = 8;

/// Builds the DC filter CDFG.
pub fn cdfg() -> Cdfg {
    let mut b = CdfgBuilder::new("dcfilter");
    let entry = b.block("entry");
    let body = b.block("body");
    let exit = b.block("exit");
    let n = b.symbol("n");
    let xprev = b.symbol("xprev");
    let yprev = b.symbol("yprev");

    b.select(entry);
    b.mov_const_to_symbol(0, n);
    b.mov_const_to_symbol(0, xprev);
    b.mov_const_to_symbol(0, yprev);
    b.jump(body);

    b.select(body);
    let nv = b.use_symbol(n);
    let xp = b.use_symbol(xprev);
    let yp = b.use_symbol(yprev);
    let x = b.load_name(nv, "x");
    let a = b.constant(A_Q8);
    let fb_q = b.op(Opcode::Mul, &[yp, a]);
    let q = b.constant(Q as i32);
    let fb = b.op(Opcode::Shr, &[fb_q, q]);
    let hp = b.op(Opcode::Sub, &[x, xp]);
    let y = b.op(Opcode::Add, &[hp, fb]);
    let y0 = b.constant(Y0 as i32);
    let yaddr = b.op(Opcode::Add, &[nv, y0]);
    b.store(yaddr, y, "y");
    b.write_symbol(y, yprev);
    // xprev = x (the load result feeds the symbol through a move so the
    // write is a plain ALU op like a compiler would emit).
    let xcopy = b.op(Opcode::Mov, &[x]);
    b.write_symbol(xcopy, xprev);
    let one = b.constant(1);
    let n2 = b.op(Opcode::Add, &[nv, one]);
    b.write_symbol(n2, n);
    let len = b.constant(LEN as i32);
    let cond = b.op(Opcode::Lt, &[n2, len]);
    b.branch(cond, body, exit);

    b.select(exit);
    b.ret();
    b.finish().expect("dc cdfg is valid")
}

/// Plain-Rust reference.
pub fn reference(mem: &[i32]) -> Vec<i32> {
    let mut out = Vec::with_capacity(LEN);
    let mut xprev = 0i32;
    let mut yprev = 0i32;
    for &x in &mem[..LEN] {
        let y = x
            .wrapping_sub(xprev)
            .wrapping_add(yprev.wrapping_mul(A_Q8) >> Q);
        out.push(y);
        xprev = x;
        yprev = y;
    }
    out
}

/// Paper-sized instance with deterministic inputs.
pub fn spec() -> KernelSpec {
    let mut mem = vec![0i32; MEM];
    // A signal with a DC offset the filter should remove.
    let x = lcg_fill(61, LEN, 6);
    for (i, v) in x.iter().enumerate() {
        mem[i] = v + 20;
    }
    let expected = reference(&mem);
    KernelSpec {
        name: "DC Filter".to_owned(),
        cdfg: cdfg(),
        mem,
        out: Y0..Y0 + LEN,
        expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpreter_matches_reference() {
        let s = spec();
        let mut mem = s.mem.clone();
        cmam_cdfg::interp::run(&s.cdfg, &mut mem, 1_000_000).unwrap();
        assert_eq!(&mem[s.out.clone()], s.expected.as_slice());
    }

    #[test]
    fn removes_dc_offset() {
        let s = spec();
        // With a = 0.95 the step response decays as 0.95^n, so over 24
        // samples the transient is not fully gone; still, the output mean
        // must be well below the +20 input offset, and the tail must sit
        // below the head.
        let mean: f64 =
            s.expected.iter().map(|&v| f64::from(v)).sum::<f64>() / s.expected.len() as f64;
        assert!(mean.abs() < 12.0, "mean {mean}");
        let head = f64::from(s.expected[0]);
        let tail: f64 = s.expected[LEN - 4..]
            .iter()
            .map(|&v| f64::from(v))
            .sum::<f64>()
            / 4.0;
        assert!(tail < head, "tail {tail} head {head}");
    }

    #[test]
    fn three_symbols_tight_loop() {
        let c = cdfg();
        assert_eq!(c.num_symbols(), 3);
        assert_eq!(c.num_blocks(), 3);
    }
}
