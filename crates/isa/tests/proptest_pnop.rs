//! Property test: pnop compression round-trips exactly — the paper's
//! "consecutive nops are gathered in one programmable nop" never changes
//! the executed schedule.
//!
//! Each test draws [`CASES`] seeded schedules: case `k` is generated from
//! `SplitMix64::new(seed)`, where `seed` is the `k`-th draw of the
//! suite's root stream, and a failure names both.

use cmam_cdfg::{Opcode, SplitMix64};
use cmam_isa::instr::{compress, expand};
use cmam_isa::{Instr, Operand};
use std::ops::Range;

/// Root of the suite's case seeds.
const ROOT: u64 = 0x9a0b_5eed;

/// Schedules per test.
const CASES: usize = 256;

/// One slot: idle three times as often as an `add` or a `mov`.
fn slot(rng: &mut SplitMix64) -> Option<Instr> {
    let reg = |rng: &mut SplitMix64| rng.below(8) as u8;
    match rng.below(5) {
        0..=2 => None,
        3 => Some(Instr::Exec {
            opcode: Opcode::Add,
            dst: Some(reg(rng)),
            srcs: vec![Operand::Reg(reg(rng))],
        }),
        _ => Some(Instr::Exec {
            opcode: Opcode::Mov,
            dst: Some(0),
            srcs: vec![Operand::Reg(reg(rng))],
        }),
    }
}

/// The suite's cases, each named by its index and seed, with schedule
/// lengths uniform in `lengths`.
fn schedules(lengths: Range<u64>) -> impl Iterator<Item = (String, Vec<Option<Instr>>)> {
    let mut seeds = SplitMix64::from_state(ROOT);
    (0..CASES).map(move |case| {
        let seed = seeds.next_u64();
        let mut rng = SplitMix64::new(seed);
        let len = lengths.start + rng.below(lengths.end - lengths.start);
        let schedule = (0..len).map(|_| slot(&mut rng)).collect();
        (format!("case {case} (seed {seed:#x})"), schedule)
    })
}

#[test]
fn compress_expand_roundtrip() {
    for (at, schedule) in schedules(0..64) {
        let words = compress(&schedule);
        assert_eq!(expand(&words), schedule, "{at}");
        // No two consecutive pnops (maximal runs).
        for w in words.windows(2) {
            assert!(!(w[0].is_pnop() && w[1].is_pnop()), "{at}");
        }
        // Word count never exceeds the schedule length, and durations sum
        // back to it.
        assert!(words.len() <= schedule.len(), "{at}");
        let total: u32 = words.iter().map(Instr::duration).sum();
        assert_eq!(total as usize, schedule.len(), "{at}");
    }
}

#[test]
fn compression_saves_exactly_the_gathered_nops() {
    for (at, schedule) in schedules(1..64) {
        let words = compress(&schedule);
        let execs = schedule.iter().filter(|s| s.is_some()).count();
        let pnops = words.iter().filter(|w| w.is_pnop()).count();
        assert_eq!(words.len(), execs + pnops, "{at}");
    }
}
