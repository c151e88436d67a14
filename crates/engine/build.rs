//! Computes a toolchain source fingerprint at build time.
//!
//! The artifact cache keys jobs by a content hash of their *inputs*
//! (CDFG, configuration, mapper options) — but an outcome also depends on
//! the *code* of the mapper/assembler/simulator that produced it. This
//! script hashes every toolchain source file the engine links against and
//! exposes the result as `CMAM_TOOLCHAIN_HASH`, which is folded into every
//! job key: rebuilding after a source edit silently invalidates the whole
//! cache (stale artifacts are never addressed again), while rebuilds
//! without source changes keep sharing it across all experiment binaries.

use std::fs;
use std::path::{Path, PathBuf};

// FNV-1a, same construction as the engine's runtime hasher (which this
// script cannot link against).
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn visit(dir: &Path, files: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            visit(&path, files);
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
}

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets this"));
    let crates = manifest.parent().expect("engine lives under crates/");
    // Every crate whose code influences a job outcome, plus the engine
    // itself (serialization format changes must also invalidate).
    let mut files = Vec::new();
    for dep in ["arch", "cdfg", "kernels", "isa", "core", "sim", "engine"] {
        let src = crates.join(dep).join("src");
        println!("cargo:rerun-if-changed={}", src.display());
        visit(&src, &mut files);
    }
    // The vendored runtime stubs are part of the toolchain too: the
    // mapper's stochastic pruning runs on vendor/rand's PRNG and the
    // graph layers use vendor/petgraph, so editing either changes job
    // outcomes just as surely as editing the mapper. (proptest is
    // dev-only and does not influence outcomes.)
    let vendor = crates
        .parent()
        .expect("crates/ lives in the workspace root")
        .join("vendor");
    for dep in ["rand", "petgraph"] {
        let src = vendor.join(dep).join("src");
        println!("cargo:rerun-if-changed={}", src.display());
        visit(&src, &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for path in &files {
        h = fnv(h, path.to_string_lossy().as_bytes());
        h = fnv(h, &fs::read(path).unwrap_or_default());
    }
    println!("cargo:rustc-env=CMAM_TOOLCHAIN_HASH={h:016x}");
}
