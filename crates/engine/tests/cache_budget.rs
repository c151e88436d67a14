//! The `CMAM_CACHE_BYTES` byte budget: eviction trims oldest-first on
//! write and must never corrupt surviving entries.

use cmam_core::FlowVariant;
use cmam_engine::cache::DiskCache;
use cmam_engine::job::{execute, JobRequest};
use std::path::PathBuf;

fn temp_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cmam-budget-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Comparable view of a job result: content digest for successes, the
/// full failure rendering otherwise.
fn digest_of(result: &cmam_engine::JobResult) -> String {
    match result {
        Ok(out) => format!("ok:{:016x}", out.content_digest()),
        Err(fail) => format!("err:{fail:?}"),
    }
}

fn cache_dir_bytes(dir: &PathBuf) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Store real job artifacts through a tiny budget: the directory must
/// stay within it, the newest entry must survive, and every surviving
/// file must still parse back to its original result bit-for-bit.
#[test]
fn eviction_keeps_the_store_within_budget_without_corrupting_survivors() {
    let dir = temp_cache_dir("trim");
    let specs = cmam_kernels::all();
    let config = cmam_arch::CgraConfig::hom64();

    // Measure one artifact so the budget forces evictions but always
    // fits the newest write.
    let probe_req = JobRequest::flow(&specs[0], FlowVariant::Basic, &config);
    let probe = execute(&probe_req);
    let artifact = cmam_engine::cache::serialize_result(&probe);
    let budget = (artifact.len() as u64) * 2 + 64;

    let cache = DiskCache::new(Some(dir.clone()), Some(budget));
    let mut stored: Vec<(u64, cmam_engine::JobResult)> = Vec::new();
    for spec in specs.iter() {
        for variant in [FlowVariant::Basic, FlowVariant::Cab] {
            let req = JobRequest::flow(spec, variant, &config);
            let result = execute(&req);
            cache.store(req.key(), &result);
            stored.push((req.key(), result));
            // Eviction happens on write: the store must already be
            // back under budget here, not just at the end.
            assert!(
                cache_dir_bytes(&dir) <= budget,
                "store exceeded budget after writing {}",
                req.label()
            );
        }
    }

    // The newest entry always survives its own write.
    let (last_key, last_result) = stored.last().expect("stored jobs");
    let reloaded = cache
        .load(*last_key)
        .expect("most recent artifact must survive eviction");
    assert_eq!(digest_of(&reloaded), digest_of(last_result));

    // Every key either round-trips bit-identically or is a clean miss;
    // eviction must never leave a corrupt readable entry.
    let mut survivors = 0usize;
    for (key, result) in &stored {
        if let Some(found) = cache.load(*key) {
            assert_eq!(
                digest_of(&found),
                digest_of(result),
                "surviving artifact corrupted"
            );
            survivors += 1;
        }
    }
    assert!(survivors >= 1, "budget fits at least the newest artifact");
    assert!(
        survivors < stored.len(),
        "budget of {budget} bytes should have evicted something"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// An unbounded cache (no `CMAM_CACHE_BYTES`) never evicts.
#[test]
fn unbounded_cache_keeps_everything() {
    let dir = temp_cache_dir("unbounded");
    let specs = cmam_kernels::all();
    let config = cmam_arch::CgraConfig::hom64();
    let cache = DiskCache::new(Some(dir.clone()), None);

    let mut keys = Vec::new();
    for spec in specs.iter().take(3) {
        let req = JobRequest::flow(spec, FlowVariant::Basic, &config);
        cache.store(req.key(), &execute(&req));
        keys.push(req.key());
    }
    for key in keys {
        assert!(
            cache.load(key).is_some(),
            "unbounded cache evicted {key:#x}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
