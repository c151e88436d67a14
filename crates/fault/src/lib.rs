//! Seeded, deterministic fault injection for the cmam stack.
//!
//! The engine and cache call into named *fault sites* (`cache.read`,
//! `job.panic`, ...) on their failure-prone paths. In production the
//! layer is off and every site check is a single relaxed atomic load —
//! the same zero-overhead discipline as `cmam_obs`. Under test, a
//! [`FaultPlan`] (a seed plus per-site probability rules) makes each
//! site fire deterministically: the decision for a given
//! `(seed, site, key)` triple is a pure splitmix64 function, so a chaos
//! run can be replayed bit-for-bit from its seed.
//!
//! Two rule flavours keep chaos suites convergent by construction:
//!
//! * **transient** (default): a cursed `(site, key)` fails the first
//!   one or two attempts and then *always* succeeds, so any caller with
//!   a retry budget of three or more recovers deterministically;
//! * **sticky** (`site=prob:sticky`): fires on every attempt — the
//!   permanent-failure flavour that exercises quarantine paths.
//!
//! Plans come from [`install`] (tests) or, on first use, from the
//! `CMAM_FAULT_PLAN` / `CMAM_FAULT_SEED` environment variables:
//!
//! ```text
//! CMAM_FAULT_SEED=7 CMAM_FAULT_PLAN='cache.read=0.25,job.panic=0.1:sticky' ...
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Fault state: 0 = uninitialised (consult the environment once),
/// 1 = off, 2 = a plan is installed.
static STATE: AtomicU8 = AtomicU8::new(0);

/// The installed plan, if any. Guarded by a poison-recovering lock so a
/// panicking test (panics are this crate's product) can never wedge it.
static PLAN: Mutex<Option<Arc<FaultPlan>>> = Mutex::new(None);

/// Per-site fault counters: site name → leaked `fault.<site>` counter.
/// Leaked once per distinct site, not per event.
static SITE_COUNTERS: Mutex<Option<HashMap<String, &'static cmam_obs::metrics::Counter>>> =
    Mutex::new(None);

/// Seed used when `CMAM_FAULT_PLAN` is set without `CMAM_FAULT_SEED`.
pub const DEFAULT_SEED: u64 = 0xFA17_5EED;

/// Attempts transient faults are guaranteed to clear by: a cursed
/// transient `(site, key)` never fires at `attempt >= TRANSIENT_CLEARS_BY`.
pub const TRANSIENT_CLEARS_BY: u32 = 3;

/// Probability scale: rule thresholds live in `0..=2^53` and decisions
/// compare a 53-bit roll against them.
const THRESHOLD_ONE: u64 = 1 << 53;

fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Is fault injection active? One relaxed atomic load when the answer
/// is a settled yes/no — the entire production-path cost of this crate.
#[inline]
pub fn active() -> bool {
    match STATE.load(Ordering::Relaxed) {
        0 => init_from_env(),
        1 => false,
        _ => true,
    }
}

/// First-use path: read `CMAM_FAULT_PLAN` / `CMAM_FAULT_SEED` and
/// settle the state machine.
#[cold]
fn init_from_env() -> bool {
    let installed = match std::env::var("CMAM_FAULT_PLAN") {
        Ok(spec) if !spec.trim().is_empty() => {
            let seed = std::env::var("CMAM_FAULT_SEED")
                .ok()
                .and_then(|s| parse_seed(&s))
                .unwrap_or(DEFAULT_SEED);
            match FaultPlan::parse(&spec, seed) {
                Ok(plan) => {
                    *lock_recover(&PLAN) = Some(Arc::new(plan));
                    true
                }
                Err(err) => {
                    cmam_obs::warn!("ignoring CMAM_FAULT_PLAN: {err}");
                    false
                }
            }
        }
        _ => false,
    };
    STATE.store(if installed { 2 } else { 1 }, Ordering::Relaxed);
    installed
}

fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// Install a fault plan, replacing any previous one. Subsequent site
/// checks fire according to the plan until [`clear`] is called.
pub fn install(plan: FaultPlan) {
    *lock_recover(&PLAN) = Some(Arc::new(plan));
    STATE.store(2, Ordering::Relaxed);
}

/// Remove any installed plan and turn fault injection off (also
/// suppresses any future environment consultation — tests use this to
/// pin a known-clean state).
pub fn clear() {
    *lock_recover(&PLAN) = None;
    STATE.store(1, Ordering::Relaxed);
}

fn installed_plan() -> Option<Arc<FaultPlan>> {
    if !active() {
        return None;
    }
    lock_recover(&PLAN).clone()
}

/// One rule of a fault plan: a site pattern, a firing threshold and a
/// sticky/transient flavour.
#[derive(Debug, Clone)]
struct FaultRule {
    /// Exact site name, or a prefix ending in `*`.
    pattern: String,
    /// Firing threshold out of [`THRESHOLD_ONE`].
    threshold: u64,
    /// Sticky rules fire on every attempt; transient ones clear.
    sticky: bool,
}

impl FaultRule {
    fn matches(&self, site: &str) -> bool {
        match self.pattern.strip_suffix('*') {
            Some(prefix) => site.starts_with(prefix),
            None => self.pattern == site,
        }
    }
}

/// A seeded fault schedule: every decision it makes is a pure function
/// of `(seed, site, key, attempt)`, so runs replay exactly.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Parse a plan from a comma-separated spec of
    /// `site=probability[:sticky]` rules. Site patterns may end in `*`
    /// to prefix-match (`cache.*`). The first matching rule wins.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, String> {
        let mut rules = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (site, rest) = part
                .split_once('=')
                .ok_or_else(|| format!("fault rule `{part}`: expected site=probability"))?;
            let (prob_str, sticky) = match rest.split_once(':') {
                Some((p, "sticky")) => (p, true),
                Some((_, other)) => {
                    return Err(format!("fault rule `{part}`: unknown modifier `{other}`"))
                }
                None => (rest, false),
            };
            let prob: f64 = prob_str
                .trim()
                .parse()
                .map_err(|_| format!("fault rule `{part}`: bad probability `{prob_str}`"))?;
            if !(0.0..=1.0).contains(&prob) {
                return Err(format!(
                    "fault rule `{part}`: probability {prob} outside [0, 1]"
                ));
            }
            rules.push(FaultRule {
                pattern: site.trim().to_string(),
                threshold: (prob * THRESHOLD_ONE as f64) as u64,
                sticky,
            });
        }
        if rules.is_empty() {
            return Err("fault plan is empty".to_string());
        }
        Ok(FaultPlan { seed, rules })
    }

    /// The seed this plan was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Core decision: does `site` fire for `key` at `attempt`
    /// (1-based)? Deterministic in the plan alone — chaos tests scan
    /// seeds with this before installing a plan globally.
    pub fn decides(&self, site: &str, key: u64, attempt: u32) -> bool {
        match self.curse(site, key) {
            None => false,
            Some((_, true)) => true,
            // Transient: a cursed key fails its first 1–2 attempts and
            // then always succeeds, so bounded retry recovers it.
            Some((value, false)) => u64::from(attempt) <= 1 + (value & 1),
        }
    }

    /// If `site` is cursed for `key`, the deterministic roll value used
    /// to pick fault details (truncation point, flip bit, delay).
    pub fn roll(&self, site: &str, key: u64) -> Option<u64> {
        self.curse(site, key).map(|(value, _)| value)
    }

    /// Whether `(site, key)` is cursed at all, plus the roll value and
    /// stickiness. `None` when no rule matches or the roll clears it.
    fn curse(&self, site: &str, key: u64) -> Option<(u64, bool)> {
        let rule = self.rules.iter().find(|r| r.matches(site))?;
        if rule.threshold == 0 {
            return None;
        }
        let mut state = self
            .seed
            .wrapping_add(fnv64(site.as_bytes()))
            .wrapping_add(key.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let roll = splitmix64(&mut state);
        if (roll >> 11) >= rule.threshold {
            return None;
        }
        Some((splitmix64(&mut state), rule.sticky))
    }
}

/// Does `site` fire for `key` right now? Attempt-free sites (cache IO,
/// corruption) are treated as attempt 1, so a cursed key fires on every
/// occasion — permanent until the plan changes.
#[inline]
pub fn fires(site: &str, key: u64) -> bool {
    if !active() {
        return false;
    }
    fires_slow(site, key, 1)
}

/// Does `site` fire for `key` at `attempt` (1-based)? Transient rules
/// clear by attempt [`TRANSIENT_CLEARS_BY`]; sticky rules never do.
#[inline]
pub fn fires_attempt(site: &str, key: u64, attempt: u32) -> bool {
    if !active() {
        return false;
    }
    fires_slow(site, key, attempt)
}

#[cold]
fn fires_slow(site: &str, key: u64, attempt: u32) -> bool {
    let Some(plan) = installed_plan() else {
        return false;
    };
    let fired = plan.decides(site, key, attempt);
    if fired {
        record(site);
    }
    fired
}

/// If `site` fires for `key` (attempt 1), the deterministic roll value
/// for picking fault details; `None` otherwise.
#[inline]
pub fn roll(site: &str, key: u64) -> Option<u64> {
    if !active() {
        return None;
    }
    roll_slow(site, key)
}

#[cold]
fn roll_slow(site: &str, key: u64) -> Option<u64> {
    let plan = installed_plan()?;
    if !plan.decides(site, key, 1) {
        return None;
    }
    record(site);
    plan.roll(site, key)
}

/// Panic with an `injected fault` message if `site` fires for `key` at
/// `attempt`. The deliberate chaos for per-job panic isolation tests.
#[inline]
pub fn panic_if(site: &str, key: u64, attempt: u32) {
    if fires_attempt(site, key, attempt) {
        panic!("injected fault: {site} (key {key:#018x}, attempt {attempt})");
    }
}

/// Sleep 1–2 ms (deterministically chosen) if `site` fires for `key`:
/// a worker-delay fault that perturbs scheduling without changing
/// results.
#[inline]
pub fn delay(site: &str, key: u64) {
    if let Some(value) = roll(site, key) {
        std::thread::sleep(std::time::Duration::from_millis(1 + (value % 2)));
    }
}

/// Corrupt an in-memory artifact according to the
/// `cache.corrupt.truncate` / `cache.corrupt.bitflip` sites: truncation
/// point and flipped bit are deterministic in `(plan, key)`. Returns
/// whether anything was mutated.
pub fn corrupt_artifact(key: u64, bytes: &mut Vec<u8>) -> bool {
    if !active() || bytes.is_empty() {
        return false;
    }
    let mut hit = false;
    if let Some(value) = roll("cache.corrupt.truncate", key) {
        bytes.truncate((value % bytes.len() as u64) as usize);
        hit = true;
    }
    if !bytes.is_empty() {
        if let Some(value) = roll("cache.corrupt.bitflip", key) {
            let bit = (value % (bytes.len() as u64 * 8)) as usize;
            bytes[bit / 8] ^= 1 << (bit % 8);
            hit = true;
        }
    }
    hit
}

/// Count a fired fault: the `fault.fired` total plus a per-site
/// `fault.<site>` counter (name leaked once per distinct site).
fn record(site: &str) {
    cmam_obs::counter!("fault.fired").add(1);
    let mut guard = lock_recover(&SITE_COUNTERS);
    let map = guard.get_or_insert_with(HashMap::new);
    let counter = map.entry(site.to_string()).or_insert_with(|| {
        let name: &'static str = Box::leak(format!("fault.{site}").into_boxed_str());
        cmam_obs::metrics::registry().counter(name)
    });
    counter.add(1);
}

/// FNV-1a over `bytes` — mixes site names into the decision state.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// splitmix64, the step of `cmam_cdfg::generate::SplitMix64`. This crate
/// keeps its own copy: its only dependency is `cmam_obs`, and a new edge
/// to `cmam_cdfg` would rewrite the benchmark's `perfbench/Cargo.lock`.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(spec: &str, seed: u64) -> FaultPlan {
        FaultPlan::parse(spec, seed).expect("valid plan")
    }

    /// Tests that install/clear the global plan must not interleave.
    static GLOBAL_PLAN: Mutex<()> = Mutex::new(());

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "cache.read",
            "cache.read=maybe",
            "cache.read=1.5",
            "cache.read=-0.1",
            "cache.read=0.5:often",
            "",
            " , ,",
        ] {
            assert!(
                FaultPlan::parse(bad, 1).is_err(),
                "spec `{bad}` should be rejected"
            );
        }
    }

    #[test]
    fn parse_accepts_probabilities_stickiness_and_wildcards() {
        let p = plan("cache.*=1.0, job.panic=0.5:sticky", 9);
        assert!(p.decides("cache.read", 42, 1), "wildcard matches");
        assert!(p.decides("cache.corrupt.bitflip", 42, 1));
        assert!(!p.decides("job.delay", 42, 1), "unmatched site never fires");
    }

    #[test]
    fn decisions_are_deterministic_and_key_sensitive() {
        let a = plan("job.panic=0.5", 1234);
        let b = plan("job.panic=0.5", 1234);
        let mut differs = false;
        for key in 0..256u64 {
            assert_eq!(
                a.decides("job.panic", key, 1),
                b.decides("job.panic", key, 1)
            );
            if a.decides("job.panic", key, 1) != a.decides("job.panic", key + 1, 1) {
                differs = true;
            }
        }
        assert!(differs, "decisions must vary with the key");
        let c = plan("job.panic=0.5", 1235);
        let mut seed_differs = false;
        for key in 0..256u64 {
            if a.decides("job.panic", key, 1) != c.decides("job.panic", key, 1) {
                seed_differs = true;
            }
        }
        assert!(seed_differs, "decisions must vary with the seed");
    }

    #[test]
    fn firing_rate_tracks_the_probability() {
        let p = plan("job.panic=0.25", 77);
        let fired = (0..10_000u64)
            .filter(|&k| p.decides("job.panic", k, 1))
            .count();
        assert!(
            (2_000..3_000).contains(&fired),
            "25% rule fired {fired}/10000 times"
        );
    }

    #[test]
    fn transient_faults_clear_by_the_retry_bound() {
        let p = plan("job.panic=0.9", 5);
        let mut cursed = 0;
        for key in 0..512u64 {
            if !p.decides("job.panic", key, 1) {
                continue;
            }
            cursed += 1;
            for attempt in TRANSIENT_CLEARS_BY..TRANSIENT_CLEARS_BY + 8 {
                assert!(
                    !p.decides("job.panic", key, attempt),
                    "transient fault still firing at attempt {attempt}"
                );
            }
        }
        assert!(cursed > 400, "0.9 rule should curse most keys");
    }

    #[test]
    fn sticky_faults_never_clear() {
        let p = plan("job.panic=0.9:sticky", 5);
        let key = (0..512u64)
            .find(|&k| p.decides("job.panic", k, 1))
            .expect("some cursed key");
        for attempt in 1..64 {
            assert!(p.decides("job.panic", key, attempt));
        }
    }

    #[test]
    fn corruption_is_deterministic_and_in_bounds() {
        let _serial = lock_recover(&GLOBAL_PLAN);
        install(plan("cache.corrupt.bitflip=1.0", 11));
        let original: Vec<u8> = (0..200u8).collect();
        let mut first = original.clone();
        let mut second = original.clone();
        assert!(corrupt_artifact(99, &mut first));
        assert!(corrupt_artifact(99, &mut second));
        clear();
        assert_eq!(first, second, "same plan+key corrupts identically");
        assert_eq!(first.len(), original.len());
        let flipped: u32 = first
            .iter()
            .zip(&original)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1, "bitflip site flips exactly one bit");
    }

    #[test]
    fn cleared_layer_never_fires() {
        let _serial = lock_recover(&GLOBAL_PLAN);
        install(plan("job.panic=1.0:sticky", 3));
        assert!(fires("job.panic", 1));
        clear();
        assert!(!fires("job.panic", 1));
        assert!(roll("job.panic", 1).is_none());
        let mut bytes = vec![1, 2, 3];
        assert!(!corrupt_artifact(1, &mut bytes));
        assert_eq!(bytes, vec![1, 2, 3]);
    }
}
