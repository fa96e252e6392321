//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] is a seeded set of rules that inject panics, delays
//! and truncated store writes at *named sites* in the pipeline. The
//! decision for each `(site, key)` pair — e.g. `("check_one", "p17")`
//! — is a pure hash of the seed, the site, the key and the action
//! kind, **never** the wall clock or an arrival counter: the same
//! ~10% of properties fault on every run regardless of how eight
//! worker threads happen to interleave, which is what makes chaos
//! behavior reproducible in tests and CI.
//!
//! The sites currently instrumented:
//!
//! | site                 | keyed by      | actions honored    |
//! |----------------------|---------------|--------------------|
//! | `check_one`          | property name | `panic`, `delay`   |
//! | `joint_attempt`      | design name   | `panic`, `delay`   |
//! | `enum_round`         | property name | `panic`, `delay`   |
//! | `verdict_cache_save` | file name     | `truncate`         |
//!
//! With no plan installed (the default) every probe is one atomic
//! load, so production runs pay nothing.
//!
//! # Examples
//!
//! ```
//! use japrove_obs::fault::FaultPlan;
//!
//! let plan = FaultPlan::parse("panic@check_one:0.1;delay@check_one:0.2:5", 42).unwrap();
//! // Decisions are a pure function of (seed, site, key, action):
//! let hit = plan.decides("check_one", "p3", "panic", 0.1);
//! assert_eq!(hit, plan.decides("check_one", "p3", "panic", 0.1));
//! ```

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What an injection rule does when its decision fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultAction {
    /// Panic at the site (exercises the supervision layer).
    Panic,
    /// Sleep for the given duration (exercises watchdog timeouts).
    Delay(Duration),
    /// Truncate a store write to the given byte count (exercises the
    /// lossy loaders). Honored by persistence sites only.
    Truncate(usize),
}

impl FaultAction {
    /// The wire/spec name of this action kind, also the hash salt that
    /// keeps co-sited rules' decisions independent.
    fn name(&self) -> &'static str {
        match self {
            FaultAction::Panic => "panic",
            FaultAction::Delay(_) => "delay",
            FaultAction::Truncate(_) => "truncate",
        }
    }
}

/// One injection rule: an action fired at `site` with probability
/// `rate` (per distinct key).
#[derive(Clone, Debug, PartialEq)]
pub struct FaultRule {
    /// The named injection site this rule arms.
    pub site: String,
    /// Fraction of keys that fault, in `[0, 1]`.
    pub rate: f64,
    /// What happens when the decision fires.
    pub action: FaultAction,
}

/// A seeded, deterministic set of [`FaultRule`]s.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    seed: u64,
}

/// The grammar reminder appended to every spec parse error.
const SPEC_FORMS: &str =
    "expected panic@SITE:RATE, delay@SITE:RATE:MILLIS or truncate@SITE:RATE:BYTES, \
     clauses separated by ';'";

impl FaultPlan {
    /// Parses a plan spec: `;`-separated clauses of the forms
    /// `panic@SITE:RATE`, `delay@SITE:RATE:MILLIS` and
    /// `truncate@SITE:RATE:BYTES`.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, String> {
        let mut rules = Vec::new();
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let (kind, rest) = clause
                .split_once('@')
                .ok_or_else(|| format!("bad fault clause '{clause}' ({SPEC_FORMS})"))?;
            let mut parts = rest.split(':');
            let site = parts.next().filter(|s| !s.is_empty()).ok_or_else(|| {
                format!("bad fault clause '{clause}': missing site ({SPEC_FORMS})")
            })?;
            let rate: f64 = parts
                .next()
                .and_then(|r| r.parse().ok())
                .filter(|r| (0.0..=1.0).contains(r))
                .ok_or_else(|| {
                    format!("bad fault clause '{clause}': need a rate in 0..=1 ({SPEC_FORMS})")
                })?;
            let mut amount = |what: &str| {
                parts
                    .next()
                    .and_then(|a| a.parse::<u64>().ok())
                    .ok_or_else(|| {
                        format!("bad fault clause '{clause}': need {what} ({SPEC_FORMS})")
                    })
            };
            let action = match kind {
                "panic" => FaultAction::Panic,
                "delay" => FaultAction::Delay(Duration::from_millis(amount("MILLIS")?)),
                "truncate" => FaultAction::Truncate(amount("BYTES")? as usize),
                other => {
                    return Err(format!("unknown fault action '{other}' ({SPEC_FORMS})"));
                }
            };
            if parts.next().is_some() {
                return Err(format!(
                    "bad fault clause '{clause}': trailing field ({SPEC_FORMS})"
                ));
            }
            rules.push(FaultRule {
                site: site.to_string(),
                rate,
                action,
            });
        }
        Ok(FaultPlan { rules, seed })
    }

    /// Reads a plan from `JAPROVE_FAULT_PLAN` / `JAPROVE_FAULT_SEED`,
    /// so fault injection reaches processes (benches, CI smoke runs)
    /// that grew no flag for it. `Ok(None)` when the variable is unset.
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        let Ok(spec) = std::env::var("JAPROVE_FAULT_PLAN") else {
            return Ok(None);
        };
        let seed = match std::env::var("JAPROVE_FAULT_SEED") {
            Ok(s) => s
                .parse()
                .map_err(|_| format!("bad JAPROVE_FAULT_SEED '{s}': need an integer"))?,
            Err(_) => 0,
        };
        FaultPlan::parse(&spec, seed).map(Some)
    }

    /// Whether the `(site, key, action)` triple faults under this plan:
    /// a pure hash decision, identical on every run and every thread
    /// interleaving.
    pub fn decides(&self, site: &str, key: &str, action: &str, rate: f64) -> bool {
        let h = splitmix64(self.seed ^ fnv1a(site).rotate_left(17) ^ fnv1a(key) ^ fnv1a(action));
        // 53 high bits → a uniform float in [0, 1).
        ((h >> 11) as f64 / (1u64 << 53) as f64) < rate
    }

    fn action_for(&self, site: &str, key: &str) -> Option<FaultAction> {
        self.rules
            .iter()
            .filter(|r| r.site == site)
            .find(|r| self.decides(site, key, r.action.name(), r.rate))
            .map(|r| r.action)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.rules.iter().enumerate() {
            if i > 0 {
                f.write_str(";")?;
            }
            match r.action {
                FaultAction::Panic => write!(f, "panic@{}:{}", r.site, r.rate)?,
                FaultAction::Delay(d) => {
                    write!(f, "delay@{}:{}:{}", r.site, r.rate, d.as_millis())?
                }
                FaultAction::Truncate(n) => write!(f, "truncate@{}:{}:{n}", r.site, r.rate)?,
            }
        }
        Ok(())
    }
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

// The process-wide installed plan. ARMED is the fast path: with no
// plan installed, `fire`/`truncation` are one relaxed load.
static ARMED: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<Arc<FaultPlan>>> = Mutex::new(None);

/// Installs `plan` process-wide; subsequent probes consult it.
pub fn install(plan: FaultPlan) {
    *PLAN.lock().unwrap_or_else(|e| e.into_inner()) = Some(Arc::new(plan));
    ARMED.store(true, Ordering::Release);
}

/// Removes the installed plan (tests call this to clean up).
pub fn clear() {
    ARMED.store(false, Ordering::Release);
    *PLAN.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

/// The installed plan, if any.
pub fn active() -> Option<Arc<FaultPlan>> {
    if !ARMED.load(Ordering::Acquire) {
        return None;
    }
    PLAN.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// An execution-site probe: panics or delays if the installed plan says
/// `(site, key)` faults. A panic here unwinds into the supervision
/// layer's `catch_unwind`, exactly like a genuine engine bug would.
pub fn fire(site: &str, key: &str) {
    let Some(plan) = active() else { return };
    match plan.action_for(site, key) {
        Some(FaultAction::Panic) => {
            panic!("injected fault at {site} ({key})");
        }
        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
        Some(FaultAction::Truncate(_)) | None => {}
    }
}

/// A persistence-site probe: the byte count a store write at `(site,
/// key)` must be torn to, if the installed plan says so.
pub fn truncation(site: &str, key: &str) -> Option<usize> {
    match active()?.action_for(site, key) {
        Some(FaultAction::Truncate(n)) => Some(n),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_and_rejects_bad_clauses() {
        let plan = FaultPlan::parse(
            "panic@check_one:0.1; delay@check_one:0.25:5;truncate@s:1:16",
            7,
        )
        .unwrap();
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(
            plan.to_string(),
            "panic@check_one:0.1;delay@check_one:0.25:5;truncate@s:1:16"
        );
        for bad in [
            "panic:0.1",        // no @site
            "panic@:0.1",       // empty site
            "panic@s:1.5",      // rate out of range
            "panic@s:x",        // rate not a number
            "delay@s:0.5",      // missing millis
            "truncate@s:0.5:x", // bytes not a number
            "teleport@s:0.5",   // unknown action
            "panic@s:0.5:7",    // trailing field
        ] {
            let err = FaultPlan::parse(bad, 0).unwrap_err();
            assert!(err.contains("panic@SITE:RATE"), "{bad}: {err}");
        }
        // Empty specs and empty clauses are fine.
        assert_eq!(FaultPlan::parse("", 0).unwrap().rules.len(), 0);
        assert_eq!(FaultPlan::parse("panic@s:1;;", 0).unwrap().rules.len(), 1);
    }

    #[test]
    fn decisions_are_deterministic_and_rate_shaped() {
        let plan = FaultPlan::parse("panic@check_one:0.1", 42).unwrap();
        let hits: Vec<bool> = (0..1000)
            .map(|i| plan.decides("check_one", &format!("p{i}"), "panic", 0.1))
            .collect();
        let again: Vec<bool> = (0..1000)
            .map(|i| plan.decides("check_one", &format!("p{i}"), "panic", 0.1))
            .collect();
        assert_eq!(hits, again, "decisions are a pure function");
        let count = hits.iter().filter(|&&h| h).count();
        assert!((50..200).contains(&count), "~10% of 1000 keys: {count}");
        // Rate 0 never fires, rate 1 always fires.
        assert!((0..100).all(|i| !plan.decides("s", &format!("k{i}"), "panic", 0.0)));
        assert!((0..100).all(|i| plan.decides("s", &format!("k{i}"), "panic", 1.0)));
    }

    #[test]
    fn different_seeds_pick_different_victims() {
        let a = FaultPlan::parse("panic@s:0.5", 1).unwrap();
        let b = FaultPlan::parse("panic@s:0.5", 2).unwrap();
        let pick = |p: &FaultPlan| -> Vec<bool> {
            (0..64)
                .map(|i| p.decides("s", &format!("k{i}"), "panic", 0.5))
                .collect()
        };
        assert_ne!(pick(&a), pick(&b));
    }

    #[test]
    fn co_sited_rules_decide_independently() {
        // With panic and delay armed at the same site and rate, some
        // keys must fall under exactly one of the two — the action-name
        // salt decorrelates them.
        let plan = FaultPlan::parse("panic@s:0.5;delay@s:0.5:1", 9).unwrap();
        let differs = (0..64).any(|i| {
            let k = format!("k{i}");
            plan.decides("s", &k, "panic", 0.5) != plan.decides("s", &k, "delay", 0.5)
        });
        assert!(differs);
    }

    #[test]
    fn truncation_probe_reports_armed_sites_only() {
        // Serialized against other registry users by being the only
        // unit test here that installs a plan (integration tests run in
        // their own process).
        install(FaultPlan::parse("truncate@verdict_cache_save:1:10", 0).unwrap());
        assert_eq!(truncation("verdict_cache_save", "cache.jsonl"), Some(10));
        assert_eq!(truncation("check_one", "cache.jsonl"), None);
        fire("check_one", "p0"); // no rule for this site: a no-op
        clear();
        assert!(active().is_none());
        assert_eq!(truncation("verdict_cache_save", "cache.jsonl"), None);
    }
}
