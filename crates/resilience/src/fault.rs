//! Seeded, deterministic fault injection behind a zero-overhead gate.
//!
//! A [`FaultPlan`] names the faults to fire — worker/group panics, cell
//! errors, artifact corruption, simulated budget exhaustion — by *site* and
//! *key*, optionally limited to the first `times` occurrences and thinned by
//! a seeded probability.  The harness mirrors `PPFR_TELEMETRY`'s gating
//! discipline: with no plan installed (the production state), every query is
//! the single relaxed atomic load in [`armed`] — no lock, no allocation, no
//! branch beyond the load, so the chaos machinery costs nothing when off.
//!
//! Determinism: a probability draw hashes `(plan seed, site, key,
//! occurrence index)` with SplitMix64 — no RNG state, no clock — so the same
//! plan always fires the same faults in the same places, which is what lets
//! the chaos suite pin "surviving cells are bit-identical" across thread
//! counts.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;

/// What an injected fault does at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Panic at the site (exercises quarantine + poison recovery).
    Panic,
    /// Return a typed error from the site (exercises retry).
    Error,
    /// Corrupt the cached artifact bundle (exercises checksum validation).
    CorruptArtifact,
    /// Exhaust the cell's budget up-front (exercises the degradation ladder).
    ExhaustBudget,
}

/// One fault to inject: `kind` fires at `site` when the site's key matches.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Injection site, e.g. `cell`, `group`, `artifact`, `budget`.
    pub site: String,
    /// Exact key to match (e.g. `cora:s7:GCN:PPFR`); empty matches every key
    /// at the site.
    pub key: String,
    /// What to do when the fault fires.
    pub kind: FaultKind,
    /// Fire at most this many times; `0` means unlimited.
    pub times: u32,
    /// Probability of firing per occurrence, drawn deterministically from
    /// the plan seed; `1.0` always fires.
    pub probability: f64,
}

impl FaultSpec {
    /// A fault that always fires at `site` for the exact `key`.
    pub fn always(site: &str, key: &str, kind: FaultKind) -> Self {
        Self {
            site: site.to_string(),
            key: key.to_string(),
            kind,
            times: 0,
            probability: 1.0,
        }
    }

    /// [`FaultSpec::always`] limited to the first `times` occurrences —
    /// `times: 1` makes a transient fault that a retry survives.
    pub fn times(site: &str, key: &str, kind: FaultKind, times: u32) -> Self {
        Self {
            times,
            ..Self::always(site, key, kind)
        }
    }
}

/// A seeded set of faults to inject into a run.  Serialisable so chaos
/// configurations can be stored beside scenario specs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the deterministic probability draws.
    pub seed: u64,
    /// The faults to inject.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (arms the gate but never fires — for overhead tests).
    pub fn empty(seed: u64) -> Self {
        Self {
            seed,
            faults: Vec::new(),
        }
    }

    /// Adds a fault to the plan.
    pub fn with(mut self, fault: FaultSpec) -> Self {
        self.faults.push(fault);
        self
    }
}

/// An installed plan plus per-fault occurrence counters.
struct InstalledPlan {
    plan: FaultPlan,
    /// Occurrences seen per fault (for `times` limits and probability
    /// stream indices).
    seen: Vec<AtomicU32>,
}

/// The zero-overhead gate: `false` (a single relaxed load) whenever no plan
/// is installed.
static ARMED: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<InstalledPlan>> = Mutex::new(None);

/// `true` while a [`FaultPlan`] is installed.  The only cost fault injection
/// adds to a production run is this relaxed load returning `false`.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Installs `plan` process-wide (replacing any previous plan) and arms the
/// gate.  Prefer [`with_fault_plan`] in tests — it serialises access to the
/// global plan across threads.
pub fn install(plan: FaultPlan) {
    let seen = (0..plan.faults.len()).map(|_| AtomicU32::new(0)).collect();
    *PLAN.lock().unwrap_or_else(|p| p.into_inner()) = Some(InstalledPlan { plan, seen });
    ARMED.store(true, Ordering::Relaxed);
}

/// Removes the installed plan and disarms the gate.
pub fn clear() {
    ARMED.store(false, Ordering::Relaxed);
    *PLAN.lock().unwrap_or_else(|p| p.into_inner()) = None;
}

/// SplitMix64 — the deterministic hash behind probability draws.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Queries the installed plan: does a fault fire at `(site, key)` right now?
/// Returns the fault's kind when it fires, bumping its occurrence counter.
/// Disarmed ([`armed`] = `false`) this returns `None` after one relaxed
/// atomic load.
pub fn fault_at(site: &str, key: &str) -> Option<FaultKind> {
    if !armed() {
        return None;
    }
    let guard = PLAN.lock().unwrap_or_else(|p| p.into_inner());
    let installed = guard.as_ref()?;
    for (spec, seen) in installed.plan.faults.iter().zip(&installed.seen) {
        if spec.site != site || (!spec.key.is_empty() && spec.key != key) {
            continue;
        }
        // Occurrence index is per (fault, site, key) stream; bumped even
        // when the probability draw declines so the stream advances
        // deterministically.
        let occurrence = seen.fetch_add(1, Ordering::Relaxed);
        if spec.times != 0 && occurrence >= spec.times {
            continue;
        }
        if spec.probability < 1.0 {
            let stream = installed.plan.seed
                ^ fnv1a(site.as_bytes())
                ^ fnv1a(key.as_bytes()).rotate_left(17)
                ^ u64::from(occurrence).wrapping_mul(0xd1b5_4a32_d192_ed03);
            let draw = splitmix64(stream) as f64 / u64::MAX as f64;
            if draw >= spec.probability {
                continue;
            }
        }
        crate::FAULTS_INJECTED.fetch_add(1, Ordering::Relaxed);
        return Some(spec.kind);
    }
    None
}

/// Installs `plan`, runs `f`, then clears the plan — serialised process-wide
/// so concurrent tests cannot interleave their plans.  This is the API the
/// chaos suite uses.
pub fn with_fault_plan<T>(plan: FaultPlan, f: impl FnOnce() -> T) -> T {
    static SCOPE: Mutex<()> = Mutex::new(());
    let _scope = SCOPE.lock().unwrap_or_else(|p| p.into_inner());
    struct ClearOnDrop;
    impl Drop for ClearOnDrop {
        fn drop(&mut self) {
            clear();
        }
    }
    install(plan);
    let _clear = ClearOnDrop;
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_gate_fires_nothing() {
        clear();
        assert!(!armed());
        assert_eq!(fault_at("cell", "anything"), None);
    }

    #[test]
    fn plan_fires_on_exact_and_wildcard_keys() {
        with_fault_plan(
            FaultPlan::empty(7)
                .with(FaultSpec::always("cell", "a:s7:GCN:PPFR", FaultKind::Panic))
                .with(FaultSpec::always("budget", "", FaultKind::ExhaustBudget)),
            || {
                assert!(armed());
                assert_eq!(fault_at("cell", "a:s7:GCN:PPFR"), Some(FaultKind::Panic));
                assert_eq!(fault_at("cell", "a:s7:GCN:Reg"), None, "key mismatch");
                assert_eq!(fault_at("group", "a:s7"), None, "site mismatch");
                assert_eq!(
                    fault_at("budget", "whatever"),
                    Some(FaultKind::ExhaustBudget),
                    "empty key matches every key"
                );
            },
        );
        assert!(!armed(), "scope clears the plan");
    }

    #[test]
    fn times_limit_makes_transient_faults() {
        with_fault_plan(
            FaultPlan::empty(7).with(FaultSpec::times("cell", "k", FaultKind::Error, 2)),
            || {
                assert_eq!(fault_at("cell", "k"), Some(FaultKind::Error));
                assert_eq!(fault_at("cell", "k"), Some(FaultKind::Error));
                assert_eq!(fault_at("cell", "k"), None, "third occurrence passes");
            },
        );
    }

    #[test]
    fn probability_draws_are_deterministic_in_the_seed() {
        let run = |seed: u64| {
            with_fault_plan(
                FaultPlan {
                    seed,
                    faults: vec![FaultSpec {
                        probability: 0.5,
                        ..FaultSpec::always("cell", "", FaultKind::Error)
                    }],
                },
                || {
                    (0..32)
                        .map(|i| fault_at("cell", &format!("k{i}")).is_some())
                        .collect::<Vec<bool>>()
                },
            )
        };
        let a = run(42);
        assert_eq!(a, run(42), "same seed, same firing pattern");
        assert_ne!(a, run(43), "different seed, different pattern");
        let fired = a.iter().filter(|&&f| f).count();
        assert!(
            (4..=28).contains(&fired),
            "p=0.5 fires roughly half: {fired}"
        );
    }

    #[test]
    fn plans_roundtrip_through_json() {
        let plan = FaultPlan::empty(9).with(FaultSpec::times(
            "cell",
            "a:s7:GCN:PPFR",
            FaultKind::Panic,
            1,
        ));
        let json = serde_json::to_string(&plan).expect("plan serialises");
        let back: FaultPlan = serde_json::from_str(&json).expect("plan parses");
        assert_eq!(back.seed, 9);
        assert_eq!(back.faults.len(), 1);
        assert_eq!(back.faults[0].kind, FaultKind::Panic);
        assert_eq!(back.faults[0].times, 1);
    }
}
