//! Keyed artifact cache: one [`DatasetArtifacts`] bundle per
//! `(dataset spec, run seed, config, threat subset, cell budget)`.
//!
//! The expensive per-group setup — dataset generation, the threat auditor's
//! pair sample + shadow bundle, and the trained vanilla checkpoints — is
//! paid once per key; a warm re-run of the same scenario (or a different
//! scenario sharing cells) skips straight to the method-specific training.
//! Every artifact is deterministic in its key, so cache hits are
//! bit-identical to cold builds (pinned by the runner's property tests).
//!
//! The cache is self-healing: every entry stores the FNV digest of its
//! immutable dataset at build time ([`DatasetArtifacts::content_checksum`])
//! and revalidates it on each hit, and a bundle whose mutex was poisoned by
//! a panicking holder is detected via [`Mutex::is_poisoned`].  Either way
//! only the bad entry is rebuilt — corruption or a crash in one group never
//! cascades into the rest of the matrix.

use ppfr_core::experiments::DatasetArtifacts;
use ppfr_core::PpfrConfig;
use ppfr_datasets::DatasetSpec;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// FNV-1a, the cheap stable hash used for cache-key fingerprints.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Locks a mutex, recovering from poisoning: the values behind the runner's
/// mutexes (the cache map and the artifact bundles) are updated
/// transactionally — a panic mid-cell never leaves a half-written insert —
/// so the data is still consistent and the poison flag alone must not take
/// the whole audit down.  Bundle-level staleness is handled separately by
/// the checksum/poison revalidation in [`ArtifactCache::get_or_build`].
pub(crate) fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One cached bundle plus the build-time digest of its immutable dataset.
#[derive(Debug, Clone)]
struct CacheEntry {
    bundle: Arc<Mutex<DatasetArtifacts>>,
    checksum: u64,
}

/// Thread-safe keyed store of shared per-`(dataset, seed)` artifacts.
#[derive(Debug, Default)]
pub struct ArtifactCache {
    map: Mutex<HashMap<String, CacheEntry>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    poison_rebuilds: AtomicUsize,
    corruption_rebuilds: AtomicUsize,
}

impl ArtifactCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cache key of one `(dataset, seed, config, threat subset, budget)`
    /// cell: a readable prefix plus a fingerprint over every input that
    /// shapes the artifacts.  The cell budget is part of the key because a
    /// bounded build may hold budget-truncated (degraded) vanilla
    /// checkpoints — handing those to an unbounded scenario (or vice versa)
    /// would silently mix exact and degraded artifacts.
    pub fn key(
        spec: &DatasetSpec,
        cfg: &PpfrConfig,
        data_seed: u64,
        threat_models: Option<&[String]>,
        cell_budget: Option<u64>,
    ) -> String {
        let cfg_json = serde_json::to_string(cfg).expect("config serialises");
        let fingerprint = fnv1a(
            format!(
                "{spec:?}|seed={data_seed}|cfg={cfg_json}|threats={threat_models:?}|budget={cell_budget:?}"
            )
            .as_bytes(),
        );
        format!("{}:s{}:{:016x}", spec.name, data_seed, fingerprint)
    }

    /// Builds a fresh entry (outside any lock).
    fn build_entry(
        spec: &DatasetSpec,
        cfg: &PpfrConfig,
        data_seed: u64,
        threat_models: Option<&[String]>,
    ) -> CacheEntry {
        let mut artifacts = DatasetArtifacts::build(spec, data_seed, cfg);
        if let Some(names) = threat_models {
            artifacts
                .auditor_mut()
                .registry_mut()
                .retain(|model| names.iter().any(|n| n == model.name()));
        }
        let checksum = artifacts.content_checksum();
        CacheEntry {
            bundle: Arc::new(Mutex::new(artifacts)),
            checksum,
        }
    }

    /// Fetches the artifacts for a key, building them on a miss.  The build
    /// runs outside the map lock so independent groups build concurrently;
    /// when set, `threat_models` subsets the auditor's registry before the
    /// first audit.
    ///
    /// A hit is revalidated before being served: a bundle whose mutex was
    /// poisoned, or whose dataset no longer matches its build-time checksum
    /// (artifact corruption — e.g. injected via the `artifact` fault site),
    /// is discarded and rebuilt.  Only that entry is invalidated.
    pub fn get_or_build(
        &self,
        spec: &DatasetSpec,
        cfg: &PpfrConfig,
        data_seed: u64,
        threat_models: Option<&[String]>,
        cell_budget: Option<u64>,
    ) -> Arc<Mutex<DatasetArtifacts>> {
        let key = Self::key(spec, cfg, data_seed, threat_models, cell_budget);
        let cached = lock_recover(&self.map).get(&key).cloned();
        if let Some(entry) = cached {
            // Fault injection: simulate in-place corruption of the cached
            // bundle.  The gate is a single relaxed load when no plan is
            // installed.
            if ppfr_resilience::armed()
                && ppfr_resilience::fault_at("artifact", &key)
                    == Some(ppfr_resilience::FaultKind::CorruptArtifact)
                && !entry.bundle.is_poisoned()
            {
                let mut artifacts = lock_recover(&entry.bundle);
                let features = artifacts.dataset.features.as_mut_slice();
                if let Some(first) = features.first_mut() {
                    *first = f64::from_bits(first.to_bits() ^ 0xdead_beef);
                }
            }
            let poisoned = entry.bundle.is_poisoned();
            let valid =
                !poisoned && lock_recover(&entry.bundle).content_checksum() == entry.checksum;
            if valid {
                // Relaxed is sufficient for all the tallies here: they are
                // pure statistics read after the run quiesces and never
                // order access to the artifacts, which the map mutex
                // already publishes.
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&entry.bundle);
            }
            if poisoned {
                self.poison_rebuilds.fetch_add(1, Ordering::Relaxed);
            } else {
                self.corruption_rebuilds.fetch_add(1, Ordering::Relaxed);
            }
            let rebuilt = Self::build_entry(spec, cfg, data_seed, threat_models);
            let bundle = Arc::clone(&rebuilt.bundle);
            lock_recover(&self.map).insert(key, rebuilt);
            return bundle;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let built = Self::build_entry(spec, cfg, data_seed, threat_models);
        let mut map = lock_recover(&self.map);
        // Two groups never share a key within one scenario run, but a racing
        // duplicate across runs keeps the first insertion canonical.
        Arc::clone(&map.entry(key).or_insert(built).bundle)
    }

    /// Number of cache hits so far.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of cache misses (= cold builds) so far.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of entries rebuilt because their bundle mutex was poisoned.
    pub fn poison_rebuilds(&self) -> usize {
        self.poison_rebuilds.load(Ordering::Relaxed)
    }

    /// Number of entries rebuilt because their dataset failed checksum
    /// revalidation.
    pub fn corruption_rebuilds(&self) -> usize {
        self.corruption_rebuilds.load(Ordering::Relaxed)
    }

    /// Number of cached artifact bundles.
    pub fn len(&self) -> usize {
        lock_recover(&self.map).len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the cache tallies, for summary output.  Read it at
    /// quiescence (after the scenario run returns) — the tallies are relaxed
    /// statistics, not synchronised with in-flight builds.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.len(),
            hits: self.hits(),
            misses: self.misses(),
            poison_rebuilds: self.poison_rebuilds(),
            corruption_rebuilds: self.corruption_rebuilds(),
        }
    }
}

/// Hit/miss/entry/rebuild tallies of an [`ArtifactCache`], as surfaced in
/// runner summaries.  Deliberately *not* part of the serialised
/// [`MatrixReport`]: the report is pinned bit-identical between cold and
/// cache-warm runs, which these tallies are not.
///
/// [`MatrixReport`]: crate::MatrixReport
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Cached artifact bundles.
    pub entries: usize,
    /// Fetches served from the cache.
    pub hits: usize,
    /// Fetches that had to build (= bundles ever built cold).
    pub misses: usize,
    /// Entries rebuilt after mutex poisoning.
    pub poison_rebuilds: usize,
    /// Entries rebuilt after checksum-revalidation failure.
    pub corruption_rebuilds: usize,
}

impl CacheStats {
    /// One-line human-readable summary, e.g.
    /// `artifact cache: 4 entries, 0 hits, 4 misses (hit rate 0%), 0 rebuilt`.
    pub fn summary_line(&self) -> String {
        let total = self.hits + self.misses;
        let rate = if total > 0 {
            100.0 * self.hits as f64 / total as f64
        } else {
            0.0
        };
        format!(
            "artifact cache: {} entries, {} hits, {} misses (hit rate {rate:.0}%), {} rebuilt ({} poisoned, {} corrupted)",
            self.entries,
            self.hits,
            self.misses,
            self.poison_rebuilds + self.corruption_rebuilds,
            self.poison_rebuilds,
            self.corruption_rebuilds
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfr_datasets::two_block_synthetic;

    fn tiny_cfg() -> PpfrConfig {
        PpfrConfig {
            vanilla_epochs: 8,
            influence_cg_iters: 3,
            ..PpfrConfig::smoke()
        }
    }

    #[test]
    fn keys_separate_seed_config_threat_subset_and_budget() {
        let spec = two_block_synthetic();
        let cfg = tiny_cfg();
        let base = ArtifactCache::key(&spec, &cfg, 7, None, None);
        assert!(base.starts_with("two-block:s7:"));
        assert_ne!(base, ArtifactCache::key(&spec, &cfg, 8, None, None));
        let other_cfg = PpfrConfig {
            perturb_ratio: 0.5,
            ..tiny_cfg()
        };
        assert_ne!(base, ArtifactCache::key(&spec, &other_cfg, 7, None, None));
        let subset = vec!["posteriors".to_string()];
        assert_ne!(
            base,
            ArtifactCache::key(&spec, &cfg, 7, Some(&subset), None)
        );
        // A bounded build may hold degraded vanilla checkpoints — it must
        // never be served to an unbounded scenario.
        assert_ne!(base, ArtifactCache::key(&spec, &cfg, 7, None, Some(100)));
        assert_ne!(
            ArtifactCache::key(&spec, &cfg, 7, None, Some(100)),
            ArtifactCache::key(&spec, &cfg, 7, None, Some(200))
        );
    }

    #[test]
    fn keys_separate_sampling_and_estimator_config() {
        // Regression guard: the LiSSA depth must reach the key fingerprint —
        // a collision here would hand an exact-CG scenario artifacts
        // re-weighted with LiSSA (or vice versa).
        let spec = two_block_synthetic();
        let base = ArtifactCache::key(&spec, &tiny_cfg(), 7, None, None);
        let lissa = PpfrConfig {
            lissa_depth: 150,
            ..tiny_cfg()
        };
        assert_ne!(base, ArtifactCache::key(&spec, &lissa, 7, None, None));
    }

    #[test]
    fn second_fetch_is_a_hit_and_returns_the_same_bundle() {
        let cache = ArtifactCache::new();
        let spec = two_block_synthetic();
        let cfg = tiny_cfg();
        let first = cache.get_or_build(&spec, &cfg, 7, None, None);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 1, 1));
        let second = cache.get_or_build(&spec, &cfg, 7, None, None);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.poison_rebuilds(), 0);
        assert_eq!(cache.corruption_rebuilds(), 0);
    }

    #[test]
    fn threat_subset_shrinks_the_registry() {
        let cache = ArtifactCache::new();
        let spec = two_block_synthetic();
        let cfg = tiny_cfg();
        let subset = vec!["posteriors".to_string()];
        let bundle = cache.get_or_build(&spec, &cfg, 7, Some(&subset), None);
        let mut artifacts = lock_recover(&bundle);
        assert_eq!(artifacts.auditor_mut().registry().len(), 1);
    }

    #[test]
    fn poisoned_bundle_is_rebuilt_without_cascading() {
        let cache = ArtifactCache::new();
        let spec = two_block_synthetic();
        let cfg = tiny_cfg();
        let first = cache.get_or_build(&spec, &cfg, 7, None, None);
        // Poison the bundle mutex by panicking while holding its guard.
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = first.lock().expect("fresh bundle lock");
            panic!("simulated crash while holding the bundle");
        }));
        assert!(poison.is_err());
        assert!(first.is_poisoned());
        // The next fetch detects the poison, rebuilds only this entry and
        // serves a healthy bundle.
        let second = cache.get_or_build(&spec, &cfg, 7, None, None);
        assert!(!Arc::ptr_eq(&first, &second), "poisoned bundle was reused");
        assert!(!second.is_poisoned());
        assert_eq!(cache.poison_rebuilds(), 1);
        assert_eq!(cache.len(), 1, "entry replaced, not duplicated");
        // And the rebuilt entry now serves plain hits again.
        let third = cache.get_or_build(&spec, &cfg, 7, None, None);
        assert!(Arc::ptr_eq(&second, &third));
        assert_eq!(cache.poison_rebuilds(), 1);
    }

    #[test]
    fn corrupted_bundle_fails_revalidation_and_is_rebuilt() {
        let cache = ArtifactCache::new();
        let spec = two_block_synthetic();
        let cfg = tiny_cfg();
        let first = cache.get_or_build(&spec, &cfg, 7, None, None);
        let clean_checksum = lock_recover(&first).content_checksum();
        // Corrupt the cached dataset directly (the `artifact` fault site
        // does the same through the injection gate).
        lock_recover(&first).dataset.features.as_mut_slice()[0] += 1.0;
        assert_ne!(lock_recover(&first).content_checksum(), clean_checksum);
        let second = cache.get_or_build(&spec, &cfg, 7, None, None);
        assert!(!Arc::ptr_eq(&first, &second), "corrupted bundle was reused");
        assert_eq!(cache.corruption_rebuilds(), 1);
        assert_eq!(
            lock_recover(&second).content_checksum(),
            clean_checksum,
            "rebuild restores the deterministic dataset"
        );
    }

    #[test]
    fn injected_artifact_corruption_is_detected_on_the_next_fetch() {
        // The fault plan is process-wide: under a seed the sibling tests
        // share, their cache hits on the same key could consume the
        // one-shot fault before this test's second fetch.
        const SEED: u64 = 31;
        let cache = ArtifactCache::new();
        let spec = two_block_synthetic();
        let cfg = tiny_cfg();
        let first = cache.get_or_build(&spec, &cfg, SEED, None, None);
        let clean_checksum = lock_recover(&first).content_checksum();
        let key = ArtifactCache::key(&spec, &cfg, SEED, None, None);
        let plan = ppfr_resilience::FaultPlan::empty(1).with(ppfr_resilience::FaultSpec::times(
            "artifact",
            &key,
            ppfr_resilience::FaultKind::CorruptArtifact,
            1,
        ));
        let second = ppfr_resilience::with_fault_plan(plan, || {
            cache.get_or_build(&spec, &cfg, SEED, None, None)
        });
        // The injected corruption hit the cached bundle, was caught by the
        // checksum revalidation, and a clean rebuild was served instead.
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(cache.corruption_rebuilds(), 1);
        assert_eq!(lock_recover(&second).content_checksum(), clean_checksum);
    }
}
