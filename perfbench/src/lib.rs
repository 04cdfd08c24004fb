//! End-to-end and per-layer benchmark of the PPFR audit.
//!
//! Every workload drives the program through its public entry points only
//! (`ppfr_runner::run_scenario`, `ppfr_runner::run_scale_scenario` and the
//! layer crates' public functions); nothing here changes program code.  Each
//! workload is a closed loop: one process, one client, and the next
//! iteration starts when the previous one has completed.  See `README.md`
//! next to this crate for why each workload exists and how to read its
//! metrics.

pub mod audit;
mod scale;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

/// The fixed workloads of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The runner's `bench-small` matrix: attack fits and per-call overhead.
    AuditSmall,
    /// `tables-high-homophily` at smoke scale: influence, GAT and GraphSAGE.
    AuditPaper,
    /// Streamed bias, capped attack AUC and sampled training at 200k nodes.
    ScaleStream,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::AuditSmall,
        Workload::AuditPaper,
        Workload::ScaleStream,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AuditSmall => "audit-small",
            Workload::AuditPaper => "audit-paper",
            Workload::ScaleStream => "scale-stream",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads the workload runs at.  The audits run single-threaded:
    /// at two threads the pool's join/detach race can crash a cell or the
    /// process, and a benchmark must finish.  `scale-stream` runs at two
    /// threads, where its kernels are large enough to gain from the pool.
    pub fn threads(self) -> usize {
        match self {
            Workload::AuditSmall | Workload::AuditPaper => 1,
            Workload::ScaleStream => 2,
        }
    }
}

/// Full-size inputs for benchmark runs, or a reduced pass for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The inputs `BENCHMARK.json` describes.
    Full,
    /// Same structure, small enough for a test run.
    Reduced,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

impl Metric {
    /// A named metric.
    pub(crate) fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Outcome of one benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted: cell attempts on the audits, stage calls on
    /// `scale-stream`.
    pub attempted: u64,
    /// Of those, operations that failed (panicked, returned an error, or
    /// were retried by the runner).
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// FNV-1a digest of the workload's output, for comparing two commits.
    pub digest: String,
    /// Timed iterations behind the medians.
    pub iterations: usize,
    /// Reasons the output checks failed, empty when `correct`.
    pub problems: Vec<String>,
}

impl RunResult {
    /// The value of a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The last line the command prints: one JSON object with exactly the
    /// keys `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number in JSON syntax with all its digits (`{}` on an `f64`
/// prints the shortest string that parses back to the same value).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// Bookkeeping shared by every workload loop.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Operations attempted.
    pub(crate) attempted: u64,
    /// Operations failed.
    pub(crate) failed: u64,
    /// Output-check failures.
    pub(crate) problems: Vec<String>,
}

impl Tally {
    /// Records a failed output check.
    pub(crate) fn problem(&mut self, message: impl Into<String>) {
        let message = message.into();
        eprintln!("perfbench: check failed: {message}");
        self.problems.push(message);
    }

    /// Records a check that must hold.
    pub(crate) fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.problem(message());
        }
    }

    /// Completed operations over attempted ones (0 when nothing was
    /// attempted).
    pub(crate) fn completed_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    /// Builds the result, `correct` when no check failed.
    pub(crate) fn finish(
        self,
        metrics: Vec<Metric>,
        digest: String,
        iterations: usize,
    ) -> RunResult {
        RunResult {
            correct: self.problems.is_empty() && iterations > 0,
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics,
            digest,
            iterations,
            problems: self.problems,
        }
    }
}

/// Paces a closed loop over a run of `seconds`: the first iteration always
/// runs, a later one only when, at the previous iteration's pace, it ends
/// within the run — so a run never overruns by most of an iteration.
pub(crate) struct Pacer {
    started: Instant,
    seconds: f64,
    iteration_start: Instant,
    last_s: f64,
    iterations: usize,
}

impl Pacer {
    /// A pacer for a run of `seconds`, starting now.
    pub(crate) fn new(seconds: f64) -> Self {
        let now = Instant::now();
        Self {
            started: now,
            seconds,
            iteration_start: now,
            last_s: 0.0,
            iterations: 0,
        }
    }

    /// Whether to start another iteration (and, if so, counts it).
    pub(crate) fn next_iteration(&mut self) -> bool {
        let now = Instant::now();
        if self.iterations > 0 {
            self.last_s = now.duration_since(self.iteration_start).as_secs_f64();
        }
        let elapsed = now.duration_since(self.started).as_secs_f64();
        let go = self.iterations == 0 || elapsed + self.last_s <= self.seconds;
        if go {
            self.iterations += 1;
            self.iteration_start = now;
        }
        go
    }

    /// Iterations started so far.
    pub(crate) fn iterations(&self) -> usize {
        self.iterations
    }
}

/// SplitMix64: derives independent scenario seeds from the workload seed.
pub(crate) fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a of a string, as 16 hex digits.
pub(crate) fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub(crate) fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Peak resident set size of this process in MiB (`VmHWM` of
/// `/proc/self/status`), or 0 where the file is unavailable.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host-drift canary: milliseconds of a fixed serial compute loop (a naive
/// 96×96 matrix product, repeated) written here rather than in the program,
/// so no program change can move it.  Timed at the start and end of a run,
/// it tells a slow host phase apart from a regression.
fn host_reference_ms() -> f64 {
    const N: usize = 96;
    let a: Vec<f64> = (0..N * N)
        .map(|i| ((i * 7919) % 101) as f64 / 101.0)
        .collect();
    let b: Vec<f64> = (0..N * N)
        .map(|i| ((i * 104_729) % 97) as f64 / 97.0)
        .collect();
    let mut c = vec![0.0f64; N * N];
    let start = Instant::now();
    for _ in 0..24 {
        for i in 0..N {
            for k in 0..N {
                let aik = std::hint::black_box(a[i * N + k]);
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
        std::hint::black_box(&mut c);
    }
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs one workload: the untraced end-to-end measurement (`traced ==
/// false`) or the traced per-layer run.  The caller must already have set
/// `PPFR_NUM_THREADS` to [`Workload::threads`].
pub fn run(workload: Workload, size: Size, seed: u64, seconds: f64, traced: bool) -> RunResult {
    let ref_start = host_reference_ms();
    let mut result = match (workload, traced) {
        (Workload::ScaleStream, false) => scale::run_untraced(size, seed, seconds),
        (Workload::ScaleStream, true) => scale::run_traced(size, seed, seconds),
        (_, false) => audit::run_untraced(workload, size, seed, seconds),
        (_, true) => audit::run_traced(workload, size, seed, seconds),
    };
    let ref_end = host_reference_ms();
    if traced {
        result.metrics.push(Metric::new(
            "host.ref_ms",
            0.5 * (ref_start + ref_end),
            "ms",
        ));
        result
            .metrics
            .push(Metric::new("host.ref_drift", ref_end / ref_start, "ratio"));
    } else {
        eprintln!("perfbench: host.ref_ms start {ref_start:.3} end {ref_end:.3}");
    }
    result
}

/// The end-to-end metrics every untraced run reports, in report order.
pub(crate) fn end_to_end_metrics(
    setup_s: &[f64],
    items_per_s: &[f64],
    tally: &Tally,
) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", median(setup_s), "s"),
        Metric::new("items_per_s", median(items_per_s), "1/s"),
        Metric::new("peak_rss_mb", peak_rss_mib(), "MiB"),
        Metric::new("completed_share", tally.completed_share(), "ratio"),
    ]
}

/// Per-layer metric names and the span each one sums (self time).
const LAYER_SPANS: [(&str, &str); 25] = [
    ("runner.matrix_ms", "runner.matrix"),
    ("core.cell_ms.Vanilla", "core.cell.Vanilla"),
    ("core.cell_ms.Reg", "core.cell.Reg"),
    ("core.cell_ms.DPReg", "core.cell.DPReg"),
    ("core.cell_ms.DPFR", "core.cell.DPFR"),
    ("core.cell_ms.PPFR", "core.cell.PPFR"),
    ("core.perturb_ms", "core.perturb"),
    ("gnn.train_ms", "gnn.train"),
    ("gnn.predict_ms", "gnn.predict"),
    ("gnn.train_sampled_ms", "gnn.train_sampled"),
    ("influence.compute_ms", "influence.compute"),
    ("influence.cg_ms", "influence.cg"),
    ("influence.tail_ms", "influence.tail"),
    ("qclp.solve_ms", "qclp.solve"),
    ("attacks.auditor_build_ms", "attacks.auditor_build"),
    ("attacks.audit_ms", "attacks.audit"),
    ("attacks.fit_ms", "attacks.fit"),
    ("privacy.pair_sample_ms", "privacy.pair_sample"),
    ("privacy.dp_ms", "privacy.dp"),
    ("privacy.attack_auc_ms", "privacy.attack_auc"),
    ("graph.similarity_ms", "graph.similarity"),
    ("fairness.bias_ms", "fairness.bias"),
    ("fairness.streamed_bias_ms", "fairness.streamed_bias"),
    ("datasets.generate_ms", "datasets.generate"),
    ("setup.prebuild_ms", "setup.prebuild"),
];

/// Per-layer counts, summed per iteration.
const LAYER_COUNTS: [&str; 3] = ["gnn.epochs", "influence.hvps", "qclp.iters"];

/// Runner-side figures only the audits have; zero on `scale-stream`.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct RunnerFigures {
    /// Cell time per iteration that no re-run layer span covers.
    pub(crate) unattributed_ms: f64,
    /// Cache hits of `run_scenario` on the pre-built cache.
    pub(crate) cache_hits: usize,
    /// Cache misses of the same call.
    pub(crate) cache_misses: usize,
}

/// Every per-layer metric, in `BENCHMARK.json` order, per iteration.
pub(crate) fn layer_metrics(
    own: &BTreeMap<&'static str, f64>,
    counts: &BTreeMap<&'static str, u64>,
    pool: &rayon::PoolStats,
    iterations: usize,
    runner: RunnerFigures,
    overhead_share: f64,
) -> Vec<Metric> {
    let per = iterations.max(1) as f64;
    let mut out = Vec::new();
    for (metric, span) in LAYER_SPANS {
        out.push(Metric::new(
            metric,
            own.get(span).copied().unwrap_or(0.0) / per,
            "ms",
        ));
    }
    out.push(Metric::new(
        "core.unattributed_ms",
        runner.unattributed_ms,
        "ms",
    ));
    out.push(Metric::new(
        "runner.cache_hits",
        runner.cache_hits as f64,
        "count",
    ));
    out.push(Metric::new(
        "runner.cache_misses",
        runner.cache_misses as f64,
        "count",
    ));
    for name in LAYER_COUNTS {
        out.push(Metric::new(
            name,
            counts.get(name).copied().unwrap_or(0) as f64 / per,
            "count",
        ));
    }
    for (name, value) in [
        ("pool.dispatches", pool.dispatches),
        ("pool.serial_fallbacks", pool.serial_fallbacks),
        ("pool.joins", pool.joins),
        ("pool.joins_inline", pool.joins_inline),
        ("pool.steals", pool.steals),
        ("pool.parks", pool.parks),
    ] {
        out.push(Metric::new(name, value as f64 / per, "count"));
    }
    out.push(Metric::new("trace.overhead_share", overhead_share, "ratio"));
    out.push(Metric::new("trace.iterations", iterations as f64, "count"));
    out
}
