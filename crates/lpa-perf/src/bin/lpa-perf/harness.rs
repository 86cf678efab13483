//! What the four workloads share: the metric tables, the repeat loop, the
//! output checks and the result line.
//!
//! A workload is a closed loop from one caller: the next call is issued when
//! the previous one returns. Its set-up and timed region are repeated with
//! the same seed (fresh state every repeat) until `--seconds` have passed;
//! the system is bit-deterministic, so every repeat must end
//! with the fingerprint of the first, and every reported time is the median
//! across repeats.

use crate::trace::Tracer;
use serde_json::{json, Value};
use std::time::Instant;

/// End-to-end metrics, printed by every workload with `--trace 0`: name,
/// unit. Must equal `end_to_end` in `BENCHMARK.json` (the smoke test
/// compares them). What each one measures on each workload is in the
/// README's table.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("advice_cost_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`; a layer a
/// workload does not touch reads 0 for its counts and spans. Must equal
/// `per_layer` in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // lpa-nn
    ("nn.forward_b1_us", "us"),
    ("nn.forward_b32_us", "us"),
    ("nn.train_batch_ms", "ms"),
    ("nn.busy_s", "s"),
    ("nn.share", "ratio"),
    // lpa-rl
    ("rl.select_action_us", "us"),
    ("rl.train_step_ms", "ms"),
    ("rl.encode_s", "s"),
    ("rl.env_s", "s"),
    ("rl.replay_s", "s"),
    // lpa-partition
    ("partition.encode_us", "us"),
    ("partition.encode_batch32_us", "us"),
    ("partition.valid_actions_us", "us"),
    ("partition.action_cache_hit_ratio", "ratio"),
    // lpa-costmodel
    ("costmodel.workload_cost_us", "us"),
    // lpa-advisor
    ("advisor.env_step_us", "us"),
    ("advisor.online_step_us", "us"),
    ("advisor.step_share", "ratio"),
    ("advisor.reward_cache_hit_ratio", "ratio"),
    ("advisor.queries_recosted_per_step", "count"),
    ("advisor.runtime_cache_hit_ratio", "ratio"),
    ("advisor.retries", "count"),
    ("advisor.fallbacks", "count"),
    ("advisor.timeouts_hit", "count"),
    ("advisor.online_sim_cluster_s", "s"),
    // lpa-cluster
    ("cluster.run_query_us", "us"),
    ("cluster.run_workload_ms", "ms"),
    ("cluster.deploy_ms", "ms"),
    ("cluster.materialize_ms", "ms"),
    ("cluster.rss_mb_per_tenant", "MB"),
    ("cluster.queries_executed", "count"),
    ("cluster.queries_failed", "count"),
    ("cluster.failovers", "count"),
    ("guardrail.observe_window_ms", "ms"),
    ("guardrail.canaries_started", "count"),
    ("guardrail.commits", "count"),
    ("guardrail.rollbacks", "count"),
    // lpa-sql
    ("sql.parse_us", "us"),
    ("sql.rejected", "count"),
    // lpa-service
    ("monitor.observe_us", "us"),
    ("monitor.known_ratio", "ratio"),
    ("service.observe_share", "ratio"),
    ("service.canary_window_share", "ratio"),
    ("service.idle_close_ms", "ms"),
    ("service.canary_close_ms", "ms"),
    ("service.incremental_train_ms", "ms"),
    ("fleet.round_ms_p50", "ms"),
    ("fleet.round_ms_max", "ms"),
    ("fleet.warm_round_ms", "ms"),
    ("fleet.admit_ms_per_tenant", "ms"),
    ("fleet.slices_run", "count"),
    ("fleet.slices_skipped", "count"),
    // lpa-par
    ("par.threads", "count"),
    ("par.pool_resolve_ns", "ns"),
    ("par.dispatch_us", "us"),
    // lpa-store
    ("store.capture_ms", "ms"),
    ("store.encode_ms", "ms"),
    ("store.decode_ms", "ms"),
    ("store.save_ms", "ms"),
    ("store.journal_append_ms", "ms"),
    ("store.checkpoint_round_ms", "ms"),
    ("store.resume_ms", "ms"),
    ("store.checkpoints_written", "count"),
    ("store.ckpt_bytes_per_tenant", "bytes"),
    ("store.write_failures", "count"),
    ("store.restores", "count"),
    ("store.fallbacks", "count"),
    // harness
    ("bench.trace_overhead_pct", "%"),
];

/// Per-layer metrics that are deterministic counters of the library (or
/// pure functions of them): they must repeat exactly inside a run, and
/// `noise` requires them identical between two runs of one seed.
pub const EXACT: &[&str] = &[
    "partition.action_cache_hit_ratio",
    "advisor.reward_cache_hit_ratio",
    "advisor.queries_recosted_per_step",
    "advisor.runtime_cache_hit_ratio",
    "advisor.retries",
    "advisor.fallbacks",
    "advisor.timeouts_hit",
    "advisor.online_sim_cluster_s",
    "cluster.queries_executed",
    "cluster.queries_failed",
    "cluster.failovers",
    "guardrail.canaries_started",
    "guardrail.commits",
    "guardrail.rollbacks",
    "sql.rejected",
    "monitor.known_ratio",
    "fleet.slices_run",
    "fleet.slices_skipped",
    "par.threads",
    "store.checkpoints_written",
    "store.ckpt_bytes_per_tenant",
    "store.write_failures",
    "store.restores",
    "store.fallbacks",
];

/// Seed of everything that decides a learning trajectory: DQN weights and
/// exploration, cluster data, the fault storm, the fleet's per-tenant
/// streams. It is a constant, not `--seed`, because how much work a
/// trajectory does is chaotic in it (ten seeds moved `fleet_durable`'s
/// slices/s by 5x and `online_storm`'s steps/s by 2x: a different number of
/// canaries staged, of clusters materialised, of retries), and a benchmark
/// whose medians move that much between seeds cannot bound a regression.
/// `--seed` draws the inputs that arrive from outside instead — the SQL
/// text, the mixes advice is asked for, the tenants' names — whose work is
/// the same in distribution for every seed.
pub const TRAJECTORY_SEED: u64 = 11;

pub const WORKLOADS: &[&str] = &[
    "offline_train",
    "online_storm",
    "service_sql",
    "fleet_durable",
];

/// Problem size. `Tiny` is a fixed small size for the smoke test (seconds
/// for all four workloads); every number in the README is at `Full`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

#[derive(Clone, Debug)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

impl RunCfg {
    pub fn pick<T>(&self, full: T, tiny: T) -> T {
        match self.size {
            Size::Full => full,
            Size::Tiny => tiny,
        }
    }
}

/// Failure accounting: every operation a workload issues is counted, and an
/// operation that returned an error, was rejected, or failed an output
/// check is counted as failed, with the reason kept for the report.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        if n > 0 {
            self.failed += n;
            self.notes.push(why.into());
        }
    }

    /// An output check: counts as one failed operation when it does not
    /// hold.
    pub fn require(&mut self, ok: bool, why: impl Into<String>) {
        if !ok {
            self.fail(1, why);
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }
}

/// What one pass over a workload's timed region produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Primary operations (env steps, SQL statements, tenant-slices) and
    /// the seconds they took: the throughput metric.
    pub ops: u64,
    pub ops_s: f64,
    /// One sample per latency operation, in issue order, in ms.
    pub latencies_ms: Vec<f64>,
    /// Cost of the layout the workload ended on ÷ cost of the initial one
    /// (what "cost" is, per workload, is in the README). It does not depend
    /// on `--seed` and repeats exactly: the end-to-end metric
    /// `advice_cost_ratio`, bounded at 0.
    pub cost_ratio: f64,
    /// Everything that must repeat bit for bit.
    pub fingerprint: Vec<u64>,
    pub checks: Checks,
    /// Per-layer counts and span-derived values (traced passes only).
    pub layer: Vec<(&'static str, f64)>,
}

/// One benchmark workload: seeded set-up that builds fresh state, and a
/// timed region over that state, driven either through the library's own
/// loop (untraced) or through the harness's opened loop with a span around
/// every public call (traced).
pub trait Workload {
    type State;
    fn name(&self) -> &'static str;
    /// `traced` tells whether the pass this state is for will be traced.
    fn setup(&self, cfg: &RunCfg, traced: bool) -> Self::State;
    fn run(&self, cfg: &RunCfg, state: Self::State, tracer: Option<&mut Tracer>) -> Pass;
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile of unsorted samples (`q` in 0..=1).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Sample `j` of the result is the median over repeats of sample `j`.
pub fn median_per_index(repeats: &[Vec<f64>]) -> Vec<f64> {
    let n = repeats.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|j| median(&repeats.iter().map(|r| r[j]).collect::<Vec<_>>()))
        .collect()
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// FNV-1a step over one 64-bit word: the harness's fingerprint mixer.
pub fn mix(h: u64, x: u64) -> u64 {
    fnv1a(h, &x.to_le_bytes())
}

pub fn mix_str(h: u64, s: &str) -> u64 {
    fnv1a(h, s.as_bytes())
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn proc_status_mb(field: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM:")
}

/// Current resident set of this process (`VmRSS`), in MB.
pub fn rss_mb() -> f64 {
    proc_status_mb("VmRSS:")
}

/// Scratch directory for files a workload writes (fleet checkpoints,
/// traces): inside the package, so inside the checkout.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// An ordered metric set over one of the two tables above.
#[derive(Debug)]
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Self {
            table,
            values: vec![None; table.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared"));
        self.values[i] = Some(value);
    }

    /// `{"name": {"value": v, "unit": u}, ...}` over the whole table;
    /// metrics nobody set read 0 (a layer the workload does not touch).
    pub fn to_json(&self) -> Value {
        Value::Object(
            self.table
                .iter()
                .zip(&self.values)
                .map(|((name, unit), v)| {
                    (
                        (*name).to_string(),
                        json!({ "value": v.unwrap_or(0.0), "unit": *unit }),
                    )
                })
                .collect(),
        )
    }

    pub fn unset(&self) -> Vec<&'static str> {
        self.table
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| v.is_none())
            .map(|((n, _), _)| *n)
            .collect()
    }
}

/// The outcome of one invocation, printed as the last line of stdout.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub checks: Checks,
    pub metrics: Metrics,
    /// Sample counts behind the latency percentiles and the repeat count,
    /// for the human-readable report on stderr.
    pub latency_samples: usize,
    pub repeats: usize,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.failed == 0
    }

    pub fn result_line(&self) -> String {
        let doc = json!({
            "correct": self.correct(),
            "attempted": self.checks.attempted.max(1),
            "failed": self.checks.failed,
            "metrics": self.metrics.to_json(),
        });
        serde_json::to_string(&doc).expect("result serializes")
    }

    /// Human-readable report (stderr): every metric with its unit, sample
    /// counts beside the percentiles, and every failed check.
    pub fn report(&self) {
        eprintln!(
            "[{}] repeats={} ops_attempted={} ops_failed={}",
            self.workload, self.repeats, self.checks.attempted, self.checks.failed
        );
        for ((name, unit), v) in self.metrics.table.iter().zip(&self.metrics.values) {
            let v = v.unwrap_or(0.0);
            if name.starts_with("latency_ms_p") {
                eprintln!("  {name:<36} {v:>14.4} {unit} (n={})", self.latency_samples);
            } else {
                eprintln!("  {name:<36} {v:>14.4} {unit}");
            }
        }
        for note in &self.checks.notes {
            eprintln!("  FAILED CHECK: {note}");
        }
    }
}

struct Repeat {
    setup_s: f64,
    wall_s: f64,
    pass: Pass,
}

/// A set-up that takes milliseconds is repeated (the state of the last one
/// is the one the timed region runs on) until this much time has gone into
/// it, so its median has samples behind it.
const SETUP_SAMPLING_S: f64 = 0.2;
const SETUP_SAMPLES_MAX: usize = 16;

fn one_repeat<W: Workload>(w: &W, cfg: &RunCfg, tracer: Option<&mut Tracer>) -> Repeat {
    let mut setups = Vec::new();
    let state = loop {
        let t = Instant::now();
        let state = w.setup(cfg, tracer.is_some());
        setups.push(t.elapsed().as_secs_f64());
        if setups.iter().sum::<f64>() >= SETUP_SAMPLING_S || setups.len() == SETUP_SAMPLES_MAX {
            break state;
        }
    };
    let t = Instant::now();
    let pass = w.run(cfg, state, tracer);
    Repeat {
        setup_s: median(&setups),
        wall_s: t.elapsed().as_secs_f64(),
        pass,
    }
}

/// Fold a repeat's checks into the run's, and require its fingerprint and
/// its advice cost ratio to equal the first repeat's. At full size, advice
/// that costs more than changing nothing is a failed operation on every
/// workload (the few episodes of the tiny size promise no such thing).
fn absorb(
    cfg: &RunCfg,
    checks: &mut Checks,
    first: &mut Option<Vec<u64>>,
    rep: &mut Repeat,
    what: &str,
) {
    checks.merge(std::mem::take(&mut rep.pass.checks));
    let ratio = rep.pass.cost_ratio;
    rep.pass.fingerprint.push(ratio.to_bits());
    match first {
        None => *first = Some(rep.pass.fingerprint.clone()),
        Some(fp) => checks.require(
            *fp == rep.pass.fingerprint,
            format!("{what} is not bit-identical to the first repeat"),
        ),
    }
    let worst = cfg.pick(1.0, f64::INFINITY);
    checks.require(
        ratio.is_finite() && ratio > 0.0 && ratio <= worst,
        format!("advice_cost_ratio {ratio} is not in (0, {worst}]"),
    );
}

/// `--trace 0`: repeat set-up + timed region until `--seconds` have passed
/// (at least three repeats), report medians across repeats.
pub fn run_end_to_end<W: Workload>(w: &W, cfg: &RunCfg) -> Outcome {
    let min_repeats = cfg.pick(3, 2);
    let mut checks = Checks::default();
    let mut first = None;
    let mut repeats: Vec<Repeat> = Vec::new();
    let started = Instant::now();
    while repeats.len() < min_repeats || started.elapsed().as_secs_f64() < cfg.seconds {
        let mut rep = one_repeat(w, cfg, None);
        absorb(cfg, &mut checks, &mut first, &mut rep, "a repeat");
        repeats.push(rep);
    }
    let col = |f: &dyn Fn(&Repeat) -> f64| median(&repeats.iter().map(f).collect::<Vec<_>>());
    let latencies = median_per_index(
        &repeats
            .iter()
            .map(|r| r.pass.latencies_ms.clone())
            .collect::<Vec<_>>(),
    );
    let mut metrics = Metrics::new(END_TO_END);
    metrics.set(
        "throughput_per_s",
        col(&|r| r.pass.ops as f64 / r.pass.ops_s.max(1e-9)),
    );
    metrics.set("latency_ms_p50", percentile(&latencies, 0.5));
    metrics.set("latency_ms_p90", percentile(&latencies, 0.9));
    metrics.set("advice_cost_ratio", repeats[0].pass.cost_ratio);
    metrics.set("peak_rss_mb", peak_rss_mb());
    metrics.set("setup_s", col(&|r| r.setup_s));
    for name in metrics.unset() {
        checks.fail(1, format!("end-to-end metric {name} was not measured"));
    }
    Outcome {
        workload: w.name(),
        checks,
        metrics,
        latency_samples: latencies.len(),
        repeats: repeats.len(),
    }
}

/// `--trace 1`: alternate untraced and traced passes (at least two pairs)
/// for `--seconds`, then run the layer probes. Per-layer values are medians
/// over the traced passes; exact counters must agree between them; the
/// traced passes must end with the untraced fingerprint; the wall
/// difference is the tracing overhead. Spans of the last traced pass go to
/// `out/trace-<workload>.json`.
pub fn run_traced<W: Workload>(w: &W, cfg: &RunCfg) -> Outcome {
    let min_pairs = cfg.pick(2, 1);
    let mut checks = Checks::default();
    let mut first = None;
    let mut plain: Vec<Repeat> = Vec::new();
    let mut traced: Vec<Repeat> = Vec::new();
    let mut last_tracer = Tracer::new();
    let started = Instant::now();
    while traced.len() < min_pairs || started.elapsed().as_secs_f64() < cfg.seconds {
        // Alternate which pass of a pair goes first, so neither side of the
        // overhead ratio always runs on the warmer process.
        let traced_first = !traced.len().is_multiple_of(2);
        for traced_pass in [traced_first, !traced_first] {
            if traced_pass {
                let mut tracer = Tracer::new();
                let mut rep = one_repeat(w, cfg, Some(&mut tracer));
                absorb(cfg, &mut checks, &mut first, &mut rep, "a traced pass");
                traced.push(rep);
                last_tracer = tracer;
            } else {
                let mut rep = one_repeat(w, cfg, None);
                absorb(cfg, &mut checks, &mut first, &mut rep, "an untraced pass");
                plain.push(rep);
            }
        }
    }

    let mut metrics = Metrics::new(PER_LAYER);
    let names: Vec<&'static str> = traced[0].pass.layer.iter().map(|(n, _)| *n).collect();
    for name in names {
        let values: Vec<f64> = traced
            .iter()
            .filter_map(|r| {
                r.pass
                    .layer
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, v)| *v)
            })
            .collect();
        if EXACT.contains(&name) {
            checks.require(
                values.iter().all(|v| v.to_bits() == values[0].to_bits()),
                format!("exact metric {name} differs between traced passes: {values:?}"),
            );
        }
        metrics.set(name, median(&values));
    }
    let wall = |rs: &[Repeat]| median(&rs.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    metrics.set(
        "bench.trace_overhead_pct",
        (wall(&traced) / wall(&plain).max(1e-9) - 1.0) * 100.0,
    );
    for (name, value) in crate::probes::run_all(cfg) {
        metrics.set(name, value);
    }

    let path = out_dir().join(format!("trace-{}.json", w.name()));
    if let Err(e) = last_tracer.write(&path) {
        checks.fail(1, format!("writing {}: {e}", path.display()));
    }
    Outcome {
        workload: w.name(),
        checks,
        metrics,
        latency_samples: traced[0].pass.latencies_ms.len(),
        repeats: plain.len() + traced.len(),
    }
}
