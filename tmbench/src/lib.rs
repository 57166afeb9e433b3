//! The repository benchmark: three workloads that drive the system through
//! the public entry points its users call, each checked against pinned
//! known answers.
//!
//! * [`sweep`] — `sweep-3t-sym`: a checkpointed, symmetry-reduced counts
//!   sweep (`tm_cat::load_file` + `tm_sweep::run_sweep`, as `tm-cat sweep`
//!   runs it);
//! * [`table1`] — `table1-suites`: Table 1 suite synthesis plus simulation
//!   (`tm_synth::synthesise_suites` + `tm_sim::run_suite`, as
//!   `examples/synthesis_report.rs` runs them);
//! * [`table2`] — `table2-cpp`: the exhaustive Table 2 rows
//!   (`tm_metatheory::check_*`, as `examples/metatheory_report.rs` runs
//!   them).
//!
//! Every workload has an untraced run, which gives the end-to-end numbers,
//! and a traced rebuild of the same work from public pieces, which gives the
//! per-layer numbers and must reproduce the untraced run's pinned outputs
//! exactly.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

pub mod sweep;
pub mod table1;
pub mod table2;
pub mod trace;

/// The workloads, by the names `BENCHMARK.json` gives them.
pub const WORKLOADS: [&str; 3] = ["sweep-3t-sym", "table1-suites", "table2-cpp"];

/// Worker threads every workload uses: the sweep's `SweepOptions::threads`,
/// and the enumerator's `TM_SYNTH_THREADS` for the other two.
pub const WORKERS: usize = 2;

/// How big a workload runs: the benchmark's own size, or the small bounds
/// the self-test uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json`'s workloads are defined at.
    Full,
    /// Small bounds (|E| ≤ 3–4) that run in seconds.
    Small,
}

/// Named outputs of one run, compared against the pinned known answers and
/// between the untraced and traced runs.
pub type Answers = BTreeMap<String, String>;

/// The result of one run of one workload.
#[derive(Clone, Debug, Default)]
pub struct Run {
    /// Seconds before the first candidate, as a fresh process pays them.
    pub setup_s: f64,
    /// Seconds from the first call to a verified result.
    pub wall_s: f64,
    /// Candidate executions covered (see each workload for what counts).
    pub execs: u64,
    /// Operations attempted, known-answer checks excluded.
    pub attempted: u64,
    /// Operations among `attempted` that failed.
    pub failed: u64,
    /// Outputs pinned by the known-answer gate and the parity check.
    pub answers: Answers,
    /// Per-layer metrics this run could measure (see [`LAYER_METRICS`]).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Run {
    /// Records an answer.
    pub fn answer(&mut self, key: &str, value: impl ToString) {
        self.answers.insert(key.to_string(), value.to_string());
    }
}

/// Where a workload may write scratch files, and which run it is.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Scratch directory, inside the build directory of the checkout.
    pub scratch: PathBuf,
    /// The workload seed.
    pub seed: u64,
    /// The workload size.
    pub scale: Scale,
}

/// The repository root: the benchmark package sits one level below it.
pub fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// Every per-layer metric of the traced run, with its unit and whether
/// higher is better. A workload reports 0 for a layer it does not use.
pub const LAYER_METRICS: &[(&str, &str, &str)] = &[
    ("synth.enumerate.self_s", "s", "lower"),
    ("synth.enumerate.candidates", "count", "lower"),
    ("synth.symmetry.kills", "count", "higher"),
    ("synth.symmetry.orbit_ratio", "ratio", "higher"),
    ("synth.probe.busy_s", "s", "lower"),
    ("synth.probe.calls", "count", "lower"),
    ("synth.probe.minimal_ratio", "ratio", "higher"),
    ("synth.dedup.busy_s", "s", "lower"),
    ("exec.ir.advance.busy_s", "s", "lower"),
    ("exec.ir.maintained", "count", "lower"),
    ("exec.ir.rebased", "count", "lower"),
    ("exec.ir.dropped", "count", "lower"),
    ("exec.ir.resets", "count", "lower"),
    ("exec.ir.rollbacks", "count", "lower"),
    ("models.query.busy_s", "s", "lower"),
    ("models.axiom_queries", "count", "lower"),
    ("models.cache_hit_ratio", "ratio", "higher"),
    ("models.early_exit_ratio", "ratio", "higher"),
    ("models.view_check.busy_s", "s", "lower"),
    ("models.view_checks", "count", "lower"),
    ("models.catalog_build_s", "s", "lower"),
    ("cat.load_s", "s", "lower"),
    ("sweep.plan_s", "s", "lower"),
    ("sweep.idle_frac", "ratio", "lower"),
    ("sweep.unit.p50_s", "s", "lower"),
    ("sweep.unit.max_s", "s", "lower"),
    ("sweep.splits", "count", "lower"),
    ("sweep.steals", "count", "lower"),
    ("sweep.journal.bytes", "bytes", "lower"),
    ("metatheory.compile.busy_s", "s", "lower"),
    ("metatheory.instances", "ratio", "higher"),
    ("sim.busy_s", "s", "lower"),
    ("sim.runs_per_s", "1/s", "higher"),
    ("sim.forbid_seen", "count", "lower"),
    ("sim.allow_seen", "count", "higher"),
    ("trace_overhead_frac", "ratio", "lower"),
];

/// Runs one workload untraced.
pub fn run(workload: &str, ctx: &Ctx) -> Result<Run, String> {
    match workload {
        "sweep-3t-sym" => sweep::run(ctx),
        "table1-suites" => Ok(table1::run(ctx)),
        "table2-cpp" => Ok(table2::run(ctx)),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Runs the traced rebuild of one workload, spans going to `tracer`.
pub fn run_traced(workload: &str, ctx: &Ctx, tracer: &trace::Tracer) -> Result<Run, String> {
    match workload {
        "sweep-3t-sym" => sweep::run_traced(ctx, tracer),
        "table1-suites" => Ok(table1::run_traced(ctx, tracer)),
        "table2-cpp" => Ok(table2::run_traced(ctx, tracer)),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Measures one workload's set-up alone, in seconds.
pub fn setup(workload: &str, ctx: &Ctx) -> Result<f64, String> {
    match workload {
        "sweep-3t-sym" => sweep::setup(ctx),
        "table1-suites" => Ok(table1::setup(ctx.scale)),
        "table2-cpp" => Ok(table2::setup(ctx.scale)),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The pinned known answers of one workload at one scale.
pub fn known_answers(workload: &str, scale: Scale) -> Vec<(&'static str, &'static str)> {
    match workload {
        "sweep-3t-sym" => sweep::known(scale),
        "table1-suites" => table1::known(scale),
        "table2-cpp" => table2::known(scale),
        _ => Vec::new(),
    }
}

/// Pinned answers only one of the two runs produces: `(untraced-only,
/// traced-only)`. The sweep's traced replay walks the unsplit work units,
/// so it has no accounting frontier to count; the library's theorem and
/// monotonicity checks do not report the size of the space they searched.
fn one_sided(workload: &str) -> (&'static [&'static str], &'static [&'static str]) {
    match workload {
        "sweep-3t-sym" => (&["units", "quarantined", "status"], &[]),
        "table2-cpp" => (
            &[],
            &[
                "theorem7.2.space",
                "theorem7.3.space",
                "monotonicity.x86.space",
            ],
        ),
        _ => (&[], &[]),
    }
}

/// Compares a run's answers with the pinned ones: one message per
/// mismatch, including a pinned answer the run should have produced and
/// did not.
pub fn gate(workload: &str, scale: Scale, answers: &Answers, traced: bool) -> Vec<String> {
    let (untraced_only, traced_only) = one_sided(workload);
    let skip = if traced { untraced_only } else { traced_only };
    known_answers(workload, scale)
        .into_iter()
        .filter(|(key, _)| !skip.contains(key))
        .filter_map(|(key, want)| match answers.get(key) {
            Some(got) if got == want => None,
            Some(got) => Some(format!("{workload}: {key} = {got}, expected {want}")),
            None => Some(format!("{workload}: {key} missing, expected {want}")),
        })
        .collect()
}

/// Compares the traced run's answers with the untraced run's: every answer
/// both produce must be identical.
pub fn parity(workload: &str, untraced: &Answers, traced: &Answers) -> Vec<String> {
    traced
        .iter()
        .filter_map(|(key, value)| match untraced.get(key) {
            Some(base) if base != value => Some(format!(
                "{workload}: traced {key} = {value}, untraced {base}"
            )),
            _ => None,
        })
        .collect()
}

/// FNV-1a over `bytes`, continuing from `hash` (start from
/// [`FNV_OFFSET`]).
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// The FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Peak resident set of this process, in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A ratio that reads 0 when its base is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
