//! `table1-suites`: two Table 1 rows built the way
//! `examples/synthesis_report.rs` builds them — `synthesise_suites` for
//! x86+TM against x86 at |E| = 5 and Power+TM against Power at |E| = 4,
//! then every Forbid and Allow test run through `run_suite` on the matching
//! simulator, with the workload seed as the simulator seed.
//!
//! Executions covered are the enumerated candidates of both rows. The
//! traced rebuild reassembles `synthesise_suites` from its public pieces:
//! the delta-threading enumeration, one shared-catalog
//! `IncrementalChecker` per worker, `canonical_signature`,
//! `minimal_under_weakenings` behind a checker adapter, and
//! `assemble_suites`.

use std::collections::HashSet;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tm_weak_memory::exec::ir::Delta;
use tm_weak_memory::exec::Execution;
use tm_weak_memory::litmus::LitmusTest;
use tm_weak_memory::models::ir::{catalog, IncrementalChecker};
use tm_weak_memory::models::{DeltaChecker, MemoryModel, PowerModel, Target, X86Model};
use tm_weak_memory::sim::{run_suite, SimArch};
use tm_weak_memory::synth::{
    assemble_suites, canonical_signature, enumerate_exact_incremental, minimal_under_weakenings,
    synthesise_suites, work_units, CanonSig, SuiteReport, Symmetry, SynthConfig,
};

use crate::trace::{Busy, Tracer};
use crate::{fnv1a, ratio, Ctx, Run, Scale, FNV_OFFSET};

/// Simulator runs per test, as `synthesis_report` runs them.
const SIM_RUNS: usize = 2000;

/// One Table 1 row.
struct Row {
    name: &'static str,
    tm: Box<dyn MemoryModel>,
    baseline: Box<dyn MemoryModel>,
    config: SynthConfig,
    events: usize,
    sim: SimArch,
}

fn rows(scale: Scale) -> Vec<Row> {
    let (x86, power) = match scale {
        Scale::Full => (5, 4),
        Scale::Small => (3, 3),
    };
    vec![
        Row {
            name: "x86",
            tm: Box::new(X86Model::tm()),
            baseline: Box::new(X86Model::baseline()),
            config: SynthConfig::x86(x86),
            events: x86,
            sim: SimArch::X86,
        },
        Row {
            name: "power",
            tm: Box::new(PowerModel::tm()),
            baseline: Box::new(PowerModel::baseline()),
            config: SynthConfig::power(power),
            events: power,
            sim: SimArch::Power,
        },
    ]
}

/// What a fresh process does before the first candidate: the shared
/// catalog build, the models, the enumerator's work-unit planning and a
/// worker's checker. `synthesise_suites` plans and builds its checkers
/// again inside; both are cheap next to the first build of the catalog.
fn prepare(scale: Scale) -> Vec<Row> {
    std::hint::black_box(catalog());
    let rows = rows(scale);
    for row in &rows {
        std::hint::black_box(work_units(&row.config, row.events, Symmetry::Full));
    }
    std::hint::black_box(IncrementalChecker::new());
    rows
}

/// Set-up alone.
pub fn setup(scale: Scale) -> f64 {
    let start = Instant::now();
    std::hint::black_box(prepare(scale));
    start.elapsed().as_secs_f64()
}

/// Records a row's suite answers.
fn suite_answers(run: &mut Run, name: &str, report: &SuiteReport) {
    let hist = report.forbid_txn_histogram();
    run.answer(&format!("{name}.enumerated"), report.enumerated);
    run.answer(&format!("{name}.forbid"), report.forbid.len());
    run.answer(&format!("{name}.forbid_1txn"), hist[1]);
    run.answer(&format!("{name}.forbid_2txn"), hist[2]);
    run.answer(&format!("{name}.allow"), report.allow.len());
    let mut digest = FNV_OFFSET;
    for (tag, suite) in [("forbid", &report.forbid), ("allow", &report.allow)] {
        let mut sigs: Vec<String> = suite
            .iter()
            .map(|t| canonical_signature(&t.execution).to_string())
            .collect();
        sigs.sort();
        digest = fnv1a(digest, tag.as_bytes());
        for sig in sigs {
            digest = fnv1a(digest, sig.as_bytes());
            digest = fnv1a(digest, b"\n");
        }
    }
    run.answer(&format!("{name}.digest"), format!("{digest:016x}"));
}

/// With three or more writes to one location the generated postcondition
/// cannot pin every coherence edge (footnote 2 of the paper), so such a
/// Forbid test can show on the simulator without contradicting the model;
/// `tests/integration.rs` filters the same artefact.
fn co_pinned(exec: &Execution) -> bool {
    exec.locations().iter().all(|&loc| {
        exec.writes()
            .iter()
            .filter(|&w| exec.event(w).loc() == Some(loc))
            .count()
            <= 2
    })
}

/// What simulating one row's suites observed.
#[derive(Default)]
struct SimTally {
    forbid_seen: u64,
    /// Forbid tests observed that footnote 2 does not explain.
    forbid_failed: u64,
    allow_seen: u64,
    tests: u64,
    busy: Duration,
}

impl SimTally {
    fn add(&mut self, other: SimTally) {
        self.forbid_seen += other.forbid_seen;
        self.forbid_failed += other.forbid_failed;
        self.allow_seen += other.allow_seen;
        self.tests += other.tests;
        self.busy += other.busy;
    }

    fn record(&self, run: &mut Run) {
        run.attempted += self.tests;
        run.failed += self.forbid_failed;
        let l = &mut run.layers;
        l.insert("sim.busy_s", self.busy.as_secs_f64());
        l.insert(
            "sim.runs_per_s",
            ratio(
                (self.tests * SIM_RUNS as u64) as f64,
                self.busy.as_secs_f64(),
            ),
        );
        l.insert("sim.forbid_seen", self.forbid_seen as f64);
        l.insert("sim.allow_seen", self.allow_seen as f64);
    }
}

fn simulate(row: &Row, report: &SuiteReport, seed: u64) -> SimTally {
    let tests = |suite: &[tm_weak_memory::synth::SynthesisedTest]| -> Vec<LitmusTest> {
        suite.iter().map(|t| t.litmus.clone()).collect()
    };
    let start = Instant::now();
    let forbid = run_suite(row.sim, &tests(&report.forbid), SIM_RUNS, seed);
    let allow = run_suite(row.sim, &tests(&report.allow), SIM_RUNS, seed);
    let busy = start.elapsed();
    for (r, t) in forbid.iter().zip(&report.forbid) {
        if r.observed && co_pinned(&t.execution) {
            eprintln!(
                "tmbench: Forbid test observed on the {:?} simulator ({} of {} runs):\n{}",
                row.sim,
                r.matching_runs,
                r.runs,
                tm_weak_memory::litmus::to_text(&t.litmus)
            );
        }
    }
    SimTally {
        forbid_seen: forbid.iter().filter(|r| r.observed).count() as u64,
        forbid_failed: forbid
            .iter()
            .zip(&report.forbid)
            .filter(|(r, t)| r.observed && co_pinned(&t.execution))
            .count() as u64,
        allow_seen: allow.iter().filter(|r| r.observed).count() as u64,
        tests: (forbid.len() + allow.len()) as u64,
        busy,
    }
}

/// The untraced rows.
pub fn run(ctx: &Ctx) -> Run {
    let start = Instant::now();
    let rows = prepare(ctx.scale);
    let mut run = Run {
        setup_s: start.elapsed().as_secs_f64(),
        ..Run::default()
    };
    let mut sim = SimTally::default();
    for row in &rows {
        let report = synthesise_suites(
            row.tm.as_ref(),
            row.baseline.as_ref(),
            &row.config,
            row.events,
        );
        suite_answers(&mut run, row.name, &report);
        run.execs += report.enumerated as u64;
        sim.add(simulate(row, &report, ctx.seed));
    }
    sim.record(&mut run);
    run.wall_s = start.elapsed().as_secs_f64();
    run
}

/// The private `CatalogProbe` of `tm_synth::suite`, mirrored: one target's
/// face on the worker's shared catalog checker, so the minimality walk can
/// probe it through [`DeltaChecker`]. Counts consistency queries and
/// rollbacks on the way.
struct ProbeAdapter<'c> {
    checker: &'c mut IncrementalChecker,
    target: Target,
    cr_order: bool,
    queries: &'c mut u64,
    rollbacks: &'c mut u64,
}

impl DeltaChecker for ProbeAdapter<'_> {
    fn advance(&mut self, exec: &Execution, delta: &Delta) {
        self.checker.advance(exec, delta);
    }

    fn is_consistent(&mut self, exec: &Execution) -> bool {
        *self.queries += 1;
        consistent(self.checker, exec, self.target, self.cr_order)
    }

    fn savepoint(&mut self) {
        self.checker.savepoint();
    }

    fn rollback(&mut self) {
        *self.rollbacks += 1;
        self.checker.rollback();
    }
}

fn consistent(
    checker: &mut IncrementalChecker,
    exec: &Execution,
    target: Target,
    cr: bool,
) -> bool {
    if cr {
        checker.is_consistent_with_cr_order(exec, target)
    } else {
        checker.is_consistent(exec, target)
    }
}

/// Per-layer totals of one row, summed over its workers.
#[derive(Default)]
struct Layers {
    advance: Busy,
    query: Busy,
    dedup: Busy,
    probe: Busy,
    minimal: u64,
    probe_queries: u64,
    rollbacks: u64,
    maintained: u64,
    rebased: u64,
    dropped: u64,
    resets: u64,
    axiom_queries: u64,
    cache_hits: u64,
    early_exits: u64,
}

impl Layers {
    fn add(&mut self, o: &Layers) {
        self.advance.merge(o.advance);
        self.query.merge(o.query);
        self.dedup.merge(o.dedup);
        self.probe.merge(o.probe);
        self.minimal += o.minimal;
        self.probe_queries += o.probe_queries;
        self.rollbacks += o.rollbacks;
        self.maintained += o.maintained;
        self.rebased += o.rebased;
        self.dropped += o.dropped;
        self.resets += o.resets;
        self.axiom_queries += o.axiom_queries;
        self.cache_hits += o.cache_hits;
        self.early_exits += o.early_exits;
    }
}

/// One worker's sink state: the body of `synthesise_suites`'s shared-catalog
/// sink with each layer call timed. Dropped when its worker finishes, which
/// merges its finds and totals and closes its span.
struct Worker<'a> {
    checker: IncrementalChecker,
    targets: ((Target, bool), (Target, bool)),
    seen: HashSet<CanonSig>,
    probe_buf: Option<Execution>,
    local: Vec<(CanonSig, Execution, Duration)>,
    layers: Layers,
    start: Instant,
    span: usize,
    tracer: &'a Tracer,
    found: &'a Mutex<Vec<(CanonSig, Execution, Duration)>>,
    totals: &'a Mutex<Layers>,
}

impl Worker<'_> {
    fn step(&mut self, exec: &Execution, delta: &Delta) {
        let ((tm, tm_cr), (base, base_cr)) = self.targets;
        let l = &mut self.layers;
        let checker = &mut self.checker;
        l.advance.time(|| checker.advance(exec, delta));
        if exec.stxn.is_empty() {
            return;
        }
        if l.query.time(|| consistent(checker, exec, tm, tm_cr)) {
            return;
        }
        if !l.query.time(|| consistent(checker, exec, base, base_cr)) {
            return;
        }
        let sig = l.dedup.time(|| canonical_signature(exec));
        if !self.seen.insert(sig.clone()) {
            return;
        }
        let mut probe = ProbeAdapter {
            checker,
            target: tm,
            cr_order: tm_cr,
            queries: &mut l.probe_queries,
            rollbacks: &mut l.rollbacks,
        };
        let probe_buf = &mut self.probe_buf;
        if !l
            .probe
            .time(|| minimal_under_weakenings(&mut probe, exec, probe_buf))
        {
            return;
        }
        l.minimal += 1;
        self.local.push((sig, exec.clone(), self.start.elapsed()));
    }
}

impl Drop for Worker<'_> {
    fn drop(&mut self) {
        let l = &mut self.layers;
        let stats = self.checker.stats();
        l.maintained = stats.maintained;
        l.rebased = stats.rebased;
        l.dropped = stats.dropped;
        l.resets = stats.resets;
        l.axiom_queries = stats.axiom_queries;
        l.cache_hits = stats.axiom_cache_hits;
        l.early_exits = self.checker.early_exits();
        let busy = l.advance.time + l.query.time + l.dedup.time + l.probe.time;
        self.tracer.close(self.span, busy);
        if let Ok(mut found) = self.found.lock() {
            found.append(&mut self.local);
        }
        if let Ok(mut totals) = self.totals.lock() {
            totals.add(l);
        }
    }
}

/// `synthesise_suites` for built-in model pairs, rebuilt with timers.
fn synthesise_traced(
    row: &Row,
    tracer: &Tracer,
    parent: usize,
    layers: &mut Layers,
) -> SuiteReport {
    let start = Instant::now();
    let targets = row
        .tm
        .catalog_target()
        .zip(row.baseline.catalog_target())
        .expect("both models of a Table 1 row are built in");
    let found = Mutex::new(Vec::new());
    let totals = Mutex::new(Layers::default());
    let enumerated = enumerate_exact_incremental(&row.config, row.events, || {
        let mut worker = Worker {
            checker: IncrementalChecker::new(),
            targets,
            seen: HashSet::new(),
            probe_buf: None,
            local: Vec::new(),
            layers: Layers::default(),
            start,
            span: tracer.open("synth.enumerate.worker", Some(parent)),
            tracer,
            found: &found,
            totals: &totals,
        };
        move |exec: &Execution, delta: &Delta| worker.step(exec, delta)
    });
    let mut totals = totals.into_inner().expect("totals poisoned");
    let candidates = found.into_inner().expect("finds poisoned");
    let span = tracer.open("synth.dedup.assemble", Some(parent));
    let report = totals.dedup.time(|| {
        assemble_suites(
            row.tm.as_ref(),
            row.events,
            enumerated,
            enumerated as u64,
            candidates,
            start,
        )
    });
    tracer.close(span, Duration::ZERO);
    layers.add(&totals);
    report
}

/// The traced rebuild.
pub fn run_traced(ctx: &Ctx, tracer: &Tracer) -> Run {
    let start = Instant::now();
    let root = tracer.open("table1.run", None);
    let build = tracer.open("models.catalog", Some(root));
    std::hint::black_box(catalog());
    tracer.close(build, Duration::ZERO);
    let catalog_s = start.elapsed().as_secs_f64();
    let rows = prepare(ctx.scale);
    let mut run = Run {
        setup_s: start.elapsed().as_secs_f64(),
        ..Run::default()
    };
    let mut layers = Layers::default();
    let mut sim = SimTally::default();
    for row in &rows {
        let span = tracer.open(format!("synth.suites.{}", row.name), Some(root));
        let report = synthesise_traced(row, tracer, span, &mut layers);
        tracer.close(span, Duration::ZERO);
        suite_answers(&mut run, row.name, &report);
        run.execs += report.enumerated as u64;
        let span = tracer.open(format!("sim.suite.{}", row.name), Some(root));
        sim.add(simulate(row, &report, ctx.seed));
        tracer.close(span, Duration::ZERO);
    }
    sim.record(&mut run);
    tracer.close(root, Duration::ZERO);
    run.wall_s = start.elapsed().as_secs_f64();

    // The checker counts early exits over every consistency query, the
    // minimality probes' included.
    let queries = (layers.query.calls + layers.probe_queries) as f64;
    let l = &mut run.layers;
    l.insert("models.catalog_build_s", catalog_s);
    l.insert(
        "synth.enumerate.self_s",
        tracer.self_s("synth.enumerate.worker"),
    );
    l.insert("synth.enumerate.candidates", run.execs as f64);
    l.insert("synth.symmetry.kills", 0.0);
    l.insert("synth.symmetry.orbit_ratio", 1.0);
    l.insert("synth.probe.busy_s", layers.probe.secs());
    l.insert("synth.probe.calls", layers.probe.calls as f64);
    l.insert(
        "synth.probe.minimal_ratio",
        ratio(layers.minimal as f64, layers.probe.calls as f64),
    );
    l.insert("synth.dedup.busy_s", layers.dedup.secs());
    l.insert("exec.ir.advance.busy_s", layers.advance.secs());
    l.insert("exec.ir.maintained", layers.maintained as f64);
    l.insert("exec.ir.rebased", layers.rebased as f64);
    l.insert("exec.ir.dropped", layers.dropped as f64);
    l.insert("exec.ir.resets", layers.resets as f64);
    l.insert("exec.ir.rollbacks", layers.rollbacks as f64);
    l.insert("models.query.busy_s", layers.query.secs());
    l.insert("models.axiom_queries", layers.axiom_queries as f64);
    l.insert(
        "models.cache_hit_ratio",
        ratio(layers.cache_hits as f64, layers.axiom_queries as f64),
    );
    l.insert(
        "models.early_exit_ratio",
        ratio(layers.early_exits as f64, queries),
    );
    run
}

/// The pinned answers.
pub fn known(scale: Scale) -> Vec<(&'static str, &'static str)> {
    match scale {
        Scale::Full => vec![
            ("x86.enumerated", "6135788"),
            ("x86.forbid", "46"),
            ("x86.forbid_1txn", "24"),
            ("x86.forbid_2txn", "22"),
            ("x86.allow", "255"),
            ("x86.digest", "abf3cac9242b76dd"),
            ("power.enumerated", "966648"),
            ("power.forbid", "52"),
            ("power.forbid_1txn", "7"),
            ("power.forbid_2txn", "45"),
            ("power.allow", "168"),
            ("power.digest", "c7775cb9fa4dc47f"),
        ],
        Scale::Small => vec![
            ("x86.enumerated", "4513"),
            ("x86.forbid", "4"),
            ("x86.forbid_1txn", "4"),
            ("x86.forbid_2txn", "0"),
            ("x86.allow", "17"),
            ("x86.digest", "a8c427fe4d6f1881"),
            ("power.enumerated", "11294"),
            ("power.forbid", "4"),
            ("power.forbid_1txn", "4"),
            ("power.forbid_2txn", "0"),
            ("power.allow", "17"),
            ("power.digest", "a8c427fe4d6f1881"),
        ],
    }
}
