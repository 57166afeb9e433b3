//! `table2-cpp`: the Table 2 rows decided by exhaustive search, built the
//! way `examples/metatheory_report.rs` builds them (its C++ configuration:
//! plain, relaxed and seq_cst accesses):
//!
//! * compiling C++ transactions to x86;
//! * Theorems 7.2 and 7.3;
//! * x86+TM monotonicity;
//!
//! plus the short known-answer rows: lock elision on x86, Power, ARMv8 and
//! ARMv8 with the DMB repair, and Power/ARMv8 monotonicity at 2 events.
//!
//! Executions covered are the source executions of the exhaustive rows.
//! The traced rebuild reassembles the exhaustive rows from
//! `enumerate_exact`, `ExecView::new`, `is_consistent_view`, the theorem
//! predicates and `compile_execution`, timing each call.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tm_weak_memory::exec::{Annot, ExecView, Execution};
use tm_weak_memory::litmus::Arch;
use tm_weak_memory::metatheory::{
    check_compilation, check_lock_elision, check_monotonicity, check_theorem_7_2,
    check_theorem_7_3, compile_execution, transaction_reductions,
};
use tm_weak_memory::models::ir::catalog;
use tm_weak_memory::models::{
    isolation, Armv8Model, CppModel, MemoryModel, PowerModel, ScModel, X86Model,
};
use tm_weak_memory::relation::per_classes;
use tm_weak_memory::synth::{enumerate_exact, work_units, Symmetry, SynthConfig};

use crate::trace::Tracer;
use crate::{ratio, Ctx, Run, Scale};

/// Event bounds of the exhaustive rows. At |E| ≤ 4 compilation alone
/// takes ~40 s and Theorem 7.2 ~10 s on two cores, too long for repeated
/// runs, so those two rows run at |E| ≤ 3; every row stays exhaustive.
#[derive(Clone, Copy)]
struct Bounds {
    compile: usize,
    theorem_7_2: usize,
    theorem_7_3: usize,
    monotonicity: usize,
}

fn bounds(scale: Scale) -> Bounds {
    match scale {
        Scale::Full => Bounds {
            compile: 3,
            theorem_7_2: 3,
            theorem_7_3: 4,
            monotonicity: 4,
        },
        Scale::Small => Bounds {
            compile: 3,
            theorem_7_2: 3,
            theorem_7_3: 3,
            monotonicity: 3,
        },
    }
}

/// `metatheory_report`'s C++ configuration.
fn cpp_config(bound: usize) -> SynthConfig {
    let mut cfg = SynthConfig::cpp(bound);
    cfg.read_annots = vec![Annot::PLAIN, Annot::relaxed_atomic(), Annot::seq_cst()];
    cfg.write_annots = vec![Annot::PLAIN, Annot::relaxed_atomic(), Annot::seq_cst()];
    cfg
}

fn verdict(counterexample: bool) -> &'static str {
    if counterexample {
        "YES"
    } else {
        "no"
    }
}

/// What a fresh process does before the first candidate: the shared
/// catalog build, the models and the enumerator's work-unit planning for
/// every exhaustive row. The checks plan again inside; that is cheap next
/// to the first build of the catalog.
fn prepare(scale: Scale) {
    std::hint::black_box(catalog());
    std::hint::black_box((CppModel::tm(), ScModel::tsc(), X86Model::tm()));
    let b = bounds(scale);
    for (config, bound) in [
        (cpp_config(b.compile), b.compile),
        (cpp_config(b.theorem_7_2), b.theorem_7_2),
        (cpp_config(b.theorem_7_3), b.theorem_7_3),
        (SynthConfig::x86(b.monotonicity), b.monotonicity),
    ] {
        for n in 2..=bound {
            std::hint::black_box(work_units(&config, n, Symmetry::Full));
        }
    }
}

/// Set-up alone.
pub fn setup(scale: Scale) -> f64 {
    let start = Instant::now();
    prepare(scale);
    start.elapsed().as_secs_f64()
}

/// The short rows, whose answers are known and whose searches stop at the
/// first witness: run the same way traced and untraced.
fn short_rows(run: &mut Run) {
    for (label, arch, fix) in [
        ("elision.x86", Arch::X86, false),
        ("elision.power", Arch::Power, false),
        ("elision.armv8", Arch::Armv8, false),
        ("elision.armv8_dmb", Arch::Armv8, true),
    ] {
        let result = check_lock_elision(arch, fix);
        run.answer(label, verdict(!result.sound()));
    }
    for (label, model, config) in [
        (
            "monotonicity.power2",
            Box::new(PowerModel::tm()) as Box<dyn MemoryModel>,
            SynthConfig::power(2),
        ),
        (
            "monotonicity.armv8_2",
            Box::new(Armv8Model::tm()),
            SynthConfig::armv8(2),
        ),
    ] {
        let result = check_monotonicity(model.as_ref(), &config, 2);
        run.answer(label, verdict(!result.holds()));
    }
    run.attempted += 6;
}

/// Source executions of the exhaustive rows: compilation counts its own;
/// the library's theorem and monotonicity checks do not, so their space
/// sizes come from the pinned answers (the traced rebuild counts them, and
/// its counts are gated).
fn execs(scale: Scale, compile_checked: u64) -> u64 {
    let pinned = known(scale);
    let space = |key: &str| -> u64 {
        pinned
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0)
    };
    compile_checked
        + space("theorem7.2.space")
        + space("theorem7.3.space")
        + space("monotonicity.x86.space")
}

/// The untraced rows.
pub fn run(ctx: &Ctx) -> Run {
    let start = Instant::now();
    prepare(ctx.scale);
    let mut run = Run {
        setup_s: start.elapsed().as_secs_f64(),
        ..Run::default()
    };
    let b = bounds(ctx.scale);
    let compile = check_compilation(Arch::X86, &cpp_config(b.compile), b.compile);
    run.answer("compile.x86", verdict(!compile.sound()));
    run.answer("compile.x86.checked", compile.checked);
    let t72 = check_theorem_7_2(&cpp_config(b.theorem_7_2), b.theorem_7_2);
    run.answer("theorem7.2", verdict(!t72.holds()));
    run.answer("theorem7.2.instances", t72.instances);
    let t73 = check_theorem_7_3(&cpp_config(b.theorem_7_3), b.theorem_7_3);
    run.answer("theorem7.3", verdict(!t73.holds()));
    run.answer("theorem7.3.instances", t73.instances);
    let mono = check_monotonicity(
        &X86Model::tm(),
        &SynthConfig::x86(b.monotonicity),
        b.monotonicity,
    );
    run.answer("monotonicity.x86", verdict(!mono.holds()));
    run.answer("monotonicity.x86.pairs", mono.pairs_checked);
    run.attempted += 4;
    short_rows(&mut run);
    run.execs = execs(ctx.scale, compile.checked as u64);
    run.wall_s = start.elapsed().as_secs_f64();
    run
}

/// Call-time and call-count accumulators shared by the enumeration
/// workers.
#[derive(Default)]
struct Shared {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Shared {
    #[inline]
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn secs(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    fn count(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

thread_local! {
    /// When this worker's previous sink call returned.
    static LAST_RETURN: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Per-layer accumulators of the traced rebuild.
#[derive(Default)]
struct Layers {
    /// Enumerator time: the gaps between one sink call's return and the
    /// next call on the same worker.
    enumerate_ns: AtomicU64,
    view: Shared,
    compile: Shared,
    candidates: AtomicU64,
    theorem_candidates: AtomicU64,
}

impl Layers {
    /// Wraps one sink call: charges the gap since the worker's previous
    /// call to the enumerator.
    fn sink(&self, body: impl FnOnce()) {
        let entry = Instant::now();
        if let Some(prev) = LAST_RETURN.with(Cell::get) {
            self.enumerate_ns
                .fetch_add((entry - prev).as_nanos() as u64, Ordering::Relaxed);
        }
        self.candidates.fetch_add(1, Ordering::Relaxed);
        body();
        LAST_RETURN.with(|c| c.set(Some(Instant::now())));
    }

    /// Enumerates `config` at every size up to `max_events` through
    /// `f`, one span per size.
    fn enumerate(
        &self,
        tracer: &Tracer,
        parent: usize,
        config: &SynthConfig,
        max_events: usize,
        f: impl Fn(&Execution) + Sync,
    ) -> u64 {
        let mut total = 0u64;
        for n in 2..=max_events {
            // The calling thread may serve as a worker; forget its last
            // return from an earlier search.
            LAST_RETURN.with(|c| c.set(None));
            let span = tracer.open(format!("synth.enumerate.{n}"), Some(parent));
            total += enumerate_exact(config, n, |exec| self.sink(|| f(exec))) as u64;
            tracer.close(span, Duration::ZERO);
        }
        total
    }
}

/// The traced rebuild.
pub fn run_traced(ctx: &Ctx, tracer: &Tracer) -> Run {
    let start = Instant::now();
    let root = tracer.open("table2.run", None);
    let build = tracer.open("models.catalog", Some(root));
    std::hint::black_box(catalog());
    tracer.close(build, Duration::ZERO);
    let catalog_s = start.elapsed().as_secs_f64();
    prepare(ctx.scale);
    let mut run = Run {
        setup_s: start.elapsed().as_secs_f64(),
        ..Run::default()
    };
    let b = bounds(ctx.scale);
    let cpp = CppModel::tm();
    let l = Layers::default();

    // Compilation to x86 (`check_compilation`).
    let x86 = X86Model::tm();
    let found = AtomicBool::new(false);
    let span = tracer.open("metatheory.compile.x86", Some(root));
    let space = l.enumerate(tracer, span, &cpp_config(b.compile), b.compile, |exec| {
        if l.view.time(|| cpp.is_consistent_view(&ExecView::new(exec))) {
            return;
        }
        let compiled = l.compile.time(|| compile_execution(exec, Arch::X86));
        if l.view
            .time(|| x86.is_consistent_view(&ExecView::new(&compiled)))
        {
            found.store(true, Ordering::Relaxed);
        }
    });
    tracer.close(span, Duration::ZERO);
    run.answer("compile.x86", verdict(found.load(Ordering::Relaxed)));
    run.answer("compile.x86.checked", space);
    let compile_checked = space;

    // Theorem 7.2 (`check_theorem_7_2`).
    let found = AtomicBool::new(false);
    let t72_instances = AtomicU64::new(0);
    let span = tracer.open("metatheory.theorem7.2", Some(root));
    let space = l.enumerate(
        tracer,
        span,
        &cpp_config(b.theorem_7_2),
        b.theorem_7_2,
        |exec| {
            l.theorem_candidates.fetch_add(1, Ordering::Relaxed);
            if exec.txn_classes().is_empty() {
                return;
            }
            let mut exec = exec.clone();
            exec.stxnat = exec.stxn.clone();
            let view = ExecView::new(&exec);
            if !l
                .view
                .time(|| cpp.atomic_txns_contain_no_atomics_view(&view))
            {
                return;
            }
            if !l.view.time(|| cpp.is_consistent_view(&view))
                || l.view.time(|| cpp.is_racy_view(&view))
            {
                return;
            }
            t72_instances.fetch_add(1, Ordering::Relaxed);
            if !l
                .view
                .time(|| isolation::strong_isolation_atomic_view(&view))
            {
                found.store(true, Ordering::Relaxed);
            }
        },
    );
    tracer.close(span, Duration::ZERO);
    run.answer("theorem7.2", verdict(found.load(Ordering::Relaxed)));
    run.answer(
        "theorem7.2.instances",
        t72_instances.load(Ordering::Relaxed),
    );
    run.answer("theorem7.2.space", space);

    // Theorem 7.3 (`check_theorem_7_3`).
    let tsc = ScModel::tsc();
    let found = AtomicBool::new(false);
    let t73_instances = AtomicU64::new(0);
    let span = tracer.open("metatheory.theorem7.3", Some(root));
    let space = l.enumerate(
        tracer,
        span,
        &cpp_config(b.theorem_7_3),
        b.theorem_7_3,
        |exec| {
            l.theorem_candidates.fetch_add(1, Ordering::Relaxed);
            let mut exec = exec.clone();
            exec.stxnat = exec.stxn.clone();
            let view = ExecView::new(&exec);
            if l.view.time(|| *view.atomics() != *view.sc_events()) {
                return;
            }
            if !l
                .view
                .time(|| cpp.atomic_txns_contain_no_atomics_view(&view))
            {
                return;
            }
            if !l.view.time(|| cpp.is_consistent_view(&view))
                || l.view.time(|| cpp.is_racy_view(&view))
            {
                return;
            }
            t73_instances.fetch_add(1, Ordering::Relaxed);
            if !l.view.time(|| tsc.is_consistent_view(&view)) {
                found.store(true, Ordering::Relaxed);
            }
        },
    );
    tracer.close(span, Duration::ZERO);
    run.answer("theorem7.3", verdict(found.load(Ordering::Relaxed)));
    run.answer(
        "theorem7.3.instances",
        t73_instances.load(Ordering::Relaxed),
    );
    run.answer("theorem7.3.space", space);

    // x86+TM monotonicity (`check_monotonicity`).
    let found = AtomicBool::new(false);
    let pairs = AtomicU64::new(0);
    let span = tracer.open("metatheory.monotonicity.x86", Some(root));
    let space = l.enumerate(
        tracer,
        span,
        &SynthConfig::x86(b.monotonicity),
        b.monotonicity,
        |exec| {
            if per_classes(&exec.stxn).is_empty() {
                return;
            }
            if !l.view.time(|| x86.is_consistent_view(&ExecView::new(exec))) {
                return;
            }
            for reduced in transaction_reductions(exec) {
                pairs.fetch_add(1, Ordering::Relaxed);
                if !l
                    .view
                    .time(|| x86.is_consistent_view(&ExecView::new(&reduced)))
                {
                    found.store(true, Ordering::Relaxed);
                    return;
                }
            }
        },
    );
    tracer.close(span, Duration::ZERO);
    run.answer("monotonicity.x86", verdict(found.load(Ordering::Relaxed)));
    run.answer("monotonicity.x86.pairs", pairs.load(Ordering::Relaxed));
    run.answer("monotonicity.x86.space", space);
    run.attempted += 4;

    let span = tracer.open("metatheory.short_rows", Some(root));
    short_rows(&mut run);
    tracer.close(span, Duration::ZERO);
    tracer.close(root, Duration::ZERO);
    run.execs = execs(ctx.scale, compile_checked);
    run.wall_s = start.elapsed().as_secs_f64();

    let layers = &mut run.layers;
    layers.insert("models.catalog_build_s", catalog_s);
    layers.insert(
        "synth.enumerate.self_s",
        l.enumerate_ns.load(Ordering::Relaxed) as f64 / 1e9,
    );
    layers.insert(
        "synth.enumerate.candidates",
        l.candidates.load(Ordering::Relaxed) as f64,
    );
    layers.insert("synth.symmetry.orbit_ratio", 1.0);
    layers.insert("models.view_check.busy_s", l.view.secs());
    layers.insert("models.view_checks", l.view.count() as f64);
    layers.insert("metatheory.compile.busy_s", l.compile.secs());
    layers.insert(
        "metatheory.instances",
        ratio(
            (t72_instances.load(Ordering::Relaxed) + t73_instances.load(Ordering::Relaxed)) as f64,
            l.theorem_candidates.load(Ordering::Relaxed) as f64,
        ),
    );
    run
}

/// The pinned answers.
pub fn known(scale: Scale) -> Vec<(&'static str, &'static str)> {
    let short = [
        ("elision.x86", "no"),
        ("elision.power", "YES"),
        ("elision.armv8", "YES"),
        ("elision.armv8_dmb", "no"),
        ("monotonicity.power2", "YES"),
        ("monotonicity.armv8_2", "YES"),
    ];
    let exhaustive = match scale {
        Scale::Full => [
            ("compile.x86", "no"),
            ("compile.x86.checked", "66663"),
            ("theorem7.2", "no"),
            ("theorem7.2.instances", "3804"),
            ("theorem7.2.space", "66663"),
            ("theorem7.3", "no"),
            ("theorem7.3.instances", "58663"),
            ("theorem7.3.space", "5505327"),
            ("monotonicity.x86", "no"),
            ("monotonicity.x86.pairs", "248526"),
            ("monotonicity.x86.space", "171276"),
        ],
        Scale::Small => [
            ("compile.x86", "no"),
            ("compile.x86.checked", "66663"),
            ("theorem7.2", "no"),
            ("theorem7.2.instances", "3804"),
            ("theorem7.2.space", "66663"),
            ("theorem7.3", "no"),
            ("theorem7.3.instances", "2891"),
            ("theorem7.3.space", "66663"),
            ("monotonicity.x86", "no"),
            ("monotonicity.x86.pairs", "6758"),
            ("monotonicity.x86.space", "4667"),
        ],
    };
    exhaustive.into_iter().chain(short).collect()
}
