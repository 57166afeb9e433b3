//! Parity of the delta-driven suite-synthesis pipeline against the
//! per-execution one it replaced.
//!
//! [`synthesise_suites`] now runs on the delta-threading enumeration with
//! stateful per-worker checkers and savepoint-probed ⊏-minimality walks;
//! [`synthesise_suites_per_execution`] is the retained pre-incremental
//! pipeline (fresh views, cloned weakenings, globally locked sinks). These
//! tests pin them to each other — identical Forbid and Allow sets (by
//! canonical signature), identical transaction histograms, identical
//! enumeration counts — on all five transactional models at small bounds,
//! pin the x86 Forbid count against the paper's Table 1, and assert the
//! incremental engine never took the footprint-invalidation fallback on a
//! maintainable monotone node while doing so (the removal deltas of the
//! odometer walk and of every weakening probe are *maintained*, by
//! counting-based deletion and DRed rederivation).

use tm_weak_memory::exec::ir::Delta;
use tm_weak_memory::exec::Execution;
use tm_weak_memory::models::ir::IncrementalChecker;
use tm_weak_memory::models::{Target, X86Model};
use tm_weak_memory::synth::{
    canonical_signature, enumerate, synthesise_suites, synthesise_suites_per_execution, CanonSig,
    SuiteReport, Symmetry, SynthConfig,
};

fn signatures(report: &SuiteReport) -> (Vec<CanonSig>, Vec<CanonSig>) {
    let sigs = |tests: &[tm_weak_memory::synth::SynthesisedTest]| {
        let mut sigs: Vec<CanonSig> = tests
            .iter()
            .map(|t| canonical_signature(&t.execution))
            .collect();
        sigs.sort();
        sigs
    };
    (sigs(&report.forbid), sigs(&report.allow))
}

fn assert_suites_match(target: Target, cfg: &SynthConfig, events: usize) {
    let tm_model = target.model();
    let baseline = target.baseline().model();
    let incremental = synthesise_suites(tm_model.as_ref(), baseline.as_ref(), cfg, events);
    let reference =
        synthesise_suites_per_execution(tm_model.as_ref(), baseline.as_ref(), cfg, events);
    assert_eq!(
        incremental.enumerated, reference.enumerated,
        "{target}: pipelines visited different spaces"
    );
    assert_eq!(
        signatures(&incremental),
        signatures(&reference),
        "{target}: Forbid/Allow suites diverged at |E| = {events}"
    );
    assert_eq!(
        incremental.forbid_txn_histogram(),
        reference.forbid_txn_histogram(),
        "{target}: transaction histograms diverged"
    );
    // Expectations ride along identically.
    for t in &incremental.forbid {
        assert!(!tm_model.is_consistent(&t.execution));
        assert!(baseline.is_consistent(&t.execution));
    }
    for t in &incremental.allow {
        assert!(tm_model.is_consistent(&t.execution));
    }
}

#[test]
fn suite_parity_tsc() {
    let cfg = SynthConfig {
        dependencies: false,
        rmws: false,
        fences: vec![],
        ..SynthConfig::x86(3)
    };
    assert_suites_match(Target::Tsc, &cfg, 3);
}

#[test]
fn suite_parity_x86_tm() {
    assert_suites_match(Target::X86Tm, &SynthConfig::x86(3), 3);
}

#[test]
fn suite_parity_power_tm() {
    assert_suites_match(Target::PowerTm, &SynthConfig::power(2), 2);
    let mut cfg = SynthConfig::power(3);
    cfg.max_threads = 2;
    cfg.max_locs = 2;
    cfg.fences = vec![];
    assert_suites_match(Target::PowerTm, &cfg, 3);
}

#[test]
fn suite_parity_armv8_tm() {
    assert_suites_match(Target::Armv8Tm, &SynthConfig::armv8(2), 2);
    let mut cfg = SynthConfig::armv8(3);
    cfg.max_threads = 2;
    cfg.max_locs = 2;
    cfg.fences = vec![];
    cfg.read_annots.truncate(1);
    cfg.write_annots.truncate(1);
    assert_suites_match(Target::Armv8Tm, &cfg, 3);
}

#[test]
fn suite_parity_cpp_tm() {
    let mut cfg = SynthConfig::cpp(3);
    cfg.max_threads = 2;
    cfg.max_locs = 2;
    assert_suites_match(Target::CppTm, &cfg, 3);
}

/// The paper's Table 1 reports 4 minimally-forbidden x86+TM tests at three
/// events; the explicit-search pipeline reproduces that count exactly.
#[test]
fn x86_forbid_count_matches_paper_table_1_at_three_events() {
    let report = synthesise_suites(
        &X86Model::tm(),
        &X86Model::baseline(),
        &SynthConfig::x86(3),
        3,
    );
    assert_eq!(report.forbid.len(), 4, "Table 1: x86 |E|=3 Forbid = 4");
    // §5.3: every three-event Forbid test has exactly one transaction.
    assert_eq!(report.forbid_txn_histogram()[1], 4);
}

/// Driving the incremental checker over a delta-threading sweep — the
/// removal-heavy odometer walk — must never take the footprint-invalidation
/// fallback on a maintainable monotone node: every such node is grown and
/// shrunk in place (`maintained`), and only genuinely non-monotone nodes
/// may take the lazy path. The falsifiable all-monotone-pool version of
/// this pin (where even `dropped` must be zero) lives next to the engine,
/// in `tm_exec::ir`'s `monotone_pool_removals_never_drop_any_node`.
#[test]
fn sweep_removal_deltas_never_invalidate_monotone_nodes() {
    let mut cfg = SynthConfig::x86(3);
    cfg.max_threads = 2;
    let totals = std::sync::Mutex::new((0u64, 0u64));
    let make_sink = || {
        let totals = &totals;
        let mut guard = scopeguard(move |checker: &IncrementalChecker| {
            let stats = checker.stats();
            let mut totals = totals.lock().unwrap();
            totals.0 += stats.invalidated;
            totals.1 += stats.maintained;
        });
        move |exec: &Execution, delta: &Delta, _orbit: u64| {
            guard.value.advance(exec, delta);
            guard.value.is_consistent(exec, Target::X86Tm);
            guard.value.is_consistent(exec, Target::X86);
        }
    };
    enumerate(&cfg, 3, Symmetry::Full, make_sink, || false);
    let (invalidated, maintained) = *totals.lock().unwrap();
    assert_eq!(
        invalidated, 0,
        "a monotone node fell back to footprint invalidation"
    );
    assert!(
        maintained > 0,
        "the sweep must maintain monotone nodes in place"
    );
}

/// Minimal drop-guard plumbing: runs `f` on the held value when the worker
/// sink is dropped at the end of the sweep.
struct ScopeGuard<T, F: FnMut(&T)> {
    value: T,
    f: F,
}

fn scopeguard<F: FnMut(&IncrementalChecker)>(f: F) -> ScopeGuard<IncrementalChecker, F> {
    ScopeGuard {
        value: IncrementalChecker::new(),
        f,
    }
}

impl<T, F: FnMut(&T)> Drop for ScopeGuard<T, F> {
    fn drop(&mut self) {
        (self.f)(&self.value);
    }
}
