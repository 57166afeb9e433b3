//! Parity of the *incremental* axiom-IR evaluator against from-scratch
//! evaluation.
//!
//! The incremental engine ([`tm_exec::ir::IncrementalEval`], fronted by
//! [`tm_models::ir::IncrementalChecker`]) keeps node values alive across
//! candidates and absorbs edge deltas — semi-naïve propagation through
//! monotone nodes under additions, footprint invalidation otherwise. These
//! tests pin it, verdict for verdict and witness for witness, to the
//! per-execution evaluator that builds a fresh [`ExecView`] every time:
//!
//! * on **random edge-addition/removal walks** over the whole named-execution
//!   catalog, covering every editable base relation;
//! * **exhaustively**, driven by the delta-threading enumeration
//!   (`enumerate`) at the same bounds `ir_parity.rs` uses for the
//!   view-based paths — the x86-trimmed space at |E| ≤ 4 plus the richer
//!   Power and C++ vocabularies at |E| ≤ 3.
//!
//! Every walk and sweep additionally pins the engine's maintenance
//! counters: removal deltas must never take the footprint-invalidation
//! fallback on a maintainable monotone node (`stats().invalidated == 0`) —
//! monotone nodes are shrunk in place by counting-based deletion and DRed
//! rederivation, and only genuinely non-monotone nodes drop to the lazy
//! path.

use std::sync::atomic::{AtomicUsize, Ordering};

use tm_weak_memory::exec::ir::{Delta, RelBase};
use tm_weak_memory::exec::{catalog, ExecView, Execution};
use tm_weak_memory::models::ir::IncrementalChecker;
use tm_weak_memory::models::{MemoryModel, Target};
use tm_weak_memory::synth::{enumerate, Symmetry, SynthConfig};

/// A split-mix style generator: deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Asserts the stateful checker agrees with fresh-view evaluation for every
/// target, with `CROrder` appended on the hardware TM targets.
fn assert_matches_scratch(checker: &mut IncrementalChecker, exec: &Execution, context: &str) {
    let view = ExecView::new(exec);
    for target in Target::ALL {
        let scratch = target.model().check_view(&view);
        assert_eq!(
            checker.check(exec, target),
            scratch,
            "{context}: incremental and from-scratch verdicts differ for {target}"
        );
        assert_eq!(
            checker.is_consistent(exec, target),
            scratch.is_consistent(),
            "{context}: incremental early-exit verdict differs for {target}"
        );
    }
    for target in Target::HARDWARE_TM {
        let with_cr = checker.check_with_cr_order(exec, target, true);
        let scratch_consistent = target.model().is_consistent_view(&view)
            && tm_weak_memory::models::isolation::cr_order_view(&view);
        assert_eq!(
            checker.is_consistent_with_cr_order(exec, target),
            scratch_consistent,
            "{context}: CROrder-extended verdict differs for {target}"
        );
        assert_eq!(with_cr.is_consistent(), scratch_consistent, "{context}");
    }
}

/// The editable base relations, with accessors into an execution.
fn family_rel(exec: &mut Execution, family: RelBase) -> &mut tm_weak_memory::relation::Relation {
    match family {
        RelBase::Rf => &mut exec.rf,
        RelBase::Co => &mut exec.co,
        RelBase::Addr => &mut exec.addr,
        RelBase::Data => &mut exec.data,
        RelBase::Ctrl => &mut exec.ctrl,
        RelBase::Rmw => &mut exec.rmw,
        RelBase::Stxn => &mut exec.stxn,
        RelBase::Stxnat => &mut exec.stxnat,
        RelBase::Scr => &mut exec.scr,
        other => panic!("{other:?} is not an editable family"),
    }
}

/// One checker survives a random add/remove walk over every catalog
/// execution and must agree with from-scratch evaluation at every step.
///
/// The walk edits arbitrary pairs, so intermediate executions need not be
/// well-formed — the axiom IR is pure relational algebra and must evaluate
/// them all the same.
#[test]
fn incremental_matches_scratch_on_random_edge_walks() {
    const FAMILIES: [RelBase; 9] = [
        RelBase::Rf,
        RelBase::Co,
        RelBase::Addr,
        RelBase::Data,
        RelBase::Ctrl,
        RelBase::Rmw,
        RelBase::Stxn,
        RelBase::Stxnat,
        RelBase::Scr,
    ];
    let starting_points = [
        catalog::sb(),
        catalog::sb_txn(),
        catalog::mp_txn(),
        catalog::fig2(),
        catalog::fig3('a'),
        catalog::power_wrc_tprop1(),
        catalog::power_iriw_two_txns(),
        catalog::monotonicity_cex_split(),
        catalog::fig10_abstract(),
        catalog::example_1_1_concrete(true),
    ];
    let mut rng = Rng(0x5eed);
    let mut checker = IncrementalChecker::new();
    for exec in starting_points {
        let mut exec = exec;
        let n = exec.len();
        checker.advance(&exec, &Delta::everything());
        assert_matches_scratch(&mut checker, &exec, "walk start");
        for step in 0..24 {
            // Batch one to three toggles into a single delta so multi-edit
            // deltas (and mixed families) are exercised too.
            let mut delta = Delta::new();
            for _ in 0..1 + rng.below(3) {
                let family = FAMILIES[rng.below(FAMILIES.len())];
                let (a, b) = (rng.below(n), rng.below(n));
                let rel = family_rel(&mut exec, family);
                if rel.contains(a, b) {
                    rel.remove(a, b);
                    delta.remove_edge(family, a, b);
                } else {
                    rel.insert(a, b);
                    delta.add_edge(family, a, b);
                }
            }
            checker.advance(&exec, &delta);
            assert_matches_scratch(&mut checker, &exec, &format!("walk step {step}"));
            assert_eq!(
                checker.stats().invalidated,
                0,
                "a monotone node fell back to footprint invalidation"
            );
        }
    }
    assert!(
        checker.stats().maintained > 0,
        "removal walks must maintain derived nodes in place"
    );
}

/// A walk of pure additions keeps every delta on the semi-naïve path.
#[test]
fn incremental_matches_scratch_on_addition_only_walks() {
    let mut rng = Rng(0xadd);
    let mut checker = IncrementalChecker::new();
    for exec in [catalog::mp(), catalog::lb(), catalog::wrc()] {
        let mut exec = exec;
        let n = exec.len();
        checker.advance(&exec, &Delta::everything());
        for step in 0..24 {
            let mut delta = Delta::new();
            let family = [
                RelBase::Rf,
                RelBase::Co,
                RelBase::Rmw,
                RelBase::Stxn,
                RelBase::Data,
            ][rng.below(5)];
            let (a, b) = (rng.below(n), rng.below(n));
            let rel = family_rel(&mut exec, family);
            if rel.contains(a, b) {
                continue;
            }
            rel.insert(a, b);
            delta.add_edge(family, a, b);
            assert!(delta.is_additions_only());
            checker.advance(&exec, &delta);
            assert_matches_scratch(&mut checker, &exec, &format!("addition step {step}"));
        }
    }
}

/// Exhaustive agreement at |E| ≤ `bound`: the delta-threading enumeration
/// drives a per-worker checker, and every candidate's verdicts must match
/// fresh-view evaluation for all ten targets.
fn exhaustive_incremental_parity(cfg: &SynthConfig, bound: usize) -> usize {
    let checked = AtomicUsize::new(0);
    for n in 2..=bound {
        let make_sink = || {
            let mut checker = IncrementalChecker::new();
            let models: Vec<(Target, Box<dyn MemoryModel>)> =
                Target::ALL.iter().map(|&t| (t, t.model())).collect();
            let checked = &checked;
            move |exec: &Execution, delta: &Delta, _orbit: u64| {
                checker.advance(exec, delta);
                let view = ExecView::new(exec);
                for (target, model) in &models {
                    assert_eq!(
                        checker.check(exec, *target),
                        model.check_view(&view),
                        "incremental and from-scratch verdicts differ for {target} on:\n{exec:?}"
                    );
                }
                assert_eq!(
                    checker.stats().invalidated,
                    0,
                    "a monotone node fell back to footprint invalidation"
                );
                checked.fetch_add(1, Ordering::Relaxed);
            }
        };
        enumerate(cfg, n, Symmetry::Full, make_sink, || false);
    }
    checked.into_inner()
}

#[test]
fn exhaustive_incremental_parity_on_x86_trimmed_space_up_to_four_events() {
    // Mirrors the ir_parity.rs bounds (and the bench sweep configuration).
    let mut cfg = SynthConfig::x86(4);
    cfg.max_threads = 2;
    cfg.max_locs = 2;
    cfg.rmws = false;
    cfg.max_txns = 1;
    let checked = exhaustive_incremental_parity(&cfg, 4);
    assert!(checked > 1_000, "only {checked} executions enumerated");
}

#[test]
fn exhaustive_incremental_parity_on_power_space() {
    let cfg = SynthConfig::power(3);
    let checked = exhaustive_incremental_parity(&cfg, 3);
    assert!(checked > 1_000, "only {checked} executions enumerated");
}

#[test]
fn exhaustive_incremental_parity_on_cpp_annotated_space() {
    let mut cfg = SynthConfig::cpp(3);
    cfg.max_threads = 2;
    let checked = exhaustive_incremental_parity(&cfg, 3);
    assert!(checked > 500, "only {checked} executions enumerated");
}
