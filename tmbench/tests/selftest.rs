//! The benchmark's self-test: every workload at small bounds, untraced and
//! traced, against its pinned small-bound answers, and the traced rebuild
//! against the untraced run.
//!
//! Run with `cargo test --release --manifest-path tmbench/Cargo.toml`.

use tmbench::trace::Tracer;
use tmbench::{gate, parity, Ctx, Scale, WORKLOADS};

fn ctx(tag: &str) -> Ctx {
    let scratch = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{tag}"));
    std::fs::create_dir_all(&scratch).expect("scratch directory");
    Ctx {
        scratch,
        seed: 7,
        scale: Scale::Small,
    }
}

fn check(workload: &str) {
    let ctx = ctx(workload);
    let untraced = tmbench::run(workload, &ctx).expect("untraced run");
    let tracer = Tracer::new(1);
    let traced = tmbench::run_traced(workload, &ctx, &tracer).expect("traced run");
    let _ = std::fs::remove_dir_all(&ctx.scratch);

    let mut problems = gate(workload, Scale::Small, &untraced.answers, false);
    problems.extend(gate(workload, Scale::Small, &traced.answers, true));
    problems.extend(parity(workload, &untraced.answers, &traced.answers));
    assert!(problems.is_empty(), "{problems:#?}");
    // Failed operations are the program's, not the benchmark's: the seeded
    // runs must agree on them. At these bounds the Power simulator observes
    // one 3-event Forbid test (a transaction's read and write of `x` with
    // another thread's write of `x` between them), which the table1 run
    // counts as a failed operation.
    assert_eq!(
        untraced.failed, traced.failed,
        "{workload}: failed operations"
    );
    if workload != "table1-suites" {
        assert_eq!(untraced.failed, 0, "{workload}: failed operations");
    }
    assert!(untraced.wall_s > 0.0 && untraced.execs > 0);
    assert_eq!(
        untraced.execs, traced.execs,
        "{workload}: executions covered"
    );
    assert!(!tracer.spans().is_empty(), "{workload}: no spans recorded");
    assert!(
        traced
            .layers
            .keys()
            .all(|k| tmbench::LAYER_METRICS.iter().any(|m| m.0 == *k)),
        "{workload}: a layer metric outside LAYER_METRICS"
    );
}

#[test]
fn sweep_small() {
    check(WORKLOADS[0]);
}

#[test]
fn table1_small() {
    check(WORKLOADS[1]);
}

#[test]
fn table2_small() {
    check(WORKLOADS[2]);
}

#[test]
fn a_wrong_answer_fails_the_gate() {
    let mut answers = tmbench::Answers::new();
    for (key, value) in tmbench::known_answers(WORKLOADS[2], Scale::Small) {
        answers.insert(key.to_string(), value.to_string());
    }
    assert!(gate(WORKLOADS[2], Scale::Small, &answers, true).is_empty());
    answers.insert("compile.x86".to_string(), "YES".to_string());
    assert_eq!(gate(WORKLOADS[2], Scale::Small, &answers, true).len(), 1);
    answers.remove("theorem7.2.space");
    assert_eq!(gate(WORKLOADS[2], Scale::Small, &answers, true).len(), 2);
}
