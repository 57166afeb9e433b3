//! Scheduling parity: adaptive dispatch must not change what a sweep
//! computes.
//!
//! The contract under test: weight-ordered dispatch, unit pre-splitting
//! and budget-stop work preservation are pure *scheduling* choices — a
//! split run produces suites byte-identical (signatures, counts,
//! histograms, enumeration totals) to the static FIFO dispatch of
//! `sched: false`.

use std::path::PathBuf;
use std::time::Duration;

use tm_weak_memory::models::{MemoryModel, ScModel};
use tm_weak_memory::obs::Obs;
use tm_weak_memory::sweep::{run_sweep, SweepJob, SweepMode, SweepOptions, SweepStatus};
use tm_weak_memory::synth::{canonical_signature, CanonSig, SuiteReport, Symmetry, SynthConfig};

/// A fresh scratch directory under the system temp dir; removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let mut p = std::env::temp_dir();
        p.push(format!("tm-sched-parity-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        Scratch(p)
    }

    fn path(&self) -> PathBuf {
        self.0.clone()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The trimmed |E| = 4 study space: big enough for a real unit frontier
/// with splittable units and uneven weights, small enough for debug-profile
/// test runs.
fn trimmed_config() -> SynthConfig {
    SynthConfig {
        dependencies: false,
        rmws: false,
        fences: vec![],
        max_threads: 2,
        max_locs: 2,
        ..SynthConfig::x86(4)
    }
}

fn suites_job<'a>(
    tm: &'a dyn MemoryModel,
    base: &'a dyn MemoryModel,
    config: &'a SynthConfig,
) -> SweepJob<'a> {
    SweepJob {
        model: tm,
        baseline: Some(base),
        reference: None,
        mode: SweepMode::Suites,
        config,
        events: config.max_events,
        symmetry: Symmetry::Full,
    }
}

/// Everything the parity contract promises to preserve: canonical and
/// structural signatures of both suites, the transaction histogram, and
/// the enumeration total.
type SuiteProfile = (Vec<(CanonSig, String)>, Vec<String>, Vec<usize>, usize);

fn profile(report: &SuiteReport) -> SuiteProfile {
    let forbid = report
        .forbid
        .iter()
        .map(|t| (canonical_signature(&t.execution), t.execution.signature()))
        .collect();
    let allow = report
        .allow
        .iter()
        .map(|t| t.execution.signature())
        .collect();
    (
        forbid,
        allow,
        report.forbid_txn_histogram(),
        report.enumerated,
    )
}

/// Forcing every splittable unit apart with `--max-unit-weight 1` must not
/// change the suites, the visit totals, or the per-execution verdicts —
/// only how the work was diced.
#[test]
fn forced_presplit_run_matches_unscheduled_run() {
    let config = trimmed_config();
    let (tm, base) = (ScModel::tsc(), ScModel::sc());
    let job = suites_job(&tm, &base, &config);

    let off_dir = Scratch::new("presplit-off");
    let mut off_opts = SweepOptions::new(off_dir.path());
    off_opts.sched = false;
    let off = run_sweep(&job, &off_opts).expect("sched-off run");
    assert_eq!(off.status, SweepStatus::Complete);
    let off_profile = profile(off.suites.as_ref().expect("suites mode"));

    let on_dir = Scratch::new("presplit-on");
    let obs = Obs::disabled();
    let mut on_opts = SweepOptions::new(on_dir.path());
    on_opts.max_unit_weight = Some(1);
    on_opts.obs = obs.clone();
    let on = run_sweep(&job, &on_opts).expect("sched-on run");
    assert_eq!(on.status, SweepStatus::Complete);

    assert!(
        obs.counter("sweep.sched.presplit").get() > 0,
        "a weight bound of 1 must split something"
    );
    assert!(
        on.total_units > off.total_units,
        "splitting must refine the unit frontier ({} vs {})",
        on.total_units,
        off.total_units
    );
    assert_eq!(on.visited, off.visited);
    assert_eq!(on.weighted_visited, off.weighted_visited);
    assert_eq!(
        profile(on.suites.as_ref().expect("suites mode")),
        off_profile,
        "split suites must be identical to the unsplit run"
    );
}

/// A budget stop mid-run under maximal splitting, then a resume, lands on
/// the same suites — and every child unit banked before the stop is reused,
/// not re-run.
#[test]
fn budget_stop_with_splits_resumes_to_identical_suites() {
    let config = trimmed_config();
    let (tm, base) = (ScModel::tsc(), ScModel::sc());
    let job = suites_job(&tm, &base, &config);

    let clean_dir = Scratch::new("budget-clean");
    let mut clean_opts = SweepOptions::new(clean_dir.path());
    clean_opts.sched = false;
    let clean = run_sweep(&job, &clean_opts).expect("clean run");
    let clean_profile = profile(clean.suites.as_ref().expect("suites mode"));

    let dir = Scratch::new("budget");
    let mut opts = SweepOptions::new(dir.path());
    opts.max_unit_weight = Some(1);
    opts.budget = Some(Duration::from_millis(25));
    let stopped = run_sweep(&job, &opts).expect("budget run");

    let mut opts = SweepOptions::new(dir.path());
    opts.max_unit_weight = Some(1);
    opts.resume = true;
    let resumed = run_sweep(&job, &opts).expect("resumed run");
    assert_eq!(resumed.status, SweepStatus::Complete);
    assert_eq!(
        resumed.reused_units, stopped.completed_units,
        "every unit banked before the budget stop must be reused"
    );
    assert_eq!(
        profile(resumed.suites.as_ref().expect("suites mode")),
        clean_profile
    );
}
