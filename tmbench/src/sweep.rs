//! `sweep-3t-sym`: a counts sweep of `models/x86_tm.cat` over the
//! `x86-trimmed-3t` space at |E| ≤ 6 with symmetry reduction, journalled
//! into a fresh checkpoint directory, dispatched in-process heaviest unit
//! first over [`WORKERS`] threads — the way `tm-cat sweep --symmetry on`
//! runs it, with no shards and no leases.
//!
//! Executions covered are orbit-weighted. The traced rebuild replays the
//! same work units through `enumerate_unit_reduced` with a sink that times
//! the checker's `advance` and `is_consistent`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tm_weak_memory::cat::load_file;
use tm_weak_memory::models::ir::IrModel;
use tm_weak_memory::sweep::journal::JOURNAL_FILE;
use tm_weak_memory::sweep::{run_sweep, SweepJob, SweepMode, SweepOptions, SweepStatus};
use tm_weak_memory::synth::{
    enumerate_unit_reduced, unit_weight, work_units, ReducedCount, Symmetry, SynthConfig,
};

use crate::trace::{Busy, Tracer};
use crate::{ratio, repo_root, Ctx, Run, Scale, WORKERS};

fn events(scale: Scale) -> usize {
    match scale {
        Scale::Full => 6,
        Scale::Small => 4,
    }
}

/// The `x86-trimmed-3t` preset of `tm-cat sweep`.
fn config(events: usize) -> SynthConfig {
    let mut cfg = SynthConfig::x86(events);
    cfg.max_threads = 3;
    cfg.max_locs = 2;
    cfg.rmws = false;
    cfg.max_txns = 1;
    cfg
}

fn load_model() -> Result<IrModel, String> {
    let path = repo_root().join("models/x86_tm.cat");
    load_file(&path).map_err(|e| format!("cannot load {}: {e}", path.display()))
}

/// A fresh, empty checkpoint directory under the scratch directory.
fn fresh_checkpoint(ctx: &Ctx, tag: &str) -> Result<PathBuf, String> {
    let dir = ctx
        .scratch
        .join(format!("checkpoint-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    Ok(dir)
}

fn job<'a>(model: &'a IrModel, cfg: &'a SynthConfig, events: usize) -> SweepJob<'a> {
    SweepJob {
        model,
        baseline: None,
        reference: None,
        mode: SweepMode::Counts,
        config: cfg,
        events,
        symmetry: Symmetry::Reduced,
    }
}

fn options(dir: &PathBuf) -> SweepOptions {
    let mut opts = SweepOptions::new(dir);
    opts.threads = Some(WORKERS);
    opts
}

/// Set-up alone: `.cat` load and elaboration, then the sweep's unit
/// planning and journal creation (a zero budget stops the sweep before any
/// worker claims a unit).
pub fn setup(ctx: &Ctx) -> Result<f64, String> {
    let dir = fresh_checkpoint(ctx, "setup")?;
    let start = Instant::now();
    let model = load_model()?;
    let load_s = start.elapsed().as_secs_f64();
    let n = events(ctx.scale);
    let cfg = config(n);
    let mut opts = options(&dir);
    opts.budget = Some(Duration::ZERO);
    let outcome = run_sweep(&job(&model, &cfg, n), &opts).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(&dir);
    if outcome.status != SweepStatus::BudgetExhausted || outcome.fresh_units != 0 {
        return Err("a zero-budget sweep ran units".to_string());
    }
    Ok(load_s + outcome.timings.setup_seconds)
}

/// The untraced sweep.
pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let dir = fresh_checkpoint(ctx, "run")?;
    let start = Instant::now();
    let model = load_model()?;
    let load_s = start.elapsed().as_secs_f64();
    let n = events(ctx.scale);
    let cfg = config(n);
    let opts = options(&dir);
    let outcome = run_sweep(&job(&model, &cfg, n), &opts).map_err(|e| e.to_string())?;

    let mut run = Run::default();
    run.answer("units", outcome.total_units);
    run.answer("quarantined", outcome.quarantined.len());
    run.answer(
        "status",
        match outcome.status {
            SweepStatus::Complete => "complete",
            SweepStatus::Partial => "partial",
            SweepStatus::BudgetExhausted => "budget-exhausted",
        },
    );
    run.answer("representatives", outcome.visited);
    run.answer("weighted", outcome.weighted_visited);
    run.answer("consistent", outcome.consistent);
    run.answer("weighted_consistent", outcome.weighted_consistent);
    run.wall_s = start.elapsed().as_secs_f64();
    run.setup_s = load_s + outcome.timings.setup_seconds;
    run.execs = outcome.weighted_visited;
    run.attempted = outcome.total_units as u64;
    run.failed = outcome.quarantined.len() as u64 + outcome.retried_attempts;

    // Scheduler and checker numbers come from the returned structs and the
    // sweep's metrics registry; reading them costs nothing during the run.
    let journal_bytes = std::fs::metadata(dir.join(JOURNAL_FILE)).map_or(0, |m| m.len());
    let _ = std::fs::remove_dir_all(&dir);
    let mut unit_s: Vec<f64> = outcome.per_unit.iter().map(|u| u.seconds).collect();
    unit_s.sort_by(f64::total_cmp);
    let busy: f64 = unit_s.iter().sum();
    let t = &outcome.timings;
    let l = &mut run.layers;
    l.insert("cat.load_s", load_s);
    l.insert("sweep.plan_s", t.setup_seconds);
    l.insert(
        "sweep.idle_frac",
        1.0 - ratio(busy, WORKERS as f64 * t.run_seconds),
    );
    l.insert(
        "sweep.unit.p50_s",
        unit_s.get(unit_s.len() / 2).copied().unwrap_or(0.0),
    );
    l.insert("sweep.unit.max_s", unit_s.last().copied().unwrap_or(0.0));
    let counter = |name: &str| opts.obs.counter(name).get() as f64;
    l.insert(
        "sweep.splits",
        counter("sweep.sched.presplit") + counter("sweep.sched.splits"),
    );
    l.insert("sweep.steals", counter("sweep.sched.steals"));
    l.insert("sweep.journal.bytes", journal_bytes as f64);
    let p = &outcome.prune;
    l.insert("synth.enumerate.candidates", outcome.visited as f64);
    l.insert(
        "synth.symmetry.kills",
        (p.shape_kills + p.subtree_kills + p.edge_kills) as f64,
    );
    l.insert(
        "synth.symmetry.orbit_ratio",
        ratio(outcome.weighted_visited as f64, outcome.visited as f64),
    );
    if let Some(c) = &outcome.checker {
        l.insert("exec.ir.maintained", c.stats.maintained as f64);
        l.insert("exec.ir.rebased", c.stats.rebased as f64);
        l.insert("exec.ir.dropped", c.stats.dropped as f64);
        l.insert("exec.ir.resets", c.stats.resets as f64);
        l.insert("models.axiom_queries", c.stats.axiom_queries as f64);
        l.insert(
            "models.cache_hit_ratio",
            ratio(
                c.stats.axiom_cache_hits as f64,
                c.stats.axiom_queries as f64,
            ),
        );
        // One consistency query per visited representative.
        l.insert(
            "models.early_exit_ratio",
            ratio(c.early_exits as f64, outcome.visited as f64),
        );
    }
    Ok(run)
}

/// What the replayed units add up to.
#[derive(Default)]
struct Totals {
    tally: ReducedCount,
    consistent: u64,
    weighted_consistent: u64,
    advance: Busy,
    query: Busy,
}

/// The traced rebuild: the same work units, LPT-ordered, expanded by
/// [`WORKERS`] threads through `enumerate_unit_reduced`, one fresh checker
/// per unit as the sweep runner uses, with `advance` and `is_consistent`
/// timed per call. One span per unit; the enumerator's self time is the
/// unit span minus the timed checker calls.
pub fn run_traced(ctx: &Ctx, tracer: &Tracer) -> Result<Run, String> {
    let start = Instant::now();
    let root = tracer.open("sweep.run", None);
    let load = tracer.open("cat.load", Some(root));
    let model = load_model()?;
    tracer.close(load, Duration::ZERO);
    let load_s = start.elapsed().as_secs_f64();
    let n = events(ctx.scale);
    let cfg = config(n);

    let plan = tracer.open("sweep.plan", Some(root));
    let mut units: Vec<_> = (2..=n)
        .flat_map(|k| {
            work_units(&cfg, k, Symmetry::Reduced)
                .into_iter()
                .map(move |u| (k, u))
        })
        .map(|(k, u)| (unit_weight(&cfg, &u, k), k, u))
        .collect();
    units.sort_by_key(|u| std::cmp::Reverse(u.0));
    tracer.close(plan, Duration::ZERO);

    let next = AtomicUsize::new(0);
    let totals: Mutex<Totals> = Mutex::new(Totals::default());
    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            scope.spawn(|| {
                let worker = tracer.open("sweep.worker", Some(root));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((_, k, unit)) = units.get(i) else {
                        break;
                    };
                    let span = tracer.open("synth.enumerate.unit", Some(worker));
                    let mut checker = model.incremental();
                    let mut advance = Busy::default();
                    let mut query = Busy::default();
                    let (mut consistent, mut weighted_consistent) = (0u64, 0u64);
                    let tally = enumerate_unit_reduced(
                        &cfg,
                        unit,
                        *k,
                        &mut |exec, delta, orbit| {
                            advance.time(|| checker.advance(exec, delta));
                            if query.time(|| checker.is_consistent(exec)) {
                                consistent += 1;
                                weighted_consistent += orbit;
                            }
                        },
                        || false,
                    );
                    tracer.close(span, advance.time + query.time);
                    let mut t = totals.lock().expect("totals poisoned");
                    t.tally.add(tally);
                    t.consistent += consistent;
                    t.weighted_consistent += weighted_consistent;
                    t.advance.merge(advance);
                    t.query.merge(query);
                }
                tracer.close(worker, Duration::ZERO);
            });
        }
    });
    let t = totals.into_inner().expect("totals poisoned");
    tracer.close(root, Duration::ZERO);

    let mut run = Run::default();
    run.answer("representatives", t.tally.representatives);
    run.answer("weighted", t.tally.weighted);
    run.answer("consistent", t.consistent);
    run.answer("weighted_consistent", t.weighted_consistent);
    run.wall_s = start.elapsed().as_secs_f64();
    run.execs = t.tally.weighted;
    let l = &mut run.layers;
    l.insert("cat.load_s", load_s);
    l.insert(
        "synth.enumerate.self_s",
        tracer.self_s("synth.enumerate.unit"),
    );
    l.insert("exec.ir.advance.busy_s", t.advance.secs());
    l.insert("models.query.busy_s", t.query.secs());
    Ok(run)
}

/// The pinned answers.
pub fn known(scale: Scale) -> Vec<(&'static str, &'static str)> {
    match scale {
        Scale::Full => vec![
            ("units", "1175"),
            ("quarantined", "0"),
            ("status", "complete"),
            ("representatives", "12446972"),
            ("weighted", "15730716"),
            ("consistent", "1930634"),
            ("weighted_consistent", "2828097"),
        ],
        Scale::Small => vec![
            ("units", "419"),
            ("quarantined", "0"),
            ("status", "complete"),
            ("representatives", "29669"),
            ("weighted", "37056"),
            ("consistent", "13418"),
            ("weighted_consistent", "18325"),
        ],
    }
}
