//! Bounded exhaustive enumeration of well-formed candidate executions.
//!
//! # Architecture
//!
//! Every production sweep runs through one engine, [`enumerate`] (or
//! [`enumerate_unit`] for a single work unit), in two stages:
//!
//! 1. A **work-unit producer** splits the space into units of the form
//!    *(thread-size partition, shape prefix)*: the partition fixes how many
//!    events each thread owns, and the prefix fixes the kind/location/
//!    annotation of the first few events. Producing units is cheap (a few
//!    thousand at most), so it runs up front on the calling thread.
//! 2. A pool of **workers** (scoped threads, one per available core) claims
//!    units from a shared atomic cursor. Each worker builds one sink with
//!    `make_sink` and expands its units with [`enumerate_unit`]: the shape
//!    prefix is extended to full shape vectors, and every choice of
//!    `rf`/`co`/dependencies/RMWs/transactions for a shape is walked by
//!    **mutating a single [`Execution`] in place**. The sink sees
//!    `(execution, delta, orbit)`, where the [`Delta`] records exactly the
//!    edges that moved since the previous candidate. The per-edge
//!    constraints (reads-from links same-location write→read with one
//!    source per read, coherence is a total order per location,
//!    dependencies stay within a thread's program order) hold as the edges
//!    are chosen, so no candidate pays a well-formedness re-check (it is
//!    asserted in debug builds).
//!
//! Under [`Symmetry::Full`] every candidate is visited with orbit 1; under
//! [`Symmetry::Reduced`] only one canonical representative per
//! thread/location-renaming class is visited, carrying its exact in-space
//! orbit size. Per-worker tallies are summed into the returned
//! [`ReducedCount`].
//!
//! [`enumerate_exact`] is the per-execution convenience over the same
//! engine: its `Fn + Sync` callback runs concurrently from all workers.
//!
//! The single-threaded builder-based generate-and-test loop is kept as
//! [`enumerate_exact_reference`]: it is the oracle the engine is tested
//! against.
//!
//! Set `TM_SYNTH_THREADS` to pin the worker count (see [`worker_count`]).

use std::sync::atomic::{AtomicUsize, Ordering};

use tm_exec::ir::{Delta, RelBase};
use tm_exec::{Annot, Event, Execution, ExecutionBuilder};
use tm_relation::Relation;

use crate::symmetry::{
    build_stab_elems, partition_sym, prefix_prunable, shape_stabilizer, PartitionSym, ReducedCount,
    StabElem, Symmetry,
};
use crate::SynthConfig;

/// How many leading events a work unit's shape prefix fixes. Deep enough to
/// produce thousands of units (good load balance), shallow enough that the
/// unit list stays small.
#[cfg(not(test))]
const PREFIX_DEPTH: usize = 3;
/// In unit tests the prefix is shallower, so the 3-event configurations the
/// tests use genuinely exercise the prefix-continuation path of
/// [`enumerate_unit`] (with the production depth they would degenerate to
/// complete shape vectors).
#[cfg(test)]
const PREFIX_DEPTH: usize = 2;

/// Enumerates the space of `config` at exactly `n` events in `symmetry`
/// mode, on a pool of worker threads (see the module docs).
///
/// Each worker builds one sink with `make_sink` and hands it
/// `(execution, delta, orbit)` for every candidate it visits; the execution
/// is mutated in place between calls and `delta` records the edits (a full
/// delta opens each new shape vector), so a stateful checker per sink stays
/// in step. `orbit` is 1 under [`Symmetry::Full`]. `should_stop` is polled
/// in the work-unit claim loop and between shape vectors, so a caller that
/// found what it was looking for (see [`crate::find_distinguishing`])
/// halts the sweep; the returned tally covers the candidates visited
/// before the stop.
///
/// The *set* of candidates visited is deterministic, the order is not.
/// Enumeration is canonical up to the obvious symmetries: threads are
/// listed in non-increasing size order and locations are numbered in first-
/// use order. Under [`Symmetry::Full`] the remaining thread symmetry
/// (between equal-sized threads) is left to the caller to collapse with
/// [`crate::canonical_signature`].
pub fn enumerate<S>(
    config: &SynthConfig,
    n: usize,
    symmetry: Symmetry,
    make_sink: impl Fn() -> S + Sync,
    should_stop: impl Fn() -> bool + Sync,
) -> ReducedCount
where
    S: FnMut(&Execution, &Delta, u64),
{
    enumerate_with_threads(config, n, symmetry, worker_count(), make_sink, &should_stop)
}

/// [`enumerate`] with an explicit worker count (tests use this to pin the
/// pool size without touching the process environment).
fn enumerate_with_threads<S>(
    config: &SynthConfig,
    n: usize,
    symmetry: Symmetry,
    threads: usize,
    make_sink: impl Fn() -> S + Sync,
    should_stop: &(impl Fn() -> bool + Sync),
) -> ReducedCount
where
    S: FnMut(&Execution, &Delta, u64),
{
    if n == 0 {
        return ReducedCount::default();
    }
    let units = produce_units(config, n, symmetry);
    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut sink = make_sink();
        let mut tally = ReducedCount::default();
        while !should_stop() {
            let Some(unit) = units.get(cursor.fetch_add(1, Ordering::Relaxed)) else {
                break;
            };
            tally.add(enumerate_unit(
                config,
                unit,
                n,
                symmetry,
                &mut sink,
                should_stop,
            ));
        }
        tally
    };
    let threads = threads.min(units.len()).max(1);
    if threads == 1 {
        return worker();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        let mut total = ReducedCount::default();
        for handle in handles {
            match handle.join() {
                Ok(tally) => total.add(tally),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        total
    })
}

/// Expands one work unit on the calling thread in `symmetry` mode (units
/// come from [`work_units`] with the same mode): `sink` sees every
/// `(execution, delta, orbit)` of the unit's subspace, with the delta
/// contract of [`enumerate`] (a full delta opens each new shape vector, so
/// a fresh stateful checker per unit is sound). `should_stop` is polled
/// between shape vectors — a deadline or budget hook halts the unit
/// cooperatively, in which case the partial tally must not be banked as
/// complete. The tally's `weighted` field equals the candidate count a
/// full-mode expansion of the same subspace visits.
pub fn enumerate_unit<S: FnMut(&Execution, &Delta, u64)>(
    config: &SynthConfig,
    unit: &WorkUnit,
    n: usize,
    symmetry: Symmetry,
    sink: &mut S,
    should_stop: impl Fn() -> bool,
) -> ReducedCount {
    // One group per unit; the walker does one lex-leader check per shape.
    let sym = symmetry
        .is_reduced()
        .then(|| partition_sym(&unit.partition));
    let mut tally = ReducedCount::default();
    let mut shapes = unit.prefix.clone();
    enumerate_shapes(config, n, &mut shapes, &mut |shapes| {
        if should_stop() {
            return;
        }
        tally.add(enumerate_relations_sym(
            config,
            &unit.partition,
            shapes,
            sym.as_ref(),
            sink,
        ));
    });
    tally
}

/// Per-execution [`enumerate`] in [`Symmetry::Full`] mode: `f` is called
/// concurrently from every worker on each candidate. Returns the number of
/// executions visited.
pub fn enumerate_exact(config: &SynthConfig, n: usize, f: impl Fn(&Execution) + Sync) -> usize {
    enumerate(
        config,
        n,
        Symmetry::Full,
        || |exec: &Execution, _: &Delta, _: u64| f(exec),
        || false,
    )
    .representatives
}

/// [`enumerate`] in [`Symmetry::Full`] mode with `(execution, delta)`
/// sinks and no stop hook, for callers written against the two-argument
/// sink. Returns the number of executions visited.
pub fn enumerate_exact_incremental<S>(
    config: &SynthConfig,
    n: usize,
    make_sink: impl Fn() -> S + Sync,
) -> usize
where
    S: FnMut(&Execution, &Delta),
{
    enumerate(
        config,
        n,
        Symmetry::Full,
        || {
            let mut sink = make_sink();
            move |exec: &Execution, delta: &Delta, _: u64| sink(exec, delta)
        },
        || false,
    )
    .representatives
}

/// [`enumerate_unit`] in [`Symmetry::Reduced`] mode, for callers that only
/// ever expand reduced units.
pub fn enumerate_unit_reduced<S: FnMut(&Execution, &Delta, u64)>(
    config: &SynthConfig,
    unit: &WorkUnit,
    n: usize,
    sink: &mut S,
    should_stop: impl Fn() -> bool,
) -> ReducedCount {
    enumerate_unit(config, unit, n, Symmetry::Reduced, sink, should_stop)
}

/// The original single-threaded generate-and-test enumerator, retained as
/// the oracle for the engine (see `pipeline_matches_reference` in this
/// module's tests) and as `bench_synth`'s baseline. Every candidate is
/// assembled through [`ExecutionBuilder`] and re-checked for
/// well-formedness after the fact.
pub fn enumerate_exact_reference(
    config: &SynthConfig,
    n: usize,
    mut f: impl FnMut(&Execution),
) -> usize {
    let mut count = 0;
    if n == 0 {
        return 0;
    }
    for partition in compositions(n, config.max_threads) {
        let mut shapes: Vec<EventShape> = Vec::with_capacity(n);
        enumerate_shapes(config, n, &mut shapes, &mut |shapes| {
            enumerate_relations_reference(config, &partition, shapes, &mut |exec| {
                count += 1;
                f(exec);
            });
        });
    }
    count
}

/// The unified in-place odometer walker behind both enumeration modes.
///
/// The flat odometer is structured as *outer* slow dimensions (rf, co,
/// dependencies, RMWs — positions `0..txn_at`) nesting an *inner*
/// transaction odometer (positions `txn_at..`), both last-position-fastest:
/// an inner overflow carries into an outer advance, reproducing the flat
/// walk's `apply_dim` sequence exactly.
///
/// With `sym: Some(_)` ([`Symmetry::Reduced`]) the walker visits only
/// lex-leader representatives (see the `symmetry` module docs): shapes that
/// are not canonical return immediately, and at each outer setting every
/// shape-stabilizer element is compared on the slow prefix once — an
/// element that already beats the candidate there rules out the *entire*
/// transaction subtree, which is skipped without touching the inner dims
/// (they are all zero at subtree entry, and stay so). Each emitted
/// representative carries its exact in-space orbit size
/// `|G| / |Stab(E)|`; budget-skipped and non-canonical candidates
/// accumulate their edits into the pending delta like budget skips always
/// have.
///
/// With `sym: None` ([`Symmetry::Full`]) the stabilizer machinery is empty
/// and every candidate is emitted with orbit 1.
fn enumerate_relations_sym<S: FnMut(&Execution, &Delta, u64)>(
    config: &SynthConfig,
    partition: &[usize],
    shapes: &[EventShape],
    sym: Option<&PartitionSym>,
    sink: &mut S,
) -> ReducedCount {
    let mut tally = ReducedCount::default();
    let (shape_perms, group_order) = match sym {
        None => (Vec::new(), 1),
        Some(sym) => match shape_stabilizer(sym, shapes) {
            // Not the lex-least shape of its orbit: every candidate in here
            // is represented under the canonical shape instead.
            None => {
                tally.shape_kills = 1;
                return tally;
            }
            Some(perms) => (perms, sym.order()),
        },
    };

    let choices = relation_choices(config, partition, shapes);
    let events = shape_events(shapes, &choices.thread_of);
    let layout = choices.odometer();
    if layout.dims.contains(&0) {
        return tally;
    }
    let stabs: Vec<StabElem> = build_stab_elems(&choices, &layout, &shape_perms);
    let txn_at = layout.txn_at;
    let total = layout.dims.len();
    let mut idx = vec![0usize; total];

    // Assemble the candidate at the all-zero index tuple.
    let mut exec = Execution::with_events(events);
    exec.po = choices.po.clone();
    for (i, opts) in choices.rf_options.iter().enumerate() {
        if let Some(w) = opts[0] {
            exec.rf.insert(w, choices.reads[i]);
        }
    }
    for opts in &choices.co_options {
        let order = &opts[0];
        for (k, &a) in order.iter().enumerate() {
            for &b in &order[k + 1..] {
                exec.co.insert(a, b);
            }
        }
    }
    for opts in &choices.txn_options {
        for interval in &opts[0] {
            for &a in interval {
                for &b in interval {
                    exec.stxn.insert(a, b);
                }
            }
        }
    }

    // The first candidate of a shape is announced with a full delta; edits
    // accumulate across skipped candidates until one is visited.
    let mut delta = Delta::everything();
    // Stabilizer elements still tied on the current slow prefix (their
    // suffix decides per candidate). Indices into `stabs`.
    let mut live: Vec<usize> = Vec::with_capacity(stabs.len());
    loop {
        // Outer setting: the transaction dims are all zero here (initially,
        // after an inner overflow wrapped them, or untouched by a skip).
        // Classify each stabilizer element on the slow prefix, which the
        // inner walk never changes.
        live.clear();
        let mut skip_subtree = false;
        for (si, h) in stabs.iter().enumerate() {
            match h.cmp_range(&idx, 0, txn_at) {
                // h·idx < idx already on the slow dims: no transaction
                // suffix can rescue this subtree — skip it whole.
                std::cmp::Ordering::Greater => {
                    skip_subtree = true;
                    break;
                }
                std::cmp::Ordering::Equal => live.push(si),
                // idx < h·idx on the slow dims: h is inert in this subtree.
                std::cmp::Ordering::Less => {}
            }
        }

        if skip_subtree {
            tally.subtree_kills += 1;
        } else {
            // Inner odometer over the transaction dims, last fastest.
            'inner: loop {
                let txn_count: usize = choices
                    .txn_options
                    .iter()
                    .enumerate()
                    .map(|(t, opts)| opts[idx[txn_at + t]].len())
                    .sum();
                if txn_count <= config.max_txns {
                    let mut stab_size = 1u64;
                    let mut canonical = true;
                    for &si in &live {
                        match stabs[si].cmp_range(&idx, txn_at, total) {
                            std::cmp::Ordering::Greater => {
                                canonical = false;
                                break;
                            }
                            std::cmp::Ordering::Equal => stab_size += 1,
                            std::cmp::Ordering::Less => {}
                        }
                    }
                    if canonical {
                        debug_assert!(
                            tm_exec::check_well_formed(&exec).is_ok(),
                            "incremental assembly must produce well-formed executions"
                        );
                        let orbit = group_order / stab_size;
                        tally.representatives += 1;
                        tally.weighted += orbit;
                        sink(&exec, &delta, orbit);
                        delta.clear();
                    } else {
                        tally.edge_kills += 1;
                    }
                }

                // Advance the inner dims; overflow falls through to the
                // outer advance with every inner dim back at zero.
                let mut p = total;
                loop {
                    if p == txn_at {
                        break 'inner;
                    }
                    p -= 1;
                    let old = idx[p];
                    idx[p] += 1;
                    if idx[p] < layout.dims[p] {
                        apply_dim(&choices, &layout, &mut exec, &mut delta, p, old, idx[p]);
                        continue 'inner;
                    }
                    idx[p] = 0;
                    apply_dim(&choices, &layout, &mut exec, &mut delta, p, old, 0);
                    // Carry into the next-slower inner dimension.
                }
            }
        }

        // Advance the slow dims, last fastest — the flat walk's carry out
        // of the transaction block.
        let mut p = txn_at;
        loop {
            if p == 0 {
                return tally;
            }
            p -= 1;
            let old = idx[p];
            idx[p] += 1;
            if idx[p] < layout.dims[p] {
                apply_dim(&choices, &layout, &mut exec, &mut delta, p, old, idx[p]);
                break;
            }
            idx[p] = 0;
            apply_dim(&choices, &layout, &mut exec, &mut delta, p, old, 0);
            // Carry into the next-slower dimension.
        }
    }
}

/// Applies the edge edits of moving odometer position `p` from choice
/// `old_i` to `new_i`, mutating `exec` and recording the edits in `delta`.
fn apply_dim(
    choices: &RelationChoices,
    layout: &OdometerLayout,
    exec: &mut Execution,
    delta: &mut Delta,
    p: usize,
    old_i: usize,
    new_i: usize,
) {
    if p >= layout.txn_at {
        let t = p - layout.txn_at;
        for interval in &choices.txn_options[t][old_i] {
            for &a in interval {
                for &b in interval {
                    exec.stxn.remove(a, b);
                    delta.remove_edge(RelBase::Stxn, a, b);
                }
            }
        }
        for interval in &choices.txn_options[t][new_i] {
            for &a in interval {
                for &b in interval {
                    exec.stxn.insert(a, b);
                    delta.add_edge(RelBase::Stxn, a, b);
                }
            }
        }
    } else if p >= layout.rmw_at {
        let (r, w) = choices.rmw_pairs[p - layout.rmw_at];
        if new_i == 1 {
            exec.rmw.insert(r, w);
            delta.add_edge(RelBase::Rmw, r, w);
        } else {
            exec.rmw.remove(r, w);
            delta.remove_edge(RelBase::Rmw, r, w);
        }
    } else if p >= layout.dep_at {
        let (r, e) = choices.dep_pairs[p - layout.dep_at];
        let (rel, base) = if choices.is_write[e] {
            (&mut exec.data, RelBase::Data)
        } else {
            (&mut exec.addr, RelBase::Addr)
        };
        if new_i == 1 {
            rel.insert(r, e);
            delta.add_edge(base, r, e);
        } else {
            rel.remove(r, e);
            delta.remove_edge(base, r, e);
        }
    } else if p >= layout.co_at {
        let i = p - layout.co_at;
        let old = &choices.co_options[i][old_i];
        for (k, &a) in old.iter().enumerate() {
            for &b in &old[k + 1..] {
                exec.co.remove(a, b);
                delta.remove_edge(RelBase::Co, a, b);
            }
        }
        let new = &choices.co_options[i][new_i];
        for (k, &a) in new.iter().enumerate() {
            for &b in &new[k + 1..] {
                exec.co.insert(a, b);
                delta.add_edge(RelBase::Co, a, b);
            }
        }
    } else {
        let i = p - layout.rf_at;
        let r = choices.reads[i];
        if let Some(w) = choices.rf_options[i][old_i] {
            exec.rf.remove(w, r);
            delta.remove_edge(RelBase::Rf, w, r);
        }
        if let Some(w) = choices.rf_options[i][new_i] {
            exec.rf.insert(w, r);
            delta.add_edge(RelBase::Rf, w, r);
        }
    }
}

/// The enumeration worker count: `TM_SYNTH_THREADS` if it parses (0 counts
/// as 1), else the number of available cores.
pub fn worker_count() -> usize {
    if let Ok(v) = std::env::var("TM_SYNTH_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One unit of parallel work: a thread-size partition plus a fixed prefix of
/// event shapes.
///
/// Units are the checkpointing granule of resumable sweeps (`tm-sweep`):
/// [`WorkUnit::stable_id`] names a unit deterministically across processes
/// and machines, so a journal can record "this unit is done" and a restart
/// can skip it.
#[derive(Clone)]
pub struct WorkUnit {
    partition: Vec<usize>,
    prefix: Vec<EventShape>,
}

impl WorkUnit {
    /// A deterministic 64-bit identifier for this unit within the space of
    /// `config` at exactly `n` events: an FNV-1a hash of the configuration
    /// fingerprint, the event count, the thread-size partition and the
    /// shape prefix. Stable across processes, machines and re-orderings of
    /// the unit list — the key under which checkpointed sweeps journal unit
    /// completion.
    pub fn stable_id(&self, config: &SynthConfig, n: usize) -> u64 {
        let mut h = crate::hash::Fnv1a::new();
        h.u64(config.fingerprint()).usize(n);
        h.usize(self.partition.len());
        for &p in &self.partition {
            h.usize(p);
        }
        h.usize(self.prefix.len());
        for shape in &self.prefix {
            match *shape {
                EventShape::Read(loc, a) => {
                    h.byte(0).usize(loc as usize).byte(annot_bits(a));
                }
                EventShape::Write(loc, a) => {
                    h.byte(1).usize(loc as usize).byte(annot_bits(a));
                }
                EventShape::Fence(f) => {
                    h.byte(2).usize(f.index());
                }
            }
        }
        h.finish()
    }

    /// A short human-readable description (`threads=2+1 prefix=R0,W0,F`),
    /// for sweep progress reporting and quarantine summaries.
    pub fn label(&self) -> String {
        let partition: Vec<String> = self.partition.iter().map(|p| p.to_string()).collect();
        let prefix: Vec<String> = self
            .prefix
            .iter()
            .map(|s| match s {
                EventShape::Read(l, _) => format!("R{l}"),
                EventShape::Write(l, _) => format!("W{l}"),
                EventShape::Fence(_) => "F".to_string(),
            })
            .collect();
        format!(
            "threads={} prefix={}",
            partition.join("+"),
            prefix.join(",")
        )
    }

    /// Whether the unit can be refined further: a prefix shorter than the
    /// event bound `n` leaves at least one shape digit to extend.
    pub fn splittable(&self, n: usize) -> bool {
        self.prefix.len() < n
    }

    /// Refines this unit into its child subtrees by extending the shape
    /// prefix one digit, in exactly the order [`enumerate_shapes`] explores
    /// extensions — so the union of the children's candidate sets is the
    /// parent's, and a sweep that runs children instead of the parent visits
    /// the same executions in the same per-subtree order.
    ///
    /// Children carry their own [`WorkUnit::stable_id`]s (the id hashes the
    /// partition and the full prefix, so every child's id is derived from —
    /// and distinct from — the parent's input). Under [`Symmetry::Reduced`],
    /// children whose extended prefix is already non-canonical are dropped,
    /// mirroring [`work_units`]; every candidate they would cover is
    /// represented under a canonical sibling (the parent expansion would
    /// have shape-killed them too).
    ///
    /// Returns an empty vector when the unit is not [`splittable`]
    /// (its prefix already fixes all `n` events).
    ///
    /// [`splittable`]: WorkUnit::splittable
    pub fn split(&self, config: &SynthConfig, n: usize, symmetry: Symmetry) -> Vec<WorkUnit> {
        if !self.splittable(n) {
            return Vec::new();
        }
        let mut children = Vec::new();
        let mut prefix = self.prefix.clone();
        let target = prefix.len() + 1;
        enumerate_shapes(config, target, &mut prefix, &mut |child| {
            if symmetry.is_reduced() && prefix_prunable(&self.partition, child) {
                return;
            }
            children.push(WorkUnit {
                partition: self.partition.clone(),
                prefix: child.to_vec(),
            });
        });
        children
    }

    /// A deterministic cost estimate for expanding this unit at `n` events:
    /// the sum over the unit's complete shape vectors of the odometer
    /// subtree size (the product of every relation dimension — rf sources
    /// per read, coherence permutations per location, 2 per dependency/RMW
    /// pair, transaction interval sets per thread).
    ///
    /// This is an upper bound on the candidates a full-mode expansion
    /// visits (transaction-budget and symmetry kills only shrink it), and
    /// it is exact in full mode when `max_txns` never bites. It never
    /// materialises the choices themselves, so it is cheap relative to the
    /// expansion it estimates; saturating arithmetic keeps wide configs from
    /// overflowing. Always at least 1, so weight-proportional schedulers
    /// need no zero guard.
    pub fn weight(&self, config: &SynthConfig, n: usize) -> u64 {
        let mut total: u64 = 0;
        let mut shapes = self.prefix.clone();
        enumerate_shapes(config, n, &mut shapes, &mut |shapes| {
            total = total.saturating_add(shape_weight(config, &self.partition, shapes));
        });
        total.max(1)
    }
}

/// The odometer-subtree size of one complete shape vector: the product of
/// every relation dimension, computed from counts alone (no permutations or
/// interval sets are materialised). Mirrors [`RelationChoices::odometer`]
/// dimension by dimension.
fn shape_weight(config: &SynthConfig, partition: &[usize], shapes: &[EventShape]) -> u64 {
    let n = shapes.len();
    let mut thread_of = vec![0u32; n];
    {
        let mut next = 0usize;
        for (t, &size) in partition.iter().enumerate() {
            for slot in thread_of.iter_mut().skip(next).take(size) {
                *slot = t as u32;
            }
            next += size;
        }
    }
    let loc_of = |e: usize| match shapes[e] {
        EventShape::Read(l, _) | EventShape::Write(l, _) => Some(l),
        EventShape::Fence(_) => None,
    };
    let is_read = |e: usize| matches!(shapes[e], EventShape::Read(..));
    let is_write = |e: usize| matches!(shapes[e], EventShape::Write(..));

    let mut weight: u64 = 1;
    let mul = |w: &mut u64, f: u64| *w = w.saturating_mul(f.max(1));

    // rf: each read observes the initial state or one same-location write.
    for r in (0..n).filter(|&e| is_read(e)) {
        let sources = (0..n)
            .filter(|&w| is_write(w) && loc_of(w) == loc_of(r))
            .count() as u64;
        mul(&mut weight, 1 + sources);
    }
    // co: a permutation of the writes per used location.
    let mut locs: Vec<u32> = (0..n).filter_map(loc_of).collect();
    locs.sort_unstable();
    locs.dedup();
    for l in locs {
        let writes = (0..n)
            .filter(|&w| is_write(w) && loc_of(w) == Some(l))
            .count();
        mul(&mut weight, factorial(writes));
    }
    // dependencies: 2 per (read, po-later same-thread access) pair.
    if config.dependencies {
        for r in (0..n).filter(|&e| is_read(e)) {
            for e in r + 1..n {
                if thread_of[e] == thread_of[r] && loc_of(e).is_some() {
                    mul(&mut weight, 2);
                }
            }
        }
    }
    // rmw: 2 per adjacent same-location read/write pair on one thread.
    if config.rmws {
        for e in 0..n.saturating_sub(1) {
            if is_read(e)
                && is_write(e + 1)
                && thread_of[e] == thread_of[e + 1]
                && loc_of(e) == loc_of(e + 1)
            {
                mul(&mut weight, 2);
            }
        }
    }
    // transactions: disjoint contiguous interval sets per thread.
    if config.transactions {
        for &size in partition {
            mul(&mut weight, interval_set_count(size));
        }
    }
    weight
}

fn factorial(k: usize) -> u64 {
    (2..=k as u64).fold(1u64, |acc, f| acc.saturating_mul(f))
}

/// How many sets of disjoint contiguous non-empty intervals a path of `len`
/// events admits — the count [`interval_sets`] materialises.
fn interval_set_count(len: usize) -> u64 {
    // d[m] counts choices over the last m positions: skip one event, or
    // start an interval of any length (the recursion of `interval_sets`).
    let mut d = vec![0u64; len + 1];
    d[0] = 1;
    for m in 1..=len {
        let mut total = d[m - 1]; // position unclaimed
        for k in 1..=m {
            total = total.saturating_add(d[m - k]); // interval of length k
        }
        d[m] = total;
    }
    d[len]
}

/// Free-function form of [`WorkUnit::weight`]: the odometer-subtree upper
/// bound a weight-ordered scheduler dispatches by.
pub fn unit_weight(config: &SynthConfig, unit: &WorkUnit, n: usize) -> u64 {
    unit.weight(config, n)
}

/// The annotation's stable bit pattern, shared by unit ids and the config
/// fingerprint.
pub(crate) fn annot_bits(a: Annot) -> u8 {
    u8::from(a.acq) | u8::from(a.rel) << 1 | u8::from(a.sc) << 2 | u8::from(a.atomic) << 3
}

/// The partition × shape-prefix work units of the space of `config` at
/// exactly `n` events, in deterministic order — the checkpointing granules
/// a resumable sweep journals, shards and retries individually. Expanding a
/// unit with [`enumerate_unit`] visits exactly the candidates [`enumerate`]
/// visits for it.
///
/// In [`Symmetry::Reduced`] mode units whose shape prefix is already
/// non-canonical are dropped up front (their every candidate is represented
/// elsewhere); the surviving units keep the ids they have in the full list,
/// but the two modes' unit *sets* differ — sweep journals fingerprint the
/// mode so they never mix.
pub fn work_units(config: &SynthConfig, n: usize, symmetry: Symmetry) -> Vec<WorkUnit> {
    produce_units(config, n, symmetry)
}

/// Stage 1 of the pipeline: the partition × shape-prefix work units.
fn produce_units(config: &SynthConfig, n: usize, symmetry: Symmetry) -> Vec<WorkUnit> {
    let depth = n.min(PREFIX_DEPTH);
    let mut units = Vec::new();
    for partition in compositions(n, config.max_threads) {
        let mut prefix: Vec<EventShape> = Vec::with_capacity(depth);
        enumerate_shapes(config, depth, &mut prefix, &mut |prefix| {
            if symmetry.is_reduced() && prefix_prunable(&partition, prefix) {
                return;
            }
            units.push(WorkUnit {
                partition: partition.clone(),
                prefix: prefix.to_vec(),
            });
        });
    }
    units
}

/// The non-increasing compositions of `n` into at most `max_parts` parts.
fn compositions(n: usize, max_parts: usize) -> Vec<Vec<usize>> {
    fn go(
        remaining: usize,
        max_part: usize,
        parts_left: usize,
        prefix: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if remaining == 0 {
            out.push(prefix.clone());
            return;
        }
        if parts_left == 0 {
            return;
        }
        for part in (1..=remaining.min(max_part)).rev() {
            prefix.push(part);
            go(remaining - part, part, parts_left - 1, prefix, out);
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    go(n, n, max_parts, &mut Vec::new(), &mut out);
    out
}

/// The per-event choice: what the event is, where it accesses, and how it is
/// annotated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EventShape {
    Read(u32, Annot),
    Write(u32, Annot),
    Fence(tm_exec::Fence),
}

/// Extends `shapes` with every choice for the next event until `target`
/// events are shaped, invoking `f` on each complete vector. Locations are
/// canonicalised: a new event may use any location already used, or the next
/// fresh one.
fn enumerate_shapes(
    config: &SynthConfig,
    target: usize,
    shapes: &mut Vec<EventShape>,
    f: &mut impl FnMut(&[EventShape]),
) {
    if shapes.len() == target {
        f(shapes);
        return;
    }
    let used = shapes
        .iter()
        .filter_map(|s| match s {
            EventShape::Read(l, _) | EventShape::Write(l, _) => Some(*l + 1),
            EventShape::Fence(_) => None,
        })
        .max()
        .unwrap_or(0);
    let loc_limit = (used + 1).min(config.max_locs as u32);
    for loc in 0..loc_limit {
        for &annot in &config.read_annots {
            shapes.push(EventShape::Read(loc, annot));
            enumerate_shapes(config, target, shapes, f);
            shapes.pop();
        }
        for &annot in &config.write_annots {
            shapes.push(EventShape::Write(loc, annot));
            enumerate_shapes(config, target, shapes, f);
            shapes.pop();
        }
    }
    for &fence in &config.fences {
        shapes.push(EventShape::Fence(fence));
        enumerate_shapes(config, target, shapes, f);
        shapes.pop();
    }
}

/// Iterates the cartesian product of `0..dims[i]` index tuples.
fn for_each_product(dims: &[usize], mut f: impl FnMut(&[usize])) {
    if dims.contains(&0) {
        return;
    }
    let mut idx = vec![0usize; dims.len()];
    loop {
        f(&idx);
        // Advance the odometer.
        let mut i = 0;
        loop {
            if i == dims.len() {
                return;
            }
            idx[i] += 1;
            if idx[i] < dims[i] {
                break;
            }
            idx[i] = 0;
            i += 1;
        }
    }
}

pub(crate) fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
    if items.is_empty() {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    for (i, &x) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut p in permutations(&rest) {
            p.insert(0, x);
            out.push(p);
        }
    }
    out
}

/// All ways of choosing disjoint contiguous non-empty intervals (transactions)
/// over a thread with events `ids` (in program order). Each choice is a list
/// of intervals, each a list of event ids.
fn interval_sets(ids: &[usize]) -> Vec<Vec<Vec<usize>>> {
    // Dynamic programming over positions: at each position either skip one
    // event or start an interval of some length.
    fn go(ids: &[usize], from: usize, acc: &mut Vec<Vec<usize>>, out: &mut Vec<Vec<Vec<usize>>>) {
        if from == ids.len() {
            out.push(acc.clone());
            return;
        }
        // Event `from` is not in any transaction.
        go(ids, from + 1, acc, out);
        // Or an interval starts at `from`.
        for end in from + 1..=ids.len() {
            acc.push(ids[from..end].to_vec());
            go(ids, end, acc, out);
            acc.pop();
        }
    }
    let mut out = Vec::new();
    go(ids, 0, &mut Vec::new(), &mut out);
    out
}

/// The relation choices shared by every product of one shape vector.
pub(crate) struct RelationChoices {
    pub(crate) thread_of: Vec<u32>,
    pub(crate) thread_blocks: Vec<Vec<usize>>,
    /// Program order: fixed by the partition alone.
    pub(crate) po: Relation,
    pub(crate) reads: Vec<usize>,
    /// The used locations, sorted — `co_options[i]` orders the writes to
    /// `locs[i]`.
    pub(crate) locs: Vec<u32>,
    pub(crate) rf_options: Vec<Vec<Option<usize>>>,
    pub(crate) co_options: Vec<Vec<Vec<usize>>>,
    pub(crate) dep_pairs: Vec<(usize, usize)>,
    pub(crate) rmw_pairs: Vec<(usize, usize)>,
    pub(crate) txn_options: Vec<Vec<Vec<Vec<usize>>>>,
    pub(crate) is_write: Vec<bool>,
}

fn relation_choices(
    config: &SynthConfig,
    partition: &[usize],
    shapes: &[EventShape],
) -> RelationChoices {
    let n = shapes.len();
    // Event ids are grouped by thread: thread t owns a contiguous block.
    let mut thread_of = vec![0u32; n];
    let mut thread_blocks: Vec<Vec<usize>> = Vec::new();
    let mut po = Relation::new(n);
    {
        let mut next = 0usize;
        for (t, &size) in partition.iter().enumerate() {
            let block: Vec<usize> = (next..next + size).collect();
            for &e in &block {
                thread_of[e] = t as u32;
                for b in e + 1..next + size {
                    po.insert(e, b);
                }
            }
            thread_blocks.push(block);
            next += size;
        }
    }

    let loc_of = |e: usize| match shapes[e] {
        EventShape::Read(l, _) | EventShape::Write(l, _) => Some(l),
        EventShape::Fence(_) => None,
    };
    let is_read = |e: usize| matches!(shapes[e], EventShape::Read(..));
    let is_write = |e: usize| matches!(shapes[e], EventShape::Write(..));

    let reads: Vec<usize> = (0..n).filter(|&e| is_read(e)).collect();
    let locs: Vec<u32> = {
        let mut l: Vec<u32> = (0..n).filter_map(loc_of).collect();
        l.sort_unstable();
        l.dedup();
        l
    };

    // rf choices: each read observes the initial state or one same-location
    // write — reads-from well-formedness (write→read, same location, one
    // source per read) holds as the edge is chosen.
    let rf_options: Vec<Vec<Option<usize>>> = reads
        .iter()
        .map(|&r| {
            let mut opts: Vec<Option<usize>> = vec![None];
            opts.extend(
                (0..n)
                    .filter(|&w| is_write(w) && loc_of(w) == loc_of(r))
                    .map(Some),
            );
            opts
        })
        .collect();

    // co choices: a permutation of the writes to each location — coherence
    // is a strict total order per location by construction.
    let co_options: Vec<Vec<Vec<usize>>> = locs
        .iter()
        .map(|&l| {
            let writes: Vec<usize> = (0..n)
                .filter(|&w| is_write(w) && loc_of(w) == Some(l))
                .collect();
            permutations(&writes)
        })
        .collect();

    // dependency choices: for each (read, po-later access on the same
    // thread) pair, either no dependency or one (data to writes, address to
    // reads).
    let dep_pairs: Vec<(usize, usize)> = if config.dependencies {
        let mut pairs = Vec::new();
        for &r in &reads {
            for e in r + 1..n {
                if thread_of[e] == thread_of[r] && loc_of(e).is_some() {
                    pairs.push((r, e));
                }
            }
        }
        pairs
    } else {
        Vec::new()
    };

    // rmw choices: adjacent same-location read/write pairs on one thread.
    let rmw_pairs: Vec<(usize, usize)> = if config.rmws {
        (0..n.saturating_sub(1))
            .filter(|&e| {
                is_read(e)
                    && is_write(e + 1)
                    && thread_of[e] == thread_of[e + 1]
                    && loc_of(e) == loc_of(e + 1)
            })
            .map(|e| (e, e + 1))
            .collect()
    } else {
        Vec::new()
    };

    // transaction choices: per thread, a set of disjoint contiguous
    // intervals.
    let txn_options: Vec<Vec<Vec<Vec<usize>>>> = if config.transactions {
        thread_blocks.iter().map(|b| interval_sets(b)).collect()
    } else {
        thread_blocks.iter().map(|_| vec![vec![]]).collect()
    };

    RelationChoices {
        thread_of,
        thread_blocks,
        po,
        reads,
        locs,
        rf_options,
        co_options,
        dep_pairs,
        rmw_pairs,
        txn_options,
        is_write: (0..n).map(is_write).collect(),
    }
}

/// The odometer layout shared by the in-place and reference walkers: the
/// dimension vector and the offset of each choice family within an index
/// tuple.
pub(crate) struct OdometerLayout {
    pub(crate) dims: Vec<usize>,
    pub(crate) rf_at: usize,
    pub(crate) co_at: usize,
    pub(crate) dep_at: usize,
    pub(crate) rmw_at: usize,
    pub(crate) txn_at: usize,
}

impl RelationChoices {
    /// The odometer dimensions: rf per read, co per location, 2 per dep
    /// pair, 2 per rmw pair, txn set per thread.
    fn odometer(&self) -> OdometerLayout {
        let mut dims: Vec<usize> = Vec::new();
        dims.extend(self.rf_options.iter().map(Vec::len));
        dims.extend(self.co_options.iter().map(Vec::len));
        dims.extend(std::iter::repeat_n(2, self.dep_pairs.len()));
        dims.extend(std::iter::repeat_n(2, self.rmw_pairs.len()));
        dims.extend(self.txn_options.iter().map(Vec::len));
        let rf_at = 0;
        let co_at = rf_at + self.rf_options.len();
        let dep_at = co_at + self.co_options.len();
        let rmw_at = dep_at + self.dep_pairs.len();
        let txn_at = rmw_at + self.rmw_pairs.len();
        OdometerLayout {
            dims,
            rf_at,
            co_at,
            dep_at,
            rmw_at,
            txn_at,
        }
    }
}

fn shape_events(shapes: &[EventShape], thread_of: &[u32]) -> Vec<Event> {
    shapes
        .iter()
        .enumerate()
        .map(|(e, shape)| match *shape {
            EventShape::Read(l, a) => Event::read(thread_of[e], l).with_annot(a),
            EventShape::Write(l, a) => Event::write(thread_of[e], l).with_annot(a),
            EventShape::Fence(k) => Event::fence(thread_of[e], k),
        })
        .collect()
}

/// The builder-based generate-and-test loop behind
/// [`enumerate_exact_reference`].
fn enumerate_relations_reference(
    config: &SynthConfig,
    partition: &[usize],
    shapes: &[EventShape],
    f: &mut impl FnMut(&Execution),
) {
    let choices = relation_choices(config, partition, shapes);
    let events = shape_events(shapes, &choices.thread_of);
    let OdometerLayout {
        dims,
        rf_at,
        co_at,
        dep_at,
        rmw_at,
        txn_at,
    } = choices.odometer();

    for_each_product(&dims, |idx| {
        let mut b = ExecutionBuilder::new();
        for &event in &events {
            b.push(event);
        }
        for (i, &r) in choices.reads.iter().enumerate() {
            if let Some(w) = choices.rf_options[i][idx[rf_at + i]] {
                b.rf(w, r);
            }
        }
        for (i, options) in choices.co_options.iter().enumerate() {
            b.co_order(&options[idx[co_at + i]]);
        }
        for (i, &(r, e)) in choices.dep_pairs.iter().enumerate() {
            if idx[dep_at + i] == 1 {
                if choices.is_write[e] {
                    b.data(r, e);
                } else {
                    b.addr(r, e);
                }
            }
        }
        for (i, &(r, w)) in choices.rmw_pairs.iter().enumerate() {
            if idx[rmw_at + i] == 1 {
                b.rmw(r, w);
            }
        }
        let mut txn_count = 0usize;
        for (t, _) in choices.thread_blocks.iter().enumerate() {
            for interval in &choices.txn_options[t][idx[txn_at + t]] {
                b.txn(interval);
                txn_count += 1;
            }
        }
        if txn_count > config.max_txns {
            return;
        }
        if let Ok(exec) = b.build() {
            f(&exec);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashSet};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;
    use tm_exec::Fence;

    fn tiny_config() -> SynthConfig {
        SynthConfig {
            max_events: 2,
            max_threads: 2,
            max_locs: 2,
            fences: vec![],
            read_annots: vec![Annot::PLAIN],
            write_annots: vec![Annot::PLAIN],
            dependencies: false,
            rmws: false,
            transactions: false,
            max_txns: 0,
        }
    }

    #[test]
    fn compositions_are_non_increasing_and_bounded() {
        let cs = compositions(4, 3);
        assert!(cs.contains(&vec![2, 2]));
        assert!(cs.contains(&vec![2, 1, 1]));
        assert!(!cs.contains(&vec![1, 1, 1, 1])); // four parts > max
        for c in &cs {
            assert_eq!(c.iter().sum::<usize>(), 4);
            assert!(c.windows(2).all(|w| w[0] >= w[1]));
        }
    }

    #[test]
    fn product_iteration_covers_every_tuple() {
        let mut seen = Vec::new();
        for_each_product(&[2, 3], |idx| seen.push(idx.to_vec()));
        assert_eq!(seen.len(), 6);
        assert!(seen.contains(&vec![1, 2]));
        // Empty dimension produces nothing.
        let mut count = 0;
        for_each_product(&[2, 0], |_| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn interval_sets_enumerate_disjoint_contiguous_txns() {
        let sets = interval_sets(&[10, 11, 12]);
        // Must include: none, each singleton, each pair, the triple, and
        // combinations like [10],[12].
        assert!(sets.contains(&vec![]));
        assert!(sets.contains(&vec![vec![10, 11, 12]]));
        assert!(sets.contains(&vec![vec![10], vec![12]]));
        assert!(sets.contains(&vec![vec![10], vec![11], vec![12]]));
        // All intervals are contiguous and disjoint.
        for set in &sets {
            let mut all: Vec<usize> = set.iter().flatten().copied().collect();
            let len_before = all.len();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), len_before);
        }
    }

    #[test]
    fn two_event_enumeration_is_small_and_well_formed() {
        let cfg = tiny_config();
        let count = AtomicUsize::new(0);
        let total = enumerate_exact(&cfg, 2, |exec| {
            assert_eq!(exec.len(), 2);
            assert!(tm_exec::check_well_formed(exec).is_ok());
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), total);
        assert!(total > 0);
        // Rough sanity bound: 2 events, ≤2 locations, R/W only.
        assert!(total < 200, "unexpectedly large: {total}");
    }

    #[test]
    fn transactions_increase_the_space() {
        let without = enumerate_exact(&tiny_config(), 2, |_| {});
        let mut cfg = tiny_config();
        cfg.transactions = true;
        cfg.max_txns = 2;
        let with = enumerate_exact(&cfg, 2, |_| {});
        assert!(with > without);
    }

    #[test]
    fn fences_appear_when_enabled() {
        let mut cfg = tiny_config();
        cfg.fences = vec![Fence::MFence];
        let saw_fence = AtomicBool::new(false);
        enumerate_exact(&cfg, 2, |exec| {
            if !exec.fences().is_empty() {
                saw_fence.store(true, Ordering::Relaxed);
            }
        });
        assert!(saw_fence.load(Ordering::Relaxed));
    }

    #[test]
    fn dependencies_and_rmws_appear_when_enabled() {
        let mut cfg = tiny_config();
        cfg.dependencies = true;
        cfg.rmws = true;
        let saw_dep = AtomicBool::new(false);
        let saw_rmw = AtomicBool::new(false);
        enumerate_exact(&cfg, 2, |exec| {
            if !exec.data.is_empty() || !exec.addr.is_empty() {
                saw_dep.store(true, Ordering::Relaxed);
            }
            if !exec.rmw.is_empty() {
                saw_rmw.store(true, Ordering::Relaxed);
            }
        });
        assert!(saw_dep.load(Ordering::Relaxed));
        assert!(saw_rmw.load(Ordering::Relaxed));
    }

    /// The spaces the engine is pinned to the reference enumerator on.
    fn parity_configs() -> [SynthConfig; 2] {
        let mut txns = tiny_config();
        txns.max_events = 3;
        txns.transactions = true;
        txns.max_txns = 2;
        txns.rmws = true;
        let mut deps = tiny_config();
        deps.max_events = 3;
        deps.fences = vec![Fence::Sync];
        deps.dependencies = true;
        [txns, deps]
    }

    /// The parallel in-place pipeline must visit exactly the multiset of
    /// executions the builder-based reference enumerator visits.
    #[test]
    fn pipeline_matches_reference() {
        for cfg in parity_configs() {
            for n in 2..=cfg.max_events {
                let mut reference: BTreeMap<String, usize> = BTreeMap::new();
                let ref_count = enumerate_exact_reference(&cfg, n, |exec| {
                    *reference.entry(exec.signature()).or_default() += 1;
                });
                let parallel: Mutex<BTreeMap<String, usize>> = Mutex::new(BTreeMap::new());
                let par_count = enumerate_exact(&cfg, n, |exec| {
                    *parallel
                        .lock()
                        .unwrap()
                        .entry(exec.signature())
                        .or_default() += 1;
                });
                assert_eq!(ref_count, par_count, "count mismatch at n={n}");
                assert_eq!(
                    reference,
                    parallel.into_inner().unwrap(),
                    "signature multiset mismatch at n={n}"
                );
            }
        }
    }

    /// The engine's delta-threading sinks must see exactly the multiset of
    /// executions the builder-based reference enumerator visits, and in
    /// reduced mode the representatives' orbits must sum to its count.
    #[test]
    fn incremental_pipeline_matches_exact() {
        for cfg in parity_configs() {
            for n in 2..=cfg.max_events {
                let mut exact: BTreeMap<String, usize> = BTreeMap::new();
                let exact_count = enumerate_exact_reference(&cfg, n, |exec| {
                    *exact.entry(exec.signature()).or_default() += 1;
                });
                let incremental: Mutex<BTreeMap<String, usize>> = Mutex::new(BTreeMap::new());
                let inc_count = enumerate(
                    &cfg,
                    n,
                    Symmetry::Full,
                    || {
                        |exec: &Execution, _delta: &Delta, _orbit: u64| {
                            *incremental
                                .lock()
                                .unwrap()
                                .entry(exec.signature())
                                .or_default() += 1;
                        }
                    },
                    || false,
                )
                .representatives;
                assert_eq!(exact_count, inc_count, "count mismatch at n={n}");
                assert_eq!(
                    exact,
                    incremental.into_inner().unwrap(),
                    "signature multiset mismatch at n={n}"
                );

                let reduced = enumerate(
                    &cfg,
                    n,
                    Symmetry::Reduced,
                    || |_: &Execution, _: &Delta, _: u64| {},
                    || false,
                );
                assert_eq!(
                    reduced.weighted, exact_count as u64,
                    "orbit-weighted count mismatch at n={n}"
                );
            }
        }
    }

    /// The deltas handed to the sink must faithfully describe how the
    /// in-place execution evolved: every family that differs from the
    /// previous candidate is in the mask, and an additions-only delta never
    /// shrinks a relation.
    #[test]
    fn incremental_deltas_describe_the_mutations() {
        let mut cfg = tiny_config();
        cfg.max_events = 3;
        cfg.transactions = true;
        cfg.max_txns = 2;
        cfg.rmws = true;
        cfg.dependencies = true;
        use tm_exec::ir::DeltaMask;
        let checked = AtomicUsize::new(0);
        let make_sink = || {
            let mut prev: Option<Execution> = None;
            let checked = &checked;
            move |exec: &Execution, delta: &Delta, _orbit: u64| {
                assert!(tm_exec::check_well_formed(exec).is_ok());
                if let Some(prev) = prev.as_ref().filter(|_| !delta.is_full()) {
                    let families = [
                        (DeltaMask::RF, &prev.rf, &exec.rf),
                        (DeltaMask::CO, &prev.co, &exec.co),
                        (DeltaMask::ADDR, &prev.addr, &exec.addr),
                        (DeltaMask::DATA, &prev.data, &exec.data),
                        (DeltaMask::RMW, &prev.rmw, &exec.rmw),
                        (DeltaMask::STXN, &prev.stxn, &exec.stxn),
                    ];
                    for (mask, before, after) in families {
                        if before != after {
                            assert!(
                                delta.mask().intersects(mask),
                                "changed family missing from the delta mask"
                            );
                        }
                        if delta.is_additions_only() {
                            assert!(
                                before.is_subset_of(after),
                                "additions-only delta shrank a relation"
                            );
                        }
                    }
                    assert_eq!(prev.po, exec.po, "po is fixed within a shape");
                }
                prev = Some(exec.clone());
                checked.fetch_add(1, Ordering::Relaxed);
            }
        };
        enumerate(&cfg, 3, Symmetry::Full, make_sink, || false);
        assert!(checked.load(Ordering::Relaxed) > 100);
    }

    /// The worker pool must produce the same result no matter how many
    /// threads service the unit queue.
    #[test]
    fn counts_are_thread_count_independent() {
        let mut cfg = tiny_config();
        cfg.max_events = 3;
        cfg.transactions = true;
        cfg.max_txns = 1;
        for symmetry in [Symmetry::Full, Symmetry::Reduced] {
            let count = |threads| {
                enumerate_with_threads(
                    &cfg,
                    3,
                    symmetry,
                    threads,
                    || |_: &Execution, _: &Delta, _: u64| {},
                    &|| false,
                )
            };
            let single = count(1);
            let multi = count(4);
            assert_eq!(single, multi);
        }
    }

    /// The cooperative stop hook must actually cut the sweep short rather
    /// than letting workers enumerate the whole space.
    #[test]
    fn should_stop_halts_the_sweep_early() {
        let mut cfg = tiny_config();
        cfg.max_events = 3;
        cfg.transactions = true;
        cfg.max_txns = 2;
        let counting = |symmetry, seen: &AtomicUsize, stop_at: usize| {
            enumerate(
                &cfg,
                3,
                symmetry,
                || {
                    move |_: &Execution, _: &Delta, _: u64| {
                        seen.fetch_add(1, Ordering::Relaxed);
                    }
                },
                || seen.load(Ordering::Relaxed) >= stop_at,
            )
            .representatives
        };
        let full = enumerate_exact(&cfg, 3, |_| {});

        let visited = counting(Symmetry::Full, &AtomicUsize::new(0), 10);
        assert!(visited < full, "stop hook did not halt ({visited}/{full})");

        let reduced_full = counting(Symmetry::Reduced, &AtomicUsize::new(0), usize::MAX);
        let visited = counting(Symmetry::Reduced, &AtomicUsize::new(0), 10);
        assert!(visited < reduced_full, "reduced stop hook did not halt");

        // A never-firing hook visits everything.
        assert_eq!(
            counting(Symmetry::Full, &AtomicUsize::new(0), usize::MAX),
            full
        );
    }

    /// Splitting a unit must partition its candidate multiset exactly: the
    /// union of the children's expansions equals the parent's, ids stay
    /// unique, and re-splitting to full depth bottoms out.
    #[test]
    fn split_children_cover_the_parent_exactly() {
        let mut cfg = tiny_config();
        cfg.max_events = 3;
        cfg.transactions = true;
        cfg.max_txns = 2;
        cfg.fences = vec![Fence::Sync];
        let n = 3;
        for symmetry in [Symmetry::Full, Symmetry::Reduced] {
            for unit in produce_units(&cfg, n, symmetry) {
                assert!(unit.splittable(n), "test depth leaves one digit");
                let children = unit.split(&cfg, n, symmetry);
                assert!(!children.is_empty());
                let mut ids: HashSet<u64> = children.iter().map(|c| c.stable_id(&cfg, n)).collect();
                assert_eq!(ids.len(), children.len(), "child id collision");
                assert!(
                    ids.insert(unit.stable_id(&cfg, n)),
                    "child id equals the parent's"
                );
                // Grandchildren of a full-depth child: none.
                assert!(children[0].split(&cfg, n, symmetry).is_empty());

                let mut parent: BTreeMap<String, usize> = BTreeMap::new();
                let parent_tally = enumerate_unit(
                    &cfg,
                    &unit,
                    n,
                    symmetry,
                    &mut |e: &Execution, _: &Delta, _| {
                        *parent.entry(e.signature()).or_default() += 1;
                    },
                    || false,
                );
                let mut union: BTreeMap<String, usize> = BTreeMap::new();
                let mut child_tally = ReducedCount::default();
                for child in &children {
                    child_tally.add(enumerate_unit(
                        &cfg,
                        child,
                        n,
                        symmetry,
                        &mut |e: &Execution, _: &Delta, _| {
                            *union.entry(e.signature()).or_default() += 1;
                        },
                        || false,
                    ));
                }
                assert_eq!(parent, union, "children must cover the parent exactly");
                if symmetry.is_reduced() {
                    assert_eq!(parent_tally.representatives, child_tally.representatives);
                    assert_eq!(
                        parent_tally.weighted, child_tally.weighted,
                        "orbit-weighted counts must survive splitting"
                    );
                }
            }
        }
    }

    /// The weight estimate bounds the full-mode visit count from above and
    /// is conserved by splitting (children sum to the parent).
    #[test]
    fn weight_bounds_visits_and_splits_conserve_it() {
        let mut cfg = tiny_config();
        cfg.max_events = 3;
        cfg.transactions = true;
        cfg.max_txns = 2;
        cfg.rmws = true;
        cfg.dependencies = true;
        let n = 3;
        let mut total_weight = 0u64;
        let mut total_visited = 0usize;
        for unit in produce_units(&cfg, n, Symmetry::Full) {
            let weight = unit.weight(&cfg, n);
            let visited = enumerate_unit(
                &cfg,
                &unit,
                n,
                Symmetry::Full,
                &mut |_: &Execution, _: &Delta, _| {},
                || false,
            )
            .representatives;
            assert!(
                weight >= visited as u64,
                "weight {weight} under-estimates {visited} for {}",
                unit.label()
            );
            let child_sum: u64 = unit
                .split(&cfg, n, Symmetry::Full)
                .iter()
                .map(|c| c.weight(&cfg, n))
                .sum();
            assert_eq!(child_sum, weight, "splitting must conserve weight");
            total_weight += weight;
            total_visited += visited;
        }
        // The bound is not vacuous: with max_txns=2 it stays within the
        // unconstrained odometer product.
        assert!(total_weight >= total_visited as u64);
        assert!(total_visited > 0);
    }
}
