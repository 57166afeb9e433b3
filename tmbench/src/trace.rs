//! In-memory spans and busy-time accumulators for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around the calls it
//! makes into each layer's public functions; nothing inside the program is
//! instrumented. They stay in memory and are written out once, when the run
//! ends. Calls too frequent for a span each (one per candidate execution)
//! are summed into per-worker [`Busy`] accumulators instead and attached to
//! the enclosing span as its `busy_ns`, so the enclosing span's self time
//! is its length minus its child spans and that busy time.

use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, such as `synth.enumerate.unit`.
    pub name: String,
    /// Start of the span.
    pub start_ns: u64,
    /// End of the span (0 while open).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Time spent in frequent child calls summed into this span rather
    /// than recorded one span each.
    pub busy_ns: u64,
}

/// The span store of one traced run.
pub struct Tracer {
    epoch: Instant,
    run_id: u64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose spans all carry `run_id`.
    pub fn new(run_id: u64) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            run_id,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: 0,
            parent,
            busy_ns: 0,
        });
        spans.len() - 1
    }

    /// Closes span `id`, attaching `busy` of summed child-call time.
    pub fn close(&self, id: usize, busy: Duration) {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span store poisoned");
        let span = &mut spans[id];
        span.end_ns = end_ns;
        span.busy_ns += busy.as_nanos() as u64;
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Sum of the self times of spans named `name`, in seconds: each span's
    /// length minus its child spans and its attached busy time.
    pub fn self_s(&self, name: &str) -> f64 {
        let spans = self.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                s.end_ns
                    .saturating_sub(s.start_ns)
                    .saturating_sub(child_ns[i] + s.busy_ns)
            })
            .sum::<u64>() as f64
            / 1e9
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"busy_ns\":{}}}",
                self.run_id, s.name, s.start_ns, s.end_ns, s.busy_ns
            )?;
        }
        out.flush()
    }
}

/// A per-worker accumulator of time spent in one kind of call, plus the
/// number of calls timed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Busy {
    /// Summed time.
    pub time: Duration,
    /// Calls timed.
    pub calls: u64,
}

impl Busy {
    /// Times `f`, adding its duration to the accumulator.
    #[inline]
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.time += start.elapsed();
        self.calls += 1;
        out
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: Busy) {
        self.time += other.time;
        self.calls += other.calls;
    }

    /// The summed time in seconds.
    pub fn secs(&self) -> f64 {
        self.time.as_secs_f64()
    }
}
