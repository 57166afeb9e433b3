//! The benchmark command.
//!
//! ```text
//! cargo run --release --offline --manifest-path tmbench/Cargo.toml -- \
//!     --workload sweep-3t-sym --seed 1 --seconds 45 --trace 0
//! ```
//!
//! Every measured run is a fresh child process of this binary, so set-up
//! is paid the way a user's process pays it and peak memory is per run.
//! With `--trace 0` the parent process runs set-up probes and then whole
//! workload runs until `--seconds` is spent, and reports the end-to-end
//! metrics as medians. With `--trace 1` it runs the workload once untraced and once as
//! the traced rebuild, checks that both give the same pinned answers, and
//! reports the per-layer metrics. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. The exit
//! code is 0 when every answer matched and nothing failed, 1 when not, and
//! 2 on a usage error.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use tmbench::trace::Tracer;
use tmbench::{
    gate, known_answers, parity, peak_rss_mb, repo_root, Ctx, Run, Scale, LAYER_METRICS, WORKERS,
    WORKLOADS,
};

/// Set-up probes per untraced run, on top of the set-up each workload run
/// measures.
const SETUP_PROBES: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in child processes: `run`, `traced` or `setup`.
    child: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        child: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| "--seed expects a number")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "--seconds expects a number")?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".to_string()),
                }
            }
            "--child" => args.child = Some(value.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload expects one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Scratch space inside the build directory that holds this binary.
fn scratch_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("tmbench-scratch")))
        .unwrap_or_else(|| repo_root().join("tmbench/target/tmbench-scratch"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tmbench: {e}");
            eprintln!(
                "usage: tmbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        scratch: scratch_dir(),
        seed: args.seed,
        scale: Scale::Full,
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.scratch) {
        eprintln!("tmbench: cannot create {}: {e}", ctx.scratch.display());
        return ExitCode::from(1);
    }
    match args.child.as_deref() {
        Some(mode) => child(mode, &args, &ctx),
        None if args.trace => traced(&args),
        None => untraced(&args),
    }
}

// ---------------------------------------------------------------------
// Child processes: one workload run each, reported as plain lines.
// ---------------------------------------------------------------------

fn child(mode: &str, args: &Args, ctx: &Ctx) -> ExitCode {
    let result = match mode {
        "setup" => tmbench::setup(&args.workload, ctx).map(|s| {
            println!("num setup_s {s}");
        }),
        "run" => tmbench::run(&args.workload, ctx).map(|run| report(&run)),
        "traced" => {
            let tracer = Tracer::new(args.seed);
            tmbench::run_traced(&args.workload, ctx, &tracer).map(|run| {
                let path = ctx
                    .scratch
                    .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
                match tracer.write_jsonl(&path) {
                    Ok(()) => println!("spans {}", path.display()),
                    Err(e) => eprintln!("tmbench: cannot write {}: {e}", path.display()),
                }
                report(&run)
            })
        }
        other => Err(format!("unknown child mode {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tmbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn report(run: &Run) {
    println!("num setup_s {}", run.setup_s);
    println!("num wall_s {}", run.wall_s);
    println!("num execs {}", run.execs);
    println!("num attempted {}", run.attempted);
    println!("num failed {}", run.failed);
    println!("num peak_rss_mb {}", peak_rss_mb());
    for (key, value) in &run.answers {
        println!("answer {key} {value}");
    }
    for (key, value) in &run.layers {
        println!("layer {key} {value}");
    }
}

/// What the parent reads back from one child.
#[derive(Default)]
struct ChildOut {
    nums: BTreeMap<String, f64>,
    answers: BTreeMap<String, String>,
    layers: BTreeMap<String, f64>,
}

impl ChildOut {
    fn num(&self, key: &str) -> f64 {
        self.nums.get(key).copied().unwrap_or(0.0)
    }
}

fn spawn(mode: &str, args: &Args) -> Result<ChildOut, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--child", mode, "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .env("TM_SYNTH_THREADS", WORKERS.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child: {e}"))?;
    if !output.status.success() {
        return Err(format!("{mode} child failed: {}", output.status));
    }
    let mut out = ChildOut::default();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let mut parts = line.splitn(3, ' ');
        match (parts.next(), parts.next(), parts.next()) {
            (Some("num"), Some(k), Some(v)) => {
                out.nums
                    .insert(k.to_string(), v.parse().unwrap_or(f64::NAN));
            }
            (Some("answer"), Some(k), Some(v)) => {
                out.answers.insert(k.to_string(), v.to_string());
            }
            (Some("layer"), Some(k), Some(v)) => {
                out.layers
                    .insert(k.to_string(), v.parse().unwrap_or(f64::NAN));
            }
            _ => println!("{line}"),
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// The parent: runs, statistics, the result line.
// ---------------------------------------------------------------------

/// Quartiles and median of `values`, as `(q1, median, q3)`.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        if v.is_empty() {
            return f64::NAN;
        }
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// A metric for the result line: name, unit and its samples.
struct Metric {
    name: &'static str,
    unit: &'static str,
    samples: Vec<f64>,
}

impl Metric {
    fn value(&self) -> f64 {
        quartiles(&self.samples).1
    }
}

/// The run record stamped on every result.
fn run_record(args: &Args, metrics: &[Metric]) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "?".to_string())
    };
    let uname = format!(
        "{} {} {}",
        read("/proc/sys/kernel/ostype"),
        read("/proc/sys/kernel/osrelease"),
        std::env::consts::ARCH
    );
    // Only the repository's own git metadata names the commit; a checkout
    // without it must not pick up an enclosing repository's.
    let commit = Some(repo_root())
        .filter(|root| root.join(".git").exists())
        .and_then(|root| {
            Command::new("git")
                .args(["rev-parse", "HEAD"])
                .current_dir(root)
                .stderr(Stdio::null())
                .output()
                .ok()
        })
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let samples: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\":{}", m.name, m.samples.len()))
        .collect();
    format!(
        "{{\"machine\":{{\"nproc\":{cores},\"uname\":\"{uname}\"}},\"commit\":\"{commit}\",\
         \"source_digest\":\"{:016x}\",\"workload\":\"{}\",\"seed\":{},\
         \"workers\":{WORKERS},\"trace\":{},\"samples\":{{{}}}}}",
        source_digest(),
        args.workload,
        args.seed,
        u8::from(args.trace),
        samples.join(",")
    )
}

/// FNV-1a over the program's sources, so a result names the code it
/// measured even where no git metadata exists.
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml" | "cat")
            ) {
                out.push(path);
            }
        }
    }
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["crates", "models", "tmbench/src"] {
        walk(&root.join(dir), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut hash = tmbench::FNV_OFFSET;
    for file in files {
        if let Ok(bytes) = std::fs::read(&file) {
            let rel = file.strip_prefix(root).unwrap_or(&file);
            hash = tmbench::fnv1a(hash, rel.to_string_lossy().as_bytes());
            hash = tmbench::fnv1a(hash, &bytes);
        }
    }
    hash
}

/// Prints the human-readable summary, the run record and the result line.
fn finish(
    args: &Args,
    metrics: &[Metric],
    attempted: u64,
    failed: u64,
    problems: &[String],
) -> ExitCode {
    for p in problems {
        println!("FAILED {p}");
    }
    for m in metrics {
        let (q1, med, q3) = quartiles(&m.samples);
        println!(
            "{:<28} {:>14.6} {:<6} (median of {}; quartiles {:.6} .. {:.6})",
            m.name,
            med,
            m.unit,
            m.samples.len(),
            q1,
            q3
        );
    }
    let frac = if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    };
    println!("failed_frac {frac} ({failed} of {attempted} operations)");
    println!("record {}", run_record(args, metrics));
    let correct = failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value()),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `--trace 0`: set-up probes, then whole runs until the time is spent.
fn untraced(args: &Args) -> ExitCode {
    let start = Instant::now();
    let mut problems = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut setup = Vec::new();
    for _ in 0..SETUP_PROBES {
        match spawn("setup", args) {
            Ok(out) => setup.push(out.num("setup_s")),
            Err(e) => problems.push(e),
        }
    }
    let (mut wall, mut rate, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut run_times: Vec<f64> = Vec::new();
    let pinned = known_answers(&args.workload, Scale::Full).len() as u64;
    loop {
        let began = Instant::now();
        match spawn("run", args) {
            Ok(out) => {
                let w = out.num("wall_s");
                wall.push(w);
                rate.push(out.num("execs") / w);
                setup.push(out.num("setup_s"));
                rss.push(out.num("peak_rss_mb"));
                let mismatches = gate(&args.workload, Scale::Full, &out.answers, false);
                attempted += out.num("attempted") as u64 + pinned;
                failed += out.num("failed") as u64 + mismatches.len() as u64;
                problems.extend(mismatches);
            }
            Err(e) => {
                attempted += 1;
                failed += 1;
                problems.push(e);
                break;
            }
        }
        run_times.push(began.elapsed().as_secs_f64());
        // Start another run only if it should end within the time.
        let typical = quartiles(&run_times).1;
        if start.elapsed().as_secs_f64() + typical > args.seconds {
            break;
        }
    }
    let metrics = [
        Metric {
            name: "wall_s",
            unit: "s",
            samples: wall,
        },
        Metric {
            name: "execs_per_s",
            unit: "1/s",
            samples: rate,
        },
        Metric {
            name: "setup_s",
            unit: "s",
            samples: setup,
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MiB",
            samples: rss,
        },
    ];
    finish(args, &metrics, attempted, failed, &problems)
}

/// `--trace 1`: one untraced run and one traced rebuild, each a fresh
/// process; the per-layer metrics and the tracing overhead.
fn traced(args: &Args) -> ExitCode {
    let mut problems = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let pinned = known_answers(&args.workload, Scale::Full).len() as u64;
    let mut outs = Vec::new();
    for (mode, is_traced) in [("run", false), ("traced", true)] {
        match spawn(mode, args) {
            Ok(out) => {
                let mismatches = gate(&args.workload, Scale::Full, &out.answers, is_traced);
                attempted += out.num("attempted") as u64 + pinned;
                failed += out.num("failed") as u64 + mismatches.len() as u64;
                problems.extend(mismatches);
                outs.push(out);
            }
            Err(e) => {
                attempted += 1;
                failed += 1;
                problems.push(e);
            }
        }
    }
    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    if let [untraced, traced] = &outs[..] {
        let mismatches = parity(&args.workload, &untraced.answers, &traced.answers);
        attempted += traced.answers.len() as u64;
        failed += mismatches.len() as u64;
        problems.extend(mismatches);
        layers.extend(untraced.layers.clone());
        layers.extend(traced.layers.clone());
        let (u, t) = (untraced.num("wall_s"), traced.num("wall_s"));
        layers.insert("trace_overhead_frac".to_string(), (t - u) / u);
        println!("untraced wall {u:.3} s, traced wall {t:.3} s");
    }
    let metrics: Vec<Metric> = LAYER_METRICS
        .iter()
        .map(|&(name, unit, _)| Metric {
            name,
            unit,
            samples: vec![layers.get(name).copied().unwrap_or(0.0)],
        })
        .collect();
    finish(args, &metrics, attempted, failed, &problems)
}
