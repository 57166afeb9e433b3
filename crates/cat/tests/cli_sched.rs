//! End-to-end tests of scheduling and supervision through the real `tm-cat`
//! binary: a SIGKILLed static shard must be restarted from its checkpoint
//! by `--supervise`, and the final suites must be byte-identical to an
//! unsharded run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use tm_sweep::journal::{self, Record};

const BIN: &str = env!("CARGO_BIN_EXE_tm-cat");

/// Repo-root model files, relative to this crate's directory (the test
/// CWD).
const TM_MODEL: &str = "../../models/x86_tm.cat";
const BASE_MODEL: &str = "../../models/x86.cat";

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let mut p = std::env::temp_dir();
        p.push(format!("tm-cat-cli-sched-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        Scratch(p)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn sweep_command(extra: &[&str]) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.args([
        "sweep",
        TM_MODEL,
        "--suites",
        "--baseline",
        BASE_MODEL,
        "--events",
        "3",
        "--config",
        "x86",
    ])
    .args(extra)
    .env_remove("TM_SWEEP_FAIL_PLAN");
    cmd
}

fn sweep(extra: &[&str]) -> Output {
    sweep_command(extra).output().expect("spawn tm-cat")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The suite summary plus every litmus program after it — the part of the
/// output that must be identical between scheduled and unscheduled runs.
/// The trailing `summary:` line is dropped: it carries run-specific timings
/// and unit counts by design.
fn suites_section(out: &Output) -> String {
    let text = stdout(out);
    let section = match text.find("\nforbid ") {
        Some(at) => &text[at..],
        None => panic!("no forbid line in output:\n{text}"),
    };
    let mut kept = String::new();
    for line in section.lines() {
        if line.starts_with("summary: ") {
            continue;
        }
        kept.push_str(line);
        kept.push('\n');
    }
    kept
}

/// The records of a checkpoint's journal (none before it exists).
fn journal_records(checkpoint: &Path) -> Vec<Record> {
    let path = checkpoint.join(journal::JOURNAL_FILE);
    let loaded = journal::load(&path).expect("journal loads");
    loaded.map(|j| j.records).unwrap_or_default()
}

fn banked_units(checkpoint: &Path) -> usize {
    let records = journal_records(checkpoint);
    records
        .iter()
        .filter(|r| matches!(r, Record::UnitDone { .. }))
        .count()
}

/// The headline crash-tolerance story, end to end: a static shard is
/// SIGKILLed mid-unit (a stall fail-plan pins it inside its second unit so
/// the kill cannot land between units). A supervised run over the same
/// checkpoint restarts that shard from its journal — the unit banked before
/// the kill is reused — and the merged suites are byte-identical to a
/// clean run.
#[test]
fn sigkilled_static_shard_restarts_from_its_checkpoint() {
    let clean = sweep(&[]);
    assert_eq!(clean.status.code(), Some(0));
    let clean_suites = suites_section(&clean);

    let dir = Scratch::new("sigkill");
    let ckpt = dir.path();
    let shard0 = ckpt.join("shard-0");

    // Launch shard 0 the way the supervisor would, but with a stall plan:
    // after one completed unit it stops making progress inside the next.
    let shard0_arg = shard0.to_str().expect("utf8 temp path");
    let mut child = sweep_command(&["--checkpoint", shard0_arg, "--resume", "--shard", "0/2"])
        .args(["--fail-plan", "stall:2"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn shard 0");

    // Wait until its journal holds a completed unit, then SIGKILL it.
    let deadline = Instant::now() + Duration::from_secs(60);
    while banked_units(&shard0) == 0 {
        assert!(
            Instant::now() < deadline,
            "shard 0 never banked a unit; did it crash on startup?"
        );
        assert!(
            child.try_wait().expect("try_wait").is_none(),
            "shard 0 exited before it could be killed"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    child.kill().expect("SIGKILL shard 0");
    let _ = child.wait();
    let banked = banked_units(&shard0);

    let out = sweep(&[
        "--checkpoint",
        ckpt.to_str().expect("utf8 temp path"),
        "--supervise",
        "2",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        suites_section(&out),
        clean_suites,
        "suites after a kill and restart must be byte-identical to a clean run"
    );
    assert!(
        banked_units(&shard0) > banked,
        "the restarted shard must continue its own journal"
    );
    let claims = ["shard-0", "shard-1"]
        .into_iter()
        .flat_map(|shard| journal_records(&ckpt.join(shard)))
        .filter(|r| matches!(r, Record::Claim { .. }))
        .count();
    assert_eq!(claims, 0, "supervised journals must hold no claim records");
}

/// `--sched off` under supervision runs whole units in FIFO order inside
/// each static shard, and the result still matches a clean run.
#[test]
fn sched_off_supervision_stays_static_and_correct() {
    let clean = sweep(&[]);
    let clean_suites = suites_section(&clean);

    let dir = Scratch::new("static");
    let ckpt = dir.path();
    let out = sweep(&[
        "--checkpoint",
        ckpt.to_str().expect("utf8 temp path"),
        "--supervise",
        "2",
        "--sched",
        "off",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(suites_section(&out), clean_suites);
}

#[test]
fn scheduling_flag_misuse_exits_two() {
    let dir = Scratch::new("usage");
    let ckpt = dir.path().to_str().expect("utf8 temp path");

    // Scheduling knobs hang off the checkpointed runner.
    let out = sweep(&["--max-unit-weight", "100"]);
    assert_eq!(out.status.code(), Some(2));

    // --sched parses strictly.
    let out = sweep(&["--checkpoint", ckpt, "--sched", "sometimes"]);
    assert_eq!(out.status.code(), Some(2));

    // A zero weight bound would split forever.
    let out = sweep(&["--checkpoint", ckpt, "--max-unit-weight", "0"]);
    assert_eq!(out.status.code(), Some(2));
}
