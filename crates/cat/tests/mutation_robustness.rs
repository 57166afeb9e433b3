//! Robustness of the `.cat` front end against damaged input: mutated model
//! text must come back as a `CatError` (or load), never as a panic.
//!
//! Every shipped `models/*.cat` file is mutated a few hundred times by
//! byte-level deletes, inserts and replaces (inserted text is drawn from an
//! alphabet of `.cat` tokens, so mutants reach the parser and elaborator
//! instead of dying in the lexer), and each mutant goes through both
//! [`tm_cat::load_str`] and [`tm_cat::lint_str`] under `catch_unwind`. The
//! generator is a seeded SplitMix64, so a failure names a reproducible
//! mutant.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Mutants per model file.
const MUTANTS_PER_FILE: usize = 300;

/// Keywords, and identifiers the shipped models use; spliced in with a
/// trailing space.
const WORDS: &str =
    "let rec and as include acyclic irreflexive empty po rf co fr loc stxn id R W F x";

/// Punctuation, comment and string delimiters, whitespace, and one
/// non-ASCII character.
const SYMBOLS: &[&str] = &[
    "=", "|", "&", ";", "\\", "+", "*", "?", "~", "(", ")", "[", "]", ",", "(*", "*)", "\"", " ",
    "\n", "_", "0", "-1", "^", "→",
];

/// Text an insert or replace may splice in: every `.cat` token kind.
fn alphabet() -> Vec<String> {
    let words = WORDS.split(' ').map(|w| format!("{w} "));
    words.chain(SYMBOLS.iter().map(|s| s.to_string())).collect()
}

/// SplitMix64: a tiny std-only seeded generator.
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
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Applies one to three random edits to `original`'s bytes. Edits may split
/// a multi-byte character; the mutant is read back lossily, so the front
/// end also sees replacement characters.
fn mutate(original: &[u8], alphabet: &[String], rng: &mut Rng) -> String {
    let mut bytes = original.to_vec();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(bytes.len() + 1);
        let token = alphabet[rng.below(alphabet.len())].as_bytes();
        match rng.below(3) {
            0 if at < bytes.len() => {
                let len = 1 + rng.below(8).min(bytes.len() - at - 1);
                bytes.drain(at..at + len);
            }
            1 if at < bytes.len() => {
                bytes.splice(at..at + 1, token.iter().copied());
            }
            _ => {
                bytes.splice(at..at, token.iter().copied());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn model_files() -> Vec<PathBuf> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../models"));
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("models directory is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "cat"))
        .collect();
    files.sort();
    files
}

#[test]
fn mutated_models_never_panic_the_front_end() {
    let files = model_files();
    let alphabet = alphabet();
    assert!(
        files.len() >= 10,
        "expected the shipped models, got {files:?}"
    );
    // Mutants are expected to fail; keep their panics (if any) off stderr
    // until the summary below.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut panics = Vec::new();
    let mut rejected = 0usize;
    for (f, path) in files.iter().enumerate() {
        let original = std::fs::read(path).expect("model file is readable");
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let mut rng = Rng(0x5eed_0000 + f as u64);
        for k in 0..MUTANTS_PER_FILE {
            let mutant = mutate(&original, &alphabet, &mut rng);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let loaded = tm_cat::load_str(&name, &mutant).is_ok();
                let linted = tm_cat::lint_str(&name, &mutant).is_ok();
                loaded && linted
            }));
            match outcome {
                Ok(true) => {}
                Ok(false) => rejected += 1,
                Err(_) => panics.push(format!("{} mutant #{k}", path.display())),
            }
        }
    }
    std::panic::set_hook(hook);
    assert!(
        panics.is_empty(),
        "{} mutant(s) panicked the front end: {panics:#?}",
        panics.len()
    );
    // A good share of the mutants must be rejected, or the test would only
    // exercise the happy path.
    assert!(
        rejected > files.len() * MUTANTS_PER_FILE / 4,
        "only {rejected} mutants were rejected"
    );
}
