//! The mutation ledger, re-run: each entry of `mutants.txt` is a planted
//! defect that a named test must catch. The source tree (without
//! `target/` and `.git/`; with `results/`, which the claims test compares
//! its runs against) is copied to a scratch directory once; every entry's test must pass there unmutated. Then, entry by
//! entry, the defect is planted, `cargo test --offline -q <test>` runs and
//! the file is restored. Each entry prints
//!
//! * `killed` — the test failed, as it must;
//! * `survived` — the test passed with the defect planted;
//! * `no-longer-applies` — the snippet is not in the file exactly once,
//!   or the planted tree does not build;
//!
//! and the exit status is non-zero unless every entry was killed. All runs
//! share one `CARGO_TARGET_DIR` (default `target/mutants`), so each entry
//! rebuilds only the crate it plants into and its dependents.
//!
//! Usage, from the repo root: `cargo run --release -p mobicast-bench --
//! mutants [LEDGER]` (`LEDGER` defaults to `mutants.txt`).

use std::collections::{BTreeMap, BTreeSet};
use std::ffi::OsString;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Not copied: build output, benchmark run output and history.
const SKIP: [&str; 5] = [
    "target",
    ".git",
    ".bench_build",
    "benchmark/target",
    "benchmark/out",
];

/// One ledger entry: the defect is `old` → `new` in `file`, and `test`
/// (arguments to `cargo test --offline -q`) must fail on it.
struct Mutant {
    file: String,
    old: String,
    new: String,
    test: String,
    pr: String,
}

/// Entries are `key: value` lines, separated by blank lines; `#` starts a
/// comment line.
fn parse(ledger: &str) -> Result<Vec<Mutant>, String> {
    let mut mutants = Vec::new();
    for block in ledger.split("\n\n") {
        let mut fields = BTreeMap::new();
        for line in block
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        {
            let (key, value) = line
                .split_once(':')
                .ok_or_else(|| format!("not `key: value`: {line}"))?;
            fields.insert(key, value.strip_prefix(' ').unwrap_or(value).to_string());
        }
        if fields.is_empty() {
            continue;
        }
        let mut take = |key| {
            fields
                .remove(key)
                .ok_or_else(|| format!("an entry has no `{key}`"))
        };
        mutants.push(Mutant {
            file: take("file")?,
            old: take("old")?,
            new: take("new")?,
            test: take("test")?,
            pr: take("pr")?,
        });
    }
    Ok(mutants)
}

fn copy_tree(root: &Path, from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let src = entry?.path();
        let rel = src.strip_prefix(root).unwrap_or(&src);
        if SKIP.iter().any(|s| rel == Path::new(s)) {
            continue;
        }
        let dst = to.join(src.file_name().unwrap_or_default());
        if src.is_dir() {
            copy_tree(root, &src, &dst)?;
        } else {
            fs::copy(&src, &dst)?;
        }
    }
    Ok(())
}

/// `cargo test --offline -q [extra] <test>` in `tree`: did it succeed?
fn cargo_test(tree: &Path, target: &Path, extra: &[&str], test: &str) -> bool {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| OsString::from("cargo"));
    Command::new(cargo)
        .args(["test", "--offline", "-q"])
        .args(extra)
        .args(test.split_whitespace())
        .current_dir(tree)
        .env("CARGO_TARGET_DIR", target)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// Plant `m` in `tree`, run its test, restore the file.
fn verdict(tree: &Path, target: &Path, m: &Mutant) -> io::Result<&'static str> {
    let path = tree.join(&m.file);
    let original = fs::read_to_string(&path)?;
    if original.matches(m.old.as_str()).count() != 1 {
        return Ok("no-longer-applies");
    }
    fs::write(&path, original.replacen(m.old.as_str(), &m.new, 1))?;
    let verdict = if !cargo_test(tree, target, &["--no-run"], &m.test) {
        "no-longer-applies"
    } else if cargo_test(tree, target, &[], &m.test) {
        "survived"
    } else {
        "killed"
    };
    fs::write(&path, original)?;
    Ok(verdict)
}

pub fn main(ledger: String) -> ExitCode {
    let root = std::env::current_dir().expect("a working directory");
    let mutants = match fs::read_to_string(&ledger)
        .map_err(|e| e.to_string())
        .and_then(|l| parse(&l))
    {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{ledger}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("target/mutants"));
    let tree = std::env::temp_dir().join(format!("mobicast-mutants-{}", std::process::id()));
    copy_tree(&root, &root, &tree).expect("copy the source tree");

    let mut failed = false;
    let tests: BTreeSet<&str> = mutants.iter().map(|m| m.test.as_str()).collect();
    for test in tests {
        if !cargo_test(&tree, &target, &[], test) {
            eprintln!("`cargo test {test}` fails without a mutant");
            failed = true;
        }
    }
    if !failed {
        for m in &mutants {
            let verdict = verdict(&tree, &target, m).expect("plant and restore a mutant");
            println!(
                "{verdict:<18} {} (PR {}): {} -> {}",
                m.file, m.pr, m.old, m.new
            );
            failed |= verdict != "killed";
        }
    }
    let _ = fs::remove_dir_all(&tree);
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
