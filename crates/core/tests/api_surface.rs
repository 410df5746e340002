//! Public-API snapshot: the `pub` surface of `mobicast-core` and of the
//! crates below it that outside code compiles against (`sim`, `mld`,
//! `pimdm`, `mipv6` — everything the frozen `benchmark/` package imports
//! lives there) is rendered to a stable text form and diffed against the
//! committed `tests/api-surface*.txt`, one file per crate. An unreviewed
//! API change — a renamed method, a removed re-export, a struct field
//! changing type — fails the tier-1 `cargo test` with a line diff instead
//! of silently breaking downstream callers.
//!
//! Intentional changes are recorded with
//! `MOBICAST_UPDATE_API_SURFACE=1 cargo test -p mobicast-core --test api_surface`.

use std::fs;
use std::path::{Path, PathBuf};

/// `(crate, its `src/` relative to this crate, its snapshot file)`.
const CRATES: [(&str, &str, &str); 5] = [
    ("mobicast-core", "src", "tests/api-surface.txt"),
    ("mobicast-sim", "../sim/src", "tests/api-surface-sim.txt"),
    ("mobicast-mld", "../mld/src", "tests/api-surface-mld.txt"),
    (
        "mobicast-pimdm",
        "../pimdm/src",
        "tests/api-surface-pimdm.txt",
    ),
    (
        "mobicast-mipv6",
        "../mipv6/src",
        "tests/api-surface-mipv6.txt",
    ),
];

/// All `.rs` files under `dir`, depth-first, sorted for determinism.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            rust_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Extract the public declaration lines of one source file. Lines inside
/// a column-0 `#[cfg(test)] mod … { … }` block are not API and are
/// skipped (the repo's test modules all follow that rustfmt shape).
fn surface_of(src: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut pending_cfg_test = false;
    let mut in_test_mod = false;
    for line in src.lines() {
        if in_test_mod {
            if line == "}" {
                in_test_mod = false;
            }
            continue;
        }
        let trimmed = line.trim_start();
        if trimmed == "#[cfg(test)]" && !line.starts_with(char::is_whitespace) {
            pending_cfg_test = true;
            continue;
        }
        if pending_cfg_test {
            // `mod x;` declares a test file; `mod x {` opens a block.
            if trimmed.starts_with("mod ") && !trimmed.ends_with(';') {
                in_test_mod = true;
            }
            if !trimmed.starts_with("#[") {
                pending_cfg_test = false;
            }
            continue;
        }
        // `pub ` only: `pub(crate)`/`pub(super)` items are not public API.
        if trimmed.starts_with("pub ") {
            out.push(trimmed.trim_end().to_string());
        }
    }
    out
}

fn render(krate: &str, src: &str) -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(src);
    let mut files = Vec::new();
    rust_files(&root, &mut files);
    let mut rendered = format!(
        "# Public API surface of {krate} (one line per `pub` declaration).\n\
         # Regenerate: MOBICAST_UPDATE_API_SURFACE=1 cargo test -p mobicast-core --test api_surface\n",
    );
    for f in &files {
        let rel = f.strip_prefix(root.parent().unwrap()).unwrap();
        let src = fs::read_to_string(f).expect("source file");
        let items = surface_of(&src);
        if items.is_empty() {
            continue;
        }
        rendered.push_str(&format!("\n== {} ==\n", rel.display()));
        for item in items {
            rendered.push_str(&item);
            rendered.push('\n');
        }
    }
    rendered
}

#[test]
fn public_api_surface_matches_snapshot() {
    let update = std::env::var_os("MOBICAST_UPDATE_API_SURFACE").is_some();
    let mut diff = Vec::new();
    for (krate, src, snapshot) in CRATES {
        let current = render(krate, src);
        let snap_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(snapshot);
        if update {
            fs::write(&snap_path, &current).expect("write snapshot");
            eprintln!("updated {}", snap_path.display());
            continue;
        }
        let committed = fs::read_to_string(&snap_path).unwrap_or_else(|e| {
            panic!(
                "missing API snapshot {} ({e}); regenerate with \
                 MOBICAST_UPDATE_API_SURFACE=1",
                snap_path.display()
            )
        });
        let old: Vec<&str> = committed.lines().collect();
        let new: Vec<&str> = current.lines().collect();
        let seen = diff.len();
        for l in &old {
            if !new.contains(l) {
                diff.push(format!("{krate}: - {l}"));
            }
        }
        for l in &new {
            if !old.contains(l) {
                diff.push(format!("{krate}: + {l}"));
            }
        }
        if committed != current && diff.len() == seen {
            diff.push(format!("{krate}: declarations reordered or duplicated"));
        }
    }
    assert!(
        diff.is_empty(),
        "public API surface changed ({} lines):\n{}\n\n\
         If intentional, regenerate the snapshots with\n  \
         MOBICAST_UPDATE_API_SURFACE=1 cargo test -p mobicast-core --test api_surface",
        diff.len(),
        diff.join("\n")
    );
}
