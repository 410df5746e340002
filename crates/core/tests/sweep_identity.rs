//! Sweep byte-identity: the quick fault sweep's JSON rows for the four
//! paper approaches are pinned against a committed golden, so any change
//! to the strategy layer (or the layers it drives) that shifts a single
//! metric digit for a paper approach shows up as a diff here. Approaches
//! registered beyond the paper's four are deliberately filtered out —
//! extensions may append rows, never perturb the originals.
//!
//! To regenerate after an *intentional* behavior change:
//! `MOBICAST_UPDATE_GOLDENS=1 cargo test -p mobicast-core --test sweep_identity`
//! and commit the diff.

use mobicast_core::experiments::fault_sweep::{self, FaultScore};
use mobicast_core::experiments::Settings;
use std::path::PathBuf;

/// The paper's four approach names as they appear in report rows.
const PAPER_NAMES: [&str; 4] = [
    "local group membership",
    "bi-directional tunnel",
    "uni-dir tunnel MH->HA",
    "uni-dir tunnel HA->MH",
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/golden-fault-sweep.json")
}

/// The quick sweep's scores, filtered to the paper approaches and
/// re-serialized in row order (deterministic: the sweep is seeded and the
/// serde shim preserves field order).
fn paper_rows_json() -> String {
    let out = fault_sweep::run(Settings::new(true));
    let scores: Vec<FaultScore> = serde_json::from_value(out.json["scores"].clone())
        .expect("fault sweep JSON deserializes into its own score type");
    let paper: Vec<FaultScore> = scores
        .into_iter()
        .filter(|s| PAPER_NAMES.contains(&s.name.as_str()))
        .collect();
    assert_eq!(
        paper
            .iter()
            .map(|s| s.name.clone())
            .collect::<std::collections::BTreeSet<_>>()
            .len(),
        PAPER_NAMES.len(),
        "every paper approach must appear in the sweep"
    );
    serde_json::to_string(&serde_json::json!({ "scores": paper })).unwrap()
}

#[test]
fn fault_sweep_paper_rows_match_golden() {
    let got = paper_rows_json();
    let path = golden_path();
    if std::env::var_os("MOBICAST_UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        eprintln!("(updated {})", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {} ({e}); regenerate with MOBICAST_UPDATE_GOLDENS=1",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "fault-sweep paper rows diverge from the committed golden; if the \
         change is intentional, regenerate with MOBICAST_UPDATE_GOLDENS=1 \
         and commit"
    );
}
