//! Guard for the vendored stand-in crates (`vendor/`).
//!
//! `serde`, `crossbeam` and `parking_lot` resolve to offline stubs: the
//! serde derives expand to nothing, and the other two only wrap `std`.
//! No source uses them: everything the workspace persists goes through
//! its own writers, and threads and locks come from `std` directly. Their
//! manifest entries stay until the lock files are refreshed, so this test
//! keeps a derive or an import from coming back meanwhile:
//!
//! 1. the serde stub defines no trait surface, so a trait-bound use of
//!    `serde::Serialize`/`Deserialize` is a compile error rather than a
//!    silent no-op, and
//! 2. no non-comment line under `crates/`, `examples/` or `tests/` names
//!    `serde`, `crossbeam` or `parking_lot`.

use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn stub_serde_defines_no_trait_surface() {
    let stub = workspace_root().join("vendor/serde/src/lib.rs");
    if !stub.exists() {
        return; // real serde restored; nothing to guard
    }
    let src = fs::read_to_string(&stub).expect("stub source readable");
    for forbidden in ["trait ", "impl ", "fn ", "struct ", "enum "] {
        assert!(
            !src.lines()
                .filter(|l| !l.trim_start().starts_with("//"))
                .any(|l| l.contains(forbidden)),
            "vendor/serde grew an item (`{forbidden}…`): the stub must stay \
             derive-re-export-only so trait-bound uses remain compile errors \
             instead of silently hitting no-op derives (see vendor/README.md)"
        );
    }
}

#[test]
fn no_source_names_a_stand_in_crate() {
    let root = workspace_root();
    let mut sources = Vec::new();
    for dir in ["crates", "examples", "tests"] {
        rust_sources(&root.join(dir), &mut sources);
    }
    assert!(!sources.is_empty(), "no sources found");

    let mut offenders = Vec::new();
    for path in &sources {
        if path.ends_with("tests/serde_stub_guard.rs") {
            continue; // this file names the crates it looks for
        }
        let src = fs::read_to_string(path).expect("source readable");
        for (lineno, line) in src.lines().enumerate() {
            if line.trim_start().starts_with("//") {
                continue;
            }
            for name in ["serde", "crossbeam", "parking_lot"] {
                if line.contains(name) {
                    offenders.push(format!(
                        "{}:{}: `{name}`",
                        path.strip_prefix(&root).unwrap_or(path).display(),
                        lineno + 1
                    ));
                }
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "sources name a stand-in crate; persist through the repository's \
         own writers and call `std::thread::scope` and `std::sync::Mutex` \
         directly (see vendor/README.md):\n{}",
        offenders.join("\n")
    );
}
