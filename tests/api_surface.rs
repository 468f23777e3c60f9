//! Pinned public-API surface.
//!
//! The workspace builds offline (no `cargo public-api`), so the surface
//! is extracted syntactically: every `pub` item declaration in each
//! crate's sources, normalized to one line, sorted, and compared against
//! a checked-in text dump under `tests/api/`. The dump is the review
//! artifact: an API change — adding a method, renaming a variant, making
//! a struct `#[non_exhaustive]` — shows up as a one-line diff in the PR
//! instead of a silent break for downstream users.
//!
//! To bless an intentional change:
//!
//! ```text
//! WQE_BLESS_API=1 cargo test --test api_surface
//! git diff tests/api/
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Workspace crates whose public surface is pinned, with their source
/// roots relative to the repo root.
const CRATES: [(&str, &str); 9] = [
    ("wqe-graph", "crates/wqe-graph/src"),
    ("wqe-index", "crates/wqe-index/src"),
    ("wqe-store", "crates/wqe-store/src"),
    ("wqe-query", "crates/wqe-query/src"),
    ("wqe-pool", "crates/wqe-pool/src"),
    ("wqe-core", "crates/wqe-core/src"),
    ("wqe-serve", "crates/wqe-serve/src"),
    ("wqe-datagen", "crates/wqe-datagen/src"),
    ("wqe", "src"),
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, sorted. `bin/` directories are skipped:
/// a binary's items are private to it, whatever their visibility says.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if !path.ends_with("bin") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// True when `line` (already trimmed) declares a public item worth
/// pinning. `pub(crate)`/`pub(super)` are internal and excluded.
fn is_public_decl(line: &str) -> bool {
    let Some(rest) = line.strip_prefix("pub ") else {
        return false;
    };
    [
        "fn ",
        "struct ",
        "enum ",
        "trait ",
        "type ",
        "const ",
        "static ",
        "mod ",
        "use ",
        "unsafe fn ",
    ]
    .iter()
    .any(|kw| rest.starts_with(kw))
}

/// One normalized line per declaration: everything up to the body/`;`,
/// whitespace collapsed.
fn normalize(decl: &str) -> String {
    let cut = decl.find(['{', ';']).map(|i| &decl[..i]).unwrap_or(decl);
    cut.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Extracts the sorted public surface of one source tree. Declarations
/// are matched line-wise; multi-line signatures are joined until the
/// body/terminator so the dump carries full signatures.
fn surface(src_root: &Path) -> String {
    let mut files = Vec::new();
    rust_files(src_root, &mut files);
    assert!(!files.is_empty(), "no sources under {src_root:?}");
    let mut decls = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("read source");
        let rel = file
            .strip_prefix(src_root)
            .unwrap_or(file)
            .display()
            .to_string();
        let lines: Vec<&str> = text.lines().collect();
        let mut in_test_mod = false;
        let mut test_mod_depth = 0usize;
        let mut depth = 0usize;
        let mut i = 0;
        while i < lines.len() {
            let trimmed = lines[i].trim();
            // Skip #[cfg(test)] modules entirely: their pub items are
            // not API.
            if trimmed.starts_with("#[cfg(test)]") {
                in_test_mod = true;
                test_mod_depth = depth;
            }
            depth += lines[i].matches('{').count();
            depth = depth.saturating_sub(lines[i].matches('}').count());
            if in_test_mod && depth <= test_mod_depth && trimmed.contains('}') {
                in_test_mod = false;
            }
            if !in_test_mod && is_public_decl(trimmed) {
                // Join continuation lines until the declaration closes.
                let mut decl = trimmed.to_string();
                let mut j = i;
                while !decl.contains('{') && !decl.contains(';') && j + 1 < lines.len() {
                    j += 1;
                    decl.push(' ');
                    decl.push_str(lines[j].trim());
                }
                decls.push(format!("{rel}: {}", normalize(&decl)));
            }
            i += 1;
        }
    }
    decls.sort();
    decls.dedup();
    let mut out = String::new();
    for d in &decls {
        let _ = writeln!(out, "{d}");
    }
    out
}

#[test]
fn public_api_surface_is_pinned() {
    let root = repo_root();
    let api_dir = root.join("tests/api");
    let bless = std::env::var("WQE_BLESS_API").is_ok();
    if bless {
        std::fs::create_dir_all(&api_dir).expect("create tests/api");
    }
    let mut drift = Vec::new();
    for (name, src) in CRATES {
        let got = surface(&root.join(src));
        let pin = api_dir.join(format!("{name}.txt"));
        if bless {
            std::fs::write(&pin, &got).expect("bless surface");
            continue;
        }
        let want = std::fs::read_to_string(&pin)
            .unwrap_or_else(|_| panic!("missing {pin:?}; run WQE_BLESS_API=1 to create it"));
        if got != want {
            let got_lines: std::collections::BTreeSet<_> = got.lines().collect();
            let want_lines: std::collections::BTreeSet<_> = want.lines().collect();
            let added: Vec<_> = got_lines.difference(&want_lines).collect();
            let removed: Vec<_> = want_lines.difference(&got_lines).collect();
            drift.push(format!(
                "{name}: +{} -{}\n  added: {added:#?}\n  removed: {removed:#?}",
                added.len(),
                removed.len()
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "public API drifted from tests/api/ pins; if intentional, bless with \
         WQE_BLESS_API=1 cargo test --test api_surface\n{}",
        drift.join("\n")
    );
}
