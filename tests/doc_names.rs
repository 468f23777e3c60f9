//! The prose docs name only code that exists.
//!
//! Every Rust name written in backticks in DESIGN.md, README.md and
//! CONTRIBUTING.md must occur as an identifier somewhere in the Rust
//! sources (crates/, src/, shims/, tests/, examples/, benchmark/src/).
//! Names are read from inline code spans, fenced blocks skipped:
//!
//! * paths (`wqe_store::write_source`, `Oracle::wants_labels(g)`): every
//!   segment;
//! * calls (`finalize()`, `dist_batch(pairs, 4)`): the callee;
//! * CamelCase names of two or more humps (`GraphSource`);
//! * SCREAMING_CASE constants with an underscore (`FORMAT_VERSION`).
//!
//! Anything else in backticks (commands, file names, JSON, math) is not a
//! Rust name and is not checked. A deleted function whose name lingers in
//! the docs fails here.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

const DOCS: [&str; 3] = ["DESIGN.md", "README.md", "CONTRIBUTING.md"];
const SOURCE_DIRS: [&str; 6] = [
    "crates",
    "src",
    "shims",
    "tests",
    "examples",
    "benchmark/src",
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.filter_map(|e| e.ok()).map(|e| e.path()) {
        if path.is_dir() {
            if !path.ends_with("target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Every identifier-shaped word of `text`.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !is_ident_char(c))
        .filter(|w| w.starts_with(is_ident_start))
}

/// The identifier `s` starts with, if any.
fn leading_ident(s: &str) -> Option<&str> {
    let end = s.find(|c: char| !is_ident_char(c)).unwrap_or(s.len());
    Some(&s[..end]).filter(|w| w.starts_with(is_ident_start))
}

fn is_ident(s: &str) -> bool {
    s.starts_with(is_ident_start) && s.chars().all(is_ident_char)
}

fn is_camel_case(s: &str) -> bool {
    is_ident(s)
        && s.starts_with(|c: char| c.is_ascii_uppercase())
        && s.chars().any(|c| c.is_ascii_lowercase())
        && s.chars().skip(1).any(|c| c.is_ascii_uppercase())
        && !s.contains('_')
}

fn is_screaming_case(s: &str) -> bool {
    is_ident(s)
        && s.contains('_')
        && s.chars().any(|c| c.is_ascii_uppercase())
        && !s.chars().any(|c| c.is_ascii_lowercase())
}

/// The Rust names one inline code span asserts exist.
fn names_in_span(span: &str) -> Vec<&str> {
    let span = span.trim();
    if span.contains("::") && !span.contains(' ') {
        return span
            .split("::")
            .filter_map(|seg| leading_ident(seg.trim_start_matches(['&', '*'])))
            .collect();
    }
    if let Some(open) = span.find('(') {
        let callee = &span[..open];
        if span.ends_with(')') && is_ident(callee) {
            return vec![callee];
        }
    }
    if is_camel_case(span) || is_screaming_case(span) {
        return vec![span];
    }
    Vec::new()
}

/// Inline code spans of a markdown document, fenced blocks skipped.
fn code_spans(doc: &str) -> Vec<(usize, String)> {
    let mut spans = Vec::new();
    let mut fenced = false;
    for (i, line) in doc.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if !fenced {
            let parts: Vec<&str> = line.split('`').collect();
            // Odd-indexed parts sit between a pair of backticks.
            for part in parts.iter().skip(1).step_by(2).take((parts.len() - 1) / 2) {
                spans.push((i + 1, part.to_string()));
            }
        }
    }
    spans
}

#[test]
fn docs_name_only_code_that_exists() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in SOURCE_DIRS {
        rust_files(&root.join(dir), &mut files);
    }
    let sources: Vec<String> = files
        .iter()
        .map(|f| std::fs::read_to_string(f).unwrap())
        .collect();
    let known: HashSet<&str> = sources.iter().flat_map(|s| words(s)).collect();
    assert!(known.contains("GraphBuilder"), "no sources found");

    let mut stale = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        for (line, span) in code_spans(&text) {
            for name in names_in_span(&span) {
                checked += 1;
                if !known.contains(name) {
                    stale.push(format!("{doc}:{line}: `{span}` names `{name}`"));
                }
            }
        }
    }
    assert!(checked > 100, "only {checked} names found in the docs");
    assert!(
        stale.is_empty(),
        "docs name code that does not exist:\n{}",
        stale.join("\n")
    );
}

#[test]
fn span_rules() {
    assert_eq!(
        names_in_span("wqe_store::write_source"),
        ["wqe_store", "write_source"]
    );
    assert_eq!(
        names_in_span("Oracle::wants_labels(&g)"),
        ["Oracle", "wants_labels"]
    );
    assert_eq!(names_in_span("finalize()"), ["finalize"]);
    assert_eq!(names_in_span("GraphSource"), ["GraphSource"]);
    assert_eq!(names_in_span("FORMAT_VERSION"), ["FORMAT_VERSION"]);
    for not_a_name in ["Graph", "cargo test -q", "index build", "flags = 0"] {
        assert!(names_in_span(not_a_name).is_empty(), "{not_a_name}");
    }
    assert_eq!(
        code_spans("a `x` b `y`\n```\n`z`\n```\n`w"),
        [(1, "x".to_string()), (1, "y".to_string())]
    );
}
