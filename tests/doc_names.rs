//! The prose docs name only code that exists.
//!
//! Every Rust name written in backticks in DESIGN.md, README.md and
//! CONTRIBUTING.md must occur as an identifier somewhere in the Rust
//! sources (crates/, src/, shims/, tests/, examples/, benchmark/src/).
//! Names are read from inline code spans, fenced blocks skipped:
//!
//! * paths (`wqe_store::write_source`, `Oracle::wants_labels(g)`): every
//!   segment, and the last two together: the last must be written inside
//!   the one before it, when that one is a crate, module, source file,
//!   type or trait of the sources (an `impl`, `trait`, `struct`, `enum` or
//!   `mod` block, a file's module path, a `use .. as` alias), so a method
//!   named on the wrong type fails even when another type has it;
//! * calls (`finalize()`, `dist_batch(pairs, 4)`): the callee;
//! * CamelCase names of two or more humps (`GraphSource`);
//! * SCREAMING_CASE constants with an underscore (`FORMAT_VERSION`).
//!
//! Anything else in backticks (commands, file names, JSON, math) is not a
//! Rust name and is not checked. A deleted function whose name lingers in
//! the docs fails here.

use std::collections::{HashMap, HashSet};
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

/// Where names are written: per container — a crate, a module, a source
/// file by its path, a type or trait — the identifier-shaped words inside
/// it, and the `use X as Y` aliases (`Y` to `X`).
#[derive(Default)]
struct Contexts {
    words: HashMap<String, HashSet<String>>,
    aliases: HashMap<String, String>,
}

impl Contexts {
    fn add(&mut self, container: &str, text: &str) {
        let words = self.words.entry(container.to_string()).or_default();
        words.extend(self::words(text).map(str::to_string));
    }

    /// Indexes one source file, `rel` its path from the repo root.
    fn index_file(&mut self, rel: &str, text: &str) {
        self.add(rel, text);
        let modules = module_path(rel);
        for m in &modules {
            self.add(m, text);
        }
        for pair in modules.windows(2) {
            self.add(&pair[0], &pair[1]);
        }
        for (names, body) in blocks(text) {
            for name in names {
                self.add(name, body);
            }
        }
        for line in text.lines() {
            let line = line.trim();
            let Some(used) = line.strip_prefix("pub use ").or(line.strip_prefix("use ")) else {
                continue;
            };
            if let Some((path, alias)) = used.trim_end_matches(';').split_once(" as ") {
                let target = path.rsplit("::").next().unwrap_or(path).trim();
                self.aliases
                    .insert(alias.trim().to_string(), target.to_string());
            }
        }
    }

    /// False when `parent` (or what it aliases) is a container of the
    /// sources and `item` is not written inside it. A parent the sources
    /// do not contain (`std`, `slice`) is left to the word check.
    fn admits(&self, parent: &str, item: &str) -> bool {
        let alias = self.aliases.get(parent).map(String::as_str);
        let scopes: Vec<&HashSet<String>> = [Some(parent), alias]
            .into_iter()
            .flatten()
            .filter_map(|c| self.words.get(c))
            .collect();
        scopes.is_empty() || scopes.iter().any(|w| w.contains(item))
    }
}

/// The module path of a source file: its crate (`crates/wqe-core/..` is
/// `wqe_core`, `src/..` is `wqe`), then its directories and file stem,
/// `lib`, `main` and `mod` dropped. Test and example files start at their
/// own stem.
fn module_path(rel: &str) -> Vec<String> {
    let parts: Vec<&str> = rel.split('/').collect();
    let (krate, rest): (Option<String>, &[&str]) = match parts.as_slice() {
        ["crates" | "shims", name, "src", rest @ ..] => (Some(name.replace('-', "_")), rest),
        ["benchmark", "src", rest @ ..] => (Some("wqe_benchmark".into()), rest),
        ["src", rest @ ..] => (Some("wqe".into()), rest),
        [_, rest @ ..] => (None, rest),
        [] => (None, &[]),
    };
    krate
        .into_iter()
        .chain(
            rest.iter()
                .map(|p| p.trim_end_matches(".rs"))
                .filter(|p| !matches!(*p, "lib" | "main" | "mod"))
                .map(str::to_string),
        )
        .collect()
}

/// Every `impl`, `trait`, `struct`, `enum`, `union` and inline `mod` block
/// of `text`: the names it belongs to (an `impl Trait for Type` block
/// belongs to both) and its body.
fn blocks(text: &str) -> Vec<(Vec<&str>, &str)> {
    let mut out = Vec::new();
    let mut at = 0;
    for line in text.split_inclusive('\n') {
        let start = at;
        at += line.len();
        let mut decl = line.trim_start();
        for prefix in ["pub(crate) ", "pub(super) ", "pub ", "unsafe "] {
            decl = decl.strip_prefix(prefix).unwrap_or(decl);
        }
        let Some((keyword, rest)) = decl.split_once([' ', '<']) else {
            continue;
        };
        if !matches!(
            keyword,
            "impl" | "trait" | "struct" | "enum" | "union" | "mod"
        ) {
            continue;
        }
        let from = start + (line.len() - decl.len()) + keyword.len();
        let Some(open) = text[from..].find(['{', ';']).map(|i| from + i) else {
            continue;
        };
        if text.as_bytes()[open] == b';' {
            continue;
        }
        let header = &text[from..open];
        let names: Vec<&str> = if keyword == "impl" {
            let header = skip_generics(header);
            let header = header.split(" where").next().unwrap_or(header);
            header.split(" for ").filter_map(type_name).collect()
        } else {
            leading_ident(rest.trim_start()).into_iter().collect()
        };
        let mut depth = 0;
        let close = text[open..].char_indices().find_map(|(i, c)| {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
            (depth == 0).then_some(open + i)
        });
        out.push((names, &text[open..close.unwrap_or(text.len())]));
    }
    out
}

/// `s` past a leading `<...>` generics list.
fn skip_generics(s: &str) -> &str {
    let s = s.trim_start();
    if !s.starts_with('<') {
        return s;
    }
    let mut depth = 0;
    for (i, c) in s.char_indices() {
        match c {
            '<' => depth += 1,
            '>' => {
                depth -= 1;
                if depth == 0 {
                    return &s[i + 1..];
                }
            }
            _ => {}
        }
    }
    ""
}

/// The last path segment of the type or trait `s` starts with:
/// `&'a mut dyn wqe::Oracle<T>` is `Oracle`.
fn type_name(s: &str) -> Option<&str> {
    let mut s = s.trim_start();
    loop {
        let before = s;
        s = s.trim_start_matches('&').trim_start();
        if s.starts_with('\'') {
            s = s.split_once(' ').map_or("", |(_, r)| r).trim_start();
        }
        for keyword in ["mut ", "dyn "] {
            s = s.strip_prefix(keyword).unwrap_or(s);
        }
        if s == before {
            break;
        }
    }
    let end = s
        .find(|c: char| !is_ident_char(c) && c != ':')
        .unwrap_or(s.len());
    leading_ident(s[..end].rsplit("::").next()?)
}

/// The last two segments of a path span, when it is one: the container
/// (a file path kept whole, a crate name with `-` read as `_`) and the
/// name asked of it.
fn last_pair(span: &str) -> Option<(String, &str)> {
    let span = span.trim();
    if !span.contains("::") || span.contains(' ') {
        return None;
    }
    let segs: Vec<&str> = span.split("::").collect();
    let [.., parent, item] = segs.as_slice() else {
        return None;
    };
    let item = leading_ident(item.trim_start_matches(['&', '*']))?;
    let parent = parent.trim_start_matches(['&', '*']);
    let parent = if parent.contains('/') {
        parent.to_string()
    } else {
        let end = parent
            .find(|c: char| !is_ident_char(c) && c != '-')
            .unwrap_or(parent.len());
        let name = Some(&parent[..end]).filter(|n| n.starts_with(is_ident_start))?;
        name.replace('-', "_")
    };
    Some((parent, item))
}

/// The stale names of one document: each `(line, span, name)` the sources
/// lack as a word, or as a word inside the span's container.
fn stale_names(
    doc: &str,
    known: &HashSet<&str>,
    contexts: &Contexts,
) -> (usize, Vec<(usize, String, String)>) {
    let mut stale = Vec::new();
    let mut checked = 0;
    for (line, span) in code_spans(doc) {
        for name in names_in_span(&span) {
            checked += 1;
            if !known.contains(name) {
                stale.push((line, span.clone(), name.to_string()));
            }
        }
        if let Some((parent, item)) = last_pair(&span) {
            checked += 1;
            if !contexts.admits(&parent, item) {
                stale.push((line, span.clone(), format!("{parent}::{item}")));
            }
        }
    }
    (checked, stale)
}

/// The source files, each with its path from the repo root.
fn sources(root: &Path) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for dir in SOURCE_DIRS {
        rust_files(&root.join(dir), &mut files);
    }
    files
        .iter()
        .map(|f| {
            let rel = f
                .strip_prefix(root)
                .unwrap()
                .to_string_lossy()
                .replace('\\', "/");
            (rel, std::fs::read_to_string(f).unwrap())
        })
        .collect()
}

#[test]
fn docs_name_only_code_that_exists() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let sources = sources(&root);
    let known: HashSet<&str> = sources.iter().flat_map(|(_, s)| words(s)).collect();
    assert!(known.contains("GraphBuilder"), "no sources found");
    let mut contexts = Contexts::default();
    for (rel, text) in &sources {
        contexts.index_file(rel, text);
    }

    let mut stale = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        let (n, found) = stale_names(&text, &known, &contexts);
        checked += n;
        for (line, span, name) in found {
            stale.push(format!("{doc}:{line}: `{span}` names `{name}`"));
        }
    }
    assert!(checked > 100, "only {checked} names found in the docs");
    assert!(
        stale.is_empty(),
        "docs name code that does not exist:\n{}",
        stale.join("\n")
    );
}

/// A method named on a type that lacks it is stale even while another
/// type keeps the word alive: `Explorer::with_parallelism` exists,
/// `Matcher::with_parallelism` does not.
#[test]
fn a_name_on_the_wrong_type_is_stale() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let sources = sources(&root);
    let known: HashSet<&str> = sources.iter().flat_map(|(_, s)| words(s)).collect();
    let mut contexts = Contexts::default();
    for (rel, text) in &sources {
        contexts.index_file(rel, text);
    }
    let check = |doc: &str| stale_names(doc, &known, &contexts).1;
    assert!(check("`Explorer::with_parallelism`").is_empty());
    let stale = check("see `Matcher::with_parallelism`");
    assert_eq!(stale.len(), 1, "{stale:?}");
    assert_eq!(stale[0].2, "Matcher::with_parallelism");
    // Modules, files, enum variants, trait methods and aliases count.
    for fine in [
        "`wqe_core::service::QueryService`",
        "`wqe-core::ctx`",
        "`wqe::core::GraphStore`",
        "`Termination::Deadline`",
        "`DistanceOracle::dist_batch`",
        "`std::sync::Mutex`",
        "`tests/doc_names.rs::stale_names`",
    ] {
        assert!(check(fine).is_empty(), "{fine}: {:?}", check(fine));
    }
    assert_eq!(check("`wqe_store::estimate_diameter`").len(), 1);
    assert_eq!(check("`obs::Stage::Deadline`").len(), 1);
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
