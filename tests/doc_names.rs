//! The documents name only what exists.
//!
//! Every inline code span in DESIGN.md, README.md, EXPERIMENTS.md and
//! docs/EQUATIONS.md that is a *name* must occur in a non-Markdown file
//! of the repository (sources, manifests, workflows, `results/`, the
//! corpus): a prose reference to deleted code fails here. Fenced blocks
//! are skipped, and so is every span that is not a name — formulas,
//! commands, literals, type expressions.
//!
//! A span is a name when it is
//! * an identifier or a `::` path of identifiers, optionally ending in
//!   `()`, or fields joined by `.` (`Foo`, `vr-comm::frame`,
//!   `Endpoint::now()`, `config.faults`): every segment must occur as a
//!   whole word (a crate segment in its `-` or `_` spelling);
//! * a command-line flag (`--render-threads`): it must occur as a word;
//! * a file or directory path (`crates/serve/tests/socket.rs`,
//!   `methods/swap.rs`, `Cargo.toml`, `results/*.txt`): some file of the
//!   repository must end with it, a relative path matching as a suffix
//!   at a `/`, and a glob's directory must exist.
//!
//! `ALLOWED` holds the words that are names but not code; a commit id
//! (seven or more hex digits, at least one a letter) is allowed by
//! shape. Nothing else may be added to it: a span that names deleted
//! code is fixed in the prose.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const DOCUMENTS: [&str; 4] = [
    "DESIGN.md",
    "README.md",
    "EXPERIMENTS.md",
    "docs/EQUATIONS.md",
];

/// Names that are not code of this repository: C library calls,
/// machine instructions and tools the prose mentions.
const ALLOWED: [&str; 6] = ["memcpy", "mmap", "roundss", "floorf", "mul_add", "nm"];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every file under the root except build output (`target/`) and
/// hidden directories other than `.github`, as paths relative to the
/// root.
fn repository_files(dir: &Path, base: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read repository directory") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let hidden = name.starts_with('.') && name != ".github";
        if path.is_dir() && (hidden || name == "target") {
            continue;
        }
        if path.is_dir() {
            repository_files(&path, base, out);
        } else {
            out.push(
                path.strip_prefix(base)
                    .expect("under the root")
                    .to_path_buf(),
            );
        }
    }
}

struct Tree {
    /// Root-relative file paths, `/`-separated.
    paths: Vec<String>,
    /// The text of every non-Markdown UTF-8 file.
    text: String,
}

impl Tree {
    fn load() -> Tree {
        let root = root();
        let mut files = Vec::new();
        repository_files(&root, &root, &mut files);
        let mut text = String::new();
        let mut paths = Vec::new();
        for file in files {
            let rel = file.to_string_lossy().replace('\\', "/");
            let own = rel == "tests/doc_names.rs";
            if !rel.ends_with(".md") && !own {
                if let Ok(body) = std::fs::read_to_string(root.join(&file)) {
                    text.push_str(&body);
                    text.push('\n');
                }
            }
            paths.push(rel);
        }
        Tree { paths, text }
    }

    /// `word` occurs with no identifier character on either side.
    fn has_word(&self, word: &str) -> bool {
        let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
        self.text.match_indices(word).any(|(at, _)| {
            let before = self.text[..at].chars().next_back();
            let after = self.text[at + word.len()..].chars().next();
            !before.is_some_and(ident) && !after.is_some_and(ident)
        })
    }

    /// Some file, or a directory above one, ends with `path` at a `/`
    /// boundary; `*` matches within one path component.
    fn has_path(&self, path: &str) -> bool {
        let path = path.trim_start_matches("./").trim_end_matches('/');
        self.paths.iter().any(|p| {
            // `p` and every directory above it, each with its suffixes
            // that start at a `/`.
            let ends: Vec<usize> = p
                .match_indices('/')
                .map(|(at, _)| at)
                .chain([p.len()])
                .collect();
            ends.iter().any(|&end| {
                let p = &p[..end];
                std::iter::once(0)
                    .chain(p.match_indices('/').map(|(at, _)| at + 1))
                    .any(|start| glob_match(path, &p[start..]))
            })
        })
    }
}

/// `pattern` matches all of `text`, `*` standing for any run of
/// characters other than `/`.
fn glob_match(pattern: &str, text: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == text,
        Some((head, tail)) => {
            text.starts_with(head)
                && (head.len()..=text.len())
                    .filter(|&at| text.is_char_boundary(at))
                    .take_while(|&at| !text[head.len()..at].contains('/'))
                    .any(|at| glob_match(tail, &text[at..]))
        }
    }
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// A crate name such as `vr-comm` or `slsvr-core`.
fn is_crate(s: &str) -> bool {
    s.contains('-') && s.split('-').all(|part| !part.is_empty() && is_ident(part))
}

fn is_commit_id(s: &str) -> bool {
    (7..=40).contains(&s.len())
        && s.bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
        && s.bytes().any(|b| b.is_ascii_digit())
        && s.bytes().any(|b| b.is_ascii_alphabetic())
}

const FILE_EXTENSIONS: [&str; 10] = [
    "rs", "toml", "json", "txt", "csv", "yml", "md", "lock", "pgm", "sh",
];

#[derive(Debug, PartialEq)]
enum Name {
    /// Segments that must each occur as a word.
    Words(Vec<String>),
    /// A file, directory or glob path.
    Path(String),
}

/// What a code span names, or `None` for a span that is not a name.
fn classify(span: &str) -> Option<Name> {
    let span = span.trim();
    if span.is_empty() || span.contains(char::is_whitespace) {
        return None;
    }
    if let Some(flag) = span.strip_prefix("--") {
        let word = flag.split('=').next().unwrap_or("");
        let flag_chars = word.chars().all(|c| c.is_ascii_alphanumeric() || c == '-');
        return (!word.is_empty() && flag_chars).then(|| Name::Words(vec![format!("--{word}")]));
    }
    let has_extension = span
        .rsplit_once('.')
        .is_some_and(|(stem, ext)| !stem.is_empty() && FILE_EXTENSIONS.contains(&ext));
    let path_chars = span
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || "_-./*".contains(c));
    if path_chars && (span.contains('/') || has_extension) {
        return Some(Name::Path(span.to_string()));
    }
    let body = span.strip_suffix("()").unwrap_or(span);
    let segments: Vec<&str> = if body.contains("::") {
        body.split("::").collect()
    } else {
        body.split('.').collect()
    };
    let all_names = segments.iter().all(|s| is_ident(s) || is_crate(s));
    if !all_names {
        return None;
    }
    Some(Name::Words(
        segments.iter().map(|s| s.to_string()).collect(),
    ))
}

/// Every inline code span of `markdown` outside fenced blocks, with the
/// line it starts on.
fn code_spans(markdown: &str) -> Vec<(usize, String)> {
    let mut spans = Vec::new();
    let mut fenced = false;
    // A span may wrap onto the next line but never crosses a blank line.
    let mut paragraph: Vec<(usize, &str)> = Vec::new();
    let flush = |paragraph: &mut Vec<(usize, &str)>, spans: &mut Vec<(usize, String)>| {
        let mut open: Option<(usize, String)> = None;
        for &(line, text) in paragraph.iter() {
            for (i, piece) in text.split('`').enumerate() {
                if i > 0 {
                    match open.take() {
                        Some(span) => spans.push(span),
                        None => open = Some((line, String::new())),
                    }
                }
                if let Some((_, span)) = open.as_mut() {
                    span.push_str(piece);
                }
            }
            if let Some((_, span)) = open.as_mut() {
                span.push(' ');
            }
        }
        paragraph.clear();
    };
    for (n, line) in markdown.lines().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("```") || trimmed.starts_with("~~~") {
            flush(&mut paragraph, &mut spans);
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        if trimmed.is_empty() {
            flush(&mut paragraph, &mut spans);
        } else {
            paragraph.push((n + 1, line));
        }
    }
    flush(&mut paragraph, &mut spans);
    spans
}

/// The spans of `document` that name nothing in the tree, as
/// `document:line: span`.
fn stale_spans(tree: &Tree, document: &str) -> Vec<String> {
    let markdown = std::fs::read_to_string(root().join(document))
        .unwrap_or_else(|e| panic!("reading {document}: {e}"));
    let mut stale = Vec::new();
    for (line, span) in code_spans(&markdown) {
        let known = match classify(&span) {
            None => continue,
            Some(Name::Path(path)) => tree.has_path(&path),
            Some(Name::Words(words)) => words.iter().all(|w| {
                ALLOWED.contains(&w.as_str())
                    || is_commit_id(w)
                    || tree.has_word(w)
                    || (is_crate(w) && tree.has_word(&w.replace('-', "_")))
            }),
        };
        if !known {
            stale.push(format!("{document}:{line}: `{}`", span.trim()));
        }
    }
    stale
}

#[test]
fn every_name_in_the_documents_exists_in_the_tree() {
    let tree = Tree::load();
    let stale: Vec<String> = DOCUMENTS
        .iter()
        .flat_map(|doc| stale_spans(&tree, doc))
        .collect();
    assert!(
        stale.is_empty(),
        "{} code spans name nothing in the tree:\n{}",
        stale.len(),
        stale.join("\n")
    );
}

#[test]
fn the_allow_list_holds_no_name_the_tree_defines() {
    let tree = Tree::load();
    let in_tree: BTreeSet<&str> = ALLOWED
        .iter()
        .copied()
        .filter(|w| tree.has_word(w))
        .collect();
    assert!(
        in_tree.is_empty(),
        "allow-listed words that occur in the tree need no entry: {in_tree:?}"
    );
}

#[test]
fn spans_are_classified_as_names_formulas_and_paths() {
    let words = |w: &[&str]| Some(Name::Words(w.iter().map(|s| s.to_string()).collect()));
    assert_eq!(classify("Foo"), words(&["Foo"]));
    assert_eq!(classify("a::b()"), words(&["a", "b"]));
    assert_eq!(classify("vr-comm::frame"), words(&["vr-comm", "frame"]));
    assert_eq!(classify("config.faults"), words(&["config", "faults"]));
    assert_eq!(classify("--render-threads"), words(&["--render-threads"]));
    assert_eq!(classify("--ghost 2"), None);
    assert_eq!(
        classify("methods/swap.rs"),
        Some(Name::Path("methods/swap.rs".into()))
    );
    assert_eq!(
        classify("Cargo.toml"),
        Some(Name::Path("Cargo.toml".into()))
    );
    for formula in [
        "T_s + bytes·T_c",
        "16·A/2^k",
        "0x10",
        "-0.0",
        "kill=3@0",
        "f(x)",
        "Vec<T>",
    ] {
        assert_eq!(classify(formula), None, "{formula}");
    }
    assert!(glob_match("results/*.txt", "results/mmax.txt"));
    assert!(!glob_match("results/*.txt", "results/x/mmax.txt"));
    assert!(is_commit_id("dd07987") && !is_commit_id("1234567") && !is_commit_id("defaced"));
    let spans = code_spans("a `x` b\n```\n`y`\n```\nc `p::\nq` d\n\n`z");
    assert_eq!(spans, vec![(1, "x".into()), (5, "p:: q".into())]);
}
