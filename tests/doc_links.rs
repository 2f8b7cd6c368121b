//! Link-checks the repo's first-party documentation: every markdown
//! link target and every backtick span that names a repo file must
//! actually exist. Pins the `bench_output.txt`-class rot where a doc
//! keeps pointing at an artifact that was never committed (or was
//! renamed away).

use std::path::{Path, PathBuf};

/// The docs we own (external-content digests like PAPER.md / PAPERS.md /
/// SNIPPETS.md quote paths from other repositories and are exempt).
/// `tests/doc_links.rs` link-checks these
/// files, so a file an item proposes to create is named in prose, and a
/// code span or link is used only for files that exist.
const DOCS: &[&str] = &[
    "README.md",
    "ROADMAP.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "CHANGES.md",
    "results/README.md",
];

/// File extensions that make a backtick span path-like.
const EXTENSIONS: &[&str] = &[
    ".rs", ".md", ".json", ".txt", ".toml", ".yml", ".yaml", ".sh",
];

fn is_path_like(span: &str) -> bool {
    span.chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '/' | '-'))
        && EXTENSIONS.iter().any(|ext| span.ends_with(ext))
        && !span.starts_with("target/")
        && !span.starts_with('/')
}

/// Extracts candidate file references, each with its 1-based source line:
/// inline-code spans plus markdown link targets (`[text](target)`, skipping
/// URLs and pure anchors).
fn candidates(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (index, line) in text.lines().enumerate() {
        let line_no = index + 1;
        // Backtick spans. Fenced code blocks are command transcripts, not
        // references; they are blanked before this function runs.
        let mut rest = line;
        while let Some(start) = rest.find('`') {
            let Some(len) = rest[start + 1..].find('`') else {
                break;
            };
            let span = &rest[start + 1..start + 1 + len];
            if is_path_like(span) {
                out.push((line_no, span.to_owned()));
            }
            rest = &rest[start + 1 + len + 1..];
        }
        // Markdown link targets.
        let mut rest = line;
        while let Some(pos) = rest.find("](") {
            let tail = &rest[pos + 2..];
            let Some(end) = tail.find(')') else { break };
            let target = tail[..end].split('#').next().unwrap_or("");
            if !target.is_empty()
                && !target.contains("://")
                && !target.starts_with("mailto:")
                && !target.starts_with('/')
            {
                out.push((line_no, target.to_owned()));
            }
            rest = &tail[end..];
        }
    }
    out
}

/// A reference resolves if it exists relative to the doc's directory or
/// to the repo root.
fn resolves(root: &Path, doc_dir: &Path, reference: &str) -> bool {
    doc_dir.join(reference).exists() || root.join(reference).exists()
}

#[test]
fn first_party_docs_reference_only_existing_files() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut broken = Vec::new();
    for doc in DOCS {
        let path = root.join(doc);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{doc} must exist and be readable: {e}"));
        let doc_dir = path.parent().unwrap().to_path_buf();
        // Fenced lines are blanked rather than dropped so that line
        // numbers in the report match the source.
        let mut in_fence = false;
        let mut filtered = String::new();
        for line in text.lines() {
            if line.trim_start().starts_with("```") {
                in_fence = !in_fence;
            } else if !in_fence {
                filtered.push_str(line);
            }
            filtered.push('\n');
        }
        for (line_no, reference) in candidates(&filtered) {
            if !resolves(&root, &doc_dir, &reference) {
                broken.push(format!("{doc}:{line_no}: `{reference}`"));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "docs reference files that do not exist:\n  {}",
        broken.join("\n  ")
    );
}

#[test]
fn path_matcher_spots_missing_and_accepts_real_files() {
    // The matcher itself must flag the historical offenders (an artifact
    // never committed, a baseline a ROADMAP item only proposes)...
    assert!(is_path_like("bench_output.txt"));
    assert!(is_path_like("BENCH_baseline.json"));
    // ...accept the real artifacts docs point at...
    assert!(is_path_like("results/figures_quick.txt"));
    assert!(is_path_like("tests/fault_injection.rs"));
    // ...and ignore build outputs, URLs-ish things, and prose.
    assert!(!is_path_like("target/criterion/report.md"));
    assert!(!is_path_like("/etc/passwd.txt"));
    assert!(!is_path_like("a sentence with spaces.txt"));
    assert!(!is_path_like("plain-words"));
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    assert!(resolves(&root, &root, "results/figures_quick.txt"));
    assert!(!resolves(&root, &root, "bench_output.txt"));
    assert!(!resolves(&root, &root, "BENCH_baseline.json"));
}
