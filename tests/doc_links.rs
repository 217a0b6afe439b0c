//! Documentation integrity: intra-repo links resolve, and the flag
//! tables in the docs track the binaries' actual CLIs.
//!
//! Std-only by design (like everything here): the link checker is a
//! small hand-rolled scan over `README.md` and `docs/*.md`, not an
//! external tool. External (`http...`) links are *not* fetched — CI
//! must not flake on the network — only their markdown syntax is
//! accepted; everything else must resolve inside the repository.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

/// Repository root (this integration test lives in the root crate).
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every markdown file the checker owns: the README plus all of docs/.
fn doc_files() -> Vec<PathBuf> {
    let root = repo_root();
    let mut files = vec![root.join("README.md")];
    let docs = root.join("docs");
    let entries = fs::read_dir(&docs).expect("docs/ directory exists");
    for entry in entries {
        let path = entry.expect("readable docs/ entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            files.push(path);
        }
    }
    files.sort();
    assert!(
        files.len() >= 4,
        "expected README.md + at least ARCHITECTURE/WIRE/OPERATIONS under docs/, found {files:?}"
    );
    files
}

/// Extract `[text](target)` links, skipping fenced code blocks and
/// inline code spans (wire-format examples contain bracketed byte
/// layouts that are not links).
fn links(markdown: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut fenced = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        let bytes = line.as_bytes();
        let mut i = 0;
        let mut in_code = false;
        while i < bytes.len() {
            match bytes[i] {
                b'`' => in_code = !in_code,
                b']' if !in_code && i + 1 < bytes.len() && bytes[i + 1] == b'(' => {
                    if let Some(close) = line[i + 2..].find(')') {
                        out.push(line[i + 2..i + 2 + close].to_string());
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    out
}

/// GitHub's anchor slug for a heading line: lowercase, spaces to
/// dashes, punctuation dropped.
fn slug(heading: &str) -> String {
    heading
        .trim_start_matches('#')
        .trim()
        .chars()
        .filter_map(|c| {
            if c.is_alphanumeric() {
                Some(c.to_ascii_lowercase())
            } else if c == ' ' || c == '-' {
                Some('-')
            } else {
                None
            }
        })
        .collect()
}

/// All heading anchors defined by a markdown file.
fn anchors(markdown: &str) -> BTreeSet<String> {
    let mut fenced = false;
    let mut out = BTreeSet::new();
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if !fenced && line.starts_with('#') {
            out.insert(slug(line));
        }
    }
    out
}

#[test]
fn every_intra_repo_link_resolves() {
    let root = repo_root();
    let mut failures = Vec::new();
    for file in doc_files() {
        let text = fs::read_to_string(&file).expect("readable doc file");
        let dir = file.parent().unwrap_or(&root).to_path_buf();
        for link in links(&text) {
            if link.starts_with("http://") || link.starts_with("https://") {
                continue; // external: syntax-checked only, never fetched
            }
            let (path_part, anchor) = match link.split_once('#') {
                Some((p, a)) => (p, Some(a)),
                None => (link.as_str(), None),
            };
            let target: PathBuf = if path_part.is_empty() {
                file.clone() // pure-anchor link into the same file
            } else {
                dir.join(path_part)
            };
            if !target.exists() {
                failures.push(format!("{}: dead link {link:?}", file.display()));
                continue;
            }
            if let Some(anchor) = anchor {
                let is_md = target.extension().is_some_and(|e| e == "md");
                if is_md {
                    let dest = fs::read_to_string(&target).expect("readable link target");
                    if !anchors(&dest).contains(anchor) {
                        failures.push(format!(
                            "{}: link {link:?} names an anchor missing from {}",
                            file.display(),
                            target.display()
                        ));
                    }
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "dead documentation links:\n{}",
        failures.join("\n")
    );
}

/// The server flag table is the single source of truth
/// (`rtas_svc::cli::SERVE_FLAGS` renders the usage text and drives the
/// parser); the prose docs must mention every flag in it.
#[test]
fn operations_runbook_documents_every_serve_flag() {
    let ops = fs::read_to_string(repo_root().join("docs/OPERATIONS.md")).expect("runbook");
    let missing: Vec<&str> = rtas_svc::cli::SERVE_FLAGS
        .iter()
        .map(|f| f.name)
        .filter(|name| !ops.contains(*name))
        .collect();
    assert!(
        missing.is_empty(),
        "docs/OPERATIONS.md does not document these rtas-svc serve flags: {missing:?}"
    );
}

/// The load binary's flags are its `match` arms; scan the source for
/// `"--flag" =>` patterns and require each in the runbook and in the
/// binary's own usage string — a new flag cannot land undocumented.
#[test]
fn operations_runbook_documents_every_load_flag() {
    let src_path = repo_root().join("crates/load/src/bin/rtas_load.rs");
    let src = fs::read_to_string(&src_path).expect("rtas_load.rs");
    let mut flags = BTreeSet::new();
    for piece in src.split('"').skip(1).step_by(2) {
        // "--help" is deliberately absent from the usage text (it IS
        // the usage text's trigger), so it is not part of the scan.
        if piece.starts_with("--") && !piece.contains(' ') && piece != "--help" {
            flags.insert(piece.to_string());
        }
    }
    assert!(
        flags.len() >= 15,
        "flag scan of rtas_load.rs looks broken: only found {flags:?}"
    );
    let ops = fs::read_to_string(repo_root().join("docs/OPERATIONS.md")).expect("runbook");
    let usage = usage_block(&src);
    let mut failures = Vec::new();
    for flag in &flags {
        if !ops.contains(flag.as_str()) {
            failures.push(format!("{flag} missing from docs/OPERATIONS.md"));
        }
        if !usage.contains(flag.as_str()) {
            failures.push(format!("{flag} missing from rtas-load's usage() text"));
        }
    }
    assert!(
        failures.is_empty(),
        "load-flag drift:\n{}",
        failures.join("\n")
    );
}

/// The `eprintln!` body of `fn usage()` in the load binary's source.
fn usage_block(src: &str) -> String {
    let at = src.find("fn usage()").expect("rtas_load.rs has fn usage()");
    let rest = &src[at..];
    let end = rest.find("std::process::exit").expect("usage() exits");
    rest[..end].to_string()
}

/// Spot-check that the README's service docs track the current CLI
/// surface (the deep per-flag documentation lives in the runbook).
#[test]
fn readme_mentions_the_headline_flags() {
    let readme = fs::read_to_string(repo_root().join("README.md")).expect("README");
    for flag in ["--workers", "--max-conns", "--conns", "--chaos"] {
        assert!(readme.contains(flag), "README.md no longer mentions {flag}");
    }
}
