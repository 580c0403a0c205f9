//! Public API may not land ahead of its caller.
//!
//! Every `pub fn` and `pub const` declared outside `#[cfg(test)]` in a
//! library crate under `crates/*/src` must be named by some other crate:
//! another library crate, a binary (`crates/*/src/main.rs` counts as a
//! crate of its own), `examples/`, the root `tests/`, `crates/*/tests/`
//! or `perfbench/src`. An item that only its own crate names is
//! `pub(crate)`, so rustc's `dead_code` lint sees whether anything but
//! tests reaches it.
//!
//! The match is by name, on whole identifiers outside comment lines, so
//! a common name (`new`, `run`) passes whenever any caller uses it; the
//! audit catches the unique names a new capability brings with it.

use std::fs;
use std::path::{Path, PathBuf};

/// Lists every `.rs` file under `dir`, recursively, sorted.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return out;
    };
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    out
}

/// The file's lines with comment lines blanked and every item under
/// `#[cfg(test)]` removed (a `mod tests { .. }` block or a single item).
fn live_lines(src: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut skipping = false;
    let (mut depth, mut opened) = (0i64, false);
    for (i, line) in src.lines().enumerate() {
        let t = line.trim();
        if skipping {
            let opens = t.matches('{').count() as i64;
            depth += opens - t.matches('}').count() as i64;
            opened |= opens > 0;
            if (opened && depth <= 0) || (!opened && t.ends_with(';')) {
                skipping = false;
            }
            continue;
        }
        if t == "#[cfg(test)]" {
            (skipping, depth, opened) = (true, 0, false);
            continue;
        }
        if !t.starts_with("//") {
            out.push((i + 1, line));
        }
    }
    out
}

/// The name a line declares as `pub fn` or `pub const`, if any.
fn declared(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = match rest.strip_prefix("const ") {
        Some(rest) => rest.strip_prefix("fn ").unwrap_or(rest),
        None => rest.strip_prefix("fn ")?,
    };
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    (end > 0).then_some(&rest[..end])
}

/// Whether `text` contains `name` as a whole identifier.
fn names(text: &str, name: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(name).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + name.len()..].chars().next();
        !before.is_some_and(ident) && !after.is_some_and(ident)
    })
}

#[test]
fn every_public_item_has_a_caller_outside_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // (unit, file) for every source file: each library crate is one
    // unit, each `main.rs` another.
    let mut sources = Vec::new();
    let mut crates: Vec<_> = fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .map(|e| e.expect("readable directory entry").path())
        .collect();
    crates.sort();
    for krate in &crates {
        for file in rust_files(&krate.join("src")) {
            let unit = if file.file_name().is_some_and(|f| f == "main.rs") {
                file.display().to_string()
            } else {
                krate.display().to_string()
            };
            sources.push((unit, file));
        }
    }
    let mut callers: Vec<PathBuf> = ["examples", "tests", "perfbench/src"]
        .iter()
        .flat_map(|d| rust_files(&root.join(d)))
        .collect();
    for krate in &crates {
        callers.extend(rust_files(&krate.join("tests")));
    }

    // Callers' code, tests included, without comment lines.
    let code = |path: &Path| -> String {
        let src = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        src.lines()
            .filter(|l| !l.trim_start().starts_with("//"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let caller_text: Vec<String> = callers.iter().map(|p| code(p)).collect();
    let source_text: Vec<String> = sources.iter().map(|(_, p)| code(p)).collect();

    let mut orphans = Vec::new();
    let mut declared_count = 0;
    for (unit, file) in sources.iter().filter(|(u, _)| !u.ends_with("main.rs")) {
        let src = fs::read_to_string(file).expect("readable source");
        for (line_no, line) in live_lines(&src) {
            let Some(name) = declared(line) else { continue };
            declared_count += 1;
            let named_elsewhere = caller_text.iter().any(|t| names(t, name))
                || sources
                    .iter()
                    .zip(&source_text)
                    .any(|((u, _), t)| u != unit && names(t, name));
            if !named_elsewhere {
                let rel = file.strip_prefix(root).unwrap_or(file);
                orphans.push(format!("{}:{line_no}: {name}", rel.display()));
            }
        }
    }
    assert!(
        declared_count > 100,
        "the scan found only {declared_count} items"
    );
    assert!(
        orphans.is_empty(),
        "{} public items are named by no other crate; make them pub(crate) \
         or delete them:\n  {}",
        orphans.len(),
        orphans.join("\n  ")
    );
}

#[test]
fn scanner_reads_declarations_and_skips_test_items() {
    assert_eq!(declared("    pub fn run(&self) {"), Some("run"));
    assert_eq!(declared("pub const fn zero() -> u64 {"), Some("zero"));
    assert_eq!(declared("pub const LINE: u64 = 64;"), Some("LINE"));
    assert_eq!(declared("pub(crate) fn hidden() {}"), None);
    assert_eq!(declared("pub struct Foo;"), None);
    assert_eq!(declared("pub mod fn_table;"), None);
    let src = "pub fn a() {}\n#[cfg(test)]\nmod tests {\n    pub fn b() {}\n}\n\
               #[cfg(test)]\npub fn c() {}\n// pub fn d() {}\npub fn e() {}\n";
    let found: Vec<_> = live_lines(src)
        .into_iter()
        .filter_map(|(_, l)| declared(l))
        .collect();
    assert_eq!(found, ["a", "e"]);
    assert!(names("x.run()", "run") && !names("x.run_all()", "run"));
}
