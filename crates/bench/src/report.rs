//! One report framework for the five bench suites: the [`Suite`] table,
//! a small std-only [`Json`] value and its writer, and the generic
//! write / GitHub-digest / determinism-check code behind `simcxl-report`.
//!
//! A suite is data: its name, schema and report file, a `run` that
//! executes the workload (asserting the suite's in-process gates) and
//! returns the report body, its pinned completion-stream checksums, and
//! the columns of its GitHub digest. Every report field is a
//! deterministic function of the code and the committed file is exactly
//! the writer's output, so the file is itself the specification:
//! [`Suite::check_committed`] fails when a pinned `checksum` of a fresh
//! regeneration differs from its pin, or when the committed file differs
//! from the regeneration in any byte.

use std::fmt::{self, Write as _};
use std::path::PathBuf;

/// Every bench suite, in the order `simcxl-report all` checks them.
pub const SUITES: [Suite; 5] = [
    crate::hotpath::SUITE,
    crate::scenarios::SUITE,
    crate::faults::SUITE,
    crate::rebalance::SUITE,
    crate::figures::SUITE,
];

/// Looks a suite up by its `simcxl-report` name.
pub fn suite(name: &str) -> Option<&'static Suite> {
    SUITES.iter().find(|s| s.name == name)
}

/// One bench suite and its committed `BENCH_<name>.json` report.
#[derive(Debug)]
pub struct Suite {
    /// The `simcxl-report` argument naming the suite.
    pub name: &'static str,
    /// The report's `schema` value.
    pub schema: &'static str,
    /// The report's file name at the workspace root.
    pub file: &'static str,
    /// Runs the full (`false`) workload of the committed report or the
    /// quick (`true`) one the unit tests use, asserting the suite's
    /// in-process gates, and returns the report body: an object of the
    /// members that follow `schema` and `mode`.
    pub run: fn(bool) -> Json,
    /// `(section, full-mode pin, quick-mode pin)`: the `checksum` of
    /// each named section must equal the pin for the report's mode.
    pub pins: &'static [(&'static str, u64, u64)],
    /// GitHub digest columns: `(header, dotted path within a section)`.
    pub columns: &'static [(&'static str, &'static str)],
}

impl Suite {
    /// Workspace-root path of the report (anchored via the crate
    /// manifest, so running from a subdirectory cannot fork a copy).
    fn path(&self) -> PathBuf {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(self.file)
    }

    /// Runs the suite and returns the whole report.
    pub fn report(&self, quick: bool) -> Json {
        let Json::Obj(body) = (self.run)(quick) else {
            panic!("{} run must return an object", self.name);
        };
        let mode = if quick { "quick" } else { "full" };
        let mut members = vec![
            ("schema".to_owned(), Json::from(self.schema)),
            ("mode".to_owned(), Json::from(mode)),
        ];
        members.extend(body);
        Json::Obj(members)
    }

    /// Runs the full workload and writes the report file.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the file cannot be written.
    pub fn write(&self) -> std::io::Result<Json> {
        let report = self.report(false);
        std::fs::write(self.path(), format!("{report}\n"))?;
        Ok(report)
    }

    /// The committed report file's text.
    ///
    /// # Errors
    ///
    /// A message naming the file when it cannot be read.
    pub fn committed(&self) -> Result<String, String> {
        let path = self.path();
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    }

    /// The GitHub-flavored markdown digest CI appends to
    /// `$GITHUB_STEP_SUMMARY`: one table row per section, one cell per
    /// [`columns`](Self::columns) entry (`–` where a section lacks it).
    pub fn github_summary(&self, report: &Json) -> String {
        let mut out = format!(
            "### {} ({} mode, schema {})\n\n| case |",
            self.name,
            text(report, "mode"),
            text(report, "schema")
        );
        for (header, _) in self.columns {
            let _ = write!(out, " {header} |");
        }
        out.push_str("\n|---|");
        out.push_str(&"---:|".repeat(self.columns.len()));
        out.push('\n');
        for (name, section) in sections(report) {
            let _ = write!(out, "| {name} |");
            for (_, path) in self.columns {
                let _ = match section.path(path) {
                    Some(Json::Str(s)) => write!(out, " `{s}` |"),
                    Some(v) => write!(out, " {v} |"),
                    None => write!(out, " – |"),
                };
            }
            out.push('\n');
        }
        out
    }

    /// The gate `simcxl-report --check-determinism` runs: every pinned
    /// `checksum` of the `regenerated` report equals its pin for the
    /// report's mode, and the `committed` file is the regenerated
    /// report's writer output byte for byte. A moved checksum means a
    /// completion stream changed; any other difference means a counter,
    /// percentile or trajectory moved, or the committed file is stale or
    /// was edited by hand.
    ///
    /// # Errors
    ///
    /// The first drifted (or missing) pinned checksum, else the first
    /// differing line: its 1-based number, its dotted path in the
    /// regenerated report, and both lines.
    pub fn check_committed(&self, committed: &str, regenerated: &Json) -> Result<String, String> {
        let mode = text(regenerated, "mode");
        for &(section, full_pin, quick_pin) in self.pins {
            let pinned = if mode == "quick" { quick_pin } else { full_pin };
            let got = regenerated.get(section).and_then(|s| s.get("checksum"));
            if got != Some(&Json::hex(pinned)) {
                let got = got.map_or_else(|| "none".to_owned(), Json::to_string);
                return Err(format!(
                    "regenerated {section} checksum drifted: got {got}, pinned {pinned:#018x} \
                     ({mode} mode) — the completion stream changed; if intentional, \
                     update the pins in crates/bench/src/{}.rs",
                    self.name
                ));
            }
        }
        let expected = format!("{regenerated}\n");
        if committed == expected {
            return Ok(format!(
                "{} {} checksums match their {mode}-mode pins; {} reproduces byte for byte",
                self.pins.len(),
                self.name,
                self.file
            ));
        }
        let (c, e): (Vec<&str>, Vec<&str>) = (
            committed.split('\n').collect(),
            expected.split('\n').collect(),
        );
        let differs = |trim: fn(&str) -> &str| {
            (0..c.len().max(e.len()))
                .find(|&i| c.get(i).map(|l| trim(l)) != e.get(i).map(|l| trim(l)))
        };
        // Trailing commas are ignored first, so an added or removed last
        // member is blamed on its own line, not on the line before it
        // that gained or lost a comma.
        let i = differs(|l| l.strip_suffix(',').unwrap_or(l))
            .or_else(|| differs(|l| l))
            .expect("unequal texts differ in some line");
        let mut paths = Vec::new();
        regenerated.line_paths("", &mut paths);
        let path = match paths.get(i).map_or("", String::as_str) {
            "" => "(root)",
            p => p,
        };
        Err(format!(
            "{} line {} ({path}) differs from its regeneration — if the change \
             is intended, rewrite it with `simcxl-report {} --json`\n  \
             committed:   {}\n  regenerated: {}",
            self.file,
            i + 1,
            self.name,
            c.get(i).unwrap_or(&"(end of file)"),
            e.get(i).unwrap_or(&"(end of file)"),
        ))
    }
}

/// The object-valued top-level members of a report.
fn sections(report: &Json) -> impl Iterator<Item = (&str, &Json)> {
    report
        .members()
        .iter()
        .filter(|(_, v)| matches!(v, Json::Obj(_)))
        .map(|(k, v)| (k.as_str(), v))
}

fn text<'a>(report: &'a Json, key: &str) -> &'a str {
    report.get(key).and_then(Json::as_str).unwrap_or("?")
}

/// A JSON value. Object members keep their order, and numbers keep
/// their literal text, so a report's printed precision (and every `u64`
/// digit) survives a write/parse round trip exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its literal text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub(crate) fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// `x` printed with `decimals` digits after the point (`null` when
    /// `x` is not finite, which JSON cannot spell).
    pub(crate) fn fixed(x: f64, decimals: usize) -> Json {
        if x.is_finite() {
            Json::Num(format!("{x:.decimals$}"))
        } else {
            Json::Null
        }
    }

    /// A checksum: the string `0x` plus 16 hex digits.
    pub(crate) fn hex(x: u64) -> Json {
        Json::Str(format!("{x:#018x}"))
    }

    /// An object's members (empty for any other value).
    pub(crate) fn members(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(m) => m,
            _ => &[],
        }
    }

    /// The member named `key`, if this is an object that has one.
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        self.members()
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The value at a dotted member path (`"adaptive.rebalances"`).
    pub(crate) fn path(&self, dotted: &str) -> Option<&Json> {
        dotted.split('.').try_fold(self, |v, key| v.get(key))
    }

    /// The string, if this is one.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    /// Whether the writer puts this container on one line: every child
    /// is a scalar or an array of scalars.
    fn is_flat(&self) -> bool {
        let flat =
            |v: &Json| v.is_scalar() || matches!(v, Json::Arr(a) if a.iter().all(Json::is_scalar));
        match self {
            Json::Arr(items) => items.iter().all(flat),
            _ => self.members().iter().all(|(_, v)| flat(v)),
        }
    }

    /// Appends the dotted path of every line the writer prints for
    /// this value at `path`, in order (shares [`is_flat`](Self::is_flat)
    /// with the writer). Values on a one-line container are named by the
    /// container; a multi-line one names its opening and closing lines.
    fn line_paths(&self, path: &str, out: &mut Vec<String>) {
        out.push(path.to_owned());
        if self.is_flat() {
            return;
        }
        if let Json::Arr(items) = self {
            for (i, v) in items.iter().enumerate() {
                v.line_paths(&format!("{path}[{i}]"), out);
            }
        }
        for (k, v) in self.members() {
            let child = if path.is_empty() {
                k.clone()
            } else {
                format!("{path}.{k}")
            };
            v.line_paths(&child, out);
        }
        out.push(path.to_owned());
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let items: Vec<(Option<&str>, &Json)> = match self {
            Json::Null => return f.write_str("null"),
            Json::Bool(b) => return write!(f, "{b}"),
            Json::Num(n) => return f.write_str(n),
            Json::Str(s) => return write_string(f, s),
            Json::Arr(items) => items.iter().map(|v| (None, v)).collect(),
            Json::Obj(members) => members.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
        };
        let (open, close) = if matches!(self, Json::Arr(_)) {
            ('[', ']')
        } else {
            ('{', '}')
        };
        let flat = self.is_flat();
        f.write_char(open)?;
        for (i, (key, v)) in items.iter().enumerate() {
            if i > 0 {
                f.write_str(if flat { ", " } else { "," })?;
            }
            if !flat {
                write!(f, "\n{:w$}", "", w = indent + 2)?;
            }
            if let Some(key) = key {
                write_string(f, key)?;
                f.write_str(": ")?;
            }
            v.write(f, indent + 2)?;
        }
        if !flat && !items.is_empty() {
            write!(f, "\n{:indent$}", "")?;
        }
        f.write_char(close)
    }
}

/// The writer: containers of scalars on one line, anything deeper one
/// member per line at two-space indentation.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            c if u32::from(c) < 0x20 => write!(f, "\\u{:04x}", u32::from(c))?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n.to_string())
            }
        }
    )*};
}
json_from_int!(u32, u64, usize);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Copy + Into<Json>> From<&[T]> for Json {
    fn from(items: &[T]) -> Json {
        Json::Arr(items.iter().map(|&x| x.into()).collect())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::OnceLock;

    /// The suite's quick report, run once per test process.
    pub(crate) fn quick_report(suite: &Suite) -> &'static Json {
        static REPORTS: [OnceLock<Json>; SUITES.len()] = [const { OnceLock::new() }; SUITES.len()];
        let i = SUITES
            .iter()
            .position(|s| s.name == suite.name)
            .expect("suite is listed in SUITES");
        REPORTS[i].get_or_init(|| suite.report(true))
    }

    /// The one generic per-suite report test: the quick report's text
    /// passes the gate against itself; a flipped or missing pinned
    /// checksum in the regeneration is reported as drift; the gate's line
    /// paths follow the writer line for line; and a whitespace edit, a
    /// removed member and an added member each fail naming their line.
    pub(crate) fn check_suite(suite: &Suite) {
        let report = quick_report(suite);
        let written = format!("{report}\n");
        assert_eq!(text(report, "schema"), suite.schema);
        if let Err(e) = suite.check_committed(&written, report) {
            panic!("{}: {e}", suite.name);
        }
        for &(section, _, pin) in suite.pins {
            let mut drifted = report.clone();
            section_mut(&mut drifted, section).retain(|(k, _)| k != "checksum");
            let missing = suite.check_committed(&written, &drifted).unwrap_err();
            section_mut(&mut drifted, section).push(("checksum".into(), Json::hex(pin ^ 1)));
            let flipped = suite.check_committed(&written, &drifted).unwrap_err();
            for err in [missing, flipped] {
                assert!(
                    err.contains(&format!("{section} checksum drifted")),
                    "{err}"
                );
            }
        }
        let mut paths = Vec::new();
        report.line_paths("", &mut paths);
        let lines: Vec<&str> = written.lines().collect();
        assert_eq!(paths.len(), lines.len(), "one path per written line");
        for (line, path) in lines.iter().zip(&paths) {
            let member = line.trim_start().strip_prefix('"');
            if let Some((key, _)) = member.and_then(|m| m.split_once("\": ")) {
                assert!(
                    path == key || path.ends_with(&format!(".{key}")),
                    "{line}: {path}"
                );
            }
        }
        let fails_at = |committed: &str, path: &str| {
            let err = suite.check_committed(committed, report).unwrap_err();
            assert!(err.contains(&format!(" ({path}")), "{err}");
        };
        fails_at(&written.replacen("\n  ", "\n   ", 1), "schema)");
        fails_at(written.trim_end(), "(root))");
        let (name, _) = sections(report).next().expect("report has a section");
        let mut removed = report.clone();
        section_mut(&mut removed, name).pop();
        fails_at(&format!("{removed}\n"), name);
        let mut added = report.clone();
        section_mut(&mut added, name).push(("hand_added".into(), Json::from(1u32)));
        fails_at(&format!("{added}\n"), &format!("{name})"));
    }

    /// The members of a report's section `name`.
    fn section_mut<'a>(report: &'a mut Json, name: &str) -> &'a mut Vec<(String, Json)> {
        let Json::Obj(members) = report else {
            panic!("reports are objects");
        };
        match members.iter_mut().find(|(k, _)| k == name) {
            Some((_, Json::Obj(section))) => section,
            _ => panic!("no section {name}"),
        }
    }

    /// The gate's message on a small report: the first differing line's
    /// number, its dotted path (a value on a one-line container is named
    /// by the container) and both whole lines; a removed or added last
    /// member is blamed on its own line, not on the comma before it.
    #[test]
    fn gate_names_the_first_differing_line() {
        let suite = Suite {
            name: "toy",
            file: "BENCH_toy.json",
            pins: &[],
            ..crate::faults::SUITE
        };
        let report = |requests: u32, added: Option<u32>| {
            let home = |i: u32, n: u32| {
                Json::obj([("home", i), ("requests", n)].map(|(k, v)| (k, Json::from(v))))
            };
            let mut section = vec![
                ("per_home", Json::Arr(vec![home(0, 7), home(1, requests)])),
                ("events", Json::from(9u32)),
            ];
            section.extend(added.map(|x| ("hand_added", Json::from(x))));
            Json::obj([
                ("mode", Json::from("full")),
                ("multihome", Json::obj(section)),
            ])
        };
        let regenerated = report(5, None);
        let written = format!("{regenerated}\n");
        assert_eq!(
            written,
            "{\n  \"mode\": \"full\",\n  \"multihome\": {\n    \"per_home\": [\n      \
             {\"home\": 0, \"requests\": 7},\n      {\"home\": 1, \"requests\": 5}\n    ],\n    \
             \"events\": 9\n  }\n}\n"
        );
        assert!(suite.check_committed(&written, &regenerated).is_ok());
        let fails_at = |committed: &str, regenerated: &Json, needle: &str| {
            let err = suite.check_committed(committed, regenerated).unwrap_err();
            assert!(err.contains(needle), "{err}");
        };
        fails_at(
            &format!("{}\n", report(6, None)),
            &regenerated,
            "BENCH_toy.json line 6 (multihome.per_home[1]) differs from its regeneration — \
             if the change is intended, rewrite it with `simcxl-report toy --json`\n  \
             committed:         {\"home\": 1, \"requests\": 6}\n  \
             regenerated:       {\"home\": 1, \"requests\": 5}",
        );
        let added = report(5, Some(1));
        fails_at(
            &format!("{added}\n"),
            &regenerated,
            "line 9 (multihome) differs",
        );
        fails_at(&written, &added, "line 9 (multihome.hand_added) differs");
        let spaced = written.replace(": 9", ":  9");
        fails_at(&spaced, &regenerated, "line 8 (multihome.events) differs");
    }

    /// Every committed report opens with its suite's schema in full mode
    /// and carries each full-mode pin as its section's `checksum`.
    /// Reading the files is cheap; the regeneration half of the gate
    /// (`simcxl-report all --check-determinism`) runs the full
    /// workloads, so it is a release-build CI step.
    #[test]
    fn committed_reports_are_full_mode_and_pinned() {
        for suite in &SUITES {
            let text = suite.committed().unwrap_or_else(|e| panic!("{e}"));
            let header = format!(
                "{{\n  \"schema\": \"{}\",\n  \"mode\": \"full\",\n",
                suite.schema
            );
            assert!(text.starts_with(&header), "{}: header", suite.file);
            for &(section, pin, _) in suite.pins {
                let body = text
                    .split_once(&format!("\n  \"{section}\": {{\n"))
                    .map(|(_, rest)| rest.split_once("\n  }").map_or(rest, |(body, _)| body));
                let checksum = format!("    \"checksum\": \"{pin:#018x}\"");
                assert!(
                    body.is_some_and(|b| b.lines().any(|l| l.trim_end_matches(',') == checksum)),
                    "{}: {section} lacks its full-mode pin {pin:#018x}",
                    suite.file
                );
            }
        }
    }

    #[test]
    fn missing_report_is_named() {
        let missing = Suite {
            file: "BENCH_missing.json",
            ..crate::faults::SUITE
        };
        let err = missing.committed().unwrap_err();
        assert!(
            err.contains("cannot read") && err.contains("BENCH_missing"),
            "{err}"
        );
    }

    #[test]
    fn writer_escapes_strings_and_keeps_number_text() {
        let v = Json::obj([
            (
                "text",
                Json::from("quote \" backslash \\ newline \n bell \u{7} é"),
            ),
            ("fixed", Json::fixed(0.1, 4)),
            ("big", Json::from(u64::MAX)),
            ("hex", Json::hex(0xfe)),
            (
                "flags",
                Json::Arr(vec![Json::Bool(true), Json::Bool(false), Json::Null]),
            ),
            (
                "nested",
                Json::obj([("empty", Json::Arr(vec![])), ("x", Json::fixed(-1.5e3, 1))]),
            ),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{
  "text": "quote \" backslash \\ newline \u000a bell \u0007 é",
  "fixed": 0.1000,
  "big": 18446744073709551615,
  "hex": "0x00000000000000fe",
  "flags": [true, false, null],
  "nested": {"empty": [], "x": -1500.0}
}"#
        );
        assert_eq!(Json::fixed(f64::NAN, 2), Json::Null);
    }

    fn keys<'a>(v: &'a Json, out: &mut BTreeSet<&'a str>) {
        match v {
            Json::Obj(members) => {
                for (k, v) in members {
                    out.insert(k);
                    keys(v, out);
                }
            }
            Json::Arr(items) => items.iter().for_each(|v| keys(v, out)),
            _ => {}
        }
    }

    #[test]
    fn readme_documents_every_report_key() {
        let readme = include_str!("../../../README.md");
        for suite in &SUITES {
            let mut found = BTreeSet::new();
            keys(quick_report(suite), &mut found);
            found.retain(|k| !readme.contains(&format!("`{k}`")));
            assert!(
                found.is_empty(),
                "{} keys missing from README.md: {found:?}",
                suite.name
            );
        }
    }
}
