//! One report framework for the five bench suites: the [`Suite`] table,
//! a small std-only [`Json`] value with a writer, a parser and a tree
//! diff, and the generic write / summary / GitHub-digest /
//! determinism-check code behind `simcxl-report`.
//!
//! A suite is data: its name, schema and report file, a `run` that
//! executes the workload (asserting the suite's in-process gates) and
//! returns the report body, its pinned completion-stream checksums, and
//! the columns of its GitHub digest. Every report field is a
//! deterministic function of the code, so the committed file is itself
//! the specification: [`Suite::check_committed`] fails when a pinned
//! `checksum` differs from its pin, or when any field of the committed
//! report differs from a fresh regeneration.

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

    /// Reads and parses the committed report file.
    ///
    /// # Errors
    ///
    /// A message naming the file when it cannot be read or parsed.
    pub fn load(&self) -> Result<Json, String> {
        let path = self.path();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
    }

    /// The human-oriented summary: the schema line, then every section
    /// (object-valued top-level member) whole.
    pub fn summary(&self, report: &Json) -> String {
        let mut out = format!(
            "schema {} ({} mode)\n",
            text(report, "schema"),
            text(report, "mode")
        );
        for (name, section) in sections(report) {
            let _ = writeln!(out, "\"{name}\": {section}");
        }
        out
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

    /// Checks every pinned checksum against the pin for the report's
    /// mode. Returns a one-line confirmation.
    ///
    /// # Errors
    ///
    /// A description of the first drifted pin, or of a missing mode,
    /// section or checksum, or of a checksum that is not `0x` plus hex.
    pub fn check_determinism(&self, report: &Json) -> Result<String, String> {
        let mode = report
            .get("mode")
            .and_then(Json::as_str)
            .ok_or("report has no \"mode\" field")?;
        let quick = match mode {
            "full" => false,
            "quick" => true,
            other => return Err(format!("unknown report mode {other:?}")),
        };
        for &(section, full_pin, quick_pin) in self.pins {
            let pinned = if quick { quick_pin } else { full_pin };
            let checksum = report
                .get(section)
                .ok_or_else(|| format!("report has no \"{section}\" section"))?
                .get("checksum")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{section} has no checksum"))?;
            let got = checksum
                .strip_prefix("0x")
                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .ok_or_else(|| format!("unparsable {section} checksum {checksum:?}"))?;
            if got != pinned {
                return Err(format!(
                    "{section} checksum drifted: got {got:#018x}, pinned {pinned:#018x} \
                     ({mode} mode) — the completion stream changed; if intentional, \
                     update the pins in crates/bench/src/{}.rs",
                    self.name
                ));
            }
        }
        Ok(format!(
            "{} {} checksums match their {mode}-mode pins",
            self.pins.len(),
            self.name
        ))
    }

    /// The gate `simcxl-report --check-determinism` runs: the pins hold
    /// in both the committed report and a fresh `regenerated` one, and
    /// the two trees are equal in every field. A moved checksum means a
    /// completion stream changed; any other difference means a counter,
    /// percentile or trajectory moved, or the committed file is stale.
    ///
    /// # Errors
    ///
    /// The first failing pin (committed report first), else the dotted
    /// path of the first field that differs (see [`Json::diff`]).
    pub fn check_committed(&self, committed: &Json, regenerated: &Json) -> Result<String, String> {
        self.check_determinism(committed)
            .map_err(|e| format!("committed {}: {e}", self.file))?;
        let pins = self
            .check_determinism(regenerated)
            .map_err(|e| format!("regenerated report: {e}"))?;
        match committed.diff(regenerated) {
            Some(d) => Err(format!(
                "{} differs from its regeneration at {d} — if the change is \
                 intended, rewrite it with `simcxl-report {} --json`",
                self.file, self.name
            )),
            None => Ok(format!("{pins}; every field of {} reproduces", self.file)),
        }
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
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// `x` printed with `decimals` digits after the point (`null` when
    /// `x` is not finite, which JSON cannot spell).
    pub fn fixed(x: f64, decimals: usize) -> Json {
        if x.is_finite() {
            Json::Num(format!("{x:.decimals$}"))
        } else {
            Json::Null
        }
    }

    /// A checksum: the string `0x` plus 16 hex digits.
    pub fn hex(x: u64) -> Json {
        Json::Str(format!("{x:#018x}"))
    }

    /// An object's members (empty for any other value).
    pub fn members(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(m) => m,
            _ => &[],
        }
    }

    /// The member named `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.members()
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The value at a dotted member path (`"adaptive.rebalances"`).
    pub fn path(&self, dotted: &str) -> Option<&Json> {
        dotted.split('.').try_fold(self, |v, key| v.get(key))
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The first place, in member order, where this (committed) value
    /// and `regenerated` differ, as its dotted path and both sides:
    /// `stress.per_home[2].requests: committed 1234, regenerated 1235`.
    /// A member only one side has is reported as missing or not
    /// regenerated. `None` when the trees are equal.
    pub fn diff(&self, regenerated: &Json) -> Option<String> {
        first_diff("", self, regenerated)
    }

    /// Parses one JSON value (surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// A message with the byte offset of the first malformed token,
    /// including truncated input and trailing characters. Never panics:
    /// the gate feeds it hand-editable committed files.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, at: 0 };
        let v = p.value(0)?;
        p.skip_ws();
        if p.at < text.len() {
            return Err(p.err("trailing characters after the value"));
        }
        Ok(v)
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

fn first_diff(path: &str, committed: &Json, regenerated: &Json) -> Option<String> {
    let here = if path.is_empty() { "(root)" } else { path };
    match (committed, regenerated) {
        (Json::Obj(c), Json::Obj(r)) => {
            let child = |k: &str| {
                if path.is_empty() {
                    k.to_owned()
                } else {
                    format!("{path}.{k}")
                }
            };
            for (k, rv) in r {
                let d = match committed.get(k) {
                    Some(cv) => first_diff(&child(k), cv, rv),
                    None => Some(format!(
                        "{}: missing from committed, regenerated {}",
                        child(k),
                        brief(rv)
                    )),
                };
                if d.is_some() {
                    return d;
                }
            }
            if let Some((k, cv)) = c.iter().find(|(k, _)| regenerated.get(k).is_none()) {
                return Some(format!(
                    "{}: committed {}, not regenerated",
                    child(k),
                    brief(cv)
                ));
            }
            let same_order = c.iter().map(|(k, _)| k).eq(r.iter().map(|(k, _)| k));
            (!same_order).then(|| format!("{here}: members differ in order or count"))
        }
        (Json::Arr(c), Json::Arr(r)) => {
            let d = c
                .iter()
                .zip(r)
                .enumerate()
                .find_map(|(i, (cv, rv))| first_diff(&format!("{path}[{i}]"), cv, rv));
            d.or_else(|| {
                (c.len() != r.len()).then(|| {
                    format!(
                        "{here}: committed {} elements, regenerated {}",
                        c.len(),
                        r.len()
                    )
                })
            })
        }
        _ => (committed != regenerated).then(|| {
            format!(
                "{here}: committed {}, regenerated {}",
                brief(committed),
                brief(regenerated)
            )
        }),
    }
}

/// A value as a diff message shows it: scalars whole, containers by
/// kind and size.
fn brief(v: &Json) -> String {
    match v {
        Json::Arr(items) => format!("an array of {}", items.len()),
        Json::Obj(members) => format!("an object of {} members", members.len()),
        scalar => scalar.to_string(),
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

/// Nesting beyond this is rejected rather than recursed into.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.at)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    /// Skips whitespace, then consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        let hit = self.peek() == Some(b);
        self.at += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", char::from(b))))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => {
                self.at += 1;
                let mut members = Vec::new();
                if !self.eat(b'}') {
                    loop {
                        self.skip_ws();
                        let key = self.string()?;
                        self.expect(b':')?;
                        members.push((key, self.value(depth + 1)?));
                        if self.eat(b'}') {
                            break;
                        }
                        self.expect(b',')?;
                    }
                }
                Ok(Json::Obj(members))
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                if !self.eat(b']') {
                    loop {
                        items.push(self.value(depth + 1)?);
                        if self.eat(b']') {
                            break;
                        }
                        self.expect(b',')?;
                    }
                }
                Ok(Json::Arr(items))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(_) => self.number(),
        }
    }

    fn word(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.text[self.at..].starts_with(word) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(self.err("unexpected token"))
        }
    }

    /// Consumes a run of ASCII digits; true if there was at least one.
    fn digits(&mut self) -> bool {
        let start = self.at;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.at += 1;
        }
        self.at > start
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        self.at += usize::from(self.peek() == Some(b'-'));
        let int = self.at;
        let mut ok = self.digits() && !(self.text[int..].starts_with('0') && self.at - int > 1);
        if ok && self.peek() == Some(b'.') {
            self.at += 1;
            ok = self.digits();
        }
        if ok && matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            self.at += usize::from(matches!(self.peek(), Some(b'+' | b'-')));
            ok = self.digits();
        }
        if ok {
            Ok(Json::Num(self.text[start..self.at].to_owned()))
        } else {
            Err(self.err("malformed number"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a string"));
        }
        self.at += 1;
        let mut out = String::new();
        loop {
            let start = self.at;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.at += 1;
            }
            // Stops only at ASCII bytes or the end: both char boundaries.
            out.push_str(&self.text[start..self.at]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// The character of the escape after a backslash.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                // Surrogate escapes (never written here) are rejected.
                self.at += 1;
                let code = self.hex4()?;
                return char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"));
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.at += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let code = self
            .text
            .get(self.at..self.at + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.at += 4;
        Ok(code)
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

    /// Appends a digit to the first number in the last element of the
    /// first array of objects (depth first), returning its dotted path.
    fn edit_array_leaf(v: &mut Json, path: &str) -> Option<String> {
        match v {
            Json::Obj(members) => members.iter_mut().find_map(|(k, v)| {
                let child = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                edit_array_leaf(v, &child)
            }),
            Json::Arr(items) => {
                let last = items.len().checked_sub(1)?;
                let Json::Obj(members) = &mut items[last] else {
                    return None;
                };
                members.iter_mut().find_map(|(k, v)| match v {
                    Json::Num(n) => {
                        n.push('1');
                        Some(format!("{path}[{last}].{k}"))
                    }
                    _ => None,
                })
            }
            _ => None,
        }
    }

    /// The one generic per-suite report test: the quick report survives
    /// a write/parse round trip and passes the gate against itself; a
    /// flipped checksum bit, a non-hex checksum or a missing pinned
    /// section are reported; and an edited leaf inside an array element,
    /// a removed member and an added member are each named by their
    /// dotted path.
    pub(crate) fn check_suite(suite: &Suite) {
        let report = quick_report(suite);
        let written = report.to_string();
        assert_eq!(Json::parse(&written).as_ref(), Ok(report));
        assert_eq!(
            report.get("schema").and_then(Json::as_str),
            Some(suite.schema)
        );
        if let Err(e) = suite.check_committed(report, report) {
            panic!("{}: {e}", suite.name);
        }
        let check = |text: &str| {
            let edited = Json::parse(text).expect("edited report parses");
            suite.check_committed(&edited, report)
        };
        for &(section, _, pin) in suite.pins {
            let pinned = format!("{pin:#018x}");
            assert_eq!(
                written.matches(&pinned).count(),
                1,
                "{section} pin is ambiguous"
            );
            let flipped = written.replace(&pinned, &format!("{:#018x}", pin ^ 1));
            let err = check(&flipped).unwrap_err();
            assert!(
                err.contains(&format!("{section} checksum drifted")),
                "{err}"
            );
            let err = check(&written.replace(&pinned, "0xnot-hex")).unwrap_err();
            assert!(err.contains("unparsable"), "{err}");
            let missing = Json::Obj(
                report
                    .members()
                    .iter()
                    .filter(|(k, _)| k != section)
                    .cloned()
                    .collect(),
            );
            let err = suite.check_determinism(&missing).unwrap_err();
            assert!(err.contains(&format!("no \"{section}\" section")), "{err}");
        }
        let names_path = |edited: &Json, path: &str| {
            let err = suite.check_committed(edited, report).unwrap_err();
            assert!(err.contains(&format!(" at {path}: ")), "{err}");
        };
        let mut edited = report.clone();
        let leaf = edit_array_leaf(&mut edited, "").expect("report has an array of objects");
        assert!(
            ["per_home[", "phases[", "adaptive.epochs[", "rows["]
                .iter()
                .any(|a| leaf.contains(a)),
            "{leaf}"
        );
        names_path(&edited, &leaf);
        let (name, _) = sections(report).next().expect("report has a section");
        let mut removed = report.clone();
        let (gone, _) = section_mut(&mut removed, name)
            .pop()
            .expect("section has members");
        names_path(&removed, &format!("{name}.{gone}"));
        let mut added = report.clone();
        section_mut(&mut added, name).push(("hand_added".into(), Json::from(1u32)));
        names_path(&added, &format!("{name}.hand_added"));
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

    /// The committed reports are full-mode, carry their suite's schema
    /// and match every full-mode pin. Reading them is cheap; the
    /// regeneration half of the gate (`simcxl-report all
    /// --check-determinism`) runs the full workloads, so it is a
    /// release-build CI step.
    #[test]
    fn committed_reports_are_full_mode_and_pinned() {
        for suite in &SUITES {
            let report = suite.load().unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(text(&report, "mode"), "full", "{}", suite.file);
            assert_eq!(text(&report, "schema"), suite.schema, "{}", suite.file);
            if let Err(e) = suite.check_determinism(&report) {
                panic!("{}: {e}", suite.file);
            }
        }
    }

    #[test]
    fn parser_rejects_truncated_unterminated_and_trailing_input() {
        let deep = "[".repeat(MAX_DEPTH + 2);
        for bad in [
            "",
            "{",
            "{\"mode\": \"quick\"",
            "{\"a\": [1, 2",
            "{\"a\" 1}",
            "[1,]",
            "\"unterminated",
            "{\"mode\": \"quick}",
            "{} trailing",
            "[1] [2]",
            "01",
            "1.",
            "-",
            "1e",
            "tru",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\udc00\"",
            "\"\\ud83d\\ude00\"",
            "\"tab\there\"",
            &deep,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn writer_and_parser_round_trip_escapes_numbers_and_literals() {
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
        let text = v.to_string();
        assert!(text.contains("\"fixed\": 0.1000"), "{text}");
        assert!(text.contains("\"hex\": \"0x00000000000000fe\""), "{text}");
        assert_eq!(Json::parse(&text), Ok(v));
        assert_eq!(
            Json::parse(" [\"\\u00e9\\/\", -0.5e-3, 1E+2] \n"),
            Ok(Json::Arr(vec![
                Json::from("é/"),
                Json::Num("-0.5e-3".into()),
                Json::Num("1E+2".into()),
            ]))
        );
        assert_eq!(Json::fixed(f64::NAN, 2), Json::Null);
    }

    #[test]
    fn diff_names_reordered_members_resized_arrays_and_root_changes() {
        let v = |text: &str| Json::parse(text).expect("test JSON parses");
        let base = v(r#"{"x": {"a": 1, "b": [1, 2]}}"#);
        assert_eq!(base.diff(&base), None);
        assert_eq!(
            base.diff(&v(r#"{"x": {"b": [1, 2], "a": 1}}"#)).as_deref(),
            Some("x: members differ in order or count")
        );
        assert_eq!(
            base.diff(&v(r#"{"x": {"a": 1, "b": [1, 2, 3]}}"#))
                .as_deref(),
            Some("x.b: committed 2 elements, regenerated 3")
        );
        assert_eq!(
            base.diff(&v(r#"{"x": [1]}"#)).as_deref(),
            Some("x: committed an object of 2 members, regenerated an array of 1")
        );
        assert_eq!(
            Json::from(1u32).diff(&Json::Null).as_deref(),
            Some("(root): committed 1, regenerated null")
        );
    }

    /// The brace-matching extractor this parser replaced stopped scalars
    /// at the first comma, cutting a `TopologySpec` debug string short.
    #[test]
    fn committed_scenarios_topology_reads_back_whole() {
        let report = crate::scenarios::SUITE
            .load()
            .expect("BENCH_scenarios.json parses");
        assert_eq!(
            report
                .path("ramp_then_burst.topology")
                .and_then(Json::as_str),
            Some("Interleaved { homes: 4, stride: 4096 }")
        );
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
