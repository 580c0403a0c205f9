//! One report framework for the four bench suites: the [`Suite`] table,
//! a small std-only [`Json`] value with a writer and a parser, and the
//! generic write / summary / GitHub-digest / determinism-check code that
//! `simcxl-report` and the bench targets share.
//!
//! A suite is data: its name, schema and report file, a `run` that
//! executes the workload (asserting the suite's in-process gates) and
//! returns the report body, its pinned completion-stream checksums, and
//! the columns of its GitHub digest. The pins are the behavioural
//! specification: [`Suite::check_determinism`] fails when a pinned
//! section's `checksum` differs from its pin for the report's mode.

use std::fmt::{self, Write as _};
use std::path::PathBuf;

/// Every bench suite, in the order `simcxl-report all` checks them.
pub const SUITES: [Suite; 4] = [
    crate::hotpath::SUITE,
    crate::scenarios::SUITE,
    crate::faults::SUITE,
    crate::rebalance::SUITE,
];

/// Looks a suite up by its `simcxl-report` name.
pub fn suite(name: &str) -> Option<&'static Suite> {
    SUITES.iter().find(|s| s.name == name)
}

/// Whether the bench targets run their quick (CI smoke) workloads:
/// `BENCH_QUICK` set to anything but `0`.
pub fn bench_quick() -> bool {
    std::env::var_os("BENCH_QUICK").is_some_and(|v| v != "0")
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
    /// Runs the full (`false`) or quick (`true`) workload, asserting the
    /// suite's in-process gates, and returns the report body: an object
    /// of the members that follow `schema` and `mode`.
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

    /// Runs the suite and writes its report file.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the file cannot be written.
    pub fn write(&self, quick: bool) -> std::io::Result<Json> {
        let report = self.report(quick);
        std::fs::write(self.path(), format!("{report}\n"))?;
        Ok(report)
    }

    /// Reads and parses the written report file.
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
    /// This is the gating half of the CI perf jobs: throughput stays
    /// non-gating (containers are noisy), but a moved checksum means a
    /// completion stream changed and must fail unless the pin is updated
    /// alongside the change.
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

    /// Parses one JSON value (surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// A message with the byte offset of the first malformed token,
    /// including truncated input and trailing characters. Never panics:
    /// CI gates feed it downloaded artifacts.
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

    /// The one generic per-suite report test: the quick report survives
    /// a write/parse round trip, every pin matches it, and a flipped
    /// checksum bit, a non-hex checksum or a missing pinned section are
    /// all reported.
    pub(crate) fn check_suite(suite: &Suite) {
        let report = quick_report(suite);
        let written = report.to_string();
        assert_eq!(Json::parse(&written).as_ref(), Ok(report));
        assert_eq!(
            report.get("schema").and_then(Json::as_str),
            Some(suite.schema)
        );
        if let Err(e) = suite.check_determinism(report) {
            panic!("{}: {e}", suite.name);
        }
        let check =
            |text: &str| suite.check_determinism(&Json::parse(text).expect("edited report parses"));
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
