//! One JSON value for every tracked `BENCH_<name>.json` report.
//!
//! Each harness builds its report as a [`Json`] tree. [`Json::render`]
//! is the only formatter and [`Json::parse`] its inverse, and the key
//! set the drift gate compares ([`Json::key_paths`]) is read from the
//! same tree that is written. The layout has one rule: objects print
//! one key per line at a two-space indent, arrays of scalars print on
//! one line, and any other array prints one element per line.

use std::collections::BTreeSet;
use std::fmt;

/// A JSON value. Numbers, booleans and `null` keep their literal text,
/// so a value renders exactly as it was formatted or parsed; object
/// keys keep their order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A number, `true`, `false` or `null`, as written.
    Lit(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// `x` with `decimals` digits after the point. A non-finite `x`
    /// renders as `null`, so a report never holds a token JSON lacks.
    pub fn fixed(x: f64, decimals: usize) -> Json {
        Json::Lit(if x.is_finite() { format!("{x:.decimals$}") } else { "null".into() })
    }

    /// An object with `pairs` in order.
    pub fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(key, value)| (key.to_string(), value)).collect())
    }

    /// An array of `items`.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// The document text: this value followed by a newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let entries: Vec<(Option<&str>, &Json)> = match self {
            Json::Lit(text) => return out.push_str(text),
            Json::Str(s) => return write_str(out, s),
            Json::Arr(items) => items.iter().map(|v| (None, v)).collect(),
            Json::Obj(pairs) => pairs.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
        };
        let (open, close) = if let Json::Arr(_) = self { ('[', ']') } else { ('{', '}') };
        // Arrays of scalars stay on one line; any other entry gets a line of its own.
        let inline =
            entries.iter().all(|(k, v)| k.is_none() && matches!(v, Json::Lit(_) | Json::Str(_)));
        out.push(open);
        for (i, (key, value)) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if !inline {
                out.push_str(&format!("\n{:1$}", "", indent + 2));
            } else if i > 0 {
                out.push(' ');
            }
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            value.write(out, indent + 2);
        }
        if !inline {
            out.push_str(&format!("\n{:1$}", "", indent));
        }
        out.push(close);
    }

    /// Parse a document as [`Json::render`] writes it: one value, then
    /// whitespace ending in a newline. Requiring the final newline makes
    /// every truncated document an error, even one cut at its last byte.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text, pos: 0 };
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos < text.len() {
            return Err(p.error("the end of the document"));
        }
        if !text.ends_with('\n') {
            return Err(p.error("a newline at the end of the document"));
        }
        Ok(value)
    }

    /// Every key path of the tree, sorted and deduplicated. A member of
    /// an object is `parent.key`; a member of the objects inside an
    /// array is `array[].key`, so a key dropped from the rows of one
    /// array changes the set. Values do not take part.
    pub fn key_paths(&self) -> Vec<String> {
        let mut paths = BTreeSet::new();
        self.collect_paths("", &mut paths);
        paths.into_iter().collect()
    }

    fn collect_paths(&self, prefix: &str, paths: &mut BTreeSet<String>) {
        match self {
            Json::Obj(pairs) => {
                for (key, value) in pairs {
                    let path =
                        if prefix.is_empty() { key.clone() } else { format!("{prefix}.{key}") };
                    value.collect_paths(&path, paths);
                    paths.insert(path);
                }
            }
            Json::Arr(items) => {
                let path = format!("{prefix}[]");
                items.iter().for_each(|item| item.collect_paths(&path, paths));
            }
            Json::Lit(_) | Json::Str(_) => {}
        }
    }
}

macro_rules! from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Lit(n.to_string())
            }
        }
    )*};
}
from_integer!(u32, u64, usize);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Lit(b.to_string())
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Where [`Json::parse`] stopped and what it expected there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the document.
    pub offset: usize,
    pub expected: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expected {} at byte {}", self.expected, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Arrays and objects nest at most this deep, so a hostile file cannot
/// exhaust the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, expected: &'static str) -> JsonError {
        JsonError { offset: self.pos, expected }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, byte: u8, expected: &'static str) -> Result<(), JsonError> {
        self.eat(byte).then_some(()).ok_or_else(|| self.error(expected))
    }

    /// Advance past the bytes matching `pred`; returns how many.
    fn skip_while(&mut self, pred: impl Fn(u8) -> bool) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(&pred) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn skip_ws(&mut self) {
        self.skip_while(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'));
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(self.error("nesting at most 64 deep")),
            Some(b'[') => Ok(Json::Arr(self.seq(b']', "',' or ']'", |p| p.value(depth + 1))?)),
            Some(b'{') => Ok(Json::Obj(self.seq(b'}', "',' or '}'", |p| p.member(depth + 1))?)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't' | b'f' | b'n') => {
                let rest = &self.text[self.pos..];
                let word = ["true", "false", "null"].into_iter().find(|w| rest.starts_with(w));
                let word = word.ok_or_else(|| self.error("true, false or null"))?;
                self.pos += word.len();
                Ok(Json::Lit(word.to_string()))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("a value")),
        }
    }

    /// The comma-separated `item`s after an opening bracket, up to `close`.
    fn seq<T>(
        &mut self,
        close: u8,
        expected: &'static str,
        mut item: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            if self.eat(close) {
                return Ok(items);
            }
            self.expect(b',', expected)?;
        }
    }

    fn member(&mut self, depth: usize) -> Result<(String, Json), JsonError> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':', "':'")?;
        Ok((key, self.value(depth)?))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "a string")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            self.skip_while(|b| b != b'"' && b != b'\\' && b >= b' ');
            // The run stops only at ASCII bytes, so it ends on a char boundary.
            out.push_str(&self.text[start..self.pos]);
            if self.eat(b'"') {
                return Ok(out);
            }
            self.expect(b'\\', "a closing '\"'")?;
            out.push(match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    // Surrogate pairs are not supported.
                    let hex = self.text.get(self.pos + 1..self.pos + 5);
                    let hex = hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
                    let c = hex.and_then(|h| char::from_u32(u32::from_str_radix(h, 16).ok()?));
                    let c = c.ok_or_else(|| {
                        self.error("four hex digits of a non-surrogate code point")
                    })?;
                    self.pos += 4;
                    c
                }
                _ => return Err(self.error("an escape character")),
            });
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') {
            self.digits()?;
        }
        if self.eat(b'.') {
            self.digits()?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits()?;
        }
        Ok(Json::Lit(self.text[start..self.pos].to_string()))
    }

    fn digits(&mut self) -> Result<(), JsonError> {
        let found = self.skip_while(|b| b.is_ascii_digit()) > 0;
        found.then_some(()).ok_or_else(|| self.error("a digit"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_one_layout_and_parses_it_back() {
        let json = Json::obj([
            ("bench", "a \"quoted\"\n\\name".into()),
            ("empty", Json::Arr(vec![])),
            ("kill_run", Json::obj([("kills", 1u64.into()), ("none", Json::obj([]))])),
            ("rows", Json::Arr(vec![Json::obj([("util", Json::Arr(vec![Json::fixed(0.5, 3)]))])])),
        ]);
        let text = r#"{
  "bench": "a \"quoted\"\n\\name",
  "empty": [],
  "kill_run": {
    "kills": 1,
    "none": {}
  },
  "rows": [
    {
      "util": [0.500]
    }
  ]
}
"#;
        assert_eq!(json.render(), text);
        assert_eq!(Json::parse(text), Ok(json.clone()));
        let inline = r#"{"bench":"a \"quoted\"\n\\name","empty":[],
            "kill_run":{"kills":1,"none":{}},"rows":[{"util":[0.500]}]}"#;
        assert_eq!(Json::parse(&format!("{inline}\n")), Ok(json.clone()));
        let paths = "bench empty kill_run kill_run.kills kill_run.none rows rows[].util";
        assert_eq!(json.key_paths().join(" "), paths);
    }

    #[test]
    fn literals_keep_their_text() {
        assert_eq!(Json::fixed(2.0, 1), Json::Lit("2.0".into()));
        assert_eq!(Json::fixed(f64::NAN, 3).render(), "null\n");
        let doc = "[-0.000, 1e-7, 2E+3, 0.10, null, false, \"\\u00e9\\/\\t\"]\n";
        let parsed = Json::parse(doc).expect("valid literals");
        assert_eq!(parsed.render(), "[-0.000, 1e-7, 2E+3, 0.10, null, false, \"é/\\u0009\"]\n");
    }

    #[test]
    fn a_key_dropped_from_array_rows_changes_the_key_paths() {
        let paths = |row: &str| {
            let doc = format!("{{\"event_scaling\": [{row}, {row}]}}\n");
            Json::parse(&doc).expect("valid document").key_paths()
        };
        let full = paths(r#"{"devices": 16, "requests": 1000}"#);
        assert_eq!(full, ["event_scaling", "event_scaling[].devices", "event_scaling[].requests"]);
        assert_eq!(paths(r#"{"requests": 1000}"#), ["event_scaling", "event_scaling[].requests"]);
    }

    #[test]
    fn malformed_documents_name_the_offset_and_what_was_expected() {
        for (doc, offset, expected) in [
            ("", 0, "a value"),
            ("{\"a\": 1", 7, "',' or '}'"),
            ("{\"a\" 1}\n", 5, "':'"),
            ("{\"a\": 1,}\n", 8, "a string"),
            ("[01]\n", 2, "',' or ']'"),
            ("[1.]\n", 3, "a digit"),
            ("[tru]\n", 1, "true, false or null"),
            ("[\"a\\x\"]\n", 4, "an escape character"),
            ("[\"\\ud800\"]\n", 3, "four hex digits of a non-surrogate code point"),
            ("[\"a\nb\"]\n", 3, "a closing '\"'"),
            ("{} {}\n", 3, "the end of the document"),
            ("{}", 2, "a newline at the end of the document"),
        ] {
            assert_eq!(Json::parse(doc), Err(JsonError { offset, expected }), "document {doc:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}\n", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert_eq!(err, JsonError { offset: MAX_DEPTH, expected: "nesting at most 64 deep" });
    }
}
