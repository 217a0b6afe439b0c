//! The one JSON module: a small writer ([`Json`]) and the hand-rolled
//! parser behind [`BenchReport::from_json`] and [`parse_json_object`]
//! (no external JSON crate is available). Every JSON emitter in the
//! repository builds a [`Json`] value and prints it, so quoting,
//! separators, nesting and the `null` rule live only here.
//!
//! One layout, decided by the value's shape: a container that holds
//! another container puts each member on its own line, indented two
//! spaces per level; any other container stays on one line, members
//! separated by `", "`. Object members read `"name": value`. Integers
//! are exact, floats are Rust's shortest round-trip decimal (`3.0`
//! reads `3`), and a non-finite float is `null` (it parses back as
//! NaN). Strings escape `"`, `\` and control characters (as `\u00XX`);
//! other text, non-ASCII included, is written verbatim.
//!
//! The parser takes any whitespace between tokens and is strict about
//! separators: every member and element is followed by `,` or the
//! closing bracket, and a `,` by another member. Errors carry the byte
//! offset.
//!
//! [`BenchReport::from_json`]: crate::report::BenchReport::from_json

use std::fmt::{self, Write as _};

/// A JSON value, built by an emitter and rendered in the module's one
/// layout by its `Display` impl.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// An integer, written exactly (every `u64` and `i64` fits).
    Int(i128),
    /// A float; `null` when not finite.
    Num(f64),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members keep their order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(name, value)` members, in order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Int(v) => write!(f, "{v}"),
            Json::Num(v) if v.is_finite() => write!(f, "{v}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_string(f, s),
            Json::Arr(items) => write_members(f, indent, "[]", items.iter().map(|v| (None, v))),
            Json::Obj(members) => {
                let members = members.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_members(f, indent, "{}", members)
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

macro_rules! json_from {
    ($($t:ty => |$v:ident| $json:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $json
            }
        }
    )*};
}
json_from!(
    u32 => |v| Json::Int(v.into()),
    u64 => |v| Json::Int(v.into()),
    i64 => |v| Json::Int(v.into()),
    usize => |v| Json::Int(v as i128),
    f64 => |v| Json::Num(v),
    &str => |v| Json::Str(v.to_string()),
    String => |v| Json::Str(v),
);

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Write a container's members (`name` is `None` for array elements)
/// between `brackets`, one per line when any member is a container.
fn write_members<'a>(
    f: &mut fmt::Formatter<'_>,
    indent: usize,
    brackets: &str,
    members: impl Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
) -> fmt::Result {
    let nested = members
        .clone()
        .any(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_)));
    f.write_str(&brackets[..1])?;
    for (i, (name, value)) in members.enumerate() {
        if i > 0 {
            f.write_str(if nested { "," } else { ", " })?;
        }
        if nested {
            write!(f, "\n{:w$}", "", w = indent + 2)?;
        }
        if let Some(name) = name {
            write_string(f, name)?;
            f.write_str(": ")?;
        }
        value.write(f, indent + 2)?;
    }
    if nested {
        write!(f, "\n{:w$}", "", w = indent)?;
    }
    f.write_str(&brackets[1..])
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

/// Parse one **flat** JSON object of numeric fields — what
/// `rtas-svc stats --json` and `rtas-svc top --json` emit — into
/// `(name, value)` pairs in document order (`null` → NaN). String
/// values, nested objects/arrays, and trailing data are errors: the
/// scrapers built on this want numbers or a loud failure, never a
/// silent partial parse.
pub fn parse_json_object(input: &str) -> Result<Vec<(String, f64)>, String> {
    let mut p = Parser::new(input);
    let mut out = Vec::new();
    p.object(|p, name| match p.parse_scalar()? {
        Scalar::Num(v) => {
            out.push((name, v));
            Ok(())
        }
        Scalar::Str(_) => Err(p.err(&format!("field {name:?} is not numeric"))),
    })?;
    p.finish("object")?;
    Ok(out)
}

/// One parsed JSON scalar.
pub(crate) enum Scalar {
    Num(f64),
    Str(String),
}

/// Hand-rolled recursive-descent parser: objects, arrays, strings (with
/// escapes), numbers, and `null`. Errors carry the byte offset.
pub(crate) struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    pub(crate) fn new(input: &'a str) -> Self {
        Parser {
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    pub(crate) fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    /// Consume `b` if it is the next token.
    fn eat(&mut self, b: u8) -> bool {
        let found = self.peek() == Some(b);
        if found {
            self.pos += 1;
        }
        found
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    /// Read an object: `{`, then `"name": value` members separated by
    /// `,`, then `}`. `member` reads each value; it is called just past
    /// the member's colon.
    pub(crate) fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, String) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        if self.eat(b'}') {
            return Ok(());
        }
        loop {
            let name = self.parse_string()?;
            self.expect(b':')?;
            member(self, name)?;
            if !self.eat(b',') {
                return self.expect(b'}');
            }
        }
    }

    /// Read an array: `[`, then elements separated by `,`, then `]`.
    /// `element` reads each element.
    pub(crate) fn array(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'[')?;
        if self.eat(b']') {
            return Ok(());
        }
        loop {
            element(self)?;
            if !self.eat(b',') {
                return self.expect(b']');
            }
        }
    }

    /// Require that only whitespace follows the value just read.
    pub(crate) fn finish(&mut self, what: &str) -> Result<(), String> {
        if self.peek().is_none() {
            Ok(())
        } else {
            Err(self.err(&format!("trailing data after {what}")))
        }
    }

    pub(crate) fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-utf8 \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Copy the run up to the next quote or escape: both
                    // are ASCII, so the run is whole UTF-8 characters.
                    let rest = &self.bytes[self.pos - 1..];
                    let len = rest
                        .iter()
                        .take_while(|&&c| c != b'"' && c != b'\\')
                        .count();
                    out.push_str(std::str::from_utf8(&rest[..len]).expect("input is a str"));
                    self.pos += len - 1;
                }
            }
        }
    }

    /// A number or `null` (→ NaN).
    pub(crate) fn parse_number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(b"null") {
            self.pos += 4;
            return Ok(f64::NAN);
        }
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    pub(crate) fn parse_scalar(&mut self) -> Result<Scalar, String> {
        match self.peek() {
            Some(b'"') => Ok(Scalar::Str(self.parse_string()?)),
            Some(_) => Ok(Scalar::Num(self.parse_number()?)),
            None => Err(self.err("unexpected end of input")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let text = "say \"hi\"\\ \n\t\u{1} é → 日本";
        let json = Json::from(text).to_string();
        assert_eq!(
            json,
            "\"say \\\"hi\\\"\\\\ \\u000a\\u0009\\u0001 é → 日本\""
        );
        assert_eq!(Parser::new(&json).parse_string().unwrap(), text);
        // Names are escaped like values.
        let obj = Json::obj([("a\"b", Json::from(1u64))]).to_string();
        assert_eq!(obj, "{\"a\\\"b\": 1}");
        assert_eq!(
            parse_json_object(&obj).unwrap(),
            [("a\"b".to_string(), 1.0)]
        );
    }

    #[test]
    fn numbers_are_exact_and_non_finite_floats_are_null() {
        assert_eq!(Json::from(u64::MAX).to_string(), "18446744073709551615");
        assert_eq!(Json::from(i64::MIN).to_string(), "-9223372036854775808");
        assert_eq!(Json::from(0.5).to_string(), "0.5");
        assert_eq!(Json::from(3.0).to_string(), "3");
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::from(v).to_string(), "null");
        }
        assert_eq!(Json::from(None::<u64>).to_string(), "null");
        assert_eq!(Json::from(Some(7u64)).to_string(), "7");
    }

    #[test]
    fn containers_nest_one_member_per_line_and_stay_inline_when_flat() {
        assert_eq!(Json::Arr(vec![]).to_string(), "[]");
        assert_eq!(Json::Obj(vec![]).to_string(), "{}");
        let flat = Json::obj([("a", Json::from(1u64)), ("b", Json::Null)]);
        assert_eq!(flat.to_string(), "{\"a\": 1, \"b\": null}");
        let rows = Json::Arr(vec![
            flat,
            Json::Arr(vec![Json::from("x"), Json::from(0.25)]),
        ]);
        let nested = Json::obj([("empty", Json::Arr(vec![])), ("rows", rows)]);
        assert_eq!(
            nested.to_string(),
            "{\n  \"empty\": [],\n  \"rows\": [\n    {\"a\": 1, \"b\": null},\n    \
             [\"x\", 0.25]\n  ]\n}"
        );
    }

    #[test]
    fn flat_objects_parse_to_ordered_numeric_pairs() {
        let pairs =
            parse_json_object("{\"keys\":1,\"ops\":2.5,\"p99\":null}").expect("valid object");
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[0], ("keys".to_string(), 1.0));
        assert_eq!(pairs[1], ("ops".to_string(), 2.5));
        assert_eq!(pairs[2].0, "p99");
        assert!(pairs[2].1.is_nan(), "null parses as NaN");
        assert_eq!(parse_json_object("{}").unwrap(), vec![]);
        // Whitespace-insensitive, like the report parser.
        assert_eq!(
            parse_json_object(" { \"a\" : 7 } ").unwrap(),
            vec![("a".to_string(), 7.0)]
        );
    }

    #[test]
    fn flat_object_parser_rejects_strings_nesting_and_trailing_data() {
        assert!(parse_json_object("").is_err());
        assert!(parse_json_object("{\"a\":\"text\"}")
            .unwrap_err()
            .contains("not numeric"));
        assert!(parse_json_object("{\"a\":{\"b\":1}}").is_err());
        assert!(parse_json_object("{\"a\":[1]}").is_err());
        assert!(parse_json_object("{\"a\":1}x")
            .unwrap_err()
            .contains("trailing"));
        // Separators: a missing comma, a trailing comma, a lone comma.
        assert!(parse_json_object("{\"a\":1 \"b\":2}").is_err());
        assert!(parse_json_object("{\"a\":1,}").is_err());
        assert!(parse_json_object("{,}").is_err());
        assert!(parse_json_object("{\"a\":1,,\"b\":2}").is_err());
    }
}
