//! A minimal JSON document model and serializer.
//!
//! The Report Generator and the Results database emit JSON; rather than
//! pulling in a serialization framework for a handful of writers, this
//! ~150-line module provides exactly what they need (objects, arrays,
//! strings, numbers, booleans, null; escaping; stable key order).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion-independent (sorted) order so
/// emitted documents are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Any finite number (emitted via shortest-roundtrip formatting).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with sorted keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Convenience object constructor from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Inserts into an object; panics on non-objects (programming error).
    pub fn set(&mut self, key: &str, value: Json) {
        match self {
            Json::Obj(map) => {
                map.insert(key.to_string(), value);
            }
            _ => panic!("Json::set on non-object"),
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// Number accessor.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Serializes to a compact single-line document.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.is_finite() {
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        let _ = write!(out, "{}", *x as i64);
                    } else {
                        let _ = write!(out, "{x}");
                    }
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf.
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Num(x)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Self {
        Json::Num(x as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

/// Deepest array/object nesting [`parse`] accepts. Each level is one
/// recursive call, so an unbounded depth lets a 10 KB run of `[` overflow
/// the parsing thread's stack.
pub const MAX_DEPTH: usize = 128;

/// A tolerant parser for the subset emitted by [`Json`]; used by the results
/// database to read its own JSONL files back. Documents nested deeper than
/// [`MAX_DEPTH`] are rejected.
pub fn parse(input: &str) -> Option<Json> {
    let mut chars = input.char_indices().peekable();
    let value = parse_value(input, &mut chars, 0)?;
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return None; // Trailing garbage.
    }
    Some(value)
}

type Chars<'a> = std::iter::Peekable<std::str::CharIndices<'a>>;

fn skip_ws(chars: &mut Chars) {
    while matches!(chars.peek(), Some((_, c)) if c.is_whitespace()) {
        chars.next();
    }
}

/// Parses one value whose enclosing arrays and objects are `depth` deep.
fn parse_value(src: &str, chars: &mut Chars, depth: usize) -> Option<Json> {
    skip_ws(chars);
    let &(start, c) = chars.peek()?;
    if matches!(c, '[' | '{') && depth >= MAX_DEPTH {
        return None;
    }
    match c {
        'n' => expect_word(src, chars, "null").then_some(Json::Null),
        't' => expect_word(src, chars, "true").then_some(Json::Bool(true)),
        'f' => expect_word(src, chars, "false").then_some(Json::Bool(false)),
        '"' => parse_string(chars).map(Json::Str),
        '[' => {
            chars.next();
            let mut items = Vec::new();
            skip_ws(chars);
            if matches!(chars.peek(), Some((_, ']'))) {
                chars.next();
                return Some(Json::Arr(items));
            }
            loop {
                items.push(parse_value(src, chars, depth + 1)?);
                skip_ws(chars);
                match chars.next() {
                    Some((_, ',')) => continue,
                    Some((_, ']')) => return Some(Json::Arr(items)),
                    _ => return None,
                }
            }
        }
        '{' => {
            chars.next();
            let mut map = BTreeMap::new();
            skip_ws(chars);
            if matches!(chars.peek(), Some((_, '}'))) {
                chars.next();
                return Some(Json::Obj(map));
            }
            loop {
                skip_ws(chars);
                let key = parse_string(chars)?;
                skip_ws(chars);
                if !matches!(chars.next(), Some((_, ':'))) {
                    return None;
                }
                map.insert(key, parse_value(src, chars, depth + 1)?);
                skip_ws(chars);
                match chars.next() {
                    Some((_, ',')) => continue,
                    Some((_, '}')) => return Some(Json::Obj(map)),
                    _ => return None,
                }
            }
        }
        _ => {
            // Number: consume until a delimiter.
            let mut end = start;
            while let Some(&(i, c)) = chars.peek() {
                if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                    end = i + c.len_utf8();
                    chars.next();
                } else {
                    break;
                }
            }
            src[start..end].parse::<f64>().ok().map(Json::Num)
        }
    }
}

fn expect_word(src: &str, chars: &mut Chars, word: &str) -> bool {
    let start = chars.peek().map(|&(i, _)| i).unwrap_or(src.len());
    if src[start..].starts_with(word) {
        for _ in 0..word.len() {
            chars.next();
        }
        true
    } else {
        false
    }
}

fn parse_string(chars: &mut Chars) -> Option<String> {
    if !matches!(chars.next(), Some((_, '"'))) {
        return None;
    }
    let mut out = String::new();
    loop {
        let (_, c) = chars.next()?;
        match c {
            '"' => return Some(out),
            '\\' => {
                let (_, esc) = chars.next()?;
                match esc {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let (_, h) = chars.next()?;
                            code = code * 16 + h.to_digit(16)?;
                        }
                        out.push(char::from_u32(code)?);
                    }
                    _ => return None,
                }
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_document() {
        let doc = Json::obj([
            ("name", Json::from("BFS \"fast\"")),
            ("runtime", Json::from(12.5)),
            ("ok", Json::from(true)),
            ("tags", Json::Arr(vec![Json::from("a"), Json::Null])),
            ("count", Json::from(42usize)),
        ]);
        let text = doc.to_string_compact();
        let back = parse(&text).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn escapes_control_characters() {
        let s = Json::Str("line1\nline2\ttab\u{1}".into()).to_string_compact();
        assert!(s.contains("\\n"));
        assert!(s.contains("\\t"));
        assert!(s.contains("\\u0001"));
        assert_eq!(
            parse(&s).unwrap(),
            Json::Str("line1\nline2\ttab\u{1}".into())
        );
    }

    #[test]
    fn integers_have_no_decimal_point() {
        assert_eq!(Json::Num(42.0).to_string_compact(), "42");
        assert_eq!(Json::Num(-3.0).to_string_compact(), "-3");
        assert_eq!(Json::Num(2.5).to_string_compact(), "2.5");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string_compact(), "null");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_none());
        assert!(parse("[1,]").is_none());
        assert!(parse("123 456").is_none());
        assert!(parse("\"open").is_none());
    }

    #[test]
    fn parse_accepts_whitespace_and_nesting() {
        let v = parse(" { \"a\" : [ 1 , { \"b\" : null } ] } ").unwrap();
        assert!(v.get("a").is_some());
    }

    #[test]
    fn nesting_deeper_than_the_limit_is_rejected_not_a_stack_overflow() {
        let nested = |d: usize| "[".repeat(d) + &"]".repeat(d);
        assert!(parse(&nested(MAX_DEPTH)).is_some());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_none());
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).is_none());
        assert!(parse(&"[".repeat(100_000)).is_none());
    }

    #[test]
    fn accessors() {
        let v = Json::obj([("x", Json::from(1.5)), ("s", Json::from("hi"))]);
        assert_eq!(v.get("x").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("s").unwrap().as_str(), Some("hi"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.as_f64(), None);
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn set_on_non_object_panics() {
        Json::Null.set("x", Json::Null);
    }
}
