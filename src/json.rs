//! The one JSON module: every byte of JSON this workspace writes goes
//! through [`Writer`], and every byte it reads goes through [`parse`].
//!
//! * [`Writer`] streams into one `String` and places its own commas, so
//!   a serializer is a list of `key(..).value(..)` calls and numbers are
//!   formatted straight into the output buffer. Floats render as `{:?}`
//!   (round-trippable, always with a `.` or an exponent), non-finite
//!   ones as `null`; strings escape quotes, backslashes and control
//!   characters only.
//! * [`parse`] is a strict RFC 8259 reader into [`Value`]: integer
//!   literals that fit `u64` stay exact, duplicate keys and non-JSON
//!   numerals (`1.`, `03`) are errors, and nesting is capped so hostile
//!   input cannot overflow the stack.
//!
//! It is a module of the `csag` package rather than a crate of its own
//! because `benchmark/Cargo.lock` enumerates csag's dependency closure
//! and is built `--offline --locked`: a new package there is a lockfile
//! change the benchmark contract reserves for `benchmark` PRs.

use std::fmt::{Display, Write as _};

/// Arrays and objects may nest this deep in [`parse`] (it recurses once
/// per level).
const MAX_DEPTH: usize = 64;

/// A streaming JSON writer over one output buffer. Every value method
/// inserts the comma separating it from its predecessor; balancing
/// `begin_*`/`end_*` is the caller's job.
#[derive(Debug, Default)]
pub struct Writer {
    buf: String,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// An empty writer with `bytes` of output pre-allocated.
    pub fn with_capacity(bytes: usize) -> Self {
        let buf = String::with_capacity(bytes);
        Writer { buf }
    }

    /// The rendered document.
    pub fn finish(self) -> String {
        self.buf
    }

    /// Separates the next key or value from whatever precedes it: every
    /// complete value ends in a byte other than `{`, `[` and `:`.
    fn sep(&mut self) -> &mut String {
        if !matches!(self.buf.as_bytes().last(), None | Some(b'{' | b'[' | b':')) {
            self.buf.push(',');
        }
        &mut self.buf
    }

    /// Opens an object value.
    pub fn begin_object(&mut self) -> &mut Self {
        self.raw("{")
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.buf.push('}');
        self
    }

    /// Opens an array value.
    pub fn begin_array(&mut self) -> &mut Self {
        self.raw("[")
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.buf.push(']');
        self
    }

    /// An object member's key; its value must follow.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.string(key).buf.push(':');
        self
    }

    /// A string value.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.sep().push('"');
        let _ = Escaped(&mut self.buf).write_str(s);
        self.buf.push('"');
        self
    }

    /// A string value formatted straight into the output (no temporary
    /// `String` for a `Display`-only source).
    pub fn display(&mut self, s: impl Display) -> &mut Self {
        self.sep().push('"');
        let _ = write!(Escaped(&mut self.buf), "{s}");
        self.buf.push('"');
        self
    }

    /// An unsigned integer value, digit for digit.
    pub fn uint(&mut self, n: u64) -> &mut Self {
        let _ = write!(self.sep(), "{n}");
        self
    }

    /// A float value: `{:?}` when finite, `null` otherwise.
    pub fn float(&mut self, x: f64) -> &mut Self {
        if !x.is_finite() {
            return self.null();
        }
        let _ = write!(self.sep(), "{x:?}");
        self
    }

    /// A float value with exactly `decimals` fractional digits (`null`
    /// when non-finite) — for human-facing reports, not round trips.
    pub fn fixed(&mut self, x: f64, decimals: usize) -> &mut Self {
        if !x.is_finite() {
            return self.null();
        }
        let _ = write!(self.sep(), "{x:.decimals$}");
        self
    }

    /// `true` or `false`.
    pub fn boolean(&mut self, b: bool) -> &mut Self {
        self.raw(if b { "true" } else { "false" })
    }

    /// `null`.
    pub fn null(&mut self) -> &mut Self {
        self.raw("null")
    }

    /// One complete value that is already rendered JSON (an echoed id
    /// token, a nested document from another serializer).
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.sep().push_str(json);
        self
    }

    /// A parsed [`Value`], rendered so that [`parse`] reads it back
    /// equal (non-finite floats aside, which become `null`).
    pub fn value(&mut self, v: &Value) -> &mut Self {
        match v {
            Value::Null => self.null(),
            Value::Bool(b) => self.boolean(*b),
            Value::UInt(n) => self.uint(*n),
            Value::Float(x) => self.float(*x),
            Value::String(s) => self.string(s),
            Value::Array(items) => {
                self.begin_array();
                for item in items {
                    self.value(item);
                }
                self.end_array()
            }
            Value::Object(members) => {
                self.begin_object();
                for (key, member) in members {
                    self.key(key).value(member);
                }
                self.end_object()
            }
        }
    }
}

/// Writes string-literal content: `"` `\` and control characters
/// escaped, everything else (non-ASCII included) verbatim.
struct Escaped<'a>(&'a mut String);

impl std::fmt::Write for Escaped<'_> {
    fn write_str(&mut self, raw: &str) -> std::fmt::Result {
        let mut clean = 0; // start of the run not yet copied out
        for (i, b) in raw.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // `b` is ASCII, so `i` is a char boundary.
            self.0.push_str(&raw[clean..i]);
            match escape {
                "" => write!(self.0, "\\u{b:04x}")?,
                _ => self.0.push_str(escape),
            }
            clean = i + 1;
        }
        self.0.push_str(&raw[clean..]);
        Ok(())
    }
}

/// A parsed JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written as a plain non-negative integer literal that
    /// fits `u64` — kept exact (seeds, epochs and ids need all 64 bits).
    UInt(u64),
    /// Every other number (negative, fractional, exponent, or beyond
    /// `u64`), as the nearest finite `f64`.
    Float(f64),
    /// A string, escapes resolved.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object: members in document order, keys unique.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The member `key` of an object (`None` for other values too).
    pub fn get(&self, key: &str) -> Option<&Value> {
        let Value::Object(members) = self else {
            return None;
        };
        members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The string's content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The exact integer, if this is a [`Value::UInt`].
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(n) => Some(n),
            _ => None,
        }
    }

    /// The number as a float (integers convert, possibly rounding).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::UInt(n) => Some(n as f64),
            Value::Float(x) => Some(x),
            _ => None,
        }
    }

    /// This value as compact JSON text ([`Writer::value`]).
    pub fn render(&self) -> String {
        let mut w = Writer::new();
        w.value(self);
        w.finish()
    }
}

/// Where two documents first differ, as a path from the root
/// (`$.provenance.method`, `$.community[3]`), or `None` when they are
/// equal. Objects compare member by member in document order — the
/// comparison is for two renders of the same serializer.
pub fn first_difference(a: &Value, b: &Value) -> Option<String> {
    fn walk(a: &Value, b: &Value) -> Option<String> {
        match (a, b) {
            (Value::Object(x), Value::Object(y)) => {
                for (i, (key, av)) in x.iter().enumerate() {
                    match y.get(i) {
                        Some((k, bv)) if k == key => {
                            if let Some(rest) = walk(av, bv) {
                                return Some(format!(".{key}{rest}"));
                            }
                        }
                        _ => return Some(format!(".{key}")),
                    }
                }
                y.get(x.len()).map(|(key, _)| format!(".{key}"))
            }
            (Value::Array(x), Value::Array(y)) => {
                for (i, (av, bv)) in x.iter().zip(y).enumerate() {
                    if let Some(rest) = walk(av, bv) {
                        return Some(format!("[{i}]{rest}"));
                    }
                }
                (x.len() != y.len()).then(|| format!("[{}]", x.len().min(y.len())))
            }
            _ => (a != b).then(String::new),
        }
    }
    walk(a, b).map(|path| format!("${path}"))
}

/// Parses one JSON document (RFC 8259, nothing more lenient): exactly
/// one value, surrounded by optional whitespace.
///
/// # Errors
/// A description of the first problem with its byte offset: malformed
/// syntax, a numeral JSON does not allow, a duplicate object key, a
/// number outside `f64`, nesting deeper than 64, or trailing content.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    match p.peek() {
        None => Ok(value),
        Some(_) => Err(p.error("trailing content")),
    }
}

struct Parser<'a> {
    text: &'a str,
    /// Always on a char boundary: it only ever steps over ASCII bytes
    /// or up to the next ASCII byte.
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Steps over `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        let found = self.peek() == Some(byte);
        self.pos += usize::from(found);
        found
    }

    fn error(&self, what: &str) -> String {
        match self.text[self.pos..].chars().next() {
            Some(c) => format!("{what} at byte {}: `{c}`", self.pos),
            None => format!("unterminated input: {what} at byte {}", self.pos),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, String> {
        if !self.text[self.pos..].starts_with(lit) {
            return Err(self.error(&format!("expected literal `{lit}`")));
        }
        self.pos += lit.len();
        Ok(value)
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[' | b'{') if depth >= MAX_DEPTH => {
                Err(self.error(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.sequence(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => self.object(depth),
            _ => Err(self.error("expected a value")),
        }
    }

    /// The comma-separated `item`s between the bracket at `pos` and its
    /// `close`.
    fn sequence(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.error(&format!("expected `,` or `{}`", close as char)));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        let mut members: Vec<(String, Value)> = Vec::new();
        self.sequence(b'}', |p| {
            p.skip_ws();
            if p.peek() != Some(b'"') {
                return Err(p.error("expected a string key"));
            }
            let key = p.string()?;
            p.skip_ws();
            if !p.eat(b':') {
                return Err(p.error("expected `:`"));
            }
            members.push((key, p.value(depth + 1)?));
            Ok(())
        })?;
        // Sorted, so a hostile thousand-key line costs n log n
        // comparisons, not n².
        let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        if let Some(dup) = keys.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("duplicate key \"{}\"", dup[0]));
        }
        Ok(Value::Object(members))
    }

    /// Skips a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let from = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - from
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let negative = self.eat(b'-');
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = self.digits();
        let mut ok = int_digits == 1 || (int_digits > 1 && !leading_zero);
        let fraction = self.eat(b'.');
        ok &= !fraction || self.digits() > 0;
        let exponent = self.eat(b'e') || self.eat(b'E');
        if exponent {
            let _ = self.eat(b'+') || self.eat(b'-');
            ok &= self.digits() > 0;
        }
        let lit = &self.text[start..self.pos];
        if !ok {
            return Err(format!("bad number `{lit}` at byte {start}"));
        }
        if !(negative || fraction || exponent) {
            if let Ok(n) = lit.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
        }
        match lit.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Float(x)),
            _ => Err(format!("number `{lit}` at byte {start} is out of range")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.error("unescaped control character in string")),
            }
        }
    }

    /// The character named by the escape after a `\`.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(c @ (b'"' | b'\\' | b'/')) => c as char,
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let mut code = self.hex4()?;
                // A high surrogate must be completed by a low one.
                if (0xD800..0xDC00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
                    self.pos += 2;
                    match self.hex4()? {
                        lo @ 0xDC00..=0xDFFF => {
                            code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00)
                        }
                        _ => code = 0xD800,
                    }
                }
                let c = char::from_u32(code);
                return c.ok_or_else(|| self.error("unpaired surrogate in \\u escape"));
            }
            _ => return Err(self.error("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self.text.as_bytes().get(self.pos..self.pos + 4);
        let code = hex
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| u32::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok())
            .ok_or_else(|| self.error("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn writer_places_commas_and_escapes() {
        let mut w = Writer::new();
        w.begin_object();
        w.key("a").uint(u64::MAX);
        w.key("b")
            .begin_array()
            .float(1.0)
            .float(f64::NAN)
            .end_array();
        w.key("c").begin_object().end_object();
        w.key("d\"").string("x\\y\n\u{1}é").boolean(true);
        w.key("e").fixed(1.23456, 3).null().raw("[]").display(7);
        w.end_object();
        assert_eq!(
            w.finish(),
            "{\"a\":18446744073709551615,\"b\":[1.0,null],\"c\":{},\
             \"d\\\"\":\"x\\\\y\\n\\u0001é\",true,\"e\":1.235,null,[],\"7\"}"
        );
    }

    #[test]
    fn integers_stay_exact_and_everything_else_is_a_float() {
        let doc = parse(
            " {\"a\":9007199254740993,\"b\":18446744073709551615,\"c\":-1,\
                         \"d\":1e2,\"e\":18446744073709551616,\"f\":0} ",
        )
        .unwrap();
        assert_eq!(doc.get("a"), Some(&Value::UInt(9007199254740993)));
        assert_eq!(doc.get("b").and_then(Value::as_u64), Some(u64::MAX));
        assert_eq!(doc.get("c"), Some(&Value::Float(-1.0)));
        assert_eq!(doc.get("d"), Some(&Value::Float(100.0)));
        assert_eq!(doc.get("e"), Some(&Value::Float(18446744073709551616.0)));
        assert_eq!(doc.get("f"), Some(&Value::UInt(0)));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn the_grammar_is_rfc_8259_and_nothing_more() {
        for (text, needle) in [
            ("1.", "bad number"),
            ("03", "bad number"),
            ("-", "bad number"),
            ("1e", "bad number"),
            (".5", "expected a value"),
            ("1e999", "out of range"),
            ("{\"a\":1,\"a\":2}", "duplicate key \"a\""),
            ("{\"a\":1,}", "expected a string key"),
            ("[1,]", "expected a value"),
            ("[1 2]", "expected `,` or `]`"),
            ("{\"a\" 1}", "expected `:`"),
            ("\"a\tb\"", "control character"),
            ("\"\\x\"", "bad escape"),
            ("\"\\u12\"", "bad \\u escape"),
            ("\"\\uD83D\"", "unpaired surrogate"),
            ("\"\\uDE00\"", "unpaired surrogate"),
            ("\"\\uD83D\\u0041\"", "unpaired surrogate"),
            ("\"abc", "unterminated string"),
            ("[1", "unterminated input: expected `,` or `]`"),
            ("{\"a\":1", "unterminated input: expected `,` or `}`"),
            ("nul", "expected literal `null`"),
            ("1 2", "trailing content"),
            ("", "unterminated input: expected a value"),
            ("\"\\", "unterminated input: bad escape"),
        ] {
            let err = parse(text).unwrap_err();
            assert!(
                err.contains(needle),
                "`{text}` → `{err}` (wanted `{needle}`)"
            );
        }
        assert_eq!(
            parse("\"\\uD83D\\uDE00 \\/\\b\\f\\u00e9\""),
            Ok(Value::String("😀 /\u{8}\u{c}é".into()))
        );
        assert_eq!(parse("[]"), Ok(Value::Array(vec![])));
        assert_eq!(parse("\t{ }\r\n"), Ok(Value::Object(vec![])));
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let deep = "[".repeat(10_000);
        assert!(parse(&deep).unwrap_err().contains("nesting deeper"));
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).is_err());
    }

    #[test]
    fn first_difference_names_the_path() {
        let a = parse("{\"q\":1,\"community\":[1,2,3],\"p\":{\"method\":\"sea\"}}").unwrap();
        assert_eq!(first_difference(&a, &a), None);
        for (other, path) in [
            (
                "{\"q\":1,\"community\":[1,9,3],\"p\":{\"method\":\"sea\"}}",
                "$.community[1]",
            ),
            (
                "{\"q\":1,\"community\":[1,2],\"p\":{\"method\":\"sea\"}}",
                "$.community[2]",
            ),
            (
                "{\"q\":1,\"community\":[1,2,3],\"p\":{\"method\":\"vac\"}}",
                "$.p.method",
            ),
            ("{\"q\":1,\"community\":[1,2,3]}", "$.p"),
            (
                "{\"q\":1,\"community\":[1,2,3],\"p\":{\"method\":\"sea\"},\"x\":0}",
                "$.x",
            ),
            ("[]", "$"),
        ] {
            let b = parse(other).unwrap();
            assert_eq!(first_difference(&a, &b).as_deref(), Some(path), "{other}");
        }
    }

    /// A random document: finite floats only (a non-finite one renders
    /// as `null`), unique keys, strings over the awkward alphabet.
    fn random_value(rng: &mut StdRng, depth: usize) -> Value {
        match rng.gen_range(0..if depth < 4 { 7 } else { 5 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.gen_bool(0.5)),
            2 => Value::UInt(rng.next_u64() >> rng.gen_range(0..64)),
            3 => Value::Float(
                Some(f64::from_bits(rng.next_u64()))
                    .filter(|x| x.is_finite())
                    .unwrap_or(-0.5),
            ),
            4 => Value::String(random_text(rng)),
            5 => Value::Array(
                (0..rng.gen_range(0..4))
                    .map(|_| random_value(rng, depth + 1))
                    .collect(),
            ),
            _ => Value::Object(
                (0..rng.gen_range(0..4))
                    .map(|i| {
                        (
                            format!("{i}{}", random_text(rng)),
                            random_value(rng, depth + 1),
                        )
                    })
                    .collect(),
            ),
        }
    }

    /// Text biased toward JSON's own punctuation and escapes.
    fn random_text(rng: &mut StdRng) -> String {
        const ALPHABET: &[&str] = &[
            "{", "}", "[", "]", "\"", ":", ",", "\\", "\\u", "D83D", "dE00", "0", "1", "9", "-",
            "+", ".", "e", "E", "true", "false", "null", " ", "\n", "\t", "\u{1}", "é", "😀", "q",
            "id", "seed", "epoch", "a",
        ];
        (0..rng.gen_range(0..24))
            .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_text_never_panics_the_reader(seed in any::<u64>()) {
            let text = random_text(&mut StdRng::seed_from_u64(seed));
            if let Ok(v) = parse(&text) {
                prop_assert_eq!(parse(&v.render()), Ok(v));
            }
        }

        #[test]
        fn arbitrary_bytes_never_panic_the_reader(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
            let _ = parse(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn render_then_parse_is_the_identity(seed in any::<u64>()) {
            let v = random_value(&mut StdRng::seed_from_u64(seed), 0);
            prop_assert_eq!(parse(&v.render()), Ok(v));
        }
    }
}
