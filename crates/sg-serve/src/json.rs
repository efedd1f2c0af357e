//! A minimal, dependency-free JSON value type with a full parser and a
//! canonical renderer.
//!
//! The build container has no crates registry, so the wire protocol
//! cannot use `serde`; this module implements exactly the JSON subset the
//! protocol needs — which is all of JSON, minus any opinion about
//! numbers: rendering re-emits the token that was parsed, byte for byte. A
//! *canonical unsigned* token (digits only, no leading zero, fits `u64` —
//! every id, count and seed) is a heap-free [`Json::Int`]; any other number
//! keeps its **raw text** ([`Json::Num`]). Constructors and parser classify
//! through one function, so built and parsed values compare equal.
//!
//! Objects preserve insertion order and are rendered without extra
//! whitespace, which keeps responses one-line (the protocol is
//! line-delimited).

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A canonical unsigned integer: the token is its decimal digits.
    Int(u64),
    /// Any other number, as its raw (validated) token text. Build numbers
    /// with [`Json::u64`] / [`Json::f64`], never a `Num` by hand.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered; duplicate keys keep the last value
    /// on lookup, as in most JSON implementations).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object (builder entry point).
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends a field to an object (builder style); panics on non-objects
    /// (a programming error in response construction).
    pub fn with(mut self, key: &str, value: Json) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value)),
            _ => panic!("Json::with on a non-object"),
        }
        self
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An unsigned integer value (exact).
    pub fn u64(v: u64) -> Json {
        Json::Int(v)
    }

    /// A float value; non-finite floats become `null` (JSON has no NaN).
    pub fn f64(v: f64) -> Json {
        if v.is_finite() {
            number(&format!("{v}"))
        } else {
            Json::Null
        }
    }

    /// Object field lookup (last duplicate wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as an exact `u64`, if this is an integral number in
    /// range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => Some(*v),
            // A non-canonical spelling the parser lets through (`007`).
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Renders as compact (single-line) JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(v) => render_u64(*v, out),
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// The value of a validated number token: [`Json::Int`] when it is digits
/// only, without a leading zero or overflow; raw text for any other (`-0`,
/// `1.50`, `1e3`, `007`, 2^64 and up).
fn number(token: &str) -> Json {
    let digits_only = token.bytes().all(|b| b.is_ascii_digit());
    let canonical = digits_only && (token == "0" || !token.starts_with('0'));
    let int = if canonical { token.parse().ok() } else { None };
    int.map_or_else(|| Json::Num(token.to_string()), Json::Int)
}

/// Decimal digits through a stack buffer: no `fmt` call or `String` per id.
fn render_u64(mut v: u64, out: &mut String) {
    let (mut digits, mut at) = ([b'0'; 20], 19);
    while v >= 10 {
        digits[at] += (v % 10) as u8;
        (v, at) = (v / 10, at - 1);
    }
    digits[at] += v as u8;
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    sg_obs::trace::escape_into(out, s);
    out.push('"');
}

/// Parser nesting cap — hostile inputs must not blow the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    /// Byte offset into `text`; on a char boundary wherever a `&str` slice
    /// is taken (every token delimiter is ASCII).
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.value(depth + 1)?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let before = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos > before
        };
        if !digits(self) {
            return Err(format!("invalid number at byte {start}"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(format!("invalid number at byte {start}"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(format!("invalid number at byte {start}"));
            }
        }
        Ok(number(&self.text[start..self.pos]))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let first = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err("lone high surrogate".to_string());
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err("lone high surrogate".to_string());
                                }
                                self.pos += 1;
                                let second = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err("invalid low surrogate".to_string());
                                }
                                let code = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                                char::from_u32(code).ok_or("invalid surrogate pair")?
                            } else {
                                char::from_u32(first).ok_or("invalid \\u escape")?
                            };
                            out.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control byte in string at {}", self.pos))
                }
                Some(_) => {
                    // Copy the clean run up to the next quote, backslash or
                    // control byte whole. All three are ASCII, so the run
                    // ends on a char boundary.
                    let rest = &self.text[self.pos..];
                    let run = rest
                        .bytes()
                        .position(|b| matches!(b, b'"' | b'\\') || b < 0x20)
                        .unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.text.len() {
            return Err("truncated \\u escape".to_string());
        }
        // `None` when a multi-byte char straddles `end`.
        let hex = self.text.get(self.pos..end).ok_or("invalid \\u escape")?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape".to_string())?;
        self.pos = end;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graph::prng::mix64;

    #[test]
    fn roundtrips_scalars_and_containers() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-12",
            "3.5",
            "1e9",
            "\"hi\"",
            "[]",
            "[1,2,3]",
            "{}",
            "{\"a\":1,\"b\":[true,null],\"c\":{\"d\":\"e\"}}",
        ] {
            let v = Json::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(v.render(), text, "canonical form round-trips");
            assert_eq!(Json::parse(&v.render()).expect("reparses"), v);
        }
    }

    #[test]
    fn u64_precision_survives() {
        let big = u64::MAX;
        let v = Json::parse(&format!("{{\"seed\":{big}}}")).expect("parses");
        assert_eq!(v.get("seed").and_then(Json::as_u64), Some(big));
        assert_eq!(Json::u64(big).render(), big.to_string());
    }

    #[test]
    fn number_tokens_render_as_parsed_and_only_canonical_unsigned_ones_are_int() {
        let long = "1234567890123456789012345";
        for (token, int) in [
            ("0", Some(0)),
            ("7", Some(7)),
            ("18446744073709551615", Some(u64::MAX)),
            ("-0", None),
            ("-12", None),
            ("1.50", None),
            ("1e3", None),
            ("007", None),
            ("18446744073709551616", None),
            (long, None),
        ] {
            let v = Json::parse(token).unwrap_or_else(|e| panic!("{token}: {e}"));
            assert_eq!(v.render(), token, "byte for byte");
            assert_eq!(v, int.map_or_else(|| Json::Num(token.to_string()), Json::Int), "{token}");
            assert_eq!(v.as_f64(), token.parse().ok(), "{token}");
        }
        // Out of range stays raw and is no u64; a spelling the parser lets
        // through still reads as before.
        for token in ["18446744073709551616", long, "-0", "1.50", "1e3"] {
            assert_eq!(Json::parse(token).expect("parses").as_u64(), None, "{token}");
        }
        assert_eq!(Json::parse("007").expect("parses").as_u64(), Some(7));
    }

    #[test]
    fn random_u64s_round_trip_and_agree_with_the_raw_form() {
        let edge_cases = [0, 1, 9, 10, 99, 100, (1 << 53) + 1, u64::MAX - 1, u64::MAX];
        let random = (0..2_000).map(|i| mix64(i) >> (mix64(i ^ 0x5eed) % 64));
        for v in edge_cases.into_iter().chain(random) {
            let text = Json::u64(v).render();
            assert_eq!(text, v.to_string());
            let parsed = Json::parse(&text).expect("parses");
            assert_eq!(parsed, Json::u64(v));
            assert_eq!(parsed.as_u64(), Some(v));
            assert_eq!(parsed.as_f64(), Json::Num(text).as_f64(), "{v}: Int and raw as_f64");
        }
    }

    #[test]
    fn constructed_and_parsed_numbers_compare_equal() {
        // Equal exactly when they render alike: the constructors classify
        // like the parser does.
        for v in [0.0, 3.0, 0.5, -0.0, -2.0, 1e15, 1e20, 1.5e300, u64::MAX as f64] {
            let built = Json::f64(v);
            assert_eq!(Json::parse(&built.render()).expect("reparses"), built, "{v}");
        }
        assert_eq!(Json::f64(3.0), Json::u64(3));
        assert_eq!(Json::f64(3.0), Json::parse("3").expect("parses"));
        assert_eq!(Json::f64(-0.0).render(), "-0");
        assert_ne!(Json::f64(3.5), Json::u64(3));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = Json::parse("\"a\\\"b\\\\c\\n\\u0041\\u00e9\\ud83d\\ude00\"").expect("parses");
        assert_eq!(v.as_str(), Some("a\"b\\c\nAé😀"));
        let rendered = Json::str("tab\there\u{1}").render();
        assert_eq!(rendered, "\"tab\\there\\u0001\"");
        assert_eq!(Json::parse(&rendered).expect("reparses").as_str(), Some("tab\there\u{1}"));
    }

    #[test]
    fn builder_and_accessors() {
        let v = Json::obj()
            .with("ok", Json::Bool(true))
            .with("n", Json::u64(7))
            .with("x", Json::f64(0.5))
            .with("nan", Json::f64(f64::NAN))
            .with("items", Json::Arr(vec![Json::str("a")]));
        assert_eq!(v.render(), "{\"ok\":true,\"n\":7,\"x\":0.5,\"nan\":null,\"items\":[\"a\"]}");
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("x").and_then(Json::as_f64), Some(0.5));
        assert_eq!(v.get("items").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn hostile_inputs_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "nul",
            "01x",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\ud800 lone\"",
            "1 2",
            "--1",
            "1.",
            "1e",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad}");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).unwrap_err().contains("nesting"));
    }

    /// Parse time must be linear in string length: a frame is parsed
    /// before `authorize`, and an `upload` chunk is one long base64 string.
    #[test]
    fn megabyte_strings_parse_in_linear_time() {
        const LEN: usize = 1 << 20;
        let plain = "é".repeat(LEN / 2);
        let escaped = ("x".repeat(63) + "\n").repeat(LEN / 64);
        for member in [plain, escaped] {
            let doc = Json::obj().with("data", Json::str(&member)).render();
            let start = std::time::Instant::now();
            let v = Json::parse(&doc).expect("parses");
            let took = start.elapsed();
            assert!(took.as_millis() < 500, "1 MiB string member took {took:?} to parse");
            assert_eq!(v.get("data").and_then(Json::as_str).map(str::len), Some(LEN));
            assert_eq!(v.render(), doc, "render round-trips");
        }
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] } \n").expect("parses");
        assert_eq!(v.render(), "{\"a\":[1,2]}");
    }
}
