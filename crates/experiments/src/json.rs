//! A deliberately tiny JSON subset — exactly what the durable artifacts
//! of the harness need (campaign journal records, serve-daemon job
//! records and wire protocol).
//!
//! The one load-bearing choice: integers are kept *lexical* as `u64`
//! ([`Json::Int`]) instead of coercing through `f64`, so 64-bit cycle
//! counters round-trip exactly and resumed tables are byte-identical.

/// One JSON value of the subset the harness persists and parses.
#[allow(missing_docs)] // variant names are the documentation
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Field lookup on an object (`None` on non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The exact `u64` of an [`Json::Int`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric value of an [`Json::Int`] or [`Json::Num`] (the protocol's
    /// `scale` field is fractional; journal counters never go through
    /// here).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The boolean of a [`Json::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string slice of a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items of a [`Json::Arr`].
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The fields of a [`Json::Obj`] in insertion order.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes the value onto `out` (compact, no whitespace).
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Num(x) => out.push_str(&format!("{x:?}")),
            Json::Str(s) => write_string(s, out),
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Serializes the value to a fresh compact string.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level and parses untrusted request lines (the serve daemon),
/// so an unbounded depth would let one line overflow the stack; no
/// document this crate writes nests more than a few levels.
const MAX_DEPTH: usize = 128;

/// Why [`parse`] rejected a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// Misplaced or missing punctuation, an unknown literal or value, or
    /// input after the document's end.
    Syntax,
    /// A string with a bad escape, invalid UTF-8 or no closing quote.
    String,
    /// A number that is neither a `u64` nor a finite `f64`.
    Number,
    /// Arrays and objects nested deeper than [`MAX_DEPTH`] levels.
    TooDeep,
}

/// A rejected document: what was wrong, where parsing stopped, and a
/// human-readable description (its `Display`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// The class of the first error.
    pub kind: JsonErrorKind,
    /// Byte offset at which parsing stopped.
    pub pos: usize,
    message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON document (trailing garbage is an error).
///
/// # Errors
///
/// Returns a [`JsonError`] for the first syntax error, a number out of
/// `f64` range, or nesting deeper than 128 arrays/objects.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error(
            JsonErrorKind::Syntax,
            format!("trailing garbage at byte {}", p.pos),
        ));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, kind: JsonErrorKind, message: impl Into<String>) -> JsonError {
        JsonError {
            kind,
            pos: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(
                JsonErrorKind::Syntax,
                format!(
                    "expected '{}' at byte {}, found {:?}",
                    b as char,
                    self.pos,
                    self.peek().map(|c| c as char)
                ),
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(
                JsonErrorKind::Syntax,
                format!("invalid literal at byte {}", self.pos),
            ))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(self.error(
                JsonErrorKind::Syntax,
                format!(
                    "unexpected {:?} at byte {}",
                    other.map(|c| c as char),
                    self.pos
                ),
            )),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        self.string_body()
            .map_err(|message| self.error(JsonErrorKind::String, message))
    }

    /// A string's contents after its opening quote.
    fn string_body(&mut self) -> Result<String, String> {
        let mut s = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(&b) = rest.first() else {
                return Err("unterminated string".into());
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => {
                    let esc = rest.get(1).copied().ok_or("truncated escape")?;
                    self.pos += 2;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            // `from_str_radix` alone would take a sign.
                            if !hex.iter().all(u8::is_ascii_hexdigit) {
                                return Err("bad \\u escape".into());
                            }
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            s.push(char::from_u32(code).ok_or("surrogate \\u escape")?);
                        }
                        other => return Err(format!("unknown escape '\\{}'", other as char)),
                    }
                }
                b if b < 0x80 => {
                    s.push(b as char);
                    self.pos += 1;
                }
                _ => {
                    // Consume one UTF-8 scalar (the journal writer
                    // emits raw UTF-8 above 0x1F). Validate at most
                    // one scalar's worth of bytes, not the whole
                    // remaining document.
                    let head = &rest[..rest.len().min(4)];
                    let c = match std::str::from_utf8(head) {
                        Ok(text) => text.chars().next().ok_or("unterminated string")?,
                        Err(e) if e.valid_up_to() > 0 => {
                            // Safe: the prefix up to valid_up_to is valid UTF-8.
                            std::str::from_utf8(&head[..e.valid_up_to()])
                                .map_err(|_| "invalid UTF-8")?
                                .chars()
                                .next()
                                .ok_or("unterminated string")?
                        }
                        Err(_) => return Err("invalid UTF-8".into()),
                    };
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        // The scanned bytes are ASCII, so they are valid UTF-8.
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]);
        // Lexical u64 first: exact round-trip for 64-bit counters.
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::Int(n));
        }
        // A value beyond f64 range would parse as an infinity, which
        // `Json::write` cannot emit as JSON.
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            _ => Err(self.error(JsonErrorKind::Number, format!("invalid number '{text}'"))),
        }
    }

    /// Parses one array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        inner: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(
                JsonErrorKind::TooDeep,
                format!(
                    "nesting deeper than {MAX_DEPTH} levels at byte {}",
                    self.pos
                ),
            ));
        }
        self.depth += 1;
        let v = inner(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => {
                    return Err(self.error(
                        JsonErrorKind::Syntax,
                        format!("expected ',' or ']' at byte {}", self.pos),
                    ))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
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
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => {
                    return Err(self.error(
                        JsonErrorKind::Syntax,
                        format!("expected ',' or '}}' at byte {}", self.pos),
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use gaas_trace::rng::SmallRng;

    #[test]
    fn nesting_is_capped_for_arrays_and_objects() {
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects = |n: usize| format!("{}1{}", r#"{"a":"#.repeat(n), "}".repeat(n));
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        for doc in [arrays(MAX_DEPTH + 1), objects(MAX_DEPTH + 1)] {
            let err = parse(&doc).expect_err("one level too deep");
            assert_eq!(err.kind, JsonErrorKind::TooDeep, "{err}");
            assert!(err.to_string().contains("nesting deeper"), "{err}");
        }
        // Unterminated megabyte-deep input: an error, not a stack overflow.
        for open in ["[", r#"{"a":"#] {
            let err = parse(&open.repeat(1 << 20)).expect_err("too deep");
            assert_eq!(err.kind, JsonErrorKind::TooDeep, "{err}");
        }
    }

    /// Applies one to four random byte edits to `doc`: a flipped bit, a
    /// replaced, inserted or deleted byte. Lossy decoding keeps the
    /// result a `&str`, as every caller hands the parser.
    fn mutate(doc: &str, rng: &mut SmallRng) -> String {
        const BYTES: &[u8] = b"{}[]\",:0123456789.eE+-\\u nulltruefalse\x7f\xff";
        let mut bytes = doc.as_bytes().to_vec();
        for _ in 0..rng.gen_range(1..=4usize) {
            let at = rng.gen_range(0..=bytes.len());
            let byte = BYTES[rng.gen_range(0..BYTES.len())];
            match rng.gen_range(0..4u32) {
                0 if at < bytes.len() => bytes[at] ^= 1 << rng.gen_range(0..8u32),
                1 if at < bytes.len() => bytes[at] = byte,
                2 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => bytes.insert(at, byte),
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// The property every input must meet: it parses, and the value
    /// re-serializes to text that parses back to the same value, or it
    /// fails with a typed error positioned inside the input.
    fn parses_or_fails_typed(text: &str) -> Result<Json, JsonError> {
        let parsed = parse(text);
        match &parsed {
            Ok(v) => {
                let again = parse(&v.to_text()).expect("written JSON parses");
                assert_eq!(&again, v, "round trip of {text:?}");
            }
            Err(e) => {
                assert!(e.pos <= text.len(), "{e:?} for {text:?}");
                assert!(!e.to_string().is_empty(), "{e:?}");
            }
        }
        parsed
    }

    #[test]
    fn malformed_inputs_parse_or_fail_typed() {
        let corpus = [
            r#"{"v":2,"key":"fig2/0","cells":[1,2.5,-3e-7,18446744073709551615],"ok":true}"#,
            r#"{"op":"submit","spec":{"name":"t","scale":0.00005,"cells":[{"l2_access":2}]}}"#,
            r#"[null,false,"esc \" \\ \/ \b\f\n\r\t \u0041 \u00e9",{"":[]},"GaAs ü €"]"#,
            r#"  {"a" : [ 1 , { "b" : null } ] , "c":"\u001f"}  "#,
        ];
        let mut rng = SmallRng::seed_from_u64(0x1503_F022);
        for doc in corpus {
            parses_or_fails_typed(doc).expect("the corpus is well-formed");
            let bytes = doc.trim_end().as_bytes();
            for cut in 0..bytes.len() {
                let prefix = String::from_utf8_lossy(&bytes[..cut]);
                parses_or_fails_typed(&prefix).expect_err("a strict prefix is incomplete");
            }
        }
        let mut rejected = 0;
        for _ in 0..20_000 {
            let doc = corpus[rng.gen_range(0..corpus.len())];
            rejected += usize::from(parses_or_fails_typed(&mutate(doc, &mut rng)).is_err());
        }
        assert!(
            rejected > 10_000,
            "most edits break the document: {rejected}"
        );
        // Deep nesting of mixed, unbalanced and balanced brackets.
        for _ in 0..200 {
            let depth = rng.gen_range(1..3 * MAX_DEPTH);
            let mut text = String::new();
            for _ in 0..depth {
                text.push_str(if rng.gen_bool(0.5) { "[" } else { r#"{"k":"# });
            }
            text.push('0');
            for _ in 0..rng.gen_range(0..=depth) {
                text.push(if rng.gen_bool(0.5) { ']' } else { '}' });
            }
            if let Err(e) = parses_or_fails_typed(&text) {
                if depth > MAX_DEPTH {
                    assert_eq!(e.kind, JsonErrorKind::TooDeep, "{text}");
                }
            }
        }
        // A signed \u escape is not four hex digits.
        for text in [r#""\u+041""#, r#""\u-041""#] {
            let err = parses_or_fails_typed(text).expect_err("signed escape");
            assert_eq!(err.kind, JsonErrorKind::String, "{text}");
        }
        // Numbers past the u64 and f64 ranges.
        let huge = format!("1{}", "0".repeat(400));
        let cases = [
            ("18446744073709551616", true),
            ("1e308", true),
            ("1e-400", true),
            ("-0", true),
            ("1e309", false),
            ("-1e309", false),
            (huge.as_str(), false),
            ("1e99999999999999999999", false),
        ];
        for (text, ok) in cases {
            let wrapped = format!("[{text}]");
            match parses_or_fails_typed(&wrapped) {
                Ok(_) => assert!(ok, "{text} must be refused"),
                Err(e) => {
                    assert!(!ok, "{text} must parse: {e}");
                    assert_eq!(e.kind, JsonErrorKind::Number, "{text}");
                }
            }
        }
    }
}
