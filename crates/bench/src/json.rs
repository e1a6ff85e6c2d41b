//! A minimal JSON reader for the harness's own reports.
//!
//! The workspace is hermetic (no serde), so every report plane hand-rolls
//! its writer. That was fine while the documents were write-only artifacts;
//! the [`crate::exp`] cache reads them back — to splice cached perf points
//! into a regenerated benchmark file and to render plots and tables from
//! cached results — and the round-trip tests pin the writers' headers. This
//! module is the matching reader: a small recursive-descent parser over the
//! subset of JSON our writers emit (and, defensively, standard escapes and
//! signed/float numbers), with unsigned integers kept exact rather than
//! routed through `f64`.

/// A parsed JSON value. Integer-looking numbers that fit in `u64` parse as
/// [`Json::UInt`] so counters and fingerprints survive exactly; everything
/// else numeric falls back to [`Json::Num`].
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits in 64 bits, kept exact.
    UInt(u64),
    /// Any other number (negative, fractional, exponent).
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order (our writers rely on field order).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match, `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an exact `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(v) => Some(*v as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// How deep arrays and objects may nest. The parser recurses once per
/// level, so a bound keeps a hostile document from overflowing the stack;
/// the documents this workspace writes nest 5 levels deep.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document. Trailing non-whitespace is an error, as is
/// anything structurally malformed or nested more than 128 levels deep;
/// the message carries a byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset of the next unread input.
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, ch: u8) -> Result<(), String> {
        if self.peek() == Some(ch) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", ch as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses one array or object a level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
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
            let val = self.value()?;
            fields.push((key, val));
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

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| format!("bad codepoint {hex:#x}"))?,
                            );
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar, read from a checked slice
                    // of the source text.
                    let ch = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| format!("not a character boundary at byte {}", self.pos))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if !fractional {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

/// Extracts the raw text of the array value of `key` from `doc` — the
/// verbatim `[...]` substring, escapes and formatting untouched. This is
/// how the exp cache splices stored report fragments into a regenerated
/// document without reformatting them. Only the first occurrence of
/// `"key":` outside strings is considered.
pub fn extract_array(doc: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let bytes = doc.as_bytes();
    // Find the needle outside of string context by tracking quotes.
    let mut in_str = false;
    let mut prev = 0u8;
    let mut at = None;
    for i in 0..bytes.len() {
        let b = bytes[i];
        if in_str {
            if b == b'"' && prev != b'\\' {
                in_str = false;
            }
        } else if doc[i..].starts_with(&needle) {
            at = Some(i + needle.len());
            break;
        } else if b == b'"' {
            in_str = true;
        }
        prev = b;
    }
    let mut i = at?;
    while i < bytes.len() && (bytes[i] as char).is_whitespace() {
        i += 1;
    }
    if bytes.get(i) != Some(&b'[') {
        return None;
    }
    let start = i;
    let mut depth = 0i64;
    let mut in_str = false;
    let mut prev = 0u8;
    while i < bytes.len() {
        let b = bytes[i];
        if in_str {
            if b == b'"' && prev != b'\\' {
                in_str = false;
            }
        } else {
            match b {
                b'"' => in_str = true,
                b'[' => depth += 1,
                b']' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(doc[start..=i].to_string());
                    }
                }
                _ => {}
            }
        }
        prev = b;
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_integers_exactly() {
        let doc = parse(r#"{"fp":18446744073709551615,"neg":-3,"pi":3.25}"#).unwrap();
        assert_eq!(doc.get("fp").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(doc.get("neg").unwrap().as_f64(), Some(-3.0));
        assert_eq!(doc.get("pi").unwrap().as_f64(), Some(3.25));
        assert_eq!(doc.get("fp").unwrap().as_f64(), Some(u64::MAX as f64));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = parse(r#"{"a":[1,[2,3],{"b":null,"c":true}],"s":"x\"y\n"}"#).unwrap();
        let arr = doc.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_arr().unwrap()[1].as_u64(), Some(3));
        assert_eq!(arr[2].get("b"), Some(&Json::Null));
        assert_eq!(arr[2].get("c").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("s").unwrap().as_str(), Some("x\"y\n"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn bounds_nesting_depth_with_a_diagnostic() {
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let objects = |depth: usize| "{\"a\":".repeat(depth) + "0" + &"}".repeat(depth);
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        let err = parse(&arrays(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.ends_with(&format!("at byte {MAX_DEPTH}")), "{err}");
        let err = parse(&objects(MAX_DEPTH + 1)).unwrap_err();
        assert!(
            err.ends_with(&format!("at byte {}", 5 * MAX_DEPTH)),
            "{err}"
        );
        // The parser recurses once per level, so without the limit this
        // document would overflow the stack; it stops at the limit instead.
        let err = parse(&"[".repeat(200_000)).unwrap_err();
        assert!(err.starts_with("nesting deeper than"), "{err}");
    }

    #[test]
    fn parses_non_ascii_strings_raw_and_escaped() {
        let doc = parse(r#"{"raw":"Δ","esc":"\u0394","mix":"aΔb\u0394\u2192"}"#).unwrap();
        assert_eq!(doc.get("raw").unwrap().as_str(), Some("Δ"));
        assert_eq!(doc.get("esc").unwrap().as_str(), Some("Δ"));
        assert_eq!(doc.get("mix").unwrap().as_str(), Some("aΔbΔ→"));
        // A multi-byte character where an escape letter or a hex digit
        // belongs is a diagnostic, not a panic.
        assert!(parse(r#""\Δ""#).is_err());
        assert!(parse(r#""\u0Δ9""#).is_err());
    }

    #[test]
    fn extract_array_is_verbatim() {
        let doc = "{\"points\":[\n{\"x\":1,\"t\":\"a]b\"},\n{\"x\":[2,3]}\n],\"z\":1}";
        let got = extract_array(doc, "points").unwrap();
        assert_eq!(got, "[\n{\"x\":1,\"t\":\"a]b\"},\n{\"x\":[2,3]}\n]");
        assert!(extract_array(doc, "absent").is_none());
        // A key mentioned inside a string value must not match.
        let tricky = "{\"s\":\"\\\"points\\\":[9]\",\"points\":[1]}";
        assert_eq!(extract_array(tricky, "points").unwrap(), "[1]");
    }
}
