//! A minimal JSON tree for the wire protocol.
//!
//! The workspace vendors no external crates, so this module hand-rolls the
//! little JSON the protocol needs: a [`Json`] tree, a recursive-descent
//! parser and a compact single-line emitter.  Two deliberate choices keep
//! the protocol byte-exact:
//!
//! * **Numbers stay raw tokens** ([`Json::Number`] holds the literal text),
//!   so a `u64` seed or an engine-formatted float survives a round trip
//!   without ever passing through `f64` and losing precision.
//! * **Objects are ordered pair lists**, so an emitted request or event has
//!   exactly the key order the protocol code wrote — no hash-map shuffling
//!   between daemon and client.
//!
//! Report payloads (the engine's pre-rendered JSON strings) are carried as
//! *strings* inside protocol messages; this module only needs to escape and
//! unescape them faithfully, never to re-parse their numerics.

use engine::report::json_string_into;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its literal token (see the module docs).
    Number(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object as an ordered `(key, value)` list.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// A number value from anything displayable as a numeric token.
    pub fn number(n: impl ToString) -> Json {
        Json::Number(n.to_string())
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The number token parsed as `u64`, if this is an integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// The number token parsed as `u32`.
    pub fn as_u32(&self) -> Option<u32> {
        match self {
            Json::Number(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// The number token parsed as `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Number(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// Emits the value as compact single-line JSON (no added whitespace, so
    /// one protocol message is always exactly one line).
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out);
        out
    }

    fn emit_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(token) => out.push_str(token),
            Json::Str(s) => json_string_into(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.emit_into(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json_string_into(key, out);
                    out.push(':');
                    value.emit_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document; trailing content (other than whitespace) is
    /// an error, so a framing bug can never silently truncate a message.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser { text, bytes: text.as_bytes(), pos: 0 };
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing content at byte {}", parser.pos));
        }
        Ok(value)
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(format!("malformed number at byte {start}"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_owned())?;
        Ok(Json::Number(token.to_owned()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.hex4()?;
                            // Combine a UTF-16 surrogate pair; a lone
                            // surrogate is a protocol error.
                            let c = if (0xd800..0xdc00).contains(&unit) {
                                if !(self.peek() == Some(b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u'))
                                {
                                    return Err("lone high surrogate".to_owned());
                                }
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err("bad low surrogate".to_owned());
                                }
                                let code = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                                char::from_u32(code).ok_or("bad surrogate pair")?
                            } else {
                                char::from_u32(unit).ok_or("bad unicode escape")?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or backslash
                    // in one slice.  Both are ASCII, so the run ends on a
                    // char boundary of the (already valid) input text.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .ok_or("unterminated string")?;
                    out.push_str(self.text.get(self.pos..self.pos + run).ok_or("non-utf8 string")?);
                    self.pos += run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or("truncated unicode escape")?;
        let unit = u32::from_str_radix(hex, 16).map_err(|_| "bad unicode escape".to_owned())?;
        self.pos = end;
        Ok(unit)
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(value: &Json) {
        let line = value.emit();
        assert_eq!(&Json::parse(&line).unwrap(), value, "{line}");
    }

    #[test]
    fn scalars_round_trip() {
        roundtrip(&Json::Null);
        roundtrip(&Json::Bool(true));
        roundtrip(&Json::Bool(false));
        roundtrip(&Json::number(u64::MAX));
        roundtrip(&Json::Number("-12.5e-3".to_owned()));
        roundtrip(&Json::Str(String::new()));
        roundtrip(&Json::Str("plain".to_owned()));
    }

    #[test]
    fn u64_numbers_keep_full_precision() {
        // Through an f64 this would round; the raw token must not.
        let token = Json::number(u64::MAX).emit();
        assert_eq!(token, "18446744073709551615");
        assert_eq!(Json::parse(&token).unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn embedded_report_strings_round_trip_byte_exactly() {
        let report = "{\n  \"records\": [\n    {\"x\": 1.25}\n  ]\n}\n";
        let wrapped = Json::Object(vec![("report".to_owned(), Json::Str(report.to_owned()))]);
        let line = wrapped.emit();
        assert!(!line.contains('\n'), "one message stays one line");
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("report").unwrap().as_str(), Some(report));
    }

    #[test]
    fn escapes_and_unicode_round_trip() {
        roundtrip(&Json::Str("quote \" backslash \\ newline \n tab \t bell \u{0007}".to_owned()));
        roundtrip(&Json::Str("π ≈ 3.14159 — ✓ 🦀".to_owned()));
        assert_eq!(Json::parse("\"\\u00e9\\ud83e\\udd80\"").unwrap().as_str(), Some("é🦀"));
        assert!(Json::parse("\"\\ud800\"").is_err(), "lone surrogate rejected");
    }

    #[test]
    fn megabyte_string_with_every_escape_round_trips() {
        // (wire text, decoded text) pieces: every escape the parser knows,
        // a surrogate pair, and raw multi-byte characters between them.
        let pieces = [
            ("\\\"", "\""),
            ("\\\\", "\\"),
            ("\\/", "/"),
            ("\\b", "\u{0008}"),
            ("\\f", "\u{000c}"),
            ("\\n", "\n"),
            ("\\r", "\r"),
            ("\\t", "\t"),
            ("\\u00e9", "é"),
            ("\\ud83e\\udd80", "🦀"),
            ("π ≈ 3.14159 — ✓ 🦀 plain ascii run ", "π ≈ 3.14159 — ✓ 🦀 plain ascii run "),
        ];
        let (mut wire, mut expected) = (String::from("\""), String::new());
        while expected.len() < 1 << 20 {
            for (escaped, decoded) in pieces {
                wire.push_str(escaped);
                expected.push_str(decoded);
            }
        }
        wire.push('"');
        assert_eq!(Json::parse(&wire).unwrap().as_str(), Some(expected.as_str()));
        roundtrip(&Json::Str(expected));
    }

    #[test]
    fn objects_preserve_key_order() {
        let obj = Json::Object(vec![
            ("zebra".to_owned(), Json::number(1)),
            ("alpha".to_owned(), Json::Bool(false)),
        ]);
        assert_eq!(obj.emit(), "{\"zebra\":1,\"alpha\":false}");
        roundtrip(&obj);
        assert_eq!(obj.get("alpha"), Some(&Json::Bool(false)));
        assert_eq!(obj.get("missing"), None);
    }

    #[test]
    fn nested_structures_parse_with_whitespace() {
        let parsed = Json::parse(" { \"a\" : [ 1 , 2.5 , { \"b\" : null } ] } ").unwrap();
        let items = parsed.get("a").unwrap().as_array().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[2].get("b"), Some(&Json::Null));
    }

    #[test]
    fn malformed_input_is_rejected() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"unterminated", "{'a':1}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }
}
