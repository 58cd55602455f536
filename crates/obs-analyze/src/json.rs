//! The small strict JSON reader under the trace parser.
//!
//! Numbers are kept as their **raw source token** rather than eagerly
//! converted: the `ting-obs-v1` round-trip contract is byte-level, and
//! whether `"1"` came from a `u64` or an integral `f64` is decided by
//! the consumer (both re-render to the same byte, so the distinction
//! never breaks the contract). Objects preserve key order for the same
//! reason.

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    /// The raw number token, exactly as it appeared in the source.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The object's fields, or an error naming `what` when it is not
    /// an object.
    pub(crate) fn as_obj(&self, what: &str) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(fields) => Ok(fields),
            other => Err(format!("{what}: expected object, got {}", other.kind())),
        }
    }

    /// The value as a `u64`, or an error naming `what`.
    pub(crate) fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Json::Num(raw) => raw
                .parse::<u64>()
                .map_err(|_| format!("{what}: {raw:?} is not a u64")),
            other => Err(format!("{what}: expected number, got {}", other.kind())),
        }
    }

    /// The value as a string, or an error naming `what`.
    pub(crate) fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("{what}: expected string, got {}", other.kind())),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// Parses exactly one JSON value spanning the whole input (surrounding
/// whitespace allowed, trailing garbage is an error).
pub(crate) fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        chars: input.chars().collect(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.chars.len() {
        return Err(format!("trailing characters at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<char, String> {
        let c = self.peek().ok_or("unexpected end of input")?;
        self.pos += 1;
        Ok(c)
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        let got = self.bump()?;
        if got != want {
            return Err(format!("expected {want:?}, got {got:?}"));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or("unexpected end of input")? {
            '{' => self.object(),
            '[' => self.array(),
            '"' => Ok(Json::Str(self.string()?)),
            't' => self.literal("true", Json::Bool(true)),
            'f' => self.literal("false", Json::Bool(false)),
            'n' => self.literal("null", Json::Null),
            '-' | '0'..='9' => self.number(),
            other => Err(format!("unexpected character {other:?}")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        for want in word.chars() {
            self.expect(want)?;
        }
        Ok(value)
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect('{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.bump()? {
                ',' => continue,
                '}' => return Ok(Json::Obj(fields)),
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump()? {
                ',' => continue,
                ']' => return Ok(Json::Arr(items)),
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump()? {
                '"' => return Ok(out),
                '\\' => match self.bump()? {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        let hi = self.hex4()?;
                        let c = if (0xd800..0xdc00).contains(&hi) {
                            // Surrogate pair: \uDnnn\uDnnn.
                            self.expect('\\')?;
                            self.expect('u')?;
                            let lo = self.hex4()?;
                            if !(0xdc00..0xe000).contains(&lo) {
                                return Err("unpaired high surrogate".to_owned());
                            }
                            let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                            char::from_u32(code).ok_or("invalid surrogate pair")?
                        } else {
                            char::from_u32(hi).ok_or("invalid \\u escape")?
                        };
                        out.push(c);
                    }
                    other => return Err(format!("bad escape \\{other}")),
                },
                c if (c as u32) < 0x20 => {
                    return Err(format!("unescaped control character {:#x}", c as u32))
                }
                c => out.push(c),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut n = 0u32;
        for _ in 0..4 {
            let c = self.bump()?;
            n = n * 16
                + c.to_digit(16)
                    .ok_or_else(|| format!("bad hex digit {c:?}"))?;
        }
        Ok(n)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.pos += 1;
        }
        let digits_from = self.pos;
        while matches!(self.peek(), Some('0'..='9')) {
            self.pos += 1;
        }
        if self.pos == digits_from {
            return Err("number with no digits".to_owned());
        }
        if self.peek() == Some('.') {
            self.pos += 1;
            let frac_from = self.pos;
            while matches!(self.peek(), Some('0'..='9')) {
                self.pos += 1;
            }
            if self.pos == frac_from {
                return Err("number with empty fraction".to_owned());
            }
        }
        if matches!(self.peek(), Some('e' | 'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some('+' | '-')) {
                self.pos += 1;
            }
            let exp_from = self.pos;
            while matches!(self.peek(), Some('0'..='9')) {
                self.pos += 1;
            }
            if self.pos == exp_from {
                return Err("number with empty exponent".to_owned());
            }
        }
        Ok(Json::Num(self.chars[start..self.pos].iter().collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,-2,3.5,null,true],"b":{"c":"x"}}"#).unwrap();
        assert_eq!(
            v,
            Json::Obj(vec![
                (
                    "a".into(),
                    Json::Arr(vec![
                        Json::Num("1".into()),
                        Json::Num("-2".into()),
                        Json::Num("3.5".into()),
                        Json::Null,
                        Json::Bool(true),
                    ])
                ),
                (
                    "b".into(),
                    Json::Obj(vec![("c".into(), Json::Str("x".into()))])
                ),
            ])
        );
    }

    #[test]
    fn preserves_raw_number_tokens() {
        let v = parse("[1.50, 2e3]").unwrap();
        assert_eq!(
            v,
            Json::Arr(vec![Json::Num("1.50".into()), Json::Num("2e3".into())])
        );
    }

    #[test]
    fn decodes_escapes_and_surrogates() {
        let v = parse(r#""a\n\t\u0001\ud83d\ude00""#).unwrap();
        assert_eq!(v, Json::Str("a\n\t\u{1}\u{1F600}".into()));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_tokens() {
        assert!(parse("{} x").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("01a").is_err());
        assert!(parse("\"unterminated").is_err());
    }
}
