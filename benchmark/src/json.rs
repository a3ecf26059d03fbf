//! A small JSON reader, for the tests only: what the emitters write must
//! parse, and `BENCHMARK.json` must name what the program prints.

use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses one JSON document; `Err` names the byte offset it stopped at.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: text.as_bytes(), at: 0 };
    let value = p.value()?;
    p.skip_space();
    if p.at == p.bytes.len() {
        Ok(value)
    } else {
        Err(p.fail("trailing input"))
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn fail(&self, what: &str) -> String {
        format!("{what} at byte {}", self.at)
    }

    fn skip_space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        let hit = self.bytes[self.at..].starts_with(token.as_bytes());
        if hit {
            self.at += token.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_space();
        match self.bytes.get(self.at) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(c) if *c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.fail("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.at += 1;
        let mut map = BTreeMap::new();
        self.skip_space();
        if self.eat("}") {
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_space();
            let key = self.string()?;
            self.skip_space();
            if !self.eat(":") {
                return Err(self.fail("expected ':'"));
            }
            if map.insert(key, self.value()?).is_some() {
                return Err(self.fail("duplicate key"));
            }
            self.skip_space();
            if self.eat("}") {
                return Ok(Json::Object(map));
            }
            if !self.eat(",") {
                return Err(self.fail("expected ',' or '}'"));
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.at += 1;
        let mut items = Vec::new();
        self.skip_space();
        if self.eat("]") {
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_space();
            if self.eat("]") {
                return Ok(Json::Array(items));
            }
            if !self.eat(",") {
                return Err(self.fail("expected ',' or ']'"));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.fail("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            let Some(&c) = self.bytes.get(self.at) else { return Err(self.fail("open string")) };
            self.at += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|_| self.fail("bad UTF-8")),
                b'\\' => {
                    let Some(&e) = self.bytes.get(self.at) else {
                        return Err(self.fail("open escape"));
                    };
                    self.at += 1;
                    let plain = match e {
                        b'"' | b'\\' | b'/' => e,
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'r' => b'\r',
                        b'b' => 0x08,
                        b'f' => 0x0c,
                        b'u' => {
                            let hex = self.bytes.get(self.at..self.at + 4);
                            let code = hex
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.fail("bad \\u escape"))?;
                            self.at += 4;
                            out.extend_from_slice(code.encode_utf8(&mut [0; 4]).as_bytes());
                            continue;
                        }
                        _ => return Err(self.fail("unknown escape")),
                    };
                    out.push(plain);
                }
                c if c < 0x20 => return Err(self.fail("raw control character")),
                c => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| self.fail("bad number"))
    }
}

#[test]
fn reads_nested_documents_and_rejects_broken_ones() {
    let doc = parse(r#" {"a": [1, -2.5e1, true, null], "b": {"c": "x\"A\n"}} "#).unwrap();
    assert_eq!(doc.get("a").and_then(Json::as_array).map(<[Json]>::len), Some(4));
    assert_eq!(doc.get("a").unwrap().as_array().unwrap()[1], Json::Num(-25.0));
    assert_eq!(doc.get("b").and_then(|b| b.get("c")).and_then(Json::as_str), Some("x\"A\n"));
    for broken in ["{\"a\": 1,}", "[1 2]", "\"open", "{\"a\": 1} x", "{\"a\": 1, \"a\": 2}", "nul"]
    {
        assert!(parse(broken).is_err(), "{broken} must not parse");
    }
}
