//! A JSON value and its writer: the result line and the trace file.

use std::fmt::Write as _;

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
    pub fn obj<K: Into<String>>(pairs: Vec<(K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact single-line rendering. Floats print with every digit
    /// (Rust's shortest round-trip form); a non-finite float has no JSON
    /// spelling and renders as `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Just enough of a parser to read back what `render` writes.
    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn eat(&mut self, lit: &str) -> bool {
            if self.s[self.i..].starts_with(lit.as_bytes()) {
                self.i += lit.len();
                true
            } else {
                false
            }
        }

        fn value(&mut self) -> Json {
            self.ws();
            if self.eat("null") {
                return Json::Null;
            }
            if self.eat("true") {
                return Json::Bool(true);
            }
            if self.eat("false") {
                return Json::Bool(false);
            }
            match self.s[self.i] {
                b'"' => Json::Str(self.string()),
                b'[' => {
                    self.i += 1;
                    let mut items = Vec::new();
                    loop {
                        self.ws();
                        if self.eat("]") {
                            return Json::Arr(items);
                        }
                        items.push(self.value());
                        self.ws();
                        self.eat(",");
                    }
                }
                b'{' => {
                    self.i += 1;
                    let mut pairs = Vec::new();
                    loop {
                        self.ws();
                        if self.eat("}") {
                            return Json::Obj(pairs);
                        }
                        let k = self.string();
                        self.ws();
                        assert!(self.eat(":"));
                        pairs.push((k, self.value()));
                        self.ws();
                        self.eat(",");
                    }
                }
                _ => {
                    let start = self.i;
                    while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                        self.i += 1;
                    }
                    let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                    match text.parse::<u64>() {
                        Ok(i) => Json::Int(i),
                        Err(_) => Json::Num(text.parse().unwrap()),
                    }
                }
            }
        }

        fn string(&mut self) -> String {
            assert_eq!(self.s[self.i], b'"');
            self.i += 1;
            let mut out = Vec::new();
            loop {
                match self.s[self.i] {
                    b'"' => {
                        self.i += 1;
                        return String::from_utf8(out).unwrap();
                    }
                    b'\\' => {
                        self.i += 1;
                        match self.s[self.i] {
                            b'n' => out.push(b'\n'),
                            b'r' => out.push(b'\r'),
                            b't' => out.push(b'\t'),
                            b'u' => {
                                let hex = std::str::from_utf8(&self.s[self.i + 1..self.i + 5]);
                                out.push(u8::from_str_radix(hex.unwrap(), 16).unwrap());
                                self.i += 4;
                            }
                            c => out.push(c),
                        }
                        self.i += 1;
                    }
                    c => {
                        out.push(c);
                        self.i += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn rendered_value_parses_back() {
        let v = Json::obj(vec![
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1000)),
            (
                "name",
                Json::Str("tab\there \"quoted\" back\\slash\nnl \u{1} é".into()),
            ),
            (
                "metrics",
                Json::obj(vec![(
                    "op_ms_p50",
                    Json::obj(vec![
                        ("value", Json::Num(10.613_402_7)),
                        ("unit", Json::Str("ms".into())),
                    ]),
                )]),
            ),
            (
                "spans",
                Json::Arr(vec![
                    Json::Num(1e-7),
                    Json::Num(-2.5),
                    Json::Null,
                    Json::Arr(vec![]),
                ]),
            ),
        ]);
        let text = v.render();
        assert!(!text.contains('\n'), "result must stay on one line");
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        assert_eq!(p.value(), v);
        assert_eq!(p.i, text.len());
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        assert_eq!(
            Json::Arr(vec![Json::Num(f64::NAN), Json::Num(f64::INFINITY)]).render(),
            "[null, null]"
        );
    }
}
