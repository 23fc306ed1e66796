//! A JSON writer just big enough for the result line and `result.json`
//! (the container has no serde).

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A whole number.
    Int(u64),
    /// A measured number, written with every digit `f64` round-trips.
    Num(f64),
    /// A string.
    Str(String),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact one-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(x) => {
                assert!(x.is_finite(), "JSON has no {x}");
                // `{:?}` keeps a trailing `.0`, so a number stays a number
                // of the same kind for whoever parses it.
                out.push_str(&format!("{x:?}"));
            }
            Json::Str(s) => write_str(s, out),
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
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn metrics_object<'a>(metrics: impl Iterator<Item = (&'a str, f64, &'a str)>) -> Json {
    Json::obj(metrics.map(|(name, value, unit)| {
        (
            name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.into())),
            ]),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_contract_line() {
        let line = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1000)),
            ("failed", Json::Int(0)),
            (
                "metrics",
                metrics_object([("latency_ms", 1.2034, "ms"), ("setup_s", 2.0, "s")].into_iter()),
            ),
        ])
        .render();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn escapes_strings_and_keeps_every_digit() {
        assert_eq!(Json::Str("a\"b\\c\n".into()).render(), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(Json::Num(0.1 + 0.2).render(), "0.30000000000000004");
    }

    #[test]
    #[should_panic(expected = "JSON has no")]
    fn refuses_nan() {
        Json::Num(f64::NAN).render();
    }
}
