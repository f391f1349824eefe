//! The little JSON the benchmark writes, without a serializer crate.

/// `s` as a JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON value, kept as already-rendered text.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Num(f64),
    Int(u64),
    Str(String),
    Bool(bool),
}

impl Value {
    fn render(&self) -> String {
        match self {
            // Rust prints finite floats without exponents, all digits kept.
            Value::Num(x) if x.is_finite() => format!("{x}"),
            Value::Num(_) => "null".to_string(),
            Value::Int(n) => n.to_string(),
            Value::Str(s) => string(s),
            Value::Bool(b) => b.to_string(),
        }
    }
}

/// A flat JSON object of `(key, value)` pairs in insertion order.
pub fn object(pairs: &[(&str, Value)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {}", string(k), v.render()))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_flat_objects() {
        let o = object(&[
            ("a", Value::Num(1.25)),
            ("b", Value::Int(3)),
            ("c", Value::Str("x\"y".into())),
            ("d", Value::Bool(true)),
            ("e", Value::Num(f64::NAN)),
        ]);
        assert_eq!(
            o,
            r#"{"a": 1.25, "b": 3, "c": "x\"y", "d": true, "e": null}"#
        );
        assert_eq!(string("a\nb\u{1}"), r#""a\nb\u0001""#);
    }
}
