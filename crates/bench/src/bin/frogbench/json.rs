//! A small JSON writer. The vendored `serde` is a no-op, so documents are built
//! as a [`Json`] tree and rendered by hand: strings are escaped, and a number
//! that is NaN or infinite is an error instead of an invalid document.

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` pairs, in the order given.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Renders the value on one line.
    ///
    /// # Errors
    ///
    /// Names the first non-finite number found.
    pub fn render(&self) -> Result<String, String> {
        let mut out = String::new();
        self.write(&mut out)?;
        Ok(out)
    }

    fn write(&self, out: &mut String) -> Result<(), String> {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) => {
                if !x.is_finite() {
                    return Err(format!("cannot write non-finite number {x} as JSON"));
                }
                // `Display` for f64 is the shortest decimal that round-trips and
                // never uses an exponent, so it is always a valid JSON number.
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out)?;
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, key);
                    out.push(':');
                    value
                        .write(out)
                        .map_err(|e| format!("{e} (member \"{key}\")"))?;
                }
                out.push('}');
            }
        }
        Ok(())
    }
}

fn write_string(out: &mut String, s: &str) {
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

    #[test]
    fn renders_nested_values_in_insertion_order() {
        let doc = Json::obj([
            ("b", Json::Bool(true)),
            ("a", Json::Arr(vec![Json::Int(3), Json::Num(0.25)])),
        ]);
        assert_eq!(doc.render().unwrap(), r#"{"b":true,"a":[3,0.25]}"#);
    }

    #[test]
    fn escapes_strings() {
        let doc = Json::str("a\"b\\c\nd\u{1}");
        let expected = concat!(r#""a\"b\\c\nd\u"#, r#"0001""#);
        assert_eq!(doc.render().unwrap(), expected);
    }

    #[test]
    fn rejects_non_finite_numbers_and_names_the_member() {
        assert!(Json::Num(f64::NAN).render().is_err());
        let doc = Json::obj([("x", Json::Num(f64::INFINITY))]);
        let err = doc.render().unwrap_err();
        assert!(err.contains("\"x\""), "{err}");
    }

    #[test]
    fn small_and_large_numbers_stay_plain_decimals() {
        assert_eq!(Json::Num(1.5e-7).render().unwrap(), "0.00000015");
        assert_eq!(Json::Num(2e21).render().unwrap(), "2000000000000000000000");
    }
}
