//! A JSON value that can be written; the benchmark never reads JSON.

use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    /// Written with every digit `f64` needs to round-trip.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn nums(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            // JSON has no NaN or infinity; the caller checks finiteness
            // before a value becomes a metric, so this only guards files.
            Json::Num(v) if !v.is_finite() => f.write_str("null"),
            Json::Num(v) => write!(f, "{v}"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_nested_values_on_one_line() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("n", Json::Num(3.0)),
            ("x", Json::Num(0.1 + 0.2)),
            ("s", Json::str("a\"b\\c\n")),
            ("a", Json::nums(&[1.5, f64::NAN])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"correct": true, "n": 3, "x": 0.30000000000000004, "s": "a\"b\\c\n", "a": [1.5, null]}"#
        );
    }
}
