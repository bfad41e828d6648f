//! Dependency-free JSON values and serialisation for experiment artifacts.
//!
//! The `trmma-eval` experiments emit small flat JSON records (method, dataset,
//! metric values). This module provides the [`Value`] tree, the [`crate::json!`]
//! object/array literal macro and a pretty printer — the subset of
//! `serde_json` the harness needs, without the dependency.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

/// Conversion into a [`Value`] by reference (what the [`crate::json!`] macro uses,
/// so object fields never move out of borrowed structs).
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Value;
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Value {
        Value::String((*self).to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::String(self.clone())
    }
}

macro_rules! to_json_number {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            #[allow(clippy::cast_precision_loss, clippy::cast_lossless)]
            fn to_json(&self) -> Value {
                Value::Number(*self as f64)
            }
        }
    )*};
}

to_json_number!(f64, f32, usize, u64, u32, u16, u8, i64, i32, i16, i8);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, ToJson::to_json)
    }
}

fn escape_into(s: &str, out: &mut String) {
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

fn number_token(x: f64) -> String {
    if !x.is_finite() {
        // JSON has no NaN/Infinity; `null` is what serde_json emits too.
        return "null".to_string();
    }
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

fn write_pretty(v: &Value, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    let pad_in = "  ".repeat(indent + 1);
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(x) => out.push_str(&number_token(*x)),
        Value::String(s) => escape_into(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad_in);
                write_pretty(item, indent + 1, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (k, val)) in fields.iter().enumerate() {
                out.push_str(&pad_in);
                escape_into(k, out);
                out.push_str(": ");
                write_pretty(val, indent + 1, out);
                if i + 1 < fields.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push('}');
        }
    }
}

/// Pretty-prints `v` with two-space indentation.
#[must_use]
pub fn to_string_pretty(v: &Value) -> String {
    let mut out = String::new();
    write_pretty(v, 0, &mut out);
    out
}

/// Builds a [`Value`] from an object/array literal, e.g.
/// `json!({ "method": m.name(), "f1": metrics.f1 })`. Field values go
/// through [`ToJson`] by reference, so borrowed data is not moved.
#[macro_export]
macro_rules! json {
    ({ $($k:literal : $v:expr),* $(,)? }) => {
        $crate::json::Value::Object(vec![
            $( ($k.to_string(), $crate::json::ToJson::to_json(&$v)) ),*
        ])
    };
    ([ $($v:expr),* $(,)? ]) => {
        $crate::json::Value::Array(vec![
            $( $crate::json::ToJson::to_json(&$v) ),*
        ])
    };
    ($v:expr) => {
        $crate::json::ToJson::to_json(&$v)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_literal_round_trips() {
        let name = String::from("TRMMA");
        let v = json!({ "method": name, "f1": 0.9435, "n": 42usize, "ok": true });
        // The macro borrows: `name` is still usable.
        assert_eq!(name, "TRMMA");
        let s = to_string_pretty(&v);
        assert!(s.contains("\"method\": \"TRMMA\""));
        assert!(s.contains("\"f1\": 0.9435"));
        assert!(s.contains("\"n\": 42"));
        assert!(s.contains("\"ok\": true"));
    }

    #[test]
    fn arrays_and_nesting_render() {
        let v = Value::Array(vec![json!({ "a": 1.0 }), json!({ "a": 2.5 })]);
        let s = to_string_pretty(&v);
        assert!(s.starts_with("[\n"));
        assert!(s.ends_with(']'));
        assert!(s.contains("\"a\": 1"));
        assert!(s.contains("\"a\": 2.5"));
        assert!(s.contains("},"), "array elements must be comma-separated");
    }

    #[test]
    fn strings_are_escaped() {
        let v = json!({ "k": "a\"b\\c\nd" });
        let s = to_string_pretty(&v);
        assert!(s.contains(r#""a\"b\\c\nd""#));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(number_token(f64::NAN), "null");
        assert_eq!(number_token(f64::INFINITY), "null");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(to_string_pretty(&Value::Array(vec![])), "[]");
        assert_eq!(to_string_pretty(&Value::Object(vec![])), "{}");
        assert_eq!(to_string_pretty(&Value::Null), "null");
    }
}
