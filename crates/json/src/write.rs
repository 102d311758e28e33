//! Compact and indented JSON text: the one place in the workspace that
//! decides string escaping and number text.

use crate::{Number, Repr, Value};
use std::fmt::{self, Write};

impl fmt::Display for Number {
    /// Integers exactly; finite floats in their shortest round-trip form
    /// (`{:?}`, always with a decimal point or exponent); non-finite
    /// floats as `null`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.repr {
            Repr::I(v) => write!(f, "{v}"),
            Repr::U(v) => write!(f, "{v}"),
            Repr::F(v) if v.is_finite() => write!(f, "{v:?}"),
            Repr::F(_) => f.write_str("null"),
        }
    }
}

/// Appends `s` to `out`, escaped for use between JSON double quotes:
/// `"` and `\` are backslash-escaped, `\n \r \t \b \f` use their short
/// forms, and other control characters use `\u00XX`.
fn escape_into(s: &str, out: &mut String) {
    let mut run = 0;
    for (i, c) in s.char_indices() {
        let short = match c {
            '"' => "\\\"",
            '\\' => "\\\\",
            '\n' => "\\n",
            '\r' => "\\r",
            '\t' => "\\t",
            '\u{8}' => "\\b",
            '\u{c}' => "\\f",
            c if (c as u32) < 0x20 => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{:04x}", c as u32);
        } else {
            out.push_str(short);
        }
        run = i + c.len_utf8();
    }
    out.push_str(&s[run..]);
}

fn quoted(s: &str, out: &mut String) {
    out.push('"');
    escape_into(s, out);
    out.push('"');
}

/// Writes `v` as compact JSON (no whitespace).
pub(crate) fn compact(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => {
            let _ = write!(out, "{n}");
        }
        Value::String(s) => quoted(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                compact(item, out);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                quoted(k, out);
                out.push(':');
                compact(item, out);
            }
            out.push('}');
        }
    }
}

/// Writes `v` as two-space-indented JSON, nested `indent` levels deep.
/// Empty arrays and objects stay on one line (`[]`, `{}`).
pub(crate) fn pretty(v: &Value, out: &mut String, indent: usize) {
    let open_item = |out: &mut String, i: usize| {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        for _ in 0..=indent {
            out.push_str("  ");
        }
    };
    let close = |out: &mut String, bracket: char| {
        out.push('\n');
        for _ in 0..indent {
            out.push_str("  ");
        }
        out.push(bracket);
    };
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                open_item(out, i);
                pretty(item, out, indent + 1);
            }
            close(out, ']');
        }
        Value::Object(fields) if !fields.is_empty() => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                open_item(out, i);
                quoted(k, out);
                out.push_str(": ");
                pretty(item, out, indent + 1);
            }
            close(out, '}');
        }
        other => compact(other, out),
    }
}
