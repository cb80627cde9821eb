//! A JSON value tree and its writer — the one emitter behind every report
//! `repro` writes (the offline tree has no serde). Documents are built as
//! values and rendered here, so they are well-formed and escaped by
//! construction. There is deliberately no reader: nothing in the workspace
//! consumes these documents, and the invariants a consumer would re-check
//! run on the typed report structs before rendering.

/// A JSON value. Object fields keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Int(u64),
    /// Rendered with a fractional part or exponent (`8.0`, never `8`), so a
    /// float field reads as a float whatever its value; non-finite values
    /// have no JSON spelling and render as `null`.
    Float(f64),
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(&'static str, Json)>),
}

impl Json {
    /// The document text, newline-terminated. The root breaks one child per
    /// line, as do its children that themselves hold containers; everything
    /// deeper stays on one line (one sweep arm or tenant per line).
    pub fn render(&self) -> String {
        self.text(0) + "\n"
    }

    fn text(&self, depth: usize) -> String {
        match self {
            Json::Int(n) => n.to_string(),
            Json::Float(x) if x.is_finite() => format!("{x:?}"),
            Json::Float(_) => "null".to_string(),
            Json::Str(s) => quote(s),
            Json::Array(items) => seq(depth, ['[', ']'], items.iter().map(|v| (String::new(), v))),
            Json::Object(fields) => {
                seq(depth, ['{', '}'], fields.iter().map(|(k, v)| (quote(k) + ": ", v)))
            }
        }
    }
}

fn seq<'a>(
    depth: usize,
    [open, close]: [char; 2],
    items: impl Iterator<Item = (String, &'a Json)> + Clone,
) -> String {
    let breaks = match depth {
        0 => items.clone().next().is_some(),
        1 => items.clone().any(|(_, v)| matches!(v, Json::Array(_) | Json::Object(_))),
        _ => false,
    };
    let cells: Vec<String> = items.map(|(key, v)| key + &v.text(depth + 1)).collect();
    if breaks {
        let (pad, end) = ("  ".repeat(depth + 1), "  ".repeat(depth));
        format!("{open}\n{pad}{}\n{end}{close}", cells.join(&format!(",\n{pad}")))
    } else {
        format!("{open}{}{close}", cells.join(", "))
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from('"');
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
    out + "\""
}

#[cfg(test)]
mod tests {
    use super::Json;

    #[test]
    fn strings_are_escaped() {
        let doc = Json::Array(vec![Json::Str("a\"b\\c\nd\te\u{1}é".into())]);
        assert_eq!(doc.render(), "[\n  \"a\\\"b\\\\c\\nd\\te\\u0001é\"\n]\n");
        let key = Json::Object(vec![("k\"", Json::Int(1))]);
        assert_eq!(key.render(), "{\n  \"k\\\"\": 1\n}\n");
    }

    #[test]
    fn integers_and_floats_render_distinctly() {
        let doc = Json::Array(vec![
            Json::Int(8),
            Json::Float(8.0),
            Json::Float(0.01),
            Json::Float(1e-7),
            Json::Float(f64::NAN),
            Json::Int(u64::MAX),
        ]);
        assert_eq!(
            doc.render(),
            "[\n  8,\n  8.0,\n  0.01,\n  1e-7,\n  null,\n  18446744073709551615\n]\n"
        );
    }

    #[test]
    fn nesting_breaks_the_first_two_levels_only() {
        let leaf = || Json::Object(vec![("a", Json::Int(1)), ("b", Json::Array(vec![]))]);
        let doc = Json::Object(vec![
            ("empty_obj", Json::Object(vec![])),
            ("empty_arr", Json::Array(vec![])),
            ("flat", Json::Object(vec![("m", Json::Int(2)), ("r", Json::Int(3))])),
            ("rows", Json::Array(vec![leaf(), leaf()])),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"empty_obj\": {},\n  \"empty_arr\": [],\n  \"flat\": {\"m\": 2, \"r\": 3},\n  \
             \"rows\": [\n    {\"a\": 1, \"b\": []},\n    {\"a\": 1, \"b\": []}\n  ]\n}\n"
        );
        assert_eq!(Json::Object(vec![]).render(), "{}\n");
    }
}
