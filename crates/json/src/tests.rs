use super::*;
use std::time::{Duration, Instant};

fn parse(text: &str) -> Value {
    Value::parse(text).unwrap_or_else(|e| panic!("{text:?}: {e}"))
}

#[test]
fn parses_flat_request_bodies() {
    let v = parse(r#"{"tenant":"acme","workload":"nl2sql","question":"total by region?"}"#);
    assert_eq!(v.str_field("tenant"), Some("acme"));
    assert_eq!(v.str_field("workload"), Some("nl2sql"));
    assert_eq!(v.str_field("question"), Some("total by region?"));
    assert_eq!(v.str_field("missing"), None);
}

#[test]
fn parses_nested_values_and_numbers() {
    let v = parse(r#"{"a":[1,2.5,-3e2,true,false,null],"b":{"c":"d"}}"#);
    let arr = v.get("a").unwrap().as_arr().unwrap();
    assert_eq!(arr[0].as_f64(), Some(1.0));
    assert_eq!(arr[1].as_f64(), Some(2.5));
    assert_eq!(arr[2].as_f64(), Some(-300.0));
    assert_eq!(arr[3].as_bool(), Some(true));
    assert_eq!(arr[5], Value::Null);
    assert_eq!(v["b"]["c"], "d");
    assert!(v["b"]["missing"].is_null() && v["a"][9].is_null());
}

#[test]
fn strings_decode_escapes_and_multibyte_text() {
    let v = parse(r#"["a\"b\\c\n", "naïve ✓ 𝄞", "\ud834\udd1e", "", "slash\/ \u0041"]"#);
    let strings: Vec<&str> = v
        .as_array()
        .unwrap()
        .iter()
        .map(|s| s.as_str().unwrap())
        .collect();
    assert_eq!(strings, ["a\"b\\c\n", "naïve ✓ 𝄞", "𝄞", "", "slash/ A"]);
    assert!(Value::parse(r#""unterminated"#).is_err());
}

#[test]
fn rejects_malformed_input_without_panicking() {
    for bad in [
        "",
        "{",
        "}",
        "{\"a\":}",
        "{\"a\":1,}",
        "[1,2",
        "[1,]",
        "\"unterminated",
        "{\"a\" 1}",
        "nul",
        "truex",
        "1.2.3",
        "\"\\q\"",
        "\"\\u12\"",
        "\"\\u+123\"",
        "\"\\ud800\"",
        "\"\\ud800\\u0041\"",
        "\"\\udc00\"",
        "\"raw\ncontrol\"",
        "{\"a\":1} trailing",
        "\u{1}",
        "--5",
        "-",
        "1e999",
    ] {
        assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
    }
}

/// Error texts reach the model's retry prompt, so they are pinned.
#[test]
fn error_texts_name_the_failure_and_its_offset() {
    let cases = [
        ("", "unexpected character at byte 0"),
        ("!!{garbage:00ff}", "unexpected character at byte 0"),
        (
            r#"{"MeasureList":[{"a":1},"#,
            "unexpected character at byte 24",
        ),
        (
            r#"{"MeasureList":[{"a":"su"#,
            "unterminated string at byte 24",
        ),
        (r#"{"a":1,"#, "expected `\"` at byte 7"),
        (r#"{"a" 1}"#, "expected `:` at byte 5"),
        ("[1 2]", "expected `,` or `]` at byte 3"),
        (r#"{"a":1 "b":2}"#, "expected `,` or `}` at byte 7"),
        ("nul", "expected `null` at byte 0"),
        ("1.2.3", "bad number at byte 5"),
        (r#""\q""#, "bad escape at byte 2"),
        (r#""\u12""#, "truncated \\u escape at byte 2"),
        (r#""\u12zz""#, "bad \\u escape at byte 2"),
        ("[1] x", "trailing characters at byte 4"),
        ("1e999", "number out of range at byte 5"),
    ];
    for (text, want) in cases {
        assert_eq!(
            Value::parse(text).unwrap_err().to_string(),
            want,
            "{text:?}"
        );
    }
}

#[test]
fn depth_limit_rejects_hostile_nesting() {
    let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
    let e = Value::parse(&deep).unwrap_err();
    assert!(e.message.contains("deep"), "{e}");
    let ok = "[".repeat(10) + &"]".repeat(10);
    assert!(Value::parse(&ok).is_ok());
}

/// A repeated key is an error, not a silent first-wins or last-wins:
/// `{"tenant":"a","tenant":"b"}` must not mean one tenant here and
/// another to a proxy that reads the other copy. Small objects scan,
/// large ones index; both reject.
#[test]
fn duplicate_keys_are_rejected() {
    let err = Value::parse(r#"{"a":1,"b":0,"a":2}"#).unwrap_err();
    assert_eq!(err.to_string(), "duplicate key at byte 13");
    let err = Value::parse(r#"[{"x":{"t":"a","t":"b"}}]"#).unwrap_err();
    assert_eq!(err.to_string(), "duplicate key at byte 15");
    for keys in [2, 16, 17, 100] {
        let fields: Vec<String> = (0..keys).map(|i| format!(r#""k{i}":{i}"#)).collect();
        let text = format!("{{{}}}", fields.join(","));
        assert_eq!(parse(&text).as_object().map(Map::len), Some(keys));
        for dup in [0, keys - 1] {
            let text = format!(r#"{{{},"k{dup}":0}}"#, fields.join(","));
            let err = Value::parse(&text).unwrap_err();
            let at = text.rfind(&format!(r#""k{dup}""#)).unwrap();
            assert_eq!(err.to_string(), format!("duplicate key at byte {at}"));
        }
    }
    // Builders replace in place: json! keeps one entry per key.
    let v = json!({"a": 1, "b": 0, "a": 2});
    assert_eq!(v.to_string(), r#"{"a":2,"b":0}"#);
}

/// Integers keep their exact value through text; a float-only number
/// type would turn 2^53 + 1 into 2^53.
#[test]
fn integers_round_trip_exactly() {
    for text in [
        "18446744073709551615",
        "-9223372036854775808",
        "9007199254740993",
    ] {
        assert_eq!(parse(text).to_string(), text);
    }
    assert_eq!(parse("18446744073709551615").as_u64(), Some(u64::MAX));
    assert_eq!(parse("-9223372036854775808").as_i64(), Some(i64::MIN));
    assert_eq!(parse("9007199254740993").as_u64(), Some((1 << 53) + 1));
    assert_eq!(from_str::<u64>(&to_string(&u64::MAX)), Ok(u64::MAX));
    assert_eq!(from_str::<i64>(&to_string(&i64::MIN)), Ok(i64::MIN));
    assert_eq!(
        from_str::<u64>(&to_string(&((1u64 << 53) + 1))),
        Ok((1 << 53) + 1)
    );
}

#[test]
fn numbers_print_integers_bare_and_floats_with_debug() {
    let v = json!([
        1,
        -2,
        2.0,
        0.1,
        1e21,
        1.5e-7,
        f64::NAN,
        f64::INFINITY,
        7usize
    ]);
    assert_eq!(v.to_string(), "[1,-2,2.0,0.1,1e21,1.5e-7,null,null,7]");
    assert_eq!(parse("2.0").to_string(), "2.0");
    assert_eq!(parse("1E2").to_string(), "100.0");
}

#[test]
fn escapes_match_the_short_forms() {
    let s = "q\"b\\n\nr\rt\tb\u{8}f\u{c}z\u{1}é🦀";
    assert_eq!(
        json!(s).to_string(),
        "\"q\\\"b\\\\n\\nr\\rt\\tb\\bf\\fz\\u0001é🦀\""
    );
    assert_eq!(parse(&json!(s).to_string()), json!(s));
    assert_eq!(json!("plain").to_string(), "\"plain\"");
}

#[test]
fn json_macro_keeps_insertion_order_and_nests() {
    let name = "sales".to_string();
    let missing: Option<&str> = None;
    let v = json!({
        "z": 1,
        "a": [name, {"k": missing}, [], {}],
        "m": if true { json!(true) } else { json!(null) },
    });
    assert_eq!(
        v.to_string(),
        r#"{"z":1,"a":["sales",{"k":null},[],{}],"m":true}"#
    );
}

#[test]
fn pretty_output_indents_two_spaces() {
    let v = json!({"a": [1, {"b": []}], "c": {}});
    assert_eq!(
        to_string_pretty(&v),
        "{\n  \"a\": [\n    1,\n    {\n      \"b\": []\n    }\n  ],\n  \"c\": {}\n}"
    );
}

#[derive(Debug, Clone, Default, PartialEq)]
struct Axis {
    field: String,
    aggregate: Option<String>,
    bins: Option<u32>,
    zoom: u32,
}
json_struct!(Axis { field: req, aggregate: skip, bins: req, zoom as "Zoom": default });

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mark {
    Bar,
    Pie,
}
json_enum!(Mark { Bar = "bar", Pie = "pie" });

#[derive(Debug, Clone, Copy, PartialEq)]
struct Id(u64);
json_newtype!(Id);

#[test]
fn derived_conversions_follow_their_field_rules() {
    let a = Axis {
        field: "x".into(),
        ..Axis::default()
    };
    assert_eq!(to_string(&a), r#"{"field":"x","bins":null,"Zoom":0}"#);
    assert_eq!(from_str::<Axis>(r#"{"field":"x"}"#), Ok(a.clone()));
    let full = Axis {
        aggregate: Some("sum".into()),
        bins: Some(3),
        zoom: 2,
        ..a
    };
    assert_eq!(from_str::<Axis>(&to_string(&full)), Ok(full));
    let errors = [
        (r#"{"bins":1}"#, "missing field `field` in Axis"),
        (r#"{"field":5}"#, "expected string, got 5"),
        (r#"[1]"#, "expected object for Axis, got [1]"),
        (r#"{"field":"x","Zoom":-1}"#, "expected u32, got -1"),
    ];
    for (text, want) in errors {
        assert_eq!(from_str::<Axis>(text).unwrap_err().to_string(), want);
    }
    assert_eq!(to_string(&vec![Mark::Bar, Mark::Pie]), r#"["bar","pie"]"#);
    assert_eq!(from_str::<Mark>(r#""pie""#), Ok(Mark::Pie));
    for (text, want) in [
        (r#""area""#, "unknown Mark variant `area`"),
        (r#"{"Bar":1}"#, "unknown Mark variant `Bar`"),
        ("3", "expected Mark, got 3"),
    ] {
        assert_eq!(from_str::<Mark>(text).unwrap_err().to_string(), want);
    }
    assert_eq!(to_string(&Id(7)), "7");
    assert_eq!(from_str::<Id>("7"), Ok(Id(7)));
}

/// An array of `records` two-key objects with escaped, multibyte text.
fn document(records: usize) -> String {
    let rows: Vec<String> = (0..records)
        .map(|i| format!(r#"{{"id":{i},"text":"naïve café \"q\" \u00e9 line\nnext {i}"}}"#))
        .collect();
    format!("[{}]", rows.join(","))
}

/// One object with `keys` distinct keys.
fn wide_object(keys: usize) -> String {
    let fields: Vec<String> = (0..keys).map(|i| format!(r#""key {i}":{i}"#)).collect();
    format!("{{{}}}", fields.join(","))
}

/// Parsing is linear in both the string scan and the object keys: a
/// document eight times larger parses in under twelve times the time (a
/// quadratic scan or key lookup takes about 64 times). Medians of
/// interleaved runs, so one lucky or stalled run decides nothing.
#[test]
fn parse_time_scales_linearly() {
    for (shape, small, large) in [
        ("long array", document(1_000), document(8_000)),
        ("wide object", wide_object(1_000), wide_object(8_000)),
    ] {
        let (mut t_small, mut t_large) = (Vec::new(), Vec::new());
        for _ in 0..9 {
            for (text, times) in [(&small, &mut t_small), (&large, &mut t_large)] {
                let start = Instant::now();
                Value::parse(text).unwrap();
                times.push(start.elapsed());
            }
        }
        let median = |times: &mut Vec<Duration>| -> Duration {
            times.sort();
            times[times.len() / 2]
        };
        let (t_small, t_large) = (median(&mut t_small), median(&mut t_large));
        assert!(
            t_large < t_small * 12,
            "{shape}: {} B in {t_small:?}, {} B in {t_large:?}",
            small.len(),
            large.len()
        );
    }
}
