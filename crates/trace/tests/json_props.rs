//! Property tests for `codesign_trace::json`, the workspace's one JSON
//! writer and parser:
//!
//! 1. the parser never panics: any text gives a value or a typed error
//!    whose offset lies inside the input;
//! 2. nesting far past the depth bound is an error, not a stack
//!    overflow;
//! 3. every string the writer emits parses back to itself, across all
//!    escape classes, and `\u` escapes (surrogate pairs included) decode
//!    to the characters they name.

use codesign_trace::json::{self, ErrorKind, Object, Value};
use proptest::prelude::*;

/// Pieces of JSON syntax, so random concatenations reach deep into the
/// parser instead of failing on the first byte.
const FRAGMENTS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    "\\u",
    "\\ud83d",
    "\\ude00",
    "\\n",
    "\\x",
    "00e9",
    "true",
    "false",
    "null",
    "nul",
    "-",
    "0",
    "12",
    ".",
    "5",
    "e",
    "E+",
    " ",
    "\n",
    "\t",
    "\u{1}",
    "\u{7f}",
    "é",
    "😀",
    "\"k\"",
    "1e999",
    "99999999999999999999",
];

fn fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        (0..FRAGMENTS.len()).prop_map(|i| FRAGMENTS[i].to_string()),
        any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('?').to_string()),
    ]
}

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(fragment(), 0..48).prop_map(|parts| parts.concat())
}

/// One character from every escape class the writer handles: quote,
/// backslash, the named and `\u00XX` controls, plain ASCII, BMP and
/// non-BMP characters.
fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![
        Just('"'),
        Just('\\'),
        Just('/'),
        (0u32..0x20).prop_map(|c| char::from_u32(c).expect("control")),
        (0x20u32..0x7f).prop_map(|c| char::from_u32(c).expect("ascii")),
        (0x80u32..0xd800).prop_map(|c| char::from_u32(c).expect("bmp")),
        (0x1_0000u32..0x11_0000).prop_map(|c| char::from_u32(c).expect("astral")),
        Just('😀'),
    ]
}

fn any_string() -> impl Strategy<Value = String> {
    prop::collection::vec(any_char(), 0..32).prop_map(|cs| cs.into_iter().collect())
}

/// `c` as the `\uXXXX` escape(s) a foreign writer might send.
fn u_escape(c: char) -> String {
    let mut units = [0u16; 2];
    c.encode_utf16(&mut units)
        .iter()
        .map(|u| format!("\\u{u:04X}"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn parser_never_panics(input in text()) {
        if let Err(e) = json::parse(&input) {
            prop_assert!(e.offset <= input.len(), "{} past the end of {:?}", e, input);
        }
    }

    #[test]
    fn written_strings_parse_back(key in any_string(), value in any_string()) {
        prop_assert_eq!(json::parse(&json::quote(&value)), Ok(Value::Str(value.clone())));
        prop_assume!(key != "n");
        let line = Object::compact().str(&key, &value).num("n", -7).finish();
        let parsed = json::parse(&line).expect("writer output parses");
        prop_assert_eq!(parsed.get(&key).and_then(Value::as_str), Some(value.as_str()));
        prop_assert_eq!(parsed.get("n").and_then(Value::as_int), Some(-7));
    }

    #[test]
    fn u_escapes_decode(chars in prop::collection::vec(any_char(), 1..16)) {
        let wire: String = chars.iter().map(|&c| u_escape(c)).collect();
        let expected: String = chars.into_iter().collect();
        prop_assert_eq!(json::parse(&format!("\"{wire}\"")), Ok(Value::Str(expected)));
    }
}

#[test]
fn deep_nesting_is_a_depth_error() {
    for open in ["[", "{\"a\":"] {
        let err = json::parse(&open.repeat(100_000)).expect_err("too deep");
        assert_eq!(err.kind, ErrorKind::TooDeep, "{open}");
    }
}
