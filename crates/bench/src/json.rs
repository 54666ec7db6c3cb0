//! Minimal JSON emitter + parser for the machine-readable bench results
//! (`BENCH_timing.json` etc.).
//!
//! The workspace has a zero-registry-dependency policy, so this is a
//! hand-rolled subset of JSON sufficient for flat result documents:
//! objects, arrays, strings (with `\"`/`\\`/`\n`-class escapes), finite
//! numbers, booleans and null. The parser exists so harnesses (and the
//! CI smoke test) can re-read what they wrote and validate it against
//! the expected schema — a round-trip check, not a general-purpose
//! JSON library.

use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order so emitted documents
/// are deterministic and diff-friendly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends a key to an object (panics on non-objects: builder misuse).
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("Json::set on non-object"),
        }
        self
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(xs) => Some(xs),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                assert!(x.is_finite(), "JSON numbers must be finite, got {x}");
                // Shortest representation that round-trips through f64.
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(xs) => {
                if xs.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&pad);
                    x.write(out, depth + 1);
                }
                let _ = write!(out, "\n{}]", "  ".repeat(depth));
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&pad);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                let _ = write!(out, "\n{}}}", "  ".repeat(depth));
            }
        }
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<Vec<Json>> for Json {
    fn from(xs: Vec<Json>) -> Json {
        Json::Arr(xs)
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON document (the subset this module emits, plus standard
/// whitespace and `\uXXXX` escapes). Errors carry a byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut xs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(xs));
            }
            loop {
                xs.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(xs));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let s = std::str::from_utf8(&bytes[start..*pos]).unwrap();
            s.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number '{s}' at byte {start}"))
        }
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => out.push(parse_unicode_escape(bytes, pos)?),
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input came from &str, so valid).
                let rest = std::str::from_utf8(&bytes[*pos..]).unwrap();
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

/// Four hex digits of a `\uXXXX` escape, with `*pos` on the `u`; leaves
/// `*pos` on the last digit. `esc_at` is the byte offset of the escape's
/// backslash, carried into every error.
fn parse_hex4(bytes: &[u8], pos: &mut usize, esc_at: usize) -> Result<u32, String> {
    let hex = bytes
        .get(*pos + 1..*pos + 5)
        .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
        .and_then(|h| std::str::from_utf8(h).ok())
        .ok_or_else(|| format!("bad \\u escape at byte {esc_at}"))?;
    let code =
        u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape at byte {esc_at}"))?;
    *pos += 4;
    Ok(code)
}

/// Decodes one `\uXXXX` escape (with `*pos` on the `u`), including UTF-16
/// surrogate pairs spelled as two consecutive escapes (the only way JSON
/// can express code points above U+FFFF). Unpaired surrogates denote no
/// scalar value and are rejected with the escape's byte offset. Leaves
/// `*pos` on the last consumed byte.
fn parse_unicode_escape(bytes: &[u8], pos: &mut usize) -> Result<char, String> {
    let esc_at = *pos - 1; // the backslash
    let hi = parse_hex4(bytes, pos, esc_at)?;
    match hi {
        0xD800..=0xDBFF => {
            if bytes.get(*pos + 1) != Some(&b'\\') || bytes.get(*pos + 2) != Some(&b'u') {
                return Err(format!("unpaired high surrogate \\u{hi:04x} at byte {esc_at}"));
            }
            let lo_esc_at = *pos + 1;
            *pos += 2; // onto the second escape's 'u'
            let lo = parse_hex4(bytes, pos, lo_esc_at)?;
            if !(0xDC00..=0xDFFF).contains(&lo) {
                return Err(format!(
                    "high surrogate \\u{hi:04x} at byte {esc_at} followed by \
                     non-low-surrogate \\u{lo:04x}"
                ));
            }
            let code = 0x1_0000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            // Always a valid scalar: supplementary-plane range by construction.
            char::from_u32(code).ok_or_else(|| format!("bad \\u pair at byte {esc_at}"))
        }
        0xDC00..=0xDFFF => {
            Err(format!("unpaired low surrogate \\u{hi:04x} at byte {esc_at}"))
        }
        _ => char::from_u32(hi).ok_or_else(|| format!("bad \\u codepoint at byte {esc_at}")),
    }
}

/// Validates a bench-result document against the shared schema: a
/// `schema` tag matching `expected_schema`, an `n_inputs` count, and a
/// non-empty `functions` array whose entries carry a `name` plus every
/// field in `per_fn_fields` as a finite number. Returns a description
/// of the first violation.
pub fn check_bench_schema(
    doc: &Json,
    expected_schema: &str,
    per_fn_fields: &[&str],
) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing 'schema' tag")?;
    if schema != expected_schema {
        return Err(format!("schema '{schema}', expected '{expected_schema}'"));
    }
    doc.get("n_inputs")
        .and_then(Json::as_num)
        .filter(|&n| n >= 1.0)
        .ok_or("missing or non-positive 'n_inputs'")?;
    let funcs = doc
        .get("functions")
        .and_then(Json::as_arr)
        .ok_or("missing 'functions' array")?;
    if funcs.is_empty() {
        return Err("'functions' is empty".to_string());
    }
    for f in funcs {
        let name = f
            .get("name")
            .and_then(Json::as_str)
            .ok_or("function entry missing 'name'")?;
        for field in per_fn_fields {
            f.get(field)
                .and_then(Json::as_num)
                .filter(|x| x.is_finite())
                .ok_or(format!("function '{name}' missing numeric '{field}'"))?;
        }
    }
    Ok(())
}

/// Writes `doc` to `path`, then re-reads, re-parses and re-validates it
/// with the document's own `check` — harnesses call this so a malformed
/// emission fails loudly at generation time.
pub fn write_validated(
    path: &str,
    doc: &Json,
    check: impl Fn(&Json) -> Result<(), String>,
) -> std::io::Result<()> {
    std::fs::write(path, doc.to_pretty())?;
    let text = std::fs::read_to_string(path)?;
    let parsed = parse(&text).unwrap_or_else(|e| panic!("{path}: emitted invalid JSON: {e}"));
    assert_eq!(&parsed, doc, "{path}: JSON did not round-trip");
    check(&parsed).unwrap_or_else(|e| panic!("{path}: schema violation: {e}"));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_bench_like_document() {
        let doc = Json::obj()
            .set("schema", "rlibm-bench/timing/v1")
            .set("quick", true)
            .set("n_inputs", 256.0)
            .set(
                "functions",
                vec![Json::obj()
                    .set("name", "ln")
                    .set("ns_fast", 12.25)
                    .set("fallback_rate", 1e-4)],
            )
            .set("note", "line1\nline2 \"quoted\"");
        let text = doc.to_pretty();
        assert_eq!(parse(&text).unwrap(), doc);
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn parses_standard_json_forms() {
        let j = parse(" { \"a\" : [ 1 , -2.5e3 , null , true ] , \"b\" : {} } ").unwrap();
        assert_eq!(j.get("a").unwrap().as_arr().unwrap().len(), 4);
        assert_eq!(j.get("a").unwrap().as_arr().unwrap()[1].as_num(), Some(-2500.0));
        assert_eq!(parse("\"\\u0041\\n\"").unwrap(), Json::Str("A\n".into()));
    }

    #[test]
    fn decodes_surrogate_pairs() {
        // U+1D11E (musical G clef) as its UTF-16 pair.
        assert_eq!(parse("\"\\uD834\\uDD1E\"").unwrap(), Json::Str("\u{1D11E}".into()));
        // Lowercase hex, embedded in surrounding text.
        assert_eq!(parse("\"a\\ud83d\\ude00b\"").unwrap(), Json::Str("a\u{1F600}b".into()));
        // An astral char written literally round-trips through the emitter.
        let doc = Json::Str("clef \u{1D11E}".into());
        assert_eq!(parse(&doc.to_pretty()).unwrap(), doc);
    }

    #[test]
    fn rejects_unpaired_surrogates_with_offsets() {
        let err = parse("\"\\uD834\"").unwrap_err();
        assert!(err.contains("unpaired high surrogate") && err.contains("byte 1"), "{err}");
        let err = parse("\"\\uDC00x\"").unwrap_err();
        assert!(err.contains("unpaired low surrogate") && err.contains("byte 1"), "{err}");
        // High surrogate followed by a non-surrogate escape.
        let err = parse("\"\\uD834\\u0041\"").unwrap_err();
        assert!(err.contains("non-low-surrogate"), "{err}");
        // High surrogate followed by a literal char, not an escape.
        let err = parse("\"\\uD834A\"").unwrap_err();
        assert!(err.contains("unpaired high surrogate"), "{err}");
        // Offsets point at the failing escape, not the string start.
        let err = parse("\"ab\\uDC00\"").unwrap_err();
        assert!(err.contains("byte 3"), "{err}");
    }

    #[test]
    fn rejects_malformed_unicode_escapes_with_offsets() {
        let err = parse("\"\\u12\"").unwrap_err();
        assert!(err.contains("bad \\u escape") && err.contains("byte 1"), "{err}");
        let err = parse("\"\\u12g4\"").unwrap_err();
        assert!(err.contains("bad \\u escape"), "{err}");
        // `from_str_radix` would accept a leading '+'; the digit filter
        // must not.
        let err = parse("\"\\u+123\"").unwrap_err();
        assert!(err.contains("bad \\u escape"), "{err}");
        // Truncated pair: high surrogate then EOF inside the low escape.
        let err = parse("\"\\uD834\\uDD\"").unwrap_err();
        assert!(err.contains("bad \\u escape") && err.contains("byte 7"), "{err}");
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"abc").is_err());
    }

    #[test]
    fn schema_check_catches_missing_fields() {
        let good = Json::obj()
            .set("schema", "rlibm-bench/timing/v1")
            .set("n_inputs", 64.0)
            .set(
                "functions",
                vec![Json::obj().set("name", "exp").set("ns_fast", 3.0)],
            );
        assert!(check_bench_schema(&good, "rlibm-bench/timing/v1", &["ns_fast"]).is_ok());
        assert!(check_bench_schema(&good, "rlibm-bench/serve/v1", &["ns_fast"]).is_err());
        assert!(check_bench_schema(&good, "rlibm-bench/timing/v1", &["ns_dd"]).is_err());
        let empty = Json::obj()
            .set("schema", "rlibm-bench/timing/v1")
            .set("n_inputs", 64.0)
            .set("functions", Vec::new());
        assert!(check_bench_schema(&empty, "rlibm-bench/timing/v1", &[]).is_err());
    }
}
