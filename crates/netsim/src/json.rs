//! The one JSON reader and string escaper of the workspace.
//!
//! Every JSON file the repository reads back goes through [`Json::parse`]:
//! JSONL trace lines ([`crate::Trace::from_jsonl`]), Chrome trace exports
//! ([`crate::validate_chrome_trace`]) and `BENCH_*.json` snapshots. Every
//! JSON writer quotes its strings with [`quote`].
//!
//! The reader is a strict recursive-descent parser for RFC 8259 JSON,
//! total on hostile input. A number keeps its literal text
//! ([`Json::Num`]), so `u64` values above 2⁵³ read back exactly, and a
//! string or key without escapes borrows its text from the input too.
//! Nesting
//! deeper than [`MAX_DEPTH`] is refused instead of overflowing the stack,
//! and a key repeated within one object is refused instead of silently
//! keeping one value. Every error is one line naming the byte offset
//! where parsing stopped and the keys of the objects it stopped inside.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// formats read here nest at most three levels.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json<'a> {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its literal text in the input (already checked
    /// against the JSON number grammar); read it with [`Json::as_u64`] or
    /// [`Json::as_f64`].
    Num(&'a str),
    /// A string, unescaped: borrowed from the input unless it held an
    /// escape.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Json<'a>>),
    /// An object; keys are unique, and borrowed like strings.
    Obj(BTreeMap<Cow<'a, str>, Json<'a>>),
}

impl<'a> Json<'a> {
    /// Parses one complete JSON text (surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming the byte offset of the first
    /// syntax error, of nesting beyond [`MAX_DEPTH`], of a repeated key,
    /// or of trailing bytes after the value.
    pub fn parse(text: &'a str) -> Result<Json<'a>, String> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes after JSON value at byte {}", p.pos));
        }
        Ok(v)
    }

    /// The value under `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json<'a>> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        let Json::Str(s) = self else { return None };
        Some(s.as_ref())
    }

    /// The number as a `u64`, if it is an integer literal in range.
    pub fn as_u64(&self) -> Option<u64> {
        let Json::Num(t) = self else { return None };
        t.parse().ok()
    }

    /// The number as the nearest `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        let Json::Num(t) = self else { return None };
        t.parse().ok()
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json<'a>]> {
        let Json::Arr(items) = self else { return None };
        Some(items)
    }

    /// The key/value map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<Cow<'a, str>, Json<'a>>> {
        let Json::Obj(m) = self else { return None };
        Some(m)
    }
}

/// `s` as a quoted JSON string: `"` and `\` are backslash-escaped,
/// newline, carriage return and tab use their short escapes, and every
/// other control character below U+0020 becomes `\u00XX`.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Recursive-descent state. `pos` always sits on a char boundary of
/// `text`: it only ever moves past ASCII bytes or whole runs ending
/// before one.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    /// "expected `what` at byte N (found ...)".
    fn unexpected(&self, what: &str) -> String {
        let found = self.text.get(self.pos..).and_then(|rest| rest.chars().next());
        let found = found.map_or("end of input".to_string(), |c| format!("{c:?}"));
        format!("expected {what} at byte {} (found {found})", self.pos)
    }

    fn value(&mut self) -> Result<Json<'a>, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if self.peek() == Some(b'{') { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.unexpected("a JSON value")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json<'a>) -> Result<Json<'a>, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.unexpected(lit))
        }
    }

    /// Consumes a run of ASCII digits; whether there was at least one.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json<'a>, String> {
        let start = self.pos;
        self.eat(b'-');
        let int_ok = if self.eat(b'0') { true } else { self.digits() };
        let frac_ok = !self.eat(b'.') || self.digits();
        let exp_ok = !(self.eat(b'e') || self.eat(b'E')) || {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits()
        };
        if !(int_ok && frac_ok && exp_ok) {
            return Err(format!("malformed number at byte {start}"));
        }
        Ok(Json::Num(&self.text[start..self.pos]))
    }

    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        let start = self.pos;
        if !self.eat(b'"') {
            return Err(self.unexpected("a string"));
        }
        let mut out = String::new();
        loop {
            // Take the run up to the next quote, escape or control byte.
            // All three are ASCII, so the run ends on a char boundary.
            let rest = &self.bytes[self.pos..];
            let run = rest.iter().position(|&b| b == b'"' || b == b'\\' || b < 0x20);
            let end = self.pos + run.unwrap_or(rest.len());
            let text = &self.text[self.pos..end];
            self.pos = end;
            match self.peek() {
                None => return Err(format!("unterminated string starting at byte {start}")),
                // No escape so far: the string is the input's own text.
                Some(b'"') if out.is_empty() => {
                    self.pos += 1;
                    return Ok(Cow::Borrowed(text));
                }
                Some(b'"') => {
                    self.pos += 1;
                    out.push_str(text);
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push_str(text);
                    out.push(self.escape()?);
                }
                Some(_) => {
                    return Err(format!("unescaped control character in string at byte {end}"))
                }
            }
        }
    }

    /// One escape sequence, the backslash already consumed.
    fn escape(&mut self) -> Result<char, String> {
        let at = self.pos - 1;
        let Some(b) = self.peek() else {
            return Err(format!("unterminated escape at byte {at}"));
        };
        self.pos += 1;
        Ok(match b {
            b'"' | b'\\' | b'/' => char::from(b),
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let unit = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&unit) && self.eat(b'\\') && self.eat(b'u')
                {
                    let low = self.hex4()?;
                    (0xDC00..0xE000)
                        .contains(&low)
                        .then(|| 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00))
                } else {
                    Some(unit)
                };
                code.and_then(char::from_u32)
                    .ok_or_else(|| format!("unpaired surrogate in \\u escape at byte {at}"))?
            }
            _ => return Err(format!("unknown escape at byte {at}")),
        })
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex =
            self.bytes.get(self.pos..self.pos + 4).filter(|h| h.iter().all(u8::is_ascii_hexdigit));
        let hex = hex.ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(hex.iter().fold(0, |acc, &d| acc * 16 + char::from(d).to_digit(16).unwrap_or(0)))
    }

    fn array(&mut self) -> Result<Json<'a>, String> {
        let mut items = Vec::new();
        self.items(b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    fn object(&mut self) -> Result<Json<'a>, String> {
        let mut map = BTreeMap::new();
        self.items(b'}', |p| {
            p.skip_ws();
            let at = p.pos;
            let key = p.string()?;
            p.skip_ws();
            if !p.eat(b':') {
                return Err(p.unexpected("':'"));
            }
            // Name the key a nested error sits under: "... in \"causes\"".
            let value = p.value().map_err(|e| format!("{e} in {key:?}"))?;
            if map.contains_key(&key) {
                return Err(format!("duplicate key {key:?} at byte {at}"));
            }
            map.insert(key, value);
            Ok(())
        })?;
        Ok(Json::Obj(map))
    }

    /// The comma-separated items of an array or object up to `close`,
    /// starting on the opening bracket; `item` parses one.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.unexpected(&format!("',' or '{}'", char::from(close))));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_keys_without_escapes_borrow_the_input() {
        let v = Json::parse(r#"{"plain": "text", "esc\"aped": "a\nb"}"#).unwrap();
        let m = v.as_object().unwrap();
        let borrowed: Vec<bool> = m.keys().map(|k| matches!(k, Cow::Borrowed(_))).collect();
        assert_eq!(borrowed, [false, true], "keys sort as esc\"aped, plain");
        assert!(matches!(m.get("plain"), Some(Json::Str(Cow::Borrowed("text")))));
        assert!(matches!(m.get("esc\"aped"), Some(Json::Str(Cow::Owned(s))) if s == "a\nb"));
    }
}
