//! Algorithm parameters as JSON documents.
//!
//! Every [`crate::algo::Algorithm`] exposes its tunables as a JSON object
//! ([`Algorithm::default_params`](crate::algo::Algorithm::default_params))
//! and accepts overrides in the same shape
//! ([`Algorithm::run_with_params`](crate::algo::Algorithm::run_with_params)),
//! so experiment configs can travel through files, CLI flags and perf
//! records without every consumer learning eleven config types.
//!
//! [`Value`] is a complete little JSON codec — parser and renderer —
//! because the workspace builds hermetically: the vendored `serde` is an
//! API stub and `serde_json` is not available at all. The config structs
//! still derive the (stubbed) serde traits, so swapping the vendored
//! crates for the real ones later only *adds* capability; this module is
//! the part that has to work today. Object keys keep insertion order, so
//! `parse(render(v)) == v` exactly (see the round-trip tests).
//!
//! [`Params`] is the one config codec: every type that lists its knobs
//! as [`Knobs`] rows gets its JSON form, its overrides and their error
//! messages from that list — unknown keys list the valid ones, type
//! errors name the key, a tagged enum's `"kind"` / `"mode"` picks its
//! kind, integers above 2^53 travel as decimal strings, the type's
//! [`Knobs::validate`] runs after every apply, and a failed apply leaves
//! the value unchanged.

use std::fmt;

use phonecall::knob::{Knobs, Slot};
use phonecall::{FailurePlan, NodeIdx};

/// A JSON value. Numbers are `f64` (as in JSON itself); objects preserve
/// insertion order so documents round-trip byte-identically.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (JSON has only one numeric type).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

/// Error applying or parsing algorithm parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParamError(pub String);

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParamError {}

/// Shorthand for building a [`ParamError`].
pub(crate) fn err(msg: impl Into<String>) -> ParamError {
    ParamError(msg.into())
}

impl Value {
    /// An empty JSON object (`{}`) — the "no overrides" document.
    #[must_use]
    pub fn empty() -> Value {
        Value::Obj(Vec::new())
    }

    /// Builds an object from `(key, value)` pairs.
    #[must_use]
    pub fn obj(entries: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
        Value::Obj(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks a key up in an object; `None` for missing keys or non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's entries (empty for non-objects).
    #[must_use]
    pub fn entries(&self) -> &[(String, Value)] {
        match self {
            Value::Obj(entries) => entries,
            _ => &[],
        }
    }

    /// The object's entries, rejecting non-object values — parameter
    /// override documents must be JSON objects, and a silently ignored
    /// string/array/number (e.g. a double-encoded document) would run
    /// with defaults while claiming success.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] naming `what` when the value is not an
    /// object.
    pub fn expect_obj(&self, what: &str) -> Result<&[(String, Value)], ParamError> {
        match self {
            Value::Obj(entries) => Ok(entries),
            _ => Err(err(format!(
                "{what} must be a JSON object, got {}",
                self.render()
            ))),
        }
    }

    /// Numeric view of the value.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Integer view (numbers with no fractional part).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(x) if x.fract() == 0.0 && *x >= 0.0 && *x <= 2f64.powi(53) => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// Boolean view of the value.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view of the value.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renders the value as a compact JSON document.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(x) => {
                if x.is_finite() {
                    // `{x}` prints f64 with enough digits to round-trip.
                    out.push_str(&format!("{x}"));
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => render_string(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] describing the first syntax error (with
    /// byte offset), nesting deeper than [`MAX_DEPTH`], or trailing
    /// garbage.
    pub fn parse(text: &str) -> Result<Value, ParamError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(err(format!(
                "trailing characters after JSON value at byte {}",
                p.pos
            )));
        }
        Ok(v)
    }
}

fn render_string(s: &str, out: &mut String) {
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

/// The deepest array/object nesting [`Value::parse`] accepts. Parsing
/// recurses once per level, so an unbounded depth lets a document of
/// brackets overflow the stack; no parameter document comes near this.
pub const MAX_DEPTH: usize = 256;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParamError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(err(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    /// Parses one value inside `depth` open arrays/objects, refusing to
    /// open one past [`MAX_DEPTH`].
    fn value(&mut self, depth: usize) -> Result<Value, ParamError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_lit("null") => Ok(Value::Null),
            Some(b't') if self.eat_lit("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_lit("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(err(format!(
                "JSON nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ))),
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(err(format!("unexpected input at byte {}", self.pos))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParamError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(err(format!("expected ',' or ']' at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParamError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value(depth)?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(entries));
                }
                _ => return Err(err(format!("expected ',' or '}}' at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParamError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Advance over the plain (unescaped, non-quote) run.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| err("invalid \\u escape"))?;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(err(format!("bad escape at byte {}", self.pos))),
                    }
                    self.pos += 1;
                }
                _ => return Err(err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParamError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| err(format!("invalid number {text:?} at byte {start}")))
    }
}

/// The JSON form of every config with a knob table (see the module
/// docs): implemented for each [`Knobs`] type.
pub trait Params: Knobs + Clone {
    /// The knobs as a JSON object, in knob-row order: a tagged enum
    /// leads with its tag, a nested config becomes a nested object.
    #[must_use]
    fn params(&self) -> Value {
        render(&mut self.clone())
    }

    /// Applies a JSON object of overrides onto this config, then
    /// validates every config it touched.
    ///
    /// # Errors
    ///
    /// Rejects non-object documents, unknown keys (listing the valid
    /// ones), wrongly typed values (naming the key), a missing or unknown
    /// tag, a kind's missing knobs, and values failing
    /// [`Knobs::validate`]. On error the config is left unchanged.
    fn apply_params(&mut self, overrides: &Value) -> Result<(), ParamError> {
        *self = overridden("config", self.clone(), overrides)?;
        Ok(())
    }
}

impl<T: Knobs + Clone> Params for T {}

/// `cfg` with `overrides` applied and validated (what
/// [`Params::apply_params`] does, as a value). Messages call the
/// document `what`'s parameters: an algorithm passes its name, a nested
/// config is called by its key.
///
/// # Errors
///
/// As [`Params::apply_params`].
pub fn overridden<P: Knobs>(what: &str, mut cfg: P, overrides: &Value) -> Result<P, ParamError> {
    apply(&mut cfg, what, overrides)?;
    Ok(cfg)
}

fn render(cfg: &mut dyn Knobs) -> Value {
    let tag = cfg
        .tag()
        .map(|t| (t.key.into(), Value::Str(t.kinds[t.current].into())));
    let knobs = cfg.knobs().into_iter().map(|(name, slot)| {
        let v = match slot {
            Slot::F64(x) => Value::Num(*x),
            Slot::U32(x) => Value::Num(f64::from(*x)),
            Slot::U64(x) => u64_value(*x),
            Slot::OptU64(x) => x.map_or(Value::Null, u64_value),
            Slot::OptUsize(x) => x.map_or(Value::Null, |x| u64_value(x as u64)),
            Slot::U32s(xs) => nums(xs),
            Slot::Rows(rows) => Value::Arr(rows.iter().map(|r| nums(r)).collect()),
            Slot::Failures(plan) => nums(&plan.failed().iter().map(|i| i.0).collect::<Vec<_>>()),
            Slot::Str(s) => Value::Str(s.clone()),
            Slot::Choice(c) => Value::Str(c.label().into()),
            Slot::Nested(inner) => render(inner),
        };
        (name.to_string(), v)
    });
    Value::Obj(tag.into_iter().chain(knobs).collect())
}

fn nums(xs: &[u32]) -> Value {
    Value::Arr(xs.iter().map(|&x| Value::Num(f64::from(x))).collect())
}

/// A `u64` as a JSON value: a plain number when exactly representable
/// as `f64` (≤ 2^53), else a decimal string — JSON numbers are doubles,
/// and silently rounding a 64-bit seed would break exact replay.
fn u64_value(x: u64) -> Value {
    if x <= (1u64 << 53) {
        Value::Num(x as f64)
    } else {
        Value::Str(x.to_string())
    }
}

/// Applies `overrides` in place and validates (see [`overridden`]).
fn apply(cfg: &mut dyn Knobs, what: &str, overrides: &Value) -> Result<(), ParamError> {
    let entries = overrides.expect_obj(&format!("{what} parameters"))?;
    let tag = cfg.tag();
    // A tagged enum first becomes its kind's default; `at` names the kind.
    let mut at = String::new();
    if let Some(tag) = &tag {
        let v = overrides
            .get(tag.key)
            .ok_or_else(|| err(format!("{what} parameters need a {:?} key", tag.key)))?;
        let kind = v.as_str().ok_or_else(|| wants(tag.key, "a string", v))?;
        at = format!("{what} {} {kind:?}", tag.key);
        let mut kinds = tag.kinds.clone();
        let i = kinds.iter().position(|k| *k == kind);
        kinds.dedup();
        let valid = quoted(&kinds, " or ");
        cfg.set_kind(i.ok_or_else(|| err(format!("unknown {at}; valid {}s: {valid}", tag.key)))?);
    }
    let mut knobs = cfg.knobs();
    let names: Vec<&str> = knobs.iter().map(|(name, _)| *name).collect();
    if tag.as_ref().is_some_and(|t| t.all_required)
        && names.iter().any(|n| overrides.get(n).is_none())
    {
        return Err(err(format!("{at} needs {}", quoted(&names, " and "))));
    }
    for (key, v) in entries {
        if let Some((_, slot)) = knobs.iter_mut().find(|(name, _)| name == key) {
            set(slot, key, v)?;
        } else if tag.as_ref().is_none_or(|t| t.key != key) {
            let problem = if at.is_empty() {
                format!("unknown {what} parameter {key:?}")
            } else {
                format!("{at} does not take knob {key:?}, which does not apply to it")
            };
            let valid = if names.is_empty() {
                "none (it has no knobs)".into()
            } else {
                names.join(", ")
            };
            return Err(err(format!("{problem}; valid keys: {valid}")));
        }
    }
    drop(knobs);
    cfg.validate().map_err(ParamError)
}

/// Writes one override into its slot, reporting type errors by key.
fn set(slot: &mut Slot<'_>, key: &str, v: &Value) -> Result<(), ParamError> {
    let text = || v.as_str().ok_or_else(|| wants(key, "a string", v));
    match slot {
        Slot::F64(x) => **x = v.as_f64().ok_or_else(|| wants(key, "a number", v))?,
        Slot::U32(x) => **x = want_u32(key, v)?,
        Slot::U64(x) => **x = want_u64(key, v)?,
        Slot::OptU64(x) => **x = want_opt_u64(key, v)?,
        Slot::OptUsize(x) => **x = want_opt_u64(key, v)?.map(|n| n as usize),
        Slot::U32s(xs) => **xs = want_u32s(key, v)?,
        Slot::Rows(rows) => **rows = want_arr(key, v, "integer arrays", |r| want_u32s(key, r))?,
        Slot::Failures(plan) => {
            **plan = FailurePlan::explicit(want_u32s(key, v)?.into_iter().map(NodeIdx).collect())
        }
        Slot::Str(s) => **s = text()?.to_string(),
        Slot::Choice(c) => c.choose(text()?).map_err(ParamError)?,
        Slot::Nested(inner) => apply(&mut **inner, key, v)?,
    }
    Ok(())
}

/// `"a" or "b" or "c"` (for `conjunction` `" or "`).
fn quoted(items: &[&str], conjunction: &str) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("{s:?}")).collect();
    quoted.join(conjunction)
}

fn wants(key: &str, what: &str, v: &Value) -> ParamError {
    let got = v.render();
    err(format!("parameter {key:?} wants {what}, got {got}"))
}

/// Integer view of an override value: a JSON number, or the decimal
/// string [`u64_value`] emits for values above 2^53.
fn want_u64(key: &str, v: &Value) -> Result<u64, ParamError> {
    match v {
        Value::Str(s) => s.parse().ok(),
        _ => v.as_u64(),
    }
    .ok_or_else(|| wants(key, "an integer", v))
}

fn want_opt_u64(key: &str, v: &Value) -> Result<Option<u64>, ParamError> {
    (*v != Value::Null).then(|| want_u64(key, v)).transpose()
}

fn want_u32(key: &str, v: &Value) -> Result<u32, ParamError> {
    let x = want_u64(key, v)?;
    u32::try_from(x).map_err(|_| err(format!("parameter {key:?} out of range: {x}")))
}

fn want_u32s(key: &str, v: &Value) -> Result<Vec<u32>, ParamError> {
    want_arr(key, v, "integers", |x| want_u32(key, x))
}

/// An array override, item by item.
fn want_arr<T>(
    key: &str,
    v: &Value,
    items: &str,
    each: impl Fn(&Value) -> Result<T, ParamError>,
) -> Result<Vec<T>, ParamError> {
    match v {
        Value::Arr(xs) => xs.iter().map(each).collect(),
        _ => Err(wants(key, &format!("an array of {items}"), v)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for doc in ["null", "true", "false", "0", "-3.25", "1e3", "\"hi\""] {
            let v = Value::parse(doc).expect(doc);
            assert_eq!(Value::parse(&v.render()).unwrap(), v, "{doc}");
        }
    }

    #[test]
    fn objects_keep_order_and_round_trip() {
        let v = Value::obj([
            ("b", Value::Num(2.0)),
            ("a", Value::Num(1.5)),
            ("nested", Value::obj([("x", Value::Bool(true))])),
        ]);
        let doc = v.render();
        assert_eq!(doc, r#"{"b":2,"a":1.5,"nested":{"x":true}}"#);
        assert_eq!(Value::parse(&doc).unwrap(), v);
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Value::Str("a\"b\\c\nd\te\u{1}".into());
        assert_eq!(Value::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn whitespace_and_arrays() {
        let v = Value::parse(" { \"xs\" : [ 1 , 2.5 , null ] } ").unwrap();
        assert_eq!(
            v.get("xs"),
            Some(&Value::Arr(vec![
                Value::Num(1.0),
                Value::Num(2.5),
                Value::Null
            ]))
        );
    }

    #[test]
    fn errors_are_located() {
        assert!(Value::parse("{\"a\":}").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("42 junk").unwrap_err().0.contains("trailing"));
        assert!(Value::parse("").is_err());
    }

    #[test]
    fn expect_obj_rejects_non_objects() {
        assert!(Value::empty().expect_obj("x").is_ok());
        for v in [
            Value::Null,
            Value::Num(4.0),
            Value::Str("{}".into()),
            Value::Arr(vec![]),
        ] {
            let err = v.expect_obj("tunables").unwrap_err();
            assert!(err.0.contains("tunables"), "{err}");
            assert!(err.0.contains("JSON object"), "{err}");
        }
    }

    #[test]
    fn accessors() {
        let v = Value::obj([("n", Value::Num(64.0)), ("on", Value::Bool(true))]);
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(64));
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(64.0));
        assert_eq!(v.get("on").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Num(1.5).as_u64(), None);
    }

    fn nested(depth: usize, open: char, close: char) -> String {
        let mut doc = String::new();
        doc.extend(std::iter::repeat_n(open, depth));
        doc.extend(std::iter::repeat_n(close, depth));
        doc
    }

    #[test]
    fn nesting_is_capped_with_the_byte_offset() {
        // At the cap both container kinds parse, and round-trip.
        let arrays = Value::parse(&nested(MAX_DEPTH, '[', ']')).unwrap();
        assert_eq!(Value::parse(&arrays.render()).unwrap(), arrays);
        let objects = "{\"k\":".repeat(MAX_DEPTH - 1) + "{}" + &"}".repeat(MAX_DEPTH - 1);
        assert!(Value::parse(&objects).is_ok());

        // One level past it is a located error, not a deeper recursion.
        let err = Value::parse(&nested(MAX_DEPTH + 1, '[', ']')).unwrap_err();
        assert!(err.0.contains("deeper than 256"), "{err}");
        assert!(err.0.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
        let err = Value::parse(&format!("{{\"a\":{}}}", nested(MAX_DEPTH, '[', ']'))).unwrap_err();
        assert!(
            err.0.contains(&format!("at byte {}", 5 + MAX_DEPTH - 1)),
            "{err}"
        );
    }

    #[test]
    fn hostile_nesting_errors_instead_of_overflowing_the_stack() {
        let arrays = nested(100_000, '[', ']');
        let objects = "{\"k\":".repeat(100_000) + "{}" + &"}".repeat(100_000);
        for doc in [arrays, objects, "[".repeat(100_000)] {
            let err = Value::parse(&doc).unwrap_err();
            assert!(err.0.contains("deeper than 256"), "{err}");
        }
    }
}
