//! RNG stream-label extraction and the rules over it.
//!
//! Every piece of randomness in the simulator flows from one run seed
//! through `derive_seed(parent, label)` — determinism therefore reduces
//! to a namespace question: *who owns which label on which parent?*
//! This module extracts every call site into a [`StreamSite`] (the
//! registry input) and enforces two rules:
//!
//! * **`stream_label`** — a *variable* label on a shared parent is a
//!   collision hazard: `derive_seed(seed, attempt)` walks straight
//!   through the reserved engine labels as `attempt` counts up. The fix
//!   is a dedicated derived stream —
//!   `derive_seed(derive_seed(seed, RETRY_STREAM), attempt)` — whose
//!   parent no other caller shares. Variable labels are therefore
//!   allowed only when the parent is itself a fixed-label
//!   `derive_seed(..)` call (a private stream) or an integer literal;
//!   anywhere else they need an audit suppression.
//! * **`stream_collision`** — two call sites claiming the same
//!   non-reserved fixed label on the same parent group. The reserved
//!   engine labels ([`RESERVED_LABELS`]) may repeat: one scenario seed
//!   deliberately yields one churn schedule / topology / traffic plan
//!   no matter which crate derives it.
//!
//! Parents are grouped by their trailing path segment (`cfg.seed`,
//! `cfg.common.seed`, `self.seed` and `f.seed` are all the *same*
//! scenario seed threaded through different structs), so collisions are
//! caught across crates, not just within a file.

use crate::lexer::{TokKind, Token};
use crate::{Finding, Rule};

/// Labels `0..=9` are the engine's reserved streams (documented at the
/// wiring site, `CommonConfig::network` in `crates/core/src/config.rs`):
/// 0 topology first-draw, 1 engine id-space, 2 engine target-sampling,
/// 3 algorithm coins, 4 churn schedule, 5 topology build, 6 traffic
/// plan, 7 async activation clocks, 8 async message latency, 9 async
/// delivery verdicts (7–9 are the named `ASYNC_*_STREAM` constants in
/// `phonecall::rng`, derived internally by `Network::set_engine`).
pub const RESERVED_LABELS: std::ops::RangeInclusive<u64> = 0..=9;

/// How a call site's label is written.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LabelKind {
    /// An integer literal; the parsed value drives collision checks.
    Literal(u64),
    /// A `SCREAMING_SNAKE_CASE` constant; collision-checked by name.
    Const,
    /// Anything else — a loop variable, a cast, an expression.
    Variable,
}

impl LabelKind {
    /// The registry column name for this kind.
    #[must_use]
    pub const fn name(&self) -> &'static str {
        match self {
            LabelKind::Literal(_) => "literal",
            LabelKind::Const => "const",
            LabelKind::Variable => "variable",
        }
    }
}

/// One extracted `derive_seed(parent, label)` call site.
#[derive(Clone, Debug)]
pub struct StreamSite {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line of the `derive_seed` identifier.
    pub line: u32,
    /// The parent expression as written (normalized spacing).
    pub parent_text: String,
    /// Collision-group key: trailing path segment for plain paths
    /// (`cfg.common.seed` → `seed`), the rendered expression otherwise.
    pub parent_key: String,
    /// Whether the parent is a private stream (nested fixed-label
    /// `derive_seed` or an integer literal) on which variable labels
    /// are legal.
    pub parent_fixed: bool,
    /// The label expression as written (normalized spacing).
    pub label_text: String,
    /// The label's classification.
    pub kind: LabelKind,
}

/// Renders a token slice back to readable source text.
fn render(tokens: &[Token]) -> String {
    let mut out = String::new();
    for (i, t) in tokens.iter().enumerate() {
        if i > 0 {
            let tight_before = matches!(t.text.as_str(), "." | ":" | "," | ";" | ")" | "]" | "(");
            let tight_after = matches!(tokens[i - 1].text.as_str(), "." | ":" | "(" | "[");
            if !tight_before && !tight_after {
                out.push(' ');
            }
        }
        out.push_str(&t.text);
    }
    out
}

/// Splits a call's argument tokens at top-level commas. A trailing
/// comma (rustfmt adds one when it wraps a call across lines) does not
/// count as an extra empty argument.
fn split_args(tokens: &[Token]) -> Vec<&[Token]> {
    let mut out: Vec<&[Token]> = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    for (i, t) in tokens.iter().enumerate() {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth == 0 => {
                out.push(&tokens[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&tokens[start..]);
    if out.len() > 1 && out.last().is_some_and(|a| a.is_empty()) {
        out.pop();
    }
    out
}

fn classify_label(tokens: &[Token]) -> LabelKind {
    if tokens.len() == 1 {
        if let TokKind::Int(Some(v)) = tokens[0].kind {
            return LabelKind::Literal(v);
        }
        if tokens[0].kind == TokKind::Ident {
            let t = &tokens[0].text;
            if t.chars()
                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
                && t.chars().any(|c| c.is_ascii_uppercase())
            {
                return LabelKind::Const;
            }
        }
    }
    LabelKind::Variable
}

/// Whether `tokens` form a plain path (`a.b.c`, `a::b`), and if so its
/// trailing identifier.
fn path_tail(tokens: &[Token]) -> Option<String> {
    if tokens.is_empty() {
        return None;
    }
    let mut tail = None;
    for t in tokens {
        if t.kind == TokKind::Ident {
            tail = Some(t.text.clone());
        } else if !(t.is_punct('.') || t.is_punct(':')) {
            return None;
        }
    }
    tail
}

/// Whether the parent expression is a private stream: a (possibly
/// path-qualified) `derive_seed(..)` call whose own label is fixed, or
/// a bare integer literal.
fn parent_is_fixed(tokens: &[Token]) -> bool {
    if tokens.len() == 1 && matches!(tokens[0].kind, TokKind::Int(_)) {
        return true;
    }
    // Optional `path::` qualifiers, then `derive_seed (`.
    let mut i = 0;
    while i + 1 < tokens.len()
        && tokens[i].kind == TokKind::Ident
        && !tokens[i].is_ident("derive_seed")
        && tokens[i + 1].is_punct(':')
    {
        i += 1;
        while i < tokens.len() && tokens[i].is_punct(':') {
            i += 1;
        }
    }
    if !(i + 1 < tokens.len() && tokens[i].is_ident("derive_seed") && tokens[i + 1].is_punct('(')) {
        return false;
    }
    // The call must span the whole expression (not `derive_seed(..) ^ x`).
    let open = i + 1;
    let mut depth = 0i32;
    let mut close = open;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                close = j;
                break;
            }
        }
    }
    if depth != 0 || close + 1 != tokens.len() {
        return false;
    }
    let args = split_args(&tokens[open + 1..close]);
    args.len() == 2 && !matches!(classify_label(args[1]), LabelKind::Variable)
}

/// Extracts every `derive_seed(parent, label)` call site from a token
/// stream, skipping the function's own definition and any token ranges
/// in `excluded` (unit-test module bodies).
#[must_use]
pub fn extract(path: &str, tokens: &[Token], excluded: &[(usize, usize)]) -> Vec<StreamSite> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("derive_seed") || !tokens.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        // `fn derive_seed(..)` is the definition, not a call.
        if i > 0 && tokens[i - 1].is_ident("fn") {
            continue;
        }
        if excluded.iter().any(|&(s, e)| i >= s && i <= e) {
            continue;
        }
        let open = i + 1;
        let mut depth = 0i32;
        let mut close = None;
        for (j, tok) in tokens.iter().enumerate().skip(open) {
            if tok.is_punct('(') {
                depth += 1;
            } else if tok.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    close = Some(j);
                    break;
                }
            }
        }
        let Some(close) = close else { continue };
        let args = split_args(&tokens[open + 1..close]);
        if args.len() != 2 {
            continue;
        }
        let (parent, label) = (args[0], args[1]);
        let parent_text = render(parent);
        let parent_key = path_tail(parent).unwrap_or_else(|| parent_text.clone());
        out.push(StreamSite {
            path: path.to_string(),
            line: t.line,
            parent_text,
            parent_key,
            parent_fixed: parent_is_fixed(parent),
            label_text: render(label),
            kind: classify_label(label),
        });
    }
    out
}

/// Runs the `stream_label` and `stream_collision` rules over every
/// extracted site in the workspace.
pub fn check(sites: &[StreamSite], findings: &mut Vec<Finding>) {
    // Variable labels outside a private stream.
    for s in sites {
        if s.kind == LabelKind::Variable && !s.parent_fixed {
            findings.push(Finding {
                rule: Rule::StreamLabel,
                path: s.path.clone(),
                line: s.line,
                message: format!(
                    "variable label `{}` on shared parent `{}`; as it counts up it will \
                     walk through labels other streams own — derive a private stream \
                     first: `derive_seed(derive_seed({}, SOME_STREAM), {})`",
                    s.label_text, s.parent_text, s.parent_text, s.label_text
                ),
                suppressed: None,
            });
        }
    }

    // Fixed-label collisions within a parent group. Keys are
    // `v<value>` for literals and `c<name>` for consts — disjoint
    // namespaces, since a const's value is not known here.
    let mut claimed: std::collections::BTreeMap<(String, String), &StreamSite> =
        std::collections::BTreeMap::new();
    for s in sites {
        let key = match &s.kind {
            LabelKind::Literal(v) if !RESERVED_LABELS.contains(v) => format!("v{v}"),
            LabelKind::Const => format!("c{}", s.label_text),
            _ => continue,
        };
        match claimed.entry((s.parent_key.clone(), key)) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(s);
            }
            std::collections::btree_map::Entry::Occupied(e) => {
                let first = e.get();
                findings.push(Finding {
                    rule: Rule::StreamCollision,
                    path: s.path.clone(),
                    line: s.line,
                    message: format!(
                        "label `{}` on parent group `{}` already claimed at {}:{}; two \
                         call sites on one stream mean correlated randomness — pick a \
                         fresh label",
                        s.label_text, s.parent_key, first.path, first.line
                    ),
                    suppressed: None,
                });
            }
        }
    }
}
