//! The determinism deny-list and the unsafe inventory.
//!
//! Deny-list rules fire only inside the simulation crates (see
//! [`crate::SIM_CRATE_PREFIXES`]): those four `src/` trees are the code
//! whose behavior the pinned golden rows freeze, so anything that
//! injects ambient state — hash randomization, OS entropy, wall
//! clocks, environment variables — is an error there even when today's
//! call site happens to be harmless. A harmless call site gets a
//! suppression with its proof, which is the audit trail the next
//! refactor reads before touching it.

use crate::lexer::Token;
use crate::{Finding, Rule};

fn finding(rule: Rule, path: &str, line: u32, message: String) -> Finding {
    Finding {
        rule,
        path: path.to_string(),
        line,
        message,
        suppressed: None,
    }
}

/// Scans a simulation-crate file for deny-listed names.
pub fn check_denylist(path: &str, tokens: &[Token], out: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        match t.text.as_str() {
            // RandomState-backed collections: per-process random
            // iteration order by design.
            "HashMap" | "HashSet" if t.kind == crate::lexer::TokKind::Ident => {
                out.push(finding(
                    Rule::HashOrder,
                    path,
                    t.line,
                    format!(
                        "`{}` iterates in RandomState order; use `BTreeMap`/`BTreeSet`, \
                         index by dense ids, or prove iteration order never escapes and \
                         suppress with the proof",
                        t.text
                    ),
                ));
            }
            // Wall clocks: different on every run by definition.
            "SystemTime" | "Instant" if t.kind == crate::lexer::TokKind::Ident => {
                out.push(finding(
                    Rule::WallClock,
                    path,
                    t.line,
                    format!(
                        "`{}` reads the wall clock; simulation time is `rounds`, and \
                         measurement belongs in `harness`/`bench`",
                        t.text
                    ),
                ));
            }
            // Ambient entropy: unseedable, unreplayable.
            "thread_rng" | "ThreadRng" | "OsRng" | "from_entropy" | "getrandom"
                if t.kind == crate::lexer::TokKind::Ident =>
            {
                out.push(finding(
                    Rule::AmbientRng,
                    path,
                    t.line,
                    format!(
                        "`{}` draws OS entropy; all simulator randomness must flow from \
                         the run seed via `derive_seed`/`rng_from_seed`",
                        t.text
                    ),
                ));
            }
            // `rand::random` — the free function.
            "random"
                if t.kind == crate::lexer::TokKind::Ident
                    && i >= 3
                    && tokens[i - 1].is_punct(':')
                    && tokens[i - 2].is_punct(':')
                    && tokens[i - 3].is_ident("rand") =>
            {
                out.push(finding(
                    Rule::AmbientRng,
                    path,
                    t.line,
                    "`rand::random` draws from the thread-local entropy RNG; seed a \
                     `SmallRng` from the run seed instead"
                        .to_string(),
                ));
            }
            // Environment reads: runner configuration leaking into
            // simulated behavior.
            "env"
                if t.kind == crate::lexer::TokKind::Ident
                    && i + 3 < tokens.len()
                    && tokens[i + 1].is_punct(':')
                    && tokens[i + 2].is_punct(':')
                    && matches!(
                        tokens[i + 3].text.as_str(),
                        "var" | "var_os" | "vars" | "vars_os"
                    ) =>
            {
                out.push(finding(
                    Rule::EnvRead,
                    path,
                    t.line,
                    format!(
                        "`env::{}` makes simulated behavior depend on the runner's \
                         environment; thread configuration through `Scenario`/configs",
                        tokens[i + 3].text
                    ),
                ));
            }
            _ => {}
        }
    }
}

/// Scans any first-party file for `unsafe` tokens. The blanket
/// `#![forbid(unsafe_code)]` covers crate sources; this rule covers
/// what that attribute cannot reach (integration tests, benches) and
/// forces the one audited exception to carry its audit in-source.
pub fn check_unsafe(path: &str, tokens: &[Token], out: &mut Vec<Finding>) {
    for t in tokens {
        if t.is_ident("unsafe") {
            out.push(finding(
                Rule::UnsafeCode,
                path,
                t.line,
                "`unsafe` in first-party code; every block must be audited and carry \
                 a suppression naming why it is sound"
                    .to_string(),
            ));
        }
    }
}
