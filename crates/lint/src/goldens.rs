//! Golden-table consistency checks over `tests/golden_reports.rs`.
//!
//! The pinned digest tables are the dynamic determinism oracle; this
//! rule keeps the oracle itself coherent. Three things can rot silently
//! when a table is regenerated by hand-pasting `GOLDEN_REGEN=1` output:
//! a row duplicated at the same grid key, an algorithm renamed out of
//! the registry but left in a table, and an algorithm covered in one
//! table but forgotten in another. All three become `golden_table`
//! findings (never suppressible — a broken oracle cannot be waived).
//! `GRAPH_GOLDEN` pins graphs rather than runs, so its rows are held to
//! the same rules over the generated topology families instead.
//!
//! Parsing is textual, not token-based: the row keys are string
//! literals, which the determinism [`lexer`](crate::lexer) discards by
//! design, and the `(..)` rows written by the regen printer are rigid
//! enough that line parsing is exact.

use crate::{Finding, Rule};

/// The registry's eleven algorithms. Kept literal here — the linter
/// cannot call into the crates it audits — and cross-checked against
/// `registry::all()` by the self-test suite, so a twelfth algorithm
/// fails `cargo test` until this list learns its name.
pub const ALGORITHMS: &[&str] = &[
    "Cluster1",
    "Cluster2",
    "Cluster3",
    "ClusterPushPull",
    "AvinElsasser",
    "Karp",
    "PushPull",
    "Push",
    "Pull",
    "Tree",
    "NameDropper",
];

/// The generated topology families (`Topology::name`), the first key
/// field of `GRAPH_GOLDEN`. `Complete` materializes nothing and the
/// two supplied-graph kinds generate nothing, so none is pinned there.
pub const GRAPH_FAMILIES: &[&str] = &[
    "Ring",
    "Torus2D",
    "RandomRegular",
    "ErdosRenyi",
    "WattsStrogatz",
    "PreferentialAttachment",
];

/// The audited tables and how many leading tuple fields form the grid
/// key: `(algo, n, seed)` for the flat and churn grids, `(algo,
/// scenario)` for topology/dataset, `(algo, seed)` for traffic and
/// fixed-latency async, `(algo, profile, seed)` for the sampled
/// latency profiles, and `(family, n, seed)` for the generated graphs.
pub const TABLES: &[(&str, usize)] = &[
    ("GOLDEN", 3),
    ("CHURN_GOLDEN", 3),
    ("TOPOLOGY_GOLDEN", 2),
    ("TRAFFIC_GOLDEN", 2),
    ("DATASET_GOLDEN", 2),
    ("ASYNC_GOLDEN", 2),
    ("LATENCY_GOLDEN", 3),
    ("GRAPH_GOLDEN", 3),
];

/// The names a table's first key field ranges over, and what they are:
/// every table pins algorithms except `GRAPH_GOLDEN`, which pins graph
/// families.
#[must_use]
pub fn row_names(table: &str) -> (&'static [&'static str], &'static str) {
    if table == "GRAPH_GOLDEN" {
        (GRAPH_FAMILIES, "topology family")
    } else {
        (ALGORITHMS, "algorithm")
    }
}

/// One parsed table row: 1-based line and the raw tuple fields.
struct Row {
    line: u32,
    fields: Vec<String>,
}

/// Extracts the rows of `const <name>: ... = &[ ... ];` from the file
/// text. Returns `None` when the table declaration is missing.
fn table_rows(text: &str, name: &str) -> Option<Vec<Row>> {
    let mut rows = Vec::new();
    let mut in_table = false;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if !in_table {
            if line.starts_with(&format!("const {name}:")) {
                in_table = true;
            }
            continue;
        }
        if line.starts_with("];") {
            return Some(rows);
        }
        let Some(tuple) = line.strip_prefix('(') else {
            continue;
        };
        let Some(tuple) = tuple.split_once(')').map(|(t, _)| t) else {
            continue;
        };
        rows.push(Row {
            line: u32::try_from(i + 1).unwrap_or(u32::MAX),
            fields: tuple
                .split(',')
                .map(|f| f.trim().trim_matches('"').to_string())
                .collect(),
        });
    }
    None
}

fn finding(path: &str, line: u32, message: String) -> Finding {
    Finding {
        rule: Rule::GoldenTable,
        path: path.to_string(),
        line,
        message,
        suppressed: None,
    }
}

/// Cross-checks every pinned table for duplicate grid keys and full,
/// even coverage of its [`row_names`].
pub fn check(path: &str, text: &str, findings: &mut Vec<Finding>) {
    for &(table, key_arity) in TABLES {
        let Some(rows) = table_rows(text, table) else {
            findings.push(finding(
                path,
                1,
                format!("pinned table `{table}` not found; the golden oracle lost a grid"),
            ));
            continue;
        };
        let mut seen: std::collections::BTreeMap<Vec<String>, u32> =
            std::collections::BTreeMap::new();
        let (names, noun) = row_names(table);
        let mut per_name: std::collections::BTreeMap<String, usize> =
            std::collections::BTreeMap::new();
        for row in &rows {
            if row.fields.len() < key_arity {
                findings.push(finding(
                    path,
                    row.line,
                    format!(
                        "`{table}` row has {} fields, fewer than its {key_arity}-part grid key",
                        row.fields.len()
                    ),
                ));
                continue;
            }
            let key: Vec<String> = row.fields[..key_arity].to_vec();
            if let Some(first) = seen.insert(key.clone(), row.line) {
                findings.push(finding(
                    path,
                    row.line,
                    format!(
                        "duplicate `{table}` row for key ({}) — first pinned on line {first}; \
                         a stale row survived a hand-pasted regeneration",
                        key.join(", ")
                    ),
                ));
            }
            let name = row.fields[0].clone();
            if !names.contains(&name.as_str()) {
                findings.push(finding(
                    path,
                    row.line,
                    format!(
                        "`{table}` pins unknown {noun} \"{name}\"; not one of the \
                         {} known — renamed or removed without regenerating?",
                        names.len()
                    ),
                ));
            }
            *per_name.entry(name).or_insert(0) += 1;
        }
        for &name in names {
            if !per_name.contains_key(name) {
                findings.push(finding(
                    path,
                    1,
                    format!(
                        "`{table}` has no rows for \"{name}\"; every {noun} must be \
                         pinned in its grid"
                    ),
                ));
            }
        }
        let known_counts: std::collections::BTreeSet<usize> = per_name
            .iter()
            .filter(|(a, _)| names.contains(&a.as_str()))
            .map(|(_, &c)| c)
            .collect();
        if known_counts.len() > 1 {
            findings.push(finding(
                path,
                1,
                format!(
                    "`{table}` covers its {noun} names unevenly ({} distinct row \
                     counts); some grid points are missing",
                    known_counts.len()
                ),
            ));
        }
    }
}
