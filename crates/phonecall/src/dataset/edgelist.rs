//! SNAP-style edge-list parsing: text in, validated CSR out.
//!
//! The accepted grammar is the lowest common denominator of the
//! formats real snapshot archives ship (SNAP, KONECT, Network
//! Repository):
//!
//! * one edge per line: two unsigned integer node ids separated by
//!   whitespace (spaces or tabs); further columns (weights,
//!   timestamps) are ignored;
//! * lines starting with `#` or `%` are comments; blank lines are
//!   skipped; CRLF line endings are tolerated;
//! * ids are arbitrary `u64`s — non-contiguous, unordered. They are
//!   relabeled densely in **first-appearance order**, which is a pure
//!   function of the file bytes, so a given file always yields the
//!   identical graph;
//! * the graph is undirected: `a b` and `b a` are the same edge, and
//!   parallel copies collapse. Self-loop lines (`a a`) carry no
//!   information for gossip and are dropped here, *before* the CSR
//!   builder — which treats a surviving self-loop as a hard error.

// detlint: allow-file(hash_order) — the `ids` relabeling HashMap is probed per-id; dense labels are assigned in first-appearance order of the file bytes and the map is never iterated
use std::collections::HashMap;

use crate::topology::Adjacency;

/// Maximum node count the `u32`-indexed engine can address.
const MAX_NODES: usize = u32::MAX as usize;

/// Parses edge-list text into a symmetrized, deduplicated, self-loop-
/// free CSR [`Adjacency`]. See the [module docs](self) for the
/// grammar. Deterministic: the same bytes always produce the same
/// graph, with nodes numbered in first-appearance order.
///
/// # Errors
///
/// Returns a message naming the 1-based line and the offending token
/// for anything that is not an edge, a comment, or a blank line — and
/// a summary error when no edge survives at all (an empty graph has
/// no gossip to run).
pub fn parse_edge_list(text: &str) -> Result<Adjacency, String> {
    let mut ids: HashMap<u64, u32> = HashMap::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    // `str::lines` already strips a trailing `\r`, so CRLF files
    // parse identically to LF ones.
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let lineno = idx + 1;
        let mut tokens = line.split_whitespace();
        let (a, b) = match (tokens.next(), tokens.next()) {
            (Some(a), Some(b)) => (a, b),
            _ => return Err(format!("line {lineno}: expected `src dst`, got {line:?}")),
        };
        let a = parse_id(a, lineno)?;
        let b = parse_id(b, lineno)?;
        if a == b {
            continue; // self-loop line: no information for gossip
        }
        let ia = intern(&mut ids, a, lineno)?;
        let ib = intern(&mut ids, b, lineno)?;
        // One direction suffices: `Adjacency::from_edges` mirrors
        // every edge and collapses parallel copies.
        edges.push((ia, ib));
    }
    if ids.is_empty() {
        return Err("no edges found (only comments, blanks, or self-loops)".to_string());
    }
    Adjacency::from_edges(ids.len(), &edges)
}

fn parse_id(token: &str, lineno: usize) -> Result<u64, String> {
    token
        .parse::<u64>()
        .map_err(|_| format!("line {lineno}: node id {token:?} is not an unsigned integer"))
}

/// Maps a raw file id to its dense index, allocating the next index on
/// first appearance: the node count is `ids.len()`.
fn intern(ids: &mut HashMap<u64, u32>, raw: u64, lineno: usize) -> Result<u32, String> {
    if let Some(&ix) = ids.get(&raw) {
        return Ok(ix);
    }
    if ids.len() >= MAX_NODES {
        return Err(format!(
            "line {lineno}: more than {MAX_NODES} distinct node ids"
        ));
    }
    let ix = ids.len() as u32;
    ids.insert(raw, ix);
    Ok(ix)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_snap_shape() {
        // Comments, tabs, extra columns, shuffled non-contiguous ids.
        let text = "# Directed graph: example\n\
                    % a konect-style comment\n\
                    900\t17\n\
                    17 42 1337\n\
                    \n\
                    42\t900\n";
        let adj = parse_edge_list(text).unwrap();
        // First-appearance order: 900 -> 0, 17 -> 1, 42 -> 2.
        assert_eq!(adj.len(), 3);
        assert_eq!(adj.edge_count(), 3);
        assert_eq!(adj.neighbors(0), &[1, 2]);
    }

    #[test]
    fn crlf_duplicates_and_self_loops_are_tolerated() {
        let text = "5 6\r\n6 5\r\n5 5\r\n6 7\r\n";
        let adj = parse_edge_list(text).unwrap();
        assert_eq!(adj.len(), 3, "the self-loop line adds no node here");
        assert_eq!(adj.edge_count(), 2, "5-6 listed twice is one edge");
    }

    #[test]
    fn a_pure_self_loop_node_still_counts() {
        // `9 9` is dropped, but 9 first appears on a real edge too.
        let adj = parse_edge_list("9 9\n9 4\n").unwrap();
        assert_eq!(adj.len(), 2);
        assert_eq!(adj.edge_count(), 1);
    }

    #[test]
    fn errors_name_the_line() {
        let err = parse_edge_list("1 2\nonly_one_token\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = parse_edge_list("1 2\n\n3 minus-four\n").unwrap_err();
        assert!(
            err.contains("line 3") && err.contains("minus-four"),
            "{err}"
        );
        let err = parse_edge_list("# nothing\n\n7 7\n").unwrap_err();
        assert!(err.contains("no edges"), "{err}");
    }
}
