//! In-memory spans around the calls into each layer, written out when the
//! run ends.
//!
//! Spans are recorded from the benchmark's own files only (the program has
//! no probe hooks yet), so the finest grain is one public call: a trial,
//! or for Cluster2 each public phase function. A span's **self time** is
//! its duration minus the part of its interval that its child spans cover
//! — a union, so the overlapping trials of a two-thread cell are not
//! counted twice.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the trace.
    pub id: u32,
    /// The span that caused it (`None` for the root).
    pub parent: Option<u32>,
    /// The trial it belongs to: spans of one trial share this number.
    pub trial: Option<u32>,
    /// Layer name (`core.cluster2.phase.square`, `repeat`, `cell …`).
    pub name: String,
    /// Start, in ns since the trace's origin.
    pub start_ns: u64,
    /// End, in ns since the trace's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The spans of one process.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

/// Count, total and self time of every span sharing one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    /// Nanoseconds since this trace's origin.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The clock origin, for threads that timestamp on their own.
    #[must_use]
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Opens a span now; close it with [`Trace::close`].
    pub fn open(&mut self, parent: Option<u32>, name: impl Into<String>) -> u32 {
        let now = self.now_ns();
        self.add(parent, None, name, now, now)
    }

    /// Ends an open span now.
    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Records a finished span with explicit timestamps.
    pub fn add(
        &mut self,
        parent: Option<u32>,
        trial: Option<u32>,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            trial,
            name: name.into(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Every span, in recording order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed by span id.
    #[must_use]
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let start = s.start_ns.max(parent.start_ns);
                let end = s.end_ns.min(parent.end_ns);
                if end > start {
                    children[p as usize].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (start, end) in kids {
                    if end > reach {
                        covered += end - start.max(reach);
                        reach = end;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// Per-name totals over the subtree rooted at `root`. Cell spans
    /// (`cell <label>`) fold into one `cell` row.
    #[must_use]
    pub fn layer_times(&self, root: u32) -> BTreeMap<String, LayerTime> {
        let self_times = self.self_times();
        let mut inside = vec![false; self.spans.len()];
        let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
        for s in &self.spans {
            // Parents are recorded before their children.
            inside[s.id as usize] = s.id == root || s.parent.is_some_and(|p| inside[p as usize]);
            if !inside[s.id as usize] {
                continue;
            }
            let name = if s.name.starts_with("cell ") {
                "cell"
            } else {
                s.name.as_str()
            };
            let row = out.entry(name.to_string()).or_default();
            row.count += 1;
            row.total_ns += s.duration_ns();
            row.self_ns += self_times[s.id as usize];
        }
        out
    }

    /// The trace as JSON: `{"spans": [{id, parent, trial, name, start_ns,
    /// end_ns}, …]}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let opt = |x: Option<u32>| x.map_or(Json::Null, |v| Json::Num(f64::from(v)));
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(f64::from(s.id))),
                    ("parent", opt(s.parent)),
                    ("trial", opt(s.trial)),
                    ("name", Json::Str(s.name.clone())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        Json::obj([("spans", Json::Arr(spans))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// repeat [0, 100]
    ///   cell a [10, 60]
    ///     trial [10, 40]   (thread 1)
    ///       phase [15, 25]
    ///     trial [20, 55]   (thread 2, overlaps the first)
    ///   cell b [70, 90]
    ///     trial [70, 90]
    fn hand_built() -> Trace {
        let mut t = Trace::default();
        let repeat = t.add(None, None, "repeat", 0, 100);
        let a = t.add(Some(repeat), None, "cell a", 10, 60);
        let t0 = t.add(Some(a), Some(0), "trial", 10, 40);
        t.add(Some(t0), Some(0), "phase", 15, 25);
        t.add(Some(a), Some(1), "trial", 20, 55);
        let b = t.add(Some(repeat), None, "cell b", 70, 90);
        t.add(Some(b), Some(2), "trial", 70, 90);
        t
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = hand_built();
        // repeat: 100 − (50 + 20); cell a: 50 − union([10,40],[20,55]) = 5;
        // first trial: 30 − 10; phase: 10; second trial: 35; cell b: 0;
        // its trial: 20.
        assert_eq!(t.self_times(), vec![30, 5, 20, 10, 35, 0, 20]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let mut t = Trace::default();
        let p = t.add(None, None, "p", 10, 20);
        t.add(Some(p), None, "early", 0, 12);
        t.add(Some(p), None, "late", 18, 30);
        t.add(Some(p), None, "outside", 40, 50);
        assert_eq!(t.self_times()[0], 6);
    }

    #[test]
    fn layer_times_fold_cells_and_respect_the_root() {
        let t = hand_built();
        let all = t.layer_times(0);
        assert_eq!(
            all["cell"],
            LayerTime {
                count: 2,
                total_ns: 70,
                self_ns: 5
            }
        );
        assert_eq!(
            all["trial"],
            LayerTime {
                count: 3,
                total_ns: 85,
                self_ns: 75
            }
        );
        assert_eq!(all["repeat"].self_ns, 30);
        // Self times of a subtree partition its root's covered time only
        // when nothing overlaps; with the two-thread cell they exceed it.
        let only_b = t.layer_times(5);
        assert_eq!(only_b.len(), 2);
        assert_eq!(only_b["trial"].count, 1);
    }

    #[test]
    fn open_close_and_json_shape() {
        let mut t = Trace::default();
        let root = t.open(None, "workload");
        let kid = t.open(Some(root), "repeat");
        t.close(kid);
        t.close(root);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let json = t.to_json();
        let first = &crate::json::items(json.get("spans").unwrap())[1];
        assert_eq!(first.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(first.get("trial"), Some(&Json::Null));
        assert_eq!(first.get("name").unwrap().as_str(), Some("repeat"));
    }
}
