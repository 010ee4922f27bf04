//! Result digests: FNV-1a over every field of a trial's outcome.
//!
//! The simulator is deterministic, so a trial's digest is a pure function
//! of its inputs; a digest that moves means a simulated statistic moved.
//! The structs are destructured without `..`, so a field added to
//! `RunReport` or `TrialVerdict` fails to compile here until it is hashed.

use gossip_core::report::{ClusteringStats, PhaseReport, RunReport};
use gossip_lowerbound::TrialVerdict;
use phonecall::RumorStatus;

/// Incremental 64-bit FNV-1a.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Absorbs raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorbs one integer (little-endian, fixed width).
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Absorbs a float by its bit pattern.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Absorbs an optional integer, distinguishing `None` from `Some(0)`.
    pub fn opt(&mut self, x: Option<u64>) {
        match x {
            None => self.u64(0),
            Some(v) => {
                self.u64(1);
                self.u64(v);
            }
        }
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a full [`RunReport`].
#[must_use]
pub fn report(r: &RunReport) -> u64 {
    let RunReport {
        n,
        alive,
        rounds,
        virtual_time,
        events_processed,
        messages,
        payload_messages,
        bits,
        max_fan_in,
        max_message_bits,
        informed,
        success,
        clustering,
        phases,
        rumors,
        rumor_payloads,
        budget_drops,
    } = r;
    let mut h = Fnv::default();
    h.u64(*n as u64);
    h.u64(*alive as u64);
    h.u64(*rounds);
    h.f64(*virtual_time);
    h.u64(*events_processed);
    h.u64(*messages);
    h.u64(*payload_messages);
    h.u64(*bits);
    h.u64(*max_fan_in);
    h.u64(*max_message_bits);
    h.u64(*informed as u64);
    h.u64(u64::from(*success));
    let ClusteringStats {
        clusters,
        clustered,
        unclustered,
        min_size,
        max_size,
        mean_size,
    } = clustering;
    h.u64(*clusters as u64);
    h.u64(*clustered as u64);
    h.u64(*unclustered as u64);
    h.u64(*min_size as u64);
    h.u64(*max_size as u64);
    h.f64(*mean_size);
    h.u64(phases.len() as u64);
    for PhaseReport {
        name,
        rounds,
        messages,
        bits,
    } in phases
    {
        h.u64(name.len() as u64);
        h.bytes(name.as_bytes());
        h.u64(*rounds);
        h.u64(*messages);
        h.u64(*bits);
    }
    h.u64(rumors.len() as u64);
    for RumorStatus {
        origin,
        arrival,
        completed,
        informed,
    } in rumors
    {
        h.u64(u64::from(*origin));
        h.u64(*arrival);
        h.opt(*completed);
        h.u64(*informed);
    }
    h.u64(*rumor_payloads);
    h.u64(*budget_drops);
    h.finish()
}

/// Digest of a lower-bound [`TrialVerdict`].
#[must_use]
pub fn verdict(v: &TrialVerdict) -> u64 {
    let TrialVerdict {
        n,
        t,
        possible,
        diam_lo,
    } = v;
    let mut h = Fnv::default();
    h.u64(*n as u64);
    h.u64(u64::from(*t));
    h.u64(u64::from(*possible));
    h.u64(u64::from(*diam_lo));
    h.finish()
}

/// Digest of a `knowledge::rounds_to_complete` answer.
#[must_use]
pub fn rounds(r: Option<u32>) -> u64 {
    let mut h = Fnv::default();
    h.opt(r.map(u64::from));
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_core::algo::{Algorithm, Scenario, CLUSTER2};

    fn sample() -> RunReport {
        CLUSTER2.run(&Scenario::broadcast(256).seed(5).rumors(2, 1.0))
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv::default();
        h.bytes(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn stable_across_two_in_process_runs() {
        assert_eq!(report(&sample()), report(&sample()));
        let v = gossip_lowerbound::theorem3::trial(256, 3, 9);
        assert_eq!(
            verdict(&v),
            verdict(&gossip_lowerbound::theorem3::trial(256, 3, 9))
        );
    }

    #[test]
    fn sensitive_to_each_hashed_report_field() {
        let base = sample();
        assert!(!base.phases.is_empty() && !base.rumors.is_empty());
        let d = report(&base);
        type Edit = (&'static str, fn(&mut RunReport));
        let edits: Vec<Edit> = vec![
            ("n", |r| r.n += 1),
            ("alive", |r| r.alive += 1),
            ("rounds", |r| r.rounds += 1),
            ("virtual_time", |r| r.virtual_time += 0.5),
            ("events_processed", |r| r.events_processed += 1),
            ("messages", |r| r.messages += 1),
            ("payload_messages", |r| r.payload_messages += 1),
            ("bits", |r| r.bits += 1),
            ("max_fan_in", |r| r.max_fan_in += 1),
            ("max_message_bits", |r| r.max_message_bits += 1),
            ("informed", |r| r.informed += 1),
            ("success", |r| r.success = !r.success),
            ("clustering.clusters", |r| r.clustering.clusters += 1),
            ("clustering.clustered", |r| r.clustering.clustered += 1),
            ("clustering.unclustered", |r| r.clustering.unclustered += 1),
            ("clustering.min_size", |r| r.clustering.min_size += 1),
            ("clustering.max_size", |r| r.clustering.max_size += 1),
            ("clustering.mean_size", |r| r.clustering.mean_size += 0.25),
            ("phases.len", |r| {
                r.phases.pop();
            }),
            ("phases.name", |r| r.phases[0].name = "Renamed"),
            ("phases.rounds", |r| r.phases[0].rounds += 1),
            ("phases.messages", |r| r.phases[0].messages += 1),
            ("phases.bits", |r| r.phases[0].bits += 1),
            ("rumors.len", |r| {
                r.rumors.pop();
            }),
            ("rumors.origin", |r| r.rumors[0].origin += 1),
            ("rumors.arrival", |r| r.rumors[0].arrival += 1),
            ("rumors.completed", |r| {
                r.rumors[0].completed = match r.rumors[0].completed {
                    None => Some(0),
                    Some(_) => None,
                }
            }),
            ("rumors.informed", |r| r.rumors[0].informed += 1),
            ("rumor_payloads", |r| r.rumor_payloads += 1),
            ("budget_drops", |r| r.budget_drops += 1),
        ];
        for (field, edit) in edits {
            let mut r = base.clone();
            edit(&mut r);
            assert_ne!(report(&r), d, "digest ignores {field}");
        }
    }

    #[test]
    fn sensitive_to_each_hashed_verdict_field() {
        let base = TrialVerdict {
            n: 64,
            t: 3,
            possible: true,
            diam_lo: 4,
        };
        let d = verdict(&base);
        assert_ne!(verdict(&TrialVerdict { n: 65, ..base }), d);
        assert_ne!(verdict(&TrialVerdict { t: 4, ..base }), d);
        assert_ne!(
            verdict(&TrialVerdict {
                possible: false,
                ..base
            }),
            d
        );
        assert_ne!(verdict(&TrialVerdict { diam_lo: 5, ..base }), d);
        assert_ne!(rounds(None), rounds(Some(0)));
        assert_ne!(rounds(Some(1)), rounds(Some(2)));
    }
}
