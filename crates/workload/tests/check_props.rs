//! Property tests for the black-box SI-anomaly checker.
//!
//! Random *clean* serial histories must pass every check; the same
//! histories with one deliberately injected defect — lost update,
//! dirty write, aborted read, intermediate read, or a lost
//! acknowledged commit — must be flagged with exactly the matching
//! condition. This is the checker checking the checker: the crash
//! matrix is only as trustworthy as these detectors.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use sias_common::Xid;
use sias_workload::check::{HistOp, HistOutcome, TxnRecord};
use sias_workload::random::SplitMix64;
use sias_workload::{
    check_anomalies, check_durability, check_serializability, DurabilityInput, History, WriteTag,
};

/// Builds a serial (and therefore anomaly-free) history: one setup
/// transaction inserts every key, then each transaction reads current
/// values and sometimes overwrites them, committing or aborting
/// atomically. Returns the history and the final committed tag per key.
fn clean_history(seed: u64, txns: u64, keys: u64) -> (History, BTreeMap<u64, WriteTag>) {
    let mut rng = SplitMix64(seed);
    let mut h = History::default();
    let mut current: BTreeMap<u64, WriteTag> = BTreeMap::new();
    let mut acked = 0u64;
    let mut commit_seq = 0u64;

    let setup = Xid(1);
    let mut ops = Vec::new();
    for k in 0..keys {
        let tag = WriteTag { xid: setup, seq: k as u32 };
        ops.push(HistOp::Write { key: k, tag });
        current.insert(k, tag);
        h.version_order.entry(k).or_default().push(tag);
    }
    acked += keys + 2;
    commit_seq += 1;
    h.txns.push(TxnRecord {
        xid: setup,
        ops,
        outcome: HistOutcome::Committed { commit_seq, acked_at_record: acked },
    });

    for i in 0..txns {
        let xid = Xid(i + 2);
        let aborts = rng.next_u64().is_multiple_of(5);
        let mut ops = Vec::new();
        let mut staged: Vec<(u64, WriteTag)> = Vec::new();
        let mut seq = 0u32;
        for _ in 0..(1 + rng.next_u64() % 3) {
            let k = rng.next_u64() % keys;
            // Reads see committed state plus this txn's own staged writes.
            let observed = staged
                .iter()
                .rev()
                .find(|(sk, _)| *sk == k)
                .map(|(_, t)| *t)
                .or(current.get(&k).copied());
            ops.push(HistOp::Read { key: k, observed });
            if rng.next_u64().is_multiple_of(2) {
                let tag = WriteTag { xid, seq };
                seq += 1;
                ops.push(HistOp::Write { key: k, tag });
                staged.push((k, tag));
            }
        }
        acked += ops.len() as u64 + 2;
        if aborts {
            h.txns.push(TxnRecord { xid, ops, outcome: HistOutcome::Aborted });
        } else {
            commit_seq += 1;
            for (k, tag) in staged {
                // Later writes to the same key supersede earlier ones in
                // the chain order; only each key's latest staged write
                // need appear after the previous committed version, but
                // appending all of them in op order matches what the
                // engine's chains record.
                current.insert(k, tag);
                h.version_order.entry(k).or_default().push(tag);
            }
            h.txns.push(TxnRecord {
                xid,
                ops,
                outcome: HistOutcome::Committed { commit_seq, acked_at_record: acked },
            });
        }
    }
    (h, current)
}

fn conditions(v: &[sias_workload::Violation]) -> Vec<&'static str> {
    let mut c: Vec<&'static str> = v.iter().map(|v| v.condition).collect();
    c.sort();
    c.dedup();
    c
}

/// A faithful post-crash view of the full history: everything committed
/// is recovered, visible state is the final committed tag per key.
fn faithful_input(h: &History, current: &BTreeMap<u64, WriteTag>) -> DurabilityInput {
    let committed = h.committed();
    DurabilityInput {
        crash_record_count: u64::MAX,
        prefix_commits: committed.clone(),
        recovered_commits: committed,
        expected_state: current.clone(),
        recovered_state: current.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Serial histories are anomaly-free and durability-clean.
    #[test]
    fn clean_histories_pass(seed in any::<u64>(), txns in 2u64..24, keys in 1u64..6) {
        let (h, current) = clean_history(seed, txns, keys);
        let v = check_anomalies(&h);
        prop_assert!(v.is_empty(), "clean history flagged: {:?}", v);
        let v = check_durability(&h, &faithful_input(&h, &current));
        prop_assert!(v.is_empty(), "faithful recovery flagged: {:?}", v);
    }

    /// Injected lost update: two committed transactions read-modify-write
    /// the same version of the same key.
    #[test]
    fn injected_lost_update_is_flagged(seed in any::<u64>(), txns in 2u64..16, keys in 1u64..6) {
        let (mut h, mut current) = clean_history(seed, txns, keys);
        let k = seed % keys;
        let base = current[&k];
        let (xa, xb) = (Xid(1000), Xid(1001));
        for (i, xid) in [xa, xb].into_iter().enumerate() {
            let tag = WriteTag { xid, seq: 0 };
            h.txns.push(TxnRecord {
                xid,
                ops: vec![
                    HistOp::Read { key: k, observed: Some(base) },
                    HistOp::Write { key: k, tag },
                ],
                outcome: HistOutcome::Committed {
                    commit_seq: 900 + i as u64,
                    acked_at_record: u64::MAX,
                },
            });
            h.version_order.entry(k).or_default().push(tag);
            current.insert(k, tag);
        }
        prop_assert!(conditions(&check_anomalies(&h)).contains(&"LU"));
    }

    /// Injected dirty write: two committed transactions whose version
    /// orders contradict each other across two keys.
    #[test]
    fn injected_dirty_write_is_flagged(seed in any::<u64>(), txns in 2u64..16, keys in 2u64..6) {
        let (mut h, _) = clean_history(seed, txns, keys);
        let (k1, k2) = (0, 1);
        let (xa, xb) = (Xid(1000), Xid(1001));
        let (ta1, ta2) = (WriteTag { xid: xa, seq: 0 }, WriteTag { xid: xa, seq: 1 });
        let (tb1, tb2) = (WriteTag { xid: xb, seq: 0 }, WriteTag { xid: xb, seq: 1 });
        for (xid, ops) in [
            (xa, vec![HistOp::Write { key: k1, tag: ta1 }, HistOp::Write { key: k2, tag: ta2 }]),
            (xb, vec![HistOp::Write { key: k1, tag: tb1 }, HistOp::Write { key: k2, tag: tb2 }]),
        ] {
            h.txns.push(TxnRecord {
                xid,
                ops,
                outcome: HistOutcome::Committed { commit_seq: xid.0, acked_at_record: u64::MAX },
            });
        }
        // k1 says A before B; k2 says B before A.
        h.version_order.entry(k1).or_default().extend([ta1, tb1]);
        h.version_order.entry(k2).or_default().extend([tb2, ta2]);
        prop_assert!(conditions(&check_anomalies(&h)).contains(&"G0"));
    }

    /// Injected aborted read: a committed transaction observed a version
    /// whose writer aborted.
    #[test]
    fn injected_aborted_read_is_flagged(seed in any::<u64>(), txns in 2u64..16, keys in 1u64..6) {
        let (mut h, _) = clean_history(seed, txns, keys);
        let k = seed % keys;
        let ghost = WriteTag { xid: Xid(1000), seq: 0 };
        h.txns.push(TxnRecord {
            xid: Xid(1000),
            ops: vec![HistOp::Write { key: k, tag: ghost }],
            outcome: HistOutcome::Aborted,
        });
        h.txns.push(TxnRecord {
            xid: Xid(1001),
            ops: vec![HistOp::Read { key: k, observed: Some(ghost) }],
            outcome: HistOutcome::Committed { commit_seq: 901, acked_at_record: u64::MAX },
        });
        prop_assert_eq!(conditions(&check_anomalies(&h)), vec!["G1a"]);
    }

    /// Injected intermediate read: a committed transaction observed a
    /// non-final write of another committed transaction.
    #[test]
    fn injected_intermediate_read_is_flagged(seed in any::<u64>(), txns in 2u64..16, keys in 1u64..6) {
        let (mut h, _) = clean_history(seed, txns, keys);
        let k = seed % keys;
        let (mid, fin) = (WriteTag { xid: Xid(1000), seq: 0 }, WriteTag { xid: Xid(1000), seq: 1 });
        h.txns.push(TxnRecord {
            xid: Xid(1000),
            ops: vec![HistOp::Write { key: k, tag: mid }, HistOp::Write { key: k, tag: fin }],
            outcome: HistOutcome::Committed { commit_seq: 900, acked_at_record: u64::MAX },
        });
        h.version_order.entry(k).or_default().extend([mid, fin]);
        h.txns.push(TxnRecord {
            xid: Xid(1001),
            ops: vec![HistOp::Read { key: k, observed: Some(mid) }],
            outcome: HistOutcome::Committed { commit_seq: 901, acked_at_record: u64::MAX },
        });
        prop_assert_eq!(conditions(&check_anomalies(&h)), vec!["G1b"]);
    }

    /// Injected durability loss: one acknowledged commit vanishes from
    /// the recovered commit set.
    #[test]
    fn injected_lost_commit_is_flagged(seed in any::<u64>(), txns in 2u64..16, keys in 1u64..6) {
        let (h, _current) = clean_history(seed, txns, keys);
        let committed = h.committed();
        let victim = *committed.iter().next().unwrap();
        let survivors: BTreeSet<Xid> = committed.into_iter().filter(|x| *x != victim).collect();
        // Prefix agrees with recovery (both lost the victim), isolating
        // the DUR-ACK condition: the ACK said it was durable.
        let input = DurabilityInput {
            crash_record_count: u64::MAX,
            prefix_commits: survivors.clone(),
            recovered_commits: survivors,
            expected_state: BTreeMap::new(),
            recovered_state: BTreeMap::new(),
        };
        let got = conditions(&check_durability(&h, &input));
        prop_assert!(got.contains(&"DUR-ACK"), "got {:?}", got);
    }

    /// Injected state divergence: the recovered visible value of one key
    /// is not the last committed write in the prefix.
    #[test]
    fn injected_state_divergence_is_flagged(seed in any::<u64>(), txns in 2u64..16, keys in 1u64..6) {
        let (h, current) = clean_history(seed, txns, keys);
        let mut input = faithful_input(&h, &current);
        let k = seed % keys;
        input.recovered_state.insert(k, WriteTag { xid: Xid(4096), seq: 9 });
        prop_assert_eq!(conditions(&check_durability(&h, &input)), vec!["DUR-STATE"]);
    }

    /// Serial histories are (trivially) serializable: the G2/G1c cycle
    /// checker must never fire on them.
    #[test]
    fn clean_histories_have_no_cycles(seed in any::<u64>(), txns in 2u64..24, keys in 1u64..6) {
        let (h, _) = clean_history(seed, txns, keys);
        let v = check_serializability(&h);
        prop_assert!(v.is_empty(), "serial history flagged non-serializable: {:?}", v);
    }

    /// Injected write skew grafted onto a clean history: two committed
    /// transactions each read both of two fresh keys (absent under their
    /// snapshots) and write one each. Plain SI admits this — no anomaly
    /// condition fires — but the rw↔rw cycle must be reported as G2.
    #[test]
    fn injected_write_skew_is_flagged_g2(seed in any::<u64>(), txns in 2u64..16, keys in 1u64..6) {
        let (mut h, _) = clean_history(seed, txns, keys);
        let (k1, k2) = (keys, keys + 1);
        let (xa, xb) = (Xid(1000), Xid(1001));
        let (ta, tb) = (WriteTag { xid: xa, seq: 0 }, WriteTag { xid: xb, seq: 0 });
        for (xid, wk, tag) in [(xa, k1, ta), (xb, k2, tb)] {
            h.txns.push(TxnRecord {
                xid,
                ops: vec![
                    HistOp::Read { key: k1, observed: None },
                    HistOp::Read { key: k2, observed: None },
                    HistOp::Write { key: wk, tag },
                ],
                outcome: HistOutcome::Committed { commit_seq: xid.0, acked_at_record: u64::MAX },
            });
            h.version_order.entry(wk).or_default().push(tag);
        }
        prop_assert!(check_anomalies(&h).is_empty(), "write skew is SI-legal");
        let v = check_serializability(&h);
        prop_assert_eq!(conditions(&v), vec!["G2"]);
        prop_assert!(
            v.iter().any(|v| v.detail.contains("pivots")),
            "G2 witness must name pivots: {:?}",
            v
        );
    }

    /// Injected rw-cycle of arbitrary length n: transaction i reads key i
    /// (absent) and writes key (i+1) mod n, so each read is overwritten by
    /// its cyclic predecessor. Every edge is an rw-antidependency, every
    /// node a pivot — the checker must always flag G2, never miss it.
    #[test]
    fn injected_rw_cycles_are_always_flagged_g2(
        seed in any::<u64>(),
        txns in 2u64..16,
        keys in 1u64..6,
        n in 2u64..6,
    ) {
        let (mut h, _) = clean_history(seed, txns, keys);
        for i in 0..n {
            let xid = Xid(1000 + i);
            let wk = keys + ((i + 1) % n);
            let tag = WriteTag { xid, seq: 0 };
            h.txns.push(TxnRecord {
                xid,
                ops: vec![
                    HistOp::Read { key: keys + i, observed: None },
                    HistOp::Write { key: wk, tag },
                ],
                outcome: HistOutcome::Committed { commit_seq: xid.0, acked_at_record: u64::MAX },
            });
            h.version_order.entry(wk).or_default().push(tag);
        }
        let got = conditions(&check_serializability(&h));
        prop_assert!(got.contains(&"G2"), "rw-cycle of length {} missed: {:?}", n, got);
    }
}
