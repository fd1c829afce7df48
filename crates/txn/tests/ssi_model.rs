//! Exhaustive model checker for the SSI flag machine.
//!
//! Replays every interleaving of small transaction programs (2–3
//! transactions, 2 keys) against a model database that mirrors the
//! engines' hook discipline exactly:
//!
//! * reads walk the version chain newest-first and hand every skipped
//!   non-aborted creator to [`SsiState::on_read`] (the read-time
//!   rw-antidependency edges);
//! * writes pass the first-updater-wins check, append their version to
//!   the chain, and only then call [`SsiState::on_write`] with the
//!   engines' concurrency closure, exactly like `update_inner`;
//! * commits run the pre-WAL [`SsiState::can_commit`] pivot check and
//!   then garbage-collect below the manager's xmin horizon;
//! * aborts forget all SSI state of the victim.
//!
//! Two properties are checked over the whole space:
//!
//! 1. **Soundness** — every history the machine admits (the committed
//!    transactions, their reads and their final states) is
//!    view-serializable, verified by brute-force permutation replay.
//!    The serializability oracle itself is validated by re-running the
//!    same space with SSI off: plain SI must admit at least one
//!    non-serializable history (write skew), or the oracle is blind.
//! 2. **GC safety** — SIREAD-mark and flag collection at the horizon
//!    never drops state of a transaction some active transaction is
//!    still concurrent with (a "live edge").

use std::collections::{BTreeMap, BTreeSet};

use sias_common::{RelId, Xid};
use sias_txn::{SsiState, SsiVerdict};

const REL: RelId = RelId(1);
/// The pre-populated initial writer of every key; always committed and
/// inside every snapshot.
const SETUP: Xid = Xid(0);
const KEYS: u64 = 2;

/// One program step of a model transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Op {
    Read(u64),
    Write(u64),
}

use Op::{Read, Write};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Active,
    Committed,
    Aborted,
}

/// What a transaction did, for the serializability oracle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum HistOp {
    /// Read of `key` that observed the version created by `observed`.
    Read { key: u64, observed: Xid },
    /// Write of `key`.
    Write { key: u64 },
}

/// One model transaction's runtime state.
struct ModelTxn {
    xid: Xid,
    /// Transactions committed before this one began (setup implicit).
    snapshot: BTreeSet<Xid>,
    /// Oldest xid active at begin (self if none) — the manager's
    /// per-snapshot xmin, the unit of the GC horizon.
    xmin: Xid,
    status: Status,
    ops: Vec<HistOp>,
}

/// The model world: an SSI state machine plus a tiny MVCC database.
struct World {
    ssi: SsiState,
    txns: Vec<Option<ModelTxn>>,
    /// Per-key version chains in creation order (aborted versions are
    /// removed, like the clog filters them out of engine chain walks).
    chains: BTreeMap<u64, Vec<Xid>>,
    next_xid: u64,
    ssi_aborts: u64,
}

impl World {
    fn new(programs: usize, ssi_on: bool) -> World {
        let ssi = SsiState::default();
        if ssi_on {
            ssi.enable();
        }
        World {
            ssi,
            txns: (0..programs).map(|_| None).collect(),
            chains: (0..KEYS).map(|k| (k, vec![SETUP])).collect(),
            next_xid: 1,
            ssi_aborts: 0,
        }
    }

    fn active(&self, x: Xid) -> bool {
        self.txns.iter().flatten().any(|t| t.xid == x && t.status == Status::Active)
    }

    fn committed(&self, x: Xid) -> bool {
        x == SETUP
            || self.txns.iter().flatten().any(|t| t.xid == x && t.status == Status::Committed)
    }

    /// The manager's GC horizon: min xmin over active transactions,
    /// else the next xid to be allocated.
    fn horizon(&self) -> Xid {
        self.txns
            .iter()
            .flatten()
            .filter(|t| t.status == Status::Active)
            .map(|t| t.xmin)
            .min()
            .unwrap_or(Xid(self.next_xid))
    }

    /// `begin`: allocate an xid, snapshot the committed set, record the
    /// oldest active xid as this snapshot's xmin.
    fn begin(&mut self, i: usize) {
        let xid = Xid(self.next_xid);
        self.next_xid += 1;
        let snapshot: BTreeSet<Xid> = self
            .txns
            .iter()
            .flatten()
            .filter(|t| t.status == Status::Committed)
            .map(|t| t.xid)
            .collect();
        let xmin = self
            .txns
            .iter()
            .flatten()
            .filter(|t| t.status == Status::Active)
            .map(|t| t.xid)
            .min()
            .unwrap_or(xid);
        self.txns[i] =
            Some(ModelTxn { xid, snapshot, xmin, status: Status::Active, ops: Vec::new() });
    }

    /// Aborts transaction `i` and erases its footprint, like the
    /// engines: versions vanish from chain walks, SSI state is
    /// forgotten.
    fn abort(&mut self, i: usize, serialization: bool) {
        let xid = self.txns[i].as_ref().unwrap().xid;
        self.txns[i].as_mut().unwrap().status = Status::Aborted;
        for chain in self.chains.values_mut() {
            chain.retain(|&c| c != xid);
        }
        self.ssi.forget(xid);
        if serialization {
            self.ssi_aborts += 1;
        }
    }

    /// A read: chain walk newest-first collecting every skipped
    /// non-aborted creator, SSI verdict, then the observation.
    fn read(&mut self, i: usize, key: u64) {
        let (xid, snapshot) = {
            let t = self.txns[i].as_ref().unwrap();
            (t.xid, t.snapshot.clone())
        };
        let mut newer: Vec<Xid> = Vec::new();
        let mut observed = SETUP;
        for &c in self.chains[&key].iter().rev() {
            if c == xid || c == SETUP || (self.committed(c) && snapshot.contains(&c)) {
                observed = c;
                break;
            }
            newer.push(c); // skipped: active, or committed-concurrent
        }
        if self.ssi.on_read(xid, REL, key, &newer) == SsiVerdict::MustAbort {
            self.abort(i, true);
            return;
        }
        self.txns[i].as_mut().unwrap().ops.push(HistOp::Read { key, observed });
    }

    /// A write: first-updater-wins against the newest version, then the
    /// version joins the chain, then SSI edges from SIREAD marks (engine
    /// `update_inner` order: publish, then check).
    fn write(&mut self, i: usize, key: u64) {
        let (xid, snapshot) = {
            let t = self.txns[i].as_ref().unwrap();
            (t.xid, t.snapshot.clone())
        };
        if let Some(&c) = self.chains[&key].last() {
            if c != xid && c != SETUP && (self.active(c) || !snapshot.contains(&c)) {
                // First-updater-wins: the later writer dies. Not an SSI
                // abort, and it never reaches the SSI hook.
                self.abort(i, false);
                return;
            }
        }
        self.chains.get_mut(&key).unwrap().push(xid);
        let verdict = self.ssi.on_write(xid, REL, key, |r| {
            self.active(r) || (self.committed(r) && !snapshot.contains(&r))
        });
        if verdict == SsiVerdict::MustAbort {
            // The abort takes the published version back out of the chain.
            self.abort(i, true);
            return;
        }
        self.txns[i].as_mut().unwrap().ops.push(HistOp::Write { key });
    }

    /// Commit: pre-check the pivot verdict, then GC below the horizon —
    /// asserting the GC kept every mark and flag some active
    /// transaction still depends on.
    fn commit(&mut self, i: usize) {
        let xid = self.txns[i].as_ref().unwrap().xid;
        if self.ssi.can_commit(xid) == SsiVerdict::MustAbort {
            self.abort(i, true);
            return;
        }
        self.txns[i].as_mut().unwrap().status = Status::Committed;

        let marks_before: Vec<(u64, Vec<Xid>)> =
            (0..KEYS).map(|k| (k, self.ssi.mark_owners(REL, k))).collect();
        let flags_before = self.ssi.flag_rows();
        self.ssi.collect_below(self.horizon());

        // A committed transaction is "live" while some active
        // transaction is concurrent with it (does not have it in its
        // snapshot): its marks and flags may still grow edges.
        let live = |r: Xid| {
            self.active(r)
                || (self.committed(r)
                    && self
                        .txns
                        .iter()
                        .flatten()
                        .any(|t| t.status == Status::Active && !t.snapshot.contains(&r)))
        };
        for (key, owners) in marks_before {
            let after = self.ssi.mark_owners(REL, key);
            for r in owners {
                if live(r) {
                    assert!(after.contains(&r), "GC forgot live SIREAD mark of {r:?} on key {key}");
                }
            }
        }
        let flags_after = self.ssi.flag_rows();
        for (r, _, _, committed) in flags_before {
            if committed && live(r) {
                assert!(
                    flags_after.iter().any(|&(x, ..)| x == r),
                    "GC forgot live conflict flags of {r:?}"
                );
            }
        }
    }
}

/// Runs one schedule (a merge of the programs' step sequences) from
/// scratch. `schedule[j]` names the transaction whose next step runs.
/// Steps of already-dead transactions are skipped.
fn replay(programs: &[Vec<Op>], schedule: &[usize], ssi_on: bool) -> World {
    let mut world = World::new(programs.len(), ssi_on);
    let mut pc: Vec<usize> = vec![0; programs.len()];
    for &i in schedule {
        let step = pc[i];
        pc[i] += 1;
        if step == 0 {
            world.begin(i);
            continue;
        }
        if world.txns[i].as_ref().unwrap().status != Status::Active {
            continue; // aborted mid-program: remaining steps are no-ops
        }
        match programs[i].get(step - 1) {
            Some(&Read(k)) => world.read(i, k),
            Some(&Write(k)) => world.write(i, k),
            None => world.commit(i),
        }
    }
    world
}

/// View-serializability oracle: some permutation of the committed
/// transactions, replayed serially, reproduces every observed read and
/// the exact final state.
fn admitted_serializable(world: &World) -> bool {
    let committed: Vec<&ModelTxn> =
        world.txns.iter().flatten().filter(|t| t.status == Status::Committed).collect();
    let final_state: BTreeMap<u64, Xid> = (0..KEYS)
        .map(|k| {
            let last = world.chains[&k]
                .iter()
                .rev()
                .find(|&&c| world.committed(c))
                .copied()
                .unwrap_or(SETUP);
            (k, last)
        })
        .collect();

    let mut order: Vec<usize> = (0..committed.len()).collect();
    permutations(&mut order, 0, &mut |perm| {
        let mut state: BTreeMap<u64, Xid> = (0..KEYS).map(|k| (k, SETUP)).collect();
        for &idx in perm {
            let t = committed[idx];
            for op in &t.ops {
                match *op {
                    HistOp::Read { key, observed } => {
                        if state[&key] != observed {
                            return false;
                        }
                    }
                    HistOp::Write { key } => {
                        state.insert(key, t.xid);
                    }
                }
            }
        }
        state == final_state
    })
}

/// Calls `found` on every permutation of `items[at..]`; returns true as
/// soon as one call returns true.
fn permutations(
    items: &mut Vec<usize>,
    at: usize,
    found: &mut impl FnMut(&[usize]) -> bool,
) -> bool {
    if at == items.len() {
        return found(items);
    }
    for i in at..items.len() {
        items.swap(at, i);
        if permutations(items, at + 1, found) {
            items.swap(at, i);
            return true;
        }
        items.swap(at, i);
    }
    false
}

/// Visits every interleaving of the programs' step sequences (begin +
/// ops + commit per transaction).
fn for_each_schedule(lens: &[usize], visit: &mut impl FnMut(&[usize])) {
    let total: usize = lens.iter().sum();
    let mut schedule = Vec::with_capacity(total);
    let mut left = lens.to_vec();
    fn rec(
        left: &mut Vec<usize>,
        schedule: &mut Vec<usize>,
        total: usize,
        visit: &mut impl FnMut(&[usize]),
    ) {
        if schedule.len() == total {
            visit(schedule);
            return;
        }
        for i in 0..left.len() {
            if left[i] > 0 {
                left[i] -= 1;
                schedule.push(i);
                rec(left, schedule, total, visit);
                schedule.pop();
                left[i] += 1;
            }
        }
    }
    rec(&mut left, &mut schedule, total, visit);
}

/// Sweeps every schedule of `programs`, asserting soundness when SSI is
/// on; returns (runs, ssi-aborting runs, non-serializable runs).
fn sweep(programs: &[Vec<Op>], ssi_on: bool) -> (u64, u64, u64) {
    let lens: Vec<usize> = programs.iter().map(|p| p.len() + 2).collect();
    let (mut runs, mut aborting, mut unserializable) = (0u64, 0u64, 0u64);
    for_each_schedule(&lens, &mut |schedule| {
        let world = replay(programs, schedule, ssi_on);
        runs += 1;
        if world.ssi_aborts > 0 {
            aborting += 1;
        }
        if !admitted_serializable(&world) {
            unserializable += 1;
            assert!(
                !ssi_on,
                "SSI admitted a non-serializable history: programs {programs:?}, \
                 schedule {schedule:?}"
            );
        }
    });
    (runs, aborting, unserializable)
}

/// All two-op programs over two keys: every combination of reads and
/// writes a 2-step transaction can perform.
fn all_two_op_programs() -> Vec<Vec<Op>> {
    let ops = [Read(0), Read(1), Write(0), Write(1)];
    let mut programs = Vec::new();
    for &a in &ops {
        for &b in &ops {
            programs.push(vec![a, b]);
        }
    }
    programs
}

#[test]
fn two_txn_exhaustive_is_serializable_under_ssi() {
    // Every pair of 2-op programs, every interleaving: 256 pairs × 70
    // schedules. The machine must admit only serializable histories,
    // and must actually fire on some of them (write skew is in the
    // space), or it proved nothing.
    let programs = all_two_op_programs();
    let (mut total, mut aborting) = (0u64, 0u64);
    for p1 in &programs {
        for p2 in &programs {
            let (runs, ab, _) = sweep(&[p1.clone(), p2.clone()], true);
            total += runs;
            aborting += ab;
        }
    }
    assert_eq!(total, 256 * 70);
    assert!(aborting > 0, "the SSI machinery never fired across the whole space");
}

#[test]
fn two_txn_exhaustive_exhibits_skew_without_ssi() {
    // Oracle validation: the identical space under plain SI must admit
    // non-serializable histories — otherwise the serializability check
    // is too weak to mean anything.
    let programs = all_two_op_programs();
    let mut unserializable = 0u64;
    for p1 in &programs {
        for p2 in &programs {
            let (_, _, bad) = sweep(&[p1.clone(), p2.clone()], false);
            unserializable += bad;
        }
    }
    assert!(unserializable > 0, "plain SI admitted no write skew — oracle is blind");
}

#[test]
fn three_txn_single_op_exhaustive_is_serializable_under_ssi() {
    // Every triple of 1-op programs, every interleaving: 64 configs ×
    // 1680 schedules. Single-op transactions cannot be pivots
    // themselves, but they create the lingering committed edges the
    // committed-pivot rules exist for.
    let ops = [Read(0), Read(1), Write(0), Write(1)];
    let mut total = 0u64;
    for &a in &ops {
        for &b in &ops {
            for &c in &ops {
                let (runs, _, _) = sweep(&[vec![a], vec![b], vec![c]], true);
                total += runs;
            }
        }
    }
    assert_eq!(total, 64 * 1680);
}

#[test]
fn three_txn_dangerous_structures_are_serializable_under_ssi() {
    // Hand-picked 2-op triples covering the dangerous structures the
    // pairwise sweep cannot reach: a pivot whose in- and out-edges come
    // from two *different* transactions, pivots already committed when
    // the closing edge arrives, and a read-only third observer (the
    // classic read-only snapshot anomaly shape).
    let configs: [[&[Op]; 3]; 5] = [
        [&[Read(0), Write(1)], &[Read(1), Write(0)], &[Read(0), Read(1)]],
        [&[Read(0), Write(1)], &[Read(1), Write(0)], &[Write(0), Write(1)]],
        [&[Read(0), Write(1)], &[Write(0), Read(1)], &[Read(1), Write(0)]],
        [&[Write(0), Read(1)], &[Write(1), Read(0)], &[Read(0), Write(0)]],
        [&[Read(1), Write(1)], &[Read(0), Write(1)], &[Read(1), Write(0)]],
    ];
    let mut aborting = 0u64;
    for config in &configs {
        let programs: Vec<Vec<Op>> = config.iter().map(|p| p.to_vec()).collect();
        let (_, ab, _) = sweep(&programs, true);
        aborting += ab;
    }
    assert!(aborting > 0, "no dangerous structure fired in the 3-txn configs");
}

#[test]
fn three_txn_dangerous_structures_exhibit_anomalies_without_ssi() {
    // The same triples under plain SI must show non-serializable
    // admissions — proving the configs actually contain dangerous
    // structures rather than trivially serializable traffic.
    let configs: [[&[Op]; 3]; 2] = [
        [&[Read(0), Write(1)], &[Read(1), Write(0)], &[Read(0), Read(1)]],
        [&[Read(0), Write(1)], &[Read(1), Write(0)], &[Write(0), Write(1)]],
    ];
    let mut unserializable = 0u64;
    for config in &configs {
        let programs: Vec<Vec<Op>> = config.iter().map(|p| p.to_vec()).collect();
        let (_, _, bad) = sweep(&programs, false);
        unserializable += bad;
    }
    assert!(unserializable > 0, "3-txn configs show no anomaly under plain SI");
}

#[test]
fn model_write_skew_schedule_aborts_exactly_one_victim() {
    // The canonical interleaving, pinned: both read both keys, each
    // writes one. Under SSI the second write closes the cycle and dies;
    // under SI both commit and the admitted history is not
    // serializable.
    let programs = vec![vec![Read(0), Read(1), Write(0)], vec![Read(0), Read(1), Write(1)]];
    let schedule = [0, 1, 0, 0, 1, 1, 0, 1, 0, 1]; // begins, reads, writes, commits
    let ssi_world = replay(&programs, &schedule, true);
    assert_eq!(ssi_world.ssi_aborts, 1, "exactly one pivot victim");
    assert!(admitted_serializable(&ssi_world));
    let committed =
        ssi_world.txns.iter().flatten().filter(|t| t.status == Status::Committed).count();
    assert_eq!(committed, 1, "the survivor commits");

    let si_world = replay(&programs, &schedule, false);
    assert_eq!(si_world.ssi_aborts, 0);
    assert!(!admitted_serializable(&si_world), "plain SI admits the skew");
}
