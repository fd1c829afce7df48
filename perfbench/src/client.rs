//! The client side every workload shares: timed calls into the engine
//! through `MvccEngine`, spans around them in traced runs, sampled
//! probes of single layers, and the checksummed row payload.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use sias_common::{RelId, SiasResult, Vid};
use sias_core::SiasDb;
use sias_txn::{MvccEngine, Txn};
use sias_workload::check::{HistOp, HistOutcome, TxnRecord};
use sias_workload::WriteTag;

use crate::spans::{Span, SpanId, SpanLog};
use crate::stats::Stamped;

/// Row payload length: the 24-byte write tag (key, writer, checksum)
/// followed by filler derived from the tag.
pub const PAYLOAD_LEN: usize = 100;
const TAG_LEN: usize = 24;

pub fn payload(key: u64, tag: WriteTag) -> Vec<u8> {
    let mut out = tag.encode_payload(key);
    debug_assert_eq!(out.len(), TAG_LEN);
    let mut x = key ^ tag.xid.0.rotate_left(21) ^ (u64::from(tag.seq) << 40);
    while out.len() < PAYLOAD_LEN {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (x ^ (x >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        out.extend_from_slice(&z.to_le_bytes()[..(PAYLOAD_LEN - out.len()).min(8)]);
    }
    out
}

/// The write tag of a payload, if its checksum verifies `key` and its
/// filler matches the tag.
pub fn verify(key: u64, bytes: &[u8]) -> Option<WriteTag> {
    if bytes.len() != PAYLOAD_LEN {
        return None;
    }
    let (k, tag) = WriteTag::decode_payload(&bytes[..TAG_LEN])?;
    (k == key && payload(key, tag) == bytes).then_some(tag)
}

/// Inserts keys `0..n` in transactions of 1 000 rows and returns their
/// records, so a history can start from the loaded state.
pub fn load_keys(db: &SiasDb, rel: RelId, n: u64) -> Vec<TxnRecord> {
    let mut records = Vec::new();
    for lo in (0..n).step_by(1000) {
        let txn = db.begin();
        let xid = txn.xid;
        let mut ops = Vec::new();
        for (seq, key) in (lo..(lo + 1000).min(n)).enumerate() {
            let tag = WriteTag { xid, seq: seq as u32 };
            db.insert(&txn, rel, key, &payload(key, tag)).expect("load insert");
            ops.push(HistOp::Write { key, tag });
        }
        db.commit(txn).expect("load commit");
        let outcome =
            HistOutcome::Committed { commit_seq: records.len() as u64, acked_at_record: 0 };
        records.push(TxnRecord { xid, ops, outcome });
    }
    records
}

/// One client's view of a run: the latencies it saw, what it attempted,
/// and (traced runs) its spans.
pub struct Recorder {
    pub log: SpanLog,
    /// Begin → commit return of committed transactions.
    pub txn_ns: Stamped,
    /// `get` calls.
    pub get_ns: Stamped,
    /// `scan_range` calls.
    pub scan_ns: Stamped,
    /// The origin every sample and span is stamped from.
    t0: Instant,
    pub attempts: u64,
    pub commits: u64,
    pub aborts: u64,
    pub engine_ops: u64,
    pub rows_read: u64,
    open_txn: Option<(Instant, SpanId)>,
    /// Probe every n-th read (0 = never).
    probe_every: u64,
    reads: u64,
}

impl Recorder {
    /// A recorder whose spans and samples count from `t0`; in traced runs it also
    /// probes the layers on every `probe_every`-th read.
    pub fn new(trace: bool, t0: Instant, probe_every: u64) -> Self {
        Recorder {
            log: SpanLog::new(trace, t0),
            txn_ns: Stamped::default(),
            get_ns: Stamped::default(),
            scan_ns: Stamped::default(),
            t0,
            attempts: 0,
            commits: 0,
            aborts: 0,
            engine_ops: 0,
            rows_read: 0,
            open_txn: None,
            probe_every: if trace { probe_every } else { 0 },
            reads: 0,
        }
    }

    pub fn begin<E: MvccEngine + ?Sized>(&mut self, db: &E) -> Txn {
        self.attempts += 1;
        let start = Instant::now();
        let txn_span = self.log.enter("client.txn", 0);
        let span = self.log.enter("txn.begin", 0);
        let txn = db.begin();
        self.log.exit(span);
        self.log.set_txn(txn_span, txn.xid.0);
        self.log.set_txn(span, txn.xid.0);
        self.open_txn = Some((start, txn_span));
        txn
    }

    pub fn commit<E: MvccEngine + ?Sized>(&mut self, db: &E, txn: Txn) -> SiasResult<()> {
        let span = self.log.enter("txn.commit", txn.xid.0);
        let res = db.commit(txn);
        self.log.exit(span);
        if let Some((start, txn_span)) = self.open_txn.take() {
            if res.is_ok() {
                self.commits += 1;
                self.txn_ns.push_since(self.t0, start);
            } else {
                self.aborts += 1;
            }
            self.log.exit(txn_span);
        }
        res
    }

    pub fn abort<E: MvccEngine + ?Sized>(&mut self, db: &E, txn: Txn) {
        let span = self.log.enter("txn.abort", txn.xid.0);
        db.abort(txn);
        self.log.exit(span);
        self.aborts += 1;
        if let Some((_, txn_span)) = self.open_txn.take() {
            self.log.exit(txn_span);
        }
    }

    pub fn get<E: MvccEngine + ?Sized>(
        &mut self,
        db: &E,
        txn: &Txn,
        rel: RelId,
        key: u64,
    ) -> SiasResult<Option<Bytes>> {
        self.engine_ops += 1;
        let span = self.log.enter("engine.get", txn.xid.0);
        let start = Instant::now();
        let res = db.get(txn, rel, key);
        self.get_ns.push_since(self.t0, start);
        self.log.exit(span);
        if matches!(res, Ok(Some(_))) {
            self.rows_read += 1;
        }
        res
    }

    pub fn scan<E: MvccEngine + ?Sized>(
        &mut self,
        db: &E,
        txn: &Txn,
        rel: RelId,
        lo: u64,
        hi: u64,
    ) -> SiasResult<Vec<(u64, Bytes)>> {
        self.engine_ops += 1;
        let span = self.log.enter("engine.scan_range", txn.xid.0);
        let start = Instant::now();
        let res = db.scan_range(txn, rel, lo, hi);
        self.scan_ns.push_since(self.t0, start);
        self.log.exit(span);
        if let Ok(rows) = &res {
            self.rows_read += rows.len() as u64;
        }
        res
    }

    /// Times a write call (`update`, `insert`, `delete`) under `name`.
    pub fn write<R>(&mut self, name: &'static str, txn: &Txn, f: impl FnOnce() -> R) -> R {
        self.engine_ops += 1;
        let span = self.log.enter(name, txn.xid.0);
        let res = f();
        self.log.exit(span);
        res
    }

    /// Runs `f` inside a span of its own (traced runs) or untouched.
    pub fn span<R>(&mut self, name: &'static str, txn: u64, f: impl FnOnce() -> R) -> R {
        let span = self.log.enter(name, txn);
        let res = f();
        self.log.exit(span);
        res
    }

    /// In traced runs, every `probe_every`-th call probes each layer under `key`
    /// directly on the live state: the index lookup, the VID-map entry,
    /// the buffer page holding the entrypoint (resident: the read just
    /// touched it), the chain walk at `txn`'s snapshot, and a 1 000-key
    /// index range.
    pub fn maybe_probe(&mut self, db: &SiasDb, txn: &Txn, rel: RelId, key: u64) {
        self.reads += 1;
        if self.probe_every == 0 || !self.reads.is_multiple_of(self.probe_every) {
            return;
        }
        let Ok(r) = db.relation_handle(rel) else { return };
        let xid = txn.xid.0;
        let vids = self.span("probe.index.lookup", xid, || r.index.lookup(key));
        let Some(&vid) = vids.ok().as_ref().and_then(|v| v.first()) else { return };
        let vid = Vid(vid);
        let Some(tid) = self.span("probe.vidmap.get", xid, || r.vidmap.get(vid)) else { return };
        let pool = &db.stack().pool;
        let _ = self.span("probe.buffer.with_page", xid, || {
            pool.with_page(rel, tid.block, |p| black_box(p.live_slots().count()))
        });
        let _ = self.span("probe.chain.read_item", xid, || black_box(db.read_item(txn, rel, vid)));
        let _ = self.span("probe.index.range", xid, || {
            black_box(r.index.range(key, key.saturating_add(999)))
        });
    }
}

/// The recorders of all clients of a run, summed.
#[derive(Default)]
pub struct Merged {
    pub commits: u64,
    pub attempts: u64,
    pub aborts: u64,
    pub engine_ops: u64,
    pub rows_read: u64,
    pub txn: Stamped,
    pub get: Stamped,
    pub scan: Stamped,
    /// One span log per client thread.
    pub spans: Vec<Vec<Span>>,
}

impl Merged {
    pub fn add(&mut self, rec: Recorder) {
        self.commits += rec.commits;
        self.attempts += rec.attempts;
        self.aborts += rec.aborts;
        self.engine_ops += rec.engine_ops;
        self.rows_read += rec.rows_read;
        self.txn.extend(rec.txn_ns);
        self.get.extend(rec.get_ns);
        self.scan.extend(rec.scan_ns);
        self.spans.push(rec.log.into_spans());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sias_common::Xid;

    #[test]
    fn payload_round_trips_and_rejects_other_keys() {
        let tag = WriteTag { xid: Xid(42), seq: 3 };
        let p = payload(7, tag);
        assert_eq!(p.len(), PAYLOAD_LEN);
        assert_eq!(verify(7, &p), Some(tag));
        assert_eq!(verify(8, &p), None);
        let mut bad = p.clone();
        bad[60] ^= 1;
        assert_eq!(verify(7, &bad), None);
    }
}
