//! Property test for the sharded buffer-pool page table.
//!
//! The shard invariant is structural: a key's shard is a pure hash of
//! the key, every frame belongs to exactly one shard's contiguous
//! range, and eviction/revert only ever touches the victim's own shard
//! table. `BufferPool::debug_validate` asserts all of it (mapping →
//! own-shard frame range, frame/table key agreement, no double-mapped
//! frame, no leaked pins). This test drives randomized concurrent
//! pin/mutate/flush/discard traffic through a deliberately tiny pool —
//! constant eviction pressure — and validates after every case, so a
//! racy eviction or a revert into the wrong shard table shows up as a
//! structural violation rather than a flaky read.

use proptest::prelude::*;
use sias_common::RelId;
use sias_storage::{Media, StorageConfig, StorageStack};

/// One scripted step of a worker thread.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Read block `b`, verifying its stamp.
    Read(u8),
    /// Mutate block `b` (write a fresh stamp).
    Write(u8),
    /// Flush block `b` (no-sync).
    Flush(u8),
}

fn step_strategy(blocks: u8) -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..blocks).prop_map(Step::Read),
        (0..blocks).prop_map(Step::Write),
        (0..blocks).prop_map(Step::Flush),
    ]
}

fn stamp(rel: u32, block: u8, round: u8) -> [u8; 4] {
    [rel as u8, block, round, 0x5A]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Concurrent workers hammer a 8-frame / 4-shard pool over 24
    /// blocks (3× overcommit): every fetch can evict, many evictions
    /// race on the same shard, and reverts exercise the failure path's
    /// shard bookkeeping. The structural invariant must hold at the
    /// end, and every page must still carry the stamp of some write
    /// that was actually issued to it.
    #[test]
    fn concurrent_pin_evict_traffic_keeps_shards_consistent(
        scripts in proptest::collection::vec(
            proptest::collection::vec(step_strategy(24), 1..40),
            2..5,
        ),
        nshards in 1usize..5,
    ) {
        let cfg = StorageConfig {
            media: Media::Mem,
            pool_frames: 8,
            pool_shards: nshards,
            capacity_pages: 1 << 12,
            faults: sias_storage::FaultPlan::none(),
            wal: sias_storage::WalConfig::default(),
            trace_capacity: sias_storage::DEFAULT_TRACE_CAPACITY,
            io_queue_depth: 0,
            space: sias_storage::SpaceConfig::default(),
        };
        let stack = StorageStack::new(&cfg);
        let pool = &stack.pool;
        let rel = RelId(7);
        pool.space().create_relation(rel);
        for b in 0..24u8 {
            let block = pool.allocate_block(rel).unwrap();
            pool.with_page_mut(rel, block, |p| {
                p.body_mut()[0..4].copy_from_slice(&stamp(rel.0, b, 0));
            }).unwrap();
        }

        std::thread::scope(|scope| {
            for (ti, script) in scripts.iter().enumerate() {
                let script = script.clone();
                scope.spawn(move || {
                    for (si, step) in script.into_iter().enumerate() {
                        let round = (ti * 131 + si) as u8;
                        match step {
                            Step::Read(b) => {
                                let got: [u8; 4] = pool
                                    .with_page(rel, b as u32, |p| {
                                        p.body()[0..4].try_into().unwrap()
                                    })
                                    .unwrap();
                                // Byte 0 (rel) and byte 3 (magic) are
                                // invariant across all writers; bytes 1-2
                                // depend on who wrote last.
                                assert_eq!(got[0], rel.0 as u8);
                                assert_eq!(got[1], b);
                                assert_eq!(got[3], 0x5A);
                            }
                            Step::Write(b) => {
                                pool.with_page_mut(rel, b as u32, |p| {
                                    p.body_mut()[0..4]
                                        .copy_from_slice(&stamp(rel.0, b, round));
                                })
                                .unwrap();
                            }
                            Step::Flush(b) => {
                                pool.flush_block(rel, b as u32, false).unwrap();
                            }
                        }
                    }
                });
            }
        });

        pool.debug_validate();
        prop_assert_eq!(pool.shard_count(), nshards.clamp(1, 4));

        // Every block survived the eviction storm with an intact stamp.
        pool.flush_all();
        pool.debug_validate();
        for b in 0..24u8 {
            let got: [u8; 4] =
                pool.with_page(rel, b as u32, |p| p.body()[0..4].try_into().unwrap()).unwrap();
            prop_assert_eq!(got[0], rel.0 as u8);
            prop_assert_eq!(got[1], b);
            prop_assert_eq!(got[3], 0x5A);
        }
    }
}
