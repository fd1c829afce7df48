//! Page-backed B+-tree.
//!
//! §4.3 of the paper: "When assuming a B⁺ tree index on a relation R, the
//! index records are traditionally comprised of a ⟨key, TID⟩ pair. Since
//! SIAS-Chains identifies all versions of a data item by using a VID, the
//! index record is comprised of a ⟨key, VID⟩ pair."
//!
//! This crate provides that B+-tree, generic over what the 64-bit value
//! means:
//!
//! * the **SIAS** engine stores one `⟨key, VID⟩` record per *data item* —
//!   updates that do not change the key never touch the index;
//! * the **SI baseline** stores one `⟨key, packed TID⟩` record per *tuple
//!   version* — every update inserts a new index record, which is part of
//!   SI's write overhead the paper measures.
//!
//! The tree lives in buffer-pool pages of its own relation, so index I/O
//! shows up in the device statistics and block traces like any other
//! page access. Duplicate keys are supported by ordering entries on the
//! composite `(key, value)` pair. Deletion is lazy (no page merging),
//! like PostgreSQL's nbtree.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod node;

use std::sync::Arc;

use parking_lot::RwLock;
use sias_common::{BlockId, RelId, SiasError, SiasResult};
use sias_storage::BufferPool;

use node::{Node, NodeKind, INTERNAL_CAPACITY, LEAF_CAPACITY};

/// A concurrent, page-backed B+-tree mapping `u64` keys to `u64` values,
/// with duplicate keys allowed (entries are unique on `(key, value)`).
pub struct BPlusTree {
    pool: Arc<BufferPool>,
    rel: RelId,
    state: RwLock<TreeState>,
}

struct TreeState {
    root: BlockId,
    height: u32,
    len: u64,
}

impl BPlusTree {
    /// Creates a new tree in (empty) relation `rel` of `pool`.
    pub fn create(pool: Arc<BufferPool>, rel: RelId) -> SiasResult<Self> {
        pool.space().create_relation(rel);
        let root = pool.allocate_block(rel)?;
        pool.with_page_mut(rel, root, |p| Node::empty_leaf().write(p))?;
        Ok(BPlusTree { pool, rel, state: RwLock::new(TreeState { root, height: 1, len: 0 }) })
    }

    /// The relation holding the index pages.
    pub fn relation(&self) -> RelId {
        self.rel
    }

    /// Number of live entries.
    pub fn len(&self) -> u64 {
        self.state.read().len
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Height of the tree (1 = root is a leaf).
    pub fn height(&self) -> u32 {
        self.state.read().height
    }

    fn read_node(&self, block: BlockId) -> SiasResult<Node> {
        self.pool.with_page(self.rel, block, Node::read)?
    }

    fn write_node(&self, block: BlockId, node: &Node) -> SiasResult<()> {
        self.pool.with_page_mut(self.rel, block, |p| node.write(p))
    }

    /// Descends to the leaf that would contain `(key, val)`, recording
    /// the path of internal blocks visited.
    fn descend(&self, root: BlockId, key: u64, val: u64) -> SiasResult<(BlockId, Vec<BlockId>)> {
        let mut path = Vec::new();
        let mut block = root;
        loop {
            let node = self.read_node(block)?;
            match node.kind {
                NodeKind::Leaf => return Ok((block, path)),
                NodeKind::Internal => {
                    path.push(block);
                    block = node.child_for(key, val);
                }
            }
        }
    }

    /// Inserts `(key, val)`. Duplicate `(key, val)` pairs are rejected
    /// with an error (they would be ambiguous to remove).
    pub fn insert(&self, key: u64, val: u64) -> SiasResult<()> {
        let mut state = self.state.write();
        let (leaf_block, path) = self.descend(state.root, key, val)?;
        let mut leaf = self.read_node(leaf_block)?;
        if !leaf.leaf_insert(key, val) {
            return Err(SiasError::Index(format!("duplicate entry ({key}, {val})")));
        }
        state.len += 1;
        if leaf.entries.len() <= LEAF_CAPACITY {
            return self.write_node(leaf_block, &leaf);
        }
        // Leaf overflow: split and propagate.
        let (sep, right) = leaf.split_leaf();
        let right_block = self.pool.allocate_block(self.rel)?;
        let mut right = right;
        right.right_sibling = leaf.right_sibling;
        leaf.right_sibling = Some(right_block);
        self.write_node(right_block, &right)?;
        self.write_node(leaf_block, &leaf)?;
        self.propagate_split(&mut state, path, sep, right_block)
    }

    /// Inserts the separator for a freshly split child into the parent
    /// chain, splitting parents as needed and growing the root.
    fn propagate_split(
        &self,
        state: &mut TreeState,
        mut path: Vec<BlockId>,
        mut sep: (u64, u64),
        mut new_child: BlockId,
    ) -> SiasResult<()> {
        loop {
            match path.pop() {
                Some(parent_block) => {
                    let mut parent = self.read_node(parent_block)?;
                    parent.internal_insert(sep, new_child);
                    if parent.entries.len() <= INTERNAL_CAPACITY {
                        return self.write_node(parent_block, &parent);
                    }
                    let (psep, pright) = parent.split_internal();
                    let pright_block = self.pool.allocate_block(self.rel)?;
                    self.write_node(pright_block, &pright)?;
                    self.write_node(parent_block, &parent)?;
                    sep = psep;
                    new_child = pright_block;
                }
                None => {
                    // Root split: grow the tree by one level.
                    let old_root = state.root;
                    let new_root_block = self.pool.allocate_block(self.rel)?;
                    let root = Node::new_root(old_root, sep, new_child);
                    self.write_node(new_root_block, &root)?;
                    state.root = new_root_block;
                    state.height += 1;
                    return Ok(());
                }
            }
        }
    }

    /// Removes the exact `(key, val)` entry. Returns whether it existed.
    /// No rebalancing (lazy deletion).
    pub fn remove(&self, key: u64, val: u64) -> SiasResult<bool> {
        let mut state = self.state.write();
        let (leaf_block, _path) = self.descend(state.root, key, val)?;
        let mut leaf = self.read_node(leaf_block)?;
        let existed = leaf.leaf_remove(key, val);
        if existed {
            state.len -= 1;
            self.write_node(leaf_block, &leaf)?;
        }
        Ok(existed)
    }

    /// Returns every value stored under `key`, ascending.
    pub fn lookup(&self, key: u64) -> SiasResult<Vec<u64>> {
        Ok(self.range(key, key)?.into_iter().map(|(_, v)| v).collect())
    }

    /// Returns the first value under `key` (the common unique-key path).
    pub fn lookup_one(&self, key: u64) -> SiasResult<Option<u64>> {
        let state = self.state.read();
        let (leaf_block, _path) = self.descend(state.root, key, 0)?;
        let mut block = Some(leaf_block);
        while let Some(b) = block {
            let leaf = self.read_node(b)?;
            for &(k, v) in &leaf.entries {
                if k == key {
                    return Ok(Some(v));
                }
                if k > key {
                    return Ok(None);
                }
            }
            block = leaf.right_sibling;
        }
        Ok(None)
    }

    /// Returns all `(key, value)` entries with `lo <= key <= hi`,
    /// ascending.
    pub fn range(&self, lo: u64, hi: u64) -> SiasResult<Vec<(u64, u64)>> {
        if lo > hi {
            return Ok(Vec::new());
        }
        let state = self.state.read();
        let (leaf_block, _path) = self.descend(state.root, lo, 0)?;
        let mut out = Vec::new();
        let mut block = Some(leaf_block);
        while let Some(b) = block {
            let leaf = self.read_node(b)?;
            for &(k, v) in &leaf.entries {
                if k > hi {
                    return Ok(out);
                }
                if k >= lo {
                    out.push((k, v));
                }
            }
            block = leaf.right_sibling;
        }
        Ok(out)
    }

    /// Verifies structural invariants (test/debug aid): sorted leaves,
    /// consistent separators, correct entry count. Returns the number of
    /// entries seen.
    pub fn check_invariants(&self) -> SiasResult<u64> {
        let state = self.state.read();
        let mut count = 0u64;
        let mut prev: Option<(u64, u64)> = None;
        // Walk the leaf chain from the leftmost leaf.
        let (mut leaf_block, _) = self.descend(state.root, 0, 0)?;
        loop {
            let leaf = self.read_node(leaf_block)?;
            if leaf.kind != NodeKind::Leaf {
                return Err(SiasError::Index("descend(0) did not reach a leaf".into()));
            }
            for &(k, v) in &leaf.entries {
                if let Some(p) = prev {
                    if (k, v) <= p {
                        return Err(SiasError::Index(format!(
                            "entries out of order: {p:?} then {:?}",
                            (k, v)
                        )));
                    }
                }
                prev = Some((k, v));
                count += 1;
            }
            match leaf.right_sibling {
                Some(next) => leaf_block = next,
                None => break,
            }
        }
        if count != state.len {
            return Err(SiasError::Index(format!(
                "len mismatch: counted {count}, recorded {}",
                state.len
            )));
        }
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sias_storage::device::{Device, MemDevice};
    use sias_storage::Tablespace;

    fn tree() -> BPlusTree {
        let dev = Arc::new(MemDevice::standalone(1 << 18));
        let space = Arc::new(Tablespace::new(1 << 18));
        let pool = Arc::new(BufferPool::new(256, dev, space));
        BPlusTree::create(pool, RelId(100)).unwrap()
    }

    #[test]
    fn empty_tree() {
        let t = tree();
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert_eq!(t.lookup(5).unwrap(), Vec::<u64>::new());
        assert_eq!(t.lookup_one(5).unwrap(), None);
        assert_eq!(t.range(0, u64::MAX).unwrap(), vec![]);
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_and_lookup_small() {
        let t = tree();
        for k in [5u64, 1, 9, 3, 7] {
            t.insert(k, k * 10).unwrap();
        }
        assert_eq!(t.len(), 5);
        assert_eq!(t.lookup_one(3).unwrap(), Some(30));
        assert_eq!(t.lookup_one(4).unwrap(), None);
        assert_eq!(
            t.range(0, u64::MAX).unwrap(),
            vec![(1, 10), (3, 30), (5, 50), (7, 70), (9, 90)]
        );
        t.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_keys_supported() {
        let t = tree();
        t.insert(7, 1).unwrap();
        t.insert(7, 2).unwrap();
        t.insert(7, 3).unwrap();
        assert_eq!(t.lookup(7).unwrap(), vec![1, 2, 3]);
        // Exact duplicate pair rejected.
        assert!(t.insert(7, 2).is_err());
        t.check_invariants().unwrap();
    }

    #[test]
    fn split_grows_tree() {
        let t = tree();
        let n = (LEAF_CAPACITY * 3) as u64;
        for k in 0..n {
            t.insert(k, k).unwrap();
        }
        assert!(t.height() >= 2, "tree must have split");
        assert_eq!(t.len(), n);
        for k in (0..n).step_by(37) {
            assert_eq!(t.lookup_one(k).unwrap(), Some(k), "key {k}");
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn large_random_insert_remove() {
        use rand::prelude::*;
        let t = tree();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut keys: Vec<u64> = (0..20_000u64).collect();
        keys.shuffle(&mut rng);
        for &k in &keys {
            t.insert(k, k + 1).unwrap();
        }
        assert_eq!(t.check_invariants().unwrap(), 20_000);
        assert!(t.height() >= 2);
        // Remove a random half.
        keys.shuffle(&mut rng);
        for &k in &keys[..10_000] {
            assert!(t.remove(k, k + 1).unwrap(), "key {k}");
        }
        assert_eq!(t.check_invariants().unwrap(), 10_000);
        for &k in &keys[..10_000] {
            assert_eq!(t.lookup_one(k).unwrap(), None);
        }
        for &k in &keys[10_000..] {
            assert_eq!(t.lookup_one(k).unwrap(), Some(k + 1));
        }
    }

    #[test]
    fn range_scans_cross_leaves() {
        let t = tree();
        let n = (LEAF_CAPACITY * 2 + 10) as u64;
        for k in 0..n {
            t.insert(k * 2, k).unwrap(); // even keys only
        }
        let lo = (LEAF_CAPACITY as u64) - 5;
        let hi = (LEAF_CAPACITY as u64) * 2 + 5;
        let got = t.range(lo, hi).unwrap();
        let expect: Vec<(u64, u64)> =
            (0..n).map(|k| (k * 2, k)).filter(|&(k, _)| k >= lo && k <= hi).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn remove_missing_returns_false() {
        let t = tree();
        t.insert(1, 1).unwrap();
        assert!(!t.remove(2, 2).unwrap());
        assert!(!t.remove(1, 99).unwrap(), "value must match too");
        assert!(t.remove(1, 1).unwrap());
        assert!(t.is_empty());
    }

    #[test]
    fn sequential_and_reverse_insertion_orders() {
        for rev in [false, true] {
            let t = tree();
            let n = (LEAF_CAPACITY * 4) as u64;
            let iter: Box<dyn Iterator<Item = u64>> =
                if rev { Box::new((0..n).rev()) } else { Box::new(0..n) };
            for k in iter {
                t.insert(k, k).unwrap();
            }
            assert_eq!(t.check_invariants().unwrap(), n);
            assert_eq!(t.range(0, n).unwrap().len(), n as usize);
        }
    }

    #[test]
    fn index_io_hits_the_device() {
        // The tree lives in buffer pages: with a tiny pool, lookups cause
        // device reads — index I/O is part of the measured workload.
        let dev = Arc::new(MemDevice::standalone(1 << 18));
        let space = Arc::new(Tablespace::new(1 << 18));
        let pool = Arc::new(BufferPool::new(8, Arc::clone(&dev) as _, space));
        let t = BPlusTree::create(pool, RelId(100)).unwrap();
        for k in 0..(LEAF_CAPACITY * 8) as u64 {
            t.insert(k, k).unwrap();
        }
        assert!(dev.stats().host_write_pages > 0, "evictions must persist index pages");
        let before = dev.stats();
        for k in (0..(LEAF_CAPACITY * 8) as u64).step_by(101) {
            t.lookup_one(k).unwrap();
        }
        let reads = (dev.stats() - before).host_read_pages;
        assert!(reads > 0, "cold lookups must read index pages");
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let t = Arc::new(tree());
        for k in 0..2000u64 {
            t.insert(k, k).unwrap();
        }
        let mut handles = vec![];
        for _ in 0..4 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for k in (0..2000u64).step_by(7) {
                    assert_eq!(t.lookup_one(k).unwrap(), Some(k));
                }
            }));
        }
        let tw = Arc::clone(&t);
        handles.push(std::thread::spawn(move || {
            for k in 2000..3000u64 {
                tw.insert(k, k).unwrap();
            }
        }));
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.check_invariants().unwrap(), 3000);
    }
}
