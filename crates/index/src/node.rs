//! B+-tree node format.
//!
//! A node occupies one page body (after the common page header):
//!
//! ```text
//! offset  size  field
//! 0       1     kind (1 = leaf, 2 = internal)
//! 2       2     entry count
//! 4       4     right sibling block (leaf only; u32::MAX = none)
//! 8       4     first child block (internal only)
//! 16      ...   entries
//! ```
//!
//! Leaf entries are `(key u64, val u64)` pairs sorted on the composite;
//! internal entries are `(key u64, val u64, child u32)` triples where
//! `child` holds entries `>= (key, val)` and the header's first-child
//! holds entries below the first separator.

use sias_common::{SiasError, SiasResult, PAGE_SIZE};
use sias_storage::page::{Page, PAGE_HEADER_SIZE};

const HEADER: usize = 16;
const BODY: usize = PAGE_SIZE - PAGE_HEADER_SIZE;

/// Maximum leaf entries per node.
pub const LEAF_CAPACITY: usize = (BODY - HEADER) / 16;
/// Maximum internal separators per node.
pub const INTERNAL_CAPACITY: usize = (BODY - HEADER) / 20;

const KIND_LEAF: u8 = 1;
const KIND_INTERNAL: u8 = 2;

/// Leaf or internal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeKind {
    /// Holds `(key, value)` entries.
    Leaf,
    /// Holds separators and child block numbers.
    Internal,
}

/// In-memory image of one node (copied out of / into a page).
#[derive(Clone, Debug)]
pub struct Node {
    /// Leaf or internal.
    pub kind: NodeKind,
    /// Sorted `(key, val)` pairs; for internal nodes these are the
    /// separators.
    pub entries: Vec<(u64, u64)>,
    /// Internal only: `children.len() == entries.len() + 1`.
    pub children: Vec<u32>,
    /// Leaf only: next leaf in key order.
    pub right_sibling: Option<u32>,
}

impl Node {
    /// A leaf with no entries.
    pub fn empty_leaf() -> Node {
        Node {
            kind: NodeKind::Leaf,
            entries: Vec::new(),
            children: Vec::new(),
            right_sibling: None,
        }
    }

    /// A new root above a split: `left` and `right` separated by `sep`.
    pub fn new_root(left: u32, sep: (u64, u64), right: u32) -> Node {
        Node {
            kind: NodeKind::Internal,
            entries: vec![sep],
            children: vec![left, right],
            right_sibling: None,
        }
    }

    /// Deserializes a node from a page.
    pub fn read(page: &Page) -> SiasResult<Node> {
        let b = page.body();
        let kind = match b[0] {
            KIND_LEAF => NodeKind::Leaf,
            KIND_INTERNAL => NodeKind::Internal,
            k => return Err(SiasError::Index(format!("bad node kind byte {k}"))),
        };
        let count = u16::from_le_bytes([b[2], b[3]]) as usize;
        let capacity = match kind {
            NodeKind::Leaf => LEAF_CAPACITY,
            NodeKind::Internal => INTERNAL_CAPACITY,
        };
        if count > capacity {
            return Err(SiasError::Index(format!(
                "{kind:?} node claims {count} entries, capacity is {capacity}"
            )));
        }
        let sib = u32::from_le_bytes(b[4..8].try_into().unwrap());
        let first_child = u32::from_le_bytes(b[8..12].try_into().unwrap());
        let mut entries = Vec::with_capacity(count);
        let mut children = Vec::new();
        match kind {
            NodeKind::Leaf => {
                for i in 0..count {
                    let off = HEADER + i * 16;
                    let k = u64::from_le_bytes(b[off..off + 8].try_into().unwrap());
                    let v = u64::from_le_bytes(b[off + 8..off + 16].try_into().unwrap());
                    entries.push((k, v));
                }
            }
            NodeKind::Internal => {
                children.push(first_child);
                for i in 0..count {
                    let off = HEADER + i * 20;
                    let k = u64::from_le_bytes(b[off..off + 8].try_into().unwrap());
                    let v = u64::from_le_bytes(b[off + 8..off + 16].try_into().unwrap());
                    let c = u32::from_le_bytes(b[off + 16..off + 20].try_into().unwrap());
                    entries.push((k, v));
                    children.push(c);
                }
            }
        }
        Ok(Node {
            kind,
            entries,
            children,
            right_sibling: if sib == u32::MAX { None } else { Some(sib) },
        })
    }

    /// Serializes the node into a page body.
    pub fn write(&self, page: &mut Page) {
        let b = page.body_mut();
        b[..HEADER].fill(0);
        b[0] = match self.kind {
            NodeKind::Leaf => KIND_LEAF,
            NodeKind::Internal => KIND_INTERNAL,
        };
        b[2..4].copy_from_slice(&(self.entries.len() as u16).to_le_bytes());
        b[4..8].copy_from_slice(&self.right_sibling.unwrap_or(u32::MAX).to_le_bytes());
        match self.kind {
            NodeKind::Leaf => {
                debug_assert!(self.entries.len() <= LEAF_CAPACITY);
                for (i, &(k, v)) in self.entries.iter().enumerate() {
                    let off = HEADER + i * 16;
                    b[off..off + 8].copy_from_slice(&k.to_le_bytes());
                    b[off + 8..off + 16].copy_from_slice(&v.to_le_bytes());
                }
            }
            NodeKind::Internal => {
                debug_assert!(self.entries.len() <= INTERNAL_CAPACITY);
                debug_assert_eq!(self.children.len(), self.entries.len() + 1);
                b[8..12].copy_from_slice(&self.children[0].to_le_bytes());
                for (i, &(k, v)) in self.entries.iter().enumerate() {
                    let off = HEADER + i * 20;
                    b[off..off + 8].copy_from_slice(&k.to_le_bytes());
                    b[off + 8..off + 16].copy_from_slice(&v.to_le_bytes());
                    b[off + 16..off + 20].copy_from_slice(&self.children[i + 1].to_le_bytes());
                }
            }
        }
    }

    /// Inserts `(key, val)` into a leaf in sorted position; returns
    /// `false` when the exact pair already exists.
    pub fn leaf_insert(&mut self, key: u64, val: u64) -> bool {
        debug_assert_eq!(self.kind, NodeKind::Leaf);
        match self.entries.binary_search(&(key, val)) {
            Ok(_) => false,
            Err(pos) => {
                self.entries.insert(pos, (key, val));
                true
            }
        }
    }

    /// Removes the exact `(key, val)` pair from a leaf.
    pub fn leaf_remove(&mut self, key: u64, val: u64) -> bool {
        debug_assert_eq!(self.kind, NodeKind::Leaf);
        match self.entries.binary_search(&(key, val)) {
            Ok(pos) => {
                self.entries.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Splits a full leaf; `self` keeps the lower half, the returned node
    /// holds the upper half and the separator is its first entry.
    pub fn split_leaf(&mut self) -> ((u64, u64), Node) {
        debug_assert_eq!(self.kind, NodeKind::Leaf);
        let mid = self.entries.len() / 2;
        let right_entries = self.entries.split_off(mid);
        let sep = right_entries[0];
        (
            sep,
            Node {
                kind: NodeKind::Leaf,
                entries: right_entries,
                children: Vec::new(),
                right_sibling: None,
            },
        )
    }

    /// Routes a composite target through an internal node.
    pub fn child_for(&self, key: u64, val: u64) -> u32 {
        debug_assert_eq!(self.kind, NodeKind::Internal);
        let idx = self.entries.partition_point(|&s| s <= (key, val));
        self.children[idx]
    }

    /// Inserts a separator + right child into an internal node.
    pub fn internal_insert(&mut self, sep: (u64, u64), child: u32) {
        debug_assert_eq!(self.kind, NodeKind::Internal);
        let pos = self.entries.partition_point(|&s| s < sep);
        self.entries.insert(pos, sep);
        self.children.insert(pos + 1, child);
    }

    /// Splits a full internal node; the middle separator moves up.
    pub fn split_internal(&mut self) -> ((u64, u64), Node) {
        debug_assert_eq!(self.kind, NodeKind::Internal);
        let mid = self.entries.len() / 2;
        let sep_up = self.entries[mid];
        let right_entries = self.entries.split_off(mid + 1);
        self.entries.pop(); // drop sep_up from the left node
        let right_children = self.children.split_off(mid + 1);
        (
            sep_up,
            Node {
                kind: NodeKind::Internal,
                entries: right_entries,
                children: right_children,
                right_sibling: None,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn capacities_fit_page() {
        assert!(HEADER + LEAF_CAPACITY * 16 <= BODY);
        assert!(HEADER + INTERNAL_CAPACITY * 20 <= BODY);
        assert!(LEAF_CAPACITY >= 400, "sanity: 8K pages hold hundreds of entries");
    }

    #[test]
    fn leaf_roundtrip() {
        let mut n = Node::empty_leaf();
        for k in 0..50u64 {
            assert!(n.leaf_insert(k * 3, k));
        }
        n.right_sibling = Some(77);
        let mut p = Page::new();
        n.write(&mut p);
        let m = Node::read(&p).unwrap();
        assert_eq!(m.kind, NodeKind::Leaf);
        assert_eq!(m.entries, n.entries);
        assert_eq!(m.right_sibling, Some(77));
    }

    #[test]
    fn internal_roundtrip() {
        let mut n = Node::new_root(1, (10, 0), 2);
        n.internal_insert((20, 5), 3);
        let mut p = Page::new();
        n.write(&mut p);
        let m = Node::read(&p).unwrap();
        assert_eq!(m.kind, NodeKind::Internal);
        assert_eq!(m.entries, vec![(10, 0), (20, 5)]);
        assert_eq!(m.children, vec![1, 2, 3]);
    }

    #[test]
    fn routing_boundaries() {
        let n = Node::new_root(1, (10, 5), 2);
        assert_eq!(n.child_for(9, u64::MAX), 1);
        assert_eq!(n.child_for(10, 4), 1);
        assert_eq!(n.child_for(10, 5), 2, "separator itself routes right");
        assert_eq!(n.child_for(11, 0), 2);
    }

    #[test]
    fn leaf_split_halves() {
        let mut n = Node::empty_leaf();
        for k in 0..10u64 {
            n.leaf_insert(k, 0);
        }
        let (sep, right) = n.split_leaf();
        assert_eq!(n.entries.len(), 5);
        assert_eq!(right.entries.len(), 5);
        assert_eq!(sep, (5, 0));
        assert_eq!(right.entries[0], sep);
    }

    #[test]
    fn internal_split_moves_middle_up() {
        let mut n = Node::new_root(0, (10, 0), 1);
        n.internal_insert((20, 0), 2);
        n.internal_insert((30, 0), 3);
        n.internal_insert((40, 0), 4);
        n.internal_insert((50, 0), 5);
        // entries: 10,20,30,40,50 / children 0..=5
        let (sep, right) = n.split_internal();
        assert_eq!(sep, (30, 0));
        assert_eq!(n.entries, vec![(10, 0), (20, 0)]);
        assert_eq!(n.children, vec![0, 1, 2]);
        assert_eq!(right.entries, vec![(40, 0), (50, 0)]);
        assert_eq!(right.children, vec![3, 4, 5]);
    }

    #[test]
    fn bad_kind_byte_rejected() {
        let p = Page::new();
        assert!(Node::read(&p).is_err());
    }

    #[test]
    fn entry_count_past_capacity_is_an_error_not_a_panic() {
        // A device image whose count field exceeds what fits in the page
        // body (the pool skips the CRC check of pages stored with CRC 0).
        for (kind, capacity) in [(KIND_LEAF, LEAF_CAPACITY), (KIND_INTERNAL, INTERNAL_CAPACITY)] {
            for count in [capacity + 1, u16::MAX as usize] {
                let mut p = Page::new();
                let b = p.body_mut();
                b[0] = kind;
                b[2..4].copy_from_slice(&(count as u16).to_le_bytes());
                assert!(
                    matches!(Node::read(&p), Err(SiasError::Index(_))),
                    "kind {kind} count {count}"
                );
            }
            // Exactly full still decodes.
            let mut p = Page::new();
            let b = p.body_mut();
            b[0] = kind;
            b[2..4].copy_from_slice(&(capacity as u16).to_le_bytes());
            assert_eq!(Node::read(&p).unwrap().entries.len(), capacity);
        }
    }
}
