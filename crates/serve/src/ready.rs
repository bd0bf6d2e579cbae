//! The tenant ready-heap of the dispatch hot path.
//!
//! The linear-scan reference scans every tenant on each event to find
//! the earliest dispatchable batch (O(tenants) per dispatch). The heap
//! here replaces that scan at O(log n) per update, *without changing a
//! single scheduling decision*: it pops exactly the minimum the linear
//! scan would have found, with the identical tie-break (lowest id wins on
//! equal keys — `BinaryHeap` over `Reverse<(key, id, stamp)>` orders ties
//! by id ascending for free). The replicas' free-time heap lives in the
//! replica table (`replica`).
//!
//! Lazy deletion means stale entries stay in the heap until they
//! surface: every peek validates the entry against the current state and
//! silently discards outdated ones. The heap therefore holds at most one
//! *valid* entry per element plus a bounded number of stale ones (each
//! update pushes one entry, so total pushes bound total pops).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Lazy min-heap over `(key, id)` pairs whose validity is versioned by a
/// per-id stamp: bump the stamp whenever an id's key changes (or the id
/// leaves this structure's domain) and push a fresh entry if it still
/// has one. Peeks discard entries whose stamp is no longer current.
///
/// Used for the tenant ready-heap (key = earliest dispatchable instant)
/// and sized by external ids, so shards can migrate tenants between
/// heaps by bumping the stamp on both sides.
#[derive(Debug, Clone, Default)]
pub(crate) struct StampedHeap {
    heap: BinaryHeap<Reverse<(u64, usize, u64)>>,
}

impl StampedHeap {
    pub(crate) fn new() -> Self {
        StampedHeap {
            heap: BinaryHeap::new(),
        }
    }

    /// Insert `(key, id)` valid while `stamp` is the id's current stamp.
    pub(crate) fn push(&mut self, key: u64, id: usize, stamp: u64) {
        self.heap.push(Reverse((key, id, stamp)));
    }

    /// The minimum `(key, id)` whose entry is still current, without
    /// removing it. `current` returns the id's present stamp (stale
    /// entries carry an older stamp and are discarded).
    pub(crate) fn peek_valid(
        &mut self,
        mut current: impl FnMut(usize) -> u64,
    ) -> Option<(u64, usize)> {
        while let Some(&Reverse((k, id, stamp))) = self.heap.peek() {
            if current(id) == stamp {
                return Some((k, id));
            }
            self.heap.pop();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamped_heap_discards_stale_entries() {
        let mut h = StampedHeap::new();
        let mut stamps = [0u64; 3];
        h.push(100, 0, stamps[0]);
        h.push(50, 1, stamps[1]);
        h.push(75, 2, stamps[2]);
        assert_eq!(h.peek_valid(|id| stamps[id]), Some((50, 1)));
        // Id 1's key changes: bump its stamp, push the new entry.
        stamps[1] += 1;
        h.push(120, 1, stamps[1]);
        assert_eq!(h.peek_valid(|id| stamps[id]), Some((75, 2)));
        // Invalidate everything: empty.
        stamps = [9, 9, 9];
        assert_eq!(h.peek_valid(|id| stamps[id]), None);
    }

    #[test]
    fn stamped_heap_ties_break_to_lowest_id() {
        let mut h = StampedHeap::new();
        h.push(10, 2, 0);
        h.push(10, 0, 0);
        h.push(10, 1, 0);
        assert_eq!(h.peek_valid(|_| 0), Some((10, 0)));
    }
}
