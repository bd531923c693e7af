//! External-memory priority queue.
//!
//! TerraFlow's step 3 uses *time-forward processing* [Chiang et al.,
//! SODA'95]: cells processed in elevation order send messages "forward"
//! to cells processed later, buffered in an external priority queue.
//! Inserts go to a bounded in-memory binary min-heap, so `push`,
//! `peek_min_key` and `pop_min` cost `O(log q)` compares while nothing
//! spills. Once the heap holds more than its limit it is drained into
//! one ascending sorted run; `pop_min` takes the least of the heap's top
//! and every run head, and a tie goes to the heap. Spilled items are
//! counted so the emulator can charge I/O for them.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A min-priority queue with bounded memory and sorted-run spills.
#[derive(Debug)]
pub struct ExternalPq<K: Ord + Copy, V: Clone> {
    heap: BinaryHeap<Entry<K, V>>,
    buffer_limit: usize,
    runs: Vec<Run<K, V>>,
    len: usize,
    spilled_items: u64,
}

/// A queued item, ordered by key alone and in reverse, so that std's
/// max-heap keeps the least key on top.
#[derive(Debug)]
struct Entry<K, V>(K, V);

impl<K: Ord, V> PartialEq for Entry<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl<K: Ord, V> Eq for Entry<K, V> {}

impl<K: Ord, V> PartialOrd for Entry<K, V> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord, V> Ord for Entry<K, V> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.cmp(&self.0)
    }
}

#[derive(Debug)]
struct Run<K, V> {
    items: Vec<Entry<K, V>>, // ascending by key
    cursor: usize,
}

impl<K: Ord + Copy, V: Clone> Run<K, V> {
    fn head(&self) -> Option<&Entry<K, V>> {
        self.items.get(self.cursor)
    }
}

impl<K: Ord + Copy, V: Clone> ExternalPq<K, V> {
    /// A queue spilling once more than `buffer_limit` items are buffered.
    pub fn new(buffer_limit: usize) -> Self {
        assert!(buffer_limit > 0, "buffer must hold at least one item");
        ExternalPq {
            heap: BinaryHeap::new(),
            buffer_limit,
            runs: Vec::new(),
            len: 0,
            spilled_items: 0,
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Items spilled to runs over the queue's lifetime (I/O accounting).
    pub fn spilled_items(&self) -> u64 {
        self.spilled_items
    }

    /// Live in-memory footprint in items (buffer only; runs are
    /// conceptually external).
    pub fn in_memory_items(&self) -> usize {
        self.heap.len()
    }

    /// Insert an item.
    pub fn push(&mut self, key: K, value: V) {
        self.heap.push(Entry(key, value));
        self.len += 1;
        if self.heap.len() > self.buffer_limit {
            self.spill();
        }
    }

    fn spill(&mut self) {
        let mut items = std::mem::take(&mut self.heap).into_vec();
        items.sort_unstable_by_key(|e| e.0);
        self.spilled_items += items.len() as u64;
        self.runs.push(Run { items, cursor: 0 });
        // Keep the run count bounded: merge all runs once there are more
        // than a handful (a miniature multiway merge pass).
        if self.runs.len() > 8 {
            self.merge_runs();
        }
    }

    fn merge_runs(&mut self) {
        let runs = std::mem::take(&mut self.runs);
        let mut merged: Vec<Entry<K, V>> =
            Vec::with_capacity(runs.iter().map(|r| r.items.len() - r.cursor).sum());
        for r in runs {
            merged.extend(r.items.into_iter().skip(r.cursor));
        }
        merged.sort_by_key(|e| e.0);
        self.runs.push(Run { items: merged, cursor: 0 });
    }

    /// The minimum key currently queued.
    pub fn peek_min_key(&self) -> Option<K> {
        self.heap
            .peek()
            .into_iter()
            .chain(self.runs.iter().filter_map(Run::head))
            .map(|e| e.0)
            .min()
    }

    /// Remove and return the minimum item.
    pub fn pop_min(&mut self) -> Option<(K, V)> {
        // The run with the least head; the earlier run wins a tie.
        let run = self
            .runs
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.head().map(|e| (e.0, i)))
            .min();
        let from_heap = self
            .heap
            .peek()
            .is_some_and(|top| run.is_none_or(|(k, _)| top.0 <= k));
        let Entry(k, v) = if from_heap {
            self.heap.pop()?
        } else {
            let r = &mut self.runs[run?.1];
            let head = &r.items[r.cursor];
            r.cursor += 1;
            Entry(head.0, head.1.clone())
        };
        self.len -= 1;
        Some((k, v))
    }

    /// Pop every item whose key equals `key`, appending the values to
    /// `out` (in insertion-independent order). Used to collect all
    /// messages addressed to one cell into a buffer the caller reuses.
    pub fn pop_all_eq(&mut self, key: K, out: &mut Vec<V>) {
        while self.peek_min_key() == Some(key) {
            out.push(self.pop_min().expect("peeked").1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmas_sim::DetRng;

    #[test]
    fn pops_in_key_order_across_spills() {
        let mut pq = ExternalPq::new(4);
        let keys = [9u32, 3, 7, 1, 8, 2, 6, 0, 5, 4];
        for &k in &keys {
            pq.push(k, k * 10);
        }
        assert_eq!(pq.len(), 10);
        assert!(pq.spilled_items() > 0, "small buffer must spill");
        let mut got = Vec::new();
        while let Some((k, v)) = pq.pop_min() {
            assert_eq!(v, k * 10);
            got.push(k);
        }
        assert_eq!(got, (0..10).collect::<Vec<u32>>());
        assert!(pq.is_empty());
    }

    #[test]
    fn interleaved_push_pop() {
        let mut pq = ExternalPq::new(2);
        pq.push(5u32, ());
        pq.push(1, ());
        assert_eq!(pq.pop_min().unwrap().0, 1);
        pq.push(3, ());
        pq.push(0, ());
        assert_eq!(pq.pop_min().unwrap().0, 0);
        assert_eq!(pq.pop_min().unwrap().0, 3);
        assert_eq!(pq.pop_min().unwrap().0, 5);
        assert!(pq.pop_min().is_none());
    }

    #[test]
    fn duplicate_keys_all_pop() {
        let mut pq = ExternalPq::new(3);
        for i in 0..7u32 {
            pq.push(42u32, i);
        }
        pq.push(7, 99);
        let below = pq.pop_min().unwrap();
        assert_eq!(below.0, 7);
        let mut all = vec![100];
        pq.pop_all_eq(42, &mut all);
        all.sort_unstable();
        assert_eq!(
            all,
            (0..7).chain([100]).collect::<Vec<u32>>(),
            "appends to `out`"
        );
        assert!(pq.is_empty());
    }

    #[test]
    fn pop_all_eq_on_absent_key_is_empty() {
        let mut pq: ExternalPq<u32, ()> = ExternalPq::new(4);
        pq.push(5, ());
        let mut out = Vec::new();
        pq.pop_all_eq(3, &mut out);
        assert!(out.is_empty());
        assert_eq!(pq.len(), 1);
    }

    #[test]
    fn many_spills_merge_runs() {
        let mut pq = ExternalPq::new(1);
        for k in (0..100u32).rev() {
            pq.push(k, ());
        }
        let got: Vec<u32> = std::iter::from_fn(|| pq.pop_min().map(|(k, _)| k)).collect();
        assert_eq!(got, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn matches_binary_heap_on_random_ops() {
        use std::cmp::Reverse;
        use std::collections::{BTreeSet, BinaryHeap};
        // Spilled items per buffer limit for this fixed op stream. The
        // spill trigger (`len > buffer_limit` after a push) and the
        // buffer-wins-ties rule alone fix these counts, whatever order
        // the buffer keeps its items in.
        let pinned_spills = [(1usize, 2_122u64), (3, 1_960), (8, 1_710), (4096, 0)];
        for (limit, spills) in pinned_spills {
            let mut rng = DetRng::new(77);
            let mut pq = ExternalPq::new(limit);
            let mut oracle: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
            // Every queued (key, value) pair; values are unique ids.
            let mut live = BTreeSet::new();
            let mut drained = Vec::new();
            for id in 0..4_000u32 {
                let r = rng.gen_f64();
                if r < 0.55 || oracle.is_empty() {
                    let k = rng.gen_range(1000);
                    pq.push(k, id);
                    oracle.push(Reverse(k));
                    live.insert((k, id));
                } else if r < 0.75 {
                    let got = pq.pop_min().expect("oracle is not empty");
                    assert_eq!(Some(got.0), oracle.pop().map(|r| r.0));
                    assert!(live.remove(&got), "popped {got:?}, never pushed");
                } else if r < 0.85 {
                    assert_eq!(pq.peek_min_key(), oracle.peek().map(|r| r.0));
                } else {
                    // Drain the least key, or now and then a key that is
                    // probably absent, which must drain nothing.
                    let key = if r < 0.95 {
                        oracle.peek().expect("not empty").0
                    } else {
                        rng.gen_range(1000)
                    };
                    drained.clear();
                    pq.pop_all_eq(key, &mut drained);
                    let mut want = 0;
                    while oracle.peek() == Some(&Reverse(key)) {
                        oracle.pop();
                        want += 1;
                    }
                    assert_eq!(drained.len(), want, "limit {limit}, key {key}");
                    for &v in &drained {
                        assert!(live.remove(&(key, v)), "drained ({key}, {v}), never pushed");
                    }
                }
                assert_eq!(pq.len(), oracle.len());
                assert!(pq.in_memory_items() <= limit);
            }
            assert_eq!(pq.spilled_items(), spills, "buffer limit {limit}");
        }
    }

    thread_local! {
        static COMPARES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// A key that counts every comparison made on it.
    #[derive(Debug, Clone, Copy)]
    struct Counted(u64);

    fn count_compare() {
        COMPARES.with(|c| c.set(c.get() + 1));
    }

    impl PartialEq for Counted {
        fn eq(&self, other: &Self) -> bool {
            count_compare();
            self.0 == other.0
        }
    }

    impl Eq for Counted {}

    impl PartialOrd for Counted {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Counted {
        fn cmp(&self, other: &Self) -> Ordering {
            count_compare();
            self.0.cmp(&other.0)
        }
    }

    #[test]
    fn labeler_pattern_costs_log_compares_per_op() {
        // The watershed labeler's pattern: cell t drains the messages
        // keyed t, then forwards four to later cells. A mean forward
        // distance of ~1,024 cells holds the frontier near 4,096, all in
        // memory. Each push, pop and drain must cost O(log q) compares,
        // not a rescan of the frontier.
        const FRONTIER: u64 = 4096;
        const WARMUP: u64 = FRONTIER / 2;
        let mut rng = DetRng::new(11);
        let mut pq = ExternalPq::new(1 << 16);
        let mut drained = Vec::new();
        let mut ops = 0u64;
        let mut frontier_sum = 0u64;
        for t in 0..WARMUP + 8_192 {
            if t == WARMUP {
                COMPARES.with(|c| c.set(0));
                ops = 0;
            }
            drained.clear();
            pq.pop_all_eq(Counted(t), &mut drained);
            for _ in 0..4 {
                pq.push(Counted(t + 1 + rng.gen_range(FRONTIER / 2)), ());
            }
            ops += 4 + drained.len() as u64;
            if t >= WARMUP {
                frontier_sum += pq.len() as u64;
            }
        }
        let mean_frontier = frontier_sum / 8_192;
        assert!(
            (3_500..4_700).contains(&mean_frontier),
            "frontier {mean_frontier} not near {FRONTIER}"
        );
        let compares = COMPARES.with(|c| c.get());
        let bound = 3 * ops * FRONTIER.ilog2() as u64;
        assert!(
            compares < bound,
            "{compares} compares over {ops} ops exceeds 3·ops·log2({FRONTIER}) = {bound}"
        );
        assert_eq!(pq.spilled_items(), 0);
    }
}
