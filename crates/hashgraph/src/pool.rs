//! Table memory pooling for the fused pipeline.
//!
//! Step 2 allocates (and zeroes) one [`ConcurrentDbgTable`] per partition
//! — ~70 bytes per slot — and throws it away after the snapshot. Across
//! hundreds of partitions (plus the occasional capacity-retry rebuild)
//! that alloc+zero churn is pure overhead: the table shapes repeat,
//! because partition sizes cluster. [`TablePool`] recycles the backing
//! allocations: tables are checked out by **capacity class** (the
//! requested capacity rounded up to the next power of two, so nearby
//! sizes share a shelf), wiped with [`ConcurrentDbgTable::reset`] (one
//! pass over the state words that clears only the counter lines of
//! claimed slots, no allocation) and returned to their shelf on drop.
//!
//! The pool is shared across device driver threads — checkout and return
//! take one short mutex each, trivially amortised against the work of
//! building a partition's subgraph.

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::ConcurrentDbgTable;

/// A pool of [`ConcurrentDbgTable`] backing allocations, shelved by
/// capacity class. See the [module docs](self).
///
/// # Examples
///
/// ```
/// use hashgraph::{TablePool, VertexTable};
///
/// let pool = TablePool::new(5);
/// {
///     let table = pool.checkout(1000);
///     assert!(table.capacity() >= 1000);
/// } // drop returns the table to the pool …
/// let again = pool.checkout(900); // … and the same class is reused
/// assert_eq!(pool.allocations(), 1);
/// assert_eq!(pool.reuses(), 1);
/// # drop(again);
/// ```
#[derive(Debug)]
pub struct TablePool {
    k: usize,
    shelves: Mutex<HashMap<usize, Vec<ConcurrentDbgTable>>>,
    allocations: AtomicU64,
    reuses: AtomicU64,
}

impl TablePool {
    /// An empty pool for `k`-mer tables.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or exceeds [`dna::MAX_K`] (checked on first
    /// checkout, by [`ConcurrentDbgTable::new`]).
    pub fn new(k: usize) -> TablePool {
        TablePool {
            k,
            shelves: Mutex::new(HashMap::new()),
            allocations: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
        }
    }

    /// The shelf a requested capacity maps to: at least the table's
    /// 16-slot minimum, rounded up to the next power of two so partitions
    /// of similar size recycle the same allocation.
    pub fn capacity_class(capacity: usize) -> usize {
        capacity.max(16).next_power_of_two()
    }

    /// Checks out a table with room for at least `capacity` distinct
    /// vertices: a reset shelf table when one exists, a fresh allocation
    /// otherwise. The table returns to its shelf when the guard drops.
    pub fn checkout(&self, capacity: usize) -> PooledTable<'_> {
        let class = Self::capacity_class(capacity);
        let shelved = self.shelves.lock().get_mut(&class).and_then(Vec::pop);
        let table = match shelved {
            Some(mut t) => {
                t.reset();
                self.reuses.fetch_add(1, Ordering::Relaxed);
                t
            }
            None => {
                self.allocations.fetch_add(1, Ordering::Relaxed);
                ConcurrentDbgTable::new(class, self.k)
            }
        };
        PooledTable { pool: self, table: Some(table) }
    }

    /// Fresh table allocations performed so far.
    pub fn allocations(&self) -> u64 {
        self.allocations.load(Ordering::Relaxed)
    }

    /// Checkouts satisfied from a shelf (no allocation).
    pub fn reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }

    /// Approximate bytes currently shelved (idle tables awaiting reuse).
    pub fn shelved_bytes(&self) -> usize {
        self.shelves
            .lock()
            .values()
            .flat_map(|shelf| shelf.iter())
            .map(ConcurrentDbgTable::approx_bytes)
            .sum()
    }

    fn put_back(&self, table: ConcurrentDbgTable) {
        self.shelves.lock().entry(table.capacity()).or_default().push(table);
    }
}

/// A checked-out table; dereferences to [`ConcurrentDbgTable`] and
/// returns the allocation to its pool shelf on drop.
#[derive(Debug)]
pub struct PooledTable<'a> {
    pool: &'a TablePool,
    table: Option<ConcurrentDbgTable>,
}

impl Deref for PooledTable<'_> {
    type Target = ConcurrentDbgTable;

    fn deref(&self) -> &ConcurrentDbgTable {
        self.table.as_ref().expect("table present until drop")
    }
}

impl DerefMut for PooledTable<'_> {
    fn deref_mut(&mut self) -> &mut ConcurrentDbgTable {
        self.table.as_mut().expect("table present until drop")
    }
}

impl Drop for PooledTable<'_> {
    fn drop(&mut self) {
        if let Some(table) = self.table.take() {
            self.pool.put_back(table);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VertexTable;
    use dna::{Kmer, PackedSeq};

    #[test]
    fn checkout_allocates_then_reuses() {
        let pool = TablePool::new(7);
        let a = pool.checkout(100);
        assert_eq!(a.capacity(), 128);
        drop(a);
        let b = pool.checkout(70); // same class (128)
        assert_eq!(b.capacity(), 128);
        drop(b);
        assert_eq!(pool.allocations(), 1);
        assert_eq!(pool.reuses(), 1);
        assert!(pool.shelved_bytes() > 0);
    }

    #[test]
    fn distinct_classes_get_distinct_tables() {
        let pool = TablePool::new(7);
        let small = pool.checkout(10);
        let big = pool.checkout(5000);
        assert_eq!(small.capacity(), 16);
        assert_eq!(big.capacity(), 8192);
        drop(small);
        drop(big);
        assert_eq!(pool.allocations(), 2);
        // Each class reuses its own shelf.
        let small2 = pool.checkout(16);
        let big2 = pool.checkout(4097);
        assert_eq!(small2.capacity(), 16);
        assert_eq!(big2.capacity(), 8192);
        assert_eq!(pool.allocations(), 2);
        assert_eq!(pool.reuses(), 2);
    }

    #[test]
    fn reused_table_is_indistinguishable_from_fresh() {
        let pool = TablePool::new(6);
        let seq = PackedSeq::from_ascii(b"ACGTTGCATGGACCAGTTACGGATCAGGCATTAG");
        {
            let dirty = pool.checkout(64);
            for kmer in seq.kmers(6) {
                dirty.record(&kmer.canonical().0, [Some(1), Some(6)]).unwrap();
            }
            assert!(dirty.distinct() > 0);
        }
        let fresh = ConcurrentDbgTable::new(64, 6);
        let reused = pool.checkout(64);
        assert_eq!(pool.reuses(), 1);
        assert_eq!(reused.distinct(), 0);
        let other = PackedSeq::from_ascii(b"TTGACCAGTACGGATCACCGTATGCAATGCCGG");
        for kmer in other.kmers(6) {
            fresh.record(&kmer.canonical().0, [Some(2), None]).unwrap();
            reused.record(&kmer.canonical().0, [Some(2), None]).unwrap();
        }
        let sort = |mut v: Vec<(Kmer, crate::VertexData)>| {
            v.sort_by_key(|x| x.0);
            v
        };
        assert_eq!(
            sort(fresh.snapshot().into_entries()),
            sort(reused.snapshot().into_entries())
        );
    }

    #[test]
    fn concurrent_checkouts_are_independent() {
        let pool = TablePool::new(5);
        std::thread::scope(|s| {
            for t in 0..4 {
                let pool = &pool;
                s.spawn(move || {
                    for _ in 0..20 {
                        let table = pool.checkout(256);
                        let kmer: Kmer = "ACGTA".parse().unwrap();
                        table.record(&kmer.canonical().0, [Some(t as u8), None]).unwrap();
                        assert_eq!(table.distinct(), 1);
                    }
                });
            }
        });
        // Never more live tables than threads.
        assert!(pool.allocations() <= 4, "allocations {}", pool.allocations());
        assert_eq!(pool.allocations() + pool.reuses(), 80);
    }

    /// Eight threads hammer one capacity class. Each checkout writes a
    /// thread-unique k-mer set and then audits the table: any extra entry
    /// would mean the pool handed the same table to two threads at once,
    /// and any *stale* entry (or a count/edge surviving from a previous
    /// tenant) would mean [`ConcurrentDbgTable::reset`] missed state.
    #[test]
    fn stress_no_table_is_handed_out_twice_and_reset_is_complete() {
        const THREADS: usize = 8;
        const ROUNDS: usize = 50;
        let pool = TablePool::new(9);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let pool = &pool;
                s.spawn(move || {
                    // A thread-unique 9-mer alphabet: the base pattern is
                    // salted with the thread id so overlapping tenancy
                    // becomes visible as foreign entries.
                    let salt = b"ACGT"[t % 4];
                    let seq: Vec<u8> = (0..40)
                        .map(|i| if i % 5 == t % 5 { salt } else { b"ACGT"[(i * 7 + t) % 4] })
                        .collect();
                    let packed = PackedSeq::from_ascii(&seq);
                    let own: Vec<Kmer> =
                        packed.kmers(9).map(|kmer| kmer.canonical().0).collect();
                    for round in 0..ROUNDS {
                        let table = pool.checkout(512);
                        // Reset must leave no counts and no edges behind.
                        assert_eq!(
                            table.distinct(),
                            0,
                            "thread {t} round {round}: stale entries survived reset"
                        );
                        let exts = [Some((t % 4) as u8), Some(((t + round) % 4) as u8)];
                        for kmer in &own {
                            table.record(kmer, exts).unwrap();
                        }
                        std::thread::yield_now();
                        // Audit: exactly our own writes, nothing foreign.
                        let mut got: Vec<Kmer> =
                            table.snapshot().into_entries().into_iter().map(|e| e.0).collect();
                        got.sort_unstable();
                        got.dedup();
                        let mut want = own.clone();
                        want.sort_unstable();
                        want.dedup();
                        assert_eq!(
                            got, want,
                            "thread {t} round {round}: table shared with another tenant"
                        );
                    }
                });
            }
        });
        // Every round either allocated or reused; the shelf never hands
        // out more tables than there are concurrent tenants.
        assert_eq!(pool.allocations() + pool.reuses(), (THREADS * ROUNDS) as u64);
        assert!(
            pool.allocations() <= THREADS as u64,
            "more live tables than threads: {}",
            pool.allocations()
        );
    }

    /// A reused table reports zeroed per-vertex data, not just an empty
    /// index: re-record one k-mer after heavy prior use and demand the
    /// fresh-table vertex payload (counts and edge sets) byte-for-byte.
    #[test]
    fn reset_zeroes_counts_and_edges() {
        let pool = TablePool::new(7);
        let seq = PackedSeq::from_ascii(b"ACGTACGTTGCAGGCATCAGGCATTAGACCA");
        {
            let dirty = pool.checkout(128);
            // Saturate counts and set many edge bits.
            for _ in 0..300 {
                for kmer in seq.kmers(7) {
                    dirty.record(&kmer.canonical().0, [Some(0), Some(3)]).unwrap();
                }
            }
        }
        let reused = pool.checkout(128);
        assert_eq!(pool.reuses(), 1);
        let kmer: Kmer = "ACGTACG".parse().unwrap();
        reused.record(&kmer.canonical().0, [None, Some(2)]).unwrap();
        let fresh = ConcurrentDbgTable::new(128, 7);
        fresh.record(&kmer.canonical().0, [None, Some(2)]).unwrap();
        assert_eq!(
            reused.snapshot().into_entries(),
            fresh.snapshot().into_entries(),
            "vertex payload after reuse must match a fresh table exactly"
        );
    }
}
