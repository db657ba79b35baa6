use dna::{Kmer, PackedSeq};

use crate::minimizer::{minimizer_of_kmer, minimizer_word_u64};
use crate::{MspError, Result, Superkmer, SuperkmerScanner};

/// Routes superkmers to partitions by minimizer hash.
///
/// The superkmer ID (the paper's term) is
/// `hash64(minimizer) mod num_partitions`; every duplicate of a vertex
/// shares its minimizer and therefore its partition.
///
/// # Examples
///
/// ```
/// use msp::PartitionRouter;
///
/// # fn main() -> msp::Result<()> {
/// let router = PartitionRouter::new(32)?;
/// let m: dna::Kmer = "ACGTT".parse().unwrap();
/// assert!(router.route_minimizer(&m) < 32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionRouter {
    num_partitions: usize,
}

impl PartitionRouter {
    /// Creates a router over `num_partitions` partitions.
    ///
    /// # Errors
    ///
    /// Returns [`MspError::NoPartitions`] if `num_partitions == 0`.
    pub fn new(num_partitions: usize) -> Result<PartitionRouter> {
        if num_partitions == 0 {
            return Err(MspError::NoPartitions);
        }
        Ok(PartitionRouter { num_partitions })
    }

    /// The number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    /// Partition index for a minimizer.
    #[inline]
    pub fn route_minimizer(&self, minimizer: &Kmer) -> usize {
        (minimizer.hash64() % self.num_partitions as u64) as usize
    }

    /// Partition index for one k-mer: the partition Step 1 sends every
    /// superkmer holding it to, i.e.
    /// `route_minimizer(&minimizer_of_kmer(kmer, p))`. For `p ≤ 32` the
    /// minimizer is rolled in one `u64` straight from the k-mer's packed
    /// words and hashed from that word, with no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `p` is 0 or exceeds the k-mer length.
    #[inline]
    pub fn route_kmer(&self, kmer: &Kmer, p: usize) -> usize {
        if (1..=32).contains(&p) && p <= kmer.k() {
            let words = [minimizer_word_u64(kmer.words(), kmer.k(), p), 0, 0, 0];
            (Kmer::hash64_of_words(&words, p) % self.num_partitions as u64) as usize
        } else {
            self.route_minimizer(&minimizer_of_kmer(kmer, p))
        }
    }

    /// Partition index for a superkmer (routes by its minimizer).
    #[inline]
    pub fn route(&self, sk: &Superkmer) -> usize {
        self.route_minimizer(sk.minimizer())
    }
}

/// Convenience for tests and baselines: scans every read and groups the
/// superkmers into in-memory partitions (what Step 1 does, minus the disk
/// files and the pipeline).
///
/// # Errors
///
/// Returns [`MspError::InvalidParams`] / [`MspError::NoPartitions`] for bad
/// parameters.
///
/// # Examples
///
/// ```
/// use dna::PackedSeq;
///
/// # fn main() -> msp::Result<()> {
/// let reads = vec![PackedSeq::from_ascii(b"TGATGGATGAACCAGT")];
/// let parts = msp::partition_in_memory(&reads, 5, 3, 8)?;
/// assert_eq!(parts.len(), 8);
/// let total: usize = parts.iter().flatten().map(|s| s.kmer_count()).sum();
/// assert_eq!(total, 16 - 5 + 1);
/// # Ok(())
/// # }
/// ```
pub fn partition_in_memory(
    reads: &[PackedSeq],
    k: usize,
    p: usize,
    num_partitions: usize,
) -> Result<Vec<Vec<Superkmer>>> {
    let scanner = SuperkmerScanner::new(k, p)?;
    let router = PartitionRouter::new(num_partitions)?;
    let mut parts = vec![Vec::new(); num_partitions];
    for read in reads {
        for sk in scanner.scan(read) {
            let idx = router.route(&sk);
            parts[idx].push(sk);
        }
    }
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_partitions_rejected() {
        assert!(matches!(PartitionRouter::new(0), Err(MspError::NoPartitions)));
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let router = PartitionRouter::new(7).unwrap();
        let m: Kmer = "GATTA".parse().unwrap();
        let first = router.route_minimizer(&m);
        assert!(first < 7);
        for _ in 0..10 {
            assert_eq!(router.route_minimizer(&m), first);
        }
    }

    #[test]
    fn one_partition_takes_everything() {
        let router = PartitionRouter::new(1).unwrap();
        for s in ["A", "ACGTT", "TTTTT"] {
            assert_eq!(router.route_minimizer(&s.parse().unwrap()), 0);
        }
    }

    #[test]
    fn duplicate_vertices_land_in_same_partition() {
        // A kmer seen forward in one read and reverse-complemented in
        // another must route identically (canonical minimizers).
        let fwd = PackedSeq::from_ascii(b"TGATGGATGA");
        let rev = fwd.revcomp();
        let k = 5;
        let p = 3;
        let n = 16;
        let parts_f = partition_in_memory(std::slice::from_ref(&fwd), k, p, n).unwrap();
        let parts_r = partition_in_memory(&[rev], k, p, n).unwrap();
        let locate = |parts: &Vec<Vec<Superkmer>>, canon: &Kmer| -> Vec<usize> {
            let mut found = Vec::new();
            for (i, part) in parts.iter().enumerate() {
                for sk in part {
                    for km in sk.kmers() {
                        if &km.canonical().0 == canon {
                            found.push(i);
                        }
                    }
                }
            }
            found
        };
        for km in fwd.kmers(k) {
            let canon = km.canonical().0;
            let in_f = locate(&parts_f, &canon);
            let in_r = locate(&parts_r, &canon);
            assert!(!in_f.is_empty() && !in_r.is_empty());
            let all: std::collections::HashSet<usize> =
                in_f.into_iter().chain(in_r).collect();
            assert_eq!(all.len(), 1, "vertex {canon} split across partitions {all:?}");
        }
    }

    #[test]
    fn partition_in_memory_covers_all_kmers() {
        let reads: Vec<PackedSeq> = ["ACGTTGCATGGACCAGTT", "GGCATTAGCCAGTACGGA"]
            .iter()
            .map(|s| PackedSeq::from_ascii(s.as_bytes()))
            .collect();
        let parts = partition_in_memory(&reads, 7, 4, 5).unwrap();
        let total: usize = parts.iter().flatten().map(Superkmer::kmer_count).sum();
        let expected: usize = reads.iter().map(|r| r.len() - 7 + 1).sum();
        assert_eq!(total, expected);
    }

    #[test]
    fn hash_spreads_minimizers() {
        // With enough distinct minimizers, more than one partition is hit.
        let reads = vec![PackedSeq::from_ascii(
            b"ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGTACGGATCACCGTATGCAATGCCGGA",
        )];
        let parts = partition_in_memory(&reads, 9, 3, 8).unwrap();
        let nonempty = parts.iter().filter(|p| !p.is_empty()).count();
        assert!(nonempty > 1, "expected spread, got {nonempty} non-empty partitions");
    }
}
