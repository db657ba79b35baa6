//! Property tests for the MSP invariants the paper's correctness rests on.

use dna::{Base, Kmer, PackedSeq};
use msp::{
    decode_superkmer, encode_superkmer, encode_superkmer_slice, minimizer_of_kmer,
    partition_in_memory, MinimizerScanner, PartitionRouter, SuperkmerScanner,
};
use proptest::prelude::*;

fn base() -> impl Strategy<Value = Base> {
    prop_oneof![Just(Base::A), Just(Base::C), Just(Base::G), Just(Base::T)]
}

fn seq(max: usize) -> impl Strategy<Value = PackedSeq> {
    prop::collection::vec(base(), 0..max).prop_map(|v| v.into_iter().collect())
}

/// Reference implementation of run-cutting: per-kmer minimizers from the
/// brute-force scanner, grouped into maximal equal runs.
fn naive_runs(k: usize, p: usize, read: &PackedSeq) -> Vec<(usize, usize, Kmer)> {
    let mins = MinimizerScanner::new(k, p).unwrap().scan_naive(read);
    let mut out = Vec::new();
    let mut start = 0usize;
    for pos in 1..=mins.len() {
        if pos == mins.len() || mins[pos] != mins[start] {
            out.push((start, pos - 1, mins[start]));
            start = pos;
        }
    }
    out
}

/// Collects the streaming cursor's runs for one read.
fn streamed_runs(scanner: &SuperkmerScanner, read: &PackedSeq) -> Vec<(usize, usize, Kmer)> {
    let mut cursor = scanner.cursor();
    let mut out = Vec::new();
    scanner.scan_runs(read, &mut cursor, |first, last, m| out.push((first, last, m)));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sliding_window_equals_brute_force(read in seq(200), k in 2usize..24, p_frac in 1usize..100) {
        let p = 1 + (p_frac * (k - 1)) / 100;
        let sc = MinimizerScanner::new(k, p).unwrap();
        prop_assert_eq!(sc.scan(&read), sc.scan_naive(&read));
    }

    /// The one-word vertex route equals routing the brute-force
    /// minimizer, for k on both sides of 32, every p from 1 to k (p > 32
    /// takes the brute-force path) and any partition count.
    #[test]
    fn route_kmer_equals_routing_the_brute_force_minimizer(
        read in seq(120),
        k_pick in 0usize..8,
        p_frac in 0usize..=100,
        n in 1usize..300,
    ) {
        let k = [1, 5, 27, 31, 32, 33, 40, 70][k_pick];
        prop_assume!(read.len() >= k);
        let router = PartitionRouter::new(n).unwrap();
        let p = 1 + (p_frac * (k - 1)) / 100;
        for kmer in read.kmers(k) {
            for p in [p, k, k.min(32)] {
                prop_assert_eq!(
                    router.route_kmer(&kmer, p),
                    router.route_minimizer(&minimizer_of_kmer(&kmer, p)),
                    "k={} p={} n={} kmer={}", k, p, n, kmer
                );
            }
        }
    }

    #[test]
    fn minimizer_is_strand_invariant(read in seq(60), p in 1usize..8) {
        for kmer in read.kmers(p.max(6) + 3) {
            prop_assert_eq!(
                minimizer_of_kmer(&kmer, p),
                minimizer_of_kmer(&kmer.revcomp(), p)
            );
        }
    }

    #[test]
    fn superkmers_cover_every_kmer_exactly_once(read in seq(250), k in 2usize..28, p_frac in 1usize..100) {
        let p = 1 + (p_frac * (k - 1)) / 100;
        let sks = SuperkmerScanner::new(k, p).unwrap().scan(&read);
        let covered: usize = sks.iter().map(|s| s.kmer_count()).sum();
        prop_assert_eq!(covered, (read.len() + 1).saturating_sub(k));
        // Reassembling consecutive cores (K−1 overlap) restores the read.
        if !sks.is_empty() {
            let mut rebuilt: Vec<Base> = sks[0].core().bases().collect();
            for s in &sks[1..] {
                rebuilt.extend(s.core().bases().skip(k - 1));
            }
            let original: Vec<Base> = read.bases().collect();
            prop_assert_eq!(rebuilt, original);
        }
    }

    #[test]
    fn every_kmer_in_a_superkmer_shares_the_minimizer(read in seq(120), k in 3usize..16) {
        let p = (k / 2).max(1);
        for sk in SuperkmerScanner::new(k, p).unwrap().scan(&read) {
            for kmer in sk.kmers() {
                prop_assert_eq!(&minimizer_of_kmer(&kmer, p), sk.minimizer());
            }
        }
    }

    #[test]
    fn record_roundtrip(read in seq(200), k in 2usize..20) {
        let p = (k / 2).max(1);
        let sks = SuperkmerScanner::new(k, p).unwrap().scan(&read);
        let mut buf = Vec::new();
        for sk in &sks {
            encode_superkmer(sk, &mut buf);
        }
        let mut offset = 0;
        let mut decoded = Vec::new();
        while offset < buf.len() {
            let (sk, used) = decode_superkmer(&buf[offset..], k, p).unwrap();
            decoded.push(sk);
            offset += used;
        }
        prop_assert_eq!(decoded, sks);
    }

    /// The zero-copy view path (`PartitionSlices` / `SuperkmerView`) must
    /// expose byte-for-byte the same records as the owned decoder, at
    /// every access granularity: per-base, extensions, and full
    /// round-trip back to `Superkmer`.
    #[test]
    fn views_equal_owned_decode(read in seq(220), k in 2usize..24) {
        let p = (k / 2).max(1);
        let sks = SuperkmerScanner::new(k, p).unwrap().scan(&read);
        let mut buf = Vec::new();
        for sk in &sks {
            encode_superkmer(sk, &mut buf);
        }
        let slices = msp::PartitionSlices::index(&buf, k, p).unwrap();
        prop_assert_eq!(slices.len(), sks.len());
        prop_assert_eq!(slices.total_kmers(), sks.iter().map(|s| s.kmer_count()).sum::<usize>());
        for (i, sk) in sks.iter().enumerate() {
            let view = slices.view(i);
            prop_assert_eq!(view.core_len(), sk.core().len());
            prop_assert_eq!(view.left_ext(), sk.left_ext());
            prop_assert_eq!(view.right_ext(), sk.right_ext());
            let view_bases: Vec<dna::Base> = view.bases().collect();
            let core_bases: Vec<dna::Base> = sk.core().bases().collect();
            prop_assert_eq!(view_bases, core_bases);
            prop_assert_eq!(&view.to_superkmer(p), sk);
        }
        // The streaming iterator visits the same records in order.
        let streamed: Vec<_> = msp::iter_views(&buf, k)
            .map(|r| r.unwrap().to_superkmer(p))
            .collect();
        prop_assert_eq!(streamed, sks);
    }

    #[test]
    fn routing_is_reverse_complement_stable(read in seq(150), n in 1usize..12) {
        // Each canonical kmer must land in one partition, whichever strand
        // the read came in on.
        let k = 9;
        let p = 5;
        prop_assume!(read.len() >= k);
        let router = PartitionRouter::new(n).unwrap();
        let scanner = SuperkmerScanner::new(k, p).unwrap();
        let mut home: std::collections::HashMap<dna::Kmer, usize> = Default::default();
        for strand in [read.clone(), read.revcomp()] {
            for sk in scanner.scan(&strand) {
                let part = router.route(&sk);
                for kmer in sk.kmers() {
                    let canon = kmer.canonical().0;
                    if let Some(&prev) = home.get(&canon) {
                        prop_assert_eq!(prev, part, "vertex {} split across partitions", canon);
                    } else {
                        home.insert(canon, part);
                    }
                }
            }
        }
    }

    #[test]
    fn partition_in_memory_is_strand_union_consistent(reads in prop::collection::vec(seq(100), 0..6)) {
        let (k, p, n) = (7, 4, 5);
        let parts = partition_in_memory(&reads, k, p, n).unwrap();
        let total: usize = parts.iter().flatten().map(|s| s.kmer_count()).sum();
        let expected: usize = reads.iter().map(|r| (r.len() + 1).saturating_sub(k)).sum();
        prop_assert_eq!(total, expected);
    }

    /// The streaming cursor (single monotone deque over canonical p-mers)
    /// must cut exactly the runs of the brute-force per-kmer scan — the
    /// invariant the entire zero-allocation Step-1 path rests on.
    #[test]
    fn streaming_runs_equal_naive_runs(read in seq(300), k in 1usize..=64, p_frac in 0usize..=100) {
        let p = 1 + (p_frac * (k - 1)).div_ceil(100).min(k - 1);
        let scanner = SuperkmerScanner::new(k, p).unwrap();
        prop_assert_eq!(streamed_runs(&scanner, &read), naive_runs(k, p, &read));
    }

    /// Same invariant on adversarially low-complexity input: homopolymers
    /// (one global run), short-period repeats, and a planted mutation.
    #[test]
    fn streaming_runs_equal_naive_runs_low_complexity(
        unit in prop::collection::vec(base(), 1..5),
        reps in 1usize..120,
        flip in 0usize..1000,
        k in 1usize..=64,
        p_frac in 0usize..=100,
    ) {
        let mut bases: Vec<Base> = unit.iter().copied().cycle().take(unit.len() * reps).collect();
        if let Some(b) = bases.get_mut(flip % reps.max(1)) {
            *b = b.complement();
        }
        let read: PackedSeq = bases.into_iter().collect();
        let p = 1 + (p_frac * (k - 1)).div_ceil(100).min(k - 1);
        let scanner = SuperkmerScanner::new(k, p).unwrap();
        prop_assert_eq!(streamed_runs(&scanner, &read), naive_runs(k, p, &read));
    }

    /// Direct-from-read slice encoding must be byte-identical to encoding
    /// the owned `Superkmer`, for every run of the read — including the
    /// first/last runs whose left/right extensions are absent.
    #[test]
    fn slice_encoding_equals_owned_encoding(read in seq(260), k in 1usize..=48, p_frac in 0usize..=100) {
        let p = 1 + (p_frac * (k - 1)).div_ceil(100).min(k - 1);
        let scanner = SuperkmerScanner::new(k, p).unwrap();
        let sks = scanner.scan(&read);
        let mut first = 0usize;
        for sk in &sks {
            let last = first + sk.kmer_count() - 1;
            let mut owned = Vec::new();
            encode_superkmer(sk, &mut owned);
            let mut borrowed = Vec::new();
            encode_superkmer_slice(&read, first, last, k, sk.left_ext(), sk.right_ext(), &mut borrowed);
            prop_assert_eq!(owned, borrowed, "run {}..={} of k={} p={}", first, last, k, p);
            first = last + 1;
        }
    }
}

/// Deterministic low-complexity edge cases the fuzzers may not pin down:
/// reads shorter than k (no runs), reads of exactly k bases (one run),
/// and pure homopolymers (every k-mer shares the minimizer → one run).
#[test]
fn streaming_runs_low_complexity_edges() {
    let cases: Vec<(PackedSeq, usize, usize)> = vec![
        (PackedSeq::from_ascii(&b"A".repeat(300)), 21, 11),
        (PackedSeq::from_ascii(&b"ACGT".repeat(64)), 31, 15),
        (PackedSeq::from_ascii(&b"AT".repeat(100)), 33, 7),
        (PackedSeq::from_ascii(b"ACG"), 7, 3),   // shorter than k
        (PackedSeq::from_ascii(b"TGATGGA"), 7, 3), // exactly k
        (PackedSeq::from_ascii(b"G"), 1, 1),     // k = p = 1
    ];
    for (read, k, p) in cases {
        let scanner = SuperkmerScanner::new(k, p).unwrap();
        let got = streamed_runs(&scanner, &read);
        assert_eq!(got, naive_runs(k, p, &read), "k={k} p={p} len={}", read.len());
        if read.len() >= k {
            assert!(!got.is_empty());
        } else {
            assert!(got.is_empty());
        }
    }
    // A homopolymer is a single maximal run covering every k-mer.
    let homo = PackedSeq::from_ascii(&b"T".repeat(200));
    let scanner = SuperkmerScanner::new(9, 4).unwrap();
    let runs = streamed_runs(&scanner, &homo);
    assert_eq!(runs.len(), 1);
    assert_eq!((runs[0].0, runs[0].1), (0, 200 - 9));
}
