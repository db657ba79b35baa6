//! Second-level sub-partitioning for out-of-core Step 2.
//!
//! When one partition's projected Property-1 table exceeds the memory
//! budget (the skew case Kundeti et al. address out of core), the
//! partition's superkmer records are split by a **second-level minimizer
//! hash** into `fanout` sub-partitions, each small enough to build
//! alone. Correctness rests on the same invariant first-level routing
//! uses: every copy of a canonical k-mer shares one canonical minimizer,
//! and a superkmer record carries exactly the k-mers whose minimizer is
//! the record's minimizer — so routing whole records by (a remix of)
//! that minimizer's hash collocates all copies of each vertex in one
//! sub-partition. Sub-tables are therefore key-disjoint and each holds
//! its vertices' *complete* counts and edges; concatenating their
//! entries and letting the canonical sorted subgraph encoding order them
//! reproduces the unsplit build byte for byte.
//!
//! The remix matters: within first-level partition `i` every minimizer
//! hash is congruent to `i` modulo the partition count, so reducing the
//! *same* hash again would send the whole partition to one sub-bucket.
//! [`sub_route`] runs the hash through an avalanching finalizer first,
//! making the second-level bucket independent of the first-level
//! residue.
//!
//! Sub-partitions reuse the CRC-framed record format
//! ([`append_frame`](crate::append_frame)) — a sub-partition buffer is a
//! valid partition file, so the whole Step-2 build path (zero-copy view
//! indexing included) applies unchanged.

use dna::Kmer;

use crate::frame::{append_frame, frame_payloads_in, DEFAULT_FRAME_TARGET};
use crate::minimizer::{leading_minimizer_u64, minimizer_of_kmer};
use crate::view::SuperkmerView;
use crate::{MspError, Result};

/// One sub-partition produced by [`split_framed`]: a CRC-framed record
/// buffer plus the tallies Step 2 needs to size its table.
#[derive(Debug, Default, Clone)]
pub struct SubPartition {
    /// CRC-framed superkmer records — the same on-disk format as a
    /// first-level partition file.
    pub bytes: Vec<u8>,
    /// Number of superkmer records routed here.
    pub superkmers: u64,
    /// Total k-mer occurrences across those records (drives the §IV-A
    /// table sizing for the sub-build).
    pub kmers: u64,
}

/// Second-level bucket for a minimizer: an avalanched remix of the
/// minimizer hash, reduced modulo `fanout`.
///
/// The remix (the 64-bit murmur3/splitmix finalizer) decorrelates the
/// result from `hash64 % partitions`, which first-level routing already
/// fixed to a single residue for every minimizer in the partition.
///
/// # Panics
///
/// Panics if `fanout` is zero.
pub fn sub_route(minimizer: &Kmer, fanout: usize) -> usize {
    assert!(fanout > 0, "sub-partition fanout must be at least 1");
    let mut x = minimizer.hash64();
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    (x % fanout as u64) as usize
}

/// Splits one CRC-framed partition buffer into `fanout` sub-partitions
/// by the second-level minimizer hash.
///
/// Every record keeps its exact encoded bytes and its relative order
/// among the records of its sub-partition; only the grouping changes.
/// `partition` is the first-level index, used for error attribution
/// (frame faults surface as that partition's corruption).
///
/// The per-record minimizer is recomputed from the record's first k-mer
/// — the same recovery [`SuperkmerView::to_superkmer`] performs — which
/// is valid because a superkmer's minimizer is by construction the
/// canonical minimizer of each of its k-mers, the first included. For
/// `p ≤ 32` it is rolled in one `u64` straight from the record's packed
/// payload words (the single-word minimizer scan's update, over one
/// window); wider minimizers fall back to [`minimizer_of_kmer`] on the
/// decoded first k-mer. Both yield the same minimizer, so the routing
/// is the same.
///
/// # Errors
///
/// Returns [`MspError::CorruptRecord`] if the buffer fails frame
/// verification or a record is malformed.
pub fn split_framed(
    bytes: &[u8],
    k: usize,
    p: usize,
    fanout: usize,
    partition: usize,
) -> Result<Vec<SubPartition>> {
    assert!(fanout > 0, "sub-partition fanout must be at least 1");
    if p < 1 || p > k || k > dna::MAX_K {
        return Err(MspError::InvalidParams { k, p });
    }
    let mut subs = vec![SubPartition::default(); fanout];
    // Pending whole-record buffers, flushed into frames at the same
    // threshold the Step-1 writer uses so sub-partition files look like
    // ordinary partition files.
    let mut pending: Vec<Vec<u8>> = vec![Vec::new(); fanout];
    let mut base_offset = 0u64;
    for payload in frame_payloads_in(bytes, Some(partition))? {
        let mut offset = 0;
        while offset < payload.len() {
            let (view, consumed) =
                SuperkmerView::parse(&payload[offset..], k).map_err(|e| relocate(e, base_offset))?;
            let minimizer = if p <= 32 {
                leading_minimizer_u64(view.code_words(), k, p)
            } else {
                let first = Kmer::from_bases(k, view.bases().take(k)).map_err(|e| {
                    MspError::CorruptRecord {
                        offset: base_offset + offset as u64,
                        reason: format!("undecodable first k-mer: {e}"),
                    }
                })?;
                minimizer_of_kmer(&first, p)
            };
            let sub = sub_route(&minimizer, fanout);
            pending[sub].extend_from_slice(&payload[offset..offset + consumed]);
            if pending[sub].len() >= DEFAULT_FRAME_TARGET {
                append_frame(&mut subs[sub].bytes, &pending[sub]);
                pending[sub].clear();
            }
            subs[sub].superkmers += 1;
            subs[sub].kmers += view.kmer_count() as u64;
            offset += consumed;
        }
        base_offset += payload.len() as u64;
    }
    for (sub, buf) in subs.iter_mut().zip(&pending) {
        append_frame(&mut sub.bytes, buf);
    }
    Ok(subs)
}

/// Re-attributes a record-parse error to its absolute position in the
/// original partition stream (parse offsets are frame-relative).
fn relocate(e: MspError, base: u64) -> MspError {
    match e {
        MspError::CorruptRecord { offset, reason } => {
            MspError::CorruptRecord { offset: base + offset, reason }
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode_superkmer, iter_views, SuperkmerScanner};
    use dna::{Base, Kmer, PackedSeq};

    const K: usize = 7;
    const P: usize = 3;

    fn lcg_read(seed: u64, len: usize) -> PackedSeq {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut read = PackedSeq::new();
        for _ in 0..len {
            state =
                state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            read.push(Base::from_code(((state >> 33) & 3) as u8));
        }
        read
    }

    /// Builds a framed buffer of `(k, p)` superkmer records from random
    /// reads of `k + 33` bases, returning the framed bytes and each
    /// record's encoding.
    fn framed_corpus(seed: u64, reads: usize, k: usize, p: usize) -> (Vec<u8>, Vec<Vec<u8>>) {
        let scanner = SuperkmerScanner::new(k, p).unwrap();
        let mut records = Vec::new();
        let mut framed = Vec::new();
        let mut pending = Vec::new();
        for r in 0..reads {
            let read = lcg_read(seed + r as u64, k + 33);
            for sk in scanner.scan(&read) {
                let mut rec = Vec::new();
                encode_superkmer(&sk, &mut rec);
                pending.extend_from_slice(&rec);
                records.push(rec);
            }
        }
        append_frame(&mut framed, &pending);
        (framed, records)
    }

    fn record_multiset(bufs: &[&[u8]]) -> Vec<Vec<u8>> {
        let mut all = Vec::new();
        for buf in bufs {
            for payload in frame_payloads_in(buf, None).unwrap() {
                let mut offset = 0;
                while offset < payload.len() {
                    let (_, consumed) = SuperkmerView::parse(&payload[offset..], K).unwrap();
                    all.push(payload[offset..offset + consumed].to_vec());
                    offset += consumed;
                }
            }
        }
        all.sort();
        all
    }

    #[test]
    fn fanout_one_is_identity_in_content() {
        let (framed, records) = framed_corpus(7, 20, K, P);
        let subs = split_framed(&framed, K, P, 1, 0).unwrap();
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].superkmers, records.len() as u64);
        let mut expect: Vec<Vec<u8>> = records;
        expect.sort();
        assert_eq!(record_multiset(&[&subs[0].bytes]), expect);
    }

    #[test]
    fn split_partitions_records_exactly() {
        let (framed, records) = framed_corpus(11, 60, K, P);
        for fanout in [2usize, 3, 8] {
            let subs = split_framed(&framed, K, P, fanout, 0).unwrap();
            assert_eq!(subs.len(), fanout);
            let total_sk: u64 = subs.iter().map(|s| s.superkmers).sum();
            assert_eq!(total_sk, records.len() as u64, "fanout {fanout}");
            // Union of sub-partitions == original record multiset.
            let bufs: Vec<&[u8]> = subs.iter().map(|s| s.bytes.as_slice()).collect();
            let mut expect = records.clone();
            expect.sort();
            assert_eq!(record_multiset(&bufs), expect, "fanout {fanout}");
            // Empty sub-partitions produce empty buffers, not empty frames.
            for sub in &subs {
                assert_eq!(sub.bytes.is_empty(), sub.superkmers == 0);
            }
        }
    }

    #[test]
    fn kmer_tallies_are_preserved() {
        let (framed, _) = framed_corpus(23, 40, K, P);
        let mut expect = 0u64;
        for payload in frame_payloads_in(&framed, None).unwrap() {
            for view in iter_views(payload, K) {
                expect += view.unwrap().kmer_count() as u64;
            }
        }
        let subs = split_framed(&framed, K, P, 4, 0).unwrap();
        assert_eq!(subs.iter().map(|s| s.kmers).sum::<u64>(), expect);
    }

    #[test]
    fn routing_is_deterministic_and_minimizer_pure() {
        // (7,3) and (27,11) are small and default shapes; (31,31) and
        // (32,32) put the p-mer at the `p = 32` mask edge; (33,32) makes
        // the first k-mer span two payload words; (40,33) takes the
        // `p > 32` fallback.
        for (k, p) in [(7, 3), (27, 11), (31, 31), (32, 32), (33, 32), (40, 33)] {
            let (framed, records) = framed_corpus(31, 30, k, p);
            let a = split_framed(&framed, k, p, 4, 0).unwrap();
            let b = split_framed(&framed, k, p, 4, 0).unwrap();
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.bytes, y.bytes, "k={k} p={p}");
            }
            // Records sharing a minimizer land together: verify by routing
            // each record's oracle minimizer directly.
            let mut routed = 0;
            for (idx, sub) in a.iter().enumerate() {
                for payload in frame_payloads_in(&sub.bytes, None).unwrap() {
                    for view in iter_views(payload, k) {
                        let view = view.unwrap();
                        let first = Kmer::from_bases(k, view.bases().take(k)).unwrap();
                        assert_eq!(
                            sub_route(&minimizer_of_kmer(&first, p), 4),
                            idx,
                            "k={k} p={p}"
                        );
                        routed += 1;
                    }
                }
            }
            assert_eq!(routed, records.len(), "k={k} p={p}");
        }
    }

    #[test]
    fn sub_route_spreads_within_a_first_level_partition() {
        // All minimizers whose hash is ≡ r (mod n) — i.e. one first-level
        // partition — must still spread across sub-buckets, the entire
        // point of the remix.
        let n = 8u64;
        let mut seen = vec![false; 4];
        let mut kmer_bits = 0u64;
        let mut tried = 0;
        while tried < 20_000 && seen.iter().any(|s| !s) {
            kmer_bits = kmer_bits.wrapping_add(0x9E37_79B9);
            let bases: Vec<Base> =
                (0..P).map(|i| Base::from_code(((kmer_bits >> (2 * i)) & 3) as u8)).collect();
            let m = Kmer::from_bases(P, bases).unwrap();
            if m.hash64() % n == 3 {
                seen[sub_route(&m, 4)] = true;
            }
            tried += 1;
        }
        assert!(seen.iter().all(|s| *s), "remixed routing failed to spread: {seen:?}");
    }

    #[test]
    fn corrupt_frame_is_attributed_to_the_partition() {
        let (mut framed, _) = framed_corpus(5, 10, K, P);
        let mid = framed.len() / 2;
        framed[mid] ^= 0xFF;
        let err = split_framed(&framed, K, P, 2, 9).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("partition 9"), "unexpected error: {msg}");
    }
}
