use std::collections::VecDeque;

use dna::{CanonicalKmerCursor, Kmer, PackedSeq};

use crate::view::CodeWords;
use crate::{MspError, Result};

/// Computes the minimizer of a single k-mer: the lexicographically minimal
/// length-`p` substring over the k-mer **and its reverse complement** (the
/// canonical pair — see the crate docs for why both strands are needed).
///
/// This is the O(K·P) brute force the paper describes; the sliding-window
/// [`MinimizerScanner`] produces identical results in O(L) per read and is
/// what the system uses. Keep this around as the reference for tests and
/// the ablation bench.
///
/// # Examples
///
/// ```
/// use dna::Kmer;
/// use msp::minimizer_of_kmer;
///
/// # fn main() -> Result<(), dna::DnaError> {
/// let k: Kmer = "TGATG".parse()?;
/// // Substrings of TGATG: TGA, GAT, ATG; of CATCA: CAT, ATC, TCA.
/// assert_eq!(minimizer_of_kmer(&k, 3).to_string(), "ATC");
/// # Ok(())
/// # }
/// ```
///
/// # Panics
///
/// Panics if `p` is 0 or exceeds the k-mer length.
pub fn minimizer_of_kmer(kmer: &Kmer, p: usize) -> Kmer {
    assert!(p >= 1 && p <= kmer.k(), "invalid minimizer length {p} for k={}", kmer.k());
    let strand_min = |km: &Kmer| (0..=km.k() - p).map(|i| km.sub(i, p)).min().expect("k >= p");
    strand_min(kmer).min(strand_min(&kmer.revcomp()))
}

/// O(L) sliding-window minimizer scanner for whole reads.
///
/// For a read of length `L` it reports, for each of the `L−K+1` k-mer
/// positions, that k-mer's canonical minimizer. Internally it runs a
/// monotone-deque window minimum over the read's p-mers on both strands —
/// each p-mer enters and leaves the deque at most once, so the whole scan
/// is linear regardless of `K` or `P`.
///
/// # Examples
///
/// ```
/// use dna::PackedSeq;
/// use msp::{minimizer_of_kmer, MinimizerScanner};
///
/// # fn main() -> msp::Result<()> {
/// let read = PackedSeq::from_ascii(b"ACGTTGCATGGA");
/// let scanner = MinimizerScanner::new(5, 3)?;
/// let mins = scanner.scan(&read);
/// assert_eq!(mins.len(), read.len() - 5 + 1);
/// // Matches the brute force at every position:
/// for (i, m) in mins.iter().enumerate() {
///     let kmer = read.kmer_at(i, 5).unwrap();
///     assert_eq!(*m, minimizer_of_kmer(&kmer, 3));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MinimizerScanner {
    k: usize,
    p: usize,
}

impl MinimizerScanner {
    /// Creates a scanner for k-mers of length `k` and minimizers of
    /// length `p`.
    ///
    /// # Errors
    ///
    /// Returns [`MspError::InvalidParams`] unless `1 ≤ p ≤ k ≤ MAX_K`.
    pub fn new(k: usize, p: usize) -> Result<MinimizerScanner> {
        if p < 1 || p > k || k > dna::MAX_K {
            return Err(MspError::InvalidParams { k, p });
        }
        Ok(MinimizerScanner { k, p })
    }

    /// The k-mer length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The minimizer length.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Scans a read, returning one canonical minimizer per k-mer position
    /// (empty if the read is shorter than `k`).
    pub fn scan(&self, read: &PackedSeq) -> Vec<Kmer> {
        if read.len() < self.k {
            return Vec::new();
        }
        let window = self.k - self.p + 1;
        let fwd = window_minima(read, self.p, window);
        let rc = window_minima(&read.revcomp(), self.p, window);
        let n = read.len() - self.k + 1;
        debug_assert_eq!(fwd.len(), n);
        debug_assert_eq!(rc.len(), n);
        (0..n).map(|i| fwd[i].min(rc[n - 1 - i])).collect()
    }

    /// Brute-force scan: per-position [`minimizer_of_kmer`]. Identical
    /// output, O(L·K·P) cost; exists for testing and the ablation bench.
    pub fn scan_naive(&self, read: &PackedSeq) -> Vec<Kmer> {
        if read.len() < self.k {
            return Vec::new();
        }
        (0..=read.len() - self.k)
            .map(|i| minimizer_of_kmer(&read.kmer_at(i, self.k).expect("in range"), self.p))
            .collect()
    }

    /// Creates a reusable streaming cursor for this scanner's `k`/`p`.
    /// One cursor per worker thread; see [`MinimizerCursor::scan_runs`].
    pub fn cursor(&self) -> MinimizerCursor {
        MinimizerCursor::new(self.k, self.p).expect("scanner params already validated")
    }
}

/// Reusable per-worker state for the streaming minimizer scan.
///
/// Where [`MinimizerScanner::scan`] materialises the read's reverse
/// complement plus two per-position minima vectors, the cursor streams:
/// it rolls the forward p-mer window *and its reverse complement*
/// incrementally (a [`CanonicalKmerCursor`] of length `p` — the rc p-mer
/// is derived arithmetically from the forward window, never from a
/// `revcomp()` copy of the read) and maintains a single monotone deque of
/// **canonical** p-mers. The canonical minimizer of the k-mer at position
/// `i` equals
///
/// ```text
/// min over j in [i, i+K−P] of min(pmer_j, revcomp(pmer_j))
/// ```
///
/// i.e. the windowed minimum of canonical p-mers — exactly what one deque
/// over canonical p-mers yields — because the rc read's p-mers inside the
/// rc k-mer window are the reverse complements of the forward p-mers
/// inside the forward window. That collapses the two-strand scan into one
/// deque with no second pass.
///
/// **Deque invariant:** entries are `(position, canonical p-mer)` with
/// positions strictly increasing and values non-decreasing front-to-back;
/// the front is the window minimum. Each p-mer enters and leaves at most
/// once, so a read of `L` bases is scanned in O(L) with **zero heap
/// allocation** after construction: the deque's capacity (at most
/// `K−P+2` live entries) is reserved up front and reused across reads.
///
/// # Examples
///
/// ```
/// use dna::PackedSeq;
/// use msp::{MinimizerCursor, MinimizerScanner};
///
/// # fn main() -> msp::Result<()> {
/// let read = PackedSeq::from_ascii(b"TGATGGATGAACCAGT");
/// let scanner = MinimizerScanner::new(5, 3)?;
/// let mut cursor = scanner.cursor();
/// let mut runs = Vec::new();
/// cursor.scan_runs(&read, |first, last, m| runs.push((first, last, m)));
/// // Runs tile the k-mer index range and agree with the batch scan.
/// let mins = scanner.scan(&read);
/// assert_eq!(runs.first().unwrap().0, 0);
/// assert_eq!(runs.last().unwrap().1, mins.len() - 1);
/// for &(first, last, m) in &runs {
///     for i in first..=last {
///         assert_eq!(mins[i], m);
///     }
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MinimizerCursor {
    k: usize,
    p: usize,
    /// Number of p-mer positions under one k-mer: `k − p + 1`.
    window: usize,
    /// Rolling forward + reverse-complement p-mer windows.
    pcur: CanonicalKmerCursor,
    /// Monotone deque of `(p-mer position, canonical p-mer)`.
    deque: VecDeque<(u32, Kmer)>,
    /// Single-word fast path: `p ≤ 32` and the scalar escape hatch is
    /// off. Captured at construction so a cursor never switches paths
    /// mid-stream.
    fast: bool,
    /// Ring buffer of the last `window` canonical p-mers (as MSB-aligned
    /// `u64`s) for the fast path's lazy window minimum: slot `j mod
    /// window` holds position `j`'s p-mer, read only on the rare rescans
    /// after the tracked minimum falls out of the window.
    ring64: Vec<u64>,
}

impl MinimizerCursor {
    /// Creates a cursor for k-mers of length `k` and minimizers of length
    /// `p`, reserving all memory the scan will ever need.
    ///
    /// # Errors
    ///
    /// Returns [`MspError::InvalidParams`] unless `1 ≤ p ≤ k ≤ MAX_K`.
    pub fn new(k: usize, p: usize) -> Result<MinimizerCursor> {
        if p < 1 || p > k || k > dna::MAX_K {
            return Err(MspError::InvalidParams { k, p });
        }
        let window = k - p + 1;
        Ok(MinimizerCursor {
            k,
            p,
            window,
            pcur: CanonicalKmerCursor::new(p).expect("1 <= p <= MAX_K"),
            // At most `window + 1` entries are live between the push of a
            // new p-mer and the expiry pop that follows it.
            deque: VecDeque::with_capacity(window + 2),
            fast: p <= 32 && !dna::simd::force_scalar(),
            ring64: vec![0; window],
        })
    }

    /// The k-mer length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The minimizer length.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Streams `read` once, invoking `emit(first, last, minimizer)` for
    /// each **maximal equal-minimizer run** of k-mer positions — the
    /// superkmer boundaries of the paper's Definition 2. Produces exactly
    /// the runs of [`MinimizerScanner::scan`] grouped by equality, without
    /// allocating: no `revcomp` copy, no minima vectors, no output `Vec`.
    ///
    /// Emits nothing for reads shorter than `k`. The cursor resets itself,
    /// so it can be reused across reads (and that reuse is what makes the
    /// per-read hot loop allocation-free).
    pub fn scan_runs<F: FnMut(usize, usize, Kmer)>(&mut self, read: &PackedSeq, mut emit: F) {
        if read.len() < self.k {
            return;
        }
        if self.fast {
            return self.scan_runs_fast(read, &mut emit);
        }
        self.pcur.reset();
        self.deque.clear();
        let n_kmers = read.len() - self.k + 1;
        let mut run_start = 0usize;
        // Placeholder until the first window completes (kpos == 0 path).
        let mut run_min: Kmer = Kmer::from_bases(1, [dna::Base::A]).expect("valid 1-mer");
        for (i, base) in read.bases().enumerate() {
            self.pcur.push(base);
            if i + 1 < self.p {
                continue;
            }
            let j = i + 1 - self.p; // p-mer position
            let (canon, _) = self.pcur.canonical();
            while self.deque.back().is_some_and(|&(_, back)| back > canon) {
                self.deque.pop_back();
            }
            self.deque.push_back((j as u32, canon));
            if j + 1 >= self.window {
                let kpos = j + 1 - self.window; // k-mer position
                while self.deque.front().is_some_and(|&(pos, _)| (pos as usize) < kpos) {
                    self.deque.pop_front();
                }
                let m = self.deque.front().expect("deque non-empty").1;
                if kpos == 0 {
                    run_min = m;
                } else if m != run_min {
                    emit(run_start, kpos - 1, run_min);
                    run_start = kpos;
                    run_min = m;
                }
            }
        }
        emit(run_start, n_kmers - 1, run_min);
    }

    /// Word-at-a-time scan for `p ≤ 32`: the canonical p-mer fits one
    /// MSB-aligned `u64`, so both strands roll with two shifts and an OR
    /// per base, comparisons are plain integer compares, and the packed
    /// read is consumed a 64-bit word (32 bases) at a time instead of
    /// through the per-base iterator. Bitwise-identical to the generic
    /// path — a `u64` holding the top word of a left-aligned [`Kmer`]
    /// orders exactly like the four-word key (words 1..3 are zero for
    /// `p ≤ 32`), and the update steps are the one-word instances of
    /// [`CanonicalKmerCursor`]'s shift loops.
    ///
    /// The window minimum here is *lazy* rather than the generic path's
    /// monotone deque: track the current minimum's value and (latest)
    /// position, and only when that position slides out of the window
    /// rescan the `window` buffered p-mers in [`ring64`](Self::ring64).
    /// The common per-base cost is one ring store plus one compare; the
    /// O(window) rescan fires only when the minimum expires (≈ 1/window
    /// of positions on random sequence). Both strategies compute the same
    /// windowed minimum *value*, and runs depend only on values, so the
    /// emitted runs are identical.
    fn scan_runs_fast<F: FnMut(usize, usize, Kmer)>(&mut self, read: &PackedSeq, emit: &mut F) {
        let p = self.p;
        let window = self.window;
        // New forward base lands at bits [64−2p, 65−2p); the expiring one
        // shifts out of the top. `p = 32` makes the mask a no-op `!0`.
        let shift = 64 - 2 * p;
        let pmask = !0u64 << shift;
        let materialise = |v: u64| {
            Kmer::from_words([v, 0, 0, 0], p).expect("p-mer tail bits are zero")
        };
        let ring = &mut self.ring64[..window];
        let len = read.len();
        let n_kmers = len - self.k + 1;
        let mut fwd = 0u64;
        let mut rc = 0u64;
        let mut run_start = 0usize;
        let mut run_min = 0u64; // placeholder until kpos == 0 assigns
        let mut min_val = u64::MAX;
        let mut min_pos = 0usize;
        let mut slot = 0usize; // == j mod window
        let mut seen = 0usize; // bases consumed so far
        for (w, &packed) in read.words().iter().enumerate() {
            let mut word = packed;
            let in_word = (len - w * 32).min(32);
            for _ in 0..in_word {
                let code = word & 3;
                word >>= 2;
                fwd = (fwd << 2) | (code << shift);
                rc = ((rc >> 2) & pmask) | ((code ^ 3) << 62);
                seen += 1;
                if seen < p {
                    continue;
                }
                let j = seen - p; // p-mer position
                let canon = fwd.min(rc);
                ring[slot] = canon;
                // `<=` keeps min_pos at the *latest* minimal position,
                // postponing expiry rescans as long as possible.
                if canon <= min_val {
                    min_val = canon;
                    min_pos = j;
                } else if min_pos + window <= j {
                    // The minimum fell out of the window [j+1−window, j]:
                    // rescan the ring oldest-first (the rescan only fires
                    // once j ≥ window, so every slot holds an in-window
                    // p-mer).
                    min_val = u64::MAX;
                    let mut s = slot + 1;
                    for d in 0..window {
                        if s >= window {
                            s = 0;
                        }
                        let v = ring[s];
                        if v <= min_val {
                            min_val = v;
                            min_pos = j + 1 - window + d;
                        }
                        s += 1;
                    }
                }
                slot += 1;
                if slot == window {
                    slot = 0;
                }
                if j + 1 >= window {
                    let kpos = j + 1 - window; // k-mer position
                    if kpos == 0 {
                        run_min = min_val;
                    } else if min_val != run_min {
                        emit(run_start, kpos - 1, materialise(run_min));
                        run_start = kpos;
                        run_min = min_val;
                    }
                }
            }
        }
        emit(run_start, n_kmers - 1, materialise(run_min));
    }
}

/// [`minimizer_of_kmer`] of the k-mer spelled by the first `k` codes of
/// `codes`, for `p ≤ 32`, rolled in one `u64` straight from the packed
/// payload words — the single-window instance of
/// [`MinimizerCursor::scan_runs_fast`]'s two-shift forward/reverse-
/// complement update. The canonical minimizer of a k-mer is the minimum
/// over its p-mer positions of `min(pmer, revcomp(pmer))`, because the
/// p-mers of the reverse-complement k-mer are exactly the reverse
/// complements of the forward p-mers; so one pass over `k` codes and
/// one integer compare per p-mer recover it, with no owned k-mer, no
/// sub-k-mers and no `revcomp` copy.
///
/// The caller guarantees `1 ≤ p ≤ min(k, 32)` and that `codes` holds at
/// least `k` codes (a validated [`SuperkmerView`](crate::SuperkmerView)
/// core does).
pub(crate) fn leading_minimizer_u64(mut codes: CodeWords<'_>, k: usize, p: usize) -> Kmer {
    debug_assert!((1..=32).contains(&p) && p <= k, "k={k} p={p}");
    let mut chunk = 0u64;
    let best = min_canonical_pmer(k, p, |i| {
        if i % 32 == 0 {
            chunk = codes.next_chunk();
        }
        let code = chunk & 3;
        chunk >>= 2;
        code
    });
    Kmer::from_words([best, 0, 0, 0], p).expect("p-mer tail bits are zero")
}

/// [`minimizer_of_kmer`] of the k-mer packed in `words` (the layout of
/// [`Kmer::words`]: left-aligned MSB-first, tail bits zero), for
/// `p ≤ 32`. Returns the minimizer's own packed word in the same layout,
/// so `Kmer::hash64_of_words(&[m, 0, 0, 0], p)` is the minimizer's
/// [`Kmer::hash64`]. The same one-pass roll as [`leading_minimizer_u64`],
/// reading the codes from the k-mer's words instead of a payload: no
/// owned sub-k-mers, no `revcomp` copy, no allocation.
///
/// The caller guarantees `1 ≤ p ≤ min(k, 32)` and `k ≤ MAX_K`.
#[inline]
pub(crate) fn minimizer_word_u64(words: &[u64; 4], k: usize, p: usize) -> u64 {
    debug_assert!((1..=32).contains(&p) && p <= k && k <= dna::MAX_K, "k={k} p={p}");
    min_canonical_pmer(k, p, |i| (words[i / 32] >> (62 - 2 * (i % 32))) & 3)
}

/// The minimum over the `k − p + 1` p-mer positions of `min(pmer,
/// revcomp(pmer))`, for the k-mer whose `i`-th base code is `code_at(i)`
/// (called once per `i`, in order) and `p ≤ 32`: the canonical
/// minimizer as an MSB-aligned `u64`, rolled with two shifts and an OR
/// per base exactly as [`MinimizerCursor::scan_runs_fast`] does.
#[inline(always)]
fn min_canonical_pmer(k: usize, p: usize, mut code_at: impl FnMut(usize) -> u64) -> u64 {
    // Same MSB-aligned layout as the scan: the p-mer occupies the top
    // 2p bits and `p = 32` makes the mask a no-op `!0`.
    let shift = 64 - 2 * p;
    let pmask = !0u64 << shift;
    let mut fwd = 0u64;
    let mut rc = 0u64;
    let mut best = u64::MAX;
    for i in 0..k {
        let code = code_at(i);
        fwd = (fwd << 2) | (code << shift);
        rc = ((rc >> 2) & pmask) | ((code ^ 3) << 62);
        if i + 1 >= p {
            best = best.min(fwd.min(rc));
        }
    }
    best
}

/// Minimum p-mer in every length-`window` window of p-mer positions, via a
/// monotone deque. Returns one entry per window, i.e.
/// `len − p + 1 − window + 1` values.
fn window_minima(seq: &PackedSeq, p: usize, window: usize) -> Vec<Kmer> {
    let n_pmers = seq.len() + 1 - p;
    let mut out = Vec::with_capacity(n_pmers + 1 - window);
    // Deque of (position, pmer); values increase from front to back.
    let mut deque: VecDeque<(usize, Kmer)> = VecDeque::new();
    for (i, pmer) in seq.kmers(p).enumerate() {
        while deque.back().is_some_and(|&(_, back)| back > pmer) {
            deque.pop_back();
        }
        deque.push_back((i, pmer));
        // Window covering p-mer positions [i + 1 − window, i].
        if i + 1 >= window {
            let start = i + 1 - window;
            while deque.front().is_some_and(|&(pos, _)| pos < start) {
                deque.pop_front();
            }
            out.push(deque.front().expect("deque non-empty").1);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> PackedSeq {
        PackedSeq::from_ascii(s.as_bytes())
    }

    #[test]
    fn brute_force_on_known_example() {
        let k: Kmer = "GATTACA".parse().unwrap();
        // fwd 2-mers: GA AT TT TA AC CA ; rc = TGTAATC: TG GT TA AA AT TC.
        assert_eq!(minimizer_of_kmer(&k, 2).to_string(), "AA");
        assert_eq!(minimizer_of_kmer(&k, 7).to_string(), "GATTACA");
        assert_eq!(minimizer_of_kmer(&k, 1).to_string(), "A");
    }

    #[test]
    fn minimizer_is_strand_invariant() {
        for s in ["ACGTTGCA", "TGATGGATG", "CCCCCGGGG"] {
            let k: Kmer = s.parse().unwrap();
            for p in 1..=s.len() {
                assert_eq!(
                    minimizer_of_kmer(&k, p),
                    minimizer_of_kmer(&k.revcomp(), p),
                    "s={s} p={p}"
                );
            }
        }
    }

    #[test]
    fn scanner_matches_naive() {
        let reads = [
            "ACGTTGCATGGACCAGTTACGGA",
            "AAAAAAAAAAAAAAA",
            "TGATGGATGATGGATGGTAGCAT",
            "ACGT",
        ];
        for r in reads {
            let read = seq(r);
            for (k, p) in [(4, 1), (4, 4), (5, 3), (7, 4), (15, 11)] {
                if read.len() < k {
                    continue;
                }
                let sc = MinimizerScanner::new(k, p).unwrap();
                assert_eq!(sc.scan(&read), sc.scan_naive(&read), "read={r} k={k} p={p}");
            }
        }
    }

    #[test]
    fn short_read_yields_nothing() {
        let sc = MinimizerScanner::new(10, 4).unwrap();
        assert!(sc.scan(&seq("ACGT")).is_empty());
        assert!(sc.scan_naive(&seq("ACGT")).is_empty());
    }

    #[test]
    fn read_of_exactly_k() {
        let sc = MinimizerScanner::new(6, 3).unwrap();
        let read = seq("GATTAC");
        let mins = sc.scan(&read);
        assert_eq!(mins.len(), 1);
        assert_eq!(mins[0], minimizer_of_kmer(&read.kmer_at(0, 6).unwrap(), 3));
    }

    #[test]
    fn p_equal_k_minimizer_is_canonical_kmer() {
        let sc = MinimizerScanner::new(5, 5).unwrap();
        let read = seq("TGATGGA");
        let mins = sc.scan(&read);
        for (i, m) in mins.iter().enumerate() {
            let kmer = read.kmer_at(i, 5).unwrap();
            assert_eq!(*m, kmer.canonical().0);
        }
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(matches!(MinimizerScanner::new(5, 0), Err(MspError::InvalidParams { .. })));
        assert!(matches!(MinimizerScanner::new(5, 6), Err(MspError::InvalidParams { .. })));
        assert!(matches!(MinimizerScanner::new(dna::MAX_K + 1, 3), Err(MspError::InvalidParams { .. })));
        assert!(MinimizerScanner::new(1, 1).is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid minimizer length")]
    fn brute_force_rejects_p_zero() {
        minimizer_of_kmer(&"ACGT".parse().unwrap(), 0);
    }

    /// Reference run-cutting from a per-position minimizer vector.
    fn runs_of(mins: &[Kmer]) -> Vec<(usize, usize, Kmer)> {
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

    fn collect_runs(cursor: &mut MinimizerCursor, read: &PackedSeq) -> Vec<(usize, usize, Kmer)> {
        let mut runs = Vec::new();
        cursor.scan_runs(read, |f, l, m| runs.push((f, l, m)));
        runs
    }

    #[test]
    fn scan_runs_matches_batch_scan() {
        let reads = [
            "ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGTACGGATCA",
            "AAAAAAAAAAAAAAAAAAAA",
            "ATATATATATATATATATAT",
            "TGATGGATGATGGATGGTAGCAT",
            "GATTACA",
        ];
        for r in reads {
            let read = seq(r);
            for (k, p) in [(4, 1), (4, 4), (5, 3), (7, 4), (7, 7), (15, 11), (20, 1)] {
                if read.len() < k {
                    continue;
                }
                let sc = MinimizerScanner::new(k, p).unwrap();
                let mut cursor = sc.cursor();
                let got = collect_runs(&mut cursor, &read);
                let want = runs_of(&sc.scan(&read));
                assert_eq!(got, want, "read={r} k={k} p={p}");
            }
        }
    }

    #[test]
    fn cursor_is_reusable_across_reads() {
        let sc = MinimizerScanner::new(7, 4).unwrap();
        let mut cursor = sc.cursor();
        for r in ["ACGTTGCATGGACCAGTTACGGATCA", "TTTTTTTTTT", "GATTACAGATTACA"] {
            let read = seq(r);
            assert_eq!(collect_runs(&mut cursor, &read), runs_of(&sc.scan(&read)), "read={r}");
        }
    }

    #[test]
    fn scan_runs_short_read_emits_nothing() {
        let mut cursor = MinimizerCursor::new(10, 4).unwrap();
        assert!(collect_runs(&mut cursor, &seq("ACGT")).is_empty());
        assert!(collect_runs(&mut cursor, &seq("")).is_empty());
    }

    #[test]
    fn scan_runs_exactly_k_read_is_one_run() {
        let sc = MinimizerScanner::new(6, 3).unwrap();
        let read = seq("GATTAC");
        let runs = collect_runs(&mut sc.cursor(), &read);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].0, 0);
        assert_eq!(runs[0].1, 0);
        assert_eq!(runs[0].2, minimizer_of_kmer(&read.kmer_at(0, 6).unwrap(), 3));
    }

    #[test]
    fn scan_runs_homopolymer_is_one_run() {
        // Every k-mer shares the same minimizer: exactly one run.
        let read = seq(&"A".repeat(40));
        let runs = collect_runs(&mut MinimizerCursor::new(9, 4).unwrap(), &read);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].0, 0);
        assert_eq!(runs[0].1, 40 - 9);
    }

    #[test]
    fn cursor_rejects_invalid_params() {
        assert!(matches!(MinimizerCursor::new(5, 0), Err(MspError::InvalidParams { .. })));
        assert!(matches!(MinimizerCursor::new(5, 6), Err(MspError::InvalidParams { .. })));
        assert!(MinimizerCursor::new(dna::MAX_K, dna::MAX_K).is_ok());
    }

    #[test]
    fn fast_and_generic_paths_agree() {
        let _guard = dna::simd::override_guard();
        // Deterministic xorshift corpus: varied lengths straddling word
        // boundaries plus low-complexity tails.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut read_of = |len: usize, tail_a: usize| {
            let mut s = String::new();
            for i in 0..len {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let ch = if i + tail_a >= len {
                    'A'
                } else {
                    ['A', 'C', 'G', 'T'][(state >> 33) as usize % 4]
                };
                s.push(ch);
            }
            s
        };
        let reads: Vec<String> = [31, 32, 33, 63, 64, 65, 200]
            .iter()
            .flat_map(|&len| [read_of(len, 0), read_of(len, len / 3)])
            .collect();
        for (k, p) in [(5, 1), (7, 7), (15, 7), (31, 16), (33, 32), (64, 32), (45, 13)] {
            dna::simd::set_force_scalar_override(Some(true));
            let mut generic = MinimizerCursor::new(k, p).unwrap();
            dna::simd::set_force_scalar_override(Some(false));
            let mut fast = MinimizerCursor::new(k, p).unwrap();
            dna::simd::set_force_scalar_override(None);
            assert!(!generic.fast && fast.fast, "construction must capture the mode");
            for r in &reads {
                let read = seq(r);
                assert_eq!(
                    collect_runs(&mut fast, &read),
                    collect_runs(&mut generic, &read),
                    "k={k} p={p} read={r}"
                );
            }
        }
    }

    #[test]
    fn leading_minimizer_matches_brute_force() {
        use crate::{encode_superkmer, Superkmer, SuperkmerView};
        let shapes = [(1, 1), (27, 11), (31, 31), (32, 32), (33, 32), (70, 17)];
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for (k, p) in shapes {
            for _ in 0..25 {
                let mut read = PackedSeq::new();
                for _ in 0..k + 3 {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    read.push(dna::Base::from_code((state >> 40) as u8));
                }
                let want = minimizer_of_kmer(&read.kmer_at(0, k).unwrap(), p);
                let mut buf = Vec::new();
                encode_superkmer(&Superkmer::new(read, want, k, None, None), &mut buf);
                let (view, _) = SuperkmerView::parse(&buf, k).unwrap();
                let got = leading_minimizer_u64(view.code_words(), k, p);
                assert_eq!(got, want, "k={k} p={p}");
            }
        }
    }

    #[test]
    fn minimizer_word_matches_brute_force() {
        let shapes = [(1, 1), (27, 11), (31, 31), (32, 1), (32, 32), (33, 32), (33, 11), (70, 17)];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for (k, p) in shapes {
            for _ in 0..25 {
                let mut read = PackedSeq::new();
                for _ in 0..k {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    read.push(dna::Base::from_code((state >> 40) as u8));
                }
                let kmer = read.kmer_at(0, k).unwrap();
                let want = minimizer_of_kmer(&kmer, p);
                assert_eq!(minimizer_word_u64(kmer.words(), k, p), want.words()[0], "k={k} p={p}");
            }
        }
    }

    #[test]
    fn wide_p_uses_generic_path() {
        let cursor = MinimizerCursor::new(80, 40).unwrap();
        assert!(!cursor.fast, "p > 32 cannot take the single-word path");
    }

    #[test]
    fn larger_p_fragments_runs_more() {
        // The paper's Fig 6 observation: larger P ⇒ more, shorter superkmer
        // runs. Here: more distinct adjacent-minimizer changes.
        let read = seq(&"ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGT".repeat(4));
        let changes = |p: usize| {
            let mins = MinimizerScanner::new(15, p).unwrap().scan(&read);
            mins.windows(2).filter(|w| w[0] != w[1]).count()
        };
        assert!(changes(13) >= changes(5), "larger P should fragment at least as much");
    }
}
