/// Inputs to the Property-1 graph-size estimate and the hash-table sizing
/// rule of §IV-A.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizingParams {
    /// Average sequencing errors per read (λ). The paper cites λ ∈ {1, 2}
    /// for real short-read data and uses λ = 2 in its experiments.
    pub lambda: f64,
    /// Hash-table load ratio α ∈ (0, 1]; the paper uses 0.5–0.8.
    pub alpha: f64,
}

impl Default for SizingParams {
    fn default() -> SizingParams {
        SizingParams { lambda: 2.0, alpha: 0.65 }
    }
}

/// Property 1: the expected number of distinct vertices in the De Bruijn
/// graph of `n_reads` length-`read_len` reads over a genome of
/// `genome_size` bp, with Poisson(λ) errors per read, is
/// `Θ(λ/4 · L·N + Ge)`.
///
/// Each sequencing error corrupts up to K k-mers, almost all of which
/// become *new* distinct (erroneous) vertices, so errors — not the genome
/// — dominate the graph size of deep read sets.
///
/// # Examples
///
/// ```
/// use hashgraph::expected_distinct_vertices;
///
/// // Error-free input: the graph is just the genome.
/// assert_eq!(expected_distinct_vertices(0.0, 100, 1_000, 10_000), 10_000.0);
/// // λ=2: the error term λ/4·L·N dominates.
/// let v = expected_distinct_vertices(2.0, 100, 1_000, 10_000);
/// assert_eq!(v, 0.5 * 100.0 * 1_000.0 + 10_000.0);
/// ```
pub fn expected_distinct_vertices(
    lambda: f64,
    read_len: usize,
    n_reads: usize,
    genome_size: usize,
) -> f64 {
    (lambda / 4.0) * read_len as f64 * n_reads as f64 + genome_size as f64
}

/// The §IV-A hash-table sizing rule for one partition: with `n_kmers`
/// k-mer occurrences routed to the partition, allocate
/// `λ/(4α) · n_kmers` slots.
///
/// Rationale: `Σᵢ n_kmersⁱ ≈ L·N`, Property 1 bounds the distinct
/// vertices of the whole graph by `λ/4 · L·N + Ge ≈ λ/4 · L·N`, and the
/// MSP cut spreads distinct vertices proportionally to each partition's
/// k-mer count; dividing by the load ratio α leaves open-addressing
/// headroom. Compared with the naive one-slot-per-occurrence allocation
/// this halves the table at λ = 2, α = 1 — the saving the paper quotes.
///
/// The returned capacity is never below 16 (probe headroom for tiny
/// partitions).
///
/// # Examples
///
/// ```
/// use hashgraph::{table_capacity_for, SizingParams};
///
/// let cap = table_capacity_for(1_000_000, SizingParams { lambda: 2.0, alpha: 0.5 });
/// assert_eq!(cap, 1_000_000); // 2/(4·0.5) = 1.0 × n_kmers
/// ```
///
/// # Panics
///
/// Panics if `alpha` is not in `(0, 1]` or `lambda` is negative.
pub fn table_capacity_for(n_kmers: u64, params: SizingParams) -> usize {
    assert!(params.alpha > 0.0 && params.alpha <= 1.0, "load ratio α must be in (0,1]");
    assert!(params.lambda >= 0.0, "λ cannot be negative");
    let slots = (params.lambda / (4.0 * params.alpha)) * n_kmers as f64;
    (slots.ceil() as usize).max(16)
}

/// Projected allocation size of the Property-1 table a partition with
/// `n_kmers` k-mer occurrences would need, in bytes — the §IV-A capacity
/// rule priced at [`SLOT_BYTES`](crate::SLOT_BYTES) per slot.
///
/// This is the out-of-core admission check: it can be computed from the
/// Step-1 manifest alone, *before* any table is allocated, and it equals
/// what [`ConcurrentDbgTable::approx_bytes`](crate::ConcurrentDbgTable::approx_bytes)
/// would report for a table sized by [`table_capacity_for`] — so a
/// partition that passes the projection also fits the budget once built
/// (capacity-doubling retries on pathological inputs excepted).
///
/// # Examples
///
/// ```
/// use hashgraph::{projected_table_bytes, table_capacity_for, SizingParams};
///
/// let params = SizingParams::default();
/// let projected = projected_table_bytes(1_000_000, params);
/// assert_eq!(projected, table_capacity_for(1_000_000, params) as u64 * 98);
/// ```
///
/// # Panics
///
/// Panics if `alpha` is not in `(0, 1]` or `lambda` is negative.
pub fn projected_table_bytes(n_kmers: u64, params: SizingParams) -> u64 {
    table_capacity_for(n_kmers, params) as u64 * crate::table::SLOT_BYTES as u64
}

/// Headroom a learned table size keeps over the worst vertex density
/// measured so far (see [`learned_table_capacity`]). A fixed constant:
/// with the default α = 0.65 the densest partition seen so far lands at
/// a load of about 0.43 before the pool rounds the size up.
pub const LEARNED_HEADROOM: f64 = 1.5;

/// Table capacity for a partition of `n_kmers` k-mer occurrences when the
/// tables already built in the same run held at most `density` distinct
/// vertices per occurrence: `density · n_kmers · LEARNED_HEADROOM / α`,
/// never below the 16-slot floor and never above the Property-1
/// [`table_capacity_for`] prior.
///
/// Property 1 sizes for λ errors per read; real partitions are often
/// much denser in duplicates (deep coverage), so the prior can leave a
/// table mostly empty and out of cache. A density measured on this run's
/// own data replaces the prior once one table exists. A later partition
/// denser than every earlier one can still overflow its learned table;
/// Step 2 then retries at the prior before doubling.
///
/// # Examples
///
/// ```
/// use hashgraph::{learned_table_capacity, table_capacity_for, SizingParams};
///
/// let params = SizingParams::default();
/// let learned = learned_table_capacity(1_000_000, 0.1, params);
/// assert!(learned < table_capacity_for(1_000_000, params));
/// // Never more than the prior, however dense the data.
/// assert_eq!(learned_table_capacity(1_000_000, 1.0, params), table_capacity_for(1_000_000, params));
/// ```
///
/// # Panics
///
/// Panics if `alpha` is not in `(0, 1]` or `lambda` is negative.
pub fn learned_table_capacity(n_kmers: u64, density: f64, params: SizingParams) -> usize {
    let prior = table_capacity_for(n_kmers, params);
    let slots = (density.max(0.0) * n_kmers as f64 * LEARNED_HEADROOM / params.alpha).ceil();
    // `as` saturates, and NaN maps to 0: both end up inside the clamp.
    (slots as usize).clamp(16, prior)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_free_graph_is_genome_sized() {
        assert_eq!(expected_distinct_vertices(0.0, 101, 37_000, 88_000), 88_000.0);
    }

    #[test]
    fn error_term_scales_linearly_with_input() {
        let base = expected_distinct_vertices(1.0, 100, 1000, 0);
        let double_reads = expected_distinct_vertices(1.0, 100, 2000, 0);
        let double_lambda = expected_distinct_vertices(2.0, 100, 1000, 0);
        assert_eq!(double_reads, 2.0 * base);
        assert_eq!(double_lambda, 2.0 * base);
    }

    #[test]
    fn paper_scale_sanity() {
        // Human Chr14: λ≈1, L=101, N=37M, Ge=88M. Paper measured 452M
        // distinct vertices; the Θ-bound should be the right order.
        let est = expected_distinct_vertices(1.0, 101, 37_000_000, 88_000_000);
        let measured = 452_000_000.0;
        assert!(est > measured / 3.0 && est < measured * 10.0, "estimate {est} wildly off");
    }

    #[test]
    fn capacity_halves_at_lambda_two_alpha_one() {
        let naive = 1_000_000u64; // one slot per kmer occurrence
        let cap = table_capacity_for(naive, SizingParams { lambda: 2.0, alpha: 1.0 });
        assert_eq!(cap, naive as usize / 2);
    }

    #[test]
    fn capacity_has_floor() {
        assert_eq!(table_capacity_for(0, SizingParams::default()), 16);
        assert_eq!(table_capacity_for(3, SizingParams::default()), 16);
    }

    #[test]
    fn lower_alpha_means_more_headroom() {
        let tight = table_capacity_for(10_000, SizingParams { lambda: 2.0, alpha: 0.8 });
        let loose = table_capacity_for(10_000, SizingParams { lambda: 2.0, alpha: 0.5 });
        assert!(loose > tight);
    }

    #[test]
    #[should_panic(expected = "load ratio")]
    fn invalid_alpha_panics() {
        table_capacity_for(10, SizingParams { lambda: 1.0, alpha: 0.0 });
    }

    #[test]
    #[should_panic(expected = "λ cannot be negative")]
    fn negative_lambda_panics() {
        table_capacity_for(10, SizingParams { lambda: -1.0, alpha: 0.5 });
    }

    #[test]
    fn projection_matches_allocated_table() {
        // The admission check and the post-allocation meter must agree:
        // what the projection promises is what approx_bytes() charges.
        for n_kmers in [0u64, 3, 1_000, 123_456] {
            let params = SizingParams::default();
            let projected = projected_table_bytes(n_kmers, params);
            let table =
                crate::ConcurrentDbgTable::new(table_capacity_for(n_kmers, params), 27);
            assert_eq!(projected, table.approx_bytes() as u64, "n_kmers={n_kmers}");
        }
    }

    #[test]
    fn learned_capacity_never_exceeds_the_prior() {
        let params_set = [
            SizingParams::default(),
            SizingParams { lambda: 2.0, alpha: 1.0 },
            SizingParams { lambda: 1e-9, alpha: 1.0 },
            SizingParams { lambda: 8.0, alpha: 0.1 },
        ];
        let densities = [0.0, 1e-6, 0.01, 0.08, 0.3, 0.5, 1.0, 4.0, f64::INFINITY, f64::NAN];
        for params in params_set {
            for n_kmers in [0u64, 1, 15, 16, 1_000, 262_144, 10_000_000, u64::MAX >> 8] {
                let prior = table_capacity_for(n_kmers, params);
                for density in densities {
                    let learned = learned_table_capacity(n_kmers, density, params);
                    assert!(learned <= prior, "{n_kmers} kmers at {density}: {learned} > {prior}");
                    assert!(learned >= 16.min(prior), "{n_kmers} kmers at {density}: {learned}");
                }
            }
        }
        // A sparse density shrinks the table; the headroom is kept.
        let params = SizingParams::default();
        let learned = learned_table_capacity(1_000_000, 0.08, params);
        assert!(learned < table_capacity_for(1_000_000, params) / 4, "{learned}");
        assert!(learned as f64 >= 0.08 * 1_000_000.0 * LEARNED_HEADROOM / params.alpha);
    }

    #[test]
    fn projection_scales_with_input() {
        let params = SizingParams::default();
        let one = projected_table_bytes(1_000_000, params);
        let two = projected_table_bytes(2_000_000, params);
        assert!(two >= 2 * one - crate::SLOT_BYTES as u64 && two <= 2 * one);
    }
}
