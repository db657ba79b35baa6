//! Two facts Step 2 relies on without checking them at run time:
//!
//! * **Routing invariant.** Every vertex of the subgraph Step 2 builds in
//!   process from partition `i` routes to partition `i`, so the output
//!   stage absorbs it into shard `i` unrouted. Checked on every persisted
//!   subgraph of single-table, forced sub-split, fused and sim-GPU builds,
//!   for k ∈ {27, 31, 32, 33} and one cell with p > 32, over reads with N
//!   bases. Debug builds also assert the route per vertex as it is
//!   absorbed, and the lookup-parity check fails on any vertex stored in
//!   the wrong shard.
//! * **Learned table sizes never change the bytes.** A sparse partition
//!   built first teaches Step 2 a density that under-sizes a denser one
//!   built later; the retry chain must still produce the reference
//!   graph and byte-identical subgraph files.

use std::path::{Path, PathBuf};

use dna::SeqRead;
use hashgraph::{DeBruijnGraph, SubGraph};
use msp::PartitionRouter;
use parahash::{ParaHash, ParaHashConfig, ParaHashConfigBuilder, RunOutcome};

#[path = "support/lookup_parity.rs"]
mod lookup_parity;

const PARTITIONS: usize = 8;

/// Deterministic pseudo-random reads; every fifth read carries a run of
/// N bases (normalised to A, so the run is a homopolymer whose equal
/// p-mers tie for the minimizer).
fn reads_with_n(n: usize, len: usize, seed: u64) -> Vec<SeqRead> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    (0..n)
        .map(|i| {
            let mut seq: Vec<u8> = (0..len).map(|_| b"ACGT"[next() % 4]).collect();
            if i % 5 == 0 {
                let at = next() % (len - 12);
                seq[at..at + 12].fill(b'N');
            }
            SeqRead::from_ascii(format!("r{i}"), &seq)
        })
        .collect()
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parahash-routing-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn builder(dir: &Path, k: usize, p: usize, partitions: usize) -> ParaHashConfigBuilder {
    ParaHashConfig::builder()
        .k(k)
        .p(p)
        .partitions(partitions)
        .write_subgraphs(true)
        .work_dir(dir.to_path_buf())
}

/// Every partition's persisted subgraph, decoded.
fn persisted_subgraphs(dir: &Path, partitions: usize) -> Vec<(Vec<u8>, SubGraph)> {
    (0..partitions)
        .map(|i| {
            let path = dir.join("subgraphs").join(format!("sub-{i:05}.dbg"));
            let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let sub = parahash::decode_subgraph(&bytes).expect("persisted subgraph decodes");
            (bytes, sub)
        })
        .collect()
}

/// Checks the routing invariant (minimizer length `p`) on every
/// persisted subgraph, and the graph against the reference through every
/// lookup.
fn assert_routes_home(
    outcome: &RunOutcome,
    dir: &Path,
    reference: &DeBruijnGraph,
    p: usize,
    what: &str,
) {
    let router = PartitionRouter::new(PARTITIONS).unwrap();
    let mut vertices = 0;
    for (i, (_, sub)) in persisted_subgraphs(dir, PARTITIONS).iter().enumerate() {
        for (kmer, _) in sub.entries() {
            assert_eq!(router.route_kmer(kmer, p), i, "{what}: {kmer} built in partition {i}");
        }
        vertices += sub.len();
    }
    assert_eq!(vertices, reference.distinct_vertices(), "{what}: subgraphs cover the graph");
    lookup_parity::assert_lookup_parity(&outcome.graph, reference, what);
}

#[test]
fn in_process_subgraphs_route_to_their_own_partition() {
    let cells = [(27usize, 11usize), (31, 11), (32, 11), (33, 11), (40, 33)];
    for (c, &(k, p)) in cells.iter().enumerate() {
        let rs = reads_with_n(120, 90, 0xC0FFEE + c as u64);
        let reference = baselines::reference_graph(&rs, k);
        let single = |b: ParaHashConfigBuilder| b.cpu_threads(2);
        // A 4 KiB table budget: every non-trivial partition sub-splits.
        let split = |b: ParaHashConfigBuilder| {
            b.cpu_threads(2).table_memory_budget(4 << 10).out_of_core(true)
        };
        let gpu = |b: ParaHashConfigBuilder| {
            b.cpu_threads(1).sim_gpu(hetsim::SimGpuConfig {
                sm_count: 2,
                warp_size: 8,
                transfer: hetsim::TransferModel::instant(),
                ..Default::default()
            })
        };
        type Shape = fn(ParaHashConfigBuilder) -> ParaHashConfigBuilder;
        let modes: [(&str, Shape, bool); 4] =
            [("single", single, false), ("split", split, false), ("fused", single, true), ("gpu", gpu, false)];
        for (mode, shape, fused) in modes {
            let what = format!("{mode} k={k} p={p}");
            let dir = fresh_dir(&format!("{mode}-{k}-{p}"));
            let ph = ParaHash::new(shape(builder(&dir, k, p, PARTITIONS)).build().unwrap()).unwrap();
            let outcome = if fused { ph.run_fused(&rs) } else { ph.run(&rs) }
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            if mode == "split" {
                assert!(!outcome.report.step2.sub_splits.is_empty(), "{what}: nothing split");
            }
            assert_routes_home(&outcome, &dir, &reference, p, &what);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Reads whose every k-mer routes to partition `want` of `partitions`.
fn reads_in_partition(
    want: usize,
    count: usize,
    len: usize,
    (k, p, partitions): (usize, usize, usize),
    seed: u64,
) -> Vec<SeqRead> {
    let router = PartitionRouter::new(partitions).unwrap();
    let mut out = Vec::new();
    let mut batch = 0u64;
    while out.len() < count {
        for read in reads_with_n(256, len, seed.wrapping_add(batch)) {
            let home = read.seq().kmers(k).all(|kmer| router.route_kmer(&kmer.canonical().0, p) == want);
            if home && out.len() < count {
                out.push(read);
            }
        }
        batch += 1;
    }
    out
}

#[test]
fn learned_under_estimate_still_builds_the_reference_bytes() {
    let (k, p, partitions) = (15usize, 5usize, 2usize);
    // Partition 0 is built first (one device, index order) and is sparse:
    // 24 reads, each seen 40 times. Partition 1 is dense: 300 reads seen
    // twice, so its density is about 20× partition 0's and its learned
    // size overflows, while the Property-1 prior (λ = 2, α = 0.65) fits.
    let sparse = reads_in_partition(0, 24, 22, (k, p, partitions), 0x5A);
    let dense = reads_in_partition(1, 300, 22, (k, p, partitions), 0xD5);
    let mut rs = Vec::new();
    for _ in 0..40 {
        rs.extend(sparse.iter().cloned());
    }
    for _ in 0..2 {
        rs.extend(dense.iter().cloned());
    }
    let reference = baselines::reference_graph(&rs, k);

    let dir = fresh_dir("skewed");
    let config = builder(&dir, k, p, partitions).cpu_threads(1).build().unwrap();
    let outcome = ParaHash::new(config).unwrap().run(&rs).unwrap();
    assert!(
        outcome.report.step2.resizes >= 1,
        "the sparse partition's density must under-size the dense one"
    );
    assert_eq!(outcome.graph, reference);

    // Byte identity: each file is the reference's vertices of that
    // partition in the canonical encoding.
    let router = PartitionRouter::new(partitions).unwrap();
    for (i, (bytes, _)) in persisted_subgraphs(&dir, partitions).into_iter().enumerate() {
        let entries: Vec<_> = reference
            .iter()
            .filter(|(kmer, _)| router.route_kmer(kmer, p) == i)
            .map(|(kmer, data)| (*kmer, *data))
            .collect();
        let expected = parahash::encode_subgraph(&SubGraph::new(k, entries));
        assert!(bytes == expected, "partition {i}: subgraph file differs from the reference");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
