//! Multi-process Step 2 (`workers(N)`): the sharded build — real child
//! processes claiming partitions over the Unix-socket lease protocol —
//! must produce a graph and persisted subgraph files **byte-identical**
//! to the in-process build's, for every worker count, with and without
//! a table budget that forces out-of-core sub-partitioning inside the
//! workers.
//!
//! Workers are this test binary re-exec'ed with
//! `shard_worker_entry --exact` (the `crash_recovery.rs` self-exec
//! pattern): the parent passes socket/worker-id through the
//! environment, and [`parahash::worker_from_env`] routes the child into
//! the worker loop.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use dna::SeqRead;
use parahash::{ParaHash, ParaHashConfig, RunJournal};

#[path = "support/lookup_parity.rs"]
mod lookup_parity;

const K: usize = 15;
const P: usize = 5;
const PARTITIONS: usize = 8;

/// The worker half: a no-op when run as an ordinary test, the shard
/// worker loop when the parent's environment says so.
#[test]
fn shard_worker_entry() {
    parahash::worker_from_env().expect("worker run");
}

fn reads() -> Vec<SeqRead> {
    let mut state: u64 = 0xDEAD_BEEF_CAFE_F00D;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    (0..400)
        .map(|i| {
            let seq: Vec<u8> = (0..90).map(|_| b"ACGT"[(next() % 4) as usize]).collect();
            SeqRead::from_ascii(format!("r{i}"), &seq)
        })
        .collect()
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parahash-shard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path, workers: usize, budget: Option<u64>) -> ParaHashConfig {
    config_with_k(dir, K, workers, budget)
}

fn config_with_k(dir: &Path, k: usize, workers: usize, budget: Option<u64>) -> ParaHashConfig {
    let mut b = ParaHashConfig::builder()
        .k(k)
        .p(P)
        .partitions(PARTITIONS)
        .cpu_threads(2)
        .write_subgraphs(true)
        .workers(workers)
        .worker_spawn_args(["shard_worker_entry", "--exact", "--nocapture"])
        .work_dir(dir.to_path_buf());
    if let Some(budget) = budget {
        b = b.table_memory_budget(budget);
    }
    b.build().expect("valid config")
}

fn subgraph_bytes(dir: &Path) -> BTreeMap<usize, Vec<u8>> {
    (0..PARTITIONS)
        .map(|i| {
            let path = dir.join("subgraphs").join(format!("sub-{i:05}.dbg"));
            (i, std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display())))
        })
        .collect()
}

#[test]
fn sharded_build_is_byte_identical_to_in_process() {
    let rs = reads();
    let ref_dir = fresh_dir("ref");
    let reference = ParaHash::new(config(&ref_dir, 0, None)).unwrap().run(&rs).unwrap();
    let ref_bytes = subgraph_bytes(&ref_dir);

    for workers in [1usize, 2, 4] {
        let dir = fresh_dir(&format!("w{workers}"));
        let sharded = ParaHash::new(config(&dir, workers, None)).unwrap().run(&rs).unwrap();
        assert_eq!(sharded.graph, reference.graph, "graph with {workers} worker(s)");
        assert_eq!(
            subgraph_bytes(&dir),
            ref_bytes,
            "subgraph files with {workers} worker(s) must be byte-identical"
        );
        assert!(sharded.report.step2.quarantined.is_empty());
        assert_eq!(sharded.report.step2.pipeline.partitions, PARTITIONS);

        // The parent's journal carries the lease log: every partition
        // was leased at least once, to a real worker id.
        let state = RunJournal::replay(&dir).unwrap();
        let leased: std::collections::BTreeSet<usize> =
            state.leases.iter().map(|&(_, p)| p).collect();
        assert_eq!(leased.len(), PARTITIONS, "every partition must appear in the lease log");
        assert!(state.leases.iter().all(|&(w, _)| w < workers), "{:?}", state.leases);
        assert!(state.complete, "sharded run must journal run-complete");

        // Each worker left its own journal behind — except over TCP
        // (the CI loopback rerun sets PARAHASH_SHARD_TRANSPORT=tcp),
        // where workers are treated as remote and journal into their
        // own scratch directories instead of the parent's work dir.
        let tcp = std::env::var("PARAHASH_SHARD_TRANSPORT").is_ok_and(|v| v == "tcp");
        for w in 0..workers {
            assert!(
                tcp || RunJournal::exists(&dir.join(format!("worker-{w}"))),
                "worker {w} journal missing"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// Sharding composed with the out-of-core path: a budget that forces
/// sub-partitioning *inside the workers* must still match the
/// unconstrained in-process reference byte for byte, and the sub-split
/// marks must flow back into the parent's report and manifest.
#[test]
fn sharded_build_with_forced_splits_matches_reference() {
    let rs = reads();
    let ref_dir = fresh_dir("budget-ref");
    let reference = ParaHash::new(config(&ref_dir, 0, None)).unwrap().run(&rs).unwrap();
    let ref_bytes = subgraph_bytes(&ref_dir);

    let dir = fresh_dir("budget-w2");
    let sharded = ParaHash::new(config(&dir, 2, Some(16 << 10))).unwrap().run(&rs).unwrap();
    assert_eq!(sharded.graph, reference.graph);
    assert_eq!(subgraph_bytes(&dir), ref_bytes);
    assert!(
        !sharded.report.step2.sub_splits.is_empty(),
        "tight budget must force sub-partitioning in the workers"
    );
    let manifest = msp::PartitionManifest::load(dir.join("superkmers")).unwrap();
    for &(i, fanout) in &sharded.report.step2.sub_splits {
        assert_eq!(manifest.sub_split(i), Some(fanout), "manifest mark for partition {i}");
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The sharded build's graph answers every lookup like the reference,
/// for k on both sides of the one-word (k ≤ 32) limit. Its subgraphs
/// are absorbed into one shard per partition, so a vertex routed to the
/// wrong shard would pass the content comparison above and fail here.
#[test]
fn sharded_graph_lookups_match_reference_across_k() {
    let rs = reads();
    for k in [27usize, 31, 32, 33] {
        let dir = fresh_dir(&format!("lookup-k{k}"));
        let sharded =
            ParaHash::new(config_with_k(&dir, k, 1, None)).unwrap().run(&rs).unwrap();
        lookup_parity::assert_lookup_parity(
            &sharded.graph,
            &baselines::reference_graph(&rs, k),
            &format!("workers(1), k={k}"),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
