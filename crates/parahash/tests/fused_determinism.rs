//! Fused-vs-two-phase equivalence: the fused Step-1→Step-2 pipeline
//! (in-memory partition handoff with bounded spill, streaming Step-2
//! scheduler, pooled hash tables) must build a graph **byte-identical**
//! to the classic two-phase flow — across CPU thread counts and across
//! the whole budget spectrum (all-spill, mixed, all-resident) — while
//! honouring the resident-byte budget, and must preserve the two-phase
//! quarantine semantics when a spilled partition file is corrupted
//! mid-run.

use std::path::PathBuf;
use std::sync::Mutex;

use datagen::{GenomeSpec, Sequencer, SequencingSpec};
use dna::SeqRead;
use parahash::{ParaHash, ParaHashConfig, RunOutcome};
use pipeline::{IoMode, IoOp, ThrottledIo};

#[path = "../../../tests/support/lookup_parity.rs"]
mod lookup_parity;

const K: usize = 15;
const P: usize = 7;
const PARTS: usize = 12;

fn corpus() -> Vec<SeqRead> {
    let genome = GenomeSpec::new(3_000).seed(42).repeat_fraction(0.3).generate();
    let spec = SequencingSpec {
        read_len: 80,
        coverage: 5.0,
        lambda: 1.0,
        reverse_strand_prob: 0.5,
        seed: 42,
    };
    Sequencer::new(spec).sequence(&genome)
}

fn config(dir: &str, threads: usize, budget: u64, strict: bool) -> ParaHashConfig {
    let cfg = ParaHashConfig::builder()
        .k(K)
        .p(P)
        .partitions(PARTS)
        .cpu_threads(threads)
        .read_batch_bytes(1024)
        .partition_memory_budget(budget)
        .strict(strict)
        .io_mode(IoMode::Unthrottled)
        .work_dir(std::env::temp_dir().join(dir))
        .build()
        .unwrap();
    let _ = std::fs::remove_dir_all(cfg.work_dir());
    cfg
}

fn spill_files(cfg: &ParaHashConfig) -> Vec<usize> {
    let dir = cfg.work_dir().join("superkmers");
    (0..PARTS).filter(|i| dir.join(format!("part-{i:05}.skm")).exists()).collect()
}

#[test]
fn fused_matches_two_phase_across_threads_and_budgets() {
    let reads = corpus();
    let reference = {
        let cfg = config("parahash-fused-ref", 4, 0, true);
        let ph = ParaHash::new(cfg).unwrap();
        let out = ph.run(&reads).unwrap();
        std::fs::remove_dir_all(ph.config().work_dir()).unwrap();
        out
    };
    assert!(reference.graph.distinct_vertices() > 100, "corpus too small to be meaningful");

    for threads in [1usize, 2, 4, 8] {
        for (name, budget) in [("spill", 0u64), ("tiny", 1024), ("huge", u64::MAX)] {
            let cfg = config(&format!("parahash-fused-t{threads}-{name}"), threads, budget, true);
            let ph = ParaHash::new(cfg).unwrap();
            let fused: RunOutcome = ph.run_fused(&reads).unwrap();
            assert_eq!(
                fused.graph, reference.graph,
                "fused (threads={threads}, budget={name}) diverged from two-phase"
            );

            // The budget invariant, as observed by the run report.
            let peak = fused.report.step1.peak_resident_store_bytes;
            assert!(
                peak <= budget,
                "resident peak {peak} exceeds budget {budget} (threads={threads})"
            );
            let spilled = spill_files(ph.config());
            match budget {
                0 => {
                    assert_eq!(peak, 0, "budget 0 must never hold resident bytes");
                    assert!(!spilled.is_empty(), "budget 0 must leave spill files");
                }
                1024 => {
                    assert!(peak > 0, "a non-zero budget should stage some bytes");
                    assert!(!spilled.is_empty(), "a tiny budget must spill the overflow");
                }
                _ => {
                    assert!(peak > 0);
                    assert!(
                        spilled.is_empty(),
                        "unbounded budget must not touch the disk, found {spilled:?}"
                    );
                    // ... and the manifest records every partition resident.
                    let manifest =
                        msp::PartitionManifest::load(ph.config().work_dir().join("superkmers"))
                            .unwrap();
                    let residency = manifest.residency().expect("store manifests carry residency");
                    assert!(residency.iter().all(|&r| r), "all partitions resident");
                }
            }
            std::fs::remove_dir_all(ph.config().work_dir()).unwrap();
        }
    }
}

/// Every in-process build mode answers lookups like the reference, for
/// k on both sides of the one-word (k ≤ 32) limit: two-phase, fused and
/// forced sub-split graphs are absorbed into one shard per partition,
/// so a vertex routed to the wrong shard fails a lookup here even though
/// iteration would still find it.
#[test]
fn build_modes_answer_lookups_like_the_reference_across_k() {
    let reads = corpus();
    for k in [27usize, 31, 32, 33] {
        let reference = baselines::reference_graph(&reads, k);
        // (mode, table budget, fused): a 16 KiB budget sub-splits every
        // partition.
        let modes = [
            ("two-phase", None, false),
            ("fused", None, true),
            ("forced-sub-split", Some(16u64 << 10), false),
        ];
        for (mode, budget, fused) in modes {
            let mut b = ParaHashConfig::builder()
                .k(k)
                .p(P)
                .partitions(PARTS)
                .cpu_threads(2)
                .work_dir(std::env::temp_dir().join(format!("parahash-lookup-{mode}-k{k}")));
            if let Some(budget) = budget {
                b = b.table_memory_budget(budget).out_of_core(true);
            }
            let cfg = b.build().unwrap();
            let _ = std::fs::remove_dir_all(cfg.work_dir());
            let ph = ParaHash::new(cfg).unwrap();
            let out = if fused { ph.run_fused(&reads) } else { ph.run(&reads) }.unwrap();
            if budget.is_some() {
                assert!(!out.report.step2.sub_splits.is_empty(), "k={k}: no partition split");
            }
            lookup_parity::assert_lookup_parity(&out.graph, &reference, &format!("{mode}, k={k}"));
            let _ = std::fs::remove_dir_all(ph.config().work_dir());
        }
    }
}

#[test]
fn fused_fastq_matches_two_phase_streaming() {
    let reads = corpus();
    let path = std::env::temp_dir().join(format!("parahash-fused-{}.fastq", std::process::id()));
    {
        let mut w = dna::FastqWriter::new(std::fs::File::create(&path).unwrap());
        for r in &reads {
            w.write_record(r).unwrap();
        }
        w.into_inner().unwrap().sync_all().unwrap();
    }
    let two_phase = {
        let cfg = config("parahash-fusedfq-ref", 2, 0, true);
        let ph = ParaHash::new(cfg).unwrap();
        let out = ph.run_fastq_streaming(&path).unwrap();
        std::fs::remove_dir_all(ph.config().work_dir()).unwrap();
        out
    };
    for budget in [0u64, 1024, u64::MAX] {
        let cfg = config(&format!("parahash-fusedfq-{budget:x}"), 2, budget, true);
        let ph = ParaHash::new(cfg).unwrap();
        let fused = ph.run_fused_fastq(&path).unwrap();
        assert_eq!(fused.graph, two_phase.graph, "fastq fused diverged at budget {budget}");
        std::fs::remove_dir_all(ph.config().work_dir()).unwrap();
    }
    std::fs::remove_file(&path).unwrap();
}

/// A fault hook that corrupts the *first* spilled partition file it sees
/// being read back (flips one payload byte, breaking the frame CRC32),
/// then lets the read proceed. Returns which file was hit.
fn corrupt_first_spill_read(io: &ThrottledIo) -> std::sync::Arc<Mutex<Option<PathBuf>>> {
    let victim: std::sync::Arc<Mutex<Option<PathBuf>>> =
        std::sync::Arc::new(Mutex::new(None));
    let seen = victim.clone();
    io.set_fault_hook(Box::new(move |path, op, attempt| {
        if op != IoOp::Read || attempt != 1 {
            return None;
        }
        let is_part = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("part-") && n.ends_with(".skm"));
        if !is_part {
            return None;
        }
        let mut guard = seen.lock().unwrap();
        if guard.is_none() {
            let mut bytes = std::fs::read(path).expect("victim spill file readable");
            assert!(bytes.len() > msp::FRAME_HEADER_LEN, "victim must hold a frame");
            bytes[msp::FRAME_HEADER_LEN] ^= 0xff;
            std::fs::write(path, &bytes).expect("victim spill file writable");
            *guard = Some(path.to_path_buf());
        }
        None
    }));
    victim
}

#[test]
fn fused_quarantines_corrupted_spill_in_non_strict_mode() {
    let reads = corpus();
    let cfg = config("parahash-fused-quarantine", 2, 0, false);
    let ph = ParaHash::new(cfg).unwrap();
    let io = ThrottledIo::new(IoMode::Unthrottled);
    let victim = corrupt_first_spill_read(&io);

    let fused = ph.run_fused_with_io(&reads, &io).unwrap();
    let victim = victim.lock().unwrap().clone().expect("a spill file must have been read");
    assert_eq!(fused.report.step2.quarantined.len(), 1, "exactly one partition set aside");
    let q = &fused.report.step2.quarantined[0];
    assert!(q.reason.contains("checksum mismatch"), "{}", q.reason);
    assert_eq!(
        victim.file_name().and_then(|n| n.to_str()).unwrap(),
        format!("part-{:05}.skm", q.index),
        "quarantined index must match the corrupted file"
    );

    // The graph is missing exactly the victim's k-mers, and the mark was
    // persisted into the on-disk manifest by the fused driver.
    let manifest = msp::PartitionManifest::load(ph.config().work_dir().join("superkmers")).unwrap();
    assert!(manifest.is_quarantined(q.index));
    assert_eq!(
        fused.graph.total_kmer_occurrences(),
        manifest.total_kmers() - manifest.stats()[q.index].kmers
    );
    assert!(fused.report.summary().contains("QUARANTINED"));
    std::fs::remove_dir_all(ph.config().work_dir()).unwrap();
}

#[test]
fn fused_strict_mode_aborts_on_corrupted_spill() {
    let reads = corpus();
    let cfg = config("parahash-fused-strictspill", 2, 0, true);
    let ph = ParaHash::new(cfg).unwrap();
    let io = ThrottledIo::new(IoMode::Unthrottled);
    let victim = corrupt_first_spill_read(&io);

    let result = ph.run_fused_with_io(&reads, &io);
    assert!(result.is_err(), "strict mode must surface spill corruption as an error");
    assert!(victim.lock().unwrap().is_some(), "the fault must actually have fired");
    let _ = std::fs::remove_dir_all(ph.config().work_dir());
}
