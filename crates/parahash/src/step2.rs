use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use hashgraph::{
    learned_table_capacity, table_capacity_for, ContentionStats, DeBruijnGraph, HashGraphError,
    ReplayKernel, SubGraph, TablePool, VertexTable,
};
use hetsim::{Device, DeviceKind};
use msp::{
    PartitionManifest, PartitionSlices, QuarantinedPartition, SealedPartition, SealedPayload,
};
use parking_lot::Mutex;
use pipeline::{
    failpoint, run_coprocessed_streaming_steered, run_coprocessed_with, CancelToken,
    PipelineReport, SharedCounterQueue, SplitTuner, ThrottledIo, TunerWarmStart,
};

use crate::journal::{JournalEvent, RunJournal};
use crate::once_error::OnceError;
use crate::report::CoprocSummary;
use crate::step1::{device_baselines, device_deltas, split_device_times};
use crate::{ParaHashConfig, ParaHashError, Result, StepReport};

/// Output of one Step-2 compute launch. `None` marks a partition whose
/// failure was already recorded (fatal error or quarantine) — the output
/// stage must neither absorb nor persist it.
struct Part2Out {
    subgraph: SubGraph,
    contention: ContentionStats,
    resizes: usize,
}

/// Bytes per vertex in the serialised subgraph format (4 × u64 key words,
/// count, 8 edge counters).
const VERTEX_BYTES: usize = 32 + 4 + 32;

/// Hard cap on the out-of-core sub-partition fanout. A tiny table budget
/// against a huge partition would otherwise ask for thousands of
/// sub-buffers whose per-sub framing and bookkeeping dwarf the split's
/// benefit; past this point each sub-table simply runs over budget (the
/// split is best-effort, never recursive — see
/// [`Step2Shared::build_split`]).
const MAX_SUB_FANOUT: usize = 256;

/// Serialises a subgraph to the on-disk format: little-endian,
/// fixed-width records preceded by a u64 count and a u8 k, followed by a
/// u32 CRC32 trailer over everything before it (so bit-rot in a persisted
/// subgraph is detected on reload, mirroring the partition-file frames).
///
/// Records are written in **canonical (sorted-by-k-mer) order**, not the
/// hash table's slot order: slot order depends on insertion interleaving
/// under multithreaded construction, and the crash-recovery guarantee is
/// that a resumed run's subgraph files are *byte-identical* to an
/// uninterrupted run's — only a canonical order survives that comparison.
pub fn encode_subgraph(sub: &SubGraph) -> Vec<u8> {
    let entries = sub.entries();
    // One pass over a buffer sized up front: every record has a fixed
    // width and a fixed offset once the order is known.
    let mut out = vec![0u8; 9 + entries.len() * VERTEX_BYTES + 4];
    out[..8].copy_from_slice(&(entries.len() as u64).to_le_bytes());
    out[8] = sub.k() as u8;
    let records = out[9..9 + entries.len() * VERTEX_BYTES].chunks_exact_mut(VERTEX_BYTES);
    if sub.k() <= 32 {
        // Every key is one word with words 1–3 zero, so k-mer order is
        // the order of word 0 (vertices are distinct, so no ties): sort
        // 16-byte `(word0, index)` pairs instead of 40-byte keys.
        let mut order: Vec<(u64, usize)> =
            entries.iter().enumerate().map(|(i, (kmer, _))| (kmer.words()[0], i)).collect();
        order.sort_unstable();
        for (record, &(_, i)) in records.zip(&order) {
            write_record(record, &entries[i]);
        }
    } else {
        let mut order: Vec<&(dna::Kmer, hashgraph::VertexData)> = entries.iter().collect();
        order.sort_unstable_by_key(|(kmer, _)| *kmer);
        for (record, entry) in records.zip(order) {
            write_record(record, entry);
        }
    }
    let body = out.len() - 4;
    let crc = msp::crc32(&out[..body]);
    out[body..].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Writes one `VERTEX_BYTES` record: 4 key words, count, 8 edge counters.
#[inline]
fn write_record(record: &mut [u8], (kmer, data): &(dna::Kmer, hashgraph::VertexData)) {
    let (key, counters) = record.split_at_mut(32);
    for (bytes, w) in key.chunks_exact_mut(8).zip(kmer.words()) {
        bytes.copy_from_slice(&w.to_le_bytes());
    }
    let values = std::iter::once(&data.count).chain(&data.edges);
    for (bytes, v) in counters.chunks_exact_mut(4).zip(values) {
        bytes.copy_from_slice(&v.to_le_bytes());
    }
}

/// Parses the format written by [`encode_subgraph`]. Used by tests and by
/// downstream consumers of persisted subgraphs.
///
/// Returns `None` when the buffer is truncated, fails its CRC32 trailer,
/// declares an invalid k-mer, or carries trailing bytes beyond the
/// declared record count — a short count with appended garbage is
/// corruption, not a smaller subgraph. When the caller needs to know
/// *why* a buffer was rejected, use [`decode_subgraph_checked`].
pub fn decode_subgraph(bytes: &[u8]) -> Option<SubGraph> {
    decode_subgraph_checked(bytes, None).ok()
}

/// [`decode_subgraph`] with a diagnosable error instead of `None`.
///
/// The error names the partition the subgraph belongs to (when the
/// caller supplies it), the byte offset at which the problem was
/// detected, and classifies the damage:
///
/// * **truncated tail** — the buffer ends before the bytes its header
///   promises; the expected signature of a crash mid-write (impossible
///   for files written through the atomic commit protocol, but persisted
///   subgraphs may come from elsewhere).
/// * **interior corruption** — the length bookkeeping is intact but the
///   content is not (CRC32 trailer mismatch, invalid k-mer, undeclared
///   trailing bytes): bit-rot or tampering, not a torn write.
///
/// # Errors
///
/// [`ParaHashError::Msp`] wrapping [`msp::MspError::CorruptRecord`] with
/// the offset and classification above.
pub fn decode_subgraph_checked(bytes: &[u8], partition: Option<usize>) -> Result<SubGraph> {
    let bad = |offset: usize, fault: &str, detail: String| -> ParaHashError {
        let whose = match partition {
            Some(i) => format!("subgraph for partition {i}, "),
            None => String::new(),
        };
        ParaHashError::Msp(msp::MspError::CorruptRecord {
            offset: offset as u64,
            reason: format!("{whose}byte {offset}: {fault} — {detail}"),
        })
    };
    // u64 count + u8 k + u32 crc is the minimum (empty) encoding.
    if bytes.len() < 9 + 4 {
        return Err(bad(
            bytes.len(),
            "truncated tail",
            format!("{} bytes is shorter than the minimal (13-byte) empty encoding", bytes.len()),
        ));
    }
    let n = u64::from_le_bytes(bytes[..8].try_into().unwrap()) as usize;
    let k = bytes[8] as usize;
    let expected = 9usize.saturating_add(n.saturating_mul(VERTEX_BYTES)).saturating_add(4);
    if bytes.len() < expected {
        return Err(bad(
            bytes.len(),
            "truncated tail",
            format!(
                "header declares {n} record(s) ({expected} bytes total) but the buffer holds {}",
                bytes.len()
            ),
        ));
    }
    if bytes.len() > expected {
        return Err(bad(
            expected,
            "interior corruption",
            format!("{} byte(s) beyond the declared {n} record(s)", bytes.len() - expected),
        ));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(trailer.try_into().unwrap());
    let computed = msp::crc32(body);
    if computed != stored {
        return Err(bad(
            body.len(),
            "interior corruption",
            format!("CRC32 trailer mismatch (stored {stored:#010x}, computed {computed:#010x})"),
        ));
    }
    let mut offset = 9;
    let mut entries = Vec::with_capacity(n);
    for rec in 0..n {
        let record_start = offset;
        let mut words = [0u64; 4];
        for w in &mut words {
            *w = u64::from_le_bytes(body[offset..offset + 8].try_into().unwrap());
            offset += 8;
        }
        let kmer = dna::Kmer::from_words(words, k).map_err(|e| {
            bad(record_start, "interior corruption", format!("record {rec}: invalid k-mer: {e}"))
        })?;
        let count = u32::from_le_bytes(body[offset..offset + 4].try_into().unwrap());
        offset += 4;
        let mut edges = [0u32; 8];
        for e in &mut edges {
            *e = u32::from_le_bytes(body[offset..offset + 4].try_into().unwrap());
            offset += 4;
        }
        entries.push((kmer, hashgraph::VertexData { count, edges }));
    }
    Ok(SubGraph::new(k, entries))
}

/// Step 2 of ParaHash: pipelined, co-processed subgraph construction.
///
/// Each superkmer partition is read from disk (checksummed frames are
/// verified in place), decoded, and replayed into a
/// [`ConcurrentDbgTable`] sized from the manifest's per-partition k-mer
/// count: by the Property-1 rule for the first table, then by the vertex
/// density the finished tables measured ([`learned_table_capacity`]),
/// never above the Property-1 size. On a GPU device, the encoded
/// partition pays the host→device transfer and the table reserves device
/// memory; the snapshot pays the device→host transfer.
///
/// Failure handling is two-tier:
///
/// * **Strict mode** (the default): the first fatal error cancels the
///   pipeline — remaining partitions are abandoned, partial subgraph
///   output is deleted, and the error is returned.
/// * **Non-strict mode**
///   ([`strict(false)`](crate::ParaHashConfigBuilder::strict)): a
///   partition whose file
///   cannot be read (after [`pipeline::RetryPolicy`] retries) or fails
///   its checksums is *quarantined* — recorded in the manifest and the
///   step report — and the run completes without its k-mers. Device and
///   hash-table failures stay fatal in both modes: they indicate the run
///   environment, not one bad file.
///
/// Returns the merged De Bruijn graph and the step report.
///
/// # Errors
///
/// Propagates partition-file corruption, I/O failures, and device-memory
/// exhaustion (the first two only in strict mode).
pub fn run_step2(
    config: &ParaHashConfig,
    manifest: &PartitionManifest,
    io: &ThrottledIo,
) -> Result<(DeBruijnGraph, StepReport)> {
    run_step2_with(config, manifest, io, None, &BTreeSet::new())
}

/// [`run_step2`] with crash-recovery hooks: an optional [`RunJournal`]
/// that receives a `subgraph-committed` record after every atomic
/// subgraph commit (and `quarantined` records at the end), and a `skip`
/// set of partitions whose subgraphs were already committed by an
/// interrupted run — they flow through the pipeline as no-ops and the
/// resume driver absorbs their persisted subgraphs instead.
pub(crate) fn run_step2_with(
    config: &ParaHashConfig,
    manifest: &PartitionManifest,
    io: &ThrottledIo,
    journal: Option<&RunJournal>,
    skip: &BTreeSet<usize>,
) -> Result<(DeBruijnGraph, StepReport)> {
    let n = manifest.num_partitions();
    let cancel = CancelToken::new();
    let density = VertexDensity::default();
    let shared = Step2Shared::new(config, &cancel, journal, &density)?;
    let mut graph = config.empty_graph();

    let pipeline_report = {
        let shared = &shared;
        let graph = &mut graph;
        run_coprocessed_with(
            n,
            config.devices(),
            &cancel,
            // Stage 1: load a partition file (pays input I/O, with
            // transient-error retries inside `ThrottledIo`). `None` is
            // the sentinel for an already-recorded failure — or, on a
            // resumed run, for a partition whose subgraph is already
            // committed and will be absorbed from disk by the driver.
            |i| {
                if skip.contains(&i) {
                    return None;
                }
                match io.read_file(manifest.partition_path(i)) {
                    Ok(bytes) => Some(bytes),
                    Err(e) => {
                        shared.partition_failed(i, ParaHashError::Io(e));
                        None
                    }
                }
            },
            // Stage 2: hash-construct the subgraph on an idle device.
            |device: &dyn Device, idx, bytes: Option<Vec<u8>>| {
                let Some(bytes) = bytes else {
                    return (None, 0);
                };
                shared.build(device, idx, &bytes, manifest.stats()[idx].kmers)
            },
            // Stage 3: absorb (and optionally persist) the subgraph.
            |idx, out: Option<Part2Out>| shared.consume(io, graph, idx, out),
        )
    };

    let (graph, report) = shared.finish(pipeline_report, graph, None)?;
    if !report.quarantined.is_empty() || !report.sub_splits.is_empty() {
        // Persist the quarantine and sub-split marks so any later
        // consumer of the partition directory knows which subgraphs are
        // missing and which were built out of core.
        let mut marked = manifest.clone();
        for q in &report.quarantined {
            marked.quarantine(q.index, q.reason.clone());
        }
        for &(i, fanout) in &report.sub_splits {
            marked.set_sub_split(i, fanout);
        }
        marked.save()?;
    }
    Ok((graph, report))
}

/// Streaming Step 2 for the fused pipeline: partitions arrive as
/// [`SealedPartition`]s over a [`SharedCounterQueue`] as Step 1 seals
/// them, instead of being enumerated from a finished manifest. Resident
/// payloads skip the disk entirely; spilled payloads are read back with
/// the usual retry policy. Shares all failure semantics with
/// [`run_step2`], except quarantine marks are *not* persisted here — the
/// fused driver owns the manifest and records them after the run.
///
/// Dispatch is **model-driven**: a [`SplitTuner`] executing the
/// configured [`crate::ParaHashConfigBuilder::split`] policy routes each
/// arriving partition to the CPU or GPU device class, feeding its rolling
/// `T_cpu`/`T_gpu`/`T_io` measurements back into the §IV model as the
/// stream progresses. `warm` seeds the tuner from a previous run's
/// journaled state so a resume starts at the converged split. The
/// tuner's final state is reported in [`StepReport::coproc`].
///
/// The caller is responsible for closing `feed` (abort) or finishing it
/// (end of stream); a fatal error in here cancels the shared token, which
/// the Step-1 side must observe.
///
/// # Errors
///
/// Same as [`run_step2`].
pub(crate) fn run_step2_streaming(
    config: &ParaHashConfig,
    feed: &SharedCounterQueue<SealedPartition>,
    io: &ThrottledIo,
    cancel: &CancelToken,
    journal: Option<&RunJournal>,
    skip: &BTreeSet<usize>,
    warm: Option<TunerWarmStart>,
) -> Result<(DeBruijnGraph, StepReport)> {
    let density = VertexDensity::default();
    let shared = Step2Shared::new(config, cancel, journal, &density)?;
    let mut graph = config.empty_graph();
    let n_gpus =
        config.devices().iter().filter(|d| d.kind() == DeviceKind::SimGpu).count();
    let tuner = SplitTuner::new(config.split, n_gpus, warm);

    let pipeline_report = {
        let shared = &shared;
        let graph = &mut graph;
        run_coprocessed_streaming_steered(
            feed,
            config.devices(),
            cancel,
            &tuner,
            // Stage 1: materialise the sealed payload. Resident bytes are
            // handed over by value — the fused win: no disk round-trip.
            // A partition in the resume `skip` set flows through as a
            // no-op; its committed subgraph is absorbed by the driver.
            |sealed: SealedPartition| {
                let idx = sealed.index;
                if skip.contains(&idx) {
                    return (idx, None);
                }
                let kmers = sealed.kmers;
                let bytes = match sealed.payload {
                    SealedPayload::Resident(bytes) => Some(bytes),
                    SealedPayload::Spilled(path) => match io.read_file(&path) {
                        Ok(bytes) => Some(bytes),
                        Err(e) => {
                            shared.partition_failed(idx, ParaHashError::Io(e));
                            None
                        }
                    },
                };
                (idx, bytes.map(|b| (b, kmers)))
            },
            // Stage 2: identical hash construction to the two-phase path.
            |device: &dyn Device, idx, input: Option<(Vec<u8>, u64)>| {
                let Some((bytes, kmers)) = input else {
                    return (None, 0);
                };
                shared.build(device, idx, &bytes, kmers)
            },
            |idx, out: Option<Part2Out>| shared.consume(io, graph, idx, out),
        )
    };
    shared.finish(pipeline_report, graph, Some(&tuner))
}

/// The worst distinct-vertices / k-mer-occurrence ratio measured over
/// the tables built so far — by one Step-2 run, or by one shard worker
/// across all its leases. Tables after the first are sized from it
/// ([`learned_table_capacity`]) instead of the Property-1 prior.
#[derive(Debug, Default)]
pub(crate) struct VertexDensity(AtomicU64);

impl VertexDensity {
    /// Folds in one finished table: `distinct` vertices from `n_kmers`
    /// occurrences.
    fn observe(&self, distinct: usize, n_kmers: u64) {
        if n_kmers > 0 {
            // Non-negative f64s order like their bit patterns, so the
            // integer max is the float max.
            let ratio = distinct as f64 / n_kmers as f64;
            self.0.fetch_max(ratio.to_bits(), Ordering::Relaxed);
        }
    }

    /// The worst ratio so far; `None` until a table with a vertex exists.
    fn worst(&self) -> Option<f64> {
        let bits = self.0.load(Ordering::Relaxed);
        (bits != 0).then(|| f64::from_bits(bits))
    }
}

/// The machinery both Step-2 entry points share: failure routing
/// (fatal-vs-quarantine), the pooled capacity-retry hash construction,
/// subgraph absorption/persistence, and report assembly.
struct Step2Shared<'a> {
    config: &'a ParaHashConfig,
    cancel: &'a CancelToken,
    /// Sizes every table after the first (see [`VertexDensity`]).
    density: &'a VertexDensity,
    /// Recycles table allocations across partitions (and across the
    /// capacity-retry rebuilds): the alloc+zero churn of one fresh
    /// `ConcurrentDbgTable` per partition becomes a handful of
    /// allocations total, because partition sizes cluster into a few
    /// capacity classes.
    pool: TablePool,
    total_contention: Mutex<ContentionStats>,
    total_resizes: AtomicUsize,
    peak_table: AtomicU64,
    peak_partition: AtomicU64,
    first_error: OnceError<ParaHashError>,
    quarantined: Mutex<Vec<QuarantinedPartition>>,
    /// `(partition, fanout)` for every partition whose projected table
    /// busted [`table_memory_budget`](crate::ParaHashConfigBuilder::table_memory_budget)
    /// and was built out of core through second-level sub-partitions.
    sub_splits: Mutex<Vec<(usize, usize)>>,
    sub_dir: PathBuf,
    /// When set, every durable state change (subgraph committed,
    /// partition quarantined) is appended to the run journal so a
    /// crashed run can be resumed without redoing the work.
    journal: Option<&'a RunJournal>,
    /// The replay dispatcher, built once per step: word-parallel
    /// single-`u64` fast path for k ≤ 32, scalar cursor otherwise (and
    /// under `PARAHASH_FORCE_SCALAR`, captured at construction).
    kernel: ReplayKernel,
    /// Device-metric snapshots taken at the *first* compute launch (not
    /// at construction): in the fused flow this struct exists while
    /// Step 1 still owns the shared device roster, but Step 2's first
    /// build strictly follows Step 1's last device call — so a lazy
    /// baseline fences Step 1's meters out of this step's window.
    baselines: OnceLock<Vec<hetsim::DeviceMetrics>>,
}

impl<'a> Step2Shared<'a> {
    fn new(
        config: &'a ParaHashConfig,
        cancel: &'a CancelToken,
        journal: Option<&'a RunJournal>,
        density: &'a VertexDensity,
    ) -> Result<Step2Shared<'a>> {
        let sub_dir = config.work_dir.join("subgraphs");
        if config.write_subgraphs {
            std::fs::create_dir_all(&sub_dir)?;
        }
        Ok(Step2Shared {
            config,
            cancel,
            density,
            journal,
            pool: TablePool::new(config.k),
            total_contention: Mutex::new(ContentionStats::default()),
            total_resizes: AtomicUsize::new(0),
            peak_table: AtomicU64::new(0),
            peak_partition: AtomicU64::new(0),
            first_error: OnceError::new(),
            quarantined: Mutex::new(Vec::new()),
            sub_splits: Mutex::new(Vec::new()),
            sub_dir,
            kernel: ReplayKernel::new(config.k),
            baselines: OnceLock::new(),
        })
    }

    /// The first *fatal* error cancels the whole pipeline so remaining
    /// partitions are abandoned instead of processed to completion.
    fn fatal(&self, e: ParaHashError) {
        self.first_error.set(e);
        self.cancel.cancel();
    }

    /// Partition-local failures (unreadable or corrupt file) either abort
    /// (strict) or set the partition aside and keep going.
    fn partition_failed(&self, idx: usize, e: ParaHashError) {
        if self.config.strict {
            self.fatal(e);
        } else {
            self.quarantined
                .lock()
                .push(QuarantinedPartition { index: idx, reason: e.to_string() });
        }
    }

    /// The compute stage: admit the partition against the per-table
    /// memory budget, then hash-construct — in one table when the
    /// Property-1 projection fits, or out of core through second-level
    /// sub-partitions when it does not.
    fn build(
        &self,
        device: &dyn Device,
        idx: usize,
        bytes: &[u8],
        n_kmers: u64,
    ) -> (Option<Part2Out>, u64) {
        self.baselines.get_or_init(|| device_baselines(self.config));
        self.peak_partition.fetch_max(bytes.len() as u64, Ordering::Relaxed);
        let projected = hashgraph::projected_table_bytes(n_kmers, self.config.sizing);
        let budget = self.config.table_memory_budget;
        if projected > budget {
            if !self.config.out_of_core {
                self.fatal(ParaHashError::TableOverBudget {
                    partition: idx,
                    projected_bytes: projected,
                    budget,
                });
                return (None, 0);
            }
            return self.build_split(device, idx, bytes, projected);
        }
        match self.build_one_table(device, idx, bytes, n_kmers) {
            Some((subgraph, contention, resizes)) => {
                let work = subgraph.len() as u64;
                (Some(Part2Out { subgraph, contention, resizes }), work)
            }
            None => (None, 0),
        }
    }

    /// Out-of-core build of one over-budget partition: split its records
    /// by the second-level minimizer hash ([`msp::split_framed`]), build
    /// each sub-partition with its own budget-sized table (one live at a
    /// time — that is the point), and concatenate the sub-entries. The
    /// sub-tables are key-disjoint because every copy of a k-mer shares a
    /// minimizer, so the merged entry set — and after the canonical sort
    /// in [`encode_subgraph`], the persisted bytes — is identical to the
    /// unsplit build's.
    ///
    /// The fanout is `ceil(projected / budget)`, clamped to
    /// [`MAX_SUB_FANOUT`]; splitting happens **exactly once** (sub-builds
    /// are never re-admitted against the budget), because a single
    /// minimizer's load is the atomic unit of routing — a sub-partition
    /// that is still over budget (one pathologically hot minimizer, or a
    /// fanout clamped by the cap) builds with an over-budget table rather
    /// than recursing forever.
    fn build_split(
        &self,
        device: &dyn Device,
        idx: usize,
        bytes: &[u8],
        projected: u64,
    ) -> (Option<Part2Out>, u64) {
        let fanout = projected
            .div_ceil(self.config.table_memory_budget.max(1))
            .clamp(2, MAX_SUB_FANOUT as u64) as usize;
        let subs = match msp::split_framed(bytes, self.config.k, self.config.p, fanout, idx) {
            Ok(subs) => subs,
            Err(e) => {
                self.partition_failed(idx, e.into());
                return (None, 0);
            }
        };
        self.sub_splits.lock().push((idx, fanout));
        if let Some(journal) = self.journal {
            if let Err(e) = journal.append(&JournalEvent::SubSplit(idx, fanout)) {
                self.fatal(e);
                return (None, 0);
            }
        }
        let mut entries = Vec::new();
        let mut contention = ContentionStats::default();
        let mut resizes = 0usize;
        for sub in &subs {
            if sub.superkmers == 0 {
                continue;
            }
            let Some((subgraph, sub_contention, sub_resizes)) =
                self.build_one_table(device, idx, &sub.bytes, sub.kmers)
            else {
                return (None, 0);
            };
            contention.merge(&sub_contention);
            resizes += sub_resizes;
            entries.extend(subgraph.into_entries());
        }
        let subgraph = SubGraph::new(self.config.k, entries);
        let work = subgraph.len() as u64;
        (Some(Part2Out { subgraph, contention, resizes }), work)
    }

    /// One table build: index the framed bytes once, then hash-construct
    /// with pooled tables, retrying with a bigger checkout if the size
    /// estimate was too small. The first table of a run takes the
    /// Property-1 prior; later ones take the size learned from the
    /// densest table so far, which is never above the prior. A learned
    /// size that runs out retries once at the prior, then doubles like
    /// any other retry. `None` means the failure was already routed through
    /// [`partition_failed`](Self::partition_failed) / [`fatal`](Self::fatal).
    fn build_one_table(
        &self,
        device: &dyn Device,
        idx: usize,
        bytes: &[u8],
        n_kmers: u64,
    ) -> Option<(SubGraph, ContentionStats, usize)> {
        let transfer_in = bytes.len() as u64;
        // Zero-copy decode of the framed bytes: verify every frame's
        // CRC32 once, index the record boundaries, then replay borrowed
        // `SuperkmerView`s straight out of the partition buffer — no
        // per-record heap allocation. Indexing happens once, *outside*
        // the capacity-retry loop — a retry re-reads nothing and
        // re-verifies nothing, it only swaps in a bigger table.
        let slices = match PartitionSlices::index_framed(bytes, self.config.k, self.config.p) {
            Ok(slices) => slices,
            Err(e) => {
                self.partition_failed(idx, e.into());
                return None;
            }
        };
        let prior = table_capacity_for(n_kmers, self.config.sizing);
        let learned = self
            .density
            .worst()
            .map(|density| learned_table_capacity(n_kmers, density, self.config.sizing));
        let mut capacity = learned.unwrap_or(prior);
        let mut prior_untried = learned.is_some();
        let mut resizes = 0usize;
        loop {
            // Checked out from the pool: a recycled allocation when one
            // of this capacity class is shelved, a fresh one otherwise.
            // Dropping the guard (every exit path below) shelves it.
            let table = self.pool.checkout(capacity);
            let table_bytes = table.approx_bytes() as u64;
            self.peak_table.fetch_max(table_bytes, Ordering::Relaxed);
            let is_gpu = device.kind() == DeviceKind::SimGpu;
            if is_gpu {
                if let Err(e) = device.alloc(table_bytes) {
                    self.fatal(e.into());
                    return None;
                }
                device.transfer_to_device(transfer_in);
            }
            // The kernel: one superkmer per data-parallel item, decoded
            // in place from the partition buffer. Each worker's chunk is
            // replayed through one software-pipelined [`ReplayPipeline`],
            // so the slot-prefetch lookahead spans superkmer boundaries.
            // The `OnceError` check lets surviving chunks bail out
            // cheaply once any item has failed.
            let kernel_error: OnceError<HashGraphError> = OnceError::new();
            device.execute_chunks(slices.len(), &|range| {
                let mut pipe = hashgraph::ReplayPipeline::new(self.kernel, &*table);
                for i in range {
                    if kernel_error.is_set() {
                        return;
                    }
                    if let Err(e) = pipe.record_view(&slices.view(i)) {
                        kernel_error.set(e);
                        return;
                    }
                }
                if let Err(e) = pipe.flush() {
                    kernel_error.set(e);
                }
            });
            match kernel_error.into_inner() {
                None => {
                    let subgraph = table.snapshot();
                    self.density.observe(subgraph.len(), n_kmers);
                    if is_gpu {
                        device.transfer_from_device((subgraph.len() * VERTEX_BYTES) as u64);
                        device.free(table_bytes);
                    }
                    return Some((subgraph, table.contention(), resizes));
                }
                Some(HashGraphError::CapacityExhausted { .. }) => {
                    if is_gpu {
                        device.free(table_bytes);
                    }
                    resizes += 1;
                    // Double from the capacity actually granted (the pool
                    // rounds up to its class), so the retry is guaranteed
                    // a strictly larger class — unless a learned size
                    // ran out and the prior is a larger class still.
                    capacity = if std::mem::take(&mut prior_untried)
                        && TablePool::capacity_class(prior) > table.capacity()
                    {
                        prior
                    } else {
                        table.capacity().saturating_mul(2).max(32)
                    };
                }
                Some(e) => {
                    if is_gpu {
                        device.free(table_bytes);
                    }
                    self.fatal(e.into());
                    return None;
                }
            }
        }
    }

    /// The output stage: persist (when configured) and absorb the
    /// subgraph. See [`commit`](Self::commit) for what is skipped. The
    /// subgraph was built here from partition `idx`'s own superkmers,
    /// so it goes straight into shard `idx` without routing a vertex.
    fn consume(
        &self,
        io: &ThrottledIo,
        graph: &mut DeBruijnGraph,
        idx: usize,
        out: Option<Part2Out>,
    ) {
        if let Some(subgraph) = self.commit(io, idx, out) {
            graph.absorb_partition(idx, subgraph);
        }
    }

    /// Tallies one build's counters and, when subgraphs are persisted,
    /// commits and journals its file. Returns the subgraph for the
    /// caller to absorb, or `None` when there is nothing to absorb.
    /// Failure sentinels are skipped outright — an error partition must
    /// never leave a bogus `sub-XXXXX.dbg` behind or leak empty entries
    /// into the merged graph.
    fn commit(&self, io: &ThrottledIo, idx: usize, out: Option<Part2Out>) -> Option<SubGraph> {
        let out = out?;
        self.total_contention.lock().merge(&out.contention);
        self.total_resizes.fetch_add(out.resizes, Ordering::Relaxed);
        if self.config.write_subgraphs {
            let bytes = encode_subgraph(&out.subgraph);
            let path = self.sub_dir.join(format!("sub-{idx:05}.dbg"));
            // Atomic commit (tmp + fsync + rename + dir fsync): a crash
            // anywhere in here leaves either no `sub-XXXXX.dbg` or a
            // complete, checksummed one — never a torn file.
            let committed = failpoint::hit("step2.subgraph.write")
                .and_then(|()| io.commit_file(&path, &bytes));
            if let Err(e) = committed {
                self.partition_failed(idx, ParaHashError::Io(e));
                return None; // quarantined partitions stay out of the graph
            }
            // The journal record is written strictly *after* the rename:
            // `subgraph-committed` in the journal implies the file is
            // durable and whole. (The converse is allowed — a file with
            // no record is simply re-verified or redone on resume.)
            if let Some(journal) = self.journal {
                if let Err(e) = journal.append(&JournalEvent::SubgraphCommitted(idx)) {
                    self.fatal(e);
                    return None;
                }
            }
        }
        Some(out.subgraph)
    }

    /// Turns the accumulated counters into the step report — or, on the
    /// abort path, deletes partial subgraph output and surfaces the first
    /// fatal error.
    fn finish(
        self,
        pipeline_report: PipelineReport,
        graph: DeBruijnGraph,
        tuner: Option<&SplitTuner>,
    ) -> Result<(DeBruijnGraph, StepReport)> {
        let quarantined = self.quarantined.into_inner();
        // Compute-stage completion order is nondeterministic under
        // multithreading; the report (and everything derived from it,
        // like manifest marks) must not be.
        let mut sub_splits = self.sub_splits.into_inner();
        sub_splits.sort_unstable();
        if let Some(e) = self.first_error.into_inner() {
            // Abort path: whatever subgraph files were persisted describe
            // a partial run — delete them so nothing downstream mistakes
            // them for a complete graph.
            if self.config.write_subgraphs {
                let _ = std::fs::remove_dir_all(&self.sub_dir);
            }
            return Err(e);
        }
        // Quarantine marks are durable state too: record them so a
        // resumed run knows these partitions were *examined and set
        // aside*, not merely unprocessed.
        if let Some(journal) = self.journal {
            for q in &quarantined {
                journal.append(&JournalEvent::Quarantined(q.index, q.reason.clone()))?;
            }
        }
        let deltas = match self.baselines.get() {
            Some(baselines) => device_deltas(self.config, baselines),
            // No partition ever reached the compute stage: the step did
            // no device work, so its window is empty.
            None => Vec::new(),
        };
        let (cpu_compute, gpu_compute) =
            split_device_times(self.config, &pipeline_report.shares, &deltas);
        // Per-class partition counts come from the shares (ground truth of
        // what each device actually processed), the split target and
        // regime from the tuner's rolling measurements.
        let coproc = tuner.map(|t| {
            let snap = t.snapshot();
            let mut cpu_partitions = 0;
            let mut gpu_partitions = 0;
            for (device, share) in self.config.devices().iter().zip(&pipeline_report.shares) {
                match device.kind() {
                    DeviceKind::Cpu => cpu_partitions += share.partitions,
                    DeviceKind::SimGpu => gpu_partitions += share.partitions,
                }
            }
            CoprocSummary {
                policy: t.policy().to_string(),
                cpu_partitions,
                gpu_partitions,
                gpu_share: snap.gpu_share,
                regime: snap.regime,
            }
        });
        let report = StepReport {
            step: 2,
            pipeline: pipeline_report,
            cpu_compute,
            gpu_compute,
            contention: Some(self.total_contention.into_inner()),
            step1_stats: None,
            resizes: self.total_resizes.into_inner(),
            peak_partition_bytes: self.peak_partition.into_inner(),
            peak_table_bytes: self.peak_table.into_inner(),
            peak_resident_store_bytes: 0,
            quarantined,
            sub_splits,
            coproc,
            exhausted_leases: Vec::new(),
        };
        Ok((graph, report))
    }
}

/// What [`build_and_commit_partition`] measured while building one
/// partition — the payload of a shard worker's `result` wire message.
pub(crate) struct StandaloneOutcome {
    /// Capacity-retry rebuilds this partition needed.
    pub resizes: usize,
    /// Peak hash-table bytes (the largest sub-table when split).
    pub peak_table_bytes: u64,
    /// Out-of-core fanout: 0 when the partition fit its budget and was
    /// built in one table, ≥ 2 when it was sub-partitioned.
    pub fanout: usize,
}

/// Builds **one** partition end to end — read, budget-admit (splitting
/// out of core if projected over budget), hash-construct, and commit the
/// encoded subgraph as `subgraphs/sub-<idx>.dbg` — outside any pipeline.
/// This is the unit of work a shard worker executes per lease: the
/// committed file *is* the result channel back to the parent, so the
/// caller's config must have `write_subgraphs` forced on, and `strict`
/// on so every failure surfaces as an error (the parent owns
/// quarantine policy, not the worker). `density` carries the table-size
/// estimate from one lease to the next.
///
/// # Errors
///
/// Any read, frame, device, or commit failure for this partition.
pub(crate) fn build_and_commit_partition(
    config: &ParaHashConfig,
    idx: usize,
    path: &std::path::Path,
    n_kmers: u64,
    io: &ThrottledIo,
    journal: Option<&RunJournal>,
    density: &VertexDensity,
) -> Result<StandaloneOutcome> {
    debug_assert!(config.strict && config.write_subgraphs);
    let cancel = CancelToken::new();
    let shared = Step2Shared::new(config, &cancel, journal, density)?;
    let bytes = io.read_file(path).map_err(ParaHashError::Io)?;
    let (out, _) = shared.build(config.devices()[0].as_ref(), idx, &bytes, n_kmers);
    // The committed file is the result; nothing here reads the graph,
    // so the subgraph is persisted and journaled, never absorbed.
    shared.commit(io, idx, out);
    if let Some(e) = shared.first_error.into_inner() {
        return Err(e);
    }
    let splits = shared.sub_splits.into_inner();
    Ok(StandaloneOutcome {
        resizes: shared.total_resizes.into_inner(),
        peak_table_bytes: shared.peak_table.into_inner(),
        fanout: splits.first().map_or(0, |&(_, f)| f),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_step1;
    use dna::SeqRead;
    use pipeline::IoMode;

    fn reads() -> Vec<SeqRead> {
        vec![
            SeqRead::from_ascii("a", b"ACGTTGCATGGACCAGTTACGGATCAGGCATT"),
            SeqRead::from_ascii("b", b"TGATGGATGATGGATGGTAGCATACGTTGCAT"),
            SeqRead::from_ascii("c", b"GGCATTAGCCAGTACGGATCACCGTATGCAAT"),
        ]
    }

    fn config(dir: &str) -> ParaHashConfig {
        ParaHashConfig::builder()
            .k(7)
            .p(4)
            .partitions(6)
            .cpu_threads(2)
            .work_dir(std::env::temp_dir().join(dir))
            .build()
            .unwrap()
    }

    fn reference(reads: &[SeqRead], k: usize) -> DeBruijnGraph {
        let seqs: Vec<dna::PackedSeq> = reads.iter().map(|r| r.seq().clone()).collect();
        let parts = msp::partition_in_memory(&seqs, k, 4, 1).unwrap();
        let mut g = DeBruijnGraph::new(k);
        g.absorb(hashgraph::build_subgraph_serial(&parts[0], k).unwrap());
        g
    }

    #[test]
    fn step2_reconstructs_reference_graph() {
        let cfg = config("parahash-step2-ref");
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        let io = ThrottledIo::new(IoMode::Unthrottled);
        let rs = reads();
        let (manifest, _) = run_step1(&cfg, &rs, &io).unwrap();
        let (graph, report) = run_step2(&cfg, &manifest, &io).unwrap();
        assert_eq!(graph, reference(&rs, 7));
        assert_eq!(report.step, 2);
        assert_eq!(report.pipeline.partitions, 6);
        let c = report.contention.unwrap();
        assert_eq!(c.operations(), manifest.total_kmers());
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    #[test]
    fn step2_with_gpu_pays_transfers_and_memory() {
        let cfg = ParaHashConfig::builder()
            .k(7)
            .p(4)
            .partitions(4)
            .no_cpu()
            .sim_gpu(hetsim::SimGpuConfig::default())
            .work_dir(std::env::temp_dir().join("parahash-step2-gpu"))
            .build()
            .unwrap();
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        let io = ThrottledIo::new(IoMode::Unthrottled);
        let rs = reads();
        let (manifest, _) = run_step1(&cfg, &rs, &io).unwrap();
        let (graph, _) = run_step2(&cfg, &manifest, &io).unwrap();
        assert_eq!(graph, reference(&rs, 7));
        let m = cfg.devices()[0].metrics();
        assert!(m.bytes_to_device > 0);
        assert!(m.bytes_from_device > 0);
        assert!(m.peak_memory > 0, "hash tables must reserve device memory");
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    #[test]
    fn subgraph_encoding_roundtrips() {
        let cfg = config("parahash-step2-enc");
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        let io = ThrottledIo::new(IoMode::Unthrottled);
        let (manifest, _) = run_step1(&cfg, &reads(), &io).unwrap();
        let (graph, _) = run_step2(&cfg, &manifest, &io).unwrap();
        // Round-trip the whole graph as one subgraph.
        let entries: Vec<_> = graph.iter().map(|(k, v)| (*k, *v)).collect();
        let sub = SubGraph::new(7, entries);
        let decoded = decode_subgraph(&encode_subgraph(&sub)).unwrap();
        let mut a = sub.into_entries();
        let mut b = decoded.into_entries();
        a.sort_by_key(|x| x.0);
        b.sort_by_key(|x| x.0);
        assert_eq!(a, b);
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    /// The format spelled out field by field, records in `Kmer` order.
    fn reference_encoding(k: usize, entries: &[(dna::Kmer, hashgraph::VertexData)]) -> Vec<u8> {
        let mut sorted = entries.to_vec();
        sorted.sort_by_key(|(kmer, _)| *kmer);
        let mut out = (sorted.len() as u64).to_le_bytes().to_vec();
        out.push(k as u8);
        for (kmer, data) in &sorted {
            for w in kmer.words() {
                out.extend_from_slice(&w.to_le_bytes());
            }
            out.extend_from_slice(&data.count.to_le_bytes());
            for e in &data.edges {
                out.extend_from_slice(&e.to_le_bytes());
            }
        }
        let crc = msp::crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn encoding_matches_the_field_by_field_format_in_kmer_order() {
        let seq = dna::PackedSeq::from_ascii(
            &b"ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGTACGGATCACCGTATGCAATGCCGGATTAACGT".repeat(2),
        );
        // Both encode paths: one key word (k <= 32) and several.
        for k in [7usize, 31, 32, 33, 40] {
            let mut entries: Vec<_> = seq
                .kmers(k)
                .enumerate()
                .map(|(i, kmer)| {
                    let data = hashgraph::VertexData {
                        count: i as u32 + 1,
                        edges: std::array::from_fn(|e| (i * 8 + e) as u32),
                    };
                    (kmer.canonical().0, data)
                })
                .collect();
            entries.sort_by_key(|(kmer, _)| *kmer);
            entries.dedup_by_key(|(kmer, _)| *kmer);
            // Reverse, so the encoder has to sort.
            entries.reverse();
            let sub = SubGraph::new(k, entries.clone());
            assert_eq!(encode_subgraph(&sub), reference_encoding(k, &entries), "k={k}");
        }
        let empty = SubGraph::new(5, Vec::new());
        assert_eq!(encode_subgraph(&empty), reference_encoding(5, &[]));
    }

    #[test]
    fn decode_rejects_truncated_input() {
        assert!(decode_subgraph(&[]).is_none());
        assert!(decode_subgraph(&[1, 0, 0, 0, 0, 0, 0, 0, 7]).is_none(), "promises 1 entry, has none");
        // Promises 1 entry, has none, but carries a (valid) CRC trailer.
        let mut short = vec![1u8, 0, 0, 0, 0, 0, 0, 0, 7];
        let crc = msp::crc32(&short);
        short.extend_from_slice(&crc.to_le_bytes());
        assert!(decode_subgraph(&short).is_none());
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let cfg = config("parahash-step2-trailing");
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        let io = ThrottledIo::new(IoMode::Unthrottled);
        let (manifest, _) = run_step1(&cfg, &reads(), &io).unwrap();
        let (graph, _) = run_step2(&cfg, &manifest, &io).unwrap();
        let entries: Vec<_> = graph.iter().map(|(k, v)| (*k, *v)).collect();
        assert!(entries.len() >= 2, "need several records for this test");
        let sub = SubGraph::new(7, entries.clone());
        let encoded = encode_subgraph(&sub);
        assert!(decode_subgraph(&encoded).is_some(), "sanity: clean input decodes");

        // (a) Appended garbage breaks the CRC trailer.
        let mut appended = encoded.clone();
        appended.extend_from_slice(b"junk");
        assert!(decode_subgraph(&appended).is_none(), "appended bytes must be rejected");

        // (b) The adversarial case the CRC alone cannot catch: decrement
        // the record count and *recompute a valid trailer*, so the file
        // checksums cleanly but carries one whole record of trailing
        // bytes. Only the `offset == body.len()` check rejects this.
        let mut body = encoded[..encoded.len() - 4].to_vec();
        let n = u64::from_le_bytes(body[..8].try_into().unwrap());
        body[..8].copy_from_slice(&(n - 1).to_le_bytes());
        let crc = msp::crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        assert!(
            decode_subgraph(&body).is_none(),
            "undeclared trailing record must be rejected even with a valid CRC"
        );
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    #[test]
    fn non_strict_run_quarantines_corrupt_partition() {
        let cfg = ParaHashConfig::builder()
            .k(7)
            .p(4)
            .partitions(6)
            .cpu_threads(2)
            .strict(false)
            .work_dir(std::env::temp_dir().join("parahash-step2-quarantine"))
            .build()
            .unwrap();
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        let io = ThrottledIo::new(IoMode::Unthrottled);
        let rs = reads();
        let (manifest, _) = run_step1(&cfg, &rs, &io).unwrap();
        // Flip one payload byte in the largest partition: the frame
        // checksum catches it and the partition is set aside.
        let victim = (0..manifest.num_partitions())
            .max_by_key(|&i| manifest.stats()[i].bytes)
            .unwrap();
        let path = manifest.partition_path(victim);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = msp::FRAME_HEADER_LEN + (bytes.len() - msp::FRAME_HEADER_LEN) / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let (graph, report) = run_step2(&cfg, &manifest, &io).unwrap();
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].index, victim);
        assert!(
            report.quarantined[0].reason.contains("checksum mismatch"),
            "{}",
            report.quarantined[0].reason
        );
        // The graph is missing exactly the victim's k-mers.
        let full = reference(&rs, 7);
        assert!(graph.total_kmer_occurrences() < full.total_kmer_occurrences());
        assert_eq!(
            graph.total_kmer_occurrences(),
            manifest.total_kmers() - manifest.stats()[victim].kmers
        );
        // The quarantine mark was persisted into the manifest on disk.
        let reloaded = PartitionManifest::load(manifest.dir()).unwrap();
        assert!(reloaded.is_quarantined(victim));
        assert_eq!(reloaded.quarantined().len(), 1);
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    #[test]
    fn strict_abort_deletes_partial_subgraph_output() {
        let cfg = ParaHashConfig::builder()
            .k(7)
            .p(4)
            .partitions(6)
            .cpu_threads(1)
            .write_subgraphs(true)
            .work_dir(std::env::temp_dir().join("parahash-step2-abortclean"))
            .build()
            .unwrap();
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        let io = ThrottledIo::new(IoMode::Unthrottled);
        let (manifest, _) = run_step1(&cfg, &reads(), &io).unwrap();
        let victim = (0..manifest.num_partitions())
            .max_by_key(|&i| manifest.stats()[i].bytes)
            .unwrap();
        let path = manifest.partition_path(victim);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 1);
        std::fs::write(&path, &bytes).unwrap();

        assert!(run_step2(&cfg, &manifest, &io).is_err());
        let sub_dir = cfg.work_dir().join("subgraphs");
        assert!(
            !sub_dir.exists(),
            "aborted run must not leave partial subgraph files behind"
        );
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    #[test]
    fn write_subgraphs_persists_files() {
        let cfg = ParaHashConfig::builder()
            .k(7)
            .p(4)
            .partitions(3)
            .cpu_threads(1)
            .write_subgraphs(true)
            .work_dir(std::env::temp_dir().join("parahash-step2-persist"))
            .build()
            .unwrap();
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        let io = ThrottledIo::new(IoMode::Unthrottled);
        let (manifest, _) = run_step1(&cfg, &reads(), &io).unwrap();
        let (graph, _) = run_step2(&cfg, &manifest, &io).unwrap();
        // Reload all persisted subgraphs; their union is the graph.
        let mut reloaded = DeBruijnGraph::new(7);
        for i in 0..3 {
            let bytes = std::fs::read(cfg.work_dir().join("subgraphs").join(format!("sub-{i:05}.dbg"))).unwrap();
            reloaded.absorb(decode_subgraph(&bytes).unwrap());
        }
        assert_eq!(reloaded, graph);
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    #[test]
    fn corrupt_partition_file_surfaces_error() {
        let cfg = config("parahash-step2-corrupt");
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        let io = ThrottledIo::new(IoMode::Unthrottled);
        let (manifest, _) = run_step1(&cfg, &reads(), &io).unwrap();
        // Truncate the largest partition file mid-record.
        let victim = (0..manifest.num_partitions())
            .max_by_key(|&i| manifest.stats()[i].bytes)
            .unwrap();
        let path = manifest.partition_path(victim);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 1);
        std::fs::write(&path, &bytes).unwrap();
        assert!(run_step2(&cfg, &manifest, &io).is_err());
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }
}
