//! The traced build: one single-threaded construction that the benchmark
//! composes itself from the public functions each layer's production
//! path calls, with a span around every call.
//!
//! It has the shape of the two-phase build — Step 1 stages every
//! partition, Step 2 builds them one by one — and doubles as the
//! single-threaded baseline. Only production kernels run: Step 1 is
//! `scan_runs_into` + `encode_superkmer_slice` into the production
//! partition sinks, Step 2 is `index_framed` + a `ReplayPipeline` over a
//! pooled table, so every second a span reports is a second builds spend.

use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

use dna::{PackedSeq, SeqRead};
use hashgraph::{
    DeBruijnGraph, HashGraphError, ReplayKernel, SizingParams, SubGraph, TablePool, VertexTable,
};
use msp::{PartitionSink, PartitionSlices, SealedPayload, SuperkmerScanner};
use parahash::{Fingerprint, JournalEvent, RunJournal};
use pipeline::shard::{Recv, Transport, MAX_FRAME, MAX_PAYLOAD_FRAME};
use pipeline::{IoMode, RetryPolicy, ThrottledIo};

use crate::trace::Tracer;
use crate::workload::{K, P, PARTITIONS};

pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// Step 1's input batch size: the `ParaHashConfigBuilder` default.
const READ_BATCH_BYTES: usize = 1 << 20;
/// Upper bound on an out-of-core fanout; mirrors Step 2's clamp.
const MAX_SUB_FANOUT: u64 = 256;

/// Where the traced build's reads come from.
#[derive(Clone, Copy)]
pub enum Input<'a> {
    Reads(&'a [SeqRead]),
    Fastq(&'a Path),
}

/// The data path the traced build mirrors.
pub struct Shape<'a> {
    pub input: Input<'a>,
    /// Partitions stay in memory (`PartitionStore`, unlimited budget) or
    /// go to disk (`PartitionWriter`).
    pub resident: bool,
    /// Encode and atomically commit every subgraph.
    pub write_subgraphs: bool,
    /// Per-table byte budget; bigger partitions are sub-split.
    pub table_budget: u64,
    /// Ship each payload out and each subgraph back over loopback TCP,
    /// commit it on the receiving side and re-verify it, as the sharded
    /// Step 2 does.
    pub ship: bool,
}

/// What the traced build counted at its layer calls.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub bases: u64,
    pub superkmers: u64,
    pub kmers: u64,
    pub partition_bytes: u64,
    /// `(partition, fanout)` of every out-of-core split, in index order.
    pub sub_splits: Vec<(usize, usize)>,
    pub replayed_kmers: u64,
    pub subgraph_bytes: u64,
    pub shipped_bytes: u64,
    pub commits: u64,
    pub journal_appends: u64,
    /// fsyncs made by the partition sink's commits (file and directory).
    pub partition_fsyncs: u64,
    /// Calibration, outside the traced wall: bytes run through
    /// `msp::crc32` and the seconds it took.
    pub crc_bytes: u64,
    pub crc_s: f64,
    /// Calibration, outside the traced wall: every shipped frame run
    /// through `wire_crc32` twice (the sender's and the receiver's pass).
    pub wire_crc_s: f64,
}

pub struct Traced {
    pub graph: DeBruijnGraph,
    pub tracer: Tracer,
    pub counts: Counts,
}

/// Runs the traced build under `work_dir` (created, and left for the
/// caller to remove).
pub fn run(shape: &Shape<'_>, work_dir: &Path) -> Result<Traced, Error> {
    std::fs::create_dir_all(work_dir)?;
    let mut t = Tracer::new();
    let mut c = Counts::default();
    let root = t.enter("trace");
    let (graph, payloads, shipped) = build(shape, work_dir, &mut t, &mut c)?;
    t.exit(root);
    calibrate(&payloads, &shipped, &mut c);
    Ok(Traced {
        graph,
        tracer: t,
        counts: c,
    })
}

type Built = (DeBruijnGraph, Vec<Vec<u8>>, Vec<Vec<u8>>);

fn build(
    shape: &Shape<'_>,
    work_dir: &Path,
    t: &mut Tracer,
    c: &mut Counts,
) -> Result<Built, Error> {
    let io = ThrottledIo::with_retry(IoMode::Unthrottled, RetryPolicy::default());
    let digest = match shape.input {
        Input::Reads(reads) => t.leaf("parahash.fingerprint", || Fingerprint::digest_reads(reads)),
        Input::Fastq(path) => t.leaf("parahash.fingerprint", || Fingerprint::digest_path(path))?,
    };
    let fingerprint = Fingerprint {
        k: K,
        p: P,
        partitions: PARTITIONS,
        input_digest: digest,
    };
    let journal = t.leaf("parahash.journal_append", || {
        RunJournal::create(work_dir, fingerprint)
    })?;
    c.journal_appends += 1;

    let step1 = t.enter("step1");
    let dir = work_dir.join("superkmers");
    let mut sink = t.leaf("msp.sink_open", || -> msp::Result<Sink> {
        Ok(if shape.resident {
            Sink::Store(msp::PartitionStore::create(
                &dir,
                PARTITIONS,
                K,
                P,
                u64::MAX,
            )?)
        } else {
            Sink::Writer(msp::PartitionWriter::create(&dir, PARTITIONS, K, P)?)
        })
    })?;
    step1_batches(shape, &mut sink, t, c)?;
    let (stats, payloads) = seal(sink, t, c)?;
    if !shape.resident {
        for i in 0..PARTITIONS {
            t.leaf("parahash.journal_append", || {
                journal.append(&JournalEvent::PartitionSealed(i))
            })?;
            c.journal_appends += 1;
        }
    }
    t.exit(step1);

    let step2 = t.enter("step2");
    let mut link = if shape.ship {
        Some(t.leaf("pipeline.shard.connect", Loopback::open)?)
    } else {
        None
    };
    let sub_dir = work_dir.join("subgraphs");
    let remote_dir = work_dir.join("remote-subgraphs");
    if shape.write_subgraphs || shape.ship {
        t.leaf("parahash.subgraph_dir", || -> std::io::Result<()> {
            std::fs::create_dir_all(&sub_dir)?;
            std::fs::create_dir_all(&remote_dir)
        })?;
    }
    let pool = TablePool::new(K);
    let kernel = ReplayKernel::new(K);
    let mut graph = DeBruijnGraph::new(K);
    let mut kept = Vec::with_capacity(PARTITIONS);
    let mut shipped = Vec::new();
    for (i, payload) in payloads.into_iter().enumerate() {
        let bytes = match payload {
            Payload::Resident(bytes) => bytes,
            Payload::File(path) => t.leaf("msp.load", || io.read_file(&path))?,
        };
        if let Some(link) = &mut link {
            t.leaf("parahash.journal_append", || {
                journal.append(&JournalEvent::WorkerLease(i, 0))
            })?;
            c.journal_appends += 1;
            link.ship(&bytes, t, c)?;
            shipped.push(bytes.clone());
        }
        let kmers = stats[i];
        let projected = hashgraph::projected_table_bytes(kmers, SizingParams::default());
        let sub = if projected > shape.table_budget {
            let fanout = projected
                .div_ceil(shape.table_budget.max(1))
                .clamp(2, MAX_SUB_FANOUT) as usize;
            let subs = t.leaf("msp.subsplit", || {
                msp::split_framed(&bytes, K, P, fanout, i)
            })?;
            c.sub_splits.push((i, fanout));
            t.leaf("parahash.journal_append", || {
                journal.append(&JournalEvent::SubSplit(i, fanout))
            })?;
            c.journal_appends += 1;
            let mut entries = Vec::new();
            for s in subs.iter().filter(|s| s.superkmers > 0) {
                let part = build_table(&pool, kernel, &s.bytes, s.kmers, t, c)?;
                entries.extend(part.into_entries());
            }
            SubGraph::new(K, entries)
        } else {
            build_table(&pool, kernel, &bytes, kmers, t, c)?
        };
        kept.push(bytes);
        let sub = if shape.write_subgraphs || shape.ship {
            let encoded = t.leaf("parahash.subgraph_encode", || {
                parahash::encode_subgraph(&sub)
            });
            c.subgraph_bytes += encoded.len() as u64;
            let name = format!("sub-{i:05}.dbg");
            if let Some(link) = &mut link {
                // The worker commits in its own directory, ships the bytes
                // back, and the parent commits and re-verifies them.
                t.leaf("pipeline.commit", || {
                    io.commit_file(remote_dir.join(&name), &encoded)
                })?;
                c.commits += 1;
                link.ship(&encoded, t, c)?;
                shipped.push(encoded.clone());
            }
            let path = sub_dir.join(&name);
            t.leaf("pipeline.commit", || io.commit_file(&path, &encoded))?;
            c.commits += 1;
            let sub = if link.is_some() {
                t.leaf("parahash.subgraph_verify", || -> Result<SubGraph, Error> {
                    let bytes = std::fs::read(&path)?;
                    Ok(parahash::decode_subgraph_checked(&bytes, Some(i))?)
                })?
            } else {
                sub
            };
            t.leaf("parahash.journal_append", || {
                journal.append(&JournalEvent::SubgraphCommitted(i))
            })?;
            c.journal_appends += 1;
            sub
        } else {
            sub
        };
        t.leaf("hashgraph.merge", || graph.absorb(sub));
    }
    if let Some(link) = link {
        link.close()?;
    }
    t.leaf("parahash.journal_append", || {
        journal.append(&JournalEvent::RunComplete)
    })?;
    c.journal_appends += 1;
    t.exit(step2);
    Ok((graph, kept, shipped))
}

enum Sink {
    Store(msp::PartitionStore),
    Writer(msp::PartitionWriter),
}

impl Sink {
    fn append(
        &mut self,
        part: usize,
        bytes: &[u8],
        superkmers: u64,
        kmers: u64,
    ) -> msp::Result<()> {
        match self {
            Sink::Store(s) => s.append_encoded(part, bytes, superkmers, kmers),
            Sink::Writer(w) => w.append_encoded(part, bytes, superkmers, kmers),
        }
    }
}

enum Payload {
    Resident(Vec<u8>),
    File(PathBuf),
}

/// Reusable Step-1 buffers: the runs of one batch's reads and the
/// per-partition staging the drain hands to the sink.
struct Staging {
    runs: Vec<Vec<(usize, usize, dna::Kmer)>>,
    buffers: Vec<Vec<u8>>,
    counts: Vec<(u64, u64)>,
}

fn step1_batches(
    shape: &Shape<'_>,
    sink: &mut Sink,
    t: &mut Tracer,
    c: &mut Counts,
) -> Result<(), Error> {
    let scanner = SuperkmerScanner::new(K, P)?;
    let router = msp::PartitionRouter::new(PARTITIONS)?;
    let mut cursor = scanner.cursor();
    let mut st = Staging {
        runs: Vec::new(),
        buffers: vec![Vec::new(); PARTITIONS],
        counts: vec![(0, 0); PARTITIONS],
    };
    match shape.input {
        Input::Reads(reads) => {
            let mut start = 0;
            while start < reads.len() {
                let mut end = start;
                let mut bytes = 0;
                while end < reads.len() && bytes < READ_BATCH_BYTES {
                    bytes += reads[end].approx_bytes();
                    end += 1;
                }
                let batch: Vec<&PackedSeq> = reads[start..end].iter().map(SeqRead::seq).collect();
                c.bases += batch.iter().map(|r| r.len() as u64).sum::<u64>();
                stage_batch(&scanner, &router, &mut cursor, &batch, &mut st, t);
                drain(sink, &mut st, t, c)?;
                start = end;
            }
        }
        Input::Fastq(path) => {
            let chunks = t.leaf("msp.fastq_chunks", || {
                msp::FastqChunks::open(path, READ_BATCH_BYTES)
            })?;
            let mut packed = Vec::new();
            for i in 0..chunks.n_chunks() {
                let n = t.leaf("dna.fastq_parse", || {
                    parse_chunk(chunks.chunk(i), &mut packed)
                })?;
                let batch: Vec<&PackedSeq> = packed[..n].iter().collect();
                c.bases += batch.iter().map(|r| r.len() as u64).sum::<u64>();
                stage_batch(&scanner, &router, &mut cursor, &batch, &mut st, t);
                drain(sink, &mut st, t, c)?;
            }
        }
    }
    Ok(())
}

/// Parses every record of a FASTQ chunk into `packed` (reusing its
/// sequences' capacity) and returns the record count.
fn parse_chunk(chunk: &[u8], packed: &mut Vec<PackedSeq>) -> Result<usize, Error> {
    let mut reader = dna::FastqSliceReader::new(chunk);
    let mut n = 0;
    while let Some(view) = reader.read_record_view()? {
        if packed.len() == n {
            packed.push(PackedSeq::new());
        }
        packed[n].clear();
        packed[n].extend_from_ascii(view.seq);
        n += 1;
    }
    Ok(n)
}

fn stage_batch(
    scanner: &SuperkmerScanner,
    router: &msp::PartitionRouter,
    cursor: &mut msp::MinimizerCursor,
    batch: &[&PackedSeq],
    st: &mut Staging,
    t: &mut Tracer,
) {
    if st.runs.len() < batch.len() {
        st.runs.resize_with(batch.len(), Vec::new);
    }
    t.leaf("msp.scan", || {
        for (read, runs) in batch.iter().zip(&mut st.runs) {
            scanner.scan_runs_into(read, cursor, runs);
        }
    });
    let k = K;
    let (buffers, counts) = (&mut st.buffers, &mut st.counts);
    t.leaf("msp.encode", || {
        for (read, runs) in batch.iter().zip(&st.runs) {
            for &(first, last, m) in runs {
                let part = router.route_minimizer(&m);
                let left = first.checked_sub(1).map(|i| read.base(i));
                let right = (last + k < read.len()).then(|| read.base(last + k));
                msp::encode_superkmer_slice(read, first, last, k, left, right, &mut buffers[part]);
                counts[part].0 += 1;
                counts[part].1 += (last - first + 1) as u64;
            }
        }
    });
}

/// Hands every staged partition buffer to the sink, as the Step-1
/// output stage does once per batch.
fn drain(sink: &mut Sink, st: &mut Staging, t: &mut Tracer, c: &mut Counts) -> Result<(), Error> {
    t.leaf("msp.frame", || {
        for (part, (bytes, counts)) in st.buffers.iter_mut().zip(&mut st.counts).enumerate() {
            if bytes.is_empty() {
                continue;
            }
            sink.append(part, bytes, counts.0, counts.1)?;
            c.superkmers += counts.0;
            c.kmers += counts.1;
            c.partition_bytes += bytes.len() as u64;
            bytes.clear();
            *counts = (0, 0);
        }
        Ok(())
    })
}

/// Finishes Step 1: commits the partition files (disk) or seals the
/// resident images (memory). Returns per-partition k-mer counts and
/// payloads.
fn seal(sink: Sink, t: &mut Tracer, c: &mut Counts) -> Result<(Vec<u64>, Vec<Payload>), Error> {
    match sink {
        Sink::Writer(writer) => {
            let manifest = t.leaf("msp.spill_commit", || writer.finish())?;
            // One fsync per partition file, one for the directory, and
            // the manifest's atomic commit (file and directory).
            c.partition_fsyncs += PARTITIONS as u64 + 3;
            let kmers = manifest.stats().iter().map(|s| s.kmers).collect();
            let files = (0..PARTITIONS)
                .map(|i| Payload::File(manifest.partition_path(i)))
                .collect();
            Ok((kmers, files))
        }
        Sink::Store(mut store) => {
            let manifest = t.leaf("msp.spill_commit", || store.finish_manifest())?;
            c.partition_fsyncs += 2;
            let kmers = manifest.stats().iter().map(|s| s.kmers).collect();
            let mut payloads = Vec::with_capacity(PARTITIONS);
            for i in 0..PARTITIONS {
                let sealed = t.leaf("msp.frame", || store.seal(i))?;
                payloads.push(match sealed.payload {
                    SealedPayload::Resident(bytes) => Payload::Resident(bytes),
                    SealedPayload::Spilled(path) => Payload::File(path),
                });
            }
            Ok((kmers, payloads))
        }
    }
}

/// One table build, as Step 2's compute stage runs it: index the framed
/// bytes once, then replay every record into a pooled table, doubling
/// the checkout when the Property-1 estimate falls short.
fn build_table(
    pool: &TablePool,
    kernel: ReplayKernel,
    bytes: &[u8],
    kmers: u64,
    t: &mut Tracer,
    c: &mut Counts,
) -> Result<SubGraph, Error> {
    let slices = t.leaf("msp.load", || PartitionSlices::index_framed(bytes, K, P))?;
    let mut capacity = hashgraph::table_capacity_for(kmers, SizingParams::default());
    loop {
        let table = t.leaf("hashgraph.checkout", || pool.checkout(capacity));
        let replayed = t.leaf("hashgraph.replay", || -> Result<(), HashGraphError> {
            let mut pipe = hashgraph::ReplayPipeline::new(kernel, &*table);
            for i in 0..slices.len() {
                pipe.record_view(&slices.view(i))?;
            }
            pipe.flush()
        });
        match replayed {
            Ok(()) => {
                c.replayed_kmers += slices.total_kmers() as u64;
                return Ok(t.leaf("hashgraph.snapshot", || table.snapshot()));
            }
            Err(HashGraphError::CapacityExhausted { .. }) => {
                capacity = table.capacity().saturating_mul(2).max(32);
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// A loopback TCP pair standing in for a parent and a wire-mode worker:
/// the receiving thread takes each blob frame, unwraps it, and acks.
struct Loopback {
    tx: Box<dyn Transport>,
    rx: JoinHandle<std::io::Result<()>>,
}

impl Loopback {
    fn open() -> Result<Loopback, Error> {
        let listener = pipeline::shard::ShardListener::bind_tcp("127.0.0.1:0")?;
        let tx = pipeline::shard::connect_tcp(&listener.addr())?;
        let mut peer = listener.accept()?;
        let rx = std::thread::spawn(move || loop {
            match peer.recv(MAX_PAYLOAD_FRAME, None)? {
                Recv::Frame(frame) => {
                    pipeline::shard::decode_blob(frame)?;
                    peer.send(b"ok")?;
                }
                Recv::Eof | Recv::TimedOut => return Ok(()),
            }
        });
        Ok(Loopback { tx, rx })
    }

    /// Ships `bytes` as one blob frame and waits for the receiver's ack.
    fn ship(&mut self, bytes: &[u8], t: &mut Tracer, c: &mut Counts) -> Result<(), Error> {
        let span = t.enter("pipeline.shard.ship");
        let blob = t.leaf("pipeline.shard.blob", || {
            pipeline::shard::encode_blob(bytes)
        });
        let acked = t.leaf("pipeline.shard.frame", || -> std::io::Result<Recv> {
            self.tx.send(&blob)?;
            self.tx.recv(MAX_FRAME, None)
        })?;
        t.exit(span);
        if acked != Recv::Frame(b"ok".to_vec()) {
            return Err(format!("loopback receiver answered {acked:?}").into());
        }
        c.shipped_bytes += blob.len() as u64;
        Ok(())
    }

    fn close(self) -> Result<(), Error> {
        drop(self.tx);
        match self.rx.join() {
            Ok(result) => Ok(result?),
            Err(_) => Err("loopback receiver panicked".into()),
        }
    }
}

/// Out-of-band CRC throughput on the build's real bytes: `msp::crc32`
/// over every partition payload, and `wire_crc32` twice over every
/// shipped frame body.
fn calibrate(payloads: &[Vec<u8>], shipped: &[Vec<u8>], c: &mut Counts) {
    let start = std::time::Instant::now();
    for bytes in payloads {
        std::hint::black_box(msp::crc32(std::hint::black_box(bytes)));
        c.crc_bytes += bytes.len() as u64;
    }
    c.crc_s = start.elapsed().as_secs_f64();
    if shipped.is_empty() {
        return;
    }
    let blobs: Vec<Vec<u8>> = shipped
        .iter()
        .map(|b| pipeline::shard::encode_blob(b))
        .collect();
    let start = std::time::Instant::now();
    for blob in &blobs {
        for _ in 0..2 {
            std::hint::black_box(pipeline::shard::wire_crc32(std::hint::black_box(blob)));
        }
    }
    c.wire_crc_s = start.elapsed().as_secs_f64();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::GraphDigest;
    use crate::workload::{Inputs, Workload};

    fn scratch(tag: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_work")
            .join(format!("test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A twentieth of chr14, written as FASTQ for the disk shape.
    fn small_inputs(workload: Workload, dir: &Path) -> Inputs {
        let profile = Workload::Chr14ShardTcpOoc.profile(0).scale(0.05);
        let reads = profile.materialize().reads;
        let mut inputs = Inputs {
            profile,
            reads,
            fastq: None,
            fastq_bytes: 0,
        };
        if workload.reads_fastq() {
            let path = dir.join("small.fastq");
            let mut w = dna::FastqWriter::new(std::fs::File::create(&path).unwrap());
            for r in &inputs.reads {
                w.write_record(r).unwrap();
            }
            w.into_inner().unwrap().sync_all().unwrap();
            inputs.fastq_bytes = std::fs::metadata(&path).unwrap().len();
            inputs.fastq = Some(path);
        }
        inputs
    }

    /// The traced build of each workload's shape counts exactly what a
    /// real build of the same inputs reports, builds the reference
    /// graph, and attributes at least 90% of its wall to layer calls.
    /// The sharded workload's real build is its in-process companion:
    /// same budget, so the same sub-splits.
    #[test]
    fn traced_counts_match_a_real_build_and_cover_the_wall() {
        for workload in Workload::ALL {
            let dir = scratch(workload.name());
            let inputs = small_inputs(workload, &dir);
            let reference = GraphDigest::of(&baselines::reference_graph(
                &inputs.reads,
                crate::workload::K,
            ));

            let build_dir = dir.join("build");
            let config = match workload {
                Workload::Chr14ShardTcpOoc => workload.companion_config(&build_dir),
                _ => workload.config(&build_dir),
            };
            let ph = parahash::ParaHash::new(config.build().unwrap()).unwrap();
            let real = workload.run(&ph, &inputs).unwrap();
            assert_eq!(
                GraphDigest::of(&real.graph),
                reference,
                "{}",
                workload.name()
            );

            let traced = run(&workload.shape(&inputs), &dir.join("traced")).unwrap();
            assert_eq!(
                GraphDigest::of(&traced.graph),
                reference,
                "{}",
                workload.name()
            );
            let mismatches = crate::report::parity_mismatches(&traced, &real.report);
            assert!(mismatches.is_empty(), "{}: {mismatches:?}", workload.name());
            let c = &traced.counts;
            assert_eq!(
                c.sub_splits.is_empty(),
                workload != Workload::Chr14ShardTcpOoc,
                "{}",
                workload.name()
            );
            assert_eq!(c.shipped_bytes > 0, workload == Workload::Chr14ShardTcpOoc);
            assert_eq!(c.commits > 0, workload != Workload::BumblebeeFused);
            let parsed = traced
                .tracer
                .by_name()
                .get("dna.fastq_parse")
                .map_or(0, |t| t.calls);
            assert_eq!(parsed > 0, workload.reads_fastq(), "{}", workload.name());
            let coverage = traced.tracer.coverage("trace");
            assert!(coverage >= 0.9, "{}: coverage {coverage}", workload.name());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
