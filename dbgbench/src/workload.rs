//! The build workloads: their inputs, their `ParaHash`
//! configuration and the data path their traced build mirrors.

use std::path::{Path, PathBuf};

use datagen::DatasetProfile;
use dna::SeqRead;
use parahash::{ParaHash, ParaHashConfig, ParaHashConfigBuilder, RunOutcome};

use crate::traced::{Input, Shape};

/// The paper's defaults, which are also the `dbg build` defaults.
pub const K: usize = 27;
pub const P: usize = 11;
pub const PARTITIONS: usize = 64;
/// Per-table budget of the out-of-core workload: every chr14 partition
/// projects a larger table, so every partition sub-splits.
pub const SHARD_TABLE_BUDGET: u64 = 64 << 10;
/// Offset of the named hold-out seed (`--seed holdout`), kept out of
/// tuning so a later claim can be checked on inputs nobody tuned for.
pub const HOLDOUT_SEED: u64 = 2017;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The compute path: in-memory reads through the fused pipeline,
    /// every partition resident, nothing persisted.
    BumblebeeFused,
    /// The same reads as one FASTQ file through the two-phase streaming
    /// build, with every partition and subgraph committed to disk.
    BumblebeeFastqDisk,
    /// Step 2 sharded over loopback TCP to one worker process, with a
    /// table budget small enough that every partition sub-splits.
    Chr14ShardTcpOoc,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::BumblebeeFused,
        Workload::BumblebeeFastqDisk,
        Workload::Chr14ShardTcpOoc,
    ];

    /// The workloads `BENCHMARK.json` gates. `bumblebee-fused` runs on
    /// demand only: its overlapped Step 1/Step 2 threads and serial merge
    /// keep both cores of a 2-core host busy, so its median moved by up to
    /// a fifth between runs of the same code on a shared host. Every layer
    /// it exercises also runs in `bumblebee-fastq-disk`.
    pub const GATED: [Workload; 2] = [Workload::BumblebeeFastqDisk, Workload::Chr14ShardTcpOoc];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BumblebeeFused => "bumblebee-fused",
            Workload::BumblebeeFastqDisk => "bumblebee-fastq-disk",
            Workload::Chr14ShardTcpOoc => "chr14-shard-tcp-ooc",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The dataset, its seed offset by `seed` (0 keeps the profile's own
    /// seed: 92 for bumblebee, 14 for chr14).
    pub fn profile(self, seed: u64) -> DatasetProfile {
        let mut profile = match self {
            Workload::BumblebeeFused | Workload::BumblebeeFastqDisk => {
                DatasetProfile::bumblebee_mini()
            }
            Workload::Chr14ShardTcpOoc => DatasetProfile::human_chr14_mini(),
        };
        profile.seed = profile.seed.wrapping_add(seed);
        profile
    }

    pub fn reads_fastq(self) -> bool {
        self == Workload::BumblebeeFastqDisk
    }

    /// The configuration every timed build uses.
    pub fn config(self, work_dir: &Path) -> ParaHashConfigBuilder {
        let base = ParaHashConfig::builder()
            .k(K)
            .p(P)
            .partitions(PARTITIONS)
            .work_dir(work_dir);
        match self {
            Workload::BumblebeeFused => base.cpu_threads(2).partition_memory_budget(u64::MAX),
            Workload::BumblebeeFastqDisk => base.cpu_threads(2).write_subgraphs(true),
            // One worker: the parent and its worker take turns, so the
            // build never wants more than one core and a busy neighbour
            // on the other core barely moves it.
            Workload::Chr14ShardTcpOoc => self
                .companion_config(work_dir)
                .workers(1)
                .listen("127.0.0.1:0"),
        }
    }

    /// The in-process build the sharded workload's overhead is measured
    /// against: the same budget and threads, `workers(0)`.
    pub fn companion_config(self, work_dir: &Path) -> ParaHashConfigBuilder {
        ParaHashConfig::builder()
            .k(K)
            .p(P)
            .partitions(PARTITIONS)
            .work_dir(work_dir)
            .cpu_threads(1)
            .table_memory_budget(SHARD_TABLE_BUDGET)
            .out_of_core(true)
    }

    /// One build through the workload's public entry point.
    pub fn run(self, ph: &ParaHash, inputs: &Inputs) -> parahash::Result<RunOutcome> {
        match self {
            Workload::BumblebeeFused => ph.run_fused(&inputs.reads),
            Workload::BumblebeeFastqDisk => {
                ph.run_fastq_streaming(inputs.fastq.as_ref().expect("fastq workload has a file"))
            }
            Workload::Chr14ShardTcpOoc => ph.run(&inputs.reads),
        }
    }

    /// The data path the traced build mirrors for this workload.
    pub fn shape(self, inputs: &Inputs) -> Shape<'_> {
        let input = match &inputs.fastq {
            Some(path) => Input::Fastq(path),
            None => Input::Reads(&inputs.reads),
        };
        Shape {
            input,
            resident: self == Workload::BumblebeeFused,
            write_subgraphs: self == Workload::BumblebeeFastqDisk,
            table_budget: if self == Workload::Chr14ShardTcpOoc {
                SHARD_TABLE_BUDGET
            } else {
                u64::MAX
            },
            ship: self == Workload::Chr14ShardTcpOoc,
        }
    }
}

/// A workload's generated inputs.
pub struct Inputs {
    pub profile: DatasetProfile,
    pub reads: Vec<SeqRead>,
    /// The reads as one FASTQ file, for the workloads that parse one.
    pub fastq: Option<PathBuf>,
    pub fastq_bytes: u64,
}

impl Inputs {
    /// Generates the reads of `workload` for `seed`, writing them as FASTQ
    /// under `dir` (synced) when the workload reads a file.
    pub fn generate(workload: Workload, seed: u64, dir: &Path) -> std::io::Result<Inputs> {
        let profile = workload.profile(seed);
        let reads = profile.materialize().reads;
        let (fastq, fastq_bytes) = if workload.reads_fastq() {
            let path = dir.join("reads.fastq");
            let file = std::fs::File::create(&path)?;
            let mut w = dna::FastqWriter::new(std::io::BufWriter::new(file));
            for r in &reads {
                w.write_record(r).map_err(std::io::Error::other)?;
            }
            let file = w
                .into_inner()
                .map_err(std::io::Error::other)?
                .into_inner()
                .map_err(|e| e.into_error())?;
            file.sync_all()?;
            let bytes = file.metadata()?.len();
            (Some(path), bytes)
        } else {
            (None, 0)
        };
        Ok(Inputs {
            profile,
            reads,
            fastq,
            fastq_bytes,
        })
    }

    pub fn bases(&self) -> u64 {
        self.reads.iter().map(|r| r.len() as u64).sum()
    }

    /// K-mer occurrences in the input: the work every build does.
    pub fn kmers(&self) -> u64 {
        self.reads
            .iter()
            .map(|r| r.len().saturating_sub(K - 1) as u64)
            .sum()
    }

    /// A cheap digest of every read's sequence, keying the oracle cache.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for r in &self.reads {
            h = (h ^ r.len() as u64).wrapping_mul(0x0000_0100_0000_01b3);
            for &w in r.seq().words() {
                h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}
