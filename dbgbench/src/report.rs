//! One workload's measurement: set-up, timed builds, the traced build,
//! the correctness gate, and the metrics they yield.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use parahash::{ParaHash, RunOutcome, RunReport};

use crate::measure::{self, median, GraphDigest};
use crate::traced::{self, Traced};
use crate::workload::{Inputs, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed builds per run at least, however short `--seconds` is.
const MIN_BUILDS: usize = 3;
/// In-process companion builds of the sharded workload.
const COMPANION_BUILDS: usize = 3;
const MIB: f64 = (1u64 << 20) as f64;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("build_s", "s"),
    ("kmers_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_heap_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: `(name, unit)`. (R) come from the `RunReport` of
/// every timed build (medians), (T) from the traced build.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("e2e.timed_builds", "count"),
    ("e2e.build_s_max", "s"),
    ("input.reads", "count"),
    ("input.bases", "count"),
    ("input.kmers", "count"),
    ("input.fastq_bytes", "bytes"),
    // dna (T)
    ("dna.fastq_parse_s", "s"),
    ("dna.fastq_mbases_per_s", "Mbases/s"),
    // msp (T, then R)
    ("msp.scan_s", "s"),
    ("msp.scan_mkmers_per_s", "Mkmers/s"),
    ("msp.encode_s", "s"),
    ("msp.frame_crc_s", "s"),
    ("msp.crc_mb_per_s", "MB/s"),
    ("msp.spill_commit_s", "s"),
    ("msp.fsyncs", "count"),
    ("msp.load_s", "s"),
    ("msp.subsplit_s", "s"),
    ("msp.superkmers", "count"),
    ("msp.bytes_per_kmer", "bytes/kmer"),
    ("msp.resident_peak_mib", "MiB"),
    ("msp.sub_splits", "count"),
    // hashgraph (T, then R)
    ("hashgraph.checkout_s", "s"),
    ("hashgraph.replay_s", "s"),
    ("hashgraph.replay_mkmers_per_s", "Mkmers/s"),
    ("hashgraph.snapshot_s", "s"),
    ("hashgraph.merge_s", "s"),
    ("hashgraph.probe_steps_per_kmer", "ratio"),
    ("hashgraph.tag_reject_frac", "ratio"),
    ("hashgraph.cas_failures", "count"),
    ("hashgraph.lock_waits", "count"),
    ("hashgraph.table_peak_mib", "MiB"),
    // pipeline (R, then T)
    ("pipeline.step1.input_s", "s"),
    ("pipeline.step1.output_s", "s"),
    ("pipeline.step2.input_s", "s"),
    ("pipeline.step2.output_s", "s"),
    ("pipeline.step1.eq1_ratio", "ratio"),
    ("pipeline.step2.eq1_ratio", "ratio"),
    ("pipeline.commit_s", "s"),
    ("pipeline.commit_fsyncs", "count"),
    ("pipeline.shard.wire_crc_s", "s"),
    ("pipeline.shard.blob_s", "s"),
    ("pipeline.shard.frame_s", "s"),
    ("pipeline.shard.shipped_mib", "MiB"),
    ("pipeline.shard.overhead_s", "s"),
    ("pipeline.shard.residual_s", "s"),
    ("pipeline.shard.exhausted_leases", "count"),
    // hetsim CPU device (R)
    ("hetsim.cpu.step1_busy_s", "s"),
    ("hetsim.cpu.step2_busy_s", "s"),
    ("hetsim.cpu.step2_util", "ratio"),
    // parahash (R, then T)
    ("parahash.step1_s", "s"),
    ("parahash.step2_s", "s"),
    ("parahash.overlap_s", "s"),
    ("parahash.peak_model_ratio", "ratio"),
    ("parahash.fingerprint_s", "s"),
    ("parahash.journal_append_s", "s"),
    ("parahash.journal_appends", "count"),
    ("parahash.subgraph_encode_s", "s"),
    ("parahash.subgraph_mib", "MiB"),
    ("parahash.subgraph_verify_s", "s"),
    // the traced build itself
    ("trace.wall_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.parity_mismatches", "count"),
];

/// One timed build's measurements.
struct Sample {
    wall_s: f64,
    cpu_s: f64,
    peak_heap: usize,
    report: RunReport,
}

/// Attempted builds, failed builds and why they failed.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Gate {
    /// Counts one build; it fails on `Err`, a quarantined partition, an
    /// exhausted lease, or a graph that differs from the reference.
    fn check(
        &mut self,
        what: &str,
        outcome: &parahash::Result<RunOutcome>,
        oracle: &GraphDigest,
    ) -> bool {
        self.attempted += 1;
        let problem = match outcome {
            Err(e) => Some(format!("{what}: {e}")),
            Ok(o) if o.report.quarantined_partitions() > 0 => Some(format!(
                "{what}: {} partition(s) quarantined",
                o.report.quarantined_partitions()
            )),
            Ok(o) if !o.report.step2.exhausted_leases.is_empty() => Some(format!(
                "{what}: {} lease(s) exhausted",
                o.report.step2.exhausted_leases.len()
            )),
            Ok(o) if GraphDigest::of(&o.graph) != *oracle => {
                Some(format!("{what}: graph differs from the reference"))
            }
            Ok(_) => None,
        };
        self.fail(problem)
    }

    fn fail(&mut self, problem: Option<String>) -> bool {
        match problem {
            Some(note) => {
                self.failed += 1;
                self.notes.push(note);
                false
            }
            None => true,
        }
    }
}

pub struct WorkloadResult {
    workload: Workload,
    profile_seed: u64,
    fs_type: String,
    oracle_note: String,
    gate: Gate,
    build_s: Vec<f64>,
    end_to_end: Vec<(&'static str, &'static str, f64)>,
    per_layer: Vec<(&'static str, &'static str, f64)>,
    spans: Option<String>,
    /// Per-layer self time of the traced build and its wall.
    layer_self_s: Vec<(&'static str, f64)>,
    inputs_line: String,
}

/// Runs one workload under `dir` and collects its metrics. `root` is the
/// checkout, holding the oracle cache and the written traces.
pub fn measure(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    root: &Path,
    dir: &Path,
) -> Result<WorkloadResult, traced::Error> {
    let inputs = Inputs::generate(workload, seed, dir)?;
    let fs_type = measure::filesystem_type(dir);
    let (oracle, oracle_note) = oracle_digest(&inputs, root)?;
    let mut gate = Gate::default();

    // Set-up: config, runner, one warm-up build that pays first-touch
    // and first-spawn costs. Repeated; the median is `setup_s`.
    let build_dir = dir.join("build");
    let mut setups = Vec::with_capacity(SETUPS);
    let mut runner = None;
    for _ in 0..SETUPS {
        fresh_dir(&build_dir)?;
        let started = Instant::now();
        let ph = ParaHash::new(workload.config(&build_dir).build()?)?;
        let warm = workload.run(&ph, &inputs);
        setups.push(started.elapsed().as_secs_f64());
        gate.check("warm-up build", &warm, &oracle);
        runner = Some(ph);
    }
    let ph = runner.expect("at least one set-up");
    let threads = ph
        .config()
        .devices()
        .iter()
        .map(|d| d.parallelism())
        .sum::<usize>()
        .max(1);

    // Timed builds, untraced.
    let mut samples = Vec::new();
    let mut builds = 0;
    let deadline = Instant::now() + Duration::from_secs(seconds);
    while builds < MIN_BUILDS || Instant::now() < deadline {
        builds += 1;
        fresh_dir(&build_dir)?;
        let baseline = crate::alloc::reset_peak();
        let cpu = measure::cpu_seconds();
        let started = Instant::now();
        let outcome = std::hint::black_box(workload.run(&ph, &inputs));
        let wall_s = started.elapsed().as_secs_f64();
        let cpu_s = measure::cpu_seconds() - cpu;
        let peak_heap = crate::alloc::peak_since(baseline);
        if gate.check("timed build", &outcome, &oracle) {
            let report = outcome.expect("checked").report;
            samples.push(Sample {
                wall_s,
                cpu_s,
                peak_heap,
                report,
            });
        }
    }
    drop(ph);
    let _ = std::fs::remove_dir_all(&build_dir);

    let mut traced_out = None;
    let mut companion_s = Vec::new();
    if trace {
        let traced_dir = dir.join("traced");
        fresh_dir(&traced_dir)?;
        let run = traced::run(&workload.shape(&inputs), &traced_dir);
        let _ = std::fs::remove_dir_all(&traced_dir);
        gate.attempted += 1;
        match run {
            Err(e) => {
                gate.fail(Some(format!("traced build: {e}")));
            }
            Ok(t) => {
                if GraphDigest::of(&t.graph) != oracle {
                    gate.fail(Some(
                        "traced build: graph differs from the reference".into(),
                    ));
                }
                traced_out = Some(t);
            }
        }
        if workload == Workload::Chr14ShardTcpOoc {
            let companion_dir = dir.join("companion");
            for _ in 0..COMPANION_BUILDS {
                fresh_dir(&companion_dir)?;
                let ph = ParaHash::new(workload.companion_config(&companion_dir).build()?)?;
                let started = Instant::now();
                let outcome = workload.run(&ph, &inputs);
                let wall = started.elapsed().as_secs_f64();
                if gate.check("companion build", &outcome, &oracle) {
                    companion_s.push(wall);
                }
            }
            let _ = std::fs::remove_dir_all(&companion_dir);
        }
    }

    let parity = match (&traced_out, samples.first()) {
        (Some(t), Some(s)) => parity_mismatches(t, &s.report),
        _ => Vec::new(),
    };
    for note in &parity {
        gate.notes.push(format!("count parity: {note}"));
    }

    let build_s: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
    let values = [
        median(&build_s),
        inputs.kmers() as f64 / median(&build_s),
        median(&samples.iter().map(|s| s.cpu_s).collect::<Vec<_>>()),
        median(
            &samples
                .iter()
                .map(|s| s.peak_heap as f64 / MIB)
                .collect::<Vec<_>>(),
        ),
        median(&setups),
    ];
    let end_to_end = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect();
    let per_layer = per_layer(
        workload,
        &inputs,
        &samples,
        threads,
        traced_out.as_ref(),
        &companion_s,
        parity.len(),
    );
    let spans = traced_out.as_ref().map(|t| t.tracer.chrome_json());
    let layer_self_s = traced_out.as_ref().map_or_else(Vec::new, |t| {
        let names = t.tracer.by_name();
        crate::trace::LAYERS
            .iter()
            .map(|&layer| {
                let own = names
                    .iter()
                    .filter(|(name, _)| crate::trace::layer_of(name) == Some(layer))
                    .map(|(_, totals)| totals.self_s)
                    .fold(0.0, |acc, x| acc + x);
                (layer, own)
            })
            .collect()
    });
    let inputs_line = format!(
        "{} reads, {} bases, {} k-mers (k={}), {} FASTQ bytes",
        inputs.reads.len(),
        inputs.bases(),
        inputs.kmers(),
        crate::workload::K,
        inputs.fastq_bytes
    );
    Ok(WorkloadResult {
        workload,
        profile_seed: inputs.profile.seed,
        fs_type,
        oracle_note,
        gate,
        build_s,
        end_to_end,
        per_layer,
        spans,
        layer_self_s,
        inputs_line,
    })
}

fn fresh_dir(dir: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)
}

/// The reference graph's digest for these inputs: read from the
/// checkout's cache when an earlier run computed it for the same reads,
/// else built with `baselines::reference_graph` and cached.
fn oracle_digest(inputs: &Inputs, root: &Path) -> std::io::Result<(GraphDigest, String)> {
    let cache = root.join(".bench_cache");
    let path = cache.join(format!(
        "oracle-{}-{}.txt",
        inputs.profile.name, inputs.profile.seed
    ));
    let key = format!("reads {:016x}", inputs.digest());
    if let Ok(text) = std::fs::read_to_string(&path) {
        let mut lines = text.lines();
        if lines.next() == Some(key.as_str()) {
            if let Some(digest) = lines.next().and_then(GraphDigest::parse) {
                return Ok((
                    digest,
                    format!("reference digest read from {}", path.display()),
                ));
            }
        }
    }
    let started = Instant::now();
    let digest = GraphDigest::of(&baselines::reference_graph(
        &inputs.reads,
        crate::workload::K,
    ));
    let note = format!(
        "reference graph built in {:.2} s",
        started.elapsed().as_secs_f64()
    );
    std::fs::create_dir_all(&cache)?;
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    std::fs::write(&tmp, format!("{key}\n{}\n", digest.to_line()))?;
    std::fs::rename(&tmp, &path)?;
    Ok((digest, note))
}

/// Differences between what the traced build counted at its layer calls
/// and what a real build's `RunReport` says.
pub fn parity_mismatches(t: &Traced, report: &RunReport) -> Vec<String> {
    let c = &t.counts;
    let stats = report.step1.step1_stats.unwrap_or_default();
    let mut sub_splits = report.step2.sub_splits.clone();
    sub_splits.sort_unstable();
    let checks = [
        ("superkmers", c.superkmers, stats.superkmers),
        ("k-mers", c.kmers, report.total_kmers),
        ("partition bytes", c.partition_bytes, report.partition_bytes),
        (
            "distinct vertices",
            t.graph.distinct_vertices() as u64,
            report.distinct_vertices as u64,
        ),
        (
            "sub-splits",
            c.sub_splits.len() as u64,
            sub_splits.len() as u64,
        ),
    ];
    let mut out: Vec<String> = checks
        .iter()
        .filter(|(_, traced, real)| traced != real)
        .map(|(what, traced, real)| format!("{what}: traced {traced}, report {real}"))
        .collect();
    if c.sub_splits != sub_splits && out.iter().all(|m| !m.starts_with("sub-splits")) {
        out.push("sub-split fanouts differ".to_string());
    }
    out
}

fn per_layer(
    workload: Workload,
    inputs: &Inputs,
    samples: &[Sample],
    threads: usize,
    traced: Option<&Traced>,
    companion_s: &[f64],
    parity_mismatches: usize,
) -> Vec<(&'static str, &'static str, f64)> {
    // Median over the timed builds of a RunReport-derived value.
    let r = |f: &dyn Fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let contention = |s: &Sample| s.report.step2.contention.unwrap_or_default();
    let stats = |s: &Sample| s.report.step1.step1_stats.unwrap_or_default();
    let per_s = |amount: f64, secs: f64| if secs > 0.0 { amount / secs } else { 0.0 };

    let names = traced.map(|t| t.tracer.by_name()).unwrap_or_default();
    let own = |name: &str| names.get(name).map_or(0.0, |t| t.self_s);
    let counts = traced.map(|t| t.counts.clone()).unwrap_or_default();
    let (overhead, residual) = if companion_s.is_empty() {
        (0.0, 0.0)
    } else {
        let overhead = r(&|s| s.wall_s) - median(companion_s);
        let shard_work = own("pipeline.shard.blob")
            + own("pipeline.shard.frame")
            + own("pipeline.commit")
            + own("parahash.subgraph_encode")
            + own("parahash.subgraph_verify");
        (overhead, overhead - shard_work)
    };
    let fastq_rate = if workload.reads_fastq() {
        per_s(counts.bases as f64 / 1e6, own("dna.fastq_parse"))
    } else {
        0.0
    };

    let values = [
        ("e2e.timed_builds", samples.len() as f64),
        (
            "e2e.build_s_max",
            measure::max(&samples.iter().map(|s| s.wall_s).collect::<Vec<_>>()),
        ),
        ("input.reads", inputs.reads.len() as f64),
        ("input.bases", inputs.bases() as f64),
        ("input.kmers", inputs.kmers() as f64),
        ("input.fastq_bytes", inputs.fastq_bytes as f64),
        ("dna.fastq_parse_s", own("dna.fastq_parse")),
        ("dna.fastq_mbases_per_s", fastq_rate),
        ("msp.scan_s", own("msp.scan")),
        (
            "msp.scan_mkmers_per_s",
            per_s(counts.kmers as f64 / 1e6, own("msp.scan")),
        ),
        ("msp.encode_s", own("msp.encode")),
        ("msp.frame_crc_s", own("msp.frame")),
        (
            "msp.crc_mb_per_s",
            per_s(counts.crc_bytes as f64 / 1e6, counts.crc_s),
        ),
        ("msp.spill_commit_s", own("msp.spill_commit")),
        ("msp.fsyncs", counts.partition_fsyncs as f64),
        ("msp.load_s", own("msp.load")),
        ("msp.subsplit_s", own("msp.subsplit")),
        ("msp.superkmers", r(&|s| stats(s).superkmers as f64)),
        (
            "msp.bytes_per_kmer",
            r(&|s| per_s(stats(s).staging_bytes as f64, stats(s).kmers as f64)),
        ),
        (
            "msp.resident_peak_mib",
            r(&|s| s.report.step1.peak_resident_store_bytes as f64 / MIB),
        ),
        (
            "msp.sub_splits",
            r(&|s| s.report.step2.sub_splits.len() as f64),
        ),
        ("hashgraph.checkout_s", own("hashgraph.checkout")),
        ("hashgraph.replay_s", own("hashgraph.replay")),
        (
            "hashgraph.replay_mkmers_per_s",
            per_s(counts.replayed_kmers as f64 / 1e6, own("hashgraph.replay")),
        ),
        ("hashgraph.snapshot_s", own("hashgraph.snapshot")),
        ("hashgraph.merge_s", own("hashgraph.merge")),
        (
            "hashgraph.probe_steps_per_kmer",
            r(&|s| {
                per_s(
                    contention(s).probe_steps as f64,
                    contention(s).operations() as f64,
                )
            }),
        ),
        (
            "hashgraph.tag_reject_frac",
            r(&|s| {
                per_s(
                    contention(s).tag_rejects as f64,
                    contention(s).probe_steps as f64,
                )
            }),
        ),
        (
            "hashgraph.cas_failures",
            r(&|s| contention(s).cas_failures as f64),
        ),
        (
            "hashgraph.lock_waits",
            r(&|s| contention(s).lock_waits as f64),
        ),
        (
            "hashgraph.table_peak_mib",
            r(&|s| s.report.step2.peak_table_bytes as f64 / MIB),
        ),
        (
            "pipeline.step1.input_s",
            r(&|s| s.report.step1.pipeline.input_time.as_secs_f64()),
        ),
        (
            "pipeline.step1.output_s",
            r(&|s| s.report.step1.pipeline.output_time.as_secs_f64()),
        ),
        (
            "pipeline.step2.input_s",
            r(&|s| s.report.step2.pipeline.input_time.as_secs_f64()),
        ),
        (
            "pipeline.step2.output_s",
            r(&|s| s.report.step2.pipeline.output_time.as_secs_f64()),
        ),
        (
            "pipeline.step1.eq1_ratio",
            r(&|s| s.report.step1.model_accuracy()),
        ),
        (
            "pipeline.step2.eq1_ratio",
            r(&|s| s.report.step2.model_accuracy()),
        ),
        ("pipeline.commit_s", own("pipeline.commit")),
        // Each atomic commit fsyncs the file and its directory.
        ("pipeline.commit_fsyncs", (counts.commits * 2) as f64),
        ("pipeline.shard.wire_crc_s", counts.wire_crc_s),
        ("pipeline.shard.blob_s", own("pipeline.shard.blob")),
        ("pipeline.shard.frame_s", own("pipeline.shard.frame")),
        (
            "pipeline.shard.shipped_mib",
            counts.shipped_bytes as f64 / MIB,
        ),
        ("pipeline.shard.overhead_s", overhead),
        ("pipeline.shard.residual_s", residual),
        (
            "pipeline.shard.exhausted_leases",
            r(&|s| s.report.step2.exhausted_leases.len() as f64),
        ),
        (
            "hetsim.cpu.step1_busy_s",
            r(&|s| s.report.step1.cpu_compute.as_secs_f64()),
        ),
        (
            "hetsim.cpu.step2_busy_s",
            r(&|s| s.report.step2.cpu_compute.as_secs_f64()),
        ),
        (
            "hetsim.cpu.step2_util",
            r(&|s| {
                per_s(
                    s.report.step2.cpu_compute.as_secs_f64(),
                    threads as f64 * s.report.step2.pipeline.elapsed.as_secs_f64(),
                )
            }),
        ),
        (
            "parahash.step1_s",
            r(&|s| s.report.step1.pipeline.elapsed.as_secs_f64()),
        ),
        (
            "parahash.step2_s",
            r(&|s| s.report.step2.pipeline.elapsed.as_secs_f64()),
        ),
        (
            "parahash.overlap_s",
            r(&|s| s.report.steps_elapsed().as_secs_f64() - s.report.total_elapsed.as_secs_f64()),
        ),
        (
            "parahash.peak_model_ratio",
            r(&|s| per_s(s.report.peak_host_bytes as f64, s.peak_heap as f64)),
        ),
        ("parahash.fingerprint_s", own("parahash.fingerprint")),
        ("parahash.journal_append_s", own("parahash.journal_append")),
        ("parahash.journal_appends", counts.journal_appends as f64),
        (
            "parahash.subgraph_encode_s",
            own("parahash.subgraph_encode"),
        ),
        ("parahash.subgraph_mib", counts.subgraph_bytes as f64 / MIB),
        (
            "parahash.subgraph_verify_s",
            own("parahash.subgraph_verify"),
        ),
        (
            "trace.wall_s",
            names.get("trace").map_or(0.0, |t| t.total_s),
        ),
        (
            "trace.coverage",
            traced.map_or(0.0, |t| t.tracer.coverage("trace")),
        ),
        ("trace.parity_mismatches", parity_mismatches as f64),
    ];
    assert_eq!(
        values.len(),
        PER_LAYER.len(),
        "one value per per-layer metric"
    );
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
            (
                name,
                unit,
                value.expect("every per-layer metric has a value"),
            )
        })
        .collect()
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.gate.failed == 0 && self.gate.notes.is_empty()
    }

    /// Human-readable report: inputs, the correctness gate, and every
    /// metric by name with its unit.
    pub fn print_human(&self, out: &mut impl Write) {
        let _ = self.write_human(out);
    }

    fn write_human(&self, out: &mut impl Write) -> std::io::Result<()> {
        let cores = std::thread::available_parallelism().map_or(0, usize::from);
        writeln!(
            out,
            "== {} (dataset seed {}, {cores} cores, work dir on {})",
            self.workload.name(),
            self.profile_seed,
            self.fs_type
        )?;
        writeln!(out, "input: {}", self.inputs_line)?;
        writeln!(out, "oracle: {}", self.oracle_note)?;
        writeln!(
            out,
            "gate: {} build(s) attempted, {} failed{}",
            self.gate.attempted,
            self.gate.failed,
            if self.correct() { "" } else { " — INCORRECT" }
        )?;
        for note in &self.gate.notes {
            writeln!(out, "  {note}")?;
        }
        let n = self.build_s.len();
        writeln!(out, "end-to-end (medians over {n} timed builds):")?;
        let builds: Vec<String> = self.build_s.iter().map(|s| format!("{s:.3}")).collect();
        writeln!(out, "  timed builds (s): {}", builds.join(" "))?;
        // The highest percentile with at least ten samples beyond it.
        if n >= 20 {
            let pct = 100 * (n - 10) / n;
            let mut sorted = self.build_s.clone();
            sorted.sort_by(f64::total_cmp);
            let value = sorted[(pct * n).div_ceil(100) - 1];
            writeln!(out, "  build_s p{pct} {value:.6} s")?;
        } else {
            writeln!(out, "  {n} builds support no percentile above the median with ten samples beyond it; e2e.build_s_max is the slowest")?;
        }
        for (name, unit, value) in &self.end_to_end {
            writeln!(out, "  {name:<34} {value:>16.6} {unit}")?;
        }
        writeln!(out, "per-layer:")?;
        for (name, unit, value) in &self.per_layer {
            writeln!(out, "  {name:<34} {value:>16.6} {unit}")?;
        }
        if !self.layer_self_s.is_empty() {
            let wall = self
                .per_layer
                .iter()
                .find(|m| m.0 == "trace.wall_s")
                .map_or(0.0, |m| m.2);
            writeln!(out, "traced build, self time by layer (wall {wall:.3} s):")?;
            for (layer, own) in &self.layer_self_s {
                let share = if wall > 0.0 { 100.0 * own / wall } else { 0.0 };
                writeln!(out, "  {layer:<34} {own:>16.6} s  {share:5.1}%")?;
            }
        }
        Ok(())
    }

    /// The result line: end-to-end metrics, or per-layer ones when traced.
    pub fn json(&self, trace: bool) -> String {
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, unit, value)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.gate.attempted,
            self.gate.failed,
            body.join(", ")
        )
    }

    /// Writes the traced build's spans (Chrome trace-event JSON) to
    /// `dir`, returning the file written.
    pub fn write_spans(&self, dir: &Path) -> std::io::Result<Option<std::path::PathBuf>> {
        let Some(spans) = &self.spans else {
            return Ok(None);
        };
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!(
            "trace-{}-seed{}.json",
            self.workload.name(),
            self.profile_seed
        ));
        std::fs::write(&path, spans)?;
        Ok(Some(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every declared per-layer metric gets exactly one value, even for a
    /// run with no successful build and no traced build.
    #[test]
    fn per_layer_values_cover_the_declared_metrics() {
        let inputs = Inputs {
            profile: Workload::BumblebeeFused.profile(0),
            reads: Vec::new(),
            fastq: None,
            fastq_bytes: 0,
        };
        let metrics = per_layer(Workload::BumblebeeFused, &inputs, &[], 2, None, &[], 0);
        let names: Vec<&str> = metrics.iter().map(|m| m.0).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, declared);
    }

    /// `BENCHMARK.json` declares exactly the metrics this code reports.
    #[test]
    fn benchmark_definition_matches_the_reported_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "{} lacks {entry}", path.display());
        }
        assert_eq!(
            text.matches("\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + Workload::GATED.len()
        );
        for w in Workload::GATED {
            assert!(
                text.contains(&format!("\"name\": \"{}\"", w.name())),
                "workload {}",
                w.name()
            );
        }
    }
}
