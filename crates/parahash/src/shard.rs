//! Multi-process and multi-node Step-2 sharding: the parent/worker
//! drivers behind [`workers(N)`](crate::ParaHashConfigBuilder::workers)
//! and [`listen(addr)`](crate::ParaHashConfigBuilder::listen).
//!
//! The parent runs Step 1 as usual and seals the partition directory;
//! then, instead of building subgraphs in-process, it binds a listener
//! — a Unix socket in the work directory, or a TCP socket when remote
//! workers are expected — spawns `N` copies of its own executable (the
//! `tests/crash_recovery.rs` self-exec pattern), and leases partitions
//! to whoever connects, one at a time in LPT (largest-first) order over
//! the [`pipeline::shard`] wire protocol. Each worker builds its leased
//! partition with [`build_and_commit_partition`] — read, budget-admit
//! (sub-partitioning out of core when projected over budget),
//! hash-construct, atomically commit `sub-<i>.dbg` — and journals into
//! its own `worker-<id>/run.journal`.
//!
//! **Local (Unix) workers** share the parent's filesystem: the
//! committed subgraph file is the result channel, and the parent
//! re-reads and CRC-verifies every file a worker reports before
//! trusting it. **Remote (TCP) workers** get their partition payloads
//! shipped over the wire in the same CRC-framed format the partition
//! store uses on disk, build in a scratch directory, and stream the
//! committed subgraph bytes back; the parent commits those bytes
//! locally and then runs the *same* re-read verification seam. Either
//! way, byte-identity with the in-process build holds by construction —
//! every path funnels through the canonical-order
//! [`crate::encode_subgraph`].
//!
//! Failure handling: a worker that dies mid-lease drops its socket; one
//! that *hangs* mid-lease stops heartbeating and is evicted when the
//! parent's receive deadline lapses. Both requeue the worker's
//! partitions (bounded by the board's attempt cap, so a partition that
//! crashes builders cannot re-lease forever). Workers reconnect with
//! bounded exponential backoff and deterministically jittered pacing;
//! a reconnecting worker's journal is *reopened*, not truncated, so
//! its committed records survive for cluster-wide resume. Partitions
//! still unbuilt after the cluster drains — all workers died, or a
//! lease exhausted its attempts — are built in-process by the parent
//! as a fallback; only when that too fails does the run abort (strict)
//! or quarantine (non-strict).
//!
//! Worker processes are CPU-only and run with unthrottled I/O: the
//! sharded path exists for real multi-process throughput (separate
//! address spaces, separate page caches, overlapped fsyncs), not for
//! the simulated-device regimes, which remain in-process features.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use hashgraph::DeBruijnGraph;
use hetsim::DeviceKind;
use msp::{PartitionManifest, QuarantinedPartition};
use parking_lot::Mutex;
use pipeline::shard::{
    connect_tcp, connect_unix, decode_blob, encode_blob, is_checksum_mismatch, FrameSender,
    LeaseBoard, Recv, ShardListener, Transport, WireMsg, BLOB_TAG, MAX_FRAME, MAX_PAYLOAD_FRAME,
    PROTO_VERSION,
};
use pipeline::{failpoint, IoMode, PipelineReport, RetryPolicy, ThrottledIo};

use crate::journal::{Fingerprint, JournalEvent, RunJournal};
use crate::step2::{build_and_commit_partition, decode_subgraph_checked, VertexDensity};
use crate::{ParaHashConfig, ParaHashError, Result, StepReport};

/// Environment variable carrying the parent's Unix socket path into
/// locally spawned workers.
pub(crate) const ENV_SOCKET: &str = "PARAHASH_SHARD_SOCKET";
/// Environment variable carrying the parent's TCP `host:port` into
/// locally spawned workers when the run listens on TCP. Remote workers
/// pass the address explicitly (`dbg worker --connect`).
pub(crate) const ENV_CONNECT: &str = "PARAHASH_SHARD_CONNECT";
/// Environment variable carrying the worker's parent-assigned id.
pub(crate) const ENV_WORKER: &str = "PARAHASH_SHARD_WORKER";
/// Fault-injection hook for the worker-death tests: `"<worker>@<nth>"`
/// makes worker `<worker>` abort immediately before building its
/// `<nth>` assignment (1-based). Inherited by workers from the parent's
/// environment, like the failpoint variables.
pub(crate) const ENV_KILL: &str = "PARAHASH_SHARD_KILL";
/// Fault-injection hook for the heartbeat-loss tests: `"<worker>@<nth>"`
/// arms the `shard.net.delay` failpoint on the worker's `<nth>`
/// assignment, so it silently holds the lease (no heartbeats) for
/// `PARAHASH_SHARD_DELAY_MS` before building — long enough, with a
/// short parent deadline, to be evicted as hung.
pub(crate) const ENV_STALL: &str = "PARAHASH_SHARD_STALL";
/// Setting this to `tcp` makes a `workers(N)` run without an explicit
/// [`listen`](crate::ParaHashConfigBuilder::listen) address bind a
/// loopback TCP listener instead of the Unix socket — the CI lever for
/// rerunning the shard suites over the remote transport.
pub(crate) const ENV_TRANSPORT: &str = "PARAHASH_SHARD_TRANSPORT";

/// How many times one partition may be leased before it is given up on
/// (worker crashes, evictions, and polite failures all consume
/// attempts).
const MAX_LEASE_ATTEMPTS: usize = 2;

/// Socket filename inside the work directory.
const SOCKET_FILE: &str = "shard.sock";

fn shard_err(msg: impl Into<String>) -> ParaHashError {
    ParaHashError::Shard(msg.into())
}

// ---------------------------------------------------------------------
// Tuning: every deadline and pacing knob, environment-overridable so
// the chaos suites can compress minutes of failure detection into
// milliseconds without touching production defaults.
// ---------------------------------------------------------------------

fn env_ms(var: &str, default: u64) -> Duration {
    Duration::from_millis(
        std::env::var(var).ok().and_then(|v| v.parse().ok()).unwrap_or(default),
    )
}

/// The shard protocol's timing knobs, shared by both sides.
#[derive(Debug, Clone)]
struct ShardTuning {
    /// Worker → parent liveness pulse period during builds
    /// (`PARAHASH_SHARD_HEARTBEAT_MS`, default 1000).
    heartbeat: Duration,
    /// Parent-side receive deadline between a worker's frames
    /// (`PARAHASH_SHARD_TIMEOUT_MS`, default 5× heartbeat): a worker
    /// silent this long is evicted as hung, not merely slow.
    idle_timeout: Duration,
    /// Deadline on every request-reply exchange — handshake, claim,
    /// payload transfer (`PARAHASH_SHARD_REQUEST_TIMEOUT_MS`,
    /// default 30 000).
    request_timeout: Duration,
    /// Worker reconnect pacing: attempts bound and exponential backoff
    /// (`PARAHASH_SHARD_RECONNECT_ATTEMPTS` default 5,
    /// `PARAHASH_SHARD_RECONNECT_MS` base default 100, capped at 2 s),
    /// jittered deterministically by worker id so a restarted cluster
    /// doesn't stampede.
    reconnect: RetryPolicy,
    /// How long a listen-only parent (no spawned children) waits for
    /// the first remote worker before degrading to the in-process
    /// fallback (`PARAHASH_SHARD_WAIT_MS`, default 30 000).
    wait_for_first: Duration,
}

impl ShardTuning {
    fn from_env() -> ShardTuning {
        let heartbeat = env_ms("PARAHASH_SHARD_HEARTBEAT_MS", 1000);
        let idle_timeout = match std::env::var("PARAHASH_SHARD_TIMEOUT_MS")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            Some(ms) => Duration::from_millis(ms),
            None => heartbeat.saturating_mul(5),
        };
        let attempts: u32 = std::env::var("PARAHASH_SHARD_RECONNECT_ATTEMPTS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(5);
        ShardTuning {
            heartbeat,
            idle_timeout,
            request_timeout: env_ms("PARAHASH_SHARD_REQUEST_TIMEOUT_MS", 30_000),
            reconnect: RetryPolicy::capped(
                attempts,
                env_ms("PARAHASH_SHARD_RECONNECT_MS", 100),
                Duration::from_secs(2),
            ),
            wait_for_first: env_ms("PARAHASH_SHARD_WAIT_MS", 30_000),
        }
    }
}

/// How long an armed `shard.net.delay` stall lasts (shared with the
/// wire layer's delayed-send semantics; `PARAHASH_SHARD_DELAY_MS`,
/// default 100).
fn stall_delay() -> Duration {
    env_ms("PARAHASH_SHARD_DELAY_MS", 100)
}

// ---------------------------------------------------------------------
// Config blob: how the parent's build configuration crosses the wire.
// ---------------------------------------------------------------------

/// Serialises the subset of the configuration a worker needs, as
/// `key value` lines. Floats travel as `f64::to_bits` hex so the worker
/// reconstructs bit-identical sizing parameters (a decimal round-trip
/// could move a table capacity by one and break byte-identity of the
/// resize accounting). `transfer` says how partition bytes move:
/// `fs` (shared filesystem — Unix workers) or `wire` (shipped in frames
/// — TCP workers, which must not assume the parent's paths exist).
/// `work-dir` is last and consumes the rest of its line — paths may
/// contain spaces.
fn config_blob(config: &ParaHashConfig, wire: bool) -> String {
    let threads = config
        .devices()
        .iter()
        .find(|d| d.kind() == DeviceKind::Cpu)
        .map_or(1, |d| d.parallelism());
    let token = if config.run_token.is_empty() { "-" } else { &config.run_token };
    format!(
        "k {}\np {}\npartitions {}\nlambda {:016x}\nalpha {:016x}\n\
         table-memory-budget {}\nout-of-core {}\nthreads {}\ndigest {:016x}\n\
         run-token {}\ntransfer {}\nwork-dir {}",
        config.k,
        config.p,
        config.partitions,
        config.sizing.lambda.to_bits(),
        config.sizing.alpha.to_bits(),
        config.table_memory_budget,
        config.out_of_core as u8,
        threads,
        config.input_digest,
        token,
        if wire { "wire" } else { "fs" },
        config.work_dir.display(),
    )
}

/// Parses [`config_blob`] back into a worker-side configuration: same
/// build parameters, but CPU-only, strict (every failure must surface
/// as a wire `failed` message — quarantine policy belongs to the
/// parent), and with subgraph persistence forced on (the committed file
/// is the result channel). The third return says whether partition
/// bytes travel over the wire (`transfer wire`).
fn config_from_blob(blob: &str) -> Result<(ParaHashConfig, Fingerprint, bool)> {
    let mut k = None;
    let mut p = None;
    let mut partitions = None;
    let mut lambda = None;
    let mut alpha = None;
    let mut budget = None;
    let mut out_of_core = None;
    let mut threads = None;
    let mut digest = None;
    let mut token = None;
    let mut wire = None;
    let mut work_dir = None;
    for line in blob.lines() {
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| shard_err(format!("config blob line without a value: `{line}`")))?;
        let int = |what: &str| -> Result<u64> {
            value.parse().map_err(|e| shard_err(format!("config blob: bad {what}: {e}")))
        };
        let bits = |what: &str| -> Result<f64> {
            u64::from_str_radix(value, 16)
                .map(f64::from_bits)
                .map_err(|e| shard_err(format!("config blob: bad {what}: {e}")))
        };
        match key {
            "k" => k = Some(int("k")? as usize),
            "p" => p = Some(int("p")? as usize),
            "partitions" => partitions = Some(int("partitions")? as usize),
            "lambda" => lambda = Some(bits("lambda")?),
            "alpha" => alpha = Some(bits("alpha")?),
            "table-memory-budget" => budget = Some(int("table-memory-budget")?),
            "out-of-core" => out_of_core = Some(int("out-of-core")? != 0),
            "threads" => threads = Some(int("threads")? as usize),
            "digest" => {
                digest = Some(
                    u64::from_str_radix(value, 16)
                        .map_err(|e| shard_err(format!("config blob: bad digest: {e}")))?,
                )
            }
            "run-token" => token = Some(if value == "-" { String::new() } else { value.into() }),
            "transfer" => {
                wire = Some(match value {
                    "wire" => true,
                    "fs" => false,
                    other => {
                        return Err(shard_err(format!("config blob: unknown transfer `{other}`")))
                    }
                })
            }
            "work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(shard_err(format!("config blob: unknown key `{other}`"))),
        }
    }
    let missing = |what: &str| shard_err(format!("config blob is missing `{what}`"));
    let (k, p, partitions) = (
        k.ok_or_else(|| missing("k"))?,
        p.ok_or_else(|| missing("p"))?,
        partitions.ok_or_else(|| missing("partitions"))?,
    );
    let mut config = ParaHashConfig::builder()
        .k(k)
        .p(p)
        .partitions(partitions)
        .sizing(hashgraph::SizingParams {
            lambda: lambda.ok_or_else(|| missing("lambda"))?,
            alpha: alpha.ok_or_else(|| missing("alpha"))?,
        })
        .table_memory_budget(budget.ok_or_else(|| missing("table-memory-budget"))?)
        .out_of_core(out_of_core.ok_or_else(|| missing("out-of-core"))?)
        .cpu_threads(threads.ok_or_else(|| missing("threads"))?)
        .work_dir(work_dir.ok_or_else(|| missing("work-dir"))?)
        .write_subgraphs(true)
        .strict(true)
        .build()?;
    config.run_token = token.ok_or_else(|| missing("run-token"))?;
    let fingerprint =
        Fingerprint { k, p, partitions, input_digest: digest.ok_or_else(|| missing("digest"))? };
    config.input_digest = fingerprint.input_digest;
    Ok((config, fingerprint, wire.ok_or_else(|| missing("transfer"))?))
}

// ---------------------------------------------------------------------
// Worker side.
// ---------------------------------------------------------------------

/// Where a worker's parent lives.
enum Endpoint {
    /// Filesystem socket of a same-machine parent.
    Unix(PathBuf),
    /// `host:port` of a (possibly remote) TCP parent.
    Tcp(String),
}

impl Endpoint {
    fn connect(&self) -> std::io::Result<Box<dyn Transport>> {
        match self {
            Endpoint::Unix(path) => connect_unix(path),
            Endpoint::Tcp(addr) => connect_tcp(addr),
        }
    }

    fn describe(&self) -> String {
        match self {
            Endpoint::Unix(path) => path.display().to_string(),
            Endpoint::Tcp(addr) => addr.clone(),
        }
    }
}

/// Routes a process into the shard-worker loop when the parent's
/// environment marks it as one. **Call this first in `main`** (or in
/// the dedicated worker-entry test of a test binary): a production
/// binary spawned as a worker then serves its leases and exits instead
/// of running its own workload.
///
/// Returns `Ok(false)` immediately in an ordinary process (the
/// variables are absent), `Ok(true)` after a completed worker run.
///
/// # Errors
///
/// Connection, protocol, or configuration failures inside the worker
/// loop. Build failures of individual partitions are *not* errors here
/// — they are reported to the parent as `failed` messages and retried
/// or quarantined there.
pub fn worker_from_env() -> Result<bool> {
    let Ok(worker) = std::env::var(ENV_WORKER) else { return Ok(false) };
    let endpoint = if let Ok(addr) = std::env::var(ENV_CONNECT) {
        Endpoint::Tcp(addr)
    } else if let Ok(socket) = std::env::var(ENV_SOCKET) {
        Endpoint::Unix(PathBuf::from(socket))
    } else {
        return Ok(false);
    };
    let worker: usize = worker
        .parse()
        .map_err(|e| shard_err(format!("{ENV_WORKER}=`{worker}` is not a worker id: {e}")))?;
    run_worker_loop(&endpoint, worker)?;
    Ok(true)
}

/// Joins a (possibly remote) parent's shard cluster over TCP and serves
/// leases until the parent says `finished`. This is the library half of
/// `dbg worker --connect <addr>`: run it on any machine that can reach
/// the parent's [`listen`](crate::ParaHashConfigBuilder::listen)
/// address; partition payloads and subgraph results travel over the
/// wire, so no shared filesystem is needed.
///
/// # Errors
///
/// An unreachable parent (after the bounded reconnect budget), a
/// version-skew denial, or a protocol/configuration failure. Individual
/// partition build failures are reported to the parent, not returned.
pub fn run_remote_worker(addr: &str, worker: usize) -> Result<()> {
    run_worker_loop(&Endpoint::Tcp(addr.to_string()), worker)
}

/// Parses a `"<worker>@<nth>"` fault spec scoped to this worker.
fn spec_before(var: &str, worker: usize) -> Option<usize> {
    let spec = std::env::var(var).ok()?;
    let (w, nth) = spec.split_once('@')?;
    if w.parse::<usize>().ok()? != worker {
        return None;
    }
    nth.parse().ok()
}

/// `Some(nth)` when this worker must abort before its `nth` assignment.
fn kill_before(worker: usize) -> Option<usize> {
    spec_before(ENV_KILL, worker)
}

/// `Some(nth)` when this worker must stall (hold the lease silently)
/// before its `nth` assignment.
fn stall_before(worker: usize) -> Option<usize> {
    spec_before(ENV_STALL, worker)
}

/// Worker state that must survive reconnects: the assignment counter
/// feeds the kill/stall specs (an aborted-and-respawned worker is a new
/// process, but a *reconnected* one keeps counting).
struct WorkerSession {
    worker: usize,
    /// Assignments received across all sessions of this process.
    assigned: usize,
    /// Whether any session ever received the config (the parent was
    /// reachable and sane at least once).
    served_any: bool,
    /// Whether the *current* session received the config; a productive
    /// session refunds the reconnect budget.
    progressed: bool,
    /// Table-size estimate carried across every lease this process builds.
    density: VertexDensity,
}

/// How one connected session ended.
enum SessionEnd {
    /// The parent said `finished`: the run is over.
    Finished,
    /// The connection (or the parent) went away; the text says how.
    /// The outer loop decides whether to reconnect.
    Lost(String),
}

/// The worker loop: connect, serve one session, and on connection loss
/// retry with the tuned backoff — exponential, capped, and jittered by
/// worker id so a cluster restarting against a rebooted parent doesn't
/// stampede. A session that got as far as the config refunds the
/// attempt budget: transient mid-run drops shouldn't accumulate into
/// a permanent exit while the parent keeps coming back.
fn run_worker_loop(endpoint: &Endpoint, worker: usize) -> Result<()> {
    let tuning = ShardTuning::from_env();
    let attempts = tuning.reconnect.attempts.max(1);
    let mut sess = WorkerSession {
        worker,
        assigned: 0,
        served_any: false,
        progressed: false,
        density: VertexDensity::default(),
    };
    let mut failures: u32 = 0;
    loop {
        let end = match endpoint.connect() {
            Ok(conn) => serve_session(conn, &mut sess, &tuning)?,
            Err(e) => SessionEnd::Lost(format!("connecting: {e}")),
        };
        let why = match end {
            SessionEnd::Finished => return Ok(()),
            SessionEnd::Lost(why) => why,
        };
        failures = if sess.progressed { 1 } else { failures + 1 };
        // One refund per productive session: a failed *connect* never
        // reaches serve_session (which owns this flag), and a stale
        // `true` here would refund forever — a worker outliving the
        // parent's listener must run out of attempts, not spin.
        sess.progressed = false;
        if failures >= attempts {
            if sess.served_any {
                // The parent vanished for good after real work was
                // served; its supervision loop already requeued our
                // leases. Exit cleanly — a drained cluster is not a
                // worker bug.
                return Ok(());
            }
            return Err(shard_err(format!(
                "cannot reach shard parent at {}: {why} (after {failures} attempt(s))",
                endpoint.describe()
            )));
        }
        std::thread::sleep(tuning.reconnect.delay(failures, worker as u64));
    }
}

/// Sends heartbeat frames on a dedicated thread while a build is in
/// flight, so the parent can tell a slow worker (pulsing) from a hung
/// one (silent). Dropping the ticker stops *and joins* the thread —
/// the reply that follows a build must never interleave with a pulse.
/// The thread waits out each period on a channel; dropping the ticker
/// disconnects it, which wakes the thread at once.
struct HeartbeatTicker {
    stop: Option<mpsc::Sender<()>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HeartbeatTicker {
    fn start(mut sender: Box<dyn FrameSender>, worker: usize, period: Duration) -> HeartbeatTicker {
        let (stop, stopped) = mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            let pulse = WireMsg::Heartbeat(worker).encode();
            // One pulse per full period of silence; a disconnect (the
            // ticker dropped) ends the loop at once.
            while let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(period) {
                if sender.send(&pulse).is_err() {
                    // Dead socket: the main loop's next send/recv will
                    // notice and reconnect; pulsing is pointless.
                    return;
                }
            }
        });
        HeartbeatTicker { stop: Some(stop), handle: Some(handle) }
    }
}

impl Drop for HeartbeatTicker {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// One connected session: hello/config handshake, then claim-build-
/// report until `finished` or the connection dies. Connection-scoped
/// failures return [`SessionEnd::Lost`] (the caller may reconnect);
/// only non-retryable conditions — a `deny`, a corrupt config, a local
/// setup failure — are `Err`.
fn serve_session(
    mut conn: Box<dyn Transport>,
    sess: &mut WorkerSession,
    tuning: &ShardTuning,
) -> Result<SessionEnd> {
    sess.progressed = false;
    if let Err(e) = conn.send(&WireMsg::Hello(sess.worker, PROTO_VERSION).encode()) {
        return Ok(SessionEnd::Lost(format!("sending hello: {e}")));
    }
    let frame = match conn.recv(MAX_FRAME, Some(tuning.request_timeout)) {
        Ok(Recv::Frame(frame)) => frame,
        Ok(Recv::Eof) => return Ok(SessionEnd::Lost("parent closed before `config`".into())),
        Ok(Recv::TimedOut) => {
            return Ok(SessionEnd::Lost(format!(
                "no `config` within {}ms",
                tuning.request_timeout.as_millis()
            )))
        }
        Err(e) => return Ok(SessionEnd::Lost(format!("receiving `config`: {e}"))),
    };
    let blob = match WireMsg::decode(&frame) {
        Ok(WireMsg::Config(blob)) => blob,
        // A denial is fatal by protocol contract: retrying the same
        // binary against the same parent can only be denied again.
        Ok(WireMsg::Deny(why)) => {
            return Err(shard_err(format!("parent denied worker {}: {why}", sess.worker)))
        }
        Ok(other) => {
            return Ok(SessionEnd::Lost(format!(
                "parent's first message was not `config`: {other:?}"
            )))
        }
        Err(e) => return Ok(SessionEnd::Lost(format!("undecodable `config` frame: {e}"))),
    };
    sess.progressed = true;
    sess.served_any = true;
    let (mut config, fingerprint, wire) = config_from_blob(&blob)?;
    let manifest = if wire {
        // Remote worker: the parent's filesystem does not exist here.
        // Build in a scratch directory named by the run fingerprint, the
        // worker id and this process's id. The fingerprint alone is not
        // unique: two concurrent runs over the same input share it, and
        // one run's clean exit would delete the other's staged
        // partitions. Payloads land under `superkmers/` exactly as the
        // partition store would have written them.
        let scratch = std::env::temp_dir().join(format!(
            "parahash-remote-{}-w{}-{}",
            fingerprint.token(),
            sess.worker,
            std::process::id()
        ));
        std::fs::create_dir_all(scratch.join("superkmers"))?;
        std::fs::create_dir_all(scratch.join("subgraphs"))?;
        config.work_dir = scratch;
        None
    } else {
        Some(PartitionManifest::load(config.work_dir.join("superkmers"))?)
    };
    // The worker's own journal, in its own subdirectory: `sub-split` and
    // `subgraph-committed` records for the leases it built, replayable
    // for post-mortems and aggregated by cluster-wide resume. Reopened
    // (not truncated) so records survive reconnects.
    let journal = RunJournal::open_or_create(
        &config.work_dir.join(format!("worker-{}", sess.worker)),
        fingerprint,
    )?;
    let io = ThrottledIo::new(IoMode::Unthrottled);
    let kill = kill_before(sess.worker);
    let stall = stall_before(sess.worker);
    loop {
        if let Err(e) = conn.send(&WireMsg::Claim(sess.worker).encode()) {
            return Ok(SessionEnd::Lost(format!("sending claim: {e}")));
        }
        // A wire-mode reply may be preceded by the partition payload of
        // an `assign` lost to a bad checksum below, hence the payload cap.
        let cap = if wire { MAX_PAYLOAD_FRAME } else { MAX_FRAME };
        let frame = loop {
            match conn.recv(cap, Some(tuning.request_timeout)) {
                // The payload of that lost `assign`: skip it.
                Ok(Recv::Frame(frame)) if wire && frame.first() == Some(&BLOB_TAG) => continue,
                Ok(Recv::Frame(frame)) => break Some(frame),
                Ok(Recv::Eof) => return Ok(SessionEnd::Lost("parent closed mid-run".into())),
                Ok(Recv::TimedOut) => {
                    return Ok(SessionEnd::Lost(format!(
                        "no claim reply within {}ms",
                        tuning.request_timeout.as_millis()
                    )))
                }
                // Damaged in transit, read whole: the stream is still in
                // step. Claim again; the parent refunds the lease this
                // reply may have carried.
                Err(e) if is_checksum_mismatch(&e) => break None,
                Err(e) => return Ok(SessionEnd::Lost(format!("receiving claim reply: {e}"))),
            }
        };
        let Some(frame) = frame else { continue };
        let reply = match WireMsg::decode(&frame) {
            Ok(msg) => msg,
            // Desync, not protocol death: a dropped `assign` leaves the
            // next frame on the stream a raw partition blob, which is
            // not a text message. Drop the connection and resync with a
            // fresh session; the parent requeues whatever it leased us.
            Err(e) => return Ok(SessionEnd::Lost(format!("undecodable claim reply: {e}"))),
        };
        match reply {
            WireMsg::Assign(p, kmers) => {
                sess.assigned += 1;
                if kill == Some(sess.assigned) {
                    // Die exactly as a crashed worker would: no unwind,
                    // no cleanup, the lease left dangling.
                    std::process::abort();
                }
                if stall == Some(sess.assigned) {
                    // Arm the hang on *this* assignment only — arming
                    // earlier would let an unrelated send consume the
                    // trigger.
                    failpoint::arm("shard.net.delay", failpoint::FailAction::ReturnError, 1);
                }
                let (path, n_kmers) = if wire {
                    let payload = match conn.recv(MAX_PAYLOAD_FRAME, Some(tuning.request_timeout))
                    {
                        Ok(Recv::Frame(frame)) => frame,
                        Ok(Recv::Eof) => {
                            return Ok(SessionEnd::Lost("parent closed mid-payload".into()))
                        }
                        Ok(Recv::TimedOut) => {
                            return Ok(SessionEnd::Lost(format!(
                                "partition {p} payload never arrived ({}ms)",
                                tuning.request_timeout.as_millis()
                            )))
                        }
                        // Damaged in transit: claim again, which has the
                        // parent refund and re-lease this partition.
                        Err(e) if is_checksum_mismatch(&e) => continue,
                        Err(e) => {
                            return Ok(SessionEnd::Lost(format!(
                                "receiving partition {p} payload: {e}"
                            )))
                        }
                    };
                    let bytes = match decode_blob(payload) {
                        Ok(bytes) => bytes,
                        Err(e) => {
                            return Ok(SessionEnd::Lost(format!(
                                "partition {p} payload rejected: {e}"
                            )))
                        }
                    };
                    let path =
                        config.work_dir.join("superkmers").join(format!("part-{p:05}.skm"));
                    if let Err(e) = std::fs::write(&path, &bytes) {
                        // Local scratch trouble: a polite failure the
                        // parent can re-lease elsewhere.
                        let detail =
                            format!("storing shipped partition: {e}").replace(['\n', '\r'], " ");
                        if conn.send(&WireMsg::Failed(p, detail).encode()).is_err() {
                            return Ok(SessionEnd::Lost("sending failure report".into()));
                        }
                        continue;
                    }
                    (path, kmers)
                } else {
                    let manifest = manifest.as_ref().expect("fs transfer has a manifest");
                    (manifest.partition_path(p), manifest.stats()[p].kmers)
                };
                if failpoint::hit("shard.net.delay").is_err() {
                    // Injected hang: hold the lease in silence — no
                    // heartbeats are running yet, so a short parent
                    // deadline evicts us as hung, which is the point.
                    std::thread::sleep(stall_delay());
                }
                let ticker =
                    HeartbeatTicker::start(conn.sender(), sess.worker, tuning.heartbeat);
                let built = build_and_commit_partition(
                    &config,
                    p,
                    &path,
                    n_kmers,
                    &io,
                    Some(&journal),
                    &sess.density,
                );
                // Stop (and join) the pulse *before* replying: a
                // heartbeat must never interleave with the result and
                // its payload.
                drop(ticker);
                let (reply, payload) = match built {
                    Ok(out) => {
                        let detail =
                            format!("ok {} {} {}", out.resizes, out.peak_table_bytes, out.fanout);
                        if wire {
                            // Read the committed bytes *before* claiming
                            // success: the parent must never be left
                            // waiting for a payload that cannot come.
                            let sub =
                                config.work_dir.join("subgraphs").join(format!("sub-{p:05}.dbg"));
                            match std::fs::read(&sub) {
                                Ok(bytes) => {
                                    (WireMsg::Result(p, detail), Some(encode_blob(&bytes)))
                                }
                                Err(e) => {
                                    let detail = format!("re-reading built subgraph: {e}")
                                        .replace(['\n', '\r'], " ");
                                    (WireMsg::Failed(p, detail), None)
                                }
                            }
                        } else {
                            (WireMsg::Result(p, detail), None)
                        }
                    }
                    Err(e) => {
                        (WireMsg::Failed(p, e.to_string().replace(['\n', '\r'], " ")), None)
                    }
                };
                if conn.send(&reply.encode()).is_err() {
                    return Ok(SessionEnd::Lost("sending build report".into()));
                }
                if let Some(payload) = payload {
                    if conn.send(&payload).is_err() {
                        return Ok(SessionEnd::Lost("sending subgraph payload".into()));
                    }
                }
            }
            WireMsg::Finished => {
                if wire {
                    // The scratch directory was only ever the wire's
                    // staging area.
                    let _ = std::fs::remove_dir_all(&config.work_dir);
                }
                return Ok(SessionEnd::Finished);
            }
            other => {
                return Ok(SessionEnd::Lost(format!("unexpected message from parent: {other:?}")))
            }
        }
    }
}

// ---------------------------------------------------------------------
// Parent side.
// ---------------------------------------------------------------------

/// What the connection handlers accumulate across workers.
#[derive(Default)]
struct ShardStats {
    resizes: usize,
    peak_table_bytes: u64,
    sub_splits: Vec<(usize, usize)>,
    built: BTreeSet<usize>,
}

/// Step 2 as a multi-process (and optionally multi-node) shard: bind a
/// listener, spawn [`workers`](crate::ParaHashConfigBuilder::workers)
/// child processes, accept whoever connects (children and remote
/// `dbg worker` joiners alike), lease them partitions largest-first,
/// verify and absorb their committed subgraphs. Drop-in replacement for
/// [`run_step2_with`](crate::step2::run_step2_with) on the two-phase
/// path — same signature, same journal records in the parent's
/// `run.journal`, byte-identical subgraph files and graph.
///
/// # Errors
///
/// Socket/spawn failures, a partition that exhausted its lease attempts
/// *and* the in-process fallback (strict mode), or any error of the
/// fallback builds.
pub(crate) fn run_step2_sharded(
    config: &ParaHashConfig,
    manifest: &PartitionManifest,
    io: &ThrottledIo,
    journal: Option<&RunJournal>,
    skip: &BTreeSet<usize>,
) -> Result<(DeBruijnGraph, StepReport)> {
    debug_assert!(config.workers > 0 || config.listen.is_some());
    let started = Instant::now();
    let tuning = ShardTuning::from_env();
    let n = manifest.num_partitions();
    let sub_dir = config.work_dir.join("subgraphs");
    std::fs::create_dir_all(&sub_dir)?;

    // LPT dispatch order, as in the in-process scheduler: the biggest
    // partitions start first so the tail stays short. Ties break to the
    // lower index for deterministic assignment logs.
    let mut order: Vec<usize> = (0..n).filter(|i| !skip.contains(i)).collect();
    order.sort_by(|&a, &b| {
        manifest.stats()[b].bytes.cmp(&manifest.stats()[a].bytes).then(a.cmp(&b))
    });

    // Nothing left to distribute — a resumed run whose every partition
    // already committed (and re-verified). Don't bind a listener or
    // spawn workers: children of a parent with no work would only wait
    // out their config deadline against a drained cluster.
    if order.is_empty() {
        return Ok((
            config.empty_graph(),
            StepReport {
                step: 2,
                pipeline: PipelineReport {
                    elapsed: started.elapsed(),
                    input_time: Duration::ZERO,
                    output_time: Duration::ZERO,
                    shares: Vec::new(),
                    partitions: 0,
                    spans: Vec::new(),
                    cancelled: false,
                },
                cpu_compute: Duration::ZERO,
                gpu_compute: Duration::ZERO,
                contention: None,
                step1_stats: None,
                resizes: 0,
                peak_partition_bytes: 0,
                peak_table_bytes: 0,
                peak_resident_store_bytes: 0,
                quarantined: Vec::new(),
                sub_splits: Vec::new(),
                coproc: None,
                exhausted_leases: Vec::new(),
            },
        ));
    }

    let tcp = config.listen.is_some()
        || std::env::var(ENV_TRANSPORT).map(|v| v == "tcp").unwrap_or(false);
    let listener = if tcp {
        let bind = config.listen.as_deref().unwrap_or("127.0.0.1:0");
        ShardListener::bind_tcp(bind)
            .map_err(|e| shard_err(format!("binding worker listener {bind}: {e}")))?
    } else {
        let socket_path = config.work_dir.join(SOCKET_FILE);
        ShardListener::bind_unix(&socket_path).map_err(|e| {
            shard_err(format!("binding worker socket {}: {e}", socket_path.display()))
        })?
    };
    let addr = listener.addr();

    let exe = std::env::current_exe().map_err(ParaHashError::Io)?;
    let mut children = Vec::with_capacity(config.workers);
    for w in 0..config.workers {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(&config.worker_args).env(ENV_WORKER, w.to_string());
        if tcp {
            cmd.env(ENV_CONNECT, &addr).env_remove(ENV_SOCKET);
        } else {
            cmd.env(ENV_SOCKET, &addr).env_remove(ENV_CONNECT);
        }
        let child =
            cmd.spawn().map_err(|e| shard_err(format!("spawning worker {w}: {e}")))?;
        children.push(child);
    }

    let board = Mutex::new(LeaseBoard::new(order, n, MAX_LEASE_ATTEMPTS));
    let stats = Mutex::new(ShardStats::default());
    let fs_blob = config_blob(config, false);
    let wire_blob = config_blob(config, true);
    let shutdown = AtomicBool::new(false);
    let active = AtomicUsize::new(0);
    let ever_connected = AtomicBool::new(false);
    let mut handler_faults: Vec<ParaHashError> = Vec::new();

    std::thread::scope(|s| {
        let accept = s.spawn(|| {
            let mut handlers = Vec::new();
            loop {
                let conn = match listener.accept() {
                    Ok(conn) => conn,
                    Err(_) => break,
                };
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                ever_connected.store(true, Ordering::SeqCst);
                active.fetch_add(1, Ordering::SeqCst);
                handlers.push(s.spawn(|| {
                    let served = serve_worker(
                        conn, &board, &stats, &fs_blob, &wire_blob, &sub_dir, journal, io,
                        manifest, &tuning,
                    );
                    active.fetch_sub(1, Ordering::SeqCst);
                    served
                }));
            }
            handlers.into_iter().filter_map(|h| h.join().ok().and_then(|r| r.err())).collect()
        });
        // Supervision: the run ends when the board drains, or when the
        // cluster does — no live child process and no active connection
        // (remote joiners get `wait_for_first` to show up when nothing
        // was spawned locally). Whatever is left un-built falls back to
        // the in-process path below.
        loop {
            if board.lock().remaining() == 0 {
                break;
            }
            let child_alive =
                children.iter_mut().any(|c| matches!(c.try_wait(), Ok(None) | Err(_)));
            if child_alive || active.load(Ordering::SeqCst) > 0 {
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
            if children.is_empty()
                && !ever_connected.load(Ordering::SeqCst)
                && started.elapsed() < tuning.wait_for_first
            {
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
            break;
        }
        shutdown.store(true, Ordering::SeqCst);
        listener.unblock();
        handler_faults = accept.join().unwrap_or_default();
    });
    // Reap every child before trusting shared state: an evicted-but-
    // alive worker could otherwise still be writing under the work
    // directory while the parent verifies and absorbs.
    for child in &mut children {
        let _ = child.wait();
    }
    if let ShardListener::Unix(_, path) = &listener {
        let _ = std::fs::remove_file(path);
    }

    // A handler fault is a *parent-side* failure (journal append) — the
    // affected worker's leases were requeued when its connection
    // closed, but a journaling failure must abort like in-process.
    if let Some(e) = handler_faults.into_iter().next() {
        if config.strict {
            let _ = std::fs::remove_dir_all(&sub_dir);
            return Err(e);
        }
    }

    let mut board = board.into_inner();
    let mut stats = stats.into_inner();
    let mut quarantined: Vec<QuarantinedPartition> = Vec::new();
    // De-race: a worker's reconnection can cross its old connection's
    // teardown, letting `release_worker` charge — and even exhaust — a
    // lease whose build actually finished and verified. A partition
    // that is both exhausted-on-paper and verified-built is built.
    let mut exhausted_leases = board.exhausted().to_vec();
    exhausted_leases.retain(|x| !stats.built.contains(&x.partition));

    // Leases that burned every attempt: strict runs abort, non-strict
    // runs set the partition aside exactly like an in-process read
    // failure would.
    for x in &exhausted_leases {
        if config.strict {
            let _ = std::fs::remove_dir_all(&sub_dir);
            return Err(shard_err(format!(
                "partition {} failed {} worker attempt(s): {}",
                x.partition, x.attempts, x.reason
            )));
        }
        quarantined.push(QuarantinedPartition {
            index: x.partition,
            reason: format!("{} (after {} worker attempts)", x.reason, x.attempts),
        });
    }

    // Orphans — partitions still pending after the cluster drained
    // (workers all died or were evicted, or all drew `finished` while a
    // failure was requeueing) — fall back to in-process builds by the
    // parent: graceful degradation, not an error.
    let mut orphans = Vec::new();
    while let Some(p) = board.claim(usize::MAX) {
        orphans.push(p);
    }
    if !orphans.is_empty() {
        let mut local = config.clone();
        local.workers = 0;
        local.listen = None;
        local.strict = true;
        local.write_subgraphs = true;
        let density = VertexDensity::default();
        for p in orphans {
            match build_and_commit_partition(
                &local,
                p,
                &manifest.partition_path(p),
                manifest.stats()[p].kmers,
                io,
                journal,
                &density,
            ) {
                Ok(out) => {
                    stats.resizes += out.resizes;
                    stats.peak_table_bytes = stats.peak_table_bytes.max(out.peak_table_bytes);
                    if out.fanout >= 2 {
                        stats.sub_splits.push((p, out.fanout));
                    }
                    stats.built.insert(p);
                }
                Err(e) if config.strict => {
                    let _ = std::fs::remove_dir_all(&sub_dir);
                    return Err(e);
                }
                Err(e) => {
                    quarantined
                        .push(QuarantinedPartition { index: p, reason: e.to_string() });
                }
            }
        }
    }

    // Absorb what this step built (resume-skipped partitions are
    // absorbed by the driver, as on the in-process path). Files were
    // already verified when the worker reported them; fallback builds
    // are trusted like in-process commits.
    let mut graph = config.empty_graph();
    let mut peak_partition = 0u64;
    for &p in &stats.built {
        let bytes = std::fs::read(sub_dir.join(format!("sub-{p:05}.dbg")))?;
        graph.absorb(decode_subgraph_checked(&bytes, Some(p))?);
        peak_partition = peak_partition.max(manifest.stats()[p].bytes);
    }

    stats.sub_splits.sort_unstable();
    stats.sub_splits.dedup();
    if let Some(journal) = journal {
        for q in &quarantined {
            journal.append(&JournalEvent::Quarantined(q.index, q.reason.clone()))?;
        }
    }
    if !quarantined.is_empty() || !stats.sub_splits.is_empty() {
        let mut marked = manifest.clone();
        for q in &quarantined {
            marked.quarantine(q.index, q.reason.clone());
        }
        for &(i, fanout) in &stats.sub_splits {
            marked.set_sub_split(i, fanout);
        }
        marked.save()?;
    }
    if !config.write_subgraphs {
        // The files were only ever the wire's result channel; the user
        // asked for none. (The resume skip-set is always empty in this
        // configuration, so nothing downstream reads them.)
        std::fs::remove_dir_all(&sub_dir)?;
    }

    let partitions_built = stats.built.len();
    let report = StepReport {
        step: 2,
        pipeline: PipelineReport {
            elapsed: started.elapsed(),
            input_time: Duration::ZERO,
            output_time: Duration::ZERO,
            shares: Vec::new(),
            partitions: partitions_built,
            spans: Vec::new(),
            cancelled: false,
        },
        // Device meters live in the worker processes; the parent's own
        // devices did no Step-2 work (fallback builds excepted, whose
        // compute is folded into `elapsed`).
        cpu_compute: Duration::ZERO,
        gpu_compute: Duration::ZERO,
        contention: None,
        step1_stats: None,
        resizes: stats.resizes,
        peak_partition_bytes: peak_partition,
        peak_table_bytes: stats.peak_table_bytes,
        peak_resident_store_bytes: 0,
        quarantined,
        sub_splits: stats.sub_splits,
        coproc: None,
        exhausted_leases,
    };
    Ok((graph, report))
}

/// One connection's server loop: handshake (with version check),
/// configure the worker, lease it partitions, verify what it reports
/// back. A connection that closes, stalls past the heartbeat deadline,
/// or turns to garbage frees the worker's outstanding leases — the
/// *connection* is expendable; only a parent-side journal failure is a
/// real fault (`Err`).
#[allow(clippy::too_many_arguments)]
fn serve_worker(
    mut conn: Box<dyn Transport>,
    board: &Mutex<LeaseBoard>,
    stats: &Mutex<ShardStats>,
    fs_blob: &str,
    wire_blob: &str,
    sub_dir: &Path,
    journal: Option<&RunJournal>,
    io: &ThrottledIo,
    manifest: &PartitionManifest,
    tuning: &ShardTuning,
) -> Result<()> {
    // Handshake. Nothing is leased yet, so every failure mode here —
    // the shutdown dummy connection, a garbled or dropped hello, a
    // version-skewed worker — just ends the connection.
    let frame = match conn.recv(MAX_FRAME, Some(tuning.request_timeout)) {
        Ok(Recv::Frame(frame)) => frame,
        _ => return Ok(()),
    };
    let (worker, version) = match WireMsg::decode(&frame) {
        Ok(WireMsg::Hello(worker, version)) => (worker, version),
        _ => return Ok(()),
    };
    if version != PROTO_VERSION {
        let why = format!(
            "protocol version {version} does not match the parent's {PROTO_VERSION}; \
             update the worker binary to the parent's build and reconnect"
        );
        let _ = conn.send(&WireMsg::Deny(why).encode());
        return Ok(());
    }
    // Remote connections cannot read the parent's filesystem: they get
    // the `transfer wire` config and shipped payloads.
    let wire = conn.remote();
    let blob = if wire { wire_blob } else { fs_blob };
    if conn.send(&WireMsg::Config(blob.to_string()).encode()).is_err() {
        return Ok(());
    }
    // A control message that arrived where a subgraph payload was
    // expected, handled before the next frame is read.
    let mut early: Option<WireMsg> = None;
    loop {
        let msg = if let Some(msg) = early.take() {
            msg
        } else {
            match conn.recv(MAX_FRAME, Some(tuning.idle_timeout)) {
                // A subgraph payload outside a `result` exchange: its
                // `result` frame was lost on the wire. Skip it; the
                // claim that follows takes the lease back.
                Ok(Recv::Frame(frame)) if wire && frame.first() == Some(&BLOB_TAG) => continue,
                Ok(Recv::Frame(frame)) => match WireMsg::decode(&frame) {
                    Ok(msg) => msg,
                    Err(e) => {
                        // Garbled traffic costs the connection, never
                        // the run: requeue and let the worker reconnect.
                        board
                            .lock()
                            .release_worker(worker, &format!("sent an undecodable frame: {e}"));
                        return Ok(());
                    }
                },
                // Clean exit and crash look the same from here:
                // requeue whatever the worker still held (crash) — a
                // no-op after a clean `finished` exit (it held nothing).
                Ok(Recv::Eof) => {
                    board.lock().release_worker(worker, "disconnected holding the lease");
                    return Ok(());
                }
                // The heartbeat deadline lapsed: hung, not slow. Evict.
                Ok(Recv::TimedOut) => {
                    board.lock().release_worker(
                        worker,
                        &format!(
                            "sent no heartbeat within {}ms; evicted as hung",
                            tuning.idle_timeout.as_millis()
                        ),
                    );
                    return Ok(());
                }
                // Damaged in transit: a link fault, not the partition's.
                // Take the leases back with a refund and let the worker
                // reconnect.
                Err(e) if is_checksum_mismatch(&e) => {
                    board.lock().reclaim(worker, &format!("sent a damaged frame: {e}"));
                    return Ok(());
                }
                Err(e) => {
                    board.lock().release_worker(worker, &format!("connection failed: {e}"));
                    return Ok(());
                }
            }
        };
        match msg {
            // Liveness pulse: its arrival already reset the receive
            // deadline; it carries nothing else.
            WireMsg::Heartbeat(_) => continue,
            // Leases go to the id the worker said hello with: a claim
            // naming another id must not strand a lease this
            // connection's release would miss.
            WireMsg::Claim(_) => {
                let leased = {
                    let mut board = board.lock();
                    // One lease at a time: a lease this worker still
                    // holds lost its report, or its `assign` or payload,
                    // on the wire.
                    board.reclaim(worker, "claimed again while holding the lease");
                    board.claim(worker)
                };
                match leased {
                    Some(p) => {
                        // Journaled *before* the assignment goes out:
                        // after a parent crash, replay shows exactly
                        // which partitions were in flight.
                        if let Some(journal) = journal {
                            journal.append(&JournalEvent::WorkerLease(worker, p))?;
                        }
                        let assign = WireMsg::Assign(p, manifest.stats()[p].kmers);
                        if conn.send(&assign.encode()).is_err() {
                            board.lock().release_worker(worker, "disconnected during assignment");
                            return Ok(());
                        }
                        if wire {
                            let bytes = match io.read_file(manifest.partition_path(p)) {
                                Ok(bytes) => bytes,
                                Err(e) => {
                                    // A parent-side read failure is the
                                    // partition's problem, not the
                                    // worker's — but the worker is now
                                    // waiting for a payload this
                                    // connection can't deliver.
                                    board
                                        .lock()
                                        .fail(p, &format!("reading partition to ship: {e}"));
                                    return Ok(());
                                }
                            };
                            if conn.send(&encode_blob(&bytes)).is_err() {
                                board.lock().release_worker(worker, "disconnected mid-payload");
                                return Ok(());
                            }
                        }
                    }
                    None => {
                        if conn.send(&WireMsg::Finished.encode()).is_err() {
                            return Ok(());
                        }
                    }
                }
            }
            WireMsg::Result(p, detail) => {
                if wire {
                    // The subgraph payload follows the result frame; a
                    // final heartbeat may still be queued ahead of it.
                    let payload = loop {
                        match conn.recv(MAX_PAYLOAD_FRAME, Some(tuning.request_timeout)) {
                            Ok(Recv::Frame(frame)) => {
                                if frame.first() == Some(&BLOB_TAG) {
                                    break Some(frame);
                                }
                                match WireMsg::decode(&frame) {
                                    Ok(WireMsg::Heartbeat(_)) => continue,
                                    // The worker moved on: the payload
                                    // was lost on the wire, and the
                                    // claim that follows takes the
                                    // lease back.
                                    Ok(msg) => {
                                        early = Some(msg);
                                        break None;
                                    }
                                    Err(_) => break None,
                                }
                            }
                            Err(e) if is_checksum_mismatch(&e) => {
                                board.lock().reclaim(
                                    worker,
                                    &format!("sent a damaged subgraph payload: {e}"),
                                );
                                return Ok(());
                            }
                            _ => break None,
                        }
                    };
                    let Some(payload) = payload else {
                        if early.is_some() {
                            continue;
                        }
                        board.lock().fail(
                            p,
                            &format!(
                                "worker {worker} reported success but its subgraph payload \
                                 never arrived"
                            ),
                        );
                        return Ok(());
                    };
                    let committed = decode_blob(payload).and_then(|bytes| {
                        pipeline::commit::commit_bytes(
                            &sub_dir.join(format!("sub-{p:05}.dbg")),
                            &bytes,
                        )
                    });
                    if let Err(e) = committed {
                        // The connection is still framed correctly —
                        // only this lease failed.
                        board.lock().fail(p, &format!("committing shipped subgraph: {e}"));
                        continue;
                    }
                }
                // Trust nothing: the committed file must exist and pass
                // its end-to-end checks before the lease completes —
                // the same seam for local commits and shipped bytes.
                let verified = std::fs::read(sub_dir.join(format!("sub-{p:05}.dbg")))
                    .map_err(ParaHashError::Io)
                    .and_then(|bytes| decode_subgraph_checked(&bytes, Some(p)).map(|_| ()));
                match verified {
                    Ok(()) => {
                        let mut board = board.lock();
                        board.complete(p);
                        drop(board);
                        if let Some(journal) = journal {
                            journal.append(&JournalEvent::SubgraphCommitted(p))?;
                        }
                        let mut st = stats.lock();
                        st.built.insert(p);
                        let mut fields = detail.split_whitespace();
                        if fields.next() == Some("ok") {
                            if let (Some(r), Some(t), Some(f)) = (
                                fields.next().and_then(|v| v.parse::<usize>().ok()),
                                fields.next().and_then(|v| v.parse::<u64>().ok()),
                                fields.next().and_then(|v| v.parse::<usize>().ok()),
                            ) {
                                st.resizes += r;
                                st.peak_table_bytes = st.peak_table_bytes.max(t);
                                if f >= 2 {
                                    st.sub_splits.push((p, f));
                                }
                            }
                        }
                    }
                    Err(e) => {
                        board.lock().fail(
                            p,
                            &format!("worker {worker} reported success but the file fails: {e}"),
                        );
                    }
                }
            }
            WireMsg::Failed(p, detail) => {
                board.lock().fail(p, &detail);
            }
            other => {
                board
                    .lock()
                    .release_worker(worker, &format!("sent an unexpected message: {other:?}"));
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(dir: &str) -> ParaHashConfig {
        ParaHashConfig::builder()
            .k(9)
            .p(5)
            .partitions(8)
            .cpu_threads(3)
            .table_memory_budget(1 << 20)
            .out_of_core(true)
            .work_dir(std::env::temp_dir().join(dir))
            .build()
            .unwrap()
    }

    #[test]
    fn config_blob_roundtrips_bit_exact() {
        let cfg = config("parahash-shard-blob");
        let (back, fp, wire) = config_from_blob(&config_blob(&cfg, false)).unwrap();
        assert_eq!(back.k, cfg.k);
        assert_eq!(back.p, cfg.p);
        assert_eq!(back.partitions, cfg.partitions);
        assert_eq!(back.sizing.lambda.to_bits(), cfg.sizing.lambda.to_bits());
        assert_eq!(back.sizing.alpha.to_bits(), cfg.sizing.alpha.to_bits());
        assert_eq!(back.table_memory_budget, cfg.table_memory_budget);
        assert_eq!(back.out_of_core, cfg.out_of_core);
        assert_eq!(back.work_dir, cfg.work_dir);
        assert_eq!(back.devices()[0].parallelism(), 3, "thread count crosses the wire");
        assert!(back.strict && back.write_subgraphs, "worker invariants forced on");
        assert!(!wire, "fs transfer decodes as local");
        assert_eq!(fp.k, 9);
        assert_eq!(fp.input_digest, 0, "no digest set on a bare config");
    }

    #[test]
    fn config_blob_carries_the_transfer_mode() {
        let cfg = config("parahash-shard-blob-wire");
        let (_, _, wire) = config_from_blob(&config_blob(&cfg, true)).unwrap();
        assert!(wire, "wire transfer crosses the blob");
        let blob = config_blob(&cfg, true);
        assert!(config_from_blob(&blob.replace("transfer wire", "transfer carrier-pigeon"))
            .is_err());
        let missing: String =
            blob.lines().filter(|l| !l.starts_with("transfer")).collect::<Vec<_>>().join("\n");
        assert!(config_from_blob(&missing).is_err(), "transfer mode is mandatory");
    }

    #[test]
    fn config_blob_rejects_damage() {
        let cfg = config("parahash-shard-blob-bad");
        let blob = config_blob(&cfg, false);
        assert!(config_from_blob(&blob.replace("k 9", "k nine")).is_err());
        assert!(config_from_blob(&blob.replace("digest", "digets")).is_err());
        let missing: String =
            blob.lines().filter(|l| !l.starts_with("alpha")).collect::<Vec<_>>().join("\n");
        assert!(config_from_blob(&missing).is_err(), "missing key must be rejected");
    }

    #[test]
    fn kill_spec_parses_and_scopes_to_the_worker() {
        // Uses a scoped fake env because the real one is process-global.
        std::env::set_var(ENV_KILL, "2@3");
        assert_eq!(kill_before(2), Some(3));
        assert_eq!(kill_before(1), None);
        std::env::set_var(ENV_KILL, "junk");
        assert_eq!(kill_before(2), None);
        std::env::remove_var(ENV_KILL);
        assert_eq!(kill_before(2), None);
    }

    #[test]
    fn stall_spec_uses_the_same_grammar() {
        std::env::set_var(ENV_STALL, "1@2");
        assert_eq!(stall_before(1), Some(2));
        assert_eq!(stall_before(0), None);
        std::env::remove_var(ENV_STALL);
        assert_eq!(stall_before(1), None);
    }

    #[test]
    fn tuning_defaults_are_sane() {
        // No env overrides in a unit-test process (the integration
        // suites set them per-child).
        let t = ShardTuning::from_env();
        assert!(t.idle_timeout >= t.heartbeat.saturating_mul(2), "deadline outlives a pulse");
        assert!(t.reconnect.attempts >= 1);
        assert!(!t.reconnect.delay(1, 0).is_zero(), "reconnects are paced");
    }
}
