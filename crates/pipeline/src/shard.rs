//! Multi-process Step-2 sharding: transports, the wire protocol, and
//! the lease board.
//!
//! The parent process runs Step 1, seals the partition directory, then
//! accepts worker connections over one of two [`Transport`]s: a Unix
//! socket (local child processes, the PR-9 path) or TCP (remote
//! machines running `dbg worker --connect <addr>`). Each worker
//! *claims* partitions one at a time; the parent hands out leases in
//! LPT (largest-processing-time-first) order — the same largest-first
//! heuristic the in-process scheduler uses — so the biggest partitions
//! start earliest and the tail stays short.
//!
//! This module is deliberately policy-free plumbing: a length-prefixed,
//! CRC-checked frame codec over any `Read`/`Write` pair, a tiny
//! line-oriented message grammar, the [`Transport`] abstraction with
//! its two stream implementations, and a [`LeaseBoard`] that tracks who
//! holds what with bounded retries. Everything ParaHash-specific (what a
//! partition *is*, how a worker builds it, journaling, heartbeat and
//! deadline policy) lives in the `parahash` crate; everything here is
//! testable without processes.
//!
//! # Wire format
//!
//! Every message is one frame: `u32 len LE | u32 crc32 LE | payload`,
//! the same framing and the same CRC ([`wire_crc32`], which is
//! [`dna::crc32`]) as the superkmer partition files. Zero-length
//! frames are rejected outright; a frame longer than the receiver's cap
//! ([`MAX_FRAME`] for control traffic, [`MAX_PAYLOAD_FRAME`] while
//! expecting a shipped partition or subgraph) is a protocol violation
//! naming the offending size. Under the cap, the receive buffer grows
//! as payload bytes arrive, so a peer that claims a large frame and
//! stops sending costs what it sent, not what it claimed.
//!
//! A *control* payload is UTF-8 text, first line the message tag
//! (protocol version [`PROTO_VERSION`]):
//!
//! ```text
//! hello <worker-id> <version>  worker → parent, once, on connect
//! deny <reason…>               parent → worker: handshake rejected, give up
//! config\n<blob>               parent → worker, once; blob is opaque here
//! claim <worker-id>            worker → parent: give me work
//! assign <partition> <kmers>   parent → worker: build this one (k-mer count hint)
//! heartbeat <worker-id>        worker → parent: still alive mid-build
//! finished                     parent → worker: no work left, exit cleanly
//! result <partition> <detail>  worker → parent: built and committed
//! failed <partition> <detail>  worker → parent: build failed, re-lease it
//! ```
//!
//! A *blob* payload carries raw bytes (a partition file on its way to a
//! remote worker, a subgraph on its way back): one [`BLOB_TAG`] byte
//! followed by the bytes verbatim. The tag keeps blob frames non-empty
//! and unambiguous against the text grammar (no control tag starts with
//! a NUL byte).
//!
//! A worker that dies mid-lease simply drops its connection; the parent
//! observes EOF and requeues the worker's outstanding leases. A worker
//! that *hangs* mid-lease is caught by the parent's receive deadline
//! (no heartbeat within the timeout) and requeued the same way. A
//! worker that claims again while still holding a lease lost its report
//! on the wire; [`LeaseBoard::reclaim`] requeues that lease without
//! charging an attempt.
//!
//! A frame whose checksum fails ([`is_checksum_mismatch`]) was corrupted
//! in transit, a link fault like a lost frame. The parent takes back the
//! sender's leases through the same refund and drops the connection; a
//! worker skips the frame and claims again, which has the parent refund
//! the lease the frame belonged to. [`MAX_LINK_REFUNDS`] caps the
//! refunds per partition.
//!
//! # Fault injection
//!
//! [`write_frame`] consults the network failpoint sites
//! ([`crate::failpoint::NET_SITES`]): `shard.net.drop` discards the
//! armed frame unsent, `shard.net.delay` stalls the armed send for
//! `PARAHASH_SHARD_DELAY_MS`, and `shard.net.garble` flips a payload
//! byte after the checksum is computed so the receiver rejects the
//! frame. All three are deterministic (armed at a 1-based hit count)
//! and exercise exactly the recovery paths a flaky network would.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

/// Version of the control-message grammar. Sent by the worker in
/// `hello`; the parent denies mismatched workers with an actionable
/// error instead of letting skew surface as a confusing parse failure
/// mid-run. Version 1 is the PR-9 grammar (no version field, no
/// heartbeats, no blobs); a v1 `hello` decodes as version 1 and is
/// denied by a v2 parent.
pub const PROTO_VERSION: u32 = 2;

/// Upper bound on a single *control* frame. Control messages are short
/// text (the config blob is the largest, well under a kilobyte);
/// anything bigger is a corrupt or hostile peer, not a real message.
pub const MAX_FRAME: u32 = 1 << 20;

/// Upper bound on a *blob* frame (a shipped partition payload or a
/// returned subgraph). Partition files scale with the input genome, so
/// this cap is generous; a receiver only raises it while a blob is
/// actually expected.
pub const MAX_PAYLOAD_FRAME: u32 = 1 << 30;

/// First byte of every blob frame (see the module docs).
pub const BLOB_TAG: u8 = 0x00;

/// The frame checksum: CRC-32/ISO-HDLC, the same [`dna::crc32`] that
/// checksums partition frames, subgraphs and the journal. Every control
/// frame and every shipped partition or subgraph blob passes through it
/// on both ends of the wire.
pub use dna::crc32 as wire_crc32;

/// How long an armed `shard.net.delay` failpoint stalls the send.
fn net_delay() -> Duration {
    let ms = std::env::var("PARAHASH_SHARD_DELAY_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100);
    Duration::from_millis(ms)
}

/// Writes one length-prefixed, checksummed frame, consulting the
/// network failpoints (see the module docs) first.
///
/// # Errors
///
/// Propagates the underlying write failure (typically a broken pipe
/// when the peer died).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if crate::failpoint::hit("shard.net.delay").is_err() {
        std::thread::sleep(net_delay());
    }
    if crate::failpoint::hit("shard.net.drop").is_err() {
        // The frame vanishes on the wire: the sender believes it went
        // out, the receiver waits until its deadline fires.
        return Ok(());
    }
    let garble = crate::failpoint::hit("shard.net.garble").is_err();
    let mut buf = Vec::with_capacity(8 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&wire_crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    if garble && buf.len() > 8 {
        // Flip one payload byte *after* the checksum was computed: the
        // receiver's CRC check must catch it.
        buf[8] ^= 0x01;
    }
    w.write_all(&buf)?;
    w.flush()
}

/// Outcome of one deadline-aware receive attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recv {
    /// One complete, CRC-verified frame payload.
    Frame(Vec<u8>),
    /// Clean EOF *between* frames — the peer closed deliberately (or
    /// died; the lease board treats both the same).
    Eof,
    /// The receive deadline elapsed with no frame started. Only
    /// possible when the transport has a read timeout armed; the peer
    /// is silent, not gone.
    TimedOut,
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// Reads one frame with an explicit size cap. Timeouts *between*
/// frames surface as [`Recv::TimedOut`]; a timeout, EOF, zero length,
/// over-cap length, or checksum mismatch *inside* a frame is a hard
/// [`std::io::ErrorKind::InvalidData`] error — the stream cannot be
/// resynchronised, so the connection is dead either way.
///
/// # Errors
///
/// Read failures, torn frames, zero-length frames, lengths over `cap`
/// (the message names the offending size), CRC mismatches.
pub fn recv_frame(r: &mut impl Read, cap: u32) -> std::io::Result<Recv> {
    let bad = |why: String| std::io::Error::new(std::io::ErrorKind::InvalidData, why);
    let mut header = [0u8; 8];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(Recv::Eof),
            Ok(0) => return Err(bad(format!("torn wire frame: EOF after {filled} of 8 header bytes"))),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) && filled == 0 => return Ok(Recv::TimedOut),
            Err(e) if is_timeout(&e) => {
                return Err(bad(format!("peer stalled mid-frame ({filled} of 8 header bytes)")))
            }
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header[..4].try_into().unwrap());
    let stored = u32::from_le_bytes(header[4..].try_into().unwrap());
    if len == 0 {
        return Err(bad("zero-length wire frame (no message is empty)".to_string()));
    }
    if len > cap {
        return Err(bad(format!("wire frame claims {len} bytes (cap {cap})")));
    }
    let mut payload = Vec::new();
    read_payload(r, len, &mut payload)?;
    let computed = wire_crc32(&payload);
    if computed != stored {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            ChecksumMismatch { stored, computed },
        ));
    }
    Ok(Recv::Frame(payload))
}

/// A frame whose payload fails its CRC: the whole frame was read, so the
/// stream is still in step, but the bytes were damaged on the way.
#[derive(Debug)]
struct ChecksumMismatch {
    stored: u32,
    computed: u32,
}

impl std::fmt::Display for ChecksumMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (stored, computed) = (self.stored, self.computed);
        write!(f, "wire frame checksum mismatch (stored {stored:#010x}, computed {computed:#010x})")
    }
}

impl std::error::Error for ChecksumMismatch {}

/// Whether a [`recv_frame`] error is a checksum mismatch: a frame
/// corrupted in transit (a link fault) rather than a torn, stalled or
/// oversized one.
pub fn is_checksum_mismatch(e: &std::io::Error) -> bool {
    e.get_ref().is_some_and(|inner| inner.is::<ChecksumMismatch>())
}

/// The least a frame payload buffer grows by at a time.
const READ_CHUNK: usize = 64 << 10;

/// Reads a `len`-byte frame payload into `payload` (which must start
/// empty), growing it as bytes arrive rather than to the claimed `len`
/// up front. Each growth step adds one read chunk of
/// `min(remaining, max(READ_CHUNK, received))` bytes, so the buffer never
/// exceeds the bytes received plus one chunk, and a long payload still
/// costs only O(log len) reallocations. A peer that claims 1 GiB and
/// sends 8 bytes costs 64 KiB, not 1 GiB. On error `payload` holds
/// exactly the bytes received.
fn read_payload(r: &mut impl Read, len: u32, payload: &mut Vec<u8>) -> std::io::Result<()> {
    debug_assert!(payload.is_empty());
    let bad = |why: String| std::io::Error::new(std::io::ErrorKind::InvalidData, why);
    let want = len as usize;
    let mut got = 0;
    let failed = loop {
        if got == want {
            return Ok(());
        }
        if got == payload.len() {
            let chunk = (want - got).min(got.max(READ_CHUNK));
            payload.reserve_exact(chunk);
            payload.resize(got + chunk, 0);
        }
        match r.read(&mut payload[got..]) {
            Ok(0) => break bad(format!("torn wire frame: EOF after {got} of {len} payload bytes")),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                break bad(format!("peer stalled mid-frame ({got} of {len} payload bytes)"))
            }
            Err(e) => break e,
        }
    };
    payload.truncate(got);
    Err(failed)
}

/// Reads one control frame (cap [`MAX_FRAME`]). `Ok(None)` is a clean
/// EOF between frames. A deadline elapsing mid-wait is an error here —
/// use [`Transport::recv`] when timeouts are expected.
///
/// # Errors
///
/// Everything [`recv_frame`] rejects, plus an unexpected timeout.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    match recv_frame(r, MAX_FRAME)? {
        Recv::Frame(p) => Ok(Some(p)),
        Recv::Eof => Ok(None),
        Recv::TimedOut => Err(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            "wire read deadline elapsed",
        )),
    }
}

/// Wraps raw bytes as a blob-frame payload (see the module docs).
pub fn encode_blob(bytes: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 + bytes.len());
    payload.push(BLOB_TAG);
    payload.extend_from_slice(bytes);
    payload
}

/// Unwraps a blob-frame payload back to its raw bytes.
///
/// # Errors
///
/// [`std::io::ErrorKind::InvalidData`] when the payload is not a blob
/// frame (the peer sent a control message where bytes were expected).
pub fn decode_blob(mut payload: Vec<u8>) -> std::io::Result<Vec<u8>> {
    if payload.first() != Some(&BLOB_TAG) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "expected a binary blob frame, got {}",
                String::from_utf8_lossy(&payload[..payload.len().min(32)])
            ),
        ));
    }
    payload.remove(0);
    Ok(payload)
}

/// A handle that can push frames to the peer from another thread (the
/// heartbeat ticker), serialised with the owning transport's sends so
/// frames never interleave.
pub trait FrameSender: Send {
    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write failure.
    fn send(&mut self, payload: &[u8]) -> std::io::Result<()>;
}

/// A connected, frame-oriented, deadline-aware channel to one peer.
/// Implemented by [`StreamTransport`] over Unix and TCP sockets; the
/// protocol layer in `parahash` is written against this trait alone,
/// so local and remote workers share every code path above the socket.
pub trait Transport: Send {
    /// Sends one frame (serialised with any live [`FrameSender`]).
    ///
    /// # Errors
    ///
    /// Propagates the underlying write failure.
    fn send(&mut self, payload: &[u8]) -> std::io::Result<()>;

    /// Receives one frame of at most `cap` bytes, waiting at most
    /// `timeout` (`None` = forever) for it to *start*.
    ///
    /// # Errors
    ///
    /// Everything [`recv_frame`] rejects.
    fn recv(&mut self, cap: u32, timeout: Option<Duration>) -> std::io::Result<Recv>;

    /// A clonable sending handle for side-channel frames (heartbeats).
    fn sender(&self) -> Box<dyn FrameSender>;

    /// Human-readable peer name for diagnostics.
    fn peer(&self) -> String;

    /// Whether the peer may live on another machine (TCP). Remote
    /// workers get their inputs shipped over the wire instead of
    /// reading the parent's filesystem.
    fn remote(&self) -> bool;
}

/// A byte stream a [`StreamTransport`] can ride on.
pub trait ShardStream: Read + Write + Send + Sized + 'static {
    /// Whether peers of this stream type may be on another machine.
    const REMOTE: bool;
    /// Duplicates the stream handle (shared socket, independent cursor).
    ///
    /// # Errors
    ///
    /// Propagates the underlying clone failure.
    fn try_clone_stream(&self) -> std::io::Result<Self>;
    /// Arms (or clears) the read deadline.
    ///
    /// # Errors
    ///
    /// Propagates the underlying setsockopt failure.
    fn set_stream_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()>;
    /// Human-readable peer name.
    fn peer_name(&self) -> String;
}

impl ShardStream for std::os::unix::net::UnixStream {
    const REMOTE: bool = false;
    fn try_clone_stream(&self) -> std::io::Result<Self> {
        self.try_clone()
    }
    fn set_stream_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        self.set_read_timeout(t)
    }
    fn peer_name(&self) -> String {
        "unix".to_string()
    }
}

impl ShardStream for std::net::TcpStream {
    const REMOTE: bool = true;
    fn try_clone_stream(&self) -> std::io::Result<Self> {
        self.try_clone()
    }
    fn set_stream_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        self.set_read_timeout(t)
    }
    fn peer_name(&self) -> String {
        self.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "tcp".to_string())
    }
}

/// [`Transport`] over any [`ShardStream`]: reads on the owned handle,
/// writes through a mutex-shared duplicate so the main thread and the
/// heartbeat ticker never interleave frames.
pub struct StreamTransport<S: ShardStream> {
    reader: S,
    writer: Arc<Mutex<S>>,
    peer: String,
}

impl<S: ShardStream> StreamTransport<S> {
    /// Wraps a connected stream.
    ///
    /// # Errors
    ///
    /// Propagates the handle-duplication failure.
    pub fn new(stream: S) -> std::io::Result<StreamTransport<S>> {
        let writer = stream.try_clone_stream()?;
        let peer = stream.peer_name();
        Ok(StreamTransport { reader: stream, writer: Arc::new(Mutex::new(writer)), peer })
    }
}

struct SharedSender<S: ShardStream>(Arc<Mutex<S>>);

impl<S: ShardStream> FrameSender for SharedSender<S> {
    fn send(&mut self, payload: &[u8]) -> std::io::Result<()> {
        write_frame(&mut *self.0.lock(), payload)
    }
}

impl<S: ShardStream> Transport for StreamTransport<S> {
    fn send(&mut self, payload: &[u8]) -> std::io::Result<()> {
        write_frame(&mut *self.writer.lock(), payload)
    }

    fn recv(&mut self, cap: u32, timeout: Option<Duration>) -> std::io::Result<Recv> {
        // `set_read_timeout(Some(ZERO))` is an error by contract; the
        // smallest meaningful deadline stands in for "immediately".
        let t = timeout.map(|t| t.max(Duration::from_millis(1)));
        self.reader.set_stream_read_timeout(t)?;
        recv_frame(&mut self.reader, cap)
    }

    fn sender(&self) -> Box<dyn FrameSender> {
        Box::new(SharedSender(Arc::clone(&self.writer)))
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }

    fn remote(&self) -> bool {
        S::REMOTE
    }
}

/// The parent's accept side: a Unix socket in the work directory or a
/// TCP socket for remote workers. Local children connect to
/// [`addr`](Self::addr) exactly like remote ones — the transport is
/// the only difference.
pub enum ShardListener {
    /// Local child processes over a filesystem socket.
    Unix(std::os::unix::net::UnixListener, std::path::PathBuf),
    /// Remote (or loopback) workers over TCP.
    Tcp(std::net::TcpListener),
}

impl ShardListener {
    /// Binds a Unix socket at `path` (removing any stale one first).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_unix(path: &std::path::Path) -> std::io::Result<ShardListener> {
        let _ = std::fs::remove_file(path);
        Ok(ShardListener::Unix(std::os::unix::net::UnixListener::bind(path)?, path.to_path_buf()))
    }

    /// Binds a TCP socket at `addr` (e.g. `127.0.0.1:0` — port 0 picks
    /// a free port, readable back via [`addr`](Self::addr)).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_tcp(addr: &str) -> std::io::Result<ShardListener> {
        Ok(ShardListener::Tcp(std::net::TcpListener::bind(addr)?))
    }

    /// Accepts one worker connection.
    ///
    /// # Errors
    ///
    /// Propagates the accept/clone failure.
    pub fn accept(&self) -> std::io::Result<Box<dyn Transport>> {
        match self {
            ShardListener::Unix(l, _) => {
                let (stream, _) = l.accept()?;
                Ok(Box::new(StreamTransport::new(stream)?))
            }
            ShardListener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                let _ = stream.set_nodelay(true);
                Ok(Box::new(StreamTransport::new(stream)?))
            }
        }
    }

    /// The address workers connect to: the socket path (Unix) or the
    /// resolved `host:port` (TCP — resolves a requested port 0).
    pub fn addr(&self) -> String {
        match self {
            ShardListener::Unix(_, path) => path.display().to_string(),
            ShardListener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "tcp".to_string()),
        }
    }

    /// Whether this listener speaks TCP (remote-capable).
    pub fn is_tcp(&self) -> bool {
        matches!(self, ShardListener::Tcp(_))
    }

    /// Unblocks a thread parked in [`accept`](Self::accept) by making
    /// (and immediately dropping) a throwaway connection to ourselves.
    pub fn unblock(&self) {
        match self {
            ShardListener::Unix(_, path) => {
                let _ = std::os::unix::net::UnixStream::connect(path);
            }
            ShardListener::Tcp(l) => {
                if let Ok(addr) = l.local_addr() {
                    let _ = std::net::TcpStream::connect(addr);
                }
            }
        }
    }
}

/// Connects to a parent's Unix socket.
///
/// # Errors
///
/// Propagates the connect/clone failure.
pub fn connect_unix(path: &std::path::Path) -> std::io::Result<Box<dyn Transport>> {
    Ok(Box::new(StreamTransport::new(std::os::unix::net::UnixStream::connect(path)?)?))
}

/// Connects to a parent's TCP listener.
///
/// # Errors
///
/// Propagates the connect/clone failure.
pub fn connect_tcp(addr: &str) -> std::io::Result<Box<dyn Transport>> {
    let stream = std::net::TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    Ok(Box::new(StreamTransport::new(stream)?))
}

/// The shard protocol's message set. See the module docs for the grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMsg {
    /// Worker's first message: its parent-assigned id and its protocol
    /// version (a missing version field decodes as 1 — the PR-9
    /// grammar — so skewed old workers are *denied*, not confused).
    Hello(usize, u32),
    /// Parent's refusal of a handshake (version skew, duplicate id);
    /// the text says why and what to do. The worker must not retry.
    Deny(String),
    /// Parent's reply to `hello`: the opaque run-config blob the worker
    /// needs to reconstruct the build configuration.
    Config(String),
    /// Worker asks for its next lease.
    Claim(usize),
    /// Parent leases one partition to the asking worker; the second
    /// field is the partition's k-mer occurrence count (table-sizing
    /// hint, so remote workers don't need the manifest).
    Assign(usize, u64),
    /// Worker's liveness pulse while a build is in flight: resets the
    /// parent's receive deadline without carrying any other meaning.
    Heartbeat(usize),
    /// Parent: nothing left (or nothing this worker may have) — exit.
    Finished,
    /// Worker built and committed the partition; `detail` is opaque
    /// accounting text relayed into the parent's report.
    Result(usize, String),
    /// Worker failed the partition; `detail` says why. The parent
    /// re-leases it (bounded by the board's attempt cap).
    Failed(usize, String),
}

impl WireMsg {
    /// Serialises to the text payload of one wire frame.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            WireMsg::Hello(id, version) => format!("hello {id} {version}").into_bytes(),
            WireMsg::Deny(why) => format!("deny {why}").into_bytes(),
            WireMsg::Config(blob) => format!("config\n{blob}").into_bytes(),
            WireMsg::Claim(id) => format!("claim {id}").into_bytes(),
            WireMsg::Assign(p, kmers) => format!("assign {p} {kmers}").into_bytes(),
            WireMsg::Heartbeat(id) => format!("heartbeat {id}").into_bytes(),
            WireMsg::Finished => b"finished".to_vec(),
            WireMsg::Result(p, detail) => format!("result {p} {detail}").into_bytes(),
            WireMsg::Failed(p, detail) => format!("failed {p} {detail}").into_bytes(),
        }
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::InvalidData`] naming the malformed payload —
    /// an unknown tag or a missing/non-numeric field. Version skew is
    /// *not* a parse failure: `hello` tolerates a missing version field
    /// (defaulting to 1) precisely so the parent can reply with an
    /// actionable [`WireMsg::Deny`] instead of a codec error.
    pub fn decode(payload: &[u8]) -> std::io::Result<WireMsg> {
        let bad = |why: String| std::io::Error::new(std::io::ErrorKind::InvalidData, why);
        let text = std::str::from_utf8(payload)
            .map_err(|e| bad(format!("non-UTF-8 wire message: {e}")))?;
        let (first, rest) = match text.split_once('\n') {
            Some((f, r)) => (f, Some(r)),
            None => (text, None),
        };
        let mut words = first.split_whitespace();
        let tag = words.next().unwrap_or("");
        let mut num = |what: &str| -> std::io::Result<usize> {
            words
                .next()
                .ok_or_else(|| bad(format!("wire message `{tag}` is missing its {what}")))?
                .parse()
                .map_err(|e| bad(format!("wire message `{tag}`: bad {what}: {e}")))
        };
        match tag {
            "hello" => {
                let id = num("worker id")?;
                let version = match words.next() {
                    None => 1, // pre-versioning (PR-9) grammar
                    Some(v) => v
                        .parse()
                        .map_err(|e| bad(format!("wire message `hello`: bad version: {e}")))?,
                };
                Ok(WireMsg::Hello(id, version))
            }
            "deny" => {
                let why = first.strip_prefix("deny").unwrap_or("").trim().to_string();
                Ok(WireMsg::Deny(why))
            }
            "config" => Ok(WireMsg::Config(rest.unwrap_or("").to_string())),
            "claim" => Ok(WireMsg::Claim(num("worker id")?)),
            "assign" => {
                let p = num("partition")?;
                let kmers = match words.next() {
                    None => 0,
                    Some(v) => v
                        .parse()
                        .map_err(|e| bad(format!("wire message `assign`: bad kmer count: {e}")))?,
                };
                Ok(WireMsg::Assign(p, kmers))
            }
            "heartbeat" => Ok(WireMsg::Heartbeat(num("worker id")?)),
            "finished" => Ok(WireMsg::Finished),
            "result" | "failed" => {
                let p = num("partition")?;
                let detail = words.collect::<Vec<_>>().join(" ");
                if tag == "result" {
                    Ok(WireMsg::Result(p, detail))
                } else {
                    Ok(WireMsg::Failed(p, detail))
                }
            }
            other => Err(bad(format!("unknown wire message tag `{other}`"))),
        }
    }
}

/// One permanently failed partition: leased `attempts` times, failed
/// every time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExhaustedLease {
    /// The partition that kept failing.
    pub partition: usize,
    /// The worker holding the lease when it exhausted.
    pub worker: usize,
    /// Lease attempts consumed.
    pub attempts: usize,
    /// The *last* failure's detail text.
    pub reason: String,
}

/// Who may build what: the parent's single source of truth for lease
/// state. Pure bookkeeping — no I/O, no processes — so every corner
/// (retry exhaustion, worker death mid-lease, heartbeat-loss eviction,
/// claim-after-drain) is unit-testable.
///
/// Partitions are handed out in the order given to [`LeaseBoard::new`]
/// (the caller passes an LPT order: largest first). A failed partition
/// goes to the *front* of the queue — it has already burned wall-clock
/// once, so it restarts before fresh work. A worker's death *or
/// eviction* (heartbeat loss, deadline overrun) requeues all its
/// outstanding leases the same way. A partition that fails
/// `max_attempts` times moves to the exhausted list and is never
/// leased again. A lease lost to the link rather than the partition
/// ([`reclaim`](Self::reclaim)) is refunded, at most
/// [`MAX_LINK_REFUNDS`] times per partition.
/// How many lost leases [`LeaseBoard::reclaim`] refunds per partition.
/// Past it a link fault is charged like a failure, so a peer that only
/// ever sends garbage still exhausts the partition.
pub const MAX_LINK_REFUNDS: usize = 4;

#[derive(Debug)]
pub struct LeaseBoard {
    /// Partitions awaiting a lease, front = next out.
    pending: std::collections::VecDeque<usize>,
    /// `(partition, worker)` pairs currently leased.
    leased: Vec<(usize, usize)>,
    /// Lease attempts consumed per partition (indexed by partition id).
    attempts: Vec<usize>,
    /// Attempts refunded by [`reclaim`](Self::reclaim), per partition.
    refunds: Vec<usize>,
    /// Last failure reason per partition (empty = never failed).
    last_reason: Vec<String>,
    /// Partitions that hit the attempt cap.
    exhausted: Vec<ExhaustedLease>,
    /// Completed partitions.
    done: Vec<usize>,
    max_attempts: usize,
}

impl LeaseBoard {
    /// A fresh board. `order` is the dispatch order (LPT: largest
    /// first); `n` the total partition-id space (ids in `order` must be
    /// `< n`); `max_attempts ≥ 1` the per-partition lease cap.
    pub fn new(order: Vec<usize>, n: usize, max_attempts: usize) -> LeaseBoard {
        debug_assert!(order.iter().all(|&p| p < n));
        debug_assert!(max_attempts >= 1);
        LeaseBoard {
            pending: order.into(),
            leased: Vec::new(),
            attempts: vec![0; n],
            refunds: vec![0; n],
            last_reason: vec![String::new(); n],
            exhausted: Vec::new(),
            done: Vec::new(),
            max_attempts,
        }
    }

    /// Leases the next pending partition to `worker`, consuming one
    /// attempt. `None` when nothing is pending — which the caller must
    /// *not* read as "all done": partitions may still be leased to other
    /// workers (and may yet fail back into the queue). Use
    /// [`remaining`](Self::remaining) for the done test.
    pub fn claim(&mut self, worker: usize) -> Option<usize> {
        let p = self.pending.pop_front()?;
        self.attempts[p] += 1;
        self.leased.push((p, worker));
        Some(p)
    }

    /// Takes back every lease `worker` holds after a link fault: the
    /// lease was lost on the wire, not failed by the partition. Two cases
    /// reach here. The worker protocol holds one lease at a time (claim,
    /// build, report, claim), so a worker that asks for more work while
    /// still holding a lease has had its report for that lease lost. And
    /// a frame that arrives with a bad checksum was corrupted in transit.
    /// Each partition goes back to the *front* of the queue, as after a
    /// failure, with its attempt refunded — at most [`MAX_LINK_REFUNDS`]
    /// times per partition; past that the loss is charged like
    /// [`release_worker`](Self::release_worker) with `why`.
    pub fn reclaim(&mut self, worker: usize, why: &str) {
        for p in self.take_leases(worker) {
            if self.refunds[p] < MAX_LINK_REFUNDS {
                self.refunds[p] += 1;
                self.attempts[p] -= 1;
                self.pending.push_front(p);
            } else {
                self.charge(p, worker, format!("worker {worker} {why}"));
            }
        }
    }

    /// Marks a leased partition built. Unknown/unleased partitions are
    /// ignored (a dead worker's late message races its requeue).
    pub fn complete(&mut self, partition: usize) {
        if let Some(at) = self.leased.iter().position(|&(p, _)| p == partition) {
            self.leased.swap_remove(at);
            self.done.push(partition);
        }
    }

    /// Marks a leased partition failed: requeued at the *front* while
    /// attempts remain, moved to the exhausted list once the cap is hit.
    pub fn fail(&mut self, partition: usize, reason: &str) {
        let Some(at) = self.leased.iter().position(|&(p, _)| p == partition) else {
            return;
        };
        let (_, worker) = self.leased.swap_remove(at);
        self.charge(partition, worker, reason.to_string());
    }

    /// Requeues every partition `worker` holds — the worker died (EOF
    /// on its connection) or was evicted (`why` says which: heartbeat
    /// loss, deadline overrun). Death and eviction both consume the
    /// lease attempt the claim spent: a partition whose workers keep
    /// dying or hanging hits the same cap as one that keeps failing
    /// politely (a poison partition that *crashes* builders must not
    /// re-lease forever).
    pub fn release_worker(&mut self, worker: usize, why: &str) {
        for p in self.take_leases(worker) {
            self.charge(p, worker, format!("worker {worker} {why}"));
        }
    }

    /// Removes and returns every partition `worker` holds.
    fn take_leases(&mut self, worker: usize) -> Vec<usize> {
        let mut held = Vec::new();
        self.leased.retain(|&(p, w)| {
            if w == worker {
                held.push(p);
            }
            w != worker
        });
        held
    }

    /// Settles an unleased partition whose attempt stays spent: back to
    /// the front of the queue while attempts remain, exhausted at the cap.
    fn charge(&mut self, partition: usize, worker: usize, reason: String) {
        if self.attempts[partition] >= self.max_attempts {
            self.exhausted.push(ExhaustedLease {
                partition,
                worker,
                attempts: self.attempts[partition],
                reason: reason.clone(),
            });
        } else {
            self.pending.push_front(partition);
        }
        self.last_reason[partition] = reason;
    }

    /// Partitions not yet built or exhausted (pending + leased). Zero
    /// means the run is settled.
    pub fn remaining(&self) -> usize {
        self.pending.len() + self.leased.len()
    }

    /// Partitions that hit the attempt cap, in exhaustion order.
    pub fn exhausted(&self) -> &[ExhaustedLease] {
        &self.exhausted
    }

    /// Completed partitions, in completion order.
    pub fn done(&self) -> &[usize] {
        &self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_and_reject_corruption() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello 3 2").unwrap();
        write_frame(&mut buf, b"claim 3").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello 3 2");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"claim 3");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF between frames");

        // Flip a payload byte: checksum must catch it.
        let mut bent = buf.clone();
        bent[8] ^= 0x01;
        let mut r = &bent[..];
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().starts_with("wire frame checksum mismatch"), "{err}");
        assert!(is_checksum_mismatch(&err), "a link fault, told apart by type");
        // The damaged frame was read whole: the stream is still in step.
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"claim 3");

        // Truncate mid-frame: torn, not clean EOF.
        let mut r = &buf[..buf.len() - 3];
        assert!(read_frame(&mut r).unwrap().is_some());
        let err = read_frame(&mut r).unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        assert!(!is_checksum_mismatch(&err));
    }

    #[test]
    fn zero_length_and_over_cap_frames_are_rejected_by_size() {
        // Hand-built zero-length frame: valid CRC of nothing, len 0.
        let mut zero = Vec::new();
        zero.extend_from_slice(&0u32.to_le_bytes());
        zero.extend_from_slice(&wire_crc32(b"").to_le_bytes());
        let err = read_frame(&mut &zero[..]).unwrap_err();
        assert!(err.to_string().contains("zero-length"), "{err}");

        // Over-cap length: rejected before any payload read, naming
        // the offending size and the cap in force.
        let mut big = Vec::new();
        big.extend_from_slice(&(MAX_FRAME + 7).to_le_bytes());
        big.extend_from_slice(&0u32.to_le_bytes());
        let err = read_frame(&mut &big[..]).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains(&(MAX_FRAME + 7).to_string()) && msg.contains(&MAX_FRAME.to_string()),
            "{msg}"
        );

        // The same length is fine under the payload cap.
        let payload = encode_blob(&vec![0xAB; (MAX_FRAME + 7) as usize - 1]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        match recv_frame(&mut &buf[..], MAX_PAYLOAD_FRAME).unwrap() {
            Recv::Frame(p) => assert_eq!(decode_blob(p).unwrap().len(), (MAX_FRAME + 7) as usize - 1),
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn payload_buffer_grows_with_bytes_received_not_bytes_claimed() {
        // A peer claims the largest payload frame, sends 8 bytes, then
        // closes: a typed torn-frame error, and the buffer stays within
        // the bytes received plus one read chunk.
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAX_PAYLOAD_FRAME.to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        wire.extend_from_slice(b"8 bytes!");
        let err = recv_frame(&mut &wire[..], MAX_PAYLOAD_FRAME).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            format!("torn wire frame: EOF after 8 of {MAX_PAYLOAD_FRAME} payload bytes")
        );

        let mut payload = Vec::new();
        let err = read_payload(&mut &b"8 bytes!"[..], MAX_PAYLOAD_FRAME, &mut payload).unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        assert_eq!(payload, b"8 bytes!");
        assert!(payload.capacity() <= 8 + READ_CHUNK, "capacity {}", payload.capacity());

        // A reader that trickles bytes out 1000 at a time: a payload
        // longer than a chunk arrives whole, and a torn one leaves the
        // buffer within the bytes received plus one (grown) chunk.
        struct Trickle<'a> {
            bytes: &'a [u8],
            at: usize,
        }
        impl Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = buf.len().min(1000).min(self.bytes.len() - self.at);
                buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
                self.at += n;
                Ok(n)
            }
        }
        let long: Vec<u8> = (0..3 * READ_CHUNK + 17).map(|i| (i * 7) as u8).collect();
        let mut payload = Vec::new();
        read_payload(&mut Trickle { bytes: &long, at: 0 }, long.len() as u32, &mut payload).unwrap();
        assert_eq!(payload, long);
        let mut cut = Trickle { bytes: &long[..READ_CHUNK + 5], at: 0 };
        let mut payload = Vec::new();
        assert!(read_payload(&mut cut, MAX_PAYLOAD_FRAME, &mut payload).is_err());
        assert_eq!(payload.len(), READ_CHUNK + 5);
        assert!(payload.capacity() <= 2 * READ_CHUNK + 5, "capacity {}", payload.capacity());
    }

    #[test]
    fn blobs_roundtrip_and_mistagged_payloads_are_rejected() {
        let bytes = b"\x01\x02raw partition bytes\x00\xff".to_vec();
        let payload = encode_blob(&bytes);
        assert_eq!(payload.len(), bytes.len() + 1);
        assert_eq!(decode_blob(payload).unwrap(), bytes);
        // An empty blob is representable: one tag byte, zero content.
        assert_eq!(decode_blob(encode_blob(b"")).unwrap(), b"");
        // A control message where a blob was expected is an error.
        let err = decode_blob(b"result 3 ok".to_vec()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn messages_roundtrip() {
        let msgs = [
            WireMsg::Hello(2, PROTO_VERSION),
            WireMsg::Deny("protocol version 1 != 2; rebuild the worker".to_string()),
            WireMsg::Config("k 31\np 8\n".to_string()),
            WireMsg::Claim(2),
            WireMsg::Assign(17, 90210),
            WireMsg::Heartbeat(2),
            WireMsg::Finished,
            WireMsg::Result(17, "ok 1 4096 0".to_string()),
            WireMsg::Failed(9, "checksum mismatch".to_string()),
        ];
        for m in &msgs {
            assert_eq!(&WireMsg::decode(&m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn versionless_hello_decodes_as_version_one() {
        // A PR-9 worker says `hello 3` with no version field; it must
        // decode (as version 1) so the parent can *deny* it politely.
        assert_eq!(WireMsg::decode(b"hello 3").unwrap(), WireMsg::Hello(3, 1));
        // Likewise an old parent's kmer-less assign.
        assert_eq!(WireMsg::decode(b"assign 7").unwrap(), WireMsg::Assign(7, 0));
    }

    #[test]
    fn malformed_messages_are_rejected() {
        for bad in
            [&b"launch 3"[..], b"assign", b"claim abc", b"hello -1", b"hello 3 x", b"heartbeat", b"\xff\xfe"]
        {
            assert!(WireMsg::decode(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn tcp_transport_times_out_then_delivers() {
        let listener = ShardListener::bind_tcp("127.0.0.1:0").unwrap();
        assert!(listener.is_tcp());
        let addr = listener.addr();
        let child = std::thread::spawn(move || {
            let mut t = connect_tcp(&addr).unwrap();
            // Wait long enough for the parent's first recv to time out.
            std::thread::sleep(Duration::from_millis(120));
            t.send(&WireMsg::Heartbeat(5).encode()).unwrap();
            // Hold the socket open until the parent is done reading.
            match t.recv(MAX_FRAME, None).unwrap() {
                Recv::Frame(p) => assert_eq!(WireMsg::decode(&p).unwrap(), WireMsg::Finished),
                other => panic!("worker expected finished, got {other:?}"),
            }
        });
        let mut conn = listener.accept().unwrap();
        assert!(conn.remote(), "TCP peers count as remote");
        // First recv: deadline elapses before the peer says anything.
        assert_eq!(conn.recv(MAX_FRAME, Some(Duration::from_millis(20))).unwrap(), Recv::TimedOut);
        // Second recv: generous deadline, the heartbeat arrives.
        match conn.recv(MAX_FRAME, Some(Duration::from_secs(5))).unwrap() {
            Recv::Frame(p) => assert_eq!(WireMsg::decode(&p).unwrap(), WireMsg::Heartbeat(5)),
            other => panic!("expected the heartbeat, got {other:?}"),
        }
        conn.send(&WireMsg::Finished.encode()).unwrap();
        child.join().unwrap();
    }

    #[test]
    fn unix_transport_is_local_and_sender_shares_the_socket() {
        let path = std::env::temp_dir().join(format!("parahash-shard-ut-{}.sock", std::process::id()));
        let listener = ShardListener::bind_unix(&path).unwrap();
        assert!(!listener.is_tcp());
        let addr = std::path::PathBuf::from(listener.addr());
        let child = std::thread::spawn(move || {
            let t = connect_unix(&addr).unwrap();
            // Send through a detached sender handle, as the heartbeat
            // ticker does, then drop everything (clean EOF).
            let mut s = t.sender();
            s.send(&WireMsg::Hello(1, PROTO_VERSION).encode()).unwrap();
        });
        let mut conn = listener.accept().unwrap();
        assert!(!conn.remote(), "unix peers are local");
        match conn.recv(MAX_FRAME, Some(Duration::from_secs(5))).unwrap() {
            Recv::Frame(p) => assert_eq!(WireMsg::decode(&p).unwrap(), WireMsg::Hello(1, PROTO_VERSION)),
            other => panic!("expected hello, got {other:?}"),
        }
        assert_eq!(conn.recv(MAX_FRAME, Some(Duration::from_secs(5))).unwrap(), Recv::Eof);
        child.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn net_failpoints_drop_and_garble_frames() {
        use crate::failpoint::{arm, disarm, FailAction};
        // Drop: the armed send writes nothing at all.
        arm("shard.net.drop", FailAction::ReturnError, 1);
        let mut buf = Vec::new();
        write_frame(&mut buf, b"claim 0").unwrap();
        disarm("shard.net.drop");
        assert!(buf.is_empty(), "dropped frame must not reach the wire");
        write_frame(&mut buf, b"claim 0").unwrap();
        assert!(!buf.is_empty(), "disarmed sends flow again");

        // Garble: the armed send arrives but fails the CRC check.
        arm("shard.net.garble", FailAction::ReturnError, 1);
        let mut bent = Vec::new();
        write_frame(&mut bent, b"result 3 ok").unwrap();
        disarm("shard.net.garble");
        let err = read_frame(&mut &bent[..]).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn board_leases_in_given_order() {
        let mut board = LeaseBoard::new(vec![2, 0, 1], 3, 2);
        assert_eq!(board.claim(0), Some(2));
        assert_eq!(board.claim(1), Some(0));
        assert_eq!(board.claim(0), Some(1));
        assert_eq!(board.claim(1), None, "drained");
        assert_eq!(board.remaining(), 3, "all three still leased");
        board.complete(2);
        board.complete(0);
        board.complete(1);
        assert_eq!(board.remaining(), 0);
        assert!(board.exhausted().is_empty());
        assert_eq!(board.done(), &[2, 0, 1]);
    }

    #[test]
    fn failed_partition_retries_then_exhausts() {
        let mut board = LeaseBoard::new(vec![0, 1], 2, 2);
        assert_eq!(board.claim(0), Some(0));
        board.fail(0, "boom");
        // Requeued at the front: it restarts before fresh partition 1.
        assert_eq!(board.claim(3), Some(0));
        board.fail(0, "boom again");
        // Second failure hits the cap: exhausted, never leased again.
        assert_eq!(board.claim(0), Some(1));
        assert_eq!(board.claim(0), None);
        assert_eq!(board.exhausted().len(), 1);
        assert_eq!(board.exhausted()[0].partition, 0);
        assert_eq!(board.exhausted()[0].worker, 3, "the last holder is on record");
        assert_eq!(board.exhausted()[0].attempts, 2);
        assert_eq!(board.exhausted()[0].reason, "boom again");
        board.complete(1);
        assert_eq!(board.remaining(), 0);
    }

    #[test]
    fn dead_worker_requeues_its_leases() {
        let mut board = LeaseBoard::new(vec![0, 1, 2], 3, 3);
        assert_eq!(board.claim(7), Some(0));
        assert_eq!(board.claim(7), Some(1));
        assert_eq!(board.claim(8), Some(2));
        board.release_worker(7, "died holding the lease");
        // Worker 8's lease is untouched; 7's two come back pending.
        assert_eq!(board.remaining(), 3);
        let requeued: Vec<_> = std::iter::from_fn(|| board.claim(8)).collect();
        assert_eq!(requeued.len(), 2);
        assert!(requeued.contains(&0) && requeued.contains(&1));
    }

    #[test]
    fn claim_while_holding_a_lease_reclaims_it_without_charge() {
        // Partition 0 loses one attempt to a real disconnect (a dropped
        // `assign`), then its second lease's report is lost: the worker
        // claims again while still holding it.
        let mut board = LeaseBoard::new(vec![0, 1], 2, 2);
        assert_eq!(board.claim(0), Some(0));
        board.release_worker(0, "disconnected holding the lease");
        assert_eq!(board.claim(0), Some(0));
        assert_eq!(board.claim(1), Some(1));
        board.reclaim(0, "lost its report");
        assert_eq!(board.remaining(), 2, "nothing exhausted or lost");
        // The partition restarts first, on its refunded attempt; worker
        // 1's lease is untouched, also by a worker holding nothing.
        assert_eq!(board.claim(0), Some(0));
        board.reclaim(2, "lost its report");
        assert_eq!(board.claim(2), None, "worker 1 still holds partition 1");
        board.complete(0);
        board.complete(1);
        assert_eq!(board.remaining(), 0);
        assert!(board.exhausted().is_empty());
        assert_eq!(board.done(), &[0, 1]);

        // The refund is exact: reclaim and re-lease leave the attempt
        // count where it was, so the next real loss exhausts the
        // partition at the cap, not past it.
        let mut board = LeaseBoard::new(vec![0], 1, 2);
        assert_eq!(board.claim(0), Some(0));
        board.release_worker(0, "disconnected holding the lease");
        assert_eq!(board.claim(0), Some(0));
        board.reclaim(0, "lost its report");
        assert_eq!(board.claim(0), Some(0));
        board.release_worker(0, "disconnected holding the lease");
        assert_eq!(board.exhausted().len(), 1);
        assert_eq!(board.exhausted()[0].attempts, 2);
    }

    #[test]
    fn link_fault_refunds_are_capped_per_partition() {
        // A link that garbles every lease of partition 0: each loss is
        // refunded until the cap, then charged like a failure, so the
        // partition still exhausts instead of re-leasing forever.
        let mut board = LeaseBoard::new(vec![0, 1], 2, 2);
        for _ in 0..MAX_LINK_REFUNDS {
            assert_eq!(board.claim(5), Some(0));
            board.reclaim(5, "sent a frame with a bad checksum");
        }
        assert!(board.exhausted().is_empty(), "refunded losses are free");
        assert_eq!(board.claim(5), Some(0));
        board.reclaim(5, "sent a frame with a bad checksum");
        assert_eq!(board.claim(5), Some(0), "the first charge leaves one attempt");
        board.reclaim(5, "sent a frame with a bad checksum");
        assert_eq!(board.exhausted().len(), 1);
        let ex = &board.exhausted()[0];
        assert_eq!((ex.partition, ex.worker, ex.attempts), (0, 5, 2));
        assert_eq!(ex.reason, "worker 5 sent a frame with a bad checksum");
        // The cap is per partition: partition 1 still gets its refunds.
        assert_eq!(board.claim(6), Some(1));
        board.reclaim(6, "lost its report");
        assert_eq!(board.claim(6), Some(1));
        board.complete(1);
        assert_eq!(board.remaining(), 0);
    }

    #[test]
    fn repeated_worker_death_exhausts_the_partition() {
        let mut board = LeaseBoard::new(vec![0], 1, 2);
        assert_eq!(board.claim(0), Some(0));
        board.release_worker(0, "died holding the lease");
        assert_eq!(board.claim(1), Some(0));
        board.release_worker(1, "lost heartbeat for 600 ms");
        assert_eq!(board.claim(2), None, "poison partition must not re-lease forever");
        assert_eq!(board.exhausted().len(), 1);
        let ex = &board.exhausted()[0];
        assert_eq!(ex.worker, 1, "the evicted holder is on record");
        assert!(ex.reason.contains("heartbeat"), "{ex:?}");
    }
}
