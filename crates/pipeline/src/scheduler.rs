use std::sync::Arc;
use std::time::{Duration, Instant};

use hetsim::{Device, DeviceKind};
use parking_lot::Mutex;

use crate::autotune::Steering;
use crate::{CancelToken, SharedCounterQueue};

/// Which pipeline stage a [`Span`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Stage 1: reading/parsing an input partition.
    Input,
    /// Stage 2: a device consuming a partition and producing an output.
    Compute,
    /// Stage 3: formatting/writing an output partition.
    Output,
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stage::Input => write!(f, "input"),
            Stage::Compute => write!(f, "compute"),
            Stage::Output => write!(f, "output"),
        }
    }
}

/// One timed event on the pipeline's timeline (offsets are relative to
/// the run start). The full span list reconstructs the paper's Fig 5
/// "time line for pipelined co-processing".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Which stage the event belongs to.
    pub stage: Stage,
    /// Worker identity: `"io"` for the input/output threads, the device
    /// name for compute.
    pub worker: String,
    /// Partition index the event processed.
    pub partition: usize,
    /// Offset of the event start from the run start.
    pub start: Duration,
    /// Offset of the event end from the run start.
    pub end: Duration,
}

/// How much of a run one device ended up doing — the raw material of the
/// paper's Fig 11 (workload distribution follows processing speed).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceShare {
    /// Device name.
    pub name: String,
    /// Partitions this device claimed and processed.
    pub partitions: usize,
    /// Work units inside those partitions (reads in Step 1, k-mers in
    /// Step 2) as reported by the process callback.
    pub work_units: u64,
    /// Wall-clock the device spent in its compute callback (including its
    /// metered transfers).
    pub busy: Duration,
}

/// Timing summary of one pipelined (or sequential) run.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// End-to-end wall-clock of the run.
    pub elapsed: Duration,
    /// Time the input stage spent producing partitions.
    pub input_time: Duration,
    /// Time the output stage spent consuming results.
    pub output_time: Duration,
    /// Per-device shares, in the order devices were passed.
    pub shares: Vec<DeviceShare>,
    /// Partitions processed in total.
    pub partitions: usize,
    /// Timeline of every stage event, for Fig-5-style visualisation.
    pub spans: Vec<Span>,
    /// Whether the run was cancelled before all partitions flowed through
    /// (fail-fast abort). When `true`, stage counts are partial.
    pub cancelled: bool,
}

impl PipelineReport {
    /// Total work units across devices.
    pub fn total_work(&self) -> u64 {
        self.shares.iter().map(|s| s.work_units).sum()
    }

    /// Fraction of the work each device did (parallel to `shares`).
    pub fn work_fractions(&self) -> Vec<f64> {
        let total = self.total_work().max(1) as f64;
        self.shares.iter().map(|s| s.work_units as f64 / total).collect()
    }

    /// The *ideal* fractions if work were split exactly proportionally to
    /// measured per-device speed (work_units / busy seconds) — the dotted
    /// line of Fig 11's right panel.
    pub fn ideal_fractions(&self) -> Vec<f64> {
        let speeds: Vec<f64> = self
            .shares
            .iter()
            .map(|s| {
                let secs = s.busy.as_secs_f64();
                if secs == 0.0 {
                    0.0
                } else {
                    s.work_units as f64 / secs
                }
            })
            .collect();
        let total: f64 = speeds.iter().sum();
        if total == 0.0 {
            return vec![0.0; speeds.len()];
        }
        speeds.iter().map(|s| s / total).collect()
    }
}

/// How many partitions a pipeline over `devices` devices lets in flight
/// at once: read by the input stage but not yet consumed by the output
/// stage. Two per device (one computing, one read ahead for it) plus
/// [`OUTPUT_LAG`] for the output stage. Without a bound the input stage
/// would read every partition before the devices finished the first,
/// and host memory would hold the whole input instead of a few
/// partitions per device.
pub fn read_ahead_bound(devices: usize) -> usize {
    2 * devices + OUTPUT_LAG
}

/// Partitions the output stage may fall behind the devices before they
/// stall for lack of input: the one it is writing plus three finished
/// ones. Its commits fsync, and one slow fsync should not idle every
/// device.
const OUTPUT_LAG: usize = 4;

/// The read-ahead bound as credits: the input stage takes one before it
/// reads a partition, the output stage returns one after it consumes a
/// partition. Built on [`SharedCounterQueue`], so [`close`](Self::close)
/// wakes an input stage blocked on an empty credit queue.
struct ReadAhead(SharedCounterQueue<()>);

impl ReadAhead {
    /// Credits for a stream of at most `stream_len` partitions.
    fn new(devices: usize, stream_len: usize) -> ReadAhead {
        let bound = read_ahead_bound(devices);
        let credits = SharedCounterQueue::new(stream_len + bound);
        for _ in 0..bound {
            credits.push(());
        }
        ReadAhead(credits)
    }

    /// Blocks until one more partition may be read; `false` once closed.
    fn admit(&self) -> bool {
        self.0.pop().is_some()
    }

    /// A partition left the pipeline: one more may be read.
    fn release(&self) {
        self.0.push(());
    }

    fn close(&self) {
        self.0.close();
    }
}

/// Runs `total` partitions through the paper's three-stage work-stealing
/// pipeline:
///
/// * an **input thread** drives `produce(i)` for `i in 0..total` (stage 1:
///   disk read + parse) and publishes each partition;
/// * **one driver thread per device** repeatedly claims the next
///   available partition and runs `process(device, index, input)` (stage
///   2) — an idle processor claims more often, which *is* the dynamic
///   distribution;
/// * an **output thread** claims results in completion order and runs
///   `consume(index, output)` (stage 3: format + disk write).
///
/// `process` returns `(output, work_units)`; work units feed the Fig 11
/// accounting.
///
/// # Panics
///
/// Panics if `devices` is empty or if any stage callback panics.
pub fn run_coprocessed<I, O, FP, FC, FO>(
    total: usize,
    devices: &[Arc<dyn Device>],
    produce: FP,
    process: FC,
    consume: FO,
) -> PipelineReport
where
    I: Send,
    O: Send,
    FP: FnMut(usize) -> I + Send,
    FC: Fn(&dyn Device, usize, I) -> (O, u64) + Sync,
    FO: FnMut(usize, O) + Send,
{
    let cancel = CancelToken::new();
    run_coprocessed_with(total, devices, &cancel, produce, process, consume)
}

/// Closes both pipeline queues when dropped during a panic unwind, so a
/// dying stage thread releases every peer blocked on `pop()` instead of
/// deadlocking the run; the panic then propagates through the thread
/// scope's join. Also latches the cancel token so loops that are *not*
/// blocked stop claiming new partitions.
struct PanicGuard<'a, A, B> {
    in_q: &'a SharedCounterQueue<A>,
    out_q: &'a SharedCounterQueue<B>,
    read_ahead: &'a ReadAhead,
    cancel: &'a CancelToken,
}

impl<A, B> Drop for PanicGuard<'_, A, B> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.cancel.cancel();
            self.read_ahead.close();
            self.in_q.close();
            self.out_q.close();
        }
    }
}

/// [`run_coprocessed`] with an externally observable [`CancelToken`]: the
/// fail-fast variant the ParaHash steps use.
///
/// Cancellation semantics:
///
/// * Any thread may call [`CancelToken::cancel`] (typically a stage
///   callback that hit a fatal error). Every stage checks the token at
///   its loop boundary; the first stage thread to *observe* the token
///   closes both queues, releasing all blocked peers promptly.
/// * The input stage stops producing, device drivers stop claiming, and
///   the output stage stops consuming — remaining partitions are
///   abandoned, not processed.
/// * A panicking stage callback trips a drop guard that closes both
///   queues and latches the token; the panic is then re-propagated by the
///   thread scope instead of deadlocking the output stage.
///
/// The returned report has [`PipelineReport::cancelled`] set when the run
/// aborted; its stage counts cover only the partitions that actually
/// flowed through.
///
/// # Panics
///
/// Panics if `devices` is empty or if any stage callback panics.
pub fn run_coprocessed_with<I, O, FP, FC, FO>(
    total: usize,
    devices: &[Arc<dyn Device>],
    cancel: &CancelToken,
    produce: FP,
    process: FC,
    mut consume: FO,
) -> PipelineReport
where
    I: Send,
    O: Send,
    FP: FnMut(usize) -> I + Send,
    FC: Fn(&dyn Device, usize, I) -> (O, u64) + Sync,
    FO: FnMut(usize, O) + Send,
{
    assert!(!devices.is_empty(), "co-processing needs at least one device");
    let started = Instant::now();
    let in_queue: SharedCounterQueue<(usize, I)> = SharedCounterQueue::new(total);
    let out_queue: SharedCounterQueue<(usize, O, usize, u64, Duration)> =
        SharedCounterQueue::new(total);
    let read_ahead = ReadAhead::new(devices.len(), total);
    let spans: Mutex<Vec<Span>> = Mutex::new(Vec::with_capacity(3 * total));
    let record = |stage: Stage, worker: &str, partition: usize, t0: Instant| {
        spans.lock().push(Span {
            stage,
            worker: worker.to_owned(),
            partition,
            start: t0 - started,
            end: started.elapsed(),
        });
    };

    let mut input_time = Duration::ZERO;
    let mut output_time = Duration::ZERO;
    let mut shares: Vec<DeviceShare> = devices
        .iter()
        .map(|d| DeviceShare { name: d.name().to_owned(), partitions: 0, work_units: 0, busy: Duration::ZERO })
        .collect();

    std::thread::scope(|s| {
        // Stage 1: input.
        let in_q = &in_queue;
        let out_q = &out_queue;
        let read_ahead = &read_ahead;
        let record = &record;
        let input_handle = s.spawn({
            let mut produce = produce;
            move || {
                let _guard = PanicGuard { in_q, out_q, read_ahead, cancel };
                let mut spent = Duration::ZERO;
                for i in 0..total {
                    if cancel.is_cancelled() || !read_ahead.admit() {
                        break;
                    }
                    let t0 = Instant::now();
                    let item = produce(i);
                    spent += t0.elapsed();
                    record(Stage::Input, "io", i, t0);
                    in_q.push((i, item));
                }
                if cancel.is_cancelled() {
                    read_ahead.close();
                    in_q.close();
                    out_q.close();
                }
                spent
            }
        });

        // Stage 2: one driver per device, stealing from the input queue.
        let process = &process;
        for (dev_idx, device) in devices.iter().enumerate() {
            let device = Arc::clone(device);
            s.spawn(move || {
                let _guard = PanicGuard { in_q, out_q, read_ahead, cancel };
                while !cancel.is_cancelled() {
                    let Some((index, item)) = in_q.pop() else { break };
                    if cancel.is_cancelled() {
                        break;
                    }
                    let t0 = Instant::now();
                    let (output, work) = process(device.as_ref(), index, item);
                    let busy = t0.elapsed();
                    record(Stage::Compute, device.name(), index, t0);
                    out_q.push((index, output, dev_idx, work, busy));
                }
                if cancel.is_cancelled() {
                    // First observer releases every blocked peer.
                    read_ahead.close();
                    in_q.close();
                    out_q.close();
                }
            });
        }

        // Stage 3: output, on this thread (the scope owner); the guard
        // covers a panicking `consume` so spawned stages drain instead of
        // blocking the scope's implicit join forever.
        let _guard = PanicGuard { in_q, out_q, read_ahead, cancel };
        let mut consumed = 0;
        while let Some((index, output, dev_idx, work, busy)) = out_queue.pop() {
            let t0 = Instant::now();
            consume(index, output);
            read_ahead.release();
            output_time += t0.elapsed();
            record(Stage::Output, "io", index, t0);
            let share = &mut shares[dev_idx];
            share.partitions += 1;
            share.work_units += work;
            share.busy += busy;
            consumed += 1;
            if consumed == total || cancel.is_cancelled() {
                break;
            }
        }
        if cancel.is_cancelled() {
            read_ahead.close();
            in_queue.close();
            out_queue.close();
        }
        input_time = input_handle.join().expect("input stage panicked");
    });

    let mut spans = spans.into_inner();
    spans.sort_by_key(|s| s.start);
    PipelineReport {
        elapsed: started.elapsed(),
        input_time,
        output_time,
        shares,
        partitions: total,
        spans,
        cancelled: cancel.is_cancelled(),
    }
}

/// Closes the external feed queue *and* both internal pipeline queues on
/// a panic unwind — the streaming variant of [`PanicGuard`], which must
/// also release whoever is blocked feeding the pipeline.
struct StreamingPanicGuard<'a, T, A, B> {
    feed: &'a SharedCounterQueue<T>,
    in_q: &'a SharedCounterQueue<A>,
    out_q: &'a SharedCounterQueue<B>,
    read_ahead: &'a ReadAhead,
    cancel: &'a CancelToken,
}

impl<T, A, B> Drop for StreamingPanicGuard<'_, T, A, B> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.cancel.cancel();
            self.read_ahead.close();
            self.feed.close();
            self.in_q.close();
            self.out_q.close();
        }
    }
}

/// The streaming variant of [`run_coprocessed_with`]: instead of driving
/// `produce(i)` for a fixed `i in 0..total`, the input stage pops work
/// descriptors from an external `feed` queue that **grows as upstream
/// work completes** — this is what fuses Step 1 and Step 2, with Step 1's
/// output stage sealing partitions into the feed while Step 2's devices
/// are already consuming earlier ones.
///
/// * The `feed`'s capacity is an *upper bound* on the stream length; the
///   upstream producer calls [`SharedCounterQueue::finish`] (short
///   stream) or pushes exactly `capacity` items. Either way the input
///   stage drains the feed, forwards each descriptor through
///   `produce(t) -> (partition_index, input)`, and then declares its own
///   queue finished.
/// * Device drivers claim from the internal queue exactly as in
///   [`run_coprocessed_with`]; the last driver to exit finishes the
///   output queue so the output stage ends deterministically without
///   knowing the stream length up front.
/// * Cancellation and panic semantics are preserved: the first observer
///   of the [`CancelToken`] closes the feed and both internal queues, so
///   a fatal error in any stage releases the upstream producer too;
///   panicking stages trip a guard that does the same before the scope
///   join re-propagates.
///
/// The returned report's `partitions` counts the items actually consumed
/// (the stream length), not the feed capacity.
///
/// # Panics
///
/// Panics if `devices` is empty or if any stage callback panics.
pub fn run_coprocessed_streaming<T, I, O, FP, FC, FO>(
    feed: &SharedCounterQueue<T>,
    devices: &[Arc<dyn Device>],
    cancel: &CancelToken,
    produce: FP,
    process: FC,
    mut consume: FO,
) -> PipelineReport
where
    T: Send,
    I: Send,
    O: Send,
    FP: FnMut(T) -> (usize, I) + Send,
    FC: Fn(&dyn Device, usize, I) -> (O, u64) + Sync,
    FO: FnMut(usize, O) + Send,
{
    assert!(!devices.is_empty(), "co-processing needs at least one device");
    let started = Instant::now();
    let bound = feed.capacity();
    let in_queue: SharedCounterQueue<(usize, I)> = SharedCounterQueue::new(bound);
    let out_queue: SharedCounterQueue<(usize, O, usize, u64, Duration)> =
        SharedCounterQueue::new(bound);
    let read_ahead = ReadAhead::new(devices.len(), bound);
    let spans: Mutex<Vec<Span>> = Mutex::new(Vec::with_capacity(3 * bound));
    let record = |stage: Stage, worker: &str, partition: usize, t0: Instant| {
        spans.lock().push(Span {
            stage,
            worker: worker.to_owned(),
            partition,
            start: t0 - started,
            end: started.elapsed(),
        });
    };

    let mut input_time = Duration::ZERO;
    let mut output_time = Duration::ZERO;
    let mut shares: Vec<DeviceShare> = devices
        .iter()
        .map(|d| DeviceShare { name: d.name().to_owned(), partitions: 0, work_units: 0, busy: Duration::ZERO })
        .collect();
    let mut consumed = 0usize;

    // Drivers still running; the last one out finishes the output queue.
    let active_drivers = std::sync::atomic::AtomicUsize::new(devices.len());

    std::thread::scope(|s| {
        let in_q = &in_queue;
        let out_q = &out_queue;
        let read_ahead = &read_ahead;
        let active = &active_drivers;
        let record = &record;

        // Stage 1: input, fed by the upstream queue.
        let input_handle = s.spawn({
            let mut produce = produce;
            move || {
                let _guard = StreamingPanicGuard { feed, in_q, out_q, read_ahead, cancel };
                let mut spent = Duration::ZERO;
                while !cancel.is_cancelled() && read_ahead.admit() {
                    let Some(t) = feed.pop() else { break };
                    let t0 = Instant::now();
                    let (index, item) = produce(t);
                    spent += t0.elapsed();
                    record(Stage::Input, "io", index, t0);
                    in_q.push((index, item));
                }
                // Graceful: published items drain, blocked drivers wake.
                in_q.finish();
                if cancel.is_cancelled() {
                    feed.close();
                    read_ahead.close();
                    in_q.close();
                    out_q.close();
                }
                spent
            }
        });

        // Stage 2: one driver per device.
        let process = &process;
        for (dev_idx, device) in devices.iter().enumerate() {
            let device = Arc::clone(device);
            s.spawn(move || {
                let _guard = StreamingPanicGuard { feed, in_q, out_q, read_ahead, cancel };
                while !cancel.is_cancelled() {
                    let Some((index, item)) = in_q.pop() else { break };
                    if cancel.is_cancelled() {
                        break;
                    }
                    let t0 = Instant::now();
                    let (output, work) = process(device.as_ref(), index, item);
                    let busy = t0.elapsed();
                    record(Stage::Compute, device.name(), index, t0);
                    out_q.push((index, output, dev_idx, work, busy));
                }
                if active.fetch_sub(1, std::sync::atomic::Ordering::AcqRel) == 1 {
                    out_q.finish();
                }
                if cancel.is_cancelled() {
                    feed.close();
                    read_ahead.close();
                    in_q.close();
                    out_q.close();
                }
            });
        }

        // Stage 3: output, on the scope owner.
        let _guard = StreamingPanicGuard { feed, in_q, out_q, read_ahead, cancel };
        while let Some((index, output, dev_idx, work, busy)) = out_queue.pop() {
            let t0 = Instant::now();
            consume(index, output);
            read_ahead.release();
            output_time += t0.elapsed();
            record(Stage::Output, "io", index, t0);
            let share = &mut shares[dev_idx];
            share.partitions += 1;
            share.work_units += work;
            share.busy += busy;
            consumed += 1;
            if cancel.is_cancelled() {
                break;
            }
        }
        if cancel.is_cancelled() {
            feed.close();
            read_ahead.close();
            in_queue.close();
            out_queue.close();
        }
        input_time = input_handle.join().expect("input stage panicked");
    });

    let mut spans = spans.into_inner();
    spans.sort_by_key(|s| s.start);
    PipelineReport {
        elapsed: started.elapsed(),
        input_time,
        output_time,
        shares,
        partitions: consumed,
        spans,
        cancelled: cancel.is_cancelled(),
    }
}

/// Closes the feed, both class queues, and the output queue on a panic
/// unwind — the steered-scheduler counterpart of [`StreamingPanicGuard`].
struct SteeredPanicGuard<'a, T, A, B> {
    feed: &'a SharedCounterQueue<T>,
    cpu_q: &'a SharedCounterQueue<A>,
    gpu_q: &'a SharedCounterQueue<A>,
    out_q: &'a SharedCounterQueue<B>,
    read_ahead: &'a ReadAhead,
    cancel: &'a CancelToken,
}

impl<T, A, B> Drop for SteeredPanicGuard<'_, T, A, B> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.cancel.cancel();
            self.read_ahead.close();
            self.feed.close();
            self.cpu_q.close();
            self.gpu_q.close();
            self.out_q.close();
        }
    }
}

/// [`run_coprocessed_streaming`] with **model-driven dispatch**: instead
/// of one shared input queue that any idle device steals from, partitions
/// are routed into a *CPU class queue* or a *GPU class queue* as they
/// arrive, and the routing decision is delegated to a
/// [`Steering`] policy — in practice the online autotuner
/// ([`crate::autotune::SplitTuner`]) steering toward the Eq. 2 split, or
/// its `static:<frac>` / `cpu` escape hatches.
///
/// Differences from the work-stealing variant, all deliberate:
///
/// * **No cross-class stealing.** A `static:0.3` split must *pin* 30 % of
///   partitions to the GPU even when that is not the fastest assignment —
///   otherwise every static split would collapse into the same dynamic
///   schedule and the split-sweep benchmark would measure nothing.
///   Within a class, multiple devices of that class still steal from each
///   other through the shared class queue.
/// * **Roster clamping beats policy.** A roster with no GPU routes
///   everything to the CPU class (and vice versa) regardless of what the
///   policy asks, so a mis-set split can never stall the stream.
/// * **The policy hears everything.** Per-partition produce time feeds
///   [`Steering::observe_input`], per-launch compute time and class feed
///   [`Steering::observe_compute`], and per-result consume time feeds
///   [`Steering::observe_output`] — the measurements the tuner folds into
///   [`crate::perfmodel::StepComponents`] while the run progresses.
///
/// Cancellation, panic, and termination semantics mirror
/// [`run_coprocessed_streaming`]: first cancel observer closes the feed
/// and all queues; the last driver out finishes the output queue; stage
/// panics trip a guard and re-propagate.
///
/// # Panics
///
/// Panics if `devices` is empty or if any stage callback panics.
pub fn run_coprocessed_streaming_steered<T, I, O, FP, FC, FO>(
    feed: &SharedCounterQueue<T>,
    devices: &[Arc<dyn Device>],
    cancel: &CancelToken,
    steer: &(dyn Steering + '_),
    produce: FP,
    process: FC,
    mut consume: FO,
) -> PipelineReport
where
    T: Send,
    I: Send,
    O: Send,
    FP: FnMut(T) -> (usize, I) + Send,
    FC: Fn(&dyn Device, usize, I) -> (O, u64) + Sync,
    FO: FnMut(usize, O) + Send,
{
    assert!(!devices.is_empty(), "co-processing needs at least one device");
    let started = Instant::now();
    let bound = feed.capacity();
    let gpu_class: Vec<bool> =
        devices.iter().map(|d| matches!(d.kind(), DeviceKind::SimGpu)).collect();
    let has_gpu = gpu_class.iter().any(|&g| g);
    let has_cpu = gpu_class.iter().any(|&g| !g);
    let cpu_queue: SharedCounterQueue<(usize, I)> = SharedCounterQueue::new(bound);
    let gpu_queue: SharedCounterQueue<(usize, I)> = SharedCounterQueue::new(bound);
    let out_queue: SharedCounterQueue<(usize, O, usize, u64, Duration)> =
        SharedCounterQueue::new(bound);
    let read_ahead = ReadAhead::new(devices.len(), bound);
    let spans: Mutex<Vec<Span>> = Mutex::new(Vec::with_capacity(3 * bound));
    let record = |stage: Stage, worker: &str, partition: usize, t0: Instant| {
        spans.lock().push(Span {
            stage,
            worker: worker.to_owned(),
            partition,
            start: t0 - started,
            end: started.elapsed(),
        });
    };

    let mut input_time = Duration::ZERO;
    let mut output_time = Duration::ZERO;
    let mut shares: Vec<DeviceShare> = devices
        .iter()
        .map(|d| DeviceShare { name: d.name().to_owned(), partitions: 0, work_units: 0, busy: Duration::ZERO })
        .collect();
    let mut consumed = 0usize;

    // Drivers still running (both classes); the last one out finishes the
    // output queue.
    let active_drivers = std::sync::atomic::AtomicUsize::new(devices.len());

    std::thread::scope(|s| {
        let cpu_q = &cpu_queue;
        let gpu_q = &gpu_queue;
        let out_q = &out_queue;
        let read_ahead = &read_ahead;
        let active = &active_drivers;
        let record = &record;

        // Stage 1: input, fed by the upstream queue, routing per the
        // steering policy (clamped to the classes the roster has).
        let input_handle = s.spawn({
            let mut produce = produce;
            move || {
                let _guard = SteeredPanicGuard { feed, cpu_q, gpu_q, out_q, read_ahead, cancel };
                let mut spent = Duration::ZERO;
                while !cancel.is_cancelled() && read_ahead.admit() {
                    let Some(t) = feed.pop() else { break };
                    let t0 = Instant::now();
                    let (index, item) = produce(t);
                    let took = t0.elapsed();
                    spent += took;
                    steer.observe_input(took);
                    record(Stage::Input, "io", index, t0);
                    let to_gpu = if !has_gpu {
                        false
                    } else if !has_cpu {
                        true
                    } else {
                        steer.assign_gpu(index)
                    };
                    if to_gpu { gpu_q.push((index, item)) } else { cpu_q.push((index, item)) };
                }
                // Graceful end of both class streams.
                cpu_q.finish();
                gpu_q.finish();
                if cancel.is_cancelled() {
                    feed.close();
                    read_ahead.close();
                    cpu_q.close();
                    gpu_q.close();
                    out_q.close();
                }
                spent
            }
        });

        // Stage 2: one driver per device, draining its own class queue.
        let process = &process;
        for (dev_idx, device) in devices.iter().enumerate() {
            let device = Arc::clone(device);
            let is_gpu = gpu_class[dev_idx];
            s.spawn(move || {
                let _guard = SteeredPanicGuard { feed, cpu_q, gpu_q, out_q, read_ahead, cancel };
                let own_q = if is_gpu { gpu_q } else { cpu_q };
                while !cancel.is_cancelled() {
                    let Some((index, item)) = own_q.pop() else { break };
                    if cancel.is_cancelled() {
                        break;
                    }
                    let t0 = Instant::now();
                    let (output, work) = process(device.as_ref(), index, item);
                    let busy = t0.elapsed();
                    steer.observe_compute(is_gpu, busy, work);
                    record(Stage::Compute, device.name(), index, t0);
                    out_q.push((index, output, dev_idx, work, busy));
                }
                if active.fetch_sub(1, std::sync::atomic::Ordering::AcqRel) == 1 {
                    out_q.finish();
                }
                if cancel.is_cancelled() {
                    feed.close();
                    read_ahead.close();
                    cpu_q.close();
                    gpu_q.close();
                    out_q.close();
                }
            });
        }

        // Stage 3: output, on the scope owner.
        let _guard = SteeredPanicGuard { feed, cpu_q, gpu_q, out_q, read_ahead, cancel };
        while let Some((index, output, dev_idx, work, busy)) = out_queue.pop() {
            let t0 = Instant::now();
            consume(index, output);
            read_ahead.release();
            let took = t0.elapsed();
            output_time += took;
            steer.observe_output(took);
            record(Stage::Output, "io", index, t0);
            let share = &mut shares[dev_idx];
            share.partitions += 1;
            share.work_units += work;
            share.busy += busy;
            consumed += 1;
            if cancel.is_cancelled() {
                break;
            }
        }
        if cancel.is_cancelled() {
            feed.close();
            read_ahead.close();
            cpu_queue.close();
            gpu_queue.close();
            out_queue.close();
        }
        input_time = input_handle.join().expect("input stage panicked");
    });

    let mut spans = spans.into_inner();
    spans.sort_by_key(|s| s.start);
    PipelineReport {
        elapsed: started.elapsed(),
        input_time,
        output_time,
        shares,
        partitions: consumed,
        spans,
        cancelled: cancel.is_cancelled(),
    }
}

/// A non-pipelined reference run: input **all** partitions, then compute
/// **all** on the single given device, then output **all**. The report's
/// `input_time`/`output_time`/device-busy sum to (almost exactly)
/// `elapsed`. Only the scheduler's tests use it, as the baseline the
/// pipelined run must beat; the Fig 12 harness instead sums a pipelined
/// run's own stage times.
///
/// # Panics
///
/// Panics if a stage callback panics.
pub fn run_sequential<I, O, FP, FC, FO>(
    total: usize,
    device: &Arc<dyn Device>,
    mut produce: FP,
    process: FC,
    mut consume: FO,
) -> PipelineReport
where
    FP: FnMut(usize) -> I,
    FC: Fn(&dyn Device, usize, I) -> (O, u64),
    FO: FnMut(usize, O),
{
    let started = Instant::now();
    let t0 = Instant::now();
    let inputs: Vec<I> = (0..total).map(&mut produce).collect();
    let input_time = t0.elapsed();

    let mut share = DeviceShare {
        name: device.name().to_owned(),
        partitions: total,
        work_units: 0,
        busy: Duration::ZERO,
    };
    let mut outputs = Vec::with_capacity(total);
    let t0 = Instant::now();
    for (i, item) in inputs.into_iter().enumerate() {
        let (out, work) = process(device.as_ref(), i, item);
        share.work_units += work;
        outputs.push(out);
    }
    share.busy = t0.elapsed();

    let t0 = Instant::now();
    for (i, out) in outputs.into_iter().enumerate() {
        consume(i, out);
    }
    let output_time = t0.elapsed();

    PipelineReport {
        elapsed: started.elapsed(),
        input_time,
        output_time,
        shares: vec![share],
        partitions: total,
        spans: Vec::new(),
        cancelled: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::{CpuDevice, SimGpuConfig, SimGpuDevice, TransferModel};
    use parking_lot::Mutex;

    fn cpu(threads: usize) -> Arc<dyn Device> {
        Arc::new(CpuDevice::new("cpu0", threads))
    }

    fn slow_gpu(cost_us: u64) -> Arc<dyn Device> {
        Arc::new(SimGpuDevice::new(
            "gpu0",
            SimGpuConfig {
                sm_count: 2,
                warp_size: 4,
                transfer: TransferModel::instant(),
                compute_cost_per_item: Duration::from_micros(cost_us),
                ..Default::default()
            },
        ))
    }

    #[test]
    fn all_partitions_processed_once_in_order() {
        let seen = Mutex::new(Vec::new());
        let report = run_coprocessed(
            20,
            &[cpu(2)],
            |i| i * 10,
            |_, _, v| (v + 1, 1),
            |idx, out| seen.lock().push((idx, out)),
        );
        let mut got = seen.into_inner();
        got.sort();
        assert_eq!(got, (0..20).map(|i| (i, i * 10 + 1)).collect::<Vec<_>>());
        assert_eq!(report.partitions, 20);
        assert_eq!(report.total_work(), 20);
        assert_eq!(report.shares.len(), 1);
        assert_eq!(report.shares[0].partitions, 20);
    }

    #[test]
    fn two_devices_split_the_work() {
        let report = run_coprocessed(
            30,
            &[cpu(1), slow_gpu(0)],
            |i| i,
            |_, _, v| {
                // A little real work so both devices get a chance to claim.
                std::thread::sleep(Duration::from_micros(300));
                (v, 1u64)
            },
            |_, _| {},
        );
        assert_eq!(report.total_work(), 30);
        let claimed: usize = report.shares.iter().map(|s| s.partitions).sum();
        assert_eq!(claimed, 30);
        assert!(
            report.shares.iter().all(|s| s.partitions > 0),
            "both devices should claim some work: {:?}",
            report.shares
        );
    }

    #[test]
    fn faster_device_claims_more() {
        // CPU processes instantly; GPU pays 2 ms per item (4 items/partition).
        let report = run_coprocessed(
            24,
            &[cpu(1), slow_gpu(2000)],
            |i| i,
            |d, _, v| {
                d.execute(4, &|_| {});
                (v, 4u64)
            },
            |_, _| {},
        );
        let cpu_share = &report.shares[0];
        let gpu_share = &report.shares[1];
        assert!(
            cpu_share.partitions > gpu_share.partitions,
            "work stealing should favour the fast device: cpu={} gpu={}",
            cpu_share.partitions,
            gpu_share.partitions
        );
    }

    #[test]
    fn work_fractions_sum_to_one() {
        let report = run_coprocessed(
            10,
            &[cpu(1), cpu(1)],
            |i| i,
            |_, _, v| (v, 3u64),
            |_, _| {},
        );
        let fracs = report.work_fractions();
        assert!((fracs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let ideal = report.ideal_fractions();
        assert_eq!(ideal.len(), 2);
    }

    #[test]
    fn sequential_report_breaks_down_stages() {
        let dev = cpu(1);
        let report = run_sequential(
            8,
            &dev,
            |i| {
                std::thread::sleep(Duration::from_millis(2));
                i
            },
            |_, _, v| {
                std::thread::sleep(Duration::from_millis(2));
                (v, 1u64)
            },
            |_, _| std::thread::sleep(Duration::from_millis(2)),
        );
        assert!(report.input_time >= Duration::from_millis(14));
        assert!(report.output_time >= Duration::from_millis(14));
        assert!(report.shares[0].busy >= Duration::from_millis(14));
        // Sequential: stages sum to roughly the elapsed time.
        let sum = report.input_time + report.output_time + report.shares[0].busy;
        assert!(report.elapsed >= sum.mul_f64(0.95));
    }

    #[test]
    fn pipelined_overlaps_io_with_compute() {
        // Input and output each sleep; compute sleeps too. Pipelined
        // elapsed must be well under the sequential sum of stages.
        let stage = Duration::from_millis(3);
        let n = 12;
        let dev = cpu(1);
        let seq = run_sequential(
            n,
            &dev,
            |i| {
                std::thread::sleep(stage);
                i
            },
            |_, _, v| {
                std::thread::sleep(stage);
                (v, 1u64)
            },
            |_, _| std::thread::sleep(stage),
        );
        let pip = run_coprocessed(
            n,
            &[cpu(1)],
            |i| {
                std::thread::sleep(stage);
                i
            },
            |_, _, v| {
                std::thread::sleep(stage);
                (v, 1u64)
            },
            |_, _| std::thread::sleep(stage),
        );
        assert!(
            pip.elapsed < seq.elapsed.mul_f64(0.75),
            "pipelining should hide ~2/3 of stage time: pipelined {:?} vs sequential {:?}",
            pip.elapsed,
            seq.elapsed
        );
    }

    #[test]
    fn spans_cover_every_partition_and_stage() {
        let report = run_coprocessed(
            12,
            &[cpu(1), cpu(2)],
            |i| i,
            |_, _, v| {
                std::thread::sleep(Duration::from_micros(200));
                (v, 1u64)
            },
            |_, _| {},
        );
        for stage in [Stage::Input, Stage::Compute, Stage::Output] {
            let mut parts: Vec<usize> = report
                .spans
                .iter()
                .filter(|s| s.stage == stage)
                .map(|s| s.partition)
                .collect();
            parts.sort();
            assert_eq!(parts, (0..12).collect::<Vec<_>>(), "stage {stage}");
        }
        // Spans are well-formed and inside the run window.
        for s in &report.spans {
            assert!(s.end >= s.start);
            assert!(s.end <= report.elapsed + Duration::from_millis(5));
        }
        // Causality per partition: input ends before its compute ends
        // before its output ends.
        for i in 0..12 {
            let at = |stage: Stage| {
                report.spans.iter().find(|s| s.stage == stage && s.partition == i).unwrap()
            };
            assert!(at(Stage::Input).end <= at(Stage::Compute).end);
            assert!(at(Stage::Compute).end <= at(Stage::Output).end);
        }
    }

    #[test]
    fn zero_partitions_complete_immediately() {
        let report = run_coprocessed(0, &[cpu(1)], |i| i, |_, _, v| (v, 0u64), |_, _: usize| {});
        assert_eq!(report.partitions, 0);
        assert_eq!(report.total_work(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn no_devices_panics() {
        run_coprocessed(1, &[], |i| i, |_, _, v: usize| (v, 0u64), |_, _| {});
    }

    #[test]
    fn uncancelled_runs_report_not_cancelled() {
        let report = run_coprocessed(4, &[cpu(1)], |i| i, |_, _, v| (v, 1u64), |_, _| {});
        assert!(!report.cancelled);
    }

    #[test]
    fn cancel_from_compute_abandons_remaining_partitions() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cancel = CancelToken::new();
        let processed = AtomicUsize::new(0);
        let total = 64;
        let report = run_coprocessed_with(
            total,
            &[cpu(1)],
            &cancel,
            |i| {
                // Slow input so cancellation beats production.
                std::thread::sleep(Duration::from_micros(300));
                i
            },
            |_, idx, v| {
                processed.fetch_add(1, Ordering::Relaxed);
                if idx == 0 {
                    cancel.cancel();
                }
                (v, 1u64)
            },
            |_, _| {},
        );
        assert!(report.cancelled);
        let done = processed.load(Ordering::Relaxed);
        assert!(done < total, "cancel must abandon partitions, processed {done}/{total}");
    }

    #[test]
    fn cancel_from_consume_stops_the_run() {
        let cancel = CancelToken::new();
        let seen = Mutex::new(0usize);
        let report = run_coprocessed_with(
            32,
            &[cpu(2)],
            &cancel,
            |i| {
                std::thread::sleep(Duration::from_micros(200));
                i
            },
            |_, _, v| (v, 1u64),
            |_, _| {
                *seen.lock() += 1;
                cancel.cancel();
            },
        );
        assert!(report.cancelled);
        let observed = *seen.lock();
        assert!(observed < 32, "consume observed {observed} outputs");
    }

    #[test]
    fn panicking_process_propagates_instead_of_hanging() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_coprocessed(
                16,
                &[cpu(1)],
                |i| i,
                |_, idx, v: usize| {
                    if idx == 3 {
                        panic!("injected compute panic");
                    }
                    (v, 1u64)
                },
                |_, _| {},
            )
        }));
        assert!(result.is_err(), "panic must propagate, not deadlock stage 3");
    }

    #[test]
    fn panicking_produce_propagates_instead_of_hanging() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_coprocessed(
                16,
                &[cpu(2)],
                |i| {
                    if i == 2 {
                        panic!("injected input panic");
                    }
                    i
                },
                |_, _, v: usize| (v, 1u64),
                |_, _| {},
            )
        }));
        assert!(result.is_err(), "input panic must propagate");
    }

    #[test]
    fn streaming_consumes_everything_fed_concurrently() {
        let feed = SharedCounterQueue::new(40);
        let cancel = CancelToken::new();
        let seen = Mutex::new(Vec::new());
        let report = std::thread::scope(|s| {
            s.spawn(|| {
                // Upstream producer trickles descriptors in while the
                // pipeline is already running — the fused-mode shape.
                for i in 0..40usize {
                    std::thread::sleep(Duration::from_micros(100));
                    feed.push(i);
                }
                feed.finish();
            });
            run_coprocessed_streaming(
                &feed,
                &[cpu(2)],
                &cancel,
                |t| (t, t * 10),
                |_, _, v| (v + 1, 1u64),
                |idx, out| seen.lock().push((idx, out)),
            )
        });
        let mut got = seen.into_inner();
        got.sort();
        assert_eq!(got, (0..40).map(|i| (i, i * 10 + 1)).collect::<Vec<_>>());
        assert_eq!(report.partitions, 40);
        assert!(!report.cancelled);
    }

    #[test]
    fn streaming_short_stream_ends_despite_spare_capacity() {
        let feed = SharedCounterQueue::new(64);
        let cancel = CancelToken::new();
        for i in 0..5usize {
            feed.push(i);
        }
        feed.finish(); // only 5 of 64 will ever arrive
        let consumed = Mutex::new(0usize);
        let report = run_coprocessed_streaming(
            &feed,
            &[cpu(1), cpu(2)],
            &cancel,
            |t| (t, t),
            |_, _, v| (v, 1u64),
            |_, _| *consumed.lock() += 1,
        );
        assert_eq!(*consumed.lock(), 5);
        assert_eq!(report.partitions, 5);
        assert_eq!(report.total_work(), 5);
    }

    #[test]
    fn streaming_empty_stream_completes() {
        let feed = SharedCounterQueue::<usize>::new(8);
        let cancel = CancelToken::new();
        feed.finish();
        let report = run_coprocessed_streaming(
            &feed,
            &[cpu(1)],
            &cancel,
            |t| (t, t),
            |_, _, v: usize| (v, 0u64),
            |_, _| {},
        );
        assert_eq!(report.partitions, 0);
        assert!(!report.cancelled);
    }

    #[test]
    fn streaming_cancel_releases_upstream_feeder() {
        let feed = SharedCounterQueue::new(32);
        let cancel = CancelToken::new();
        let report = std::thread::scope(|s| {
            s.spawn(|| {
                // The feeder never finishes on its own; only the
                // pipeline's cancel-close can release the pop below.
                for i in 0..4usize {
                    feed.push(i);
                }
            });
            run_coprocessed_streaming(
                &feed,
                &[cpu(1)],
                &cancel,
                |t| (t, t),
                |_, idx, v| {
                    if idx == 1 {
                        cancel.cancel();
                    }
                    (v, 1u64)
                },
                |_, _| {},
            )
        });
        assert!(report.cancelled);
        assert!(feed.is_closed(), "cancel must close the upstream feed");
    }

    #[test]
    fn streaming_panicking_process_propagates() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let feed = SharedCounterQueue::new(16);
            let cancel = CancelToken::new();
            for i in 0..16usize {
                feed.push(i);
            }
            feed.finish();
            run_coprocessed_streaming(
                &feed,
                &[cpu(1)],
                &cancel,
                |t| (t, t),
                |_, idx, v: usize| {
                    if idx == 3 {
                        panic!("injected streaming compute panic");
                    }
                    (v, 1u64)
                },
                |_, _| {},
            )
        }));
        assert!(result.is_err(), "panic must propagate, not deadlock");
    }

    fn fed(n: usize) -> SharedCounterQueue<usize> {
        let feed = SharedCounterQueue::new(n);
        for i in 0..n {
            feed.push(i);
        }
        feed.finish();
        feed
    }

    fn tuner(policy: crate::autotune::SplitPolicy) -> crate::autotune::SplitTuner {
        crate::autotune::SplitTuner::new(policy, 1, None)
    }

    #[test]
    fn steered_static_split_pins_partitions_to_classes() {
        use crate::autotune::SplitPolicy;
        for (frac, want_gpu) in [(0.0, 0usize), (1.0, 40), (0.5, 20)] {
            let feed = fed(40);
            let cancel = CancelToken::new();
            let t = tuner(SplitPolicy::Static(frac));
            let report = run_coprocessed_streaming_steered(
                &feed,
                &[cpu(1), slow_gpu(0)],
                &cancel,
                &t,
                |i| (i, i),
                |_, _, v| {
                    std::thread::sleep(Duration::from_micros(100));
                    (v, 1u64)
                },
                |_, _| {},
            );
            assert_eq!(report.partitions, 40, "frac {frac}");
            assert_eq!(report.shares[1].partitions, want_gpu, "frac {frac}");
            assert_eq!(report.shares[0].partitions, 40 - want_gpu, "frac {frac}");
        }
    }

    #[test]
    fn steered_results_match_unsteered() {
        use crate::autotune::SplitPolicy;
        let feed = fed(30);
        let cancel = CancelToken::new();
        let t = tuner(SplitPolicy::Auto);
        let seen = Mutex::new(Vec::new());
        let report = run_coprocessed_streaming_steered(
            &feed,
            &[cpu(2), slow_gpu(0)],
            &cancel,
            &t,
            |i| (i, i * 10),
            |_, _, v| (v + 1, 1u64),
            |idx, out| seen.lock().push((idx, out)),
        );
        let mut got = seen.into_inner();
        got.sort();
        assert_eq!(got, (0..30).map(|i| (i, i * 10 + 1)).collect::<Vec<_>>());
        assert_eq!(report.partitions, 30);
        assert!(!report.cancelled);
    }

    #[test]
    fn steered_gpuless_roster_ignores_a_gpu_hungry_policy() {
        use crate::autotune::SplitPolicy;
        let feed = fed(12);
        let cancel = CancelToken::new();
        let t = tuner(SplitPolicy::Static(1.0));
        let report = run_coprocessed_streaming_steered(
            &feed,
            &[cpu(1)],
            &cancel,
            &t,
            |i| (i, i),
            |_, _, v| (v, 1u64),
            |_, _| {},
        );
        assert_eq!(report.partitions, 12);
        assert_eq!(report.shares[0].partitions, 12, "roster clamp routes all to CPU");
    }

    #[test]
    fn steered_cpu_less_roster_routes_everything_to_gpu() {
        use crate::autotune::SplitPolicy;
        let feed = fed(8);
        let cancel = CancelToken::new();
        let t = tuner(SplitPolicy::CpuOnly);
        let report = run_coprocessed_streaming_steered(
            &feed,
            &[slow_gpu(0)],
            &cancel,
            &t,
            |i| (i, i),
            |_, _, v| (v, 1u64),
            |_, _| {},
        );
        assert_eq!(report.partitions, 8);
        assert_eq!(report.shares[0].partitions, 8, "roster clamp beats the cpu policy");
    }

    #[test]
    fn steered_cancel_releases_upstream_feeder() {
        use crate::autotune::SplitPolicy;
        let feed = SharedCounterQueue::new(32);
        let cancel = CancelToken::new();
        let t = tuner(SplitPolicy::Auto);
        let report = std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..4usize {
                    feed.push(i);
                }
            });
            run_coprocessed_streaming_steered(
                &feed,
                &[cpu(1), slow_gpu(0)],
                &cancel,
                &t,
                |i| (i, i),
                |_, idx, v| {
                    if idx == 1 {
                        cancel.cancel();
                    }
                    (v, 1u64)
                },
                |_, _| {},
            )
        });
        assert!(report.cancelled);
        assert!(feed.is_closed(), "cancel must close the upstream feed");
    }

    #[test]
    fn steered_panicking_process_propagates() {
        use crate::autotune::SplitPolicy;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let feed = fed(16);
            let cancel = CancelToken::new();
            let t = tuner(SplitPolicy::Static(0.5));
            run_coprocessed_streaming_steered(
                &feed,
                &[cpu(1), slow_gpu(0)],
                &cancel,
                &t,
                |i| (i, i),
                |_, idx, v: usize| {
                    if idx == 3 {
                        panic!("injected steered compute panic");
                    }
                    (v, 1u64)
                },
                |_, _| {},
            )
        }));
        assert!(result.is_err(), "panic must propagate, not deadlock");
    }

    #[test]
    fn steered_policy_hears_io_and_compute() {
        use crate::autotune::SplitPolicy;
        let feed = fed(10);
        let cancel = CancelToken::new();
        let t = tuner(SplitPolicy::Static(0.5));
        run_coprocessed_streaming_steered(
            &feed,
            &[cpu(1), slow_gpu(0)],
            &cancel,
            &t,
            |i| {
                std::thread::sleep(Duration::from_micros(200));
                (i, i)
            },
            |_, _, v| (v, 1u64),
            |_, _| {},
        );
        let c = t.components();
        assert_eq!(c.partitions, 10, "every launch observed");
        assert!(c.input > Duration::ZERO, "produce time reached the tuner");
        let snap = t.snapshot();
        assert_eq!(snap.cpu_assigned + snap.gpu_assigned, 10);
    }

    #[test]
    fn panicking_consume_propagates_and_drains_workers() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_coprocessed(
                16,
                &[cpu(1)],
                |i| {
                    std::thread::sleep(Duration::from_micros(100));
                    i
                },
                |_, _, v: usize| (v, 1u64),
                |_, _| panic!("injected output panic"),
            )
        }));
        assert!(result.is_err(), "consume panic must propagate");
    }

    /// Counts partitions between the input stage's `produce` and the
    /// output stage's `consume`, keeping the high-water mark.
    #[derive(Default)]
    struct Outstanding {
        now: std::sync::atomic::AtomicUsize,
        max: std::sync::atomic::AtomicUsize,
    }

    impl Outstanding {
        fn enter(&self) {
            use std::sync::atomic::Ordering::SeqCst;
            let now = self.now.fetch_add(1, SeqCst) + 1;
            self.max.fetch_max(now, SeqCst);
        }

        fn leave(&self) {
            self.now.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
        }

        fn max(&self) -> usize {
            self.max.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    #[test]
    fn read_ahead_stays_within_the_device_bound() {
        // Instant input against slow compute and output: unbounded, the
        // input stage would read all 40 partitions at once.
        for devices in [vec![cpu(1)], vec![cpu(1), cpu(2)]] {
            let bound = read_ahead_bound(devices.len());
            let outstanding = Outstanding::default();
            let report = run_coprocessed_with(
                40,
                &devices,
                &CancelToken::new(),
                |i| {
                    outstanding.enter();
                    i
                },
                |_, _, v| {
                    std::thread::sleep(Duration::from_micros(300));
                    (v, 1u64)
                },
                |_, _| {
                    std::thread::sleep(Duration::from_micros(300));
                    outstanding.leave();
                },
            );
            assert_eq!(report.total_work(), 40);
            assert!(outstanding.max() <= bound, "{} in flight > {bound}", outstanding.max());
            assert!(outstanding.max() >= 2, "the input stage still reads ahead");
        }

        use crate::autotune::SplitPolicy;
        let outstanding = Outstanding::default();
        let report = run_coprocessed_streaming_steered(
            &fed(40),
            &[cpu(1), slow_gpu(0)],
            &CancelToken::new(),
            &tuner(SplitPolicy::Static(0.5)),
            |i| {
                outstanding.enter();
                (i, i)
            },
            |_, _, v| {
                std::thread::sleep(Duration::from_micros(300));
                (v, 1u64)
            },
            |_, _| {
                std::thread::sleep(Duration::from_micros(300));
                outstanding.leave();
            },
        );
        assert_eq!(report.partitions, 40);
        assert!(outstanding.max() <= read_ahead_bound(2), "{} in flight", outstanding.max());
    }

    #[test]
    fn cancel_wakes_an_input_stage_waiting_on_read_ahead() {
        // The output stage stalls on its first partition, so the input
        // stage fills the bound and blocks; cancelling from the output
        // stage must release it (the test hangs otherwise).
        let cancel = CancelToken::new();
        let produced = std::sync::atomic::AtomicUsize::new(0);
        let report = run_coprocessed_with(
            64,
            &[cpu(1)],
            &cancel,
            |i| {
                produced.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                i
            },
            |_, _, v| (v, 1u64),
            |_, _| {
                std::thread::sleep(Duration::from_millis(50));
                cancel.cancel();
            },
        );
        assert!(report.cancelled);
        // The bound, plus one for the credit the consumed partition
        // returned before the cancel.
        let produced = produced.into_inner();
        assert!(produced <= read_ahead_bound(1) + 1, "read {produced} partitions ahead");
    }
}
