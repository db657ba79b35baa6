//! Co-processing and pipelining — §III-E and §IV of the paper.
//!
//! Both ParaHash steps process a stream of partitions through three
//! stages: *input* (disk → memory + parse), *compute* (an idle CPU or GPU
//! consumes one partition and produces one output partition) and *output*
//! (format + memory → disk). This crate provides:
//!
//! * [`SharedCounterQueue`] — the paper's input/output queues built on
//!   shared counters (`srv`/`cns` for the input side, `prd`/`wrt` for the
//!   output side): producers reserve a position with a fetch-add and
//!   publish with a per-slot ready flag; consumers claim queuing ids with
//!   a fetch-add on the head counter.
//! * [`run_coprocessed`] — the work-stealing pipeline: one thread feeds
//!   partitions in, one driver thread per [`hetsim::Device`] repeatedly
//!   claims the next available partition (so faster processors simply
//!   claim more — the dynamic distribution of Fig 11), one thread drains
//!   outputs. Input, every device, and output all overlap. The input
//!   stage reads at most [`read_ahead_bound`] partitions ahead of the
//!   output stage, so host memory holds a few partitions per device, not
//!   the whole input. The Fig 12 harness sums one such pipelined run's
//!   own per-stage times and sets them against its elapsed time.
//! * [`run_sequential`] — a non-pipelined reference (input all, compute
//!   all, output all) that the scheduler's tests compare the pipelined
//!   run against; no figure uses it.
//! * [`ThrottledIo`] — a token-metered byte channel that realises the
//!   paper's two regimes on any machine: unthrottled ≈ the memory-cached
//!   file of Case 1, a bandwidth cap ≈ the disk-bound Case 2.
//! * [`perfmodel`] — Eq. 1 and Eq. 2 estimators used by Fig 13 / Fig 14.
//! * [`autotune`] + [`run_coprocessed_streaming_steered`] — the §IV model
//!   executed *online*: rolling `T_cpu`/`T_gpu`/`T_io` measurements steer
//!   the CPU/GPU partition split toward the Eq. 2 optimum while the
//!   stream is running, with `static:<frac>` / `cpu` escape hatches.
//! * [`CancelToken`] + [`run_coprocessed_with`] — the fail-fast layer: the
//!   first fatal error (or a stage panic, via drop guards) closes both
//!   queues and drains all workers promptly instead of grinding through
//!   the remaining partitions.
//! * [`RetryPolicy`] — bounded retry with exponential backoff for
//!   transient I/O inside [`ThrottledIo`], with a fault-injection hook for
//!   the failure-injection test suite.
//! * [`commit`] — the atomic artifact commit protocol (tmp + fsync +
//!   rename + dir fsync) shared by every durable file the pipeline writes.
//! * [`failpoint`] — deterministic named crash/fault injection sites used
//!   by the crash-recovery suite (see `docs/RECOVERY.md`).

pub mod autotune;
mod cancel;
pub mod commit;
pub mod failpoint;
mod io;
pub mod perfmodel;
mod queue;
mod scheduler;
pub mod shard;

pub use autotune::{SplitPolicy, SplitTuner, Steering, TunerSnapshot, TunerWarmStart};
pub use cancel::CancelToken;
pub use io::{IoMode, IoOp, RetryPolicy, ThrottledIo};
pub use queue::SharedCounterQueue;
pub use scheduler::{
    read_ahead_bound, run_coprocessed, run_coprocessed_streaming,
    run_coprocessed_streaming_steered, run_coprocessed_with, run_sequential, DeviceShare,
    PipelineReport, Span, Stage,
};
