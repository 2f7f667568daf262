#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # tcf-obs — unified observability layer
//!
//! The simulator stack's measurement substrate, kept *below* the machine
//! crates so every layer (network, memory, timing pipeline, runtimes,
//! experiment harness) can record into one shared vocabulary:
//!
//! * [`Trace`] — per-cycle, per-slot issue records ([`TraceEvent`]) with an
//!   optional bounded ring-buffer mode, ASCII Gantt rendering and CSV
//!   export. This is the paper's "single processor view" (Figures 6–13).
//! * [`FlowEvent`] / [`TimedEvent`] — flow-lifecycle events (spawn, split,
//!   join, PRAM↔NUMA mode switches, thickness changes, TCF-buffer reloads,
//!   waits) emitted by the runtimes through an [`ObsSink`].
//! * [`ObsSink`] — the emission point: a concrete struct whose
//!   [`emit`](ObsSink::emit) compiles to a branch on one bool when
//!   disabled, so instrumentation costs nothing in benchmark runs.
//! * [`stream`] — cursor-based incremental drains over the sinks
//!   (monotonic sequence numbers, drop-aware resume) and the
//!   `tcf-obs-stream/v2` NDJSON wire format for live subscribers
//!   (`repro --stream`, `tdbg top`).
//! * [`LatencyHistogram`] — fixed log2-bucket, allocation-free histograms
//!   for shared-memory round trips, network queueing and buffer reloads;
//!   [`LatencyRun`] batches one loop's samples into it without changing
//!   a digit.
//! * [`MetricsRegistry`] — named, typed series unifying the per-subsystem
//!   counter structs, with per-step snapshots and event-stream replay.
//! * [`chrome`] / [`json`] — exporters: Chrome `trace_event` JSON (open the
//!   file in Perfetto / `chrome://tracing`) and a stable-schema metrics
//!   dump.
//!
//! The crate is dependency-free (standard library only) by design: it sits
//! at the bottom of the workspace graph, and `tcf-machine` re-exports the
//! trace types so existing callers are unaffected.

pub mod chrome;
pub mod event;
pub mod gantt;
pub mod hist;
pub mod json;
pub mod registry;
pub mod ring;
pub mod sink;
pub mod stream;
pub mod trace;

pub use event::{FlowEvent, Mode, TimedEvent};
pub use hist::{LatencyHistogram, LatencyRun};
pub use registry::{MetricValue, MetricsRegistry, StepSnapshot};
pub use ring::{Drained, RingBuffer};
pub use sink::ObsSink;
pub use stream::{StreamCursor, StreamReassembly, STREAM_SCHEMA};
pub use trace::{FlowTag, Trace, TraceEvent, UnitKind};
