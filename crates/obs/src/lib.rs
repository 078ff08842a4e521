//! `achilles-obs` — the one telemetry layer for the whole pipeline.
//!
//! Two independent facilities share this crate:
//!
//! * **Metrics** ([`MetricsRegistry`]): named counter / gauge / histogram
//!   series with Prometheus-style text rendering. Every series is classified
//!   at the recording site as [`Class::Deterministic`] (bit-identical across
//!   worker counts and tracing on vs off — schedule- and clock-independent
//!   by construction; between fork and cold boot, all but the two series
//!   counting the work the fork-server exists to cut) or [`Class::Wall`]
//!   (anything touched by wall clocks, thread scheduling, batch affinity,
//!   or solver cache state). `render()` keeps
//!   the two strictly segregated so determinism gates can diff the
//!   deterministic section byte-for-byte while the wall section varies
//!   freely.
//!
//! * **Tracing** ([`span`], [`write_chrome_trace`]): scoped spans recorded
//!   into thread-local buffers (no locks on the hot path) and drained to a
//!   process-wide sink at worker merge points, exported as Chrome-trace /
//!   Perfetto JSON. Tracing is **off by default** and observation-only:
//!   when disabled a span is one relaxed atomic load; when enabled it
//!   writes only to obs-owned buffers that no pipeline decision ever reads
//!   back, so enabling it cannot move a single discovery, classification,
//!   or witness (pinned by the observer-effect guard in
//!   `tests/parallel_determinism.rs`).
//!
//! The per-subsystem stats structs (`ExploreStats`, `SolverStats`,
//! `ForkStats`, ...) are the only accumulators. Each counter reaches the
//! registry once, folded by the struct that owns it at a boundary that is
//! already coarse: a solver folds the work it has not folded yet when it
//! is dropped (and a discovery run folds its engine's solver when it
//! ends), a discovery run folds its exploration, Trojan-search and
//! shared-cache totals, and a replay folds its fork-server's stats. No hot
//! path — no exploration, no query, no replayed delivery — writes to the
//! registry, so the registry is a sum of the structs, never a second
//! source of truth.

mod metrics;
mod trace;

pub use metrics::{render_sections, Class, HistogramSnapshot, MetricsRegistry};
pub use trace::{
    chrome_trace_json, clear_trace, drain_thread, instant, set_tracing, span, span_owned, timed,
    tracing_enabled, write_chrome_trace, Span, TimedSpan, TraceEvent,
};

/// The process-wide registry: discovery / solver / fork / sweep subsystems
/// record here. Services that need isolation (fleetd runs several instances
/// per test process) own their own [`MetricsRegistry`] and merge this one in
/// when rendering.
pub fn global() -> &'static MetricsRegistry {
    metrics::global()
}
