//! achilles-fleetd — a long-running campaign service over the Achilles
//! sweep pipeline.
//!
//! The batch tools (`session_replay`, `sweep_campaign`) run one corpus to
//! completion and exit; fleetd inverts that shape for fleets that *keep
//! producing* witnesses: a resident service that ingests witness records
//! as they stream in, keeps per-target sensitivity matrices continuously
//! up to date, and answers queries from a durable results store. Three
//! properties anchor the design:
//!
//! - **Bit-identical answers.** The service runs the exact batch sweep
//!   body ([`achilles_sweep::sweep_witness_on`]) over the exact batch
//!   cache keys — a matrix queried from fleetd equals the matrix
//!   `sweep_campaign` prints for the same corpus, byte for byte
//!   (`sweep_campaign --serve-compat` asserts this).
//! - **Incrementality.** Work is keyed by sweep-cache cells: re-ingesting
//!   a known corpus replays nothing, ingesting one new witness replays
//!   exactly that witness's cells, and an `EPOCH` bump re-derives exactly
//!   the bumped target's scopes.
//! - **Bounded debt.** The work queue counts *cells*, not items, and
//!   ingest past the bound answers `BUSY` instead of queuing unboundedly.
//!
//! Embed the service in-process via [`Fleetd::start`] +
//! [`Fleetd::handle_line`], or run the `achilles-fleetd` binary for the
//! localhost-TCP / unix-socket transports (same lines either way — each
//! connection runs [`serve_stream`], bounded lines over `handle_line`).

pub mod protocol;
pub mod queue;
pub mod service;
pub mod store;
mod transport;

pub use protocol::{parse_request, Reply, Request, MAX_LINE_BYTES};
pub use queue::{WorkItem, WorkQueue};
pub use service::{Fleetd, FleetdConfig, ServiceStats};
pub use store::{SessionShard, StoredWitness, TargetShard, WitnessResult, WitnessStore};
pub use transport::serve_stream;
