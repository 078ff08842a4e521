//! # achilles-sweep — fault-schedule campaigns with arming/disarming triage
//!
//! The pipeline so far validates each session Trojan under a *single*
//! fault schedule. The interesting question for a session Trojan is *which*
//! delivery faults arm or disarm it: the 2008 S3 outage happened because
//! one specific corruption in one specific delivery position survived
//! every other scheduling accident, and arXiv:2006.06045's implicit
//! interactions are exactly "a fault at one delivery position changes the
//! exploitability of a message injected earlier". This crate makes that
//! measurable:
//!
//! 1. **Plan** ([`planner`]): a [`SchedulePlanner`] enumerates a bounded
//!    [`FaultSchedule`](achilles_replay::FaultSchedule) space per
//!    [`SessionWitness`](achilles_replay::SessionWitness) — drop /
//!    duplicate / benign-interleave / single bit-flip, per slot and wire
//!    bit — with canonical deduplication of schedules the replay
//!    semantics provably treat identically (a drop masks the same slot's
//!    other faults, out-of-range flips touch nothing).
//! 2. **Execute** ([`campaign`]): [`run_campaign`] replays every
//!    (witness, schedule) pair, fanning the witnesses out over
//!    [`achilles_symvm::parallel_map_with`] workers — replay is pure, so
//!    matrices are bit-identical for every worker count — with a
//!    persistent [`SweepCache`] that makes re-campaigns incremental. Each
//!    worker holds one replay fork-server
//!    ([`achilles_replay::ForkServer`]) for every witness it claims: the
//!    deployment boots once per worker, and schedules sharing a delivery
//!    prefix resume from a clone instead of cold-booting, with
//!    classifications pinned bit-identical to cold replay (the reference
//!    path, via [`CampaignConfig::without_fork`]).
//! 3. **Triage** ([`matrix`]): each outcome is classified
//!    [`Armed`](ScheduleClass::Armed) /
//!    [`Diverged`](ScheduleClass::Diverged) /
//!    [`Disarmed`](ScheduleClass::Disarmed) /
//!    [`Masked`](ScheduleClass::Masked) /
//!    [`NewSignature`](ScheduleClass::NewSignature) by diffing its
//!    slot-aware crash signature against the fault-free baseline, and the
//!    per-witness [`SensitivityMatrix`] serializes through the shared
//!    `achilles::export` record vocabulary. `Diverged` is the armed
//!    refinement for multi-node targets whose detonation is a *silent
//!    root split* (every node keeps running; replicas disagree) rather
//!    than a crash — keyed on the `diverge:at:` markers a
//!    [`DivergenceProbe`](achilles::DivergenceProbe) folds into the
//!    effect stream.
//!
//! Like the rest of the pipeline, the crate names **no protocol**: the
//! `sweep_campaign` bench bin drives any registered
//! [`TargetSpec`](achilles::TargetSpec), and `achilles-gossip` (whose
//! seed→sync→read session is inherently schedule-sensitive) is the
//! shipped proving ground.
//!
//! ```
//! use achilles_gossip::GossipSpec;
//! use achilles_sweep::{run_campaign, CampaignConfig, SweepCache};
//!
//! let mut cache = SweepCache::new();
//! let sweeps = run_campaign(&GossipSpec::default(), &CampaignConfig::default(), &mut cache);
//! let matrix = &sweeps[0].matrices[0];
//! assert!(matrix.armed().count() >= 1, "some fault leaves the Trojan armed");
//! assert!(matrix.disarmed().count() >= 1, "some fault defuses it");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod campaign;
pub mod matrix;
pub mod planner;

pub use cache::{CacheParseError, CachedCell, SweepCache};
pub use campaign::{
    run_campaign, sweep_report, sweep_witness, sweep_witness_on, CampaignConfig, SessionSweep,
    WitnessSweepStats,
};
pub use matrix::{
    classify, parse_schedule_token, schedule_token, Baseline, ScheduleClass, SensitivityCell,
    SensitivityMatrix,
};
pub use planner::{canonicalize, SchedulePlanner, SweepConfig};
