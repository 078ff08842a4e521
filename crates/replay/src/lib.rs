//! # achilles-replay — concrete witness replay, minimization, and crash triage
//!
//! The symbolic pipeline ends with Trojan *candidates*: messages a solver
//! model says the server accepts and no correct client generates. This
//! crate closes the loop the paper closed by hand — injecting each
//! candidate into a real deployment and watching what breaks:
//!
//! 1. **Concretize** ([`witness`]): report → per-slot wire bytes, through
//!    the same [`achilles_netsim::bytes`] codec the deployments parse with.
//! 2. **Inject** ([`target`]): boot a fresh concrete deployment — produced
//!    by the protocol's
//!    [`TargetSpec::session_replay_target`](achilles::TargetSpec::session_replay_target)
//!    factory — and fire the witness, optionally under a per-delivery
//!    [`FaultSchedule`] (drop, duplicate, benign interleaving, single
//!    bit-flip at any slot).
//! 3. **Triage** ([`signature`]): fold the outcome into a structural,
//!    slot-aware [`CrashSignature`] so two witnesses of one bug count once.
//! 4. **Minimize** ([`minimize`]): ddmin the witness down to the
//!    `(slot, field)` pairs that actually matter.
//! 5. **Persist** ([`corpus`]): remember confirmed Trojans across runs so
//!    re-analysis skips known bytes and flags genuinely new bug classes.
//!
//! **One path.** A single message is the one-slot case of a session:
//! [`SessionWitness`] carries one wire buffer per slot, [`replay_session`]
//! drives the whole sequence through [`ReplayTarget::inject`], and every
//! stage above is the same code for one slot or many. The sweep
//! fork-server ([`ForkServer`]) boots its deployment once and replays
//! every witness's schedules as a delivery-prefix trie over clones of
//! that boot; sweeps run one server per worker, fanned out over
//! witnesses, and [`ForkServer::cold`] is the one-boot-per-cell
//! reference.
//!
//! [`validate_trojans`] drives 1–5 as the pipeline's opt-in `validate`
//! phase, fanning out over [`achilles_symvm::parallel_map`] workers with
//! bit-identical results for every worker count; [`validate_spec`] /
//! [`validate_spec_sessions`] are the registry-driven forms that take any
//! `TargetSpec` (over an
//! [`AchillesSession::run`](achilles::AchillesSession::run) or
//! [`run_sessions`](achilles::AchillesSession::run_sessions) report). This
//! crate knows **no protocol by name**: the concrete deployments live with
//! their protocols (`achilles_fsp::FspTarget`, `achilles_pbft::PbftTarget`,
//! `achilles_paxos::PaxosTarget`, …) and reach the harness only through
//! the trait.
//!
//! ```
//! use achilles_fsp::{Command, FspMessage, FspServerConfig, FspTarget};
//! use achilles_replay::{replay_session, FaultSchedule, ReplayVerdict, SessionWitness};
//!
//! // A length-mismatch Trojan: reported path length 3, real length 1.
//! let mut msg = FspMessage::request(Command::Stat, b"a");
//! msg.bb_len = 3;
//! msg.buf = [b'a', 0, 0x77, 0];
//!
//! let target = FspTarget::new(FspServerConfig::default(), false);
//! let witness = SessionWitness {
//!     index: 0,
//!     server_path_id: 0,
//!     fields: vec![msg.field_values()],
//!     wire: vec![msg.to_wire()],
//! };
//! let result = replay_session(&target, &witness, &FaultSchedule::none());
//! assert_eq!(result.verdict, ReplayVerdict::ConfirmedTrojan);
//! assert_eq!(result.trojan_slots, vec![0]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod corpus;
pub mod fork;
pub mod minimize;
pub mod signature;
pub mod target;
pub mod validate;
pub mod witness;

pub use corpus::{CorpusEntry, CorpusParseError, ReplayCorpus};
pub use fork::{ForkServer, ForkStats};
pub use minimize::{minimize_session, minimize_session_divergence, MinimizedSessionWitness};
pub use signature::CrashSignature;
pub use target::{
    classify_session, plan_session, replay_session, Delivery, DeliveryFault, FaultSchedule,
    InjectionOutcome, ReplayTarget, ReplayVerdict, SessionPlan, SessionReplayResult,
};
pub use validate::{
    validate_spec, validate_spec_sessions, validate_trojans, ValidateConfig, ValidationSummary,
};
pub use witness::{session_from_report, SessionWitness};
