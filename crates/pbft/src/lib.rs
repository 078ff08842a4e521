//! # achilles-pbft — PBFT request handling under Achilles
//!
//! A bounded model of PBFT (Castro–Liskov) client-request validation with
//! the **MAC-attack vulnerability** the paper rediscovers (§6.3): the
//! primary replica forwards client requests *without verifying their
//! authenticators*, so a request with a corrupted MAC — which no correct
//! client can produce — is accepted and later forces the expensive recovery
//! protocol, letting one faulty client degrade everyone's service.
//!
//! The crate contains:
//!
//! * [`protocol`] — the request wire format (bounded per §6.1);
//! * [`client`] / [`replica`] — node programs for the symbolic analysis;
//! * [`target`] — the [`TargetSpec`](achilles::TargetSpec) an
//!   [`AchillesSession`](achilles::AchillesSession) runs to rediscover the
//!   attack, and the concrete cluster deployment witnesses replay against;
//! * [`analysis`] — the Trojan family classifier;
//! * [`mac`](mod@mac) — the toy keyed-MAC used by the concrete simulation;
//! * [`cluster`] — a deterministic 4-replica simulation quantifying the
//!   throughput collapse.
//!
//! ```
//! use achilles::AchillesSession;
//! use achilles_pbft::{classify, PbftSpec, PbftTrojanFamily};
//!
//! let report = AchillesSession::new(&PbftSpec::paper()).run();
//! assert!(!report.trojans.is_empty());
//! assert!(
//!     report.trojans.iter().all(|t| classify(t) == PbftTrojanFamily::MacAttack),
//!     "exactly the MAC attack"
//! );
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod client;
pub mod cluster;
pub mod mac;
pub mod protocol;
pub mod replica;
pub mod target;

pub use analysis::{classify, PbftTrojanFamily};
pub use client::{extract_client_predicate, PbftClient};
pub use cluster::{run_workload, ClusterConfig, ClusterStats, PbftCluster, SubmitOutcome};
pub use mac::{authenticator, digest, mac, session_key, N_CLIENTS, N_REPLICAS};
pub use protocol::{
    layout, PbftRequest, COMMAND_LEN, DIGEST_PLACEHOLDER, MAC_PLACEHOLDER, MESSAGE_SIZE,
    REQUEST_TAG,
};
pub use replica::{preprepare_layout, PbftReplica, PbftReplicaConfig};
pub use target::{PbftSpec, PbftTarget};
