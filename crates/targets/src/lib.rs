//! # achilles-targets — the built-in target registry
//!
//! The single place where every protocol the repository ships is
//! registered. Drivers (bench bins, the conformance suite, examples) call
//! [`builtin_registry`] and select targets by name — they contain no
//! per-protocol match arms, so onboarding a protocol means writing one
//! crate that implements [`TargetSpec`](achilles::TargetSpec) and adding
//! **one `register` call below**.
//!
//! ```
//! use achilles::AchillesSession;
//! use achilles_targets::builtin_registry;
//!
//! let registry = builtin_registry();
//! assert_eq!(
//!     registry.names(),
//!     vec!["fsp", "pbft", "paxos", "twopc", "gossip", "shardexec"]
//! );
//! let spec = registry.get("twopc").expect("registered below");
//! let report = AchillesSession::new(&**spec).run();
//! assert_eq!(Some(report.trojans.len()), spec.message().expected_trojans);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::sync::Arc;

use achilles::{TargetRegistry, TargetSpec};

/// Builds the registry of every shipped protocol, each under its default
/// (paper) configuration, in onboarding order.
pub fn builtin_registry() -> TargetRegistry {
    let mut registry = TargetRegistry::new();
    registry.register(Arc::new(achilles_fsp::FspSpec::accuracy()));
    registry.register(Arc::new(achilles_pbft::PbftSpec::paper()));
    registry.register(Arc::new(achilles_paxos::PaxosSpec::default()));
    registry.register(Arc::new(achilles_twopc::TwopcSpec::default()));
    registry.register(Arc::new(achilles_gossip::GossipSpec::default()));
    registry.register(Arc::new(achilles_shardexec::ShardexecSpec::default()));
    registry
}

/// The registry's session-bearing specs, in registration order — the
/// targets sweep campaigns and the fleetd service operate on (specs that
/// declare no sessions have no schedule space to sweep).
pub fn session_bearing(registry: &TargetRegistry) -> Vec<&Arc<dyn TargetSpec>> {
    registry
        .iter()
        .filter(|spec| !spec.sessions().is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_holds_all_shipped_protocols() {
        let registry = builtin_registry();
        assert_eq!(
            registry.names(),
            vec!["fsp", "pbft", "paxos", "twopc", "gossip", "shardexec"]
        );
        for spec in registry.iter() {
            assert!(!spec.description().is_empty(), "{}", spec.name());
            let message = spec.message();
            assert_eq!(
                spec.session_replay_target(&message.name).name(),
                spec.name()
            );
        }
    }
}
