//! The gossip [`TargetSpec`] and concrete deployment targets.
//!
//! Everything — symbolic programs, the concrete node, replay targets,
//! spec — lives in this crate, and the protocol joins discovery,
//! validation, fault-schedule sweeps, conformance testing, and the bench
//! bins through one registry registration, with zero changes to
//! `achilles-core`, `achilles-replay`, `achilles-sweep`, or any driver.

use std::sync::Arc;

use achilles::{
    Delivery, InjectionOutcome, ReplayTarget, SessionSlot, SessionSpec, SnapshotReplayTarget,
    TargetSpec, TrojanReport,
};
use achilles_symvm::{MessageLayout, NodeProgram};

use crate::engine::{GossipConfig, GossipNode, Resolution, STATUS_TABLE_LEN};
use crate::programs::{
    IngestProgram, PeerSeedProgram, ReadClientProgram, SessionGossipProgram, SyncClientProgram,
};
use crate::protocol::{
    read_layout, seed_layout, sync_layout, GossipRequest, GossipSeed, MAX_VERSION, N_KEYS,
    READ_KIND, SEED_KIND, SYNC_KIND,
};

fn seed_generable(fields: &[u64]) -> bool {
    let [kind, key, version, status] = fields else {
        return false;
    };
    *kind == SEED_KIND
        && *key < N_KEYS
        && *version < MAX_VERSION
        && *status < u64::from(STATUS_TABLE_LEN)
}

fn request_generable(kind_expected: u64, fields: &[u64]) -> bool {
    let [kind, key] = fields else {
        return false;
    };
    *kind == kind_expected && *key < N_KEYS
}

/// Folds one accepted seed's store-level observations into effect notes.
fn seed_effects(node: &GossipNode, key: u8, outcome: &mut InjectionOutcome) {
    outcome.effects.push("seed:stored".to_string());
    if node.record_poisoned(key) {
        // The structural family marker: the store now holds a status byte
        // the table cannot resolve.
        outcome.effects.push("family:status-domain".to_string());
    }
}

/// The single-message gossip deployment target: a fresh node ingesting
/// `SEED`s; after the delivery plan, the witness's key is resolved once —
/// the read any real cluster eventually performs — so a poisoned store
/// detonates concretely within the injection.
#[derive(Clone, Copy, Debug, Default)]
pub struct GossipTarget {
    /// Node build (patch toggle must match the analyzed server).
    pub config: GossipConfig,
}

impl GossipTarget {
    /// A target over the given node build.
    pub fn new(config: GossipConfig) -> GossipTarget {
        GossipTarget { config }
    }
}

impl ReplayTarget for GossipTarget {
    fn name(&self) -> &'static str {
        "gossip"
    }

    fn slot_layouts(&self) -> Vec<Arc<MessageLayout>> {
        vec![seed_layout()]
    }

    fn slot_benign_fields(&self, _slot: usize) -> Vec<u64> {
        GossipSeed::correct(0, 0, true).field_values()
    }

    fn slot_generable(&self, _slot: usize, fields: &[u64]) -> bool {
        seed_generable(fields)
    }

    fn boot(&self) -> Box<dyn SnapshotReplayTarget + '_> {
        Box::new(GossipForkSession::boot(self.config))
    }
}

/// The booted deployment behind [`GossipTarget`]: one live node plus the
/// tracked witness key.
#[derive(Clone)]
struct GossipForkSession {
    node: GossipNode,
    witness_key: Option<u8>,
}

impl GossipForkSession {
    fn boot(config: GossipConfig) -> GossipForkSession {
        GossipForkSession {
            node: GossipNode::new(config),
            witness_key: None,
        }
    }
}

impl SnapshotReplayTarget for GossipForkSession {
    fn deliver(&mut self, delivery: &Delivery, outcome: &mut InjectionOutcome) {
        let (wire, is_witness) = delivery;
        let Ok(seed) = GossipSeed::from_wire(wire) else {
            outcome.accepted_each.push(false);
            outcome.effects.push("malformed".to_string());
            return;
        };
        if u64::from(seed.kind) != SEED_KIND {
            outcome.accepted_each.push(false);
            outcome.effects.push("ignored:not-seed".to_string());
            return;
        }
        let crashed_before = self.node.crashed();
        let accepted = self.node.on_seed(seed.key, seed.version, seed.status);
        outcome.accepted_each.push(accepted);
        if !accepted {
            outcome.effects.push(if crashed_before {
                "rejected:node-wedged".to_string()
            } else {
                "rejected:ingest".to_string()
            });
            return;
        }
        if *is_witness {
            self.witness_key = Some(seed.key);
        }
        seed_effects(&self.node, seed.key, outcome);
    }

    fn finish(&mut self, outcome: &mut InjectionOutcome) {
        if let Some(key) = self.witness_key {
            // The read a real cluster eventually performs on every record.
            match self.node.resolve(key) {
                Resolution::Miss => outcome.effects.push("resolve:miss".to_string()),
                Resolution::Status(true) => outcome.effects.push("resolve:up".to_string()),
                Resolution::Status(false) => outcome.effects.push("resolve:down".to_string()),
                Resolution::TableOverrun => {
                    self.node.on_read(key);
                    outcome.effects.push("crash:status-table-oob".to_string());
                }
            }
        }
    }
}

/// The gossip session deployment: a *fresh* node processing a `SEED`, a
/// `SYNC`, and a `READ` in one session — the stateful scenario where an
/// out-of-domain status byte is stored without incident, spread
/// cluster-wide by the anti-entropy round, and detonates only when the
/// read walks the status table two messages later.
///
/// Deliveries are parsed by their kind byte (all three wire formats share
/// the kind-first framing).
#[derive(Clone, Copy, Debug, Default)]
pub struct GossipSessionTarget {
    /// Node build (patch toggle must match the analyzed server).
    pub config: GossipConfig,
}

impl GossipSessionTarget {
    /// A session target over the given node build.
    pub fn new(config: GossipConfig) -> GossipSessionTarget {
        GossipSessionTarget { config }
    }
}

impl ReplayTarget for GossipSessionTarget {
    fn name(&self) -> &'static str {
        "gossip"
    }

    fn slot_layouts(&self) -> Vec<Arc<MessageLayout>> {
        vec![seed_layout(), sync_layout(), read_layout()]
    }

    fn slot_benign_fields(&self, slot: usize) -> Vec<u64> {
        match slot {
            // Version 0, so a benign interleaved seed never outranks (and
            // so never masks) the witness record that follows it.
            0 => GossipSeed::correct(0, 0, true).field_values(),
            1 => GossipRequest::sync(0).field_values(),
            _ => GossipRequest::read(0).field_values(),
        }
    }

    fn slot_generable(&self, slot: usize, fields: &[u64]) -> bool {
        match slot {
            0 => seed_generable(fields),
            1 => request_generable(SYNC_KIND, fields),
            _ => request_generable(READ_KIND, fields),
        }
    }

    fn boot(&self) -> Box<dyn SnapshotReplayTarget + '_> {
        Box::new(GossipSessionForkSession::boot(self.config))
    }
}

/// The incremental deployment behind [`GossipSessionTarget`]: one live
/// node dispatching on the kind byte. No end-of-plan step — the session's
/// read slot is the detonation point.
#[derive(Clone)]
struct GossipSessionForkSession {
    node: GossipNode,
}

impl GossipSessionForkSession {
    fn boot(config: GossipConfig) -> GossipSessionForkSession {
        GossipSessionForkSession {
            node: GossipNode::new(config),
        }
    }
}

impl SnapshotReplayTarget for GossipSessionForkSession {
    fn deliver(&mut self, delivery: &Delivery, outcome: &mut InjectionOutcome) {
        let (wire, _) = delivery;
        let node = &mut self.node;
        let crashed_before = node.crashed();
        match wire.first().map(|&k| u64::from(k)) {
            Some(SEED_KIND) => {
                let Ok(seed) = GossipSeed::from_wire(wire) else {
                    outcome.accepted_each.push(false);
                    outcome.effects.push("malformed".to_string());
                    return;
                };
                let accepted = node.on_seed(seed.key, seed.version, seed.status);
                outcome.accepted_each.push(accepted);
                if !accepted {
                    outcome.effects.push(if crashed_before {
                        "rejected:node-wedged".to_string()
                    } else {
                        "rejected:ingest".to_string()
                    });
                    return;
                }
                seed_effects(node, seed.key, outcome);
            }
            Some(SYNC_KIND) => {
                let Ok(sync) = GossipRequest::from_wire(wire) else {
                    outcome.accepted_each.push(false);
                    outcome.effects.push("malformed".to_string());
                    return;
                };
                let accepted = node.on_sync(sync.key);
                outcome.accepted_each.push(accepted);
                if !accepted {
                    outcome.effects.push(if crashed_before {
                        "rejected:node-wedged".to_string()
                    } else {
                        "rejected:sync".to_string()
                    });
                    return;
                }
                if node.propagated(sync.key) {
                    // The anti-entropy round forwards the record —
                    // corruption included — to every peer.
                    outcome.effects.push("gossip:propagated".to_string());
                    if node.record_poisoned(sync.key) {
                        outcome.effects.push("gossip:poison-spread".to_string());
                    }
                } else {
                    outcome.effects.push("sync:miss".to_string());
                }
            }
            Some(READ_KIND) => {
                let Ok(read) = GossipRequest::from_wire(wire) else {
                    outcome.accepted_each.push(false);
                    outcome.effects.push("malformed".to_string());
                    return;
                };
                let accepted = node.on_read(read.key);
                outcome.accepted_each.push(accepted);
                if !accepted {
                    outcome.effects.push(if crashed_before {
                        "rejected:node-wedged".to_string()
                    } else {
                        "rejected:read".to_string()
                    });
                    return;
                }
                if node.crashed() && !crashed_before {
                    // The implicit interaction: the crash was armed by
                    // a seed accepted two messages earlier.
                    outcome.effects.push("crash:status-table-oob".to_string());
                } else {
                    match node.resolve(read.key) {
                        Resolution::Miss => outcome.effects.push("read:miss".to_string()),
                        Resolution::Status(true) => {
                            outcome.effects.push("read:up".to_string());
                        }
                        Resolution::Status(false) => {
                            outcome.effects.push("read:down".to_string());
                        }
                        Resolution::TableOverrun => unreachable!("overrun crashes the node"),
                    }
                }
            }
            _ => {
                outcome.accepted_each.push(false);
                outcome.effects.push("ignored:unknown-kind".to_string());
            }
        }
    }
}

/// The gossip/anti-entropy protocol as a [`TargetSpec`].
#[derive(Clone, Copy, Debug, Default)]
pub struct GossipSpec {
    /// The node build under analysis (and replay).
    pub config: GossipConfig,
}

impl GossipSpec {
    /// A spec over the given node build.
    pub fn new(config: GossipConfig) -> GossipSpec {
        GossipSpec { config }
    }

    /// The patched build (status domain validated at ingest): expects zero
    /// Trojans.
    pub fn patched() -> GossipSpec {
        GossipSpec::new(GossipConfig {
            validate_status_domain: true,
        })
    }
}

/// The single message's name: one peer's seed.
const SEED: &str = "seed";
/// The declared session's name.
const SEED_SYNC_READ: &str = "seed-sync-read";

impl TargetSpec for GossipSpec {
    fn name(&self) -> &'static str {
        "gossip"
    }

    fn description(&self) -> &'static str {
        "gossip/anti-entropy store: unvalidated status byte spreads cluster-wide, crashes at read"
    }

    fn clients(&self) -> Vec<Box<dyn NodeProgram + Sync + '_>> {
        vec![
            Box::new(PeerSeedProgram),
            Box::new(SyncClientProgram),
            Box::new(ReadClientProgram),
        ]
    }

    fn message(&self) -> SessionSpec {
        // One accepting ingest path; the patched build closes it.
        let expected = if self.config.validate_status_domain {
            0
        } else {
            1
        };
        SessionSpec::new(SEED, vec![SessionSlot::new(SEED, seed_layout(), vec![0])])
            .expecting(expected)
    }

    fn sessions(&self) -> Vec<SessionSpec> {
        vec![SessionSpec::new(
            SEED_SYNC_READ,
            vec![
                SessionSlot::new("seed", seed_layout(), vec![0]),
                SessionSlot::new("sync", sync_layout(), vec![1]),
                SessionSlot::new("read", read_layout(), vec![2]),
            ],
        )
        // One accepting session path; only the seed slot hosts a window,
        // and the patched build closes it.
        .expecting(if self.config.validate_status_domain {
            0
        } else {
            1
        })]
    }

    fn session_server(&self, session: &str) -> Box<dyn NodeProgram + Sync + '_> {
        let config = self.config;
        if session == SEED_SYNC_READ {
            Box::new(SessionGossipProgram { config })
        } else {
            Box::new(IngestProgram { config })
        }
    }

    fn session_replay_target(&self, session: &str) -> Box<dyn ReplayTarget> {
        if session == SEED_SYNC_READ {
            Box::new(GossipSessionTarget::new(self.config))
        } else {
            Box::new(GossipTarget::new(self.config))
        }
    }

    fn classify(&self, report: &TrojanReport) -> String {
        let seed = GossipSeed::from_field_values(&report.witness_fields);
        if seed.status >= STATUS_TABLE_LEN {
            "status-domain".to_string()
        } else {
            "other".to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use achilles::AchillesSession;

    #[test]
    fn session_discovers_the_status_domain_trojan() {
        let spec = GossipSpec::default();
        let report = AchillesSession::new(&spec).run();
        assert_eq!(Some(report.trojans.len()), spec.message().expected_trojans);
        let t = &report.trojans[0];
        assert!(t.verified, "witness re-verified against the peer library");
        let seed = GossipSeed::from_field_values(&t.witness_fields);
        assert_eq!(u64::from(seed.kind), SEED_KIND);
        assert!(u64::from(seed.key) < N_KEYS);
        assert!(u64::from(seed.version) < MAX_VERSION);
        assert!(
            seed.status >= STATUS_TABLE_LEN,
            "the only un-generable accepted field is an out-of-domain status: {seed:?}"
        );
        assert_eq!(spec.classify(t), "status-domain");
    }

    #[test]
    fn patched_build_is_trojan_free() {
        let spec = GossipSpec::patched();
        let report = AchillesSession::new(&spec).run();
        assert_eq!(report.trojans.len(), 0, "the domain check closes the bug");
        let sessions = AchillesSession::new(&spec).run_sessions();
        assert_eq!(sessions[0].trojans.len(), 0);
    }

    #[test]
    fn declared_session_finds_the_three_slot_trojan_with_slot_attribution() {
        let spec = GossipSpec::default();
        let mut session = AchillesSession::new(&spec);
        let reports = session.run_sessions();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.session, "seed-sync-read");
        assert_eq!(r.slot_names, vec!["seed", "sync", "read"]);
        assert_eq!(Some(r.trojans.len()), r.expected_trojans);
        assert_eq!(
            r.trojan_slots[0],
            vec![0],
            "only the seed slot hosts the Trojan"
        );
        let parts = r.split_fields(&r.trojans[0].witness_fields);
        let seed = GossipSeed::from_field_values(&parts[0]);
        let sync = GossipRequest::from_field_values(&parts[1]);
        let read = GossipRequest::from_field_values(&parts[2]);
        assert!(seed.status >= STATUS_TABLE_LEN, "forged status byte");
        assert_eq!(sync.key, seed.key, "the sync spreads the poisoned key");
        assert_eq!(read.key, seed.key, "the read resolves the poisoned key");
    }

    #[test]
    fn session_poison_detonates_at_read_time() {
        // The implicit interaction, concretely: the poisoned seed is
        // accepted without incident, the sync spreads it cluster-wide, and
        // the node only crashes when the read walks the status table.
        let target = GossipSessionTarget::default();
        let seed = GossipSeed {
            kind: SEED_KIND as u8,
            key: 2,
            version: 3,
            status: 0x77,
        };
        let outcome = target.inject(&[
            (seed.to_wire(), true),
            (GossipRequest::sync(2).to_wire(), true),
            (GossipRequest::read(2).to_wire(), true),
        ]);
        assert_eq!(outcome.accepted_each, vec![true, true, true]);
        assert!(outcome
            .effects
            .contains(&"gossip:poison-spread".to_string()));
        assert!(outcome
            .effects
            .contains(&"crash:status-table-oob".to_string()));
        assert!(!target.slot_generable(0, &seed.field_values()));
        assert!(target.slot_generable(1, &GossipRequest::sync(2).field_values()));
        assert!(target.slot_generable(2, &GossipRequest::read(2).field_values()));

        // A fully benign session resolves cleanly.
        let benign = GossipSeed::correct(2, 3, true);
        let outcome = target.inject(&[
            (benign.to_wire(), true),
            (GossipRequest::sync(2).to_wire(), true),
            (GossipRequest::read(2).to_wire(), true),
        ]);
        assert_eq!(outcome.accepted_each, vec![true, true, true]);
        assert!(!outcome.effects.iter().any(|e| e.starts_with("crash:")));
        assert!(outcome.effects.contains(&"read:up".to_string()));
    }

    #[test]
    fn single_message_target_confirms_and_crashes_on_the_witness() {
        let target = GossipTarget::default();
        let trojan = GossipSeed {
            kind: SEED_KIND as u8,
            key: 1,
            version: 2,
            status: 0x40,
        };
        let outcome = target.inject(&[(trojan.to_wire(), true)]);
        assert_eq!(outcome.accepted_each, vec![true]);
        assert!(outcome
            .effects
            .contains(&"crash:status-table-oob".to_string()));
        assert!(outcome
            .effects
            .contains(&"family:status-domain".to_string()));
        assert!(!target.slot_generable(0, &trojan.field_values()));

        // A benign seed resolves cleanly.
        let benign = GossipSeed::correct(1, 2, false);
        let outcome = target.inject(&[(benign.to_wire(), true)]);
        assert_eq!(outcome.accepted_each, vec![true]);
        assert!(outcome.effects.contains(&"resolve:down".to_string()));
        assert!(target.slot_generable(0, &benign.field_values()));
    }

    #[test]
    fn discovery_is_worker_count_invariant() {
        let spec = GossipSpec::default();
        let seq = AchillesSession::new(&spec).run();
        let par = AchillesSession::new(&spec).workers(4).run();
        assert_eq!(
            seq.trojans
                .iter()
                .map(|t| t.witness_fields.clone())
                .collect::<Vec<_>>(),
            par.trojans
                .iter()
                .map(|t| t.witness_fields.clone())
                .collect::<Vec<_>>()
        );
        assert_eq!(seq.server_paths, par.server_paths);
    }
}
