//! The Paxos [`TargetSpec`] and concrete deployment target.
//!
//! [`PaxosSpec`] packages one local-state scenario (proposer mode ×
//! acceptor mode, §3.4) behind the protocol-agnostic trait;
//! [`PaxosTarget`] — previously hand-assembled in the replay harness —
//! boots a single-decree acceptor mid-scenario per injection.

use std::sync::Arc;

use achilles::{
    wire_to_fields, Delivery, InjectionOutcome, ReplayTarget, SessionSlot, SessionSpec,
    SnapshotReplayTarget, TargetSpec,
};
use achilles_symvm::{MessageLayout, NodeProgram};

use crate::engine::{Acceptor, Ballot, Value};
use crate::programs::{
    accept_layout, AcceptorMode, AcceptorProgram, ProposerMode, ProposerProgram, ACCEPT_KIND,
    MAX_PROPOSABLE_VALUE,
};

/// The Paxos deployment target: a single-decree acceptor mid-scenario.
#[derive(Clone, Copy, Debug)]
pub struct PaxosTarget {
    /// The acceptor's promised ballot when the witness arrives.
    pub promised: Ballot,
    /// The proposer scenario defining client generability.
    pub proposer: ProposerMode,
}

impl PaxosTarget {
    /// A target for the acceptor-promised-`promised` scenario with the
    /// given proposer mode.
    pub fn new(promised: Ballot, proposer: ProposerMode) -> PaxosTarget {
        PaxosTarget { promised, proposer }
    }
}

impl ReplayTarget for PaxosTarget {
    fn name(&self) -> &'static str {
        "paxos"
    }

    fn slot_layouts(&self) -> Vec<Arc<MessageLayout>> {
        vec![accept_layout()]
    }

    fn slot_benign_fields(&self, _slot: usize) -> Vec<u64> {
        match self.proposer {
            ProposerMode::Concrete(b, v) => vec![ACCEPT_KIND, u64::from(b), u64::from(v)],
            ProposerMode::Constructed(b) => vec![ACCEPT_KIND, u64::from(b), 0],
        }
    }

    fn slot_generable(&self, _slot: usize, fields: &[u64]) -> bool {
        let [kind, ballot, value] = fields else {
            return false;
        };
        if *kind != ACCEPT_KIND {
            return false;
        }
        match self.proposer {
            ProposerMode::Concrete(b, v) => *ballot == u64::from(b) && *value == u64::from(v),
            ProposerMode::Constructed(b) => {
                *ballot == u64::from(b) && *value <= MAX_PROPOSABLE_VALUE
            }
        }
    }

    fn boot(&self) -> Box<dyn SnapshotReplayTarget + '_> {
        Box::new(PaxosForkSession::boot(*self))
    }
}

/// The booted deployment behind [`PaxosTarget`]: one live acceptor
/// mid-scenario. No end-of-plan step.
#[derive(Clone)]
struct PaxosForkSession {
    target: PaxosTarget,
    acceptor: Acceptor,
}

impl PaxosForkSession {
    fn boot(target: PaxosTarget) -> PaxosForkSession {
        let mut acceptor = Acceptor::new();
        acceptor.on_prepare(target.promised);
        PaxosForkSession { target, acceptor }
    }
}

impl SnapshotReplayTarget for PaxosForkSession {
    fn deliver(&mut self, delivery: &Delivery, outcome: &mut InjectionOutcome) {
        let (wire, is_witness) = delivery;
        let Ok(fields) = wire_to_fields(&accept_layout(), wire) else {
            outcome.accepted_each.push(false);
            outcome.effects.push("malformed".to_string());
            return;
        };
        let (kind, ballot, value) = (fields[0], fields[1], fields[2]);
        if kind != ACCEPT_KIND {
            outcome.accepted_each.push(false);
            outcome.effects.push("ignored:not-accept".to_string());
            return;
        }
        let accepted = self.acceptor.on_accept(ballot as Ballot, value as Value);
        outcome.accepted_each.push(accepted);
        if !accepted {
            outcome.effects.push("rejected:stale-ballot".to_string());
            return;
        }
        outcome.effects.push("accepted".to_string());
        if *is_witness {
            if u64::from(ballot as Ballot) > u64::from(self.target.promised) {
                outcome.effects.push("ballot:hijacks-round".to_string());
            }
            if value > MAX_PROPOSABLE_VALUE {
                outcome.effects.push("value:out-of-domain".to_string());
            } else if !self.target.slot_generable(0, &fields) {
                outcome.effects.push("value:foreign".to_string());
            }
        }
    }
}

/// One Paxos local-state scenario as a [`TargetSpec`].
///
/// The default is the paper's running example: the acceptor has just
/// entered phase 2 having promised ballot 5, the proposer proposed value 7
/// — any other accepted message is Trojan *for this scenario*.
#[derive(Clone, Copy, Debug)]
pub struct PaxosSpec {
    /// How the proposer (the client side) obtains the value it proposes.
    pub proposer: ProposerMode,
    /// How the acceptor (the server side) obtains its `promised` state.
    pub acceptor: AcceptorMode,
}

impl Default for PaxosSpec {
    fn default() -> PaxosSpec {
        PaxosSpec {
            proposer: ProposerMode::Concrete(5, 7),
            acceptor: AcceptorMode::Concrete(5),
        }
    }
}

impl PaxosSpec {
    /// A spec for one (proposer, acceptor) scenario.
    pub fn new(proposer: ProposerMode, acceptor: AcceptorMode) -> PaxosSpec {
        PaxosSpec { proposer, acceptor }
    }

    /// The promised ballot the concrete replay acceptor boots with (the
    /// scenario ballot; the over-approximate mode replays at its upper
    /// bound).
    pub fn replay_promised(&self) -> Ballot {
        match self.acceptor {
            AcceptorMode::Concrete(b) => b,
            AcceptorMode::OverApproximate { max } => max,
        }
    }
}

impl TargetSpec for PaxosSpec {
    fn name(&self) -> &'static str {
        "paxos"
    }

    fn description(&self) -> &'static str {
        "single-decree Paxos acceptor mid-scenario: context-dependent Accept Trojans (§3.4)"
    }

    fn clients(&self) -> Vec<Box<dyn NodeProgram + Sync + '_>> {
        vec![Box::new(ProposerProgram {
            mode: self.proposer,
        })]
    }

    fn message(&self) -> SessionSpec {
        let accept = SessionSlot::new("accept", accept_layout(), vec![0]);
        // One accepting acceptor path, one report.
        SessionSpec::new("accept", vec![accept]).expecting(1)
    }

    fn session_server(&self, _session: &str) -> Box<dyn NodeProgram + Sync + '_> {
        Box::new(AcceptorProgram {
            mode: self.acceptor,
        })
    }

    fn session_replay_target(&self, _session: &str) -> Box<dyn ReplayTarget> {
        Box::new(PaxosTarget::new(self.replay_promised(), self.proposer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use achilles::AchillesSession;

    #[test]
    fn spec_session_matches_the_legacy_pipeline() {
        // Pin the session against the original hand-wired pipeline,
        // rebuilt inline here so it cannot move in lockstep with the
        // session.
        let legacy = {
            use achilles::{prepare_client_workers, ClientPredicate, FieldMask, Optimizations};
            use achilles_solver::{Solver, TermPool};
            use achilles_symvm::{Executor, ExploreConfig, SymMessage};

            let mut pool = TermPool::new();
            let mut solver = Solver::new();
            let client_result = {
                let mut exec = Executor::new(&mut pool, &mut solver, ExploreConfig::default());
                exec.explore(&ProposerProgram {
                    mode: ProposerMode::Concrete(5, 7),
                })
            };
            let pred = ClientPredicate::from_exploration(&client_result);
            let server_msg = SymMessage::fresh(&mut pool, &accept_layout(), "msg");
            let prepared = prepare_client_workers(
                &mut pool,
                &mut solver,
                pred,
                server_msg,
                FieldMask::none(),
                Optimizations::default(),
                1,
            );
            achilles::run_trojan_search(
                &mut pool,
                &mut solver,
                &[&prepared],
                &AcceptorProgram {
                    mode: AcceptorMode::Concrete(5),
                },
                ExploreConfig::default(),
                Optimizations::default(),
                true,
            )
            .reports
        };
        let spec = PaxosSpec::default();
        let report = AchillesSession::new(&spec).run();
        assert_eq!(report.trojans.len(), legacy.len());
        assert_eq!(report.trojans[0].witness_fields, legacy[0].witness_fields);
        assert_eq!(report.trojans[0].verified, legacy[0].verified);
    }

    #[test]
    fn all_three_local_state_modes_are_declared() {
        let spec = PaxosSpec::default();
        assert_eq!(spec.replay_promised(), 5);
        let over = PaxosSpec::new(
            ProposerMode::Constructed(5),
            AcceptorMode::OverApproximate { max: 20 },
        );
        assert_eq!(over.replay_promised(), 20);
    }
}
