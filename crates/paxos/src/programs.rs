//! Paxos node programs for the three local-state modes (§3.4).
//!
//! The analyzed scenario: an acceptor has promised ballot `B` and the
//! proposer has entered phase 2 proposing some value. The *proposer* is the
//! "client" (it generates `Accept` messages), the *acceptor* is the
//! "server". A correct acceptor takes any `Accept` with a fresh ballot —
//! the value binding lives in the deployment scenario, not in the code —
//! which is precisely why these messages are Trojan *in context*:
//!
//! * **Concrete** ([`ProposerMode::Concrete`] / [`AcceptorMode::Concrete`]):
//!   the deployment proposed value 7 at ballot 5; any accepted message with
//!   another value (or ballot) is Trojan *for this scenario*.
//! * **Constructed Symbolic** ([`ProposerMode::Constructed`]): the proposed
//!   value is a symbolic input validated to `0..=MAX_PROPOSABLE_VALUE`; one
//!   analysis covers every concrete scenario at once, and the provable
//!   Trojans are the out-of-domain values.
//! * **Over-approximate** ([`AcceptorMode::OverApproximate`]): the
//!   acceptor's `promised` state is replaced by an annotated symbolic value
//!   (the paper's `make_symbolic` on local state).

use std::sync::{Arc, OnceLock};

use achilles_solver::Width;
use achilles_symvm::{MessageLayout, NodeProgram, PathResult, SymEnv, SymMessage};

use crate::engine::{Ballot, Value};

/// `kind` value of phase-2a (`Accept`) messages.
pub const ACCEPT_KIND: u64 = 3;

/// Upper bound a correct proposer enforces on client-supplied values
/// (the Constructed-Symbolic mode's validation).
pub const MAX_PROPOSABLE_VALUE: u64 = 1000;

/// The `Accept` message layout.
pub fn accept_layout() -> Arc<MessageLayout> {
    static LAYOUT: OnceLock<Arc<MessageLayout>> = OnceLock::new();
    Arc::clone(LAYOUT.get_or_init(|| {
        MessageLayout::builder("paxos_accept")
            .field("kind", Width::W8)
            .field("ballot", Width::W16)
            .field("value", Width::W32)
            .build()
    }))
}

/// How the proposer (the client side) obtains the value it proposes.
#[derive(Clone, Copy, Debug)]
pub enum ProposerMode {
    /// The deployment's concrete phase-2 state: `(ballot, value)`.
    Concrete(Ballot, Value),
    /// The value is symbolic user input validated to
    /// `0..=MAX_PROPOSABLE_VALUE`; the ballot is the concrete round.
    Constructed(Ballot),
}

/// The proposer's phase-2 send as a node program.
#[derive(Clone, Copy, Debug)]
pub struct ProposerProgram {
    /// State mode.
    pub mode: ProposerMode,
}

impl NodeProgram for ProposerProgram {
    fn run(&self, env: &mut SymEnv<'_>) -> PathResult<()> {
        let (ballot, value) = match self.mode {
            ProposerMode::Concrete(b, v) => {
                let b = env.constant(u64::from(b), Width::W16);
                let v = env.constant(u64::from(v), Width::W32);
                (b, v)
            }
            ProposerMode::Constructed(b) => {
                let ballot = env.constant(u64::from(b), Width::W16);
                let value = env.sym_in_range("proposed", Width::W32, 0, MAX_PROPOSABLE_VALUE)?;
                (ballot, value)
            }
        };
        let kind = env.constant(ACCEPT_KIND, Width::W8);
        env.send(SymMessage::new(accept_layout(), vec![kind, ballot, value]));
        Ok(())
    }
}

/// How the acceptor (the server side) obtains its `promised` state.
#[derive(Clone, Copy, Debug)]
pub enum AcceptorMode {
    /// Concrete promised ballot (run the system up to the scenario, §3.4's
    /// Concrete Local State).
    Concrete(Ballot),
    /// Promised ballot replaced by an annotated symbolic value in
    /// `[0, max]` (§3.4's Over-approximate Symbolic Local State).
    OverApproximate {
        /// Upper bound on the promised ballot.
        max: Ballot,
    },
}

/// The acceptor's phase-2 receive as a node program.
#[derive(Clone, Copy, Debug)]
pub struct AcceptorProgram {
    /// State mode.
    pub mode: AcceptorMode,
}

impl NodeProgram for AcceptorProgram {
    fn run(&self, env: &mut SymEnv<'_>) -> PathResult<()> {
        let msg = env.recv(&accept_layout())?;
        let kind_ok = env.constant(ACCEPT_KIND, Width::W8);
        if !env.if_eq(msg.field("kind"), kind_ok)? {
            return Ok(()); // not an Accept
        }
        let promised = match self.mode {
            AcceptorMode::Concrete(b) => env.constant(u64::from(b), Width::W16),
            AcceptorMode::OverApproximate { max } => {
                env.sym_in_range("state.promised", Width::W16, 0, u64::from(max))?
            }
        };
        // Paxos rule: accept iff ballot >= promised. The value is taken as
        // is — correct code, scenario-specific Trojans.
        if env.if_ult(msg.field("ballot"), promised)? {
            return Ok(()); // stale ballot
        }
        env.note("accepted");
        env.mark_accept();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(proposer: ProposerMode, acceptor: AcceptorMode) -> Vec<achilles::TrojanReport> {
        let spec = crate::PaxosSpec::new(proposer, acceptor);
        achilles::AchillesSession::new(&spec).run().trojans
    }

    #[test]
    fn concrete_scenario_flags_other_values() {
        // Phase 2 entered with (ballot 5, value 7): anything else is Trojan.
        let reports = analyze(ProposerMode::Concrete(5, 7), AcceptorMode::Concrete(5));
        assert_eq!(reports.len(), 1);
        let w = &reports[0].witness_fields;
        // kind, ballot, value — witness differs from (3, 5, 7) in some field
        // while still being accepted (ballot >= 5).
        assert_eq!(w[0], ACCEPT_KIND);
        assert!(w[1] >= 5);
        assert!(
            w[1] != 5 || w[2] != 7,
            "must differ from the one correct message"
        );
        assert!(reports[0].verified);
    }

    #[test]
    fn constructed_mode_covers_all_scenarios_at_once() {
        let reports = analyze(ProposerMode::Constructed(5), AcceptorMode::Concrete(5));
        assert_eq!(reports.len(), 1);
        let w = &reports[0].witness_fields;
        // The provable Trojans are out-of-domain values (or foreign ballots).
        assert!(
            w[2] > MAX_PROPOSABLE_VALUE || w[1] != 5,
            "witness {w:?} must be outside every concrete scenario"
        );
    }

    #[test]
    fn over_approximate_acceptor_state() {
        let reports = analyze(
            ProposerMode::Constructed(5),
            AcceptorMode::OverApproximate { max: 20 },
        );
        assert_eq!(
            reports.len(),
            1,
            "annotated state still admits the analysis"
        );
        assert!(reports[0].verified);
    }

    #[test]
    fn concrete_round_trip_against_engine() {
        // The symbolic acceptor and the concrete engine agree on the rule.
        let mut acc = crate::engine::Acceptor::new();
        acc.on_prepare(5);
        assert!(acc.on_accept(5, 7));
        assert!(!acc.on_accept(4, 9), "stale ballot refused by the engine");
    }
}
