//! The bounded two-phase-commit vote wire format.
//!
//! Phase 1 of 2PC: every participant sends the coordinator one `VOTE`
//! message for a transaction — `VOTE_COMMIT` (1) if it can commit,
//! `VOTE_ABORT` (0) otherwise. The message is deliberately small (the
//! paper's bounded-protocol methodology): a kind tag, a transaction id, the
//! participant id, and the one-byte vote.

use std::sync::{Arc, OnceLock};

use achilles::{fields_to_wire, wire_to_fields, WireError};
use achilles_solver::Width;
use achilles_symvm::MessageLayout;

/// `kind` value of phase-1 `VOTE` messages.
pub const VOTE_KIND: u64 = 1;

/// `kind` value of phase-2 decision messages (coordinator → participants;
/// not part of the analyzed inbound surface, but kept distinct so stray
/// decisions never parse as votes).
pub const DECISION_KIND: u64 = 2;

/// A participant's "I can commit" vote.
pub const VOTE_COMMIT: u64 = 1;

/// A participant's "abort" vote.
pub const VOTE_ABORT: u64 = 0;

/// Number of participants in the modeled deployment.
pub const N_PARTICIPANTS: u64 = 3;

/// Transactions the coordinator tracks (`txid < MAX_TXID`).
pub const MAX_TXID: u64 = 8;

/// The `VOTE` message layout.
pub fn layout() -> Arc<MessageLayout> {
    static LAYOUT: OnceLock<Arc<MessageLayout>> = OnceLock::new();
    Arc::clone(LAYOUT.get_or_init(|| {
        MessageLayout::builder("twopc_vote")
            .field("kind", Width::W8)
            .field("txid", Width::W16)
            .field("participant", Width::W8)
            .field("vote", Width::W8)
            .build()
    }))
}

/// The `DECIDE` message layout (slot 1 of the VOTE→DECIDE session): the
/// transaction manager asks the coordinator to finalize `txid` with an
/// expected `outcome` byte (0 = abort, 1 = commit).
pub fn decide_layout() -> Arc<MessageLayout> {
    static LAYOUT: OnceLock<Arc<MessageLayout>> = OnceLock::new();
    Arc::clone(LAYOUT.get_or_init(|| {
        MessageLayout::builder("twopc_decide")
            .field("kind", Width::W8)
            .field("txid", Width::W16)
            .field("outcome", Width::W8)
            .build()
    }))
}

/// One concrete `DECIDE` message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TwopcDecide {
    /// Message kind ([`DECISION_KIND`] for real finalize requests).
    pub kind: u8,
    /// Transaction id to finalize.
    pub txid: u16,
    /// The expected outcome byte (correct managers send only 0 or 1).
    pub outcome: u8,
}

impl TwopcDecide {
    /// A finalize request a correct transaction manager would send.
    pub fn correct(txid: u16, commit: bool) -> TwopcDecide {
        TwopcDecide {
            kind: DECISION_KIND as u8,
            txid,
            outcome: if commit { VOTE_COMMIT } else { VOTE_ABORT } as u8,
        }
    }

    /// Layout-ordered field values.
    pub fn field_values(&self) -> Vec<u64> {
        vec![
            u64::from(self.kind),
            u64::from(self.txid),
            u64::from(self.outcome),
        ]
    }

    /// Rebuilds a decide from layout-ordered field values (truncated to
    /// their wire widths).
    pub fn from_field_values(fields: &[u64]) -> TwopcDecide {
        TwopcDecide {
            kind: fields.first().copied().unwrap_or(0) as u8,
            txid: fields.get(1).copied().unwrap_or(0) as u16,
            outcome: fields.get(2).copied().unwrap_or(0) as u8,
        }
    }

    /// Encodes to wire bytes.
    pub fn to_wire(&self) -> Vec<u8> {
        fields_to_wire(&decide_layout(), &self.field_values())
            .expect("the decide layout is byte-aligned")
    }

    /// Decodes from wire bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated buffers.
    pub fn from_wire(wire: &[u8]) -> Result<TwopcDecide, WireError> {
        Ok(TwopcDecide::from_field_values(&wire_to_fields(
            &decide_layout(),
            wire,
        )?))
    }
}

/// One concrete `VOTE` message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TwopcVote {
    /// Message kind ([`VOTE_KIND`] for real votes).
    pub kind: u8,
    /// Transaction id.
    pub txid: u16,
    /// Sending participant.
    pub participant: u8,
    /// The vote byte (correct participants send only 0 or 1).
    pub vote: u8,
}

impl TwopcVote {
    /// A vote a correct participant would send.
    pub fn correct(txid: u16, participant: u8, commit: bool) -> TwopcVote {
        TwopcVote {
            kind: VOTE_KIND as u8,
            txid,
            participant,
            vote: if commit { VOTE_COMMIT } else { VOTE_ABORT } as u8,
        }
    }

    /// Layout-ordered field values.
    pub fn field_values(&self) -> Vec<u64> {
        vec![
            u64::from(self.kind),
            u64::from(self.txid),
            u64::from(self.participant),
            u64::from(self.vote),
        ]
    }

    /// Rebuilds a vote from layout-ordered field values (fields are
    /// truncated to their wire widths, like the real parser would).
    pub fn from_field_values(fields: &[u64]) -> TwopcVote {
        TwopcVote {
            kind: fields.first().copied().unwrap_or(0) as u8,
            txid: fields.get(1).copied().unwrap_or(0) as u16,
            participant: fields.get(2).copied().unwrap_or(0) as u8,
            vote: fields.get(3).copied().unwrap_or(0) as u8,
        }
    }

    /// Encodes to wire bytes.
    pub fn to_wire(&self) -> Vec<u8> {
        fields_to_wire(&layout(), &self.field_values()).expect("the vote layout is byte-aligned")
    }

    /// Decodes from wire bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated buffers.
    pub fn from_wire(wire: &[u8]) -> Result<TwopcVote, WireError> {
        Ok(TwopcVote::from_field_values(&wire_to_fields(
            &layout(),
            wire,
        )?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_round_trip() {
        let v = TwopcVote::correct(3, 2, true);
        assert_eq!(TwopcVote::from_wire(&v.to_wire()).unwrap(), v);
        assert_eq!(v.to_wire(), vec![1, 0, 3, 2, 1]);
    }

    #[test]
    fn decide_wire_round_trip() {
        let d = TwopcDecide::correct(5, true);
        assert_eq!(TwopcDecide::from_wire(&d.to_wire()).unwrap(), d);
        assert_eq!(d.to_wire(), vec![2, 0, 5, 1]);
    }

    #[test]
    fn field_round_trip() {
        let v = TwopcVote {
            kind: 1,
            txid: 7,
            participant: 1,
            vote: 0xA0,
        };
        assert_eq!(TwopcVote::from_field_values(&v.field_values()), v);
    }
}
