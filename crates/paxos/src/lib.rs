//! # achilles-paxos — single-decree Paxos for the local-state modes
//!
//! The paper uses Paxos as its running example for handling *local state*
//! (§3.4): which `Accept` messages an acceptor should take depends on where
//! the protocol is in its three phases. This crate provides
//!
//! * a small, concrete single-decree Paxos (proposer/acceptor) usable over
//!   the simulated network;
//! * node programs for Achilles analyses in each of the three local-state
//!   modes — Concrete, Constructed Symbolic, and Over-approximate; and
//! * [`PaxosSpec`], one (proposer, acceptor) scenario as the spec an
//!   [`AchillesSession`](achilles::AchillesSession) runs.
//!
//! The paper's scenario: "a Paxos Acceptor has just entered the second
//! phase, with proposed value 7. It should only validate Accept messages for
//! value 7 — any other message is a Trojan message." The acceptor *code* is
//! correct Paxos; the Trojan is scenario-specific, exactly like the Amazon
//! S3 gossip message (§1).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod programs;
pub mod target;

pub use engine::{Acceptor, Ballot, Proposer, Value};
pub use programs::{
    accept_layout, AcceptorMode, AcceptorProgram, ProposerMode, ProposerProgram, ACCEPT_KIND,
    MAX_PROPOSABLE_VALUE,
};
pub use target::{PaxosSpec, PaxosTarget};
