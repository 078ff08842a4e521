//! The protocol-agnostic target description: one [`TargetSpec`] carries
//! everything the pipeline needs to analyze and validate a protocol.
//!
//! The paper's pipeline — client predicate extraction, negation, server
//! Trojan search, concrete witness replay — is protocol-independent, but
//! each phase needs protocol-specific ingredients: the client
//! [`NodeProgram`]s, what the server receives (the single message as a
//! one-slot [`SessionSpec`], plus any multi-message sessions — each slot a
//! wire [`MessageLayout`], its clients and a field mask), and per
//! declaration the server program and a concrete deployment to fire
//! witnesses at. [`TargetSpec`] bundles those ingredients behind one
//! trait, so a protocol is onboarded by implementing it in the protocol's
//! own crate and registering the spec in a
//! [`TargetRegistry`](crate::TargetRegistry) — **zero changes to the core
//! pipeline, the replay harness, or the bench drivers**.
//!
//! The concrete half lives here too: [`ReplayTarget`] (a bootable
//! deployment that accepts wire datagrams) and the wire codec helpers
//! ([`fields_to_wire`] / [`wire_to_fields`]) that concretize solver models
//! into injectable bytes through the same
//! [`achilles_netsim::bytes`] framing the deployments parse with. The
//! `achilles-replay` crate drives a [`ReplayTarget`] produced by
//! [`TargetSpec::session_replay_target`] through fault schedules, triage,
//! and corpus persistence.
//!
//! See the crate-level docs ("Porting a protocol") for the step-by-step
//! guide.

use std::sync::Arc;

pub use achilles_netsim::bytes::WireError;
use achilles_netsim::bytes::{decode_fields, encode_fields};
use achilles_symvm::{MessageLayout, NodeProgram};

use crate::diverge::StateRoot;
use crate::predicate::FieldMask;
use crate::report::TrojanReport;

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

/// Per-field widths (in bits) of a message layout, in declaration order.
pub fn layout_widths(layout: &MessageLayout) -> Vec<u32> {
    layout.fields().iter().map(|f| f.width.bits()).collect()
}

/// Encodes layout-ordered field values to wire bytes (big-endian, the
/// framing every concrete deployment parses with).
///
/// # Errors
///
/// Returns [`WireError::BadWidth`] if the layout has a field narrower than
/// one byte (such layouts cannot travel on the modeled wire).
pub fn fields_to_wire(layout: &MessageLayout, fields: &[u64]) -> Result<Vec<u8>, WireError> {
    let pairs: Vec<(u32, u64)> = layout_widths(layout)
        .into_iter()
        .zip(fields.iter().copied())
        .collect();
    encode_fields(&pairs)
}

/// Decodes wire bytes back to layout-ordered field values.
///
/// # Errors
///
/// Returns a [`WireError`] if the buffer is truncated or the layout has a
/// sub-byte field.
pub fn wire_to_fields(layout: &MessageLayout, wire: &[u8]) -> Result<Vec<u64>, WireError> {
    decode_fields(wire, &layout_widths(layout))
}

// ---------------------------------------------------------------------------
// Concrete deployments
// ---------------------------------------------------------------------------

/// One delivery of an injection plan: wire bytes plus whether this copy is
/// the witness (as opposed to a benign companion).
pub type Delivery = (Vec<u8>, bool);

/// What one injection run did, per delivery and in aggregate.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InjectionOutcome {
    /// Per-delivery acceptance, aligned with the delivery plan.
    pub accepted_each: Vec<bool>,
    /// Structural effect notes (unsorted; the replay triage sorts them
    /// into the crash signature).
    pub effects: Vec<String>,
}

/// A concrete deployment a witness can be fired at.
///
/// A deployment consumes a *session*: a fixed sequence of slot messages
/// (login → command, VOTE → DECIDE; see [`TargetSpec::sessions`]). A
/// single-message deployment is the one-slot case — it declares one slot
/// layout and is driven by exactly the same replay, minimization,
/// validation and corpus code as a multi-slot one.
///
/// Implementations must be pure: [`ReplayTarget::boot`] returns a freshly
/// booted deployment every call, so the outcome of a delivery plan is a
/// function of the plan alone. That purity is what makes replay results
/// bit-identical across worker counts, runs, and machines — and what lets
/// the sweep fork-server resume cells from clones of one booted session
/// instead of booting per cell.
pub trait ReplayTarget: Sync {
    /// Short system name used in crash signatures (`"fsp"`, `"pbft"`, …).
    fn name(&self) -> &'static str;

    /// Per-slot wire layouts of a witness, in slot order (one entry for a
    /// single-message deployment).
    fn slot_layouts(&self) -> Vec<Arc<MessageLayout>>;

    /// Field values of a benign message a correct client would send in
    /// `slot` (the per-slot ddmin baseline and the benign interleaving
    /// companion a fault schedule inserts before a delivery).
    fn slot_benign_fields(&self, slot: usize) -> Vec<u64>;

    /// Whether a correct client can produce `fields` *in `slot`* — the
    /// per-slot concrete client-side oracle.
    fn slot_generable(&self, slot: usize, fields: &[u64]) -> bool;

    /// Boots a fresh deployment as a live [`SnapshotReplayTarget`] session:
    /// the one execution surface of replay. Cold replay is
    /// [`ReplayTarget::inject`] (boot → deliver each → finish); the sweep
    /// fork-server boots once and walks a delivery-prefix trie on clones
    /// of the booted session.
    fn boot(&self) -> Box<dyn SnapshotReplayTarget + '_>;

    /// Boots a fresh deployment and fires the delivery plan at it: one
    /// delivery per slot in session order (plus any fault-injected
    /// copies), consumed statefully exactly like real traffic, then the
    /// end-of-plan effects.
    fn inject(&self, deliveries: &[Delivery]) -> InjectionOutcome {
        let mut session = self.boot();
        let mut outcome = InjectionOutcome::default();
        for delivery in deliveries {
            session.deliver(delivery, &mut outcome);
        }
        session.finish(&mut outcome);
        outcome
    }

    /// Whether this deployment observes per-node state roots and reports
    /// divergence through its effects (see [`crate::diverge`]).
    ///
    /// Multi-node targets that embed a
    /// [`DivergenceProbe`](crate::diverge::DivergenceProbe) return `true`;
    /// the conformance suite then holds them to the divergence contract
    /// (fault-free benign agreement, ≥ 1 diverging schedule, and
    /// drop-the-arming-slot restores agreement). Single-node targets keep
    /// the default.
    fn reports_state_roots(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// Fork sessions
// ---------------------------------------------------------------------------

/// One booted deployment driven incrementally — what
/// [`ReplayTarget::boot`] returns. A fork is a clone: the session is
/// `Clone`, and [`CloneSession::clone_session`] copies it behind the
/// trait object.
///
/// Cold replay ([`ReplayTarget::inject`]) boots one session per delivery
/// plan and feeds it every delivery; the sweep fork-server boots once and
/// walks a delivery-prefix trie, running each sibling subtree on a clone
/// of the branch-point session instead of booting every cell (the
/// AFL-style fork-server move).
///
/// A porter writes `deliver` (plus `finish` / `state_roots` where the
/// deployment has them) and derives `Clone`; the blanket
/// [`CloneSession`] impl does the rest.
///
/// # Contract
///
/// - [`deliver`](SnapshotReplayTarget::deliver) pushes exactly one entry
///   onto `outcome.accepted_each` and appends any per-delivery effects.
/// - [`finish`](SnapshotReplayTarget::finish) appends the end-of-plan
///   effects (filesystem diffs, final decisions). It may leave the engine
///   state unspecified — the fork-server never delivers to a session it
///   has finished.
/// - The clone is deep: a clone and its source evolve independently, a
///   clone taken at boot replays exactly like a fresh boot, and a clone
///   taken mid-plan resumes exactly like the uncloned session — the law
///   fork-server replay's bit-identity with cold replay rests on. A
///   derived `Clone` over an `Arc<Mutex<…>>` aliases live state and breaks
///   it; the conformance suite's clone law catches that.
pub trait SnapshotReplayTarget: CloneSession {
    /// Feeds one delivery to the live deployment, recording acceptance and
    /// effects into `outcome`.
    fn deliver(&mut self, delivery: &Delivery, outcome: &mut InjectionOutcome);

    /// Appends the end-of-plan effects (none by default). May consume the
    /// session state; the fork-server finishes a clone (or the last
    /// consumer of a state) and never delivers to it again.
    fn finish(&mut self, outcome: &mut InjectionOutcome) {
        let _ = outcome;
    }

    /// The current per-node state roots, for deployments that observe
    /// them (`None` — the default — for single-node targets).
    ///
    /// The roots must be a pure function of the deliveries applied since
    /// boot, so a clone must carry the probe and the digests with the rest
    /// of the engine state.
    fn state_roots(&self) -> Option<Vec<StateRoot>> {
        None
    }
}

/// The object-safe clone of a fork session, implemented for every
/// `Clone` [`SnapshotReplayTarget`] — porters never write it.
pub trait CloneSession {
    /// A deep copy of this session, at its current state.
    fn clone_session(&self) -> Box<dyn SnapshotReplayTarget + '_>;
}

impl<T: SnapshotReplayTarget + Clone> CloneSession for T {
    fn clone_session(&self) -> Box<dyn SnapshotReplayTarget + '_> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Session declarations
// ---------------------------------------------------------------------------

/// One receive slot of a declared session: the wire layout of the message
/// the server consumes in this position, which of the spec's
/// [`clients`](TargetSpec::clients) can legally fill it, and the fields
/// the analysis ignores.
#[derive(Clone, Debug)]
pub struct SessionSlot {
    /// Slot name used in reports and witness provenance (`"login"`,
    /// `"command"`, …).
    pub name: String,
    /// The wire layout of the message received in this slot.
    pub layout: Arc<MessageLayout>,
    /// Indices into [`TargetSpec::clients`] whose predicates are merged
    /// (in order) into this slot's client predicate `P_C`.
    pub clients: Vec<usize>,
    /// Field mask for this slot (checksums, digests, authenticators —
    /// §5.2): masked fields are left out of the negated client predicate.
    pub mask: FieldMask,
}

impl SessionSlot {
    /// A slot named `name` of `layout`, fed by the given clients, with no
    /// field mask.
    pub fn new(
        name: impl Into<String>,
        layout: Arc<MessageLayout>,
        clients: Vec<usize>,
    ) -> SessionSlot {
        SessionSlot {
            name: name.into(),
            layout,
            clients,
            mask: FieldMask::none(),
        }
    }
}

/// What a [`TargetSpec`]'s server receives in one activation: an ordered
/// slot list (handshake → command, VOTE → DECIDE), plus an expected
/// Trojan-count hint.
///
/// A target's single message ([`TargetSpec::message`]) is the one-slot
/// case; [`TargetSpec::sessions`] declares the multi-message ones. A
/// session is Trojan when the server accepts it but at least one slot's
/// message is un-generable by that slot's correct clients —
/// `⋁ₛ ¬genₛ(mₛ)` (for one slot, the paper's `T = S \ C`). Both are
/// discovered by the same search
/// ([`AchillesSession::run`](crate::AchillesSession::run) and
/// [`AchillesSession::run_sessions`](crate::AchillesSession::run_sessions))
/// and validated through [`TargetSpec::session_replay_target`].
#[derive(Clone, Debug)]
pub struct SessionSpec {
    /// Session name, unique within the spec (`"login-command"`, …).
    pub name: String,
    /// The ordered receive slots (must match the session server's `recv`
    /// order). Must be non-empty.
    pub slots: Vec<SessionSlot>,
    /// How many Trojan reports the default configuration is expected to
    /// discover, when the bounded model makes that exact (the paper's
    /// counting arithmetic). `None` when open-ended.
    pub expected_trojans: Option<usize>,
}

impl SessionSpec {
    /// A session named `name` over `slots` with no expected-count hint.
    pub fn new(name: impl Into<String>, slots: Vec<SessionSlot>) -> SessionSpec {
        SessionSpec {
            name: name.into(),
            slots,
            expected_trojans: None,
        }
    }

    /// Sets the expected Trojan count.
    pub fn expecting(mut self, count: usize) -> SessionSpec {
        self.expected_trojans = Some(count);
        self
    }

    /// Per-slot field counts (the shape used to split a flat witness back
    /// into slot messages).
    pub fn slot_field_counts(&self) -> Vec<usize> {
        self.slots.iter().map(|s| s.layout.num_fields()).collect()
    }
}

// ---------------------------------------------------------------------------
// The target spec
// ---------------------------------------------------------------------------

/// Everything the Achilles pipeline needs from one protocol.
///
/// A `TargetSpec` is the single onboarding point for a protocol: it names
/// the target, supplies the symbolic client programs, declares what the
/// server receives — the single message as a one-slot [`SessionSpec`],
/// plus any multi-message sessions — and serves each declaration's
/// symbolic server and concrete [`ReplayTarget`] by name. Its eight hooks
/// describe the scenario only: every pipeline knob (workers,
/// optimizations, witness verification, budgets) belongs to the
/// [`AchillesSession`](crate::AchillesSession) that runs it. Drivers —
/// the session, the bench bins, the conformance suite — consume specs
/// through a [`TargetRegistry`](crate::TargetRegistry) and never name a
/// protocol in code.
///
/// Specs are `Send + Sync`: a registry is shared across driver threads
/// (the parallel pool, the fleetd campaign executors), so a spec must be
/// plain configuration data, never a handle to thread-local state.
pub trait TargetSpec: Send + Sync {
    /// Registry name of the protocol (`"fsp"`, `"pbft"`, `"paxos"`,
    /// `"twopc"`, …). Must be stable and unique within a registry.
    fn name(&self) -> &'static str;

    /// One-line human description shown by registry-driven tooling.
    fn description(&self) -> &'static str {
        ""
    }

    /// Every client program a slot can reference (by index, in
    /// [`SessionSlot::clients`]) — one list for the message and every
    /// session. Each slot's clients' predicates are merged in slot order
    /// into its `P_C` (e.g. the eight FSP utilities). Every program must
    /// be referenced by some slot.
    fn clients(&self) -> Vec<Box<dyn NodeProgram + Sync + '_>>;

    /// The single message the server receives, as a one-slot session: its
    /// layout, clients and mask, and the expected Trojan count. Its name
    /// must differ from every declared session's name, since
    /// [`TargetSpec::session_server`] and
    /// [`TargetSpec::session_replay_target`] serve it by that name.
    fn message(&self) -> SessionSpec;

    /// The multi-message sessions this protocol declares (empty — the
    /// default — for single-message protocols); [`TargetSpec::message`]
    /// is never listed here.
    ///
    /// Declared sessions run the search the message runs, one slot per
    /// message:
    /// [`AchillesSession::run_sessions`](crate::AchillesSession::run_sessions)
    /// discovers them with the same drops, pruning and witness
    /// verification, and `achilles_replay::validate_spec_sessions` fires
    /// the resulting session witnesses at
    /// [`TargetSpec::session_replay_target`].
    fn sessions(&self) -> Vec<SessionSpec> {
        Vec::new()
    }

    /// The server program analyzed for `session` — the message's name or
    /// a declared session's: one `recv` per slot, in slot order.
    fn session_server(&self, session: &str) -> Box<dyn NodeProgram + Sync + '_>;

    /// The concrete deployment witnesses of `session` — the message's
    /// name or a declared session's — are fired at: a [`ReplayTarget`]
    /// declaring one slot layout, benign baseline and generability oracle
    /// per [`SessionSlot`], configured consistently with
    /// [`TargetSpec::session_server`].
    fn session_replay_target(&self, session: &str) -> Box<dyn ReplayTarget>;

    /// Classifies a discovered report into a protocol-level family label
    /// (used for triage summaries; `"trojan"` when the protocol has a
    /// single family).
    fn classify(&self, _report: &TrojanReport) -> String {
        "trojan".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use achilles_solver::Width;
    use achilles_symvm::{PathResult, SymEnv, SymMessage};

    fn layout() -> Arc<MessageLayout> {
        MessageLayout::builder("kv")
            .field("op", Width::W8)
            .field("key", Width::W16)
            .build()
    }

    struct KvSpec;

    struct NullTarget;
    impl ReplayTarget for NullTarget {
        fn name(&self) -> &'static str {
            "kv"
        }
        fn slot_layouts(&self) -> Vec<Arc<MessageLayout>> {
            vec![layout()]
        }
        fn slot_benign_fields(&self, _slot: usize) -> Vec<u64> {
            vec![1, 0]
        }
        fn slot_generable(&self, _slot: usize, fields: &[u64]) -> bool {
            fields[1] < 1024
        }
        fn boot(&self) -> Box<dyn SnapshotReplayTarget + '_> {
            Box::new(NullSession)
        }
    }

    /// A stateless deployment that accepts every delivery.
    #[derive(Clone)]
    struct NullSession;
    impl SnapshotReplayTarget for NullSession {
        fn deliver(&mut self, _delivery: &Delivery, outcome: &mut InjectionOutcome) {
            outcome.accepted_each.push(true);
        }
    }

    impl TargetSpec for KvSpec {
        fn name(&self) -> &'static str {
            "kv"
        }
        fn clients(&self) -> Vec<Box<dyn NodeProgram + Sync + '_>> {
            fn client(env: &mut SymEnv<'_>) -> PathResult<()> {
                let key = env.sym("key", Width::W16);
                let op = env.constant(1, Width::W8);
                env.send(SymMessage::new(layout(), vec![op, key]));
                Ok(())
            }
            vec![Box::new(client)]
        }
        fn message(&self) -> SessionSpec {
            SessionSpec::new("kv", vec![SessionSlot::new("kv", layout(), vec![0])])
        }
        fn session_server(&self, _session: &str) -> Box<dyn NodeProgram + Sync + '_> {
            fn server(env: &mut SymEnv<'_>) -> PathResult<()> {
                let _ = env.recv(&layout())?;
                env.mark_accept();
                Ok(())
            }
            Box::new(server)
        }
        fn session_replay_target(&self, _session: &str) -> Box<dyn ReplayTarget> {
            Box::new(NullTarget)
        }
    }

    #[test]
    fn default_codec_round_trips_through_the_layout() {
        let layout = &KvSpec.message().slots[0].layout;
        let wire = fields_to_wire(layout, &[0x41, 0x1234]).unwrap();
        assert_eq!(wire, vec![0x41, 0x12, 0x34]);
        assert_eq!(wire_to_fields(layout, &wire).unwrap(), vec![0x41, 0x1234]);
    }

    #[test]
    fn defaults_are_sensible() {
        let spec = KvSpec;
        assert_eq!(spec.message().expected_trojans, None);
        assert!(spec.sessions().is_empty());
        assert!(crate::AchillesSession::new(&spec).config().verify_witnesses);
        assert!(spec.description().is_empty());
    }
}
