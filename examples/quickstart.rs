//! Quickstart: the paper's working example (§2, Figures 2–6), ported to
//! the protocol-agnostic `TargetSpec` API.
//!
//! A tiny read/write server whose READ handler forgets the `address < 0`
//! check. Correct clients validate the address before sending, so READ
//! messages with negative addresses are Trojan messages — accepted by the
//! server, producible by no correct client.
//!
//! This example is the "porting a protocol" guide made runnable. One type,
//! `QuickstartSpec`, bundles everything the pipeline needs — the client
//! and server node programs, the wire layout, the CRC field mask, and a
//! concrete deployment for replay — and everything downstream is generic:
//!
//! 1. register the spec in a [`TargetRegistry`] and select it *by name*;
//! 2. run discovery with an [`AchillesSession`];
//! 3. concretely confirm every finding with
//!    [`achilles_replay::validate_spec`];
//! 4. declare a multi-message *session* (`hello` → request) and drive the
//!    stateful analysis + fault-scheduled replay through the same spec —
//!    the "Declaring a session" guide made runnable;
//! 5. sweep the session witness's fault-schedule space with
//!    `achilles_sweep` and triage which delivery faults arm or disarm the
//!    Trojan — the "Sweeping fault schedules" guide made runnable. The
//!    session deployment replicates onto a *backup* node that enforces the
//!    correct hello check, so the forged hello leaves the two replicas
//!    with different state roots: the sweep triages those cells as
//!    `Diverged` — the "Exposing a state root" guide (step 9) made
//!    runnable.
//!
//! ```text
//! cargo run --release -p achilles-examples --example quickstart
//! ```

use std::sync::Arc;

use achilles::{
    AchillesSession, Delivery, DivergenceProbe, FieldMask, InjectionOutcome, ReplayTarget,
    RootHasher, SessionSlot, SessionSpec, SnapshotReplayTarget, StateRoot, TargetRegistry,
    TargetSpec,
};
use achilles_replay::{
    validate_spec, validate_spec_sessions, ReplayCorpus, ReplayVerdict, ValidateConfig,
};
use achilles_solver::{render_conjunction, Width};
use achilles_symvm::{MessageLayout, NodeProgram, PathResult, SymEnv, SymMessage};

const DATASIZE: u64 = 100;
const READ: u64 = 1;
const WRITE: u64 = 2;
const MAX_PEER: u64 = 10;

fn layout() -> Arc<MessageLayout> {
    MessageLayout::builder("msg")
        .field("sender", Width::W16)
        .field("request", Width::W8)
        .field("address", Width::W32)
        .field("value", Width::W32)
        .field("crc", Width::W16)
        .build()
}

/// The CRC the client library computes (also used by the concrete
/// generability oracle — one definition for both worlds).
fn crc16(args: &[u64]) -> u64 {
    args.iter()
        .fold(0xFFFFu64, |acc, &v| (acc ^ v).rotate_left(5) & 0xFFFF)
}

/// Figure 3: the client validates `0 <= address < DATASIZE`, then builds a
/// READ or WRITE message with a CRC over the other fields.
fn client(env: &mut SymEnv<'_>) -> PathResult<()> {
    let crc_fun = env.pool_mut().register_fun("crc16", Width::W16, crc16);

    let sender = env.sym_in_range("symb_PeerID", Width::W16, 0, MAX_PEER)?;
    let op = env.sym("operationType", Width::W8);
    let address = env.sym("symb_Address", Width::W32);

    // if (address >= DATASIZE) exit(1);
    let datasize = env.constant(DATASIZE, Width::W32);
    if !env.if_slt(address, datasize)? {
        return Ok(());
    }
    // if (address < 0) exit(1);
    let zero = env.constant(0, Width::W32);
    if env.if_slt(address, zero)? {
        return Ok(());
    }

    let read = env.constant(READ, Width::W8);
    if env.if_eq(op, read)? {
        let request = env.constant(READ, Width::W8);
        // READ messages carry no value on the wire; the fixed-layout slot is
        // uninitialized buffer memory — unconstrained symbolic, exactly how
        // Figure 5 shows the READ path predicate without a value conjunct.
        let value = env.sym("uninitialized_value", Width::W32);
        let crc = env
            .pool_mut()
            .apply(crc_fun, vec![sender, request, address]);
        env.send(SymMessage::new(
            layout(),
            vec![sender, request, address, value, crc],
        ));
    } else {
        let request = env.constant(WRITE, Width::W8);
        let value = env.sym("symb_Value", Width::W32);
        let crc = env
            .pool_mut()
            .apply(crc_fun, vec![sender, request, address, value]);
        env.send(SymMessage::new(
            layout(),
            vec![sender, request, address, value, crc],
        ));
    }
    Ok(())
}

/// Figure 2: the server — READ forgets the `address < 0` check.
fn server(env: &mut SymEnv<'_>) -> PathResult<()> {
    let msg = env.recv(&layout())?;
    // isInSet(msg.sender, peers): the configured peer group is ids 0..=10.
    let max_peer = env.constant(MAX_PEER, Width::W16);
    if !env.if_ule(msg.field("sender"), max_peer)? {
        return Ok(()); // continue: rejecting
    }
    let datasize = env.constant(DATASIZE, Width::W32);
    let read = env.constant(READ, Width::W8);
    let write = env.constant(WRITE, Width::W8);
    if env.if_eq(msg.field("request"), read)? {
        if !env.if_slt(msg.field("address"), datasize)? {
            return Ok(());
        }
        // Security vulnerability: forgot to check address < 0.
        env.note("sendMessage(REPLY, data[msg.address])");
        env.mark_accept();
        return Ok(());
    }
    if env.if_eq(msg.field("request"), write)? {
        if !env.if_slt(msg.field("address"), datasize)? {
            return Ok(());
        }
        let zero = env.constant(0, Width::W32);
        if env.if_slt(msg.field("address"), zero)? {
            return Ok(());
        }
        env.note("data[msg.address] = msg.value; sendMessage(ACK)");
        env.mark_accept();
        return Ok(());
    }
    Ok(()) // default: discard
}

// ---------------------------------------------------------------------------
// Declaring a session: hello → request
// ---------------------------------------------------------------------------

/// Nonce window the *client* library requests from (exclusive).
const HELLO_CLIENT_NONCE_CAP: u64 = 100;
/// Nonce window the *server* accepts (exclusive) — the session S-bug.
const HELLO_SERVER_NONCE_CAP: u64 = 1000;

fn hello_layout() -> Arc<MessageLayout> {
    MessageLayout::builder("hello")
        .field("peer", Width::W16)
        .field("nonce", Width::W16)
        .build()
}

/// Slot-0 client: a peer announces itself with a validated nonce.
fn hello_client(env: &mut SymEnv<'_>) -> PathResult<()> {
    let peer = env.sym_in_range("hello_peer", Width::W16, 0, MAX_PEER)?;
    let nonce = env.sym_in_range("hello_nonce", Width::W16, 0, HELLO_CLIENT_NONCE_CAP - 1)?;
    env.send(SymMessage::new(hello_layout(), vec![peer, nonce]));
    Ok(())
}

/// The session server: a lax hello gate (nonces 10× the client window pass
/// — the stateful S-bug), then the ordinary request handler. One
/// activation, two `recv`s, in declared slot order.
fn session_server(env: &mut SymEnv<'_>) -> PathResult<()> {
    let hello = env.recv(&hello_layout())?;
    let max_peer = env.constant(MAX_PEER, Width::W16);
    if !env.if_ule(hello.field("peer"), max_peer)? {
        return Ok(());
    }
    let cap = env.constant(HELLO_SERVER_NONCE_CAP, Width::W16); // BUG: 10× the client cap
    if !env.if_ult(hello.field("nonce"), cap)? {
        return Ok(());
    }
    server(env)
}

/// The concrete §2 deployment: one message slot, its oracles, and a
/// bootable server (step 2 of the porting guide).
struct QuickstartTarget;

impl ReplayTarget for QuickstartTarget {
    fn name(&self) -> &'static str {
        "quickstart"
    }

    fn slot_layouts(&self) -> Vec<Arc<MessageLayout>> {
        vec![layout()]
    }

    fn slot_benign_fields(&self, _slot: usize) -> Vec<u64> {
        let (sender, request, address) = (1, READ, 5);
        vec![
            sender,
            request,
            address,
            0,
            crc16(&[sender, request, address]),
        ]
    }

    fn slot_generable(&self, _slot: usize, fields: &[u64]) -> bool {
        let [sender, request, address, value, crc] = fields else {
            return false;
        };
        let addr = Width::W32.to_signed(*address);
        if *sender > MAX_PEER || !(0..DATASIZE as i64).contains(&addr) {
            return false;
        }
        match *request {
            READ => *crc == crc16(&[*sender, READ, *address]),
            WRITE => *crc == crc16(&[*sender, WRITE, *address, *value]),
            _ => false,
        }
    }

    fn boot(&self) -> Box<dyn SnapshotReplayTarget + '_> {
        Box::new(QuickstartServer::default())
    }
}

/// The booted §2 server: the same checks as the symbolic program, acting
/// on a real data array — its whole state, so its derived `Clone` (step 7)
/// is the deep copy the fork-server forks with.
#[derive(Clone)]
struct QuickstartServer {
    data: Vec<u32>,
}

impl Default for QuickstartServer {
    fn default() -> QuickstartServer {
        QuickstartServer {
            data: vec![0; DATASIZE as usize],
        }
    }
}

impl SnapshotReplayTarget for QuickstartServer {
    fn deliver(&mut self, (wire, _): &Delivery, outcome: &mut InjectionOutcome) {
        let Ok(fields) = achilles::wire_to_fields(&layout(), wire) else {
            outcome.accepted_each.push(false);
            outcome.effects.push("malformed".to_string());
            return;
        };
        let (sender, request, address, value) = (fields[0], fields[1], fields[2], fields[3]);
        let addr = Width::W32.to_signed(address);
        // The buggy dispatch, concretely.
        let accepted = sender <= MAX_PEER
            && match request {
                READ => addr < DATASIZE as i64, // missing addr >= 0!
                WRITE => (0..DATASIZE as i64).contains(&addr),
                _ => false,
            };
        outcome.accepted_each.push(accepted);
        if !accepted {
            outcome.effects.push("rejected".to_string());
        } else if request == READ && addr < 0 {
            // data[addr] reads *before* the array: the privacy leak.
            outcome.effects.push("leak:out-of-bounds-read".to_string());
        } else if request == WRITE {
            self.data[addr as usize] = value as u32;
            outcome.effects.push("write:ack".to_string());
        } else {
            outcome.effects.push("read:reply".to_string());
        }
    }
}

/// The concrete session deployment: a hello gate in front of the §2
/// server. Deliveries parse by wire length (hello = 4 bytes).
struct QuickstartSessionTarget;

impl ReplayTarget for QuickstartSessionTarget {
    fn name(&self) -> &'static str {
        "quickstart"
    }

    fn slot_layouts(&self) -> Vec<Arc<MessageLayout>> {
        vec![hello_layout(), layout()]
    }

    fn slot_benign_fields(&self, slot: usize) -> Vec<u64> {
        if slot == 0 {
            vec![1, 7]
        } else {
            QuickstartTarget.slot_benign_fields(0)
        }
    }

    fn slot_generable(&self, slot: usize, fields: &[u64]) -> bool {
        if slot == 0 {
            let [peer, nonce] = fields else { return false };
            *peer <= MAX_PEER && *nonce < HELLO_CLIENT_NONCE_CAP
        } else {
            QuickstartTarget.slot_generable(0, fields)
        }
    }

    fn boot(&self) -> Box<dyn SnapshotReplayTarget + '_> {
        Box::new(QuickstartSessionFork::default())
    }

    // Step 9 of the porting guide: the session deployment observes
    // per-node state roots, so the sweep can triage silent replica splits
    // as `Diverged` instead of lumping them in with armed cells.
    fn reports_state_roots(&self) -> bool {
        true
    }
}

/// One replica of the session deployment: the hello registration plus the
/// replicated data array, digestible into a [`StateRoot`].
#[derive(Clone, Default)]
struct QuickstartReplica {
    greeted: bool,
    nonce: u64,
    data: Vec<(u64, u32)>, // written (address, value) pairs, insert order
}

impl QuickstartReplica {
    fn write(&mut self, address: u64, value: u32) {
        if let Some(slot) = self.data.iter_mut().find(|(a, _)| *a == address) {
            slot.1 = value;
        } else {
            self.data.push((address, value));
        }
    }

    fn root(&self, node: &str) -> StateRoot {
        let mut hasher = RootHasher::new();
        hasher.write_u64(u64::from(self.greeted));
        if self.greeted {
            hasher.write_u64(self.nonce);
        }
        let mut writes = self.data.clone();
        writes.sort_unstable();
        for (address, value) in writes {
            hasher.write_u64(address).write_u64(u64::from(value));
        }
        StateRoot::new(node, hasher.finish())
    }
}

/// The live session state behind [`QuickstartSessionTarget`]: the hello
/// gate plus the §2 server on the *primary*, mirrored onto a *backup*
/// replica that enforces the correct (client-window) hello check — so a
/// forged hello registers on the primary only, its writes replicate
/// nowhere, and the state roots silently split.
#[derive(Clone, Default)]
struct QuickstartSessionFork {
    server: QuickstartServer,
    primary: QuickstartReplica,
    backup: QuickstartReplica,
    probe: DivergenceProbe,
}

impl QuickstartSessionFork {
    fn roots(&self) -> Vec<StateRoot> {
        vec![self.primary.root("primary"), self.backup.root("backup")]
    }
}

impl SnapshotReplayTarget for QuickstartSessionFork {
    fn deliver(&mut self, delivery: &Delivery, outcome: &mut InjectionOutcome) {
        let wire = &delivery.0;
        if wire.len() == 4 {
            let Ok(fields) = achilles::wire_to_fields(&hello_layout(), wire) else {
                outcome.accepted_each.push(false);
                self.probe.observe(&self.roots());
                return;
            };
            let accepted = fields[0] <= MAX_PEER && fields[1] < HELLO_SERVER_NONCE_CAP;
            outcome.accepted_each.push(accepted);
            if accepted {
                self.primary.greeted = true;
                self.primary.nonce = fields[1];
                // The backup validates the nonce against the *client*
                // window — the check the primary should have had. Forged
                // hellos register on the primary alone: delivery 0 is
                // where the replicas first disagree.
                if fields[1] < HELLO_CLIENT_NONCE_CAP {
                    self.backup.greeted = true;
                    self.backup.nonce = fields[1];
                }
                outcome.effects.push("hello:ok".to_string());
                if fields[1] >= HELLO_CLIENT_NONCE_CAP {
                    outcome.effects.push("family:forged-hello".to_string());
                }
            } else {
                outcome.effects.push("hello:rejected".to_string());
            }
            self.probe.observe(&self.roots());
            return;
        }
        if !self.primary.greeted {
            outcome.accepted_each.push(false);
            outcome.effects.push("rejected:no-hello".to_string());
            self.probe.observe(&self.roots());
            return;
        }
        self.server.deliver(delivery, outcome);
        // Replicate accepted writes: the primary applies them for its
        // registered session; the backup applies them only for sessions
        // *it* registered.
        if outcome.accepted_each.last() == Some(&true) {
            if let Ok(fields) = achilles::wire_to_fields(&layout(), wire) {
                let (address, value) = (fields[2], fields[3] as u32);
                let addr = Width::W32.to_signed(address);
                if fields[1] == WRITE && (0..DATASIZE as i64).contains(&addr) {
                    self.primary.write(address, value);
                    if self.backup.greeted {
                        self.backup.write(address, value);
                    }
                }
            }
        }
        self.probe.observe(&self.roots());
    }

    fn finish(&mut self, outcome: &mut InjectionOutcome) {
        outcome.effects.extend(self.probe.finish(&self.roots()));
    }

    fn state_roots(&self) -> Option<Vec<StateRoot>> {
        Some(self.roots())
    }
}

/// The §2 protocol as a `TargetSpec` — the complete porting surface.
struct QuickstartSpec;

impl TargetSpec for QuickstartSpec {
    fn name(&self) -> &'static str {
        "quickstart"
    }

    fn description(&self) -> &'static str {
        "the paper's §2 read/write server (missing negative-address check)"
    }

    // One client list: every slot below names the clients that can
    // legally fill it by index.
    fn clients(&self) -> Vec<Box<dyn NodeProgram + Sync + '_>> {
        vec![Box::new(hello_client), Box::new(client)]
    }

    // The single message is a one-slot session.
    fn message(&self) -> SessionSpec {
        let mut request = SessionSlot::new("request", layout(), vec![1]);
        // The CRC field is masked, as §5.2 recommends for checksums (the
        // client computes a real expression over symbolic inputs; the
        // negate operator would otherwise have to reason through it).
        request.mask = FieldMask::by_names(&request.layout, &["crc"]);
        // Exactly the READ path carries Trojans.
        SessionSpec::new("request", vec![request]).expecting(1)
    }

    // --- Declaring a session (step 5 of the porting guide). ---------------
    // An ordered slot list; the session server consumes one `recv` per
    // slot, and the session replay target replays whole sequences.
    fn sessions(&self) -> Vec<SessionSpec> {
        vec![SessionSpec::new(
            "hello-request",
            vec![
                SessionSlot::new("hello", hello_layout(), vec![0]),
                SessionSlot::new("request", layout(), vec![1]),
            ],
        )
        // Both accepting paths (READ and WRITE) host the forged-hello
        // Trojan; READ additionally hosts the negative-address one.
        .expecting(2)]
    }

    // Both hooks serve the message and every session, by name.
    fn session_server(&self, session: &str) -> Box<dyn NodeProgram + Sync + '_> {
        if session == "hello-request" {
            Box::new(session_server)
        } else {
            Box::new(server)
        }
    }

    fn session_replay_target(&self, session: &str) -> Box<dyn ReplayTarget> {
        if session == "hello-request" {
            Box::new(QuickstartSessionTarget)
        } else {
            Box::new(QuickstartTarget)
        }
    }
}

fn main() {
    // 0. Trust the pruning (porting-guide step 10): install the
    //    independent certificate checker, so every Unsat verdict the
    //    discovery uses to discard a path is validated on the spot. A
    //    rejection would panic — the quiet run below *is* the audit
    //    passing. And instrument the run (step 11): arm span tracing so
    //    every phase below records into the Chrome trace written at the
    //    end — tracing is observation-only, nothing downstream changes.
    achilles_proofcheck::install_audit();
    achilles_obs::set_tracing(true);

    // 1. Register, then select by name — exactly how the bench bins and
    //    the conformance suite drive the shipped protocols.
    let mut registry = TargetRegistry::new();
    registry.register(Arc::new(QuickstartSpec));
    let spec = registry.get("quickstart").expect("just registered");

    // 2. Discover.
    let mut session = AchillesSession::new(&**spec);
    let report = session.run();

    println!("== client predicate P_C (Figure 5) ==");
    print!("{}", report.client.render(&session.engine().pool));

    println!("\n== server accepting paths (Figure 6) ==");
    println!("(constraints of each accepting path, as discovered)");

    println!("\n== Trojan messages (T = S \\ C) ==");
    for t in &report.trojans {
        println!(
            "path {} [{}]: witness sender={} request={} address={} (signed: {})",
            t.server_path_id,
            t.notes.join("; "),
            t.witness_fields[0],
            t.witness_fields[1],
            t.witness_fields[2],
            Width::W32.to_signed(t.witness_fields[2]),
        );
        println!(
            "{}",
            render_conjunction(&session.engine().pool, &t.constraints)
        );
    }

    assert_eq!(
        Some(report.trojans.len()),
        spec.message().expected_trojans,
        "exactly the READ path carries Trojans"
    );
    let trojan = &report.trojans[0];
    let addr = Width::W32.to_signed(trojan.witness_fields[2]);
    assert!(
        addr < 0,
        "the Trojan reads a negative offset — the privacy leak of §2.1"
    );

    // 3. Concretely confirm: the same registry entry supplies the
    //    deployment, so validation is one generic call.
    let mut corpus = ReplayCorpus::new();
    let summary = validate_spec(
        &**spec,
        &report.trojans,
        &mut corpus,
        &ValidateConfig::default(),
    );
    assert_eq!(summary.confirmed, report.trojans.len());
    assert!(summary
        .results
        .iter()
        .all(|r| r.verdict == ReplayVerdict::ConfirmedTrojan));
    println!(
        "\nreplayed {} witness(es) against the concrete server: {} confirmed, signature {}",
        summary.replayed,
        summary.confirmed,
        summary.confirmed_signatures[0].to_line(),
    );

    println!(
        "\nAchilles found the paper's Trojan: a READ for negative address {addr} \
         (reads outside the data array — e.g. the server's peer list)."
    );

    // 4. Sessions: the same spec declares a hello → request session whose
    //    hello gate accepts nonces no client requests. The registry-driven
    //    session analysis finds the stateful Trojan and attributes it to
    //    the hello slot; session replay confirms it concretely.
    println!("\n== session Trojans (hello → request) ==");
    let reports = AchillesSession::new(&**spec).run_sessions();
    let session_report = &reports[0];
    assert_eq!(
        Some(session_report.trojans.len()),
        session_report.expected_trojans
    );
    for (t, slots) in session_report
        .trojans
        .iter()
        .zip(&session_report.trojan_slots)
    {
        let parts = session_report.split_fields(&t.witness_fields);
        println!(
            "path {}: Trojan slot(s) {slots:?}; hello peer={} nonce={} then request={}",
            t.server_path_id, parts[0][0], parts[0][1], parts[1][1],
        );
        assert!(slots.contains(&0), "the hello gate is the weak link");
        assert!(
            (HELLO_CLIENT_NONCE_CAP..HELLO_SERVER_NONCE_CAP).contains(&parts[0][1]),
            "the forged nonce sits in the server-only window"
        );
    }
    let mut session_corpus = ReplayCorpus::new();
    let session_summary = validate_spec_sessions(
        &**spec,
        session_report,
        &mut session_corpus,
        &ValidateConfig::default(),
    );
    assert_eq!(session_summary.confirmed, session_report.trojans.len());
    println!(
        "replayed {} session witness(es): {} confirmed, e.g. signature {}",
        session_summary.replayed,
        session_summary.confirmed,
        session_summary.confirmed_signatures[0].to_line(),
    );
    println!(
        "\nThe hello slot accepts nonces in [{HELLO_CLIENT_NONCE_CAP}, \
         {HELLO_SERVER_NONCE_CAP}) that no correct client requests — a \
         session-level Trojan invisible to single-message analysis of the \
         request slot alone."
    );

    // 5. Mini-sweep (step 6 of the porting guide): which delivery faults
    //    arm or disarm the session Trojan? Plan a reduced schedule space
    //    for the first witness, replay every schedule, and diff each
    //    outcome's crash signature against the fault-free baseline.
    println!("\n== fault-schedule sensitivity (mini-sweep) ==");
    let target = spec.session_replay_target(&session_report.session);
    let witness = achilles_replay::session_from_report(
        &session_report.layouts,
        0,
        &session_report.trojans[0],
    )
    .expect("session layouts are wire-encodable");
    let planner = achilles_sweep::SchedulePlanner::new(achilles_sweep::SweepConfig::quick());
    let mut sweep_cache = achilles_sweep::SweepCache::new();
    let (matrix, sweep_stats) = achilles_sweep::sweep_witness(
        &*target,
        "quickstart/hello-request",
        &witness,
        &planner,
        1,
        true, // through the fork-server (step 7 of the porting guide)
        &mut sweep_cache,
    );
    assert_eq!(
        matrix.baseline_verdict,
        ReplayVerdict::ConfirmedTrojan,
        "the witness confirms fault-free — that is the baseline"
    );
    for cell in &matrix.cells {
        println!(
            "  {:<24} {}",
            achilles_sweep::schedule_token(&cell.schedule),
            cell.class
        );
    }
    // The forged hello registers on the primary but not the backup, so the
    // fault-free baseline itself leaves the replicas with different state
    // roots — the sweep triages exact reproductions of that split as
    // `Diverged`, the silent-split refinement of `Armed`.
    use achilles_sweep::ScheduleClass;
    assert!(
        matrix.baseline_signature.diverged(),
        "the forged hello splits the replicas even fault-free"
    );
    assert!(
        matrix.count(ScheduleClass::Diverged) >= 1,
        "some schedule must reproduce the silent split"
    );
    // Dropping the hello (the arming slot) disarms the Trojan — and with
    // no registration anywhere, the replicas agree again.
    assert!(
        matrix
            .disarmed()
            .any(|s| achilles_sweep::schedule_token(s) == "drop@s0"),
        "dropping the arming hello slot disarms"
    );
    println!(
        "\n{} of {} schedules leave the Trojan armed and the replicas \
         silently split (diverged); {} more leave it armed; {} disarm it \
         (e.g. dropping the forged hello — agreement restored), {} mask \
         the question, {} change the failure into a new signature.",
        matrix.count(ScheduleClass::Diverged),
        matrix.cells.len(),
        matrix.count(ScheduleClass::Armed),
        matrix.count(ScheduleClass::Disarmed),
        matrix.count(ScheduleClass::Masked),
        matrix.count(ScheduleClass::NewSignature),
    );
    if let Some(divergence) = matrix.baseline_signature.divergence() {
        println!(
            "baseline divergence: first split at delivery {}, roots {}",
            divergence.first_split,
            divergence
                .roots
                .iter()
                .map(|r| format!("{}={:016x}", r.node, r.digest))
                .collect::<Vec<_>>()
                .join(" "),
        );
    }
    // The schedules share delivery prefixes, so the fork-server booted
    // far fewer sessions than it replayed cells.
    assert!(
        sweep_stats.fork.boots_saved() > 0,
        "prefix-sharing schedules must save boots"
    );
    println!(
        "fork-server: {} cells on {} boots — {} boots saved, {} session \
         clones, mean shared prefix depth {:.2}.",
        sweep_stats.fork.plans,
        sweep_stats.fork.boots,
        sweep_stats.fork.boots_saved(),
        sweep_stats.fork.snapshot_restores,
        sweep_stats.fork.mean_shared_prefix_depth(),
    );

    // 6. Serving campaigns (step 8 of the porting guide): the same spec,
    //    unchanged, behind the resident fleetd service. Ingest the
    //    witness's *record* (the export form the corpus files use) over
    //    the line protocol, drain, and query — the served matrix must be
    //    bit-identical to the mini-sweep's, and a re-ingest is a no-op.
    println!("\n== serving campaigns (fleetd, in-process) ==");
    let mut service_registry = TargetRegistry::new();
    service_registry.register(Arc::new(QuickstartSpec));
    let service = achilles_fleetd::Fleetd::start(
        service_registry,
        achilles_fleetd::FleetdConfig::default().quick(),
    )
    .expect("service starts");
    assert!(service
        .handle_line("REGISTER quickstart")
        .starts_with("OK "));
    let record = achilles::export::session_witness_record(&witness.fields);
    let reply = service.handle_line(&format!("INGEST quickstart/hello-request {record}"));
    println!("INGEST quickstart/hello-request {record}\n  -> {reply}");
    assert!(reply.starts_with("OK "));
    assert_eq!(service.handle_line("DRAIN"), "OK drained");
    let served = service
        .query_text("quickstart", None, None)
        .expect("query answers");
    assert_eq!(
        served.lines().collect::<Vec<_>>(),
        matrix.to_text().lines().collect::<Vec<_>>(),
        "served matrix is bit-identical to the batch mini-sweep"
    );
    assert_eq!(service.stats().replays, sweep_stats.replayed);
    let again = service.handle_line(&format!("INGEST quickstart/hello-request {record}"));
    assert!(again.contains("dup"), "{again}");
    assert_eq!(
        service.stats().replays,
        sweep_stats.replayed,
        "re-ingesting a known witness replays nothing"
    );
    println!(
        "QUERY quickstart -> {} matrix line(s), bit-identical to the \
         mini-sweep; re-ingest -> {again} with zero new replays.",
        served.lines().count(),
    );

    // 7. Trusting the pruning (step 10): every Unsat verdict behind the
    //    discoveries above carried a certificate, and the checker
    //    installed at the top validated each one as it was produced.
    let (checked, wall) = achilles_solver::proof_audit_stats();
    assert!(
        checked > 0,
        "the discovery pruned paths, so certificates were checked"
    );
    println!(
        "\n== certificates (proof audit) ==\n{checked} unsat certificate(s) \
         independently checked in {:.3}s — every pruned path carries a \
         validated refutation.",
        wall.as_secs_f64(),
    );

    // 8. Instrumenting the run (step 11): everything above — discovery,
    //    mini-sweep, fork-server, service requests — recorded spans and
    //    counters through `achilles-obs`. Print a one-screen metrics
    //    snapshot, ask the service for its live METRICS, and write the
    //    Chrome trace.
    println!("\n== observability (metrics + trace) ==");
    let snapshot = achilles_obs::global().render();
    let one_screen = [
        "achilles_solver_queries_total",
        "achilles_solver_sat_total",
        "achilles_solver_unsat_total",
        "achilles_solver_cache_hits_total",
        "achilles_solver_core_subsumption_hits_total",
        "achilles_explore_runs_total",
        "achilles_explore_completed_total",
        "achilles_fork_",
        "achilles_sweep_",
    ];
    for line in snapshot.lines() {
        if line.starts_with('#') || one_screen.iter().any(|p| line.starts_with(p)) {
            println!("  {line}");
        }
    }
    let metrics_reply = service.handle_line("METRICS");
    assert!(metrics_reply.starts_with("OK "), "{metrics_reply}");
    println!(
        "fleetd METRICS -> {} line(s) (the same counters, served live).",
        metrics_reply.lines().count() - 1,
    );
    drop(service); // joins the executors, flushing their span buffers
    achilles_obs::drain_thread();
    let trace_path = std::env::temp_dir().join("achilles_quickstart_trace.json");
    achilles_obs::write_chrome_trace(&trace_path).expect("write quickstart trace");
    println!(
        "trace: {} — load it in Perfetto or chrome://tracing.",
        trace_path.display(),
    );
}
