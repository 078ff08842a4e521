//! The FSP [`TargetSpec`]: one registration point from discovery to replay.
//!
//! [`FspSpec`] describes one FSP scenario — the utilities analyzed, the
//! clients' glob model and the server's patch toggles — and exposes the
//! client utilities, the server program, and the concrete deployment
//! factory through the protocol-agnostic trait, so registry-driven tooling
//! (`--target fsp`) runs the §6.2 analysis without naming FSP in code, and
//! every other driver runs it through the same
//! [`AchillesSession`](achilles::AchillesSession).
//! [`FspTarget`] is the concrete deployment the factory boots: a stateful
//! server endpoint over [`Network`]/[`SimFs`], previously hand-assembled
//! inside the replay harness.

use std::sync::Arc;

use achilles::{
    wire_to_fields, Delivery, InjectionOutcome, ReplayTarget, SessionSlot, SessionSpec,
    SnapshotReplayTarget, TargetSpec, TrojanReport,
};
use achilles_netsim::{Addr, Network, SimFs};
use achilles_symvm::{MessageLayout, NodeProgram};

use crate::analysis::{classify, expected_length_mismatch_trojans};
use crate::client::{FspClient, FspClientConfig};
use crate::oracle::client_can_generate;
use crate::protocol::{layout, Command, FspMessage};
use crate::runtime::FspServerRuntime;
use crate::server::{FspServer, FspServerConfig};
use crate::session::{
    expected_session_trojans, login_layout, FspLoginClient, FspSessionServer, FspSessionTarget,
    LOGIN_CLIENT_TOKEN_CAP, LOGIN_MAX_USER, LOGIN_SERVER_TOKEN_CAP,
};
use crate::TrojanFamily;

/// The FSP deployment target: a stateful server endpoint over
/// [`Network`]/[`SimFs`].
#[derive(Clone, Debug)]
pub struct FspTarget {
    /// Server configuration (patch toggles must match the analyzed server).
    pub server: FspServerConfig,
    /// Whether client generability models glob expansion.
    pub glob_expansion: bool,
    /// Initial filesystem contents, `(path, data)` pairs.
    pub initial_files: Vec<(String, Vec<u8>)>,
}

impl FspTarget {
    /// A target mirroring a spec's server and client glob model, with a
    /// small canned filesystem so commands have state to act on.
    pub fn new(server: FspServerConfig, glob_expansion: bool) -> FspTarget {
        FspTarget {
            server,
            glob_expansion,
            initial_files: vec![
                ("/f1".to_string(), b"one".to_vec()),
                ("/f2".to_string(), b"two".to_vec()),
            ],
        }
    }

    fn boot_endpoint(&self) -> (Network, FspServerRuntime, Addr) {
        let mut fs = SimFs::new();
        for (path, data) in &self.initial_files {
            fs.write(path, data).expect("initial file writes succeed");
        }
        let mut net = Network::new();
        let server_addr = Addr::new("fspd");
        let client_addr = Addr::new("replay-cli");
        net.register(server_addr.clone());
        net.register(client_addr.clone());
        let server = FspServerRuntime::new(server_addr, fs, self.server.clone());
        (net, server, client_addr)
    }

    pub(crate) fn family_effect(fields: &[u64]) -> Option<String> {
        let report = TrojanReport {
            server_path_id: 0,
            constraints: vec![],
            witness_fields: fields.to_vec(),
            active_clients: 0,
            verified: false,
            found_at: std::time::Duration::ZERO,
            notes: vec![],
        };
        match classify(&report) {
            TrojanFamily::LengthMismatch {
                cmd,
                reported,
                actual,
            } => Some(format!(
                "family:len-mismatch:{}:{}>{}",
                cmd.utility_name(),
                reported,
                actual
            )),
            TrojanFamily::Wildcard { cmd } => {
                Some(format!("family:wildcard:{}", cmd.utility_name()))
            }
            TrojanFamily::Other => None,
        }
    }
}

impl ReplayTarget for FspTarget {
    fn name(&self) -> &'static str {
        "fsp"
    }

    fn slot_layouts(&self) -> Vec<Arc<MessageLayout>> {
        vec![layout()]
    }

    fn slot_benign_fields(&self, _slot: usize) -> Vec<u64> {
        let cmd = self
            .server
            .commands
            .first()
            .copied()
            .unwrap_or(Command::GetDir);
        FspMessage::request(cmd, b"f1").field_values()
    }

    fn slot_generable(&self, _slot: usize, fields: &[u64]) -> bool {
        let msg = FspMessage::from_field_values(fields);
        client_can_generate(&msg, self.glob_expansion)
    }

    fn boot(&self) -> Box<dyn SnapshotReplayTarget + '_> {
        Box::new(FspForkSession::boot(self, false))
    }
}

/// The booted FSP deployment behind both FSP targets: one server endpoint
/// fed deliveries one at a time, with an optional login gate in front.
/// `FspServerRuntime::clone` is the deep copy of the server; what boot
/// fixes sits behind an `Arc`, so a clone copies only what a delivery can
/// change.
#[derive(Clone)]
pub(crate) struct FspForkSession {
    net: Network,
    server: FspServerRuntime,
    client_addr: Arc<Addr>,
    /// Root listing at boot — `finish` diffs against it.
    before: Arc<[String]>,
    /// `Some(logged_in)` when the login gate is active (the session
    /// target); `None` for the single-message target.
    login: Option<bool>,
}

impl FspForkSession {
    pub(crate) fn boot(target: &FspTarget, login_gate: bool) -> FspForkSession {
        let (net, server, client_addr) = target.boot_endpoint();
        let before = server.fs().list("/").unwrap_or_default().into();
        FspForkSession {
            net,
            server,
            client_addr: Arc::new(client_addr),
            before,
            login: login_gate.then_some(false),
        }
    }
}

impl SnapshotReplayTarget for FspForkSession {
    fn deliver(&mut self, delivery: &Delivery, outcome: &mut InjectionOutcome) {
        let (wire, is_witness) = delivery;
        let login_len = 3usize; // user (1 B) + token (2 B)
        if let Some(logged_in) = self.login {
            if wire.len() == login_len {
                let Ok(fields) = wire_to_fields(&login_layout(), wire) else {
                    outcome.accepted_each.push(false);
                    outcome.effects.push("login:malformed".to_string());
                    return;
                };
                let (user, token) = (fields[0], fields[1]);
                let accepted = user < LOGIN_MAX_USER && token < LOGIN_SERVER_TOKEN_CAP;
                outcome.accepted_each.push(accepted);
                if !accepted {
                    outcome.effects.push("login:rejected".to_string());
                    return;
                }
                self.login = Some(true);
                outcome.effects.push("login:ok".to_string());
                if *is_witness && token >= LOGIN_CLIENT_TOKEN_CAP {
                    // Triage family: a session no correct client opened.
                    outcome.effects.push("family:forged-login".to_string());
                }
                return;
            }
            if !logged_in {
                outcome.accepted_each.push(false);
                outcome.effects.push("rejected:no-login".to_string());
                return;
            }
        }
        let accepted_before = self.server.accepted;
        let server_addr = self.server.addr().clone();
        self.net
            .send(Addr::clone(&self.client_addr), server_addr, wire.clone());
        self.server.poll(&mut self.net);
        outcome
            .accepted_each
            .push(self.server.accepted > accepted_before);
        while let Some(reply) = self.net.recv(&self.client_addr) {
            let code = if reply.payload.first() == Some(&0) {
                "ok"
            } else {
                "err"
            };
            outcome.effects.push(format!("reply:{code}"));
        }
        if *is_witness {
            if let Ok(msg) = FspMessage::from_wire(wire) {
                if let Some(family) = FspTarget::family_effect(&msg.field_values()) {
                    outcome.effects.push(family);
                }
            }
        }
    }

    fn finish(&mut self, outcome: &mut InjectionOutcome) {
        let after = self.server.fs().list("/").unwrap_or_default();
        for name in &after {
            if !self.before.contains(name) {
                outcome.effects.push(format!("fs:+{name}"));
            }
        }
        for name in self.before.iter() {
            if !after.contains(name) {
                outcome.effects.push(format!("fs:-{name}"));
            }
        }
    }
}

/// The FSP protocol as a [`TargetSpec`]: one scenario of the §6.2–6.3
/// experiments.
///
/// The spec's client programs are the login utility and the configured
/// utilities, the servers carry the configured patch toggles, and the
/// replay factory boots an [`FspTarget`] (or, for the login→command
/// session, an [`FspSessionTarget`]) mirroring both. The spec holds no
/// pipeline knob: the [`AchillesSession`](achilles::AchillesSession) that
/// runs it owns workers, optimizations and witness verification.
#[derive(Clone, Debug)]
pub struct FspSpec {
    /// Utilities/commands analyzed (default: the paper's eight).
    pub commands: Vec<Command>,
    /// Client-side config (glob expansion on/off).
    pub client: FspClientConfig,
    /// Server-side config (bug patches for control experiments).
    pub server: FspServerConfig,
}

impl Default for FspSpec {
    fn default() -> FspSpec {
        FspSpec {
            commands: Command::ANALYSIS_SET.to_vec(),
            client: FspClientConfig::default(),
            server: FspServerConfig::default(),
        }
    }
}

impl FspSpec {
    /// The §6.2 accuracy setup: eight utilities, no glob modeling (isolates
    /// the 80 mismatched-length classes) — the registry default.
    pub fn accuracy() -> FspSpec {
        FspSpec::default()
    }

    /// The §6.3 wildcard setup: glob expansion modeled, so literal `*`
    /// becomes un-generable and the wildcard family appears.
    pub fn wildcard() -> FspSpec {
        FspSpec {
            client: FspClientConfig {
                glob_expansion: true,
                ..FspClientConfig::default()
            },
            ..FspSpec::default()
        }
    }

    /// Restricts the analysis to `n` commands (smaller, faster runs).
    pub fn with_commands(mut self, n: usize) -> FspSpec {
        self.commands.truncate(n.max(1));
        // The server must dispatch the same subset or client messages for
        // missing commands would all become trivially Trojan.
        self.server.commands = self.commands.clone();
        self
    }

    /// The utilities the login→command session exercises: a two-command
    /// slice of the analysis set keeps the session exploration (login tree
    /// × command tree) proportionate while still covering both Trojan
    /// families.
    pub fn session_commands(&self) -> &[Command] {
        let n = self.commands.len().min(2);
        &self.commands[..n]
    }

    /// The analyzed server configuration narrowed to the session commands.
    fn session_server_config(&self) -> FspServerConfig {
        FspServerConfig {
            commands: self.session_commands().to_vec(),
            ..self.server.clone()
        }
    }
}

/// The single message's name: one command request.
const COMMAND: &str = "command";
/// The declared session's name.
const LOGIN_COMMAND: &str = "login-command";

impl TargetSpec for FspSpec {
    fn name(&self) -> &'static str {
        "fsp"
    }

    fn description(&self) -> &'static str {
        "FSP 2.8.1b26 file transfer: mismatched-length and wildcard Trojans (§6.2–6.3)"
    }

    fn clients(&self) -> Vec<Box<dyn NodeProgram + Sync + '_>> {
        // Index 0 is the login utility; 1.. are the command utilities (the
        // session's commands are a prefix of them).
        let mut clients: Vec<Box<dyn NodeProgram + Sync + '_>> = vec![Box::new(FspLoginClient)];
        clients.extend(self.commands.iter().map(|&cmd| {
            Box::new(FspClient::new(cmd, self.client.clone())) as Box<dyn NodeProgram + Sync>
        }));
        clients
    }

    fn message(&self) -> SessionSpec {
        let commands = self.commands.len();
        let slot = SessionSlot::new(COMMAND, layout(), (1..=commands).collect());
        SessionSpec {
            // Exact only for the parse-only length-mismatch model; wildcard
            // runs add one report per exact-length accepting path.
            expected_trojans: (!self.client.glob_expansion)
                .then(|| expected_length_mismatch_trojans(commands)),
            ..SessionSpec::new(COMMAND, vec![slot])
        }
    }

    fn sessions(&self) -> Vec<SessionSpec> {
        let commands = self.session_commands();
        vec![SessionSpec::new(
            LOGIN_COMMAND,
            vec![
                SessionSlot::new("login", login_layout(), vec![0]),
                SessionSlot::new("command", layout(), (1..=commands.len()).collect()),
            ],
        )
        // Every accepting session path hosts at least the forged-login
        // Trojan, so the count is the accepting-path census — exact for
        // both the accuracy and the wildcard client models.
        .expecting(expected_session_trojans(commands.len()))]
    }

    fn session_server(&self, session: &str) -> Box<dyn NodeProgram + Sync + '_> {
        if session == LOGIN_COMMAND {
            Box::new(FspSessionServer::new(self.session_server_config()))
        } else {
            Box::new(FspServer::new(self.server.clone()))
        }
    }

    fn session_replay_target(&self, session: &str) -> Box<dyn ReplayTarget> {
        let glob = self.client.glob_expansion;
        if session == LOGIN_COMMAND {
            Box::new(FspSessionTarget::new(self.session_server_config(), glob))
        } else {
            Box::new(FspTarget::new(self.server.clone(), glob))
        }
    }

    fn classify(&self, report: &TrojanReport) -> String {
        match classify(report) {
            TrojanFamily::LengthMismatch { .. } => "len-mismatch".to_string(),
            TrojanFamily::Wildcard { .. } => "wildcard".to_string(),
            TrojanFamily::Other => "other".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{LOGIN_CLIENT_TOKEN_CAP, LOGIN_MAX_USER, LOGIN_SERVER_TOKEN_CAP};
    use achilles::AchillesSession;

    #[test]
    fn spec_session_matches_the_legacy_pipeline() {
        // Pin the session against the original hand-wired pipeline,
        // rebuilt inline here (as paxos's twin test does), so a behavioral
        // divergence in `AchillesSession` cannot hide behind the session.
        use achilles::{prepare_client_workers, run_trojan_search, FieldMask, Optimizations};
        use achilles_solver::{Solver, TermPool};
        use achilles_symvm::{ExploreConfig, SymMessage};

        let spec = FspSpec::accuracy().with_commands(2);
        let legacy = {
            let mut pool = TermPool::new();
            let mut solver = Solver::new();
            let client = crate::client::extract_client_predicate(
                &mut pool,
                &mut solver,
                &spec.commands,
                &spec.client,
                &ExploreConfig::default(),
            );
            let server_msg = SymMessage::fresh(&mut pool, &layout(), "msg");
            let prepared = prepare_client_workers(
                &mut pool,
                &mut solver,
                client,
                server_msg,
                FieldMask::none(),
                Optimizations::default(),
                1,
            );
            run_trojan_search(
                &mut pool,
                &mut solver,
                &[&prepared],
                &FspServer::new(spec.server.clone()),
                ExploreConfig::default(),
                Optimizations::default(),
                true,
            )
        };
        let report = AchillesSession::new(&spec).run();
        assert_eq!(report.trojans.len(), legacy.reports.len());
        let fields = |ts: &[TrojanReport]| {
            ts.iter()
                .map(|t| (t.server_path_id, t.witness_fields.clone(), t.verified))
                .collect::<Vec<_>>()
        };
        assert_eq!(fields(&report.trojans), fields(&legacy.reports));
        assert_eq!(report.server_paths, legacy.server_paths);
        assert_eq!(spec.message().expected_trojans, Some(report.trojans.len()));
    }

    #[test]
    fn declared_session_discovers_forged_logins_and_attributes_slots() {
        let spec = FspSpec::accuracy();
        let mut session = AchillesSession::new(&spec);
        let reports = session.run_sessions();
        assert_eq!(reports.len(), 1, "one declared session");
        let r = &reports[0];
        assert_eq!(r.session, "login-command");
        assert_eq!(r.slot_names, vec!["login", "command"]);
        assert_eq!(Some(r.trojans.len()), r.expected_trojans);
        let mut saw_command_slot = false;
        for (t, slots) in r.trojans.iter().zip(&r.trojan_slots) {
            assert!(
                slots.contains(&0),
                "every accepting session path hosts the forged login"
            );
            saw_command_slot |= slots.contains(&1);
            let parts = r.split_fields(&t.witness_fields);
            let (user, token) = (parts[0][0], parts[0][1]);
            assert!(user < LOGIN_MAX_USER);
            assert!(
                (LOGIN_CLIENT_TOKEN_CAP..LOGIN_SERVER_TOKEN_CAP).contains(&token),
                "login token {token} in the server-only window"
            );
        }
        assert!(
            saw_command_slot,
            "NUL paths additionally host the mismatched-length command Trojan"
        );
    }

    #[test]
    fn replay_factory_mirrors_the_analyzed_server() {
        let mut spec = FspSpec::accuracy().with_commands(1);
        spec.server.check_actual_length = true;
        let target = spec.session_replay_target(COMMAND);
        assert_eq!(target.name(), "fsp");
        // A benign request is generable; the patched server still boots.
        assert!(target.slot_generable(0, &target.slot_benign_fields(0)));
    }
}
