//! The FSP login→command session: the stateful half of the FSP analysis.
//!
//! Real FSP deployments gate commands behind a first exchange that
//! establishes per-client session state (the `bb_key` handshake). This
//! module models that statefully: the server consumes a **login** message
//! (user id + session token) and only then a command message — one server
//! activation, two receive slots. The login validation carries the
//! session-level S-bug: correct clients request tokens below
//! [`LOGIN_CLIENT_TOKEN_CAP`], but the server accepts anything below
//! [`LOGIN_SERVER_TOKEN_CAP`] — a 10× window of forged-login Trojans that
//! *no single-message analysis of the command slot can see*, because the
//! command slot is exactly as (in)correct as in the single-message model.
//!
//! A session is therefore Trojan in two ways: a forged login (slot 0, on
//! every accepting session path) and the classic mismatched-length command
//! (slot 1, on the NUL paths) — `⋁ₛ ¬genₛ(mₛ)`. The concrete deployment
//! ([`FspSessionTarget`]) replays whole sessions: a login gate in front of
//! the stateful [`FspServerRuntime`](crate::runtime::FspServerRuntime).

use std::sync::{Arc, OnceLock};

use achilles::{ReplayTarget, SnapshotReplayTarget};
use achilles_solver::Width;
use achilles_symvm::{MessageLayout, NodeProgram, PathResult, SymEnv, SymMessage};

use crate::protocol::layout;
use crate::server::{FspServer, FspServerConfig};
use crate::target::{FspForkSession, FspTarget};

/// Number of provisioned user ids (`user < LOGIN_MAX_USER`).
pub const LOGIN_MAX_USER: u64 = 4;

/// Largest session token a correct client ever requests (exclusive).
pub const LOGIN_CLIENT_TOKEN_CAP: u64 = 100;

/// Largest session token the server accepts (exclusive) — the session
/// S-bug: 10× the client cap, so tokens in
/// `[LOGIN_CLIENT_TOKEN_CAP, LOGIN_SERVER_TOKEN_CAP)` are forged logins the
/// server happily establishes sessions for.
pub const LOGIN_SERVER_TOKEN_CAP: u64 = 1000;

/// The login message layout (slot 0 of the session).
pub fn login_layout() -> Arc<MessageLayout> {
    static LAYOUT: OnceLock<Arc<MessageLayout>> = OnceLock::new();
    Arc::clone(LAYOUT.get_or_init(|| {
        MessageLayout::builder("fsp_login")
            .field("user", Width::W8)
            .field("token", Width::W16)
            .build()
    }))
}

/// Expected session-Trojan count for a login→command session over
/// `commands` utilities: one report per accepting session path (every
/// accepting path hosts at least the forged-login Trojan), and per command
/// the accepting census is `Σ_{L=1..4} (L NUL positions + 1 exact) = 14`.
pub fn expected_session_trojans(commands: usize) -> usize {
    14 * commands
}

/// A correct FSP login utility: validated user id, validated token
/// request.
#[derive(Clone, Copy, Debug, Default)]
pub struct FspLoginClient;

impl NodeProgram for FspLoginClient {
    fn run(&self, env: &mut SymEnv<'_>) -> PathResult<()> {
        let user = env.sym_in_range("user", Width::W8, 0, LOGIN_MAX_USER - 1)?;
        let token = env.sym_in_range("token", Width::W16, 0, LOGIN_CLIENT_TOKEN_CAP - 1)?;
        env.send(SymMessage::new(login_layout(), vec![user, token]));
        Ok(())
    }
}

/// Whether a correct client can produce these login field values — the
/// concrete slot-0 oracle.
pub fn login_generable(fields: &[u64]) -> bool {
    let [user, token] = fields else {
        return false;
    };
    *user < LOGIN_MAX_USER && *token < LOGIN_CLIENT_TOKEN_CAP
}

/// The session server: login gate (with the lax token bound), then the
/// ordinary FSP command handler — two `recv`s in one activation.
#[derive(Clone, Debug, Default)]
pub struct FspSessionServer {
    command_server: FspServer,
}

impl FspSessionServer {
    /// A session server whose command slot runs `config`.
    pub fn new(config: FspServerConfig) -> FspSessionServer {
        FspSessionServer {
            command_server: FspServer::new(config),
        }
    }
}

impl NodeProgram for FspSessionServer {
    fn run(&self, env: &mut SymEnv<'_>) -> PathResult<()> {
        let login = env.recv(&login_layout())?;
        let max_user = env.constant(LOGIN_MAX_USER, Width::W8);
        if !env.if_ult(login.field("user"), max_user)? {
            return Ok(()); // unknown user: no session
        }
        // SECURITY BUG (session establishment): the token bound is 10× what
        // any correct client requests, so forged logins open sessions.
        let cap = env.constant(LOGIN_SERVER_TOKEN_CAP, Width::W16);
        if !env.if_ult(login.field("token"), cap)? {
            return Ok(());
        }
        env.note("login-ok");
        // Slot 1: the ordinary command handler (its own bugs included).
        self.command_server.run(env)
    }
}

/// The concrete FSP session deployment: a login gate in front of the
/// stateful server runtime. Deliveries are parsed by wire length (a login
/// datagram is 3 bytes, a command datagram 16); commands before a
/// successful login are rejected.
#[derive(Clone, Debug)]
pub struct FspSessionTarget {
    inner: FspTarget,
}

impl FspSessionTarget {
    /// A session target mirroring the analyzed session server.
    pub fn new(server: FspServerConfig, glob_expansion: bool) -> FspSessionTarget {
        FspSessionTarget {
            inner: FspTarget::new(server, glob_expansion),
        }
    }
}

impl ReplayTarget for FspSessionTarget {
    fn name(&self) -> &'static str {
        "fsp"
    }

    fn slot_layouts(&self) -> Vec<Arc<MessageLayout>> {
        vec![login_layout(), layout()]
    }

    fn slot_benign_fields(&self, slot: usize) -> Vec<u64> {
        if slot == 0 {
            vec![0, 7] // user 0, a small in-range token
        } else {
            self.inner.slot_benign_fields(0)
        }
    }

    fn slot_generable(&self, slot: usize, fields: &[u64]) -> bool {
        if slot == 0 {
            login_generable(fields)
        } else {
            self.inner.slot_generable(0, fields)
        }
    }

    fn boot(&self) -> Box<dyn SnapshotReplayTarget + '_> {
        Box::new(FspForkSession::boot(&self.inner, true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Command, FspMessage};
    use achilles::fields_to_wire;

    fn login_wire(user: u64, token: u64) -> Vec<u8> {
        fields_to_wire(&login_layout(), &[user, token]).unwrap()
    }

    #[test]
    fn forged_login_opens_a_session_no_client_requested() {
        let target = FspSessionTarget::new(FspServerConfig::default(), false);
        let forged = [0u64, 500]; // token in the server-only window
        assert!(!login_generable(&forged), "no client requests token 500");
        let cmd = FspMessage::request(Command::GetDir, b"f1");
        let outcome = target.inject(&[(login_wire(0, 500), true), (cmd.to_wire(), true)]);
        assert_eq!(outcome.accepted_each, vec![true, true]);
        assert!(outcome.effects.contains(&"family:forged-login".to_string()));
    }

    #[test]
    fn commands_before_login_are_rejected() {
        let target = FspSessionTarget::new(FspServerConfig::default(), false);
        let cmd = FspMessage::request(Command::GetDir, b"f1");
        let outcome = target.inject(&[(cmd.to_wire(), true)]);
        assert_eq!(outcome.accepted_each, vec![false]);
        assert!(outcome.effects.contains(&"rejected:no-login".to_string()));
    }

    #[test]
    fn out_of_window_logins_are_rejected() {
        let target = FspSessionTarget::new(FspServerConfig::default(), false);
        let outcome = target.inject(&[(login_wire(0, 2000), true)]);
        assert_eq!(outcome.accepted_each, vec![false]);
        let outcome = target.inject(&[(login_wire(9, 5), true)]);
        assert_eq!(outcome.accepted_each, vec![false]);
    }

    #[test]
    fn session_server_census_matches_the_arithmetic() {
        use achilles_solver::{Solver, TermPool};
        use achilles_symvm::{Executor, ExploreConfig};

        let mut pool = TermPool::new();
        let mut solver = Solver::new();
        let commands = Command::ANALYSIS_SET[..2].to_vec();
        let server = FspSessionServer::new(FspServerConfig {
            commands: commands.clone(),
            ..FspServerConfig::default()
        });
        let login_msg = SymMessage::fresh(&mut pool, &login_layout(), "login");
        let cmd_msg = SymMessage::fresh(&mut pool, &layout(), "cmd");
        let config = ExploreConfig {
            recv_script: vec![login_msg, cmd_msg],
            ..ExploreConfig::default()
        };
        let mut exec = Executor::new(&mut pool, &mut solver, config);
        let result = exec.explore(&server);
        let accepting = result.accepting().count();
        assert_eq!(
            accepting,
            expected_session_trojans(commands.len()),
            "14 accepting session paths per command"
        );
        assert!(result
            .accepting()
            .all(|p| p.notes.contains(&"login-ok".to_string())));
    }
}
