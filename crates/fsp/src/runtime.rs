//! A concrete FSP deployment over the simulated network.
//!
//! Used by the impact demos (§6.3): a stateful server endpoint processing
//! wire datagrams against a persistent [`SimFs`], and a client-side driver
//! that behaves like the real utilities — including glob expansion, which is
//! exactly what makes the wildcard Trojan nasty in practice.

use achilles_netsim::{glob_match, Addr, Network, SimFs};
use achilles_solver::{Solver, TermPool};
use achilles_symvm::{Executor, ExploreConfig, Verdict};
use std::sync::{Arc, Mutex};

use crate::protocol::{Command, FspMessage, MAX_PATH};
use crate::server::{FspServer, FspServerConfig, ReplyCode};

/// A deployed FSP server endpoint: persistent filesystem, datagram in/out.
#[derive(Debug)]
pub struct FspServerRuntime {
    fs: Arc<Mutex<SimFs>>,
    server: FspServer,
    /// Fixed at deployment, so copies share it.
    addr: Arc<Addr>,
    pool: TermPool,
    solver: Solver,
    /// Messages processed.
    pub handled: u64,
    /// Messages accepted (acted upon).
    pub accepted: u64,
}

impl Clone for FspServerRuntime {
    /// A deep copy, which is what forks a replay session: a fresh
    /// filesystem `Arc` (cloned from the live one) with the server
    /// re-bound onto it, so clone and original evolve independently. The
    /// solver is rebuilt empty — it is a pure query cache, so an empty one
    /// is semantically identical.
    fn clone(&self) -> FspServerRuntime {
        let fs = Arc::new(Mutex::new(
            self.fs.lock().expect("state lock poisoned").clone(),
        ));
        FspServerRuntime {
            server: self.server.deep_clone_onto(Arc::clone(&fs)),
            fs,
            addr: Arc::clone(&self.addr),
            pool: self.pool.clone(),
            solver: Solver::new(),
            handled: self.handled,
            accepted: self.accepted,
        }
    }
}

impl FspServerRuntime {
    /// Deploys a server with the given initial filesystem.
    ///
    /// Unlike the bounded analysis configuration, a deployed server speaks
    /// the full protocol: `Install` is added to the command set if absent.
    pub fn new(addr: Addr, fs: SimFs, mut config: FspServerConfig) -> FspServerRuntime {
        if !config.commands.contains(&Command::Install) {
            config.commands.push(Command::Install);
        }
        let fs = Arc::new(Mutex::new(fs));
        FspServerRuntime {
            server: FspServer::with_fs(config, Arc::clone(&fs)),
            fs,
            addr: Arc::new(addr),
            pool: TermPool::new(),
            solver: Solver::new(),
            handled: 0,
            accepted: 0,
        }
    }

    /// This endpoint's address.
    pub fn addr(&self) -> &Addr {
        &self.addr
    }

    /// A snapshot of the server's filesystem.
    pub fn fs(&self) -> SimFs {
        self.fs.lock().expect("state lock poisoned").clone()
    }

    /// Handles one wire datagram, returning the reply (if the message was
    /// accepted and produced one).
    pub fn handle(&mut self, wire: &[u8]) -> Option<(ReplyCode, Vec<u8>)> {
        self.handled += 1;
        let msg = FspMessage::from_wire(wire).ok()?;
        let sym = msg.to_sym(&mut self.pool);
        let config = ExploreConfig {
            recv_script: vec![sym],
            ..ExploreConfig::default()
        };
        let mut exec = Executor::new(&mut self.pool, &mut self.solver, config);
        let result = exec.run_concrete(&self.server);
        let path = result.paths.first()?;
        if path.verdict != Verdict::Accept {
            return None;
        }
        self.accepted += 1;
        let reply = path.sent.first()?;
        let code = self.pool.as_const(reply.field("code"))?;
        let data: Vec<u8> = (0..MAX_PATH)
            .map(|i| {
                self.pool
                    .as_const(reply.field(&format!("data[{i}]")))
                    .unwrap_or(0) as u8
            })
            .collect();
        let code = if code == ReplyCode::Ok as u64 {
            ReplyCode::Ok
        } else {
            ReplyCode::Err
        };
        Some((code, data))
    }

    /// Drains this endpoint's inbox on `net`, processing every datagram and
    /// replying to the sender.
    pub fn poll(&mut self, net: &mut Network) {
        while let Some(d) = net.recv(&self.addr) {
            let reply = self.handle(&d.payload);
            if let Some((code, data)) = reply {
                let mut payload = vec![code as u8];
                payload.extend(&data);
                net.send(Addr::clone(&self.addr), d.from, payload);
            }
        }
    }
}

/// What a client utility invocation did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UtilityOutcome {
    /// Commands sent for these (possibly glob-expanded) paths.
    Sent(Vec<String>),
    /// The argument expanded to nothing / was empty: nothing sent.
    NothingToDo,
}

/// Runs one correct client utility: glob-expands the argument against the
/// *server's* listing (like `fls`-then-act), then sends one command per
/// resulting path.
///
/// Returns which paths were sent. Mirrors the real utilities' inability to
/// escape `*` (§6.3): if the user's argument contains `*` it is always
/// treated as a pattern.
pub fn run_utility(
    net: &mut Network,
    from: Addr,
    server: &mut FspServerRuntime,
    cmd: Command,
    arg: &str,
) -> UtilityOutcome {
    if arg.is_empty() || arg.len() > MAX_PATH {
        return UtilityOutcome::NothingToDo;
    }
    let paths: Vec<String> = if arg.contains('*') {
        // Glob expansion against the server's root listing — no escape
        // character exists.
        let listing = server.fs().list("/").unwrap_or_default();
        listing
            .into_iter()
            .filter(|name| glob_match(arg, name))
            .collect()
    } else {
        vec![arg.to_string()]
    };
    if paths.is_empty() {
        return UtilityOutcome::NothingToDo;
    }
    for path in &paths {
        let msg = FspMessage::request(cmd, path.as_bytes());
        net.send(from.clone(), server.addr().clone(), msg.to_wire());
    }
    server.poll(net);
    UtilityOutcome::Sent(paths)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deployment() -> (Network, FspServerRuntime, Addr) {
        let mut fs = SimFs::new();
        fs.write("/f1", b"one").unwrap();
        fs.write("/f2", b"two").unwrap();
        let mut net = Network::new();
        let addr = Addr::new("fspd");
        net.register(addr.clone());
        net.register(Addr::new("cli"));
        let server = FspServerRuntime::new(addr, fs, FspServerConfig::default());
        (net, server, Addr::new("cli"))
    }

    #[test]
    fn plain_remove_works() {
        let (mut net, mut server, cli) = deployment();
        let out = run_utility(&mut net, cli, &mut server, Command::DelFile, "f1");
        assert_eq!(out, UtilityOutcome::Sent(vec!["f1".into()]));
        assert!(!server.fs().exists("/f1"));
        assert!(server.fs().exists("/f2"));
    }

    #[test]
    fn glob_remove_expands() {
        let (mut net, mut server, cli) = deployment();
        let out = run_utility(&mut net, cli, &mut server, Command::DelFile, "f*");
        assert_eq!(out, UtilityOutcome::Sent(vec!["f1".into(), "f2".into()]));
        assert_eq!(server.fs().file_count(), 0);
    }

    #[test]
    fn wildcard_trojan_scenario_from_the_paper() {
        // 1. A Trojan message (injected raw — no correct client can build
        //    it) creates a literal file 'f*'.
        let (mut net, mut server, cli) = deployment();
        let trojan = FspMessage::request(Command::Install, b"f*");
        net.send(cli.clone(), server.addr().clone(), trojan.to_wire());
        server.poll(&mut net);
        assert!(
            server.fs().exists("/f*"),
            "Trojan created the wildcard file"
        );

        // 2. A correct user now tries to delete exactly 'f*': the client
        //    glob-expands, so the command wipes ALL f-prefixed files —
        //    including the precious ones.
        let out = run_utility(&mut net, cli, &mut server, Command::DelFile, "f*");
        assert_eq!(
            out,
            UtilityOutcome::Sent(vec!["f*".into(), "f1".into(), "f2".into()]),
            "no way to name only the wildcard file"
        );
        assert_eq!(
            server.fs().file_count(),
            0,
            "collateral damage: everything deleted"
        );
    }

    #[test]
    fn smuggled_payload_is_ignored_but_accepted() {
        let (mut net, mut server, cli) = deployment();
        let _ = (&mut net, &cli);
        let mut trojan = FspMessage::request(Command::Stat, b"f1");
        trojan.bb_len = 4;
        trojan.buf = [b'f', b'1', 0, 0x99]; // NUL + smuggled byte
        let reply = server.handle(&trojan.to_wire());
        assert!(reply.is_some(), "mismatched-length message accepted");
        assert_eq!(server.accepted, 1);
    }

    #[test]
    fn reply_codes_surface_errors() {
        let (mut net, mut server, cli) = deployment();
        let _ = (&mut net, &cli);
        let msg = FspMessage::request(Command::DelFile, b"none");
        let (code, _) = server.handle(&msg.to_wire()).unwrap();
        assert_eq!(code, ReplyCode::Err, "missing file reports an error");
    }
}
