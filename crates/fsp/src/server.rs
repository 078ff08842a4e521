//! The FSP server node program.
//!
//! One event-loop iteration of the FSP daemon: receive a command datagram,
//! validate it, perform the requested filesystem action, reply. The model
//! follows the real fspd control flow at the decision level and contains
//! **both Trojan vulnerabilities** the paper found (§6.3):
//!
//! * **Mismatched string lengths** — the server locates the end of the file
//!   path by scanning for NUL but never checks that the scan length equals
//!   `bb_len`; messages whose real path is shorter than `bb_len` are
//!   accepted, letting senders smuggle arbitrary extra payload.
//! * **Wildcard asymmetry** — the server treats `*` as an ordinary path
//!   character, although correct clients always glob-expand it and can
//!   therefore never send it in a source path.
//!
//! Setting [`FspServerConfig::check_actual_length`] /
//! [`FspServerConfig::reject_wildcards`] "patches" either bug, which the
//! tests use to show the corresponding Trojans disappear.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use achilles_netsim::SimFs;
use achilles_solver::Width;
use achilles_symvm::{MessageLayout, NodeProgram, PathResult, SymEnv, SymMessage};

use crate::protocol::{
    layout, Command, BYPASS_VALUE, MAX_PATH, PRINTABLE_MAX, PRINTABLE_MIN, WILDCARD,
};

/// Reply codes sent by the concrete server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplyCode {
    /// Action performed.
    Ok = 0,
    /// Action failed (missing file, etc.).
    Err = 1,
}

/// The reply message layout (code + up to four data bytes).
pub fn reply_layout() -> Arc<MessageLayout> {
    static LAYOUT: OnceLock<Arc<MessageLayout>> = OnceLock::new();
    Arc::clone(LAYOUT.get_or_init(|| {
        MessageLayout::builder("fsp_reply")
            .field("code", Width::W8)
            .byte_array("data", MAX_PATH)
            .build()
    }))
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct FspServerConfig {
    /// Commands the server dispatches on.
    pub commands: Vec<Command>,
    /// Patch for the mismatched-length bug: reject paths whose NUL-scan
    /// length differs from `bb_len`.
    pub check_actual_length: bool,
    /// Patch for the wildcard bug: reject `*` in received paths.
    pub reject_wildcards: bool,
    /// Depth of state-dependent processing after a *well-formed* path is
    /// parsed (directory walks, cache lookups, block arithmetic in the real
    /// fspd). Each level branches on server-local state, so vanilla
    /// symbolic execution explores `2^depth` continuations per valid parse
    /// — the subtrees Achilles' Trojan-set pruning skips (Figure 7). Zero
    /// (the default) keeps the parse-only model of the accuracy experiment.
    pub post_parse_branching: usize,
}

impl Default for FspServerConfig {
    fn default() -> FspServerConfig {
        FspServerConfig {
            commands: Command::ANALYSIS_SET.to_vec(),
            check_actual_length: false,
            reject_wildcards: false,
            post_parse_branching: 0,
        }
    }
}

/// The FSP server node program.
///
/// In symbolic analyses the filesystem is absent and accepting paths stop at
/// the accept marker — exactly where the paper places its markers ("at the
/// point where it invokes system calls to make changes to its local file
/// system"). With [`FspServer::with_fs`], concrete runs additionally perform
/// the filesystem action and send a reply, which the impact demos use.
#[derive(Clone, Debug, Default)]
pub struct FspServer {
    /// Fixed for the server's life, so copies share it.
    config: Arc<FspServerConfig>,
    fs: Option<Arc<Mutex<SimFs>>>,
    protections: Arc<Mutex<HashMap<String, u8>>>,
}

impl FspServer {
    /// A server for symbolic analysis (no filesystem effects).
    pub fn new(config: FspServerConfig) -> FspServer {
        FspServer {
            config: Arc::new(config),
            fs: None,
            protections: Arc::default(),
        }
    }

    /// A concrete server operating on `fs`.
    pub fn with_fs(config: FspServerConfig, fs: Arc<Mutex<SimFs>>) -> FspServer {
        FspServer {
            config: Arc::new(config),
            fs: Some(fs),
            protections: Arc::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &FspServerConfig {
        &self.config
    }

    /// A genuinely independent copy of this server operating on `fs`.
    ///
    /// The derived `Clone` aliases the filesystem and protection-table
    /// `Arc`s (fine for sharing one live server); forking a replay session
    /// needs the opposite — deep copies that evolve independently. The caller
    /// supplies the already-deep-copied filesystem handle; the protection
    /// table is deep-copied here.
    pub fn deep_clone_onto(&self, fs: Arc<Mutex<SimFs>>) -> FspServer {
        let protections = self
            .protections
            .lock()
            .expect("protection table lock")
            .clone();
        FspServer {
            config: Arc::clone(&self.config),
            fs: Some(fs),
            protections: Arc::new(Mutex::new(protections)),
        }
    }

    fn handle_command(
        &self,
        env: &mut SymEnv<'_>,
        cmd: Command,
        msg: &SymMessage,
    ) -> PathResult<()> {
        env.note(format!("cmd={}", cmd.utility_name()));
        let len = msg.field("bb_len");

        // The datagram length pins bb_len: fspd validates the header length
        // against the UDP packet size, so each reported length is its own
        // path.
        let mut reported: Option<usize> = None;
        for l in 1..=MAX_PATH {
            let lc = env.constant(l as u64, Width::W16);
            if env.if_eq(len, lc)? {
                reported = Some(l);
                break;
            }
        }
        let reported = match reported {
            Some(l) => l,
            None => return Ok(()), // len == 0 or len > MAX_PATH: drop
        };
        env.note(format!("len={reported}"));

        // Scan the path: NUL terminates early, other bytes must be printable.
        let zero = env.constant(0, Width::W8);
        let pmin = env.constant(u64::from(PRINTABLE_MIN), Width::W8);
        let pmax = env.constant(u64::from(PRINTABLE_MAX), Width::W8);
        let star = env.constant(u64::from(WILDCARD), Width::W8);
        let mut actual = reported;
        for i in 0..reported {
            let b = msg.field(&format!("buf[{i}]"));
            if env.if_eq(b, zero)? {
                actual = i;
                break;
            }
            if env.if_ult(b, pmin)? {
                return Ok(()); // unprintable: drop
            }
            if env.if_ult(pmax, b)? {
                return Ok(());
            }
            if self.config.reject_wildcards && env.if_eq(b, star)? {
                return Ok(()); // patched server refuses wildcards
            }
        }
        if actual < reported {
            env.note(format!("nul_at={actual}"));
            // SECURITY BUG (mismatched string lengths): the real length is
            // shorter than bb_len, yet the message is processed; bytes
            // buf[actual+1..reported] travel as unvalidated extra payload.
            if self.config.check_actual_length {
                return Ok(()); // patched server drops the message
            }
        } else {
            env.note("exact");
            // Well-formed path: the server now does real work against its
            // local state (directory lookups, cache checks, …). Each level
            // branches on server-local conditions, not on the message, so
            // the subtree carries no new Trojan opportunities — exactly the
            // kind of exploration the incremental search prunes away.
            for level in 0..self.config.post_parse_branching {
                let state_bit = env.sym(&format!("state.proc{level}"), Width::BOOL);
                let _ = env.branch(state_bit)?;
            }
        }

        // The message passed parsing: the server acts on it. This is where
        // the paper sets its accept markers.
        env.mark_accept();
        self.perform(env, cmd, msg, actual)?;
        Ok(())
    }

    /// Executes the filesystem action and replies (concrete runs only).
    fn perform(
        &self,
        env: &mut SymEnv<'_>,
        cmd: Command,
        msg: &SymMessage,
        actual_len: usize,
    ) -> PathResult<()> {
        let fs = match &self.fs {
            Some(fs) => Arc::clone(fs),
            None => return Ok(()), // symbolic analysis: stop at the marker
        };
        // Extract the concrete path (the wildcard stays literal: the server
        // has no globbing).
        let mut bytes = Vec::with_capacity(actual_len);
        for i in 0..actual_len {
            match env.pool().as_const(msg.field(&format!("buf[{i}]"))) {
                Some(b) => bytes.push(b as u8),
                None => return Ok(()), // symbolic path: nothing to execute
            }
        }
        let path = format!("/{}", String::from_utf8_lossy(&bytes));
        let mut fs = fs.lock().expect("state lock poisoned");
        let (code, data) = match cmd {
            Command::GetDir => match fs.list(&path) {
                Ok(entries) => (ReplyCode::Ok, entries.len() as u64),
                Err(_) => (ReplyCode::Err, 0),
            },
            Command::GetFile => match fs.read(&path) {
                Ok(content) => (ReplyCode::Ok, content.len() as u64),
                Err(_) => (ReplyCode::Err, 0),
            },
            Command::DelFile => match fs.remove_file(&path) {
                Ok(()) => (ReplyCode::Ok, 0),
                Err(_) => (ReplyCode::Err, 0),
            },
            Command::DelDir => match fs.rmdir(&path) {
                Ok(()) => (ReplyCode::Ok, 0),
                Err(_) => (ReplyCode::Err, 0),
            },
            Command::MakeDir => match fs.mkdir(&path) {
                Ok(()) => (ReplyCode::Ok, 0),
                Err(_) => (ReplyCode::Err, 0),
            },
            Command::GetPro => {
                let bits = *self
                    .protections
                    .lock()
                    .expect("state lock poisoned")
                    .get(&path)
                    .unwrap_or(&0);
                (ReplyCode::Ok, u64::from(bits))
            }
            Command::SetPro => {
                self.protections
                    .lock()
                    .expect("state lock poisoned")
                    .insert(path.clone(), 1);
                (ReplyCode::Ok, 1)
            }
            Command::Stat => {
                if fs.exists(&path) {
                    (ReplyCode::Ok, 1)
                } else {
                    (ReplyCode::Err, 0)
                }
            }
            Command::Install => match fs.write(&path, b"") {
                Ok(()) => (ReplyCode::Ok, 0),
                Err(_) => (ReplyCode::Err, 0),
            },
        };
        drop(fs);
        let reply = {
            let rl = reply_layout();
            let mut values = vec![code as u64];
            values.extend((0..MAX_PATH as u64).map(|i| (data >> (8 * i)) & 0xff));
            SymMessage::concrete(env.pool_mut(), &rl, &values)
        };
        env.send(reply);
        Ok(())
    }
}

impl NodeProgram for FspServer {
    fn run(&self, env: &mut SymEnv<'_>) -> PathResult<()> {
        let msg = env.recv(&layout())?;

        // Bypassed integrity fields: correct traffic carries the constant
        // (paper §6.1's annotation approximation).
        let sum_ok = env.constant(BYPASS_VALUE, Width::W8);
        if !env.if_eq(msg.field("sum"), sum_ok)? {
            return Ok(());
        }
        let key_ok = env.constant(BYPASS_VALUE, Width::W16);
        if !env.if_eq(msg.field("bb_key"), key_ok)? {
            return Ok(());
        }
        if !env.if_eq(msg.field("bb_seq"), key_ok)? {
            return Ok(());
        }
        let pos_ok = env.constant(BYPASS_VALUE, Width::W32);
        if !env.if_eq(msg.field("bb_pos"), pos_ok)? {
            return Ok(());
        }

        // Command dispatch.
        for &cmd in &self.config.commands {
            let code = env.constant(u64::from(cmd.code()), Width::W8);
            if env.if_eq(msg.field("cmd"), code)? {
                return self.handle_command(env, cmd, &msg);
            }
        }
        Ok(()) // unknown command: drop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::FspMessage;
    use achilles_solver::{Solver, TermPool};
    use achilles_symvm::{Executor, ExploreConfig, Verdict};

    fn explore_server(config: FspServerConfig) -> achilles_symvm::ExploreResult {
        let mut pool = TermPool::new();
        let mut solver = Solver::new();
        let (cfg, _msg) = ExploreConfig::with_symbolic_message(&mut pool, &layout(), "msg");
        let mut exec = Executor::new(&mut pool, &mut solver, cfg);
        exec.explore(&FspServer::new(config))
    }

    #[test]
    fn accepting_path_census_matches_the_arithmetic() {
        // Per command: Σ_{L=1..4} (L NUL positions + 1 exact) = 14 accepting
        // paths; eight commands → 112. This is the denominator behind the
        // paper's 80 length-mismatch Trojans (8 × Σ L = 80 of these paths
        // have a NUL before bb_len).
        let result = explore_server(FspServerConfig::default());
        let accepting = result.accepting().count();
        assert_eq!(accepting, 8 * 14, "14 accepting paths per command");
        let nul_paths = result
            .accepting()
            .filter(|p| p.notes.iter().any(|n| n.starts_with("nul_at=")))
            .count();
        assert_eq!(nul_paths, 8 * 10, "the 80 mismatched-length Trojan paths");
    }

    #[test]
    fn patched_length_check_removes_nul_paths() {
        let result = explore_server(FspServerConfig {
            check_actual_length: true,
            ..FspServerConfig::default()
        });
        let nul_paths = result
            .accepting()
            .filter(|p| p.notes.iter().any(|n| n.starts_with("nul_at=")))
            .count();
        assert_eq!(nul_paths, 0);
        assert_eq!(
            result.accepting().count(),
            8 * 4,
            "only exact-length paths remain"
        );
    }

    #[test]
    fn concrete_delete_executes_on_fs() {
        let fs = Arc::new(Mutex::new(SimFs::new()));
        fs.lock()
            .expect("state lock poisoned")
            .write("/ab", b"x")
            .unwrap();
        let server = FspServer::with_fs(FspServerConfig::default(), Arc::clone(&fs));
        let mut pool = TermPool::new();
        let mut solver = Solver::new();
        let msg = FspMessage::request(Command::DelFile, b"ab").to_sym(&mut pool);
        let cfg = ExploreConfig {
            recv_script: vec![msg],
            ..ExploreConfig::default()
        };
        let mut exec = Executor::new(&mut pool, &mut solver, cfg);
        let result = exec.run_concrete(&server);
        assert_eq!(result.paths.len(), 1);
        assert_eq!(result.paths[0].verdict, Verdict::Accept);
        assert!(
            !fs.lock().expect("state lock poisoned").exists("/ab"),
            "file deleted"
        );
        // A reply was sent with code Ok.
        let reply = &result.paths[0].sent[0];
        assert_eq!(
            pool.as_const(reply.field("code")),
            Some(ReplyCode::Ok as u64)
        );
    }

    #[test]
    fn concrete_server_accepts_wildcard_literally() {
        let fs = Arc::new(Mutex::new(SimFs::new()));
        let server = FspServer::with_fs(FspServerConfig::default(), Arc::clone(&fs));
        let mut pool = TermPool::new();
        let mut solver = Solver::new();
        // An attacker-injected message: mkdir "d*".
        let msg = FspMessage::request(Command::MakeDir, b"d*").to_sym(&mut pool);
        let cfg = ExploreConfig {
            recv_script: vec![msg],
            ..ExploreConfig::default()
        };
        let mut exec = Executor::new(&mut pool, &mut solver, cfg);
        let result = exec.run_concrete(&server);
        assert_eq!(result.paths[0].verdict, Verdict::Accept);
        assert!(
            fs.lock().expect("state lock poisoned").exists("/d*"),
            "literal wildcard directory created"
        );
    }

    #[test]
    fn mismatched_length_message_accepted_with_smuggled_payload() {
        let fs = Arc::new(Mutex::new(SimFs::new()));
        fs.lock()
            .expect("state lock poisoned")
            .write("/a", b"x")
            .unwrap();
        let server = FspServer::with_fs(FspServerConfig::default(), Arc::clone(&fs));
        let mut pool = TermPool::new();
        let mut solver = Solver::new();
        let mut trojan = FspMessage::request(Command::DelFile, b"a");
        trojan.bb_len = 4; // claims 4 bytes
        trojan.buf = [b'a', 0, 0xde, 0xad]; // real path "a" + smuggled bytes
        let msg = trojan.to_sym(&mut pool);
        let cfg = ExploreConfig {
            recv_script: vec![msg],
            ..ExploreConfig::default()
        };
        let mut exec = Executor::new(&mut pool, &mut solver, cfg);
        let result = exec.run_concrete(&server);
        assert_eq!(result.paths[0].verdict, Verdict::Accept, "Trojan accepted");
        assert!(
            !fs.lock().expect("state lock poisoned").exists("/a"),
            "and it acted on the truncated path"
        );
    }

    #[test]
    fn bad_integrity_fields_rejected() {
        let fs = Arc::new(Mutex::new(SimFs::new()));
        let server = FspServer::with_fs(FspServerConfig::default(), fs);
        let mut pool = TermPool::new();
        let mut solver = Solver::new();
        let mut bad = FspMessage::request(Command::Stat, b"a");
        bad.bb_key = 7; // wrong key
        let msg = bad.to_sym(&mut pool);
        let cfg = ExploreConfig {
            recv_script: vec![msg],
            ..ExploreConfig::default()
        };
        let mut exec = Executor::new(&mut pool, &mut solver, cfg);
        let result = exec.run_concrete(&server);
        assert_eq!(result.paths[0].verdict, Verdict::Reject);
    }
}
