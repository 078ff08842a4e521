//! The PBFT replica node program (request-validation slice).
//!
//! One primary-replica event-loop iteration: receive a client request,
//! validate it, and either initiate agreement (emit `Pre_prepare` — the
//! paper's accept marker: "We considered a message to be accepted when the
//! replica generates a Pre_prepare message") or execute it directly
//! (read-only requests).
//!
//! The checks mirror what the paper observed (§6.2): "Surprisingly, PBFT
//! replicas make few checks on the data received from clients. They verify
//! that request ids are recent and have not already been handled, verify
//! that the client id is in a set of known clients and also check if the
//! flags field marks the request as read-only." **The primary never
//! verifies the authenticators** — the MAC-attack vulnerability [10 in the
//! paper's references]. [`PbftReplicaConfig::verify_macs`] "patches" the
//! bug for control experiments.
//!
//! Local state (the last request id executed per client) is
//! *over-approximated with unconstrained symbolic values*, exactly as the
//! paper does for PBFT's request-history structure (§6.1).

use std::sync::{Arc, OnceLock};

use achilles_solver::Width;
use achilles_symvm::{MessageLayout, NodeProgram, PathResult, SymEnv, SymMessage};

use crate::mac::{N_CLIENTS, N_REPLICAS};
use crate::protocol::{
    layout, COMMAND_LEN, DIGEST_PLACEHOLDER, MAC_PLACEHOLDER, MESSAGE_SIZE, REQUEST_TAG,
};

/// The Pre_prepare message layout (enough structure for the accept marker).
pub fn preprepare_layout() -> Arc<MessageLayout> {
    static LAYOUT: OnceLock<Arc<MessageLayout>> = OnceLock::new();
    Arc::clone(LAYOUT.get_or_init(|| {
        MessageLayout::builder("pre_prepare")
            .field("view", Width::W16)
            .field("seq", Width::W32)
            .field("od", Width::W64)
            .build()
    }))
}

/// Replica configuration.
#[derive(Clone, Debug, Default)]
pub struct PbftReplicaConfig {
    /// Patch for the MAC attack: verify the client's authenticator before
    /// accepting (real PBFT primaries do not — that is the vulnerability).
    pub verify_macs: bool,
}

/// The primary replica as a node program.
#[derive(Clone, Debug, Default)]
pub struct PbftReplica {
    config: PbftReplicaConfig,
}

impl PbftReplica {
    /// A replica with the given configuration.
    pub fn new(config: PbftReplicaConfig) -> PbftReplica {
        PbftReplica { config }
    }
}

impl NodeProgram for PbftReplica {
    fn run(&self, env: &mut SymEnv<'_>) -> PathResult<()> {
        let msg = env.recv(&layout())?;

        // Message-type and framing checks.
        let tag_ok = env.constant(REQUEST_TAG, Width::W16);
        if !env.if_eq(msg.field("tag"), tag_ok)? {
            return Ok(()); // not a request
        }
        let size_ok = env.constant(MESSAGE_SIZE, Width::W32);
        if !env.if_eq(msg.field("size"), size_ok)? {
            return Ok(());
        }
        let cs_ok = env.constant(COMMAND_LEN as u64, Width::W16);
        if !env.if_eq(msg.field("command_size"), cs_ok)? {
            return Ok(());
        }
        // Digest check (bypassed with the predefined constant, as the
        // paper's annotations do).
        let od_ok = env.constant(DIGEST_PLACEHOLDER, Width::W64);
        if !env.if_eq(msg.field("od"), od_ok)? {
            return Ok(());
        }

        // Flags: only the read-only bit is defined.
        let one16 = env.constant(1, Width::W16);
        if env.if_ult(one16, msg.field("extra"))? {
            return Ok(()); // undefined flag bits set
        }

        // The designated replier must exist.
        let nrep = env.constant(N_REPLICAS as u64, Width::W16);
        if !env.if_ult(msg.field("replier"), nrep)? {
            return Ok(());
        }

        // "the client id is in a set of known clients"
        let nclients = env.constant(N_CLIENTS, Width::W16);
        if !env.if_ult(msg.field("cid"), nclients)? {
            return Ok(());
        }

        // "request ids are recent and have not already been handled" — the
        // per-client history is over-approximated symbolic local state.
        let last_rid = env.sym("state.last_rid", Width::W16);
        if !env.if_ult(last_rid, msg.field("rid"))? {
            return Ok(()); // stale or duplicate request id
        }

        // VULNERABILITY: the primary forwards the request without checking
        // any authenticator. With the patch enabled, it verifies its own
        // MAC (bypass constant) first.
        if self.config.verify_macs {
            let mac_ok = env.constant(MAC_PLACEHOLDER, Width::W32);
            for r in 0..N_REPLICAS {
                if !env.if_eq(msg.field(&format!("mac[{r}]")), mac_ok)? {
                    return Ok(());
                }
            }
        }

        let read_only = env.if_eq(msg.field("extra"), one16)?;
        if read_only {
            // Read-only requests execute directly and reply.
            env.note("read-only execute");
            env.mark_accept();
            return Ok(());
        }

        // Initiate agreement: emit Pre_prepare — the accept marker.
        env.note("pre_prepare");
        let pp = {
            let view = env.constant(0, Width::W16);
            let seq = env.sym("state.next_seq", Width::W32);
            let od = msg.field("od");
            SymMessage::new(preprepare_layout(), vec![view, seq, od])
        };
        env.send(pp);
        env.mark_accept();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::PbftRequest;
    use achilles_solver::{Solver, TermPool};
    use achilles_symvm::{Executor, ExploreConfig, Verdict};

    fn explore(config: PbftReplicaConfig) -> (TermPool, achilles_symvm::ExploreResult) {
        let mut pool = TermPool::new();
        let mut solver = Solver::new();
        let (cfg, _msg) = ExploreConfig::with_symbolic_message(&mut pool, &layout(), "msg");
        let result = {
            let mut exec = Executor::new(&mut pool, &mut solver, cfg);
            exec.explore(&PbftReplica::new(config))
        };
        (pool, result)
    }

    #[test]
    fn two_accepting_paths() {
        let (_pool, result) = explore(PbftReplicaConfig::default());
        // Read-only execution and Pre_prepare agreement.
        assert_eq!(result.accepting().count(), 2);
        let notes: Vec<&str> = result
            .accepting()
            .flat_map(|p| p.notes.iter().map(String::as_str))
            .collect();
        assert!(notes.contains(&"pre_prepare"));
        assert!(notes.contains(&"read-only execute"));
    }

    #[test]
    fn concrete_correct_request_accepted() {
        let mut pool = TermPool::new();
        let mut solver = Solver::new();
        // The analysis model uses placeholder digests/MACs; build a matching
        // concrete request.
        let mut req = PbftRequest::correct(1, 5, *b"noop");
        req.od = DIGEST_PLACEHOLDER;
        req.macs = [MAC_PLACEHOLDER as u32; N_REPLICAS];
        let sym = req.to_sym(&mut pool);
        let cfg = ExploreConfig {
            recv_script: vec![sym],
            ..ExploreConfig::default()
        };
        let mut exec = Executor::new(&mut pool, &mut solver, cfg);
        // `state.last_rid` is symbolic, so even a "concrete" run forks on the
        // recency check; explore() both and expect one accept + one reject.
        let result = exec.explore(&PbftReplica::default());
        assert_eq!(result.paths.len(), 2);
        assert_eq!(result.accepting().count(), 1);
    }

    #[test]
    fn wrong_tag_rejected() {
        let mut pool = TermPool::new();
        let mut solver = Solver::new();
        let mut req = PbftRequest::correct(1, 5, *b"noop");
        req.tag = 99;
        req.od = DIGEST_PLACEHOLDER;
        req.macs = [MAC_PLACEHOLDER as u32; N_REPLICAS];
        let sym = req.to_sym(&mut pool);
        let cfg = ExploreConfig {
            recv_script: vec![sym],
            ..ExploreConfig::default()
        };
        let mut exec = Executor::new(&mut pool, &mut solver, cfg);
        let result = exec.run_concrete(&PbftReplica::default());
        assert_eq!(result.paths[0].verdict, Verdict::Reject);
    }

    #[test]
    fn patched_replica_rejects_bad_macs() {
        let mut pool = TermPool::new();
        let mut solver = Solver::new();
        let mut req = PbftRequest::correct(1, 5, *b"noop");
        req.od = DIGEST_PLACEHOLDER;
        req.macs = [MAC_PLACEHOLDER as u32; N_REPLICAS];
        req.macs[1] = 0x1234; // corrupted authenticator
        let sym = req.to_sym(&mut pool);
        let cfg = ExploreConfig {
            recv_script: vec![sym],
            ..ExploreConfig::default()
        };
        let mut exec = Executor::new(&mut pool, &mut solver, cfg);
        let result = exec.run_concrete(&PbftReplica::new(PbftReplicaConfig { verify_macs: true }));
        assert_eq!(result.paths[0].verdict, Verdict::Reject);
    }
}
