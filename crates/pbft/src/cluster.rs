//! Deterministic PBFT cluster simulation — the MAC-attack impact demo.
//!
//! Reproduces the §6.3 scenario: "Clients can send messages with incorrect
//! authenticators. The first replica to receive the client request does not
//! verify any of the authenticators. It forwards the message to other
//! replicas, which discover the incorrect authenticator, but cannot know
//! whether the original client or the first replica have corrupted the
//! message. In order to guarantee progress, they initiate an expensive
//! recovery protocol, which impacts performance."
//!
//! Costs are charged to a logical clock so the throughput collapse is
//! deterministic: a normal three-phase agreement costs
//! [`ClusterConfig::agreement_cost_us`]; a recovery (view-change plus
//! signed-retransmission round) costs [`ClusterConfig::recovery_cost_us`],
//! two orders of magnitude more — mirroring the "expensive recovery
//! protocol" of Clement et al. \[10\].

use achilles_netsim::{SimClock, SimTime};

use crate::mac::N_REPLICAS;
use crate::protocol::PbftRequest;

/// Cluster cost model.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Cost of one normal-case agreement (pre-prepare/prepare/commit), µs.
    pub agreement_cost_us: u64,
    /// Cost of the recovery protocol triggered by a bad authenticator, µs.
    pub recovery_cost_us: u64,
    /// Whether request authentication is verified before forwarding.
    /// Models the fix of Clement et al. \[10\]: clients sign requests, and a
    /// signature — unlike a MAC vector — is *transferable*, so the primary
    /// can validate the whole authenticator up front (modeled as checking
    /// every MAC). `false` reproduces the vulnerability.
    pub primary_verifies_macs: bool,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            agreement_cost_us: 100,
            recovery_cost_us: 20_000,
            primary_verifies_macs: false,
        }
    }
}

/// Outcome of submitting one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Ordered and executed through the normal three-phase path.
    Executed,
    /// Dropped by the primary (only with the MAC-verification patch).
    DroppedByPrimary,
    /// Backups rejected the authenticator: expensive recovery ran, then the
    /// request was executed via the signed slow path.
    RecoveredThenExecuted,
}

/// Aggregate cluster statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClusterStats {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests executed on the fast path.
    pub fast_path: u64,
    /// Requests that triggered recovery.
    pub recoveries: u64,
    /// Requests dropped by the (patched) primary.
    pub dropped: u64,
}

/// A deterministic 4-replica PBFT cluster.
#[derive(Clone, Debug)]
pub struct PbftCluster {
    config: ClusterConfig,
    clock: SimClock,
    stats: ClusterStats,
    executed_log: Vec<(u16, u16)>, // (cid, rid) in execution order
}

impl PbftCluster {
    /// A fresh cluster.
    pub fn new(config: ClusterConfig) -> PbftCluster {
        PbftCluster {
            config,
            clock: SimClock::new(),
            stats: ClusterStats::default(),
            executed_log: Vec::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Statistics so far.
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// The executed (cid, rid) log.
    pub fn executed(&self) -> &[(u16, u16)] {
        &self.executed_log
    }

    /// Submits one client request to the primary.
    pub fn submit(&mut self, req: &PbftRequest) -> SubmitOutcome {
        self.stats.submitted += 1;

        // Patched primary: validate the (transferable) client credential —
        // any corrupted authenticator is detected before forwarding.
        if self.config.primary_verifies_macs && !(0..N_REPLICAS).all(|r| req.mac_valid_for(r)) {
            self.stats.dropped += 1;
            return SubmitOutcome::DroppedByPrimary;
        }

        // Vulnerable primary: forward blindly. Backups (replicas 1..N)
        // verify their own authenticator.
        let backups_ok = (1..N_REPLICAS).all(|r| req.mac_valid_for(r));
        if backups_ok && req.mac_valid_for(0) {
            self.clock.advance_micros(self.config.agreement_cost_us);
            self.stats.fast_path += 1;
            self.executed_log.push((req.cid, req.rid));
            return SubmitOutcome::Executed;
        }

        // A backup saw a bad authenticator: it cannot tell whether the
        // client or the primary is faulty — run the expensive recovery
        // (view change + signed retransmission), then execute.
        self.clock.advance_micros(self.config.recovery_cost_us);
        self.stats.recoveries += 1;
        self.executed_log.push((req.cid, req.rid));
        SubmitOutcome::RecoveredThenExecuted
    }

    /// Throughput so far, requests per simulated second.
    pub fn throughput(&self) -> f64 {
        let secs = self.now().as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.executed_log.len() as f64 / secs
    }
}

/// Runs a workload of `total` requests where every `attack_period`-th
/// request carries a corrupted authenticator; returns the cluster.
///
/// With `attack_period == 0` no request is corrupted (the healthy
/// baseline).
pub fn run_workload(config: ClusterConfig, total: u64, attack_period: u64) -> PbftCluster {
    let mut cluster = PbftCluster::new(config);
    for i in 0..total {
        let cid = (i % 4) as u16;
        let rid = (i / 4 + 1) as u16;
        let req = PbftRequest::correct(cid, rid, *b"op__");
        let req = if attack_period != 0 && i % attack_period == 0 {
            req.with_corrupted_mac(1)
        } else {
            req
        };
        cluster.submit(&req);
    }
    cluster
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_workload_is_fast() {
        let cluster = run_workload(ClusterConfig::default(), 1000, 0);
        assert_eq!(cluster.stats().fast_path, 1000);
        assert_eq!(cluster.stats().recoveries, 0);
        let tput = cluster.throughput();
        assert!(
            (tput - 10_000.0).abs() < 1.0,
            "100µs per op → 10k ops/s, got {tput}"
        );
    }

    #[test]
    fn mac_attack_collapses_throughput() {
        // 10% corrupted requests: each costs 200× a normal agreement.
        let healthy = run_workload(ClusterConfig::default(), 1000, 0);
        let attacked = run_workload(ClusterConfig::default(), 1000, 10);
        assert_eq!(attacked.stats().recoveries, 100);
        let ratio = healthy.throughput() / attacked.throughput();
        assert!(
            ratio > 10.0,
            "one corrupt client slows everyone: healthy {} vs attacked {} (ratio {ratio:.1})",
            healthy.throughput(),
            attacked.throughput()
        );
    }

    #[test]
    fn patched_primary_stops_the_attack() {
        let config = ClusterConfig {
            primary_verifies_macs: true,
            ..ClusterConfig::default()
        };
        let attacked = run_workload(config, 1000, 10);
        assert_eq!(
            attacked.stats().recoveries,
            0,
            "bad MACs die at the primary"
        );
        assert_eq!(attacked.stats().dropped, 100);
        // Correct clients' requests proceed at full speed.
        let healthy_portion = attacked.stats().fast_path;
        assert_eq!(healthy_portion, 900);
    }

    #[test]
    fn single_corruption_triggers_one_recovery() {
        let mut cluster = PbftCluster::new(ClusterConfig::default());
        let good = PbftRequest::correct(0, 1, *b"op__");
        assert_eq!(cluster.submit(&good), SubmitOutcome::Executed);
        let bad = PbftRequest::correct(0, 2, *b"op__").with_corrupted_mac(3);
        assert_eq!(cluster.submit(&bad), SubmitOutcome::RecoveredThenExecuted);
        assert_eq!(cluster.stats().recoveries, 1);
        assert_eq!(cluster.executed(), &[(0, 1), (0, 2)]);
    }
}
