//! The canned FSP Trojan analysis (paper §6.2).
//!
//! Wires the eight client utilities and the server into the Achilles
//! pipeline, classifies the resulting Trojan reports into the two families
//! of §6.3 (mismatched string lengths, wildcard), and provides the paper's
//! counting arithmetic: with path lengths bounded below 5 there are exactly
//! `(1 + 2 + 3 + 4) × 8 = 80` mismatched-length Trojan classes.

use std::time::Duration;

use achilles::{
    prepare_client_workers, run_trojan_search, ClientPredicate, FieldMask, MatchSample,
    Optimizations, PreparedClient, TrojanReport, TrojanSearchStats, WorkerSummary,
};
use achilles_solver::{Solver, TermPool};
use achilles_symvm::{ExploreConfig, ExploreStats, SymMessage};

use crate::client::{extract_client_predicate, FspClientConfig};
use crate::protocol::{layout, Command, FspMessage, MAX_PATH, WILDCARD};
use crate::server::{FspServer, FspServerConfig};

/// Which §6.3 bug a Trojan report exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TrojanFamily {
    /// Real path length shorter than `bb_len` (extra-payload smuggling).
    LengthMismatch {
        /// The command of the witness.
        cmd: Command,
        /// Reported length (`bb_len`).
        reported: usize,
        /// True length (position of the first NUL).
        actual: usize,
    },
    /// A literal `*` in the path (correct clients always glob-expand).
    Wildcard {
        /// The command of the witness.
        cmd: Command,
    },
    /// Neither pattern (unexpected for FSP).
    Other,
}

/// Classifies a Trojan report by inspecting its concrete witness.
pub fn classify(report: &TrojanReport) -> TrojanFamily {
    let msg = FspMessage::from_field_values(&report.witness_fields);
    let cmd = match Command::from_code(msg.cmd) {
        Some(c) => c,
        None => return TrojanFamily::Other,
    };
    let reported = (msg.bb_len as usize).min(MAX_PATH);
    let actual = msg.buf[..reported]
        .iter()
        .position(|&b| b == 0)
        .unwrap_or(reported);
    if actual < reported {
        return TrojanFamily::LengthMismatch {
            cmd,
            reported,
            actual,
        };
    }
    if msg.buf[..actual].contains(&WILDCARD) {
        return TrojanFamily::Wildcard { cmd };
    }
    TrojanFamily::Other
}

/// The number of mismatched-length Trojan classes the bounded protocol
/// admits — the paper's §6.2 arithmetic: for each reported length `L` there
/// are `L` possible true lengths, summed over lengths and the eight
/// utilities: `(1+2+3+4) × 8 = 80`.
pub fn expected_length_mismatch_trojans(commands: usize) -> usize {
    commands * (1..=MAX_PATH).sum::<usize>()
}

/// The number of wildcard Trojan *paths* (one per exact-length accepting
/// path) when glob expansion is modeled: `MAX_PATH × commands`.
pub fn expected_wildcard_trojans(commands: usize) -> usize {
    commands * MAX_PATH
}

/// Configuration of one FSP analysis run.
#[derive(Clone, Debug)]
pub struct FspAnalysisConfig {
    /// Utilities/commands analyzed (default: the paper's eight).
    pub commands: Vec<Command>,
    /// Client-side config (glob expansion on/off).
    pub client: FspClientConfig,
    /// Server-side config (bug patches for control experiments).
    pub server: FspServerConfig,
    /// Optimization toggles.
    pub optimizations: Optimizations,
    /// Verify each witness against every client path predicate.
    pub verify_witnesses: bool,
    /// Worker threads for the server analysis (1 = sequential).
    pub workers: usize,
}

impl Default for FspAnalysisConfig {
    fn default() -> FspAnalysisConfig {
        FspAnalysisConfig {
            commands: Command::ANALYSIS_SET.to_vec(),
            client: FspClientConfig::default(),
            server: FspServerConfig::default(),
            optimizations: Optimizations::default(),
            verify_witnesses: true,
            workers: 1,
        }
    }
}

impl FspAnalysisConfig {
    /// The §6.2 accuracy setup: eight utilities, no glob modeling (isolates
    /// the 80 mismatched-length classes), full optimizations, verification.
    pub fn accuracy() -> FspAnalysisConfig {
        FspAnalysisConfig::default()
    }

    /// The §6.3 wildcard setup: glob expansion modeled, so literal `*`
    /// becomes un-generable and the wildcard family appears.
    pub fn wildcard() -> FspAnalysisConfig {
        FspAnalysisConfig {
            client: FspClientConfig {
                glob_expansion: true,
                ..FspClientConfig::default()
            },
            ..FspAnalysisConfig::default()
        }
    }

    /// Fans the server analysis out over `n` work-stealing workers.
    pub fn with_workers(mut self, n: usize) -> FspAnalysisConfig {
        self.workers = n.max(1);
        self
    }

    /// Restricts the analysis to `n` commands (smaller, faster runs).
    pub fn with_commands(mut self, n: usize) -> FspAnalysisConfig {
        self.commands.truncate(n.max(1));
        // The server must dispatch the same subset or client messages for
        // missing commands would all become trivially Trojan.
        self.server.commands = self.commands.clone();
        self
    }
}

/// Everything one FSP analysis produces.
#[derive(Debug)]
pub struct FspAnalysisResult {
    /// The merged client predicate.
    pub client: ClientPredicate,
    /// The symbolic server message.
    pub server_msg: SymMessage,
    /// Trojan reports in discovery order.
    pub trojans: Vec<TrojanReport>,
    /// Per-report family classification (parallel to `trojans`).
    pub families: Vec<TrojanFamily>,
    /// Time gathering the client predicate.
    pub client_time: Duration,
    /// Time pre-processing (negations + differentFrom).
    pub preprocess_time: Duration,
    /// Time analyzing the server.
    pub server_time: Duration,
    /// Figure 11 samples.
    pub samples: Vec<MatchSample>,
    /// Search counters.
    pub search_stats: TrojanSearchStats,
    /// Server exploration counters.
    pub explore_stats: ExploreStats,
    /// Completed (non-pruned) server paths.
    pub server_paths: usize,
    /// Per-worker server-analysis breakdown (one entry when sequential).
    pub worker_stats: Vec<WorkerSummary>,
}

impl FspAnalysisResult {
    /// Reports in the mismatched-length family.
    pub fn length_mismatches(&self) -> usize {
        self.families
            .iter()
            .filter(|f| matches!(f, TrojanFamily::LengthMismatch { .. }))
            .count()
    }

    /// Reports in the wildcard family.
    pub fn wildcards(&self) -> usize {
        self.families
            .iter()
            .filter(|f| matches!(f, TrojanFamily::Wildcard { .. }))
            .count()
    }

    /// Reports classified as neither family (should be zero for FSP).
    pub fn others(&self) -> usize {
        self.families
            .iter()
            .filter(|f| matches!(f, TrojanFamily::Other))
            .count()
    }

    /// Reports whose witness failed client-side verification (false
    /// positives if any existed).
    pub fn unverified(&self) -> usize {
        self.trojans.iter().filter(|t| !t.verified).count()
    }
}

/// Runs the full FSP analysis pipeline (client → preprocess → server) on a
/// fresh pool and solver.
///
/// Deprecated shim: this predates the protocol-agnostic API and now
/// delegates to [`AchillesSession`](achilles::AchillesSession) over
/// [`FspSpec`](crate::FspSpec); prefer driving the session (or the
/// registry) directly in new code.
pub fn run_analysis(config: &FspAnalysisConfig) -> FspAnalysisResult {
    let spec = crate::target::FspSpec::new(config.clone());
    let report = achilles::AchillesSession::new(&spec).run();
    let families = report.trojans.iter().map(classify).collect();
    FspAnalysisResult {
        client: report.client,
        server_msg: report.server_msg,
        trojans: report.trojans,
        families,
        client_time: report.phase_times.client,
        preprocess_time: report.phase_times.preprocess,
        server_time: report.phase_times.server,
        samples: report.samples,
        search_stats: report.search_stats,
        explore_stats: report.server_explore,
        server_paths: report.server_paths,
        worker_stats: report.server_workers,
    }
}

/// [`run_analysis`] against caller-provided pool/solver (lets benches share
/// warm caches or inspect terms afterwards).
pub fn run_analysis_with(
    pool: &mut TermPool,
    solver: &mut Solver,
    config: &FspAnalysisConfig,
) -> FspAnalysisResult {
    use std::time::Instant;
    let t0 = Instant::now();
    let client = extract_client_predicate(
        pool,
        solver,
        &config.commands,
        &config.client,
        &ExploreConfig::default(),
    );
    let t1 = Instant::now();
    let server_msg = SymMessage::fresh(pool, &layout(), "msg");
    let prepared: PreparedClient = prepare_client_workers(
        pool,
        solver,
        client,
        server_msg.clone(),
        FieldMask::none(),
        config.optimizations,
        config.workers.max(1),
    );
    let t2 = Instant::now();
    let explore = ExploreConfig {
        workers: config.workers.max(1),
        ..ExploreConfig::default()
    };
    let outcome = run_trojan_search(
        pool,
        solver,
        &[&prepared],
        &FspServer::new(config.server.clone()),
        explore,
        config.optimizations,
        config.verify_witnesses,
    );
    let t3 = Instant::now();
    let families = outcome.reports.iter().map(classify).collect();
    FspAnalysisResult {
        client: prepared.client.clone(),
        server_msg,
        trojans: outcome.reports,
        families,
        client_time: t1 - t0,
        preprocess_time: t2 - t1,
        server_time: t3 - t2,
        samples: outcome.samples,
        search_stats: outcome.stats,
        explore_stats: outcome.explore,
        server_paths: outcome.server_paths,
        worker_stats: outcome.workers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_command_accuracy_run_finds_all_length_trojans() {
        // Scaled-down accuracy experiment: 2 commands → 2 × (1+2+3+4) = 20
        // mismatched-length Trojans, zero false positives.
        let config = FspAnalysisConfig::accuracy().with_commands(2);
        let result = run_analysis(&config);
        assert_eq!(result.client.len(), 2 * MAX_PATH);
        assert_eq!(result.trojans.len(), expected_length_mismatch_trojans(2));
        assert_eq!(result.length_mismatches(), 20);
        assert_eq!(result.wildcards(), 0);
        assert_eq!(result.others(), 0);
        assert_eq!(result.unverified(), 0, "no false positives (Table 1)");
    }

    #[test]
    fn wildcard_mode_discovers_the_glob_bug() {
        let config = FspAnalysisConfig::wildcard().with_commands(1);
        let result = run_analysis(&config);
        assert_eq!(
            result.length_mismatches(),
            expected_length_mismatch_trojans(1)
        );
        assert_eq!(result.wildcards(), expected_wildcard_trojans(1));
        assert_eq!(result.others(), 0);
        assert_eq!(result.unverified(), 0);
    }

    #[test]
    fn patched_server_has_no_length_trojans() {
        let mut config = FspAnalysisConfig::accuracy().with_commands(1);
        config.server.check_actual_length = true;
        let result = run_analysis(&config);
        assert_eq!(result.length_mismatches(), 0, "patch closes the family");
        assert_eq!(result.trojans.len(), 0);
    }

    #[test]
    fn fully_patched_server_in_wildcard_mode_is_clean() {
        let mut config = FspAnalysisConfig::wildcard().with_commands(1);
        config.server.check_actual_length = true;
        config.server.reject_wildcards = true;
        let result = run_analysis(&config);
        assert_eq!(result.trojans.len(), 0, "both patches close all Trojans");
    }

    #[test]
    fn samples_show_predicate_narrowing() {
        let config = FspAnalysisConfig::accuracy().with_commands(2);
        let result = run_analysis(&config);
        assert!(!result.samples.is_empty());
        let max_match = result.samples.iter().map(|s| s.matching).max().unwrap();
        let min_match = result.samples.iter().map(|s| s.matching).min().unwrap();
        assert_eq!(
            max_match,
            result.client.len(),
            "short paths match everything"
        );
        assert!(min_match < max_match, "long paths match fewer predicates");
        // Deep samples never match more than shallow ones on average
        // (Figure 11's downward trend).
        let shallow: Vec<_> = result
            .samples
            .iter()
            .filter(|s| s.path_len <= 2)
            .map(|s| s.matching)
            .collect();
        let deep: Vec<_> = result
            .samples
            .iter()
            .filter(|s| s.path_len >= 8)
            .map(|s| s.matching)
            .collect();
        let avg = |v: &[usize]| v.iter().sum::<usize>() as f64 / v.len().max(1) as f64;
        assert!(avg(&deep) < avg(&shallow), "matching decreases with depth");
    }

    #[test]
    fn classification_reads_witnesses() {
        let mut msg = FspMessage::request(Command::DelFile, b"ab");
        msg.bb_len = 3;
        msg.buf = [b'a', 0, b'x', 0];
        let report = TrojanReport {
            server_path_id: 0,
            constraints: vec![],
            witness_fields: msg.field_values(),
            active_clients: 0,
            verified: true,
            found_at: Duration::ZERO,
            notes: vec![],
        };
        assert_eq!(
            classify(&report),
            TrojanFamily::LengthMismatch {
                cmd: Command::DelFile,
                reported: 3,
                actual: 1
            }
        );
        let star = FspMessage::request(Command::Stat, b"a*");
        let report2 = TrojanReport {
            witness_fields: star.field_values(),
            ..report
        };
        assert_eq!(
            classify(&report2),
            TrojanFamily::Wildcard { cmd: Command::Stat }
        );
    }
}
