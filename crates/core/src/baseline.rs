//! Baselines Achilles is compared against (§6.2, §6.4).
//!
//! * [`classic_symex`] — vanilla symbolic execution of the server: enumerate
//!   accepting paths and generate concrete test messages per path. It finds
//!   every message the server accepts but cannot tell Trojan from valid —
//!   the developer must sift (Table 1's 7,520 false positives).
//! * [`a_posteriori_diff`] — the non-incremental differencing of §6.4:
//!   explore the *whole* server first, then difference each accepting path
//!   against the client predicate afterwards. Finds the same Trojans as
//!   Achilles but wastes work on paths that incremental pruning would have
//!   discarded early.

use std::time::{Duration, Instant};

use achilles_solver::{SatResult, Solver, TermId, TermPool};
use achilles_symvm::{Executor, ExploreConfig, ExploreStats, NodeProgram, SymMessage, Verdict};

use crate::predicate::FieldMask;
use crate::report::TrojanReport;
use crate::search::{canonical_witness_fields, PreparedClient};

/// One concrete message produced by classic symbolic execution.
#[derive(Clone, Debug)]
pub struct CandidateMessage {
    /// Id of the accepting server path it triggers.
    pub server_path_id: usize,
    /// Concrete per-field values.
    pub fields: Vec<u64>,
    /// Notes of the server path.
    pub notes: Vec<String>,
}

/// Result of a classic-symbolic-execution run.
#[derive(Clone, Debug, Default)]
pub struct ClassicSymexResult {
    /// Concrete test messages for accepting paths (what the developer must
    /// sift through).
    pub candidates: Vec<CandidateMessage>,
    /// Accepting server paths found.
    pub accepting_paths: usize,
    /// Total completed server paths.
    pub total_paths: usize,
    /// Exploration counters.
    pub explore: ExploreStats,
    /// Wall-clock time.
    pub time: Duration,
}

/// Runs vanilla symbolic execution of the server and enumerates up to
/// `models_per_path` distinct concrete messages per accepting path.
///
/// The per-path enumeration mirrors how a tester would use a classic engine
/// to produce test inputs; distinct models are forced by excluding previous
/// witnesses field-wise (the paper notes SMT solvers "are not designed to
/// enumerate all values that satisfy a given constraint" — each extra model
/// costs a full query).
pub fn classic_symex(
    pool: &mut TermPool,
    solver: &mut Solver,
    server: &(dyn NodeProgram + Sync),
    server_msg: &SymMessage,
    explore_config: &ExploreConfig,
    mask: &FieldMask,
    models_per_path: usize,
) -> ClassicSymexResult {
    let started = Instant::now();
    let mut config = explore_config.clone();
    config.recv_script = vec![server_msg.clone()];
    let result = {
        let mut exec = Executor::new(pool, solver, config);
        exec.explore_multi(server)
    };
    let mut out = ClassicSymexResult {
        total_paths: result.paths.len(),
        explore: result.stats,
        ..ClassicSymexResult::default()
    };
    for path in result.paths.iter().filter(|p| p.verdict == Verdict::Accept) {
        out.accepting_paths += 1;
        let mut query: Vec<TermId> = path.constraints.clone();
        for _ in 0..models_per_path {
            let model = match solver.check(pool, &query) {
                SatResult::Sat(m) => m,
                SatResult::Unsat(_) | SatResult::Unknown => break,
            };
            let fields = server_msg.concretize(pool, &model);
            out.candidates.push(CandidateMessage {
                server_path_id: path.id,
                fields: fields.clone(),
                notes: path.notes.clone(),
            });
            // Exclude this exact message (unmasked fields) and re-solve.
            let mut diffs = Vec::new();
            for (fi, (&sv, &value)) in server_msg.values().iter().zip(&fields).enumerate() {
                if mask.contains(fi) {
                    continue;
                }
                let w = pool.width(sv);
                let c = pool.constant(value, w);
                let ne = pool.ne(sv, c);
                diffs.push(ne);
            }
            let exclusion = pool.or_all(diffs);
            query.push(exclusion);
        }
    }
    out.time = started.elapsed();
    out
}

/// Result of the a-posteriori differencing baseline.
#[derive(Clone, Debug, Default)]
pub struct APosterioriResult {
    /// Trojan reports (same semantics as Achilles' incremental reports).
    pub trojans: Vec<TrojanReport>,
    /// Accepting server paths differenced.
    pub accepting_paths: usize,
    /// Total completed server paths.
    pub total_paths: usize,
    /// Time for the server exploration phase.
    pub explore_time: Duration,
    /// Time for the differencing phase.
    pub diff_time: Duration,
}

/// The non-optimized §6.4 configuration: run unmodified symbolic execution
/// on the server (no observer, no pruning), then compute Trojan messages
/// a posteriori over every accepting path.
///
/// Both phases honor [`ExploreConfig::workers`]: the exploration fans out
/// over the work-stealing pool (as everywhere), and the differencing loop
/// fans the per-path `pathS ∧ ⋀ negate(pathC_i)` queries out over
/// [`parallel_map_with`](achilles_symvm::parallel_map_with) with a forked pool and private solver per worker.
/// Every query is over terms interned *before* the fan-out and each model
/// is a function of its structural assertion set alone, so the Trojan set
/// and witnesses are bit-identical for every worker count (pinned by the
/// `parallel_determinism` suite).
pub fn a_posteriori_diff(
    pool: &mut TermPool,
    solver: &mut Solver,
    server: &(dyn NodeProgram + Sync),
    prepared: &PreparedClient,
    explore_config: &ExploreConfig,
) -> APosterioriResult {
    let t0 = Instant::now();
    let mut config = explore_config.clone();
    config.recv_script = vec![prepared.server_msg.clone()];
    let result = {
        let mut exec = Executor::new(pool, solver, config);
        exec.explore_multi(server)
    };
    let t1 = Instant::now();
    let mut out = APosterioriResult {
        total_paths: result.paths.len(),
        ..APosterioriResult::default()
    };
    let accepting: Vec<_> = result
        .paths
        .iter()
        .filter(|p| p.verdict == Verdict::Accept)
        .collect();
    out.accepting_paths = accepting.len();
    // The full negation conjunction is path-independent; if any client
    // path is un-negatable the whole baseline finds nothing (nothing is
    // dropped — that is exactly what the optimization would have avoided).
    let mut negations = Vec::with_capacity(prepared.negations.len());
    for neg in &prepared.negations {
        match neg.disjunction {
            Some(d) => negations.push(d),
            None => {
                out.explore_time = t1 - t0;
                out.diff_time = t1.elapsed();
                return out;
            }
        }
    }
    // Differencing fan-out. Sequential runs solve on the caller's pool and
    // solver (keeping their warm caches); parallel workers each solve in a
    // fork with a private solver. Fork nonces only salt terms interned
    // *during* a solve, which are discarded with the fork — witnesses
    // depend on the pre-existing query structure alone.
    let witnesses: Vec<Option<Vec<u64>>> = match explore_config.workers.max(1) {
        1 => accepting
            .iter()
            .map(|path| {
                let mut query = path.constraints.clone();
                query.extend_from_slice(&negations);
                match solver.check(pool, &query) {
                    SatResult::Sat(model) => Some(canonical_witness_fields(
                        pool,
                        solver,
                        &query,
                        prepared.server_msg.values(),
                        &model,
                    )),
                    SatResult::Unsat(_) | SatResult::Unknown => None,
                }
            })
            .collect(),
        workers => {
            let base = &*pool;
            achilles_symvm::parallel_map_with(
                workers,
                &accepting,
                |w| (base.fork(DIFF_FORK_SALT + w as u64), Solver::new()),
                |(wpool, wsolver), _i, path| {
                    let mut query = path.constraints.clone();
                    query.extend_from_slice(&negations);
                    match wsolver.check(wpool, &query) {
                        SatResult::Sat(model) => Some(canonical_witness_fields(
                            wpool,
                            wsolver,
                            &query,
                            prepared.server_msg.values(),
                            &model,
                        )),
                        SatResult::Unsat(_) | SatResult::Unknown => None,
                    }
                },
            )
        }
    };
    for (path, fields) in accepting.iter().zip(witnesses) {
        let Some(fields) = fields else { continue };
        out.trojans.push(TrojanReport {
            server_path_id: path.id,
            constraints: path.constraints.clone(),
            witness_fields: fields,
            active_clients: prepared.client.len(),
            verified: false,
            found_at: t0.elapsed(),
            notes: path.notes.clone(),
        });
    }
    out.explore_time = t1 - t0;
    out.diff_time = t1.elapsed();
    out
}

/// Tag-family salt for pools forked by the differencing fan-out (keeps
/// any in-solve interning disjoint from the exploration's fork nonces).
const DIFF_FORK_SALT: u64 = 0x4449_4600; // "DIF\0"

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Achilles, AchillesConfig};
    use crate::predicate::ClientPredicate;
    use crate::search::{prepare_client, Optimizations};
    use achilles_solver::Width;
    use achilles_symvm::{MessageLayout, PathResult, SymEnv};
    use std::sync::Arc;

    fn layout() -> Arc<MessageLayout> {
        MessageLayout::builder("kv")
            .field("op", Width::W8)
            .field("key", Width::W16)
            .build()
    }

    fn client(env: &mut SymEnv<'_>) -> PathResult<()> {
        let key = env.sym("key", Width::W16);
        let limit = env.constant(100, Width::W16);
        if !env.if_ult(key, limit)? {
            return Ok(());
        }
        let op = env.constant(1, Width::W8);
        env.send(SymMessage::new(layout(), vec![op, key]));
        Ok(())
    }

    fn server(env: &mut SymEnv<'_>) -> PathResult<()> {
        let msg = env.recv(&layout())?;
        let one = env.constant(1, Width::W8);
        if !env.if_eq(msg.field("op"), one)? {
            return Ok(());
        }
        let limit = env.constant(200, Width::W16);
        if !env.if_ult(msg.field("key"), limit)? {
            return Ok(());
        }
        env.mark_accept();
        Ok(())
    }

    #[test]
    fn classic_symex_cannot_separate_trojans() {
        let mut pool = TermPool::new();
        let mut solver = Solver::new();
        let server_msg = SymMessage::fresh(&mut pool, &layout(), "msg");
        let result = classic_symex(
            &mut pool,
            &mut solver,
            &server,
            &server_msg,
            &ExploreConfig::default(),
            &FieldMask::none(),
            8,
        );
        assert_eq!(result.accepting_paths, 1);
        assert_eq!(result.candidates.len(), 8, "one model per enumeration step");
        // The candidates mix valid (key < 100) and Trojan (100 <= key < 200)
        // messages — precisely the sifting problem of Table 1.
        assert!(result.candidates.iter().all(|c| c.fields[1] < 200));
    }

    #[test]
    fn a_posteriori_matches_incremental_achilles() {
        // Incremental (Achilles).
        let mut achilles = Achilles::new();
        let config = AchillesConfig::verified();
        let report = achilles.run(&client, &server, &layout(), &config);
        assert_eq!(report.trojans.len(), 1);

        // A-posteriori baseline, on a fresh engine.
        let mut pool = TermPool::new();
        let mut solver = Solver::new();
        let client_result = {
            let mut exec = Executor::new(&mut pool, &mut solver, ExploreConfig::default());
            exec.explore(&client)
        };
        let pred = ClientPredicate::from_exploration(&client_result);
        let server_msg = SymMessage::fresh(&mut pool, &layout(), "msg");
        let prepared = prepare_client(
            &mut pool,
            &mut solver,
            pred,
            server_msg,
            FieldMask::none(),
            Optimizations::none(),
        );
        let result = a_posteriori_diff(
            &mut pool,
            &mut solver,
            &server,
            &prepared,
            &ExploreConfig::default(),
        );
        assert_eq!(result.trojans.len(), 1);
        let key = result.trojans[0].witness_fields[1];
        assert!((100..200).contains(&key), "same Trojan window: {key}");
    }
}
