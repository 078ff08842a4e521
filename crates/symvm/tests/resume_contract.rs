//! The observer resume contract.
//!
//! A scheduled path carries its observer's state from the fork point that
//! scheduled it, and the run that executes it notifies the observer only
//! past the replayed prefix. Two consequences are pinned here, for the
//! sequential executor and the 4-worker pool:
//!
//! * at every path end, a stateful observer's state equals a fresh
//!   fold over the completed path's constraints (resume + the conjuncts
//!   notified since = the whole path);
//! * `on_constraint` fires exactly once per edge of the path tree, never
//!   again for a replayed conjunct.

use std::collections::HashSet;

use achilles_solver::{Solver, TermId, TermPool, Width};
use achilles_symvm::{
    Executor, ExploreConfig, ExploreResult, ObserverCx, ObserverState, PathObserver, PathRecord,
    PathResult, SymEnv,
};

/// Threshold branches over one word (the later ones forced on the `<`
/// side) interleaved with free boolean branches: every level of the tree
/// has real forks and some have forced conjuncts in the replayed prefix.
fn tree_program(env: &mut SymEnv<'_>) -> PathResult<()> {
    let x = env.sym("x", Width::W16);
    for i in 0..3u64 {
        let c = env.constant(1000 * (i + 1), Width::W16);
        let _ = env.if_ult(x, c)?;
        let b = env.sym(&format!("b{i}"), Width::BOOL);
        let _ = env.branch(b)?;
    }
    env.mark_accept();
    Ok(())
}

const DIGEST_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one conjunct into a running digest by its structural fingerprint,
/// which is the same in every worker's pool fork.
fn fold(digest: u64, pool: &TermPool, conjunct: TermId) -> u64 {
    let fp = pool.term_fp(conjunct);
    let step = |d: u64, word: u64| (d ^ word).wrapping_mul(0x100_0000_01b3);
    step(step(digest, fp as u64), (fp >> 64) as u64)
}

/// A running digest of the notified conjuncts (the per-path state) plus
/// call and path-end bookkeeping (per observer, not per path).
#[derive(Debug)]
struct DigestObserver {
    digest: u64,
    calls: u64,
    paths: u64,
    mismatches: u64,
}

impl DigestObserver {
    fn new() -> DigestObserver {
        DigestObserver {
            digest: DIGEST_BASIS,
            calls: 0,
            paths: 0,
            mismatches: 0,
        }
    }
}

impl PathObserver for DigestObserver {
    fn fork_state(&self) -> ObserverState {
        vec![self.digest]
    }

    fn resume(&mut self, state: ObserverState) {
        self.digest = state[0];
    }

    fn on_constraint(&mut self, cx: &mut ObserverCx<'_>) -> bool {
        self.calls += 1;
        let newest = *cx.pc.last().expect("a conjunct was just appended");
        self.digest = fold(self.digest, cx.pool, newest);
        true
    }

    fn on_path_end(&mut self, cx: &mut ObserverCx<'_>, record: &PathRecord) {
        let folded = record
            .constraints
            .iter()
            .fold(DIGEST_BASIS, |d, &c| fold(d, cx.pool, c));
        self.paths += 1;
        if folded != self.digest {
            self.mismatches += 1;
        }
    }
}

/// Edges of the path tree: the distinct non-empty constraint prefixes of
/// the completed paths (every run of this program completes).
fn tree_edges(pool: &TermPool, result: &ExploreResult) -> u64 {
    let mut prefixes: HashSet<Vec<u128>> = HashSet::new();
    for path in &result.paths {
        let fps: Vec<u128> = path.constraints.iter().map(|&c| pool.term_fp(c)).collect();
        for len in 1..=fps.len() {
            prefixes.insert(fps[..len].to_vec());
        }
    }
    prefixes.len() as u64
}

/// Explores `tree_program`: returns the path tree's edge count, the
/// observers' summed `calls`, `paths` and `mismatches`, and the number of
/// completed paths.
fn explore(workers: usize) -> (u64, u64, u64, u64, usize) {
    let mut pool = TermPool::new();
    let mut solver = Solver::new();
    let config = ExploreConfig {
        workers,
        ..ExploreConfig::default()
    };
    let mut exec = Executor::new(&mut pool, &mut solver, config);
    let (result, observers) = if workers == 1 {
        let mut observer = DigestObserver::new();
        let result = exec.explore_observed(&tree_program, &mut observer);
        (result, vec![observer])
    } else {
        let outcome = exec.explore_parallel(&tree_program, |_| DigestObserver::new());
        let observers = outcome.workers.into_iter().map(|w| w.observer).collect();
        (outcome.result, observers)
    };
    let sum = |f: fn(&DigestObserver) -> u64| observers.iter().map(f).sum::<u64>();
    (
        tree_edges(&pool, &result),
        sum(|o| o.calls),
        sum(|o| o.paths),
        sum(|o| o.mismatches),
        result.paths.len(),
    )
}

#[test]
fn resumed_state_matches_a_fold_and_each_edge_is_observed_once() {
    for workers in [1, 4] {
        let (edges, calls, ends, mismatches, paths) = explore(workers);
        let label = format!("workers={workers}");
        assert_eq!(paths, 32, "{label}: 4 threshold outcomes x 8 boolean paths");
        assert_eq!(
            ends, 32,
            "{label}: every completed path reached on_path_end"
        );
        assert_eq!(
            mismatches, 0,
            "{label}: a path-end state differed from the fold over its constraints"
        );
        assert_eq!(
            calls, edges,
            "{label}: on_constraint must fire once per path-tree edge"
        );
    }
}
