//! The [`Solver`] facade: query caching and statistics on top of the search
//! engine.
//!
//! Achilles issues highly repetitive queries — the server path constraint
//! grows one conjunct at a time, and each extension is re-checked against
//! many client path predicates — so a result cache keyed on the (sorted)
//! assertion set pays for itself immediately. Terms are immutable and
//! interned, which makes the cache sound.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cache::SharedCache;
use crate::certificate::{proof_audit, Certificate};
use crate::hash::FastMap;
use crate::model::Model;
use crate::search::{solve, SatResult, SearchStats, SolverConfig};
use crate::term::{TermId, TermPool};

/// Aggregate statistics across all queries of a [`Solver`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverStats {
    /// Total queries issued (including cache hits).
    pub queries: u64,
    /// Queries answered from the local cache.
    pub cache_hits: u64,
    /// Queries answered from the attached [`SharedCache`] (a result another
    /// worker computed).
    pub shared_hits: u64,
    /// Queries whose sorted/deduplicated key was reused without allocating
    /// (the incremental fast path).
    pub presorted_queries: u64,
    /// Satisfiable answers (computed, not cached).
    pub sat: u64,
    /// Unsatisfiable answers (computed, not cached), each carrying a
    /// freshly recorded certificate.
    pub unsat: u64,
    /// Unknown answers (computed, not cached).
    pub unknown: u64,
    /// Queries answered by the shared cache's core-subsumption tier: no
    /// exact entry existed, but the query's fingerprint set contained a
    /// cached unsat core.
    pub core_subsumption_hits: u64,
    /// Total time spent in the search engine.
    pub solve_time: Duration,
    /// Sum of search-internal counters.
    pub search: SearchStats,
}

impl SolverStats {
    /// Every counter as its `achilles_solver_*` series. All are
    /// [`Wall`](achilles_obs::Class::Wall): which tier answers a query,
    /// and so how many full searches run, moves with the worker count and
    /// with the subsumption index, and at two workers even the query count
    /// can differ.
    fn series(&self) -> [(&'static str, u64); 17] {
        let search = &self.search;
        [
            ("achilles_solver_queries_total", self.queries),
            ("achilles_solver_cache_hits_total", self.cache_hits),
            ("achilles_solver_shared_hits_total", self.shared_hits),
            (
                "achilles_solver_presorted_queries_total",
                self.presorted_queries,
            ),
            ("achilles_solver_sat_total", self.sat),
            ("achilles_solver_unsat_total", self.unsat),
            ("achilles_solver_unknown_total", self.unknown),
            (
                "achilles_solver_core_subsumption_hits_total",
                self.core_subsumption_hits,
            ),
            ("achilles_solver_search_decisions_total", search.decisions),
            (
                "achilles_solver_search_propagations_total",
                search.propagations,
            ),
            (
                "achilles_solver_search_deferred_checks_total",
                search.deferred_checks,
            ),
            (
                "achilles_solver_search_verification_failures_total",
                search.verification_failures,
            ),
            (
                "achilles_solver_search_certificate_steps_total",
                search.certificate_steps,
            ),
            ("achilles_solver_search_normalized_total", search.normalized),
            (
                "achilles_solver_search_literals_asserted_total",
                search.literals_asserted,
            ),
            (
                "achilles_solver_search_clause_evals_total",
                search.clause_evals,
            ),
            (
                "achilles_solver_solve_time_ns_total",
                self.solve_time.as_nanos() as u64,
            ),
        ]
    }
}

#[derive(Clone)]
enum Cached {
    Sat(Arc<Model>),
    Unsat(Arc<Certificate>),
    Unknown,
}

impl Cached {
    fn to_result(&self) -> SatResult {
        match self {
            Cached::Sat(m) => SatResult::Sat(Arc::clone(m)),
            Cached::Unsat(c) => SatResult::Unsat(Arc::clone(c)),
            Cached::Unknown => SatResult::Unknown,
        }
    }
}

/// A caching satisfiability interface over a [`TermPool`].
///
/// Its work reaches the metrics registry once: [`Solver::fold_metrics`]
/// adds what was not folded yet, and dropping the solver folds the rest.
///
/// # Examples
///
/// ```
/// use achilles_solver::{Solver, TermPool, Width};
///
/// let mut pool = TermPool::new();
/// let mut solver = Solver::new();
/// let x = pool.fresh("x", Width::W8);
/// let c = pool.constant(9, Width::W8);
/// let lt = pool.ult(x, c);
/// assert!(solver.is_sat(&mut pool, &[lt]));
/// assert!(solver.is_sat(&mut pool, &[lt])); // second call hits the cache
/// assert_eq!(solver.stats().cache_hits, 1);
/// ```
#[derive(Default)]
pub struct Solver {
    config: SolverConfig,
    stats: SolverStats,
    /// The stats as of the last [`Solver::fold_metrics`].
    folded: SolverStats,
    cache: FastMap<Vec<TermId>, Cached>,
    shared: Option<Arc<SharedCache>>,
}

impl Solver {
    /// Creates a solver with default configuration.
    pub fn new() -> Solver {
        Solver::default()
    }

    /// Creates a solver with a custom configuration.
    pub fn with_config(config: SolverConfig) -> Solver {
        let mut solver = Solver::default();
        solver.config = config;
        solver
    }

    /// Attaches a cross-worker [`SharedCache`]: misses in the local cache
    /// consult it before searching, and computed results are published to it.
    pub fn with_shared_cache(mut self, shared: Arc<SharedCache>) -> Solver {
        self.shared = Some(shared);
        self
    }

    /// The attached shared cache, if any.
    pub fn shared_cache(&self) -> Option<&Arc<SharedCache>> {
        self.shared.as_ref()
    }

    /// The configuration in use.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Adds the work done since the last fold to the process-wide metrics
    /// registry ([`achilles_obs::global`]). Every counter moves only with
    /// a query, so a solver that answered nothing new takes no lock.
    pub fn fold_metrics(&mut self) {
        use achilles_obs::Class::Wall;
        if self.stats.queries == self.folded.queries {
            return;
        }
        let reg = achilles_obs::global();
        for ((name, now), (_, was)) in self.stats.series().into_iter().zip(self.folded.series()) {
            reg.add(Wall, name, &[], now.saturating_sub(was));
        }
        self.folded = self.stats;
    }

    /// Clears the query cache (statistics are kept).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Number of cached query results.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Decides the conjunction of `assertions`.
    pub fn check(&mut self, pool: &mut TermPool, assertions: &[TermId]) -> SatResult {
        self.stats.queries += 1;
        // Fast path: server path constraints grow one conjunct at a time, so
        // the assertion slice is usually already sorted and unique — look it
        // up by reference before paying for the owned, sorted key.
        let presorted = assertions.windows(2).all(|w| w[0] < w[1]);
        if presorted {
            self.stats.presorted_queries += 1;
            if let Some(hit) = self.cache.get(assertions) {
                self.stats.cache_hits += 1;
                return hit.to_result();
            }
        }
        let key: Vec<TermId> = if presorted {
            assertions.to_vec()
        } else {
            let mut key = assertions.to_vec();
            key.sort_unstable();
            key.dedup();
            key
        };
        if !presorted {
            if let Some(hit) = self.cache.get(&key) {
                self.stats.cache_hits += 1;
                return hit.to_result();
            }
        }
        // Second tier: a result another worker already computed.
        let shared_key = if self.shared.is_some() {
            Some(SharedCache::key_of(pool, &key))
        } else {
            None
        };
        if let (Some(shared), Some(skey)) = (self.shared.as_ref(), shared_key.as_ref()) {
            if let Some(result) = shared.lookup(pool, skey) {
                self.stats.shared_hits += 1;
                let cached = match &result {
                    SatResult::Sat(m) => Cached::Sat(Arc::clone(m)),
                    SatResult::Unsat(c) => Cached::Unsat(Arc::clone(c)),
                    SatResult::Unknown => Cached::Unknown,
                };
                self.cache.insert(key, cached);
                return result;
            }
            // Third tier: core subsumption. No exact entry, but if the query
            // contains a cached unsat core it is unsat — the cached
            // certificate proves it (its core is a subset of this query's
            // assertions, so it validates here unchanged). Not re-published
            // to the shared cache: the index entry already covers every
            // superset.
            if let Some(cert) = shared.lookup_subsumed(skey) {
                self.stats.core_subsumption_hits += 1;
                if let Err(e) = proof_audit(pool, &key, &cert) {
                    panic!("subsumption-derived certificate rejected: {e}");
                }
                self.cache.insert(key, Cached::Unsat(Arc::clone(&cert)));
                return SatResult::Unsat(cert);
            }
        }
        let started = Instant::now();
        // Canonical structural order for the search: pool-local `TermId`s
        // depend on interning order (which, under parallel exploration,
        // depends on the schedule a worker happened to run), and the search's
        // clause/variable tie-breaks follow assertion order. Sorting by
        // structural fingerprint makes the computed model a function of the
        // query alone, so structurally equal queries yield identical models
        // on every worker.
        let mut ordered = key.clone();
        ordered.sort_unstable_by_key(|&t| pool.term_fp(t));
        let (result, search_stats) = solve(pool, &ordered, &self.config);
        self.stats.solve_time += started.elapsed();
        self.stats.search.decisions += search_stats.decisions;
        self.stats.search.propagations += search_stats.propagations;
        self.stats.search.deferred_checks += search_stats.deferred_checks;
        self.stats.search.verification_failures += search_stats.verification_failures;
        self.stats.search.certificate_steps += search_stats.certificate_steps;
        self.stats.search.normalized += search_stats.normalized;
        self.stats.search.literals_asserted += search_stats.literals_asserted;
        self.stats.search.clause_evals += search_stats.clause_evals;
        let cached = match &result {
            SatResult::Sat(m) => {
                self.stats.sat += 1;
                Cached::Sat(Arc::clone(m))
            }
            SatResult::Unsat(c) => {
                self.stats.unsat += 1;
                if let Err(e) = proof_audit(pool, &ordered, c) {
                    panic!("freshly computed certificate rejected: {e}");
                }
                Cached::Unsat(Arc::clone(c))
            }
            SatResult::Unknown => {
                self.stats.unknown += 1;
                Cached::Unknown
            }
        };
        if let (Some(shared), Some(skey)) = (self.shared.as_ref(), shared_key) {
            shared.insert(pool, skey, &result);
        }
        self.cache.insert(key, cached);
        result
    }

    /// Whether the conjunction is satisfiable (`Unknown` counts as `false`).
    pub fn is_sat(&mut self, pool: &mut TermPool, assertions: &[TermId]) -> bool {
        self.check(pool, assertions).is_sat()
    }

    /// Whether the conjunction is provably unsatisfiable.
    pub fn is_unsat(&mut self, pool: &mut TermPool, assertions: &[TermId]) -> bool {
        self.check(pool, assertions).is_unsat()
    }

    /// A model of the conjunction, if satisfiable (shared, never cloned).
    pub fn model(&mut self, pool: &mut TermPool, assertions: &[TermId]) -> Option<Arc<Model>> {
        match self.check(pool, assertions) {
            SatResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

impl Drop for Solver {
    fn drop(&mut self) {
        self.fold_metrics();
    }
}

impl std::fmt::Debug for Solver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Solver")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .field("cache_len", &self.cache.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::width::Width;

    #[test]
    fn cache_hit_on_repeat_query() {
        let mut pool = TermPool::new();
        let mut s = Solver::new();
        let x = pool.fresh("x", Width::W8);
        let c = pool.constant(3, Width::W8);
        let eq = pool.eq(x, c);
        assert!(s.is_sat(&mut pool, &[eq]));
        assert!(s.is_sat(&mut pool, &[eq]));
        assert_eq!(s.stats().queries, 2);
        assert_eq!(s.stats().cache_hits, 1);
        assert_eq!(s.stats().sat, 1);
    }

    #[test]
    fn cache_key_is_order_insensitive() {
        let mut pool = TermPool::new();
        let mut s = Solver::new();
        let x = pool.fresh("x", Width::W8);
        let c1 = pool.constant(1, Width::W8);
        let c9 = pool.constant(9, Width::W8);
        let a = pool.ult(c1, x);
        let b = pool.ult(x, c9);
        assert!(s.is_sat(&mut pool, &[a, b]));
        assert!(s.is_sat(&mut pool, &[b, a]));
        assert_eq!(s.stats().cache_hits, 1);
    }

    #[test]
    fn unsat_cached_too() {
        let mut pool = TermPool::new();
        let mut s = Solver::new();
        let x = pool.fresh("x", Width::W8);
        let c = pool.constant(0, Width::W8);
        let lt = pool.ult(x, c); // x < 0: unsat (folds to false already)
        assert!(s.is_unsat(&mut pool, &[lt]));
        assert!(s.is_unsat(&mut pool, &[lt]));
        assert_eq!(s.stats().unsat, 1);
    }

    #[test]
    fn model_round_trips_through_eval() {
        let mut pool = TermPool::new();
        let mut s = Solver::new();
        let x = pool.fresh("x", Width::W16);
        let y = pool.fresh("y", Width::W16);
        let sum = pool.add(x, y);
        let c = pool.constant(100, Width::W16);
        let eq = pool.eq(sum, c);
        let m = s.model(&mut pool, &[eq]).expect("x + y == 100 is sat");
        assert_eq!(m.eval(&pool, eq), Some(1));
    }
}
