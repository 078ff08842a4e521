//! `discover`: one operation is one pass over the whole registry. For
//! each target, in a seed-permuted order, a fresh `AchillesSession` runs
//! `run()`, a second fresh session runs `run_sessions()`, and
//! `validate_spec` replays the Trojans found.
//!
//! Measured runs make 1-worker passes only, so a run holds the 100
//! samples a p90 needs. The traced run alternates 1- and 2-worker
//! passes, which puts the work-stealing pool and its 1-worker bypass
//! under the same host conditions for the `symvm.*_2w` metrics.

use std::time::{Duration, Instant};

use achilles::{AchillesSession, TargetRegistry};
use achilles_replay::{validate_spec, ReplayCorpus, ValidateConfig};
use achilles_targets::builtin_registry;

use crate::expected::Expected;
use crate::metrics::{Metrics, Outcome};
use crate::stats::{ratio, Rng, Samples};
use crate::trace::SelfTimes;
use crate::{bench_span, global_counter, measure, RunConfig, Tally};

/// Measurements of one pass.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Pass {
    /// Every check held.
    pub ok: bool,
    pub wall: Duration,
    /// fsp's `run()` phase times (the registry's dominant target).
    pub fsp_client: Duration,
    pub fsp_preprocess: Duration,
    pub fsp_server: Duration,
    pub fsp_server_cpu: Duration,
    /// Time in `run_sessions`, every target.
    pub sessions: Duration,
    /// Time in `validate_spec`, every target.
    pub validate: Duration,
    /// Counter sums over every target's reports.
    pub trojan_checks: u64,
    pub paths: u64,
    pub infeasible: u64,
    pub branch_checks: u64,
    pub steals: u64,
    pub shared_hits: u64,
    pub subsumption_hits: u64,
    pub certified_unsat: u64,
    /// Deltas of the process-global solver counters.
    pub solver: SolverCounters,
}

/// Solver work the registry counts but no returned struct carries.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SolverCounters {
    pub queries: u64,
    pub local_hits: u64,
    pub full_searches: u64,
    pub decisions: u64,
    pub solve_ns: u64,
}

impl SolverCounters {
    fn now() -> SolverCounters {
        SolverCounters {
            queries: global_counter("achilles_solver_queries_total"),
            local_hits: global_counter("achilles_solver_cache_hits_total"),
            full_searches: global_counter("achilles_solver_sat_total")
                + global_counter("achilles_solver_unsat_total")
                + global_counter("achilles_solver_unknown_total"),
            decisions: global_counter("achilles_solver_search_decisions_total"),
            solve_ns: global_counter("achilles_solver_solve_time_ns_total"),
        }
    }

    fn since(self, before: SolverCounters) -> SolverCounters {
        SolverCounters {
            queries: self.queries - before.queries,
            local_hits: self.local_hits - before.local_hits,
            full_searches: self.full_searches - before.full_searches,
            decisions: self.decisions - before.decisions,
            solve_ns: self.solve_ns - before.solve_ns,
        }
    }
}

/// One pass over the registry in `order` (indices into its targets) at
/// `workers` workers, checked against `expected`.
pub(crate) fn pass(
    registry: &TargetRegistry,
    order: &[usize],
    workers: usize,
    expected: &Expected,
) -> Pass {
    let specs: Vec<_> = registry.iter().collect();
    let solver_before = SolverCounters::now();
    let started = Instant::now();
    let mut p = Pass {
        ok: order.len() == specs.len(),
        ..Pass::default()
    };
    for &i in order {
        let spec = &**specs[i];
        let Some(answers) = expected.target(spec.name()) else {
            p.ok = false;
            continue;
        };
        let (report, cache) = {
            let _span = bench_span("bench:run");
            let mut session = AchillesSession::new(spec).workers(workers);
            let report = session.run();
            (report, session.engine().shared_cache().stats())
        };
        let sessions_started = Instant::now();
        let (sessions, session_cache) = {
            let _span = bench_span("bench:run_sessions");
            let mut session = AchillesSession::new(spec).workers(workers);
            let reports = session.run_sessions();
            (reports, session.engine().shared_cache().stats())
        };
        p.sessions += sessions_started.elapsed();
        let validate_started = Instant::now();
        let summary = {
            let _span = bench_span("bench:validate_spec");
            validate_spec(
                spec,
                &report.trojans,
                &mut ReplayCorpus::new(),
                &ValidateConfig::default().with_workers(workers),
            )
        };
        p.validate += validate_started.elapsed();

        let session_trojans: usize = sessions.iter().map(|s| s.trojans.len()).sum();
        p.ok &= report.trojans.len() == answers.trojans
            && session_trojans == answers.session_trojans
            && summary.replayed == report.trojans.len()
            && summary.confirmed == report.trojans.len();
        if spec.name() == "fsp" {
            let t = report.phase_times;
            p.fsp_client = t.client;
            p.fsp_preprocess = t.preprocess;
            p.fsp_server = t.server;
            p.fsp_server_cpu = t.server_cpu;
        }
        p.trojan_checks += report.search_stats.trojan_checks;
        p.paths += report.server_explore.completed as u64;
        p.infeasible += report.server_explore.infeasible as u64;
        p.branch_checks += report.server_explore.branch_checks;
        p.steals += report.server_workers.iter().map(|w| w.steals).sum::<u64>();
        for c in [cache, session_cache] {
            p.shared_hits += c.hits;
            p.subsumption_hits += c.core_subsumption_hits;
            p.certified_unsat += c.certified_unsat;
        }
    }
    p.wall = started.elapsed();
    p.solver = SolverCounters::now().since(solver_before);
    p
}

fn shuffled_order(rng: &mut Rng, targets: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..targets).collect();
    rng.shuffle(&mut order);
    order
}

/// Runs the workload.
pub fn run(config: &RunConfig, expected: &Expected) -> Outcome {
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let mut rng = Rng::new(config.seed);

    // Set-up: build the registry and make one pass in registry order,
    // which is also the untimed warm-up.
    let set_up = |tally: &mut Tally| {
        let started = Instant::now();
        let registry = builtin_registry();
        let order: Vec<usize> = (0..registry.len()).collect();
        let warm = pass(&registry, &order, 1, expected);
        let took = started.elapsed();
        tally.record(warm.ok);
        (registry, took)
    };
    if config.traced {
        let (registry, _) = set_up(&mut tally);
        traced(
            config,
            expected,
            &registry,
            &mut rng,
            &mut tally,
            &mut metrics,
        );
        return tally.finish(metrics);
    }

    let mut samples = Samples::default();
    measure(
        config,
        &mut tally,
        &mut metrics,
        set_up,
        |registry, tally| {
            let order = shuffled_order(&mut rng, registry.len());
            let p = pass(registry, &order, 1, expected);
            tally.record(p.ok);
            samples.push(p.wall);
            samples.len()
        },
    );
    if let Some(p90) = samples.percentile(0.9) {
        metrics.set("op_p90_ms", p90);
    }
    tally.finish(metrics)
}

/// Pass pairs (1 worker, then 2) per phase of a traced run.
fn traced_pairs(seconds: f64) -> usize {
    ((seconds / 4.0).ceil() as usize).max(2)
}

fn traced(
    config: &RunConfig,
    expected: &Expected,
    registry: &TargetRegistry,
    rng: &mut Rng,
    tally: &mut Tally,
    metrics: &mut Metrics,
) {
    let pairs = traced_pairs(config.seconds);
    let orders: Vec<Vec<usize>> = (0..pairs)
        .map(|_| shuffled_order(rng, registry.len()))
        .collect();

    // Untraced phase: layer timings and counts.
    let mut one = Vec::new();
    let mut two = Vec::new();
    for order in &orders {
        for (workers, into) in [(1, &mut one), (2, &mut two)] {
            let p = pass(registry, order, workers, expected);
            tally.record(p.ok);
            into.push(p);
        }
    }
    record_layers(&one, &two, metrics);

    // Traced phase: the same passes, folded and cleared one at a time.
    let mut times = SelfTimes::default();
    let mut traced_ms = 0.0;
    achilles_obs::set_tracing(true);
    for order in &orders {
        for workers in [1, 2] {
            let p = pass(registry, order, workers, expected);
            tally.record(p.ok);
            traced_ms += p.wall.as_secs_f64() * 1e3;
            times.absorb_and_clear();
        }
    }
    achilles_obs::set_tracing(false);
    let untraced_ms: f64 = one
        .iter()
        .chain(&two)
        .map(|p| p.wall.as_secs_f64() * 1e3)
        .sum();
    times.record_per_op(2 * pairs, metrics);
    metrics.set(
        "obs.tracing_overhead_pct",
        crate::overhead_pct(untraced_ms, traced_ms),
    );
}

/// Per-layer metrics from untraced 1- and 2-worker passes. Times are
/// medians over passes; counts are per 1-worker pass (they repeat
/// exactly at 1 worker), except steals, which are per 2-worker pass.
fn record_layers(one: &[Pass], two: &[Pass], metrics: &mut Metrics) {
    let median_ms = |passes: &[Pass], f: fn(&Pass) -> Duration| {
        let mut s = Samples::default();
        for p in passes {
            s.push(f(p));
        }
        s.quantile_any(0.5)
    };
    let per_pass =
        |f: fn(&Pass) -> u64| one.iter().map(f).sum::<u64>() as f64 / one.len().max(1) as f64;
    let server_1w = median_ms(one, |p| p.fsp_server);
    let server_2w = median_ms(two, |p| p.fsp_server);
    let cpu_2w = median_ms(two, |p| p.fsp_server_cpu);
    metrics.set("core.discovery_1w_p50_ms", median_ms(one, |p| p.wall));
    metrics.set("core.client_ms", median_ms(one, |p| p.fsp_client));
    metrics.set("core.preprocess_ms", median_ms(one, |p| p.fsp_preprocess));
    metrics.set("core.server_ms", server_1w);
    metrics.set("core.session_ms", median_ms(one, |p| p.sessions));
    metrics.set("core.trojan_checks", per_pass(|p| p.trojan_checks));
    metrics.set("solver.queries", per_pass(|p| p.solver.queries));
    metrics.set("solver.local_hits", per_pass(|p| p.solver.local_hits));
    metrics.set("solver.shared_hits", per_pass(|p| p.shared_hits));
    metrics.set("solver.subsumption_hits", per_pass(|p| p.subsumption_hits));
    metrics.set("solver.full_searches", per_pass(|p| p.solver.full_searches));
    metrics.set("solver.certified_unsat", per_pass(|p| p.certified_unsat));
    metrics.set("solver.decisions", per_pass(|p| p.solver.decisions));
    metrics.set("solver.solve_ms", per_pass(|p| p.solver.solve_ns) / 1e6);
    metrics.set("symvm.paths", per_pass(|p| p.paths));
    metrics.set("symvm.infeasible", per_pass(|p| p.infeasible));
    metrics.set("symvm.branch_checks", per_pass(|p| p.branch_checks));
    metrics.set(
        "symvm.steals",
        two.iter().map(|p| p.steals).sum::<u64>() as f64 / two.len().max(1) as f64,
    );
    metrics.set("symvm.server_cpu_2w_ms", cpu_2w);
    metrics.set("symvm.work_inflation", ratio(cpu_2w, server_1w));
    metrics.set("symvm.speedup_2w", ratio(server_1w, server_2w));
    metrics.set("symvm.discovery_2w_p50_ms", median_ms(two, |p| p.wall));
    metrics.set("replay.validate_ms", median_ms(one, |p| p.validate));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_pass_holds_the_pinned_answers_and_rejects_a_wrong_count() {
        let registry = builtin_registry();
        let order: Vec<usize> = (0..registry.len()).collect();
        let good = pass(&registry, &order, 1, &Expected::registry_default());
        assert!(good.ok, "{good:?}");
        let wrong = Expected::registry_default().with("paxos", |t| t.trojans = 2);
        assert!(!pass(&registry, &order, 1, &wrong).ok);
        let wrong = Expected::registry_default().with("fsp", |t| t.session_trojans = 27);
        assert!(!pass(&registry, &order, 1, &wrong).ok);
        let all = Expected::registry_default();
        assert!(
            !pass(&registry, &order[1..], 1, &all).ok,
            "a skipped target fails"
        );
    }
}
