//! Every metric the benchmark reports, and the result line it prints.
//!
//! The names and units here are the ones `BENCHMARK.json` declares. Every
//! workload reports every end-to-end metric (each defined per workload in
//! `README.md`) in a measured run, and every per-layer metric in a traced
//! run, with 0 for a layer that does no work on that workload.

use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] =
    &[("op_p90_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics of the traced run: `(name, unit)`. Counts and times
/// are per operation of the workload unless the name says otherwise.
pub const PER_LAYER: &[(&str, &str)] = &[
    // core
    ("core.discovery_1w_p50_ms", "ms"),
    ("core.client_ms", "ms"),
    ("core.preprocess_ms", "ms"),
    ("core.server_ms", "ms"),
    ("core.session_ms", "ms"),
    ("core.trojan_checks", "count"),
    // solver
    ("solver.queries", "count"),
    ("solver.local_hits", "count"),
    ("solver.shared_hits", "count"),
    ("solver.subsumption_hits", "count"),
    ("solver.full_searches", "count"),
    ("solver.certified_unsat", "count"),
    ("solver.decisions", "count"),
    ("solver.solve_ms", "ms"),
    // symvm
    ("symvm.paths", "count"),
    ("symvm.infeasible", "count"),
    ("symvm.branch_checks", "count"),
    ("symvm.steals", "count"),
    ("symvm.server_cpu_2w_ms", "ms"),
    ("symvm.work_inflation", "ratio"),
    ("symvm.speedup_2w", "ratio"),
    ("symvm.discovery_2w_p50_ms", "ms"),
    // replay
    ("replay.validate_ms", "ms"),
    ("replay.boots", "count"),
    ("replay.restores", "count"),
    ("replay.plans", "count"),
    ("replay.prefix_depth_mean", "count"),
    ("replay.cell_us", "us"),
    // sweep
    ("sweep.plan_us", "us"),
    ("sweep.cells", "count"),
    ("sweep.replays", "count"),
    ("sweep.cache_hits", "count"),
    ("sweep.cache_hit_ratio", "ratio"),
    // fleetd
    ("fleetd.ingest_p50_ms", "ms"),
    ("fleetd.requests_per_s", "1/s"),
    ("fleetd.ingest_accept_ms", "ms"),
    ("fleetd.result_wait_ms", "ms"),
    ("fleetd.witness_query_ms", "ms"),
    ("fleetd.dup_ingest_ms", "ms"),
    ("fleetd.query_p50_ms", "ms"),
    ("fleetd.query_p90_ms", "ms"),
    ("fleetd.recampaign_p50_ms", "ms"),
    ("fleetd.service_INGEST_p50_ms", "ms"),
    ("fleetd.service_DRAIN_p50_ms", "ms"),
    ("fleetd.service_QUERY_p50_ms", "ms"),
    ("fleetd.service_RECAMPAIGN_p50_ms", "ms"),
    ("fleetd.service_EVICT_p50_ms", "ms"),
    ("fleetd.boots", "count"),
    ("fleetd.peak_queue_cells", "count"),
    ("fleetd.errors", "count"),
    // obs
    ("obs.tracing_overhead_pct", "%"),
    ("obs.events_per_op", "count"),
    // self time per span name per operation, traced
    ("self_ms.bench.run", "ms"),
    ("self_ms.bench.run_sessions", "ms"),
    ("self_ms.bench.validate_spec", "ms"),
    ("self_ms.bench.plan", "ms"),
    ("self_ms.bench.handle_line", "ms"),
    ("self_ms.pipeline.run", "ms"),
    ("self_ms.phase.client", "ms"),
    ("self_ms.phase.preprocess", "ms"),
    ("self_ms.phase.server", "ms"),
    ("self_ms.session.run", "ms"),
    ("self_ms.explore", "ms"),
    ("self_ms.item", "ms"),
    ("self_ms.merge", "ms"),
    ("self_ms.worker", "ms"),
    ("self_ms.fork.boot", "ms"),
    ("self_ms.fork.baseline", "ms"),
    ("self_ms.fork.replay", "ms"),
    ("self_ms.fork.restore", "ms"),
    ("self_ms.sweep.witness", "ms"),
    ("self_ms.fleetd.batch", "ms"),
    ("self_ms.fleetd.INGEST", "ms"),
    ("self_ms.fleetd.DRAIN", "ms"),
    ("self_ms.fleetd.QUERY", "ms"),
    ("self_ms.fleetd.RECAMPAIGN", "ms"),
    ("self_ms.fleetd.EVICT", "ms"),
    ("self_ms.other", "ms"),
];

/// Metric values gathered by one run, by name.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `name`, which must be declared in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// What one run reports.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Operations attempted, set-up operations included.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed`, and every
    /// metric of the set the run's mode reports. A declared metric the
    /// run did not measure is reported as 0 in a traced run (the layer
    /// did no work) and makes a measured run incorrect.
    pub fn to_json(&self, traced: bool) -> String {
        let declared = if traced { PER_LAYER } else { END_TO_END };
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut body = String::new();
        for (i, (name, unit)) in declared.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => v,
                Some(_) => {
                    correct = false;
                    0.0
                }
                None => {
                    correct &= traced;
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                body,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.attempted, self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_use_the_declared_alphabet() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(manifest).expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"unit\": ").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_reports_the_mode_s_metric_set() {
        let mut metrics = Metrics::default();
        for (name, _) in END_TO_END {
            metrics.set(name, 1.5);
        }
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            metrics,
        };
        let line = outcome.to_json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!line.contains("core.server_ms"));
        let traced = outcome.to_json(true);
        assert!(traced.contains("\"core.server_ms\": {\"value\": 0, \"unit\": \"ms\"}"));
        assert!(!traced.contains("setup_s"));

        let failed = Outcome {
            failed: 1,
            ..outcome.clone()
        };
        assert!(failed.to_json(false).starts_with("{\"correct\": false"));
        let missing = Outcome {
            metrics: Metrics::default(),
            ..outcome
        };
        assert!(missing.to_json(false).starts_with("{\"correct\": false"));
    }
}
