//! Parallel scaling of the Trojan search: the Figure 10 discovery workload
//! swept over `workers ∈ {1, 2, 4, 8}`.
//!
//! Prints a scaling table and, with `--json [PATH]`, emits a machine-readable
//! `BENCH_parallel.json` (default path) so the perf trajectory is tracked
//! from commit to commit. The sweep also asserts that every worker count
//! finds the identical Trojan set and issues the identical number of solver
//! queries — scaling must never buy speed with soundness, and a stolen item
//! must not re-ask its replayed prefix's queries.
//!
//! Two per-row ratios, which measure different things:
//!
//! * `utilization` = worker busy time ÷ (server wall × workers): how much
//!   of the pool's time went into items rather than idling. It reads high
//!   even when the pool does more total work than one worker would.
//! * `efficiency` = speedup vs 1 worker ÷ min(workers, host cores): how
//!   much of the available hardware parallelism turned into server-phase
//!   speedup.
//!
//! ```text
//! cargo run --release -p achilles-bench --bin parallel_scaling -- --json
//! ```

use std::time::Instant;

use achilles::AchillesSession;
use achilles_bench::{
    arg_present, arg_value, bar, fmt_secs, header, host_cores, row, trace_path_from_args,
    write_trace,
};
use achilles_fsp::FspSpec;

struct Sweep {
    workers: usize,
    wall_s: f64,
    server_s: f64,
    trojans: usize,
    steals: u64,
    shared_hits: u64,
    solver_queries: u64,
    certified_unsat: u64,
    core_subsumption_hits: u64,
    /// Proof-audit wall time during this sweep point (0 unless the audit
    /// is installed via `--check-proofs` / `ACHILLES_CHECK_PROOFS`).
    proof_check_wall_s: f64,
    /// Sum of worker busy time / (server wall clock x workers).
    utilization: f64,
}

impl Sweep {
    /// Server-phase speedup over `base`, the 1-worker server time.
    fn speedup(&self, base: f64) -> f64 {
        base / self.server_s.max(1e-9)
    }

    /// Speedup divided by the parallelism the host could give this row.
    fn efficiency(&self, base: f64, cores: usize) -> f64 {
        self.speedup(base) / self.workers.min(cores).max(1) as f64
    }
}

fn main() {
    let trace = trace_path_from_args();
    let cores = host_cores();
    // Post-parse branching deepens every accepting parse with state-dependent
    // subtrees (the regime of the paper's real run); it also makes the sweep
    // long enough that scaling is not noise-dominated.
    let depth: usize = arg_value("--depth")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    header(&format!(
        "Parallel Trojan search scaling (fig10 workload, depth {depth}, {cores} core(s))"
    ));

    if arg_present("--check-proofs") {
        achilles_proofcheck::install_audit();
    } else {
        achilles_proofcheck::install_audit_from_env();
    }

    let sweep_counts = [1usize, 2, 4, 8];
    let mut sweeps: Vec<Sweep> = Vec::new();
    let mut witness_sets: Vec<Vec<Vec<u64>>> = Vec::new();
    for &workers in &sweep_counts {
        let mut spec = FspSpec::accuracy();
        spec.server.post_parse_branching = depth;
        let (_, audit_wall_before) = achilles_solver::proof_audit_stats();
        let started = Instant::now();
        let result = AchillesSession::new(&spec).workers(workers).run();
        let wall = started.elapsed();
        let (_, audit_wall_after) = achilles_solver::proof_audit_stats();
        witness_sets.push(
            result
                .trojans
                .iter()
                .map(|t| t.witness_fields.clone())
                .collect(),
        );
        let busy: f64 = result
            .server_workers
            .iter()
            .map(|w| w.busy.as_secs_f64())
            .sum();
        let server_s = result.phase_times.server.as_secs_f64();
        let explore = &result.server_explore;
        sweeps.push(Sweep {
            workers,
            wall_s: wall.as_secs_f64(),
            server_s,
            trojans: result.trojans.len(),
            steals: explore.steals,
            shared_hits: explore.shared_cache_hits,
            solver_queries: result.server_workers.iter().map(|w| w.queries).sum(),
            certified_unsat: explore.certified_unsat,
            core_subsumption_hits: explore.core_subsumption_hits,
            proof_check_wall_s: (audit_wall_after - audit_wall_before).as_secs_f64(),
            utilization: (busy / (server_s.max(1e-9) * workers as f64)).min(1.0),
        });
        println!(
            "{}",
            row(
                &format!("workers={workers}"),
                format!(
                    "{} total / {} server, {} trojans, {} steals, {} shared hits, \
                     {} certified unsat ({} subsumed), {:.0}% util",
                    fmt_secs(wall),
                    format_args!("{server_s:.3}s"),
                    result.trojans.len(),
                    explore.steals,
                    explore.shared_cache_hits,
                    explore.certified_unsat,
                    explore.core_subsumption_hits,
                    sweeps.last().expect("just pushed").utilization * 100.0,
                )
            )
        );
    }

    for ws in &witness_sets[1..] {
        assert_eq!(
            ws, &witness_sets[0],
            "every worker count must discover the identical Trojan set"
        );
    }
    for s in &sweeps[1..] {
        assert_eq!(
            s.solver_queries, sweeps[0].solver_queries,
            "workers={} issued a different number of solver queries than workers=1",
            s.workers
        );
    }

    header("server-phase speedup vs workers=1");
    let base = sweeps[0].server_s;
    for s in &sweeps {
        let speedup = s.speedup(base);
        println!(
            "  {:>2} workers  {speedup:5.2}x  {:3.0}% eff  |{}",
            s.workers,
            s.efficiency(base, cores) * 100.0,
            bar(speedup, 8.0, 40)
        );
    }

    if arg_present("--json") {
        let path = arg_value("--json").unwrap_or_else(|| "BENCH_parallel.json".to_string());
        let path = if path.starts_with("--") {
            "BENCH_parallel.json".to_string()
        } else {
            path
        };
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str("  \"bench\": \"fig10_discovery_parallel\",\n");
        json.push_str(&format!(
            "  \"workload\": \"FSP accuracy, 8 utilities, post-parse depth {depth}\",\n"
        ));
        json.push_str(&format!("  \"host_cores\": {cores},\n"));
        json.push_str("  \"sweep\": [\n");
        for (i, s) in sweeps.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"workers\": {}, \"wall_s\": {:.4}, \
                 \"server_s\": {:.4}, \
                 \"speedup_vs_1\": {:.3}, \"trojans\": {}, \"steals\": {}, \
                 \"shared_cache_hits\": {}, \"solver_queries\": {}, \
                 \"certified_unsat\": {}, \"core_subsumption_hits\": {}, \
                 \"proof_check_wall_s\": {:.4}, \"utilization\": {:.3}, \
                 \"efficiency\": {:.3}}}{}\n",
                s.workers,
                s.wall_s,
                s.server_s,
                s.speedup(base),
                s.trojans,
                s.steals,
                s.shared_hits,
                s.solver_queries,
                s.certified_unsat,
                s.core_subsumption_hits,
                s.proof_check_wall_s,
                s.utilization,
                s.efficiency(base, cores),
                if i + 1 == sweeps.len() { "" } else { "," },
            ));
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&path, json).expect("write bench json");
        println!("\n  wrote {path}");
    }

    if let Some(path) = &trace {
        write_trace(path);
    }
}
