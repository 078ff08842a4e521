//! Soak the fleetd campaign service and measure its service-level
//! numbers: ingest→result latency, sustained cells/s, queue depth, and
//! fork-server savings — the operational counterpart of the batch
//! `sweep_campaign` bench.
//!
//! Three phases, all over the session-bearing specs of the registry:
//!
//! 1. **Latency** (`shards = 0`, pump-driven): each witness is ingested
//!    and pumped to completion on the calling thread, so the measured
//!    ingest→result wall time is pure campaign compute — no condvar
//!    wakeup quantization in the numbers.
//! 2. **Throughput/affinity** (`shards = 1`): the whole corpus streams in
//!    at once and drains through one executor — peak queue depth and
//!    batched fork-server savings come from here.
//! 3. **Scaling** (`shards = 8`): the same stream against eight
//!    executors. `efficiency` is (shard-1 wall ÷ shard-8 wall) ÷
//!    min(8, host cores); on a multicore host below 0.7 the bin flags a
//!    batch-stealing follow-up (on a 1-core host the number is recorded
//!    but can't mean anything).
//!
//! `--json [PATH]` emits `BENCH_service.json` with the host core count
//! and per-verb request-latency percentiles (p50/p95/p99) from the
//! service's own `achilles-obs` histograms. `--quick` sweeps the reduced
//! schedule space. `--metrics PATH` writes the phase-1 service's full
//! `METRICS` snapshot (pump-driven, single-threaded — its
//! `# deterministic` section is bit-identical run to run, the CI
//! determinism gate). `--trace PATH` writes a Chrome-trace of the soak.

use std::sync::Arc;
use std::time::Instant;

use achilles::export::session_witness_record;
use achilles::{AchillesSession, TargetSpec};
use achilles_bench::{
    arg_present, arg_value, arg_value_required, header, host_cores, row, trace_path_from_args,
    write_trace,
};
use achilles_fleetd::{Fleetd, FleetdConfig};
use achilles_replay::session_from_report;
use achilles_targets::{builtin_registry, session_bearing};

/// One target's ingestable stream: `(target, session, record)` triples in
/// discovery order.
fn discover_stream(specs: &[&Arc<dyn TargetSpec>]) -> Vec<(String, String, String)> {
    let mut stream = Vec::new();
    for spec in specs {
        for report in AchillesSession::new(&***spec).run_sessions() {
            for (i, trojan) in report.trojans.iter().enumerate() {
                let witness = session_from_report(&report.layouts, i, trojan)
                    .expect("session layouts are wire-encodable");
                stream.push((
                    spec.name().to_string(),
                    report.session.clone(),
                    session_witness_record(&witness.fields),
                ));
            }
        }
    }
    stream
}

fn config(quick: bool) -> FleetdConfig {
    let config = FleetdConfig::default();
    if quick {
        config.quick()
    } else {
        config
    }
}

/// Streams the whole corpus into a fresh service with `shards` executors
/// and drains; returns the service (for counters) and the wall seconds.
fn timed_run(stream: &[(String, String, String)], shards: usize, quick: bool) -> (Fleetd, f64) {
    let service =
        Fleetd::start(builtin_registry(), config(quick).shards(shards)).expect("service starts");
    let started = Instant::now();
    for (target, session, record) in stream {
        service.handle_line(&format!("REGISTER {target}"));
        let reply = service.handle_line(&format!("INGEST {target}/{session} {record}"));
        assert!(reply.starts_with("OK "), "ingest {record}: {reply}");
    }
    assert_eq!(service.handle_line("DRAIN"), "OK drained");
    (service, started.elapsed().as_secs_f64())
}

fn main() {
    let trace = trace_path_from_args();
    let quick = arg_present("--quick");
    let cores = host_cores();
    let registry = builtin_registry();
    let specs = session_bearing(&registry);
    header(&format!(
        "fleetd service soak ({} session-bearing target(s); {cores} host core(s))",
        specs.len()
    ));

    let stream = discover_stream(&specs);
    assert!(!stream.is_empty(), "discovery yields session witnesses");

    // Phase 1: per-witness ingest→result latency, pump-driven.
    let service =
        Fleetd::start(builtin_registry(), config(quick).shards(0)).expect("service starts");
    let mut latencies = Vec::with_capacity(stream.len());
    for (target, session, record) in &stream {
        service.handle_line(&format!("REGISTER {target}"));
        let started = Instant::now();
        let reply = service.handle_line(&format!("INGEST {target}/{session} {record}"));
        assert!(reply.starts_with("OK "), "ingest {record}: {reply}");
        service.pump();
        latencies.push(started.elapsed().as_secs_f64());
    }
    let lat_stats = service.stats();
    assert_eq!(
        lat_stats.results, lat_stats.witnesses,
        "every ingest completed"
    );
    let total_latency: f64 = latencies.iter().sum();
    let mean_latency = total_latency / latencies.len() as f64;
    let p_max = latencies.iter().cloned().fold(0.0f64, f64::max);
    let cells_per_s = if total_latency > 0.0 {
        lat_stats.replays as f64 / total_latency
    } else {
        0.0
    };
    println!(
        "{}",
        row(
            "ingest → result latency",
            format!(
                "{:.4}s mean, {:.4}s max over {} witnesses",
                mean_latency,
                p_max,
                latencies.len()
            )
        )
    );
    println!(
        "{}",
        row(
            "sustained throughput",
            format!("{cells_per_s:.0} cells/s ({} replays)", lat_stats.replays)
        )
    );
    // The phase-1 service is the process's only replayer so far, so the
    // global fork-server series must equal the service's own counters.
    let metrics = service.metrics_text();
    for (fork, fleetd) in [
        (
            "achilles_fork_plans_total",
            "achilles_fleetd_fork_plans_total",
        ),
        ("achilles_fork_boots_total", "achilles_fleetd_boots_total"),
        (
            "achilles_fork_snapshot_restores_total",
            "achilles_fleetd_snapshot_restores_total",
        ),
    ] {
        let value = |name: &str| {
            metrics
                .lines()
                .find_map(|line| {
                    line.strip_prefix(name)?
                        .strip_prefix(' ')?
                        .parse::<u64>()
                        .ok()
                })
                .unwrap_or_else(|| panic!("METRICS has no {name} series"))
        };
        assert_eq!(value(fork), value(fleetd), "{fork} must equal {fleetd}");
    }
    if let Some(path) = arg_value_required("--metrics") {
        // Written from the pump-driven phase-1 service: single-threaded,
        // so the snapshot's `# deterministic` section is bit-identical
        // run to run — what the CI determinism gate diffs.
        std::fs::write(&path, &metrics).expect("write metrics snapshot");
        println!("{}", row("metrics snapshot", &path));
    }

    // Phase 2: one executor, whole corpus queued at once.
    let (one, wall_1) = timed_run(&stream, 1, quick);
    let one_stats = one.stats();
    assert_eq!(one_stats.results, one_stats.witnesses);
    println!(
        "{}",
        row(
            "queue depth (1 executor)",
            format!("{} cells peak", one_stats.peak_cells)
        )
    );
    println!(
        "{}",
        row(
            "fork-server savings",
            format!(
                "{} boots for {} plans ({} saved), {} clones",
                one_stats.boots,
                one_stats.fork_plans,
                one_stats.boots_saved(),
                one_stats.snapshot_restores
            )
        )
    );

    // Exercise the METRICS verb on the drained phase-2 service and
    // surface its per-verb request-latency histograms — service-side
    // numbers from the obs registry, not client-side wall clocks.
    let metrics_reply = one.handle_line("METRICS");
    assert!(
        metrics_reply.starts_with("OK "),
        "METRICS serves: {metrics_reply}"
    );
    let series = metrics_reply
        .lines()
        .skip(1)
        .filter(|l| !l.starts_with('#'))
        .count();
    println!("{}", row("METRICS series served", series));
    let mut latency_json = String::from("{");
    for verb in ["REGISTER", "INGEST", "DRAIN", "METRICS"] {
        let Some(h) = one.request_latency(verb) else {
            continue;
        };
        let (p50, p95, p99) = (
            h.quantile_ns(0.50),
            h.quantile_ns(0.95),
            h.quantile_ns(0.99),
        );
        println!(
            "{}",
            row(
                &format!("request latency ({verb})"),
                format!(
                    "p50 {:.3}ms p95 {:.3}ms p99 {:.3}ms over {} request(s)",
                    p50 as f64 / 1e6,
                    p95 as f64 / 1e6,
                    p99 as f64 / 1e6,
                    h.count()
                )
            )
        );
        if latency_json.len() > 1 {
            latency_json.push_str(", ");
        }
        latency_json.push_str(&format!(
            "\"{verb}\": {{\"count\": {}, \"p50_ns\": {p50}, \"p95_ns\": {p95}, \
             \"p99_ns\": {p99}}}",
            h.count()
        ));
    }
    latency_json.push('}');

    // Phase 3: eight executors over the same stream.
    let (eight, wall_8) = timed_run(&stream, 8, quick);
    let eight_stats = eight.stats();
    assert_eq!(
        eight_stats.results, one_stats.results,
        "scaling changes no answers"
    );
    let speedup = if wall_8 > 0.0 { wall_1 / wall_8 } else { 1.0 };
    let effective = cores.clamp(1, 8);
    let efficiency = speedup / effective as f64;
    println!(
        "{}",
        row(
            "executor scaling",
            format!(
                "{wall_1:.3}s @1 shard vs {wall_8:.3}s @8 shards \
                 (speedup {speedup:.2}x, efficiency {efficiency:.2} on {cores} core(s))"
            )
        )
    );
    if cores >= 2 && efficiency < 0.7 {
        println!(
            "{}",
            row(
                "  follow-up",
                format!(
                    "pool efficiency {efficiency:.2} < 0.7 at 8 executors on a \
                     {cores}-core host — consider batch stealing (see CHANGES.md)"
                )
            )
        );
    }

    if arg_present("--json") {
        let path = arg_value("--json").unwrap_or_else(|| "BENCH_service.json".to_string());
        let path = if path.starts_with("--") {
            "BENCH_service.json".to_string()
        } else {
            path
        };
        let json = format!(
            "{{\n  \"bench\": \"fleetd_soak\",\n  \"host_cores\": {cores},\n  \
             \"quick\": {quick},\n  \"targets\": {},\n  \"witnesses\": {},\n  \
             \"replays\": {},\n  \"ingest_to_result_mean_s\": {mean_latency:.6},\n  \
             \"ingest_to_result_max_s\": {p_max:.6},\n  \"cells_per_s\": {cells_per_s:.2},\n  \
             \"request_latency_ns\": {latency_json},\n  \
             \"peak_queue_cells\": {},\n  \"boots\": {},\n  \"boots_saved\": {},\n  \
             \"snapshot_restores\": {},\n  \"wall_1shard_s\": {wall_1:.4},\n  \
             \"wall_8shard_s\": {wall_8:.4},\n  \"speedup\": {speedup:.4},\n  \
             \"efficiency\": {efficiency:.4}\n}}\n",
            specs.len(),
            lat_stats.witnesses,
            lat_stats.replays,
            one_stats.peak_cells,
            one_stats.boots,
            one_stats.boots_saved(),
            one_stats.snapshot_restores,
        );
        std::fs::write(&path, json).expect("write bench json");
        println!("\n  wrote {path}");
    }

    if let Some(path) = &trace {
        // Dropping the services joins their executors, flushing every
        // worker thread's span buffer into the sink before the write.
        drop(service);
        drop(one);
        drop(eight);
        write_trace(path);
    }
}
