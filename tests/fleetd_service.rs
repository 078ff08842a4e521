//! The fleetd service differential suite: the resident campaign service
//! must answer exactly what the batch pipeline computes, and must replay
//! exactly what changed — nothing on a no-op re-ingest, one witness's
//! cells on a one-witness ingest, one target's scopes on an epoch bump.
//!
//! Every test drives the service through the same `handle_line` strings
//! the socket transports feed it, so the protocol surface is exercised
//! end to end; replay counters are asserted (not just results), because
//! "incremental" is a claim about work performed, not answers given.

use achilles::export::session_witness_record;
use achilles::{AchillesSession, SessionReport, TargetRegistry, TargetSpec};
use achilles_fleetd::{serve_stream, Fleetd, FleetdConfig, WitnessStore, MAX_LINE_BYTES};
use achilles_replay::session_from_report;
use achilles_sweep::{
    sweep_report, sweep_witness, CachedCell, CampaignConfig, SchedulePlanner, SweepCache,
    SweepConfig,
};
use achilles_targets::builtin_registry;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

const TARGET: &str = "gossip";

fn gossip_spec() -> (TargetRegistry, Arc<dyn TargetSpec>) {
    let registry = builtin_registry();
    let spec = registry.get(TARGET).expect("gossip is built in").clone();
    (registry, spec)
}

/// Discovery once, shared shape for every test: the session reports and
/// the canonical witness records in batch order.
fn discover(spec: &dyn TargetSpec) -> Vec<(SessionReport, Vec<String>)> {
    AchillesSession::new(spec)
        .run_sessions()
        .into_iter()
        .map(|report| {
            let records = report
                .trojans
                .iter()
                .enumerate()
                .map(|(i, trojan)| {
                    let witness = session_from_report(&report.layouts, i, trojan)
                        .expect("session layouts are wire-encodable");
                    session_witness_record(&witness.fields)
                })
                .collect();
            (report, records)
        })
        .collect()
}

/// The batch pipeline's answer: every matrix's `to_text` lines, deduped
/// by record in first-seen order (the service stores one witness per
/// canonical record).
fn batch_query_lines(
    spec: &dyn TargetSpec,
    discovered: &[(SessionReport, Vec<String>)],
    sweep: SweepConfig,
) -> Vec<String> {
    let config = CampaignConfig {
        sweep,
        ..CampaignConfig::default()
    };
    let mut cache = SweepCache::new();
    let mut lines = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (report, records) in discovered {
        let sweep = sweep_report(spec, report, &config, &mut cache);
        for (matrix, record) in sweep.matrices.iter().zip(records) {
            if seen.insert(record.clone()) {
                lines.extend(matrix.to_text().lines().map(str::to_string));
            }
        }
    }
    lines
}

/// Ingests every discovered record through the protocol, asserting each
/// reply, and drains. Returns the unique record count.
fn ingest_all(service: &Fleetd, discovered: &[(SessionReport, Vec<String>)]) -> usize {
    assert!(service
        .handle_line(&format!("REGISTER {TARGET}"))
        .starts_with("OK "));
    let mut unique = std::collections::HashSet::new();
    for (report, records) in discovered {
        for record in records {
            let reply =
                service.handle_line(&format!("INGEST {TARGET}/{} {record}", report.session));
            assert!(reply.starts_with("OK "), "ingest {record}: {reply}");
            if !unique.insert(record.clone()) {
                assert!(reply.contains("dup"), "re-ingest must dedupe: {reply}");
            }
        }
    }
    assert_eq!(service.handle_line("DRAIN"), "OK drained");
    unique.len()
}

fn query_lines(service: &Fleetd) -> Vec<String> {
    let reply = service.handle_line(&format!("QUERY {TARGET}"));
    let mut lines = reply.lines().map(str::to_string);
    let status = lines.next().expect("status line");
    assert!(status.starts_with("OK "), "{status}");
    lines.collect()
}

/// Derives a *new* canonical record by nudging `base`'s fields until the
/// session's layouts accept a value not already in `known` (field widths
/// vary per slot, so the hunt tries small deltas everywhere).
fn mutate_record(shard: &achilles_fleetd::SessionShard, known: &[String], base: &str) -> String {
    let mut fields = shard
        .witness_from_record(base)
        .expect("stored record round-trips")
        .1
        .fields;
    for slot in 0..fields.len() {
        for field in 0..fields[slot].len() {
            for delta in 1..=3u64 {
                let original = fields[slot][field];
                fields[slot][field] = original.wrapping_add(delta);
                let record = session_witness_record(&fields);
                if shard.witness_from_record(&record).is_ok() && !known.contains(&record) {
                    return record;
                }
                fields[slot][field] = original;
            }
        }
    }
    panic!("no wire-encodable mutation found");
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("achilles-fleetd-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn service_answers_bit_identical_to_the_batch_campaign() {
    let (registry, spec) = gossip_spec();
    let discovered = discover(&*spec);
    assert!(
        discovered.iter().any(|(_, r)| !r.is_empty()),
        "gossip discovery yields session trojans"
    );
    let expected = batch_query_lines(&*spec, &discovered, SweepConfig::quick());

    let service = Fleetd::start(registry, FleetdConfig::default().quick()).expect("service starts");
    let unique = ingest_all(&service, &discovered);
    assert_eq!(
        query_lines(&service),
        expected,
        "queried matrices must be bit-identical to the batch campaign"
    );

    let stats = service.stats();
    assert_eq!(stats.ingested, unique);
    assert_eq!(stats.results, unique);
    assert!(stats.replays > 0);
    assert!(
        stats.boots_saved() > 0,
        "batched executors share fork-server boots ({} plans, {} boots)",
        stats.fork_plans,
        stats.boots
    );
    assert_eq!(stats.stale_results, 0);

    // Witness-id and class filters are restrictions of the same rows.
    let one = service.handle_line(&format!("QUERY {TARGET} 0"));
    assert!(one.starts_with("OK "));
    let armed = service.handle_line(&format!("QUERY {TARGET} * armed"));
    for line in armed.lines().skip(1) {
        let is_header = line.starts_with("witness ") || line.starts_with("baseline ");
        assert!(
            is_header || line.split('|').nth(1) == Some("armed"),
            "class filter leaked {line:?}"
        );
    }
}

#[test]
fn noop_reingest_and_recampaign_replay_nothing() {
    let (registry, spec) = gossip_spec();
    let discovered = discover(&*spec);
    let service = Fleetd::start(registry, FleetdConfig::default().quick()).expect("service starts");
    ingest_all(&service, &discovered);
    let replays = service.stats().replays;
    assert!(replays > 0);

    // Re-ingesting the whole corpus is a no-op: every record is a dup.
    let mut seen = std::collections::HashSet::new();
    for (report, records) in &discovered {
        for record in records {
            let reply =
                service.handle_line(&format!("INGEST {TARGET}/{} {record}", report.session));
            if seen.insert(record.clone()) {
                assert!(reply.contains("dup"), "{reply}");
            }
        }
    }
    assert_eq!(service.handle_line("DRAIN"), "OK drained");
    assert_eq!(
        service.stats().replays,
        replays,
        "no-op re-ingest replays nothing"
    );
    assert_eq!(service.stats().duplicates, seen.len());

    // A re-campaign over an unchanged cache completes warm, inline.
    let reply = service.handle_line(&format!("RECAMPAIGN {TARGET}"));
    assert!(reply.starts_with("OK "), "{reply}");
    assert!(
        reply.contains("enqueued=0"),
        "warm re-campaign enqueues nothing: {reply}"
    );
    assert_eq!(service.handle_line("DRAIN"), "OK drained");
    let stats = service.stats();
    assert_eq!(stats.replays, replays, "warm re-campaign replays nothing");
    assert!(stats.cache_hits > 0);
}

#[test]
fn single_witness_ingest_replays_exactly_its_cells() {
    let (registry, spec) = gossip_spec();
    let discovered = discover(&*spec);
    let service = Fleetd::start(registry, FleetdConfig::default().quick()).expect("service starts");
    ingest_all(&service, &discovered);
    let replays = service.stats().replays;
    let results = service.stats().results;

    // Derive a *new* witness by nudging a stored one's fields until the
    // spec's layouts accept it (field widths vary per slot).
    let (session, base) = discovered
        .iter()
        .find_map(|(report, records)| records.first().map(|r| (report.session.clone(), r.clone())))
        .expect("at least one witness");
    let mut store = WitnessStore::new();
    store.register(&*spec);
    let shard = store
        .target(TARGET)
        .and_then(|t| t.session(&session))
        .expect("session shard");
    let planner = SchedulePlanner::new(SweepConfig::quick());
    let known: Vec<String> = discovered.iter().flat_map(|(_, rs)| rs.clone()).collect();
    let mutated = mutate_record(shard, &known, &base);
    let witness = shard
        .witness_from_record(&mutated)
        .expect("mutation validated")
        .1;
    let expected = 1 + planner.plan(&witness).len(); // baseline + every planned cell

    let reply = service.handle_line(&format!("INGEST {TARGET}/{session} {mutated}"));
    assert!(reply.starts_with("OK "), "{reply}");
    assert!(reply.contains(&format!("cells={expected}")), "{reply}");
    assert_eq!(service.handle_line("DRAIN"), "OK drained");
    let stats = service.stats();
    assert_eq!(
        stats.replays,
        replays + expected,
        "one new witness replays exactly its own cells"
    );
    assert_eq!(stats.results, results + 1);
}

#[test]
fn epoch_bump_invalidates_and_rederives_exactly_the_target() {
    let (registry, spec) = gossip_spec();
    let discovered = discover(&*spec);
    let service = Fleetd::start(registry, FleetdConfig::default().quick()).expect("service starts");
    let unique = ingest_all(&service, &discovered);
    let replays = service.stats().replays;
    let before = query_lines(&service);

    let reply = service.handle_line(&format!("EPOCH {TARGET}"));
    assert!(reply.starts_with("OK "), "{reply}");
    assert!(
        !reply.contains("invalidated=0"),
        "epoch bump drops cells: {reply}"
    );
    assert_eq!(service.handle_line("DRAIN"), "OK drained");

    let stats = service.stats();
    assert_eq!(
        stats.replays,
        replays * 2,
        "re-deriving the whole target repeats exactly the original replays"
    );
    assert_eq!(stats.results, unique);
    assert_eq!(
        query_lines(&service),
        before,
        "replay is deterministic: re-derived matrices match"
    );
}

#[test]
fn backpressure_answers_busy_at_the_cell_bound() {
    let (registry, spec) = gossip_spec();
    let discovered = discover(&*spec);
    let (session, base) = discovered
        .iter()
        .find_map(|(report, records)| records.first().map(|r| (report.session.clone(), r.clone())))
        .expect("at least one witness");

    // Size the bound to exactly one witness's campaign, so the first
    // ingest fits and the second (a synthesized sibling) must be refused
    // until a drain.
    let mut store = WitnessStore::new();
    store.register(&*spec);
    let shard = store
        .target(TARGET)
        .and_then(|t| t.session(&session))
        .expect("session shard");
    let known: Vec<String> = discovered.iter().flat_map(|(_, rs)| rs.clone()).collect();
    let records = [base.clone(), mutate_record(shard, &known, &base)];
    let planner = SchedulePlanner::new(SweepConfig::quick());
    let bound = records
        .iter()
        .map(|r| {
            let witness = shard.witness_from_record(r).expect("record parses").1;
            1 + planner.plan(&witness).len()
        })
        .max()
        .expect("two records");

    // shards = 0: no executors — work sits queued until pump(), so the
    // BUSY window is deterministic.
    let config = FleetdConfig::default()
        .quick()
        .shards(0)
        .max_queued_cells(bound);
    let service = Fleetd::start(registry, config).expect("service starts");
    assert!(service
        .handle_line(&format!("REGISTER {TARGET}"))
        .starts_with("OK "));

    let first = service.handle_line(&format!("INGEST {TARGET}/{session} {}", records[0]));
    assert!(first.starts_with("OK "), "{first}");
    let second = service.handle_line(&format!("INGEST {TARGET}/{session} {}", records[1]));
    assert!(
        second.starts_with("BUSY "),
        "queue at bound must refuse: {second}"
    );
    assert_eq!(service.stats().busy_rejections, 1);
    assert_eq!(
        service.stats().witnesses,
        1,
        "a refused ingest stores nothing"
    );

    assert_eq!(service.handle_line("DRAIN"), "OK drained");
    let retry = service.handle_line(&format!("INGEST {TARGET}/{session} {}", records[1]));
    assert!(
        retry.starts_with("OK "),
        "drained queue accepts the retry: {retry}"
    );
    assert_eq!(service.handle_line("DRAIN"), "OK drained");
    assert_eq!(service.stats().results, 2);
}

#[test]
fn shutdown_drains_persists_and_the_restart_is_replay_free() {
    let dir = temp_dir("restart");
    let (registry, spec) = gossip_spec();
    let discovered = discover(&*spec);

    let first = Fleetd::start(
        registry,
        FleetdConfig::default().quick().state_dir(dir.clone()),
    )
    .expect("service starts");
    let unique = ingest_all(&first, &discovered);
    let expected = query_lines(&first);
    let replays = first.stats().replays;
    assert!(replays > 0);
    assert_eq!(first.handle_line("SHUTDOWN"), "OK bye");
    drop(first);

    // The durable cache is a complete, loadable batch-format artifact.
    let cache = SweepCache::load(&dir.join(format!("{TARGET}.sweep")))
        .expect("persisted sweep cache loads");
    assert!(!cache.is_empty());

    // A second instance over the same state dir re-derives everything
    // from the durable cache: results present, zero replays performed.
    let second = Fleetd::start(
        builtin_registry(),
        FleetdConfig::default().quick().state_dir(dir.clone()),
    )
    .expect("restart loads state");
    assert_eq!(second.handle_line("DRAIN"), "OK drained");
    let stats = second.stats();
    assert_eq!(stats.results, unique, "restart republishes every result");
    assert_eq!(stats.replays, 0, "restart is warm: zero replays");
    assert_eq!(
        query_lines(&second),
        expected,
        "restart answers identically"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_requests_are_counted_per_class() {
    let (registry, _spec) = gossip_spec();
    let service = Fleetd::start(registry, FleetdConfig::default().quick()).expect("service starts");

    // One malformed line per parse class (plus a well-formed but
    // impossible request, counted as `rejected`), each answered ERR.
    let cases: &[(&str, &str, u64)] = &[
        ("FROBNICATE", "unknown-verb", 2),
        ("FROBNICATE again", "unknown-verb", 2),
        ("HELLO now", "arity", 1),
        ("INGEST gossip 1,2", "scope", 1),
        ("QUERY gossip x", "witness-id", 1),
        ("QUERY gossip * bogus", "schedule-class", 1),
        ("", "empty", 1),
        ("QUERY unregistered-target", "rejected", 1),
    ];
    for (line, _, _) in cases {
        let reply = service.handle_line(line);
        assert!(reply.starts_with("ERR "), "{line:?}: {reply}");
    }

    let reply = service.handle_line("METRICS");
    assert!(reply.starts_with("OK "), "{reply}");
    let count = |class: &str| -> u64 {
        let needle = format!("achilles_fleetd_errors_total{{class=\"{class}\"}} ");
        reply
            .lines()
            .find_map(|l| l.strip_prefix(&needle))
            .map(|v| v.parse().expect("counter value"))
            .unwrap_or(0)
    };
    for (line, class, expected) in cases {
        assert_eq!(count(class), *expected, "{line:?} counts under {class:?}");
    }
    // A well-formed, successful request counts no error class.
    assert!(service.handle_line("HELLO").starts_with("OK "));
}

#[test]
fn metrics_snapshot_is_framed_sectioned_and_covers_the_stack() {
    let (registry, spec) = gossip_spec();
    let discovered = discover(&*spec);
    let service = Fleetd::start(registry, FleetdConfig::default().quick()).expect("service starts");
    ingest_all(&service, &discovered);

    let reply = service.handle_line("METRICS");
    let mut lines = reply.lines();
    let status = lines.next().expect("status line");
    assert!(status.starts_with("OK "), "{status}");
    let framed: usize = status
        .split_whitespace()
        .nth(1)
        .expect("frame count")
        .parse()
        .expect("frame count is numeric");
    let payload: Vec<&str> = lines.collect();
    assert_eq!(framed, payload.len(), "frame count matches payload");

    // Sections: `# deterministic` first, `# wall` second, each sorted.
    let det_at = payload
        .iter()
        .position(|l| *l == "# deterministic")
        .expect("deterministic section header");
    let wall_at = payload
        .iter()
        .position(|l| *l == "# wall")
        .expect("wall section header");
    assert!(det_at < wall_at, "deterministic section renders first");
    for section in [&payload[det_at + 1..wall_at], &payload[wall_at + 1..]] {
        let mut sorted = section.to_vec();
        sorted.sort_unstable();
        assert_eq!(section, &sorted[..], "series sort within their section");
    }

    // The snapshot is rich: solver, shared-cache, fork, sweep, queue, and
    // latency series all present, ≥ 25 distinct series in total.
    let series: Vec<&str> = payload
        .iter()
        .copied()
        .filter(|l| !l.starts_with('#'))
        .collect();
    assert!(
        series.len() >= 25,
        "expected ≥ 25 series, got {}: {series:#?}",
        series.len()
    );
    for prefix in [
        "achilles_solver_",
        "achilles_shared_cache_",
        "achilles_fork_",
        "achilles_sweep_",
        "achilles_fleetd_queue_depth_cells{shard=\"0\"}",
        "achilles_fleetd_request_latency_ns",
        "achilles_fleetd_requests_total{verb=\"INGEST\"}",
    ] {
        assert!(
            series.iter().any(|l| l.starts_with(prefix)),
            "no series under {prefix:?}"
        );
    }

    // STATS stays the bit-compatible one-line form next to METRICS.
    let stats = service.handle_line("STATS");
    assert!(stats.starts_with("OK targets="), "{stats}");
    assert_eq!(stats.lines().count(), 1, "STATS is one line");
}

/// An in-memory connection: reads come from `input`, replies collect in
/// `output`.
struct MemStream {
    input: std::io::Cursor<Vec<u8>>,
    output: Vec<u8>,
}

impl std::io::Read for MemStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.input.read(buf)
    }
}

impl std::io::Write for MemStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.output.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn oversize_line_is_rejected_counted_and_the_stream_keeps_serving() {
    let (registry, _spec) = gossip_spec();
    let service = Fleetd::start(registry, FleetdConfig::default().quick()).expect("service starts");
    let stop = AtomicBool::new(false);
    let oversize = format!(
        "INGEST gossip/seed-sync-read {}\n",
        "1,".repeat(MAX_LINE_BYTES)
    );
    // A line of exactly the bound (newline included) is still read whole.
    let at_bound = format!("{:<width$}\n", "HELLO", width = MAX_LINE_BYTES - 1);
    let mut stream = MemStream {
        input: std::io::Cursor::new(format!("{oversize}HELLO\n{at_bound}METRICS\n").into_bytes()),
        output: Vec::new(),
    };
    serve_stream(&service, &stop, &mut stream);

    let output = String::from_utf8(stream.output).expect("replies are UTF-8");
    let mut lines = output.lines();
    let first = lines.next().expect("a reply to the oversize line");
    assert!(
        first.starts_with("ERR ") && first.contains(&MAX_LINE_BYTES.to_string()),
        "{first}"
    );
    for _ in 0..2 {
        let hello = lines.next().expect("the following lines are served");
        assert!(hello.starts_with("OK achilles-fleetd"), "{hello}");
    }
    let metrics = lines.collect::<Vec<_>>().join("\n");
    assert!(
        metrics.contains("achilles_fleetd_errors_total{class=\"oversize\"} 1"),
        "{metrics}"
    );
    assert!(!stop.load(std::sync::atomic::Ordering::SeqCst));
}

#[test]
fn registry_ingest_lines_fit_the_line_bound_with_headroom() {
    // The widest line each witness's layout can produce: every field at
    // u64::MAX.
    let widest = u64::MAX.to_string();
    let mut longest = 0;
    for spec in builtin_registry().iter() {
        for (report, records) in discover(&**spec) {
            for record in records {
                let wide: Vec<String> = record
                    .split('/')
                    .map(|slot| vec![widest.as_str(); slot.split(',').count()].join(","))
                    .collect();
                let line = format!(
                    "INGEST {}/{} {}\n",
                    spec.name(),
                    report.session,
                    wide.join("/")
                );
                longest = longest.max(line.len());
            }
        }
    }
    assert!(longest > 0, "the registry declares session witnesses");
    assert!(
        longest * 10 <= MAX_LINE_BYTES,
        "widest INGEST line {longest} bytes leaves under 10x headroom below {MAX_LINE_BYTES}"
    );
}

/// Cells the store visits loading `state_dir`, and across one `EVICT` +
/// `INGEST` + `DRAIN` of `record` (after a first ingest stored it), on a
/// pump-driven service.
fn fresh_ingest_visits(state_dir: Option<PathBuf>, scope: &str, record: &str) -> (u64, u64) {
    let mut config = FleetdConfig::default().shards(0);
    if let Some(dir) = state_dir {
        config = config.state_dir(dir);
    }
    let service = Fleetd::start(builtin_registry(), config).expect("service starts");
    let loaded = service.stats().cells_visited;
    let target = scope.split('/').next().expect("target/session scope");
    assert!(service
        .handle_line(&format!("REGISTER {target}"))
        .starts_with("OK "));
    let ingest = format!("INGEST {scope} {record}");
    assert!(service.handle_line(&ingest).starts_with("OK id=0 "));
    assert_eq!(service.handle_line("DRAIN"), "OK drained");
    let before = service.stats().cells_visited;
    let evict = service.handle_line(&format!("EVICT {scope} {record}"));
    assert!(evict.starts_with("OK evicted id=0 "), "{evict}");
    assert!(service.handle_line(&ingest).starts_with("OK id=0 "));
    assert_eq!(service.handle_line("DRAIN"), "OK drained");
    assert_eq!(service.stats().results, 1);
    (loaded, service.stats().cells_visited - before)
}

#[test]
fn fresh_ingest_store_work_ignores_unrelated_cells() {
    let registry = builtin_registry();
    let spec = registry.get("fsp").expect("fsp is built in").clone();
    let report = AchillesSession::new(&*spec)
        .run_sessions()
        .into_iter()
        .next()
        .expect("fsp declares a session");
    let witness =
        session_from_report(&report.layouts, 0, &report.trojans[0]).expect("wire-encodable");
    let scope = format!("fsp/{}", report.session);
    let record = session_witness_record(&witness.fields);

    // The witness's schedule cells, re-filed under ten unrelated scopes:
    // about ten times the cells the store holds for the witness itself.
    let target = spec.session_replay_target(&report.session);
    let planner = SchedulePlanner::new(SweepConfig::default());
    let mut own = SweepCache::new();
    let (matrix, _) = sweep_witness(&*target, &scope, &witness, &planner, 1, true, &mut own);
    let witness_cells = own.len();
    assert_eq!(witness_cells, 1 + matrix.cells.len(), "baseline + plan");
    let mut unrelated = SweepCache::new();
    for k in 0..10 {
        for cell in &matrix.cells {
            unrelated.insert(
                &format!("fsp/unrelated-{k}"),
                &witness,
                &cell.schedule,
                CachedCell {
                    class: cell.class,
                    verdict: cell.verdict,
                    signature: cell.signature.clone(),
                },
            );
        }
    }
    assert_eq!(unrelated.len(), 10 * matrix.cells.len());
    let dir = temp_dir("visits");
    std::fs::create_dir_all(&dir).expect("state dir");
    unrelated
        .save(&dir.join("fsp.sweep"))
        .expect("seed the state dir");

    let (_, alone) = fresh_ingest_visits(None, &scope, &record);
    let (loaded, crowded) = fresh_ingest_visits(Some(dir.clone()), &scope, &record);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(loaded, unrelated.len() as u64, "the state dir was loaded");
    // EVICT drops the witness's cells and the publish moves them back;
    // the extract of an evicted witness finds nothing to copy.
    assert_eq!(alone, 2 * witness_cells as u64);
    assert_eq!(
        crowded, alone,
        "a fresh ingest's store work must not grow with unrelated scopes"
    );
}
