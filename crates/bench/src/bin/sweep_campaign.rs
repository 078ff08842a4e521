//! Fault-schedule sweep campaigns over every session-bearing target —
//! which delivery faults arm or disarm each session Trojan.
//!
//! The bin is registry-driven: it iterates every registered
//! [`TargetSpec`] that declares sessions (or one
//! selected with `--target NAME`), discovers its session Trojans, replays
//! each witness under the planner's whole bounded schedule space, and
//! prints the per-session sensitivity totals (Armed / Diverged /
//! Disarmed / Masked / NewSignature — Diverged being the armed class of
//! multi-node targets whose detonation is a silent root split). There is
//! no per-protocol code path: a new protocol crate that declares a
//! session gets a sweep row automatically.
//!
//! ```text
//! cargo run --release -p achilles-bench --bin sweep_campaign -- --json
//! ```
//!
//! Every run times three fresh-cache variants of each session sweep,
//! interleaved: the fork-server at 1 and at 2 workers and cold replay at
//! 2 workers. Workers fan out over witnesses, each holding one
//! fork-server. Each variant repeats until it has timed ≥ 100 ms over
//! ≥ 15 repetitions, and the JSON reports medians with their IQR. Every
//! repetition's matrices must equal the 1-worker fork sweep's, and so
//! must one more sweep at 4 workers — scaling must never buy speed with
//! soundness, and fork classifications must equal per-cell cold boots.
//! `--no-fork` turns the fork-server off everywhere (the CI baseline
//! variant; its cold-at-2 variant is then the 2-worker variant itself).
//!
//! With `--corpus DIR`, each target's sweep cells persist to
//! `DIR/<name>.sweep` across runs (the CI cache wires this up keyed on
//! the sweep-cache format version), so cross-commit re-sweeps replay only
//! genuinely new (witness, schedule) pairs. After the recorded run, a
//! warm second iteration re-sweeps the same reports against the populated
//! cache and must replay nothing — its hit counts are emitted as
//! `warm_cache_hits`.
//!
//! With `--serve-compat`, the batch campaign is followed by an assert
//! pass: a fleetd service is seeded with the same discovered witnesses
//! and every target's queried sensitivity matrices must be bit-identical
//! to the batch output — the resident service and the batch pipeline are
//! two drivers of one sweep body, and this keeps them provably so.
//!
//! With `--json [PATH]`, emits `BENCH_sweep.json` including the host core
//! count, fork-server savings (`boots_saved`,
//! `snapshot_restores`, `mean_shared_prefix_depth`) and the timed
//! variants: `seq_wall_s` (fork, 1 worker), `fork_wall_s` (fork, 2
//! workers) and `cold_wall_s` (cold, 2 workers) are medians over `reps`
//! repetitions, each with its `*_iqr_s`; `speedup` is the 1-worker median
//! over the 2-worker median, and `efficiency` is speedup ÷ min(2,
//! discovered witnesses, host cores) — workers take whole witnesses — so
//! multicore measurements stay interpretable. `wall_s` is the recorded run's single wall time.
//!
//! With `--check-proofs` (or `ACHILLES_CHECK_PROOFS=1`), the independent
//! certificate checker audits every unsat verdict the discovery produces;
//! the first rejected certificate aborts the run with a panic naming the
//! rejection. `--no-subsumption` turns the shared cache's unsat-core
//! subsumption index off, for bit-identity comparisons against the default
//! configuration.

use std::path::PathBuf;
use std::time::Duration;

use achilles::export::session_witness_record;
use achilles::{SessionReport, TargetSpec};
use achilles_bench::{
    arg_present, arg_value, arg_value_required, header, host_cores, row, trace_path_from_args,
    write_trace,
};
use achilles_fleetd::{Fleetd, FleetdConfig};
use achilles_replay::session_from_report;
use achilles_sweep::{
    schedule_token, sweep_report, CampaignConfig, ScheduleClass, SessionSweep, SweepCache,
};
use achilles_targets::builtin_registry;

/// The least time, and the fewest repetitions, each timed variant takes.
const MIN_VARIANT_WALL: Duration = Duration::from_millis(100);
const MIN_REPS: usize = 15;

fn sweep_cache_path(dir: &str, name: &str) -> PathBuf {
    PathBuf::from(dir).join(format!("{name}.sweep"))
}

/// The scheduling-independent fingerprint of a campaign: every matrix's
/// (schedule, class, signature) rows, in plan order.
fn campaign_key(sweeps: &[SessionSweep]) -> Vec<Vec<(String, ScheduleClass, String)>> {
    sweeps
        .iter()
        .flat_map(|s| &s.matrices)
        .map(|m| {
            m.cells
                .iter()
                .map(|c| (schedule_token(&c.schedule), c.class, c.signature.to_line()))
                .collect()
        })
        .collect()
}

/// Median and interquartile range of a variant's wall times, in seconds.
#[derive(Clone, Copy, Default)]
struct Spread {
    median: f64,
    iqr: f64,
}

impl Spread {
    fn of(samples: &[f64]) -> Spread {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        // Linear interpolation between the two nearest ranks.
        let at = |q: f64| {
            let rank = q * (sorted.len() - 1) as f64;
            let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        };
        Spread {
            median: at(0.5),
            iqr: at(0.75) - at(0.25),
        }
    }
}

/// The timed fresh-cache variants of one session sweep.
struct Timing {
    /// Repetitions each variant ran.
    reps: usize,
    /// Fork-server, 1 worker.
    seq: Spread,
    /// Fork-server, 2 workers.
    par: Spread,
    /// Cold replay, 2 workers (only when forking).
    cold: Option<Spread>,
    /// The last 2-worker sweep — the fork stats come from here.
    par_sweep: SessionSweep,
}

/// Sweeps `report` with fresh caches under `base` at 1 and 2 workers and
/// (when `base` forks) cold at 2 workers, interleaved, until every
/// variant has timed [`MIN_VARIANT_WALL`] over at least [`MIN_REPS`]
/// repetitions. Every repetition, and one more sweep at 4 workers, must
/// reproduce the first 1-worker sweep's matrices.
fn time_variants(spec: &dyn TargetSpec, report: &SessionReport, base: &CampaignConfig) -> Timing {
    let name = format!("{}/{}", spec.name(), report.session);
    let mut variants = vec![base.clone(), base.clone().with_workers(2)];
    if base.fork {
        variants.push(CampaignConfig::default().without_fork().with_workers(2));
    }
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    let mut reference = None;
    let mut par_sweep = None;
    while samples
        .iter()
        .any(|s| s.len() < MIN_REPS || s.iter().sum::<f64>() < MIN_VARIANT_WALL.as_secs_f64())
    {
        for (i, config) in variants.iter().enumerate() {
            let sweep = sweep_report(spec, report, config, &mut SweepCache::new());
            samples[i].push(sweep.elapsed.as_secs_f64());
            let key = campaign_key(std::slice::from_ref(&sweep));
            match &reference {
                None => reference = Some(key),
                Some(r) => assert!(
                    r == &key,
                    "{name}: sensitivity matrices must be identical for every \
                     worker count and for fork and cold replay"
                ),
            }
            if i == 1 {
                par_sweep = Some(sweep);
            }
        }
    }
    let four = sweep_report(
        spec,
        report,
        &base.clone().with_workers(4),
        &mut SweepCache::new(),
    );
    assert!(
        reference.as_ref() == Some(&campaign_key(std::slice::from_ref(&four))),
        "{name}: sensitivity matrices must be identical at 4 workers"
    );
    Timing {
        reps: samples[0].len(),
        seq: Spread::of(&samples[0]),
        par: Spread::of(&samples[1]),
        cold: samples.get(2).map(|s| Spread::of(s)),
        par_sweep: par_sweep.expect("at least one repetition"),
    }
}

/// Everything one JSON row needs: the recorded sweep plus the timed
/// variants around it.
struct BenchRow {
    /// The recorded (cache-assisted) sweep.
    sweep: SessionSweep,
    /// Workers requested on the command line.
    requested: usize,
    /// The timed fresh-cache variants.
    timing: Timing,
    /// Replays performed by the warm second iteration (0 when the cache
    /// works).
    warm_replayed: usize,
    /// Cache hits of the warm second iteration.
    warm_cache_hits: usize,
    /// Unsat verdicts (each certificate-carrying) the target's discovery
    /// published into its shared cache. Per-target totals: sessions of one
    /// target share an engine, so every session row of the target reports
    /// the same discovery-wide numbers.
    certified_unsat: u64,
    /// Discovery queries answered by the unsat-core subsumption index.
    core_subsumption_hits: u64,
    /// Certificates validated by the proof audit during this target's
    /// discovery (0 unless `--check-proofs` / `ACHILLES_CHECK_PROOFS`).
    proof_checked: u64,
    /// Wall-clock time the proof audit spent on this target's discovery.
    proof_check_wall_s: f64,
}

fn main() {
    let trace = trace_path_from_args();
    let registry = builtin_registry();
    let selected = arg_value_required("--target");
    let names: Vec<&str> = match &selected {
        Some(name) => {
            if registry.get(name).is_none() {
                eprintln!(
                    "unknown --target {name:?}; registered targets: {}",
                    registry.names().join(", ")
                );
                std::process::exit(2);
            }
            vec![name.as_str()]
        }
        None => registry.names(),
    };
    let corpus_dir = arg_value_required("--corpus");
    let workers = achilles_bench::workers_from_args().max(1);
    let fork_enabled = !arg_present("--no-fork");
    let subsumption = !arg_present("--no-subsumption");
    let check_proofs = if arg_present("--check-proofs") {
        achilles_proofcheck::install_audit();
        true
    } else {
        achilles_proofcheck::install_audit_from_env()
    };
    let cores = host_cores();

    header(&format!(
        "Fault-schedule sweep campaigns ({}; {cores} host core(s); fork-server {}; \
         subsumption {}; proof audit {})",
        names.join(" + "),
        if fork_enabled { "on" } else { "off" },
        if subsumption { "on" } else { "off" },
        if check_proofs { "on" } else { "off" },
    ));

    let base_config = if fork_enabled {
        CampaignConfig::default()
    } else {
        CampaignConfig::default().without_fork()
    };
    let mut rows: Vec<BenchRow> = Vec::new();
    // `(target, session, record, matrix_text)` per batch-swept witness —
    // the --serve-compat oracle.
    let mut serve_oracle: Vec<(String, String, String, String)> = Vec::new();
    for name in &names {
        let spec = registry.get(name).expect("validated above");
        if spec.sessions().is_empty() {
            println!("{}", row(name, "no declared sessions — skipped"));
            continue;
        }

        // Symbolic session discovery runs ONCE per target; the worker
        // comparison, the fork-vs-cold comparison, and the recorded run
        // all sweep the same reports.
        let mut driver = achilles::AchillesSession::new(&**spec).workers(workers);
        driver.engine().shared_cache().set_subsumption(subsumption);
        let (audit_checks_before, audit_wall_before) = achilles_solver::proof_audit_stats();
        let reports = driver.run_sessions();
        let (audit_checks_after, audit_wall_after) = achilles_solver::proof_audit_stats();
        let cache_stats = driver.engine().shared_cache().stats();
        let proof_checked = audit_checks_after - audit_checks_before;
        let proof_check_wall_s = (audit_wall_after - audit_wall_before).as_secs_f64();
        println!(
            "{}",
            row(
                &format!("{name}/certificates"),
                format!(
                    "{} certified unsat, {} cores indexed, {} subsumption hits, \
                     {} audited ({:.3}s)",
                    cache_stats.certified_unsat,
                    cache_stats.cores_indexed,
                    cache_stats.core_subsumption_hits,
                    proof_checked,
                    proof_check_wall_s,
                )
            )
        );

        // Worker-count and fork ≡ cold bit-identity, timed: fresh caches
        // everywhere, so every cell is genuinely replayed and compared.
        let timing: Vec<Timing> = reports
            .iter()
            .map(|report| time_variants(&**spec, report, &base_config))
            .collect();

        // The recorded run: cache-assisted and persistent when --corpus is
        // given — followed by a warm second iteration that must be
        // replay-free.
        let mut cache = match corpus_dir.as_deref() {
            Some(dir) => match SweepCache::load(&sweep_cache_path(dir, name)) {
                Ok(cache) => cache,
                // A malformed cache file is reported, never silently
                // swallowed — but a bench run re-derives, it doesn't die.
                Err(e) => {
                    eprintln!("warning: ignoring unreadable sweep cache for {name}: {e}");
                    SweepCache::new()
                }
            },
            None => SweepCache::new(),
        };
        let recorded_config = base_config.clone().with_workers(workers);
        let sweeps: Vec<SessionSweep> = reports
            .iter()
            .map(|report| sweep_report(&**spec, report, &recorded_config, &mut cache))
            .collect();
        let warm: Vec<SessionSweep> = reports
            .iter()
            .map(|report| sweep_report(&**spec, report, &recorded_config, &mut cache))
            .collect();
        if let Some(dir) = corpus_dir.as_deref() {
            std::fs::create_dir_all(dir).expect("create corpus dir");
            cache
                .save(&sweep_cache_path(dir, name))
                .expect("persist sweep cache");
        }
        for (report, sweep) in reports.iter().zip(&sweeps) {
            for (matrix, (i, trojan)) in
                sweep.matrices.iter().zip(report.trojans.iter().enumerate())
            {
                let witness = session_from_report(&report.layouts, i, trojan)
                    .expect("session layouts are wire-encodable");
                serve_oracle.push((
                    name.to_string(),
                    report.session.clone(),
                    session_witness_record(&witness.fields),
                    matrix.to_text(),
                ));
            }
        }
        for ((sweep, timing), warm_sweep) in sweeps.into_iter().zip(timing).zip(warm) {
            assert_eq!(
                sweep.confirmed_fault_free, sweep.discovered,
                "{name}/{}: every session Trojan must confirm under the \
                 fault-free baseline before its schedule space means anything",
                sweep.session
            );
            assert!(
                sweep.discovered == 0 || (sweep.armed + sweep.diverged >= 1 && sweep.disarmed >= 1),
                "{name}/{}: a session Trojan's sensitivity matrix must name \
                 at least one arming (or diverging) and one disarming schedule",
                sweep.session
            );
            assert_eq!(
                warm_sweep.replayed, 0,
                "{name}/{}: the warm second iteration must answer every \
                 cell from the sweep cache",
                warm_sweep.session
            );
            println!(
                "{}",
                row(
                    &format!("{name}/{}", sweep.session),
                    format!(
                        "{} Trojans, {} cells: {} armed, {} diverged, {} disarmed, \
                         {} masked, {} new-signature; {} replayed, {} cached, \
                         {} warm hits ({:.3}s)",
                        sweep.discovered,
                        sweep.cells,
                        sweep.armed,
                        sweep.diverged,
                        sweep.disarmed,
                        sweep.masked,
                        sweep.new_signature,
                        sweep.replayed,
                        sweep.cache_hits,
                        warm_sweep.cache_hits,
                        sweep.elapsed.as_secs_f64(),
                    )
                )
            );
            let par = &timing.par_sweep;
            if fork_enabled {
                println!(
                    "{}",
                    row(
                        "  fork-server",
                        format!(
                            "{} boots for {} cells ({} saved), {} clones, mean \
                             shared prefix {:.2} @2 workers",
                            par.fork.boots,
                            par.fork.plans,
                            par.boots_saved(),
                            par.fork.snapshot_restores,
                            par.mean_shared_prefix_depth(),
                        )
                    )
                );
            }
            println!(
                "{}",
                row(
                    "  timing",
                    format!(
                        "median (IQR) over {} reps: 1 worker {:.4}s ({:.4}), \
                         2 workers {:.4}s ({:.4}){}",
                        timing.reps,
                        timing.seq.median,
                        timing.seq.iqr,
                        timing.par.median,
                        timing.par.iqr,
                        timing
                            .cold
                            .map(|c| format!(", cold @2 {:.4}s ({:.4})", c.median, c.iqr))
                            .unwrap_or_default(),
                    )
                )
            );
            rows.push(BenchRow {
                sweep,
                requested: workers,
                timing,
                warm_replayed: warm_sweep.replayed,
                warm_cache_hits: warm_sweep.cache_hits,
                certified_unsat: cache_stats.certified_unsat,
                core_subsumption_hits: cache_stats.core_subsumption_hits,
                proof_checked,
                proof_check_wall_s,
            });
        }
    }

    if arg_present("--serve-compat") {
        // Assert mode: seed a fleetd service from the same discovery and
        // require its queried matrices to be bit-identical to the batch
        // campaign just recorded — the service/batch differential, run
        // against the real binaries' configuration.
        header("serve-compat: fleetd vs batch bit-identity");
        let service =
            Fleetd::start(builtin_registry(), FleetdConfig::default()).expect("fleetd starts");
        for (target, session, record, _) in &serve_oracle {
            let reply = service.handle_line(&format!("REGISTER {target}"));
            assert!(reply.starts_with("OK "), "{reply}");
            let reply = service.handle_line(&format!("INGEST {target}/{session} {record}"));
            assert!(reply.starts_with("OK "), "ingest {record}: {reply}");
        }
        assert_eq!(service.handle_line("DRAIN"), "OK drained");
        for name in &names {
            // The service stores one witness per canonical record, so the
            // oracle dedupes to first-seen per (session, record).
            let mut expected: Vec<String> = Vec::new();
            let mut first = std::collections::HashSet::new();
            for (target, session, record, text) in &serve_oracle {
                if target == name && first.insert((session.clone(), record.clone())) {
                    expected.extend(text.lines().map(str::to_string));
                }
            }
            if expected.is_empty() {
                continue;
            }
            let reply = service.handle_line(&format!("QUERY {name}"));
            assert!(reply.starts_with("OK "), "{reply}");
            let got: Vec<String> = reply.lines().skip(1).map(str::to_string).collect();
            assert_eq!(
                got, expected,
                "{name}: fleetd matrices must be bit-identical to the batch campaign"
            );
            println!(
                "{}",
                row(
                    name,
                    format!("{} matrix line(s) bit-identical through fleetd", got.len())
                )
            );
        }
    }

    if arg_present("--json") {
        let path = arg_value("--json").unwrap_or_else(|| "BENCH_sweep.json".to_string());
        let path = if path.starts_with("--") {
            "BENCH_sweep.json".to_string()
        } else {
            path
        };
        let mut json = String::new();
        json.push_str("{\n  \"bench\": \"sweep_campaign\",\n");
        json.push_str(&format!("  \"host_cores\": {cores},\n"));
        json.push_str(&format!("  \"fork\": {fork_enabled},\n"));
        json.push_str("  \"sessions\": [\n");
        for (i, r) in rows.iter().enumerate() {
            let s = &r.sweep;
            let t = &r.timing;
            let speedup = if t.par.median > 0.0 {
                t.seq.median / t.par.median
            } else {
                1.0
            };
            // Scaling efficiency: workers take whole witnesses, and only
            // as many workers as the host has cores run at once.
            let efficiency = speedup / 2.min(s.discovered).min(cores).max(1) as f64;
            let (fork, cold) = match t.cold {
                Some(cold) => (t.par, cold),
                None => (Spread::default(), t.par),
            };
            json.push_str(&format!(
                "    {{\"system\": \"{}\", \"session\": \"{}\", \"discovered\": {}, \
                 \"confirmed_fault_free\": {}, \"cells\": {}, \"armed\": {}, \
                 \"diverged\": {}, \"disarmed\": {}, \"masked\": {}, \
                 \"new_signature\": {}, \
                 \"replayed\": {}, \"cache_hits\": {}, \"warm_replayed\": {}, \
                 \"warm_cache_hits\": {}, \"workers\": {}, \
                 \"wall_s\": {:.4}, \
                 \"boots_saved\": {}, \"snapshot_restores\": {}, \
                 \"mean_shared_prefix_depth\": {:.4}, \"reps\": {}, \
                 \"seq_wall_s\": {:.4}, \"seq_wall_iqr_s\": {:.4}, \
                 \"fork_wall_s\": {:.4}, \"fork_wall_iqr_s\": {:.4}, \
                 \"cold_wall_s\": {:.4}, \"cold_wall_iqr_s\": {:.4}, \
                 \"speedup\": {:.4}, \
                 \"efficiency\": {:.4}, \"certified_unsat\": {}, \
                 \"core_subsumption_hits\": {}, \"proof_checked\": {}, \
                 \"proof_check_wall_s\": {:.4}}}{}\n",
                s.target,
                s.session,
                s.discovered,
                s.confirmed_fault_free,
                s.cells,
                s.armed,
                s.diverged,
                s.disarmed,
                s.masked,
                s.new_signature,
                s.replayed,
                s.cache_hits,
                r.warm_replayed,
                r.warm_cache_hits,
                r.requested,
                s.elapsed.as_secs_f64(),
                t.par_sweep.boots_saved(),
                t.par_sweep.fork.snapshot_restores,
                t.par_sweep.mean_shared_prefix_depth(),
                t.reps,
                t.seq.median,
                t.seq.iqr,
                fork.median,
                fork.iqr,
                cold.median,
                cold.iqr,
                speedup,
                efficiency,
                r.certified_unsat,
                r.core_subsumption_hits,
                r.proof_checked,
                r.proof_check_wall_s,
                if i + 1 == rows.len() { "" } else { "," },
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
