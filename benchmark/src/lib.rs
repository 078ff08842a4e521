//! Closed-loop benchmark of the achilles pipeline through its public APIs.
//!
//! Two workloads, one client each, built from the registry defaults:
//!
//! * [`discover`] — symbolic discovery and concrete validation of every
//!   registered target (`AchillesSession`, `validate_spec`);
//! * [`serve`] — a seeded request mix against an in-process fleetd
//!   (`Fleetd::handle_line`) serving fault-schedule sweeps of the 31
//!   session witnesses; the batch answers it is checked against come
//!   from `SchedulePlanner` and `sweep_witness`.
//!
//! A measured run times the workload's operations with tracing off and
//! reports [`metrics::END_TO_END`]; a traced run repeats a fixed number
//! of operations untraced and then traced, and reports
//! [`metrics::PER_LAYER`]. `README.md` beside this crate defines every
//! metric per workload.

use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use achilles::{AchillesSession, ReplayTarget, TargetRegistry};
use achilles_replay::{session_from_report, SessionWitness};
use achilles_sweep::{sweep_witness, SchedulePlanner, SweepCache, SweepConfig};

pub mod discover;
pub mod expected;
pub mod metrics;
mod rss;
pub mod serve;
mod stats;
mod trace;

use expected::Expected;
use metrics::{Metrics, Outcome};

/// Set-ups per measured run; `setup_s` is their median.
pub(crate) const SETUP_REPEATS: usize = 5;

/// How one invocation runs.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Drives input order and request mix.
    pub seed: u64,
    /// Length of the timed phase of a measured run. A traced run sizes its
    /// fixed operation count from it.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of a measured run.
    pub traced: bool,
}

/// Operations attempted and failed, across set-up and timed phases.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts one operation whose checks gave `ok`.
    pub(crate) fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub(crate) fn finish(self, metrics: Metrics) -> Outcome {
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }
}

/// Opens the benchmark's own span around a public call (a no-op unless
/// tracing is on).
pub(crate) fn bench_span(name: &'static str) -> achilles_obs::Span {
    achilles_obs::span(name, "bench")
}

/// The timed phase of a measured run, and `setup_s` and `peak_rss_mb`.
///
/// The run is [`SETUP_REPEATS`] cycles of a set-up followed by an equal
/// share of `config.seconds` of operations. Spreading the set-ups over the
/// run lets their median see the same host conditions the operations
/// see; the host's speed drifts over tens of seconds. `set_up` returns its
/// state and how long the timed part of it took; the state is dropped
/// after its segment, outside any timing. `VmHWM` is reset after each
/// set-up, so `peak_rss_mb` — the largest segment peak — covers only
/// operations. `op` returns the samples the percentiles are taken over;
/// the last segment runs on until there are enough for a p90.
pub(crate) fn measure<S>(
    config: &RunConfig,
    tally: &mut Tally,
    metrics: &mut Metrics,
    mut set_up: impl FnMut(&mut Tally) -> (S, Duration),
    mut op: impl FnMut(&mut S, &mut Tally) -> usize,
) {
    let segment = config.seconds / SETUP_REPEATS as f64;
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut peak_kib = 0;
    for cycle in 0..SETUP_REPEATS {
        let (mut state, took) = set_up(tally);
        setups.push(took);
        rss::reset_peak().expect("reset VmHWM through /proc/self/clear_refs");
        let wanted = if cycle + 1 == SETUP_REPEATS {
            stats::P90_MIN_SAMPLES
        } else {
            0
        };
        let started = Instant::now();
        while op(&mut state, tally) < wanted || started.elapsed().as_secs_f64() < segment {}
        peak_kib = peak_kib.max(rss::peak_kib().expect("read VmHWM from /proc/self/status"));
    }
    metrics.set("setup_s", stats::median_secs(&setups));
    metrics.set("peak_rss_mb", peak_kib as f64 / 1024.0);
}

/// `(traced ÷ untraced − 1) × 100` over the same operations.
pub(crate) fn overhead_pct(untraced_ms: f64, traced_ms: f64) -> f64 {
    (stats::ratio(traced_ms, untraced_ms) - 1.0) * 100.0
}

/// A value of a process-global counter (0 before its first record).
pub(crate) fn global_counter(name: &str) -> u64 {
    achilles_obs::global().value(name, &[]).unwrap_or(0)
}

/// Fingerprint of a rendered matrix (or of one witness's `QUERY` block),
/// so checks compare answers without the harness keeping them.
pub(crate) fn text_hash(text: &str) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    text.hash(&mut hasher);
    hasher.finish()
}

/// One session witness of the registry, with where it sweeps.
#[derive(Debug)]
pub(crate) struct Witness {
    /// Registry name of the target.
    pub target: &'static str,
    /// `target/session`: the sweep-cache scope, and how fleetd requests
    /// name the session.
    pub scope: String,
    /// Index into [`Corpus::replay_targets`].
    pub replay_target: usize,
    pub witness: SessionWitness,
}

/// The session witnesses of every session-bearing registered target, in
/// discovery order — the input of the serve workload.
pub(crate) struct Corpus {
    pub witnesses: Vec<Witness>,
    pub replay_targets: Vec<Box<dyn ReplayTarget>>,
}

impl Corpus {
    /// Discovers the witnesses with `AchillesSession::run_sessions` under
    /// each spec's default configuration. Returns the corpus and whether
    /// every target found its expected session-Trojan count.
    pub(crate) fn discover(registry: &TargetRegistry, expected: &Expected) -> (Corpus, bool) {
        let mut corpus = Corpus {
            witnesses: Vec::new(),
            replay_targets: Vec::new(),
        };
        let mut ok = true;
        for spec in achilles_targets::session_bearing(registry) {
            let reports = {
                let _span = bench_span("bench:run_sessions");
                AchillesSession::new(&**spec).run_sessions()
            };
            let found: usize = reports.iter().map(|r| r.trojans.len()).sum();
            ok &= expected
                .target(spec.name())
                .is_some_and(|t| t.session_trojans == found);
            for report in &reports {
                corpus
                    .replay_targets
                    .push(spec.session_replay_target(&report.session));
                for (i, trojan) in report.trojans.iter().enumerate() {
                    corpus.witnesses.push(Witness {
                        target: spec.name(),
                        scope: format!("{}/{}", spec.name(), report.session),
                        replay_target: corpus.replay_targets.len() - 1,
                        witness: session_from_report(&report.layouts, i, trojan)
                            .expect("session layouts are wire-encodable"),
                    });
                }
            }
        }
        (corpus, ok)
    }

    /// Sweeps every witness once in batch — `sweep_witness` over the
    /// default schedule space, fork-server on, one worker, fresh cache —
    /// for each witness's reference answer. Returns the references and
    /// whether each target's cell total is the expected one.
    pub(crate) fn reference(&self, expected: &Expected) -> (Vec<Reference>, bool) {
        let planner = default_planner();
        let mut cache = SweepCache::new();
        let references: Vec<Reference> = self
            .witnesses
            .iter()
            .map(|w| {
                let (matrix, _) = sweep_witness(
                    &*self.replay_targets[w.replay_target],
                    &w.scope,
                    &w.witness,
                    &planner,
                    1,
                    true,
                    &mut cache,
                );
                Reference {
                    cells: matrix.cells.len(),
                    hash: text_hash(&matrix.to_text()),
                }
            })
            .collect();
        let ok = expected.targets.iter().all(|t| {
            let cells: usize = self
                .witnesses
                .iter()
                .zip(&references)
                .filter(|(w, _)| w.target == t.name)
                .map(|(_, r)| r.cells)
                .sum();
            cells == t.sweep_cells
        });
        (references, ok)
    }
}

/// One witness's batch answer: its matrix's cell count and fingerprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Reference {
    pub cells: usize,
    pub hash: u64,
}

/// The planner `sweep_campaign` and `achilles-fleetd` use by default.
pub(crate) fn default_planner() -> SchedulePlanner {
    SchedulePlanner::new(SweepConfig::default())
}
