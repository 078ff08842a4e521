//! The campaign executor: every (witness, schedule) pair replayed,
//! classified, and folded into per-witness sensitivity matrices.
//!
//! [`run_campaign`] is registry-drivable: it takes any
//! [`TargetSpec`], discovers the spec's declared
//! session Trojans through
//! [`AchillesSession::run_sessions`](achilles::AchillesSession::run_sessions),
//! and hands each [`SessionReport`] to [`sweep_report`]. A sweep runs the
//! way the fleetd executors do: it plans each witness, fans the witnesses
//! out over [`achilles_symvm::parallel_map_with`] workers that each hold
//! one [`ForkServer`] for every witness they claim, sweeps each witness
//! against its own extract of the [`SweepCache`], and merges the extracts
//! back in witness order. Replay is a pure function of the (witness,
//! schedule) pair, so every matrix and the cache's bytes are identical for
//! every worker count. The cache makes re-campaigns incremental: known
//! pairs — the baseline included, under the `none` schedule token — are
//! looked up, not replayed. Callers that already hold a
//! [`SessionReport`] (a bench comparing worker counts, say) use
//! [`sweep_report`] directly and pay for discovery once.

use std::time::{Duration, Instant};

use achilles::export::session_witness_record;
use achilles::{AchillesSession, ReplayTarget, SessionReport, TargetSpec};
use achilles_replay::{
    session_from_report, FaultSchedule, ForkServer, ForkStats, ReplayVerdict, SessionWitness,
};
use achilles_symvm::parallel_map_with;

use crate::cache::{CachedCell, SweepCache};
use crate::matrix::{
    classify, schedule_token, Baseline, ScheduleClass, SensitivityCell, SensitivityMatrix,
};
use crate::planner::{SchedulePlanner, SweepConfig};

/// Configuration of one sweep campaign.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// The schedule space enumerated per witness.
    pub sweep: SweepConfig,
    /// Worker threads the witnesses fan out over, one fork-server each
    /// (and the session discovery's workers; 0/1 = inline).
    pub workers: usize,
    /// Replay fresh cells through the fork-server (default).
    /// `false` replays through the cold reference, [`ForkServer::cold`] —
    /// the `--no-fork` baseline; classifications are bit-identical either
    /// way.
    pub fork: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            sweep: SweepConfig::default(),
            workers: 0,
            fork: true,
        }
    }
}

impl CampaignConfig {
    /// Fan the witnesses out over `n` threads.
    pub fn with_workers(mut self, n: usize) -> CampaignConfig {
        self.workers = n.max(1);
        self
    }

    /// Disable the fork-server: cold-boot every fresh cell.
    pub fn without_fork(mut self) -> CampaignConfig {
        self.fork = false;
        self
    }
}

/// Replay accounting of one witness sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WitnessSweepStats {
    /// Replays actually performed (schedule cells plus the fault-free
    /// baseline when it was not cached).
    pub replayed: usize,
    /// Lookups answered from the [`SweepCache`] (baseline included).
    pub cache_hits: usize,
    /// Everything the server did for this witness, the baseline included
    /// (cold stats — one boot per cell, nothing shared — on a cold
    /// server).
    pub fork: ForkStats,
}

/// Sweeps one witness within `scope` (the `target/session` cache
/// namespace): fault-free baseline, planned schedule space, one
/// classified [`SensitivityCell`] per schedule — all cache-assisted,
/// the baseline included.
///
/// One-shot form of the body [`sweep_report`] runs over a report's
/// witnesses: it plans the witness and sweeps it through a fresh
/// [`ForkServer`] ([`ForkServer::cold`] when `fork` is off). `workers`
/// counts threads over witnesses, so one witness runs on the calling
/// thread.
pub fn sweep_witness(
    target: &dyn ReplayTarget,
    scope: &str,
    witness: &SessionWitness,
    planner: &SchedulePlanner,
    workers: usize,
    fork: bool,
    cache: &mut SweepCache,
) -> (SensitivityMatrix, WitnessSweepStats) {
    sweep_witnesses(
        target,
        scope,
        std::slice::from_ref(witness),
        planner,
        workers,
        fork,
        cache,
    )
    .pop()
    .expect("one sweep per witness")
}

/// The sweep body behind [`sweep_witness`] and [`sweep_report`], in
/// fleetd's executor shape: plans each witness, fans the witnesses out
/// over `workers` threads that each hold one [`ForkServer`] (fork or
/// cold) for every witness they claim, sweeps each witness against its
/// own extract of `cache`, and merges the extracts back in witness order.
fn sweep_witnesses(
    target: &dyn ReplayTarget,
    scope: &str,
    witnesses: &[SessionWitness],
    planner: &SchedulePlanner,
    workers: usize,
    fork: bool,
    cache: &mut SweepCache,
) -> Vec<(SensitivityMatrix, WitnessSweepStats)> {
    let planned: Vec<(&SessionWitness, Vec<FaultSchedule>)> = witnesses
        .iter()
        .map(|witness| (witness, planner.plan(witness)))
        .collect();
    let store = &*cache;
    let swept = parallel_map_with(
        workers,
        &planned,
        |_| {
            if fork {
                ForkServer::new(target)
            } else {
                ForkServer::cold(target)
            }
        },
        |server, _, (witness, schedules)| {
            let mut seed = store.extract_witness(scope, witness);
            let (matrix, stats) = sweep_witness_on(server, scope, witness, schedules, &mut seed);
            (matrix, stats, seed)
        },
    );
    swept
        .into_iter()
        .map(|(matrix, stats, seed)| {
            cache.merge(seed);
            (matrix, stats)
        })
        .collect()
}

/// Sweeps one witness over its planned `schedules` through an existing
/// [`ForkServer`] — the shared body behind [`sweep_report`] and the
/// fleetd campaign executors, so service answers are bit-identical to
/// batch answers by construction: same baseline, same plan, same replay
/// entry points, same classification. `schedules` is what
/// [`SchedulePlanner::plan`] returned for `witness`; a caller that
/// already planned (to size the work, say) passes that plan on instead of
/// planning twice.
pub fn sweep_witness_on(
    server: &mut ForkServer<'_>,
    scope: &str,
    witness: &SessionWitness,
    schedules: &[FaultSchedule],
    cache: &mut SweepCache,
) -> (SensitivityMatrix, WitnessSweepStats) {
    let _span = achilles_obs::span("sweep:witness", "sweep");
    let mut stats = WitnessSweepStats::default();
    // The witness's record is formatted once; each of its cells is then
    // keyed by the schedule token alone.
    let known = cache.witness_cells(scope, session_witness_record(&witness.fields));

    // The baseline is a (witness, schedule) cell like any other — cached
    // under the `none` schedule token, with the slot attribution riding in
    // the signature's `trojan-slot:<N>` markers.
    let baseline_token = schedule_token(&FaultSchedule::none());
    let baseline = match known.get(&baseline_token) {
        Some(cell) => {
            stats.cache_hits += 1;
            Baseline::from_signature(cell.verdict, cell.signature.clone())
        }
        None => {
            stats.replayed += 1;
            let (result, fork) = server.replay_baseline(witness);
            stats.fork.absorb(&fork);
            let baseline = Baseline::of(&result);
            known.insert(
                baseline_token,
                CachedCell {
                    // The baseline judged against itself: armed — or
                    // diverged, when its own detonation is a silent
                    // multi-node split — when it confirms (the value is
                    // never consulted for classification — the verdict
                    // and signature are).
                    class: if result.verdict == ReplayVerdict::ConfirmedTrojan {
                        if result.signature.diverged() {
                            ScheduleClass::Diverged
                        } else {
                            ScheduleClass::Armed
                        }
                    } else {
                        ScheduleClass::Disarmed
                    },
                    verdict: result.verdict,
                    signature: result.signature,
                },
            );
            baseline
        }
    };

    // Per schedule: its token, and its cached cell when there is one.
    let mut lookups: Vec<(String, Option<CachedCell>)> = Vec::with_capacity(schedules.len());
    let mut fresh: Vec<&FaultSchedule> = Vec::new();
    for schedule in schedules {
        let token = schedule_token(schedule);
        let hit = known.get(&token).cloned();
        match hit {
            Some(_) => stats.cache_hits += 1,
            None => fresh.push(schedule),
        }
        lookups.push((token, hit));
    }
    stats.replayed += fresh.len();
    let (replayed, fork) = server.replay_schedules(witness, &fresh);
    stats.fork.absorb(&fork);

    let mut replayed = replayed.into_iter();
    let cells: Vec<SensitivityCell> = schedules
        .iter()
        .zip(lookups)
        .map(|(schedule, (token, hit))| match hit {
            Some(cell) => SensitivityCell {
                schedule: schedule.clone(),
                class: cell.class,
                verdict: cell.verdict,
                signature: cell.signature,
            },
            None => {
                let result = replayed.next().expect("one replay per fresh schedule");
                let class = classify(&baseline, &result);
                known.insert(
                    token,
                    CachedCell {
                        class,
                        verdict: result.verdict,
                        signature: result.signature.clone(),
                    },
                );
                SensitivityCell {
                    schedule: schedule.clone(),
                    class,
                    verdict: result.verdict,
                    signature: result.signature,
                }
            }
        })
        .collect();

    record_witness_metrics(&stats, &cells);

    (
        SensitivityMatrix {
            witness: witness.clone(),
            baseline_verdict: baseline.verdict,
            baseline_signature: baseline.signature,
            baseline_trojan_slots: baseline.trojan_slots,
            cells,
        },
        stats,
    )
}

/// Mirrors one witness sweep's counters into the process metrics registry
/// as `achilles_sweep_*` series. Cell totals, the replayed/cached split,
/// and the per-class breakdown are all fixed by (witness, planner, cache
/// state), so every series is
/// [`Deterministic`](achilles_obs::Class::Deterministic); the fork-server's
/// own wall-varying counters are recorded separately by
/// [`ForkStats::record_metrics`].
fn record_witness_metrics(stats: &WitnessSweepStats, cells: &[SensitivityCell]) {
    use achilles_obs::Class::Deterministic;
    let reg = achilles_obs::global();
    reg.add(Deterministic, "achilles_sweep_witnesses_total", &[], 1);
    reg.add(
        Deterministic,
        "achilles_sweep_cells_total",
        &[],
        cells.len() as u64,
    );
    reg.add(
        Deterministic,
        "achilles_sweep_replays_total",
        &[],
        stats.replayed as u64,
    );
    reg.add(
        Deterministic,
        "achilles_sweep_cache_hits_total",
        &[],
        stats.cache_hits as u64,
    );
    for (class, label) in [
        (ScheduleClass::Armed, "armed"),
        (ScheduleClass::Diverged, "diverged"),
        (ScheduleClass::Disarmed, "disarmed"),
        (ScheduleClass::Masked, "masked"),
        (ScheduleClass::NewSignature, "new_signature"),
    ] {
        let count = cells.iter().filter(|c| c.class == class).count() as u64;
        reg.add(
            Deterministic,
            "achilles_sweep_cells_by_class_total",
            &[("class", label)],
            count,
        );
    }
}

/// Everything one campaign produced for one declared session.
#[derive(Debug)]
pub struct SessionSweep {
    /// The swept target's registry name.
    pub target: &'static str,
    /// The declared session's name.
    pub session: String,
    /// Session Trojans discovered by the symbolic analysis.
    pub discovered: usize,
    /// Witnesses whose fault-free baseline confirmed concretely.
    pub confirmed_fault_free: usize,
    /// One sensitivity matrix per witness, in report order.
    pub matrices: Vec<SensitivityMatrix>,
    /// Total matrix cells (witnesses × planned schedules; baselines are
    /// accounted in `replayed`/`cache_hits`, not here).
    pub cells: usize,
    /// Replays actually performed (the rest were sweep-cache hits).
    pub replayed: usize,
    /// Lookups answered from the sweep cache (baselines included).
    pub cache_hits: usize,
    /// Cells classified [`ScheduleClass::Armed`].
    pub armed: usize,
    /// Cells classified [`ScheduleClass::Diverged`] — armed, with the
    /// reproduced detonation a silent multi-node root split.
    pub diverged: usize,
    /// Cells classified [`ScheduleClass::Disarmed`].
    pub disarmed: usize,
    /// Cells classified [`ScheduleClass::Masked`].
    pub masked: usize,
    /// Cells classified [`ScheduleClass::NewSignature`].
    pub new_signature: usize,
    /// Fork-server accounting summed over the witnesses, baselines
    /// included (cold stats on the cold path).
    pub fork: ForkStats,
    /// Wall-clock time of the whole session sweep (discovery excluded).
    pub elapsed: Duration,
}

impl SessionSweep {
    /// Count of cells with `class`, summed over the matrices.
    pub fn count(&self, class: ScheduleClass) -> usize {
        match class {
            ScheduleClass::Armed => self.armed,
            ScheduleClass::Diverged => self.diverged,
            ScheduleClass::Disarmed => self.disarmed,
            ScheduleClass::Masked => self.masked,
            ScheduleClass::NewSignature => self.new_signature,
        }
    }

    /// Deployment boots the fork-server avoided relative to cold replay.
    pub fn boots_saved(&self) -> usize {
        self.fork.boots_saved()
    }

    /// Mean prefix-trie depth replayed cells were resumed from.
    pub fn mean_shared_prefix_depth(&self) -> f64 {
        self.fork.mean_shared_prefix_depth()
    }
}

/// Sweeps every witness of one discovered [`SessionReport`] — the unit a
/// caller that already paid for discovery composes with: the report can
/// be swept several times (different worker counts, different caches)
/// without re-running the symbolic analysis.
pub fn sweep_report(
    spec: &dyn TargetSpec,
    report: &SessionReport,
    config: &CampaignConfig,
    cache: &mut SweepCache,
) -> SessionSweep {
    let started = Instant::now();
    let target = spec.session_replay_target(&report.session);
    let scope = format!("{}/{}", spec.name(), report.session);
    let planner = SchedulePlanner::new(config.sweep.clone());
    let witnesses: Vec<SessionWitness> = report
        .trojans
        .iter()
        .enumerate()
        .map(|(i, trojan)| {
            session_from_report(&report.layouts, i, trojan)
                .expect("session layouts are wire-encodable")
        })
        .collect();
    let mut sweep = SessionSweep {
        target: spec.name(),
        session: report.session.clone(),
        discovered: report.trojans.len(),
        confirmed_fault_free: 0,
        matrices: Vec::with_capacity(report.trojans.len()),
        cells: 0,
        replayed: 0,
        cache_hits: 0,
        armed: 0,
        diverged: 0,
        disarmed: 0,
        masked: 0,
        new_signature: 0,
        fork: ForkStats::default(),
        elapsed: Duration::ZERO,
    };
    let swept = sweep_witnesses(
        &*target,
        &scope,
        &witnesses,
        &planner,
        config.workers.max(1),
        config.fork,
        cache,
    );
    for (matrix, stats) in swept {
        if matrix.baseline_verdict == ReplayVerdict::ConfirmedTrojan {
            sweep.confirmed_fault_free += 1;
        }
        sweep.cells += matrix.cells.len();
        sweep.replayed += stats.replayed;
        sweep.cache_hits += stats.cache_hits;
        sweep.fork.absorb(&stats.fork);
        sweep.armed += matrix.count(ScheduleClass::Armed);
        sweep.diverged += matrix.count(ScheduleClass::Diverged);
        sweep.disarmed += matrix.count(ScheduleClass::Disarmed);
        sweep.masked += matrix.count(ScheduleClass::Masked);
        sweep.new_signature += matrix.count(ScheduleClass::NewSignature);
        sweep.matrices.push(matrix);
    }
    sweep.elapsed = started.elapsed();
    sweep
}

/// Runs the campaign for every session a spec declares: discovery via
/// [`AchillesSession::run_sessions`], then a cache-assisted
/// [`sweep_report`] per session. Returns one [`SessionSweep`] per
/// declared session, in declaration order (empty when the spec declares
/// none).
pub fn run_campaign(
    spec: &dyn TargetSpec,
    config: &CampaignConfig,
    cache: &mut SweepCache,
) -> Vec<SessionSweep> {
    let workers = config.workers.max(1);
    let mut driver = AchillesSession::new(spec).workers(workers);
    let reports = driver.run_sessions();
    reports
        .iter()
        .map(|report| sweep_report(spec, report, config, cache))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use achilles_gossip::GossipSpec;

    fn matrix_key(sweep: &SessionSweep) -> Vec<Vec<(String, ScheduleClass, String)>> {
        sweep
            .matrices
            .iter()
            .map(|m| {
                m.cells
                    .iter()
                    .map(|c| (schedule_token(&c.schedule), c.class, c.signature.to_line()))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn gossip_campaign_finds_armed_and_disarmed_schedules() {
        let spec = GossipSpec::default();
        let mut cache = SweepCache::new();
        let sweeps = run_campaign(&spec, &CampaignConfig::default(), &mut cache);
        assert_eq!(sweeps.len(), 1);
        let sweep = &sweeps[0];
        assert_eq!(sweep.session, "seed-sync-read");
        assert_eq!(sweep.discovered, 1);
        assert_eq!(
            sweep.confirmed_fault_free, sweep.discovered,
            "every session Trojan confirms fault-free"
        );
        assert!(sweep.armed >= 1, "some schedule keeps the Trojan armed");
        assert!(sweep.disarmed >= 1, "some schedule disarms it");
        let matrix = &sweep.matrices[0];
        assert_eq!(matrix.baseline_trojan_slots, vec![0]);
        // Duplicating the seed is idempotent: still armed, same signature.
        assert!(matrix.armed().any(|s| schedule_token(s) == "dup@s0"));
        // Dropping the arming slot disarms.
        assert!(matrix.disarmed().any(|s| schedule_token(s) == "drop@s0"));
        // Dropping the sync leaves the detonation evidence intact (the
        // poison still crashes the read): a new signature, not "masked".
        assert!(matrix
            .schedules_of(ScheduleClass::NewSignature)
            .any(|s| schedule_token(s) == "drop@s1"));
        // Dropping the read removes the detonation itself: genuinely
        // inconclusive.
        assert!(matrix
            .schedules_of(ScheduleClass::Masked)
            .any(|s| schedule_token(s) == "drop@s2"));
        // Duplicating the read hits the wedged node: a new failure mode.
        assert!(matrix
            .schedules_of(ScheduleClass::NewSignature)
            .any(|s| schedule_token(s) == "dup@s2"));
    }

    #[test]
    fn shardexec_campaign_triages_the_silent_split() {
        let spec = achilles_shardexec::ShardexecSpec::default();
        let mut cache = SweepCache::new();
        let sweeps = run_campaign(&spec, &CampaignConfig::default(), &mut cache);
        assert_eq!(sweeps.len(), 1);
        let sweep = &sweeps[0];
        assert_eq!(sweep.session, "write-sync-read");
        assert_eq!(sweep.discovered, 1);
        assert_eq!(
            sweep.confirmed_fault_free, sweep.discovered,
            "the forged-sender session confirms fault-free"
        );
        assert!(
            sweep.diverged >= 1,
            "some schedule reproduces the silent split exactly"
        );
        assert!(sweep.disarmed >= 1, "some schedule defuses it");
        let matrix = &sweep.matrices[0];
        // The detonation itself is a divergence, not a crash: the
        // baseline signature carries the split markers.
        assert!(matrix.baseline_signature.diverged());
        assert_eq!(matrix.baseline_trojan_slots, vec![0]);
        // Duplicating the forged write is idempotent: same split, same
        // signature — Diverged, the armed-with-silent-split class.
        assert!(matrix.diverged().any(|s| schedule_token(s) == "dup@s0"));
        assert!(
            matrix.armed().count() == 0,
            "every exact reproduction of a splitting baseline is Diverged, never plain Armed"
        );
        // Dropping the forged write restores agreement: disarmed, and the
        // replay carries no divergence evidence.
        assert!(matrix.disarmed().any(|s| schedule_token(s) == "drop@s0"));
        let drop0 = matrix
            .cells
            .iter()
            .find(|c| schedule_token(&c.schedule) == "drop@s0")
            .expect("the drop-arming schedule is planned");
        assert!(
            !drop0.signature.diverged(),
            "dropping the arming slot restores root agreement: {}",
            drop0.signature.to_line()
        );
    }

    #[test]
    fn cache_makes_the_second_campaign_replay_free() {
        let spec = GossipSpec::default();
        let mut cache = SweepCache::new();
        let first = run_campaign(&spec, &CampaignConfig::default(), &mut cache);
        assert!(first[0].replayed > 0);
        assert_eq!(first[0].cache_hits, 0);

        // Round-trip the cache through its text form, like the CI cache
        // does across commits.
        let mut reloaded = SweepCache::from_text(&cache.to_text()).expect("cache text round-trips");
        let second = run_campaign(&spec, &CampaignConfig::default(), &mut reloaded);
        assert_eq!(
            second[0].replayed, 0,
            "every cell — the baseline included — is a cache hit"
        );
        assert_eq!(
            second[0].cache_hits,
            second[0].cells + second[0].discovered,
            "one baseline hit per witness on top of the schedule cells"
        );
        assert_eq!(matrix_key(&first[0]), matrix_key(&second[0]));
        // The reconstructed baseline carries the slot attribution.
        assert_eq!(
            second[0].matrices[0].baseline_trojan_slots,
            first[0].matrices[0].baseline_trojan_slots
        );
    }

    #[test]
    fn campaigns_are_worker_count_invariant() {
        let spec = GossipSpec::default();
        let mut c1 = SweepCache::new();
        let mut c4 = SweepCache::new();
        let seq = run_campaign(&spec, &CampaignConfig::default(), &mut c1);
        let par = run_campaign(&spec, &CampaignConfig::default().with_workers(4), &mut c4);
        assert_eq!(matrix_key(&seq[0]), matrix_key(&par[0]));
        assert_eq!(c1.to_text(), c4.to_text());
    }

    #[test]
    fn sweep_report_reuses_one_discovery() {
        // The bench-bin shape: discover once, sweep the same report under
        // several configurations.
        let spec = GossipSpec::default();
        let reports = achilles::AchillesSession::new(&spec).run_sessions();
        let a = sweep_report(
            &spec,
            &reports[0],
            &CampaignConfig::default(),
            &mut SweepCache::new(),
        );
        let b = sweep_report(
            &spec,
            &reports[0],
            &CampaignConfig::default().with_workers(4),
            &mut SweepCache::new(),
        );
        assert_eq!(matrix_key(&a), matrix_key(&b));
        let via_campaign = run_campaign(&spec, &CampaignConfig::default(), &mut SweepCache::new());
        assert_eq!(matrix_key(&a), matrix_key(&via_campaign[0]));
    }
}
