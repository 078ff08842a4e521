//! The fleetd service: control handlers, campaign executors, durability.
//!
//! [`Fleetd`] owns four pieces wired through one `Arc`d shared core:
//!
//! - the **witness store** ([`WitnessStore`]) and the **sweep cache**
//!   behind a single state mutex — handlers and executors hold it only
//!   for validation and publication, never across a replay;
//! - the **work queue** ([`WorkQueue`]): ingest extracts the witness's
//!   own cells into a mini-cache ([`SweepCache::extract_witness`]),
//!   plans the witness once, and enqueues a self-contained [`WorkItem`]
//!   carrying both, so executors replay without touching shared state or
//!   planning again until the one short publish lock at the end, where
//!   the mini-cache's cells are moved, not copied, into the store
//!   ([`SweepCache::merge`]);
//! - the **campaign executors**: `shards` threads, each draining its
//!   queue lane (stealing from siblings) in same-scope batches served by
//!   one persistent [`ForkServer`] — per-target fork-server affinity, one
//!   boot per batch instead of one per witness;
//! - the **incremental layer**: every unit of work is keyed by the sweep
//!   cache's (scope, witness record, schedule token) key, so a no-op
//!   re-ingest is answered inline with zero replays, a single-witness
//!   ingest replays exactly that witness's missing cells, and an `EPOCH`
//!   bump invalidates exactly the bumped target's scopes (results derived
//!   against an older epoch are dropped on publish, never mixed in).
//!
//! The store is nested by scope and witness, so extracting or evicting a
//! witness and publishing its result cost that witness's cells, not the
//! store's size; `STATS` reports the cells those operations visited
//! (`cells_visited`).
//!
//! Service answers are bit-identical to the batch pipeline by
//! construction: handlers and executors call the same
//! [`sweep_witness_on`] body `sweep_campaign` runs, against the same
//! plan and cache keys.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use achilles::export::session_witness_record;
use achilles::{TargetRegistry, TargetSpec};
use achilles_obs::Class;
use achilles_replay::{FaultSchedule, ForkServer, ReplayCorpus, SessionWitness};
use achilles_sweep::{
    sweep_witness_on, SchedulePlanner, SweepCache, SweepConfig, WitnessSweepStats,
};

use crate::protocol::{parse_request, ParseError, Reply, Request};
use crate::queue::{WorkItem, WorkQueue};
use crate::store::{SessionShard, WitnessResult, WitnessStore};

/// Service configuration.
#[derive(Clone, Debug)]
pub struct FleetdConfig {
    /// Campaign executor threads (and queue lanes). `0` runs no
    /// background executors: work queues up until [`Fleetd::pump`] drains
    /// it on the calling thread — the deterministic harness mode.
    pub shards: usize,
    /// Backpressure bound: an ingest whose fresh cells would push the
    /// queue past this depth is refused with `BUSY` instead of queuing
    /// unboundedly.
    pub max_queued_cells: usize,
    /// The schedule space planned per witness (must match the batch
    /// campaign's for bit-identical answers).
    pub sweep: SweepConfig,
    /// Durable state directory (`<target>.sweep` caches +
    /// `<target>.<session>.witnesses` corpora); `None` = in-memory only.
    pub state_dir: Option<PathBuf>,
}

impl Default for FleetdConfig {
    fn default() -> FleetdConfig {
        FleetdConfig {
            shards: 1,
            max_queued_cells: 1 << 16,
            sweep: SweepConfig::default(),
            state_dir: None,
        }
    }
}

impl FleetdConfig {
    /// Run `n` campaign executor threads (0 = pump-driven).
    pub fn shards(mut self, n: usize) -> FleetdConfig {
        self.shards = n;
        self
    }

    /// Bound the queue at `cells` fresh cells.
    pub fn max_queued_cells(mut self, cells: usize) -> FleetdConfig {
        self.max_queued_cells = cells;
        self
    }

    /// Plan the reduced [`SweepConfig::quick`] schedule space.
    pub fn quick(mut self) -> FleetdConfig {
        self.sweep = SweepConfig::quick();
        self
    }

    /// Persist store and cache under `dir`.
    pub fn state_dir(mut self, dir: PathBuf) -> FleetdConfig {
        self.state_dir = Some(dir);
        self
    }
}

/// A point-in-time snapshot of the service counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Registered targets.
    pub targets: usize,
    /// Stored witnesses across every shard.
    pub witnesses: usize,
    /// Witnesses with a published result.
    pub results: usize,
    /// Fresh cells queued or in flight.
    pub pending_cells: usize,
    /// High-water mark of `pending_cells`.
    pub peak_cells: usize,
    /// Witnesses accepted (duplicates excluded).
    pub ingested: usize,
    /// Ingests answered `dup`.
    pub duplicates: usize,
    /// Replays performed by campaign executors (baselines included).
    pub replays: usize,
    /// Cells answered from the sweep cache.
    pub cache_hits: usize,
    /// Cells executed through the fork path.
    pub fork_plans: usize,
    /// Deployment boots performed.
    pub boots: usize,
    /// Fork sessions cloned
    /// ([`ForkStats::snapshot_restores`](achilles_replay::ForkStats::snapshot_restores)).
    pub snapshot_restores: usize,
    /// Ingests refused with `BUSY`.
    pub busy_rejections: usize,
    /// Completed campaigns dropped because their epoch was stale or
    /// their witness was evicted mid-flight.
    pub stale_results: usize,
    /// Stored sweep cells the store's bulk operations visited (extract,
    /// invalidate, merge, save): [`SweepCache::cells_visited`].
    pub cells_visited: u64,
}

impl ServiceStats {
    /// Boots the fork-servers avoided relative to cold replay.
    pub fn boots_saved(&self) -> usize {
        self.fork_plans.saturating_sub(self.boots)
    }

    /// Renders the `STATS` reply payload.
    pub fn render(&self) -> String {
        format!(
            "targets={} witnesses={} results={} pending_cells={} peak_cells={} \
             ingested={} dup={} replays={} cache_hits={} plans={} boots={} \
             boots_saved={} restores={} busy={} stale={} cells_visited={}",
            self.targets,
            self.witnesses,
            self.results,
            self.pending_cells,
            self.peak_cells,
            self.ingested,
            self.duplicates,
            self.replays,
            self.cache_hits,
            self.fork_plans,
            self.boots,
            self.boots_saved(),
            self.snapshot_restores,
            self.busy_rejections,
            self.stale_results,
            self.cells_visited,
        )
    }
}

#[derive(Debug, Default)]
struct Counters {
    ingested: AtomicUsize,
    duplicates: AtomicUsize,
    replays: AtomicUsize,
    cache_hits: AtomicUsize,
    fork_plans: AtomicUsize,
    boots: AtomicUsize,
    snapshot_restores: AtomicUsize,
    busy_rejections: AtomicUsize,
    stale_results: AtomicUsize,
}

/// Store + cache behind the one state mutex.
#[derive(Debug)]
struct State {
    store: WitnessStore,
    cache: SweepCache,
}

#[derive(Debug)]
struct Shared {
    config: FleetdConfig,
    registry: TargetRegistry,
    queue: WorkQueue,
    state: Mutex<State>,
    counters: Counters,
    /// Per-service metrics (request/error counters, latency histograms,
    /// queue gauges). Kept off the process-global registry so multiple
    /// `Fleetd` instances in one process (the test suites) never mix
    /// series; `METRICS` merges this with [`achilles_obs::global`].
    metrics: achilles_obs::MetricsRegistry,
    stopped: AtomicBool,
}

/// The running service. In-process embedders drive it through
/// [`Fleetd::handle_line`] (exactly what the TCP/unix-socket transports
/// feed it); [`Fleetd::stats`] / [`Fleetd::query_text`] are typed
/// conveniences over the same state.
#[derive(Debug)]
pub struct Fleetd {
    shared: Arc<Shared>,
    executors: Mutex<Vec<JoinHandle<()>>>,
}

impl Fleetd {
    /// Boots a service over `registry`. With a configured state dir, any
    /// durable caches and witness corpora for registered specs are
    /// reloaded first — cached witnesses complete warm (zero replays),
    /// anything else is re-enqueued.
    ///
    /// # Errors
    ///
    /// Propagates state-dir I/O errors; a present but malformed durable
    /// cache or corpus is an error, never silently shed.
    pub fn start(registry: TargetRegistry, config: FleetdConfig) -> io::Result<Fleetd> {
        let shards = config.shards;
        let shared = Arc::new(Shared {
            queue: WorkQueue::new(shards.max(1)),
            registry,
            config,
            state: Mutex::new(State {
                store: WitnessStore::new(),
                cache: SweepCache::new(),
            }),
            counters: Counters::default(),
            metrics: achilles_obs::MetricsRegistry::new(),
            stopped: AtomicBool::new(false),
        });
        let service = Fleetd {
            shared,
            executors: Mutex::new(Vec::new()),
        };
        service.load()?;
        let mut executors = service.executors.lock().expect("executor list lock");
        for worker in 0..shards {
            let shared = Arc::clone(&service.shared);
            executors.push(
                std::thread::Builder::new()
                    .name(format!("fleetd-exec-{worker}"))
                    .spawn(move || executor_loop(&shared, worker))
                    .expect("spawn campaign executor"),
            );
        }
        drop(executors);
        Ok(service)
    }

    /// Parses and serves one protocol line, returning the rendered reply.
    /// Malformed lines are counted per malformation class in
    /// `achilles_fleetd_errors_total{class=...}` before the `ERR` reply.
    pub fn handle_line(&self, line: &str) -> String {
        match parse_request(line) {
            Ok(request) => self.handle(request).render(),
            Err(error) => self.reject(error),
        }
    }

    /// Counts a malformed line under its class in
    /// `achilles_fleetd_errors_total{class=...}` and renders its `ERR` reply.
    pub(crate) fn reject(&self, error: ParseError) -> String {
        self.count_error(error.class);
        Reply::Err(error.reason).render()
    }

    /// Serves one parsed request: counts it, times it into the per-verb
    /// latency histogram, spans it for the trace, and counts handler-level
    /// `ERR` replies (well-formed but impossible requests) under the
    /// `rejected` error class.
    pub fn handle(&self, request: Request) -> Reply {
        let (verb, span_name) = verb_names(&request);
        let span = achilles_obs::timed(span_name, "fleetd");
        let reply = self.dispatch(request);
        let elapsed = span.finish();
        let m = &self.shared.metrics;
        m.add(
            Class::Deterministic,
            "achilles_fleetd_requests_total",
            &[("verb", verb)],
            1,
        );
        m.observe_ns(
            "achilles_fleetd_request_latency_ns",
            &[("verb", verb)],
            u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
        );
        if matches!(reply, Reply::Err(_)) {
            self.count_error("rejected");
        }
        reply
    }

    fn count_error(&self, class: &str) {
        self.shared.metrics.add(
            Class::Deterministic,
            "achilles_fleetd_errors_total",
            &[("class", class)],
            1,
        );
    }

    fn dispatch(&self, request: Request) -> Reply {
        match request {
            Request::Hello => Reply::Ok(format!(
                "achilles-fleetd specs={}",
                self.shared.registry.names().join(",")
            )),
            Request::Stats => Reply::Ok(self.stats().render()),
            Request::Metrics => {
                let lines: Vec<String> = self.metrics_text().lines().map(str::to_string).collect();
                Reply::Lines("metrics".to_string(), lines)
            }
            Request::Register { target } => self.register(&target),
            Request::Ingest {
                target,
                session,
                record,
            } => self.ingest(&target, &session, &record, true),
            Request::Query {
                target,
                witness,
                class,
            } => self.query(&target, witness, class),
            Request::Drain => {
                self.drain();
                Reply::Ok("drained".to_string())
            }
            Request::Recampaign { target } => self.recampaign(&target),
            Request::Epoch { target } => self.epoch(&target),
            Request::Evict {
                target,
                session,
                record,
            } => self.evict(&target, &session, &record),
            Request::Save => match self.save() {
                Ok(()) => Reply::Ok("saved".to_string()),
                Err(e) => Reply::Err(format!("save failed: {e}")),
            },
            Request::Shutdown => match self.shutdown() {
                Ok(()) => Reply::Ok("bye".to_string()),
                Err(e) => Reply::Err(format!("shutdown failed: {e}")),
            },
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        let state = self.shared.state.lock().expect("fleetd state lock");
        let c = &self.shared.counters;
        ServiceStats {
            targets: state.store.targets.len(),
            witnesses: state.store.witnesses(),
            results: state.store.results(),
            pending_cells: self.shared.queue.depth_cells(),
            peak_cells: self.shared.queue.peak_cells(),
            ingested: c.ingested.load(Ordering::SeqCst),
            duplicates: c.duplicates.load(Ordering::SeqCst),
            replays: c.replays.load(Ordering::SeqCst),
            cache_hits: c.cache_hits.load(Ordering::SeqCst),
            fork_plans: c.fork_plans.load(Ordering::SeqCst),
            boots: c.boots.load(Ordering::SeqCst),
            snapshot_restores: c.snapshot_restores.load(Ordering::SeqCst),
            busy_rejections: c.busy_rejections.load(Ordering::SeqCst),
            stale_results: c.stale_results.load(Ordering::SeqCst),
            cells_visited: state.cache.cells_visited(),
        }
    }

    /// The full metrics snapshot the `METRICS` verb serves: service
    /// counters and queue gauges mirrored into the service registry, then
    /// rendered merged with the process-global registry (solver, cache,
    /// fork, sweep series) — `# deterministic` section first, `# wall`
    /// second, each sorted.
    pub fn metrics_text(&self) -> String {
        self.record_metrics();
        achilles_obs::render_sections(&[achilles_obs::global(), &self.shared.metrics])
    }

    /// Mirrors [`Fleetd::stats`] and the per-shard queue backlog into the
    /// service registry. Deterministic series are those fixed by the
    /// request sequence alone (store sizes, ingest/replay/cache-hit
    /// totals — per-item replay sets are pinned at enqueue time by the
    /// extracted seed cache — and the store's visited cells, which each
    /// operation fixes by the witness or scope it addresses); anything
    /// shaped by executor scheduling (boots per batch, queue depths,
    /// busy/stale races) is wall-classed.
    fn record_metrics(&self) {
        let stats = self.stats();
        let m = &self.shared.metrics;
        let as_u64 = |n: usize| u64::try_from(n).unwrap_or(u64::MAX);
        let det: [(&str, usize); 7] = [
            ("achilles_fleetd_targets", stats.targets),
            ("achilles_fleetd_witnesses", stats.witnesses),
            ("achilles_fleetd_results", stats.results),
            ("achilles_fleetd_ingested_total", stats.ingested),
            ("achilles_fleetd_duplicates_total", stats.duplicates),
            ("achilles_fleetd_replays_total", stats.replays),
            ("achilles_fleetd_cache_hits_total", stats.cache_hits),
        ];
        for (name, value) in det {
            m.set(Class::Deterministic, name, &[], as_u64(value));
        }
        m.set(
            Class::Deterministic,
            "achilles_fleetd_cells_visited_total",
            &[],
            stats.cells_visited,
        );
        let wall: [(&str, usize); 8] = [
            ("achilles_fleetd_pending_cells", stats.pending_cells),
            ("achilles_fleetd_peak_cells", stats.peak_cells),
            ("achilles_fleetd_fork_plans_total", stats.fork_plans),
            ("achilles_fleetd_boots_total", stats.boots),
            ("achilles_fleetd_boots_saved_total", stats.boots_saved()),
            (
                "achilles_fleetd_snapshot_restores_total",
                stats.snapshot_restores,
            ),
            (
                "achilles_fleetd_busy_rejections_total",
                stats.busy_rejections,
            ),
            ("achilles_fleetd_stale_results_total", stats.stale_results),
        ];
        for (name, value) in wall {
            m.set(Class::Wall, name, &[], as_u64(value));
        }
        for (shard, cells) in self.shared.queue.lane_depth_cells().into_iter().enumerate() {
            let label = shard.to_string();
            m.set(
                Class::Wall,
                "achilles_fleetd_queue_depth_cells",
                &[("shard", &label)],
                as_u64(cells),
            );
        }
    }

    /// Snapshot of one verb's request-latency histogram (`None` before
    /// any request of that verb was served).
    pub fn request_latency(&self, verb: &str) -> Option<achilles_obs::HistogramSnapshot> {
        self.shared
            .metrics
            .histogram("achilles_fleetd_request_latency_ns", &[("verb", verb)])
    }

    /// The `QUERY` payload for `target` as one newline-joined string —
    /// the form compat asserts compare against batch matrices.
    pub fn query_text(
        &self,
        target: &str,
        witness: Option<usize>,
        class: Option<achilles_sweep::ScheduleClass>,
    ) -> Option<String> {
        match self.query(target, witness, class) {
            Reply::Lines(_, lines) => Some(lines.join("\n")),
            _ => None,
        }
    }

    /// Drains the queue: blocks until every enqueued campaign completed
    /// (with no executor threads, pumps on the calling thread instead).
    pub fn drain(&self) {
        if self.shared.config.shards == 0 {
            self.pump();
        } else {
            self.shared.queue.wait_idle();
        }
    }

    /// Processes queued work on the calling thread until the queue is
    /// empty, returning the items processed. The harness mode for
    /// `shards == 0`, and safe alongside running executors.
    pub fn pump(&self) -> usize {
        let mut processed = 0;
        while let Some(batch) = self.shared.queue.claim(0) {
            processed += batch.len();
            process_batch(&self.shared, batch);
        }
        processed
    }

    /// Persists the store and cache to the state dir (no-op without one):
    /// one `<target>.sweep` cache and one `<target>.<session>.witnesses`
    /// corpus per shard, every file written atomically.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self) -> io::Result<()> {
        let Some(dir) = &self.shared.config.state_dir else {
            return Ok(());
        };
        std::fs::create_dir_all(dir)?;
        let state = self.shared.state.lock().expect("fleetd state lock");
        for shard in &state.store.targets {
            state
                .cache
                .extract_scope_prefix(&format!("{}/", shard.target))
                .save(&dir.join(format!("{}.sweep", shard.target)))?;
            for session in &shard.sessions {
                session
                    .to_corpus()
                    .save(&dir.join(format!("{}.{}.witnesses", shard.target, session.session)))?;
            }
        }
        Ok(())
    }

    /// Graceful shutdown: refuse new ingest, drain the queue, persist,
    /// and join the executors. Idempotent. (The `SHUTDOWN` command and
    /// the transport's signal handling both land here.)
    ///
    /// # Errors
    ///
    /// Propagates persistence I/O errors and executor panics.
    pub fn shutdown(&self) -> io::Result<()> {
        if self.shared.stopped.swap(true, Ordering::SeqCst) {
            return Ok(());
        }
        self.drain();
        self.shared.queue.close();
        let executors = std::mem::take(&mut *self.executors.lock().expect("executor list lock"));
        for handle in executors {
            handle
                .join()
                .map_err(|_| io::Error::other("campaign executor panicked"))?;
        }
        self.save()
    }

    fn register(&self, target: &str) -> Reply {
        if self.shared.stopped.load(Ordering::SeqCst) {
            return Reply::Err("shutting down".to_string());
        }
        let Some(spec) = self.shared.registry.get(target).cloned() else {
            return Reply::Err(format!("unknown target {target:?}"));
        };
        let mut state = self.shared.state.lock().expect("fleetd state lock");
        let sessions = state.store.register(&*spec);
        Reply::Ok(format!("target={target} sessions={sessions}"))
    }

    /// Validate → dedupe → (complete warm | enqueue) one witness record.
    /// `enforce_backpressure` is off for internal re-ingest (state-dir
    /// reload), which must never be refused.
    fn ingest(
        &self,
        target: &str,
        session: &str,
        record: &str,
        enforce_backpressure: bool,
    ) -> Reply {
        if self.shared.stopped.load(Ordering::SeqCst) {
            return Reply::Err("shutting down".to_string());
        }
        let Some(spec) = self.shared.registry.get(target).cloned() else {
            return Reply::Err(format!("unknown target {target:?}"));
        };
        let mut guard = self.shared.state.lock().expect("fleetd state lock");
        let state = &mut *guard;
        let Some(tshard) = state.store.target_mut(target) else {
            return Reply::Err(format!("target {target:?} not registered (REGISTER first)"));
        };
        let epoch = tshard.epoch;
        let Some(shard) = tshard.session_mut(session) else {
            return Reply::Err(format!("target {target:?} declares no session {session:?}"));
        };
        let (canonical, witness) = match shard.witness_from_record(record) {
            Ok(parsed) => parsed,
            Err(reason) => return Reply::Err(reason),
        };
        if let Some(id) = shard.lookup(&canonical) {
            self.shared
                .counters
                .duplicates
                .fetch_add(1, Ordering::SeqCst);
            return Reply::Ok(format!("dup id={id}"));
        }
        let scope = format!("{target}/{session}");
        let mut seed = state.cache.extract_witness(&scope, &witness);
        let schedules = SchedulePlanner::new(self.shared.config.sweep.clone()).plan(&witness);
        let fresh = seed.missing(&scope, &witness, &schedules);
        if fresh > 0
            && enforce_backpressure
            && self.shared.queue.depth_cells() + fresh > self.shared.config.max_queued_cells
        {
            self.shared
                .counters
                .busy_rejections
                .fetch_add(1, Ordering::SeqCst);
            return Reply::Busy(format!(
                "queue at {} of {} cells ({fresh} needed) — drain and retry",
                self.shared.queue.depth_cells(),
                self.shared.config.max_queued_cells
            ));
        }
        let id = shard.store(canonical, witness.clone());
        self.shared.counters.ingested.fetch_add(1, Ordering::SeqCst);
        if fresh == 0 {
            // Every cell is already in the cache: complete inline with
            // zero replays — the no-op re-ingest contract.
            let stats = complete_warm(
                &self.shared,
                &spec,
                shard,
                &scope,
                id,
                &witness,
                &schedules,
                &mut seed,
            );
            return Reply::Ok(format!("id={id} cells=0 warm={}", stats.cache_hits));
        }
        self.shared.queue.enqueue(WorkItem {
            target: target.to_string(),
            session: session.to_string(),
            scope,
            id,
            witness,
            schedules,
            seed,
            cells: fresh,
            epoch,
        });
        Reply::Ok(format!("id={id} cells={fresh}"))
    }

    fn query(
        &self,
        target: &str,
        witness: Option<usize>,
        class: Option<achilles_sweep::ScheduleClass>,
    ) -> Reply {
        let state = self.shared.state.lock().expect("fleetd state lock");
        let Some(tshard) = state.store.target(target) else {
            return Reply::Err(format!("target {target:?} not registered"));
        };
        let mut lines = Vec::new();
        for shard in &tshard.sessions {
            for stored in &shard.witnesses {
                if witness.is_some_and(|want| want != stored.id) {
                    continue;
                }
                match &stored.result {
                    Some(result) => {
                        for (i, line) in result.matrix.to_text().lines().enumerate() {
                            // Lines 0 and 1 are the witness and baseline
                            // headers; cell rows are `token|class|…`.
                            if i >= 2 {
                                if let Some(class) = class {
                                    if line.split('|').nth(1) != Some(class.as_str()) {
                                        continue;
                                    }
                                }
                            }
                            lines.push(line.to_string());
                        }
                    }
                    None => lines.push(format!("pending {}", stored.record)),
                }
            }
        }
        Reply::Lines(format!("target={target}"), lines)
    }

    fn recampaign(&self, target: &str) -> Reply {
        if self.shared.stopped.load(Ordering::SeqCst) {
            return Reply::Err("shutting down".to_string());
        }
        let Some(spec) = self.shared.registry.get(target).cloned() else {
            return Reply::Err(format!("unknown target {target:?}"));
        };
        let planner = SchedulePlanner::new(self.shared.config.sweep.clone());
        let mut guard = self.shared.state.lock().expect("fleetd state lock");
        let state = &mut *guard;
        let Some(tshard) = state.store.target_mut(target) else {
            return Reply::Err(format!("target {target:?} not registered"));
        };
        let epoch = tshard.epoch;
        let (mut enqueued, mut warm) = (0usize, 0usize);
        for shard in &mut tshard.sessions {
            let scope = format!("{target}/{}", shard.session);
            for id in 0..shard.witnesses.len() {
                let witness = shard.witnesses[id].witness.clone();
                let mut seed = state.cache.extract_witness(&scope, &witness);
                let schedules = planner.plan(&witness);
                let fresh = seed.missing(&scope, &witness, &schedules);
                if fresh == 0 {
                    complete_warm(
                        &self.shared,
                        &spec,
                        shard,
                        &scope,
                        id,
                        &witness,
                        &schedules,
                        &mut seed,
                    );
                    warm += 1;
                } else {
                    shard.witnesses[id].result = None;
                    self.shared.queue.enqueue(WorkItem {
                        target: target.to_string(),
                        session: shard.session.clone(),
                        scope: scope.clone(),
                        id,
                        witness,
                        schedules,
                        seed,
                        cells: fresh,
                        epoch,
                    });
                    enqueued += 1;
                }
            }
        }
        Reply::Ok(format!("enqueued={enqueued} warm={warm}"))
    }

    fn epoch(&self, target: &str) -> Reply {
        if self.shared.stopped.load(Ordering::SeqCst) {
            return Reply::Err("shutting down".to_string());
        }
        if self.shared.registry.get(target).is_none() {
            return Reply::Err(format!("unknown target {target:?}"));
        };
        let invalidated = {
            let mut guard = self.shared.state.lock().expect("fleetd state lock");
            let state = &mut *guard;
            let Some(tshard) = state.store.target_mut(target) else {
                return Reply::Err(format!("target {target:?} not registered"));
            };
            tshard.epoch += 1;
            let mut invalidated = 0;
            for shard in &mut tshard.sessions {
                invalidated += state
                    .cache
                    .invalidate_scope(&format!("{target}/{}", shard.session));
                for witness in &mut shard.witnesses {
                    witness.result = None;
                }
            }
            invalidated
        };
        // Re-derive everything under the new epoch: with the scope's
        // cells gone, every witness is fresh and re-enqueues.
        match self.recampaign(target) {
            Reply::Ok(info) => Reply::Ok(format!("invalidated={invalidated} {info}")),
            other => other,
        }
    }

    fn evict(&self, target: &str, session: &str, record: &str) -> Reply {
        if self.shared.stopped.load(Ordering::SeqCst) {
            return Reply::Err("shutting down".to_string());
        }
        let mut guard = self.shared.state.lock().expect("fleetd state lock");
        let state = &mut *guard;
        let Some(tshard) = state.store.target_mut(target) else {
            return Reply::Err(format!("target {target:?} not registered"));
        };
        let Some(shard) = tshard.session_mut(session) else {
            return Reply::Err(format!("target {target:?} declares no session {session:?}"));
        };
        let (canonical, witness) = match shard.witness_from_record(record) {
            Ok(parsed) => parsed,
            Err(reason) => return Reply::Err(reason),
        };
        let Some(id) = shard.lookup(&canonical) else {
            return Reply::Err(format!("unknown witness {record:?}"));
        };
        shard.evict(id);
        let invalidated = state
            .cache
            .invalidate_witness(&format!("{target}/{session}"), &witness);
        Reply::Ok(format!("evicted id={id} invalidated={invalidated}"))
    }

    /// Reloads durable state: per-target sweep caches first, then every
    /// registered spec's witness corpora through the normal ingest path
    /// (cached witnesses complete warm; the rest re-enqueue).
    fn load(&self) -> io::Result<()> {
        let Some(dir) = self.shared.config.state_dir.clone() else {
            return Ok(());
        };
        for name in self.shared.registry.names() {
            let cache = SweepCache::load(&dir.join(format!("{name}.sweep")))?;
            if !cache.is_empty() {
                self.shared
                    .state
                    .lock()
                    .expect("fleetd state lock")
                    .cache
                    .merge(cache);
            }
        }
        let specs: Vec<Arc<dyn TargetSpec>> = self.shared.registry.iter().cloned().collect();
        for spec in specs {
            for session in spec.sessions() {
                let path = dir.join(format!("{}.{}.witnesses", spec.name(), session.name));
                let corpus = ReplayCorpus::load(&path)?;
                if corpus.is_empty() {
                    continue;
                }
                self.register(spec.name());
                for entry in corpus.entries() {
                    let record = session_witness_record(&entry.slot_fields());
                    let reply = self.ingest(spec.name(), &session.name, &record, false);
                    if !reply.is_ok() {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "{}: stored witness {record:?} rejected on reload: {}",
                                path.display(),
                                reply.render()
                            ),
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

impl Drop for Fleetd {
    fn drop(&mut self) {
        // Leak no executor threads: close the queue (they drain what is
        // left and exit) and join. An explicit shutdown already did this.
        self.shared.stopped.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        let executors = std::mem::take(&mut *self.executors.lock().expect("executor list lock"));
        for handle in executors {
            let _ = handle.join();
        }
    }
}

/// The wire verb (metric label) and span name for a parsed request.
fn verb_names(request: &Request) -> (&'static str, &'static str) {
    match request {
        Request::Hello => ("HELLO", "fleetd:HELLO"),
        Request::Register { .. } => ("REGISTER", "fleetd:REGISTER"),
        Request::Ingest { .. } => ("INGEST", "fleetd:INGEST"),
        Request::Query { .. } => ("QUERY", "fleetd:QUERY"),
        Request::Stats => ("STATS", "fleetd:STATS"),
        Request::Metrics => ("METRICS", "fleetd:METRICS"),
        Request::Drain => ("DRAIN", "fleetd:DRAIN"),
        Request::Recampaign { .. } => ("RECAMPAIGN", "fleetd:RECAMPAIGN"),
        Request::Epoch { .. } => ("EPOCH", "fleetd:EPOCH"),
        Request::Evict { .. } => ("EVICT", "fleetd:EVICT"),
        Request::Save => ("SAVE", "fleetd:SAVE"),
        Request::Shutdown => ("SHUTDOWN", "fleetd:SHUTDOWN"),
    }
}

/// Completes a fully-cached witness inline (zero replays) and publishes
/// its result. Caller holds the state lock (`shard` borrows it).
#[allow(clippy::too_many_arguments)]
fn complete_warm(
    shared: &Shared,
    spec: &Arc<dyn TargetSpec>,
    shard: &mut SessionShard,
    scope: &str,
    id: usize,
    witness: &SessionWitness,
    schedules: &[FaultSchedule],
    seed: &mut SweepCache,
) -> WitnessSweepStats {
    let target_impl = spec.session_replay_target(&shard.session);
    let mut server = ForkServer::new(&*target_impl);
    let (matrix, stats) = sweep_witness_on(&mut server, scope, witness, schedules, seed);
    debug_assert_eq!(stats.replayed, 0, "warm completion must not replay");
    shared
        .counters
        .cache_hits
        .fetch_add(stats.cache_hits, Ordering::SeqCst);
    shared
        .counters
        .replays
        .fetch_add(stats.replayed, Ordering::SeqCst);
    shard.witnesses[id].result = Some(WitnessResult {
        matrix,
        replayed: stats.replayed,
        cache_hits: stats.cache_hits,
    });
    stats
}

fn executor_loop(shared: &Shared, worker: usize) {
    loop {
        match shared.queue.claim(worker) {
            Some(batch) => process_batch(shared, batch),
            None => {
                if shared.queue.is_closed() && shared.queue.is_idle() {
                    return;
                }
                shared.queue.wait_for_work();
            }
        }
    }
}

/// Sweeps one same-scope batch through a single fork-server — one boot
/// for the whole batch — publishing each result under the state lock.
fn process_batch(shared: &Shared, batch: Vec<WorkItem>) {
    let _span = achilles_obs::span("fleetd:batch", "fleetd");
    let Some(spec) = shared.registry.get(&batch[0].target).cloned() else {
        for item in batch {
            shared.counters.stale_results.fetch_add(1, Ordering::SeqCst);
            shared.queue.complete(item.cells);
        }
        return;
    };
    let target_impl = spec.session_replay_target(&batch[0].session);
    let mut server = ForkServer::new(&*target_impl);
    for mut item in batch {
        let (matrix, stats) = sweep_witness_on(
            &mut server,
            &item.scope,
            &item.witness,
            &item.schedules,
            &mut item.seed,
        );
        let cells = item.cells;
        publish(shared, item, matrix, &stats);
        shared.queue.complete(cells);
    }
}

/// Publishes one completed item under the state lock: its matrix becomes
/// the witness's result, and its mini-cache's cells move into the store.
fn publish(
    shared: &Shared,
    item: WorkItem,
    matrix: achilles_sweep::SensitivityMatrix,
    stats: &WitnessSweepStats,
) {
    let c = &shared.counters;
    c.replays.fetch_add(stats.replayed, Ordering::SeqCst);
    c.cache_hits.fetch_add(stats.cache_hits, Ordering::SeqCst);
    c.fork_plans.fetch_add(stats.fork.plans, Ordering::SeqCst);
    c.boots.fetch_add(stats.fork.boots, Ordering::SeqCst);
    c.snapshot_restores
        .fetch_add(stats.fork.snapshot_restores, Ordering::SeqCst);

    let canonical = session_witness_record(&item.witness.fields);
    let mut guard = shared.state.lock().expect("fleetd state lock");
    let state = &mut *guard;
    let current = state
        .store
        .target_mut(&item.target)
        .filter(|t| t.epoch == item.epoch)
        .and_then(|t| t.session_mut(&item.session))
        .and_then(|s| {
            let id = s.lookup(&canonical)?;
            Some(&mut s.witnesses[id])
        });
    match current {
        Some(stored) => {
            stored.result = Some(WitnessResult {
                matrix,
                replayed: stats.replayed,
                cache_hits: stats.cache_hits,
            });
            state.cache.merge(item.seed);
        }
        // Epoch bumped or witness evicted while we replayed: the result
        // describes a spec state the store no longer holds — drop it.
        None => {
            c.stale_results.fetch_add(1, Ordering::SeqCst);
        }
    }
}
