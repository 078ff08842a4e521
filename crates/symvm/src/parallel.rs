//! Parallel path exploration on a work-stealing pool.
//!
//! The re-execution-with-decision-prefix design makes every worklist item
//! independent: a prefix fully determines its path, and the observer state
//! the item carries depends on that prefix alone, so items can run on any
//! thread in any order. This module exploits that with a hand-rolled
//! work-stealing pool (std threads only — the build environment is offline):
//!
//! * **Isolation** — every worker owns a [`TermPool::fork`] of the base pool,
//!   its own [`Solver`] and its own observer. Base-pool ids stay valid in
//!   every fork, and interning is deterministic per prefix, so a worker
//!   re-executing a given prefix builds bit-identical constraint *structure*
//!   no matter which worker runs it. Observer state holds no `TermId`s, so a
//!   stolen item resumes its observer the same way on any worker.
//! * **Sharing** — workers attach one [`SharedCache`], keyed on structural
//!   fingerprints, so a query solved by one worker is a cache hit for every
//!   other worker that asks it. A stolen item does not re-ask its replayed
//!   prefix's observer queries at all: it resumes from the fork-point state.
//! * **Stealing** — each worker treats its own deque as a LIFO (depth-first,
//!   cache-friendly) and steals the *oldest* item from a victim's deque
//!   (shallow prefixes = large subtrees, classic Cilk-style stealing).
//!   Every item runs through the same `Runner::run_item` body as the
//!   sequential executor.
//! * **Determinism** — completed paths are merged, re-interned into the base
//!   pool ([`TermPool::import_term`]), sorted into canonical depth-first
//!   order (`true` before `false` at every branch), and renumbered. The
//!   output is therefore independent of scheduling; only wall-clock-derived
//!   statistics vary between runs.
//!
//! Budgets (`max_runs`, `max_paths`) are enforced pool-globally *and
//! deterministically*: raising the worker count never multiplies the budget,
//! and a capped run reports bit-identical results for every worker count.
//! Instead of a raced stop signal (which let up to `workers - 1`
//! scheduling-dependent extra paths survive), each budget keeps a
//! `CanonicalBound`: a bounded max-heap of the `cap` DFS-least decision
//! prefixes seen so far. Once the heap is full, items that sort after its
//! maximum are pruned (everything under them sorts after the eventual cut
//! anyway), in-flight items finish normally, and the merge truncates the
//! completed set to the first `max_runs` scheduled items / first
//! `max_paths` paths in canonical depth-first order — exactly the set a
//! sequential capped run completes.

use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use achilles_solver::{SharedCache, Solver, SolverStats, TermId, TermPool};

use crate::executor::{ExploreConfig, Runner, WorkItem};
use crate::message::SymMessage;
use crate::observer::PathObserver;
use crate::program::NodeProgram;
use crate::record::{ExploreResult, ExploreStats, PathRecord};

/// What one worker brings home from a parallel exploration.
#[derive(Debug)]
pub struct WorkerReport<O> {
    /// Worker index (0-based).
    pub worker: usize,
    /// The worker's observer, with whatever it accumulated.
    pub observer: O,
    /// The worker's term pool — needed to interpret any `TermId` the
    /// observer recorded (e.g. Trojan path constraints) before importing it
    /// into the base pool.
    pub pool: TermPool,
    /// The worker's solver counters (per-worker solve time lives here).
    pub solver_stats: SolverStats,
    /// Worklist items this worker stole from others.
    pub steals: u64,
    /// Time this worker spent executing items (excludes idle waiting).
    pub busy: Duration,
}

/// Outcome of [`Executor::explore_parallel`](crate::Executor::explore_parallel).
#[derive(Debug)]
pub struct ParallelOutcome<O> {
    /// Merged exploration result: paths in canonical depth-first order with
    /// all terms imported into the base pool.
    pub result: ExploreResult,
    /// Provisional path id → final canonical id. Observers saw provisional
    /// ids in [`PathObserver::on_path_end`]; anything they recorded keyed on
    /// path ids must be remapped through this.
    pub id_map: HashMap<usize, usize>,
    /// Per-worker reports, indexed by worker.
    pub workers: Vec<WorkerReport<O>>,
    /// The shared query cache (exposed for its hit-rate statistics).
    pub shared_cache: Arc<SharedCache>,
}

/// A decision prefix ordered by [`dfs_cmp`] (for the budget max-heaps).
#[derive(PartialEq, Eq)]
struct DfsKey(Vec<bool>);

impl Ord for DfsKey {
    fn cmp(&self, other: &DfsKey) -> std::cmp::Ordering {
        dfs_cmp(&self.0, &other.0)
    }
}

impl PartialOrd for DfsKey {
    fn partial_cmp(&self, other: &DfsKey) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The canonical budget bound: a work limiter for binding budgets.
///
/// The *exact* canonical cut is recomputed lock-free at merge time (from
/// the prefixes each worker collected); this structure only exists to
/// keep a binding budget from exploring the whole space first. It is
/// deliberately lazy: while the recorded count is below `cap` — the
/// common, non-binding case — `record` is a single relaxed atomic
/// increment and `prunes` a single relaxed load, with no lock traffic and
/// no retained prefixes. Only once the count crosses `cap` does the
/// shared max-heap start collecting prefixes, and pruning engages once it
/// holds `cap` of them.
///
/// Soundness of pruning against a late-started heap: the heap holds the
/// `cap` DFS-least of a *subset* of the recorded prefixes, so its maximum
/// is ≥ the `cap`-th DFS-least of the full set — which itself is ≥ the
/// final merge cut (cuts only tighten as more prefixes arrive). Any item
/// pruned as `> heap max` therefore sorts after the final cut, and so
/// does its entire subtree; the merge truncation would have discarded all
/// of it anyway.
struct CanonicalBound {
    cap: usize,
    count: AtomicUsize,
    heap: Mutex<BinaryHeap<DfsKey>>,
}

impl CanonicalBound {
    fn new(cap: usize) -> CanonicalBound {
        CanonicalBound {
            cap,
            count: AtomicUsize::new(0),
            heap: Mutex::new(BinaryHeap::new()),
        }
    }

    /// Whether `prefix` (and with it the whole subtree below it) provably
    /// sorts after the final cut.
    fn prunes(&self, prefix: &[bool]) -> bool {
        if self.cap == 0 {
            return true;
        }
        if self.count.load(Ordering::Relaxed) < self.cap {
            return false;
        }
        let heap = self.heap.lock().expect("budget bound poisoned");
        heap.len() >= self.cap
            && heap
                .peek()
                .is_some_and(|max| dfs_cmp(prefix, &max.0) == std::cmp::Ordering::Greater)
    }

    /// Records a prefix: counts it, and once the budget is binding also
    /// feeds the pruning heap (keeping only the `cap` DFS-least recorded).
    fn record(&self, prefix: &[bool]) {
        if self.cap == 0 {
            return;
        }
        let seen = self.count.fetch_add(1, Ordering::Relaxed);
        if seen < self.cap {
            return; // budget not binding yet: no lock, no clone
        }
        let mut heap = self.heap.lock().expect("budget bound poisoned");
        if heap.len() < self.cap {
            heap.push(DfsKey(prefix.to_vec()));
        } else if heap
            .peek()
            .is_some_and(|max| dfs_cmp(prefix, &max.0) == std::cmp::Ordering::Less)
        {
            heap.pop();
            heap.push(DfsKey(prefix.to_vec()));
        }
    }
}

/// Pool-global coordination state.
struct Coordinator {
    deques: Vec<Mutex<VecDeque<WorkItem>>>,
    /// Items queued or running; the exploration is over when this is zero.
    pending: AtomicUsize,
    /// Canonical bound over executed item prefixes (`max_runs`).
    run_bound: CanonicalBound,
    /// Canonical bound over completed path decisions (`max_paths`).
    path_bound: CanonicalBound,
    /// Per-thief steal counters.
    steals: Vec<AtomicU64>,
    idle: Mutex<()>,
    wake: Condvar,
}

impl Coordinator {
    fn new(workers: usize, config: &ExploreConfig) -> Coordinator {
        Coordinator {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            run_bound: CanonicalBound::new(config.max_runs),
            path_bound: CanonicalBound::new(config.max_paths),
            steals: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            idle: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    fn push(&self, worker: usize, task: WorkItem) {
        self.pending.fetch_add(1, Ordering::SeqCst);
        self.deques[worker]
            .lock()
            .expect("deque poisoned")
            .push_back(task);
        self.wake.notify_all();
    }

    /// One task is done (its fork pushes, if any, happened before this).
    fn finish(&self) {
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.wake.notify_all();
        }
    }

    /// Pops own work (newest first) or steals (oldest first) from a victim.
    fn take(&self, worker: usize) -> Option<WorkItem> {
        if let Some(task) = self.deques[worker]
            .lock()
            .expect("deque poisoned")
            .pop_back()
        {
            return Some(task);
        }
        let n = self.deques.len();
        for offset in 1..n {
            let victim = (worker + offset) % n;
            if let Some(task) = self.deques[victim]
                .lock()
                .expect("deque poisoned")
                .pop_front()
            {
                self.steals[worker].fetch_add(1, Ordering::Relaxed);
                achilles_obs::instant("steal", "symvm");
                return Some(task);
            }
        }
        None
    }

    fn done(&self) -> bool {
        self.pending.load(Ordering::SeqCst) == 0
    }
}

/// Canonical depth-first order on decision vectors: `true` sorts before
/// `false` at the first differing branch. This is exactly the completion
/// order of the sequential DFS executor, so merged parallel results line up
/// with single-threaded runs.
pub(crate) fn dfs_cmp(a: &[bool], b: &[bool]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        match (x, y) {
            (true, false) => return std::cmp::Ordering::Less,
            (false, true) => return std::cmp::Ordering::Greater,
            _ => {}
        }
    }
    // Completed paths are never prefixes of one another (both sides of a
    // branch consume a decision); compare lengths only for totality.
    a.len().cmp(&b.len())
}

/// Runs `program` to completion over all feasible paths using `workers`
/// threads. See the module docs for the isolation/determinism argument.
#[allow(clippy::too_many_arguments)]
pub(crate) fn explore_parallel<O, F>(
    base_pool: &mut TermPool,
    base_solver: &Solver,
    config: &ExploreConfig,
    program: &(dyn NodeProgram + Sync),
    make_observer: F,
) -> ParallelOutcome<O>
where
    O: PathObserver + Send,
    F: Fn(usize) -> O,
{
    debug_assert!(
        config.order == crate::executor::ExploreOrder::Dfs,
        "the work-stealing pool schedules depth-first per worker and cannot \
         reproduce BFS completion order; BFS explorations must stay on the \
         sequential path (see Executor::explore_multi)"
    );
    let workers = config.workers.max(1);
    let started = Instant::now();
    // Shared-cache persistence across pipeline phases: when the base
    // solver carries a cache (the `Achilles` engine attaches one for its
    // whole lifetime), every exploration of that engine shares it —
    // queries the client phase solved are hits for the server phase's
    // workers. Each exploration is its own epoch, so hits on earlier
    // phases' entries are measurable (`ExploreStats::cross_phase_cache_hits`).
    let shared = base_solver
        .shared_cache()
        .cloned()
        .unwrap_or_else(|| Arc::new(SharedCache::new()));
    shared.advance_epoch();
    let cross_before = shared.stats().cross_epoch_hits;
    let coord = Coordinator::new(workers, config);
    let observers: Vec<O> = (0..workers).map(&make_observer).collect();
    coord.push(0, WorkItem::root(&observers[0]));

    let worker_outcomes: Vec<WorkerOutcome<O>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for (w, observer) in observers.into_iter().enumerate() {
            let worker_pool = base_pool.fork(w as u64 + 1);
            let worker_solver = Solver::with_config(base_solver.config().clone())
                .with_shared_cache(Arc::clone(&shared));
            let coord = &coord;
            handles.push(scope.spawn(move || {
                run_worker(
                    w,
                    worker_pool,
                    worker_solver,
                    config,
                    program,
                    coord,
                    observer,
                )
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    merge(
        base_pool,
        worker_outcomes,
        coord,
        shared,
        cross_before,
        started,
        workers,
        config,
    )
}

/// Everything a worker thread accumulates.
struct WorkerOutcome<O> {
    worker: usize,
    pool: TermPool,
    observer: O,
    solver_stats: SolverStats,
    /// Completed paths with provisional ids, plus local stats.
    paths: Vec<PathRecord>,
    /// The worklist-item prefix each completed path was scheduled from,
    /// parallel to `paths` (needed for the canonical `max_runs` cut).
    item_prefixes: Vec<Vec<bool>>,
    /// Every item prefix this worker executed (completed or not) — the raw
    /// material for the exact `max_runs` cut at merge time. Collected
    /// worker-locally so the hot path takes no shared lock.
    executed_prefixes: Vec<Vec<bool>>,
    stats: ExploreStats,
    busy: Duration,
}

fn run_worker<O: PathObserver>(
    worker: usize,
    mut pool: TermPool,
    mut solver: Solver,
    config: &ExploreConfig,
    program: &(dyn NodeProgram + Sync),
    coord: &Coordinator,
    mut observer: O,
) -> WorkerOutcome<O> {
    let worker_span = achilles_obs::span_owned(format!("worker-{worker}"), "symvm");
    let mut runner = Runner::new(&mut pool, &mut solver, config);
    let mut paths: Vec<PathRecord> = Vec::new();
    let mut item_prefixes: Vec<Vec<bool>> = Vec::new();
    let mut executed_prefixes: Vec<Vec<bool>> = Vec::new();
    let mut busy = Duration::ZERO;

    loop {
        let Some(item) = coord.take(worker) else {
            if coord.done() {
                break;
            }
            // Nothing to do right now: sleep until someone pushes or the
            // last task finishes. The timeout guards against missed wakeups.
            let guard = coord.idle.lock().expect("idle lock poisoned");
            let _ = coord
                .wake
                .wait_timeout(guard, Duration::from_millis(1))
                .expect("idle lock poisoned");
            continue;
        };

        // Canonical budgets: an item whose prefix sorts after a full bound
        // can only produce runs/paths the final truncation would discard, so
        // it is dropped (descendants included) without executing. In-flight
        // items always finish; there is no raced stop signal.
        if coord.run_bound.prunes(&item.prefix) || coord.path_bound.prunes(&item.prefix) {
            coord.finish();
            continue;
        }
        coord.run_bound.record(&item.prefix);
        executed_prefixes.push(item.prefix.clone());

        let _item_span = achilles_obs::span("item", "symvm");
        let item_started = Instant::now();
        let item_prefix = item.prefix.clone();
        // Provisional id: interleaved so it is unique across workers
        // without a stride that could overflow `usize`; canonical
        // renumbering happens in `merge`.
        let id = paths.len() * coord.deques.len() + worker;
        let (forks, path) = runner.run_item(program, &mut observer, item, id);
        for fork in forks {
            coord.push(worker, fork);
        }
        if let Some(path) = path {
            coord.path_bound.record(&path.decisions);
            paths.push(path);
            item_prefixes.push(item_prefix);
        }
        busy += item_started.elapsed();
        coord.finish();
    }
    let stats = runner.stats;

    // Merge point: close this worker's span and hand its trace buffer to
    // the process sink before the scoped thread unwinds.
    drop(worker_span);
    achilles_obs::drain_thread();

    let solver_stats = *solver.stats();
    WorkerOutcome {
        worker,
        pool,
        observer,
        solver_stats,
        paths,
        item_prefixes,
        executed_prefixes,
        stats,
        busy,
    }
}

#[allow(clippy::too_many_arguments)]
fn merge<O>(
    base_pool: &mut TermPool,
    outcomes: Vec<WorkerOutcome<O>>,
    coord: Coordinator,
    shared: Arc<SharedCache>,
    cross_before: u64,
    started: Instant,
    workers: usize,
    config: &ExploreConfig,
) -> ParallelOutcome<O> {
    let _span = achilles_obs::span("merge", "symvm");
    let mut stats = ExploreStats {
        workers,
        workers_effective: workers,
        ..ExploreStats::default()
    };
    let steals_of: Vec<u64> = coord
        .steals
        .iter()
        .map(|s| s.load(Ordering::Relaxed))
        .collect();
    stats.steals = steals_of.iter().sum();

    // Import every completed path's terms into the base pool, then sort into
    // canonical DFS order and renumber.
    let mut merged: Vec<(Vec<bool>, PathRecord)> = Vec::new();
    let mut executed: Vec<Vec<bool>> = Vec::new();
    let mut reports = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        let WorkerOutcome {
            worker,
            pool,
            observer,
            solver_stats,
            paths,
            item_prefixes,
            executed_prefixes,
            stats: ws,
            busy,
        } = outcome;
        stats.absorb_counters(&ws);
        // Each worker ran a fresh solver, so its stats are already deltas.
        solver_stats.record_metrics_delta(&SolverStats::default());
        stats.shared_cache_hits += solver_stats.shared_hits;
        stats.certified_unsat += solver_stats.certified_unsat;
        stats.core_subsumption_hits += solver_stats.core_subsumption_hits;
        executed.extend(executed_prefixes);

        let mut memo: HashMap<TermId, TermId> = HashMap::new();
        for (item_prefix, mut record) in item_prefixes.into_iter().zip(paths) {
            record.constraints = record
                .constraints
                .iter()
                .map(|&t| base_pool.import_term(&pool, t, &mut memo))
                .collect();
            record.sent = import_messages(base_pool, &pool, record.sent, &mut memo);
            record.received = import_messages(base_pool, &pool, record.received, &mut memo);
            merged.push((item_prefix, record));
        }
        let steals = steals_of[worker];
        reports.push(WorkerReport {
            worker,
            observer,
            pool,
            solver_stats,
            steals,
            busy,
        });
    }

    // The exact canonical `max_runs` cut: the DFS-greatest of the first
    // `max_runs` executed item prefixes, computed from the workers' local
    // collections (the shared pruning heap is only a work limiter and may
    // hold a late subset). `None` when the budget never bound.
    let run_cut: Option<Vec<bool>> = if executed.len() > config.max_runs && config.max_runs > 0 {
        let (_, cut, _) =
            executed.select_nth_unstable_by(config.max_runs - 1, |a, b| dfs_cmp(a, b));
        Some(cut.clone())
    } else if config.max_runs == 0 {
        Some(Vec::new())
    } else {
        None
    };

    // Canonical truncation. A sequential capped run completes exactly the
    // first `max_runs` scheduled items (and within them the first
    // `max_paths` paths) in depth-first order; the parallel run completed a
    // superset, so cutting by the run bound and then truncating the sorted
    // path list reproduces the sequential set bit-for-bit. Paths dropped
    // here stay out of `id_map`, so observer data keyed on their
    // provisional ids must be discarded by callers.
    if let Some(cut) = &run_cut {
        merged.retain(|(prefix, _)| dfs_cmp(prefix, cut) != std::cmp::Ordering::Greater);
    }
    merged.sort_by(|a, b| dfs_cmp(&a.1.decisions, &b.1.decisions));
    merged.truncate(config.max_paths);
    let mut merged: Vec<PathRecord> = merged.into_iter().map(|(_, record)| record).collect();
    let mut id_map = HashMap::with_capacity(merged.len());
    for (final_id, record) in merged.iter_mut().enumerate() {
        id_map.insert(record.id, final_id);
        record.id = final_id;
    }
    stats.runs = stats.runs.min(config.max_runs);
    stats.completed = merged.len();
    stats.cross_phase_cache_hits = shared.stats().cross_epoch_hits.saturating_sub(cross_before);
    stats.wall_time = started.elapsed();
    stats.record_metrics();

    ParallelOutcome {
        result: ExploreResult {
            paths: merged,
            stats,
        },
        id_map,
        workers: reports,
        shared_cache: shared,
    }
}

/// Maps `f` over `items` on up to `workers` threads, returning results in
/// item order.
///
/// This is the pool's second entry point, for workloads whose units are
/// *data* rather than decision prefixes — e.g. replaying discovered Trojan
/// witnesses against a concrete deployment, or negating independent client
/// path predicates. Items are claimed from a shared atomic cursor, so the
/// assignment of items to threads is scheduling-dependent, but the returned
/// vector is always ordered by item index: callers whose `f` is a pure
/// function of the item get deterministic output for every worker count.
///
/// `workers <= 1` (or fewer than two items) runs inline on the calling
/// thread with no pool overhead.
pub fn parallel_map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_with(workers, items, |_| (), |(), i, t| f(i, t))
}

/// [`parallel_map`] with per-worker mutable context: `init(worker)` runs
/// once on each worker thread (e.g. to fork a
/// [`TermPool`] and build a private [`Solver`]), and `f` receives that context for
/// every item the worker claims.
///
/// Items are claimed from a shared cursor, so *which* worker computes an
/// item is scheduling-dependent — results are order-preserving regardless,
/// but `f` must produce the same value for an item under every context
/// `init` can build (contexts forked from common state satisfy this when
/// the per-item computation is structure-deterministic). Sequential
/// (`workers <= 1` or fewer than two items) runs use a single context on
/// the calling thread.
pub fn parallel_map_with<T, C, R, I, F>(workers: usize, items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn(usize) -> C + Sync,
    F: Fn(&mut C, usize, &T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len().max(1));
    if workers <= 1 || items.len() < 2 {
        let mut cx = init(0);
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut cx, i, t))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut collected: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let init = &init;
                let f = &f;
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut cx = init(w);
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        out.push((i, f(&mut cx, i, &items[i])));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel_map worker panicked"))
            .collect()
    });
    collected.sort_by_key(|&(i, _)| i);
    collected.into_iter().map(|(_, r)| r).collect()
}

fn import_messages(
    dst: &mut TermPool,
    src: &TermPool,
    messages: Vec<SymMessage>,
    memo: &mut HashMap<TermId, TermId>,
) -> Vec<SymMessage> {
    messages
        .into_iter()
        .map(|m| {
            let values = m
                .values()
                .iter()
                .map(|&t| dst.import_term(src, t, memo))
                .collect::<Vec<_>>();
            SymMessage::new(Arc::clone(m.layout()), values)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::SymEnv;
    use crate::executor::Executor;
    use crate::observer::ObserverCx;
    use crate::program::PathResult;
    use achilles_solver::Width;

    fn branching_program(env: &mut SymEnv<'_>) -> PathResult<()> {
        // 4 levels of threshold branches over one symbolic word: 16 leaves.
        let x = env.sym("x", Width::W16);
        let mut note = String::new();
        for i in 0..4u64 {
            let c = env.constant(1000 * (i + 1), Width::W16);
            note.push(if env.if_ult(x, c)? { 'L' } else { 'G' });
        }
        env.note(note);
        env.mark_accept();
        Ok(())
    }

    fn explore_with(workers: usize) -> (TermPool, ExploreResult) {
        let mut pool = TermPool::new();
        let mut solver = Solver::new();
        let config = ExploreConfig {
            workers,
            ..ExploreConfig::default()
        };
        let mut exec = Executor::new(&mut pool, &mut solver, config);
        let result = exec.explore_multi(&branching_program);
        (pool, result)
    }

    #[test]
    fn parallel_map_is_order_preserving_for_every_worker_count() {
        let items: Vec<u64> = (0..57).collect();
        let seq = parallel_map(1, &items, |i, &x| x * 2 + i as u64);
        for w in [2usize, 4, 9, 64] {
            assert_eq!(parallel_map(w, &items, |i, &x| x * 2 + i as u64), seq);
        }
        let empty: Vec<u64> = Vec::new();
        assert!(parallel_map(4, &empty, |_, &x: &u64| x).is_empty());
        assert_eq!(parallel_map(8, &[41u64], |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn dfs_cmp_orders_true_first() {
        use std::cmp::Ordering::*;
        assert_eq!(dfs_cmp(&[true, true], &[true, false]), Less);
        assert_eq!(dfs_cmp(&[false], &[true, false]), Greater);
        assert_eq!(dfs_cmp(&[true, false], &[true, false]), Equal);
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let (seq_pool, seq) = explore_with(1);
        let (par_pool, par) = explore_with(4);
        assert_eq!(seq.paths.len(), par.paths.len());
        assert_eq!(seq.stats.runs, par.stats.runs);
        for (a, b) in seq.paths.iter().zip(&par.paths) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.decisions, b.decisions, "canonical DFS order");
            assert_eq!(a.verdict, b.verdict);
            assert_eq!(a.notes, b.notes);
            // Constraint *structure* matches even though the parallel run
            // solved in worker pools: compare via fingerprints.
            let fa: Vec<u128> = a.constraints.iter().map(|&t| seq_pool.term_fp(t)).collect();
            let fb: Vec<u128> = b.constraints.iter().map(|&t| par_pool.term_fp(t)).collect();
            assert_eq!(fa, fb);
        }
        assert_eq!(par.stats.workers, 4);
    }

    #[test]
    fn parallel_observers_see_every_path() {
        struct Counter(u64);
        impl PathObserver for Counter {
            fn on_path_end(&mut self, _cx: &mut ObserverCx<'_>, _record: &PathRecord) {
                self.0 += 1;
            }
        }
        let mut pool = TermPool::new();
        let mut solver = Solver::new();
        let config = ExploreConfig {
            workers: 3,
            ..ExploreConfig::default()
        };
        let mut exec = Executor::new(&mut pool, &mut solver, config);
        let outcome = exec.explore_parallel(&branching_program, |_| Counter(0));
        let seen: u64 = outcome.workers.iter().map(|w| w.observer.0).sum();
        assert_eq!(seen, outcome.result.paths.len() as u64);
        assert_eq!(outcome.workers.len(), 3);
        // Every provisional id is mapped.
        assert_eq!(outcome.id_map.len(), outcome.result.paths.len());
    }

    #[test]
    fn capped_budgets_truncate_canonically_for_every_worker_count() {
        // A binding `max_paths` (and separately `max_runs`) must leave the
        // exact same path set as the sequential capped run: the canonical
        // truncation replaces the old raced stop signal.
        let run = |workers: usize, max_paths: usize, max_runs: usize| {
            let mut pool = TermPool::new();
            let mut solver = Solver::new();
            let config = ExploreConfig {
                workers,
                max_paths,
                max_runs,
                ..ExploreConfig::default()
            };
            let mut exec = Executor::new(&mut pool, &mut solver, config);
            let result = exec.explore_multi(&branching_program);
            result
                .paths
                .iter()
                .map(|p| (p.id, p.decisions.clone(), p.notes.clone()))
                .collect::<Vec<_>>()
        };
        for (max_paths, max_runs) in [(5, usize::MAX >> 1), (16, 9), (3, 7)] {
            let seq = run(1, max_paths, max_runs);
            assert!(!seq.is_empty());
            for workers in [2usize, 4] {
                assert_eq!(
                    seq,
                    run(workers, max_paths, max_runs),
                    "workers={workers} max_paths={max_paths} max_runs={max_runs}"
                );
            }
        }
    }

    #[test]
    fn persistent_cache_yields_cross_phase_hits_on_reexploration() {
        // The Achilles engine attaches one SharedCache for its lifetime:
        // a later exploration (phase) re-uses queries an earlier one
        // solved, and the reuse is surfaced as cross_phase_cache_hits.
        let shared = Arc::new(SharedCache::new());
        let mut pool = TermPool::new();
        let solver = Solver::new().with_shared_cache(Arc::clone(&shared));
        let mut solver = solver;
        let config = ExploreConfig {
            workers: 3,
            ..ExploreConfig::default()
        };
        let first = {
            let mut exec = Executor::new(&mut pool, &mut solver, config.clone());
            exec.explore_multi(&branching_program)
        };
        assert_eq!(
            first.stats.cross_phase_cache_hits, 0,
            "nothing precedes the first phase"
        );
        let second = {
            let mut exec = Executor::new(&mut pool, &mut solver, config);
            exec.explore_multi(&branching_program)
        };
        assert!(
            second.stats.cross_phase_cache_hits > 0,
            "the second phase re-uses the first phase's published queries \
             (shared hits: {}, cross-phase: {})",
            second.stats.shared_cache_hits,
            second.stats.cross_phase_cache_hits,
        );
        // Reuse never perturbs results: published models are a function of
        // the query structure alone.
        assert_eq!(first.paths.len(), second.paths.len());
        for (a, b) in first.paths.iter().zip(&second.paths) {
            assert_eq!(a.decisions, b.decisions);
            assert_eq!(a.notes, b.notes);
        }
    }

    #[test]
    fn run_budget_is_per_pool_not_per_worker() {
        let mut pool = TermPool::new();
        let mut solver = Solver::new();
        // The 16-leaf program needs 16 runs; cap at 5 across 4 workers.
        let config = ExploreConfig {
            workers: 4,
            max_runs: 5,
            ..ExploreConfig::default()
        };
        let mut exec = Executor::new(&mut pool, &mut solver, config);
        let result = exec.explore_multi(&branching_program);
        assert!(
            result.stats.runs <= 5,
            "global budget must cap total runs, got {}",
            result.stats.runs
        );
    }

    #[test]
    fn imported_constraints_are_satisfiable_in_base_pool() {
        let (mut pool, result) = explore_with(4);
        let mut solver = Solver::new();
        for path in &result.paths {
            assert!(
                solver.is_sat(&mut pool, &path.constraints),
                "imported path constraints must be valid in the base pool"
            );
        }
    }
}
