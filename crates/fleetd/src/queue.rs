//! The sharded campaign work queue.
//!
//! The unit of queued work is one *witness* — a [`WorkItem`] carrying the
//! witness, its scope, its planned schedules and the mini-cache of
//! already-known cells — but the unit of *depth accounting* is the cell:
//! backpressure must bound replay debt, and one FSP witness is hundreds
//! of cells while one gossip witness is a hundred, so counting items
//! would let the debt vary by orders of magnitude under one bound.
//!
//! Items land on shards round-robin; executor `i` drains shard `i` and
//! steals from siblings when its own runs dry (the same discipline as the
//! symbolic pool's work-stealing deques, rebuilt over `std::sync` because
//! items here are heavyweight enough that a mutex per shard is noise).
//! [`WorkQueue::claim`] hands back a *batch* of consecutive same-scope
//! items so the executor can serve them all from one persistent
//! fork-server — per-target affinity falls out of FIFO order plus the
//! batch rule, no placement logic needed.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use achilles_replay::{FaultSchedule, SessionWitness};
use achilles_sweep::SweepCache;

/// Longest same-scope batch one claim hands an executor: bounds how long
/// a fork-server monopolizes a worker before other scopes get a turn.
const MAX_BATCH: usize = 32;

/// One enqueued campaign unit: a witness plus everything the executor
/// needs to sweep it without touching shared state.
#[derive(Debug)]
pub struct WorkItem {
    /// Registry name of the spec.
    pub target: String,
    /// Declared session name.
    pub session: String,
    /// The `target/session` cache scope.
    pub scope: String,
    /// Witness id within its session shard.
    pub id: usize,
    /// The witness to sweep.
    pub witness: SessionWitness,
    /// The witness's planned schedule space, planned once at enqueue time
    /// (where it also sized [`WorkItem::cells`]).
    pub schedules: Vec<FaultSchedule>,
    /// Cells already classified (extracted from the shared cache at
    /// enqueue time); the sweep replays exactly what is missing here,
    /// and the publish moves the completed cells into the shared cache.
    pub seed: SweepCache,
    /// Fresh cells this item will replay — the depth the item holds.
    pub cells: usize,
    /// The target's spec epoch at enqueue time; results from an older
    /// epoch are dropped, not published.
    pub epoch: u64,
}

/// The sharded, bounded, stealable work queue.
#[derive(Debug)]
pub struct WorkQueue {
    shards: Vec<Mutex<VecDeque<WorkItem>>>,
    /// Fresh cells queued or in flight (an item's cells are released on
    /// completion, not on claim — "idle" means *done*, not "claimed").
    depth_cells: AtomicUsize,
    /// Items queued or in flight.
    in_flight: AtomicUsize,
    peak_cells: AtomicUsize,
    next: AtomicUsize,
    closed: AtomicBool,
    signal: Mutex<()>,
    /// Woken on enqueue and close — executors sleep here.
    work_cv: Condvar,
    /// Woken when the last in-flight item completes — DRAIN sleeps here.
    idle_cv: Condvar,
}

impl WorkQueue {
    /// A queue with `shards` lanes (at least one).
    pub fn new(shards: usize) -> WorkQueue {
        WorkQueue {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            depth_cells: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            peak_cells: AtomicUsize::new(0),
            next: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            signal: Mutex::new(()),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
        }
    }

    /// Fresh cells currently queued or in flight.
    pub fn depth_cells(&self) -> usize {
        self.depth_cells.load(Ordering::SeqCst)
    }

    /// High-water mark of [`WorkQueue::depth_cells`].
    pub fn peak_cells(&self) -> usize {
        self.peak_cells.load(Ordering::SeqCst)
    }

    /// Cells currently *queued* per shard lane (claimed items have left
    /// their lane and are not counted — this is the instantaneous backlog
    /// the `METRICS` per-shard queue-depth gauges report, not the
    /// in-flight debt [`WorkQueue::depth_cells`] tracks).
    pub fn lane_depth_cells(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .lock()
                    .expect("queue shard lock")
                    .iter()
                    .map(|item| item.cells)
                    .sum()
            })
            .collect()
    }

    /// Whether every enqueued item has completed.
    pub fn is_idle(&self) -> bool {
        self.in_flight.load(Ordering::SeqCst) == 0
    }

    /// Whether the queue refuses further work (shutdown).
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Refuse further enqueues and wake every sleeper.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        let _guard = self.signal.lock().expect("queue signal lock");
        self.work_cv.notify_all();
        self.idle_cv.notify_all();
    }

    /// Enqueues one item round-robin across the shards.
    pub fn enqueue(&self, item: WorkItem) {
        let depth = self.depth_cells.fetch_add(item.cells, Ordering::SeqCst) + item.cells;
        self.peak_cells.fetch_max(depth, Ordering::SeqCst);
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        let lane = self.next.fetch_add(1, Ordering::SeqCst) % self.shards.len();
        self.shards[lane]
            .lock()
            .expect("queue shard lock")
            .push_back(item);
        let _guard = self.signal.lock().expect("queue signal lock");
        self.work_cv.notify_all();
    }

    /// Claims a batch of consecutive same-scope items for executor
    /// `worker`: its own shard first, then stealing from siblings.
    /// Returns `None` when every shard is empty.
    pub fn claim(&self, worker: usize) -> Option<Vec<WorkItem>> {
        let lanes = self.shards.len();
        for offset in 0..lanes {
            let lane = (worker + offset) % lanes;
            let mut shard = self.shards[lane].lock().expect("queue shard lock");
            let Some(first) = shard.pop_front() else {
                continue;
            };
            let mut batch = vec![first];
            while batch.len() < MAX_BATCH
                && shard
                    .front()
                    .is_some_and(|next| next.scope == batch[0].scope)
            {
                batch.push(shard.pop_front().expect("front probed Some"));
            }
            return Some(batch);
        }
        None
    }

    /// Releases one claimed item's depth; wakes drain waiters when the
    /// queue goes idle.
    pub fn complete(&self, cells: usize) {
        self.depth_cells.fetch_sub(cells, Ordering::SeqCst);
        if self.in_flight.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _guard = self.signal.lock().expect("queue signal lock");
            self.idle_cv.notify_all();
        }
    }

    /// Parks the calling executor until work (or close) is signaled, and
    /// returns at once if a lane already holds an item. An executor's
    /// [`WorkQueue::claim`] runs outside the signal lock, so an item
    /// enqueued between a failed claim and this call notified nobody; the
    /// check under the lock sees it, because [`WorkQueue::enqueue`] pushes
    /// the item before it takes the lock to notify. The wait is also
    /// timed, as a backstop for liveness.
    pub fn wait_for_work(&self) {
        let guard = self.signal.lock().expect("queue signal lock");
        if self.is_idle() && self.is_closed() {
            return;
        }
        if self
            .shards
            .iter()
            .any(|shard| !shard.lock().expect("queue shard lock").is_empty())
        {
            return;
        }
        let _unused = self
            .work_cv
            .wait_timeout(guard, Duration::from_millis(20))
            .expect("queue signal lock");
    }

    /// Blocks until every enqueued item has completed.
    pub fn wait_idle(&self) {
        let mut guard = self.signal.lock().expect("queue signal lock");
        while !self.is_idle() {
            guard = self
                .idle_cv
                .wait_timeout(guard, Duration::from_millis(20))
                .expect("queue signal lock")
                .0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(scope: &str, cells: usize) -> WorkItem {
        WorkItem {
            target: scope.split('/').next().unwrap().to_string(),
            session: scope.split('/').nth(1).unwrap_or("s").to_string(),
            scope: scope.to_string(),
            id: 0,
            witness: SessionWitness {
                index: 0,
                server_path_id: 0,
                fields: vec![vec![1]],
                wire: vec![vec![1]],
            },
            schedules: Vec::new(),
            seed: SweepCache::new(),
            cells,
            epoch: 0,
        }
    }

    #[test]
    fn waiting_after_an_unseen_enqueue_returns_at_once() {
        // The executor's order: a claim that finds nothing, then a park.
        // An enqueue landing between the two notified no one; the park
        // must see the queued item instead of sleeping out its timeout.
        let queue = WorkQueue::new(2);
        let started = std::time::Instant::now();
        for _ in 0..10 {
            assert!(queue.claim(0).is_none());
            queue.enqueue(item("a/s", 1));
            queue.wait_for_work();
            let batch = queue.claim(0).expect("the enqueued item");
            queue.complete(batch[0].cells);
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(100),
            "ten enqueue/park/claim rounds took {elapsed:?}"
        );
    }

    #[test]
    fn claims_batch_same_scope_runs_and_steals_across_shards() {
        let queue = WorkQueue::new(2);
        queue.enqueue(item("a/s", 3)); // lane 0
        queue.enqueue(item("a/s", 2)); // lane 1
        queue.enqueue(item("b/s", 1)); // lane 0
        assert_eq!(queue.depth_cells(), 6);
        assert_eq!(queue.peak_cells(), 6);
        assert_eq!(queue.lane_depth_cells(), vec![4, 2]);

        // Worker 0 claims its own lane: the a/s item, then stops at b/s.
        let batch = queue.claim(0).expect("lane 0 has work");
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].scope, "a/s");

        // Worker 0 again: b/s from its own lane.
        let batch = queue.claim(0).expect("lane 0 still has b/s");
        assert_eq!(batch[0].scope, "b/s");

        // Worker 0 steals the remaining a/s item from lane 1.
        let batch = queue.claim(0).expect("steals from lane 1");
        assert_eq!(batch[0].scope, "a/s");
        assert!(queue.claim(0).is_none());

        // Depth releases on completion, not on claim.
        assert_eq!(queue.depth_cells(), 6);
        assert!(!queue.is_idle());
        queue.complete(3);
        queue.complete(2);
        queue.complete(1);
        assert_eq!(queue.depth_cells(), 0);
        assert!(queue.is_idle());
        queue.wait_idle();
    }
}
