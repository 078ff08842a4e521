//! Exploration observers.
//!
//! An observer watches one exploration and may veto paths while they are
//! being built. This is the mechanism behind the paper's central optimization
//! (Figure 7): during the *server* analysis, Achilles installs an observer
//! that tracks which client path predicates can still trigger the current
//! path and prunes the path as soon as no Trojan message can reach it.
//!
//! The executor re-runs the program from the start for every scheduled
//! path, but the observer sees each conjunct of the path tree once, as the
//! paper's incremental search checks each new conjunct once (§3.2–3.3).
//! When a run schedules the untaken side of a new branch point, it captures
//! the observer's per-path state with [`PathObserver::fork_state`], and the
//! scheduled item carries it. The run that executes the item first
//! [`resume`](PathObserver::resume)s the observer from that state, replays
//! the item's decision prefix *without* notifying it, and fires
//! [`PathObserver::on_constraint`] only for the conjuncts from the forked
//! branch on. The root item carries the state of the freshly made
//! observer, so every run starts through `resume`.
//! [`PathObserver::on_path_end`] fires for completed paths.
//!
//! Skipping the replayed prefix is sound because the run that forked the
//! item observed exactly that conjunct sequence and kept it: a run the
//! observer pruned never reaches a later branch point, so it schedules
//! nothing past the veto.

use achilles_solver::{Solver, TermId, TermPool};

use crate::message::SymMessage;
use crate::record::PathRecord;

/// An observer's per-path state at a fork point.
///
/// Plain words — flags, counters or indices, never [`TermId`]s — so the
/// state does not depend on the term pool: a stolen item resumes the same
/// way on any worker's pool fork.
pub type ObserverState = Vec<u64>;

/// Context handed to observer callbacks.
#[derive(Debug)]
pub struct ObserverCx<'a> {
    /// The term pool (observers may build queries).
    pub pool: &'a mut TermPool,
    /// The shared solver (queries are cached across paths).
    pub solver: &'a mut Solver,
    /// Path constraints so far, in order; the newest conjunct is last.
    pub pc: &'a [TermId],
    /// Messages received so far on this path.
    pub received: &'a [SymMessage],
}

/// Watches an exploration; may prune paths.
///
/// The resume contract: [`on_constraint`](PathObserver::on_constraint)
/// must depend only on the state last passed to
/// [`resume`](PathObserver::resume) and on the conjuncts notified since.
/// An observer without per-path state (one whose `on_constraint` reads
/// only `cx`) keeps the default no-op `fork_state`/`resume`.
pub trait PathObserver {
    /// The per-path state to carry into an item scheduled at the current
    /// point of the path.
    fn fork_state(&self) -> ObserverState {
        ObserverState::new()
    }

    /// A run starts: restore the per-path state captured by
    /// [`fork_state`](PathObserver::fork_state) where its item was
    /// scheduled.
    fn resume(&mut self, state: ObserverState) {
        let _ = state;
    }

    /// A constraint past the replayed prefix was appended to the path
    /// condition.
    ///
    /// Return `false` to prune the path (it is abandoned immediately and
    /// counted in [`ExploreStats::pruned`](crate::record::ExploreStats)).
    fn on_constraint(&mut self, cx: &mut ObserverCx<'_>) -> bool {
        let _ = cx;
        true
    }

    /// A path ran to completion and was recorded.
    fn on_path_end(&mut self, cx: &mut ObserverCx<'_>, record: &PathRecord) {
        let _ = (cx, record);
    }
}

/// An observer that does nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl PathObserver for NullObserver {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_never_prunes() {
        let mut pool = TermPool::new();
        let mut solver = Solver::new();
        let mut obs = NullObserver;
        let mut cx = ObserverCx {
            pool: &mut pool,
            solver: &mut solver,
            pc: &[],
            received: &[],
        };
        let state = obs.fork_state();
        assert!(state.is_empty(), "a stateless observer carries no state");
        obs.resume(state);
        assert!(obs.on_constraint(&mut cx));
    }
}
