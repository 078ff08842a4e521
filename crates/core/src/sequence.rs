//! Multi-message (session) Trojan analysis.
//!
//! The paper analyzes one message per server activation and notes (§7) that
//! message *ordering* is future work ("Achilles could be enhanced by
//! techniques such as MODIST to also consider alternative orderings"). This
//! module implements the natural first step: servers that consume a fixed
//! **sequence** of messages in one session (handshake → command, prepare →
//! accept, upload → install).
//!
//! A session is Trojan when the server accepts it but at least one of its
//! messages is un-generable by a correct client *in that slot*:
//! `¬(gen₁(m₁) ∧ … ∧ genₖ(mₖ)) = ⋁ₛ ¬genₛ(mₛ)`. Each slot gets its own
//! client predicate and negations; the Trojan check becomes
//! `pathS ∧ ⋁ₛ (⋀_{i active in s} negate(pathC_{s,i}))`.

use std::collections::HashMap;

use achilles_solver::{SatResult, Solver, TermId, TermPool};
use achilles_symvm::{
    Executor, ExploreConfig, NodeProgram, ObserverCx, ObserverState, PathObserver, PathRecord,
    Verdict,
};

use crate::predicate::combine;
use crate::report::TrojanReport;
use crate::search::{canonical_witness_fields, Optimizations, PreparedClient};

/// Tag-family salt for the session server's symbolic inputs (see
/// [`ExploreConfig::sym_salt`]); distinct from both the client default (`0`)
/// and the single-message server salt.
const SESSION_SYM_SALT: u64 = 0x5345_5300; // "SES\0"

/// The per-slot state of a sequence search.
#[derive(Debug)]
struct SlotState {
    active: Vec<bool>,
    active_count: usize,
}

/// A [`PathObserver`] searching for session Trojans across several receive
/// slots, each with its own prepared client predicate.
#[derive(Debug)]
pub struct SequenceObserver<'p> {
    slots: Vec<&'p PreparedClient>,
    opts: Optimizations,
    states: Vec<SlotState>,
    /// Session Trojan reports (one per accepting server path with Trojans).
    pub reports: Vec<TrojanReport>,
    /// For each report, the slots whose message is un-generable.
    pub trojan_slots: Vec<Vec<usize>>,
    started: std::time::Instant,
}

impl<'p> SequenceObserver<'p> {
    /// Creates an observer over per-slot prepared clients (slot order must
    /// match the server's `recv` order).
    pub fn new(slots: Vec<&'p PreparedClient>, opts: Optimizations) -> SequenceObserver<'p> {
        let states = slots
            .iter()
            .map(|p| SlotState {
                active: vec![true; p.client.len()],
                active_count: p.client.len(),
            })
            .collect();
        SequenceObserver {
            slots,
            opts,
            states,
            reports: Vec::new(),
            trojan_slots: Vec::new(),
            started: std::time::Instant::now(),
        }
    }

    /// `⋁ₛ (⋀ active negations of slot s)`, or `None` if no slot can host a
    /// provable Trojan.
    fn trojan_disjunction(&self, pool: &mut TermPool) -> Option<TermId> {
        let mut per_slot = Vec::new();
        for (prepared, state) in self.slots.iter().zip(&self.states) {
            let mut conj = Vec::new();
            let mut feasible = true;
            for (i, neg) in prepared.negations.iter().enumerate() {
                if !state.active[i] {
                    continue;
                }
                match neg.disjunction {
                    Some(d) => conj.push(d),
                    None => {
                        feasible = false;
                        break;
                    }
                }
            }
            if feasible {
                per_slot.push(pool.and_all(conj));
            }
        }
        if per_slot.is_empty() {
            return None;
        }
        Some(pool.or_all(per_slot))
    }

    fn drop_pass(&mut self, cx: &mut ObserverCx<'_>) {
        for (slot, prepared) in self.slots.iter().enumerate() {
            // A slot only constrains anything once its message was received.
            if slot >= cx.received.len() {
                continue;
            }
            let state = &mut self.states[slot];
            for i in 0..state.active.len() {
                if !state.active[i] {
                    continue;
                }
                let q = combine(
                    cx.pool,
                    &cx.received[slot],
                    cx.pc,
                    &prepared.client.paths[i],
                    prepared.mask.indices(),
                );
                if cx.solver.is_unsat(cx.pool, &q) {
                    state.active[i] = false;
                    state.active_count -= 1;
                }
            }
        }
    }

    /// Which slots still admit a Trojan message on `pc`.
    fn slots_with_trojans(
        &self,
        pool: &mut TermPool,
        solver: &mut Solver,
        pc: &[TermId],
    ) -> Vec<usize> {
        let mut out = Vec::new();
        for (slot, (prepared, state)) in self.slots.iter().zip(&self.states).enumerate() {
            let mut query = pc.to_vec();
            let mut feasible = true;
            for (i, neg) in prepared.negations.iter().enumerate() {
                if !state.active[i] {
                    continue;
                }
                match neg.disjunction {
                    Some(d) => query.push(d),
                    None => {
                        feasible = false;
                        break;
                    }
                }
            }
            if feasible && !solver.is_unsat(pool, &query) {
                out.push(slot);
            }
        }
        out
    }
}

impl PathObserver for SequenceObserver<'_> {
    /// The per-path state is every slot's active flags, slot after slot.
    fn fork_state(&self) -> ObserverState {
        self.states
            .iter()
            .flat_map(|state| state.active.iter().map(|&a| u64::from(a)))
            .collect()
    }

    fn resume(&mut self, state: ObserverState) {
        let mut words = state.into_iter();
        for state in &mut self.states {
            for (a, word) in state.active.iter_mut().zip(&mut words) {
                *a = word != 0;
            }
            state.active_count = state.active.iter().filter(|&&a| a).count();
        }
    }

    fn on_constraint(&mut self, cx: &mut ObserverCx<'_>) -> bool {
        if self.opts.drop_covered {
            self.drop_pass(cx);
        }
        if !self.opts.prune_paths {
            return true;
        }
        match self.trojan_disjunction(cx.pool) {
            None => false,
            Some(d) => {
                let mut query = cx.pc.to_vec();
                query.push(d);
                !cx.solver.is_unsat(cx.pool, &query)
            }
        }
    }

    fn on_path_end(&mut self, cx: &mut ObserverCx<'_>, record: &PathRecord) {
        if record.verdict != Verdict::Accept {
            return;
        }
        let slots = self.slots_with_trojans(cx.pool, cx.solver, &record.constraints);
        if slots.is_empty() {
            return;
        }
        // Witness: a model of the path with the first Trojan slot's
        // negations asserted.
        let slot = slots[0];
        let prepared = self.slots[slot];
        let state = &self.states[slot];
        let mut query = record.constraints.clone();
        for (i, neg) in prepared.negations.iter().enumerate() {
            if state.active[i] {
                if let Some(d) = neg.disjunction {
                    query.push(d);
                }
            }
        }
        if let SatResult::Sat(model) = cx.solver.check(cx.pool, &query) {
            // Concretize the whole session (all received messages) to the
            // canonical least witness — worker-count invariant even when
            // several negation clauses leave the model underdetermined.
            let exprs: Vec<_> = record
                .received
                .iter()
                .flat_map(|msg| msg.values().iter().copied())
                .collect();
            let fields = canonical_witness_fields(cx.pool, cx.solver, &query, &exprs, &model);
            self.reports.push(TrojanReport {
                server_path_id: record.id,
                constraints: record.constraints.clone(),
                witness_fields: fields,
                active_clients: state.active_count,
                verified: false, // sequence witnesses are not re-verified yet
                found_at: self.started.elapsed(),
                notes: record.notes.clone(),
            });
            self.trojan_slots.push(slots);
        }
    }
}

/// Runs a sequence analysis: the server receives one message per entry of
/// `slots`, each slot checked against its own prepared client predicate.
///
/// With `workers > 1` the session exploration fans out over the same
/// work-stealing pool as [`run_trojan_search`](crate::search::run_trojan_search):
/// every worker runs its own [`SequenceObserver`] over a fork of `pool`,
/// and afterwards reports are imported back, their path ids remapped to the
/// canonical depth-first numbering, and the result sorted by path id — so
/// the session-Trojan set is identical for every worker count.
///
/// Returns `(reports, trojan slots per report, completed server paths)`.
pub fn analyze_sequence(
    pool: &mut TermPool,
    solver: &mut Solver,
    server: &(dyn NodeProgram + Sync),
    slots: Vec<&PreparedClient>,
    opts: Optimizations,
    workers: usize,
) -> (Vec<TrojanReport>, Vec<Vec<usize>>, usize) {
    let explore = ExploreConfig {
        workers: workers.max(1),
        ..ExploreConfig::default()
    };
    analyze_sequence_with(pool, solver, server, slots, opts, explore)
}

/// [`analyze_sequence`] with a caller-supplied exploration configuration —
/// budgets (`max_paths`/`max_runs`), depth, and worker count all honored
/// (capped runs truncate canonically, so the session-Trojan set stays
/// bit-identical for every worker count even under a binding budget). The
/// receive script is replaced with the slot messages and a zero `sym_salt`
/// gets the session salt; BFS-ordered configurations run sequentially,
/// like [`run_trojan_search`](crate::search::run_trojan_search).
pub fn analyze_sequence_with(
    pool: &mut TermPool,
    solver: &mut Solver,
    server: &(dyn NodeProgram + Sync),
    slots: Vec<&PreparedClient>,
    opts: Optimizations,
    mut explore: ExploreConfig,
) -> (Vec<TrojanReport>, Vec<Vec<usize>>, usize) {
    explore.recv_script = slots.iter().map(|p| p.server_msg.clone()).collect();
    explore.workers = explore.workers.max(1);
    if explore.sym_salt == 0 {
        explore.sym_salt = SESSION_SYM_SALT;
    }
    if explore.workers <= 1 || explore.order == achilles_symvm::ExploreOrder::Bfs {
        // A new phase of the engine's persistent cache (the parallel
        // branch advances inside the pool).
        if let Some(shared) = solver.shared_cache() {
            shared.advance_epoch();
        }
        let mut observer = SequenceObserver::new(slots, opts);
        let result = {
            let mut exec = Executor::new(pool, solver, explore);
            exec.explore_observed(server, &mut observer)
        };
        let SequenceObserver {
            reports,
            trojan_slots,
            ..
        } = observer;
        return (reports, trojan_slots, result.paths.len());
    }

    let outcome = {
        let mut exec = Executor::new(pool, solver, explore);
        exec.explore_parallel(server, |_| SequenceObserver::new(slots.clone(), opts))
    };
    let server_paths = outcome.result.paths.len();
    let mut merged: Vec<(TrojanReport, Vec<usize>)> = Vec::new();
    for worker in outcome.workers {
        let observer = worker.observer;
        let mut memo = HashMap::new();
        for (mut report, tslots) in observer.reports.into_iter().zip(observer.trojan_slots) {
            // Reports on paths past a binding budget's canonical cut are
            // discarded (their ids are absent from the map), matching the
            // sequential capped run.
            let Some(&final_id) = outcome.id_map.get(&report.server_path_id) else {
                continue;
            };
            report.server_path_id = final_id;
            report.constraints = report
                .constraints
                .iter()
                .map(|&t| pool.import_term(&worker.pool, t, &mut memo))
                .collect();
            merged.push((report, tslots));
        }
    }
    // Canonical order: one report per accepting path, sorted like the paths.
    merged.sort_by_key(|(r, _)| r.server_path_id);
    let (reports, trojan_slots) = merged.into_iter().unzip();
    (reports, trojan_slots, server_paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{ClientPredicate, FieldMask};
    use crate::search::prepare_client;
    use achilles_solver::Width;
    use achilles_symvm::{MessageLayout, PathResult, SymEnv, SymMessage};
    use std::sync::Arc;

    fn hs_layout() -> Arc<MessageLayout> {
        MessageLayout::builder("hs")
            .field("token", Width::W16)
            .build()
    }

    fn cmd_layout() -> Arc<MessageLayout> {
        MessageLayout::builder("cmd")
            .field("op", Width::W8)
            .field("arg", Width::W16)
            .build()
    }

    /// Slot-1 client: handshake tokens are validated to < 100.
    fn handshake_client(env: &mut SymEnv<'_>) -> PathResult<()> {
        let token = env.sym("token", Width::W16);
        let cap = env.constant(100, Width::W16);
        if !env.if_ult(token, cap)? {
            return Ok(());
        }
        env.send(SymMessage::new(hs_layout(), vec![token]));
        Ok(())
    }

    /// Slot-2 client: ops are 1 or 2, args validated to < 50.
    fn command_client(env: &mut SymEnv<'_>) -> PathResult<()> {
        let which = env.sym("which", Width::BOOL);
        let arg = env.sym("arg", Width::W16);
        let cap = env.constant(50, Width::W16);
        if !env.if_ult(arg, cap)? {
            return Ok(());
        }
        let op = if env.branch(which)? {
            env.constant(1, Width::W8)
        } else {
            env.constant(2, Width::W8)
        };
        env.send(SymMessage::new(cmd_layout(), vec![op, arg]));
        Ok(())
    }

    /// Session server: accepts token < 200 (bug: 2× the client range), then
    /// any op in {1,2} with arg < 50 (correct).
    fn session_server(env: &mut SymEnv<'_>) -> PathResult<()> {
        let hs = env.recv(&hs_layout())?;
        let tcap = env.constant(200, Width::W16);
        if !env.if_ult(hs.field("token"), tcap)? {
            return Ok(());
        }
        let cmd = env.recv(&cmd_layout())?;
        let one = env.constant(1, Width::W8);
        let two = env.constant(2, Width::W8);
        let is1 = env.if_eq(cmd.field("op"), one)?;
        if !is1 && !env.if_eq(cmd.field("op"), two)? {
            return Ok(());
        }
        let acap = env.constant(50, Width::W16);
        if !env.if_ult(cmd.field("arg"), acap)? {
            return Ok(());
        }
        env.mark_accept();
        Ok(())
    }

    fn prepare_slots() -> (TermPool, Solver, PreparedClient, PreparedClient) {
        let mut pool = TermPool::new();
        let mut solver = Solver::new();
        let hs_pred = {
            let mut exec = Executor::new(&mut pool, &mut solver, ExploreConfig::default());
            ClientPredicate::from_exploration(&exec.explore(&handshake_client))
        };
        let cmd_pred = {
            let mut exec = Executor::new(&mut pool, &mut solver, ExploreConfig::default());
            ClientPredicate::from_exploration(&exec.explore(&command_client))
        };
        let hs_msg = SymMessage::fresh(&mut pool, &hs_layout(), "hs");
        let cmd_msg = SymMessage::fresh(&mut pool, &cmd_layout(), "cmd");
        let hs_prep = prepare_client(
            &mut pool,
            &mut solver,
            hs_pred,
            hs_msg,
            FieldMask::none(),
            Optimizations::default(),
        );
        let cmd_prep = prepare_client(
            &mut pool,
            &mut solver,
            cmd_pred,
            cmd_msg,
            FieldMask::none(),
            Optimizations::default(),
        );
        (pool, solver, hs_prep, cmd_prep)
    }

    #[test]
    fn finds_the_handshake_session_trojan() {
        let (mut pool, mut solver, hs_prep, cmd_prep) = prepare_slots();
        let (reports, slots, _paths) = analyze_sequence(
            &mut pool,
            &mut solver,
            &session_server,
            vec![&hs_prep, &cmd_prep],
            Optimizations::default(),
            1,
        );
        // Both accepting paths (op 1 and op 2) host the handshake Trojan.
        assert_eq!(reports.len(), 2);
        for (r, s) in reports.iter().zip(&slots) {
            assert_eq!(s, &vec![0], "only the handshake slot is Trojan");
            // The witness token is in the server-only window [100, 200).
            let token = r.witness_fields[0];
            assert!((100..200).contains(&token), "token {token}");
        }
    }

    #[test]
    fn patched_session_server_is_clean() {
        fn patched(env: &mut SymEnv<'_>) -> PathResult<()> {
            let hs = env.recv(&hs_layout())?;
            let tcap = env.constant(100, Width::W16); // fixed bound
            if !env.if_ult(hs.field("token"), tcap)? {
                return Ok(());
            }
            let cmd = env.recv(&cmd_layout())?;
            let one = env.constant(1, Width::W8);
            let two = env.constant(2, Width::W8);
            let is1 = env.if_eq(cmd.field("op"), one)?;
            if !is1 && !env.if_eq(cmd.field("op"), two)? {
                return Ok(());
            }
            let acap = env.constant(50, Width::W16);
            if !env.if_ult(cmd.field("arg"), acap)? {
                return Ok(());
            }
            env.mark_accept();
            Ok(())
        }
        let (mut pool, mut solver, hs_prep, cmd_prep) = prepare_slots();
        let (reports, _slots, paths) = analyze_sequence(
            &mut pool,
            &mut solver,
            &patched,
            vec![&hs_prep, &cmd_prep],
            Optimizations::default(),
            1,
        );
        assert_eq!(reports.len(), 0, "both slots accept exactly C");
        assert!(paths > 0 || reports.is_empty());
    }

    #[test]
    fn second_slot_bug_is_attributed_to_the_right_slot() {
        fn arg_bug_server(env: &mut SymEnv<'_>) -> PathResult<()> {
            let hs = env.recv(&hs_layout())?;
            let tcap = env.constant(100, Width::W16);
            if !env.if_ult(hs.field("token"), tcap)? {
                return Ok(());
            }
            let cmd = env.recv(&cmd_layout())?;
            let one = env.constant(1, Width::W8);
            if !env.if_eq(cmd.field("op"), one)? {
                return Ok(());
            }
            let acap = env.constant(500, Width::W16); // bug: 10× the client cap
            if !env.if_ult(cmd.field("arg"), acap)? {
                return Ok(());
            }
            env.mark_accept();
            Ok(())
        }
        let (mut pool, mut solver, hs_prep, cmd_prep) = prepare_slots();
        let (reports, slots, _) = analyze_sequence(
            &mut pool,
            &mut solver,
            &arg_bug_server,
            vec![&hs_prep, &cmd_prep],
            Optimizations::default(),
            1,
        );
        assert_eq!(reports.len(), 1);
        assert_eq!(slots[0], vec![1], "the command slot hosts the Trojan");
        // Witness arg in [50, 500).
        let arg = reports[0].witness_fields[2];
        assert!((50..500).contains(&arg), "arg {arg}");
    }
}
