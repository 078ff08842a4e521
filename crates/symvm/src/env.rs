//! The symbolic environment node programs run against.
//!
//! [`SymEnv`] plays the role of S2E's guest environment plus the paper's
//! `LD_PRELOAD` syscall interception (§5.1): programs obtain *all* inputs
//! through it (symbolic local inputs via [`SymEnv::sym`], network messages
//! via [`SymEnv::recv`]) and send replies through it ([`SymEnv::send`]).
//! Branches on symbolic conditions go through [`SymEnv::branch`], which
//! consults the solver for feasibility and forks the exploration.
//!
//! The paper's annotation set (§5.2) maps onto methods:
//!
//! | paper annotation        | method                                   |
//! |-------------------------|------------------------------------------|
//! | `mark_accept`           | [`SymEnv::mark_accept`]                  |
//! | `mark_reject`           | [`SymEnv::mark_reject`]                  |
//! | `drop_path`             | [`SymEnv::drop_path`]                    |
//! | `make_symbolic`         | [`SymEnv::sym`]                          |
//! | `function_start/end` + `return_symbolic` | [`SymEnv::sym_in_range`] / `sym` + [`SymEnv::assume`] |
//!
//! Determinism across re-executions: the executor re-runs programs from the
//! start for every scheduled path, so symbolic inputs are interned by
//! *(call index, name, width)* and received messages by *receive index* —
//! the same program point sees the same variables on every run, which keeps
//! path constraints identical along shared prefixes (and the solver cache
//! hot). The observer is not notified of the replayed prefix: the run that
//! scheduled the item already observed it (see [`crate::observer`]).

use std::collections::HashMap;
use std::sync::Arc;

use achilles_solver::{SatResult, ScopedSolver, Solver, TermId, TermPool, VarId, Width};

use crate::executor::{ExploreConfig, WorkItem};
use crate::message::{MessageLayout, SymMessage};
use crate::observer::{ObserverCx, PathObserver};
use crate::program::{Halt, PathResult};
use crate::record::Verdict;

/// Variable/message interning shared by all runs of one exploration.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    syms: HashMap<(usize, String, u8), VarId>,
    recv_script: Vec<SymMessage>,
}

impl Registry {
    pub(crate) fn new(recv_script: Vec<SymMessage>) -> Registry {
        Registry {
            syms: HashMap::new(),
            recv_script,
        }
    }
}

/// Stable identity tag of an interned symbolic input.
///
/// Derived purely from the exploration's salt and the interning key *(call
/// index, name, width)*, so the "same" variable created independently by
/// different parallel workers gets the same [`TermPool`] fingerprint — the
/// property that makes structurally equal path constraints shareable through
/// the cross-worker solver cache. The salt keeps *different* explorations in
/// one pool lineage (e.g. the pipeline's client and server phases) from
/// colliding when their i-th `sym()` calls happen to agree on name and width.
fn sym_tag(salt: u64, index: usize, name: &str, width: Width) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |b: u64| {
        h ^= b;
        h = h.wrapping_mul(0x100_0000_01B3);
    };
    eat(salt);
    eat(index as u64);
    eat(u64::from(width.bits()));
    for b in name.bytes() {
        eat(u64::from(b));
    }
    h
}

/// Identity tag of an auto-created received-message field — same role as
/// [`sym_tag`] (workers re-creating the "same" variable must agree on its
/// fingerprint), but in a disjoint tag family so a `recv`-created field can
/// never collide with a [`SymEnv::sym`] input of the same index and name.
fn recv_tag(salt: u64, recv_index: usize, field: &str, width: Width) -> u64 {
    sym_tag(salt, recv_index, field, width) ^ 0x5245_4356_5245_4356 // "RECVRECV"
}

/// What a finished run produced (consumed by the executor).
#[derive(Debug)]
pub(crate) struct RunOutput {
    pub constraints: Vec<TermId>,
    pub sent: Vec<SymMessage>,
    pub received: Vec<SymMessage>,
    pub decisions: Vec<bool>,
    pub branch_points: usize,
    pub verdict: Option<Verdict>,
    pub notes: Vec<String>,
    pub forks: Vec<WorkItem>,
    pub branch_checks: u64,
    pub unknown_branches: u64,
    pub model_reuse_hits: u64,
}

/// The execution environment for one run of a node program.
pub struct SymEnv<'a> {
    pool: &'a mut TermPool,
    solver: &'a mut Solver,
    observer: &'a mut dyn PathObserver,
    registry: &'a mut Registry,
    config: &'a ExploreConfig,
    // Replay/decision state.
    decisions: Vec<bool>,
    cursor: usize,
    forks: Vec<WorkItem>,
    // Path state.
    pc: Vec<TermId>,
    /// Incremental view of `pc`: frames mirror the path condition so branch
    /// feasibility checks reuse models / sticky-unsat across the
    /// one-conjunct-at-a-time growth instead of re-solving from scratch.
    scoped: ScopedSolver,
    sent: Vec<SymMessage>,
    received: Vec<SymMessage>,
    verdict: Option<Verdict>,
    notes: Vec<String>,
    sym_counter: usize,
    recv_counter: usize,
    branch_points: usize,
    branch_checks: u64,
    unknown_branches: u64,
}

impl<'a> SymEnv<'a> {
    /// An environment for one run along decision `prefix`.
    pub(crate) fn new(
        pool: &'a mut TermPool,
        solver: &'a mut Solver,
        observer: &'a mut dyn PathObserver,
        registry: &'a mut Registry,
        config: &'a ExploreConfig,
        prefix: Vec<bool>,
    ) -> SymEnv<'a> {
        SymEnv {
            pool,
            solver,
            observer,
            registry,
            config,
            decisions: prefix,
            cursor: 0,
            forks: Vec::new(),
            scoped: ScopedSolver::with_assertions(&config.initial_constraints),
            pc: config.initial_constraints.clone(),
            sent: Vec::new(),
            received: Vec::new(),
            verdict: None,
            notes: Vec::new(),
            sym_counter: 0,
            recv_counter: 0,
            branch_points: 0,
            branch_checks: 0,
            unknown_branches: 0,
        }
    }

    pub(crate) fn into_output(self) -> RunOutput {
        RunOutput {
            constraints: self.pc,
            sent: self.sent,
            received: self.received,
            decisions: self.decisions,
            branch_points: self.branch_points,
            verdict: self.verdict,
            notes: self.notes,
            forks: self.forks,
            branch_checks: self.branch_checks,
            unknown_branches: self.unknown_branches,
            model_reuse_hits: self.scoped.stats().model_reuse_hits,
        }
    }

    // ------------------------------------------------------------------
    // Term construction
    // ------------------------------------------------------------------

    /// The shared term pool (for building expressions).
    pub fn pool_mut(&mut self) -> &mut TermPool {
        self.pool
    }

    /// Read-only access to the term pool.
    pub fn pool(&self) -> &TermPool {
        self.pool
    }

    /// Shorthand for a constant term.
    pub fn constant(&mut self, value: u64, width: Width) -> TermId {
        self.pool.constant(value, width)
    }

    /// A fresh symbolic input (the paper's `make_symbolic` / intercepted
    /// input syscall). Interned by call order so re-executions agree.
    pub fn sym(&mut self, name: &str, width: Width) -> TermId {
        let index = self.sym_counter;
        let key = (index, name.to_string(), width.bits() as u8);
        self.sym_counter += 1;
        let salt = self.config.sym_salt;
        let pool = &mut *self.pool;
        let var = *self.registry.syms.entry(key).or_insert_with(|| {
            pool.fresh_var_tagged(name, width, sym_tag(salt, index, name, width))
        });
        self.pool.var(var)
    }

    /// A fresh symbolic input constrained to `[lo, hi]` (unsigned) — the
    /// pattern of the paper's Figure 9 function over-approximation.
    pub fn sym_in_range(
        &mut self,
        name: &str,
        width: Width,
        lo: u64,
        hi: u64,
    ) -> PathResult<TermId> {
        let v = self.sym(name, width);
        let loc = self.pool.constant(lo, width);
        let hic = self.pool.constant(hi, width);
        let ge = self.pool.ule(loc, v);
        let le = self.pool.ule(v, hic);
        self.assume(ge)?;
        self.assume(le)?;
        Ok(v)
    }

    // ------------------------------------------------------------------
    // Control flow
    // ------------------------------------------------------------------

    /// Current path constraints.
    pub fn path_constraints(&self) -> &[TermId] {
        &self.pc
    }

    /// Number of symbolic branch points taken so far on this path.
    pub fn depth(&self) -> usize {
        self.branch_points
    }

    /// Adds `constraint` to the path condition and, past the replayed
    /// prefix, notifies the observer.
    fn push_constraint(&mut self, constraint: TermId) -> PathResult<()> {
        // Skip trivially true conjuncts so path predicates stay tight.
        if self.pool.as_const(constraint) == Some(1) {
            return Ok(());
        }
        self.pc.push(constraint);
        self.scoped.push(constraint);
        // The run that scheduled this item observed (and kept) every
        // conjunct up to its fork point; the observer resumed from there.
        if self.cursor < self.decisions.len() {
            return Ok(());
        }
        let mut cx = ObserverCx {
            pool: self.pool,
            solver: self.solver,
            pc: &self.pc,
            received: &self.received,
        };
        if self.observer.on_constraint(&mut cx) {
            Ok(())
        } else {
            Err(Halt::Pruned)
        }
    }

    /// Asserts `cond` without forking (kills the path if infeasible).
    pub fn assume(&mut self, cond: TermId) -> PathResult<()> {
        match self.pool.as_const(cond) {
            Some(1) => return Ok(()),
            Some(_) => return Err(Halt::Infeasible),
            None => {}
        }
        self.branch_checks += 1;
        match self.scoped.check_with(self.pool, self.solver, cond) {
            SatResult::Sat(_) => self.push_constraint(cond),
            SatResult::Unsat(_) => Err(Halt::Infeasible),
            SatResult::Unknown => {
                // Conservative: keep exploring; Trojan reports are re-verified
                // with concrete models, so this cannot create false claims.
                self.unknown_branches += 1;
                self.push_constraint(cond)
            }
        }
    }

    /// Branches on a symbolic condition.
    ///
    /// Concrete conditions return immediately. Symbolic conditions consult
    /// the solver; when both sides are feasible the exploration forks: this
    /// run follows the scheduled (or default `true`) side, and the other side
    /// is enqueued for a later run.
    ///
    /// # Errors
    ///
    /// [`Halt::Infeasible`] if neither side is feasible,
    /// [`Halt::DepthExhausted`] if the per-path branch budget is spent,
    /// [`Halt::Pruned`] if the observer vetoes the extended path.
    pub fn branch(&mut self, cond: TermId) -> PathResult<bool> {
        if let Some(v) = self.pool.as_const(cond) {
            return Ok(v != 0);
        }
        if self.branch_points >= self.config.max_depth {
            return Err(Halt::DepthExhausted);
        }
        let not_cond = self.pool.not(cond);
        self.branch_checks += 1;
        let true_side = self.scoped.check_with(self.pool, self.solver, cond);
        self.branch_checks += 1;
        let false_side = self.scoped.check_with(self.pool, self.solver, not_cond);

        let feasible = |r: &SatResult| !matches!(r, SatResult::Unsat(_));
        if matches!(true_side, SatResult::Unknown) || matches!(false_side, SatResult::Unknown) {
            self.unknown_branches += 1;
        }
        match (feasible(&true_side), feasible(&false_side)) {
            (false, false) => Err(Halt::Infeasible),
            (true, false) => {
                self.push_constraint(cond)?;
                Ok(true)
            }
            (false, true) => {
                self.push_constraint(not_cond)?;
                Ok(false)
            }
            (true, true) => {
                self.branch_points += 1;
                let take = if self.cursor < self.decisions.len() {
                    self.decisions[self.cursor]
                } else {
                    // New branch point: take `true`, schedule `false` with
                    // the observer state of this point of the path.
                    let mut prefix = self.decisions.clone();
                    prefix.push(false);
                    self.forks.push(WorkItem {
                        prefix,
                        state: self.observer.fork_state(),
                    });
                    self.decisions.push(true);
                    true
                };
                self.cursor += 1;
                self.push_constraint(if take { cond } else { not_cond })?;
                Ok(take)
            }
        }
    }

    /// Branch on `a == b`.
    pub fn if_eq(&mut self, a: TermId, b: TermId) -> PathResult<bool> {
        let c = self.pool.eq(a, b);
        self.branch(c)
    }

    /// Branch on `a != b`.
    pub fn if_ne(&mut self, a: TermId, b: TermId) -> PathResult<bool> {
        let c = self.pool.ne(a, b);
        self.branch(c)
    }

    /// Branch on `a <u b`.
    pub fn if_ult(&mut self, a: TermId, b: TermId) -> PathResult<bool> {
        let c = self.pool.ult(a, b);
        self.branch(c)
    }

    /// Branch on `a <=u b`.
    pub fn if_ule(&mut self, a: TermId, b: TermId) -> PathResult<bool> {
        let c = self.pool.ule(a, b);
        self.branch(c)
    }

    /// Branch on `a <s b`.
    pub fn if_slt(&mut self, a: TermId, b: TermId) -> PathResult<bool> {
        let c = self.pool.slt(a, b);
        self.branch(c)
    }

    /// Branch on `a <=s b`.
    pub fn if_sle(&mut self, a: TermId, b: TermId) -> PathResult<bool> {
        let c = self.pool.sle(a, b);
        self.branch(c)
    }

    /// Assume `a == b`.
    pub fn assume_eq(&mut self, a: TermId, b: TermId) -> PathResult<()> {
        let c = self.pool.eq(a, b);
        self.assume(c)
    }

    /// Ends the current path (the paper's `drop_path` annotation).
    pub fn drop_path(&self) -> PathResult<()> {
        Err(Halt::Dropped)
    }

    // ------------------------------------------------------------------
    // Network
    // ------------------------------------------------------------------

    /// Receives the next message.
    ///
    /// Messages come from the exploration's *receive script* (injected
    /// concrete messages or messages captured from another node — the
    /// Constructed Symbolic Local State mode §3.4). Past the end of the
    /// script, a fresh fully-symbolic message of `layout` is created and
    /// interned so that every run sees the same variables.
    pub fn recv(&mut self, layout: &Arc<MessageLayout>) -> PathResult<SymMessage> {
        let idx = self.recv_counter;
        self.recv_counter += 1;
        if idx >= self.registry.recv_script.len() {
            let prefix = if idx == 0 {
                self.config.recv_prefix.clone()
            } else {
                format!("{}{}", self.config.recv_prefix, idx)
            };
            // Tagged interning, not `SymMessage::fresh`: plain fresh vars
            // carry the pool's fork nonce in their fingerprint, so parallel
            // workers would each mint a distinct copy of the "same" field.
            let pool = &mut *self.pool;
            let values: Vec<TermId> = layout
                .fields()
                .iter()
                .map(|f| {
                    let name = format!("{prefix}.{}", f.name);
                    let var = pool.fresh_var_tagged(
                        &name,
                        f.width,
                        recv_tag(self.config.sym_salt, idx, &name, f.width),
                    );
                    pool.var(var)
                })
                .collect();
            let fresh = SymMessage::new(Arc::clone(layout), values);
            self.registry.recv_script.push(fresh);
        }
        let msg = self.registry.recv_script[idx].clone();
        assert_eq!(
            msg.layout().name(),
            layout.name(),
            "recv #{idx}: script message layout mismatch"
        );
        self.received.push(msg.clone());
        Ok(msg)
    }

    /// Sends a message (recorded; sending marks the path accepting unless a
    /// marker says otherwise).
    pub fn send(&mut self, msg: SymMessage) {
        self.sent.push(msg);
    }

    /// Messages sent so far on this path.
    pub fn sent(&self) -> &[SymMessage] {
        &self.sent
    }

    // ------------------------------------------------------------------
    // Annotations
    // ------------------------------------------------------------------

    /// Marks this path accepting (server-side annotation).
    pub fn mark_accept(&mut self) {
        self.verdict = Some(Verdict::Accept);
    }

    /// Marks this path rejecting (server-side annotation).
    pub fn mark_reject(&mut self) {
        self.verdict = Some(Verdict::Reject);
    }

    /// Classifies the path through a protocol status code (§5.1: "this can
    /// be trivially extended to handle other common error signaling
    /// mechanisms (e.g., 4xx status codes in HTTP)").
    ///
    /// Codes in `100..400` mark the path accepting, codes in `400..600`
    /// rejecting; other codes leave the default classification in place.
    pub fn reply_status(&mut self, code: u16) {
        self.note(format!("status={code}"));
        match code {
            100..=399 => self.mark_accept(),
            400..=599 => self.mark_reject(),
            _ => {}
        }
    }

    /// Records a free-form note on the path (useful to label which protocol
    /// action a path performs; shows up in reports).
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }
}

impl std::fmt::Debug for SymEnv<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymEnv")
            .field("depth", &self.branch_points)
            .field("constraints", &self.pc.len())
            .field("sent", &self.sent.len())
            .field("received", &self.received.len())
            .finish_non_exhaustive()
    }
}
