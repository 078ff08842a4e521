//! Independent checker for unsat certificates emitted by `achilles-solver`.
//!
//! The solver's `Sat` verdicts are verified end-to-end (models are
//! re-evaluated and witnesses replayed); its `Unsat` verdicts carry a
//! [`Certificate`] — a refutation trace plus the unsat core — and *this*
//! crate is what makes those trustworthy. It shares only the term and width
//! definitions (`TermPool`, `TermId`, `Op`, `Width`) with the solver: the
//! negation-normal-form conversion, the interval sets, the affine views and
//! the propagation dispatch are all re-implemented here, so a bug in the
//! search cannot validate its own mistake.
//!
//! # What checking means
//!
//! A certificate never records claimed truth sets: every
//! [`ProofStep`] only *points* at an assertion
//! (by context ref) and a variable (by fingerprint). The checker re-derives
//! the restriction from the pointed-at term itself and replays it on its own
//! domain state, which therefore always over-approximates the solution set
//! of the assertions in force. Whenever that state becomes infeasible (a
//! domain empties, or an asserted literal evaluates to the wrong polarity
//! under the pinned values), the branch is genuinely refuted and the node is
//! accepted regardless of what the rest of the certificate claims — the
//! over-approximation makes that sound. Conversely, any *mismatch* between
//! what a node claims and what the checker derives (a restrict that changes
//! nothing, a split with the wrong number of cases, a ref pointing at the
//! wrong kind of entry) is a rejection.
//!
//! # The ref protocol
//!
//! Converting each core assertion to negation normal form yields a tree of
//! `And` / `Or` / literal nodes. The checker's *context* is the sequence of
//! literal and `Or` entries met while walking the core assertions in order
//! (`And` children in place; an `Or` contributes one entry and its children
//! are not walked until a `SplitOr` case assumes one of them, pushing that
//! disjunct's entries at the end of the context for the duration of the
//! case). Refs in the certificate are indices into this context; the
//! recorder in `achilles-solver` maintains the same counter, so a faithful
//! certificate's refs line up exactly.
//!
//! Because the proof's refs are expressed against the context built from
//! the **core assertions alone**, the same certificate validates against any
//! assertion set that contains the core — which is what lets the solver's
//! shared cache answer superset queries by subsumption and still pass the
//! audit.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use achilles_solver::{
    set_proof_audit, Certificate, Op, ProofNode, ProofStep, TermId, TermPool, VarId, Width,
};

mod iset;
use iset::ISet;

/// Hard cap on the number of values a `SplitVal` node may enumerate. The
/// solver's own exhaustive-enumeration limit is far below this; a
/// certificate exceeding it is rejected rather than replayed.
const MAX_ENUM: u64 = 65_536;

/// Environment variable that makes [`install_audit_from_env`] install the
/// audit hook (set to `1` or `true`).
pub const CHECK_PROOFS_ENV: &str = "ACHILLES_CHECK_PROOFS";

// ---------------------------------------------------------------------------
// NNF mirror
// ---------------------------------------------------------------------------

/// A literal: a boolean term asserted with a polarity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CLit {
    term: TermId,
    positive: bool,
}

/// Negation-normal-form formula, re-derived independently of the solver.
#[derive(Clone, Debug, PartialEq, Eq)]
enum CF {
    True,
    False,
    Lit(CLit),
    And(Vec<CF>),
    Or(Vec<CF>),
}

fn cmk_and(parts: Vec<CF>) -> CF {
    let mut out = Vec::with_capacity(parts.len());
    for p in parts {
        match p {
            CF::True => {}
            CF::False => return CF::False,
            CF::And(inner) => out.extend(inner),
            other => out.push(other),
        }
    }
    match out.len() {
        0 => CF::True,
        1 => out.pop().expect("len checked"),
        _ => CF::And(out),
    }
}

fn cmk_or(parts: Vec<CF>) -> CF {
    let mut out = Vec::with_capacity(parts.len());
    for p in parts {
        match p {
            CF::False => {}
            CF::True => return CF::True,
            CF::Or(inner) => out.extend(inner),
            other => out.push(other),
        }
    }
    match out.len() {
        0 => CF::False,
        1 => out.pop().expect("len checked"),
        _ => CF::Or(out),
    }
}

/// Negation normal form of `t` (of its negation when `positive == false`):
/// negation pushed to the leaves, `not <u` / `not <=u` rewritten to the dual
/// comparison, boolean `ite` expanded.
fn cnnf(pool: &mut TermPool, t: TermId, positive: bool) -> CF {
    let node = pool.node(t).clone();
    match node.op {
        Op::Const(v) => {
            if (v != 0) == positive {
                CF::True
            } else {
                CF::False
            }
        }
        Op::Not => cnnf(pool, node.args[0], !positive),
        Op::And => {
            let parts: Vec<CF> = node.args.iter().map(|&a| cnnf(pool, a, positive)).collect();
            if positive {
                cmk_and(parts)
            } else {
                cmk_or(parts)
            }
        }
        Op::Or => {
            let parts: Vec<CF> = node.args.iter().map(|&a| cnnf(pool, a, positive)).collect();
            if positive {
                cmk_or(parts)
            } else {
                cmk_and(parts)
            }
        }
        Op::Ult => {
            if positive {
                CF::Lit(CLit { term: t, positive })
            } else {
                let dual = pool.ule(node.args[1], node.args[0]);
                cnnf(pool, dual, true)
            }
        }
        Op::Ule => {
            if positive {
                CF::Lit(CLit { term: t, positive })
            } else {
                let dual = pool.ult(node.args[1], node.args[0]);
                cnnf(pool, dual, true)
            }
        }
        Op::Ite if node.width == Width::BOOL => {
            let (c, a, b) = (node.args[0], node.args[1], node.args[2]);
            let ca = {
                let fc = cnnf(pool, c, true);
                let fa = cnnf(pool, a, positive);
                cmk_and(vec![fc, fa])
            };
            let cb = {
                let fc = cnnf(pool, c, false);
                let fb = cnnf(pool, b, positive);
                cmk_and(vec![fc, fb])
            };
            cmk_or(vec![ca, cb])
        }
        _ => CF::Lit(CLit { term: t, positive }),
    }
}

// ---------------------------------------------------------------------------
// Affine mirror
// ---------------------------------------------------------------------------

/// A `(zext(var) + offset) mod 2^term_width`-shaped term.
#[derive(Clone, Copy, Debug)]
struct CAffine {
    var: VarId,
    var_width: Width,
    term_width: Width,
    offset: u64,
}

impl CAffine {
    fn inverse_image(&self, term_values: &ISet) -> ISet {
        let shifted = term_values.sub_const(self.offset);
        let mut out = ISet::empty(self.var_width);
        let max = self.var_width.max_unsigned();
        for &(lo, hi) in shifted.intervals() {
            if lo > max {
                continue;
            }
            out.union(&ISet::range(self.var_width, lo, hi.min(max)));
        }
        out
    }
}

fn caffine(pool: &TermPool, t: TermId, lookup: &dyn Fn(VarId) -> Option<u64>) -> Option<CAffine> {
    let node = pool.node(t);
    let w = node.width;
    let side_const = |s: TermId| pool.eval_with(s, lookup);
    match node.op {
        Op::Var(v) if lookup(v).is_none() => Some(CAffine {
            var: v,
            var_width: w,
            term_width: w,
            offset: 0,
        }),
        Op::Add => {
            let (a, b) = (node.args[0], node.args[1]);
            if let Some(c) = side_const(b) {
                let base = caffine(pool, a, lookup)?;
                Some(CAffine {
                    offset: w.truncate(base.offset.wrapping_add(c)),
                    ..base
                })
            } else if let Some(c) = side_const(a) {
                let base = caffine(pool, b, lookup)?;
                Some(CAffine {
                    offset: w.truncate(base.offset.wrapping_add(c)),
                    ..base
                })
            } else {
                None
            }
        }
        Op::Sub => {
            let (a, b) = (node.args[0], node.args[1]);
            let c = side_const(b)?;
            let base = caffine(pool, a, lookup)?;
            Some(CAffine {
                offset: w.truncate(base.offset.wrapping_sub(c)),
                ..base
            })
        }
        Op::BitXor => {
            let (a, b) = (node.args[0], node.args[1]);
            let (inner, c) = if let Some(c) = side_const(b) {
                (a, c)
            } else if let Some(c) = side_const(a) {
                (b, c)
            } else {
                return None;
            };
            if c != w.sign_bit() {
                return None;
            }
            let base = caffine(pool, inner, lookup)?;
            Some(CAffine {
                offset: w.truncate(base.offset.wrapping_add(c)),
                ..base
            })
        }
        Op::ZExt => {
            let inner = node.args[0];
            let v = pool.as_var(inner)?;
            if lookup(v).is_some() {
                return None;
            }
            Some(CAffine {
                var: v,
                var_width: pool.width(inner),
                term_width: w,
                offset: 0,
            })
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Domain state
// ---------------------------------------------------------------------------

/// Union-find over variable indices plus per-class interval domains. Always
/// an over-approximation of the solution set of the assertions replayed so
/// far, which is what makes early-accept-on-conflict sound.
#[derive(Clone, Debug, Default)]
struct CState {
    parent: HashMap<u32, u32>,
    dom: HashMap<u32, ISet>,
    /// Width per variable index (the checker cannot construct `VarId`s for
    /// class roots, so it records widths as variables are first seen).
    width: HashMap<u32, Width>,
}

/// Result of applying a derived refinement.
enum AppliedOut {
    Changed,
    Unchanged,
    /// The state became infeasible: the branch is refuted.
    Infeasible,
}

impl CState {
    fn ensure(&mut self, pool: &TermPool, v: VarId) {
        let idx = v.index() as u32;
        self.parent.entry(idx).or_insert(idx);
        self.width.entry(idx).or_insert(pool.var_info(v).width);
    }

    fn find(&self, idx: u32) -> u32 {
        let mut i = idx;
        while let Some(&p) = self.parent.get(&i) {
            if p == i {
                break;
            }
            i = p;
        }
        i
    }

    fn value_of(&self, v: VarId) -> Option<u64> {
        let root = self.find(v.index() as u32);
        self.dom.get(&root).and_then(ISet::as_singleton)
    }

    fn domain_of(&mut self, pool: &TermPool, v: VarId) -> ISet {
        self.ensure(pool, v);
        let root = self.find(v.index() as u32);
        match self.dom.get(&root) {
            Some(d) => d.clone(),
            None => ISet::full(self.width[&root]),
        }
    }

    fn restrict(&mut self, pool: &TermPool, v: VarId, set: &ISet) -> Result<AppliedOut, String> {
        self.ensure(pool, v);
        let root = self.find(v.index() as u32);
        let width = self.width[&root];
        if set.width() != width {
            return Err(format!(
                "restrict width mismatch: class {width:?} vs set {:?}",
                set.width()
            ));
        }
        let mut d = match self.dom.get(&root) {
            Some(d) => d.clone(),
            None => ISet::full(width),
        };
        let before = d.clone();
        d.intersect(set);
        if d.is_empty() {
            return Ok(AppliedOut::Infeasible);
        }
        let changed = d != before;
        self.dom.insert(root, d);
        Ok(if changed {
            AppliedOut::Changed
        } else {
            AppliedOut::Unchanged
        })
    }

    fn merge(&mut self, pool: &TermPool, a: VarId, b: VarId) -> AppliedOut {
        self.ensure(pool, a);
        self.ensure(pool, b);
        let ra = self.find(a.index() as u32);
        let rb = self.find(b.index() as u32);
        if ra == rb {
            return AppliedOut::Unchanged;
        }
        let (wa, wb) = (self.width[&ra], self.width[&rb]);
        if wa != wb {
            // An equality over mismatched widths has no solutions.
            return AppliedOut::Infeasible;
        }
        let da = self.dom.remove(&ra).unwrap_or_else(|| ISet::full(wa));
        let db = self.dom.remove(&rb).unwrap_or_else(|| ISet::full(wb));
        let mut d = da;
        d.intersect(&db);
        if d.is_empty() {
            return AppliedOut::Infeasible;
        }
        self.parent.insert(rb, ra);
        self.dom.insert(ra, d);
        AppliedOut::Changed
    }
}

// ---------------------------------------------------------------------------
// Dispatch mirror
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum CmpKind {
    Eq,
    Ult,
    Ule,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum SidePos {
    Left,
    Right,
}

/// What asserting a literal derives in the current state, mirroring the
/// solver's propagation dispatch decision-for-decision.
enum Outcome {
    /// Fully evaluable and already holds.
    True,
    /// Fully evaluable with the wrong polarity: the state is infeasible.
    False,
    /// Would intersect the class of `var` with the set.
    Restrict(VarId, ISet),
    /// Immediately contradictory (empty inverse image): infeasible,
    /// attributed to `var`.
    Conflict(VarId),
    /// Would merge the two classes.
    Merge(VarId, VarId),
    /// Not derivable by interval reasoning in this state.
    Deferred,
}

fn dispatch(pool: &TermPool, state: &CState, lit: CLit) -> Outcome {
    if let Some(v) = pool.eval_with(lit.term, &|v| state.value_of(v)) {
        return if (v != 0) == lit.positive {
            Outcome::True
        } else {
            Outcome::False
        };
    }
    let node = pool.node(lit.term).clone();
    match node.op {
        Op::Var(v) if node.width == Width::BOOL => {
            let want = u64::from(lit.positive);
            Outcome::Restrict(v, ISet::singleton(Width::BOOL, want))
        }
        Op::Eq => dispatch_cmp(pool, state, lit, CmpKind::Eq, node.args[0], node.args[1]),
        Op::Ult => dispatch_cmp(pool, state, lit, CmpKind::Ult, node.args[0], node.args[1]),
        Op::Ule => dispatch_cmp(pool, state, lit, CmpKind::Ule, node.args[0], node.args[1]),
        _ => Outcome::Deferred,
    }
}

fn dispatch_cmp(
    pool: &TermPool,
    state: &CState,
    lit: CLit,
    kind: CmpKind,
    a: TermId,
    b: TermId,
) -> Outcome {
    let lookup = |v: VarId| state.value_of(v);
    let ca = pool.eval_with(a, &lookup);
    let cb = pool.eval_with(b, &lookup);
    let va = caffine(pool, a, &lookup);
    let vb = caffine(pool, b, &lookup);
    let width = pool.width(a);

    match (ca, cb, va, vb) {
        (_, Some(c), Some(av), _) => {
            restrict_affine(av, kind, SidePos::Left, c, width, lit.positive)
        }
        (Some(c), _, _, Some(bv)) => {
            restrict_affine(bv, kind, SidePos::Right, c, width, lit.positive)
        }
        (None, None, Some(av), Some(bv))
            if kind == CmpKind::Eq
                && lit.positive
                && av.offset == bv.offset
                && av.var_width == bv.var_width
                && av.var_width == av.term_width
                && bv.var_width == bv.term_width =>
        {
            Outcome::Merge(av.var, bv.var)
        }
        (_, Some(c), None, _) => try_extract(pool, a, kind, SidePos::Left, c, lit.positive),
        (Some(c), _, _, None) => try_extract(pool, b, kind, SidePos::Right, c, lit.positive),
        _ => Outcome::Deferred,
    }
}

fn restrict_affine(
    av: CAffine,
    kind: CmpKind,
    side: SidePos,
    c: u64,
    width: Width,
    positive: bool,
) -> Outcome {
    let term_values = match (kind, side, positive) {
        (CmpKind::Eq, _, true) => ISet::singleton(width, c),
        (CmpKind::Eq, _, false) => {
            let mut s = ISet::full(width);
            s.remove_value(c);
            s
        }
        (CmpKind::Ult, SidePos::Left, _) => {
            if c == 0 {
                return Outcome::Conflict(av.var);
            }
            ISet::range(width, 0, c - 1)
        }
        (CmpKind::Ult, SidePos::Right, _) => {
            if c == width.max_unsigned() {
                return Outcome::Conflict(av.var);
            }
            ISet::range(width, c + 1, width.max_unsigned())
        }
        (CmpKind::Ule, SidePos::Left, _) => ISet::range(width, 0, c),
        (CmpKind::Ule, SidePos::Right, _) => ISet::range(width, c, width.max_unsigned()),
    };
    let var_values = av.inverse_image(&term_values);
    if var_values.is_empty() {
        return Outcome::Conflict(av.var);
    }
    Outcome::Restrict(av.var, var_values)
}

fn try_extract(
    pool: &TermPool,
    term: TermId,
    kind: CmpKind,
    side: SidePos,
    c: u64,
    positive: bool,
) -> Outcome {
    let node = pool.node(term).clone();
    let Op::Extract { lo } = node.op else {
        return Outcome::Deferred;
    };
    let Some(var) = pool.as_var(node.args[0]) else {
        return Outcome::Deferred;
    };
    let ew = node.width;
    let vw = pool.width(node.args[0]);
    let high_bits = vw.bits() - u32::from(lo) - ew.bits();

    let slice_values = match (kind, side, positive) {
        (CmpKind::Eq, _, true) => ISet::singleton(ew, c),
        (CmpKind::Eq, _, false) => {
            let mut s = ISet::full(ew);
            s.remove_value(c);
            s
        }
        (CmpKind::Ult, SidePos::Left, _) => {
            if c == 0 {
                return Outcome::Conflict(var);
            }
            ISet::range(ew, 0, c - 1)
        }
        (CmpKind::Ult, SidePos::Right, _) => {
            if c >= ew.max_unsigned() {
                return Outcome::Conflict(var);
            }
            ISet::range(ew, c + 1, ew.max_unsigned())
        }
        (CmpKind::Ule, SidePos::Left, _) => ISet::range(ew, 0, c),
        (CmpKind::Ule, SidePos::Right, _) => ISet::range(ew, c, ew.max_unsigned()),
    };
    const MAX_STRIPES: u64 = 4096;
    let high_count = if high_bits >= 63 {
        return Outcome::Deferred;
    } else {
        1u64 << high_bits
    };
    let stripe_count = match high_count.checked_mul(slice_values.intervals().len() as u64) {
        Some(n) => n,
        None => return Outcome::Deferred,
    };
    if stripe_count > MAX_STRIPES {
        return Outcome::Deferred;
    }

    let mut allowed = ISet::empty(vw);
    let slice_shift = u32::from(lo);
    let low_mask = (1u64 << slice_shift).wrapping_sub(1);
    for h in 0..high_count {
        let high = h << (slice_shift + ew.bits());
        for &(ivlo, ivhi) in slice_values.intervals() {
            let lo_bound = high | (ivlo << slice_shift);
            let hi_bound = high | (ivhi << slice_shift) | low_mask;
            allowed.union(&ISet::range(vw, lo_bound, hi_bound));
        }
    }
    if allowed.is_empty() {
        return Outcome::Conflict(var);
    }
    Outcome::Restrict(var, allowed)
}

// ---------------------------------------------------------------------------
// The checker
// ---------------------------------------------------------------------------

/// One context entry: an asserted literal or an open disjunction.
#[derive(Clone, Debug)]
enum CEntry {
    Lit(CLit),
    Or(Vec<CF>),
}

struct Checker<'p> {
    pool: &'p mut TermPool,
    ctx: Vec<CEntry>,
    core: Vec<TermId>,
}

/// Outcome of checking one proof node in one state.
type NodeResult = Result<(), String>;

impl Checker<'_> {
    /// Appends a formula's entries to the context, in structural order.
    fn push_formula(&mut self, f: &CF) {
        match f {
            CF::True | CF::False => {}
            CF::Lit(l) => self.ctx.push(CEntry::Lit(*l)),
            CF::And(parts) => {
                for p in parts {
                    self.push_formula(p);
                }
            }
            CF::Or(parts) => self.ctx.push(CEntry::Or(parts.clone())),
        }
    }

    fn lit_at(&self, just: u32) -> Result<CLit, String> {
        match self.ctx.get(just as usize) {
            Some(CEntry::Lit(l)) => Ok(*l),
            Some(CEntry::Or(_)) => Err(format!("ref {just} is a disjunction, literal expected")),
            None => Err(format!(
                "ref {just} out of context (len {})",
                self.ctx.len()
            )),
        }
    }

    /// Replays one derivation step. `Ok(true)` means the state became
    /// infeasible (the branch is refuted, enclosing node accepted early).
    fn apply_proof_step(&mut self, state: &mut CState, step: &ProofStep) -> Result<bool, String> {
        match step {
            ProofStep::Restrict { just, var } => {
                let lit = self.lit_at(*just)?;
                match dispatch(self.pool, state, lit) {
                    Outcome::True => Err(format!(
                        "step at ref {just} claims a restriction, literal already holds"
                    )),
                    Outcome::False => Ok(true),
                    Outcome::Conflict(_) => Ok(true),
                    Outcome::Restrict(v, set) => {
                        if self.pool.var_fp(v) != *var {
                            return Err(format!(
                                "step at ref {just} restricts a different variable"
                            ));
                        }
                        match state.restrict(self.pool, v, &set)? {
                            AppliedOut::Infeasible => Ok(true),
                            AppliedOut::Changed => Ok(false),
                            AppliedOut::Unchanged => Err(format!(
                                "step at ref {just} claims a restriction that changes nothing"
                            )),
                        }
                    }
                    Outcome::Merge(..) => Err(format!(
                        "step at ref {just} claims a restriction, derived a merge"
                    )),
                    Outcome::Deferred => Err(format!(
                        "step at ref {just} is not derivable by interval reasoning"
                    )),
                }
            }
            ProofStep::Merge { just } => {
                let lit = self.lit_at(*just)?;
                match dispatch(self.pool, state, lit) {
                    Outcome::Merge(a, b) => match state.merge(self.pool, a, b) {
                        AppliedOut::Infeasible => Ok(true),
                        AppliedOut::Changed => Ok(false),
                        AppliedOut::Unchanged => {
                            Err(format!("merge at ref {just} joins an already-merged class"))
                        }
                    },
                    Outcome::False => Ok(true),
                    Outcome::Conflict(_) => Ok(true),
                    _ => Err(format!("ref {just} does not derive a class merge")),
                }
            }
        }
    }

    fn check_node(&mut self, state: &mut CState, node: &ProofNode) -> NodeResult {
        match node {
            ProofNode::Derive { steps, then } => {
                for step in steps {
                    if self.apply_proof_step(state, step)? {
                        // Infeasible already: refuted, rest of the node moot.
                        return Ok(());
                    }
                }
                self.check_node(state, then)
            }
            ProofNode::SplitOr { or, cases } => {
                let parts = match self.ctx.get(*or as usize) {
                    Some(CEntry::Or(parts)) => parts.clone(),
                    Some(CEntry::Lit(_)) => {
                        return Err(format!("ref {or} is a literal, disjunction expected"))
                    }
                    None => {
                        return Err(format!("ref {or} out of context (len {})", self.ctx.len()))
                    }
                };
                if parts.len() != cases.len() {
                    return Err(format!(
                        "split at ref {or} covers {} of {} disjuncts",
                        cases.len(),
                        parts.len()
                    ));
                }
                for (part, case) in parts.iter().zip(cases) {
                    let save = self.ctx.len();
                    self.push_formula(part);
                    let mut branch = state.clone();
                    let r = self.check_node(&mut branch, case);
                    self.ctx.truncate(save);
                    r?;
                }
                Ok(())
            }
            ProofNode::SplitVal { var, cases } => {
                let v = self
                    .pool
                    .var_by_fp(*var)
                    .ok_or_else(|| "enumerated variable unknown to the pool".to_string())?;
                let domain = state.domain_of(self.pool, v);
                if domain.len() > MAX_ENUM {
                    return Err(format!(
                        "enumeration of {} values exceeds the checker cap",
                        domain.len()
                    ));
                }
                let values: Vec<u64> = domain.values().collect();
                if values.len() != cases.len() {
                    return Err(format!(
                        "enumeration covers {} of {} domain values",
                        cases.len(),
                        values.len()
                    ));
                }
                let width = domain.width();
                for (&value, case) in values.iter().zip(cases) {
                    let mut branch = state.clone();
                    let single = ISet::singleton(width, value);
                    match branch.restrict(self.pool, v, &single)? {
                        AppliedOut::Infeasible => continue, // value impossible: vacuous case
                        AppliedOut::Changed | AppliedOut::Unchanged => {}
                    }
                    self.check_node(&mut branch, case)?;
                }
                Ok(())
            }
            ProofNode::Falsified { just } => {
                let lit = self.lit_at(*just)?;
                match dispatch(self.pool, state, lit) {
                    Outcome::False => Ok(()),
                    Outcome::Conflict(_) => Ok(()),
                    _ => Err(format!(
                        "literal at ref {just} is not falsified by the pinned values"
                    )),
                }
            }
            ProofNode::EmptyRestrict { just, var } => {
                let lit = self.lit_at(*just)?;
                match dispatch(self.pool, state, lit) {
                    Outcome::False => Ok(()),
                    Outcome::Conflict(v) | Outcome::Restrict(v, _)
                        if self.pool.var_fp(v) != *var =>
                    {
                        Err(format!("conflict at ref {just} names a different variable"))
                    }
                    Outcome::Conflict(_) => Ok(()),
                    Outcome::Restrict(v, set) => match state.restrict(self.pool, v, &set)? {
                        AppliedOut::Infeasible => Ok(()),
                        _ => Err(format!(
                            "restriction at ref {just} does not empty the domain"
                        )),
                    },
                    _ => Err(format!("ref {just} does not derive a conflict")),
                }
            }
            ProofNode::EmptyMerge { just } => {
                let lit = self.lit_at(*just)?;
                match dispatch(self.pool, state, lit) {
                    Outcome::Merge(a, b) => match state.merge(self.pool, a, b) {
                        AppliedOut::Infeasible => Ok(()),
                        _ => Err(format!(
                            "merge at ref {just} does not empty the intersection"
                        )),
                    },
                    Outcome::False => Ok(()),
                    Outcome::Conflict(_) => Ok(()),
                    _ => Err(format!("ref {just} does not derive a class merge")),
                }
            }
            ProofNode::FalseCore { core } => {
                let Some(&t) = self.core.get(*core as usize) else {
                    return Err(format!("core index {core} out of range"));
                };
                match cnnf(self.pool, t, true) {
                    CF::False => Ok(()),
                    _ => Err(format!("core assertion {core} does not normalize to false")),
                }
            }
            ProofNode::Admitted => {
                Err("certificate contains an admitted (unjustified) claim".into())
            }
        }
    }
}

/// Validates `cert` as a refutation of (a subset of) `assertions`.
///
/// Every fingerprint in the certificate's core must resolve to one of
/// `assertions` — that is the entire containment check, and it is what makes
/// the same certificate valid for any superset of its core. The proof tree
/// is then replayed on the checker's own negation-normal form, interval
/// domains, and propagation dispatch; any mismatch is an `Err` describing
/// the first rejected node.
///
/// # Examples
///
/// ```
/// use achilles_solver::{Solver, TermPool, Width};
///
/// let mut pool = TermPool::new();
/// let mut solver = Solver::new();
/// let x = pool.fresh("x", Width::W8);
/// let c5 = pool.constant(5, Width::W8);
/// let lt = pool.ult(x, c5);
/// let gt = pool.ult(c5, x);
/// let result = solver.check(&mut pool, &[lt, gt]);
/// let cert = result.certificate().expect("x<5 ∧ 5<x is unsat");
/// achilles_proofcheck::check(&mut pool, &[lt, gt], cert).expect("certificate valid");
/// ```
pub fn check(pool: &mut TermPool, assertions: &[TermId], cert: &Certificate) -> Result<(), String> {
    // Resolve the core against the asserted set: a fingerprint not present
    // means this certificate does not refute THIS query.
    let by_fp: HashMap<u128, TermId> = assertions.iter().map(|&t| (pool.term_fp(t), t)).collect();
    let mut core = Vec::with_capacity(cert.core.len());
    for (k, fp) in cert.core.iter().enumerate() {
        match by_fp.get(fp) {
            Some(&t) => core.push(t),
            None => {
                return Err(format!(
                    "core assertion {k} is not among the query assertions"
                ))
            }
        }
    }

    let mut checker = Checker {
        pool,
        ctx: Vec::new(),
        core: core.clone(),
    };
    let mut pending_lits: Vec<CF> = Vec::with_capacity(core.len());
    for &t in &core {
        let f = cnnf(checker.pool, t, true);
        if matches!(f, CF::False) {
            // A core assertion that normalizes to `false` refutes the
            // conjunction on its own; nothing further to validate.
            return Ok(());
        }
        pending_lits.push(f);
    }
    for f in &pending_lits {
        checker.push_formula(f);
    }
    let mut state = CState::default();
    checker.check_node(&mut state, &cert.proof)
}

/// Installs this crate's [`check`] as the solver's process-wide proof-audit
/// hook: every freshly computed or subsumption-derived `Unsat` verdict is
/// validated on the spot (a rejection makes the solver panic).
pub fn install_audit() {
    set_proof_audit(Some(Arc::new(
        |pool: &mut TermPool, assertions: &[TermId], cert: &Certificate| {
            check(pool, assertions, cert)
        },
    )));
}

/// Installs the audit hook iff [`CHECK_PROOFS_ENV`] is set to `1` or `true`
/// (checked once per process). Returns whether the hook is installed.
pub fn install_audit_from_env() -> bool {
    static DONE: OnceLock<bool> = OnceLock::new();
    *DONE.get_or_init(|| {
        let on = std::env::var(CHECK_PROOFS_ENV)
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false);
        if on {
            install_audit();
        }
        on
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use achilles_solver::{SatResult, Solver, Width};

    fn certified_unsat(pool: &mut TermPool, assertions: &[TermId]) -> Arc<Certificate> {
        let mut solver = Solver::new();
        match solver.check(pool, assertions) {
            SatResult::Unsat(c) => c,
            other => panic!("expected unsat, got {other:?}"),
        }
    }

    #[test]
    fn validates_interval_conflict() {
        let mut pool = TermPool::new();
        let x = pool.fresh("x", Width::W8);
        let c5 = pool.constant(5, Width::W8);
        let lt = pool.ult(x, c5);
        let gt = pool.ult(c5, x);
        let cert = certified_unsat(&mut pool, &[lt, gt]);
        check(&mut pool, &[lt, gt], &cert).expect("valid certificate");
    }

    #[test]
    fn validates_against_superset_of_core() {
        let mut pool = TermPool::new();
        let x = pool.fresh("x", Width::W8);
        let y = pool.fresh("y", Width::W8);
        let c5 = pool.constant(5, Width::W8);
        let lt = pool.ult(x, c5);
        let gt = pool.ult(c5, x);
        let cert = certified_unsat(&mut pool, &[lt, gt]);
        // The same certificate refutes any superset of its core.
        let extra = pool.ult(y, c5);
        check(&mut pool, &[extra, lt, gt], &cert).expect("superset still refuted");
    }

    #[test]
    fn rejects_core_not_in_query() {
        let mut pool = TermPool::new();
        let x = pool.fresh("x", Width::W8);
        let c5 = pool.constant(5, Width::W8);
        let lt = pool.ult(x, c5);
        let gt = pool.ult(c5, x);
        let cert = certified_unsat(&mut pool, &[lt, gt]);
        // Dropping a core member from the query must reject.
        assert!(check(&mut pool, &[lt], &cert).is_err());
    }

    #[test]
    fn rejects_admitted_claims() {
        let mut pool = TermPool::new();
        let x = pool.fresh("x", Width::W8);
        let c5 = pool.constant(5, Width::W8);
        let lt = pool.ult(x, c5);
        let gt = pool.ult(c5, x);
        let cert = certified_unsat(&mut pool, &[lt, gt]);
        let tampered = Certificate {
            core: cert.core.clone(),
            proof: ProofNode::Admitted,
            steps: 1,
        };
        assert!(check(&mut pool, &[lt, gt], &tampered).is_err());
    }

    #[test]
    fn validates_clause_split_refutation() {
        let mut pool = TermPool::new();
        let x = pool.fresh("x", Width::W8);
        let c3 = pool.constant(3, Width::W8);
        let c7 = pool.constant(7, Width::W8);
        let e3 = pool.eq(x, c3);
        let e7 = pool.eq(x, c7);
        let either = pool.or(e3, e7);
        let c10 = pool.constant(10, Width::W8);
        let gt10 = pool.ult(c10, x);
        let cert = certified_unsat(&mut pool, &[either, gt10]);
        check(&mut pool, &[either, gt10], &cert).expect("split certificate valid");
    }

    #[test]
    fn validates_enumeration_refutation() {
        let mut pool = TermPool::new();
        // An opaque parity function keeps the atom deferred, forcing value
        // enumeration over a small domain.
        let parity = pool.register_fun("parity", Width::W8, |args: &[u64]| args[0] & 1);
        let x = pool.fresh("x", Width::W8);
        let c4 = pool.constant(4, Width::W8);
        let small = pool.ult(x, c4); // x in 0..=3
        let px = pool.apply(parity, vec![x]);
        let c2 = pool.constant(2, Width::W8);
        let impossible = pool.eq(px, c2); // parity is 0 or 1, never 2
        let cert = certified_unsat(&mut pool, &[small, impossible]);
        check(&mut pool, &[small, impossible], &cert).expect("enumeration certificate valid");
    }

    #[test]
    fn rejects_truncated_enumeration() {
        let mut pool = TermPool::new();
        let parity = pool.register_fun("parity", Width::W8, |args: &[u64]| args[0] & 1);
        let x = pool.fresh("x", Width::W8);
        let c4 = pool.constant(4, Width::W8);
        let small = pool.ult(x, c4);
        let px = pool.apply(parity, vec![x]);
        let c2 = pool.constant(2, Width::W8);
        let impossible = pool.eq(px, c2);
        let cert = certified_unsat(&mut pool, &[small, impossible]);
        // Drop one enumeration case somewhere in the tree: must reject.
        fn truncate_split(node: &ProofNode) -> Option<ProofNode> {
            match node {
                ProofNode::SplitVal { var, cases } if cases.len() > 1 => {
                    Some(ProofNode::SplitVal {
                        var: *var,
                        cases: cases[..cases.len() - 1].to_vec(),
                    })
                }
                ProofNode::Derive { steps, then } => {
                    truncate_split(then).map(|t| ProofNode::Derive {
                        steps: steps.clone(),
                        then: Box::new(t),
                    })
                }
                ProofNode::SplitOr { or, cases } => {
                    for (i, c) in cases.iter().enumerate() {
                        if let Some(t) = truncate_split(c) {
                            let mut cases = cases.clone();
                            cases[i] = t;
                            return Some(ProofNode::SplitOr { or: *or, cases });
                        }
                    }
                    None
                }
                _ => None,
            }
        }
        let tampered = Certificate {
            core: cert.core.clone(),
            proof: truncate_split(&cert.proof).expect("certificate contains an enumeration"),
            steps: cert.steps,
        };
        assert!(check(&mut pool, &[small, impossible], &tampered).is_err());
    }

    #[test]
    fn validates_false_core() {
        let mut pool = TermPool::new();
        let x = pool.fresh("x", Width::W8);
        let ltx = pool.ult(x, x); // folds to false
        let cert = certified_unsat(&mut pool, &[ltx]);
        check(&mut pool, &[ltx], &cert).expect("false-core certificate valid");
    }

    #[test]
    fn validates_merge_refutation() {
        let mut pool = TermPool::new();
        let x = pool.fresh("x", Width::W8);
        let y = pool.fresh("y", Width::W8);
        let eq = pool.eq(x, y);
        let c5 = pool.constant(5, Width::W8);
        let c9 = pool.constant(9, Width::W8);
        let x5 = pool.eq(x, c5);
        let y9 = pool.eq(y, c9);
        let cert = certified_unsat(&mut pool, &[eq, x5, y9]);
        check(&mut pool, &[eq, x5, y9], &cert).expect("merge certificate valid");
    }

    #[test]
    fn env_install_is_sticky_per_process() {
        // Not set in the test environment: must not install.
        assert!(!install_audit_from_env() || std::env::var(CHECK_PROOFS_ENV).is_ok());
    }
}
