//! Formula normalization (negation normal form) and affine term views.
//!
//! The search engine does not operate on raw boolean terms. Each asserted
//! term is first converted to a [`Formula`] tree in negation normal form:
//! negation is pushed down to the leaves, `not <u` / `not <=u` are rewritten
//! to their dual comparisons, and boolean `ite` is expanded. The leaves are
//! *literals*: a comparison or boolean term asserted positively or
//! negatively.
//!
//! [`affine_view`] recognizes terms of the shape `zext(var) + constant`
//! (modulo the term width), which is the fragment the interval propagator can
//! invert exactly.

use crate::interval::IntervalSet;
use crate::term::{Op, TermId, TermPool, VarId};
use crate::width::Width;

/// A formula in negation normal form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Formula {
    /// Trivially true.
    True,
    /// Trivially false.
    False,
    /// The boolean term holds.
    Lit(Literal),
    /// All sub-formulas hold.
    And(Vec<Formula>),
    /// At least one sub-formula holds.
    Or(Vec<Formula>),
}

/// A possibly negated boolean term.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Literal {
    /// The boolean term.
    pub term: TermId,
    /// `true` to assert the term, `false` to assert its negation.
    pub positive: bool,
}

impl Literal {
    /// A positive literal.
    pub fn pos(term: TermId) -> Literal {
        Literal {
            term,
            positive: true,
        }
    }

    /// A negative literal.
    pub fn neg(term: TermId) -> Literal {
        Literal {
            term,
            positive: false,
        }
    }

    /// The same literal with flipped polarity.
    pub fn flipped(self) -> Literal {
        Literal {
            term: self.term,
            positive: !self.positive,
        }
    }
}

/// Converts a boolean term to negation normal form.
///
/// `positive == false` converts the *negation* of `t`.
///
/// # Examples
///
/// ```
/// use achilles_solver::{TermPool, Width, nnf, Formula};
///
/// let mut pool = TermPool::new();
/// let x = pool.fresh("x", Width::W8);
/// let c = pool.constant(5, Width::W8);
/// let lt = pool.ult(x, c);
/// let f = nnf(&mut pool, lt, false); // not (x < 5)  =>  5 <= x
/// assert!(matches!(f, Formula::Lit(_)));
/// ```
pub fn nnf(pool: &mut TermPool, t: TermId, positive: bool) -> Formula {
    debug_assert_eq!(pool.width(t), Width::BOOL, "nnf needs a boolean term");
    let node = pool.node(t);
    let (op, width) = (node.op, node.width);
    // Connectives and comparisons have at most three operands. Copy them
    // out, so the recursion below can take the pool mutably.
    let mut args = [t; 3];
    for (slot, &a) in args.iter_mut().zip(&node.args) {
        *slot = a;
    }
    match op {
        Op::Const(v) => {
            if (v != 0) == positive {
                Formula::True
            } else {
                Formula::False
            }
        }
        Op::Not => nnf(pool, args[0], !positive),
        Op::And => {
            let parts = vec![nnf(pool, args[0], positive), nnf(pool, args[1], positive)];
            if positive {
                mk_and(parts)
            } else {
                mk_or(parts)
            }
        }
        Op::Or => {
            let parts = vec![nnf(pool, args[0], positive), nnf(pool, args[1], positive)];
            if positive {
                mk_or(parts)
            } else {
                mk_and(parts)
            }
        }
        Op::Ult => {
            if positive {
                Formula::Lit(Literal::pos(t))
            } else {
                // not (a <u b)  =>  b <=u a
                let dual = pool.ule(args[1], args[0]);
                nnf(pool, dual, true)
            }
        }
        Op::Ule => {
            if positive {
                Formula::Lit(Literal::pos(t))
            } else {
                // not (a <=u b)  =>  b <u a
                let dual = pool.ult(args[1], args[0]);
                nnf(pool, dual, true)
            }
        }
        Op::Ite if width == Width::BOOL => {
            // ite(c, a, b)  =>  (c and a) or (not c and b)
            let [c, a, b] = args;
            let ca = nnf_pair(pool, c, true, a, positive);
            let cb = nnf_pair(pool, c, false, b, positive);
            mk_or(vec![ca, cb])
        }
        _ => Formula::Lit(Literal { term: t, positive }),
    }
}

fn nnf_pair(pool: &mut TermPool, c: TermId, cpos: bool, x: TermId, xpos: bool) -> Formula {
    let fc = nnf(pool, c, cpos);
    let fx = nnf(pool, x, xpos);
    mk_and(vec![fc, fx])
}

fn mk_and(parts: Vec<Formula>) -> Formula {
    let mut out = Vec::with_capacity(parts.len());
    for p in parts {
        match p {
            Formula::True => {}
            Formula::False => return Formula::False,
            Formula::And(inner) => out.extend(inner),
            other => out.push(other),
        }
    }
    match out.len() {
        0 => Formula::True,
        1 => out.pop().expect("len checked"),
        _ => Formula::And(out),
    }
}

fn mk_or(parts: Vec<Formula>) -> Formula {
    let mut out = Vec::with_capacity(parts.len());
    for p in parts {
        match p {
            Formula::False => {}
            Formula::True => return Formula::True,
            Formula::Or(inner) => out.extend(inner),
            other => out.push(other),
        }
    }
    match out.len() {
        0 => Formula::False,
        1 => out.pop().expect("len checked"),
        _ => Formula::Or(out),
    }
}

/// A term of the shape `(zext(var) + offset) mod 2^term_width`.
///
/// The propagator can invert this map exactly: the inverse image of an
/// interval set `S` is `(S - offset) ∩ [0, 2^var_width - 1]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AffineView {
    /// The underlying variable.
    pub var: VarId,
    /// Width of the variable.
    pub var_width: Width,
    /// Width of the whole term (`>= var_width`).
    pub term_width: Width,
    /// Constant offset, truncated to `term_width`.
    pub offset: u64,
}

impl AffineView {
    /// Inverse image of a set of term values as a set of variable values.
    pub fn inverse_image(&self, term_values: &IntervalSet) -> IntervalSet {
        debug_assert_eq!(term_values.width(), self.term_width);
        let shifted = term_values.sub_const(self.offset);
        // Keep only values representable at the variable width, then
        // reinterpret at that width.
        let mut out = IntervalSet::empty(self.var_width);
        let max = self.var_width.max_unsigned();
        for iv in shifted.intervals() {
            if iv.lo > max {
                continue;
            }
            let hi = iv.hi.min(max);
            let piece = IntervalSet::range(self.var_width, iv.lo, hi);
            out.union(&piece);
        }
        out
    }

    /// Forward image of a single variable value.
    pub fn apply(&self, var_value: u64) -> u64 {
        self.term_width
            .truncate(var_value.wrapping_add(self.offset))
    }
}

/// Recognizes `(zext(var) + constant)`-shaped terms.
///
/// Supported constructors: `Var`, `Add`/`Sub` with one constant side,
/// `ZExt` directly over a variable, and `BitXor` with the sign-bit constant
/// (equivalent to adding the sign bit).
pub fn affine_view(pool: &TermPool, t: TermId) -> Option<AffineView> {
    affine_view_with(pool, t, &|_| None)
}

/// Like [`affine_view`], but treats variables assigned by `lookup` as
/// constants, so e.g. `x + y` becomes affine in `y` once `x` is pinned.
pub fn affine_view_with(
    pool: &TermPool,
    t: TermId,
    lookup: &dyn Fn(VarId) -> Option<u64>,
) -> Option<AffineView> {
    let node = pool.node(t);
    let w = node.width;
    // A side whose variables are all pinned behaves as a constant; the
    // caller is expected to have handled the fully-constant case already.
    let side_const = |s: TermId| pool.eval_with(s, lookup);
    match node.op {
        Op::Var(v) if lookup(v).is_none() => Some(AffineView {
            var: v,
            var_width: w,
            term_width: w,
            offset: 0,
        }),
        Op::Add => {
            let (a, b) = (node.args[0], node.args[1]);
            if let Some(c) = side_const(b) {
                let base = affine_view_with(pool, a, lookup)?;
                Some(AffineView {
                    offset: w.truncate(base.offset.wrapping_add(c)),
                    ..base
                })
            } else if let Some(c) = side_const(a) {
                let base = affine_view_with(pool, b, lookup)?;
                Some(AffineView {
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
            let base = affine_view_with(pool, a, lookup)?;
            Some(AffineView {
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
            // Flipping only the sign bit equals adding it (mod 2^w).
            if c != w.sign_bit() {
                return None;
            }
            let base = affine_view_with(pool, inner, lookup)?;
            Some(AffineView {
                offset: w.truncate(base.offset.wrapping_add(c)),
                ..base
            })
        }
        Op::ZExt => {
            // Only zext directly over a variable: zext(x + c) != zext(x) + c.
            let inner = node.args[0];
            let v = pool.as_var(inner)?;
            if lookup(v).is_some() {
                return None;
            }
            Some(AffineView {
                var: v,
                var_width: pool.width(inner),
                term_width: w,
                offset: 0,
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nnf_pushes_negation_through_and() {
        let mut p = TermPool::new();
        let x = p.fresh("x", Width::W8);
        let y = p.fresh("y", Width::W8);
        let five = p.constant(5, Width::W8);
        let a = p.ult(x, five);
        let b = p.eq(y, five);
        let both = p.and(a, b);
        let f = nnf(&mut p, both, false);
        // not (x<5 and y==5) => (5<=x) or (y!=5)
        match f {
            Formula::Or(parts) => {
                assert_eq!(parts.len(), 2);
                let has_dual_cmp = parts.iter().any(|q| match q {
                    Formula::Lit(l) => l.positive && matches!(p.node(l.term).op, Op::Ule),
                    _ => false,
                });
                let has_neg_eq = parts.iter().any(|q| match q {
                    Formula::Lit(l) => !l.positive && matches!(p.node(l.term).op, Op::Eq),
                    _ => false,
                });
                assert!(has_dual_cmp && has_neg_eq);
            }
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn nnf_constants_collapse() {
        let mut p = TermPool::new();
        let t = p.tt();
        assert_eq!(nnf(&mut p, t, true), Formula::True);
        assert_eq!(nnf(&mut p, t, false), Formula::False);
        let x = p.fresh("x", Width::BOOL);
        let tt = p.tt();
        let mix = p.and(x, tt);
        assert_eq!(mix, x); // simplification already dropped the constant
        assert!(matches!(nnf(&mut p, mix, true), Formula::Lit(_)));
    }

    #[test]
    fn nnf_flattens_nested_connectives() {
        let mut p = TermPool::new();
        let lits: Vec<TermId> = (0..4)
            .map(|i| p.fresh(&format!("b{i}"), Width::BOOL))
            .collect();
        let ab = p.and(lits[0], lits[1]);
        let abc = p.and(ab, lits[2]);
        let abcd = p.and(abc, lits[3]);
        match nnf(&mut p, abcd, true) {
            Formula::And(parts) => assert_eq!(parts.len(), 4),
            other => panic!("expected flat And, got {other:?}"),
        }
    }

    #[test]
    fn affine_view_of_var_and_offsets() {
        let mut p = TermPool::new();
        let xv = p.fresh_var("x", Width::W8);
        let x = p.var(xv);
        let c3 = p.constant(3, Width::W8);
        let t = p.add(x, c3);
        let av = affine_view(&p, t).unwrap();
        assert_eq!(av.var, xv);
        assert_eq!(av.offset, 3);
        let t2 = p.sub(t, c3);
        let av2 = affine_view(&p, t2).unwrap();
        assert_eq!((av2.var, av2.offset), (xv, 0)); // offsets cancel
        let c250 = p.constant(250, Width::W8);
        let t3 = p.add(t, c250);
        let av3 = affine_view(&p, t3).unwrap();
        assert_eq!(av3.offset, 253);
    }

    #[test]
    fn affine_view_through_zext() {
        let mut p = TermPool::new();
        let xv = p.fresh_var("x", Width::W8);
        let x = p.var(xv);
        let wide = p.zext(x, Width::W16);
        let c = p.constant(1000, Width::W16);
        let t = p.add(wide, c);
        let av = affine_view(&p, t).unwrap();
        assert_eq!(av.var_width, Width::W8);
        assert_eq!(av.term_width, Width::W16);
        assert_eq!(av.offset, 1000);
        assert_eq!(av.apply(255), 1255);
    }

    #[test]
    fn affine_view_rejects_var_plus_var() {
        let mut p = TermPool::new();
        let x = p.fresh("x", Width::W8);
        let y = p.fresh("y", Width::W8);
        let t = p.add(x, y);
        assert!(affine_view(&p, t).is_none());
    }

    #[test]
    fn affine_view_sign_bit_xor() {
        let mut p = TermPool::new();
        let xv = p.fresh_var("x", Width::W8);
        let x = p.var(xv);
        let bias = p.constant(0x80, Width::W8);
        let t = p.bit_xor(x, bias);
        let av = affine_view(&p, t).unwrap();
        assert_eq!(av.offset, 0x80);
        // Non-sign-bit xor is rejected.
        let other = p.constant(0x40, Width::W8);
        let t2 = p.bit_xor(x, other);
        assert!(affine_view(&p, t2).is_none());
    }

    #[test]
    fn inverse_image_clips_to_var_range() {
        let av = AffineView {
            var: VarId(0),
            var_width: Width::W8,
            term_width: Width::W16,
            offset: 1000,
        };
        // term in [1000, 1300]  =>  var in [0, 255] ∩ [0, 300] = [0, 255]
        let s = IntervalSet::range(Width::W16, 1000, 1300);
        let img = av.inverse_image(&s);
        assert_eq!((img.min(), img.max()), (Some(0), Some(255)));
        // term in [1300, 2000]  =>  var empty
        let s2 = IntervalSet::range(Width::W16, 1300, 2000);
        assert!(av.inverse_image(&s2).is_empty());
    }

    #[test]
    fn inverse_image_wrapping_offset() {
        let av = AffineView {
            var: VarId(0),
            var_width: Width::W8,
            term_width: Width::W8,
            offset: 200,
        };
        // term == 10  =>  var == (10 - 200) mod 256 = 66
        let s = IntervalSet::singleton(Width::W8, 10);
        let img = av.inverse_image(&s);
        assert_eq!(img.as_singleton(), Some(66));
        assert_eq!(av.apply(66), 10);
    }
}
