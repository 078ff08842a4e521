//! Property-based tests for the solver.
//!
//! The central property: for small widths the engine must agree with a
//! brute-force enumeration of all assignments — `Sat` models must satisfy
//! the query, and `Unsat` answers must have no satisfying assignment at all.
//! Two more pin bookkeeping that must never change an answer: the variable
//! lists the pool stores per node equal a walk of the term, and the shared
//! cache's signature filter returns the certificate a full scan would.

use achilles_solver::{
    solve, Certificate, IntervalSet, Op, ProofNode, SatResult, SharedCache, SolverConfig, TermId,
    TermPool, VarId, Width,
};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

const W4: Width = Width::W8; // variables are 8-bit but constants small

/// A tiny constraint AST we can both lower to terms and brute-force.
#[derive(Clone, Debug)]
enum C {
    EqConst(usize, u8),
    NeConst(usize, u8),
    LtConst(usize, u8),
    GtConst(usize, u8),
    SltConst(usize, i8),
    EqVar(usize, usize),
    AddEq(usize, u8, u8), // x + a == b
    Or(Box<C>, Box<C>),
    And(Box<C>, Box<C>),
}

fn lower(pool: &mut TermPool, vars: &[TermId], c: &C) -> TermId {
    match *c {
        C::EqConst(v, k) => {
            let kc = pool.constant(u64::from(k), W4);
            pool.eq(vars[v], kc)
        }
        C::NeConst(v, k) => {
            let kc = pool.constant(u64::from(k), W4);
            pool.ne(vars[v], kc)
        }
        C::LtConst(v, k) => {
            let kc = pool.constant(u64::from(k), W4);
            pool.ult(vars[v], kc)
        }
        C::GtConst(v, k) => {
            let kc = pool.constant(u64::from(k), W4);
            pool.ult(kc, vars[v])
        }
        C::SltConst(v, k) => {
            let kc = pool.constant_signed(i64::from(k), W4);
            pool.slt(vars[v], kc)
        }
        C::EqVar(a, b) => pool.eq(vars[a], vars[b]),
        C::AddEq(v, a, b) => {
            let ac = pool.constant(u64::from(a), W4);
            let bc = pool.constant(u64::from(b), W4);
            let sum = pool.add(vars[v], ac);
            pool.eq(sum, bc)
        }
        C::Or(ref l, ref r) => {
            let lt = lower(pool, vars, l);
            let rt = lower(pool, vars, r);
            pool.or(lt, rt)
        }
        C::And(ref l, ref r) => {
            let lt = lower(pool, vars, l);
            let rt = lower(pool, vars, r);
            pool.and(lt, rt)
        }
    }
}

fn holds(assign: &[u8], c: &C) -> bool {
    match *c {
        C::EqConst(v, k) => assign[v] == k,
        C::NeConst(v, k) => assign[v] != k,
        C::LtConst(v, k) => assign[v] < k,
        C::GtConst(v, k) => assign[v] > k,
        C::SltConst(v, k) => (assign[v] as i8) < k,
        C::EqVar(a, b) => assign[a] == assign[b],
        C::AddEq(v, a, b) => assign[v].wrapping_add(a) == b,
        C::Or(ref l, ref r) => holds(assign, l) || holds(assign, r),
        C::And(ref l, ref r) => holds(assign, l) && holds(assign, r),
    }
}

fn leaf(num_vars: usize) -> impl Strategy<Value = C> {
    let v = 0..num_vars;
    prop_oneof![
        (v.clone(), any::<u8>()).prop_map(|(v, k)| C::EqConst(v, k)),
        (v.clone(), any::<u8>()).prop_map(|(v, k)| C::NeConst(v, k)),
        (v.clone(), any::<u8>()).prop_map(|(v, k)| C::LtConst(v, k)),
        (v.clone(), any::<u8>()).prop_map(|(v, k)| C::GtConst(v, k)),
        (v.clone(), any::<i8>()).prop_map(|(v, k)| C::SltConst(v, k)),
        (v.clone(), v.clone()).prop_map(|(a, b)| C::EqVar(a, b)),
        (v, any::<u8>(), any::<u8>()).prop_map(|(v, a, b)| C::AddEq(v, a, b)),
    ]
}

fn constraint(num_vars: usize) -> impl Strategy<Value = C> {
    leaf(num_vars).prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| C::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| C::And(Box::new(a), Box::new(b))),
        ]
    })
}

/// Brute-force over two 8-bit variables (65k assignments).
fn brute_force_2(cs: &[C]) -> bool {
    for a in 0u16..=255 {
        for b in 0u16..=255 {
            let assign = [a as u8, b as u8];
            if cs.iter().all(|c| holds(&assign, c)) {
                return true;
            }
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn solver_agrees_with_brute_force(cs in prop::collection::vec(constraint(2), 1..5)) {
        let mut pool = TermPool::new();
        let x = pool.fresh("x", W4);
        let y = pool.fresh("y", W4);
        let vars = [x, y];
        let assertions: Vec<TermId> =
            cs.iter().map(|c| lower(&mut pool, &vars, c)).collect();
        let (result, _) = solve(&mut pool, &assertions, &SolverConfig::default());
        let expected = brute_force_2(&cs);
        match result {
            SatResult::Sat(model) => {
                prop_assert!(expected, "solver said Sat but brute force disagrees");
                for &a in &assertions {
                    // Unassigned variables (eliminated by simplification)
                    // default to zero, matching how the model was verified.
                    prop_assert!(model.eval_bool_total(&pool, a), "model violates assertion");
                }
            }
            SatResult::Unsat(_) => prop_assert!(!expected, "solver said Unsat but a model exists"),
            SatResult::Unknown => {
                // Unknown is allowed (sampling fallback) but should not occur
                // in this fully-enumerable fragment.
                prop_assert!(false, "unexpected Unknown on small-width query");
            }
        }
    }

    #[test]
    fn interval_set_ops_match_naive_sets(
        ranges in prop::collection::vec((any::<u8>(), any::<u8>()), 1..6),
        removals in prop::collection::vec(any::<u8>(), 0..8),
        shift in any::<u8>(),
    ) {
        let w = Width::W8;
        let mut set = IntervalSet::empty(w);
        let mut naive: BTreeSet<u8> = BTreeSet::new();
        for &(a, b) in &ranges {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            set.union(&IntervalSet::range(w, u64::from(lo), u64::from(hi)));
            naive.extend(lo..=hi);
        }
        for &r in &removals {
            set.remove_value(u64::from(r));
            naive.remove(&r);
        }
        prop_assert_eq!(set.len(), naive.len() as u64);
        for v in 0u16..=255 {
            prop_assert_eq!(set.contains(u64::from(v)), naive.contains(&(v as u8)));
        }
        // Wrapping shift matches naive wrapping shift.
        let shifted = set.add_const(u64::from(shift));
        let naive_shifted: BTreeSet<u8> = naive.iter().map(|&v| v.wrapping_add(shift)).collect();
        for v in 0u16..=255 {
            prop_assert_eq!(
                shifted.contains(u64::from(v)),
                naive_shifted.contains(&(v as u8)),
                "mismatch at {} after shift {}", v, shift
            );
        }
        // Complement is an involution and partitions the space.
        let comp = set.complement();
        prop_assert_eq!(comp.len() + set.len(), 256);
        prop_assert_eq!(comp.complement(), set);
    }

    #[test]
    fn models_respect_variable_widths(k in any::<u16>()) {
        let mut pool = TermPool::new();
        let x = pool.fresh("x", Width::W16);
        let kc = pool.constant(u64::from(k), Width::W16);
        let eq = pool.eq(x, kc);
        let (result, _) = solve(&mut pool, &[eq], &SolverConfig::default());
        let model = result.model().expect("x == k is sat");
        let xv: VarId = pool.as_var(x).unwrap();
        prop_assert_eq!(model.value(xv), Some(u64::from(k)));
    }
}

/// The variable walk `TermPool::collect_vars` is specified by, kept here as
/// the reference: a stack-based depth-first walk that pushes a node's
/// operands first to last (so visits them last to first), visits each term
/// once, and appends each variable `out` does not hold yet.
fn reference_collect_vars(pool: &TermPool, t: TermId, out: &mut Vec<VarId>) {
    let mut stack = vec![t];
    let mut seen_terms = HashSet::new();
    while let Some(id) = stack.pop() {
        if !seen_terms.insert(id) {
            continue;
        }
        let node = pool.node(id);
        if let Op::Var(v) = node.op {
            if !out.contains(&v) {
                out.push(v);
            }
        }
        stack.extend(node.args.iter().copied());
    }
}

/// Builds a random term DAG from a recipe: each step picks an operator and
/// up to four operands among the terms built so far (so subterms are
/// shared), over five 8-bit variables, two constants and three boolean
/// variables. Returns every term built.
fn build_terms(pool: &mut TermPool, recipe: &[(u8, u8, u8, u8, u8)]) -> Vec<TermId> {
    let mut bvs: Vec<TermId> = (0..5)
        .map(|i| pool.fresh(&format!("x{i}"), Width::W8))
        .collect();
    bvs.push(pool.constant(0, Width::W8));
    bvs.push(pool.constant(0x80, Width::W8));
    let mut bools: Vec<TermId> = (0..3)
        .map(|i| pool.fresh(&format!("b{i}"), Width::BOOL))
        .collect();
    let mix = pool.register_fun("mix4", Width::W8, |args| {
        args.iter().fold(7, |h, &a| h.wrapping_mul(31) ^ a)
    });
    for &(op, i, j, k, l) in recipe {
        let pick = |terms: &[TermId], at: u8| terms[usize::from(at) % terms.len()];
        let (a, b, c, d) = (pick(&bvs, i), pick(&bvs, j), pick(&bvs, k), pick(&bvs, l));
        let (p, q) = (pick(&bools, i), pick(&bools, j));
        match op % 16 {
            0 => bvs.push(pool.add(a, b)),
            1 => bvs.push(pool.sub(a, b)),
            2 => bvs.push(pool.mul(a, b)),
            3 => bvs.push(pool.bit_and(a, b)),
            4 => bvs.push(pool.bit_xor(a, b)),
            5 => bvs.push(pool.neg(a)),
            6 => bvs.push(pool.ite(p, a, b)),
            7 => bvs.push(pool.apply(mix, vec![a, b, c, d])),
            8 => {
                let hi = pool.extract(a, 4, Width::new(4));
                let lo = pool.extract(b, 0, Width::new(4));
                bvs.push(pool.concat(hi, lo));
            }
            9 => bools.push(pool.eq(a, b)),
            10 => bools.push(pool.ult(a, b)),
            11 => bools.push(pool.slt(a, b)),
            12 => bools.push(pool.and(p, q)),
            13 => bools.push(pool.or(p, q)),
            14 => bools.push(pool.not(p)),
            _ => bools.push(pool.ite(p, q, bools[usize::from(k) % bools.len()])),
        }
    }
    bvs.into_iter().chain(bools).collect()
}

/// Fingerprint `i` of a 24-member universe. `fp mod 64` is `i mod 8`, so
/// the members collide mod 64 in threes: the signature filter sees one bit
/// for three distinct fingerprints.
fn universe_fp(i: u8) -> u128 {
    (u128::from(i) << 70) | u128::from(i % 8)
}

fn sorted_fps(ids: &[u8]) -> Vec<u128> {
    let fps: BTreeSet<u128> = ids.iter().map(|&i| universe_fp(i % 24)).collect();
    fps.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn stored_var_lists_equal_the_reference_walk(
        recipe in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..40),
        prefix in prop::collection::vec(any::<u8>(), 0..4),
    ) {
        let mut pool = TermPool::new();
        let terms = build_terms(&mut pool, &recipe);
        let all_vars: Vec<VarId> = terms.iter().filter_map(|&t| pool.as_var(t)).collect();
        for &t in &terms {
            let mut expected = Vec::new();
            reference_collect_vars(&pool, t, &mut expected);
            prop_assert_eq!(pool.vars_of(t), expected);

            // Appending into a non-empty `out` keeps what is there and
            // skips the variables it already holds.
            let start: Vec<VarId> = prefix
                .iter()
                .map(|&i| all_vars[usize::from(i) % all_vars.len()])
                .collect();
            let mut expected = start.clone();
            reference_collect_vars(&pool, t, &mut expected);
            let mut got = start;
            pool.collect_vars(t, &mut got);
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn signature_filter_returns_the_full_scan_certificate(
        cores in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..5), 1..24),
        keys in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..10), 1..24),
    ) {
        let pool = TermPool::new();
        let cache = SharedCache::new();
        // The index keeps the first certificate per distinct core, filed
        // under the core's smallest fingerprint, in insertion order.
        let mut indexed: Vec<(Vec<u128>, u64)> = Vec::new();
        for (id, ids) in cores.iter().enumerate() {
            let core = sorted_fps(ids);
            let cert = Certificate { core: core.clone(), proof: ProofNode::Admitted, steps: id as u64 };
            cache.insert(&pool, core.clone().into_boxed_slice(), &SatResult::Unsat(Arc::new(cert)));
            if !indexed.iter().any(|(c, _)| *c == core) {
                indexed.push((core, id as u64));
            }
        }
        for ids in &keys {
            let key = sorted_fps(ids);
            // Full scan: probe each key fp in order, then every core filed
            // under it, and take the first core contained in the key.
            let expected = key.iter().find_map(|&fp| {
                indexed
                    .iter()
                    .filter(|(core, _)| core[0] == fp)
                    .find(|(core, _)| core.iter().all(|c| key.binary_search(c).is_ok()))
                    .map(|&(_, id)| id)
            });
            let got = cache.lookup_subsumed(&key).map(|cert| cert.steps);
            prop_assert_eq!(got, expected);
        }
    }
}
