//! Satisfying assignments produced by the solver.

use std::fmt;

use crate::hash::FastMap;
use crate::term::{TermId, TermPool, VarId};

/// A concrete assignment of values to symbolic variables.
///
/// Models are produced by the search engine for satisfiable queries and can
/// be used to evaluate arbitrary terms, in particular to *concretize* a
/// symbolic Trojan message into an injectable byte sequence.
///
/// # Examples
///
/// ```
/// use achilles_solver::{Model, TermPool, Width};
///
/// let mut pool = TermPool::new();
/// let x = pool.fresh_var("x", Width::W8);
/// let mut model = Model::new();
/// model.assign(x, 7);
/// let xt = pool.var(x);
/// let c = pool.constant(1, Width::W8);
/// let sum = pool.add(xt, c);
/// assert_eq!(model.eval(&pool, sum), Some(8));
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Model {
    values: FastMap<VarId, u64>,
}

impl Model {
    /// An empty model.
    pub fn new() -> Model {
        Model::default()
    }

    /// Sets the value of a variable (truncation is the caller's concern).
    pub fn assign(&mut self, var: VarId, value: u64) {
        self.values.insert(var, value);
    }

    /// The value of a variable, if assigned.
    pub fn value(&self, var: VarId) -> Option<u64> {
        self.values.get(&var).copied()
    }

    /// Number of assigned variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no variable is assigned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over `(variable, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, u64)> + '_ {
        self.values.iter().map(|(&v, &x)| (v, x))
    }

    /// Evaluates `term` under this model.
    ///
    /// Returns `None` if the term mentions an unassigned variable.
    pub fn eval(&self, pool: &TermPool, term: TermId) -> Option<u64> {
        pool.eval_with(term, &|v| self.value(v))
    }

    /// Evaluates a boolean term, defaulting unassigned variables to zero.
    ///
    /// Useful for checking whether a model found for one query also covers
    /// another predicate that mentions extra variables.
    pub fn eval_bool_total(&self, pool: &TermPool, term: TermId) -> bool {
        pool.eval_with(term, &|v| Some(self.value(v).unwrap_or(0))) == Some(1)
    }
}

impl fmt::Debug for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut entries: Vec<(VarId, u64)> = self.iter().collect();
        entries.sort_by_key(|(v, _)| *v);
        f.debug_map()
            .entries(entries.iter().map(|(v, x)| (v, x)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::width::Width;

    #[test]
    fn assign_and_eval() {
        let mut pool = TermPool::new();
        let x = pool.fresh_var("x", Width::W16);
        let y = pool.fresh_var("y", Width::W16);
        let mut m = Model::new();
        m.assign(x, 100);
        let xt = pool.var(x);
        let yt = pool.var(y);
        let s = pool.add(xt, yt);
        assert_eq!(m.eval(&pool, s), None);
        m.assign(y, 28);
        assert_eq!(m.eval(&pool, s), Some(128));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn total_eval_defaults_to_zero() {
        let mut pool = TermPool::new();
        let x = pool.fresh("x", Width::W8);
        let zero = pool.constant(0, Width::W8);
        let is_zero = pool.eq(x, zero);
        let m = Model::new();
        assert!(m.eval_bool_total(&pool, is_zero));
    }
}
