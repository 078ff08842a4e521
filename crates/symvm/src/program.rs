//! The node-program interface.
//!
//! A *node program* is the unit Achilles analyzes: the message-handling code
//! of one distributed-system node (a client utility, a server event-loop
//! body, a replica). Programs are written as ordinary Rust against
//! [`SymEnv`] and are re-executed once per explored path,
//! so they must be deterministic given the environment's responses: all
//! inputs (stdin, command-line arguments, network messages, clocks) must be
//! obtained through the environment, and any local state must be rebuilt
//! inside [`NodeProgram::run`].

use crate::env::SymEnv;

/// Why a path ended early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Halt {
    /// The path condition became unsatisfiable.
    Infeasible,
    /// The program (or an annotation) explicitly dropped the path.
    Dropped,
    /// A [`PathObserver`](crate::observer::PathObserver) pruned the path.
    Pruned,
    /// The per-path depth budget was exhausted.
    DepthExhausted,
}

/// Result type threaded through node programs: environment calls that can
/// terminate the current path return `Err(Halt)`, which the program
/// propagates with `?`.
pub type PathResult<T> = Result<T, Halt>;

/// Message-handling code of one distributed-system node.
///
/// # Examples
///
/// ```
/// use achilles_symvm::{NodeProgram, PathResult, SymEnv};
/// use achilles_solver::Width;
///
/// /// A node that reads one byte of input and replies only to even values.
/// struct EvenServer;
///
/// impl NodeProgram for EvenServer {
///     fn run(&self, env: &mut SymEnv<'_>) -> PathResult<()> {
///         let input = env.sym("input", Width::W8);
///         let one = env.pool_mut().constant(1, Width::W8);
///         let bit = env.pool_mut().bit_and(input, one);
///         let zero = env.pool_mut().constant(0, Width::W8);
///         let even = env.pool_mut().eq(bit, zero);
///         if env.branch(even)? {
///             env.mark_accept();
///         } else {
///             env.mark_reject();
///         }
///         Ok(())
///     }
/// }
/// ```
pub trait NodeProgram {
    /// Executes the node once along the current path.
    ///
    /// Returning `Ok(())` ends the path normally; `Err(Halt)` ends it early
    /// (typically by propagating an environment call with `?`).
    fn run(&self, env: &mut SymEnv<'_>) -> PathResult<()>;
}

impl<F> NodeProgram for F
where
    F: Fn(&mut SymEnv<'_>) -> PathResult<()>,
{
    fn run(&self, env: &mut SymEnv<'_>) -> PathResult<()> {
        self(env)
    }
}
