//! # achilles-symvm — symbolic execution for distributed-system nodes
//!
//! This crate replaces the S2E platform in the Achilles reproduction
//! (ASPLOS'14): it systematically enumerates the feasible execution paths of
//! *node programs* — the message-handling code of distributed-system nodes —
//! collecting per-path constraints, sent messages, and accept/reject
//! classifications. Achilles builds the client predicate `P_C` and server
//! predicate `P_S` from these records.
//!
//! ## Model
//!
//! * A [`NodeProgram`] is deterministic Rust code that obtains every input
//!   through its [`SymEnv`] (the paper's intercepted syscalls) and branches
//!   on symbolic conditions via [`SymEnv::branch`].
//! * The [`Executor`] schedules paths as decision prefixes and re-executes
//!   the program once per path, forking at both-feasible branch points. A
//!   scheduled path carries its observer's state from the fork point, so
//!   the replayed prefix is never observed twice.
//! * Protocol messages are field-structured ([`MessageLayout`],
//!   [`SymMessage`]); a server analysis receives a fully symbolic message, a
//!   client analysis captures the (partially symbolic) messages the client
//!   sends.
//! * A [`PathObserver`] can veto paths mid-flight — the hook Achilles uses to
//!   prune server paths that can no longer accept Trojan messages (Figure 7).
//!
//! ## Quickstart
//!
//! ```
//! use achilles_solver::{Solver, TermPool, Width};
//! use achilles_symvm::{ExploreConfig, Executor, PathResult, SymEnv, Verdict};
//!
//! let mut pool = TermPool::new();
//! let mut solver = Solver::new();
//! let mut exec = Executor::new(&mut pool, &mut solver, ExploreConfig::default());
//!
//! // The paper's Figure 4 snippet: one symbolic branch, two paths.
//! let result = exec.explore(&|env: &mut SymEnv<'_>| -> PathResult<()> {
//!     let lambda = env.sym("lambda", Width::W32);
//!     let zero = env.constant(0, Width::W32);
//!     if env.if_slt(zero, lambda)? {
//!         env.note("x = 14");
//!     } else {
//!         env.note("x = lambda + 1");
//!     }
//!     env.mark_accept();
//!     Ok(())
//! });
//! assert_eq!(result.paths.len(), 2);
//! assert!(result.paths.iter().all(|p| p.verdict == Verdict::Accept));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod env;
pub mod executor;
pub mod message;
pub mod observer;
pub mod parallel;
pub mod program;
pub mod record;

pub use env::SymEnv;
pub use executor::{Executor, ExploreConfig};
pub use message::{FieldDef, MessageLayout, MessageLayoutBuilder, SymMessage};
pub use observer::{NullObserver, ObserverCx, ObserverState, PathObserver};
pub use parallel::{parallel_map, parallel_map_with, ParallelOutcome, WorkerReport};
pub use program::{Halt, NodeProgram, PathResult};
pub use record::{ExploreResult, ExploreStats, PathRecord, Verdict};
