//! # achilles-fsp — the FSP file transfer protocol under Achilles
//!
//! A bounded, decision-level-faithful model of FSP 2.8.1b26 (the UDP file
//! transfer protocol the paper evaluates in §6), containing **both real
//! Trojan vulnerabilities** the paper found:
//!
//! * **Mismatched string lengths** — the server never checks that the file
//!   path's real (NUL-scanned) length equals the `bb_len` header, so Trojan
//!   messages smuggle arbitrary extra payload;
//! * **The wildcard character** — clients always glob-expand `*` (with no
//!   escape), the server stores it literally, so a file named `file*` can be
//!   created by a Trojan message but never precisely targeted afterwards.
//!
//! ## Quick analysis
//!
//! ```
//! use achilles::AchillesSession;
//! use achilles_fsp::{classify, expected_length_mismatch_trojans, FspSpec, TrojanFamily};
//!
//! // One-utility slice of the paper's accuracy experiment (§6.2).
//! let spec = FspSpec::accuracy().with_commands(1);
//! let report = AchillesSession::new(&spec).run();
//! assert_eq!(report.trojans.len(), expected_length_mismatch_trojans(1));
//! assert!(report.trojans.iter().all(|t| t.verified)); // no false positives
//! assert!(report
//!     .trojans
//!     .iter()
//!     .all(|t| matches!(classify(t), TrojanFamily::LengthMismatch { .. })));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod client;
pub mod oracle;
pub mod protocol;
pub mod runtime;
pub mod server;
pub mod session;
pub mod target;

pub use analysis::{
    classify, expected_length_mismatch_trojans, expected_wildcard_trojans, TrojanFamily,
};
pub use client::{extract_client_predicate, FspClient, FspClientConfig};
pub use oracle::{
    client_can_generate, fuzz_space_size, is_trojan, server_accepts, trojan_count_in_fuzz_space,
};
pub use protocol::{layout, Command, FspMessage, BUF_BASE, BYPASS_VALUE, MAX_PATH, WILDCARD};
pub use runtime::{run_utility, FspServerRuntime, UtilityOutcome};
pub use server::{reply_layout, FspServer, FspServerConfig, ReplyCode};
pub use session::{
    expected_session_trojans, login_generable, login_layout, FspLoginClient, FspSessionServer,
    FspSessionTarget, LOGIN_CLIENT_TOKEN_CAP, LOGIN_MAX_USER, LOGIN_SERVER_TOKEN_CAP,
};
pub use target::{FspSpec, FspTarget};
