//! The answers every operation is checked against.
//!
//! These are the registry defaults' pinned results (the same numbers the
//! conformance, sweep and fleetd suites pin). They are written out here,
//! not read back from the program, so a change that alters an answer
//! fails the benchmark's checks instead of silently redefining them.

/// Pinned answers for one registered target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TargetAnswers {
    pub name: &'static str,
    /// Single-message Trojans `AchillesSession::run` finds.
    pub trojans: usize,
    /// Session Trojans `AchillesSession::run_sessions` finds (summed over
    /// the declared sessions; 0 when none are declared).
    pub session_trojans: usize,
    /// Sensitivity-matrix cells of one sweep over every session witness.
    pub sweep_cells: usize,
    /// Lines of a whole-target fleetd `QUERY` (two header lines per
    /// witness plus one per cell).
    pub query_lines: usize,
}

/// Pinned answers for every target of the built-in registry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expected {
    pub targets: Vec<TargetAnswers>,
}

impl Expected {
    /// The answers of `achilles_targets::builtin_registry()` under its
    /// default configuration.
    pub fn registry_default() -> Expected {
        let t = |name, trojans, session_trojans, sweep_cells, query_lines| TargetAnswers {
            name,
            trojans,
            session_trojans,
            sweep_cells,
            query_lines,
        };
        Expected {
            targets: vec![
                t("fsp", 80, 28, 4788, 4844),
                t("pbft", 2, 0, 0, 0),
                t("paxos", 1, 0, 0, 0),
                t("twopc", 1, 1, 91, 93),
                t("gossip", 1, 1, 114, 116),
                t("shardexec", 1, 1, 122, 124),
            ],
        }
    }

    /// The answers for `name`, if the registry has such a target.
    pub fn target(&self, name: &str) -> Option<&TargetAnswers> {
        self.targets.iter().find(|t| t.name == name)
    }

    /// A copy with one answer replaced — how the tests feed a wrong
    /// expected count to the checks.
    #[cfg(test)]
    pub fn with(mut self, name: &str, edit: impl FnOnce(&mut TargetAnswers)) -> Expected {
        if let Some(t) = self.targets.iter_mut().find(|t| t.name == name) {
            edit(t);
        }
        self
    }
}
