//! Structural crash signatures for witness triage.
//!
//! Two witnesses that drive a deployment into the same failure are the same
//! bug: reporting both wastes a developer's attention, and re-validating
//! both wastes compute. A [`CrashSignature`] captures the *structure* of a
//! replay outcome — which system, whether the message was accepted, whether
//! any correct client could have produced it, and the sorted list of
//! observable effects — while deliberately excluding incidental witness
//! bytes, so solver-chosen junk in don't-care fields never splits a bug
//! class in two.

use crate::target::ReplayVerdict;

/// A structural, order-insensitive fingerprint of one replay outcome.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CrashSignature {
    /// Target system name (`"fsp"`, `"pbft"`, `"paxos"`).
    pub system: String,
    /// The replay verdict the outcome maps to.
    pub verdict: ReplayVerdict,
    /// Number of slots the replayed witness carried (`1` for a single
    /// message). Part of the identity: a multi-message failure and a
    /// single-message failure with the same effects are different bugs —
    /// one needs the whole sequence to reproduce.
    pub slots: usize,
    /// Sorted structural effect notes (reply codes, filesystem mutations,
    /// recovery events, triage families, session slot attributions).
    pub effects: Vec<String>,
}

impl CrashSignature {
    /// Builds the signature of a witness of `slots` messages (`1` for a
    /// single message), sorting and deduplicating the effect notes so
    /// equality is insensitive to observation order.
    ///
    /// Effect notes are sanitized *here* — the corpus line format's
    /// delimiters (`|`, `;`, newline, carriage return) become `_` — so the
    /// in-memory signature always equals its serialized round trip.
    /// Witness bytes flow into effects (an FSP filename can contain `;`),
    /// and a signature that mutates on save/load would break corpus dedup
    /// across runs. (A carriage return ending a store line would be read
    /// as part of a `\r\n` line break and lost.)
    pub fn for_session(
        system: &str,
        verdict: ReplayVerdict,
        slots: usize,
        effects: Vec<String>,
    ) -> CrashSignature {
        let mut effects: Vec<String> = effects
            .into_iter()
            .map(|e| e.replace(['|', '\n', '\r', ';'], "_"))
            .collect();
        effects.sort();
        effects.dedup();
        CrashSignature {
            system: system.to_string(),
            verdict,
            slots,
            effects,
        }
    }

    /// Serializes to the single-line corpus form:
    /// `system/verdict/effect;effect;…` for one-slot signatures,
    /// `system/verdict@s<N>/…` for signatures of `N > 1` slots.
    pub fn to_line(&self) -> String {
        let verdict = if self.slots == 1 {
            self.verdict.as_str().to_string()
        } else {
            format!("{}@s{}", self.verdict.as_str(), self.slots)
        };
        format!("{}/{}/{}", self.system, verdict, self.effects.join(";"))
    }

    /// Whether the effects carry a final-state divergence marker
    /// (`diverge:at:<idx>`) — the multi-node silent-split failure family
    /// a [`DivergenceProbe`](achilles::DivergenceProbe) folds into the
    /// effect stream.
    pub fn diverged(&self) -> bool {
        achilles::effects_diverged(self.effects.iter().map(String::as_str))
    }

    /// The parsed [`DivergenceSignature`](achilles::DivergenceSignature),
    /// if the effects carry one — which nodes split, at which delivery
    /// index, with which final root digests.
    pub fn divergence(&self) -> Option<achilles::DivergenceSignature> {
        achilles::DivergenceSignature::from_effects(self.effects.iter().map(String::as_str))
    }

    /// Parses the [`CrashSignature::to_line`] form (a verdict without the
    /// `@s<N>` marker is a one-slot signature).
    pub fn from_line(line: &str) -> Option<CrashSignature> {
        let mut parts = line.splitn(3, '/');
        let system = parts.next()?;
        let verdict_part = parts.next()?;
        let (verdict, slots) = match verdict_part.split_once("@s") {
            Some((v, n)) => (
                ReplayVerdict::parse(v)?,
                n.parse().ok().filter(|&n| n >= 1)?,
            ),
            None => (ReplayVerdict::parse(verdict_part)?, 1),
        };
        let effects = parts.next()?;
        let effects: Vec<String> = if effects.is_empty() {
            Vec::new()
        } else {
            effects.split(';').map(str::to_string).collect()
        };
        Some(CrashSignature::for_session(system, verdict, slots, effects))
    }
}

impl std::fmt::Display for CrashSignature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_line())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effects_are_order_insensitive() {
        let a = CrashSignature::for_session(
            "fsp",
            ReplayVerdict::ConfirmedTrojan,
            1,
            vec!["b".into(), "a".into(), "a".into()],
        );
        let b = CrashSignature::for_session(
            "fsp",
            ReplayVerdict::ConfirmedTrojan,
            1,
            vec!["a".into(), "b".into()],
        );
        assert_eq!(a, b);
    }

    #[test]
    fn line_round_trip() {
        let sig = CrashSignature::for_session(
            "pbft",
            ReplayVerdict::ConfirmedTrojan,
            1,
            vec!["outcome:recovered".into(), "bad_macs:1".into()],
        );
        assert_eq!(CrashSignature::from_line(&sig.to_line()), Some(sig));
        let empty = CrashSignature::for_session("paxos", ReplayVerdict::Rejected, 1, vec![]);
        assert_eq!(CrashSignature::from_line(&empty.to_line()), Some(empty));
    }

    #[test]
    fn malformed_lines_are_none() {
        assert_eq!(CrashSignature::from_line("fsp"), None);
        assert_eq!(CrashSignature::from_line("fsp/not-a-verdict/x"), None);
        assert_eq!(CrashSignature::from_line("fsp/confirmed@s0/x"), None);
        assert_eq!(CrashSignature::from_line("fsp/confirmed@sX/x"), None);
    }

    #[test]
    fn session_signatures_round_trip_and_differ_from_single() {
        let session = CrashSignature::for_session(
            "fsp",
            ReplayVerdict::ConfirmedTrojan,
            2,
            vec!["family:forged-login".into(), "trojan-slot:0".into()],
        );
        assert_eq!(
            CrashSignature::from_line(&session.to_line()),
            Some(session.clone())
        );
        assert!(session.to_line().contains("@s2"), "{}", session.to_line());
        let single = CrashSignature::for_session(
            "fsp",
            ReplayVerdict::ConfirmedTrojan,
            1,
            vec!["family:forged-login".into(), "trojan-slot:0".into()],
        );
        assert_ne!(session, single, "slot count is part of the identity");
    }

    #[test]
    fn divergence_markers_are_recovered_from_effects() {
        let sig = CrashSignature::for_session(
            "shardexec",
            ReplayVerdict::ConfirmedTrojan,
            4,
            vec![
                "diverge:at:0".into(),
                "diverge:root:shard0:00000000000000aa".into(),
                "diverge:root:shard1:00000000000000aa".into(),
                "diverge:root:shard2:00000000000000bb".into(),
                "family:sender-spoof".into(),
            ],
        );
        assert!(sig.diverged());
        let div = sig.divergence().expect("divergence parses back out");
        assert_eq!(div.first_split, 0);
        assert_eq!(
            div.split_sets(),
            vec![vec!["shard0", "shard1"], vec!["shard2"]]
        );
        // The divergence survives the text round trip byte-exactly.
        let back = CrashSignature::from_line(&sig.to_line()).unwrap();
        assert_eq!(back.divergence(), sig.divergence());

        let agreed = CrashSignature::for_session(
            "shardexec",
            ReplayVerdict::ConfirmedTrojan,
            4,
            vec!["root:agree:00000000000000aa".into()],
        );
        assert!(!agreed.diverged());
        assert_eq!(agreed.divergence(), None);
    }

    #[test]
    fn delimiter_bearing_effects_round_trip() {
        // Witness bytes flow into effects (e.g. an FSP filename "d;x"):
        // the signature must equal its serialized round trip anyway.
        let sig = CrashSignature::for_session(
            "fsp",
            ReplayVerdict::ConfirmedTrojan,
            1,
            vec!["fs:+d;x".into(), "fs:+a|b".into()],
        );
        assert_eq!(CrashSignature::from_line(&sig.to_line()), Some(sig.clone()));
        assert!(sig.effects.iter().all(|e| !e.contains([';', '|', '\n'])));
    }
}
