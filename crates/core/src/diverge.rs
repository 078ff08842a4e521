//! Multi-node divergence observation: state roots, the probe that watches
//! them, and the signature triage folds them into.
//!
//! The paper's triage stops at crash/wedge on a single process. The
//! real-world Trojan shape in sharded executors detonates differently:
//! every node keeps running, and the cluster *silently splits* — two
//! replicas of the same state commit different values and produce
//! different canonical state hashes. This module gives the replay layer a
//! vocabulary for that failure family:
//!
//! * a [`StateRoot`] is one node's canonical state digest at an instant;
//! * a [`DivergenceProbe`] rides inside a multi-node target's fork
//!   session (it is `Clone`, so it is copied with the engine state when
//!   the session is cloned) and records the first delivery index at which
//!   the roots split;
//! * [`DivergenceProbe::finish`] folds the observation into effect
//!   strings (`diverge:at:<idx>`, `diverge:root:<node>:<digest>`, or
//!   `root:agree:<digest>`) that flow through the ordinary
//!   `InjectionOutcome` → `CrashSignature` path — no replay-harness
//!   changes, and fork-server replay stays bit-identical to cold boots by
//!   construction;
//! * a [`DivergenceSignature`] parses those effects back out of a
//!   signature, exposing which nodes split, at which delivery index, and
//!   with which root digests — the shape session ddmin minimizes against
//!   ([`same_split`](DivergenceSignature::same_split)) and the sweep
//!   classifier's `Diverged` class keys on.
//!
//! Effect strings deliberately avoid `|`, `;`, and newlines (the
//! characters crash-signature serialization sanitizes away), so a
//! divergence marker survives signature → text → signature round trips
//! byte-exactly.

use std::fmt;

/// Marker prefix of a final-state divergence: `diverge:at:<index>`.
pub const DIVERGE_AT_PREFIX: &str = "diverge:at:";

/// Marker prefix of one node's root in a diverged run:
/// `diverge:root:<node>:<16-hex-digest>`.
pub const DIVERGE_ROOT_PREFIX: &str = "diverge:root:";

/// Marker prefix of a transient split that healed before the end of the
/// plan: `diverge:transient:<index>`.
pub const DIVERGE_TRANSIENT_PREFIX: &str = "diverge:transient:";

/// Marker prefix of a run whose nodes agreed at the end of the plan:
/// `root:agree:<16-hex-digest>`.
pub const ROOT_AGREE_PREFIX: &str = "root:agree:";

/// One node's canonical state digest at an observation point.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateRoot {
    /// Node name (`"shard0"`, `"replica-b"`, …). Must not contain the
    /// characters signature serialization sanitizes (`|`, `;`, newline)
    /// or the `:` the effect grammar splits on.
    pub node: String,
    /// The canonical digest of the node's replicated state.
    pub digest: u64,
}

impl StateRoot {
    /// A root for `node` with the given digest.
    pub fn new(node: impl Into<String>, digest: u64) -> StateRoot {
        StateRoot {
            node: node.into(),
            digest,
        }
    }
}

/// Whether a set of roots is in agreement (vacuously true below two
/// nodes).
pub fn roots_agree(roots: &[StateRoot]) -> bool {
    roots.windows(2).all(|w| w[0].digest == w[1].digest)
}

/// A streaming FNV-1a hasher for building canonical state digests.
///
/// Deliberately not `std::hash::Hasher`: the std trait's output is
/// documented as unstable across releases, while a state root must be
/// bit-stable across machines, runs, and toolchains (it is compared in
/// cached signatures and serialized matrices).
#[derive(Clone, Copy, Debug)]
pub struct RootHasher(u64);

impl Default for RootHasher {
    fn default() -> RootHasher {
        RootHasher::new()
    }
}

impl RootHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> RootHasher {
        RootHasher(Self::OFFSET)
    }

    /// Folds raw bytes into the digest.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Folds one integer (big-endian) into the digest.
    pub fn write_u64(&mut self, value: u64) -> &mut Self {
        self.write_bytes(&value.to_be_bytes())
    }

    /// The accumulated digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Observes per-node state roots after every delivery of a plan and
/// renders the outcome as effect strings at the end.
///
/// The probe is plain `Clone` data: multi-node fork sessions embed it as
/// a field and derive `Clone`, so a cloned session carries the
/// observation history together with the engine state and the
/// fork-server equivalence law holds with no extra machinery.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DivergenceProbe {
    delivered: usize,
    first_split: Option<usize>,
}

impl DivergenceProbe {
    /// A fresh probe that has observed nothing.
    pub fn new() -> DivergenceProbe {
        DivergenceProbe::default()
    }

    /// Records the roots after one delivery. Call exactly once per plan
    /// entry, *after* the engine applied it.
    pub fn observe(&mut self, roots: &[StateRoot]) {
        if self.first_split.is_none() && !roots_agree(roots) {
            self.first_split = Some(self.delivered);
        }
        self.delivered += 1;
    }

    /// The delivery index at which the roots first split, if they ever
    /// did (transient splits that later healed still count).
    pub fn first_split(&self) -> Option<usize> {
        self.first_split
    }

    /// Renders the end-of-plan observation as effect strings, given the
    /// final roots:
    ///
    /// * split at the end — `diverge:at:<first-split-index>` plus one
    ///   `diverge:root:<node>:<digest>` per node;
    /// * split mid-plan but healed — `diverge:transient:<index>` plus
    ///   `root:agree:<digest>`;
    /// * never split — `root:agree:<digest>`.
    pub fn finish(&self, roots: &[StateRoot]) -> Vec<String> {
        if roots_agree(roots) {
            let agree = roots
                .first()
                .map(|r| format!("{ROOT_AGREE_PREFIX}{:016x}", r.digest))
                .into_iter();
            return match self.first_split {
                Some(at) => std::iter::once(format!("{DIVERGE_TRANSIENT_PREFIX}{at}"))
                    .chain(agree)
                    .collect(),
                None => agree.collect(),
            };
        }
        let at = self.first_split.unwrap_or(self.delivered.saturating_sub(1));
        let mut effects = vec![format!("{DIVERGE_AT_PREFIX}{at}")];
        effects.extend(
            roots
                .iter()
                .map(|r| format!("{DIVERGE_ROOT_PREFIX}{}:{:016x}", r.node, r.digest)),
        );
        effects
    }
}

/// A parsed divergence: which nodes split, at which delivery index, with
/// which final root digests.
///
/// Recovered from the effect strings of a crash signature
/// ([`from_effects`](DivergenceSignature::from_effects)), so triage,
/// ddmin, and cached sweep cells can all reason about divergence without
/// re-running the target.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DivergenceSignature {
    /// The delivery index at which the roots first split.
    pub first_split: usize,
    /// Final per-node roots, sorted by node name.
    pub roots: Vec<StateRoot>,
}

impl DivergenceSignature {
    /// Parses a divergence out of effect strings, if they carry one
    /// (a `diverge:at:` marker plus at least one `diverge:root:`).
    pub fn from_effects<'a, I>(effects: I) -> Option<DivergenceSignature>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut first_split = None;
        let mut roots = Vec::new();
        for effect in effects {
            if let Some(at) = effect.strip_prefix(DIVERGE_AT_PREFIX) {
                first_split = at.parse::<usize>().ok();
            } else if let Some(rest) = effect.strip_prefix(DIVERGE_ROOT_PREFIX) {
                let (node, digest) = rest.rsplit_once(':')?;
                let digest = u64::from_str_radix(digest, 16).ok()?;
                roots.push(StateRoot::new(node, digest));
            }
        }
        if roots.is_empty() {
            return None;
        }
        roots.sort();
        Some(DivergenceSignature {
            first_split: first_split?,
            roots,
        })
    }

    /// The effect strings this signature renders back to (the same form
    /// [`DivergenceProbe::finish`] emits, modulo node ordering).
    pub fn to_effects(&self) -> Vec<String> {
        let mut effects = vec![format!("{DIVERGE_AT_PREFIX}{}", self.first_split)];
        effects.extend(
            self.roots
                .iter()
                .map(|r| format!("{DIVERGE_ROOT_PREFIX}{}:{:016x}", r.node, r.digest)),
        );
        effects
    }

    /// The partition of node names by root digest, each group sorted,
    /// groups sorted by their first member — *which* nodes split, with
    /// the concrete digest values abstracted away.
    pub fn split_sets(&self) -> Vec<Vec<&str>> {
        let mut groups: Vec<(u64, Vec<&str>)> = Vec::new();
        for root in &self.roots {
            match groups.iter_mut().find(|(d, _)| *d == root.digest) {
                Some((_, names)) => names.push(&root.node),
                None => groups.push((root.digest, vec![&root.node])),
            }
        }
        let mut sets: Vec<Vec<&str>> = groups.into_iter().map(|(_, names)| names).collect();
        for set in &mut sets {
            set.sort_unstable();
        }
        sets.sort();
        sets
    }

    /// Whether two divergences split the *same nodes at the same delivery
    /// index* — digests are compared only for equality structure, not
    /// value, so a minimization step that changes concrete state (and so
    /// the digests) still counts as preserving the divergence.
    pub fn same_split(&self, other: &DivergenceSignature) -> bool {
        self.first_split == other.first_split && self.split_sets() == other.split_sets()
    }
}

impl fmt::Display for DivergenceSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "split@{}", self.first_split)?;
        for (i, set) in self.split_sets().iter().enumerate() {
            write!(f, "{}{}", if i == 0 { " " } else { " vs " }, set.join("+"))?;
        }
        Ok(())
    }
}

/// Whether an effect list carries a final-state divergence marker.
pub fn effects_diverged<'a, I>(effects: I) -> bool
where
    I: IntoIterator<Item = &'a str>,
{
    effects
        .into_iter()
        .any(|e| e.starts_with(DIVERGE_AT_PREFIX))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roots(digests: &[u64]) -> Vec<StateRoot> {
        digests
            .iter()
            .enumerate()
            .map(|(i, &d)| StateRoot::new(format!("shard{i}"), d))
            .collect()
    }

    #[test]
    fn agreeing_runs_emit_one_agree_marker() {
        let mut probe = DivergenceProbe::new();
        probe.observe(&roots(&[7, 7, 7]));
        probe.observe(&roots(&[9, 9, 9]));
        assert_eq!(probe.first_split(), None);
        let effects = probe.finish(&roots(&[9, 9, 9]));
        assert_eq!(effects, vec![format!("root:agree:{:016x}", 9)]);
        assert!(!effects_diverged(effects.iter().map(String::as_str)));
        assert_eq!(
            DivergenceSignature::from_effects(effects.iter().map(String::as_str)),
            None
        );
    }

    #[test]
    fn split_records_the_first_divergent_delivery() {
        let mut probe = DivergenceProbe::new();
        probe.observe(&roots(&[7, 7, 7]));
        probe.observe(&roots(&[7, 3, 3]));
        probe.observe(&roots(&[7, 3, 3]));
        assert_eq!(probe.first_split(), Some(1));
        let effects = probe.finish(&roots(&[7, 3, 3]));
        assert!(effects_diverged(effects.iter().map(String::as_str)));
        let sig = DivergenceSignature::from_effects(effects.iter().map(String::as_str))
            .expect("diverged effects parse");
        assert_eq!(sig.first_split, 1);
        assert_eq!(
            sig.split_sets(),
            vec![vec!["shard0"], vec!["shard1", "shard2"]]
        );
        assert_eq!(sig.to_string(), "split@1 shard0 vs shard1+shard2");
    }

    #[test]
    fn transient_splits_heal_into_agreement_with_a_marker() {
        let mut probe = DivergenceProbe::new();
        probe.observe(&roots(&[1, 2, 2]));
        probe.observe(&roots(&[5, 5, 5]));
        let effects = probe.finish(&roots(&[5, 5, 5]));
        assert_eq!(
            effects,
            vec![
                "diverge:transient:0".to_string(),
                format!("root:agree:{:016x}", 5)
            ]
        );
        assert!(!effects_diverged(effects.iter().map(String::as_str)));
    }

    #[test]
    fn signature_round_trips_through_effects() {
        let sig = DivergenceSignature {
            first_split: 2,
            roots: roots(&[1, 1, 9]),
        };
        let back = DivergenceSignature::from_effects(
            sig.to_effects()
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert_eq!(back, sig);
    }

    #[test]
    fn same_split_ignores_digest_values_but_not_structure() {
        let a = DivergenceSignature {
            first_split: 1,
            roots: roots(&[1, 1, 9]),
        };
        let b = DivergenceSignature {
            first_split: 1,
            roots: roots(&[4, 4, 2]),
        };
        // Same partition {s0,s1} vs {s2}, different digests: same split.
        assert!(a.same_split(&b));
        let c = DivergenceSignature {
            first_split: 1,
            roots: roots(&[4, 2, 4]),
        };
        assert!(!a.same_split(&c), "different nodes split");
        let d = DivergenceSignature {
            first_split: 0,
            roots: roots(&[1, 1, 9]),
        };
        assert!(!a.same_split(&d), "different delivery index");
    }

    #[test]
    fn root_hasher_is_order_sensitive_and_stable() {
        let mut a = RootHasher::new();
        a.write_u64(1).write_u64(2);
        let mut b = RootHasher::new();
        b.write_u64(2).write_u64(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = RootHasher::new();
        c.write_u64(1).write_u64(2);
        assert_eq!(a.finish(), c.finish());
        // Pinned: the digest is part of serialized signatures, so it must
        // never drift across releases.
        assert_eq!(
            RootHasher::new().write_bytes(b"achilles").finish(),
            0x1fbc_5f01_fc92_4a02
        );
    }

    #[test]
    fn effect_strings_survive_signature_sanitization() {
        let sig = DivergenceSignature {
            first_split: 0,
            roots: roots(&[3, 4, 5]),
        };
        for effect in sig.to_effects() {
            assert!(
                !effect.contains(['|', ';', '\n']),
                "{effect:?} would be mangled by signature sanitization"
            );
        }
    }
}
