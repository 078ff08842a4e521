//! The replay corpus: confirmed Trojans persisted across runs.
//!
//! Re-running an analysis after a code or model change re-discovers mostly
//! the same Trojans. The corpus remembers every confirmed witness and its
//! [`CrashSignature`] in a line-oriented text format (witness fields
//! serialized via [`achilles::export::witness_record`] /
//! [`achilles::export::session_witness_record`]), so a later run can
//! (a) skip re-validating byte-identical witnesses and (b) tell genuinely
//! *new* bug classes from fresh witnesses of known ones.
//!
//! The **v2** format added session witnesses: an entry's field record may
//! carry several slots separated by `/` (one wire message per slot), and
//! its signature may carry the `@s<N>` session marker. The **v3** bump
//! accompanies divergence-aware triage: effect vocabularies now include
//! the `diverge:*` / `root:agree:*` markers multi-node targets emit, so
//! pre-divergence corpora must be re-derived rather than quietly answer
//! for cells they never observed. A file with a stale or foreign header is
//! **rejected** with a line-1 [`CorpusParseError`] naming the expected
//! version — earlier releases loaded it as an empty corpus, which silently
//! discarded the store and re-validated everything without telling anyone.
//! Only a genuinely absent (or zero-byte) file loads empty; the CI corpus
//! cache is keyed on the version string, so a bump misses the cache and
//! starts from the empty-file path, never the error path.
//!
//! Within a well-versioned file, malformed entries are **hard errors**
//! with a line number ([`CorpusParseError`]), not silent skips: a corpus
//! is what lets re-validation *not* replay a witness, so a truncated
//! session record that quietly vanished would silently re-classify its
//! witness as unknown — or worse, a half-written file would pass for a
//! smaller corpus.

use std::collections::HashSet;
use std::fmt;

use achilles::export::{parse_session_witness_record, session_witness_record, witness_record};

use crate::signature::CrashSignature;

/// File-format version tag (first line of every corpus file). The `v3`
/// bump marks the divergence-aware effect vocabulary (`diverge:*` /
/// `root:agree:*`): older corpora predate multi-node root observation and
/// must be re-derived, not trusted.
const HEADER: &str = "# achilles-replay corpus v3";

/// A malformed corpus entry, with the 1-based line it sits on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusParseError {
    /// 1-based line number of the malformed entry.
    pub line: usize,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for CorpusParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corpus line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for CorpusParseError {}

/// One persisted confirmed Trojan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusEntry {
    /// The structural crash signature.
    pub signature: CrashSignature,
    /// The witness's concrete field values (multi-slot witnesses store the
    /// slots concatenated; `slot_lens` records the boundaries).
    pub fields: Vec<u64>,
    /// Per-slot field counts for multi-slot witnesses; empty for one-slot
    /// (single-message) witnesses.
    pub slot_lens: Vec<usize>,
    /// Essential field indices from minimization (empty = not minimized),
    /// indexing into the concatenated `fields`.
    pub essential: Vec<usize>,
}

impl CorpusEntry {
    /// An entry over per-slot field values (one slot for a single-message
    /// witness); `essential` carries `(slot, field)` pairs, stored as
    /// indices into the concatenation.
    pub fn session(
        signature: CrashSignature,
        slot_fields: &[Vec<u64>],
        essential: &[(usize, usize)],
    ) -> CorpusEntry {
        let slot_lens: Vec<usize> = slot_fields.iter().map(Vec::len).collect();
        let offsets: Vec<usize> = slot_lens
            .iter()
            .scan(0usize, |acc, &len| {
                let at = *acc;
                *acc += len;
                Some(at)
            })
            .collect();
        CorpusEntry {
            signature,
            fields: slot_fields.iter().flatten().copied().collect(),
            slot_lens: if slot_lens.len() <= 1 {
                Vec::new()
            } else {
                slot_lens
            },
            essential: essential.iter().map(|&(s, f)| offsets[s] + f).collect(),
        }
    }

    /// The per-slot field values (a single vector for single-message
    /// entries).
    pub fn slot_fields(&self) -> Vec<Vec<u64>> {
        if self.slot_lens.is_empty() {
            return vec![self.fields.clone()];
        }
        achilles::export::split_fields_by_counts(&self.fields, &self.slot_lens)
    }
}

/// A deduplicated set of confirmed Trojans.
#[derive(Clone, Debug, Default)]
pub struct ReplayCorpus {
    entries: Vec<CorpusEntry>,
    signatures: HashSet<CrashSignature>,
    /// Keyed on (slot boundaries, concatenated fields): a session witness
    /// and a single-message witness with identical bytes are distinct.
    witnesses: HashSet<(Vec<usize>, Vec<u64>)>,
}

impl ReplayCorpus {
    /// An empty corpus.
    pub fn new() -> ReplayCorpus {
        ReplayCorpus::default()
    }

    /// The persisted entries, in insertion order.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether this exact witness (per-slot field values) is already
    /// recorded. A one-slot witness is keyed like a single-message record,
    /// so single-message corpora keep skipping their witnesses.
    pub fn knows_witness(&self, slot_fields: &[Vec<u64>]) -> bool {
        let lens: Vec<usize> = if slot_fields.len() <= 1 {
            Vec::new()
        } else {
            slot_fields.iter().map(Vec::len).collect()
        };
        let fields: Vec<u64> = slot_fields.iter().flatten().copied().collect();
        self.witnesses.contains(&(lens, fields))
    }

    /// Whether this crash signature is already recorded.
    pub fn knows_signature(&self, sig: &CrashSignature) -> bool {
        self.signatures.contains(sig)
    }

    /// Number of distinct signatures.
    pub fn distinct_signatures(&self) -> usize {
        self.signatures.len()
    }

    /// Inserts an entry; returns whether its *signature* was new.
    /// Byte-identical witnesses (with identical slot boundaries) are never
    /// stored twice.
    pub fn insert(&mut self, mut entry: CorpusEntry) -> bool {
        if entry.slot_lens.len() <= 1 {
            entry.slot_lens = Vec::new();
        }
        let key = (entry.slot_lens.clone(), entry.fields.clone());
        if self.witnesses.contains(&key) {
            return false;
        }
        let new_signature = self.signatures.insert(entry.signature.clone());
        self.witnesses.insert(key);
        self.entries.push(entry);
        new_signature
    }

    /// Merges another corpus in; returns how many new signatures arrived.
    pub fn merge(&mut self, other: &ReplayCorpus) -> usize {
        other
            .entries
            .iter()
            .filter(|e| self.insert((*e).clone()))
            .count()
    }

    /// Serializes to the line-oriented corpus text form.
    pub fn to_text(&self) -> String {
        let mut out = String::from(HEADER);
        out.push('\n');
        for e in &self.entries {
            let essential = e
                .essential
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(",");
            let record = if e.slot_lens.is_empty() {
                witness_record(&e.fields)
            } else {
                session_witness_record(&e.slot_fields())
            };
            out.push_str(&format!(
                "{}|{}|{}\n",
                e.signature.to_line(),
                record,
                essential
            ));
        }
        out
    }

    /// Parses the [`ReplayCorpus::to_text`] form.
    ///
    /// Empty text is an empty corpus (a freshly-created file). Anything
    /// else must lead with the current version header: a stale or foreign
    /// header is a **line-1 hard error naming the expected version**, so
    /// an operator pointing a run at a pre-bump corpus learns the store
    /// needs re-deriving instead of watching it silently load as empty.
    /// Within a well-versioned file, a malformed entry is equally hard:
    /// re-validation trusts the corpus to decide which witnesses to skip,
    /// so a record that silently vanished would corrupt that decision.
    ///
    /// # Errors
    ///
    /// Returns a [`CorpusParseError`] naming the first malformed line
    /// (1-based) — a missing or outdated version header, an unparsable
    /// signature, a truncated or non-numeric `/`-separated per-slot
    /// record, an empty slot, or a malformed essential-field list.
    pub fn from_text(text: &str) -> Result<ReplayCorpus, CorpusParseError> {
        let mut corpus = ReplayCorpus::new();
        let mut lines = text.lines().enumerate();
        match lines.next() {
            None => return Ok(corpus),
            Some((_, first)) if first.trim() == HEADER => {}
            Some((_, first)) => {
                return Err(CorpusParseError {
                    line: 1,
                    reason: format!(
                        "unsupported corpus header {:?} (expected {HEADER:?}; \
                         older formats must be re-derived)",
                        first.trim()
                    ),
                });
            }
        }
        for (index, line) in lines {
            let lineno = index + 1;
            let err = |reason: &str| CorpusParseError {
                line: lineno,
                reason: reason.to_string(),
            };
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, '|');
            let (Some(sig), Some(fields), Some(essential)) =
                (parts.next(), parts.next(), parts.next())
            else {
                return Err(err("expected `signature|fields|essential`"));
            };
            let Some(signature) = CrashSignature::from_line(sig) else {
                return Err(err(&format!("unparsable crash signature {sig:?}")));
            };
            let Some(slot_fields) = parse_session_witness_record(fields) else {
                return Err(err(&format!(
                    "malformed witness record {fields:?} (expected decimal \
                     fields, slots separated by `/`)"
                )));
            };
            if slot_fields.len() > 1 && slot_fields.iter().any(Vec::is_empty) {
                return Err(err(&format!(
                    "truncated session record {fields:?}: every slot must \
                     carry at least one field"
                )));
            }
            let essential: Vec<usize> = if essential.is_empty() {
                Vec::new()
            } else {
                match essential
                    .split(',')
                    .map(|p| p.trim().parse().ok())
                    .collect()
                {
                    Some(v) => v,
                    None => {
                        return Err(err(&format!(
                            "malformed essential-field list {essential:?}"
                        )))
                    }
                }
            };
            let slot_lens: Vec<usize> = if slot_fields.len() <= 1 {
                Vec::new()
            } else {
                slot_fields.iter().map(Vec::len).collect()
            };
            corpus.insert(CorpusEntry {
                signature,
                fields: slot_fields.into_iter().flatten().collect(),
                slot_lens,
                essential,
            });
        }
        Ok(corpus)
    }

    /// Writes the corpus to a file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// Loads a corpus from a file; a missing file is an empty corpus.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than `NotFound`; a malformed entry
    /// surfaces as [`std::io::ErrorKind::InvalidData`] carrying the
    /// line-numbered [`CorpusParseError`].
    pub fn load(path: &std::path::Path) -> std::io::Result<ReplayCorpus> {
        match std::fs::read_to_string(path) {
            Ok(text) => ReplayCorpus::from_text(&text)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(ReplayCorpus::new()),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::ReplayVerdict;

    fn entry(system: &str, fields: Vec<u64>, effect: &str) -> CorpusEntry {
        CorpusEntry::session(
            CrashSignature::for_session(
                system,
                ReplayVerdict::ConfirmedTrojan,
                1,
                vec![effect.to_string()],
            ),
            &[fields],
            &[(0, 0), (0, 2)],
        )
    }

    #[test]
    fn text_round_trip() {
        let mut corpus = ReplayCorpus::new();
        corpus.insert(entry("fsp", vec![68, 0, 3], "family:x"));
        corpus.insert(entry("pbft", vec![1, 2], "outcome:recovered"));
        let back = ReplayCorpus::from_text(&corpus.to_text()).unwrap();
        assert_eq!(back.entries(), corpus.entries());
        assert_eq!(back.distinct_signatures(), 2);
    }

    #[test]
    fn dedup_by_witness_and_signature() {
        let mut corpus = ReplayCorpus::new();
        assert!(corpus.insert(entry("fsp", vec![1], "a")));
        // Same signature, new witness: stored but not a new signature.
        assert!(!corpus.insert(entry("fsp", vec![2], "a")));
        // Identical witness: not stored at all.
        assert!(!corpus.insert(entry("fsp", vec![1], "a")));
        assert_eq!(corpus.len(), 2);
        assert_eq!(corpus.distinct_signatures(), 1);
        assert!(corpus.knows_witness(&[vec![2]]));
        assert!(!corpus.knows_witness(&[vec![3]]));
    }

    #[test]
    fn merge_counts_new_signatures() {
        let mut a = ReplayCorpus::new();
        a.insert(entry("fsp", vec![1], "a"));
        let mut b = ReplayCorpus::new();
        b.insert(entry("fsp", vec![1], "a"));
        b.insert(entry("fsp", vec![9], "b"));
        assert_eq!(a.merge(&b), 1);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn malformed_lines_are_line_numbered_errors() {
        // Regression: malformed entries used to be skipped silently, so a
        // half-written corpus passed for a smaller one and re-validation
        // replayed (or worse, skipped) the wrong witnesses.
        let text = format!("{HEADER}\n\nfsp/confirmed/a|1,2|\ngarbage\n");
        let err = ReplayCorpus::from_text(&text).unwrap_err();
        assert_eq!(err.line, 4, "1-based line of the malformed entry");
        assert!(err.to_string().contains("line 4"), "{err}");

        let bad_sig = format!("{HEADER}\nfsp/not-a-verdict/a|1,2|\n");
        let err = ReplayCorpus::from_text(&bad_sig).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.reason.contains("signature"), "{err}");

        let bad_essential = format!("{HEADER}\nfsp/confirmed/a|1,2|0,x\n");
        let err = ReplayCorpus::from_text(&bad_essential).unwrap_err();
        assert!(err.reason.contains("essential"), "{err}");
    }

    #[test]
    fn stale_headers_are_line_one_errors_naming_the_expected_version() {
        // Regression: pre-v3 loaders treated a stale header as "load as
        // empty", so pointing a run at an old corpus silently discarded
        // the whole store and re-validated everything.
        for stale in [
            "no header",
            "# achilles-replay corpus v1\nfsp/confirmed/a|1,2|\n",
            "# achilles-replay corpus v2\nfsp/confirmed/a|1,2|\n",
        ] {
            let err = ReplayCorpus::from_text(stale).expect_err("stale header must error");
            assert_eq!(err.line, 1, "{stale:?}");
            assert!(
                err.reason.contains("v3"),
                "names the expected version: {err}"
            );
        }
        // A zero-byte file (just created, never written) is still empty —
        // the missing-file path and the fresh-file path agree.
        assert_eq!(ReplayCorpus::from_text("").unwrap().len(), 0);

        // And the file loader surfaces the stale header as InvalidData,
        // while a genuinely absent file stays an empty corpus.
        let dir = std::env::temp_dir().join("achilles-corpus-header-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stale.corpus");
        std::fs::write(&path, "# achilles-replay corpus v2\n").unwrap();
        let err = ReplayCorpus::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(ReplayCorpus::load(&path).unwrap().len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn divergence_entries_round_trip() {
        // A v3 corpus persists the divergence effect vocabulary intact:
        // the parsed-back signature still reports the same split.
        let sig = CrashSignature::for_session(
            "shardexec",
            ReplayVerdict::ConfirmedTrojan,
            4,
            vec![
                "diverge:at:0".into(),
                "diverge:root:shard0:0000000000000011".into(),
                "diverge:root:shard1:0000000000000022".into(),
                "family:sender-spoof".into(),
                "trojan-slot:0".into(),
            ],
        );
        let slots = vec![vec![1, 0, 1, 1], vec![2, 0, 1], vec![3, 1]];
        let mut corpus = ReplayCorpus::new();
        assert!(corpus.insert(CorpusEntry::session(sig.clone(), &slots, &[(0, 1)])));
        let back = ReplayCorpus::from_text(&corpus.to_text()).unwrap();
        assert_eq!(back.entries(), corpus.entries());
        assert!(back.knows_signature(&sig));
        let div = back.entries()[0].signature.divergence().unwrap();
        assert_eq!(div.first_split, 0);
        assert_eq!(div.split_sets(), vec![vec!["shard0"], vec!["shard1"]]);
    }

    #[test]
    fn truncated_session_records_are_rejected_with_their_line() {
        // The truncated `/`-separated record regression: "3,150/" parses
        // as a second, empty slot — a witness that cannot exist.
        let text =
            format!("{HEADER}\nfsp/confirmed@s2/a|3,150/68,0,1|\nfsp/confirmed@s2/b|3,150/|\n");
        let err = ReplayCorpus::from_text(&text).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.reason.contains("truncated"), "{err}");

        // Non-numeric slot fields are rejected too, with the same line.
        let text = format!("{HEADER}\nfsp/confirmed@s2/a|3,150/6x,0|\n");
        let err = ReplayCorpus::from_text(&text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.reason.contains("witness record"), "{err}");

        // And the loader surfaces the parse error as InvalidData.
        let dir = std::env::temp_dir().join("achilles-corpus-parse-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.corpus");
        std::fs::write(&path, format!("{HEADER}\nfsp/confirmed@s2/b|3,150/|\n")).unwrap();
        let err = ReplayCorpus::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn session_entries_round_trip_with_slot_boundaries() {
        let sig = CrashSignature::for_session(
            "fsp",
            ReplayVerdict::ConfirmedTrojan,
            2,
            vec!["trojan-slot:0".into()],
        );
        let slots = vec![vec![3, 150], vec![68, 0, 1]];
        let mut corpus = ReplayCorpus::new();
        assert!(corpus.insert(CorpusEntry::session(sig, &slots, &[(0, 1), (1, 2)])));
        assert!(corpus.knows_witness(&slots));
        // Same bytes as a *single-message* witness: a different thing.
        assert!(!corpus.knows_witness(&[vec![3, 150, 68, 0, 1]]));

        let text = corpus.to_text();
        assert!(text.contains("3,150/68,0,1"), "{text}");
        let back = ReplayCorpus::from_text(&text).unwrap();
        assert_eq!(back.entries(), corpus.entries());
        assert!(back.knows_witness(&slots));
        assert_eq!(back.entries()[0].slot_fields(), slots);
        assert_eq!(back.entries()[0].essential, vec![1, 4]);
    }
}
