//! The persistent sweep cache: (witness, schedule) classifications
//! remembered across runs.
//!
//! A campaign's cost is `witnesses × schedules` replays, and re-running an
//! unchanged system re-derives exactly the same cells. The cache remembers
//! each cell under its `scope::witness-record@schedule-token` key, so a
//! later run replays only genuinely new (witness, schedule) pairs — the
//! same incrementality contract [`ReplayCorpus`](achilles_replay::ReplayCorpus)
//! gives validation.
//!
//! In memory the key is split into its three parts and the store is
//! nested, scope → witness record → schedule token → cell, because a
//! service works on one witness or one scope at a time: that work never
//! walks the whole store ([`SweepCache`] lists what each operation
//! touches, and [`SweepCache::cells_visited`] counts it).
//!
//! The text form is unchanged by the nesting: one line per cell under its
//! full key, the lines sorted by that key string. A nested walk would
//! order them differently (`a/b2::…` sorts before `a/b::…` as a string,
//! after it as a scope), so [`SweepCache::to_text`] sorts the full keys.
//!
//! The text format is versioned at least as fast as the replay corpus's
//! witness-record format (`/`-separated per-slot records since corpus
//! v2): the keys embed that record form verbatim, so a corpus format bump
//! is a sweep-cache format bump, and the CI cache keyed on the sweep
//! version invalidates both together. The cache may also bump alone
//! (**v3** gated the fork-server rollout on one full re-derivation;
//! **v4** rides the corpus-v3 divergence bump — cells may now carry the
//! `diverged` class and `diverge:*` effect markers). A file with a stale
//! or foreign header is rejected with a line-1 error naming the expected
//! version; only an absent (or zero-byte) file loads empty.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};

use achilles::export::session_witness_record;
use achilles_replay::{CrashSignature, FaultSchedule, ReplayVerdict, SessionWitness};

use crate::matrix::{schedule_token, ScheduleClass};

/// File-format version tag (first line of every sweep-cache file). The
/// `v4` bump marks divergence-aware triage: cells may carry the
/// `diverged` class and `diverge:*` / `root:agree:*` effect markers, and
/// pre-divergence caches classified silently-splitting baselines as
/// plain `armed` — they must be re-derived, not reinterpreted.
const HEADER: &str = "# achilles-sweep cache v4";

/// A malformed sweep-cache cell line, with the 1-based line it sits on.
///
/// The same contract [`CorpusParseError`](achilles_replay::CorpusParseError)
/// gives the replay corpus: within a well-versioned file, a cell that
/// cannot be parsed is a **hard error**, never a silent skip — a
/// long-running service answers queries from this store, so a truncated
/// line that quietly vanished would silently re-classify its cell as
/// unswept (or let a half-written file pass for a smaller one).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheParseError {
    /// 1-based line number of the malformed cell.
    pub line: usize,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for CacheParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sweep cache line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for CacheParseError {}

/// One cached (witness, schedule) classification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedCell {
    /// Classification against the fault-free baseline.
    pub class: ScheduleClass,
    /// The faulted replay's verdict.
    pub verdict: ReplayVerdict,
    /// The faulted replay's crash signature.
    pub signature: CrashSignature,
}

/// One witness's cells, keyed by schedule token.
pub(crate) type WitnessCells = HashMap<String, CachedCell>;

/// A persistent map from (witness, schedule) to sweep classification.
///
/// Cells live under scope (the `target/session` namespace) → witness
/// record → schedule token. The scope is part of a cell's identity: two
/// sessions (or targets) whose witnesses serialize to the same field
/// record are still replayed against different deployments, so their
/// cells never answer for each other. A lookup or insert hashes the three
/// parts, never a joined key string. [`SweepCache::extract_witness`] and
/// [`SweepCache::invalidate_witness`] touch one witness's cells,
/// [`SweepCache::invalidate_scope`] one scope's, and
/// [`SweepCache::merge`] moves whole witness maps where the receiver has
/// none yet. Only [`SweepCache::to_text`] (and
/// [`SweepCache::extract_scope_prefix`] for the scopes it selects) walks
/// every cell, and it sorts the full keys so the file keeps its order.
#[derive(Clone, Debug, Default)]
pub struct SweepCache {
    scopes: HashMap<String, HashMap<String, WitnessCells>>,
    visited: Visits,
}

/// The running count behind [`SweepCache::cells_visited`]: atomic, so the
/// read-only extract and render operations can count their work while
/// the cache stays `Sync`.
#[derive(Debug, Default)]
struct Visits(AtomicU64);

impl Visits {
    fn add(&self, cells: usize) {
        self.0.fetch_add(cells as u64, Ordering::Relaxed);
    }

    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Clone for Visits {
    fn clone(&self) -> Visits {
        Visits(AtomicU64::new(self.get()))
    }
}

impl SweepCache {
    /// An empty cache.
    pub fn new() -> SweepCache {
        SweepCache::default()
    }

    /// Number of cached cells.
    pub fn len(&self) -> usize {
        self.scopes
            .values()
            .flat_map(HashMap::values)
            .map(HashMap::len)
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stored cells this cache's bulk operations have visited so far: each
    /// extract, invalidate, merge and render adds the cells it copies,
    /// drops, moves or writes. Point lookups and inserts are not counted.
    /// The count is a pure function of the operations applied, so it is
    /// how a caller checks that work stays proportional to the witness or
    /// scope it addresses rather than to the store's size.
    pub fn cells_visited(&self) -> u64 {
        self.visited.get()
    }

    /// The cached cell for a (witness, schedule) pair in `scope`, if any.
    pub fn get(
        &self,
        scope: &str,
        witness: &SessionWitness,
        schedule: &FaultSchedule,
    ) -> Option<&CachedCell> {
        self.scopes
            .get(scope)?
            .get(&session_witness_record(&witness.fields))?
            .get(&schedule_token(schedule))
    }

    /// Caches a cell; later inserts under the same key win (replay is a
    /// pure function of the scoped pair, so they can only re-assert the
    /// value).
    pub fn insert(
        &mut self,
        scope: &str,
        witness: &SessionWitness,
        schedule: &FaultSchedule,
        cell: CachedCell,
    ) {
        self.witness_cells(scope, session_witness_record(&witness.fields))
            .insert(schedule_token(schedule), cell);
    }

    /// The cells of one witness `record` within `scope`, created empty if
    /// absent — how a sweep formats its witness's record once and then
    /// keys each schedule by its token alone.
    pub(crate) fn witness_cells(&mut self, scope: &str, record: String) -> &mut WitnessCells {
        self.scopes
            .entry(scope.to_string())
            .or_default()
            .entry(record)
            .or_default()
    }

    /// The cells a sweep of `witness` over `schedules` would replay
    /// against this cache: the fault-free baseline and every schedule
    /// with no cached cell.
    pub fn missing(
        &self,
        scope: &str,
        witness: &SessionWitness,
        schedules: &[FaultSchedule],
    ) -> usize {
        let Some(cells) = self
            .scopes
            .get(scope)
            .and_then(|witnesses| witnesses.get(&session_witness_record(&witness.fields)))
        else {
            return 1 + schedules.len();
        };
        let baseline = usize::from(!cells.contains_key(&schedule_token(&FaultSchedule::none())));
        baseline
            + schedules
                .iter()
                .filter(|schedule| !cells.contains_key(&schedule_token(schedule)))
                .count()
    }

    /// Serializes to the line-oriented cache text form (keys sorted, so
    /// the file is reproducible).
    pub fn to_text(&self) -> String {
        let mut rows: Vec<(String, &CachedCell)> = Vec::new();
        for (scope, witnesses) in &self.scopes {
            for (record, cells) in witnesses {
                rows.extend(
                    cells
                        .iter()
                        .map(|(token, cell)| (format!("{scope}::{record}@{token}"), cell)),
                );
            }
        }
        self.visited.add(rows.len());
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut out = String::from(HEADER);
        out.push('\n');
        for (key, cell) in rows {
            let _ = writeln!(
                out,
                "{key}|{}|{}|{}",
                cell.class,
                cell.verdict.as_str(),
                cell.signature.to_line()
            );
        }
        out
    }

    /// Parses the [`SweepCache::to_text`] form. Empty text is an empty
    /// cache (a freshly-created file); anything else must lead with the
    /// current version header — a stale or foreign header is a line-1
    /// [`CacheParseError`] naming the expected version, so an operator
    /// pointing a service at a pre-bump store learns it needs re-deriving
    /// instead of watching it silently load as empty. Within a
    /// well-versioned file a malformed cell line is equally hard — a
    /// results store must not quietly shed cells.
    ///
    /// Each key splits at its first `::` (scope) and at the first `@`
    /// after that (witness record, then schedule token): neither a scope
    /// nor a record contains those separators.
    ///
    /// # Errors
    ///
    /// Returns a [`CacheParseError`] for the first malformed line: a
    /// missing or outdated version header, a truncated
    /// `key|class|verdict|signature` record, a key without the `::` scope
    /// separator or without an `@` schedule separator after it, or an
    /// unparsable class / verdict / signature.
    pub fn from_text(text: &str) -> Result<SweepCache, CacheParseError> {
        let mut cache = SweepCache::new();
        let mut lines = text.lines().enumerate();
        match lines.next() {
            None => return Ok(cache),
            Some((_, first)) if first.trim() == HEADER => {}
            Some((_, first)) => {
                return Err(CacheParseError {
                    line: 1,
                    reason: format!(
                        "unsupported cache header {:?} (expected {HEADER:?}; \
                         older formats must be re-derived)",
                        first.trim()
                    ),
                });
            }
        }
        for (index, line) in lines {
            let lineno = index + 1;
            let err = |reason: String| CacheParseError {
                line: lineno,
                reason,
            };
            // A cell line is parsed as written: its last field is the
            // signature, whose last effect may end in whitespace.
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(4, '|');
            let (Some(key), Some(class), Some(verdict), Some(sig)) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(err(format!(
                    "truncated cell (expected key|class|verdict|signature): {line:?}"
                )));
            };
            let Some((scope, (record, token))) = key
                .split_once("::")
                .and_then(|(scope, rest)| Some((scope, rest.split_once('@')?)))
            else {
                return Err(err(format!(
                    "malformed cell key (expected scope::witness@schedule): {key:?}"
                )));
            };
            let class = ScheduleClass::parse(class)
                .ok_or_else(|| err(format!("unknown schedule class {class:?}")))?;
            let verdict = ReplayVerdict::parse(verdict)
                .ok_or_else(|| err(format!("unknown replay verdict {verdict:?}")))?;
            let signature = CrashSignature::from_line(sig)
                .ok_or_else(|| err(format!("unparsable crash signature {sig:?}")))?;
            cache.witness_cells(scope, record.to_string()).insert(
                token.to_string(),
                CachedCell {
                    class,
                    verdict,
                    signature,
                },
            );
        }
        Ok(cache)
    }

    /// Writes the cache to a file, crash-safely: the text is written to a
    /// sibling temp file and atomically renamed over `path`, so a crash
    /// mid-save leaves either the old complete file or the new complete
    /// file — never a truncated hybrid that would fail
    /// [`SweepCache::from_text`] on the next boot.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.to_text())?;
        std::fs::rename(&tmp, path)
    }

    /// Loads a cache from a file; a missing file is an empty cache.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than `NotFound`; a present but
    /// malformed file surfaces its [`CacheParseError`] as
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn load(path: &std::path::Path) -> std::io::Result<SweepCache> {
        match std::fs::read_to_string(path) {
            Ok(text) => SweepCache::from_text(&text).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{}: {e}", path.display()),
                )
            }),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(SweepCache::new()),
            Err(e) => Err(e),
        }
    }

    /// Moves every cell of `other` into this cache; later inserts win
    /// (replay is a pure function of the scoped pair, so they can only
    /// re-assert). A witness this cache holds no cells for takes over
    /// `other`'s map whole.
    pub fn merge(&mut self, other: SweepCache) {
        for (scope, witnesses) in other.scopes {
            let mine = self.scopes.entry(scope).or_default();
            for (record, cells) in witnesses {
                self.visited.add(cells.len());
                match mine.entry(record) {
                    Entry::Vacant(slot) => {
                        slot.insert(cells);
                    }
                    Entry::Occupied(mut slot) => slot.get_mut().extend(cells),
                }
            }
        }
    }

    /// Drops every cell within `scope` (the `target/session` namespace),
    /// returning how many were invalidated — the spec-epoch-bump lever: a
    /// changed spec invalidates exactly its own scope's cells, nobody
    /// else's.
    pub fn invalidate_scope(&mut self, scope: &str) -> usize {
        let dropped = self
            .scopes
            .remove(scope)
            .map_or(0, |witnesses| witnesses.values().map(HashMap::len).sum());
        self.visited.add(dropped);
        dropped
    }

    /// Drops every cell of one witness within `scope` (the baseline cell
    /// included), returning how many were invalidated — the corpus-bump
    /// lever: re-deriving one changed witness record touches exactly that
    /// witness's cells.
    pub fn invalidate_witness(&mut self, scope: &str, witness: &SessionWitness) -> usize {
        let dropped = self
            .scopes
            .get_mut(scope)
            .and_then(|witnesses| witnesses.remove(&session_witness_record(&witness.fields)))
            .map_or(0, |cells| cells.len());
        self.visited.add(dropped);
        dropped
    }

    /// Clones every cell of one witness within `scope` into a fresh
    /// mini-cache — the unit a campaign executor carries to a worker:
    /// sweeping against the extract replays exactly the cells missing
    /// from it, with no lock on the shared store.
    pub fn extract_witness(&self, scope: &str, witness: &SessionWitness) -> SweepCache {
        let record = session_witness_record(&witness.fields);
        let mut extract = SweepCache::new();
        if let Some(cells) = self.scopes.get(scope).and_then(|w| w.get(&record)) {
            self.visited.add(cells.len());
            extract
                .scopes
                .entry(scope.to_string())
                .or_default()
                .insert(record, cells.clone());
        }
        extract
    }

    /// Clones every cell whose scope starts with `prefix` (e.g. a
    /// `"target/"` prefix selects every session of one target) into a
    /// fresh cache — how a service shards one store into per-target
    /// durable files.
    pub fn extract_scope_prefix(&self, prefix: &str) -> SweepCache {
        let scopes: HashMap<_, _> = self
            .scopes
            .iter()
            .filter(|(scope, _)| scope.starts_with(prefix))
            .map(|(scope, witnesses)| (scope.clone(), witnesses.clone()))
            .collect();
        let extract = SweepCache {
            scopes,
            ..SweepCache::default()
        };
        self.visited.add(extract.len());
        extract
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use achilles_replay::DeliveryFault;

    fn witness() -> SessionWitness {
        SessionWitness {
            index: 0,
            server_path_id: 0,
            fields: vec![vec![1, 2], vec![3]],
            wire: vec![vec![1, 2], vec![3]],
        }
    }

    fn drop0() -> FaultSchedule {
        FaultSchedule::at(
            0,
            DeliveryFault {
                drop: true,
                ..DeliveryFault::none()
            },
        )
    }

    #[test]
    fn cells_round_trip_through_text() {
        let mut cache = SweepCache::new();
        cache.insert(
            "g/seed-sync-read",
            &witness(),
            &drop0(),
            CachedCell {
                class: ScheduleClass::Disarmed,
                verdict: ReplayVerdict::Dropped,
                signature: CrashSignature::for_session("g", ReplayVerdict::Dropped, 2, vec![]),
            },
        );
        let text = cache.to_text();
        assert!(
            text.contains("g/seed-sync-read::1,2/3@drop@s0|disarmed|dropped|g/dropped@s2/"),
            "{text}"
        );
        let back = SweepCache::from_text(&text).expect("round-trip text parses");
        assert_eq!(back.len(), 1);
        assert_eq!(
            back.get("g/seed-sync-read", &witness(), &drop0()),
            cache.get("g/seed-sync-read", &witness(), &drop0())
        );
        assert!(back
            .get("g/seed-sync-read", &witness(), &FaultSchedule::none())
            .is_none());
        // The scope is part of the identity: another session's cells never
        // answer for this one, even with byte-identical witness fields.
        assert!(back.get("g/other-session", &witness(), &drop0()).is_none());
    }

    #[test]
    fn diverged_cells_round_trip_through_text() {
        let mut cache = SweepCache::new();
        cache.insert(
            "shardexec/write-sync-read",
            &witness(),
            &drop0(),
            CachedCell {
                class: ScheduleClass::Diverged,
                verdict: ReplayVerdict::ConfirmedTrojan,
                signature: CrashSignature::for_session(
                    "shardexec",
                    ReplayVerdict::ConfirmedTrojan,
                    3,
                    vec![
                        "diverge:at:0".into(),
                        "diverge:root:shard0:00000000000000aa".into(),
                        "diverge:root:shard1:00000000000000bb".into(),
                        "family:sender-spoof".into(),
                    ],
                ),
            },
        );
        let text = cache.to_text();
        assert!(text.contains("|diverged|confirmed|"), "{text}");
        let back = SweepCache::from_text(&text).expect("diverged cells parse back");
        let cell = back
            .get("shardexec/write-sync-read", &witness(), &drop0())
            .expect("cell survives the round trip");
        assert_eq!(cell.class, ScheduleClass::Diverged);
        assert!(cell.signature.diverged());
        assert_eq!(
            cell.signature.divergence().unwrap().split_sets(),
            vec![vec!["shard0"], vec!["shard1"]]
        );
    }

    #[test]
    fn stale_headers_are_line_one_errors_naming_the_expected_version() {
        // Regression: pre-v4 loaders treated a stale header as "load as
        // empty", silently discarding the store — a long-running service
        // would re-derive everything without telling anyone.
        for stale in [
            "no header\nx|y|z|w\n",
            "# achilles-sweep cache v1\nk|armed|confirmed|g/confirmed/\n",
            "# achilles-sweep cache v3\ns::w@none|armed|confirmed|g/confirmed/\n",
        ] {
            let err = SweepCache::from_text(stale).expect_err("stale header must error");
            assert_eq!(err.line, 1, "{stale:?}");
            assert!(
                err.reason.contains("v4"),
                "names the expected version: {err}"
            );
        }
        // A zero-byte file stays an empty cache, matching the
        // missing-file path of `load`.
        assert!(SweepCache::from_text("").unwrap().is_empty());
    }

    #[test]
    fn malformed_cells_are_line_numbered_hard_errors() {
        let truncated = format!("{HEADER}\n\ngarbage\n");
        let err = SweepCache::from_text(&truncated).expect_err("truncated cell must error");
        assert_eq!(err.line, 3, "blank lines still count toward numbering");
        assert!(err.reason.contains("truncated"), "{err}");

        let bad_key = format!("{HEADER}\nno-separators|armed|confirmed|g/confirmed/\n");
        let err = SweepCache::from_text(&bad_key).expect_err("key without :: or @ must error");
        assert_eq!(err.line, 2);

        // The schedule's `@` must follow the scope's `::`: no writer puts
        // one before it, and such a key could never be looked up.
        let misplaced = format!("{HEADER}\ns@none::w|armed|confirmed|g/confirmed/\n");
        let err = SweepCache::from_text(&misplaced).expect_err("@ before :: must error");
        assert_eq!(err.line, 2);
        assert!(err.reason.contains("malformed cell key"), "{err}");

        let bad_class = format!("{HEADER}\ns::w@none|bogus|confirmed|g/confirmed/\n");
        let err = SweepCache::from_text(&bad_class).expect_err("unknown class must error");
        assert!(err.reason.contains("bogus"), "{err}");
    }

    #[test]
    fn save_is_atomic_and_load_reports_malformed_files() {
        let dir = std::env::temp_dir().join(format!("achilles-sweep-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.sweep");
        let mut cache = SweepCache::new();
        cache.insert(
            "g/s",
            &witness(),
            &drop0(),
            CachedCell {
                class: ScheduleClass::Armed,
                verdict: ReplayVerdict::ConfirmedTrojan,
                signature: CrashSignature::for_session(
                    "g",
                    ReplayVerdict::ConfirmedTrojan,
                    2,
                    vec![],
                ),
            },
        );
        cache.save(&path).unwrap();
        // The temp file never survives a completed save.
        assert!(!dir.join("t.sweep.tmp").exists());
        assert_eq!(SweepCache::load(&path).unwrap().len(), 1);

        std::fs::write(&path, format!("{HEADER}\ntruncated\n")).unwrap();
        let err = SweepCache::load(&path).expect_err("malformed file must not load silently");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalidation_is_scoped_to_exactly_the_bumped_keys() {
        let cell = || CachedCell {
            class: ScheduleClass::Armed,
            verdict: ReplayVerdict::ConfirmedTrojan,
            signature: CrashSignature::for_session("g", ReplayVerdict::ConfirmedTrojan, 2, vec![]),
        };
        let other = SessionWitness {
            index: 1,
            server_path_id: 0,
            fields: vec![vec![9, 9], vec![9]],
            wire: vec![vec![9, 9], vec![9]],
        };
        let mut cache = SweepCache::new();
        cache.insert("g/a", &witness(), &drop0(), cell());
        cache.insert("g/a", &witness(), &FaultSchedule::none(), cell());
        cache.insert("g/a", &other, &drop0(), cell());
        cache.insert("g/b", &witness(), &drop0(), cell());

        // Witness-level: exactly that witness's cells, baseline included.
        let extracted = cache.extract_witness("g/a", &witness());
        assert_eq!(extracted.len(), 2);
        let mut bumped = cache.clone();
        assert_eq!(bumped.invalidate_witness("g/a", &witness()), 2);
        assert!(bumped.get("g/a", &other, &drop0()).is_some());
        assert!(bumped.get("g/b", &witness(), &drop0()).is_some());

        // Scope-level: every witness of the scope, no neighbor scopes.
        let mut bumped = cache.clone();
        assert_eq!(bumped.invalidate_scope("g/a"), 3);
        assert_eq!(bumped.len(), 1);

        // Prefix extraction shards a store by target.
        assert_eq!(cache.extract_scope_prefix("g/").len(), 4);
        assert_eq!(cache.extract_scope_prefix("h/").len(), 0);

        // Merge re-absorbs an extract.
        let mut merged = bumped;
        merged.merge(extracted);
        assert_eq!(merged.len(), 3);
    }

    #[test]
    fn text_sorts_full_keys_not_scopes() {
        // As strings `a/b2::` sorts before `a/b::` (`2` < `:`), while a
        // scope-by-scope walk would put `a/b` first: the text form keeps
        // the full-key order every earlier writer produced.
        let mut cache = SweepCache::new();
        for scope in ["a/b", "a/b2"] {
            cache.insert(
                scope,
                &witness(),
                &drop0(),
                CachedCell {
                    class: ScheduleClass::Disarmed,
                    verdict: ReplayVerdict::Dropped,
                    signature: CrashSignature::for_session("a", ReplayVerdict::Dropped, 2, vec![]),
                },
            );
        }
        let text = cache.to_text();
        let scopes: Vec<&str> = text
            .lines()
            .skip(1)
            .filter_map(|line| line.split_once("::").map(|(scope, _)| scope))
            .collect();
        assert_eq!(scopes, ["a/b2", "a/b"]);
        let back = SweepCache::from_text(&text).expect("round-trip text parses");
        assert_eq!(back.to_text(), text);
        assert!(back.get("a/b2", &witness(), &drop0()).is_some());
    }

    #[test]
    fn bulk_operations_visit_only_the_addressed_cells() {
        let cell = || CachedCell {
            class: ScheduleClass::Armed,
            verdict: ReplayVerdict::ConfirmedTrojan,
            signature: CrashSignature::for_session("g", ReplayVerdict::ConfirmedTrojan, 2, vec![]),
        };
        let mut cache = SweepCache::new();
        cache.insert("g/a", &witness(), &drop0(), cell());
        cache.insert("g/a", &witness(), &FaultSchedule::none(), cell());
        // Unrelated cells: other scopes, and other witnesses of this one.
        for i in 0..50u64 {
            let other = SessionWitness {
                index: 1,
                server_path_id: 0,
                fields: vec![vec![i], vec![i]],
                wire: vec![vec![0], vec![0]],
            };
            cache.insert("g/a", &other, &drop0(), cell());
            cache.insert(&format!("h/{i}"), &witness(), &drop0(), cell());
        }
        assert_eq!(cache.cells_visited(), 0, "inserts are point operations");
        let _ = cache.get("g/a", &witness(), &drop0());
        assert_eq!(cache.cells_visited(), 0, "lookups are point operations");

        let extract = cache.extract_witness("g/a", &witness());
        assert_eq!(cache.cells_visited(), 2);
        assert_eq!(cache.invalidate_witness("g/a", &witness()), 2);
        assert_eq!(cache.cells_visited(), 4);
        assert_eq!(
            cache.missing("g/a", &witness(), &[drop0()]),
            2,
            "an evicted witness misses its baseline and every schedule"
        );
        cache.merge(extract);
        assert_eq!(cache.cells_visited(), 6);
        assert_eq!(cache.missing("g/a", &witness(), &[drop0()]), 0);
        assert_eq!(cache.invalidate_scope("h/7"), 1);
        assert_eq!(cache.cells_visited(), 7);
        assert_eq!(cache.len(), 101);
    }
}
