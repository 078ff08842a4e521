//! Property tests for the text formats the service parses: fleetd
//! request lines and session witness records from its clients, and the
//! two on-disk stores it loads at start — the replay corpus (v3) and the
//! sweep cache (v4). No parser may panic on any input, a rejected request
//! names a class from the error counter's closed vocabulary, a rejected
//! store names a line of the text it was given, and every witness record
//! and every store parses back to what it was rendered from.

use achilles::{parse_session_witness_record, session_witness_record};
use achilles_fleetd::{parse_request, MAX_LINE_BYTES};
use achilles_replay::{
    CorpusEntry, CrashSignature, DeliveryFault, FaultSchedule, ReplayCorpus, ReplayVerdict,
    SessionWitness,
};
use achilles_sweep::{CachedCell, ScheduleClass, SweepCache};
use proptest::prelude::*;

/// Every class a request parse failure may carry
/// (`achilles_fleetd_errors_total{class=...}`).
const ERROR_CLASSES: &[&str] = &[
    "oversize",
    "empty",
    "unknown-verb",
    "arity",
    "scope",
    "witness-id",
    "schedule-class",
];

/// Well-formed request lines covering every verb and argument shape.
const VALID_REQUESTS: &[&str] = &[
    "HELLO",
    "STATS",
    "METRICS",
    "DRAIN",
    "SAVE",
    "SHUTDOWN",
    "REGISTER gossip",
    "RECAMPAIGN fsp",
    "EPOCH twopc",
    "INGEST gossip/seed-sync-read 3,150/68/7",
    "EVICT fsp/login-command 1,2/3",
    "QUERY fsp",
    "QUERY fsp 3",
    "QUERY fsp * armed",
    "QUERY shardexec 0 diverged",
];

/// Characters of witness records and of their near misses: runs of
/// digits can overflow `u64`, and signs, spaces and tabs probe the field
/// parser's edges.
const RECORD_ALPHABET: &[u8] = b"0123456789,/ +-x\t";

/// Characters of store files and of their near misses: the separators of
/// both formats, digits, letters of the headers and vocabularies, and
/// whitespace, carriage returns and a multi-byte character for the line
/// handling.
const STORE_ALPHABET: &[char] = &[
    '#', ' ', '\t', '\r', '\n', '|', '/', ':', '@', ';', ',', '+', '-', '0', '1', '4', '9', 'a',
    'c', 'd', 'e', 'f', 'm', 'o', 'p', 'r', 's', 'v', 'é',
];

/// Characters of effect strings: the separators the signature form
/// sanitizes or splits on, and whitespace.
const EFFECT_ALPHABET: &[char] = &[
    'a', 'b', ':', '-', '+', '/', '@', ';', '|', '\n', '\r', ' ', '\t', '0', '9',
];

/// Replay verdicts, by index.
const VERDICTS: [ReplayVerdict; 4] = [
    ReplayVerdict::ConfirmedTrojan,
    ReplayVerdict::AcceptedGenerable,
    ReplayVerdict::Rejected,
    ReplayVerdict::Dropped,
];

/// Schedule classes, by index.
const CLASSES: [ScheduleClass; 5] = [
    ScheduleClass::Armed,
    ScheduleClass::Diverged,
    ScheduleClass::Disarmed,
    ScheduleClass::Masked,
    ScheduleClass::NewSignature,
];

/// Target names a signature carries, and `target/session` scopes.
const SYSTEMS: &[&str] = &["fsp", "twopc", "gossip", "shardexec"];
const SCOPES: &[&str] = &[
    "fsp/login-command",
    "gossip/seed-sync-read",
    "twopc/vote-decide",
];

/// A signature as drawn: system, verdict, slot count, effects.
type SignaturePick = (usize, usize, usize, Vec<String>);

/// A sweep cell as drawn: scope, witness slots, per-slot fault bits
/// (drop, duplicate, benign-before, flip-enable, then the flipped bit in
/// the high nibble), class, verdict and signature.
type CellPick = (usize, Vec<Vec<u64>>, Vec<u8>, usize, usize, SignaturePick);

/// A corpus entry as drawn: signature, witness slots, and essential
/// `(slot, field)` picks (reduced into range).
type EntryPick = (SignaturePick, Vec<Vec<u64>>, Vec<(usize, usize)>);

fn text_from(alphabet: &[char], picks: &[usize]) -> String {
    picks.iter().map(|&c| alphabet[c]).collect()
}

fn signature_pick() -> impl Strategy<Value = SignaturePick> {
    (
        0..SYSTEMS.len(),
        0..VERDICTS.len(),
        1usize..=3,
        prop::collection::vec(
            prop::collection::vec(0..EFFECT_ALPHABET.len(), 0..6)
                .prop_map(|picks| text_from(EFFECT_ALPHABET, &picks)),
            0..4,
        ),
    )
}

fn slots_pick() -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(prop::collection::vec(any::<u64>(), 1..=4), 1..=3)
}

fn cell_pick() -> impl Strategy<Value = CellPick> {
    (
        0..SCOPES.len(),
        slots_pick(),
        prop::collection::vec(any::<u8>(), 0..=3),
        0..CLASSES.len(),
        0..VERDICTS.len(),
        signature_pick(),
    )
}

fn entry_pick() -> impl Strategy<Value = EntryPick> {
    (
        signature_pick(),
        slots_pick(),
        prop::collection::vec((0usize..8, 0usize..8), 0..4),
    )
}

fn signature((system, verdict, slots, effects): &SignaturePick) -> CrashSignature {
    CrashSignature::for_session(
        SYSTEMS[*system],
        VERDICTS[*verdict],
        *slots,
        effects.clone(),
    )
}

/// The sweep cache holding every drawn cell (later draws of one key win).
fn sweep_cache(picks: &[CellPick]) -> SweepCache {
    let mut cache = SweepCache::new();
    for (scope, slots, faults, class, verdict, sig) in picks {
        let witness = SessionWitness {
            index: 0,
            server_path_id: 0,
            fields: slots.clone(),
            wire: Vec::new(),
        };
        let schedule = FaultSchedule {
            slots: faults
                .iter()
                .map(|&bits| DeliveryFault {
                    drop: bits & 1 != 0,
                    duplicate: bits & 2 != 0,
                    benign_before: bits & 4 != 0,
                    flip_bit: (bits & 8 != 0).then_some(usize::from(bits >> 4)),
                })
                .collect(),
        };
        let cell = CachedCell {
            class: CLASSES[*class],
            verdict: VERDICTS[*verdict],
            signature: signature(sig),
        };
        cache.insert(SCOPES[*scope], &witness, &schedule, cell);
    }
    cache
}

/// The corpus holding every drawn entry (a repeated witness is skipped).
fn corpus(picks: &[EntryPick]) -> ReplayCorpus {
    let mut corpus = ReplayCorpus::new();
    for (sig, slots, essential) in picks {
        let essential: Vec<(usize, usize)> = essential
            .iter()
            .map(|&(slot, field)| {
                let slot = slot % slots.len();
                (slot, field % slots[slot].len())
            })
            .collect();
        corpus.insert(CorpusEntry::session(signature(sig), slots, &essential));
    }
    corpus
}

/// Applies one byte-level mutation to `text`: flip one bit of a byte, drop
/// a byte, duplicate a line, or truncate (`op` 0–3). Bytes that stop
/// being UTF-8 are replaced, as a reader decoding lossily would.
fn mutate_bytes(text: &str, op: u8, at: usize, bit: u8) -> String {
    let mut bytes = text.as_bytes().to_vec();
    if bytes.is_empty() {
        return String::new();
    }
    let at = at % bytes.len();
    match op {
        0 => bytes[at] ^= 1 << (bit % 8),
        1 => {
            bytes.remove(at);
        }
        2 => {
            let lines: Vec<&str> = text.split_inclusive('\n').collect();
            let line = lines[at % lines.len()];
            let mut doubled = lines.concat();
            let start = lines[..at % lines.len()].concat().len();
            doubled.insert_str(start, line);
            return doubled;
        }
        _ => bytes.truncate(at),
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Checks that both store parsers take `text` without panicking, and that
/// each rejection names a line of it.
fn check_store_text(text: &str) -> Result<(), TestCaseError> {
    let lines = text.lines().count();
    if let Err(e) = ReplayCorpus::from_text(text) {
        prop_assert!(
            (1..=lines).contains(&e.line),
            "corpus error on line {} of {}: {}",
            e.line,
            lines,
            e
        );
    }
    if let Err(e) = SweepCache::from_text(text) {
        prop_assert!(
            (1..=lines).contains(&e.line),
            "sweep cache error on line {} of {}: {}",
            e.line,
            lines,
            e
        );
    }
    Ok(())
}

/// Checks that a store's text parses back and re-renders byte-identically.
fn check_round_trip(sweep: &SweepCache, corpus: &ReplayCorpus) -> Result<(), TestCaseError> {
    let text = sweep.to_text();
    let reloaded = SweepCache::from_text(&text).map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert_eq!(reloaded.to_text(), text);
    let text = corpus.to_text();
    let reloaded =
        ReplayCorpus::from_text(&text).map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert_eq!(reloaded.to_text(), text);
    Ok(())
}

/// Checks that `line` parses without panicking and, if rejected, under a
/// known class.
fn check_request(line: &str) -> Result<(), TestCaseError> {
    if let Err(e) = parse_request(line) {
        prop_assert!(
            ERROR_CLASSES.contains(&e.class),
            "class {:?} for {:?}",
            e.class,
            line
        );
    }
    Ok(())
}

/// Applies one mutation to a request line: drop, duplicate or swap words
/// (`op` 0–2), or flip one of a byte's seven low bits (`op` 3, so the line
/// stays ASCII).
fn mutate(line: &str, op: u8, i: usize, j: usize, bit: u8) -> String {
    let mut words: Vec<&str> = line.split(' ').collect();
    let n = words.len();
    match op {
        0 => {
            words.remove(i % n);
        }
        1 => words.insert(i % n, words[i % n]),
        2 => words.swap(i % n, j % n),
        _ => {
            let mut bytes = line.as_bytes().to_vec();
            let k = i % bytes.len();
            bytes[k] ^= 1 << (bit % 7);
            return String::from_utf8(bytes).expect("ASCII stays UTF-8");
        }
    }
    words.join(" ")
}

/// The cases the round-trip property found: a sweep cell's signature is
/// the last field of its line, so an effect ending in whitespace was cut
/// by the line trim, and one ending in a carriage return was read as part
/// of the `\r\n` line break.
#[test]
fn store_text_keeps_trailing_whitespace_and_carriage_returns() {
    for effect in ["-9 ", "a\t", "a \r", "\r"] {
        let cell: CellPick = (
            0,
            vec![vec![1]],
            vec![],
            0,
            0,
            (0, 0, 1, vec![effect.into()]),
        );
        let entry: EntryPick = ((0, 0, 1, vec![effect.into()]), vec![vec![1]], vec![]);
        check_round_trip(&sweep_cache(&[cell]), &corpus(&[entry]))
            .unwrap_or_else(|e| panic!("effect {effect:?}: {e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary ASCII lines up to the line bound never panic the parser.
    #[test]
    fn arbitrary_request_lines_parse_or_reject_by_class(
        bytes in prop::collection::vec(0u8..128, 0..=MAX_LINE_BYTES),
    ) {
        check_request(std::str::from_utf8(&bytes).expect("ASCII is UTF-8"))?;
    }

    /// Valid request lines with one word dropped, duplicated or swapped, or
    /// one byte flipped, parse or reject by class.
    #[test]
    fn mutated_request_lines_parse_or_reject_by_class(
        which in 0usize..VALID_REQUESTS.len(),
        op in 0u8..4,
        i in 0usize..64,
        j in 0usize..64,
        bit in 0u8..7,
    ) {
        let valid = VALID_REQUESTS[which];
        prop_assert!(parse_request(valid).is_ok(), "{:?} is well formed", valid);
        check_request(&mutate(valid, op, i, j, bit))?;
    }

    /// Rendering 1–4 slots of 0–6 fields and parsing the record back is
    /// the identity.
    #[test]
    fn session_witness_records_round_trip(
        slots in prop::collection::vec(prop::collection::vec(any::<u64>(), 0..=6), 1..=4),
    ) {
        let record = session_witness_record(&slots);
        prop_assert_eq!(parse_session_witness_record(&record), Some(slots.clone()));
    }

    /// Arbitrary store text — bare, or behind either store's version
    /// header so the cell parsers see it — never panics either parser,
    /// and every rejection names a line of the text.
    #[test]
    fn arbitrary_store_text_parses_or_names_a_line(
        header in 0usize..3,
        chars in prop::collection::vec(0usize..STORE_ALPHABET.len(), 0..160),
    ) {
        let mut text = match header {
            0 => String::new(),
            1 => ReplayCorpus::new().to_text(),
            _ => SweepCache::new().to_text(),
        };
        text.push_str(&text_from(STORE_ALPHABET, &chars));
        check_store_text(&text)?;
    }

    /// Valid store text with one byte flipped or dropped, a line doubled,
    /// or the tail cut off never panics either parser, and every
    /// rejection names a line of the text.
    #[test]
    fn mutated_store_text_parses_or_names_a_line(
        cells in prop::collection::vec(cell_pick(), 1..6),
        entries in prop::collection::vec(entry_pick(), 1..6),
        op in 0u8..4,
        at in any::<usize>(),
        bit in 0u8..8,
    ) {
        check_store_text(&mutate_bytes(&sweep_cache(&cells).to_text(), op, at, bit))?;
        check_store_text(&mutate_bytes(&corpus(&entries).to_text(), op, at, bit))?;
    }

    /// Stores built from random cells and entries render to text that
    /// parses back and re-renders byte-identically.
    #[test]
    fn store_text_round_trips_byte_identically(
        cells in prop::collection::vec(cell_pick(), 0..12),
        entries in prop::collection::vec(entry_pick(), 0..12),
    ) {
        check_round_trip(&sweep_cache(&cells), &corpus(&entries))?;
    }

    /// The record parser never panics on arbitrary text, and whatever it
    /// accepts re-renders to a record that parses to the same slots.
    #[test]
    fn arbitrary_witness_records_never_panic(
        chars in prop::collection::vec(0usize..RECORD_ALPHABET.len(), 0..48),
    ) {
        let text: String = chars.iter().map(|&c| char::from(RECORD_ALPHABET[c])).collect();
        if let Some(slots) = parse_session_witness_record(&text) {
            let again = parse_session_witness_record(&session_witness_record(&slots));
            prop_assert_eq!(again, Some(slots.clone()));
        }
    }
}
