//! Property tests for the text formats the service parses from its
//! clients: fleetd request lines and session witness records. Neither
//! parser may panic on any input, a rejected request names a class from
//! the error counter's closed vocabulary, and every witness record parses
//! back to the slots it was rendered from.

use achilles::{parse_session_witness_record, session_witness_record};
use achilles_fleetd::{parse_request, MAX_LINE_BYTES};
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
