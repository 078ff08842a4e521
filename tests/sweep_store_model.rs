//! Model check of the sweep store: random sequences of store operations
//! run against [`SweepCache`] and against a flat
//! `BTreeMap<(scope, record, token), CachedCell>` reference, and after
//! every step the two must agree on the text form, the cell count, every
//! point lookup and every `missing` count.
//!
//! The store is nested scope → witness record → schedule token, and every
//! bulk operation walks only the part it addresses. A flat map keyed by
//! the three parts is the obvious specification of the same store, so any
//! operation that loses, keeps or misfiles a cell shows up as a
//! disagreement.

use std::collections::BTreeMap;

use achilles::export::session_witness_record;
use achilles_replay::{
    CrashSignature, DeliveryFault, FaultSchedule, ReplayVerdict, SessionWitness,
};
use achilles_sweep::{schedule_token, CachedCell, ScheduleClass, SweepCache};
use proptest::prelude::*;

/// Scopes, two of which share the `fsp/` prefix.
const SCOPES: &[&str] = &["fsp/login-command", "fsp/other", "gossip/seed-sync-read"];

/// Scope prefixes `extract_scope_prefix` is asked for (the empty prefix
/// selects everything).
const PREFIXES: &[&str] = &["fsp/", "gossip/", "", "twopc/", "fsp/login-command"];

/// Per-slot witness fields: one- and multi-slot records, two of which
/// share every field but differ in where the slots split.
fn witnesses() -> Vec<SessionWitness> {
    [
        vec![vec![1, 2], vec![3]],
        vec![vec![1], vec![2, 3]],
        vec![vec![1, 2, 3]],
        vec![vec![u64::MAX]],
    ]
    .into_iter()
    .map(|fields| SessionWitness {
        index: 0,
        server_path_id: 0,
        fields,
        wire: Vec::new(),
    })
    .collect()
}

/// Schedules, the fault-free baseline among them.
fn schedules() -> Vec<FaultSchedule> {
    let drop = DeliveryFault {
        drop: true,
        ..DeliveryFault::none()
    };
    let dup_flip = DeliveryFault {
        duplicate: true,
        flip_bit: Some(5),
        ..DeliveryFault::none()
    };
    let benign = DeliveryFault {
        benign_before: true,
        ..DeliveryFault::none()
    };
    vec![
        FaultSchedule::none(),
        FaultSchedule::none().with(0, drop),
        FaultSchedule::none().with(1, dup_flip),
        FaultSchedule::none().with(0, benign).with(1, drop),
    ]
}

/// Cell values: every class, several verdicts, and signatures with and
/// without effects.
fn cells() -> Vec<CachedCell> {
    let sig = |system: &str, verdict, slots, effects: &[&str]| {
        CrashSignature::for_session(
            system,
            verdict,
            slots,
            effects.iter().map(|e| e.to_string()).collect(),
        )
    };
    vec![
        CachedCell {
            class: ScheduleClass::Armed,
            verdict: ReplayVerdict::ConfirmedTrojan,
            signature: sig(
                "fsp",
                ReplayVerdict::ConfirmedTrojan,
                2,
                &["login:ok", "reply:ok"],
            ),
        },
        CachedCell {
            class: ScheduleClass::Disarmed,
            verdict: ReplayVerdict::Rejected,
            signature: sig("fsp", ReplayVerdict::Rejected, 2, &[]),
        },
        CachedCell {
            class: ScheduleClass::Masked,
            verdict: ReplayVerdict::Dropped,
            signature: sig("gossip", ReplayVerdict::Dropped, 3, &["resolve:miss"]),
        },
        CachedCell {
            class: ScheduleClass::NewSignature,
            verdict: ReplayVerdict::ConfirmedTrojan,
            signature: sig(
                "gossip",
                ReplayVerdict::ConfirmedTrojan,
                1,
                &["crash:status-table-oob"],
            ),
        },
        CachedCell {
            class: ScheduleClass::Diverged,
            verdict: ReplayVerdict::ConfirmedTrojan,
            signature: sig(
                "shardexec",
                ReplayVerdict::ConfirmedTrojan,
                3,
                &["diverge:at:0", "diverge:root:b:1"],
            ),
        },
    ]
}

/// One cell address plus a value, as indices into the universes above.
type CellPick = (usize, usize, usize, usize);

/// One store operation.
#[derive(Clone, Debug)]
enum Op {
    Insert(CellPick),
    ExtractWitness {
        scope: usize,
        witness: usize,
    },
    ExtractScopePrefix {
        prefix: usize,
    },
    InvalidateWitness {
        scope: usize,
        witness: usize,
    },
    InvalidateScope {
        scope: usize,
    },
    /// Merges a cache built from these inserts, in order.
    Merge(Vec<CellPick>),
    RoundTrip,
}

fn cell_pick() -> impl Strategy<Value = CellPick> {
    (0..SCOPES.len(), 0usize..4, 0usize..4, 0usize..5)
}

fn op() -> BoxedStrategy<Op> {
    prop_oneof![
        cell_pick().prop_map(Op::Insert),
        cell_pick().prop_map(Op::Insert),
        (0..SCOPES.len(), 0usize..4)
            .prop_map(|(scope, witness)| Op::ExtractWitness { scope, witness }),
        (0..PREFIXES.len()).prop_map(|prefix| Op::ExtractScopePrefix { prefix }),
        (0..SCOPES.len(), 0usize..4)
            .prop_map(|(scope, witness)| Op::InvalidateWitness { scope, witness }),
        (0..SCOPES.len()).prop_map(|scope| Op::InvalidateScope { scope }),
        prop::collection::vec(cell_pick(), 0..6).prop_map(Op::Merge),
        (0usize..1).prop_map(|_| Op::RoundTrip),
    ]
}

/// The reference store: one flat map over the three key parts.
type Model = BTreeMap<(String, String, String), CachedCell>;

/// The full text form of `model`, rendered independently of the store:
/// the version header, then one line per cell sorted by the joined key.
fn render(model: &Model) -> String {
    let mut rows: Vec<(String, &CachedCell)> = model
        .iter()
        .map(|((scope, record, token), cell)| (format!("{scope}::{record}@{token}"), cell))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = SweepCache::new().to_text();
    for (key, cell) in rows {
        out.push_str(&format!(
            "{key}|{}|{}|{}\n",
            cell.class,
            cell.verdict.as_str(),
            cell.signature.to_line()
        ));
    }
    out
}

/// The cells of `model` that `keep` selects.
fn select(model: &Model, keep: impl Fn(&str, &str) -> bool) -> Model {
    model
        .iter()
        .filter(|((scope, record, _), _)| keep(scope, record))
        .map(|(key, cell)| (key.clone(), cell.clone()))
        .collect()
}

/// Checks that `store` and `model` agree on every observation.
fn agree(
    store: &SweepCache,
    model: &Model,
    witnesses: &[SessionWitness],
    schedules: &[FaultSchedule],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(store.len(), model.len());
    prop_assert_eq!(store.to_text(), render(model));
    for scope in SCOPES {
        for witness in witnesses {
            let record = session_witness_record(&witness.fields);
            let has =
                |token: String| model.contains_key(&(scope.to_string(), record.clone(), token));
            for schedule in schedules {
                let key = (scope.to_string(), record.clone(), schedule_token(schedule));
                prop_assert_eq!(store.get(scope, witness, schedule), model.get(&key));
            }
            let missing = usize::from(!has(schedule_token(&FaultSchedule::none())))
                + schedules
                    .iter()
                    .filter(|schedule| !has(schedule_token(schedule)))
                    .count();
            prop_assert_eq!(store.missing(scope, witness, schedules), missing);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After every operation of a random sequence, the nested store and
    /// the flat reference agree; extracts equal the reference's selection
    /// and invalidations drop exactly the reference's count.
    #[test]
    fn sweep_store_matches_a_flat_reference(ops in prop::collection::vec(op(), 1..40)) {
        let (witnesses, schedules, cells) = (witnesses(), schedules(), cells());
        let key = |&(scope, witness, schedule, _): &CellPick| {
            (
                SCOPES[scope].to_string(),
                session_witness_record(&witnesses[witness].fields),
                schedule_token(&schedules[schedule]),
            )
        };
        let mut store = SweepCache::new();
        let mut model = Model::new();
        for op in &ops {
            match op {
                Op::Insert(pick) => {
                    let (scope, witness, schedule, cell) = *pick;
                    store.insert(
                        SCOPES[scope],
                        &witnesses[witness],
                        &schedules[schedule],
                        cells[cell].clone(),
                    );
                    model.insert(key(pick), cells[cell].clone());
                }
                Op::ExtractWitness { scope, witness } => {
                    let extract = store.extract_witness(SCOPES[*scope], &witnesses[*witness]);
                    let record = session_witness_record(&witnesses[*witness].fields);
                    let expected = select(&model, |s, r| s == SCOPES[*scope] && r == record);
                    prop_assert_eq!(extract.len(), expected.len());
                    prop_assert_eq!(extract.to_text(), render(&expected));
                }
                Op::ExtractScopePrefix { prefix } => {
                    let extract = store.extract_scope_prefix(PREFIXES[*prefix]);
                    let expected = select(&model, |s, _| s.starts_with(PREFIXES[*prefix]));
                    prop_assert_eq!(extract.len(), expected.len());
                    prop_assert_eq!(extract.to_text(), render(&expected));
                }
                Op::InvalidateWitness { scope, witness } => {
                    let record = session_witness_record(&witnesses[*witness].fields);
                    let before = model.len();
                    model.retain(|(s, r, _), _| !(s == SCOPES[*scope] && *r == record));
                    let dropped = store.invalidate_witness(SCOPES[*scope], &witnesses[*witness]);
                    prop_assert_eq!(dropped, before - model.len());
                }
                Op::InvalidateScope { scope } => {
                    let before = model.len();
                    model.retain(|(s, _, _), _| s != SCOPES[*scope]);
                    prop_assert_eq!(store.invalidate_scope(SCOPES[*scope]), before - model.len());
                }
                Op::Merge(picks) => {
                    let mut other = SweepCache::new();
                    for pick in picks {
                        let (scope, witness, schedule, cell) = *pick;
                        other.insert(
                            SCOPES[scope],
                            &witnesses[witness],
                            &schedules[schedule],
                            cells[cell].clone(),
                        );
                        model.insert(key(pick), cells[cell].clone());
                    }
                    store.merge(other);
                }
                Op::RoundTrip => {
                    store = SweepCache::from_text(&store.to_text())
                        .map_err(|e| TestCaseError::fail(e.to_string()))?;
                }
            }
            agree(&store, &model, &witnesses, &schedules)?;
        }
    }
}
