//! Sensitivity classification and the per-witness [`SensitivityMatrix`].
//!
//! A campaign replays one witness under many schedules and asks, per
//! schedule: did the fault leave the Trojan armed (or *diverged*, when
//! the reproduced detonation is a silent multi-node root split rather
//! than a crash), disarm it, mask the question, or change the failure
//! into something new? The answer comes
//! from diffing the faulted replay's slot-aware
//! [`CrashSignature`](achilles_replay::CrashSignature) against the
//! fault-free baseline's — trustworthy precisely because
//! `SessionReplayResult::applied` records the faults that actually
//! touched the wire (an out-of-range flip can never masquerade as a
//! survived fault).
//!
//! The matrix serializes to a line-oriented text report through the
//! shared `achilles::export` vocabulary
//! ([`session_witness_record`](achilles::export::session_witness_record)
//! for the witness line), so sweep artifacts round-trip with the same
//! records the replay corpus uses.

use std::fmt::Write;

use achilles::export::session_witness_record;
use achilles_replay::{
    CrashSignature, DeliveryFault, FaultSchedule, ReplayVerdict, SessionReplayResult,
    SessionWitness,
};

/// What one fault schedule did to one witness, relative to the fault-free
/// baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScheduleClass {
    /// The session still confirms as a Trojan with the baseline's exact
    /// crash signature: the fault does not defuse it.
    Armed,
    /// [`Armed`](ScheduleClass::Armed), and the detonation is a *silent
    /// multi-node split*: the baseline's signature carries a
    /// `diverge:at:` marker (replicas of the same state ended the run
    /// with different roots, nobody crashed) and the fault reproduces it
    /// exactly. Split out from `Armed` because the operational response
    /// differs — a crash pages someone, a divergence corrupts reads until
    /// an anti-entropy pass happens to notice.
    Diverged,
    /// The fault neutralized the Trojan: the session was rejected, became
    /// benign (e.g. a bit flip pulled the poison back into the legal
    /// domain), or the schedule dropped an arming slot outright.
    Disarmed,
    /// The schedule dropped a slot that was *not* arming the Trojan and
    /// the incomplete replay carries no evidence of the Trojan's failure:
    /// the replay proves nothing either way.
    Masked,
    /// The Trojan's failure still fired, with a crash signature different
    /// from the baseline's — either the session still confirms (a fault
    /// changed or re-armed the failure mode, the paper's S3 bit-flip
    /// shape), or a non-arming slot was dropped yet the delivered poison
    /// detonated anyway (every baseline failure marker survives in the
    /// faulted effects).
    NewSignature,
}

impl ScheduleClass {
    /// Stable report/cache-form name.
    pub fn as_str(self) -> &'static str {
        match self {
            ScheduleClass::Armed => "armed",
            ScheduleClass::Diverged => "diverged",
            ScheduleClass::Disarmed => "disarmed",
            ScheduleClass::Masked => "masked",
            ScheduleClass::NewSignature => "new-signature",
        }
    }

    /// Parses the [`ScheduleClass::as_str`] form.
    pub fn parse(s: &str) -> Option<ScheduleClass> {
        Some(match s {
            "armed" => ScheduleClass::Armed,
            "diverged" => ScheduleClass::Diverged,
            "disarmed" => ScheduleClass::Disarmed,
            "masked" => ScheduleClass::Masked,
            "new-signature" => ScheduleClass::NewSignature,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ScheduleClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// The baseline facts one witness's classifications are judged against —
/// exactly what the fault-free replay establishes, in a form a
/// [`SweepCache`](crate::SweepCache) entry can reconstruct.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Baseline {
    /// The fault-free replay's verdict.
    pub verdict: ReplayVerdict,
    /// The fault-free replay's slot-aware crash signature.
    pub signature: CrashSignature,
    /// The slots the fault-free replay attributes the Trojan to.
    pub trojan_slots: Vec<usize>,
}

impl Baseline {
    /// The baseline facts of a fault-free replay result.
    pub fn of(result: &SessionReplayResult) -> Baseline {
        Baseline {
            verdict: result.verdict,
            signature: result.signature.clone(),
            trojan_slots: result.trojan_slots.clone(),
        }
    }

    /// Rebuilds a baseline from its cached verdict + signature: the slot
    /// attribution rides in the signature's `trojan-slot:<N>` effect
    /// markers, which [`replay_session`](achilles_replay::replay_session)
    /// folds in for every delivered un-generable slot.
    pub fn from_signature(verdict: ReplayVerdict, signature: CrashSignature) -> Baseline {
        let mut trojan_slots: Vec<usize> = signature
            .effects
            .iter()
            .filter_map(|e| e.strip_prefix("trojan-slot:")?.parse().ok())
            .collect();
        trojan_slots.sort_unstable();
        trojan_slots.dedup();
        Baseline {
            verdict,
            signature,
            trojan_slots,
        }
    }

    /// The baseline's *failure markers*: the effect notes that name the
    /// concrete failure itself (`crash:` / `family:` / `leak:` prefixes —
    /// the triage-family convention every shipped deployment follows —
    /// plus the `diverge:` markers of a silent multi-node split), as
    /// opposed to delivery bookkeeping like `seed:stored`.
    fn failure_markers(&self) -> impl Iterator<Item = &String> {
        self.signature.effects.iter().filter(|e| {
            ["crash:", "family:", "leak:", "diverge:"]
                .iter()
                .any(|p| e.starts_with(p))
        })
    }
}

/// Classifies one faulted replay against the fault-free baseline of the
/// same witness.
pub fn classify(baseline: &Baseline, faulted: &SessionReplayResult) -> ScheduleClass {
    match faulted.verdict {
        ReplayVerdict::ConfirmedTrojan => {
            if baseline.verdict == ReplayVerdict::ConfirmedTrojan
                && faulted.signature == baseline.signature
            {
                // An exact reproduction of a silently-splitting baseline
                // is its own class: still armed, but the failure is a
                // multi-node root divergence, not a crash.
                if baseline.signature.diverged() {
                    ScheduleClass::Diverged
                } else {
                    ScheduleClass::Armed
                }
            } else {
                ScheduleClass::NewSignature
            }
        }
        ReplayVerdict::Dropped => {
            // Judged against the *applied* schedule: only drops that
            // actually happened count, and only drops of a slot the
            // baseline attributes the Trojan to disarm it.
            let dropped_arming = faulted
                .applied
                .slots
                .iter()
                .enumerate()
                .any(|(slot, fault)| fault.drop && baseline.trojan_slots.contains(&slot));
            if dropped_arming {
                return ScheduleClass::Disarmed;
            }
            // A non-arming slot was dropped, so the session-complete
            // verdict is unavailable — but the replay may still have
            // *proved* the fault does not defuse the Trojan: the poison
            // was delivered (an arming slot is still attributed) and every
            // baseline failure marker fired anyway. Discarding that
            // evidence as "masked" would under-report armedness.
            let poison_delivered = faulted
                .trojan_slots
                .iter()
                .any(|s| baseline.trojan_slots.contains(s));
            let mut markers = baseline.failure_markers().peekable();
            let evidence_survives =
                markers.peek().is_some() && markers.all(|m| faulted.signature.effects.contains(m));
            if poison_delivered && evidence_survives {
                ScheduleClass::NewSignature
            } else {
                ScheduleClass::Masked
            }
        }
        ReplayVerdict::Rejected | ReplayVerdict::AcceptedGenerable => ScheduleClass::Disarmed,
    }
}

/// Serializes a schedule as a compact, stable token: per-slot fault lists
/// joined by `,` (`"drop@s0,dup+flip17@s2"`), or `"none"` for the
/// fault-free schedule — the schedule half of a sweep-cache key.
pub fn schedule_token(schedule: &FaultSchedule) -> String {
    let mut token = String::new();
    for (slot, fault) in schedule.slots.iter().enumerate() {
        let part_start = token.len();
        if part_start > 0 {
            token.push(',');
        }
        let names_start = token.len();
        for (on, name) in [
            (fault.drop, "drop"),
            (fault.duplicate, "dup"),
            (fault.benign_before, "benign"),
        ] {
            if on {
                if token.len() > names_start {
                    token.push('+');
                }
                token.push_str(name);
            }
        }
        if let Some(bit) = fault.flip_bit {
            if token.len() > names_start {
                token.push('+');
            }
            let _ = write!(token, "flip{bit}");
        }
        if token.len() == names_start {
            token.truncate(part_start);
        } else {
            let _ = write!(token, "@s{slot}");
        }
    }
    if token.is_empty() {
        token.push_str("none");
    }
    token
}

/// Parses the [`schedule_token`] form back into a schedule.
///
/// Returns `None` on any malformed component.
pub fn parse_schedule_token(token: &str) -> Option<FaultSchedule> {
    if token == "none" {
        return Some(FaultSchedule::none());
    }
    let mut schedule = FaultSchedule::none();
    for part in token.split(',') {
        let (names, slot) = part.split_once("@s")?;
        let slot: usize = slot.parse().ok()?;
        let mut fault = DeliveryFault::none();
        for name in names.split('+') {
            match name {
                "drop" => fault.drop = true,
                "dup" => fault.duplicate = true,
                "benign" => fault.benign_before = true,
                _ => {
                    let bit = name.strip_prefix("flip")?;
                    fault.flip_bit = Some(bit.parse().ok()?);
                }
            }
        }
        schedule = schedule.with(slot, fault);
    }
    Some(schedule)
}

/// One (schedule → outcome) row of a sensitivity matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SensitivityCell {
    /// The replayed schedule (canonical form).
    pub schedule: FaultSchedule,
    /// Classification against the fault-free baseline.
    pub class: ScheduleClass,
    /// The faulted replay's verdict.
    pub verdict: ReplayVerdict,
    /// The faulted replay's slot-aware crash signature.
    pub signature: CrashSignature,
}

/// The per-witness triage artifact of a sweep campaign: every schedule's
/// classification against the fault-free baseline.
#[derive(Clone, Debug)]
pub struct SensitivityMatrix {
    /// The swept witness (pre-fault).
    pub witness: SessionWitness,
    /// The fault-free baseline's verdict.
    pub baseline_verdict: ReplayVerdict,
    /// The fault-free baseline's crash signature.
    pub baseline_signature: CrashSignature,
    /// The slots the fault-free replay attributes the Trojan to.
    pub baseline_trojan_slots: Vec<usize>,
    /// One cell per planned schedule, in plan order.
    pub cells: Vec<SensitivityCell>,
}

impl SensitivityMatrix {
    /// Number of cells with `class`.
    pub fn count(&self, class: ScheduleClass) -> usize {
        self.cells.iter().filter(|c| c.class == class).count()
    }

    /// The schedules classified [`ScheduleClass::Armed`], in plan order.
    pub fn armed(&self) -> impl Iterator<Item = &FaultSchedule> {
        self.schedules_of(ScheduleClass::Armed)
    }

    /// The schedules classified [`ScheduleClass::Diverged`], in plan
    /// order.
    pub fn diverged(&self) -> impl Iterator<Item = &FaultSchedule> {
        self.schedules_of(ScheduleClass::Diverged)
    }

    /// The schedules classified [`ScheduleClass::Disarmed`], in plan order.
    pub fn disarmed(&self) -> impl Iterator<Item = &FaultSchedule> {
        self.schedules_of(ScheduleClass::Disarmed)
    }

    /// The schedules classified `class`, in plan order.
    pub fn schedules_of(&self, class: ScheduleClass) -> impl Iterator<Item = &FaultSchedule> {
        self.cells
            .iter()
            .filter(move |c| c.class == class)
            .map(|c| &c.schedule)
    }

    /// Serializes the matrix as a line-oriented text report: a witness
    /// line (the shared
    /// [`session_witness_record`](achilles::export::session_witness_record)
    /// form), a baseline line, then one `token|class|verdict|signature`
    /// line per cell, in plan order.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "witness {}\n",
            session_witness_record(&self.witness.fields)
        ));
        out.push_str(&format!(
            "baseline {}|slots={}\n",
            self.baseline_signature.to_line(),
            self.baseline_trojan_slots
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(","),
        ));
        for cell in &self.cells {
            out.push_str(&format!(
                "{}|{}|{}|{}\n",
                schedule_token(&cell.schedule),
                cell.class,
                cell.verdict.as_str(),
                cell.signature.to_line(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(
        verdict: ReplayVerdict,
        effects: Vec<&str>,
        trojan_slots: Vec<usize>,
        applied: FaultSchedule,
    ) -> SessionReplayResult {
        let witness = SessionWitness {
            index: 0,
            server_path_id: 0,
            fields: vec![vec![0], vec![0]],
            wire: vec![vec![0], vec![0]],
        };
        SessionReplayResult {
            witness,
            outcome: Default::default(),
            applied,
            generable_slots: vec![Some(false), Some(true)],
            trojan_slots,
            verdict,
            signature: CrashSignature::for_session(
                "t",
                verdict,
                2,
                effects.into_iter().map(String::from).collect(),
            ),
        }
    }

    fn baseline() -> SessionReplayResult {
        result(
            ReplayVerdict::ConfirmedTrojan,
            vec!["crash:x", "trojan-slot:0"],
            vec![0],
            FaultSchedule::none(),
        )
    }

    #[test]
    fn same_signature_confirms_armed_and_new_signature_splits() {
        let armed = result(
            ReplayVerdict::ConfirmedTrojan,
            vec!["crash:x", "trojan-slot:0"],
            vec![0],
            FaultSchedule::none(),
        );
        assert_eq!(
            classify(&Baseline::of(&baseline()), &armed),
            ScheduleClass::Armed
        );
        let changed = result(
            ReplayVerdict::ConfirmedTrojan,
            vec!["crash:y", "trojan-slot:0"],
            vec![0],
            FaultSchedule::none(),
        );
        assert_eq!(
            classify(&Baseline::of(&baseline()), &changed),
            ScheduleClass::NewSignature
        );
    }

    #[test]
    fn diverging_baselines_classify_exact_reproductions_as_diverged() {
        let diverging = || {
            result(
                ReplayVerdict::ConfirmedTrojan,
                vec![
                    "diverge:at:0",
                    "diverge:root:shard0:00000000000000aa",
                    "diverge:root:shard1:00000000000000bb",
                    "family:sender-spoof",
                    "trojan-slot:0",
                ],
                vec![0],
                FaultSchedule::none(),
            )
        };
        let baseline = Baseline::of(&diverging());
        // Exact reproduction of the splitting signature: Diverged, the
        // armed-with-silent-split refinement.
        assert_eq!(classify(&baseline, &diverging()), ScheduleClass::Diverged);
        // A different split (changed digest partition) is a new signature.
        let resplit = result(
            ReplayVerdict::ConfirmedTrojan,
            vec![
                "diverge:at:0",
                "diverge:root:shard0:00000000000000aa",
                "diverge:root:shard1:00000000000000aa",
                "family:sender-spoof",
                "trojan-slot:0",
            ],
            vec![0],
            FaultSchedule::none(),
        );
        assert_eq!(classify(&baseline, &resplit), ScheduleClass::NewSignature);
        // Dropping a non-arming slot while every diverge marker survives:
        // the split still happened, evidence intact — NewSignature, not
        // Masked (the `diverge:` prefix counts as a failure marker).
        let mut survived = diverging();
        survived.verdict = ReplayVerdict::Dropped;
        survived.signature = CrashSignature::for_session(
            "t",
            ReplayVerdict::Dropped,
            2,
            diverging().signature.effects.clone(),
        );
        survived.applied = FaultSchedule::at(
            1,
            DeliveryFault {
                drop: true,
                ..DeliveryFault::none()
            },
        );
        assert_eq!(classify(&baseline, &survived), ScheduleClass::NewSignature);
        // The class name round-trips through its cache form.
        assert_eq!(
            ScheduleClass::parse(ScheduleClass::Diverged.as_str()),
            Some(ScheduleClass::Diverged)
        );
        assert_eq!(ScheduleClass::Diverged.to_string(), "diverged");
    }

    #[test]
    fn drops_split_into_disarmed_and_masked_by_arming_slot() {
        let drop_at = |slot: usize| {
            result(
                ReplayVerdict::Dropped,
                vec![],
                vec![],
                FaultSchedule::at(
                    slot,
                    DeliveryFault {
                        drop: true,
                        ..DeliveryFault::none()
                    },
                ),
            )
        };
        assert_eq!(
            classify(&Baseline::of(&baseline()), &drop_at(0)),
            ScheduleClass::Disarmed
        );
        assert_eq!(
            classify(&Baseline::of(&baseline()), &drop_at(1)),
            ScheduleClass::Masked
        );
    }

    #[test]
    fn surviving_failure_evidence_upgrades_masked_to_new_signature() {
        // A non-arming slot dropped, but the delivered poison still fired:
        // the baseline's failure markers all appear in the faulted effects
        // and the arming slot is still attributed — the replay *proved*
        // the fault does not defuse the Trojan.
        let fired = result(
            ReplayVerdict::Dropped,
            vec!["crash:x", "trojan-slot:0"],
            vec![0],
            FaultSchedule::at(
                1,
                DeliveryFault {
                    drop: true,
                    ..DeliveryFault::none()
                },
            ),
        );
        assert_eq!(
            classify(&Baseline::of(&baseline()), &fired),
            ScheduleClass::NewSignature
        );
        // Same drop, but the detonation evidence is gone: inconclusive.
        let silent = result(
            ReplayVerdict::Dropped,
            vec!["trojan-slot:0"],
            vec![0],
            FaultSchedule::at(
                1,
                DeliveryFault {
                    drop: true,
                    ..DeliveryFault::none()
                },
            ),
        );
        assert_eq!(
            classify(&Baseline::of(&baseline()), &silent),
            ScheduleClass::Masked
        );
    }

    #[test]
    fn baseline_round_trips_through_its_signature() {
        let base = baseline();
        let rebuilt = Baseline::from_signature(base.verdict, base.signature.clone());
        assert_eq!(rebuilt, Baseline::of(&base));
        assert_eq!(rebuilt.trojan_slots, vec![0]);
    }

    #[test]
    fn rejections_and_benign_accepts_disarm() {
        let rejected = result(
            ReplayVerdict::Rejected,
            vec![],
            vec![],
            FaultSchedule::none(),
        );
        assert_eq!(
            classify(&Baseline::of(&baseline()), &rejected),
            ScheduleClass::Disarmed
        );
        let benign = result(
            ReplayVerdict::AcceptedGenerable,
            vec![],
            vec![],
            FaultSchedule::none(),
        );
        assert_eq!(
            classify(&Baseline::of(&baseline()), &benign),
            ScheduleClass::Disarmed
        );
    }

    #[test]
    fn schedule_tokens_round_trip() {
        let schedule = FaultSchedule::at(
            0,
            DeliveryFault {
                drop: true,
                benign_before: true,
                ..DeliveryFault::none()
            },
        )
        .with(
            2,
            DeliveryFault {
                duplicate: true,
                flip_bit: Some(17),
                ..DeliveryFault::none()
            },
        );
        let token = schedule_token(&schedule);
        assert_eq!(token, "drop+benign@s0,dup+flip17@s2");
        assert_eq!(parse_schedule_token(&token), Some(schedule));
        assert_eq!(parse_schedule_token("none"), Some(FaultSchedule::none()));
        assert_eq!(schedule_token(&FaultSchedule::none()), "none");
        assert_eq!(parse_schedule_token("garbage"), None);
        assert_eq!(parse_schedule_token("flop3@s0"), None);
    }

    #[test]
    fn matrix_text_lists_every_cell_in_plan_order() {
        let base = baseline();
        let matrix = SensitivityMatrix {
            witness: base.witness.clone(),
            baseline_verdict: base.verdict,
            baseline_signature: base.signature.clone(),
            baseline_trojan_slots: base.trojan_slots.clone(),
            cells: vec![SensitivityCell {
                schedule: FaultSchedule::at(
                    0,
                    DeliveryFault {
                        drop: true,
                        ..DeliveryFault::none()
                    },
                ),
                class: ScheduleClass::Disarmed,
                verdict: ReplayVerdict::Dropped,
                signature: CrashSignature::for_session("t", ReplayVerdict::Dropped, 2, vec![]),
            }],
        };
        let text = matrix.to_text();
        assert!(text.starts_with("witness 0/0\n"), "{text}");
        assert!(text.contains("baseline t/confirmed@s2/"), "{text}");
        assert!(
            text.contains("drop@s0|disarmed|dropped|t/dropped@s2/"),
            "{text}"
        );
        assert_eq!(matrix.count(ScheduleClass::Disarmed), 1);
        assert_eq!(matrix.disarmed().count(), 1);
        assert_eq!(matrix.armed().count(), 0);
    }
}
