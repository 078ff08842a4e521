//! Integration: the three §3.4 local-state modes, both through the Paxos
//! programs and through the pipeline's `LocalState::Constructed` seeding.

use achilles::{
    Achilles, AchillesConfig, AchillesSession, FieldMask, LocalState, Optimizations, TrojanReport,
};
use achilles_paxos::{AcceptorMode, PaxosSpec, ProposerMode, MAX_PROPOSABLE_VALUE};
use achilles_solver::Width;
use achilles_symvm::{ExploreConfig, MessageLayout, PathResult, SymEnv, SymMessage};
use std::sync::Arc;

fn analyze_paxos(proposer: ProposerMode, acceptor: AcceptorMode) -> Vec<TrojanReport> {
    let spec = PaxosSpec::new(proposer, acceptor);
    AchillesSession::new(&spec).run().trojans
}

#[test]
fn concrete_state_mode() {
    let reports = analyze_paxos(ProposerMode::Concrete(5, 7), AcceptorMode::Concrete(5));
    assert_eq!(reports.len(), 1);
    let w = &reports[0].witness_fields;
    assert!(
        w[1] != 5 || w[2] != 7,
        "anything but the scenario's Accept is Trojan"
    );
    assert!(reports[0].verified);
}

#[test]
fn constructed_state_mode_generalizes() {
    let reports = analyze_paxos(ProposerMode::Constructed(5), AcceptorMode::Concrete(5));
    assert_eq!(reports.len(), 1);
    let w = &reports[0].witness_fields;
    assert!(
        w[2] > MAX_PROPOSABLE_VALUE || w[1] != 5,
        "one analysis covers every proposable value"
    );
}

#[test]
fn over_approximate_state_mode() {
    let reports = analyze_paxos(
        ProposerMode::Constructed(5),
        AcceptorMode::OverApproximate { max: 20 },
    );
    assert_eq!(reports.len(), 1);
}

// ---------------------------------------------------------------------
// Pipeline-level constructed state: seeding constraints into the server.
// ---------------------------------------------------------------------

fn kv_layout() -> Arc<MessageLayout> {
    MessageLayout::builder("kv")
        .field("op", Width::W8)
        .field("slot", Width::W16)
        .build()
}

fn kv_client(env: &mut SymEnv<'_>) -> PathResult<()> {
    let slot = env.sym("slot", Width::W16);
    let cap = env.constant(64, Width::W16);
    if !env.if_ult(slot, cap)? {
        return Ok(());
    }
    let op = env.constant(1, Width::W8);
    env.send(SymMessage::new(kv_layout(), vec![op, slot]));
    Ok(())
}

fn kv_server(env: &mut SymEnv<'_>) -> PathResult<()> {
    let msg = env.recv(&kv_layout())?;
    let one = env.constant(1, Width::W8);
    if !env.if_eq(msg.field("op"), one)? {
        return Ok(());
    }
    let cap = env.constant(256, Width::W16); // bug: 4× the client's bound
    if !env.if_ult(msg.field("slot"), cap)? {
        return Ok(());
    }
    env.mark_accept();
    Ok(())
}

#[test]
fn pipeline_constructed_state_narrows_the_window() {
    let mut achilles = Achilles::new();
    let (pred, _) = achilles.extract_client_predicate(&kv_client, &ExploreConfig::default());
    let prepared = achilles.prepare(
        pred,
        &kv_layout(),
        FieldMask::none(),
        Optimizations::default(),
    );
    // The deployment scenario pins the server's view: slots above 100 were
    // never provisioned, so prior protocol steps imply slot < 100.
    let slot = prepared.server_msg.field("slot");
    let hundred = achilles.pool.constant(100, Width::W16);
    let seeded = achilles.pool.ult(slot, hundred);
    let config = AchillesConfig {
        verify_witnesses: true,
        local_state: LocalState::Constructed {
            constraints: vec![seeded],
        },
        ..AchillesConfig::default()
    };
    let outcome = achilles.analyze_server(&kv_server, &[&prepared], &config);
    assert_eq!(outcome.reports.len(), 1);
    let w = outcome.reports[0].witness_fields[1];
    assert!(
        (64..100).contains(&w),
        "the witness respects both the bug window and the scenario: {w}"
    );
}
