//! Session Trojans: multi-message analysis (extension beyond the paper).
//!
//! The paper analyzes one message per server activation and leaves message
//! ordering to future work (§7). This example analyzes a two-message
//! *session* — handshake, then command — where the handshake validation is
//! the weak link: the server accepts session tokens twice as large as any
//! correct client produces.
//!
//! ```text
//! cargo run --release -p achilles-examples --example session_trojans
//! ```
//!
//! This example drives `run_trojan_search` by hand with one prepared client
//! predicate per slot (a single message is the one-slot case) to show the
//! machinery;
//! protocols normally *declare* their sessions on the `TargetSpec`
//! (`TargetSpec::sessions`) and get discovery + fault-scheduled replay
//! through `AchillesSession::run_sessions` — see `examples/quickstart.rs`
//! ("Declaring a session") and the FSP/twopc crates.

use std::sync::Arc;

use achilles::{prepare_client, run_trojan_search, ClientPredicate, FieldMask, Optimizations};
use achilles_solver::{Solver, TermPool, Width};
use achilles_symvm::{Executor, ExploreConfig, MessageLayout, PathResult, SymEnv, SymMessage};

fn hs_layout() -> Arc<MessageLayout> {
    MessageLayout::builder("handshake")
        .field("token", Width::W16)
        .build()
}

fn cmd_layout() -> Arc<MessageLayout> {
    MessageLayout::builder("command")
        .field("op", Width::W8)
        .field("arg", Width::W16)
        .build()
}

/// Slot 1: the connecting client requests a session token below 100.
fn handshake_client(env: &mut SymEnv<'_>) -> PathResult<()> {
    let token = env.sym("token", Width::W16);
    let cap = env.constant(100, Width::W16);
    if !env.if_ult(token, cap)? {
        return Ok(());
    }
    env.send(SymMessage::new(hs_layout(), vec![token]));
    Ok(())
}

/// Slot 2: the established client sends op 1/2 with a validated argument.
fn command_client(env: &mut SymEnv<'_>) -> PathResult<()> {
    let which = env.sym("which", Width::BOOL);
    let arg = env.sym("arg", Width::W16);
    let cap = env.constant(50, Width::W16);
    if !env.if_ult(arg, cap)? {
        return Ok(());
    }
    let op = if env.branch(which)? {
        env.constant(1, Width::W8)
    } else {
        env.constant(2, Width::W8)
    };
    env.send(SymMessage::new(cmd_layout(), vec![op, arg]));
    Ok(())
}

/// The session server: the handshake check is too lax (tokens < 200 pass,
/// clients only produce < 100); the command slot is validated correctly.
fn session_server(env: &mut SymEnv<'_>) -> PathResult<()> {
    let hs = env.recv(&hs_layout())?;
    let tcap = env.constant(200, Width::W16); // BUG: double the client bound
    if !env.if_ult(hs.field("token"), tcap)? {
        return Ok(());
    }
    let cmd = env.recv(&cmd_layout())?;
    let one = env.constant(1, Width::W8);
    let two = env.constant(2, Width::W8);
    let is1 = env.if_eq(cmd.field("op"), one)?;
    if !is1 && !env.if_eq(cmd.field("op"), two)? {
        return Ok(());
    }
    let acap = env.constant(50, Width::W16);
    if !env.if_ult(cmd.field("arg"), acap)? {
        return Ok(());
    }
    env.mark_accept();
    Ok(())
}

fn main() {
    let mut pool = TermPool::new();
    let mut solver = Solver::new();

    // One client predicate per session slot.
    let hs_pred = {
        let mut exec = Executor::new(&mut pool, &mut solver, ExploreConfig::default());
        ClientPredicate::from_exploration(&exec.explore(&handshake_client))
    };
    let cmd_pred = {
        let mut exec = Executor::new(&mut pool, &mut solver, ExploreConfig::default());
        ClientPredicate::from_exploration(&exec.explore(&command_client))
    };
    println!(
        "slot 0 (handshake): {} client path(s); slot 1 (command): {} client path(s)",
        hs_pred.len(),
        cmd_pred.len()
    );

    let hs_msg = SymMessage::fresh(&mut pool, &hs_layout(), "hs");
    let cmd_msg = SymMessage::fresh(&mut pool, &cmd_layout(), "cmd");
    let hs_prep = prepare_client(
        &mut pool,
        &mut solver,
        hs_pred,
        hs_msg,
        FieldMask::none(),
        Optimizations::default(),
    );
    let cmd_prep = prepare_client(
        &mut pool,
        &mut solver,
        cmd_pred,
        cmd_msg,
        FieldMask::none(),
        Optimizations::default(),
    );

    let outcome = run_trojan_search(
        &mut pool,
        &mut solver,
        &[&hs_prep, &cmd_prep],
        &session_server,
        ExploreConfig::default(),
        Optimizations::default(),
        true,
    );
    let reports = &outcome.reports;

    println!("server paths completed: {}", outcome.server_paths);
    println!("session Trojans: {}", reports.len());
    for (r, s) in reports.iter().zip(&outcome.trojan_slots) {
        println!(
            "  path {}: Trojan slot(s) {:?}; witness session = token={} then op={} arg={}",
            r.server_path_id, s, r.witness_fields[0], r.witness_fields[1], r.witness_fields[2]
        );
        assert_eq!(s, &vec![0], "the handshake slot is the weak link");
        assert!(r.verified, "no correct handshake client sends the token");
        assert!((100..200).contains(&r.witness_fields[0]));
    }
    assert_eq!(
        reports.len(),
        2,
        "both command variants host the handshake Trojan"
    );
    println!(
        "\nThe handshake accepts tokens in [100, 200) that no correct client \
         requests — a session-level Trojan invisible to single-message analysis \
         of the command slot alone."
    );
}
