//! A tour of the paper's annotation API (§5.2) on a toy licensing server.
//!
//! Shows how an operator uses `mark_accept` / `mark_reject` / `drop_path`,
//! function over-approximation (Figure 9's `function_start` /
//! `return_symbolic` pattern), and field masks to keep the analysis away
//! from cryptographic checks.
//!
//! ```text
//! cargo run --release -p achilles-examples --example annotations_tour
//! ```

use std::sync::Arc;

use achilles::{Achilles, AchillesConfig, FieldMask, SessionSlot, SessionSpec};
use achilles_solver::Width;
use achilles_symvm::{MessageLayout, PathResult, SymEnv, SymMessage};

fn layout() -> Arc<MessageLayout> {
    MessageLayout::builder("lic")
        .field("user", Width::W16)
        .field("tier", Width::W8)
        .field("signature", Width::W32)
        .build()
}

/// The client library: `getPeerID()` is over-approximated exactly like the
/// paper's Figure 9 — a symbolic value constrained to [0, 10] replaces the
/// function body.
fn client(env: &mut SymEnv<'_>) -> PathResult<()> {
    // function_start(); toRet = makeSymbolic(); drop_path if out of range;
    // return_symbolic(toRet); function_end();
    let user = env.sym_in_range("getPeerID", Width::W16, 0, 10)?;

    // The user picks a tier; the client only offers 1..=3.
    let tier = env.sym("tier", Width::W8);
    let one = env.constant(1, Width::W8);
    let three = env.constant(3, Width::W8);
    if env.if_ult(tier, one)? {
        // Annotation: abandon uninteresting paths outright.
        return env.drop_path();
    }
    if env.if_ult(three, tier)? {
        return env.drop_path();
    }

    // The signature is produced by a crypto routine — masked from the
    // analysis (§5.2), so its value here is an unconstrained placeholder.
    let signature = env.sym("sign(user, tier)", Width::W32);
    env.send(SymMessage::new(layout(), vec![user, tier, signature]));
    Ok(())
}

/// The server validates the user id but trusts the tier byte blindly.
fn server(env: &mut SymEnv<'_>) -> PathResult<()> {
    let msg = env.recv(&layout())?;
    let max_user = env.constant(10, Width::W16);
    if !env.if_ule(msg.field("user"), max_user)? {
        env.mark_reject(); // explicit marker (would also be the default)
        return Ok(());
    }
    // BUG: no tier validation — tiers 0 and 4..=255 are accepted.
    // (The signature check would live here; the operator placed the accept
    // marker before it, as §5.1 suggests for encrypted replies.)
    env.note("grant license");
    env.mark_accept();
    Ok(())
}

fn main() {
    let mut achilles = Achilles::new();
    // The message is a one-slot session: its slot carries the mask.
    let mut license = SessionSlot::new("license", layout(), vec![0]);
    license.mask = FieldMask::by_names(&license.layout, &["signature"]);
    let message = SessionSpec::new("license", vec![license]);
    let config = AchillesConfig::verified();
    let report = achilles.run_message(&[&client], &message, &server, &config);

    println!("client paths: {}", report.client.len());
    println!("trojans: {}", report.trojans.len());
    for t in &report.trojans {
        println!(
            "  witness: user={} tier={} — a tier no client build offers",
            t.witness_fields[0], t.witness_fields[1]
        );
        assert!(
            t.witness_fields[1] < 1 || t.witness_fields[1] > 3,
            "the Trojan tier must be outside the client's 1..=3 menu"
        );
    }
    assert_eq!(report.trojans.len(), 1);
    println!(
        "\nThe annotations kept the analysis crisp: the signature was masked, \
         getPeerID() was over-approximated, and the invalid-tier Trojan surfaced."
    );
}
