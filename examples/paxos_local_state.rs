//! The three local-state modes (§3.4), demonstrated on Paxos.
//!
//! The deployment scenario: an acceptor has promised ballot 5 and the
//! proposer enters phase 2. Which `Accept` messages are Trojan depends on
//! the *state*, not the code — like the Amazon S3 gossip message that was
//! only Trojan "in the concrete scenario in which it occurred" (§1, §3.4).
//!
//! ```text
//! cargo run --release -p achilles-examples --example paxos_local_state
//! ```

use achilles::{AchillesSession, TrojanReport};
use achilles_paxos::{
    Acceptor, AcceptorMode, PaxosSpec, Proposer, ProposerMode, MAX_PROPOSABLE_VALUE,
};

/// One Achilles run over the (proposer, acceptor) scenario.
fn analyze(proposer: ProposerMode, acceptor: AcceptorMode) -> Vec<TrojanReport> {
    let spec = PaxosSpec::new(proposer, acceptor);
    AchillesSession::new(&spec).run().trojans
}

fn main() {
    // Build the scenario concretely first: a real Paxos round reaching
    // phase 2 with value 7 at ballot 5 (Concrete Local State is "run the
    // system up to the point of interest").
    let mut acceptors = vec![Acceptor::new(); 3];
    let mut proposer = Proposer::new(5, 7);
    let chosen = proposer.run(&mut acceptors);
    println!("concrete Paxos round chose: {chosen:?}");
    assert_eq!(chosen, Some(7));

    println!("\n== mode 1: Concrete Local State ==");
    println!("(deployment proposed value 7 at ballot 5; re-run Achilles per scenario)");
    let reports = analyze(ProposerMode::Concrete(5, 7), AcceptorMode::Concrete(5));
    for r in &reports {
        println!(
            "  Trojan: kind={} ballot={} value={} — only (5, 7) is correct here",
            r.witness_fields[0], r.witness_fields[1], r.witness_fields[2]
        );
        assert!(r.witness_fields[1] != 5 || r.witness_fields[2] != 7);
    }
    assert_eq!(reports.len(), 1);

    println!("\n== mode 2: Constructed Symbolic Local State ==");
    println!("(proposed value symbolic in 0..={MAX_PROPOSABLE_VALUE}; ONE analysis covers all scenarios)");
    let reports = analyze(ProposerMode::Constructed(5), AcceptorMode::Concrete(5));
    for r in &reports {
        println!(
            "  Trojan: ballot={} value={} — outside every proposable scenario",
            r.witness_fields[1], r.witness_fields[2]
        );
        assert!(r.witness_fields[2] > MAX_PROPOSABLE_VALUE || r.witness_fields[1] != 5);
    }
    assert_eq!(reports.len(), 1);

    println!("\n== mode 3: Over-approximate Symbolic Local State ==");
    println!("(acceptor's promised ballot replaced by an annotated symbolic value in [0, 20])");
    let reports = analyze(
        ProposerMode::Constructed(5),
        AcceptorMode::OverApproximate { max: 20 },
    );
    for r in &reports {
        println!(
            "  Trojan: ballot={} value={} — robust across all promised-state values",
            r.witness_fields[1], r.witness_fields[2]
        );
    }
    assert_eq!(reports.len(), 1);

    println!("\nAll three §3.4 modes found scenario-specific Trojans.");
}
