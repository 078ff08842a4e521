//! The FSP wildcard Trojan, end to end (§6.3).
//!
//! 1. Achilles analyzes the FSP client utilities (with glob expansion
//!    modeled) against the server and reports, among others, Trojan
//!    messages whose file path contains a literal `*`.
//! 2. The discovered witness is injected into a concretely deployed FSP
//!    server — creating a file named `f*`.
//! 3. A correct user then tries to delete exactly that file and cannot:
//!    every pattern that matches `f*` also matches innocent files, and FSP
//!    globbing has no escape character.
//!
//! ```text
//! cargo run --release -p achilles-examples --example fsp_wildcard
//! ```

use achilles::AchillesSession;
use achilles_fsp::{
    classify, run_utility, Command, FspMessage, FspServerConfig, FspServerRuntime, FspSpec,
    TrojanFamily, UtilityOutcome,
};
use achilles_netsim::{Addr, Network, SimFs};

fn main() {
    // ---- Phase 1: find the Trojans -------------------------------------
    println!("== Achilles analysis (glob expansion modeled) ==");
    let spec = FspSpec::wildcard().with_commands(2);
    let report = AchillesSession::new(&spec).run();
    let families: Vec<TrojanFamily> = report.trojans.iter().map(classify).collect();
    let length_mismatches = families
        .iter()
        .filter(|f| matches!(f, TrojanFamily::LengthMismatch { .. }))
        .count();
    let wildcards = families
        .iter()
        .filter(|f| matches!(f, TrojanFamily::Wildcard { .. }))
        .count();
    println!(
        "client predicates: {}, Trojans: {} ({length_mismatches} length-mismatch, \
         {wildcards} wildcard)",
        report.client.len(),
        report.trojans.len(),
    );
    let wildcard_trojan = report
        .trojans
        .iter()
        .find(|t| matches!(classify(t), TrojanFamily::Wildcard { .. }))
        .expect("a wildcard Trojan is always found");
    let wildcard_witness = FspMessage::from_field_values(&wildcard_trojan.witness_fields);
    println!(
        "wildcard witness: cmd={:#x} path={:?}",
        wildcard_witness.cmd,
        String::from_utf8_lossy(wildcard_witness.path_as_server_sees_it()),
    );

    // ---- Phase 2: inject into a live deployment ------------------------
    println!("\n== concrete deployment ==");
    let mut fs = SimFs::new();
    fs.write("/f1", b"holiday photos").unwrap();
    fs.write("/f2", b"bank accounts").unwrap();
    let mut net = Network::new();
    let server_addr = Addr::new("fspd");
    net.register(server_addr.clone());
    net.register(Addr::new("attacker"));
    net.register(Addr::new("alice"));
    let mut server = FspServerRuntime::new(server_addr, fs, FspServerConfig::default());

    // The attacker (or a single bit flip: 'j' ^ 0x40 == '*') injects a raw
    // message no correct client can produce: create the literal file 'f*'.
    let trojan = FspMessage::request(Command::Install, b"f*");
    net.send(
        Addr::new("attacker"),
        server.addr().clone(),
        trojan.to_wire(),
    );
    server.poll(&mut net);
    println!(
        "server files after injection: {:?}",
        server.fs().list("/").unwrap()
    );
    assert!(server.fs().exists("/f*"));

    // ---- Phase 3: the victim cannot clean up ---------------------------
    println!("\n== Alice tries to remove exactly 'f*' ==");
    let out = run_utility(
        &mut net,
        Addr::new("alice"),
        &mut server,
        Command::DelFile,
        "f*",
    );
    println!("client expanded 'f*' to: {out:?}");
    let remaining = server.fs().list("/").unwrap();
    println!("server files afterwards: {remaining:?}");
    match out {
        UtilityOutcome::Sent(paths) => {
            assert!(paths.len() > 1, "the pattern matched innocent files too");
        }
        UtilityOutcome::NothingToDo => unreachable!(),
    }
    assert!(
        remaining.is_empty(),
        "collateral damage: every f-file was deleted"
    );
    println!(
        "\nExactly the paper's scenario: removing 'f*' also removed Alice's \
         'f1' and 'f2' — there is no way to name only the Trojan file."
    );

    // Classification sanity: every report is one of the two families.
    assert_eq!(length_mismatches + wildcards, report.trojans.len());
}
