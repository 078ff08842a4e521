//! Property tests spanning crates: the concrete oracles, the symbolic node
//! programs, and the wire codecs must agree with each other on random
//! inputs — this is what makes the baseline comparisons trustworthy.

use achilles::canonical_witness_fields;
use achilles_fsp::{
    client_can_generate, server_accepts, Command, FspMessage, FspServer, FspServerConfig, MAX_PATH,
};
use achilles_pbft::PbftRequest;
use achilles_solver::{Model, SatResult, Solver, TermId, TermPool, VarId, Width};
use achilles_symvm::{Executor, ExploreConfig, Verdict};
use proptest::prelude::*;

/// Random FSP messages, biased so framing-valid messages are common.
fn fsp_message() -> impl Strategy<Value = FspMessage> {
    (
        any::<u8>(),
        prop::bool::ANY,
        any::<u16>(),
        prop::array::uniform4(any::<u8>()),
        0u16..=6,
    )
        .prop_map(|(cmd_raw, use_valid_cmd, len_raw, buf, len_small)| {
            let cmd = if use_valid_cmd {
                Command::ANALYSIS_SET[(cmd_raw % 8) as usize].code()
            } else {
                cmd_raw
            };
            // Half the messages get a small (often valid) length.
            let bb_len = if len_raw % 2 == 0 { len_small } else { len_raw };
            FspMessage {
                cmd,
                sum: 0,
                bb_key: 0,
                bb_seq: 0,
                bb_len,
                bb_pos: 0,
                buf,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The fast concrete oracle and the symbolic server program agree on
    /// every concrete message.
    #[test]
    fn oracle_matches_symbolic_server(msg in fsp_message()) {
        let config = FspServerConfig::default();
        let oracle_says = server_accepts(&msg, &config);

        let mut pool = TermPool::new();
        let mut solver = Solver::new();
        let sym = msg.to_sym(&mut pool);
        let explore = ExploreConfig { recv_script: vec![sym], ..Default::default() };
        let mut exec = Executor::new(&mut pool, &mut solver, explore);
        let result = exec.run_concrete(&FspServer::new(config));
        let program_says = result.paths[0].verdict == Verdict::Accept;
        prop_assert_eq!(oracle_says, program_says, "message {:?}", msg);
    }

    /// Patched-server oracles agree with the patched symbolic server.
    #[test]
    fn patched_oracle_matches_patched_server(msg in fsp_message()) {
        let config = FspServerConfig {
            check_actual_length: true,
            reject_wildcards: true,
            ..FspServerConfig::default()
        };
        let oracle_says = server_accepts(&msg, &config);
        let mut pool = TermPool::new();
        let mut solver = Solver::new();
        let sym = msg.to_sym(&mut pool);
        let explore = ExploreConfig { recv_script: vec![sym], ..Default::default() };
        let mut exec = Executor::new(&mut pool, &mut solver, explore);
        let result = exec.run_concrete(&FspServer::new(config));
        let program_says = result.paths[0].verdict == Verdict::Accept;
        prop_assert_eq!(oracle_says, program_says);
    }

    /// FSP wire encoding round-trips.
    #[test]
    fn fsp_wire_round_trip(msg in fsp_message()) {
        let wire = msg.to_wire();
        let back = FspMessage::from_wire(&wire).unwrap();
        prop_assert_eq!(back, msg);
    }

    /// Messages built by `FspMessage::request` are never Trojan: the
    /// constructor is a correct client.
    #[test]
    fn request_constructor_is_a_correct_client(
        cmd_idx in 0usize..8,
        path in prop::collection::vec(33u8..=126, 1..=MAX_PATH),
    ) {
        let msg = FspMessage::request(Command::ANALYSIS_SET[cmd_idx], &path);
        prop_assert!(server_accepts(&msg, &FspServerConfig::default()));
        prop_assert!(client_can_generate(&msg, false));
    }

    /// Any understated length turns a valid request into a Trojan.
    #[test]
    fn understated_length_is_always_trojan(
        cmd_idx in 0usize..8,
        path in prop::collection::vec(33u8..=126, 2..=MAX_PATH),
        cut in 0usize..=2,
    ) {
        let cut = cut.min(path.len() - 1);
        let mut msg = FspMessage::request(Command::ANALYSIS_SET[cmd_idx], &path);
        // Keep bb_len but terminate the path early.
        msg.buf[cut] = 0;
        prop_assert!(server_accepts(&msg, &FspServerConfig::default()));
        prop_assert!(!client_can_generate(&msg, false));
    }

    /// PBFT wire encoding round-trips and MAC corruption is always detected
    /// by the victim replica (and only by it).
    #[test]
    fn pbft_wire_and_mac_properties(
        cid in 0u16..8,
        rid in 1u16..1000,
        command in prop::array::uniform4(any::<u8>()),
        victim in 0usize..4,
    ) {
        let req = PbftRequest::correct(cid, rid, command);
        let back = PbftRequest::from_wire(&req.to_wire()).unwrap();
        prop_assert_eq!(&back, &req);
        for r in 0..4 {
            prop_assert!(req.mac_valid_for(r));
        }
        let corrupted = req.with_corrupted_mac(victim);
        for r in 0..4 {
            prop_assert_eq!(corrupted.mac_valid_for(r), r != victim);
        }
    }
}

/// One random comparison over two `W8` variables: `(left side, ⋈, c)`.
/// Sides are `x ⋈ c`, `y ⋈ c`, `x ⋈ y` and `x + y ⋈ c`; `⋈` is one of
/// `<u`, `≤u`, `=`, `≠`.
type Atom = (u8, u8, u8);

/// A witness query: 1–4 assertions, each an atom or the `or` of two.
fn witness_query() -> impl Strategy<Value = Vec<(Atom, Option<Atom>)>> {
    let atom = || (0u8..4, 0u8..4, any::<u8>());
    let assertion = (atom(), atom(), prop::bool::ANY).prop_map(|(a, b, or)| (a, or.then_some(b)));
    prop::collection::vec(assertion, 1..=4)
}

fn atom_term(pool: &mut TermPool, x: TermId, y: TermId, (side, cmp, c): Atom) -> TermId {
    let c = pool.constant(u64::from(c), Width::W8);
    let (a, b) = match side {
        0 => (x, c),
        1 => (y, c),
        2 => (x, y),
        _ => (pool.add(x, y), c),
    };
    match cmp {
        0 => pool.ult(a, b),
        1 => pool.ule(a, b),
        2 => pool.eq(a, b),
        _ => pool.ne(a, b),
    }
}

/// The lexicographically least tuple `(p, q)` whose assignment
/// `assign(p, q) = (x, y)` satisfies every assertion, by enumerating all
/// 65,536 tuples in order and evaluating the query under each.
fn brute_force_least(
    pool: &TermPool,
    query: &[TermId],
    (xv, yv): (VarId, VarId),
    assign: impl Fn(u64, u64) -> (u64, u64),
) -> Option<Vec<u64>> {
    let mut model = Model::new();
    for p in 0..256 {
        for q in 0..256 {
            let (x, y) = assign(p, q);
            model.assign(xv, x);
            model.assign(yv, y);
            if query.iter().all(|&a| model.eval(pool, a) == Some(1)) {
                return Some(vec![p, q]);
            }
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `canonical_witness_fields` returns the lexicographically least model
    /// over its expressions, and the solver's verdicts agree with brute
    /// force: the contract every witness (and the worker-count invariance
    /// of discovery) rests on.
    #[test]
    fn canonical_witnesses_are_the_lexicographic_minimum(assertions in witness_query()) {
        let mut pool = TermPool::new();
        let mut solver = Solver::new();
        let x = pool.fresh("x", Width::W8);
        let y = pool.fresh("y", Width::W8);
        let vars = (pool.as_var(x).unwrap(), pool.as_var(y).unwrap());
        let query: Vec<TermId> = assertions
            .iter()
            .map(|&(a, b)| {
                let a = atom_term(&mut pool, x, y, a);
                match b {
                    Some(b) => {
                        let b = atom_term(&mut pool, x, y, b);
                        pool.or(a, b)
                    }
                    None => a,
                }
            })
            .collect();
        let by_xy = |p, q| (p, q);
        match solver.check(&mut pool, &query) {
            SatResult::Unknown => prop_assert!(false, "256-value domains are enumerated exhaustively"),
            SatResult::Unsat(_) => {
                prop_assert_eq!(brute_force_least(&pool, &query, vars, by_xy), None);
            }
            SatResult::Sat(model) => {
                let fields = canonical_witness_fields(&mut pool, &mut solver, &query, &[x, y], &model);
                prop_assert_eq!(Some(fields), brute_force_least(&pool, &query, vars, by_xy));
                let sum = pool.add(x, y);
                let fields = canonical_witness_fields(&mut pool, &mut solver, &query, &[sum, x], &model);
                let by_sum = |s: u64, x: u64| (x, s.wrapping_sub(x) & 0xff);
                prop_assert_eq!(Some(fields), brute_force_least(&pool, &query, vars, by_sum));
            }
        }
    }
}
