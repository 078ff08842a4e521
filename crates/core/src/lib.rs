//! # Achilles — finding Trojan message vulnerabilities in distributed systems
//!
//! A reproduction of *"Finding Trojan Message Vulnerabilities in Distributed
//! Systems"* (Banabic, Candea, Guerraoui — ASPLOS 2014).
//!
//! **Trojan messages** are messages a correct *server* accepts that no
//! correct *client* can generate — `T = S \ C`. They sit outside everything
//! regular testing exercises, make ideal targets for attackers, and
//! propagate failures between nodes (the paper's motivating example is the
//! 2008 Amazon S3 outage caused by a single bit-flipped — yet intelligible —
//! gossip message).
//!
//! Achilles finds them in two phases:
//!
//! 1. symbolically execute the **client**, capturing every message it can
//!    send together with the constraints under which it sends it (the
//!    *client predicate* `P_C`);
//! 2. symbolically execute the **server** on an unconstrained symbolic
//!    message, and — incrementally, at every branch — solve
//!    `pathS ∧ ⋀ negate(pathC_i)`, pruning server paths that provably
//!    cannot accept a Trojan message.
//!
//! The [`negate`] operator under-approximates the (universally quantified)
//! complement of a client path field-by-field; the [`diff_matrix`]
//! pre-computation drops whole groups of similar client predicates at once.
//!
//! ## The front door: `TargetSpec` → `AchillesSession`
//!
//! The pipeline is protocol-agnostic, and the public API is built around
//! that fact. A protocol is described once by implementing [`TargetSpec`]
//! — one list of client [`NodeProgram`](achilles_symvm::NodeProgram)s,
//! what the server receives (its single message as a one-slot
//! [`SessionSpec`], each [`SessionSlot`] a wire
//! [`MessageLayout`](achilles_symvm::MessageLayout), the clients that can
//! fill it and a field mask; plus any multi-message sessions), and, per
//! declaration, the server program and the concrete [`ReplayTarget`] used
//! by validation — and every driver consumes specs generically:
//!
//! * [`AchillesSession`] runs discovery over a spec (builder-style knobs
//!   for workers, verification, local state); the message and the
//!   sessions run through one discovery body;
//! * [`TargetRegistry`] selects specs by name (`--target fsp`), so bench
//!   bins, examples, and the conformance suite contain no per-protocol
//!   match arms;
//! * `achilles_replay::validate_spec` replays every finding against the
//!   spec's deployment.
//!
//! The shipped protocols (`achilles-fsp`, `achilles-pbft`,
//! `achilles-paxos`, `achilles-twopc`) each implement the trait in their
//! own crate and are assembled into the built-in registry by
//! `achilles-targets`.
//!
//! ## The paper's working example (§2)
//!
//! ```
//! use std::sync::Arc;
//! use achilles::{
//!     AchillesSession, Delivery, InjectionOutcome, ReplayTarget, SessionSlot, SessionSpec,
//!     SnapshotReplayTarget, TargetSpec,
//! };
//! use achilles_solver::Width;
//! use achilles_symvm::{MessageLayout, NodeProgram, PathResult, SymEnv, SymMessage};
//!
//! fn layout() -> Arc<MessageLayout> {
//!     MessageLayout::builder("msg")
//!         .field("request", Width::W8)
//!         .field("address", Width::W32)
//!         .build()
//! }
//!
//! // Figure 3: the client validates 0 <= address < 100 before sending.
//! fn client(env: &mut SymEnv<'_>) -> PathResult<()> {
//!     let addr = env.sym("address", Width::W32);
//!     let hundred = env.constant(100, Width::W32);
//!     let zero = env.constant(0, Width::W32);
//!     if !env.if_slt(addr, hundred)? { return Ok(()); }
//!     if env.if_slt(addr, zero)? { return Ok(()); }
//!     let read = env.constant(1, Width::W8);
//!     env.send(SymMessage::new(layout(), vec![read, addr]));
//!     Ok(())
//! }
//!
//! // Figure 2: the server forgets the address < 0 check on READ.
//! fn server(env: &mut SymEnv<'_>) -> PathResult<()> {
//!     let msg = env.recv(&layout())?;
//!     let one = env.constant(1, Width::W8);
//!     if !env.if_eq(msg.field("request"), one)? { return Ok(()); }
//!     let hundred = env.constant(100, Width::W32);
//!     if !env.if_slt(msg.field("address"), hundred)? { return Ok(()); }
//!     env.mark_accept(); // security vulnerability: no address < 0 check
//!     Ok(())
//! }
//!
//! // The concrete deployment replayed witnesses are fired at: one message
//! // slot, its oracles, and a bootable server.
//! struct Figure2Target;
//! impl ReplayTarget for Figure2Target {
//!     fn name(&self) -> &'static str { "figure2" }
//!     fn slot_layouts(&self) -> Vec<Arc<MessageLayout>> { vec![layout()] }
//!     fn slot_benign_fields(&self, _slot: usize) -> Vec<u64> { vec![1, 5] }
//!     fn slot_generable(&self, _slot: usize, fields: &[u64]) -> bool {
//!         fields[0] == 1 && (0..100).contains(&Width::W32.to_signed(fields[1]))
//!     }
//!     fn boot(&self) -> Box<dyn SnapshotReplayTarget + '_> { Box::new(Figure2Server) }
//! }
//!
//! // The booted server, fed one delivery at a time. The fork-server copies
//! // it by `Clone`; it keeps no state, so the copy is free.
//! #[derive(Clone)]
//! struct Figure2Server;
//! impl SnapshotReplayTarget for Figure2Server {
//!     fn deliver(&mut self, (wire, _): &Delivery, outcome: &mut InjectionOutcome) {
//!         outcome.accepted_each.push(wire[0] == 1); // the buggy dispatch, concretely
//!     }
//! }
//!
//! // The spec bundles it all: this is the entire onboarding surface. The
//! // message is a one-slot session whose slot client 0 fills.
//! struct Figure2Spec;
//! impl TargetSpec for Figure2Spec {
//!     fn name(&self) -> &'static str { "figure2" }
//!     fn clients(&self) -> Vec<Box<dyn NodeProgram + Sync + '_>> {
//!         vec![Box::new(client)]
//!     }
//!     fn message(&self) -> SessionSpec {
//!         SessionSpec::new("request", vec![SessionSlot::new("request", layout(), vec![0])])
//!     }
//!     fn session_server(&self, _: &str) -> Box<dyn NodeProgram + Sync + '_> {
//!         Box::new(server)
//!     }
//!     fn session_replay_target(&self, _: &str) -> Box<dyn ReplayTarget> {
//!         Box::new(Figure2Target)
//!     }
//! }
//!
//! let spec = Figure2Spec;
//! let report = AchillesSession::new(&spec).run();
//! assert_eq!(report.trojans.len(), 1);
//! let trojan_address = Width::W32.to_signed(report.trojans[0].witness_fields[1]);
//! assert!(trojan_address < 0, "READ with a negative address is the Trojan");
//! ```
//!
//! (The lower-level [`Achilles::run`] and [`Achilles::run_message`] entry
//! points remain available for ad-hoc client/server pairs that don't
//! warrant a spec; they run the same discovery body.)
//!
//! ## Porting a protocol
//!
//! Onboarding a protocol is a single-crate exercise — the `achilles-twopc`
//! crate is the reference (added with zero changes to this crate, the
//! replay harness, or any bench bin), and `examples/quickstart.rs` walks
//! the same steps inline:
//!
//! 1. **Model the nodes.** Write the client and server as
//!    [`NodeProgram`](achilles_symvm::NodeProgram)s over a shared
//!    [`MessageLayout`](achilles_symvm::MessageLayout). The client
//!    validates like the real client library; the server marks acceptance
//!    with `mark_accept()` where the real server commits to acting.
//! 2. **Build the concrete deployment.** Implement [`ReplayTarget`] with
//!    one slot: `slot_layouts` is `[your layout]`, `slot_benign_fields`
//!    is a message a correct client sends, and `slot_generable` is the
//!    concrete oracle for "could a correct client send these bytes?".
//!    `boot` returns a freshly booted deployment as a
//!    [`SnapshotReplayTarget`]: `deliver` feeds it one datagram and
//!    records acceptance plus structural effect strings, `finish` appends
//!    end-of-plan effects (filesystem diffs, final decisions), and the
//!    session derives `Clone` (step 7). The provided `inject` — boot,
//!    deliver each, finish — is cold replay.
//! 3. **Implement [`TargetSpec`].** Return the client programs as one
//!    list from [`clients`](TargetSpec::clients), and the single message
//!    from [`message`](TargetSpec::message) as a one-slot [`SessionSpec`]:
//!    its slot names the layout, the indices of the clients that can fill
//!    it, and a mask (checksums/digests per §5.2), and the spec carries an
//!    expected-count hint if the bounded model makes it exact.
//!    [`session_server`](TargetSpec::session_server) and
//!    [`session_replay_target`](TargetSpec::session_replay_target) serve
//!    the server program and the step-2 deployment under the message's
//!    name. The spec holds no pipeline knob — workers, optimizations and
//!    witness verification are set on the [`AchillesSession`] that runs
//!    it; witnesses reach the wire through [`fields_to_wire`] (big-endian
//!    field packing).
//! 4. **Register.** Add one `registry.register(Arc::new(YourSpec))` call
//!    (for the shipped set: in `achilles-targets`). Every driver picks the
//!    protocol up by name: `--target yours` on the bench bins, a row in
//!    `BENCH_replay.json`, and the conformance suite
//!    (`tests/target_spec_conformance.rs`) automatically holds it to
//!    "≥ 1 Trojan discovered, 100% concretely confirmed, corpus
//!    round-trip".
//! 5. **Declare a session** (optional — for stateful findings). When the
//!    real server only reaches the vulnerable code after earlier messages
//!    establish local state (login → command, VOTE → DECIDE), return a
//!    [`SessionSpec`] from [`TargetSpec::sessions`] — named apart from the
//!    message: an ordered [`SessionSlot`] list naming each slot's wire
//!    layout and which entries of the same
//!    [`clients`](TargetSpec::clients) list can legally fill it, plus an
//!    expected session-Trojan hint. Serve the session server (one `recv`
//!    per slot, in slot order) from
//!    [`session_server`](TargetSpec::session_server) and a deployment that
//!    consumes whole sequences from
//!    [`session_replay_target`](TargetSpec::session_replay_target) under
//!    the session's name: the step-2 [`ReplayTarget`] with one layout,
//!    benign baseline and generability oracle per slot, whose booted
//!    session consumes the slots' deliveries in order. The message is the
//!    one-slot case, so discovery, replay, minimization, validation and
//!    the corpus are the same code for both. Then
//!    [`AchillesSession::run_sessions`] discovers session Trojans —
//!    `⋁ₛ ¬genₛ(mₛ)`, with slot attribution — over the work-stealing
//!    pool, and `achilles_replay::validate_spec_sessions` replays them
//!    under per-delivery `FaultSchedule`s (drop / duplicate / bit-flip /
//!    benign interleaving at any position). The conformance suite holds
//!    declared sessions to the same bar automatically;
//!    `examples/quickstart.rs` walks the whole step with a hello→request
//!    session.
//! 6. **Sweep fault schedules** (optional — for schedule-sensitive
//!    findings). A session Trojan validated under one fault schedule says
//!    nothing about *which* delivery faults arm or disarm it — the
//!    question that decides whether an S3-style corruption survives real
//!    network weather. `achilles_sweep::run_campaign` takes the same spec
//!    and replays every witness under a bounded, canonically deduplicated
//!    schedule space (drop / duplicate / benign-interleave / single
//!    bit-flip, per slot and wire bit), classifying each outcome against
//!    the fault-free baseline as Armed / Disarmed / Masked / NewSignature
//!    and folding the rows into a per-witness `SensitivityMatrix` (text
//!    export through [`export`]'s record vocabulary). The `sweep_campaign`
//!    bench bin drives it per registry target and emits
//!    `BENCH_sweep.json`; the conformance suite automatically holds every
//!    declared session to "≥ 1 arming and ≥ 1 disarming schedule, and
//!    dropping the arming slot disarms". `achilles-gossip`'s 3-slot
//!    seed→sync→read session is the shipped reference;
//!    `examples/quickstart.rs` runs a mini-sweep on its hello→request
//!    session.
//! 7. **Make the session `Clone`, and deep** (required — the fork session
//!    *is* the deployment). Sweeps do not boot one deployment per
//!    (witness, schedule) cell: each sweep worker holds one fork-server,
//!    which boots the step-2 session once, keeps it as a template that is
//!    never driven, and executes every witness's schedules as a
//!    delivery-prefix trie on a clone of it, running each sibling subtree
//!    on a clone of the branch-point session
//!    ([`CloneSession::clone_session`], implemented for every `Clone`
//!    session). So the session must hold *every* piece of state a
//!    delivery can mutate — the protocol engine (node, cluster,
//!    coordinator, simulated filesystem + network) *and* the injection
//!    bookkeeping (login flags, tracked witness keys) — and its `Clone`
//!    must be deep: a derived `Clone` over a live `Arc<Mutex<…>>` aliases
//!    that state into every sibling branch. Data fixed at boot may sit
//!    behind a plain `Arc`, so a clone copies only what a delivery can
//!    change. Clones may never change results — only wall time: the
//!    `fork_server_equivalence` suite compares every sweep against the
//!    sequential cold reference, one boot per cell (`--no-fork`,
//!    `CampaignConfig::without_fork`), and
//!    the conformance suite's clone law (a clone at boot replays like a
//!    fresh boot, a driven clone leaves its source untouched, a clone
//!    mid-plan resumes like the uncloned run) covers every registered
//!    target. `examples/quickstart.rs` runs its mini-sweep through the
//!    fork-server and asserts `boots_saved > 0`.
//! 8. **Serve campaigns** (optional — for fleets that keep producing
//!    witnesses). The batch bins run one corpus to completion and exit;
//!    `achilles-fleetd` is the resident alternative: a campaign service
//!    that ingests witness *records* (the same `export` session form the
//!    corpus files use) over a line protocol, sweeps them incrementally
//!    through sharded work queues with per-target fork-server affinity,
//!    and answers `QUERY` with sensitivity matrices bit-identical to the
//!    batch campaign (`sweep_campaign --serve-compat` asserts this, and
//!    `tests/fleetd_service.rs` pins the incremental contract: a no-op
//!    re-ingest replays nothing, a one-witness ingest replays exactly
//!    that witness's cells). A registered spec needs *nothing* beyond
//!    steps 1–5 and 7 — the service is registry-driven like every other
//!    driver.
//!    Embed it in-process (`Fleetd::start` + `handle_line`) or run the
//!    `achilles-fleetd` binary for localhost-TCP / unix-socket
//!    transports; `--state DIR` persists the witness corpora and sweep
//!    cells in the versioned corpus / sweep-cache text formats, so a
//!    restart re-derives every result without a single replay.
//! 9. **Expose a state root** (optional — for multi-node targets). A
//!    crash or a wedge is a *single-process* symptom; a sharded executor
//!    detonates as *silent state divergence* — every node keeps running
//!    and two replicas produce different canonical state hashes. Give
//!    each modeled node a canonical digest (build it with
//!    [`RootHasher`]), embed a [`DivergenceProbe`] as a field of the
//!    `Clone` fork session, call
//!    [`observe`](diverge::DivergenceProbe::observe) after every applied
//!    delivery, and fold [`finish`](diverge::DivergenceProbe::finish)
//!    into the outcome's effects; override
//!    [`ReplayTarget::reports_state_roots`] and
//!    [`SnapshotReplayTarget::state_roots`] so drivers can see the roots
//!    directly. Divergence then flows through the ordinary signature
//!    path: the sweep classifier reports schedules that reproduce the
//!    baseline's split as `Diverged`, session ddmin can minimize to the
//!    field set that still splits the roots
//!    (`achilles_replay::minimize_session_divergence`), and the
//!    conformance suite holds every root-reporting session target to the
//!    divergence contract (benign traffic agrees, ≥ 1 schedule
//!    diverges, dropping the arming slot restores agreement).
//!    `crates/shardexec` — three shards exchanging cross-shard
//!    state-write messages whose sender-id field is unauthenticated — is
//!    the shipped reference; `examples/quickstart.rs` walks a two-node
//!    inline version.
//! 10. **Trust the pruning** (optional — zero code, one env var). Every
//!     path the discovery *discards* rests on an `Unsat` verdict, and every
//!     `Unsat` verdict carries a
//!     [`Certificate`](achilles_solver::Certificate): a deterministic
//!     refutation trace plus the unsat core (the assertion subset the proof
//!     actually used, by structural fingerprint). Set
//!     `ACHILLES_CHECK_PROOFS=1` — or pass `--check-proofs` to the
//!     `fig10_discovery` / `sweep_campaign` bins — and the independent
//!     checker in `achilles-proofcheck` (no shared code with the search
//!     beyond term and width definitions) re-derives every certificate on
//!     the spot, panicking on the first rejection. The cores also *work*:
//!     the engine's shared cache indexes them, and any later query whose
//!     assertion set contains a proven core is answered `Unsat` immediately
//!     (reported as `core_subsumption_hits`; the audit validates these
//!     subsumption-derived verdicts too, and the determinism suite pins
//!     that the index never changes a report). No spec hook is involved —
//!     a ported protocol gets auditable pruning for free.
//! 11. **Instrument the run** (optional — zero code for the built-in
//!     spans). Discovery, sweep, replay, and service runs are already
//!     instrumented through `achilles-obs`: pipeline phases, worker
//!     claim/steal/merge, solver verdicts, fork-server boots/clones,
//!     sweep cells, and fleetd requests all emit spans and counters.
//!     Pass `--trace FILE` to `sweep_campaign` / `fig10_discovery` /
//!     `parallel_scaling` / `fleetd_soak` and load the file in Perfetto
//!     or `chrome://tracing`; ask a running fleetd for `METRICS` to get
//!     the live Prometheus-style snapshot. To add target-specific spans,
//!     drop `let _span = achilles_obs::span("yours:step", "target");`
//!     around the interesting region — a disabled tracer costs one
//!     relaxed atomic load, so the call is safe on hot paths — and
//!     `achilles_obs::global().add(...)` for counters. One hard rule:
//!     anything you count as [`Class::Deterministic`](achilles_obs::Class)
//!     must be a pure function of the workload (no clocks, no schedule
//!     dependence) — the determinism suites diff those series
//!     bit-for-bit.
//!
//! ## Crate map
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`target`] | — | [`TargetSpec`], [`SessionSpec`], [`ReplayTarget`], wire codec |
//! | [`session`] | — | [`AchillesSession`] (+ [`run_sessions`](AchillesSession::run_sessions)), [`TargetRegistry`] |
//! | [`predicate`] | §3.1 | `P_C`, path predicates, masks, combination |
//! | [`negate`] | §3.2, §4 | the under-approximate negate operator |
//! | [`diff_matrix`] | §3.3 | the `differentFrom` pre-computation |
//! | [`search`] | §3.2–3.3, §7 | the incremental Trojan search: one observer + parallel driver for a single message and for multi-message sessions (one slot per message; registry-driven via [`TargetSpec::sessions`]) |
//! | [`pipeline`] | §3, §3.4 | the three-phase discovery body (one slot or a session's slots) and local-state modes |
//! | [`refine`] | §4.1 | CEGAR-style witness refinement (the paper's future work) |
//! | [`baseline`] | §6.2, §6.4 | classic symex and a-posteriori differencing |
//! | [`report`] | §3.2 | symbolic + concrete Trojan reports |
//!
//! ## Parallel search architecture
//!
//! The server analysis scales across cores when
//! [`ExploreConfig::workers`](achilles_symvm::ExploreConfig::workers) is
//! raised above one ([`AchillesSession::workers`], which fans out the
//! client and pre-processing phases too, or
//! `AchillesConfig::server_explore.workers`). Single-message and
//! session discovery share it: both run [`run_trojan_search`] with the
//! [`TrojanObserver`], over one slot or over a session's slots. The design,
//! bottom to top:
//!
//! * **Unit of work.** The executor schedules paths as *decision prefixes*
//!   and re-executes the node program from the start for each one. Each
//!   item also carries the [`TrojanObserver`]'s per-path state from its
//!   fork point (which client path predicates of each slot are still
//!   active), so every worklist item is self-contained — the natural grain
//!   for a work-stealing pool (`achilles_symvm::parallel`). Workers keep
//!   their own deque LIFO (depth-first, hot caches) and steal the oldest
//!   item from a victim (shallow prefix = biggest subtree).
//! * **Ownership.** Each worker owns a fork of the base
//!   [`TermPool`](achilles_solver::TermPool) (snapshot ids stay valid; new
//!   terms intern worker-locally), its own
//!   [`Solver`](achilles_solver::Solver), and its own [`TrojanObserver`] —
//!   there is no shared mutable state on the hot path.
//! * **Sharing.** Workers share solved queries through a sharded
//!   [`SharedCache`](achilles_solver::SharedCache) keyed on *structural
//!   fingerprints*, so `TermId` divergence between pools doesn't matter:
//!   a query another worker already solved is a cache hit. A stolen prefix
//!   no longer re-queries at all: the run resumes the observer from the
//!   item's fork-point state and checks only the conjuncts past the
//!   replayed prefix, so each drop and Trojan-existence check is issued
//!   once per node of the path tree. Within a path, the incremental
//!   [`ScopedSolver`](achilles_solver::ScopedSolver) answers most branch
//!   checks by re-evaluating the previous model instead of searching.
//! * **Why determinism holds.** A path's constraint structure is a function
//!   of its decision prefix alone (deterministic re-execution + tagged
//!   variable interning), and each solver query is deterministic given its
//!   structural assertion set. Results are re-interned into the base pool,
//!   sorted into canonical depth-first order (`true` before `false`), and
//!   renumbered — so the Trojan set, path counts, and witnesses are
//!   identical for every worker count and every scheduling. Budgets
//!   (`max_paths`/`max_runs`) are pool-global *and canonical*: in-flight
//!   items finish, provably-past-the-cut subtrees are pruned against a
//!   shared depth-first bound, and the merge truncates to exactly the set
//!   a sequential capped run completes — so even capped runs are
//!   bit-identical for every worker count (execution counters may exceed
//!   a sequential capped run's; the result set never differs). The
//!   `parallel_determinism` integration suite pins the guarantee — capped
//!   and uncapped, single-message and session — on the quickstart, FSP,
//!   PBFT, Paxos, and twopc scenarios.
//!
//! **Picking `workers`:** the analysis is CPU-bound; `workers = number of
//! physical cores` is the right default for long discovery runs, and `1`
//! (the default) is best below ~100ms of server analysis, where pool
//! forking and merge overhead dominate. Budgets (`max_runs`, `max_paths`)
//! are enforced pool-globally, so raising `workers` never multiplies them.
//!
//! ## Observability
//!
//! Every subsystem reports through one layer, `achilles-obs`:
//!
//! * **Spans** (`achilles_obs::span` / `timed`) record into thread-local
//!   buffers — no locks on the hot path, drained at the same merge points
//!   where worker results join — and export as Chrome-trace JSON
//!   (`--trace FILE` on the bench bins). Tracing is off by default; when
//!   off, a span is one relaxed atomic load.
//! * **Metrics** accumulate in registries
//!   ([`achilles_obs::global`] for process-wide series, a per-service
//!   registry inside fleetd) and render as sorted Prometheus-style lines.
//!   The stats structs ([`TrojanSearchStats`],
//!   [`ExploreStats`](achilles_symvm::ExploreStats),
//!   [`SolverStats`](achilles_solver::SolverStats), fork/sweep/service
//!   counters) are the only accumulators, and each counter reaches the
//!   registry once, folded by its owner at a coarse boundary: a discovery
//!   run folds its explorations, Trojan search and shared-cache delta when
//!   it ends, and a solver folds its work when it is dropped. No
//!   exploration, query or replayed delivery writes to the registry.
//! * **Determinism segregation.** Every series is classed
//!   [`Deterministic`](achilles_obs::Class::Deterministic) (a pure
//!   function of the workload: runs, cells, verdict counts) or
//!   [`Wall`](achilles_obs::Class::Wall) (clocks, steal/boot/queue-depth
//!   scheduling artifacts, solver cache tiers), and the renderer emits the two sections
//!   separately — so CI can diff the deterministic section bit-for-bit
//!   across runs while wall timings float. The `parallel_determinism`
//!   suite additionally pins the observer-effect contract: full discovery
//!   plus sweep with tracing on is bit-identical to tracing off at
//!   worker counts 1 and 4.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baseline;
pub mod diff_matrix;
pub mod diverge;
pub mod export;
pub mod negate;
pub mod pipeline;
pub mod predicate;
pub mod refine;
pub mod report;
pub mod search;
pub mod session;
pub mod target;

pub use baseline::{
    a_posteriori_diff, classic_symex, APosterioriResult, CandidateMessage, ClassicSymexResult,
};
pub use diff_matrix::DiffMatrix;
pub use diverge::{
    effects_diverged, roots_agree, DivergenceProbe, DivergenceSignature, RootHasher, StateRoot,
};
pub use export::{
    parse_session_witness_record, parse_witness_record, report_to_markdown, session_witness_record,
    split_fields_by_counts, trojans_to_markdown, witness_record,
};
pub use negate::{negate_field, negate_path, NegateStats, NegatedPath};
pub use pipeline::{Achilles, AchillesConfig, AchillesReport, LocalState, PhaseTimes};
pub use predicate::{
    combine, rename_fresh, rename_fresh_tagged, ClientPathPredicate, ClientPredicate, FieldMask,
};
pub use refine::{refine_witness, Refinement};
pub use report::TrojanReport;
pub use search::{
    canonical_witness_fields, prepare_client, prepare_client_workers, run_trojan_search,
    MatchSample, Optimizations, PreparedClient, TrojanObserver, TrojanSearchOutcome,
    TrojanSearchStats, WorkerSummary,
};
pub use session::{AchillesSession, SessionReport, TargetRegistry};
pub use target::{
    fields_to_wire, layout_widths, wire_to_fields, CloneSession, Delivery, InjectionOutcome,
    ReplayTarget, SessionSlot, SessionSpec, SnapshotReplayTarget, TargetSpec, WireError,
};
