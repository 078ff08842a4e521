//! `serve`: set-up starts `Fleetd` with `FleetdConfig::default()` (one
//! executor shard, so client plus executor make two busy threads),
//! REGISTERs the session-bearing targets, INGESTs the 31 witnesses and
//! DRAINs. One client then sends a seeded request sequence through
//! `Fleetd::handle_line`, waiting for every reply (a closed loop).
//!
//! Each request picks a witness uniformly, so fsp gets about 90% of them,
//! and a class from [`MIX`]. No production trace exists, so the mix is a
//! stated choice: it gives writes (fresh ingests), rendering (whole-target
//! QUERY) and bulk cache reads (warm RECAMPAIGN) each a large share of
//! wall time, plus the cheap witness QUERY and duplicate INGEST.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use achilles::export::session_witness_record;
use achilles_fleetd::{Fleetd, FleetdConfig, ServiceStats};
use achilles_sweep::SchedulePlanner;
use achilles_targets::builtin_registry;

use crate::expected::Expected;
use crate::metrics::{Metrics, Outcome};
use crate::stats::{ratio, Rng, Samples};
use crate::trace::SelfTimes;
use crate::{
    bench_span, default_planner, global_counter, measure, text_hash, Corpus, Reference, RunConfig,
    Tally,
};

/// A request class of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// `EVICT` + `INGEST` + `DRAIN`: replays the witness's baseline and
    /// every planned cell.
    FreshIngest,
    /// `QUERY <target>`: renders every stored matrix of the target.
    TargetQuery,
    /// `QUERY <target> <id>`: one witness's matrix.
    WitnessQuery,
    /// `INGEST` of a stored witness: answered from the store.
    DupIngest,
    /// `RECAMPAIGN <target>`: every cell a cache hit, nothing enqueued.
    Recampaign,
}

/// Percent of requests per class.
pub const MIX: [(Class, usize); 5] = [
    (Class::FreshIngest, 40),
    (Class::TargetQuery, 25),
    (Class::WitnessQuery, 20),
    (Class::DupIngest, 10),
    (Class::Recampaign, 5),
];

/// The seeded request sequence: `(class, witness index)` pairs.
#[derive(Clone, Debug)]
pub struct Requests {
    rng: Rng,
    witnesses: usize,
}

impl Requests {
    pub fn new(seed: u64, witnesses: usize) -> Requests {
        Requests {
            rng: Rng::new(seed),
            witnesses,
        }
    }
}

impl Iterator for Requests {
    type Item = (Class, usize);

    fn next(&mut self) -> Option<(Class, usize)> {
        let mut pick = self.rng.below(100);
        let class = MIX
            .iter()
            .find_map(|&(class, share)| {
                if pick < share {
                    Some(class)
                } else {
                    pick -= share;
                    None
                }
            })
            .expect("the mix's shares sum to 100");
        Some((class, self.rng.below(self.witnesses)))
    }
}

/// Client-side timings of some requests, in milliseconds.
#[derive(Debug, Default)]
struct Totals {
    /// Whole request, every class.
    requests: Samples,
    /// Fresh ingest: `INGEST` sent until `DRAIN` returns.
    ingest: Samples,
    /// Fresh ingest: until the `INGEST` reply.
    accept: Samples,
    /// Fresh ingest: time in `DRAIN`.
    wait: Samples,
    target_query: Samples,
    witness_query: Samples,
    dup_ingest: Samples,
    recampaign: Samples,
    /// `SchedulePlanner::plan` on each fresh-ingest witness, timed by the
    /// benchmark outside the request.
    plan: Samples,
}

/// The client: the service plus what it needs to check every reply.
struct Client<'e> {
    service: Fleetd,
    corpus: Corpus,
    /// Batch answer per witness (empty until computed after set-up).
    references: Vec<Reference>,
    expected: &'e Expected,
    /// Per witness: its `target/session` and record.
    lines: Vec<(String, String)>,
    /// Per target: witness indices in the service's id order (`EVICT`
    /// shifts later ids down, `INGEST` appends).
    ids: BTreeMap<&'static str, Vec<usize>>,
}

impl<'e> Client<'e> {
    /// Starts the service and loads the corpus: the timed set-up.
    fn start(corpus: Corpus, expected: &'e Expected) -> (Self, bool) {
        let service = Fleetd::start(builtin_registry(), FleetdConfig::default())
            .expect("in-memory fleetd starts");
        let mut client = Client {
            service,
            lines: corpus
                .witnesses
                .iter()
                .map(|w| (w.scope.clone(), session_witness_record(&w.witness.fields)))
                .collect(),
            corpus,
            references: Vec::new(),
            expected,
            ids: BTreeMap::new(),
        };
        let mut ok = true;
        for i in 0..client.corpus.witnesses.len() {
            let target = client.corpus.witnesses[i].target;
            if !client.ids.contains_key(target) {
                let reply = client.send(&format!("REGISTER {target}"));
                ok &= reply.starts_with(&format!("OK target={target} "));
            }
            let ids = client.ids.entry(target).or_default();
            ids.push(i);
            let id = ids.len() - 1;
            let (scope, record) = &client.lines[i];
            let reply = client.send(&format!("INGEST {scope} {record}"));
            ok &= reply.starts_with(&format!("OK id={id} "));
        }
        ok &= client.send("DRAIN") == "OK drained";
        (client, ok)
    }

    fn send(&self, line: &str) -> String {
        let _span = bench_span("bench:handle_line");
        self.service.handle_line(line)
    }

    /// Checks a whole-target `QUERY` reply: the pinned line count, and the
    /// witness blocks equal the batch matrices up to witness order.
    fn target_query_ok(&self, target: &str, reply: &str) -> bool {
        let Some(answers) = self.expected.target(target) else {
            return false;
        };
        let mut lines = reply.lines();
        if lines.next() != Some(format!("OK {} target={target}", answers.query_lines).as_str()) {
            return false;
        }
        let mut got = Vec::new();
        let mut block = String::new();
        for line in lines {
            if line.starts_with("witness ") && !block.is_empty() {
                got.push(text_hash(&block));
                block.clear();
            }
            block.push_str(line);
            block.push('\n');
        }
        got.push(text_hash(&block));
        got.sort_unstable();
        let mut want: Vec<u64> = self.ids[target]
            .iter()
            .map(|&w| self.references[w].hash)
            .collect();
        want.sort_unstable();
        got == want
    }

    /// Sends one request and checks its replies.
    fn request(&mut self, class: Class, w: usize, totals: &mut Totals) -> bool {
        let target = self.corpus.witnesses[w].target;
        let (scope, record) = self.lines[w].clone();
        let reference = self.references[w];
        let position = self.ids[target].iter().position(|&x| x == w);
        let Some(id) = position else {
            return false;
        };
        let started = Instant::now();
        let ok = match class {
            Class::FreshIngest => {
                let evicted = self.send(&format!("EVICT {scope} {record}"));
                let ingest_started = Instant::now();
                let ingested = self.send(&format!("INGEST {scope} {record}"));
                let accepted = Instant::now();
                let drained = self.send("DRAIN");
                let done = Instant::now();
                totals.ingest.push(done - ingest_started);
                totals.accept.push(accepted - ingest_started);
                totals.wait.push(done - accepted);
                let ids = self.ids.get_mut(target).expect("registered target");
                ids.remove(id);
                ids.push(w);
                let cells = reference.cells + 1;
                evicted == format!("OK evicted id={id} invalidated={cells}")
                    && ingested == format!("OK id={} cells={cells}", ids.len() - 1)
                    && drained == "OK drained"
            }
            Class::TargetQuery => {
                let reply = self.send(&format!("QUERY {target}"));
                totals.target_query.push(started.elapsed());
                self.target_query_ok(target, &reply)
            }
            Class::WitnessQuery => {
                let reply = self.send(&format!("QUERY {target} {id}"));
                totals.witness_query.push(started.elapsed());
                let header = format!("OK {} target={target}\n", reference.cells + 2);
                reply
                    .strip_prefix(&header)
                    .is_some_and(|block| text_hash(&format!("{block}\n")) == reference.hash)
            }
            Class::DupIngest => {
                let reply = self.send(&format!("INGEST {scope} {record}"));
                totals.dup_ingest.push(started.elapsed());
                reply == format!("OK dup id={id}")
            }
            Class::Recampaign => {
                let reply = self.send(&format!("RECAMPAIGN {target}"));
                totals.recampaign.push(started.elapsed());
                reply == format!("OK enqueued=0 warm={}", self.ids[target].len())
            }
        };
        totals.requests.push(started.elapsed());
        ok
    }
}

/// Runs `count` requests of `requests`, timing `SchedulePlanner::plan` on
/// fresh-ingest witnesses when `planner` is given.
fn drive(
    client: &mut Client<'_>,
    requests: &mut Requests,
    planner: Option<&SchedulePlanner>,
    tally: &mut Tally,
    totals: &mut Totals,
    mut after_each: impl FnMut(usize),
    count: usize,
) {
    for n in 0..count {
        let (class, w) = requests.next().expect("endless sequence");
        if let (Some(planner), Class::FreshIngest) = (planner, class) {
            let started = Instant::now();
            let _span = bench_span("bench:plan");
            std::hint::black_box(planner.plan(&client.corpus.witnesses[w].witness));
            totals.plan.push(started.elapsed());
        }
        tally.record(client.request(class, w, totals));
        after_each(n);
    }
}

/// Runs the workload.
pub fn run(config: &RunConfig, expected: &Expected) -> Outcome {
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();

    // Set-up: discover the witnesses and load them into a fresh service
    // (timed); then check the loaded answers against the batch sweep and
    // send one untimed warm-up request of each class.
    let mut references: Option<Vec<Reference>> = None;
    let mut set_up = |tally: &mut Tally| {
        let started = Instant::now();
        let (corpus, discovered) = Corpus::discover(&builtin_registry(), expected);
        let (mut client, loaded) = Client::start(corpus, expected);
        let took = started.elapsed();
        tally.record(discovered && loaded);
        client.references = references
            .get_or_insert_with(|| {
                let (batch, ok) = client.corpus.reference(expected);
                tally.record(ok);
                batch
            })
            .clone();
        let targets: Vec<&str> = client.ids.keys().copied().collect();
        for target in targets {
            let reply = client.send(&format!("QUERY {target}"));
            tally.record(client.target_query_ok(target, &reply));
        }
        let mut warm = Totals::default();
        for (k, &(class, _)) in MIX.iter().enumerate() {
            tally.record(client.request(class, k, &mut warm));
        }
        (client, took)
    };
    if config.traced {
        let (client, _) = set_up(&mut tally);
        traced(config, client, &mut tally, &mut metrics);
        return tally.finish(metrics);
    }

    let mut requests = None;
    let mut totals = Totals::default();
    measure(config, &mut tally, &mut metrics, set_up, |client, tally| {
        let witnesses = client.corpus.witnesses.len();
        let requests = requests.get_or_insert_with(|| Requests::new(config.seed, witnesses));
        drive(client, requests, None, tally, &mut totals, |_| {}, 1);
        totals.ingest.len()
    });
    if let Some(p90) = totals.ingest.percentile(0.9) {
        metrics.set("op_p90_ms", p90);
    }
    tally.finish(metrics)
}

/// Requests per phase of a traced run: enough for 100 whole-target
/// QUERYs, the samples `fleetd.query_p90_ms` needs.
fn traced_requests(seconds: f64) -> usize {
    ((seconds * 25.0) as usize).max(500)
}

/// Requests between folds of the trace into self times.
const FOLD_EVERY: usize = 25;

/// Service and process counters a phase's deltas are taken from.
#[derive(Clone, Copy, Debug)]
struct Counters {
    service: ServiceStats,
    sweep_cells: u64,
    fork_plans: u64,
    prefix_depth: u64,
}

impl Counters {
    fn now(service: &Fleetd) -> Counters {
        Counters {
            service: service.stats(),
            sweep_cells: global_counter("achilles_sweep_cells_total"),
            fork_plans: global_counter("achilles_fork_plans_total"),
            prefix_depth: global_counter("achilles_fork_shared_prefix_depth_sum_total"),
        }
    }
}

fn traced(config: &RunConfig, mut client: Client<'_>, tally: &mut Tally, metrics: &mut Metrics) {
    let witnesses = client.corpus.witnesses.len();
    let count = traced_requests(config.seconds);
    let planner = default_planner();

    let before = Counters::now(&client.service);
    let mut untraced = Totals::default();
    let mut requests = Requests::new(config.seed, witnesses);
    drive(
        &mut client,
        &mut requests,
        Some(&planner),
        tally,
        &mut untraced,
        |_| {},
        count,
    );
    let after = Counters::now(&client.service);
    record_layers(&client, &untraced, before, after, count, metrics);

    let mut traced = Totals::default();
    let mut times = SelfTimes::default();
    let mut requests = Requests::new(config.seed, witnesses);
    achilles_obs::set_tracing(true);
    drive(
        &mut client,
        &mut requests,
        Some(&planner),
        tally,
        &mut traced,
        |n| {
            if (n + 1) % FOLD_EVERY == 0 {
                // Let the executor close its batch span before the fold.
                std::thread::sleep(Duration::from_millis(1));
                times.absorb_and_clear();
            }
        },
        count,
    );
    achilles_obs::set_tracing(false);
    // Joining the executor flushes its thread's last buffered spans.
    drop(client);
    times.absorb_and_clear();
    times.record_per_op(count, metrics);
    metrics.set(
        "obs.tracing_overhead_pct",
        crate::overhead_pct(untraced.requests.total_ms(), traced.requests.total_ms()),
    );
}

/// Per-layer metrics from the untraced phase: client timings as medians
/// (the whole-target QUERY also as p90), service counters per request.
fn record_layers(
    client: &Client<'_>,
    t: &Totals,
    before: Counters,
    after: Counters,
    count: usize,
    metrics: &mut Metrics,
) {
    let per_request = |n: usize| n as f64 / count as f64;
    let (b, a) = (before.service, after.service);
    let replays = a.replays - b.replays;
    let cache_hits = a.cache_hits - b.cache_hits;
    metrics.set("fleetd.ingest_p50_ms", t.ingest.quantile_any(0.5));
    metrics.set(
        "fleetd.requests_per_s",
        ratio(t.requests.len() as f64, t.requests.total_ms() / 1e3),
    );
    metrics.set("fleetd.ingest_accept_ms", t.accept.quantile_any(0.5));
    metrics.set("fleetd.result_wait_ms", t.wait.quantile_any(0.5));
    metrics.set("fleetd.witness_query_ms", t.witness_query.quantile_any(0.5));
    metrics.set("fleetd.dup_ingest_ms", t.dup_ingest.quantile_any(0.5));
    metrics.set("fleetd.query_p50_ms", t.target_query.quantile_any(0.5));
    metrics.set(
        "fleetd.query_p90_ms",
        t.target_query.percentile(0.9).unwrap_or(0.0),
    );
    metrics.set("fleetd.recampaign_p50_ms", t.recampaign.quantile_any(0.5));
    for (verb, metric) in [
        ("INGEST", "fleetd.service_INGEST_p50_ms"),
        ("DRAIN", "fleetd.service_DRAIN_p50_ms"),
        ("QUERY", "fleetd.service_QUERY_p50_ms"),
        ("RECAMPAIGN", "fleetd.service_RECAMPAIGN_p50_ms"),
        ("EVICT", "fleetd.service_EVICT_p50_ms"),
    ] {
        let p50 = client
            .service
            .request_latency(verb)
            .map_or(0, |h| h.quantile_ns(0.5));
        metrics.set(metric, p50 as f64 / 1e6);
    }
    metrics.set("fleetd.boots", per_request(a.boots - b.boots));
    metrics.set("fleetd.peak_queue_cells", a.peak_cells as f64);
    let errors: u64 = client
        .service
        .metrics_text()
        .lines()
        .filter(|l| l.starts_with("achilles_fleetd_errors_total"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum();
    metrics.set("fleetd.errors", errors as f64);
    metrics.set("replay.boots", per_request(a.boots - b.boots));
    metrics.set(
        "replay.restores",
        per_request(a.snapshot_restores - b.snapshot_restores),
    );
    metrics.set("replay.plans", per_request(a.fork_plans - b.fork_plans));
    metrics.set(
        "replay.prefix_depth_mean",
        ratio(
            (after.prefix_depth - before.prefix_depth) as f64,
            (after.fork_plans - before.fork_plans) as f64,
        ),
    );
    metrics.set(
        "replay.cell_us",
        ratio(t.ingest.total_ms() * 1e3, replays as f64),
    );
    metrics.set("sweep.plan_us", t.plan.mean() * 1e3);
    metrics.set(
        "sweep.cells",
        (after.sweep_cells - before.sweep_cells) as f64 / count as f64,
    );
    metrics.set("sweep.replays", per_request(replays));
    metrics.set("sweep.cache_hits", per_request(cache_hits));
    metrics.set(
        "sweep.cache_hit_ratio",
        ratio(cache_hits as f64, (cache_hits + replays) as f64),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_sequence_is_seeded_and_holds_the_mix() {
        let first: Vec<_> = Requests::new(42, 31).take(500).collect();
        assert_eq!(first, Requests::new(42, 31).take(500).collect::<Vec<_>>());
        assert_ne!(first, Requests::new(43, 31).take(500).collect::<Vec<_>>());

        let n = 20_000;
        let drawn: Vec<_> = Requests::new(7, 31).take(n).collect();
        for (class, share) in MIX {
            let got = drawn.iter().filter(|(c, _)| *c == class).count() as f64 / n as f64;
            let want = share as f64 / 100.0;
            assert!((got - want).abs() < 0.015, "{class:?}: {got} vs {want}");
        }
        let fsp = drawn.iter().filter(|(_, w)| *w < 28).count() as f64 / n as f64;
        assert!((fsp - 28.0 / 31.0).abs() < 0.015, "fsp share {fsp}");
        assert!(drawn.iter().all(|(_, w)| *w < 31));
    }

    #[test]
    fn one_request_of_each_class_checks_out_and_a_wrong_count_fails() {
        let expected = Expected::registry_default();
        let (corpus, ok) = Corpus::discover(&builtin_registry(), &expected);
        assert!(ok);
        let (references, ok) = corpus.reference(&expected);
        assert!(ok);
        let twopc = corpus
            .witnesses
            .iter()
            .position(|w| w.target == "twopc")
            .unwrap();
        let (mut client, ok) = Client::start(corpus, &expected);
        assert!(ok);
        client.references = references.clone();
        let mut totals = Totals::default();
        // twopc's single witness is the cheapest to replay.
        for (class, _) in MIX {
            assert!(client.request(class, twopc, &mut totals), "{class:?}");
        }
        assert_eq!(totals.requests.len(), MIX.len());

        let wrong = expected.clone().with("twopc", |t| t.query_lines = 92);
        client.expected = &wrong;
        assert!(!client.request(Class::TargetQuery, twopc, &mut totals));
        client.references[twopc].cells += 1;
        assert!(!client.request(Class::WitnessQuery, twopc, &mut totals));
        assert!(!client.request(Class::FreshIngest, twopc, &mut totals));
    }
}
