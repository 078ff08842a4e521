//! Self time per span name, read back from the program's own trace.
//!
//! The only read-out `achilles-obs` offers is its Chrome-trace JSON, so
//! the benchmark parses that, folds the events into per-name self time,
//! and clears the sink after every pass so trace memory stays bounded.
//!
//! Each thread pushes a span when it closes, so per thread the sink holds
//! spans in post-order: every child arrives before its parent. A span's
//! direct children are therefore the not-yet-claimed spans of its thread
//! that lie inside its interval — which holds even when a long-lived
//! thread (the fleetd executor) flushed the children in an earlier pass
//! than the parent.

use std::collections::{HashMap, VecDeque};

use crate::metrics::Metrics;

/// Span names the program and the benchmark record, with the per-layer
/// metric each one's self time is reported under. `worker-<n>` spans of
/// the work-stealing pool fold into `worker`; any other name lands in
/// `self_ms.other`.
const SPANS: &[(&str, &str)] = &[
    ("bench:run", "self_ms.bench.run"),
    ("bench:run_sessions", "self_ms.bench.run_sessions"),
    ("bench:validate_spec", "self_ms.bench.validate_spec"),
    ("bench:plan", "self_ms.bench.plan"),
    ("bench:handle_line", "self_ms.bench.handle_line"),
    ("pipeline:run", "self_ms.pipeline.run"),
    ("phase:client", "self_ms.phase.client"),
    ("phase:preprocess", "self_ms.phase.preprocess"),
    ("phase:server", "self_ms.phase.server"),
    ("session:run", "self_ms.session.run"),
    ("explore", "self_ms.explore"),
    ("item", "self_ms.item"),
    ("merge", "self_ms.merge"),
    ("worker", "self_ms.worker"),
    ("fork:boot", "self_ms.fork.boot"),
    ("fork:baseline", "self_ms.fork.baseline"),
    ("fork:replay", "self_ms.fork.replay"),
    ("fork:restore", "self_ms.fork.restore"),
    ("sweep:witness", "self_ms.sweep.witness"),
    ("fleetd:batch", "self_ms.fleetd.batch"),
    ("fleetd:INGEST", "self_ms.fleetd.INGEST"),
    ("fleetd:DRAIN", "self_ms.fleetd.DRAIN"),
    ("fleetd:QUERY", "self_ms.fleetd.QUERY"),
    ("fleetd:RECAMPAIGN", "self_ms.fleetd.RECAMPAIGN"),
    ("fleetd:EVICT", "self_ms.fleetd.EVICT"),
];

const OTHER: &str = "self_ms.other";

/// Unclaimed spans kept per thread. A parent claims its children as soon
/// as it closes, so only top-level spans stay; the cap bounds them.
const PENDING_CAP: usize = 4096;

/// One trace event as exported.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    pub name: String,
    pub tid: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// `false` for instant markers (work steals).
    pub complete: bool,
}

/// Parses `achilles_obs::chrome_trace_json()` output, keeping sink order.
pub fn parse(json: &str) -> Vec<Event> {
    let number = |record: &str, key: &str| -> Option<f64> {
        let at = record.find(key)? + key.len();
        let rest = &record[at..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        rest[..end].parse().ok()
    };
    json.split("{\"name\":\"")
        .skip(1)
        .filter_map(|record| {
            let name_end = record.find('"')?;
            let us_to_ns = |us: f64| (us * 1e3).round() as u64;
            Some(Event {
                name: record[..name_end].to_string(),
                tid: number(record, "\"tid\":")? as u32,
                start_ns: us_to_ns(number(record, "\"ts\":")?),
                dur_ns: number(record, "\"dur\":").map_or(0, us_to_ns),
                complete: record.contains("\"ph\":\"X\""),
            })
        })
        .collect()
}

fn metric_for(name: &str) -> &'static str {
    let name = if name.starts_with("worker-") {
        "worker"
    } else {
        name
    };
    SPANS
        .iter()
        .find(|(span, _)| *span == name)
        .map_or(OTHER, |(_, metric)| metric)
}

/// Self time per span name, accumulated over the passes of a traced run.
#[derive(Debug, Default)]
pub struct SelfTimes {
    by_metric: HashMap<&'static str, u64>,
    /// Per thread: closed spans no parent has claimed yet, `(start, end)`.
    pending: HashMap<u32, VecDeque<(u64, u64)>>,
    events: u64,
}

impl SelfTimes {
    /// Folds everything recorded so far into the totals and clears the
    /// trace sink (and the calling thread's buffer).
    pub fn absorb_and_clear(&mut self) {
        let events = parse(&achilles_obs::chrome_trace_json());
        achilles_obs::clear_trace();
        self.absorb(&events);
    }

    /// Folds events, given in sink order, into the totals.
    pub fn absorb(&mut self, events: &[Event]) {
        for event in events {
            self.events += 1;
            if !event.complete {
                continue;
            }
            let (start, end) = (event.start_ns, event.start_ns + event.dur_ns);
            let pending = self.pending.entry(event.tid).or_default();
            let mut children = 0u64;
            while let Some(&(child_start, child_end)) = pending.back() {
                if child_start < start || child_end > end {
                    break;
                }
                children += child_end - child_start;
                pending.pop_back();
            }
            *self.by_metric.entry(metric_for(&event.name)).or_default() +=
                event.dur_ns.saturating_sub(children);
            if pending.len() == PENDING_CAP {
                pending.pop_front();
            }
            pending.push_back((start, end));
        }
    }

    /// Self time of `metric` in milliseconds.
    pub fn total_ms(&self, metric: &str) -> f64 {
        self.by_metric.get(metric).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Records every `self_ms.*` metric and `obs.events_per_op`, each
    /// divided by `ops`.
    pub fn record_per_op(&self, ops: usize, metrics: &mut Metrics) {
        let ops = ops.max(1) as f64;
        for metric in SPANS.iter().map(|(_, m)| *m).chain([OTHER]) {
            metrics.set(metric, self.total_ms(metric) / ops);
        }
        metrics.set("obs.events_per_op", self.events as f64 / ops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, tid: u32, start_ns: u64, dur_ns: u64) -> Event {
        Event {
            name: name.to_string(),
            tid,
            start_ns,
            dur_ns,
            complete: true,
        }
    }

    #[test]
    fn parses_the_exported_format() {
        let json = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
            {\"name\":\"explore\",\"cat\":\"symvm\",\"ph\":\"X\",\"ts\":12.345,\"dur\":1.500,\"pid\":1,\"tid\":3},\
            {\"name\":\"steal\",\"cat\":\"symvm\",\"ph\":\"i\",\"s\":\"t\",\"ts\":13.000,\"pid\":1,\"tid\":4}]}";
        assert_eq!(
            parse(json),
            vec![
                span("explore", 3, 12_345, 1_500),
                Event {
                    name: "steal".to_string(),
                    tid: 4,
                    start_ns: 13_000,
                    dur_ns: 0,
                    complete: false,
                },
            ]
        );
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut times = SelfTimes::default();
        // Post-order on thread 1: restore ⊂ replay ⊂ batch; thread 2
        // interleaves but never nests into thread 1.
        times.absorb(&[
            span("fork:restore", 1, 10, 5),
            span("explore", 2, 0, 100),
            span("fork:replay", 1, 5, 20),
        ]);
        // The parent arrives in a later pass than its children.
        times.absorb(&[span("fleetd:batch", 1, 0, 40), span("worker-7", 2, 0, 150)]);
        let ms = |m| times.total_ms(m) * 1e6;
        assert_eq!(ms("self_ms.fork.restore"), 5.0);
        assert_eq!(ms("self_ms.fork.replay"), 15.0);
        assert_eq!(ms("self_ms.fleetd.batch"), 20.0);
        assert_eq!(ms("self_ms.explore"), 100.0);
        assert_eq!(ms("self_ms.worker"), 50.0);
        assert_eq!(times.events, 5);

        times.absorb(&[span("something-new", 9, 0, 7)]);
        assert_eq!(times.total_ms("self_ms.other") * 1e6, 7.0);
        let mut metrics = Metrics::default();
        times.record_per_op(2, &mut metrics);
        assert_eq!(metrics.get("self_ms.other"), Some(3.5e-6));
        assert_eq!(metrics.get("obs.events_per_op"), Some(3.0));
    }

    #[test]
    fn sibling_spans_are_not_children_of_each_other() {
        let mut times = SelfTimes::default();
        times.absorb(&[
            span("item", 1, 0, 10),
            span("item", 1, 10, 10),
            span("merge", 1, 30, 5),
        ]);
        assert_eq!(times.total_ms("self_ms.item") * 1e6, 20.0);
        assert_eq!(times.total_ms("self_ms.merge") * 1e6, 5.0);
    }
}
