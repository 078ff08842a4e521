//! Metrics registry: named series with strict deterministic / wall
//! segregation and Prometheus-style text rendering.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Determinism class of a series, fixed at the recording site.
///
/// `Deterministic` series must be bit-identical across worker counts,
/// fork-server vs cold-boot replay, subsumption on/off, and tracing on/off
/// for the same logical workload. Everything else — wall clocks, queue
/// peaks, batch affinity, latency — is `Wall`. The renderer never mixes the
/// two sections, so a determinism gate can diff `# deterministic` exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    Deterministic,
    Wall,
}

/// Log2-bucketed nanosecond histogram: bucket `i` holds observations in
/// `[2^(i-1), 2^i)` ns. 64 buckets cover every representable duration.
#[derive(Debug, Clone)]
struct Histogram {
    count: u64,
    sum_ns: u64,
    buckets: [u64; 64],
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            count: 0,
            sum_ns: 0,
            buckets: [0; 64],
        }
    }

    fn observe(&mut self, ns: u64) {
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.buckets[bucket_index(ns)] += 1;
    }
}

fn bucket_index(ns: u64) -> usize {
    (64 - ns.leading_zeros() as usize).min(63)
}

/// Upper bound (exclusive) of a bucket, used as its quantile representative:
/// a pessimistic estimate that is exact to within a factor of two.
fn bucket_bound_ns(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << index.min(62)
    }
}

/// Point-in-time copy of one histogram series.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    count: u64,
    sum_ns: u64,
    buckets: [u64; 64],
}

impl HistogramSnapshot {
    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Quantile estimate in nanoseconds (`q` in `[0, 1]`), resolved to the
    /// upper bound of the log2 bucket holding the q-th observation.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bound_ns(i);
            }
        }
        bucket_bound_ns(63)
    }
}

#[derive(Debug, Clone)]
enum Value {
    Counter(u64),
    Gauge(u64),
    Histogram(Box<Histogram>),
}

#[derive(Debug, Clone)]
struct Series {
    class: Class,
    value: Value,
}

impl Series {
    /// Adds `delta` to a counter; other kinds are left as they are.
    fn add(&mut self, delta: u64) {
        if let Value::Counter(ref mut v) = self.value {
            *v += delta;
        }
    }
}

/// A set of named metric series. One process-wide instance lives behind
/// [`global()`](crate::global); services that need isolation own their own.
///
/// Series keys are fully-qualified Prometheus-style identifiers rendered as
/// `name{label="value",...} value`. Histograms render their p50/p95/p99
/// quantiles plus `_count` and `_sum_ns` companion lines and are always
/// classed [`Class::Wall`].
#[derive(Debug)]
pub struct MetricsRegistry {
    series: Mutex<BTreeMap<String, Series>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    pub const fn new() -> Self {
        MetricsRegistry {
            series: Mutex::new(BTreeMap::new()),
        }
    }

    /// Increment a counter series by `delta`.
    ///
    /// A zero `delta` still materializes the series so renders enumerate
    /// it: a zero counter is information (e.g. no errors yet), and
    /// determinism diffs need the same line set on both sides.
    pub fn add(&self, class: Class, name: &str, labels: &[(&str, &str)], delta: u64) {
        let mut map = self.series.lock().unwrap();
        // Every exploration mirrors its counters, concrete replays
        // included: find an existing unlabeled series by `name` without
        // building its key.
        if labels.is_empty() {
            if let Some(series) = map.get_mut(name) {
                series.add(delta);
                return;
            }
        }
        map.entry(series_key(name, labels))
            .or_insert(Series {
                class,
                value: Value::Counter(0),
            })
            .add(delta);
    }

    /// Create a counter series at its current value (possibly zero) without
    /// incrementing it.
    pub fn touch(&self, class: Class, name: &str, labels: &[(&str, &str)]) {
        self.add(class, name, labels, 0);
    }

    /// Set a gauge series to an absolute value.
    pub fn set(&self, class: Class, name: &str, labels: &[(&str, &str)], value: u64) {
        let key = series_key(name, labels);
        let mut map = self.series.lock().unwrap();
        let entry = map.entry(key).or_insert(Series {
            class,
            value: Value::Gauge(value),
        });
        entry.value = Value::Gauge(value);
        entry.class = class;
    }

    /// Record one observation (in nanoseconds) into a histogram series.
    /// Histograms measure wall time, so they are always [`Class::Wall`].
    pub fn observe_ns(&self, name: &str, labels: &[(&str, &str)], ns: u64) {
        let key = series_key(name, labels);
        let mut map = self.series.lock().unwrap();
        let entry = map.entry(key).or_insert(Series {
            class: Class::Wall,
            value: Value::Histogram(Box::new(Histogram::new())),
        });
        if let Value::Histogram(ref mut h) = entry.value {
            h.observe(ns);
        }
    }

    /// Snapshot a histogram series, if it exists.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<HistogramSnapshot> {
        let key = series_key(name, labels);
        let map = self.series.lock().unwrap();
        match map.get(&key) {
            Some(Series {
                value: Value::Histogram(h),
                ..
            }) => Some(HistogramSnapshot {
                count: h.count,
                sum_ns: h.sum_ns,
                buckets: h.buckets,
            }),
            _ => None,
        }
    }

    /// Current value of a counter or gauge series, if it exists.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let key = series_key(name, labels);
        let map = self.series.lock().unwrap();
        match map.get(&key) {
            Some(Series {
                value: Value::Counter(v),
                ..
            })
            | Some(Series {
                value: Value::Gauge(v),
                ..
            }) => Some(*v),
            _ => None,
        }
    }

    /// Number of distinct series currently registered.
    pub fn series_count(&self) -> usize {
        self.series.lock().unwrap().len()
    }

    /// Rendered lines (sorted by key) for one determinism class, without a
    /// section header. Histograms always land in the [`Class::Wall`] class.
    pub fn render_class(&self, class: Class) -> Vec<String> {
        let map = self.series.lock().unwrap();
        let mut lines = Vec::new();
        for (key, series) in map.iter() {
            if series.class != class {
                continue;
            }
            match &series.value {
                Value::Counter(v) | Value::Gauge(v) => lines.push(format!("{key} {v}")),
                Value::Histogram(h) => {
                    let snap = HistogramSnapshot {
                        count: h.count,
                        sum_ns: h.sum_ns,
                        buckets: h.buckets,
                    };
                    let (base, labels) = split_key(key);
                    for (q, tag) in [(0.50, "p50"), (0.95, "p95"), (0.99, "p99")] {
                        lines.push(format!(
                            "{} {}",
                            rekey(base, labels, &[("quantile", tag)]),
                            snap.quantile_ns(q)
                        ));
                    }
                    lines.push(format!(
                        "{} {}",
                        rekey(&format!("{base}_count"), labels, &[]),
                        h.count
                    ));
                    lines.push(format!(
                        "{} {}",
                        rekey(&format!("{base}_sum_ns"), labels, &[]),
                        h.sum_ns
                    ));
                }
            }
        }
        lines
    }

    /// Full snapshot: a `# deterministic` section then a `# wall` section,
    /// each sorted by series key. The deterministic section is byte-stable
    /// across worker counts and tracing on/off for the same workload.
    pub fn render(&self) -> String {
        render_sections(&[self])
    }

    /// Remove every series. Test-only hygiene for process-global registries.
    pub fn reset(&self) {
        self.series.lock().unwrap().clear();
    }
}

/// Render several registries into one snapshot (used by fleetd to merge the
/// process-global registry with its own service-local one). Lines from all
/// registries are merged and sorted per section.
pub fn render_sections(registries: &[&MetricsRegistry]) -> String {
    let mut out = String::from("# deterministic\n");
    let mut det: Vec<String> = registries
        .iter()
        .flat_map(|r| r.render_class(Class::Deterministic))
        .collect();
    det.sort();
    for line in &det {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str("# wall\n");
    let mut wall: Vec<String> = registries
        .iter()
        .flat_map(|r| r.render_class(Class::Wall))
        .collect();
    wall.sort();
    for line in &wall {
        out.push_str(line);
        out.push('\n');
    }
    out
}

fn series_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut key = String::with_capacity(name.len() + 16 * labels.len());
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        key.push_str(k);
        key.push_str("=\"");
        key.push_str(v);
        key.push('"');
    }
    key.push('}');
    key
}

/// Split a rendered key back into `(name, label-body)` where `label-body`
/// is the text between the braces (empty when there are none).
fn split_key(key: &str) -> (&str, &str) {
    match key.find('{') {
        Some(open) => (&key[..open], &key[open + 1..key.len() - 1]),
        None => (key, ""),
    }
}

fn rekey(name: &str, label_body: &str, extra: &[(&str, &str)]) -> String {
    let mut key = String::from(name);
    if label_body.is_empty() && extra.is_empty() {
        return key;
    }
    key.push('{');
    key.push_str(label_body);
    for (k, v) in extra {
        if !key.ends_with('{') {
            key.push(',');
        }
        key.push_str(k);
        key.push_str("=\"");
        key.push_str(v);
        key.push('"');
    }
    key.push('}');
    key
}

static GLOBAL: MetricsRegistry = MetricsRegistry::new();

pub(crate) fn global() -> &'static MetricsRegistry {
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render_sorted() {
        let reg = MetricsRegistry::new();
        reg.add(Class::Deterministic, "b_total", &[], 2);
        reg.add(Class::Deterministic, "a_total", &[("k", "v")], 1);
        reg.add(Class::Deterministic, "b_total", &[], 3);
        reg.set(Class::Wall, "depth", &[("shard", "0")], 7);
        let text = reg.render();
        let det_idx = text.find("# deterministic").unwrap();
        let wall_idx = text.find("# wall").unwrap();
        assert!(det_idx < wall_idx);
        let det = &text[det_idx..wall_idx];
        assert!(det.contains("a_total{k=\"v\"} 1"));
        assert!(det.contains("b_total 5"));
        assert!(!det.contains("depth"));
        assert!(text[wall_idx..].contains("depth{shard=\"0\"} 7"));
        let a = text.find("a_total").unwrap();
        let b = text.find("b_total").unwrap();
        assert!(a < b, "lines must be sorted");
    }

    #[test]
    fn zero_add_materializes_the_series() {
        let reg = MetricsRegistry::new();
        reg.add(
            Class::Deterministic,
            "errors_total",
            &[("class", "arity")],
            0,
        );
        assert_eq!(reg.value("errors_total", &[("class", "arity")]), Some(0));
        assert!(reg.render().contains("errors_total{class=\"arity\"} 0"));
    }

    #[test]
    fn histogram_quantiles_are_log2_pessimistic() {
        let reg = MetricsRegistry::new();
        for ns in [100u64, 200, 300, 400, 50_000] {
            reg.observe_ns("lat_ns", &[("verb", "INGEST")], ns);
        }
        let h = reg.histogram("lat_ns", &[("verb", "INGEST")]).unwrap();
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum_ns(), 51_000);
        let p50 = h.quantile_ns(0.50);
        assert!((128..=512).contains(&p50), "p50 was {p50}");
        let p99 = h.quantile_ns(0.99);
        assert!(p99 >= 50_000, "p99 was {p99}");
        assert!(p50 <= h.quantile_ns(0.95));
        assert!(h.quantile_ns(0.95) <= p99);
        let text = reg.render();
        assert!(text.contains("lat_ns{verb=\"INGEST\",quantile=\"p50\"}"));
        assert!(text.contains("lat_ns_count{verb=\"INGEST\"} 5"));
        assert!(text.contains("lat_ns_sum_ns{verb=\"INGEST\"} 51000"));
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = HistogramSnapshot {
            count: 0,
            sum_ns: 0,
            buckets: [0; 64],
        };
        assert_eq!(h.quantile_ns(0.99), 0);
        assert_eq!(h.mean_ns(), 0);
    }

    #[test]
    fn merged_render_interleaves_sorted() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.add(Class::Deterministic, "a_total", &[], 1);
        b.add(Class::Deterministic, "b_total", &[], 2);
        a.add(Class::Deterministic, "c_total", &[], 3);
        let text = render_sections(&[&a, &b]);
        let ia = text.find("a_total").unwrap();
        let ib = text.find("b_total").unwrap();
        let ic = text.find("c_total").unwrap();
        assert!(ia < ib && ib < ic);
    }
}
