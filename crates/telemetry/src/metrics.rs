//! Named counters and fixed-bucket duration histograms.
//!
//! The [`MetricsRegistry`] is the live, thread-safe store the pipeline
//! increments; a [`MetricsSnapshot`] is its frozen, serializable,
//! comparable form. Snapshots merge with `+=` using the same
//! full-destructure idiom as the stats structs — adding a field without
//! deciding how it merges is a compile error — and render to
//! Prometheus-style text exposition for scrape-compatible output.
//!
//! Naming convention (pinned in DESIGN.md §8): counters are
//! `borges_<stage>_<what>_total`, duration histograms are
//! `borges_<stage>_<what>_ms`. All durations are integer milliseconds on
//! the injected clock, so a `SimClock` run observes exact, reproducible
//! values.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::AddAssign;

/// Upper bounds (inclusive, milliseconds) of the duration buckets every
/// histogram uses. An implicit `+Inf` bucket follows the last bound.
pub const DURATION_BUCKETS_MS: [u64; 10] = [1, 5, 10, 50, 100, 500, 1_000, 5_000, 10_000, 60_000];

/// Escapes a label value for Prometheus text exposition: backslash,
/// double quote, and newline are the three characters the format
/// reserves inside a quoted label value.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Builds the registry key for a labeled series: `family{k="v",...}`
/// with values escaped. Labels are rendered in the order given — pass
/// them in a fixed order so the same series always gets the same key.
pub fn labeled(family: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return family.to_string();
    }
    let mut out = String::with_capacity(family.len() + 16 * labels.len());
    out.push_str(family);
    out.push('{');
    for (i, (key, value)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(key);
        out.push_str("=\"");
        out.push_str(&escape_label_value(value));
        out.push('"');
    }
    out.push('}');
    out
}

/// Splits a series name into its bare family and the label body (the
/// text between the braces, if any).
fn split_family(name: &str) -> (&str, Option<&str>) {
    match name.split_once('{') {
        Some((family, rest)) => (family, Some(rest.trim_end_matches('}'))),
        None => (name, None),
    }
}

/// Deterministic `# HELP` text for a metric family: a curated line for
/// the families operators actually dashboard, a suffix-derived generic
/// otherwise. A lookup (not registry state) so the exposition stays
/// byte-identical across runs and `MetricsSnapshot`'s serde schema —
/// pinned by the RunReport golden files — is untouched.
fn help_for(family: &str) -> &'static str {
    match family {
        "borges_serve_accepted_total" => "Connections accepted by the listener.",
        "borges_serve_served_total" => "Requests dequeued and handled by a worker.",
        "borges_serve_shed_total" => "Connections shed with 503 because the accept queue was full.",
        "borges_serve_reloads_total" => "Successful hot world reloads.",
        "borges_serve_slow_total" => "Requests slower than the configured --slow-ms threshold.",
        "borges_serve_latency_ms" => "Request handling latency by route, milliseconds.",
        "borges_serve_status_total" => "Responses by HTTP status code.",
        "borges_serve_world_digest" => "Serving world content digest (value is the install count).",
        _ => {
            if family.ends_with("_ms") {
                "Duration histogram, milliseconds."
            } else if family.ends_with("_total") {
                "Monotone event counter."
            } else {
                "Borges metric."
            }
        }
    }
}

const BUCKETS: usize = DURATION_BUCKETS_MS.len() + 1;

/// A fixed-bucket duration histogram: per-bucket counts (not cumulative),
/// total count, and total sum in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_ms: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum_ms: 0,
        }
    }
}

impl Histogram {
    /// The bucket a value falls into: the first bound `b` with
    /// `ms <= b`, or the trailing `+Inf` bucket.
    pub fn bucket_index(ms: u64) -> usize {
        DURATION_BUCKETS_MS
            .iter()
            .position(|&b| ms <= b)
            .unwrap_or(DURATION_BUCKETS_MS.len())
    }

    /// Records one observation.
    pub fn observe(&mut self, ms: u64) {
        self.buckets[Histogram::bucket_index(ms)] += 1;
        self.count += 1;
        self.sum_ms += ms;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values, milliseconds.
    pub fn sum_ms(&self) -> u64 {
        self.sum_ms
    }

    /// Per-bucket (non-cumulative) counts, `+Inf` last.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        self.buckets
    }
}

impl AddAssign for Histogram {
    fn add_assign(&mut self, rhs: Histogram) {
        // Full destructure: a new field cannot be added without deciding
        // how it merges.
        let Histogram {
            buckets,
            count,
            sum_ms,
        } = rhs;
        for (mine, theirs) in self.buckets.iter_mut().zip(buckets) {
            *mine += theirs;
        }
        self.count += count;
        self.sum_ms += sum_ms;
    }
}

/// The live, thread-safe metrics store.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, u64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the named counter (creating it at zero).
    pub fn counter(&self, name: &str, delta: u64) {
        *self.counters.lock().entry(name.to_string()).or_insert(0) += delta;
    }

    /// Adds `delta` to a labeled counter series
    /// (`family{k="v",...}`), escaping label values.
    pub fn counter_labeled(&self, family: &str, labels: &[(&str, &str)], delta: u64) {
        self.counter(&labeled(family, labels), delta);
    }

    /// Records one duration observation in the named histogram.
    pub fn observe_ms(&self, name: &str, ms: u64) {
        self.histograms
            .lock()
            .entry(name.to_string())
            .or_default()
            .observe(ms);
    }

    /// Records one duration observation in a labeled histogram series
    /// (`family{k="v",...}`), escaping label values.
    pub fn observe_ms_labeled(&self, family: &str, labels: &[(&str, &str)], ms: u64) {
        self.observe_ms(&labeled(family, labels), ms);
    }

    /// Adds every series of `snapshot` into this registry: counters
    /// sum, histograms merge bucket by bucket.
    pub fn absorb(&self, snapshot: &MetricsSnapshot) {
        for c in &snapshot.counters {
            self.counter(&c.name, c.value);
        }
        let mut histograms = self.histograms.lock();
        for h in &snapshot.histograms {
            let mut buckets = [0; BUCKETS];
            for (mine, theirs) in buckets.iter_mut().zip(&h.buckets) {
                *mine = *theirs;
            }
            *histograms.entry(h.name.clone()).or_default() += Histogram {
                buckets,
                count: h.count,
                sum_ms: h.sum_ms,
            };
        }
    }

    /// Reads one live counter without freezing a snapshot (0 when the
    /// counter has never been incremented). The serving layer uses this
    /// for its accounting invariants (`shed + served == accepted`) and
    /// shutdown summary, where a full snapshot per probe would be waste.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.lock().get(name).copied().unwrap_or(0)
    }

    /// Freezes the registry into a sorted, serializable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .iter()
            .map(|(name, &value)| CounterSample {
                name: name.clone(),
                value,
            })
            .collect();
        let histograms = self
            .histograms
            .lock()
            .iter()
            .map(|(name, h)| HistogramSample {
                name: name.clone(),
                buckets: h.bucket_counts().to_vec(),
                count: h.count(),
                sum_ms: h.sum_ms(),
            })
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
        }
    }
}

/// One counter in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Metric name, e.g. `borges_ner_llm_calls_total`.
    pub name: String,
    /// Current value.
    pub value: u64,
}

/// One histogram in a snapshot. `buckets` are per-bucket counts aligned
/// with [`DURATION_BUCKETS_MS`] plus the trailing `+Inf` bucket.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Metric name, e.g. `borges_web_call_ms`.
    pub name: String,
    /// Per-bucket (non-cumulative) counts, `+Inf` last.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values, milliseconds.
    pub sum_ms: u64,
}

/// A frozen metrics state: sorted by name, serializable, comparable.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSample>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSample>,
}

impl MetricsSnapshot {
    /// Looks up a counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
            .unwrap_or(0)
    }

    /// Looks up a histogram sample.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSample> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Prometheus text exposition: counters and histograms grouped by
    /// family, each family headed by exactly one `# HELP` + `# TYPE`
    /// pair under the bare family name (metadata lines never carry
    /// labels). Labeled histograms render their label set merged with
    /// `le` on every bucket line; histograms expand to cumulative
    /// `_bucket{le=...}` series plus `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        // Group by family first: a family's series can be interleaved
        // with other families in the flat name sort (`fam 1`, `fam2 0`,
        // `fam{a="b"} 1`), and metadata must appear exactly once per
        // family, directly above all of its series.
        let mut counter_families: BTreeMap<&str, Vec<&CounterSample>> = BTreeMap::new();
        for c in &self.counters {
            let (family, _) = split_family(&c.name);
            counter_families.entry(family).or_default().push(c);
        }
        let mut histogram_families: BTreeMap<&str, Vec<&HistogramSample>> = BTreeMap::new();
        for h in &self.histograms {
            let (family, _) = split_family(&h.name);
            histogram_families.entry(family).or_default().push(h);
        }

        let mut out = String::new();
        for (family, samples) in &counter_families {
            out.push_str(&format!("# HELP {family} {}\n", help_for(family)));
            out.push_str(&format!("# TYPE {family} counter\n"));
            for c in samples {
                out.push_str(&format!("{} {}\n", c.name, c.value));
            }
        }
        for (family, samples) in &histogram_families {
            out.push_str(&format!("# HELP {family} {}\n", help_for(family)));
            out.push_str(&format!("# TYPE {family} histogram\n"));
            for h in samples {
                let (_, labels) = split_family(&h.name);
                let mut cumulative = 0u64;
                for (i, count) in h.buckets.iter().enumerate() {
                    cumulative += count;
                    let le = DURATION_BUCKETS_MS
                        .get(i)
                        .map(|b| b.to_string())
                        .unwrap_or_else(|| "+Inf".to_string());
                    match labels {
                        Some(inner) => out.push_str(&format!(
                            "{family}_bucket{{{inner},le=\"{le}\"}} {cumulative}\n"
                        )),
                        None => {
                            out.push_str(&format!("{family}_bucket{{le=\"{le}\"}} {cumulative}\n"))
                        }
                    }
                }
                match labels {
                    Some(inner) => {
                        out.push_str(&format!("{family}_sum{{{inner}}} {}\n", h.sum_ms));
                        out.push_str(&format!("{family}_count{{{inner}}} {}\n", h.count));
                    }
                    None => {
                        out.push_str(&format!("{family}_sum {}\n", h.sum_ms));
                        out.push_str(&format!("{family}_count {}\n", h.count));
                    }
                }
            }
        }
        out
    }
}

impl AddAssign<&MetricsSnapshot> for MetricsSnapshot {
    fn add_assign(&mut self, rhs: &MetricsSnapshot) {
        // Full destructure, same merge idiom as the stats structs.
        let MetricsSnapshot {
            counters,
            histograms,
        } = rhs;
        let mut merged: BTreeMap<String, u64> =
            self.counters.drain(..).map(|c| (c.name, c.value)).collect();
        for c in counters {
            *merged.entry(c.name.clone()).or_insert(0) += c.value;
        }
        self.counters = merged
            .into_iter()
            .map(|(name, value)| CounterSample { name, value })
            .collect();

        let mut merged: BTreeMap<String, HistogramSample> = self
            .histograms
            .drain(..)
            .map(|h| (h.name.clone(), h))
            .collect();
        for h in histograms {
            match merged.get_mut(&h.name) {
                Some(mine) => {
                    for (a, b) in mine.buckets.iter_mut().zip(&h.buckets) {
                        *a += b;
                    }
                    mine.count += h.count;
                    mine.sum_ms += h.sum_ms;
                }
                None => {
                    merged.insert(h.name.clone(), h.clone());
                }
            }
        }
        self.histograms = merged.into_values().collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_inclusive_upper_bounds() {
        // Exactly on a bound lands in that bound's bucket ...
        for (i, &bound) in DURATION_BUCKETS_MS.iter().enumerate() {
            assert_eq!(Histogram::bucket_index(bound), i, "bound {bound}");
            // ... one past it spills into the next.
            assert_eq!(Histogram::bucket_index(bound + 1), i + 1, "bound {bound}+1");
        }
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(u64::MAX), DURATION_BUCKETS_MS.len());
    }

    #[test]
    fn histogram_counts_and_sums() {
        let mut h = Histogram::default();
        h.observe(0);
        h.observe(1);
        h.observe(2);
        h.observe(60_001);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum_ms(), 60_004);
        let buckets = h.bucket_counts();
        assert_eq!(buckets[0], 2, "0 and 1 share the le=1 bucket");
        assert_eq!(buckets[1], 1, "2 lands in le=5");
        assert_eq!(buckets[BUCKETS - 1], 1, "60001 overflows to +Inf");
    }

    #[test]
    fn histogram_merge_is_fieldwise() {
        let mut a = Histogram::default();
        a.observe(3);
        let mut b = Histogram::default();
        b.observe(7);
        b.observe(200);
        a += b;
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum_ms(), 210);
        assert_eq!(a.bucket_counts()[1], 1, "3 <= 5");
        assert_eq!(a.bucket_counts()[2], 1, "7 <= 10");
        assert_eq!(a.bucket_counts()[5], 1, "200 <= 500");
    }

    #[test]
    fn registry_snapshot_is_sorted_and_queryable() {
        let reg = MetricsRegistry::new();
        reg.counter("z_total", 2);
        reg.counter("a_total", 1);
        reg.counter("z_total", 3);
        reg.observe_ms("op_ms", 4);
        assert_eq!(reg.counter_value("z_total"), 5);
        assert_eq!(reg.counter_value("absent_total"), 0);
        let snap = reg.snapshot();
        assert_eq!(snap.counters[0].name, "a_total");
        assert_eq!(snap.counter("z_total"), 5);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.histogram("op_ms").unwrap().count, 1);
    }

    #[test]
    fn snapshot_merge_unions_by_name() {
        let reg1 = MetricsRegistry::new();
        reg1.counter("shared_total", 1);
        reg1.counter("only1_total", 10);
        reg1.observe_ms("op_ms", 1);
        let reg2 = MetricsRegistry::new();
        reg2.counter("shared_total", 2);
        reg2.observe_ms("op_ms", 100);
        reg2.observe_ms("other_ms", 7);

        let mut merged = reg1.snapshot();
        merged += &reg2.snapshot();
        assert_eq!(merged.counter("shared_total"), 3);
        assert_eq!(merged.counter("only1_total"), 10);
        let op = merged.histogram("op_ms").unwrap();
        assert_eq!(op.count, 2);
        assert_eq!(op.sum_ms, 101);
        assert!(merged.histogram("other_ms").is_some());
        // Still sorted after the merge.
        let names: Vec<&str> = merged.counters.iter().map(|c| c.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("borges_ner_llm_calls_total", 4);
        reg.observe_ms("borges_web_call_ms", 3);
        reg.observe_ms("borges_web_call_ms", 70_000);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE borges_ner_llm_calls_total counter\n"));
        assert!(text.contains("borges_ner_llm_calls_total 4\n"));
        assert!(text.contains("# TYPE borges_web_call_ms histogram\n"));
        assert!(text.contains("borges_web_call_ms_bucket{le=\"5\"} 1\n"));
        // Cumulative: the +Inf bucket always equals the total count.
        assert!(text.contains("borges_web_call_ms_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("borges_web_call_ms_sum 70003\n"));
        assert!(text.contains("borges_web_call_ms_count 2\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
        assert_eq!(
            labeled("f_total", &[("k", "v\"x"), ("l", "y")]),
            "f_total{k=\"v\\\"x\",l=\"y\"}"
        );
        assert_eq!(labeled("bare", &[]), "bare");
    }

    #[test]
    fn exposition_emits_one_help_and_type_per_family() {
        let reg = MetricsRegistry::new();
        reg.counter_labeled("borges_serve_status_total", &[("code", "200")], 3);
        reg.counter_labeled("borges_serve_status_total", &[("code", "404")], 1);
        // A family that interleaves with the labeled series in the
        // flat name sort ('{' > alphanumerics).
        reg.counter("borges_serve_status_extra_total", 7);
        let text = reg.snapshot().to_prometheus();
        assert_eq!(
            text.matches("# TYPE borges_serve_status_total counter\n")
                .count(),
            1,
            "exactly one TYPE line per family:\n{text}"
        );
        assert!(text.contains(
            "# HELP borges_serve_status_total Responses by HTTP status code.\n\
             # TYPE borges_serve_status_total counter\n\
             borges_serve_status_total{code=\"200\"} 3\n\
             borges_serve_status_total{code=\"404\"} 1\n"
        ));
        assert!(text.contains("# HELP borges_serve_status_extra_total Monotone event counter.\n"));
    }

    #[test]
    fn labeled_histograms_merge_le_into_the_label_set() {
        let reg = MetricsRegistry::new();
        reg.observe_ms_labeled("borges_serve_latency_ms", &[("route", "map")], 3);
        reg.observe_ms_labeled("borges_serve_latency_ms", &[("route", "org")], 70_000);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE borges_serve_latency_ms histogram\n"));
        assert!(
            text.contains("borges_serve_latency_ms_bucket{route=\"map\",le=\"5\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("borges_serve_latency_ms_bucket{route=\"org\",le=\"+Inf\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("borges_serve_latency_ms_sum{route=\"map\"} 3\n"));
        assert!(text.contains("borges_serve_latency_ms_count{route=\"org\"} 1\n"));
        assert_eq!(
            text.matches("# TYPE borges_serve_latency_ms histogram\n")
                .count(),
            1
        );
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let reg = MetricsRegistry::new();
        reg.counter("c_total", 9);
        reg.observe_ms("h_ms", 12);
        let snap = reg.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
