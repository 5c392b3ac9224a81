//! Zero-dependency metrics primitives: counters, gauges, fixed-bucket
//! histograms, a named registry with a serialisable snapshot, and a
//! wall-clock profiler for event loops.
//!
//! Everything here is plain data — no atomics, no global state — because
//! the simulation is single-threaded per run. Aggregation across parallel
//! runs happens by merging snapshots after the fact.
//!
//! The JSON emitted by [`MetricsRegistry::to_json`] and
//! [`HistogramSnapshot::to_json`] is hand-rolled (the workspace builds with
//! an empty registry, so there is no serde). The schema is documented in
//! `DESIGN.md` § "Metrics JSON schema" and is considered stable.

use std::collections::BTreeMap;
// simlint: allow(wall-clock) — LoopProfiler measures real per-event cost
use std::time::Instant;

/// Default upper bucket bounds (seconds) for end-to-end latency
/// histograms.
///
/// Consumers that build latency histograms (the experiments metrics
/// pipeline) use these bounds unless explicitly configured otherwise, so
/// snapshots from differently sourced runs merge exactly by default.
pub const DEFAULT_LATENCY_BOUNDS_S: [f64; 12] = [
    0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 5.0,
];

/// A monotonically increasing `u64` counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// A last-write-wins `f64` gauge.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Gauge(f64);

impl Gauge {
    /// A gauge at zero.
    pub const fn new() -> Self {
        Gauge(0.0)
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&mut self, v: f64) {
        self.0 = v;
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        self.0
    }
}

/// A fixed-bucket histogram over `f64` samples.
///
/// Bucket `i` counts samples `v <= bounds[i]` (the first bound that is not
/// exceeded wins); one extra overflow bucket counts samples above the last
/// bound. Bounds are fixed at construction, which keeps [`merge`] exact:
/// two histograms with identical bounds merge without any re-binning error.
///
/// [`merge`]: Histogram::merge
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Creates a histogram with the given upper bucket bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty, not strictly increasing, or contains a
    /// non-finite value.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        for pair in bounds.windows(2) {
            assert!(
                pair[0] < pair[1],
                "histogram bounds must be strictly increasing"
            );
        }
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: f64) {
        self.record_n(v, 1);
    }

    /// Records `n` identical samples (used to fold pre-counted data, e.g.
    /// per-slot backoff draw counts, into a histogram in one step).
    pub fn record_n(&mut self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += n;
        self.count += n;
        self.sum += v * n as f64;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds another histogram into this one.
    ///
    /// # Panics
    ///
    /// Panics if the bucket bounds differ — merging is only exact between
    /// identically configured histograms.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bounds"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// An owned, serialisable copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self.counts.clone(),
            count: self.count,
            sum: self.sum,
            min: (self.count > 0).then_some(self.min),
            max: (self.count > 0).then_some(self.max),
        }
    }
}

/// A frozen copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bucket bounds, strictly increasing.
    pub bounds: Vec<f64>,
    /// Per-bucket sample counts; `counts.len() == bounds.len() + 1`, the
    /// final entry being the overflow bucket (`v > bounds.last()`).
    pub counts: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample, or `None` if no samples were recorded.
    pub min: Option<f64>,
    /// Largest sample, or `None` if no samples were recorded.
    pub max: Option<f64>,
}

impl HistogramSnapshot {
    /// Mean of the recorded samples, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Renders as a JSON object:
    /// `{"bounds": [...], "counts": [...], "count": n, "sum": x, "min": x|null, "max": x|null}`.
    pub fn to_json(&self) -> String {
        let bounds: Vec<String> = self.bounds.iter().map(|b| json_f64(*b)).collect();
        let counts: Vec<String> = self.counts.iter().map(u64::to_string).collect();
        format!(
            "{{\"bounds\":[{}],\"counts\":[{}],\"count\":{},\"sum\":{},\"min\":{},\"max\":{}}}",
            bounds.join(","),
            counts.join(","),
            self.count,
            json_f64(self.sum),
            self.min.map_or("null".into(), json_f64),
            self.max.map_or("null".into(), json_f64),
        )
    }
}

/// Formats an `f64` as a JSON number; non-finite values become `null`
/// (JSON has no NaN/Infinity).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A named collection of counters, gauges, and histogram snapshots.
///
/// `BTreeMap`-backed so iteration — and therefore the JSON rendering — is
/// deterministic regardless of insertion order. Names are dotted paths by
/// convention (`losses.overlap`, `mac.backoff_draws`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets (overwrites) a counter.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Adds to a counter, creating it at zero first if absent.
    pub fn add_counter(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets (overwrites) a gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Stores a histogram snapshot under `name`.
    pub fn set_histogram(&mut self, name: &str, snapshot: HistogramSnapshot) {
        self.histograms.insert(name.to_string(), snapshot);
    }

    /// Reads a counter back, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Reads a gauge back, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Reads a histogram snapshot back, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders the registry as a JSON object with three sections:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    ///
    /// Keys are emitted in lexicographic order, so the output is
    /// byte-deterministic for a given registry state.
    pub fn to_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", json_escape(k), v))
            .collect();
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", json_escape(k), json_f64(*v)))
            .collect();
        let histograms: Vec<String> = self
            .histograms
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", json_escape(k), v.to_json()))
            .collect();
        format!(
            "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}",
            counters.join(","),
            gauges.join(","),
            histograms.join(",")
        )
    }
}

/// Wall-clock profiler for an event loop, keyed by a static event-kind
/// label.
///
/// The disabled profiler is the default and is designed to cost nothing
/// measurable: [`begin`] returns `None` without touching the clock, and
/// [`record`] only bumps one `u64`. Timing (two `Instant` reads per event
/// plus a small linear label lookup) happens only when explicitly enabled.
///
/// [`begin`]: LoopProfiler::begin
/// [`record`]: LoopProfiler::record
#[derive(Debug, Clone)]
pub struct LoopProfiler {
    enabled: bool,
    events: u64,
    // Linear Vec, not a map: event-kind cardinality is tiny (< 10) and the
    // hot path only runs when profiling is opted into anyway.
    kinds: Vec<(&'static str, KindStats)>,
}

#[derive(Debug, Clone, Copy, Default)]
struct KindStats {
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

impl LoopProfiler {
    /// A profiler that counts events but never reads the clock.
    pub fn disabled() -> Self {
        LoopProfiler {
            enabled: false,
            events: 0,
            kinds: Vec::new(),
        }
    }

    /// A profiler that times every event.
    pub fn enabled() -> Self {
        LoopProfiler {
            enabled: true,
            events: 0,
            kinds: Vec::new(),
        }
    }

    /// Whether per-kind timing is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts timing one event. Returns `None` (and does not read the
    /// clock) when disabled.
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        if self.enabled {
            // simlint: allow(wall-clock) — profiling reads, never sim state
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Finishes timing one event started with [`begin`](Self::begin).
    #[inline]
    pub fn record(&mut self, kind: &'static str, started: Option<Instant>) {
        self.events += 1;
        let Some(t0) = started else { return };
        let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let stats = match self.kinds.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, stats)) => stats,
            None => {
                self.kinds.push((kind, KindStats::default()));
                &mut self.kinds.last_mut().expect("just pushed").1
            }
        };
        stats.count += 1;
        stats.total_ns += ns;
        stats.max_ns = stats.max_ns.max(ns);
    }

    /// Total events seen (counted even when disabled).
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// An owned summary of what was observed so far. Per-kind entries are
    /// sorted by descending total time.
    pub fn profile(&self) -> LoopProfile {
        let mut kinds: Vec<KindProfile> = self
            .kinds
            .iter()
            .map(|(kind, s)| KindProfile {
                kind: (*kind).to_string(),
                count: s.count,
                total_ns: s.total_ns,
                max_ns: s.max_ns,
            })
            .collect();
        kinds.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.kind.cmp(&b.kind)));
        LoopProfile {
            events: self.events,
            kinds,
        }
    }
}

/// Frozen output of a [`LoopProfiler`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopProfile {
    /// Total events processed by the loop.
    pub events: u64,
    /// Per-event-kind timing, sorted by descending total wall time.
    /// Empty when the profiler ran disabled.
    pub kinds: Vec<KindProfile>,
}

/// Wall-time summary for one event kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindProfile {
    /// The label the loop classified the event under.
    pub kind: String,
    /// Events of this kind.
    pub count: u64,
    /// Total handler wall time, nanoseconds.
    pub total_ns: u64,
    /// Slowest single event, nanoseconds.
    pub max_ns: u64,
}

impl KindProfile {
    /// Mean handler time per event, nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let mut g = Gauge::new();
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[1.0, 2.0, 5.0]);
        h.record(0.5); // bucket 0 (<= 1.0)
        h.record(1.0); // bucket 0 (inclusive upper bound)
        h.record(1.5); // bucket 1
        h.record(10.0); // overflow
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 1, 0, 1]);
        assert_eq!(s.count, 4);
        assert_eq!(s.min, Some(0.5));
        assert_eq!(s.max, Some(10.0));
        assert_eq!(s.mean(), Some(13.0 / 4.0));
    }

    #[test]
    fn histogram_record_n_matches_repeated_record() {
        let mut a = Histogram::new(&[1.0, 3.0]);
        let mut b = Histogram::new(&[1.0, 3.0]);
        for _ in 0..7 {
            a.record(2.0);
        }
        b.record_n(2.0, 7);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn histogram_merge_sums_buckets() {
        let mut a = Histogram::new(&[1.0, 2.0]);
        let mut b = Histogram::new(&[1.0, 2.0]);
        a.record(0.5);
        b.record(1.5);
        b.record(9.0);
        a.merge(&b);
        let s = a.snapshot();
        assert_eq!(s.counts, vec![1, 1, 1]);
        assert_eq!(s.count, 3);
        assert_eq!(s.min, Some(0.5));
        assert_eq!(s.max, Some(9.0));
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn histogram_merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(&[1.0]);
        let b = Histogram::new(&[2.0]);
        a.merge(&b);
    }

    #[test]
    fn empty_histogram_snapshot_has_null_extremes() {
        let s = Histogram::new(&[1.0]).snapshot();
        assert_eq!(s.min, None);
        assert_eq!(s.max, None);
        assert_eq!(s.mean(), None);
        assert!(s.to_json().contains("\"min\":null"));
    }

    #[test]
    fn registry_json_is_sorted_and_valid_shape() {
        let mut r = MetricsRegistry::new();
        r.set_counter("z.last", 2);
        r.add_counter("a.first", 1);
        r.add_counter("a.first", 1);
        r.set_gauge("ratio", 0.5);
        let mut h = Histogram::new(&[1.0]);
        h.record(0.5);
        r.set_histogram("lat", h.snapshot());
        let json = r.to_json();
        assert_eq!(r.counter("a.first"), Some(2));
        // Lexicographic key order: "a.first" before "z.last".
        let a = json.find("a.first").expect("a.first present");
        let z = json.find("z.last").expect("z.last present");
        assert!(a < z, "keys must be sorted: {json}");
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"gauges\":{\"ratio\":0.5}"));
        assert!(json.contains("\"histograms\":{\"lat\":{\"bounds\":[1],"));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_f64_rejects_non_finite() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.25), "1.25");
    }

    #[test]
    fn disabled_profiler_counts_without_timing() {
        let mut p = LoopProfiler::disabled();
        assert!(p.begin().is_none());
        p.record("tick", None);
        p.record("tock", None);
        assert_eq!(p.events_processed(), 2);
        let profile = p.profile();
        assert_eq!(profile.events, 2);
        assert!(profile.kinds.is_empty());
    }

    #[test]
    fn enabled_profiler_attributes_time_per_kind() {
        let mut p = LoopProfiler::enabled();
        for _ in 0..3 {
            let t0 = p.begin();
            assert!(t0.is_some());
            p.record("tick", t0);
        }
        let t0 = p.begin();
        p.record("tock", t0);
        let profile = p.profile();
        assert_eq!(profile.events, 4);
        assert_eq!(profile.kinds.len(), 2);
        let tick = profile
            .kinds
            .iter()
            .find(|k| k.kind == "tick")
            .expect("tick profiled");
        assert_eq!(tick.count, 3);
        assert!(tick.max_ns <= tick.total_ns);
        assert!(tick.mean_ns() >= 0.0);
    }
}
