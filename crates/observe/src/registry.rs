//! Global telemetry registry: counters, gauges, histograms, span stats.
//!
//! All hot-path mutation goes through `Arc<AtomicU64>` handles. The name →
//! handle map sits behind a `parking_lot::RwLock`, but steady-state
//! increments only take the read lock for a `HashMap` lookup (or no lock at
//! all if the caller caches the handle), keeping one increment well under a
//! microsecond in release builds.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use crate::hist::{Histogram, HistogramSummary};

/// Aggregated statistics for one span name (dotted path).
#[derive(Default)]
pub(crate) struct SpanStat {
    pub(crate) count: AtomicU64,
    pub(crate) total_us: AtomicU64,
    pub(crate) max_us: AtomicU64,
}

/// Point-in-time statistics for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanSummary {
    /// Number of completed invocations.
    pub count: u64,
    /// Total inclusive wall time across invocations, in microseconds.
    pub total_us: u64,
    /// Slowest single invocation, in microseconds.
    pub max_us: u64,
}

impl SpanSummary {
    /// Mean inclusive wall time per invocation, in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us as f64 / self.count as f64
        }
    }
}

#[derive(Default)]
pub(crate) struct Registry {
    pub(crate) counters: RwLock<HashMap<String, Arc<AtomicU64>>>,
    /// Gauges store `f64::to_bits`.
    pub(crate) gauges: RwLock<HashMap<String, Arc<AtomicU64>>>,
    pub(crate) histograms: RwLock<HashMap<String, Arc<Histogram>>>,
    pub(crate) spans: RwLock<HashMap<String, Arc<SpanStat>>>,
}

pub(crate) fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

fn handle<V: Default>(map: &RwLock<HashMap<String, Arc<V>>>, name: &str) -> Arc<V> {
    if let Some(h) = map.read().get(name) {
        return Arc::clone(h);
    }
    Arc::clone(
        map.write()
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(V::default())),
    )
}

/// A cached counter handle for hot loops: increments are a single
/// `fetch_add` with no map lookup.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Look up (or create) the counter named `name`.
    pub fn named(name: &str) -> Self {
        Counter(handle(&registry().counters, name))
    }

    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Add `n` to the counter named `name`, creating it at zero first if needed.
#[inline]
pub fn counter(name: &str, n: u64) {
    if let Some(h) = registry().counters.read().get(name) {
        h.fetch_add(n, Ordering::Relaxed);
        return;
    }
    Counter::named(name).add(n);
}

/// Set the gauge named `name` to `value` (last-write-wins).
pub fn gauge_set(name: &str, value: f64) {
    if let Some(h) = registry().gauges.read().get(name) {
        h.store(value.to_bits(), Ordering::Relaxed);
        return;
    }
    handle(&registry().gauges, name).store(value.to_bits(), Ordering::Relaxed);
}

/// Read the gauge named `name`, if it has ever been set.
pub fn gauge_get(name: &str) -> Option<f64> {
    registry()
        .gauges
        .read()
        .get(name)
        .map(|h| f64::from_bits(h.load(Ordering::Relaxed)))
}

/// Record `value` into the histogram named `name`.
pub fn hist_record(name: &str, value: u64) {
    if let Some(h) = registry().histograms.read().get(name) {
        h.record(value);
        return;
    }
    handle(&registry().histograms, name).record(value);
}

pub(crate) fn span_stat(path: &str) -> Arc<SpanStat> {
    handle(&registry().spans, path)
}

/// An immutable snapshot of every metric currently registered.
///
/// Maps are `BTreeMap` so iteration (and therefore report output) is
/// deterministically sorted by name.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Monotonic counters by name.
    pub counters: std::collections::BTreeMap<String, u64>,
    /// Last-write-wins gauges by name.
    pub gauges: std::collections::BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: std::collections::BTreeMap<String, HistogramSummary>,
    /// Span timing summaries by dotted path.
    pub spans: std::collections::BTreeMap<String, SpanSummary>,
}

impl Snapshot {
    /// Counter value, or 0 when the counter was never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Span summary for `path`, if any span with that path has completed.
    pub fn span(&self, path: &str) -> Option<&SpanSummary> {
        self.spans.get(path)
    }
}

/// Registry reset sequence, seqlock-style: [`reset`] bumps it to an odd
/// value while clearing and back to even when done, so [`snapshot`] can
/// detect (and retry across) a concurrent reset instead of returning a
/// torn capture whose counters came from one epoch and spans from another.
static RESET_SEQ: AtomicU64 = AtomicU64::new(0);

/// Capture the current state of every counter, gauge, histogram, and span.
///
/// The capture is **epoch-coherent** with respect to [`reset`]: if a reset
/// starts or finishes while the maps are being walked, the walk is retried,
/// so a snapshot never mixes pre- and post-reset state. (Concurrent
/// *writers* are fine — they only add to whichever epoch is current.)
pub fn snapshot() -> Snapshot {
    loop {
        let before = RESET_SEQ.load(Ordering::Acquire);
        if before & 1 == 1 {
            // A reset is mid-flight; wait it out.
            std::hint::spin_loop();
            continue;
        }
        let snap = collect_snapshot();
        if RESET_SEQ.load(Ordering::Acquire) == before {
            return snap;
        }
    }
}

fn collect_snapshot() -> Snapshot {
    let reg = registry();
    let counters = reg
        .counters
        .read()
        .iter()
        .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
        .collect();
    let mut gauges: std::collections::BTreeMap<String, f64> = reg
        .gauges
        .read()
        .iter()
        .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
        .collect();
    // Saturation signals that otherwise vanish silently: scrapers must be
    // able to see when the bounded tables truncated data.
    gauges.insert(
        "doc_timings.dropped".to_string(),
        crate::doc_timings::doc_timings_dropped() as f64,
    );
    gauges.insert(
        "span_events.dropped".to_string(),
        crate::events::span_events_dropped() as f64,
    );
    gauges.insert(
        "progress.dropped".to_string(),
        crate::events::progress_dropped() as f64,
    );
    let histograms = reg
        .histograms
        .read()
        .iter()
        .map(|(k, v)| (k.clone(), v.summary()))
        .collect();
    let spans = reg
        .spans
        .read()
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                SpanSummary {
                    count: v.count.load(Ordering::Relaxed),
                    total_us: v.total_us.load(Ordering::Relaxed),
                    max_us: v.max_us.load(Ordering::Relaxed),
                },
            )
        })
        .collect();
    Snapshot {
        counters,
        gauges,
        histograms,
        spans,
    }
}

/// Clear every registered metric, every thread's open-span stack (via an
/// epoch bump — pooled threads discard stale frames on their next span),
/// the span-event log, the per-document timing table, and the provenance
/// log. Intended for tests and for separating repeated benchmark runs.
///
/// Counters are zeroed in place rather than dropped from the registry, so
/// a cached [`Counter`] handle stays attached: increments made after the
/// reset land in the registered counter and show up in the next
/// [`snapshot`].
pub fn reset() {
    RESET_SEQ.fetch_add(1, Ordering::AcqRel); // odd: reset in progress
    let reg = registry();
    for c in reg.counters.read().values() {
        c.store(0, Ordering::Relaxed);
    }
    reg.gauges.write().clear();
    reg.histograms.write().clear();
    reg.spans.write().clear();
    crate::span::clear_stack();
    crate::events::reset();
    crate::events::progress_reset();
    crate::doc_timings::reset();
    crate::provenance::reset();
    RESET_SEQ.fetch_add(1, Ordering::AcqRel); // even: coherent again
}
