//! Live serving metrics: lock-free counters and histograms updated on the
//! admission and completion hot paths, snapshotted on demand.
//!
//! Every counter is a plain [`AtomicU64`] and every histogram a fixed
//! array of atomic log₂-bucket counts, so recording never takes a lock or
//! allocates — safe to call from pool workers mid-request. The only
//! non-atomic structure is the per-model table, which takes a read lock on
//! the hot path (a write lock only the first time a model is seen).
//!
//! [`MetricsSnapshot`] is a plain-data copy of everything, and
//! [`MetricsSnapshot::to_json`] renders it with the same hand-rolled JSON
//! style as the bench baselines (serde is outside the offline dependency
//! allow-list).

use dp_serve::ModelKey;
use dp_trace::DepthSummary;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Number of log₂ buckets: bucket `i` counts durations in
/// `[2^i, 2^(i+1))` ns, so 40 buckets span 1 ns to ~18 minutes.
const BUCKETS: usize = 40;

/// A lock-free log₂ histogram of nanosecond durations.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    /// Sum of every recorded duration, for the exposition's `_sum` series.
    sum_ns: AtomicU64,
}

// Derived `Default` needs `[T; N]: Default`, which std only provides for
// N ≤ 32.
impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one duration (clamped into the bucket range). Lock-free.
    pub fn record_ns(&self, ns: u64) {
        let idx = (63 - ns.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        // relaxed-ok: independent monotone counters; observers tolerate
        // torn cross-bucket reads (quantiles are already ±2× by design).
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        // relaxed-ok: monotone sum; same tolerance as the buckets.
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Copies the bucket counts out.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .buckets
                .iter()
                // relaxed-ok: no ordering makes a multi-word copy atomic;
                // each bucket is individually monotone, which is all the
                // quantile math needs.
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            // relaxed-ok: monotone sum; may lag the buckets by in-flight
            // records, which snapshot consumers tolerate.
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Count per log₂ bucket; bucket `i` covers `[2^i, 2^(i+1))` ns.
    pub counts: Vec<u64>,
    /// Sum of every recorded duration in nanoseconds.
    pub sum_ns: u64,
}

impl HistogramSnapshot {
    /// Total recorded durations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Approximate quantile (`0.0 ≤ q ≤ 1.0`) in nanoseconds: the upper
    /// bound of the bucket containing the q-th sample, `0` when empty.
    /// Bucket resolution means the answer is within 2× of the true value.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 1u64 << (i + 1).min(63);
            }
        }
        1u64 << 63
    }
}

/// Per-model counters, created lazily on a model's first admission.
#[derive(Debug, Default)]
pub struct ModelMetrics {
    /// Requests admitted into the ring for this model.
    pub admitted: AtomicU64,
    /// Requests completed successfully.
    pub completed: AtomicU64,
    /// Requests whose serving job failed (a chunk panicked).
    pub failed: AtomicU64,
    /// Requests shed for this model (rejected at full ring or evicted).
    pub shed: AtomicU64,
    /// Requests whose deadline passed before a worker started them
    /// (expired in the ring; rate-limit tokens were refunded).
    pub expired: AtomicU64,
    /// Samples served to completion.
    pub samples: AtomicU64,
    /// Total service time (dispatch → last chunk done) across
    /// **completed** requests, nanoseconds — `service_ns / completed` is
    /// the per-model mean.
    pub service_ns: AtomicU64,
}

/// The gateway's live counters. All hot-path updates are atomic; see the
/// [module docs](self).
#[derive(Debug, Default)]
pub struct GatewayMetrics {
    /// Every `submit`/`try_submit` call, whatever its verdict.
    pub submitted: AtomicU64,
    /// Requests that entered the submission ring (or resolved inline,
    /// e.g. empty batches).
    pub admitted: AtomicU64,
    /// Requests rejected because the ring was full (`ShedNewest`, or
    /// `Block` on the non-blocking path).
    pub shed_queue_full: AtomicU64,
    /// Admitted requests later evicted by `ShedOldest` to make room.
    pub shed_evicted: AtomicU64,
    /// Requests rejected by a per-model token bucket.
    pub rate_limited: AtomicU64,
    /// Requests naming an unregistered model.
    pub model_unknown: AtomicU64,
    /// Requests whose operation is undefined for the model's format.
    pub unsupported: AtomicU64,
    /// Requests rejected because the gateway was closing.
    pub rejected_closed: AtomicU64,
    /// Requests rejected because the serving engine is degraded (worker
    /// panic budget tripped): admission-time rejections plus admitted
    /// requests a worker popped and dropped instead of starting.
    pub rejected_degraded: AtomicU64,
    /// Requests a worker took out of the ring and started.
    pub dispatched: AtomicU64,
    /// Admitted requests dropped when the shutdown drain deadline fired
    /// (see `drain_aborted`).
    pub dropped_closed: AtomicU64,
    /// Admitted requests whose deadline passed before a worker started
    /// them (lazily expired on pop; tokens refunded).
    pub deadline_exceeded: AtomicU64,
    /// Requests cancelled via their handle (while queued, or mid-flight
    /// at a chunk boundary).
    pub cancelled: AtomicU64,
    /// Requests force-resolved `Closed` because the bounded shutdown
    /// drain hit its deadline (each such request also counts in
    /// `dropped_closed`).
    pub drain_aborted: AtomicU64,
    /// Requests whose every chunk finished successfully.
    pub completed: AtomicU64,
    /// Requests with at least one failed chunk.
    pub failed: AtomicU64,
    /// Samples served to completion.
    pub samples_completed: AtomicU64,
    /// High-water mark of the ring backlog.
    pub queue_depth_peak: AtomicU64,
    /// Ring-residency time per request (admission → dispatch).
    pub queue_wait: Histogram,
    /// Service time per **completed** request (dispatch → last chunk
    /// done); failed requests count in `failed`, not here.
    pub service: Histogram,
    per_model: RwLock<HashMap<String, Arc<ModelMetrics>>>,
}

/// Bumps a metrics counter by one.
pub(crate) fn bump(counter: &AtomicU64) {
    // relaxed-ok: independent monotone counter; nothing orders against it
    // and `snapshot` explicitly tolerates cross-counter skew.
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Adds `v` to a metrics counter.
pub(crate) fn bump_by(counter: &AtomicU64, v: u64) {
    // relaxed-ok: see `bump`.
    counter.fetch_add(v, Ordering::Relaxed);
}

impl GatewayMetrics {
    /// The per-model counters for `key`, created on first use.
    pub fn model(&self, key: &ModelKey) -> Arc<ModelMetrics> {
        let name = key.to_string();
        // panic-ok: per-model table holders never panic while writing
        // (insertion of a Default cannot unwind), so poisoning here means
        // the process is already lost.
        if let Some(m) = self.per_model.read().expect("metrics lock").get(&name) {
            return Arc::clone(m);
        }
        Arc::clone(
            self.per_model
                .write()
                .expect("metrics lock") // panic-ok: same invariant as the read path above
                .entry(name)
                .or_default(),
        )
    }

    /// Drops the per-model counter row for `key`, if any; returns whether
    /// a row existed. Called by `Gateway::unregister` so a churny
    /// register/unregister workload doesn't grow the per-model map (and
    /// every later `/metrics` exposition) one leaked row per retired
    /// model. Outstanding `Arc<ModelMetrics>` clones held by in-flight
    /// requests stay valid — they just stop being visible to snapshots.
    pub fn prune_model(&self, key: &ModelKey) -> bool {
        self.per_model
            .write()
            .expect("metrics lock") // panic-ok: see `model()` — writers cannot unwind mid-write
            .remove(&key.to_string())
            .is_some()
    }

    /// Records a ring-depth observation, maintaining the high-water mark.
    pub(crate) fn note_depth(&self, depth: u64) {
        // relaxed-ok: fetch_max keeps the peak monotone on its own; no
        // other memory is published through this counter.
        self.queue_depth_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Copies every counter and histogram into a [`MetricsSnapshot`].
    /// `queue_depth` is supplied by the caller (the gateway reads its
    /// ring), since the ring is not owned by the metrics.
    pub fn snapshot(&self, queue_depth: usize) -> MetricsSnapshot {
        // relaxed-ok: (audited) every counter below is an independent
        // monotone u64; writers bump several counters per request without
        // any enclosing atomicity, so no load ordering could make the
        // snapshot transactionally consistent — stronger orderings would
        // only add fences without tightening any observable guarantee.
        // Cross-counter invariants (admitted ≥ dispatched, …) hold only
        // at quiescence, which is what the tests assert.
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut per_model: Vec<ModelSnapshot> = self
            .per_model
            .read()
            .expect("metrics lock") // panic-ok: see `model()` — writers cannot unwind mid-write
            .iter()
            .map(|(key, m)| ModelSnapshot {
                key: key.clone(),
                admitted: ld(&m.admitted),
                completed: ld(&m.completed),
                failed: ld(&m.failed),
                shed: ld(&m.shed),
                expired: ld(&m.expired),
                samples: ld(&m.samples),
                service_ns: ld(&m.service_ns),
            })
            .collect();
        per_model.sort_by(|a, b| a.key.cmp(&b.key));
        MetricsSnapshot {
            submitted: ld(&self.submitted),
            admitted: ld(&self.admitted),
            shed_queue_full: ld(&self.shed_queue_full),
            shed_evicted: ld(&self.shed_evicted),
            rate_limited: ld(&self.rate_limited),
            model_unknown: ld(&self.model_unknown),
            unsupported: ld(&self.unsupported),
            rejected_closed: ld(&self.rejected_closed),
            rejected_degraded: ld(&self.rejected_degraded),
            dispatched: ld(&self.dispatched),
            dropped_closed: ld(&self.dropped_closed),
            deadline_exceeded: ld(&self.deadline_exceeded),
            cancelled: ld(&self.cancelled),
            drain_aborted: ld(&self.drain_aborted),
            completed: ld(&self.completed),
            failed: ld(&self.failed),
            samples_completed: ld(&self.samples_completed),
            // Engine- and recorder-sourced fields: zero/`None` here,
            // post-filled by `Gateway::snapshot` from the pool's
            // supervision stats and the flight recorder's reservoir.
            worker_stalled: 0,
            workers_respawned: 0,
            degraded: false,
            queue_depth_reservoir: None,
            queue_depth,
            queue_depth_peak: ld(&self.queue_depth_peak),
            queue_wait: self.queue_wait.snapshot(),
            service: self.service.snapshot(),
            per_model,
        }
    }
}

/// Per-model rows of a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSnapshot {
    /// The model key's display form (`name@format`).
    pub key: String,
    /// See [`ModelMetrics`] for field meanings.
    pub admitted: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests whose serving job failed.
    pub failed: u64,
    /// Requests shed (full-ring rejection or eviction).
    pub shed: u64,
    /// Requests whose deadline passed before dispatch.
    pub expired: u64,
    /// Samples served to completion.
    pub samples: u64,
    /// Total service nanoseconds across completed requests.
    pub service_ns: u64,
}

/// Plain-data copy of every gateway counter, histogram and per-model row.
/// Field meanings match [`GatewayMetrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct MetricsSnapshot {
    pub submitted: u64,
    pub admitted: u64,
    pub shed_queue_full: u64,
    pub shed_evicted: u64,
    pub rate_limited: u64,
    pub model_unknown: u64,
    pub unsupported: u64,
    pub rejected_closed: u64,
    pub rejected_degraded: u64,
    pub dispatched: u64,
    pub dropped_closed: u64,
    pub deadline_exceeded: u64,
    pub cancelled: u64,
    pub drain_aborted: u64,
    pub completed: u64,
    pub failed: u64,
    pub samples_completed: u64,
    /// Workers the watchdog declared stalled (engine-sourced; filled by
    /// `Gateway::snapshot`, zero in a bare `GatewayMetrics::snapshot`).
    pub worker_stalled: u64,
    /// Workers respawned by the watchdog (engine-sourced).
    pub workers_respawned: u64,
    /// Whether the engine is currently degraded (engine-sourced).
    pub degraded: bool,
    /// Ring backlog at snapshot time.
    pub queue_depth: usize,
    pub queue_depth_peak: u64,
    /// Recent queue-depth reservoir summary (trace-recorder-sourced:
    /// filled by `Gateway::snapshot` from
    /// `dp_trace::Recorder::queue_depth_summary`; `None` in a bare
    /// `GatewayMetrics::snapshot`, when tracing is off, or before the
    /// first enqueue).
    pub queue_depth_reservoir: Option<DepthSummary>,
    pub queue_wait: HistogramSnapshot,
    pub service: HistogramSnapshot,
    pub per_model: Vec<ModelSnapshot>,
}

/// Every metric family the Prometheus exposition emits, as full literal
/// `(name, kind)` rows in emission order. This is the drift anchor: the
/// `prom-drift` lint extracts these names and diffs them against the
/// committed `results/smoke/gateway_metrics.prom` artifact, and a golden
/// test pins them to what [`MetricsSnapshot::to_prometheus`] actually
/// renders — so adding, renaming or dropping a metric without updating
/// both the artifact and this table fails CI.
pub const PROM_TYPE_ROWS: &[(&str, &str)] = &[
    ("dp_gateway_submitted_total", "counter"),
    ("dp_gateway_admitted_total", "counter"),
    ("dp_gateway_shed_queue_full_total", "counter"),
    ("dp_gateway_shed_evicted_total", "counter"),
    ("dp_gateway_rate_limited_total", "counter"),
    ("dp_gateway_model_unknown_total", "counter"),
    ("dp_gateway_unsupported_total", "counter"),
    ("dp_gateway_rejected_closed_total", "counter"),
    ("dp_gateway_rejected_degraded_total", "counter"),
    ("dp_gateway_dispatched_total", "counter"),
    ("dp_gateway_dropped_closed_total", "counter"),
    ("dp_gateway_deadline_exceeded_total", "counter"),
    ("dp_gateway_cancelled_total", "counter"),
    ("dp_gateway_drain_aborted_total", "counter"),
    ("dp_gateway_completed_total", "counter"),
    ("dp_gateway_failed_total", "counter"),
    ("dp_gateway_samples_completed_total", "counter"),
    ("dp_gateway_queue_depth", "gauge"),
    ("dp_gateway_queue_depth_peak", "gauge"),
    ("dp_gateway_queue_depth_reservoir", "summary"),
    ("dp_gateway_worker_stalled_total", "counter"),
    ("dp_gateway_workers_respawned_total", "counter"),
    ("dp_gateway_degraded", "gauge"),
    ("dp_gateway_queue_wait_ns", "histogram"),
    ("dp_gateway_service_ns", "histogram"),
    ("dp_gateway_model_requests_total", "counter"),
    ("dp_gateway_model_samples_total", "counter"),
    ("dp_gateway_model_service_ns_total", "counter"),
];

impl MetricsSnapshot {
    /// Requests shed in total (full-ring rejections + evictions).
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full + self.shed_evicted
    }

    /// Renders the snapshot as stable, diffable JSON (hand-rolled; serde
    /// is outside the offline dependency allow-list). Keys are emitted in
    /// a fixed order so successive snapshots diff cleanly.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("{\n  \"requests\": {");
        let fields: [(&str, u64); 17] = [
            ("submitted", self.submitted),
            ("admitted", self.admitted),
            ("shed_queue_full", self.shed_queue_full),
            ("shed_evicted", self.shed_evicted),
            ("rate_limited", self.rate_limited),
            ("model_unknown", self.model_unknown),
            ("unsupported", self.unsupported),
            ("rejected_closed", self.rejected_closed),
            ("rejected_degraded", self.rejected_degraded),
            ("dispatched", self.dispatched),
            ("dropped_closed", self.dropped_closed),
            ("deadline_exceeded", self.deadline_exceeded),
            ("cancelled", self.cancelled),
            ("drain_aborted", self.drain_aborted),
            ("completed", self.completed),
            ("failed", self.failed),
            ("samples_completed", self.samples_completed),
        ];
        for (i, (k, v)) in fields.iter().enumerate() {
            let comma = if i + 1 < fields.len() { "," } else { "" };
            let _ = write!(s, "\n    \"{k}\": {v}{comma}");
        }
        let _ = write!(
            s,
            "\n  }},\n  \"queue\": {{\n    \"depth\": {},\n    \"depth_peak\": {},\n    \
             \"wait_p50_ns\": {},\n    \"wait_p99_ns\": {}\n  }},\n  \"service\": {{\n    \
             \"count\": {},\n    \"p50_ns\": {},\n    \"p99_ns\": {}\n  }},\n  \"engine\": {{\n    \
             \"worker_stalled\": {},\n    \"workers_respawned\": {},\n    \
             \"degraded\": {}\n  }},\n  \"models\": [",
            self.queue_depth,
            self.queue_depth_peak,
            self.queue_wait.quantile_ns(0.50),
            self.queue_wait.quantile_ns(0.99),
            self.service.count(),
            self.service.quantile_ns(0.50),
            self.service.quantile_ns(0.99),
            self.worker_stalled,
            self.workers_respawned,
            self.degraded,
        );
        for (i, m) in self.per_model.iter().enumerate() {
            let comma = if i + 1 < self.per_model.len() {
                ","
            } else {
                ""
            };
            let _ = write!(
                s,
                "\n    {{\"key\": \"{}\", \"admitted\": {}, \"completed\": {}, \"failed\": {}, \
                 \"shed\": {}, \"expired\": {}, \"samples\": {}, \"service_ns\": {}}}{comma}",
                m.key.replace('\\', "\\\\").replace('"', "\\\""),
                m.admitted,
                m.completed,
                m.failed,
                m.shed,
                m.expired,
                m.samples,
                m.service_ns,
            );
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Renders the snapshot in Prometheus **text exposition format**
    /// (version 0.0.4): one counter per request-lifecycle field, gauges
    /// for the ring depth, the two log₂ histograms as cumulative
    /// `_bucket{le="…"}`/`_sum`/`_count` series, and labelled per-model
    /// counters. Durations are exposed in nanoseconds (the `_ns` name
    /// suffix marks the unit); bucket bounds are the histogram's native
    /// powers of two, truncated after the last non-empty bucket (the
    /// mandatory `+Inf` bucket always closes the series).
    ///
    /// Output is deterministic for a given snapshot (fixed metric order,
    /// per-model rows sorted by key), unit-tested against a golden string.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let counters: [(&str, u64); 17] = [
            ("submitted", self.submitted),
            ("admitted", self.admitted),
            ("shed_queue_full", self.shed_queue_full),
            ("shed_evicted", self.shed_evicted),
            ("rate_limited", self.rate_limited),
            ("model_unknown", self.model_unknown),
            ("unsupported", self.unsupported),
            ("rejected_closed", self.rejected_closed),
            ("rejected_degraded", self.rejected_degraded),
            ("dispatched", self.dispatched),
            ("dropped_closed", self.dropped_closed),
            ("deadline_exceeded", self.deadline_exceeded),
            ("cancelled", self.cancelled),
            ("drain_aborted", self.drain_aborted),
            ("completed", self.completed),
            ("failed", self.failed),
            ("samples_completed", self.samples_completed),
        ];
        for (name, v) in counters {
            let _ = writeln!(s, "# TYPE dp_gateway_{name}_total counter");
            let _ = writeln!(s, "dp_gateway_{name}_total {v}");
        }
        let _ = writeln!(s, "# TYPE dp_gateway_queue_depth gauge");
        let _ = writeln!(s, "dp_gateway_queue_depth {}", self.queue_depth);
        let _ = writeln!(s, "# TYPE dp_gateway_queue_depth_peak gauge");
        let _ = writeln!(s, "dp_gateway_queue_depth_peak {}", self.queue_depth_peak);
        // The recorder's recent-depth reservoir as a three-row summary.
        // `stat` (not `quantile`) because min/mean/max are not quantile
        // ranks; the `_count` series is always present so the family
        // survives in the exposition (and the drift anchor) when tracing
        // is off.
        let reservoir = "dp_gateway_queue_depth_reservoir";
        let _ = writeln!(s, "# TYPE {reservoir} summary");
        if let Some(d) = &self.queue_depth_reservoir {
            for (stat, v) in [("min", d.min), ("mean", d.mean), ("max", d.max)] {
                let _ = writeln!(s, "{reservoir}{{stat=\"{stat}\"}} {v}");
            }
            let _ = writeln!(s, "{reservoir}_count {}", d.count);
        } else {
            let _ = writeln!(s, "{reservoir}_count 0");
        }
        let _ = writeln!(s, "# TYPE dp_gateway_worker_stalled_total counter");
        let _ = writeln!(s, "dp_gateway_worker_stalled_total {}", self.worker_stalled);
        let _ = writeln!(s, "# TYPE dp_gateway_workers_respawned_total counter");
        let _ = writeln!(
            s,
            "dp_gateway_workers_respawned_total {}",
            self.workers_respawned
        );
        let _ = writeln!(s, "# TYPE dp_gateway_degraded gauge");
        let _ = writeln!(s, "dp_gateway_degraded {}", u64::from(self.degraded));
        for (name, h) in [
            ("dp_gateway_queue_wait_ns", &self.queue_wait),
            ("dp_gateway_service_ns", &self.service),
        ] {
            let _ = writeln!(s, "# TYPE {name} histogram");
            let total = h.count();
            if let Some(last) = h.counts.iter().rposition(|&c| c != 0) {
                let mut cumulative = 0u64;
                for (i, &c) in h.counts.iter().enumerate().take(last + 1) {
                    cumulative += c;
                    // Bucket i holds integer durations in [2^i, 2^(i+1)),
                    // i.e. at most 2^(i+1) − 1 ns — that inclusive bound is
                    // the `le` value, keeping the exposition's ≤ semantics
                    // exact at power-of-two observations.
                    let _ = writeln!(
                        s,
                        "{name}_bucket{{le=\"{}\"}} {cumulative}",
                        (1u128 << (i + 1)) - 1
                    );
                }
            }
            let _ = writeln!(s, "{name}_bucket{{le=\"+Inf\"}} {total}");
            let _ = writeln!(s, "{name}_sum {}", h.sum_ns);
            let _ = writeln!(s, "{name}_count {total}");
        }
        let escape = |v: &str| {
            v.replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n")
        };
        let _ = writeln!(s, "# TYPE dp_gateway_model_requests_total counter");
        for m in &self.per_model {
            let model = escape(&m.key);
            for (outcome, v) in [
                ("admitted", m.admitted),
                ("completed", m.completed),
                ("failed", m.failed),
                ("shed", m.shed),
                ("expired", m.expired),
            ] {
                let _ = writeln!(
                    s,
                    "dp_gateway_model_requests_total{{model=\"{model}\",outcome=\"{outcome}\"}} {v}"
                );
            }
        }
        let _ = writeln!(s, "# TYPE dp_gateway_model_samples_total counter");
        for m in &self.per_model {
            let _ = writeln!(
                s,
                "dp_gateway_model_samples_total{{model=\"{}\"}} {}",
                escape(&m.key),
                m.samples
            );
        }
        let _ = writeln!(s, "# TYPE dp_gateway_model_service_ns_total counter");
        for m in &self.per_model {
            let _ = writeln!(
                s,
                "dp_gateway_model_service_ns_total{{model=\"{}\"}} {}",
                escape(&m.key),
                m.service_ns
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test-only counter bump, keeping the ordering annotation in one
    /// place.
    fn add(c: &AtomicU64, v: u64) {
        // relaxed-ok: single-threaded test setup; nothing to order against.
        c.fetch_add(v, Ordering::Relaxed);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.snapshot().count(), 0);
        assert_eq!(h.snapshot().quantile_ns(0.5), 0);
        // 10 samples at ~1µs, 1 outlier at ~1ms.
        for _ in 0..10 {
            h.record_ns(1_000);
        }
        h.record_ns(1_000_000);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 11);
        let p50 = snap.quantile_ns(0.5);
        assert!((1_024..=2_048).contains(&p50), "{p50}");
        let p99 = snap.quantile_ns(0.99);
        assert!(p99 >= 1_000_000, "{p99}");
        // Extremes stay in range.
        h.record_ns(0);
        h.record_ns(u64::MAX);
        assert_eq!(h.snapshot().count(), 13);
    }

    #[test]
    fn snapshot_json_is_valid_shape() {
        let m = GatewayMetrics::default();
        add(&m.submitted, 7);
        add(&m.admitted, 5);
        add(&m.shed_queue_full, 2);
        let mm = m.model(&ModelKey::new("iris", "posit<8,0>"));
        add(&mm.admitted, 5);
        m.queue_wait.record_ns(500);
        let snap = m.snapshot(3);
        assert_eq!(snap.submitted, 7);
        assert_eq!(snap.shed_total(), 2);
        assert_eq!(snap.queue_depth, 3);
        assert_eq!(snap.per_model.len(), 1);
        assert_eq!(snap.per_model[0].admitted, 5);
        let json = snap.to_json();
        assert!(json.contains("\"submitted\": 7"), "{json}");
        assert!(json.contains("\"iris@posit<8,0>\""), "{json}");
        // Balanced braces/brackets — the writer emits well-formed JSON.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "{json}"
        );
    }

    #[test]
    fn prometheus_exposition_matches_golden_string() {
        // A small, fully pinned snapshot rendered end to end: counters,
        // gauges, truncated cumulative histogram buckets, +Inf/_sum/_count
        // and labelled per-model rows, in this exact order.
        let m = GatewayMetrics::default();
        add(&m.submitted, 7);
        add(&m.admitted, 5);
        add(&m.shed_queue_full, 2);
        add(&m.rate_limited, 1);
        add(&m.dispatched, 5);
        add(&m.completed, 4);
        add(&m.failed, 1);
        add(&m.samples_completed, 40);
        add(&m.deadline_exceeded, 1);
        m.note_depth(6);
        m.queue_wait.record_ns(1000); // bucket [512, 1024) → le="1023"
        m.queue_wait.record_ns(1000);
        m.service.record_ns(5000); // bucket [4096, 8192) → le="8191"
        let mm = m.model(&ModelKey::new("iris", "posit<8,0>"));
        add(&mm.admitted, 5);
        add(&mm.completed, 4);
        add(&mm.failed, 1);
        add(&mm.shed, 2);
        add(&mm.expired, 1);
        add(&mm.samples, 40);
        add(&mm.service_ns, 5000);

        let golden = "\
# TYPE dp_gateway_submitted_total counter
dp_gateway_submitted_total 7
# TYPE dp_gateway_admitted_total counter
dp_gateway_admitted_total 5
# TYPE dp_gateway_shed_queue_full_total counter
dp_gateway_shed_queue_full_total 2
# TYPE dp_gateway_shed_evicted_total counter
dp_gateway_shed_evicted_total 0
# TYPE dp_gateway_rate_limited_total counter
dp_gateway_rate_limited_total 1
# TYPE dp_gateway_model_unknown_total counter
dp_gateway_model_unknown_total 0
# TYPE dp_gateway_unsupported_total counter
dp_gateway_unsupported_total 0
# TYPE dp_gateway_rejected_closed_total counter
dp_gateway_rejected_closed_total 0
# TYPE dp_gateway_rejected_degraded_total counter
dp_gateway_rejected_degraded_total 0
# TYPE dp_gateway_dispatched_total counter
dp_gateway_dispatched_total 5
# TYPE dp_gateway_dropped_closed_total counter
dp_gateway_dropped_closed_total 0
# TYPE dp_gateway_deadline_exceeded_total counter
dp_gateway_deadline_exceeded_total 1
# TYPE dp_gateway_cancelled_total counter
dp_gateway_cancelled_total 0
# TYPE dp_gateway_drain_aborted_total counter
dp_gateway_drain_aborted_total 0
# TYPE dp_gateway_completed_total counter
dp_gateway_completed_total 4
# TYPE dp_gateway_failed_total counter
dp_gateway_failed_total 1
# TYPE dp_gateway_samples_completed_total counter
dp_gateway_samples_completed_total 40
# TYPE dp_gateway_queue_depth gauge
dp_gateway_queue_depth 3
# TYPE dp_gateway_queue_depth_peak gauge
dp_gateway_queue_depth_peak 6
# TYPE dp_gateway_queue_depth_reservoir summary
dp_gateway_queue_depth_reservoir{stat=\"min\"} 1
dp_gateway_queue_depth_reservoir{stat=\"mean\"} 3
dp_gateway_queue_depth_reservoir{stat=\"max\"} 6
dp_gateway_queue_depth_reservoir_count 4
# TYPE dp_gateway_worker_stalled_total counter
dp_gateway_worker_stalled_total 0
# TYPE dp_gateway_workers_respawned_total counter
dp_gateway_workers_respawned_total 0
# TYPE dp_gateway_degraded gauge
dp_gateway_degraded 0
# TYPE dp_gateway_queue_wait_ns histogram
dp_gateway_queue_wait_ns_bucket{le=\"1\"} 0
dp_gateway_queue_wait_ns_bucket{le=\"3\"} 0
dp_gateway_queue_wait_ns_bucket{le=\"7\"} 0
dp_gateway_queue_wait_ns_bucket{le=\"15\"} 0
dp_gateway_queue_wait_ns_bucket{le=\"31\"} 0
dp_gateway_queue_wait_ns_bucket{le=\"63\"} 0
dp_gateway_queue_wait_ns_bucket{le=\"127\"} 0
dp_gateway_queue_wait_ns_bucket{le=\"255\"} 0
dp_gateway_queue_wait_ns_bucket{le=\"511\"} 0
dp_gateway_queue_wait_ns_bucket{le=\"1023\"} 2
dp_gateway_queue_wait_ns_bucket{le=\"+Inf\"} 2
dp_gateway_queue_wait_ns_sum 2000
dp_gateway_queue_wait_ns_count 2
# TYPE dp_gateway_service_ns histogram
dp_gateway_service_ns_bucket{le=\"1\"} 0
dp_gateway_service_ns_bucket{le=\"3\"} 0
dp_gateway_service_ns_bucket{le=\"7\"} 0
dp_gateway_service_ns_bucket{le=\"15\"} 0
dp_gateway_service_ns_bucket{le=\"31\"} 0
dp_gateway_service_ns_bucket{le=\"63\"} 0
dp_gateway_service_ns_bucket{le=\"127\"} 0
dp_gateway_service_ns_bucket{le=\"255\"} 0
dp_gateway_service_ns_bucket{le=\"511\"} 0
dp_gateway_service_ns_bucket{le=\"1023\"} 0
dp_gateway_service_ns_bucket{le=\"2047\"} 0
dp_gateway_service_ns_bucket{le=\"4095\"} 0
dp_gateway_service_ns_bucket{le=\"8191\"} 1
dp_gateway_service_ns_bucket{le=\"+Inf\"} 1
dp_gateway_service_ns_sum 5000
dp_gateway_service_ns_count 1
# TYPE dp_gateway_model_requests_total counter
dp_gateway_model_requests_total{model=\"iris@posit<8,0>\",outcome=\"admitted\"} 5
dp_gateway_model_requests_total{model=\"iris@posit<8,0>\",outcome=\"completed\"} 4
dp_gateway_model_requests_total{model=\"iris@posit<8,0>\",outcome=\"failed\"} 1
dp_gateway_model_requests_total{model=\"iris@posit<8,0>\",outcome=\"shed\"} 2
dp_gateway_model_requests_total{model=\"iris@posit<8,0>\",outcome=\"expired\"} 1
# TYPE dp_gateway_model_samples_total counter
dp_gateway_model_samples_total{model=\"iris@posit<8,0>\"} 40
# TYPE dp_gateway_model_service_ns_total counter
dp_gateway_model_service_ns_total{model=\"iris@posit<8,0>\"} 5000
";
        // Post-fill the recorder-sourced reservoir the way
        // `Gateway::snapshot` does, so the summary's labelled rows render.
        let mut snap = m.snapshot(3);
        snap.queue_depth_reservoir = Some(DepthSummary {
            min: 1,
            max: 6,
            mean: 3,
            count: 4,
        });
        assert_eq!(snap.to_prometheus(), golden);
    }

    #[test]
    fn prometheus_empty_histograms_and_label_escaping() {
        let m = GatewayMetrics::default();
        let mm = m.model(&ModelKey::new("we\"ird\\name", "posit<8,0>"));
        add(&mm.admitted, 1);
        let text = m.snapshot(0).to_prometheus();
        // Empty histograms keep the mandatory +Inf/_sum/_count series and
        // emit no finite buckets.
        assert!(text.contains("dp_gateway_queue_wait_ns_bucket{le=\"+Inf\"} 0"));
        assert!(!text.contains("dp_gateway_queue_wait_ns_bucket{le=\"1\"}"));
        assert!(text.contains("dp_gateway_queue_wait_ns_sum 0"));
        assert!(text.contains("dp_gateway_service_ns_count 0"));
        // Quotes and backslashes in model names are escaped per the
        // exposition format.
        assert!(
            text.contains("model=\"we\\\"ird\\\\name@posit<8,0>\""),
            "{text}"
        );
    }

    #[test]
    fn model_metrics_are_shared_per_key() {
        let m = GatewayMetrics::default();
        let a = m.model(&ModelKey::new("iris", "posit<8,0>"));
        let b = m.model(&ModelKey::new("iris", "posit<8,0>"));
        add(&a.completed, 1);
        // relaxed-ok: same-thread read of a counter bumped above.
        assert_eq!(b.completed.load(Ordering::Relaxed), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn prune_model_removes_the_row_and_later_expositions() {
        // Regression: per-model rows used to live forever — every
        // register/serve/unregister cycle leaked one row into the map and
        // every subsequent /metrics exposition.
        let m = GatewayMetrics::default();
        let keep = ModelKey::new("keep", "posit<8,0>");
        let churn = ModelKey::new("churn", "posit<8,0>");
        let kept = m.model(&keep);
        let churned = m.model(&churn);
        add(&kept.completed, 2);
        add(&churned.completed, 5);
        assert_eq!(m.snapshot(0).per_model.len(), 2);

        assert!(m.prune_model(&churn), "row existed, prune reports it");
        assert!(!m.prune_model(&churn), "second prune is a no-op");
        let snap = m.snapshot(0);
        assert_eq!(snap.per_model.len(), 1);
        assert_eq!(snap.per_model[0].key, keep.to_string());
        let prom = snap.to_prometheus();
        assert!(!prom.contains("churn@"), "{prom}");
        // A held Arc survives the prune (in-flight requests keep
        // counting); re-requesting the key starts a fresh row.
        add(&churned.completed, 1);
        // relaxed-ok: same-thread read of the counter bumped above.
        assert_eq!(churned.completed.load(Ordering::Relaxed), 6);
        let fresh = m.model(&churn);
        assert!(!Arc::ptr_eq(&fresh, &churned));
        // relaxed-ok: fresh row was never bumped.
        assert_eq!(fresh.completed.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn prom_type_rows_match_rendered_exposition() {
        // PROM_TYPE_ROWS is the drift anchor the `prom-drift` lint keys
        // on; this pins it to what `to_prometheus` actually renders —
        // every family, kind and order, with at least one per-model row
        // so the labelled families appear.
        let m = GatewayMetrics::default();
        let _ = m.model(&ModelKey::new("iris", "posit<8,0>"));
        let text = m.snapshot(0).to_prometheus();
        let rendered: Vec<(String, String)> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .map(|l| {
                let mut it = l.split_whitespace();
                (
                    it.next().unwrap_or_default().to_string(),
                    it.next().unwrap_or_default().to_string(),
                )
            })
            .collect();
        let expected: Vec<(String, String)> = PROM_TYPE_ROWS
            .iter()
            .map(|(n, k)| (n.to_string(), k.to_string()))
            .collect();
        assert_eq!(rendered, expected);
    }
}
