//! The gateway proper: non-blocking admission in front of a
//! [`ServeEngine`], with a bounded submission ring, overload policies,
//! per-model rate limits, request deadlines and cancellation.
//!
//! ```text
//! clients ──try_submit──▶ [bounded ring] ──take──▶ engine workers, chunk by chunk
//!              │                │ (overload policy:          │ (fair across models,
//!              │ verdicts       │  Block / ShedNewest /      │  request-FIFO within one;
//!              ▼                │  ShedOldest; lazy expiry   │  watchdog + panic
//!        Admitted / QueueFull / │  when a worker pops)       │  budget)
//!        ModelUnknown / RateLimited / Degraded
//! ```
//!
//! Admission never blocks on [`Gateway::try_submit_forward`] /
//! [`Gateway::try_submit_classify`]: the caller gets a typed
//! [`Admission`] verdict immediately. The ring is the only queue between
//! admission and evaluation: the engine's workers take requests from it
//! directly — fairly between logical models, in admission order within
//! one — and split each into chunks as they take it, so
//! backpressure surfaces in the ring, where the overload policy decides
//! who pays for a burst.
//!
//! # Request lifecycle
//!
//! ```text
//! submitted ──▶ admitted ──▶ dispatched ──▶ completed
//!     │             │             │
//!     │             ├─▶ shed      ├─▶ failed (chunk panic / stall)
//!     │             ├─▶ expired   └─▶ cancelled (mid-flight)
//!     │             ├─▶ cancelled (while queued)
//!     │             └─▶ dropped (drain deadline / degraded)
//!     └─▶ rejected (queue full / unknown / rate limited /
//!                   unsupported / closed / degraded)
//! ```
//!
//! *Dispatched* means a worker took the request out of the ring: from
//! then on it can no longer be evicted or expire. Every admitted request
//! resolves to exactly one typed outcome through its [`GatewayHandle`] —
//! shed, expired, cancelled and dropped requests resolve promptly rather
//! than hanging, and [`GatewayHandle::wait_timeout`] bounds any residual
//! wait.

use crate::check::check_yield;
use crate::faults;
use crate::handle::{GatewayError, GatewayHandle, HandleCell, Settled};
use crate::limiter::{RateLimit, TokenBucket};
use crate::metrics::{bump, bump_by, GatewayMetrics, MetricsSnapshot, ModelMetrics};
use crate::ring::{Queued, SubmissionRing, Take, TryPush};
use deep_positron::{NumericFormat, QuantizedMlp};
use dp_serve::{
    chunk_job, eval_chunk, CancelToken, ChunkRequest, EngineConfig, Health, Job, JobError,
    JobSource, ModelKey, ModelRegistry, PanicBudget, ServeEngine, WatchdogConfig,
};
use dp_trace::{Clock, Recorder, TerminalKind, TraceConfig, TraceCtx};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// What a full submission ring does with the overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// `submit_*` blocks the producer until space frees (classic
    /// backpressure; `try_submit_*` still never blocks — it reports
    /// [`Admission::QueueFull`]). Maximizes completeness, exposes callers
    /// to burst latency.
    Block,
    /// Reject the incoming request ([`Admission::QueueFull`]); everything
    /// already admitted keeps its place. Favors requests already in
    /// flight.
    ShedNewest,
    /// Evict the **oldest** queued request (its handle resolves to
    /// [`GatewayError::Shed`]) and admit the newcomer. Favors fresh
    /// traffic — the evictee was going to be the stalest response anyway.
    ShedOldest,
}

impl OverloadPolicy {
    /// Stable lowercase name (bench metadata, logs).
    pub fn as_str(&self) -> &'static str {
        match self {
            OverloadPolicy::Block => "block",
            OverloadPolicy::ShedNewest => "shed_newest",
            OverloadPolicy::ShedOldest => "shed_oldest",
        }
    }
}

/// Per-request submission options: a deadline and a trace identity,
/// carried with the request through the ring.
///
/// ```
/// use dp_gateway::SubmitOptions;
/// use std::time::Duration;
///
/// let opts = SubmitOptions::new().deadline_in(Duration::from_millis(250));
/// assert!(opts.deadline.is_some());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// Absolute deadline: if no worker has started the request by this
    /// instant, it is lazily expired — the handle resolves to
    /// [`GatewayError::DeadlineExceeded`] and the request's rate-limit
    /// tokens are refunded. `None` (the default) never expires.
    pub deadline: Option<Instant>,
    /// Request id for the flight recorder: network front ends pass the
    /// wire request id so timelines correlate with client logs; `None`
    /// makes the gateway assign one (high bit set, to keep the spaces
    /// visually apart). Also the deterministic sampler input.
    pub trace_id: Option<u64>,
    /// When the request's frame was received off the wire, so traced
    /// timelines include the pre-admission network stage. `None` for
    /// in-process submissions.
    pub received: Option<Instant>,
}

impl SubmitOptions {
    /// Default options: no deadline, no trace identity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets an absolute deadline.
    pub fn deadline(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Sets the deadline `timeout` from now.
    pub fn deadline_in(mut self, timeout: Duration) -> Self {
        // clock-ok: caller-side sugar computing an absolute wall-clock
        // deadline at the submission boundary; the gateway's seam-based
        // clock only *checks* deadlines, it does not mint them.
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Attaches a trace identity: the request id the flight recorder
    /// samples on and renders, plus the frame-receive instant (network
    /// front ends stamp this so timelines start at the wire).
    pub fn traced_from(mut self, trace_id: u64, received: Instant) -> Self {
        self.trace_id = Some(trace_id);
        self.received = Some(received);
        self
    }
}

/// Maps a gateway verdict onto its flight-recorder terminal kind.
fn terminal_of(e: &GatewayError) -> TerminalKind {
    match e {
        GatewayError::Shed => TerminalKind::Shed,
        GatewayError::Closed => TerminalKind::Closed,
        GatewayError::DeadlineExceeded => TerminalKind::Expired,
        GatewayError::Cancelled => TerminalKind::Cancelled,
        GatewayError::Degraded => TerminalKind::Degraded,
        GatewayError::Job(_) => TerminalKind::Failed,
    }
}

/// Typed admission verdict: what happened to a `submit`/`try_submit`.
pub enum Admission<T> {
    /// Admitted; results arrive through the handle (which may still
    /// resolve to [`GatewayError::Shed`] under `ShedOldest` pressure, or
    /// to [`GatewayError::DeadlineExceeded`] if its deadline passes
    /// before a worker starts it).
    Admitted(GatewayHandle<T>),
    /// The ring was full and the policy shed this request. Nothing was
    /// enqueued; retry later or switch policy.
    QueueFull,
    /// No model is registered under the key.
    ModelUnknown(ModelKey),
    /// The model's token bucket is empty — the caller exceeded the
    /// configured samples-per-second budget.
    RateLimited,
    /// The operation is undefined for the model's format (raw EMAC
    /// activations of the `F32` baseline).
    Unsupported(String),
    /// The gateway is shutting down.
    Closed,
    /// The serving engine is degraded — its worker panic budget tripped
    /// (see [`PanicBudget`]) — and admission is rejected until an
    /// operator calls [`Gateway::reset_degraded`]. Metrics and
    /// already-admitted work keep draining.
    Degraded,
}

// Manual impl: the derive would demand `T: Debug`, which the payload
// types don't all provide (and the handle renders its stage anyway).
impl<T> std::fmt::Debug for Admission<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Admission::Admitted(h) => f.debug_tuple("Admitted").field(h).finish(),
            Admission::QueueFull => write!(f, "QueueFull"),
            Admission::ModelUnknown(key) => f.debug_tuple("ModelUnknown").field(key).finish(),
            Admission::RateLimited => write!(f, "RateLimited"),
            Admission::Unsupported(what) => f.debug_tuple("Unsupported").field(what).finish(),
            Admission::Closed => write!(f, "Closed"),
            Admission::Degraded => write!(f, "Degraded"),
        }
    }
}

impl<T> Admission<T> {
    /// Whether the request was admitted.
    pub fn is_admitted(&self) -> bool {
        matches!(self, Admission::Admitted(_))
    }

    /// The handle, if admitted.
    pub fn handle(self) -> Option<GatewayHandle<T>> {
        match self {
            Admission::Admitted(h) => Some(h),
            _ => None,
        }
    }

    /// The handle, panicking on any rejection verdict (test/bench sugar).
    pub fn expect_admitted(self) -> GatewayHandle<T> {
        match self {
            Admission::Admitted(h) => h,
            // panic-ok: documented test/bench sugar — the method name
            // promises the panic on any rejection verdict.
            other => panic!("expected admission, got {other:?}"),
        }
    }
}

/// A request's per-sample answer: raw output activations (forward) or a
/// class (classify).
trait Output: Clone + Send + Sync + 'static {
    /// Whether the answer needs the EMAC datapath (raw activations are
    /// undefined for the `F32` baseline).
    const NEEDS_EMAC: bool;

    /// Evaluates one chunk of samples.
    fn eval(model: &QuantizedMlp, xs: &[Vec<f32>]) -> Vec<Self>;
}

impl Output for Vec<u32> {
    const NEEDS_EMAC: bool = true;

    fn eval(model: &QuantizedMlp, xs: &[Vec<f32>]) -> Vec<Self> {
        eval_chunk(model, xs)
    }
}

impl Output for usize {
    const NEEDS_EMAC: bool = false;

    fn eval(model: &QuantizedMlp, xs: &[Vec<f32>]) -> Vec<Self> {
        if matches!(model.format, NumericFormat::F32) {
            // The f32 baseline has no EMAC datapath: plain float math.
            return xs.iter().map(|x| model.infer(x)).collect();
        }
        eval_chunk(model, xs)
            .iter()
            .map(|bits| model.argmax_bits(bits))
            .collect()
    }
}

/// One admitted request: queued in the ring, then — once a worker starts
/// it — shared by its chunk jobs.
struct Request<T> {
    /// Logical model name — the rate-limit bucket key (kept so an
    /// eviction or expiry can refund the tokens this request was
    /// charged) and the fault-injection scope.
    model_name: String,
    /// The ring lane: a hash of `model_name`.
    lane: u64,
    model: Arc<QuantizedMlp>,
    xs: Vec<Vec<f32>>,
    chunk_samples: usize,
    cell: Arc<HandleCell<T>>,
    metrics: Arc<GatewayMetrics>,
    model_metrics: Arc<ModelMetrics>,
    /// The gateway's clock seam: queue wait and service time are measured
    /// on it so tests can virtualize them.
    clock: Clock,
    enqueued: Instant,
    /// When a worker started the request (service time runs from here).
    started: OnceLock<Instant>,
    /// Lazily enforced when a worker pops the request; see
    /// [`SubmitOptions::deadline`].
    deadline: Option<Instant>,
    /// Flight-recorder context (`None` when tracing is off); stamped at
    /// each pipeline stage, emits the terminal event at resolution.
    trace: Option<TraceCtx>,
}

/// A ring entry: one admitted request of either answer shape.
trait Entry: Send + Sync {
    /// Logical model name (the rate-limit bucket key).
    fn model_name(&self) -> &str;
    /// The ring lane: one per logical model.
    fn lane(&self) -> u64;
    /// Samples this request carries.
    fn samples(&self) -> usize;
    /// Chunks the request splits into.
    fn chunks(&self) -> usize;
    /// The request's deadline, if any.
    fn deadline(&self) -> Option<Instant>;
    /// Whether the handle's cancel token has fired.
    fn is_cancelled(&self) -> bool;
    /// Resolves the request without starting it.
    fn resolve_unstarted(&self, reason: GatewayError);
    /// Marks the request dispatched; returns its chunk count.
    fn start(&self) -> usize;
    /// Chunk `index` as a pool job.
    fn job(self: Arc<Self>, index: usize) -> Job;
}

type Pending = Arc<dyn Entry>;

impl Queued for Pending {
    fn lane(&self) -> u64 {
        Entry::lane(&**self)
    }

    fn cost(&self) -> u64 {
        self.samples() as u64
    }
}

impl<T: Output> Entry for Request<T> {
    fn model_name(&self) -> &str {
        &self.model_name
    }

    fn lane(&self) -> u64 {
        self.lane
    }

    fn samples(&self) -> usize {
        self.xs.len()
    }

    fn chunks(&self) -> usize {
        self.xs.len().div_ceil(self.chunk_samples)
    }

    fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    fn is_cancelled(&self) -> bool {
        self.cell.cancel_token().is_cancelled()
    }

    fn resolve_unstarted(&self, reason: GatewayError) {
        match reason {
            GatewayError::Shed => bump(&self.model_metrics.shed),
            GatewayError::DeadlineExceeded => bump(&self.model_metrics.expired),
            _ => {}
        }
        if let Some(t) = &self.trace {
            t.resolve(terminal_of(&reason));
        }
        self.cell.resolve(Err(reason));
    }

    fn start(&self) -> usize {
        let now = self.clock.now();
        let _ = self.started.set(now);
        self.metrics
            .queue_wait
            .record_ns(now.saturating_duration_since(self.enqueued).as_nanos() as u64);
        let chunks = self.chunks();
        if let Some(t) = &self.trace {
            t.dispatched(chunks as u64);
        }
        bump(&self.metrics.dispatched);
        self.cell.dispatched(chunks);
        chunks
    }

    fn job(self: Arc<Self>, index: usize) -> Job {
        chunk_job(self, index)
    }
}

impl<T: Output> ChunkRequest for Request<T> {
    type Out = T;

    fn scope(&self) -> &str {
        &self.model_name
    }

    fn cancel_token(&self) -> &CancelToken {
        self.cell.cancel_token()
    }

    fn eval(&self, index: usize) -> Vec<T> {
        let from = index * self.chunk_samples;
        let to = (from + self.chunk_samples).min(self.xs.len());
        T::eval(&self.model, &self.xs[from..to])
    }

    /// The last chunk out records the request's outcome — service time
    /// and the completed/failed/cancelled counters, the trace terminal —
    /// and only then resolves the handle, so a caller woken by the handle
    /// already sees final counters. The counters record what the workers
    /// did: a request whose handle a caller cancelled while its started
    /// chunks ran to completion counts as completed.
    fn settle(&self, index: usize, result: Result<Vec<T>, JobError>, delivered: bool) {
        check_yield!("gateway.chunk.settle");
        if let Some(t) = &self.trace {
            t.chunk_done();
        }
        let Some((settled, resolution)) = self.cell.settle_chunk(index, result, delivered) else {
            return;
        };
        let (metrics, model_metrics) = (&self.metrics, &self.model_metrics);
        let kind = match settled {
            Settled::Failed(_) => {
                bump(&metrics.failed);
                bump(&model_metrics.failed);
                TerminalKind::Failed
            }
            // Cancelled mid-flight: neither completed nor failed.
            Settled::Cancelled => {
                bump(&metrics.cancelled);
                TerminalKind::Cancelled
            }
            Settled::Completed => {
                // Service time covers completed requests only, so
                // service_ns / completed is a true per-model mean.
                let started = self.started.get().copied().unwrap_or(self.enqueued);
                let ns = self
                    .clock
                    .now()
                    .saturating_duration_since(started)
                    .as_nanos() as u64;
                let samples = self.xs.len() as u64;
                metrics.service.record_ns(ns);
                bump_by(&model_metrics.service_ns, ns);
                bump(&metrics.completed);
                bump(&model_metrics.completed);
                bump_by(&metrics.samples_completed, samples);
                bump_by(&model_metrics.samples, samples);
                TerminalKind::Completed
            }
        };
        if let Some(t) = &self.trace {
            t.resolve(kind);
        }
        if let Some(r) = resolution {
            self.cell.resolve(r);
        }
    }
}

/// The workers' side of the gateway: the engine's [`JobSource`]. A worker
/// takes a running request's next chunk or pops the next request, starts
/// it (or discards it, if it died in the ring) and runs its first chunk.
struct Intake {
    ring: SubmissionRing<Pending>,
    metrics: Arc<GatewayMetrics>,
    /// Per-model token buckets; a request discarded in the ring gets the
    /// tokens admission charged it back.
    limiters: HashMap<String, TokenBucket>,
    clock: Clock,
    recorder: Option<Arc<Recorder>>,
    drain_deadline: Duration,
    /// Whether the drain-deadline abort has been logged yet.
    drain_logged: AtomicBool,
}

impl Intake {
    /// Why a popped entry must not start: it was cancelled or expired in
    /// the ring, the engine is degraded, or shutdown's drain deadline has
    /// passed. `now` comes off the clock seam so expiry is virtualizable.
    fn dead_verdict(&self, entry: &dyn Entry, health: &Health) -> Option<GatewayError> {
        if entry.is_cancelled() {
            Some(GatewayError::Cancelled)
        } else if entry.deadline().is_some_and(|d| self.clock.now() >= d) {
            Some(GatewayError::DeadlineExceeded)
        } else if health.is_degraded() {
            Some(GatewayError::Degraded)
        } else if self
            .ring
            .closing_since()
            .is_some_and(|at| at.elapsed() >= self.drain_deadline)
        {
            Some(GatewayError::Closed)
        } else {
            None
        }
    }

    /// Resolves a dead entry with its verdict: refunds the rate-limit
    /// tokens admission charged, bumps the matching counters, resolves
    /// the handle.
    fn discard(&self, entry: &dyn Entry, reason: GatewayError) {
        if let Some(bucket) = self.limiters.get(entry.model_name()) {
            bucket.refund(entry.samples() as f64);
        }
        let metrics = &self.metrics;
        match reason {
            GatewayError::DeadlineExceeded => bump(&metrics.deadline_exceeded),
            GatewayError::Cancelled => bump(&metrics.cancelled),
            GatewayError::Degraded => bump(&metrics.rejected_degraded),
            GatewayError::Closed => {
                // relaxed-ok: log-once latch; no other memory hangs off it.
                if !self.drain_logged.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "dp-gateway: shutdown drain exceeded its {:?} deadline; \
                         resolving remaining queued requests as Closed",
                        self.drain_deadline
                    );
                }
                bump(&metrics.drain_aborted);
                bump(&metrics.dropped_closed);
            }
            _ => {}
        }
        entry.resolve_unstarted(reason);
    }
}

impl JobSource for Intake {
    fn next_job(&self, health: &Health) -> Option<Job> {
        loop {
            let entry = match self.ring.take()? {
                Take::Chunk(entry, index) => return Some(entry.job(index)),
                Take::Start(entry) => entry,
            };
            // Fault seam: a planned sleep here delays the start of a
            // popped request and deterministically widens the
            // expiry-vs-start race window.
            faults::fire(faults::points::DELAY_DISPATCH, Some(entry.model_name()));
            // Pop-side queue-depth sample for `/statusz`: together with
            // the admission-side samples this brackets the depth every
            // request saw around its ring transit.
            if let Some(rec) = &self.recorder {
                rec.note_queue_depth(self.ring.len());
            }
            match self.dead_verdict(&*entry, health) {
                None => {
                    let chunks = entry.start();
                    self.ring.started(Some((Arc::clone(&entry), chunks)));
                    return Some(entry.job(0));
                }
                Some(reason) => {
                    self.ring.started(None);
                    self.discard(&*entry, reason);
                    self.ring.settle();
                }
            }
        }
    }

    fn job_settled(&self) {
        self.ring.settle();
    }
}

/// Configures and builds a [`Gateway`] (engine sizing, ring capacity,
/// overload policy, rate limits, supervision, drain deadline) in one
/// place.
#[derive(Debug, Clone)]
pub struct GatewayBuilder {
    workers: usize,
    chunk_samples: usize,
    queue_capacity: usize,
    policy: OverloadPolicy,
    rate_limits: Vec<(String, RateLimit)>,
    drain_deadline: Duration,
    watchdog: Option<WatchdogConfig>,
    panic_budget: Option<PanicBudget>,
    trace: TraceConfig,
    clock: Option<Clock>,
}

impl Default for GatewayBuilder {
    fn default() -> Self {
        GatewayBuilder {
            workers: deep_positron::batch::batch_threads(),
            chunk_samples: 64,
            queue_capacity: 128,
            policy: OverloadPolicy::ShedNewest,
            rate_limits: Vec::new(),
            drain_deadline: Duration::from_secs(30),
            watchdog: None,
            panic_budget: None,
            trace: TraceConfig::default(),
            clock: None,
        }
    }
}

impl GatewayBuilder {
    /// Starts from the defaults: `DEEP_POSITRON_THREADS`-sized pool,
    /// 64-sample chunks, a 128-request ring, `ShedNewest`, no rate
    /// limits, a 30 s shutdown drain deadline, no supervision.
    pub fn new() -> Self {
        Self::default()
    }

    /// Worker thread count for the backing [`ServeEngine`] (clamped ≥ 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Samples per chunk (see [`EngineConfig::chunk_samples`]).
    pub fn chunk_samples(mut self, chunk_samples: usize) -> Self {
        self.chunk_samples = chunk_samples.max(1);
        self
    }

    /// Submission-ring capacity in **requests** (clamped ≥ 1): the most
    /// unstarted traffic that can wait before the overload policy
    /// engages.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// What a full ring does with overflow (default:
    /// [`OverloadPolicy::ShedNewest`]).
    pub fn policy(mut self, policy: OverloadPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Token-bucket rate limit for every model registered under the
    /// logical name `model` (all its format variants share the budget).
    /// Cost is one token per sample. Repeating a name replaces its limit.
    pub fn rate_limit(mut self, model: impl Into<String>, limit: RateLimit) -> Self {
        let model = model.into();
        self.rate_limits.retain(|(name, _)| *name != model);
        self.rate_limits.push((model, limit));
        self
    }

    /// Bounds how long shutdown spends draining the ring backlog through
    /// a saturated engine (default 30 s). Past the deadline, workers
    /// resolve every request they pop to [`GatewayError::Closed`]
    /// (counted in the `drain_aborted` metric and logged) instead of
    /// starting it, so `Drop` cannot hang on a wedged or overloaded pool.
    pub fn drain_deadline(mut self, deadline: Duration) -> Self {
        self.drain_deadline = deadline;
        self
    }

    /// Enables the engine's stall watchdog (see [`WatchdogConfig`]): a
    /// worker stuck past the stall timeout is respawned and only the
    /// stuck chunk's request fails, with
    /// [`JobError::Stalled`].
    pub fn watchdog(mut self, config: WatchdogConfig) -> Self {
        self.watchdog = Some(config);
        self
    }

    /// Enables the engine's panic budget (see [`PanicBudget`]): too many
    /// worker panics inside the window flip the engine — and the gateway
    /// in front of it — into degraded read-only-metrics mode
    /// ([`Admission::Degraded`]).
    pub fn panic_budget(mut self, budget: PanicBudget) -> Self {
        self.panic_budget = Some(budget);
        self
    }

    /// Flight-recorder configuration (see [`TraceConfig`]). The default
    /// records every 16th request into a 64-slot ring plus every slow
    /// exemplar; [`TraceConfig::off`] disables tracing entirely (no
    /// recorder is allocated, the hot path carries a `None`).
    pub fn trace(mut self, cfg: TraceConfig) -> Self {
        self.trace = cfg;
        self
    }

    /// Overrides the gateway's clock seam (default: [`Clock::real`]).
    /// Tests pass [`Clock::manual`] so queue-wait, service time and
    /// slow-exemplar thresholds are deterministic.
    pub fn clock(mut self, clock: Clock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Builds the gateway: the ring, and the engine's worker pool (plus
    /// its watchdog, if configured) pulling from it.
    pub fn build(self) -> Gateway {
        let clock = self.clock.unwrap_or_default();
        let recorder = if self.trace.enabled {
            Some(Recorder::new(self.trace, clock.clone()))
        } else {
            None
        };
        let intake = Arc::new(Intake {
            ring: SubmissionRing::new(self.queue_capacity),
            metrics: Arc::new(GatewayMetrics::default()),
            limiters: self
                .rate_limits
                .into_iter()
                .map(|(name, limit)| (name, TokenBucket::new(limit)))
                .collect(),
            clock,
            recorder,
            drain_deadline: self.drain_deadline,
            drain_logged: AtomicBool::new(false),
        });
        let engine = ServeEngine::new(
            EngineConfig {
                workers: self.workers,
                chunk_samples: self.chunk_samples,
                watchdog: self.watchdog,
                panic_budget: self.panic_budget,
            },
            Arc::clone(&intake) as Arc<dyn JobSource>,
        );
        Gateway {
            engine,
            intake,
            policy: self.policy,
            next_req_id: AtomicU64::new(1),
        }
    }
}

/// The async admission front end: a bounded ring and the
/// [`ServeEngine`] whose workers pull from it. See the
/// [module docs](self) for the pipeline and [`GatewayBuilder`] for the
/// knobs.
///
/// Dropping (or [`Gateway::shutdown`]) is graceful: admission closes, the
/// workers drain every admitted request (bounded by the builder's
/// [drain deadline](GatewayBuilder::drain_deadline)), and all threads
/// join.
pub struct Gateway {
    engine: ServeEngine,
    intake: Arc<Intake>,
    policy: OverloadPolicy,
    /// Request-id generator for submissions that don't carry a wire id
    /// ([`SubmitOptions::trace_id`] `None`): ids get the high bit set so
    /// gateway-assigned and wire id spaces stay visually apart.
    next_req_id: AtomicU64,
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("policy", &self.policy)
            .field("queue_capacity", &self.queue_capacity())
            .field("queue_depth", &self.queue_depth())
            .field("degraded", &self.is_degraded())
            .finish_non_exhaustive()
    }
}

impl Gateway {
    /// A builder with default sizing.
    pub fn builder() -> GatewayBuilder {
        GatewayBuilder::new()
    }

    /// A gateway with [`GatewayBuilder`] defaults.
    pub fn with_defaults() -> Self {
        GatewayBuilder::new().build()
    }

    /// The model registry (register/lookup/unregister models here).
    pub fn registry(&self) -> &ModelRegistry {
        self.engine.registry()
    }

    /// Unregisters a model **and prunes its per-model metrics row**, so a
    /// churny register/unregister workload doesn't grow the metrics map
    /// (and the `/metrics` exposition) without bound. Returns whether the
    /// key was registered. Prefer this over `registry().remove(..)`, which
    /// leaves the metrics row behind.
    pub fn unregister(&self, key: &ModelKey) -> bool {
        let removed = self.engine.registry().remove(key).is_some();
        // Prune unconditionally: a row can exist for a key that was
        // already unregistered through the raw registry seam.
        self.intake.metrics.prune_model(key);
        removed
    }

    /// The flight recorder behind `/tracez`, if tracing is enabled.
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.intake.recorder.as_ref()
    }

    /// The gateway's clock seam (shared with the recorder).
    pub fn clock(&self) -> &Clock {
        &self.intake.clock
    }

    /// The serving engine behind the ring (workers, pool stats).
    pub fn engine(&self) -> &ServeEngine {
        &self.engine
    }

    /// Live counters; see also [`Gateway::snapshot`].
    pub fn metrics(&self) -> &GatewayMetrics {
        &self.intake.metrics
    }

    /// A consistent-enough copy of every counter plus the current ring
    /// depth, the engine's supervision health (stalls, respawns,
    /// degraded flag) and the flight recorder's queue-depth reservoir,
    /// ready for [`MetricsSnapshot::to_json`] /
    /// [`MetricsSnapshot::to_prometheus`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.intake.metrics.snapshot(self.queue_depth());
        let stats = self.engine.stats();
        snap.worker_stalled = stats.stalled;
        snap.workers_respawned = stats.respawned;
        snap.degraded = stats.degraded;
        snap.queue_depth_reservoir = self.recorder().and_then(|rec| rec.queue_depth_summary());
        snap
    }

    /// Whether the engine behind this gateway is degraded (panic budget
    /// tripped); while degraded every submission returns
    /// [`Admission::Degraded`].
    pub fn is_degraded(&self) -> bool {
        self.engine.is_degraded()
    }

    /// Operator reset: clears the degraded flag and the panic window so
    /// admission resumes.
    pub fn reset_degraded(&self) {
        self.engine.reset_degraded();
    }

    /// The configured overload policy.
    pub fn policy(&self) -> OverloadPolicy {
        self.policy
    }

    /// Requests currently waiting in the submission ring (unstarted).
    pub fn queue_depth(&self) -> usize {
        self.intake.ring.len()
    }

    /// The ring's request capacity.
    pub fn queue_capacity(&self) -> usize {
        self.intake.ring.capacity()
    }

    /// Stops the workers popping the ring (admission keeps running, the
    /// ring fills; a request already started keeps running). A control
    /// seam for tests and benches that need a deterministic backlog; pair
    /// with [`Gateway::resume_dispatch`].
    pub fn pause_dispatch(&self) {
        self.intake.ring.pause();
    }

    /// Resumes popping after [`Gateway::pause_dispatch`].
    pub fn resume_dispatch(&self) {
        self.intake.ring.resume();
    }

    /// Non-blocking submission for raw EMAC output activations,
    /// bit-identical to per-sample
    /// [`QuantizedMlp::forward_bits`](deep_positron::QuantizedMlp::forward_bits).
    /// Never blocks, whatever the policy: a full ring under
    /// `Block`/`ShedNewest` yields [`Admission::QueueFull`], under
    /// `ShedOldest` the oldest queued request is evicted instead.
    pub fn try_submit_forward(&self, key: &ModelKey, xs: Vec<Vec<f32>>) -> Admission<Vec<u32>> {
        self.admit(key, xs, SubmitOptions::default(), false)
    }

    /// [`Gateway::try_submit_forward`] with per-request [`SubmitOptions`].
    pub fn try_submit_forward_opts(
        &self,
        key: &ModelKey,
        xs: Vec<Vec<f32>>,
        opts: SubmitOptions,
    ) -> Admission<Vec<u32>> {
        self.admit(key, xs, opts, false)
    }

    /// Non-blocking submission for class predictions (all formats,
    /// including the `F32` baseline). See [`Gateway::try_submit_forward`]
    /// for the verdict semantics.
    pub fn try_submit_classify(&self, key: &ModelKey, xs: Vec<Vec<f32>>) -> Admission<usize> {
        self.admit(key, xs, SubmitOptions::default(), false)
    }

    /// [`Gateway::try_submit_classify`] with per-request
    /// [`SubmitOptions`].
    pub fn try_submit_classify_opts(
        &self,
        key: &ModelKey,
        xs: Vec<Vec<f32>>,
        opts: SubmitOptions,
    ) -> Admission<usize> {
        self.admit(key, xs, opts, false)
    }

    /// Policy-applying submission for raw activations: under
    /// [`OverloadPolicy::Block`] a full ring **blocks the caller** until
    /// space frees; other policies behave like
    /// [`Gateway::try_submit_forward`].
    pub fn submit_forward(&self, key: &ModelKey, xs: Vec<Vec<f32>>) -> Admission<Vec<u32>> {
        self.admit(key, xs, SubmitOptions::default(), true)
    }

    /// [`Gateway::submit_forward`] with per-request [`SubmitOptions`].
    pub fn submit_forward_opts(
        &self,
        key: &ModelKey,
        xs: Vec<Vec<f32>>,
        opts: SubmitOptions,
    ) -> Admission<Vec<u32>> {
        self.admit(key, xs, opts, true)
    }

    /// Policy-applying submission for class predictions; see
    /// [`Gateway::submit_forward`].
    pub fn submit_classify(&self, key: &ModelKey, xs: Vec<Vec<f32>>) -> Admission<usize> {
        self.admit(key, xs, SubmitOptions::default(), true)
    }

    /// [`Gateway::submit_classify`] with per-request [`SubmitOptions`].
    pub fn submit_classify_opts(
        &self,
        key: &ModelKey,
        xs: Vec<Vec<f32>>,
        opts: SubmitOptions,
    ) -> Admission<usize> {
        self.admit(key, xs, opts, true)
    }

    /// Blocks until every admitted-and-not-shed request has resolved: the
    /// ring is empty and every started chunk has settled.
    pub fn wait_idle(&self) {
        self.intake.ring.wait_idle();
    }

    /// Graceful shutdown: closes admission, lets the workers drain the
    /// ring (bounded by the drain deadline), joins every thread.
    /// Equivalent to dropping the gateway, but explicit.
    pub fn shutdown(self) {
        drop(self);
    }

    /// Closes the gateway through a shared reference and **settles** it:
    /// admission closes (subsequent submissions report
    /// [`Admission::Closed`]), the workers drain the ring backlog
    /// (bounded by the builder's drain deadline), and every started chunk
    /// settles.
    ///
    /// On return, [`Gateway::snapshot`] reports **final** counters: every
    /// submitted request has resolved to exactly one outcome, so the
    /// lifecycle conservation laws hold exactly. Network front ends rely
    /// on this for their post-shutdown metrics scrape.
    ///
    /// Idempotent; the eventual drop joins the worker threads.
    /// Already-issued handles still resolve.
    pub fn close(&self) {
        self.intake.ring.close();
        self.intake.ring.wait_idle();
    }

    /// Opens a flight-recorder context for an admitted request: wire ids
    /// pass through ([`SubmitOptions::trace_id`]), in-process submissions
    /// get a gateway-assigned id with the high bit set.
    fn begin_trace(
        &self,
        rec: &Arc<Recorder>,
        key: &ModelKey,
        samples: u64,
        opts: &SubmitOptions,
    ) -> TraceCtx {
        let req_id = opts.trace_id.unwrap_or_else(|| {
            // relaxed-ok: unique-id counter; no ordering with other memory.
            self.next_req_id.fetch_add(1, Ordering::Relaxed) | (1 << 63)
        });
        rec.begin(req_id, &key.to_string(), samples, opts.received)
    }

    fn admit<T: Output>(
        &self,
        key: &ModelKey,
        xs: Vec<Vec<f32>>,
        opts: SubmitOptions,
        may_block: bool,
    ) -> Admission<T> {
        let intake = &*self.intake;
        let metrics = &intake.metrics;
        bump(&metrics.submitted);
        if self.engine.is_degraded() {
            // Degraded read-only-metrics mode: reject before touching the
            // ring so already-admitted work keeps draining undisturbed.
            bump(&metrics.rejected_degraded);
            return Admission::Degraded;
        }
        let Some(model) = self.engine.registry().get(key) else {
            bump(&metrics.model_unknown);
            return Admission::ModelUnknown(key.clone());
        };
        if T::NEEDS_EMAC && matches!(model.format, NumericFormat::F32) {
            bump(&metrics.unsupported);
            return Admission::Unsupported(format!(
                "{key}: raw EMAC activations are undefined for the f32 baseline"
            ));
        }
        if xs.is_empty() {
            // Nothing to evaluate: resolve inline, skip the ring (and the
            // limiter — zero samples cost zero tokens).
            let model_metrics = metrics.model(key);
            let (handle, cell) = GatewayHandle::pending();
            bump(&metrics.admitted);
            bump(&metrics.completed);
            bump(&model_metrics.admitted);
            bump(&model_metrics.completed);
            // Even the inline path opens and closes a trace context, so
            // "every admitted request emits exactly one terminal event"
            // holds without carve-outs.
            if let Some(rec) = &intake.recorder {
                let t = self.begin_trace(rec, key, 0, &opts);
                t.resolve(TerminalKind::Completed);
            }
            cell.resolve(Ok(Vec::new()));
            return Admission::Admitted(handle);
        }
        // Rate limit before any per-model bookkeeping: the rejection
        // verdict is the hot path under over-limit traffic and should not
        // pay the metrics-map lookup (a String render + RwLock read).
        let cost = xs.len() as f64;
        let bucket = intake.limiters.get(key.name());
        if let Some(bucket) = bucket {
            if !bucket.try_acquire(cost) {
                bump(&metrics.rate_limited);
                return Admission::RateLimited;
            }
        }
        let model_metrics = metrics.model(key);
        let (handle, cell) = GatewayHandle::pending();
        // The trace context opens only once every pre-admission screen has
        // passed: a rejected-before-admission request (unknown model,
        // rate-limited, degraded, unsupported) never begins a trace, so
        // recorder `begun` equals terminal events at quiescence.
        let trace = intake
            .recorder
            .as_ref()
            .map(|rec| self.begin_trace(rec, key, xs.len() as u64, &opts));
        let mut lane = DefaultHasher::new();
        key.name().hash(&mut lane);
        let entry: Pending = Arc::new(Request {
            model_name: key.name().to_string(),
            lane: lane.finish(),
            model,
            xs,
            chunk_samples: self.engine.chunk_samples(),
            cell,
            metrics: Arc::clone(metrics),
            model_metrics: Arc::clone(&model_metrics),
            clock: intake.clock.clone(),
            enqueued: intake.clock.now(),
            started: OnceLock::new(),
            deadline: opts.deadline,
            trace: trace.clone(),
        });
        let outcome = if may_block && matches!(self.policy, OverloadPolicy::Block) {
            match intake.ring.push_blocking(entry) {
                Ok(()) => TryPush::Pushed,
                Err(entry) => TryPush::Closed(entry),
            }
        } else {
            let evict = matches!(self.policy, OverloadPolicy::ShedOldest);
            intake.ring.try_push(entry, evict)
        };
        let admitted = |evicted: bool| {
            bump(&metrics.admitted);
            bump(&model_metrics.admitted);
            if evicted {
                bump(&metrics.shed_evicted);
            }
            let depth = intake.ring.len();
            metrics.note_depth(depth as u64);
            if let Some(t) = &trace {
                t.enqueued();
            }
            if let Some(rec) = &intake.recorder {
                rec.note_queue_depth(depth);
            }
        };
        match outcome {
            TryPush::Pushed => {
                admitted(false);
                Admission::Admitted(handle)
            }
            TryPush::PushedEvicting(evicted) => {
                admitted(true);
                // The evictee served nothing either: refund the tokens
                // *it* was charged (its model may differ from this one's).
                if let Some(b) = intake.limiters.get(evicted.model_name()) {
                    b.refund(evicted.samples() as f64);
                }
                evicted.resolve_unstarted(GatewayError::Shed);
                Admission::Admitted(handle)
            }
            TryPush::Full(entry) => {
                bump(&metrics.shed_queue_full);
                // The shed request served nothing: give its tokens back so
                // overload doesn't burn the client's rate budget on top of
                // rejecting the work.
                if let Some(bucket) = bucket {
                    bucket.refund(cost);
                }
                // Resolves the cell (bumping the model's shed counter), so
                // even a stashed clone of the handle cannot hang.
                entry.resolve_unstarted(GatewayError::Shed);
                Admission::QueueFull
            }
            TryPush::Closed(entry) => {
                bump(&metrics.rejected_closed);
                if let Some(bucket) = bucket {
                    bucket.refund(cost);
                }
                entry.resolve_unstarted(GatewayError::Closed);
                Admission::Closed
            }
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.close();
        // `self.engine` drops after this body: its workers find the ring
        // closed and drained, exit, and are joined.
    }
}
