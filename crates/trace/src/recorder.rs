//! The flight recorder: per-request staging contexts feeding a
//! preallocated, lock-free seqlock ring of finished request timelines.
//!
//! A [`TraceCtx`] is handed out at admission and rides the request
//! through the pipeline; each stage stamps one atomic field (a single
//! store — no allocation, no locks). At the **terminal** event the
//! winning resolver decides whether the timeline is kept: sampled
//! requests (deterministic request-id hash, seeded) and **slow
//! exemplars** (total latency over [`TraceConfig::slow_threshold`],
//! captured regardless of sampling) are published into the ring.
//!
//! Publication claims a slot with one `fetch_add` (wait-free) and
//! guards the copy with a per-slot seqlock generation: writers flip the
//! generation odd, store the fields, flip it even; a writer finding the
//! slot mid-write **drops** its record (bounded, never waits) and the
//! contention is counted. Readers snapshot generation → fields →
//! generation and skip torn or in-progress slots, so `/tracez` can
//! render concurrently with the hot path without ever blocking it.

use crate::check::check_yield;
use crate::clock::Clock;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bytes of the model key kept per timeline (fixed so slots stay
/// allocation-free; longer names are truncated for display).
const MODEL_BYTES: usize = 24;

/// Queue-depth reservoir size (ring of recent observations).
const DEPTH_SLOTS: usize = 64;

/// SplitMix64: the deterministic sampler hash. Public so tests and
/// other crates can reproduce sampling decisions bit-for-bit.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Recorder configuration. All knobs are plain data so builders can
/// embed it; [`TraceConfig::off`] disables tracing entirely (callers
/// then skip creating contexts, leaving zero per-request overhead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Whether tracing is on at all. When `false`, gateway builders skip
    /// recorder construction entirely.
    pub enabled: bool,
    /// Ring capacity: how many finished timelines are retained.
    pub slots: usize,
    /// Keep 1-in-N requests by deterministic id hash (`1` = every
    /// request, `0` = sampling off — only slow exemplars are kept).
    pub sample_every: u64,
    /// Seed mixed into the sampling hash, so tests pin exact decisions.
    pub seed: u64,
    /// Requests whose admit→resolve latency reaches this threshold are
    /// recorded in full even when not sampled. `Duration::ZERO`
    /// disables exemplar capture.
    pub slow_threshold: Duration,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: true,
            slots: 64,
            sample_every: 16,
            seed: 0x00D5_AF00,
            slow_threshold: Duration::from_millis(250),
        }
    }
}

impl TraceConfig {
    /// Tracing fully disabled: no recorder, no per-request contexts.
    pub fn off() -> Self {
        TraceConfig {
            enabled: false,
            ..TraceConfig::default()
        }
    }

    /// Sample every request (plus the default slow-exemplar capture).
    pub fn every_request() -> Self {
        TraceConfig {
            sample_every: 1,
            ..TraceConfig::default()
        }
    }
}

/// How a request left the pipeline. Exactly one terminal event is
/// emitted per admitted request; the `u8` values are stable (used in
/// slot words and the stats array).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TerminalKind {
    /// Every chunk finished successfully.
    Completed = 1,
    /// At least one chunk failed (panicked or was stall-failed by the
    /// watchdog — stalls surface as failed chunks at the gateway).
    Failed = 2,
    /// Shed by an overload policy (full-ring rejection or eviction).
    Shed = 3,
    /// Deadline passed before dispatch.
    Expired = 4,
    /// Cancelled via the request's handle or token.
    Cancelled = 5,
    /// Dropped because the gateway/engine closed underneath it.
    Closed = 6,
    /// Dropped at dispatch because the engine was degraded.
    Degraded = 7,
}

impl TerminalKind {
    /// Every terminal kind, in `u8` order.
    pub const ALL: [TerminalKind; 7] = [
        TerminalKind::Completed,
        TerminalKind::Failed,
        TerminalKind::Shed,
        TerminalKind::Expired,
        TerminalKind::Cancelled,
        TerminalKind::Closed,
        TerminalKind::Degraded,
    ];

    /// Stable lowercase name (rendered in `/tracez` and JSON).
    pub fn name(self) -> &'static str {
        match self {
            TerminalKind::Completed => "completed",
            TerminalKind::Failed => "failed",
            TerminalKind::Shed => "shed",
            TerminalKind::Expired => "expired",
            TerminalKind::Cancelled => "cancelled",
            TerminalKind::Closed => "closed",
            TerminalKind::Degraded => "degraded",
        }
    }

    fn from_u64(v: u64) -> Option<TerminalKind> {
        TerminalKind::ALL.into_iter().find(|k| *k as u64 == v)
    }
}

/// One ring slot: a seqlock generation word plus the timeline fields,
/// all individually atomic (the workspace forbids `unsafe`, so torn
/// protection comes from the generation protocol, not `UnsafeCell`).
#[derive(Debug)]
struct Slot {
    /// Seqlock generation: `0` = never written, odd = writer active,
    /// even = stable. Monotone, so readers can detect any interleaved
    /// write by re-reading it.
    gen: AtomicU64,
    /// Global claim sequence of the record (orders timelines).
    seq: AtomicU64,
    req_id: AtomicU64,
    model: [AtomicU64; 3],
    /// `model_len | slow << 8 | terminal << 16`.
    meta: AtomicU64,
    samples: AtomicU64,
    /// `chunks_done << 32 | chunks_total`.
    chunks: AtomicU64,
    received_ns: AtomicU64,
    admitted_ns: AtomicU64,
    enqueued_ns: AtomicU64,
    dispatched_ns: AtomicU64,
    first_chunk_ns: AtomicU64,
    last_chunk_ns: AtomicU64,
    resolved_ns: AtomicU64,
}

impl Slot {
    fn empty() -> Self {
        Slot {
            gen: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            req_id: AtomicU64::new(0),
            model: std::array::from_fn(|_| AtomicU64::new(0)),
            meta: AtomicU64::new(0),
            samples: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
            received_ns: AtomicU64::new(0),
            admitted_ns: AtomicU64::new(0),
            enqueued_ns: AtomicU64::new(0),
            dispatched_ns: AtomicU64::new(0),
            first_chunk_ns: AtomicU64::new(0),
            last_chunk_ns: AtomicU64::new(0),
            resolved_ns: AtomicU64::new(0),
        }
    }
}

/// A read-side copy of one recorded request timeline. Timestamps are
/// nanoseconds on the recorder's [`Clock`] (0 = stage never reached;
/// real stamps are clamped to ≥ 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    /// Global publication sequence (newer = larger).
    pub seq: u64,
    /// The request id the timeline belongs to (wire id or generated).
    pub req_id: u64,
    /// Model key (`name@format`), truncated to 24 bytes.
    pub model: String,
    /// Samples in the request batch.
    pub samples: u64,
    /// Chunks that finished (success or failure).
    pub chunks_done: u32,
    /// Chunks the request was split into when a worker started it
    /// (0 = never started).
    pub chunks_total: u32,
    /// How the request resolved.
    pub terminal: TerminalKind,
    /// Whether this is a slow-request exemplar (kept past sampling).
    pub slow: bool,
    /// Frame receive stamp from the network front end (0 = in-process).
    pub received_ns: u64,
    /// Admission verdict stamp.
    pub admitted_ns: u64,
    /// Submission-ring enqueue stamp.
    pub enqueued_ns: u64,
    /// Dispatcher pick-up stamp.
    pub dispatched_ns: u64,
    /// First chunk completion stamp.
    pub first_chunk_ns: u64,
    /// Last chunk completion stamp.
    pub last_chunk_ns: u64,
    /// Terminal event stamp.
    pub resolved_ns: u64,
}

impl Timeline {
    /// Total latency: admission → terminal, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.resolved_ns.saturating_sub(self.admitted_ns)
    }

    /// The stage stamps that were actually reached, in pipeline order —
    /// the monotonicity contract `/tracez` consumers assert.
    pub fn stages(&self) -> Vec<(&'static str, u64)> {
        [
            ("received", self.received_ns),
            ("admitted", self.admitted_ns),
            ("enqueued", self.enqueued_ns),
            ("dispatched", self.dispatched_ns),
            ("first_chunk", self.first_chunk_ns),
            ("last_chunk", self.last_chunk_ns),
            ("resolved", self.resolved_ns),
        ]
        .into_iter()
        .filter(|(_, ns)| *ns != 0)
        .collect()
    }
}

/// Counter snapshot of the recorder (rendered on `/statusz`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecorderStats {
    /// Trace contexts handed out (≡ admitted, traced requests).
    pub begun: u64,
    /// Timelines published into the ring.
    pub published: u64,
    /// Publications dropped because the claimed slot was mid-write
    /// (the recorder never waits; it sheds its own records instead).
    pub dropped_contended: u64,
    /// Duplicate terminal events suppressed (first one wins). Nonzero
    /// means a lifecycle bug — the conservation tests pin it to 0.
    pub dup_terminals: u64,
    /// Slow exemplars captured past the sampling decision.
    pub slow_captured: u64,
    /// Terminal events by kind, indexed by `TerminalKind as u8`
    /// (index 0 unused).
    pub terminals: [u64; 8],
}

impl RecorderStats {
    /// Terminal-event count for one kind.
    pub fn terminal(&self, kind: TerminalKind) -> u64 {
        self.terminals[kind as usize]
    }

    /// Total terminal events across all kinds.
    pub fn terminals_total(&self) -> u64 {
        self.terminals.iter().sum()
    }
}

/// Min/mean/max of the recent queue-depth reservoir.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthSummary {
    /// Smallest observed depth in the reservoir window.
    pub min: u64,
    /// Largest observed depth in the reservoir window.
    pub max: u64,
    /// Mean depth (integer-truncated).
    pub mean: u64,
    /// Observations currently in the window.
    pub count: u64,
}

/// The flight recorder. Shared as `Arc<Recorder>`; the module-level
/// docs at the top of this file describe the concurrency protocol.
#[derive(Debug)]
pub struct Recorder {
    cfg: TraceConfig,
    clock: Clock,
    slots: Vec<Slot>,
    /// Global claim counter: `fetch_add` here is the wait-free slot
    /// claim.
    head: AtomicU64,
    begun: AtomicU64,
    published: AtomicU64,
    dropped_contended: AtomicU64,
    dup_terminals: AtomicU64,
    slow_captured: AtomicU64,
    terminals: [AtomicU64; 8],
    depth: [AtomicU64; DEPTH_SLOTS],
    depth_head: AtomicU64,
}

/// Bumps a recorder counter by one.
fn bump(c: &AtomicU64) {
    // relaxed-ok: independent monotone counter; nothing orders against
    // it and stats snapshots tolerate cross-counter skew.
    c.fetch_add(1, Ordering::Relaxed);
}

impl Recorder {
    /// Builds a recorder over `clock`. The slot ring is fully
    /// preallocated here; the hot path never allocates again.
    pub fn new(cfg: TraceConfig, clock: Clock) -> Arc<Recorder> {
        let slots = (0..cfg.slots).map(|_| Slot::empty()).collect();
        Arc::new(Recorder {
            cfg,
            clock,
            slots,
            head: AtomicU64::new(0),
            begun: AtomicU64::new(0),
            published: AtomicU64::new(0),
            dropped_contended: AtomicU64::new(0),
            dup_terminals: AtomicU64::new(0),
            slow_captured: AtomicU64::new(0),
            terminals: std::array::from_fn(|_| AtomicU64::new(0)),
            depth: std::array::from_fn(|_| AtomicU64::new(0)),
            depth_head: AtomicU64::new(0),
        })
    }

    /// The recorder's clock seam.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The configuration the recorder was built with.
    pub fn config(&self) -> &TraceConfig {
        &self.cfg
    }

    /// The deterministic sampling decision for a request id: seeded
    /// SplitMix64 hash, keep 1-in-`sample_every`. Reproducible across
    /// runs, hosts, and `check-yield` schedules.
    pub fn would_sample(&self, req_id: u64) -> bool {
        match self.cfg.sample_every {
            0 => false,
            n => splitmix64(req_id ^ self.cfg.seed).is_multiple_of(n),
        }
    }

    /// A stage stamp: clock nanoseconds clamped to ≥ 1 so `0` can mean
    /// "stage never reached" in slot words.
    fn stamp(&self) -> u64 {
        self.clock.now_ns().max(1)
    }

    /// Maps an externally captured instant onto the recorder clock.
    fn instant_ns(&self, at: Instant) -> u64 {
        let ns = at.saturating_duration_since(self.clock.epoch()).as_nanos();
        u64::try_from(ns).unwrap_or(u64::MAX).max(1)
    }

    /// Opens a trace context for an admitted request. One small
    /// allocation (the shared context) per request — the recorder ring
    /// itself is never allocated into.
    ///
    /// `received` is the network front end's frame-receive stamp when
    /// the request came over the wire (`None` for in-process submits).
    pub fn begin(
        self: &Arc<Self>,
        req_id: u64,
        model: &str,
        samples: u64,
        received: Option<Instant>,
    ) -> TraceCtx {
        bump(&self.begun);
        let bytes = model.as_bytes();
        let len = bytes.len().min(MODEL_BYTES);
        let mut name = [0u8; MODEL_BYTES];
        name[..len].copy_from_slice(&bytes[..len]);
        TraceCtx {
            inner: Arc::new(CtxInner {
                recorder: Arc::clone(self),
                req_id,
                sampled: self.would_sample(req_id),
                model: name,
                model_len: len as u8,
                samples,
                received_ns: received.map(|at| self.instant_ns(at)).unwrap_or(0),
                admitted_ns: self.stamp(),
                enqueued_ns: AtomicU64::new(0),
                dispatched_ns: AtomicU64::new(0),
                chunks_total: AtomicU64::new(0),
                chunks_done: AtomicU64::new(0),
                first_chunk_ns: AtomicU64::new(0),
                last_chunk_ns: AtomicU64::new(0),
                terminal: AtomicU64::new(0),
            }),
        }
    }

    /// Records a queue-depth observation into the reservoir. Wait-free
    /// (one `fetch_add`, one store).
    pub fn note_queue_depth(&self, depth: usize) {
        // relaxed-ok: reservoir index round-robin; slots are
        // independent words and readers tolerate any interleaving.
        let i = self.depth_head.fetch_add(1, Ordering::Relaxed) as usize % DEPTH_SLOTS;
        // relaxed-ok: single-word observation (+1 so 0 = empty slot);
        // torn cross-slot reads only skew a debug summary.
        self.depth[i].store(depth as u64 + 1, Ordering::Relaxed);
    }

    /// Summarizes the queue-depth reservoir (`None` until the first
    /// observation).
    pub fn queue_depth_summary(&self) -> Option<DepthSummary> {
        let mut min = u64::MAX;
        let mut max = 0u64;
        let mut sum = 0u64;
        let mut count = 0u64;
        for s in &self.depth {
            // relaxed-ok: independent observation words; see `note_queue_depth`.
            let v = s.load(Ordering::Relaxed);
            if v == 0 {
                continue;
            }
            let d = v - 1;
            min = min.min(d);
            max = max.max(d);
            sum += d;
            count += 1;
        }
        (count > 0).then(|| DepthSummary {
            min,
            max,
            mean: sum / count,
            count,
        })
    }

    /// Counter snapshot.
    pub fn stats(&self) -> RecorderStats {
        // relaxed-ok: (audited) independent monotone counters; snapshots
        // tolerate cross-counter skew, consistency holds at quiescence.
        let ld = |c: &AtomicU64| c.load(Ordering::Relaxed);
        RecorderStats {
            begun: ld(&self.begun),
            published: ld(&self.published),
            dropped_contended: ld(&self.dropped_contended),
            dup_terminals: ld(&self.dup_terminals),
            slow_captured: ld(&self.slow_captured),
            terminals: std::array::from_fn(|i| ld(&self.terminals[i])),
        }
    }

    /// Publishes a resolved context into the ring. Called by the thread
    /// that won the terminal race; wait-free (see module docs).
    fn publish(&self, ctx: &CtxInner, resolved_ns: u64, terminal: TerminalKind, slow: bool) {
        if self.slots.is_empty() {
            return;
        }
        check_yield!("trace.slot.claim");
        // relaxed-ok: the claim only needs a unique sequence number;
        // slot synchronization is the generation protocol below.
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq as usize) % self.slots.len()];
        let g = slot.gen.load(Ordering::Acquire);
        if g & 1 == 1 {
            // Another writer is mid-copy in this slot (the ring lapped
            // itself). Never wait on the hot path: drop our record.
            bump(&self.dropped_contended);
            return;
        }
        if slot
            .gen
            .compare_exchange(g, g + 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            bump(&self.dropped_contended);
            return;
        }
        check_yield!("trace.slot.write");
        // The odd generation above is the write lock; field stores are
        // relaxed-ok: they publish through the Release flip to even
        // below, and readers discard anything torn via the generation
        // re-check. (One annotation for the block: every store here is
        // the same single-writer-in-odd-section pattern.)
        let st = |w: &AtomicU64, v: u64| w.store(v, Ordering::Relaxed);
        st(&slot.seq, seq);
        st(&slot.req_id, ctx.req_id);
        for (w, chunk) in slot.model.iter().zip(ctx.model.chunks_exact(8)) {
            let mut b = [0u8; 8];
            b.copy_from_slice(chunk);
            st(w, u64::from_le_bytes(b));
        }
        st(
            &slot.meta,
            u64::from(ctx.model_len) | (u64::from(slow) << 8) | ((terminal as u64) << 16),
        );
        st(&slot.samples, ctx.samples);
        // relaxed-ok: reading our own context's stage words; cross-thread
        // stage writers are ordered by the pipeline's existing handoffs
        // (ring, handle mutex) and a stale 0 only shortens the timeline.
        let ld = |w: &AtomicU64| w.load(Ordering::Relaxed);
        st(
            &slot.chunks,
            (ld(&ctx.chunks_done) << 32) | (ld(&ctx.chunks_total) & 0xFFFF_FFFF),
        );
        st(&slot.received_ns, ctx.received_ns);
        st(&slot.admitted_ns, ctx.admitted_ns);
        st(&slot.enqueued_ns, ld(&ctx.enqueued_ns));
        st(&slot.dispatched_ns, ld(&ctx.dispatched_ns));
        st(&slot.first_chunk_ns, ld(&ctx.first_chunk_ns));
        st(&slot.last_chunk_ns, ld(&ctx.last_chunk_ns));
        st(&slot.resolved_ns, resolved_ns);
        check_yield!("trace.slot.publish");
        slot.gen.store(g + 2, Ordering::Release);
        bump(&self.published);
    }

    /// Reads one slot, `None` if empty, mid-write, or torn by a
    /// concurrent writer.
    fn read_slot(&self, slot: &Slot) -> Option<Timeline> {
        check_yield!("trace.slot.read");
        let g1 = slot.gen.load(Ordering::Acquire);
        if g1 == 0 || g1 & 1 == 1 {
            return None;
        }
        // relaxed-ok: seqlock read side — the Acquire load above orders
        // these after the writer's Release publish, and the fence +
        // generation re-check below discards any torn copy.
        let ld = |w: &AtomicU64| w.load(Ordering::Relaxed);
        let seq = ld(&slot.seq);
        let req_id = ld(&slot.req_id);
        let model_words: [u64; 3] = std::array::from_fn(|i| ld(&slot.model[i]));
        let meta = ld(&slot.meta);
        let samples = ld(&slot.samples);
        let chunks = ld(&slot.chunks);
        let received_ns = ld(&slot.received_ns);
        let admitted_ns = ld(&slot.admitted_ns);
        let enqueued_ns = ld(&slot.enqueued_ns);
        let dispatched_ns = ld(&slot.dispatched_ns);
        let first_chunk_ns = ld(&slot.first_chunk_ns);
        let last_chunk_ns = ld(&slot.last_chunk_ns);
        let resolved_ns = ld(&slot.resolved_ns);
        // Order the field loads above before the validating re-read.
        fence(Ordering::Acquire);
        // relaxed-ok: the fence above sequences this validation load
        // after every field load; equality with the Acquire-read g1 is
        // the torn-copy check itself.
        if slot.gen.load(Ordering::Relaxed) != g1 {
            return None;
        }
        let model_len = (meta & 0xFF) as usize;
        let mut name = [0u8; MODEL_BYTES];
        for (dst, w) in name.chunks_exact_mut(8).zip(model_words) {
            dst.copy_from_slice(&w.to_le_bytes());
        }
        Some(Timeline {
            seq,
            req_id,
            model: String::from_utf8_lossy(&name[..model_len.min(MODEL_BYTES)]).into_owned(),
            samples,
            chunks_done: (chunks >> 32) as u32,
            chunks_total: (chunks & 0xFFFF_FFFF) as u32,
            terminal: TerminalKind::from_u64((meta >> 16) & 0xFF)?,
            slow: (meta >> 8) & 1 == 1,
            received_ns,
            admitted_ns,
            enqueued_ns,
            dispatched_ns,
            first_chunk_ns,
            last_chunk_ns,
            resolved_ns,
        })
    }

    /// Snapshot of every readable timeline, newest first. Never blocks
    /// writers; slots mid-write or torn during the copy are skipped.
    pub fn timelines(&self) -> Vec<Timeline> {
        let mut out: Vec<Timeline> = self
            .slots
            .iter()
            .filter_map(|s| self.read_slot(s))
            .collect();
        out.sort_by_key(|t| std::cmp::Reverse(t.seq));
        out
    }

    /// Renders recent timelines as human-readable text (`/tracez`).
    /// `slow_only` restricts the listing to the slow-exemplar subset
    /// (`/tracez?slow`) — the recorder-wide stats header stays unfiltered.
    pub fn render_text(&self, slow_only: bool) -> String {
        use std::fmt::Write as _;
        let stats = self.stats();
        let mut s = String::new();
        let _ = writeln!(
            s,
            "dp_trace flight recorder: {} traced, {} published, {} dropped (slot contention), \
             {} slow exemplars",
            stats.begun, stats.published, stats.dropped_contended, stats.slow_captured
        );
        let _ = writeln!(
            s,
            "sampling 1-in-{} (seed {:#x}), slow threshold {:?}, {} slots{}",
            self.cfg.sample_every,
            self.cfg.seed,
            self.cfg.slow_threshold,
            self.cfg.slots,
            if slow_only {
                ", showing slow exemplars only"
            } else {
                ""
            },
        );
        let us = |ns: u64, base: u64| (ns.saturating_sub(base)) as f64 / 1_000.0;
        for t in self.timelines() {
            if slow_only && !t.slow {
                continue;
            }
            let _ = writeln!(
                s,
                "req {:#018x} model={} samples={} chunks={}/{} terminal={}{}",
                t.req_id,
                t.model,
                t.samples,
                t.chunks_done,
                t.chunks_total,
                t.terminal.name(),
                if t.slow { " [slow]" } else { "" },
            );
            let base = if t.received_ns != 0 {
                t.received_ns
            } else {
                t.admitted_ns
            };
            let mut line = String::from(" ");
            for (stage, ns) in t.stages() {
                let _ = write!(line, " {stage}=+{:.1}us", us(ns, base));
            }
            let _ = write!(line, " total={:.1}us", us(t.resolved_ns, base));
            let _ = writeln!(s, "{line}");
        }
        s
    }

    /// Renders recorder state as JSON (`/tracez?format=json`);
    /// hand-rolled like the rest of the workspace (serde is outside the
    /// offline dependency allow-list). `slow_only` restricts the
    /// `timelines` array to the slow-exemplar subset
    /// (`/tracez?format=json&slow`); the stats fields stay unfiltered.
    pub fn render_json(&self, slow_only: bool) -> String {
        use std::fmt::Write as _;
        let stats = self.stats();
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"traced\": {},", stats.begun);
        let _ = writeln!(s, "  \"published\": {},", stats.published);
        let _ = writeln!(s, "  \"dropped_contended\": {},", stats.dropped_contended);
        let _ = writeln!(s, "  \"dup_terminals\": {},", stats.dup_terminals);
        let _ = writeln!(s, "  \"slow_captured\": {},", stats.slow_captured);
        let _ = writeln!(s, "  \"sample_every\": {},", self.cfg.sample_every);
        let _ = writeln!(s, "  \"seed\": {},", self.cfg.seed);
        let _ = writeln!(
            s,
            "  \"slow_threshold_ns\": {},",
            u64::try_from(self.cfg.slow_threshold.as_nanos()).unwrap_or(u64::MAX)
        );
        let _ = writeln!(s, "  \"slow_only\": {slow_only},");
        s.push_str("  \"timelines\": [");
        let mut timelines = self.timelines();
        if slow_only {
            timelines.retain(|t| t.slow);
        }
        for (i, t) in timelines.iter().enumerate() {
            let comma = if i + 1 < timelines.len() { "," } else { "" };
            let _ = write!(
                s,
                "\n    {{\"req_id\": {}, \"model\": \"{}\", \"samples\": {}, \
                 \"chunks_done\": {}, \"chunks_total\": {}, \"terminal\": \"{}\", \
                 \"slow\": {}, \"received_ns\": {}, \"admitted_ns\": {}, \
                 \"enqueued_ns\": {}, \"dispatched_ns\": {}, \"first_chunk_ns\": {}, \
                 \"last_chunk_ns\": {}, \"resolved_ns\": {}}}{comma}",
                t.req_id,
                t.model.replace('\\', "\\\\").replace('"', "\\\""),
                t.samples,
                t.chunks_done,
                t.chunks_total,
                t.terminal.name(),
                t.slow,
                t.received_ns,
                t.admitted_ns,
                t.enqueued_ns,
                t.dispatched_ns,
                t.first_chunk_ns,
                t.last_chunk_ns,
                t.resolved_ns,
            );
        }
        s.push_str("\n  ]\n}\n");
        s
    }
}

/// Inner shared state of a [`TraceCtx`]: the per-request staging
/// buffer. Fields written before sharing are plain; stage fields are
/// single atomic words, stamped once each by whichever pipeline thread
/// reaches the stage.
#[derive(Debug)]
struct CtxInner {
    recorder: Arc<Recorder>,
    req_id: u64,
    sampled: bool,
    model: [u8; MODEL_BYTES],
    model_len: u8,
    samples: u64,
    received_ns: u64,
    admitted_ns: u64,
    enqueued_ns: AtomicU64,
    dispatched_ns: AtomicU64,
    chunks_total: AtomicU64,
    chunks_done: AtomicU64,
    first_chunk_ns: AtomicU64,
    last_chunk_ns: AtomicU64,
    /// `TerminalKind as u64`, claimed first-wins by `compare_exchange`.
    terminal: AtomicU64,
}

/// Per-request trace handle threaded through the pipeline. Cloning is
/// cheap (one `Arc`); every stage call is wait-free (a single atomic
/// store or RMW into the staging buffer — no allocation, no locks).
#[derive(Debug, Clone)]
pub struct TraceCtx {
    inner: Arc<CtxInner>,
}

impl TraceCtx {
    /// The request id the context was opened with.
    pub fn req_id(&self) -> u64 {
        self.inner.req_id
    }

    /// Whether the deterministic sampler selected this request.
    pub fn is_sampled(&self) -> bool {
        self.inner.sampled
    }

    /// Stamps the submission-ring enqueue stage.
    pub fn enqueued(&self) {
        let i = &self.inner;
        // relaxed-ok: single stage stamp word; publication happens via
        // the recorder's seqlock at the terminal event.
        i.enqueued_ns.store(i.recorder.stamp(), Ordering::Relaxed);
    }

    /// Stamps the dispatch stage — a worker took the request out of the
    /// ring — and records the chunk fan-out.
    pub fn dispatched(&self, chunks_total: u64) {
        let i = &self.inner;
        // relaxed-ok: see `enqueued`.
        i.dispatched_ns.store(i.recorder.stamp(), Ordering::Relaxed);
        // relaxed-ok: see `enqueued`.
        i.chunks_total.store(chunks_total, Ordering::Relaxed);
    }

    /// Stamps one chunk completion (first-wins for the first-chunk
    /// stamp, max for the last-chunk stamp).
    pub fn chunk_done(&self) {
        let i = &self.inner;
        let now = i.recorder.stamp();
        // relaxed-ok: first-wins stamp; only the winning value is ever
        // rendered and no other memory publishes through it.
        let _ = i
            .first_chunk_ns
            .compare_exchange(0, now, Ordering::Relaxed, Ordering::Relaxed);
        // relaxed-ok: monotone max stamp; same reasoning as above.
        i.last_chunk_ns.fetch_max(now, Ordering::Relaxed);
        // relaxed-ok: monotone progress counter.
        i.chunks_done.fetch_add(1, Ordering::Relaxed);
    }

    /// Emits the request's terminal event. **First call wins** and
    /// returns `true`; later calls are counted as duplicate terminals
    /// (a lifecycle bug the conservation tests pin to zero) and return
    /// `false`. The winner publishes the timeline into the ring when
    /// the request was sampled or crossed the slow threshold.
    pub fn resolve(&self, kind: TerminalKind) -> bool {
        let i = &self.inner;
        check_yield!("trace.terminal");
        if i.terminal
            // relaxed-ok: first-wins claim on an isolated word; the
            // winner's subsequent publish is ordered by the slot
            // generation protocol, not this claim.
            .compare_exchange(0, kind as u64, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            bump(&i.recorder.dup_terminals);
            return false;
        }
        bump(&i.recorder.terminals[kind as usize]);
        let resolved_ns = i.recorder.stamp();
        let threshold = &i.recorder.cfg.slow_threshold;
        let slow = !threshold.is_zero()
            && resolved_ns.saturating_sub(i.admitted_ns)
                >= u64::try_from(threshold.as_nanos()).unwrap_or(u64::MAX);
        if slow && !i.sampled {
            bump(&i.recorder.slow_captured);
        }
        if i.sampled || slow {
            i.recorder.publish(i, resolved_ns, kind, slow);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual_recorder(cfg: TraceConfig) -> Arc<Recorder> {
        Recorder::new(cfg, Clock::manual())
    }

    #[test]
    fn sampling_is_deterministic_and_seeded() {
        let cfg = TraceConfig {
            sample_every: 4,
            seed: 7,
            ..TraceConfig::default()
        };
        let r1 = manual_recorder(cfg.clone());
        let r2 = manual_recorder(cfg);
        let picks: Vec<u64> = (0..256).filter(|id| r1.would_sample(*id)).collect();
        // Same seed → identical decisions on a fresh recorder.
        let picks2: Vec<u64> = (0..256).filter(|id| r2.would_sample(*id)).collect();
        assert_eq!(picks, picks2);
        // Roughly 1-in-4 (hash quality, not exactness).
        assert!((32..=96).contains(&picks.len()), "{}", picks.len());
        // A different seed picks a different set.
        let r3 = manual_recorder(TraceConfig {
            sample_every: 4,
            seed: 8,
            ..TraceConfig::default()
        });
        let picks3: Vec<u64> = (0..256).filter(|id| r3.would_sample(*id)).collect();
        assert_ne!(picks, picks3);
        // sample_every = 1 keeps everything; 0 keeps nothing.
        let all = manual_recorder(TraceConfig::every_request());
        assert!((0..64).all(|id| all.would_sample(id)));
        let none = manual_recorder(TraceConfig {
            sample_every: 0,
            ..TraceConfig::default()
        });
        assert!(!(0..64).any(|id| none.would_sample(id)));
    }

    #[test]
    fn full_lifecycle_publishes_a_monotone_timeline() {
        let rec = manual_recorder(TraceConfig::every_request());
        let clock = rec.clock().clone();
        clock.advance(Duration::from_micros(1));
        let ctx = rec.begin(42, "iris@posit<8,0>", 32, None);
        assert!(ctx.is_sampled());
        clock.advance(Duration::from_micros(1));
        ctx.enqueued();
        clock.advance(Duration::from_micros(2));
        ctx.dispatched(2);
        clock.advance(Duration::from_micros(3));
        ctx.chunk_done();
        clock.advance(Duration::from_micros(4));
        ctx.chunk_done();
        assert!(ctx.resolve(TerminalKind::Completed));
        let stats = rec.stats();
        assert_eq!(stats.begun, 1);
        assert_eq!(stats.published, 1);
        assert_eq!(stats.terminal(TerminalKind::Completed), 1);
        assert_eq!(stats.terminals_total(), 1);
        let tl = rec.timelines();
        assert_eq!(tl.len(), 1);
        let t = &tl[0];
        assert_eq!(t.req_id, 42);
        assert_eq!(t.model, "iris@posit<8,0>");
        assert_eq!(t.samples, 32);
        assert_eq!((t.chunks_done, t.chunks_total), (2, 2));
        assert_eq!(t.terminal, TerminalKind::Completed);
        assert_eq!(t.received_ns, 0);
        // Stage stamps are monotone in pipeline order.
        let stages = t.stages();
        let names: Vec<&str> = stages.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "admitted",
                "enqueued",
                "dispatched",
                "first_chunk",
                "last_chunk",
                "resolved"
            ]
        );
        assert!(stages.windows(2).all(|w| w[0].1 <= w[1].1), "{stages:?}");
        assert!(t.first_chunk_ns < t.last_chunk_ns);
        assert_eq!(t.total_ns(), 10_000);
    }

    #[test]
    fn slow_exemplar_is_kept_past_sampling() {
        let rec = manual_recorder(TraceConfig {
            sample_every: 0, // sampling off entirely
            slow_threshold: Duration::from_micros(5),
            ..TraceConfig::default()
        });
        let clock = rec.clock().clone();
        // Fast request: not sampled, under threshold → not recorded.
        let fast = rec.begin(1, "m@f", 1, None);
        assert!(fast.resolve(TerminalKind::Completed));
        assert_eq!(rec.stats().published, 0);
        // Slow request: crosses the threshold → exemplar, marked slow.
        let slow = rec.begin(2, "m@f", 1, None);
        clock.advance(Duration::from_micros(6));
        assert!(slow.resolve(TerminalKind::Expired));
        let stats = rec.stats();
        assert_eq!(stats.published, 1);
        assert_eq!(stats.slow_captured, 1);
        let tl = rec.timelines();
        assert_eq!(tl.len(), 1);
        assert!(tl[0].slow);
        assert_eq!(tl[0].terminal, TerminalKind::Expired);
    }

    #[test]
    fn duplicate_terminals_are_suppressed_and_counted() {
        let rec = manual_recorder(TraceConfig::every_request());
        let ctx = rec.begin(9, "m@f", 1, None);
        assert!(ctx.resolve(TerminalKind::Shed));
        assert!(!ctx.resolve(TerminalKind::Completed));
        assert!(!ctx.resolve(TerminalKind::Shed));
        let stats = rec.stats();
        assert_eq!(stats.dup_terminals, 2);
        assert_eq!(stats.terminals_total(), 1);
        assert_eq!(stats.terminal(TerminalKind::Shed), 1);
        // The published record kept the winning verdict.
        assert_eq!(rec.timelines()[0].terminal, TerminalKind::Shed);
    }

    #[test]
    fn ring_wraps_keeping_newest() {
        let rec = manual_recorder(TraceConfig {
            slots: 2,
            ..TraceConfig::every_request()
        });
        let clock = rec.clock().clone();
        for id in 0..5u64 {
            let ctx = rec.begin(id, "m@f", id, None);
            clock.advance(Duration::from_micros(1));
            assert!(ctx.resolve(TerminalKind::Completed));
        }
        assert_eq!(rec.stats().published, 5);
        let tl = rec.timelines();
        assert_eq!(tl.len(), 2);
        // Newest first.
        assert_eq!(tl[0].req_id, 4);
        assert_eq!(tl[1].req_id, 3);
    }

    #[test]
    fn model_names_longer_than_the_slot_are_truncated() {
        let rec = manual_recorder(TraceConfig::every_request());
        let long = "a-very-long-model-name-that-overflows@posit<16,1>";
        let ctx = rec.begin(1, long, 1, None);
        assert!(ctx.resolve(TerminalKind::Completed));
        let got = &rec.timelines()[0].model;
        assert_eq!(got.as_bytes(), &long.as_bytes()[..24]);
    }

    #[test]
    fn received_stamp_maps_onto_the_recorder_clock() {
        let rec = Recorder::new(TraceConfig::every_request(), Clock::real());
        let received = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        let ctx = rec.begin(3, "m@f", 1, Some(received));
        assert!(ctx.resolve(TerminalKind::Completed));
        let t = &rec.timelines()[0];
        assert!(t.received_ns > 0);
        assert!(t.received_ns <= t.admitted_ns, "{t:?}");
        assert!(t.admitted_ns <= t.resolved_ns);
    }

    #[test]
    fn queue_depth_reservoir_summarizes() {
        let rec = manual_recorder(TraceConfig::default());
        assert_eq!(rec.queue_depth_summary(), None);
        for d in [3usize, 0, 7, 5] {
            rec.note_queue_depth(d);
        }
        let s = rec.queue_depth_summary().unwrap();
        assert_eq!((s.min, s.max, s.count), (0, 7, 4));
        assert_eq!(s.mean, 3);
        // Wraps past the reservoir size without losing the summary.
        for d in 0..200usize {
            rec.note_queue_depth(d);
        }
        let s = rec.queue_depth_summary().unwrap();
        assert_eq!(s.count, 64);
        assert_eq!(s.max, 199);
    }

    #[test]
    fn renderers_emit_wellformed_output() {
        let rec = manual_recorder(TraceConfig::every_request());
        let clock = rec.clock().clone();
        let ctx = rec.begin(0x2a, "iris@posit<8,0>", 16, None);
        ctx.enqueued();
        clock.advance(Duration::from_micros(10));
        ctx.dispatched(1);
        ctx.chunk_done();
        assert!(ctx.resolve(TerminalKind::Completed));
        rec.note_queue_depth(2);
        let text = rec.render_text(false);
        assert!(text.contains("model=iris@posit<8,0>"), "{text}");
        assert!(text.contains("terminal=completed"), "{text}");
        assert!(text.contains("sampling 1-in-1"), "{text}");
        let json = rec.render_json(false);
        assert!(json.contains("\"req_id\": 42"), "{json}");
        assert!(json.contains("\"terminal\": \"completed\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn slow_only_rendering_filters_to_slow_exemplars() {
        // One fast request, one pushed past the slow threshold; the
        // `?slow` views must list only the exemplar while the stats
        // header stays recorder-wide.
        let rec = manual_recorder(TraceConfig::every_request());
        let clock = rec.clock().clone();
        let fast = rec.begin(0x01, "iris@posit<8,0>", 1, None);
        assert!(fast.resolve(TerminalKind::Completed));
        let slow = rec.begin(0x02, "iris@posit<8,0>", 1, None);
        clock.advance(Duration::from_secs(1)); // default threshold 250ms
        assert!(slow.resolve(TerminalKind::Completed));

        let text = rec.render_text(true);
        assert!(text.contains("showing slow exemplars only"), "{text}");
        assert!(text.contains("req 0x0000000000000002"), "{text}");
        assert!(!text.contains("req 0x0000000000000001"), "{text}");
        // The unfiltered view still lists both.
        let all = rec.render_text(false);
        assert!(all.contains("req 0x0000000000000001"), "{all}");

        let json = rec.render_json(true);
        assert!(json.contains("\"slow_only\": true"), "{json}");
        assert!(json.contains("\"req_id\": 2"), "{json}");
        assert!(!json.contains("\"req_id\": 1,"), "{json}");
        // Recorder-wide stats are unfiltered: both requests published.
        assert!(json.contains("\"published\": 2"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn concurrent_publishers_never_produce_torn_records() {
        // Stress (non-deterministic) version of the check-yield suite:
        // many threads publish distinct records through a tiny ring
        // while a reader snapshots; every snapshot row must be
        // internally consistent (samples == req_id * 1000).
        let rec = Recorder::new(
            TraceConfig {
                slots: 2,
                ..TraceConfig::every_request()
            },
            Clock::real(),
        );
        let stop = Arc::new(AtomicU64::new(0));
        let reader = {
            let rec = Arc::clone(&rec);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // relaxed-ok: test stop flag; no ordering needed.
                while stop.load(Ordering::Relaxed) == 0 {
                    for t in rec.timelines() {
                        assert_eq!(t.samples, t.req_id * 1000, "torn record: {t:?}");
                    }
                }
            })
        };
        let writers: Vec<_> = (1..=4u64)
            .map(|w| {
                let rec = Arc::clone(&rec);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let id = w * 10_000 + i;
                        let ctx = rec.begin(id, "m@f", id * 1000, None);
                        assert!(ctx.resolve(TerminalKind::Completed));
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        // relaxed-ok: test stop flag.
        stop.store(1, Ordering::Relaxed);
        reader.join().unwrap();
        let stats = rec.stats();
        assert_eq!(stats.published + stats.dropped_contended, 2000);
        assert_eq!(stats.dup_terminals, 0);
    }
}

/// Seeded PCT interleave suite for the recorder's slot-claim path
/// (compiled only with `--features check-yield`): two publishers race a
/// reader through a single-slot ring across ≥1000 schedules per seed —
/// no schedule may surface a torn or double-claimed slot, and every
/// publish attempt must be accounted as published or dropped.
#[cfg(all(test, feature = "check-yield"))]
mod interleave_tests {
    use super::*;
    use dp_check::sched::explore;

    const SEEDS: [u64; 3] = [0x7AC3_0001, 0x7AC3_0002, 0x7AC3_0003];
    const RUNS: usize = 1000;

    /// Two writers contend for the same slot (single-slot ring) while a
    /// reader snapshots. Invariants, asserted inside the schedules:
    /// a readable record is always internally consistent
    /// (`samples == req_id * 100`, terminal matches the writer), and
    /// claim accounting is exact (`published + dropped == 2`, no
    /// duplicate terminals).
    #[test]
    fn slot_claims_are_never_torn_or_doubled() {
        for master in SEEDS {
            let out = explore(master, RUNS, 3, |_| {
                let rec = Recorder::new(
                    TraceConfig {
                        slots: 1,
                        ..TraceConfig::every_request()
                    },
                    Clock::manual(),
                );
                let ctx_a = rec.begin(1, "a@f", 100, None);
                let ctx_b = rec.begin(2, "b@f", 200, None);
                let done = Arc::new(AtomicU64::new(0));
                let (rec_a, rec_b, rec_r) = (Arc::clone(&rec), Arc::clone(&rec), rec);
                let (done_a, done_b) = (Arc::clone(&done), done);
                let finish = move |rec: &Recorder, done: &AtomicU64| {
                    // relaxed-ok: schedule-local join counter; the
                    // checker serializes the bodies around yields.
                    if done.fetch_add(1, Ordering::Relaxed) + 1 == 2 {
                        let stats = rec.stats();
                        assert_eq!(
                            stats.published + stats.dropped_contended,
                            2,
                            "claim accounting broke: {stats:?}"
                        );
                        assert_eq!(stats.dup_terminals, 0);
                        assert_eq!(stats.terminals_total(), 2);
                    }
                };
                vec![
                    Box::new(move || {
                        assert!(ctx_a.resolve(TerminalKind::Completed));
                        finish(&rec_a, &done_a);
                    }) as Box<dyn FnOnce() + Send>,
                    Box::new(move || {
                        assert!(ctx_b.resolve(TerminalKind::Shed));
                        finish(&rec_b, &done_b);
                    }),
                    Box::new(move || {
                        for t in rec_r.timelines() {
                            // A torn slot would mix the two records.
                            assert_eq!(t.samples, t.req_id * 100, "torn: {t:?}");
                            let want = if t.req_id == 1 {
                                TerminalKind::Completed
                            } else {
                                TerminalKind::Shed
                            };
                            assert_eq!(t.terminal, want, "torn: {t:?}");
                        }
                    }),
                ]
            });
            assert_eq!(out.schedules, RUNS);
            assert!(
                out.findings.is_empty(),
                "seed {master:#x}: {:?}",
                out.findings
            );
            assert!(
                out.distinct_traces >= 4,
                "seed {master:#x}: the seed is not steering the schedule \
                 ({} distinct traces)",
                out.distinct_traces
            );
        }
    }

    /// Two threads race to emit the terminal event for one request:
    /// exactly one must win under every schedule, and the published
    /// record must carry the winner's verdict.
    #[test]
    fn terminal_event_is_emitted_exactly_once() {
        for master in SEEDS {
            let out = explore(master, RUNS, 3, |_| {
                let rec = Recorder::new(TraceConfig::every_request(), Clock::manual());
                let ctx = rec.begin(7, "m@f", 700, None);
                let ctx2 = ctx.clone();
                let wins = Arc::new(AtomicU64::new(0));
                let done = Arc::new(AtomicU64::new(0));
                let (wins_a, wins_b) = (Arc::clone(&wins), wins);
                let (done_a, done_b) = (Arc::clone(&done), done);
                let rec2 = Arc::clone(&rec);
                let finish = move |rec: &Recorder, wins: &AtomicU64, done: &AtomicU64| {
                    // relaxed-ok: schedule-local counters; see above.
                    if done.fetch_add(1, Ordering::Relaxed) + 1 == 2 {
                        // relaxed-ok: read after both bodies finished.
                        assert_eq!(wins.load(Ordering::Relaxed), 1, "terminal not exactly-once");
                        let stats = rec.stats();
                        assert_eq!(stats.terminals_total(), 1);
                        assert_eq!(stats.dup_terminals, 1);
                        let tl = rec.timelines();
                        assert_eq!(tl.len(), 1);
                        assert!(
                            tl[0].terminal == TerminalKind::Completed
                                || tl[0].terminal == TerminalKind::Cancelled
                        );
                    }
                };
                let finish2 = finish.clone();
                vec![
                    Box::new(move || {
                        if ctx.resolve(TerminalKind::Completed) {
                            // relaxed-ok: schedule-local win counter.
                            wins_a.fetch_add(1, Ordering::Relaxed);
                        }
                        finish(&rec, &wins_a, &done_a);
                    }) as Box<dyn FnOnce() + Send>,
                    Box::new(move || {
                        if ctx2.resolve(TerminalKind::Cancelled) {
                            // relaxed-ok: schedule-local win counter.
                            wins_b.fetch_add(1, Ordering::Relaxed);
                        }
                        finish2(&rec2, &wins_b, &done_b);
                    }),
                ]
            });
            assert_eq!(out.schedules, RUNS);
            assert!(
                out.findings.is_empty(),
                "seed {master:#x}: {:?}",
                out.findings
            );
        }
    }
}
