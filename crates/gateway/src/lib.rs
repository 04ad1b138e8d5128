//! # dp-gateway — async admission in front of the Deep Positron serving engine
//!
//! `dp_serve` gives the repo a persistent, supervised worker pool; this
//! crate is its front half — the piece both Deep Positron papers
//! implicitly assume when they pitch low-precision EMACs for
//! *deployment*: a serving layer that stays responsive when more traffic
//! arrives than the hardware can absorb.
//!
//! ```text
//! clients ──try_submit──▶ [bounded ring] ──▶ workers (chunk by chunk)
//! ```
//!
//! * [`gateway`] — the [`Gateway`] and [`GatewayBuilder`]: non-blocking
//!   `try_submit_*` with a typed [`Admission`] verdict
//!   (`Admitted | QueueFull | ModelUnknown | RateLimited | …`) and a
//!   bounded multi-producer submission ring that is the engine's only
//!   queue: workers take requests and their chunks from it directly —
//!   fairly between logical models, counted in samples; request-FIFO
//!   within one — and evaluate every chunk with
//!   [`dp_serve::eval_chunk`]'s tile sweep.
//! * [`gateway::OverloadPolicy`] — who pays for a burst: `Block`
//!   (backpressure the producer), `ShedNewest` (reject the newcomer) or
//!   `ShedOldest` (evict the stalest queued request; its handle resolves
//!   to [`GatewayError::Shed`] instead of hanging).
//! * [`limiter`] — per-model token buckets: one token per **sample**,
//!   shared across every format variant of a logical model.
//! * [`metrics`] — lock-free counters and log₂ histograms
//!   ([`GatewayMetrics`]) with a plain-data [`MetricsSnapshot`] and a
//!   hand-rolled JSON renderer.
//! * [`handle`] — [`GatewayHandle`]: the one completion handle. Its cell
//!   assembles chunk results as workers settle them; poll/wait/
//!   `wait_timeout` with cached first-wins resolution (double-`wait` is
//!   defined), plus cooperative [`cancel`](GatewayHandle::cancel),
//!   covering the request's whole lifecycle including the shed, expired
//!   and cancelled paths.
//!
//! Robustness (this crate + `dp_serve` supervision, see the repo README's
//! "Robustness & fault injection" section):
//!
//! * **Deadlines** — [`gateway::SubmitOptions`] carries a per-request
//!   deadline; a worker that pops an entry past its deadline expires it
//!   ([`GatewayError::DeadlineExceeded`], tokens refunded) instead of
//!   starting it. A started request never expires.
//! * **Supervision** — [`GatewayBuilder::watchdog`] respawns wedged
//!   workers (only the stuck request fails);
//!   [`GatewayBuilder::panic_budget`] flips the gateway into a degraded
//!   read-only-metrics mode ([`Admission::Degraded`]) after too many
//!   worker panics.
//! * **Bounded shutdown** — [`GatewayBuilder::drain_deadline`] caps how
//!   long `Drop` drains the backlog; past it, remaining requests resolve
//!   [`GatewayError::Closed`] (`drain_aborted` metric) rather than
//!   hanging the process.
//! * **Fault injection** — building with `--features fault-inject`
//!   compiles the `dp_fault` failure points into the ring's pop path and
//!   the engine's chunk jobs for deterministic chaos testing; without the
//!   feature the hooks are inlined `false`s with zero overhead.
//!
//! Admitted traffic stays **bit-identical** to per-sample
//! [`QuantizedMlp::forward_bits`](deep_positron::QuantizedMlp::forward_bits)
//! by the tile kernels' per-column contract.
//!
//! ```no_run
//! use deep_positron::{NumericFormat, QuantizedMlp};
//! use dp_gateway::{Admission, Gateway, OverloadPolicy, RateLimit};
//!
//! # fn trained() -> deep_positron::Mlp { unimplemented!() }
//! # fn format() -> NumericFormat { unimplemented!() }
//! let gw = Gateway::builder()
//!     .queue_capacity(256)
//!     .policy(OverloadPolicy::ShedOldest)
//!     .rate_limit("iris", RateLimit::per_sec(50_000.0))
//!     .build();
//! let key = gw
//!     .registry()
//!     .register("iris", QuantizedMlp::quantize(&trained(), format()))?;
//! match gw.try_submit_forward(&key, vec![vec![0.1, 0.2, 0.3, 0.4]]) {
//!     Admission::Admitted(handle) => {
//!         let bits = handle.wait()?;
//!         # let _ = bits;
//!     }
//!     Admission::QueueFull => { /* shed: back off or drop */ }
//!     other => eprintln!("rejected: {other:?}"),
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod check;
mod faults;
pub mod gateway;
pub mod handle;
pub mod limiter;
pub mod metrics;
mod ring;

pub use gateway::{Admission, Gateway, GatewayBuilder, OverloadPolicy, SubmitOptions};
pub use handle::{GatewayError, GatewayHandle, RequestStage};
pub use limiter::RateLimit;
pub use metrics::{GatewayMetrics, HistogramSnapshot, MetricsSnapshot, ModelSnapshot};
// Flight-recorder surface, re-exported so front ends configure tracing
// through the gateway without a direct dp_trace dependency.
pub use dp_trace::{
    Clock, DepthSummary, Recorder, RecorderStats, TerminalKind, Timeline, TraceConfig,
};
