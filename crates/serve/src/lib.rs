//! # dp-serve — the persistent Deep Positron serving engine
//!
//! The paper pitches posit EMACs as a low-precision *deployment* story;
//! this crate is the deployment half: a long-lived serving engine in front
//! of the `deep-positron` quantized batch datapath, built for sustained
//! request streams rather than one-shot batch calls.
//!
//! * [`pool`] — the [`ServeEngine`]: a fixed pool of long-lived,
//!   supervised worker threads that pull jobs straight from a
//!   [`JobSource`] (the `dp_gateway` admission ring), with panic-isolated
//!   jobs, plus the model registry. A stall **watchdog** respawns wedged
//!   workers (failing only the stuck request, [`JobError::Stalled`]) and
//!   a **panic budget** flips the engine's [`Health`] to degraded.
//! * [`registry`] — a [`ModelRegistry`] of named
//!   [`QuantizedMlp`](deep_positron::QuantizedMlp)s keyed
//!   by name + format descriptor, so one engine serves posit, minifloat
//!   and fixed-point models side by side.
//! * [`engine`] — [`EngineConfig`], [`chunk_job`], which wraps one
//!   chunk of a request as a job with cancellation
//!   ([`CancelToken`], checked before each chunk) and exactly-once
//!   settlement, and [`eval_chunk`], the one chunk evaluator: a tile
//!   sweep **bit-identical** to per-sample
//!   [`QuantizedMlp::forward_bits`](deep_positron::QuantizedMlp::forward_bits).
//! * [`faults`] — the compile-time seam for the `dp_fault` failure points
//!   (feature `fault-inject`; inert inlined stubs otherwise).
//!
//! Requests enter through `dp_gateway::Gateway`, whose ring is the
//! engine's job source. Every chunk they split into is answered by
//! [`eval_chunk`]:
//!
//! ```
//! use deep_positron::{Mlp, NumericFormat, QuantizedMlp};
//! use dp_posit::PositFormat;
//!
//! let format = NumericFormat::Posit(PositFormat::new(8, 0)?);
//! let model = QuantizedMlp::quantize(&Mlp::new(&[4, 8, 3], 7), format);
//! let chunk = vec![vec![0.1, 0.2, 0.3, 0.4], vec![-0.5, 0.0, 0.5, 1.0]];
//! let bits = dp_serve::eval_chunk(&model, &chunk);
//! for (x, out) in chunk.iter().zip(&bits) {
//!     assert_eq!(*out, model.forward_bits(x));
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub(crate) mod check;
pub(crate) mod claim;
pub mod engine;
pub mod faults;
pub mod pool;
pub mod registry;

pub use engine::{chunk_job, eval_chunk, CancelToken, ChunkRequest, EngineConfig, JobError};
pub use pool::{Health, Job, JobSource, PanicBudget, PoolStats, ServeEngine, WatchdogConfig};
pub use registry::{ModelKey, ModelRegistry, RegistryError};
