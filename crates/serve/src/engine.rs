//! What the engine's workers run: the chunk jobs and the one chunk
//! evaluator.
//!
//! The [`ServeEngine`](crate::ServeEngine)'s workers pull chunk jobs
//! straight from a [`JobSource`](crate::JobSource) (the `dp_gateway`
//! admission ring). A request is evaluated in chunks of
//! [`EngineConfig::chunk_samples`] samples, each a contiguous range of the
//! request's samples; [`chunk_job`] wraps one chunk with cancellation,
//! the fault points and exactly-once settlement, and [`eval_chunk`] is the
//! evaluator every chunk runs: the model's per-layer EMAC array built
//! once, then the whole chunk swept through the weight-stationary tile
//! kernels ([`QuantizedMlp::forward_batch_bits_with`]: one
//! `dp_emac::Emac::dot_tile` call per neuron per layer, operand gather
//! and product-table traffic amortized across the chunk's samples) —
//! **bit-identical** to per-sample [`QuantizedMlp::forward_bits`] by the
//! tile contract.

use crate::claim::ClaimCell;
use crate::faults;
use crate::pool::{PanicBudget, WatchdogConfig};
use crate::Job;
use deep_positron::QuantizedMlp;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// [`ServeEngine`](crate::ServeEngine) sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker thread count (clamped to ≥ 1). Defaults to
    /// [`deep_positron::batch::batch_threads`] — the machine's available
    /// parallelism unless `DEEP_POSITRON_THREADS` overrides it.
    pub workers: usize,
    /// Samples per chunk (clamped to ≥ 1). The default of 64 keeps
    /// per-chunk EMAC construction amortized (cf. the scoped engine's
    /// 32-samples-per-thread spawn floor) while still feeding every
    /// worker on serving-scale batches.
    pub chunk_samples: usize,
    /// Optional stall watchdog: a wedged worker is detected, its chunk's
    /// request failed with [`JobError::Stalled`], and the worker respawned
    /// (see [`WatchdogConfig`]). `None` (the default): a wedged worker
    /// wedges forever.
    pub watchdog: Option<WatchdogConfig>,
    /// Optional panic budget: too many worker panics inside a trailing
    /// window flip the engine to degraded mode (see [`PanicBudget`]).
    /// `None` (the default) never degrades.
    pub panic_budget: Option<PanicBudget>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: deep_positron::batch::batch_threads(),
            chunk_samples: 64,
            watchdog: None,
            panic_budget: None,
        }
    }
}

/// Why a chunk failed to produce a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobError {
    /// The chunk's evaluation panicked; the panic was confined to its
    /// request.
    Panicked,
    /// The watchdog declared the worker running this chunk stalled; the
    /// worker was respawned and only this chunk's request failed.
    Stalled,
    /// The request's [`CancelToken`] was cancelled before the chunk
    /// started.
    Cancelled,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked => write!(f, "serving job panicked"),
            JobError::Stalled => write!(f, "serving job stalled its worker (worker respawned)"),
            JobError::Cancelled => write!(f, "serving job was cancelled"),
        }
    }
}

impl std::error::Error for JobError {}

/// A shared cancellation flag for one request.
///
/// Cloning yields another handle to the same flag. [`chunk_job`] checks
/// it before each chunk starts, so an abandoned request stops burning
/// workers within one chunk instead of finishing the whole request.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, not-yet-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; already-running chunks finish,
    /// later chunks are skipped and settle with [`JobError::Cancelled`].
    pub fn cancel(&self) {
        // seqcst-ok: standalone cancellation flag with no payload; the
        // cold full fence keeps a cancel immediately visible to every
        // chunk-boundary check.
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        // seqcst-ok: pairs with the store in `cancel`; read once per
        // chunk, well off the per-MAC hot path.
        self.cancelled.load(Ordering::SeqCst)
    }
}

/// A request whose chunks run as pool jobs (see [`chunk_job`]).
pub trait ChunkRequest: Send + Sync + 'static {
    /// Per-sample result.
    type Out: Send + 'static;

    /// Logical model name: the fault-injection scope.
    fn scope(&self) -> &str;

    /// The request's cancellation flag.
    fn cancel_token(&self) -> &CancelToken;

    /// Evaluates chunk `index`. May panic; [`chunk_job`] confines it.
    fn eval(&self, index: usize) -> Vec<Self::Out>;

    /// Settles chunk `index` — called exactly once per chunk. `delivered`
    /// is `false` when the `drop_completion` fault point dropped a
    /// finished chunk's result: the chunk is settled, but its result must
    /// never reach the caller.
    fn settle(&self, index: usize, result: Result<Vec<Self::Out>, JobError>, delivered: bool);
}

/// Wraps chunk `index` of `req` as a pool job.
///
/// Exactly **one** of normal completion, panic, cancellation or the
/// watchdog's stall handler settles the chunk (first claimant wins), so a
/// request can never see a chunk twice — not even when an abandoned
/// worker's evaluation eventually finishes after the watchdog already
/// failed it. Cancellation is checked once, before the chunk starts. A
/// panic settles the chunk as [`JobError::Panicked`] and is then
/// re-raised so the pool counts it against the panic budget.
pub fn chunk_job<R: ChunkRequest>(req: Arc<R>, index: usize) -> Job {
    let claimed = Arc::new(ClaimCell::new());
    let stall_req = Arc::clone(&req);
    let stall_claimed = Arc::clone(&claimed);
    Job::new(
        move || {
            let scope = Some(req.scope());
            // A planned sleep here wedges the worker exactly like a
            // runaway evaluation would.
            faults::fire(faults::points::STALL_WORKER, scope);
            if claimed.is_claimed() {
                // The watchdog already failed this chunk while the worker
                // was wedged; don't evaluate it.
                return;
            }
            if req.cancel_token().is_cancelled() {
                if claimed.claim("engine.chunk.cancel") {
                    req.settle(index, Err(JobError::Cancelled), true);
                }
                return;
            }
            // The `panic_in_chunk` point fires inside the unwind boundary,
            // so an injected panic takes exactly the path of a real one.
            match catch_unwind(AssertUnwindSafe(|| {
                faults::fire(faults::points::PANIC_IN_CHUNK, scope);
                req.eval(index)
            })) {
                Ok(out) => {
                    let delivered = !faults::fire(faults::points::DROP_COMPLETION, scope);
                    if claimed.claim("engine.chunk.complete") {
                        req.settle(index, Ok(out), delivered);
                    }
                }
                Err(payload) => {
                    if claimed.claim("engine.chunk.panic") {
                        req.settle(index, Err(JobError::Panicked), true);
                    }
                    std::panic::resume_unwind(payload);
                }
            }
        },
        move || {
            if stall_claimed.claim("engine.chunk.stall") {
                stall_req.settle(index, Err(JobError::Stalled), true);
            }
        },
    )
}

/// The chunk evaluator every served request runs: builds the model's
/// per-layer EMAC array once, then runs the whole chunk as one
/// weight-stationary tile sweep per layer
/// ([`QuantizedMlp::forward_batch_bits_with`] — each neuron's weight row
/// goes through `dp_emac::Emac::dot_tile` exactly once, with the chunk's
/// samples as the tile's activation columns). Per sample the output is
/// bit-identical to [`QuantizedMlp::forward_bits`] (the tile contract);
/// classification is the argmax of it
/// ([`QuantizedMlp::argmax_bits`]).
///
/// # Panics
///
/// Panics for the `F32` baseline, which has no EMAC datapath. Admission
/// must screen it out the way the gateway does (raw activations are
/// rejected, and its classify requests run [`QuantizedMlp::infer`]);
/// registration already rejects every other format without a datapath
/// ([`crate::ModelRegistry::register`]).
pub fn eval_chunk(model: &QuantizedMlp, xs: &[Vec<f32>]) -> Vec<Vec<u32>> {
    let mut emacs = model
        .make_layer_emacs()
        .expect("admission validated the format"); // panic-ok: admission screens the f32 baseline; registration every other format without an EMAC datapath
    model.forward_batch_bits_with(&mut emacs, xs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep_positron::{Mlp, NumericFormat};
    use dp_posit::PositFormat;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    type Settlement = (usize, Result<Vec<usize>, JobError>, bool);

    /// A request whose chunk `i` evaluates to `[i]` (or panics), recording
    /// every evaluation and settlement.
    #[derive(Default)]
    struct Probe {
        cancel: CancelToken,
        panics: bool,
        evals: AtomicUsize,
        settled: Mutex<Vec<Settlement>>,
    }

    impl ChunkRequest for Probe {
        type Out = usize;

        fn scope(&self) -> &str {
            "probe"
        }

        fn cancel_token(&self) -> &CancelToken {
            &self.cancel
        }

        fn eval(&self, index: usize) -> Vec<usize> {
            // seqcst-ok: test tally read after the job returns.
            self.evals.fetch_add(1, Ordering::SeqCst);
            assert!(!self.panics, "chunk {index} blows up");
            vec![index]
        }

        fn settle(&self, index: usize, result: Result<Vec<usize>, JobError>, delivered: bool) {
            self.settled
                .lock()
                .unwrap()
                .push((index, result, delivered));
        }
    }

    impl Probe {
        fn evals(&self) -> usize {
            // seqcst-ok: see `eval`.
            self.evals.load(Ordering::SeqCst)
        }

        fn settled(&self) -> Vec<Settlement> {
            self.settled.lock().unwrap().clone()
        }
    }

    #[test]
    fn completed_chunk_settles_once_and_a_late_stall_handler_is_a_no_op() {
        let req = Arc::new(Probe::default());
        let Job { run, on_stalled } = chunk_job(Arc::clone(&req), 3);
        run();
        on_stalled();
        assert_eq!(req.evals(), 1);
        assert_eq!(req.settled(), vec![(3, Ok(vec![3]), true)]);
    }

    #[test]
    fn stalled_chunk_settles_once_and_is_never_evaluated_afterwards() {
        // The watchdog fails the chunk first; when the abandoned worker
        // finally gets to run it, the job must neither evaluate nor
        // settle it again.
        let req = Arc::new(Probe::default());
        let Job { run, on_stalled } = chunk_job(Arc::clone(&req), 0);
        on_stalled();
        run();
        assert_eq!(req.evals(), 0);
        assert_eq!(req.settled(), vec![(0, Err(JobError::Stalled), true)]);
    }

    #[test]
    fn cancelled_request_settles_its_chunks_without_evaluating_them() {
        let req = Arc::new(Probe::default());
        req.cancel.cancel();
        for index in 0..2 {
            (chunk_job(Arc::clone(&req), index).run)();
        }
        assert_eq!(req.evals(), 0);
        assert_eq!(
            req.settled(),
            vec![
                (0, Err(JobError::Cancelled), true),
                (1, Err(JobError::Cancelled), true)
            ]
        );
    }

    #[test]
    fn panicking_chunk_settles_as_panicked_then_reraises_for_the_pool() {
        let req = Arc::new(Probe {
            panics: true,
            ..Probe::default()
        });
        let Job { run, on_stalled } = chunk_job(Arc::clone(&req), 1);
        let unwound = catch_unwind(AssertUnwindSafe(run));
        assert!(unwound.is_err(), "the pool must see the panic");
        on_stalled();
        assert_eq!(req.settled(), vec![(1, Err(JobError::Panicked), true)]);
    }

    #[test]
    fn eval_chunk_is_bit_identical_to_forward_bits() {
        let mlp = Mlp::new(&[4, 8, 3], 11);
        let format = NumericFormat::Posit(PositFormat::new(8, 0).unwrap());
        let model = QuantizedMlp::quantize(&mlp, format);
        let xs: Vec<Vec<f32>> = (0..13)
            .map(|i| (0..4).map(|j| (i * 4 + j) as f32 / 26.0 - 1.0).collect())
            .collect();
        let direct: Vec<Vec<u32>> = xs.iter().map(|x| model.forward_bits(x)).collect();
        assert_eq!(eval_chunk(&model, &xs), direct);
        assert_eq!(eval_chunk(&model, &xs[..1]), direct[..1]);
        assert!(eval_chunk(&model, &[]).is_empty());
    }
}
