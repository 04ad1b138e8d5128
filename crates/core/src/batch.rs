//! Batch partitioning policy and the scoped-thread fallback engine.
//!
//! This module owns the *how many workers, how big a chunk* policy shared
//! by every dataset-scale entry point, plus the scoped-thread parallel map
//! the [`crate::quantized::QuantizedMlp`] batch methods fall back to. The
//! long-lived serving path — a persistent worker pool and a multi-format
//! model registry — lives in
//! the `dp_serve` crate and reuses this module's thread-count policy; the
//! scoped path here stays alive as the zero-setup fallback and as the
//! differential baseline the pool is tested against.

use std::sync::Once;

/// The environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "DEEP_POSITRON_THREADS";

/// Result of parsing a [`THREADS_ENV`] override.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadOverride {
    /// Variable absent or empty: use the machine default.
    Unset,
    /// A valid explicit worker count (≥ 1).
    Threads(usize),
    /// Present but not a positive integer (`0`, junk, overflow): the
    /// override is rejected and the machine default applies.
    Invalid,
}

/// Parses a [`THREADS_ENV`] value. `None` and empty/whitespace strings are
/// [`ThreadOverride::Unset`]; `0`, non-numeric and overflowing values are
/// [`ThreadOverride::Invalid`] rather than being silently clamped or
/// silently ignored.
pub fn parse_thread_override(raw: Option<&str>) -> ThreadOverride {
    let Some(raw) = raw else {
        return ThreadOverride::Unset;
    };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return ThreadOverride::Unset;
    }
    match trimmed.parse::<usize>() {
        Ok(0) | Err(_) => ThreadOverride::Invalid,
        Ok(n) => ThreadOverride::Threads(n),
    }
}

/// Number of worker threads for batch entry points: a valid
/// [`THREADS_ENV`] override when set, otherwise the machine's available
/// parallelism. An invalid override (zero or non-numeric) is rejected with
/// a one-time warning on stderr and the default is used instead.
pub fn batch_threads() -> usize {
    let raw = std::env::var(THREADS_ENV).ok();
    match parse_thread_override(raw.as_deref()) {
        ThreadOverride::Threads(n) => n,
        ThreadOverride::Unset => default_threads(),
        ThreadOverride::Invalid => {
            static WARN: Once = Once::new();
            WARN.call_once(|| {
                eprintln!(
                    "warning: {THREADS_ENV}={:?} is not a positive integer; \
                     falling back to {} worker thread(s)",
                    raw.unwrap_or_default(),
                    default_threads()
                );
            });
            default_threads()
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Minimum samples per worker before fanning out: below this, scoped
/// thread spawn/join overhead (tens of microseconds) exceeds the work of
/// microsecond-scale inferences, so small batches run on the caller's
/// thread (still with EMAC reuse). [`THREADS_ENV`] overrides the thread
/// count but the floor still applies.
pub const MIN_SAMPLES_PER_THREAD: usize = 32;

/// Maps `f` over `xs` in parallel, preserving order. Samples are split
/// into one contiguous chunk per thread; each thread builds its scratch
/// state once with `init` (per-layer EMAC arrays, in practice) and reuses
/// it across its chunk. Thread count follows [`batch_threads`] capped by
/// [`MIN_SAMPLES_PER_THREAD`].
pub fn par_map_with<S, R, I, F>(xs: &[Vec<f32>], init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &[f32]) -> R + Sync,
{
    let threads = batch_threads()
        .min(xs.len() / MIN_SAMPLES_PER_THREAD)
        .max(1);
    par_map_with_threads(xs, threads, init, f)
}

/// Chunk-at-a-time [`par_map_with`]: each worker hands its **whole
/// contiguous chunk** to `f` in one call instead of one sample at a time,
/// so the callee can run tile-level kernels across the chunk (the
/// weight-stationary [`dp_emac::Emac::dot_tile`] sweep in
/// `QuantizedMlp::forward_batch_bits_with`, in practice). `f` must return
/// exactly one result per sample, in sample order; ordering and thread
/// policy match [`par_map_with`].
pub fn par_chunk_map_with<S, R, I, F>(xs: &[Vec<f32>], init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &[Vec<f32>]) -> Vec<R> + Sync,
{
    let threads = batch_threads()
        .min(xs.len() / MIN_SAMPLES_PER_THREAD)
        .max(1);
    par_chunk_map_with_threads(xs, threads, init, f)
}

/// Why a chunk of a scoped batch failed.
///
/// The scoped engine used to `expect` on worker joins, so one poisoned
/// chunk aborted the whole process with a generic panic message. Admission
/// layers (the `dp_serve` pool, the `dp_gateway` front end) need the
/// typed form instead, so a failed or shed chunk propagates as a value
/// the caller can account for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchError {
    /// The worker evaluating chunk `chunk` (0-based, in sample order)
    /// panicked; the other chunks were unaffected.
    ChunkPanicked {
        /// Index of the failed chunk.
        chunk: usize,
    },
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::ChunkPanicked { chunk } => {
                write!(f, "batch worker for chunk {chunk} panicked")
            }
        }
    }
}

impl std::error::Error for BatchError {}

/// [`par_map_with`] with an explicit worker count — the policy-free core,
/// public so the spawn/chunk/merge path can be exercised directly (even on
/// single-core machines) and so `dp_serve` can differential-test its
/// persistent pool against the scoped path. A panicking chunk worker
/// re-raises the **original** panic payload on the caller (so diagnostic
/// messages from the datapath survive); use [`try_par_map_with_threads`]
/// to get the typed [`BatchError`] instead.
pub fn par_map_with_threads<S, R, I, F>(xs: &[Vec<f32>], threads: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &[f32]) -> R + Sync,
{
    match par_map_impl(xs, threads, init, f) {
        Ok(out) => out,
        Err((_, payload)) => std::panic::resume_unwind(payload),
    }
}

/// [`par_chunk_map_with`] with an explicit worker count — the policy-free
/// core, public so the chunked spawn/merge path can be exercised directly
/// and so worker-count invariance of the tile sweep can be pinned even on
/// single-core machines. A panicking chunk worker re-raises the original
/// panic payload on the caller.
pub fn par_chunk_map_with_threads<S, R, I, F>(
    xs: &[Vec<f32>],
    threads: usize,
    init: I,
    f: F,
) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &[Vec<f32>]) -> Vec<R> + Sync,
{
    match par_chunk_map_impl(xs, threads, init, f) {
        Ok(out) => out,
        Err((_, payload)) => std::panic::resume_unwind(payload),
    }
}

/// Fallible [`par_map_with_threads`]: a panicking chunk worker is reported
/// as [`BatchError::ChunkPanicked`] (after every other chunk finished)
/// instead of tearing down the caller, so admission layers can shed the
/// failed chunk's request and keep serving the rest.
///
/// # Errors
///
/// [`BatchError::ChunkPanicked`] naming the first failed chunk.
pub fn try_par_map_with_threads<S, R, I, F>(
    xs: &[Vec<f32>],
    threads: usize,
    init: I,
    f: F,
) -> Result<Vec<R>, BatchError>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &[f32]) -> R + Sync,
{
    par_map_impl(xs, threads, init, f)
        .map_err(|(chunk, _payload)| BatchError::ChunkPanicked { chunk })
}

/// Per-sample core: the chunked engine with `f` lifted to map each chunk
/// one sample at a time.
fn par_map_impl<S, R, I, F>(
    xs: &[Vec<f32>],
    threads: usize,
    init: I,
    f: F,
) -> Result<Vec<R>, (usize, Box<dyn std::any::Any + Send>)>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &[f32]) -> R + Sync,
{
    par_chunk_map_impl(xs, threads, init, |state, slice| {
        slice.iter().map(|x| f(state, x)).collect()
    })
}

/// Shared core: maps whole contiguous chunks in parallel, reporting the
/// first failed chunk with its original panic payload so each wrapper can
/// choose between the typed error and a faithful re-raise.
fn par_chunk_map_impl<S, R, I, F>(
    xs: &[Vec<f32>],
    threads: usize,
    init: I,
    f: F,
) -> Result<Vec<R>, (usize, Box<dyn std::any::Any + Send>)>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &[Vec<f32>]) -> Vec<R> + Sync,
{
    if threads <= 1 || xs.len() <= 1 {
        // One chunk on the caller's thread; a panic is still reported as
        // that chunk failing (everything is discarded on unwind).
        return std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut state = init();
            let out = f(&mut state, xs);
            debug_assert_eq!(out.len(), xs.len(), "chunk map must be 1:1");
            out
        }))
        .map_err(|payload| (0, payload));
    }
    let chunk = xs.len().div_ceil(threads);
    let mut out: Vec<R> = Vec::with_capacity(xs.len());
    let mut failed: Option<(usize, Box<dyn std::any::Any + Send>)> = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = xs
            .chunks(chunk)
            .map(|slice| {
                scope.spawn(|| {
                    let mut state = init();
                    let part = f(&mut state, slice);
                    debug_assert_eq!(part.len(), slice.len(), "chunk map must be 1:1");
                    part
                })
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(part) => out.extend(part),
                Err(payload) if failed.is_none() => failed = Some((i, payload)),
                Err(_) => {}
            }
        }
    });
    match failed {
        None => Ok(out),
        Some(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_positive_integers() {
        assert_eq!(parse_thread_override(Some("1")), ThreadOverride::Threads(1));
        assert_eq!(parse_thread_override(Some("4")), ThreadOverride::Threads(4));
        assert_eq!(
            parse_thread_override(Some(" 16 ")),
            ThreadOverride::Threads(16)
        );
    }

    #[test]
    fn parse_treats_missing_and_empty_as_unset() {
        assert_eq!(parse_thread_override(None), ThreadOverride::Unset);
        assert_eq!(parse_thread_override(Some("")), ThreadOverride::Unset);
        assert_eq!(parse_thread_override(Some("   ")), ThreadOverride::Unset);
    }

    #[test]
    fn parse_rejects_zero_and_junk() {
        for bad in ["0", "-1", "two", "4.5", "4t", "99999999999999999999999"] {
            assert_eq!(
                parse_thread_override(Some(bad)),
                ThreadOverride::Invalid,
                "{bad}"
            );
        }
    }

    #[test]
    fn batch_threads_is_at_least_one() {
        // Whatever the environment says, the policy never returns zero.
        assert!(batch_threads() >= 1);
    }

    #[test]
    fn try_par_map_reports_panicked_chunk_as_typed_error() {
        let xs: Vec<Vec<f32>> = (0..8).map(|i| vec![i as f32]).collect();
        // Chunk 1 (samples 4..8) panics; the error names it and the caller
        // survives instead of aborting on a join expect.
        let err = try_par_map_with_threads(
            &xs,
            2,
            || (),
            |_, x| {
                if x[0] >= 4.0 {
                    panic!("injected chunk failure");
                }
                x[0] as usize
            },
        )
        .unwrap_err();
        assert_eq!(err, BatchError::ChunkPanicked { chunk: 1 });
        assert!(err.to_string().contains("chunk 1"));
        // Serial path: the single logical chunk is chunk 0.
        let err = try_par_map_with_threads(&xs, 1, || (), |_, _| -> usize { panic!("boom") })
            .unwrap_err();
        assert_eq!(err, BatchError::ChunkPanicked { chunk: 0 });
        // Healthy workloads are untouched.
        let ok = try_par_map_with_threads(&xs, 3, || (), |_, x| x[0] as usize).unwrap();
        assert_eq!(ok, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn infallible_wrapper_reraises_the_original_payload() {
        // The typed-error seam must not cost existing callers their
        // diagnostics: the infallible wrapper re-raises the worker's own
        // panic payload, not a generic "worker panicked" message.
        let xs: Vec<Vec<f32>> = (0..4).map(|i| vec![i as f32]).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map_with_threads(
                &xs,
                2,
                || (),
                |_, _| -> usize { panic!("dimension mismatch: got 1, want 4") },
            )
        });
        let payload = caught.unwrap_err();
        let msg = payload.downcast_ref::<&str>().unwrap();
        assert!(msg.contains("dimension mismatch"), "{msg}");
        // Serial path preserves the payload too.
        let caught = std::panic::catch_unwind(|| {
            par_map_with_threads(&xs, 1, || (), |_, _| -> usize { panic!("serial boom") })
        });
        let payload = caught.unwrap_err();
        assert!(payload
            .downcast_ref::<&str>()
            .unwrap()
            .contains("serial boom"));
    }

    #[test]
    fn par_chunk_map_preserves_order_and_hands_whole_chunks() {
        let xs: Vec<Vec<f32>> = (0..10).map(|i| vec![i as f32]).collect();
        for threads in [1usize, 3, 10, 1000] {
            let out = par_chunk_map_with_threads(
                &xs,
                threads,
                || (),
                |(), chunk| {
                    // Each worker sees one contiguous chunk and maps it 1:1.
                    assert!(!chunk.is_empty());
                    chunk.iter().map(|x| x[0] as usize).collect()
                },
            );
            assert_eq!(out, (0..10).collect::<Vec<_>>(), "threads = {threads}");
        }
        let none: Vec<Vec<f32>> = Vec::new();
        assert!(par_chunk_map_with(&none, || (), |(), c| vec![0usize; c.len()]).is_empty());
    }

    #[test]
    fn par_map_preserves_order_and_runs_init_per_chunk() {
        let xs: Vec<Vec<f32>> = (0..10).map(|i| vec![i as f32]).collect();
        let out = par_map_with_threads(
            &xs,
            3,
            || 0usize,
            |calls, x| {
                *calls += 1;
                x[0] as usize
            },
        );
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }
}
