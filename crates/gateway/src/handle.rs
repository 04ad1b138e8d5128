//! Gateway completion handles: results (or a typed verdict) come back
//! out of the admission pipeline through these.
//!
//! A [`GatewayHandle`] is handed out at admission, **before** any worker
//! has started the request — it may still be sitting in the submission
//! ring, may already be running on the pool, or may have been shed by an
//! overload policy. The handle hides that lifecycle:
//! [`poll`](GatewayHandle::poll) never blocks, [`wait`](GatewayHandle::wait)
//! blocks until the request resolves,
//! [`wait_timeout`](GatewayHandle::wait_timeout) bounds the block, and a
//! shed/expired/cancelled request resolves promptly to its typed
//! [`GatewayError`] instead of hanging forever.
//!
//! The handle's cell is the only completion state a request has: the
//! workers settle chunk results into it directly and it assembles them in
//! sample order. It caches its resolution, so `wait` and `poll` can be
//! called repeatedly, from any number of threads (each gets a clone).
//! The first resolution **wins**: once cached it is never overwritten, so
//! a request that was already expired, evicted or cancelled keeps
//! reporting the same verdict however late a chunk result limps in.

use crate::check::{self, check_yield, MutexGuard};
use dp_serve::{CancelToken, JobError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why an admitted request failed to produce a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatewayError {
    /// An overload policy shed this request from the submission ring
    /// before any worker started it (e.g. `ShedOldest` evicted it to make
    /// room for newer traffic).
    Shed,
    /// The gateway closed before any worker could start this request.
    Closed,
    /// The request's [`SubmitOptions`](crate::gateway::SubmitOptions)
    /// deadline passed before a worker started it; its rate-limit tokens
    /// were refunded.
    DeadlineExceeded,
    /// The request was cancelled via [`GatewayHandle::cancel`] (while
    /// queued, or mid-flight at a chunk boundary).
    Cancelled,
    /// The serving engine is degraded (worker panic budget tripped) and
    /// dropped this already-admitted request before evaluation.
    Degraded,
    /// The request started but one of its chunks failed.
    Job(JobError),
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::Shed => write!(f, "request shed by the gateway overload policy"),
            GatewayError::Closed => write!(f, "gateway closed before the request was dispatched"),
            GatewayError::DeadlineExceeded => {
                write!(f, "request deadline passed before dispatch")
            }
            GatewayError::Cancelled => write!(f, "request cancelled by the caller"),
            GatewayError::Degraded => {
                write!(f, "serving engine degraded; admitted request dropped")
            }
            GatewayError::Job(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for GatewayError {}

impl From<JobError> for GatewayError {
    fn from(e: JobError) -> Self {
        match e {
            // A chunk cancelled through the request's token surfaces as
            // the gateway-level cancel verdict, not a generic job failure.
            JobError::Cancelled => GatewayError::Cancelled,
            other => GatewayError::Job(other),
        }
    }
}

/// Where an admitted request currently is in the gateway pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestStage {
    /// Still waiting in the submission ring.
    Queued,
    /// A worker took it out of the ring; its chunks are running.
    Dispatched,
    /// Resolved: a value, a job failure, or a shed/closed verdict.
    Done,
}

/// How a request's chunks ended, reported once the last one settles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Settled {
    /// Every chunk produced its result.
    Completed,
    /// Some chunk failed (panic or stall).
    Failed(JobError),
    /// Some chunk was skipped because the request was cancelled.
    Cancelled,
}

/// A request's final verdict: every sample's answer, or why there is
/// none.
type Resolution<T> = Result<Vec<T>, GatewayError>;

struct CellState<T> {
    /// Set once a worker has taken the request out of the ring.
    dispatched: bool,
    /// Per-chunk results, filled in any order, read out in order.
    parts: Vec<Option<Vec<T>>>,
    /// Chunks not yet settled.
    remaining: usize,
    /// The first chunk failure, if any.
    failed: Option<JobError>,
    cancelled: bool,
    /// The final, cached resolution every `wait`/`poll` clone returns.
    resolved: Option<Resolution<T>>,
}

pub(crate) struct HandleCell<T> {
    state: check::Mutex<CellState<T>>,
    ready: check::Condvar,
    /// The request's cancellation token, checked before each chunk.
    cancel: CancelToken,
}

impl<T> HandleCell<T> {
    /// The handle-state lock.
    fn st(&self) -> MutexGuard<'_, CellState<T>> {
        // panic-ok: the handle lock is only poisoned if a holder panicked
        // mid-section; the sections here are field updates and clones of
        // caller data — a poisoned lock means the resolution state is
        // already torn and no verdict would be trustworthy.
        self.state.lock().expect("gateway handle lock")
    }

    /// Resolves the request (shed, closed, expired, a chunk verdict, or
    /// an inline empty result) and wakes every waiter. **First resolution
    /// wins**: an already-resolved cell is left untouched, so a late
    /// verdict can never clobber the one callers may have seen.
    pub(crate) fn resolve(&self, result: Resolution<T>) {
        check_yield!("handle.resolve");
        let mut st = self.st();
        if st.resolved.is_some() {
            return;
        }
        st.resolved = Some(result);
        self.ready.notify_all();
    }

    /// Marks the request taken out of the ring, to be settled in
    /// `chunks` chunks.
    pub(crate) fn dispatched(&self, chunks: usize) {
        check_yield!("handle.dispatched");
        let mut st = self.st();
        st.dispatched = true;
        st.parts = (0..chunks).map(|_| None).collect();
        st.remaining = chunks;
    }

    /// Settles chunk `index`. A delivered result is kept for assembly; an
    /// undelivered one (its completion was dropped) never reaches the
    /// caller. Once the last chunk settles, returns how the request ended
    /// plus the assembled resolution — `None` when a completion was
    /// dropped, which leaves the handle pending until it is cancelled.
    /// The caller records the outcome and then [`HandleCell::resolve`]s.
    pub(crate) fn settle_chunk(
        &self,
        index: usize,
        result: Result<Vec<T>, JobError>,
        delivered: bool,
    ) -> Option<(Settled, Option<Resolution<T>>)> {
        check_yield!("handle.complete_chunk");
        let mut st = self.st();
        match result {
            Ok(part) if delivered => st.parts[index] = Some(part),
            Ok(_) => {}
            Err(JobError::Cancelled) => st.cancelled = true,
            Err(err) => {
                st.failed.get_or_insert(err);
            }
        }
        st.remaining -= 1;
        if st.remaining > 0 {
            return None;
        }
        Some(if let Some(err) = st.failed {
            (Settled::Failed(err), Some(Err(GatewayError::Job(err))))
        } else if st.cancelled {
            (Settled::Cancelled, Some(Err(GatewayError::Cancelled)))
        } else {
            let mut out = Vec::new();
            for part in std::mem::take(&mut st.parts) {
                match part {
                    Some(part) => out.extend(part),
                    // A dropped completion: nothing to deliver.
                    None => return Some((Settled::Completed, None)),
                }
            }
            (Settled::Completed, Some(Ok(out)))
        })
    }

    /// The request's cancel token (checked by its chunk jobs).
    pub(crate) fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }
}

/// Handle to one admitted gateway request.
///
/// Resolution is cached: after the first `wait`/successful `poll`, further
/// calls return clones of the same result.
pub struct GatewayHandle<T> {
    cell: Arc<HandleCell<T>>,
}

impl<T> std::fmt::Debug for GatewayHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GatewayHandle")
            .field("stage", &self.stage())
            .finish()
    }
}

impl<T> GatewayHandle<T> {
    /// Creates a pending handle plus the gateway-side cell that resolves
    /// it.
    pub(crate) fn pending() -> (Self, Arc<HandleCell<T>>) {
        let cell = Arc::new(HandleCell {
            state: check::mutex(
                "gateway.handle",
                CellState {
                    dispatched: false,
                    parts: Vec::new(),
                    remaining: 0,
                    failed: None,
                    cancelled: false,
                    resolved: None,
                },
            ),
            ready: check::condvar(),
            cancel: CancelToken::new(),
        });
        (
            GatewayHandle {
                cell: Arc::clone(&cell),
            },
            cell,
        )
    }

    /// Where the request currently is. `Done` covers success, job failure
    /// and shed/closed verdicts alike.
    pub fn stage(&self) -> RequestStage {
        let st = self.cell.st();
        if st.resolved.is_some() {
            RequestStage::Done
        } else if st.dispatched {
            RequestStage::Dispatched
        } else {
            RequestStage::Queued
        }
    }

    /// Whether a result (or shed/failure verdict) is available without
    /// blocking.
    pub fn is_done(&self) -> bool {
        self.cell.st().resolved.is_some()
    }

    /// Requests cancellation of this request. Idempotent.
    ///
    /// * Not yet resolved → the handle resolves **immediately** to
    ///   [`GatewayError::Cancelled`]. A queued request is discarded when
    ///   a worker pops it (its rate-limit tokens are refunded); a running
    ///   one skips every chunk that has not started yet. This also makes
    ///   `cancel` the recovery path for a request whose completion was
    ///   lost (e.g. under the `drop_completion` fault): the handle can
    ///   always be resolved.
    /// * Already resolved → no-op; the existing verdict sticks
    ///   (cancellation is cooperative, not retroactive).
    pub fn cancel(&self) {
        self.cell.cancel.cancel();
        check_yield!("handle.cancel");
        let mut st = self.cell.st();
        if st.resolved.is_none() {
            st.resolved = Some(Err(GatewayError::Cancelled));
            self.cell.ready.notify_all();
        }
    }
}

impl<T: Clone> GatewayHandle<T> {
    /// Non-blocking: the resolved result if available, `None` while the
    /// request is queued or still running. Safe to call repeatedly —
    /// once resolved, every call returns a clone of the same result.
    pub fn poll(&self) -> Option<Result<Vec<T>, GatewayError>> {
        check_yield!("handle.poll");
        self.cell.st().resolved.clone()
    }

    /// Blocks until the request resolves. A shed request returns
    /// [`GatewayError::Shed`] promptly — it never hangs. Repeatable:
    /// a second `wait` returns a clone of the cached result.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Shed`] / [`GatewayError::Closed`] when an overload
    /// policy or shutdown dropped the request,
    /// [`GatewayError::DeadlineExceeded`] when it expired in the ring,
    /// [`GatewayError::Cancelled`] after a cancel, [`GatewayError::Job`]
    /// when a chunk failed.
    pub fn wait(&self) -> Result<Vec<T>, GatewayError> {
        let mut st = self.cell.st();
        loop {
            check_yield!("handle.wait_take");
            if let Some(r) = &st.resolved {
                return r.clone();
            }
            // panic-ok: see `HandleCell::st`
            st = self.cell.ready.wait(st).expect("gateway handle lock");
        }
    }

    /// Bounded [`GatewayHandle::wait`]: `Some(result)` if the request
    /// resolves within `timeout`, `None` otherwise. The handle stays
    /// fully usable after a timeout (wait again, poll, or
    /// [`cancel`](GatewayHandle::cancel) and then wait for the prompt
    /// [`GatewayError::Cancelled`]). This is the primitive that keeps
    /// chaos tests and latency-sensitive callers hang-free whatever fault
    /// is in play.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Vec<T>, GatewayError>> {
        // clock-ok: caller-side wall-clock wait bound (the OS condvar wait
        // below is real-time anyway); the serving pipeline's own
        // timestamps go through the dp_trace clock seam.
        let deadline = Instant::now() + timeout;
        let mut st = self.cell.st();
        loop {
            check_yield!("handle.wait_take");
            if let Some(r) = &st.resolved {
                return Some(r.clone());
            }
            // clock-ok: see the deadline note above.
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _timeout) = self
                .cell
                .ready
                .wait_timeout(st, deadline - now)
                .expect("gateway handle lock"); // panic-ok: see `HandleCell::st`
            st = guard;
        }
    }
}

/// Seeded PCT interleave tests (compiled only with `--features
/// check-yield`): the checker drives double-`wait`, poll-after-cancel
/// and the cancel-vs-resolve race through ≥1000 schedules per seed.
/// Assertions run *inside* the scheduled bodies — a violated invariant
/// surfaces as a panic-in-schedule finding, so `findings.is_empty()`
/// is the pass condition for every run at once.
#[cfg(all(test, feature = "check-yield"))]
mod interleave_tests {
    use super::*;
    use dp_check::sched::explore;

    const SEEDS: [u64; 3] = [0x6A7E_0001, 0x6A7E_0002, 0x6A7E_0003];
    const RUNS: usize = 1000;

    /// Two waiters race the resolver. Both must come home with the same
    /// (only) resolution whatever order the three threads interleave in,
    /// including the ISSUE's prime suspect: both waiters parked before
    /// the resolve, or one arriving after the verdict is already cached.
    #[test]
    fn double_wait_sees_one_resolution_under_every_schedule() {
        for master in SEEDS {
            let out = explore(master, RUNS, 3, |_| {
                let (handle, cell) = GatewayHandle::<u32>::pending();
                let handle = Arc::new(handle);
                let h1 = Arc::clone(&handle);
                let h2 = Arc::clone(&handle);
                vec![
                    Box::new(move || {
                        assert_eq!(h1.wait(), Ok(vec![7]));
                    }) as Box<dyn FnOnce() + Send>,
                    Box::new(move || {
                        // The bounded-wait path: generous real-time bound,
                        // virtualized by the scheduler if the run stalls.
                        let got = h2.wait_timeout(Duration::from_secs(60));
                        assert_eq!(got, Some(Ok(vec![7])));
                    }),
                    Box::new(move || {
                        cell.resolve(Ok(vec![7]));
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

    /// Cancel races a late resolve while an observer waits. First
    /// resolution wins and then *sticks*: whatever verdict the observer's
    /// `wait` returns, every later `poll` and `wait` must repeat it, and
    /// `poll` directly after `cancel` returns must never be `None`.
    #[test]
    fn cancel_resolve_race_verdict_is_stable() {
        for master in SEEDS {
            let out = explore(master, RUNS, 3, |_| {
                let (handle, cell) = GatewayHandle::<u32>::pending();
                let handle = Arc::new(handle);
                let hc = Arc::clone(&handle);
                let ho = Arc::clone(&handle);
                vec![
                    Box::new(move || {
                        hc.cancel();
                        // Poll-after-cancel: cancel always leaves the
                        // handle resolved, so a spin here is a bug.
                        let polled = hc.poll();
                        assert!(polled.is_some(), "poll after cancel spun");
                    }) as Box<dyn FnOnce() + Send>,
                    Box::new(move || {
                        cell.resolve(Ok(vec![9]));
                    }),
                    Box::new(move || {
                        let first = ho.wait();
                        assert!(
                            first == Ok(vec![9]) || first == Err(GatewayError::Cancelled),
                            "unexpected verdict {first:?}"
                        );
                        // The cached verdict must repeat verbatim.
                        assert_eq!(ho.poll(), Some(first.clone()));
                        assert_eq!(ho.wait(), first);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_before_dispatch_reports_shed() {
        let (handle, cell) = GatewayHandle::<u32>::pending();
        assert_eq!(handle.stage(), RequestStage::Queued);
        assert!(!handle.is_done());
        assert_eq!(handle.poll(), None);
        cell.resolve(Err(GatewayError::Shed));
        assert_eq!(handle.stage(), RequestStage::Done);
        assert_eq!(handle.wait(), Err(GatewayError::Shed));
        // Double-wait is defined: the cached verdict comes back again.
        assert_eq!(handle.wait(), Err(GatewayError::Shed));
        assert_eq!(handle.poll(), Some(Err(GatewayError::Shed)));
    }

    #[test]
    fn first_resolution_wins() {
        let (handle, cell) = GatewayHandle::<u32>::pending();
        cell.resolve(Err(GatewayError::DeadlineExceeded));
        // A late second verdict (e.g. an engine result limping in after
        // expiry) must not clobber what callers already saw.
        cell.resolve(Ok(vec![1, 2, 3]));
        assert_eq!(handle.wait(), Err(GatewayError::DeadlineExceeded));
    }

    #[test]
    fn wait_from_two_threads_returns_the_same_value() {
        let (handle, cell) = GatewayHandle::<u32>::pending();
        let handle = Arc::new(handle);
        let h2 = Arc::clone(&handle);
        let t = std::thread::spawn(move || h2.wait());
        std::thread::sleep(std::time::Duration::from_millis(5));
        cell.resolve(Ok(vec![1, 2, 3]));
        assert_eq!(handle.wait(), Ok(vec![1, 2, 3]));
        assert_eq!(t.join().unwrap(), Ok(vec![1, 2, 3]));
    }

    #[test]
    fn wait_timeout_times_out_then_resolves() {
        let (handle, cell) = GatewayHandle::<u32>::pending();
        assert_eq!(handle.wait_timeout(Duration::from_millis(10)), None);
        cell.resolve(Ok(vec![4]));
        assert_eq!(
            handle.wait_timeout(Duration::from_millis(10)),
            Some(Ok(vec![4]))
        );
        // Cached: repeatable.
        assert_eq!(
            handle.wait_timeout(Duration::from_millis(10)),
            Some(Ok(vec![4]))
        );
    }

    #[test]
    fn cancel_of_queued_request_resolves_immediately() {
        let (handle, cell) = GatewayHandle::<u32>::pending();
        assert!(!cell.cancel_token().is_cancelled());
        handle.cancel();
        assert!(cell.cancel_token().is_cancelled());
        assert_eq!(handle.wait(), Err(GatewayError::Cancelled));
        // Idempotent, and the verdict sticks.
        handle.cancel();
        assert_eq!(handle.poll(), Some(Err(GatewayError::Cancelled)));
    }

    #[test]
    fn settled_chunks_assemble_in_request_order() {
        let (handle, cell) = GatewayHandle::<u32>::pending();
        cell.dispatched(3);
        assert_eq!(handle.stage(), RequestStage::Dispatched);
        assert_eq!(cell.settle_chunk(2, Ok(vec![5, 6]), true), None);
        assert_eq!(cell.settle_chunk(0, Ok(vec![1, 2]), true), None);
        let (settled, resolution) = cell.settle_chunk(1, Ok(vec![3, 4]), true).unwrap();
        assert_eq!(settled, Settled::Completed);
        assert_eq!(resolution, Some(Ok(vec![1, 2, 3, 4, 5, 6])));
        // The caller resolves; the handle is still pending until it does.
        assert!(!handle.is_done());
        cell.resolve(resolution.unwrap());
        assert_eq!(handle.wait(), Ok(vec![1, 2, 3, 4, 5, 6]));
    }

    #[test]
    fn a_failed_chunk_fails_the_request_and_a_dropped_one_leaves_it_pending() {
        let (_, cell) = GatewayHandle::<u32>::pending();
        cell.dispatched(3);
        assert_eq!(cell.settle_chunk(0, Err(JobError::Cancelled), true), None);
        assert_eq!(cell.settle_chunk(1, Err(JobError::Stalled), true), None);
        // A failure outranks a cancellation, and the first failure wins.
        assert_eq!(
            cell.settle_chunk(2, Err(JobError::Panicked), true),
            Some((
                Settled::Failed(JobError::Stalled),
                Some(Err(GatewayError::Job(JobError::Stalled)))
            ))
        );
        let (_, cell) = GatewayHandle::<u32>::pending();
        cell.dispatched(2);
        assert_eq!(cell.settle_chunk(0, Ok(vec![1]), false), None);
        // Counted as completed, but with nothing to deliver.
        assert_eq!(
            cell.settle_chunk(1, Ok(vec![2]), true),
            Some((Settled::Completed, None))
        );
    }

    #[test]
    fn a_cancelled_chunk_settles_the_request_as_cancelled() {
        let (handle, cell) = GatewayHandle::<u32>::pending();
        cell.dispatched(2);
        assert_eq!(cell.settle_chunk(0, Ok(vec![1]), true), None);
        let (settled, resolution) = cell
            .settle_chunk(1, Err(JobError::Cancelled), true)
            .unwrap();
        assert_eq!(settled, Settled::Cancelled);
        assert_eq!(resolution, Some(Err(GatewayError::Cancelled)));
        cell.resolve(resolution.unwrap());
        assert_eq!(handle.wait(), Err(GatewayError::Cancelled));
    }

    #[test]
    fn wait_blocks_until_the_last_chunk_settles() {
        let (handle, cell) = GatewayHandle::<u32>::pending();
        cell.dispatched(2);
        let handle = Arc::new(handle);
        let waiter = {
            let handle = Arc::clone(&handle);
            std::thread::spawn(move || handle.wait())
        };
        assert_eq!(cell.settle_chunk(1, Ok(vec![2]), true), None);
        std::thread::sleep(Duration::from_millis(10));
        // One chunk settled, one outstanding: still blocked.
        assert!(!waiter.is_finished());
        assert_eq!(handle.stage(), RequestStage::Dispatched);
        let (_, resolution) = cell.settle_chunk(0, Ok(vec![1]), true).unwrap();
        cell.resolve(resolution.unwrap());
        assert_eq!(waiter.join().unwrap(), Ok(vec![1, 2]));
        assert_eq!(handle.stage(), RequestStage::Done);
    }
}
