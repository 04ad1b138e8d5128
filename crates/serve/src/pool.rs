//! The serving engine's worker pool: supervised threads that pull their
//! work straight from a [`JobSource`], next to the model registry they
//! serve.
//!
//! Workers are ordinary `std::thread`s that live for the engine's lifetime,
//! so a request stream pays thread spawn cost once rather than per batch
//! (the scoped-thread engine in `deep_positron::batch` remains as the
//! zero-setup fallback). The pool keeps no queue of its own: each worker
//! blocks inside [`JobSource::next_job`] — in the serving stack, on
//! `dp_gateway`'s admission ring — runs the job it gets outside every
//! lock, and reports it back through [`JobSource::job_settled`]. A worker
//! exits once the source returns `None` (closed and drained).
//!
//! A panicking job is caught and counted; the worker thread survives and
//! keeps serving (the job itself has already failed its request — see
//! `crate::chunk_job`).
//!
//! # Supervision
//!
//! Two optional supervisors harden the pool against the failure modes a
//! caught panic cannot cover:
//!
//! * A **watchdog** ([`WatchdogConfig`]) — every worker stamps a heartbeat
//!   when it picks up a job; a supervisor thread scans the stamps and,
//!   when a worker has been busy on one job beyond the stall threshold,
//!   *abandons* that worker (its thread is detached, its generation
//!   retired), runs the job's stall handler (which fails only the stuck
//!   job's request), settles the job with the source and respawns a fresh
//!   worker on the same slot, which resumes pulling from the source.
//! * A **panic budget** ([`PanicBudget`]) — worker panics are timestamped;
//!   when more than the budgeted number land inside the trailing window
//!   the pool's [`Health`] flips to **degraded**. The pool itself keeps
//!   running; the source (and admission in front of it) consults the
//!   flag and refuses new work with a typed error until an operator calls
//!   [`ServeEngine::reset_degraded`].

use crate::check::{self, check_yield, Condvar, Mutex};
use crate::engine::EngineConfig;
use crate::registry::ModelRegistry;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub(crate) type Thunk = Box<dyn FnOnce() + Send + 'static>;

/// A unit of work for the pool: the job closure plus the stall handler
/// the watchdog runs instead if the job wedges its worker (see
/// [`WatchdogConfig`]). The handler's contract is to fail **only this
/// job's** request.
pub struct Job {
    pub(crate) run: Thunk,
    pub(crate) on_stalled: Thunk,
}

impl Job {
    /// A job and its stall handler. The handler runs at most once, and
    /// only when the watchdog abandons the worker running this job.
    pub fn new(
        run: impl FnOnce() + Send + 'static,
        on_stalled: impl FnOnce() + Send + 'static,
    ) -> Self {
        Job {
            run: Box::new(run),
            on_stalled: Box::new(on_stalled),
        }
    }
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job").finish_non_exhaustive()
    }
}

/// Where the pool's workers get their work.
pub trait JobSource: Send + Sync + 'static {
    /// Blocks until the next job is ready. `None` means the source is
    /// closed and drained, and retires the calling worker. `health` is
    /// the pool's panic-budget state, for sources that refuse to start
    /// new work while the pool is degraded.
    fn next_job(&self, health: &Health) -> Option<Job>;

    /// Called exactly once for every job [`JobSource::next_job`] handed
    /// out: after it ran (panicked or not), or — when the watchdog
    /// abandoned its worker — after its stall handler ran.
    fn job_settled(&self);
}

/// Watchdog sizing: how long a worker may sit on one job before it is
/// declared stalled, and how often the supervisor scans the heartbeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Busy-on-one-job threshold beyond which a worker is abandoned and
    /// respawned. Must comfortably exceed the longest legitimate chunk
    /// evaluation.
    pub stall_timeout: Duration,
    /// Heartbeat scan cadence (also bounds how late a stall is detected:
    /// worst case `stall_timeout + poll_interval`).
    pub poll_interval: Duration,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            stall_timeout: Duration::from_secs(2),
            poll_interval: Duration::from_millis(100),
        }
    }
}

/// Panic budget: how many worker panics the pool tolerates inside a
/// trailing window before flipping to degraded mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanicBudget {
    /// Panics tolerated within [`PanicBudget::window`]; the
    /// `max_panics + 1`-th trips [`Health::is_degraded`].
    pub max_panics: u32,
    /// Trailing window over which panics are counted.
    pub window: Duration,
}

impl Default for PanicBudget {
    fn default() -> Self {
        PanicBudget {
            max_panics: 8,
            window: Duration::from_secs(10),
        }
    }
}

/// Counters exposed for observability and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker thread count.
    pub workers: usize,
    /// Jobs (request chunks) executed to completion, including panicked
    /// and stalled ones — a stalled job is counted by the watchdog when
    /// it abandons the worker, so `jobs_run` always converges to the
    /// number of jobs handed out.
    pub jobs_run: u64,
    /// Jobs whose closure panicked (caught; the worker survived).
    pub panics: u64,
    /// Workers the watchdog declared stalled and abandoned.
    pub stalled: u64,
    /// Replacement workers the watchdog spawned (equals `stalled` unless a
    /// respawn itself failed).
    pub respawned: u64,
    /// Whether the panic budget has tripped (see [`Health`]).
    pub degraded: bool,
}

/// The pool's panic-budget state: the degraded flag plus the recent
/// panic times that trip it.
pub struct Health {
    degraded: AtomicBool,
    budget: Option<PanicBudget>,
    /// Timestamps of recent panics (trimmed to the budget window).
    panic_times: Mutex<VecDeque<Instant>>,
}

impl std::fmt::Debug for Health {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Health")
            .field("degraded", &self.is_degraded())
            .field("budget", &self.budget)
            .finish()
    }
}

impl Health {
    fn new(budget: Option<PanicBudget>) -> Self {
        Health {
            degraded: AtomicBool::new(false),
            budget,
            panic_times: check::mutex("pool.panic_times", VecDeque::new()),
        }
    }

    /// Whether the panic budget has tripped. The pool itself keeps
    /// running; admission layers consult this flag and reject new work
    /// with a typed error.
    pub fn is_degraded(&self) -> bool {
        // seqcst-ok: pairs with the SeqCst stores in `note_panic` /
        // `reset`; lock-free admission check off the hot loop.
        self.degraded.load(Ordering::SeqCst)
    }

    fn times(&self) -> check::MutexGuard<'_, VecDeque<Instant>> {
        // panic-ok: holders only mutate a VecDeque; no unwind.
        self.panic_times.lock().expect("panic budget lock")
    }

    /// Clears the degraded flag and forgets the panic history.
    fn reset(&self) {
        self.times().clear();
        // seqcst-ok: pairs with the loads in `is_degraded`.
        self.degraded.store(false, Ordering::SeqCst);
    }

    /// Records one worker panic against the budget; flips `degraded` when
    /// the trailing-window count exceeds it.
    fn note_panic(&self) {
        let Some(budget) = self.budget else { return };
        // clock-ok: the panic budget's trailing window is a wall-clock
        // supervision contract, independent of the trace clock seam.
        let now = Instant::now();
        let mut times = self.times();
        times.push_back(now);
        while let Some(&front) = times.front() {
            if now.duration_since(front) > budget.window {
                times.pop_front();
            } else {
                break;
            }
        }
        if times.len() as u64 > u64::from(budget.max_panics) {
            // seqcst-ok: standalone admission flag read lock-free by the
            // source and the gateway; the cold full fence keeps the
            // degraded flip immediately visible to every admission thread.
            self.degraded.store(true, Ordering::SeqCst);
        }
    }
}

struct State {
    /// Jobs currently executing on a worker.
    active: usize,
    shutdown: bool,
}

/// Per-slot heartbeat + supervision state. A *slot* outlives any one
/// worker thread: the watchdog retires a wedged worker's generation and
/// hands the slot to a replacement.
struct WorkerWatch {
    /// Generation of the thread currently owning this slot. A worker
    /// whose spawn-time generation no longer matches has been abandoned
    /// and must exit without touching slot state or accounting.
    gen: AtomicU64,
    /// Heartbeat: 0 when idle, else `Shared::now_ms` at the moment the
    /// current job was picked up.
    busy_since_ms: AtomicU64,
    /// The running job's stall handler, parked here so the watchdog can
    /// take it without cooperating with the (possibly wedged) worker.
    /// Lock order: `state` before this.
    stall_handler: Mutex<Option<Thunk>>,
}

impl WorkerWatch {
    /// The parked stall handler (lock order: `state` before this).
    fn handler(&self) -> check::MutexGuard<'_, Option<Thunk>> {
        // panic-ok: holders only move the boxed handler; no unwind.
        self.stall_handler.lock().expect("stall handler lock")
    }
}

struct Shared {
    state: Mutex<State>,
    /// Signalled after every job settles and on shutdown, so the watchdog
    /// re-checks its exit condition.
    progress: Condvar,
    /// Per-worker supervision state, one per slot.
    watches: Vec<WorkerWatch>,
    /// Worker thread handles by slot, swapped by the watchdog on respawn
    /// (the wedged thread's handle is dropped, i.e. detached).
    threads: Mutex<Vec<Option<JoinHandle<()>>>>,
    /// Monotonic time base for the heartbeat stamps.
    epoch: Instant,
    source: Arc<dyn JobSource>,
    health: Health,
    jobs_run: AtomicU64,
    panics: AtomicU64,
    stalled: AtomicU64,
    respawned: AtomicU64,
}

impl Shared {
    /// Milliseconds since pool start, offset by 1 so 0 can mean "idle".
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64 + 1
    }

    /// The central accounting lock.
    fn st(&self) -> check::MutexGuard<'_, State> {
        // panic-ok: no holder of the state lock can unwind — jobs run
        // outside every lock — so poisoning is unreachable.
        self.state.lock().expect("pool lock")
    }

    /// The worker-thread handle table (lock order: `state` before this).
    fn thread_table(&self) -> check::MutexGuard<'_, Vec<Option<JoinHandle<()>>>> {
        // panic-ok: holders only swap Option handles; no unwind.
        self.threads.lock().expect("threads lock")
    }
}

/// A persistent serving engine: a fixed pool of long-lived, supervised
/// worker threads pulling chunk jobs from one [`JobSource`], and the
/// registry of models they serve — posit, minifloat and fixed-point side
/// by side.
///
/// See the [module docs](self) for the worker loop and the optional
/// supervision. Dropping the engine joins its workers, which exit once
/// the source returns `None` — close the source first. A worker the
/// watchdog abandoned is **not** joined; its thread was detached at
/// respawn time.
pub struct ServeEngine {
    shared: Arc<Shared>,
    watchdog: Option<JoinHandle<()>>,
    registry: ModelRegistry,
    chunk_samples: usize,
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("workers", &self.workers())
            .field("chunk_samples", &self.chunk_samples)
            .field("supervised", &self.watchdog.is_some())
            .finish_non_exhaustive()
    }
}

fn spawn_worker(shared: &Arc<Shared>, slot: usize, gen: u64) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("dp-serve-worker-{slot}-g{gen}"))
        .spawn(move || worker_loop(&shared, slot, gen))
        // panic-ok: thread spawn fails only on resource exhaustion at
        // pool construction / respawn; no graceful degradation exists.
        .expect("spawn pool worker")
}

impl ServeEngine {
    /// Builds an engine from `config` (see [`EngineConfig`]): spawns its
    /// workers pulling from `source`, plus the watchdog if configured.
    pub fn new(config: EngineConfig, source: Arc<dyn JobSource>) -> Self {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            state: check::mutex(
                "pool.state",
                State {
                    active: 0,
                    shutdown: false,
                },
            ),
            progress: check::condvar(),
            watches: (0..workers)
                .map(|_| WorkerWatch {
                    gen: AtomicU64::new(0),
                    busy_since_ms: AtomicU64::new(0),
                    stall_handler: check::mutex("pool.stall_handler", None),
                })
                .collect(),
            threads: check::mutex("pool.threads", (0..workers).map(|_| None).collect()),
            // clock-ok: construction-time anchor for busy-ms deltas, never compared to seam time
            epoch: Instant::now(),
            source,
            health: Health::new(config.panic_budget),
            jobs_run: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            stalled: AtomicU64::new(0),
            respawned: AtomicU64::new(0),
        });
        {
            let mut threads = shared.thread_table();
            for (i, slot) in threads.iter_mut().enumerate() {
                *slot = Some(spawn_worker(&shared, i, 0));
            }
        }
        let watchdog = config.watchdog.map(|cfg| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("dp-serve-watchdog".to_string())
                .spawn(move || watchdog_loop(&shared, cfg))
                // panic-ok: see `spawn_worker`.
                .expect("spawn pool watchdog")
        });
        ServeEngine {
            shared,
            watchdog,
            registry: ModelRegistry::new(),
            chunk_samples: config.chunk_samples.max(1),
        }
    }

    /// The model registry (register/lookup/unregister models here).
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// Samples per chunk (see [`EngineConfig::chunk_samples`]).
    pub fn chunk_samples(&self) -> usize {
        self.chunk_samples
    }

    /// Worker thread count (stable across respawns).
    pub fn workers(&self) -> usize {
        self.shared.watches.len()
    }

    /// Observability counters.
    pub fn stats(&self) -> PoolStats {
        // relaxed-ok: independent monotone counters; a stats read needs
        // no ordering against the workers that bump them.
        let ld = |c: &AtomicU64| c.load(Ordering::Relaxed);
        PoolStats {
            workers: self.workers(),
            jobs_run: ld(&self.shared.jobs_run),
            panics: ld(&self.shared.panics),
            stalled: ld(&self.shared.stalled),
            respawned: ld(&self.shared.respawned),
            degraded: self.is_degraded(),
        }
    }

    /// Per-worker busy time: `0` for an idle slot, else how many
    /// milliseconds the slot's current job has been running. Observability
    /// only (the `/statusz` endpoint renders it); values are heartbeat
    /// snapshots and may lag a worker's actual state by one store.
    pub fn worker_busy_ms(&self) -> Vec<u64> {
        let now = self.shared.now_ms();
        self.shared
            .watches
            .iter()
            .map(|w| {
                // relaxed-ok: single-word heartbeat observation; staleness
                // only skews a debug rendering.
                match w.busy_since_ms.load(Ordering::Relaxed) {
                    0 => 0,
                    since => now.saturating_sub(since).max(1),
                }
            })
            .collect()
    }

    /// Whether the panic budget has tripped (see [`Health`]).
    pub fn is_degraded(&self) -> bool {
        self.shared.health.is_degraded()
    }

    /// Operator action: clears the degraded flag and forgets the panic
    /// history that tripped it.
    pub fn reset_degraded(&self) {
        self.shared.health.reset();
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shared.st().shutdown = true;
        // The watchdog re-checks its exit condition on progress signals.
        self.shared.progress.notify_all();
        let handles: Vec<JoinHandle<()>> = {
            let mut threads = self.shared.thread_table();
            threads.iter_mut().filter_map(Option::take).collect()
        };
        for h in handles {
            // panic-ok: the worker loop catches job panics; an unwind
            // here is a pool bug worth crashing loudly on.
            h.join().expect("pool worker never panics");
        }
        if let Some(w) = self.watchdog.take() {
            // panic-ok: same contract as the worker join above.
            w.join().expect("pool watchdog never panics");
        }
    }
}

fn worker_loop(shared: &Shared, me: usize, my_gen: u64) {
    let watch = &shared.watches[me];
    while let Some(Job { run, on_stalled }) = shared.source.next_job(&shared.health) {
        {
            let mut st = shared.st();
            check_yield!("pool.worker.pickup");
            st.active += 1;
            // Heartbeat + stall handler are published before the job
            // runs, under the state lock the watchdog scans under.
            *watch.handler() = Some(on_stalled);
            let now = shared.now_ms();
            // relaxed-ok: (audited, was SeqCst) `busy_since_ms` and `gen`
            // are only written and read under the state lock, which
            // already orders them.
            watch.busy_since_ms.store(now, Ordering::Relaxed);
        }
        // The job runs outside every lock; a panic is confined to the job
        // (which has already failed its request).
        let panicked = catch_unwind(AssertUnwindSafe(run)).is_err();
        let mut st = shared.st();
        check_yield!("pool.worker.settle");
        // relaxed-ok: under the state lock; see the pickup note.
        if watch.gen.load(Ordering::Relaxed) != my_gen {
            // The watchdog declared this worker stalled while the job ran:
            // it already settled the job, ran the stall handler, and
            // handed the slot (heartbeat included) to a replacement. Exit
            // without touching anything.
            return;
        }
        // relaxed-ok: under the state lock; see the pickup note.
        watch.busy_since_ms.store(0, Ordering::Relaxed);
        *watch.handler() = None;
        if panicked {
            // relaxed-ok: monotone counter; stats reads need no ordering.
            shared.panics.fetch_add(1, Ordering::Relaxed);
            shared.health.note_panic();
        }
        // relaxed-ok: monotone counter; stats reads need no ordering.
        shared.jobs_run.fetch_add(1, Ordering::Relaxed);
        st.active -= 1;
        drop(st);
        shared.source.job_settled();
        shared.progress.notify_all();
    }
}

/// The supervisor: scans heartbeats, abandons + respawns stalled workers,
/// and exits once the pool is shut down with no job running.
fn watchdog_loop(shared: &Arc<Shared>, cfg: WatchdogConfig) {
    let stall_ms = cfg.stall_timeout.as_millis().max(1) as u64;
    loop {
        let mut handlers: Vec<Thunk> = Vec::new();
        {
            let mut st = shared.st();
            if st.shutdown && st.active == 0 {
                return;
            }
            let now = shared.now_ms();
            for (i, watch) in shared.watches.iter().enumerate() {
                // relaxed-ok: under the state lock; see `worker_loop`.
                let busy = watch.busy_since_ms.load(Ordering::Relaxed);
                if busy == 0 || now.saturating_sub(busy) < stall_ms {
                    continue;
                }
                check_yield!("pool.watchdog.claim");
                // Stalled: retire this worker's generation. The wedged
                // thread will see the bump when (if ever) its job returns
                // and exit without double-accounting.
                // relaxed-ok: under the state lock; see `worker_loop`.
                let next_gen = watch.gen.load(Ordering::Relaxed) + 1;
                // relaxed-ok: under the state lock; see `worker_loop`.
                watch.gen.store(next_gen, Ordering::Relaxed);
                // relaxed-ok: under the state lock; see `worker_loop`.
                watch.busy_since_ms.store(0, Ordering::Relaxed);
                st.active -= 1;
                // relaxed-ok: monotone counters; see `worker_loop`.
                shared.jobs_run.fetch_add(1, Ordering::Relaxed);
                // relaxed-ok: monotone counters; see `worker_loop`.
                shared.stalled.fetch_add(1, Ordering::Relaxed);
                // panic-ok: a busy slot always parked its job's handler
                // at pickup, and only this branch takes it.
                handlers.push(watch.handler().take().expect("busy slot has a handler"));
                // Respawn on the same slot; dropping the old handle
                // detaches the wedged thread.
                let replacement = spawn_worker(shared, i, next_gen);
                shared.thread_table()[i] = Some(replacement);
                check_yield!("pool.watchdog.respawn");
                // relaxed-ok: monotone counter; see `worker_loop`.
                shared.respawned.fetch_add(1, Ordering::Relaxed);
            }
            if handlers.is_empty() {
                // Nothing stalled: park until progress or the next scan.
                let (guard, _timeout) = shared
                    .progress
                    .wait_timeout(st, cfg.poll_interval)
                    .expect("pool lock"); // panic-ok: see `Shared::st`
                drop(guard);
                continue;
            }
        }
        // Handlers run outside every lock (they complete request handles,
        // which take handle locks of their own).
        for h in handlers {
            h();
            shared.source.job_settled();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Test-only counter bump, keeping the ordering annotation in one
    /// place.
    fn bump(c: &AtomicUsize) {
        // seqcst-ok: cross-thread test counter; SeqCst keeps the
        // assertions free of ordering caveats at test-only cost.
        c.fetch_add(1, Ordering::SeqCst);
    }

    /// Test-only counter read; see [`bump`].
    fn get(c: &AtomicUsize) -> usize {
        // seqcst-ok: pairs with `bump`.
        c.load(Ordering::SeqCst)
    }

    /// A FIFO source: jobs pushed up front, `None` once closed and empty,
    /// with `wait_idle` over the jobs handed out but not yet settled.
    #[derive(Default)]
    struct Fifo {
        state: std::sync::Mutex<(VecDeque<Job>, usize, bool)>,
        cv: std::sync::Condvar,
        refused_degraded: AtomicUsize,
    }

    impl Fifo {
        fn push(&self, job: Job) {
            self.state.lock().unwrap().0.push_back(job);
            self.cv.notify_all();
        }

        fn close(&self) {
            self.state.lock().unwrap().2 = true;
            self.cv.notify_all();
        }

        fn wait_idle(&self) {
            let mut st = self.state.lock().unwrap();
            while !st.0.is_empty() || st.1 > 0 {
                st = self.cv.wait(st).unwrap();
            }
        }
    }

    impl JobSource for Fifo {
        fn next_job(&self, health: &Health) -> Option<Job> {
            let mut st = self.state.lock().unwrap();
            loop {
                if let Some(job) = st.0.pop_front() {
                    if health.is_degraded() {
                        bump(&self.refused_degraded);
                        self.cv.notify_all();
                        continue;
                    }
                    st.1 += 1;
                    return Some(job);
                }
                if st.2 {
                    return None;
                }
                st = self.cv.wait(st).unwrap();
            }
        }

        fn job_settled(&self) {
            self.state.lock().unwrap().1 -= 1;
            self.cv.notify_all();
        }
    }

    fn pool(
        workers: usize,
        watchdog: Option<WatchdogConfig>,
        panic_budget: Option<PanicBudget>,
    ) -> (ServeEngine, Arc<Fifo>) {
        let source = Arc::new(Fifo::default());
        let config = EngineConfig {
            workers,
            chunk_samples: 64,
            watchdog,
            panic_budget,
        };
        (ServeEngine::new(config, source.clone()), source)
    }

    fn job(run: impl FnOnce() + Send + 'static) -> Job {
        Job::new(run, || {})
    }

    fn counting_job(counter: &Arc<AtomicUsize>) -> Job {
        let counter = Arc::clone(counter);
        job(move || {
            std::thread::sleep(Duration::from_micros(200));
            bump(&counter);
        })
    }

    #[test]
    fn workers_drain_the_source_then_exit() {
        let (pool, source) = pool(3, None, None);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..40 {
            source.push(counting_job(&counter));
        }
        source.wait_idle();
        assert_eq!(get(&counter), 40);
        assert_eq!(pool.stats().jobs_run, 40);
        assert_eq!(pool.stats().panics, 0);
        // Closed and drained: every worker exits and the join returns.
        source.push(counting_job(&counter));
        source.close();
        assert_eq!(pool.workers(), 3);
        drop(pool);
        assert_eq!(get(&counter), 41);
    }

    #[test]
    fn config_clamps_zero_workers_and_zero_chunk_samples_to_one() {
        let source = Arc::new(Fifo::default());
        let config = EngineConfig {
            workers: 0,
            chunk_samples: 0,
            watchdog: None,
            panic_budget: None,
        };
        let pool = ServeEngine::new(config, source.clone());
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.stats().workers, 1);
        assert_eq!(pool.chunk_samples(), 1);
        let counter = Arc::new(AtomicUsize::new(0));
        source.push(counting_job(&counter));
        source.wait_idle();
        assert_eq!(get(&counter), 1);
        source.close();
    }

    #[test]
    fn worker_busy_ms_reports_the_running_job_then_idles() {
        let (pool, source) = pool(2, None, None);
        assert_eq!(pool.worker_busy_ms(), vec![0, 0]);
        let (started_tx, started_rx) = std::sync::mpsc::sync_channel(1);
        let (release_tx, release_rx) = std::sync::mpsc::sync_channel::<()>(1);
        source.push(job(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        }));
        started_rx.recv().unwrap();
        std::thread::sleep(Duration::from_millis(5));
        let busy = pool.worker_busy_ms();
        assert_eq!(busy.iter().filter(|&&ms| ms > 0).count(), 1, "{busy:?}");
        release_tx.send(()).unwrap();
        source.wait_idle();
        assert_eq!(pool.worker_busy_ms(), vec![0, 0]);
        source.close();
    }

    #[test]
    fn panicking_job_leaves_pool_serviceable() {
        let (pool, source) = pool(1, None, None);
        source.push(job(|| panic!("job blows up")));
        let counter = Arc::new(AtomicUsize::new(0));
        source.push(counting_job(&counter));
        source.wait_idle();
        assert_eq!(get(&counter), 1);
        let stats = pool.stats();
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.jobs_run, 2);
        source.close();
    }

    #[test]
    fn watchdog_respawns_stalled_worker_and_runs_stall_handler() {
        let (pool, source) = pool(
            1,
            Some(WatchdogConfig {
                stall_timeout: Duration::from_millis(50),
                poll_interval: Duration::from_millis(10),
            }),
            None,
        );
        let stalled_seen = Arc::new(AtomicUsize::new(0));
        {
            let stalled_seen = Arc::clone(&stalled_seen);
            source.push(Job::new(
                // Wedge the only worker well past the stall threshold.
                || std::thread::sleep(Duration::from_millis(400)),
                move || bump(&stalled_seen),
            ));
        }
        // A job queued behind the wedge: the respawned worker must run it.
        let counter = Arc::new(AtomicUsize::new(0));
        source.push(counting_job(&counter));
        // Both jobs settle: the wedged one through the watchdog.
        source.wait_idle();
        assert_eq!(get(&counter), 1);
        assert_eq!(get(&stalled_seen), 1);
        let stats = pool.stats();
        assert_eq!(stats.stalled, 1);
        assert_eq!(stats.respawned, 1);
        assert_eq!(stats.jobs_run, 2);
        // Let the wedged thread finish and confirm no double count.
        std::thread::sleep(Duration::from_millis(450));
        assert_eq!(pool.stats().jobs_run, 2);
        source.close();
    }

    #[test]
    fn panic_budget_flips_degraded() {
        let (pool, source) = pool(
            1,
            None,
            Some(PanicBudget {
                max_panics: 2,
                window: Duration::from_secs(30),
            }),
        );
        for _ in 0..2 {
            source.push(job(|| panic!("boom")));
        }
        source.wait_idle();
        assert!(!pool.is_degraded(), "within budget");
        source.push(job(|| panic!("boom")));
        source.wait_idle();
        assert!(pool.is_degraded(), "third panic exceeds max_panics = 2");
        assert!(pool.stats().degraded);
        // The source is asked with the live health: it refuses new work.
        let counter = Arc::new(AtomicUsize::new(0));
        source.push(counting_job(&counter));
        source.wait_idle();
        assert_eq!(get(&counter), 0);
        assert_eq!(get(&source.refused_degraded), 1);
        pool.reset_degraded();
        assert!(!pool.is_degraded());
        source.push(counting_job(&counter));
        source.wait_idle();
        assert_eq!(get(&counter), 1);
        source.close();
    }
}
