//! The bounded multi-producer submission ring: the only queue between
//! admission and the engine's workers.
//!
//! Any number of producer threads push admitted requests; the workers
//! take from the ring directly. The ring holds **unstarted** requests
//! only. A worker that pops one starts it (or discards it: expired,
//! cancelled, degraded, or past the drain deadline) and, if it has more
//! than one chunk, keeps it *running* with a chunk cursor, from which
//! idle workers claim its next chunks. Leaving the ring is the one event
//! that "dispatched" means.
//!
//! Entries belong to *lanes* (in the gateway, one per logical model) and
//! takes share the workers fairly between lanes by cost — in the
//! gateway, samples (start-time fair queuing). Each entry is tagged on
//! push with the virtual time at which its lane may start it: the later
//! of its lane's previous entry's finish (start tag + cost) and the tag
//! served last. Chunk `i` of `n` of a running entry tagged `t` is tagged
//! `t + cost · i / n`. A take serves the smallest tag — a running chunk
//! first on ties, then the oldest entry. Within a lane tags rise with
//! admission order, so a lane is request-FIFO, chunk-parallel: a running
//! request's chunks all go out before the lane's next request starts,
//! and a single-lane ring is plain FIFO. Across lanes, one model's
//! backlog of big requests delays another model's small request by
//! about one chunk, not by the whole backlog, and no lane starves.
//!
//! Capacity is fixed at construction — when the ring is full the
//! *caller* decides what gives (reject the newcomer, evict the oldest, or
//! block), which is how the gateway's overload policies stay pluggable:
//! the ring mechanically reports `Full`/returns an evictee and never
//! sheds anything itself. Only unstarted requests can be evicted.
//!
//! The ring also carries the control plane: a `closing` flag (after which
//! takes drain the backlog and then return `None`), a `paused` flag
//! (workers stop popping while producers keep admitting — the
//! deterministic way to build a backlog in tests and benches; the running
//! request's chunks still go out), and an idle condition (nothing queued,
//! running or being started, and every taken chunk settled) that
//! `wait_idle` callers block on.

use crate::check::{self, check_yield, MutexGuard};
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// Outcome of a non-blocking push.
pub(crate) enum TryPush<E> {
    /// Enqueued; ring had room.
    Pushed,
    /// Enqueued after evicting the oldest entry, which is returned to the
    /// caller to shed (`ShedOldest`).
    PushedEvicting(E),
    /// Ring full and eviction not requested; the entry comes back to the
    /// caller (`ShedNewest`, or `Block` on the non-blocking path).
    Full(E),
    /// The ring is closing; nothing was enqueued.
    Closed(E),
}

/// What the ring needs to order an entry (see the [module docs](self)).
pub(crate) trait Queued {
    /// The entry's lane.
    fn lane(&self) -> u64;
    /// The entry's cost (in the gateway, its samples).
    fn cost(&self) -> u64;
}

/// What a worker took from the ring. Every take must be settled with
/// [`SubmissionRing::settle`] once its work is done.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Take<E> {
    /// An unstarted entry left the ring. The taker starts or discards it
    /// and reports which through [`SubmissionRing::started`].
    Start(E),
    /// Chunk `index` of a running entry.
    Chunk(E, usize),
}

/// A started entry whose chunks are still being handed out.
struct Running<E> {
    entry: E,
    /// The entry's start tag.
    tag: u64,
    next: usize,
    chunks: usize,
}

impl<E: Queued> Running<E> {
    /// The tag of the next chunk.
    fn next_tag(&self) -> u64 {
        self.tag + self.entry.cost() * self.next as u64 / self.chunks as u64
    }
}

struct RingState<E> {
    /// Unstarted entries with their start tags, oldest first.
    queue: VecDeque<(u64, E)>,
    /// Virtual time: the tag served last.
    vtime: u64,
    /// Each lane's finish tag (its newest entry's start tag + cost), for
    /// lanes whose finish is still ahead of `vtime`.
    lane_finish: HashMap<u64, u64>,
    running: Vec<Running<E>>,
    /// The start tag of the entry a worker popped and has not reported
    /// [`SubmissionRing::started`] for yet. Other takes wait meanwhile,
    /// so chunks go out in tag order.
    starting: Option<u64>,
    /// Takes not yet settled.
    in_flight: usize,
    closing: bool,
    /// When `close` was first called — the drain deadline is measured
    /// from this instant.
    closed_at: Option<Instant>,
    paused: bool,
}

impl<E: Clone + Queued> RingState<E> {
    fn is_idle(&self) -> bool {
        self.queue.is_empty()
            && self.running.is_empty()
            && self.starting.is_none()
            && self.in_flight == 0
    }

    /// Queues `entry` with its start tag.
    fn push(&mut self, entry: E) {
        let finish = self.lane_finish.entry(entry.lane()).or_insert(0);
        let tag = (*finish).max(self.vtime);
        *finish = tag + entry.cost();
        self.queue.push_back((tag, entry));
    }

    /// The next take, smallest tag first: a running chunk on ties, then
    /// the oldest queued entry (queued entries only while not paused, or
    /// once closing).
    fn next_take(&mut self) -> Option<Take<E>> {
        let chunk = self
            .running
            .iter()
            .enumerate()
            .map(|(i, r)| (r.next_tag(), i))
            .min();
        let queued = if !self.paused || self.closing {
            self.queue
                .iter()
                .enumerate()
                .map(|(i, &(tag, _))| (tag, i))
                .min()
        } else {
            None
        };
        let take = match (chunk, queued) {
            (Some((tag, i)), None) => self.claim(tag, i),
            (Some((tag, i)), Some((q, _))) if tag <= q => self.claim(tag, i),
            (_, Some((tag, i))) => {
                let (_, entry) = self.queue.remove(i)?;
                self.vtime = tag;
                self.starting = Some(tag);
                Take::Start(entry)
            }
            (None, None) => return None,
        };
        // A lane whose finish is behind virtual time tags its next entry
        // with `vtime` anyway; forget it.
        let vtime = self.vtime;
        self.lane_finish.retain(|_, finish| *finish > vtime);
        Some(take)
    }

    /// Claims the next chunk (tagged `tag`) of running entry `i`.
    fn claim(&mut self, tag: u64, i: usize) -> Take<E> {
        self.vtime = tag;
        let run = &mut self.running[i];
        let index = run.next;
        run.next += 1;
        let entry = if run.next < run.chunks {
            run.entry.clone()
        } else {
            self.running.remove(i).entry
        };
        Take::Chunk(entry, index)
    }
}

pub(crate) struct SubmissionRing<E> {
    capacity: usize,
    state: check::Mutex<RingState<E>>,
    /// Wakes workers: work arrived, a start finished, pause flipped, or
    /// closing.
    work: check::Condvar,
    /// Wakes producers blocked on space and idle-waiters: an entry left
    /// the queue, the ring went idle, or closing.
    space: check::Condvar,
}

impl<E: Clone + Queued> SubmissionRing<E> {
    pub(crate) fn new(capacity: usize) -> Self {
        SubmissionRing {
            capacity: capacity.max(1),
            state: check::mutex(
                "gateway.ring",
                RingState {
                    queue: VecDeque::with_capacity(capacity.max(1)),
                    running: Vec::new(),
                    starting: None,
                    in_flight: 0,
                    vtime: 0,
                    lane_finish: HashMap::new(),
                    closing: false,
                    closed_at: None,
                    paused: false,
                },
            ),
            work: check::condvar(),
            space: check::condvar(),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// The ring lock.
    fn st(&self) -> MutexGuard<'_, RingState<E>> {
        // panic-ok: the ring lock is only poisoned if a holder panicked
        // inside a critical section; every section here is VecDeque/flag
        // manipulation that cannot panic, so poisoning means the state is
        // already untrustworthy and serving from it would be worse.
        self.state.lock().expect("ring lock")
    }

    /// Unstarted entries waiting in the ring.
    pub(crate) fn len(&self) -> usize {
        self.st().queue.len()
    }

    /// Non-blocking push. With `evict_oldest`, a full ring makes room by
    /// handing the oldest entry (in admission order) back for the caller
    /// to shed.
    pub(crate) fn try_push(&self, entry: E, evict_oldest: bool) -> TryPush<E> {
        check_yield!("ring.try_push");
        let mut st = self.st();
        if st.closing {
            return TryPush::Closed(entry);
        }
        if st.queue.len() >= self.capacity {
            if !evict_oldest {
                return TryPush::Full(entry);
            }
            check_yield!("ring.evict");
            // panic-ok: the full branch guarantees `queue.len() >= capacity
            // >= 1`, so the queue cannot be empty here.
            let (_, oldest) = st.queue.pop_front().expect("capacity >= 1, queue full");
            st.push(entry);
            drop(st);
            self.work.notify_one();
            return TryPush::PushedEvicting(oldest);
        }
        st.push(entry);
        drop(st);
        self.work.notify_one();
        TryPush::Pushed
    }

    /// Blocking push (`Block` policy): waits for space instead of
    /// shedding. Returns the entry if the ring closed while waiting.
    pub(crate) fn push_blocking(&self, entry: E) -> Result<(), E> {
        check_yield!("ring.push_blocking");
        let mut st = self.st();
        loop {
            if st.closing {
                return Err(entry);
            }
            if st.queue.len() < self.capacity {
                st.push(entry);
                drop(st);
                self.work.notify_one();
                return Ok(());
            }
            st = self.space.wait(st).expect("ring lock"); // panic-ok: see `SubmissionRing::st`
        }
    }

    /// Worker side: blocks for the next take (see the
    /// [module docs](self)). Returns `None` only once the ring is closing
    /// **and** nothing is queued, running or being started, so shutdown
    /// never strands an admitted request.
    pub(crate) fn take(&self) -> Option<Take<E>> {
        check_yield!("ring.pop");
        let mut st = self.st();
        loop {
            if st.starting.is_none() {
                if let Some(take) = st.next_take() {
                    st.in_flight += 1;
                    drop(st);
                    if matches!(take, Take::Start(_)) {
                        // Space freed: wake blocked producers.
                        self.space.notify_all();
                    }
                    return Some(take);
                }
                if st.closing && st.queue.is_empty() && st.running.is_empty() {
                    return None;
                }
            }
            st = self.work.wait(st).expect("ring lock"); // panic-ok: see `SubmissionRing::st`
        }
    }

    /// Ends a [`Take::Start`]: `Some((entry, chunks))` when the entry
    /// started — the taker runs chunk 0 under its own take, and chunks
    /// `1..chunks` go out through [`SubmissionRing::take`] — or `None`
    /// when it was discarded.
    pub(crate) fn started(&self, started: Option<(E, usize)>) {
        check_yield!("ring.started");
        let mut st = self.st();
        let tag = st.starting.take().unwrap_or(st.vtime);
        if let Some((entry, chunks)) = started.filter(|(_, chunks)| *chunks > 1) {
            st.running.push(Running {
                entry,
                tag,
                next: 1,
                chunks,
            });
        }
        // Takes may have waited out the start: wake them when there is
        // something to take or the ring is closing (they may exit).
        let wake = !st.running.is_empty() || st.closing || (!st.queue.is_empty() && !st.paused);
        drop(st);
        if wake {
            self.work.notify_all();
        }
    }

    /// Settles one take: its chunk finished (or its start was discarded).
    pub(crate) fn settle(&self) {
        check_yield!("ring.dispatch_done");
        let mut st = self.st();
        st.in_flight -= 1;
        let idle = st.is_idle();
        drop(st);
        if idle {
            self.space.notify_all();
        }
    }

    /// Blocks until the ring is idle: nothing queued, running or being
    /// started, and every take settled.
    pub(crate) fn wait_idle(&self) {
        let mut st = self.st();
        while !st.is_idle() {
            st = self.space.wait(st).expect("ring lock"); // panic-ok: see `SubmissionRing::st`
        }
    }

    /// Stops workers popping (admission continues — the backlog grows).
    pub(crate) fn pause(&self) {
        self.st().paused = true;
    }

    /// Resumes popping.
    pub(crate) fn resume(&self) {
        let mut st = self.st();
        st.paused = false;
        drop(st);
        self.work.notify_all();
    }

    /// Begins shutdown: rejects new pushes, lets the workers drain the
    /// backlog, wakes every blocked producer and waiter.
    pub(crate) fn close(&self) {
        check_yield!("ring.close");
        let mut st = self.st();
        st.closing = true;
        if st.closed_at.is_none() {
            // clock-ok: drain-deadline anchor — shutdown must be bounded
            // in wall time even under a virtualized trace clock.
            st.closed_at = Some(Instant::now());
        }
        drop(st);
        self.work.notify_all();
        self.space.notify_all();
    }

    /// The instant shutdown began, if [`SubmissionRing::close`] has been
    /// called. Workers bound the backlog drain against this.
    pub(crate) fn closing_since(&self) -> Option<Instant> {
        self.st().closed_at
    }
}

/// Seeded PCT interleave tests (compiled only with `--features
/// check-yield`): the conservation law behind the gateway's metrics —
/// every admitted entry has exactly one fate, and every chunk of a
/// started entry goes out exactly once — checked across ≥1000 schedules
/// per seed with real producer/worker thread bodies.
#[cfg(all(test, feature = "check-yield"))]
mod interleave_tests {
    use super::*;
    use dp_check::sched::explore;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn bump_by(c: &AtomicUsize, n: usize) {
        // relaxed-ok: per-run test tally, read only after the schedule
        // has joined every thread.
        c.fetch_add(n, Ordering::Relaxed);
    }

    fn bump(c: &AtomicUsize) {
        bump_by(c, 1);
    }

    fn get(c: &AtomicUsize) -> usize {
        // relaxed-ok: see `bump_by` — the run's threads are already joined.
        c.load(Ordering::Relaxed)
    }

    /// Entry `e` starts with `e % 2 + 1` chunks.
    fn chunks(e: u32) -> usize {
        e as usize % 2 + 1
    }

    /// Two producers, each on its own lane, push four entries through a
    /// capacity-2 ring with `ShedOldest` eviction while two workers take;
    /// the last producer out closes the ring. Under every schedule: `started + evicted ==
    /// submitted` (no entry is lost or doubled), every started entry's
    /// chunks go out exactly once, every take is settled (an idle-waiter
    /// returns), and neither `Full` nor `Closed` can occur (eviction
    /// always makes room; close happens only after the final push).
    #[test]
    fn every_entry_has_exactly_one_fate_under_every_schedule() {
        for master in [0x21C6_0001u64, 0x21C6_0002, 0x21C6_0003] {
            let mut audits: Vec<[Arc<AtomicUsize>; 5]> = Vec::new();
            let out = explore(master, 1000, 3, |_| {
                let ring = Arc::new(SubmissionRing::new(2));
                let started = Arc::new(AtomicUsize::new(0));
                let evicted = Arc::new(AtomicUsize::new(0));
                let anomalies = Arc::new(AtomicUsize::new(0));
                // Chunks owed by started entries, and takes settled.
                let owed = Arc::new(AtomicUsize::new(0));
                let settled = Arc::new(AtomicUsize::new(0));
                let live_producers = Arc::new(AtomicUsize::new(2));
                audits.push([
                    Arc::clone(&started),
                    Arc::clone(&evicted),
                    Arc::clone(&anomalies),
                    Arc::clone(&owed),
                    Arc::clone(&settled),
                ]);
                let mut bodies: Vec<Box<dyn FnOnce() + Send>> = (0..2u32)
                    .map(|p| {
                        let ring = Arc::clone(&ring);
                        let evicted = Arc::clone(&evicted);
                        let anomalies = Arc::clone(&anomalies);
                        let live = Arc::clone(&live_producers);
                        Box::new(move || {
                            for i in 0..2u32 {
                                match ring.try_push(p * 100 + i, true) {
                                    TryPush::Pushed => {}
                                    TryPush::PushedEvicting(_) => bump(&evicted),
                                    TryPush::Full(_) | TryPush::Closed(_) => bump(&anomalies),
                                }
                            }
                            // Last producer out begins shutdown, so the
                            // workers' drain loops terminate. AcqRel: the
                            // close must happen-after both push runs.
                            if live.fetch_sub(1, Ordering::AcqRel) == 1 {
                                ring.close();
                            }
                        }) as Box<dyn FnOnce() + Send>
                    })
                    .collect();
                for _ in 0..2 {
                    let ring = Arc::clone(&ring);
                    let started = Arc::clone(&started);
                    let owed = Arc::clone(&owed);
                    let settled = Arc::clone(&settled);
                    bodies.push(Box::new(move || {
                        while let Some(take) = ring.take() {
                            if let Take::Start(e) = take {
                                bump(&started);
                                bump_by(&owed, chunks(e));
                                ring.started(Some((e, chunks(e))));
                            }
                            bump(&settled);
                            ring.settle();
                        }
                    }));
                }
                bodies.push(Box::new(move || ring.wait_idle()));
                bodies
            });
            assert_eq!(out.schedules, 1000);
            assert!(out.findings.is_empty(), "findings: {:?}", out.findings);
            assert!(
                out.distinct_traces >= 10,
                "seed {master:#x}: the seed is not steering the schedule \
                 ({} distinct traces)",
                out.distinct_traces
            );
            let mut eviction_seen = false;
            for (run, [started, evicted, anomalies, owed, settled]) in audits.iter().enumerate() {
                assert_eq!(get(anomalies), 0, "seed {master:#x} run {run}: Full/Closed");
                assert_eq!(
                    get(started) + get(evicted),
                    4,
                    "seed {master:#x} run {run}: conservation broken \
                     (started {}, evicted {})",
                    get(started),
                    get(evicted)
                );
                assert_eq!(
                    get(settled),
                    get(owed),
                    "seed {master:#x} run {run}: chunks lost or doubled"
                );
                eviction_seen |= get(evicted) > 0;
            }
            assert!(
                eviction_seen,
                "seed {master:#x}: no schedule ever filled the ring — the \
                 test is not exercising the eviction path"
            );
        }
    }
}

/// Test entries: `e / 100` is the lane and the cost is `lane + 1`, so
/// small numbers share lane 0 at cost 1.
#[cfg(test)]
impl Queued for u32 {
    fn lane(&self) -> u64 {
        u64::from(*self / 100)
    }

    fn cost(&self) -> u64 {
        self.lane() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    /// Takes the next entry as a one-chunk start and settles it.
    fn pop(ring: &SubmissionRing<u32>) -> Option<u32> {
        match ring.take()? {
            Take::Start(e) => {
                ring.started(Some((e, 1)));
                ring.settle();
                Some(e)
            }
            other => panic!("expected a start, got {other:?}"),
        }
    }

    #[test]
    fn bounded_push_full_and_evict() {
        let ring = SubmissionRing::new(2);
        assert!(matches!(ring.try_push(1, false), TryPush::Pushed));
        assert!(matches!(ring.try_push(2, false), TryPush::Pushed));
        // Full: rejected newcomer comes back.
        assert!(matches!(ring.try_push(3, false), TryPush::Full(3)));
        assert_eq!(ring.len(), 2);
        // Full + evict: oldest (1) comes back, newcomer admitted.
        assert!(matches!(ring.try_push(4, true), TryPush::PushedEvicting(1)));
        assert_eq!(ring.len(), 2);
        assert_eq!(pop(&ring), Some(2));
        assert_eq!(pop(&ring), Some(4));
    }

    #[test]
    fn close_drains_then_stops() {
        let ring = SubmissionRing::new(4);
        assert!(matches!(ring.try_push(1, false), TryPush::Pushed));
        assert!(matches!(ring.try_push(2, false), TryPush::Pushed));
        ring.close();
        assert!(matches!(ring.try_push(3, false), TryPush::Closed(3)));
        // The backlog still drains in order…
        assert_eq!(pop(&ring), Some(1));
        assert_eq!(pop(&ring), Some(2));
        // …then takes return None.
        assert_eq!(ring.take(), None);
    }

    #[test]
    fn running_entry_hands_out_its_chunks_before_the_next_pop() {
        // Lane 2: three chunks per entry.
        let ring = SubmissionRing::new(4);
        assert!(matches!(ring.try_push(201, false), TryPush::Pushed));
        assert!(matches!(ring.try_push(202, false), TryPush::Pushed));
        assert_eq!(ring.take(), Some(Take::Start(201)));
        // Its taker runs chunk 0; the other two go out through takes.
        ring.started(Some((201, 3)));
        assert_eq!(ring.len(), 1, "a started entry has left the ring");
        assert_eq!(ring.take(), Some(Take::Chunk(201, 1)));
        assert_eq!(ring.take(), Some(Take::Chunk(201, 2)));
        // Request-FIFO within a lane: 202 starts after 201's chunks.
        assert_eq!(ring.take(), Some(Take::Start(202)));
        ring.started(None);
        for _ in 0..4 {
            ring.settle();
        }
        ring.close();
        assert_eq!(ring.take(), None);
    }

    #[test]
    fn pops_share_workers_fairly_across_lanes_and_stay_fifo_within_one() {
        let ring = SubmissionRing::new(8);
        // A backlog of three 4-chunk entries in lane 3, then two 1-chunk
        // entries in lane 0.
        for e in [301, 302, 303, 1, 2] {
            assert!(matches!(ring.try_push(e, false), TryPush::Pushed));
        }
        let mut order = Vec::new();
        while ring.len() > 0 {
            order.extend(pop(&ring));
        }
        // Lane 0 waits for the big entry started first, not for the
        // whole backlog; each lane keeps its admission order.
        assert_eq!(order, vec![301, 1, 2, 302, 303]);
        // Eviction still takes the oldest entry in admission order.
        let ring = SubmissionRing::new(2);
        assert!(matches!(ring.try_push(301, false), TryPush::Pushed));
        assert!(matches!(ring.try_push(1, false), TryPush::Pushed));
        assert!(matches!(
            ring.try_push(2, true),
            TryPush::PushedEvicting(301)
        ));
        assert_eq!(pop(&ring), Some(1));
        assert_eq!(pop(&ring), Some(2));
    }

    #[test]
    fn another_lanes_entry_goes_before_a_running_entrys_next_chunks() {
        let ring = SubmissionRing::new(4);
        assert!(matches!(ring.try_push(301, false), TryPush::Pushed));
        assert_eq!(ring.take(), Some(Take::Start(301)));
        ring.started(Some((301, 4)));
        // A one-chunk entry of lane 0 arrives while 301 runs: it waits
        // for no more of 301's chunks than its fair share.
        assert!(matches!(ring.try_push(1, false), TryPush::Pushed));
        assert_eq!(ring.take(), Some(Take::Start(1)));
        ring.started(Some((1, 1)));
        for index in 1..4 {
            assert_eq!(ring.take(), Some(Take::Chunk(301, index)));
        }
        for _ in 0..5 {
            ring.settle();
        }
        ring.close();
        assert_eq!(ring.take(), None);
        ring.wait_idle();
    }

    #[test]
    fn takes_wait_while_an_entry_is_being_started() {
        let ring = Arc::new(SubmissionRing::new(4));
        assert!(matches!(ring.try_push(1, false), TryPush::Pushed));
        assert!(matches!(ring.try_push(2, false), TryPush::Pushed));
        assert_eq!(ring.take(), Some(Take::Start(1)));
        let r2 = Arc::clone(&ring);
        let t = std::thread::spawn(move || r2.take());
        std::thread::sleep(Duration::from_millis(20));
        assert!(!t.is_finished(), "entry 2 must not start before entry 1");
        ring.started(Some((1, 2)));
        assert_eq!(t.join().unwrap(), Some(Take::Chunk(1, 1)));
    }

    #[test]
    fn pause_stalls_dispatch_but_not_admission() {
        let ring = Arc::new(SubmissionRing::new(8));
        ring.pause();
        assert!(matches!(ring.try_push(7, false), TryPush::Pushed));
        let r2 = Arc::clone(&ring);
        let t = std::thread::spawn(move || pop(&r2));
        // The worker is parked on the paused ring; admission still works.
        std::thread::sleep(Duration::from_millis(10));
        assert!(matches!(ring.try_push(8, false), TryPush::Pushed));
        assert_eq!(ring.len(), 2);
        ring.resume();
        assert_eq!(t.join().unwrap(), Some(7));
    }

    #[test]
    fn blocking_push_waits_for_space() {
        let ring = Arc::new(SubmissionRing::new(1));
        assert!(matches!(ring.try_push(1, false), TryPush::Pushed));
        let r2 = Arc::clone(&ring);
        let t = std::thread::spawn(move || r2.push_blocking(2));
        std::thread::sleep(Duration::from_millis(10));
        // Producer is blocked; popping frees space and unblocks it.
        assert_eq!(pop(&ring), Some(1));
        assert!(t.join().unwrap().is_ok());
        assert_eq!(pop(&ring), Some(2));
    }

    #[test]
    fn wait_idle_sees_unsettled_takes() {
        let ring = Arc::new(SubmissionRing::new(4));
        assert!(matches!(ring.try_push(1, false), TryPush::Pushed));
        assert_eq!(ring.take(), Some(Take::Start(1)));
        ring.started(Some((1, 1)));
        // Queue is empty but the chunk is still running: wait_idle blocks.
        let r2 = Arc::clone(&ring);
        let t = std::thread::spawn(move || r2.wait_idle());
        std::thread::sleep(Duration::from_millis(10));
        assert!(!t.is_finished());
        ring.settle();
        t.join().unwrap();
    }
}
