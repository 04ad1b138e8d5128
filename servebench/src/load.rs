//! The three workloads and the loopback client that drives them.
//!
//! Requests are built and checked with the public `dp_net::wire`
//! functions on a raw `TcpStream`, so the client keeps several requests
//! in flight on one connection and timestamps each frame itself.

use crate::models::{Reference, Served};
use crate::stats::Rng;
use dp_net::wire::{
    check_frame_len, decode_response, encode_request, InferenceRequest, Request, Response,
    ResponseBody, LEN_PREFIX_BYTES,
};
use dp_net::{WireStatus, DEFAULT_MAX_FRAME_BYTES};
use std::collections::VecDeque;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Arrival rate of the short requests in `mixed_hol_open`.
pub const MIXED_SHORT_RATE: f64 = 1000.0;
/// Samples per mushroom request.
pub const BATCH_SAMPLES: usize = 256;
/// How long a client waits for any one response before giving up on the
/// connection; unanswered requests count as failed.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(20);
/// Sleep until this long before a request is due, then yield until due:
/// sleeping overshoots by tens of microseconds, yielding does not.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(100);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IrisSingleClosed,
    MushroomBatchClosed,
    MixedHolOpen,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::IrisSingleClosed,
        Workload::MushroomBatchClosed,
        Workload::MixedHolOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IrisSingleClosed => "iris_single_closed",
            Workload::MushroomBatchClosed => "mushroom_batch_closed",
            Workload::MixedHolOpen => "mixed_hol_open",
        }
    }

    /// Generous requests per second for reserving the client's records up
    /// front (a 2-CPU machine serves about 30k, 700 and 1.5k); a faster
    /// machine only makes the records grow.
    pub fn max_rate(self) -> f64 {
        match self {
            Workload::IrisSingleClosed => 40_000.0,
            Workload::MushroomBatchClosed => 2_000.0,
            Workload::MixedHolOpen => MIXED_SHORT_RATE + 2_000.0,
        }
    }

    /// Runs the workload against `addr` for `window` and records every
    /// request in an `R`. `phase` separates the request streams of
    /// successive runs in one process (warm-up, A/B slices) and the id
    /// ranges they use.
    pub fn drive<R: Record>(
        self,
        addr: SocketAddr,
        ctx: &Ctx,
        seed: u64,
        phase: u64,
        window: Duration,
    ) -> io::Result<R> {
        // Id 0 is the connection probe's; runs in one process never share ids.
        let ids = (phase + 1) << 40;
        let new = || R::with_capacity((self.max_rate() * window.as_secs_f64() * 1.5) as usize);
        let gen = |model: usize, variants: &[usize], stream: u64| {
            SpecGen::new(ctx, model, variants, Rng::new(seed, (phase << 8) | stream))
        };
        let iris_all = [0, 1, 2];
        let mushroom_all = [0, 1, 2, 3];
        match self {
            Workload::IrisSingleClosed => {
                let conn = Conn::open(addr, ctx)?;
                let gen = Pace::Free(gen(0, &iris_all, 1));
                Ok(conn.closed_loop(ctx, gen, closed_depth(), Instant::now(), window, ids, new()))
            }
            Workload::MushroomBatchClosed => {
                let conn = Conn::open(addr, ctx)?;
                let gen = Pace::Free(gen(1, &mushroom_all, 1));
                Ok(conn.closed_loop(ctx, gen, closed_depth(), Instant::now(), window, ids, new()))
            }
            Workload::MixedHolOpen => {
                let short = Conn::open(addr, ctx)?;
                let bulk = Conn::open(addr, ctx)?;
                let mut short_gen = gen(0, &iris_all, 1);
                let mut arrivals = Rng::new(seed, (phase << 8) | 2);
                let plan = poisson_plan(&mut short_gen, &mut arrivals, MIXED_SHORT_RATE, window);
                let bulk_gen = gen(1, &[0], 3);
                let t0 = Instant::now();
                Ok(std::thread::scope(|s| {
                    let bulk = s.spawn(|| {
                        let (gen, bulk_ids) = (Pace::Free(bulk_gen), ids | 1 << 32);
                        bulk.closed_loop(ctx, gen, mixed_bulk_depth(), t0, window, bulk_ids, new())
                    });
                    let mut all =
                        short.closed_loop(ctx, Pace::Planned(plan), 1, t0, window, ids, new());
                    all.merge(bulk.join().expect("bulk client thread does not panic"));
                    all
                }))
            }
        }
    }
}

/// What the clients share: the served models and their reference answers.
pub struct Ctx<'a> {
    pub served: &'a Served,
    pub refs: &'a [Vec<Reference>; 2],
}

/// One request's contents: `samples` consecutive test inputs (wrapping)
/// from `first`, for one model variant. Iris requests classify, mushroom
/// requests run forward and return output bit patterns.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Index into `Served::sets()`.
    pub model: usize,
    pub variant: usize,
    pub first: usize,
    pub samples: usize,
}

impl Spec {
    pub fn inputs(&self, ctx: &Ctx) -> Vec<Vec<f32>> {
        let inputs = &ctx.served.sets()[self.model].inputs;
        (0..self.samples)
            .map(|i| inputs[(self.first + i) % inputs.len()].clone())
            .collect()
    }

    pub fn request(&self, ctx: &Ctx, id: u64) -> Request {
        let set = ctx.served.sets()[self.model];
        let body = InferenceRequest {
            id,
            model: set.name.to_string(),
            format: set.variants[self.variant].format.clone(),
            deadline_ms: 0,
            xs: self.inputs(ctx),
        };
        if self.model == 0 {
            Request::Classify(body)
        } else {
            Request::Forward(body)
        }
    }

    /// The response the reference answers predict.
    pub fn expected(&self, ctx: &Ctx) -> ResponseBody {
        let reference = &ctx.refs[self.model][self.variant];
        let n = reference.classes.len();
        let rows = (0..self.samples).map(|i| (self.first + i) % n);
        if self.model == 0 {
            ResponseBody::ClassifyOk(rows.map(|r| reference.classes[r] as u32).collect())
        } else {
            ResponseBody::ForwardOk(rows.map(|r| reference.bits[r].clone()).collect())
        }
    }

    /// Checks a response bit for bit against the reference answers.
    pub fn check(&self, ctx: &Ctx, id: u64, resp: &Response) -> Verdict {
        match &resp.body {
            ResponseBody::Rejected { status, .. } => Verdict::Refused(*status),
            body if resp.id == id && *body == self.expected(ctx) => Verdict::Correct,
            _ => Verdict::Mismatch,
        }
    }
}

/// Seeded request contents for one client: variants rotate round-robin
/// from a seeded start, inputs start at a seeded test index.
pub struct SpecGen {
    model: usize,
    variants: Vec<usize>,
    turn: usize,
    inputs: usize,
    samples: usize,
    rng: Rng,
}

impl SpecGen {
    pub fn new(ctx: &Ctx, model: usize, variants: &[usize], mut rng: Rng) -> Self {
        SpecGen {
            model,
            variants: variants.to_vec(),
            turn: rng.below(variants.len()),
            inputs: ctx.served.sets()[model].inputs.len(),
            samples: if model == 0 { 1 } else { BATCH_SAMPLES },
            rng,
        }
    }

    pub fn next(&mut self) -> Spec {
        let variant = self.variants[self.turn % self.variants.len()];
        self.turn += 1;
        Spec {
            model: self.model,
            variant,
            first: self.rng.below(self.inputs),
            samples: self.samples,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `Ok` status and bit-identical to the reference.
    Correct,
    /// `Ok` status (or a malformed answer) that differs from the reference.
    Mismatch,
    /// A non-`Ok` wire status.
    Refused(WireStatus),
}

/// One attempted request, as the client saw it. Instants are on the
/// client's clock; the traced run maps them onto the recorder's.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub id: u64,
    pub spec: Spec,
    /// When the client was free to send it: its scheduled arrival, or the
    /// previous response when only one request may be outstanding and
    /// that came later. Unscheduled closed loops are always ready.
    pub ready: Instant,
    /// Before the request was encoded; its latency counts from here. A
    /// client that waits for its own responses wakes late by up to a
    /// scheduler slice when the workers saturate the CPUs, so counting
    /// from the schedule would measure that lag instead of the server.
    pub start: Instant,
    /// After its frame was written.
    pub sent: Instant,
    /// After its response was decoded; `None` if none arrived.
    pub done: Option<Instant>,
    pub verdict: Option<Verdict>,
    pub request_bytes: usize,
    pub response_bytes: usize,
}

impl Outcome {
    pub fn latency(&self) -> Option<Duration> {
        self.done.map(|d| d - self.start)
    }

    /// How late the generator sent the request.
    pub fn gen_lag(&self) -> Duration {
        self.start - self.ready
    }

    pub fn is_correct(&self) -> bool {
        self.verdict == Some(Verdict::Correct)
    }
}

/// Where a client puts each request once it is answered or given up on.
pub trait Record: Send {
    /// An empty record with room for about `requests` requests.
    fn with_capacity(requests: usize) -> Self;
    fn record(&mut self, o: Outcome);
    /// Adds what another client recorded.
    fn merge(&mut self, other: Self);
}

impl Record for Vec<Outcome> {
    fn with_capacity(requests: usize) -> Self {
        Vec::with_capacity(requests)
    }

    fn record(&mut self, o: Outcome) {
        self.push(o);
    }

    fn merge(&mut self, other: Self) {
        self.extend(other);
    }
}

/// Poisson arrival offsets from the start of the window, with the
/// request each one sends.
fn poisson_plan(
    gen: &mut SpecGen,
    arrivals: &mut Rng,
    rate: f64,
    window: Duration,
) -> Vec<(Duration, Spec)> {
    let mut plan = Vec::with_capacity((rate * window.as_secs_f64() * 1.1) as usize);
    let mut at = arrivals.exp_gap(rate);
    while at < window {
        plan.push((at, gen.next()));
        at += arrivals.exp_gap(rate);
    }
    plan
}

/// Sleeps until shortly before `due`, then yields until it.
fn pace_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN_BEFORE_DUE {
            std::thread::sleep(left - SPIN_BEFORE_DUE);
        } else {
            std::thread::yield_now();
        }
    }
}

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Reads one response frame; returns it with its size on the wire.
fn read_frame(r: &mut impl Read) -> io::Result<(Response, usize)> {
    let mut hdr = [0u8; LEN_PREFIX_BYTES];
    r.read_exact(&mut hdr)?;
    let len = check_frame_len(u32::from_le_bytes(hdr), DEFAULT_MAX_FRAME_BYTES).map_err(invalid)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let resp = decode_response(&payload).map_err(invalid)?;
    Ok((resp, LEN_PREFIX_BYTES + len))
}

/// Requests an unscheduled closed loop keeps outstanding: one per CPU,
/// as the gateway's default pool has one worker per CPU, so the pool stays
/// busy.
pub fn closed_depth() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Bulk requests `mixed_hol_open` keeps outstanding: three per CPU, so
/// bulk work always waits for the engine. Short requests either wait
/// behind bulk chunks or not, and a percentile near the share that waits
/// swings from run to run. On a 2-CPU machine about one in ten short
/// requests waited with one bulk request outstanding, half with two and
/// a third with six; short p90, p50 and neither sat on the boundary.
pub fn mixed_bulk_depth() -> usize {
    3 * closed_depth()
}

/// How a closed loop spaces its requests.
enum Pace {
    /// Send as soon as a slot is free.
    Free(SpecGen),
    /// Send each request at its planned arrival, or when a slot frees if
    /// that is later.
    Planned(Vec<(Duration, Spec)>),
}

/// One client connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects and completes one checked round trip, so the server has
    /// accepted the connection before anything is timed.
    fn open(addr: SocketAddr, ctx: &Ctx) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let read_half = writer.try_clone()?;
        read_half.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        let mut conn = Conn {
            writer,
            reader: BufReader::new(read_half),
        };
        let probe = Spec {
            model: 0,
            variant: 0,
            first: 0,
            samples: 1,
        };
        conn.writer
            .write_all(&encode_request(&probe.request(ctx, 0)))?;
        let (resp, _) = read_frame(&mut conn.reader)?;
        match probe.check(ctx, 0, &resp) {
            Verdict::Correct => Ok(conn),
            other => Err(invalid(format!("connection probe answered {other:?}"))),
        }
    }

    /// Keeps up to `depth` requests outstanding until `window` has passed
    /// since `t0`, then collects the responses still in flight. A request
    /// whose frame cannot be written or read ends the loop; it and those
    /// still in flight are recorded unanswered.
    #[allow(clippy::too_many_arguments)]
    fn closed_loop<R: Record>(
        mut self,
        ctx: &Ctx,
        mut pace: Pace,
        depth: usize,
        t0: Instant,
        window: Duration,
        ids: u64,
        mut out: R,
    ) -> R {
        let end = t0 + window;
        let mut inflight: VecDeque<Outcome> = VecDeque::with_capacity(depth);
        let mut free_at = t0;
        let mut sent = 0;
        loop {
            while inflight.len() < depth {
                let (due, spec) = match &mut pace {
                    Pace::Free(gen) => (Instant::now(), gen.next()),
                    Pace::Planned(plan) => match plan.get(sent) {
                        Some((at, spec)) => (t0 + *at, *spec),
                        None => break,
                    },
                };
                if due >= end {
                    break;
                }
                let ready = due.max(free_at);
                pace_until(ready);
                let start = Instant::now();
                let ready = match pace {
                    Pace::Free(_) => start,
                    Pace::Planned(_) => ready,
                };
                let id = ids + sent as u64;
                sent += 1;
                let frame = encode_request(&spec.request(ctx, id));
                let written = self.writer.write_all(&frame);
                inflight.push_back(Outcome {
                    id,
                    spec,
                    ready,
                    start,
                    sent: Instant::now(),
                    done: None,
                    verdict: None,
                    request_bytes: frame.len(),
                    response_bytes: 0,
                });
                if written.is_err() {
                    inflight.into_iter().for_each(|o| out.record(o));
                    return out;
                }
            }
            let Some(mut o) = inflight.pop_front() else {
                return out;
            };
            let Ok((resp, bytes)) = read_frame(&mut self.reader) else {
                std::iter::once(o)
                    .chain(inflight)
                    .for_each(|o| out.record(o));
                return out;
            };
            let done = Instant::now();
            free_at = done;
            o.verdict = Some(o.spec.check(ctx, o.id, &resp));
            o.done = Some(done);
            o.response_bytes = bytes;
            out.record(o);
        }
    }
}
