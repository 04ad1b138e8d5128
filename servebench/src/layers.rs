//! The traced run: per-layer metrics, measured from outside each layer.
//!
//! The workload runs in pairs of slices, each pair on a freshly built
//! untraced stack and then a freshly built stack whose gateway records
//! every request's timeline. Client-side spans of the traced slices are
//! joined to the recorder's timelines by wire request id, which the front
//! end passes to the recorder verbatim.
//! Then, with the process idle, the workload's own requests and inputs
//! are replayed single-threaded through each layer's public functions.

use crate::load::{Ctx, Outcome, Spec};
use crate::models::{ModelSet, Reference};
use crate::stack::Stack;
use crate::stats::{mean, median, micros, quantile, time_excess_ns, time_ns};
use crate::{metric, Args, Metric, Report, Summary};
use deep_positron::QuantizedMlp;
use dp_emac::{Emac, EmacUnit};
use dp_gateway::{Gateway, Timeline, TraceConfig};
use dp_net::wire::{decode_request, decode_response, encode_request, encode_response};
use dp_net::{Response, ResponseBody};
use dp_serve::ModelKey;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Untraced-then-traced slice pairs, each pair on two fresh stacks.
const PAIRS: u64 = 3;
/// Load on each stack before its slice.
const WARMUP: Duration = Duration::from_millis(300);
/// Recorder slots per request of the untraced slice before it (warm-up
/// included), so the traced slice keeps every timeline even if it serves
/// half again as many requests.
const SLOTS_PER_UNTRACED_REQUEST: f64 = 1.5;
/// Budget for the in-process gateway replay.
const INPROC_BUDGET: Duration = Duration::from_millis(300);
/// Requests whose spans are written out (about 400 bytes each).
const MAX_SPAN_LINES: usize = 50_000;
/// How often the sampler looks at the ring and the pool.
const SAMPLE_EVERY: Duration = Duration::from_millis(1);

pub fn traced(args: &Args, ctx: &Ctx) -> Result<Report, String> {
    let drive = |stack: &Stack, phase, window| {
        args.workload
            .drive::<Vec<Outcome>>(stack.server.local_addr(), ctx, args.seed, phase, window)
            .map_err(|e| format!("driving {}: {e}", args.workload.name()))
    };
    // The slices, untraced and traced, fill the window.
    let slice_window = args.window / (2 * PAIRS) as u32;
    let (mut untraced_out, mut traced_out) = (Vec::new(), Vec::new());
    // Answered traced requests (by index into `traced_out`), with their
    // recorder timelines and the recorders' epochs.
    let mut timed: Vec<(usize, Timeline, Instant)> = Vec::new();
    let mut errors = Vec::new();
    let mut looks = Looks::default();
    let (mut warmup_mismatched, mut unjoined, mut dropped_contended) = (0, 0, 0);
    // Per pair: traced over untraced cost, and the recorder's slots.
    let (mut ratios, mut slots_used) = (Vec::new(), Vec::new());
    // Per untraced stack: build, register and bind milliseconds.
    let mut setups: Vec<[f64; 3]> = Vec::new();
    let median_of =
        |rows: &[[f64; 3]], i: usize| median(&rows.iter().map(|r| r[i]).collect::<Vec<_>>());
    // The last untraced stack stays up for the replays.
    let mut replay_stack: Option<Stack> = None;
    let mut traced_desc = String::new();
    for pair in 0..PAIRS {
        // Warms `stack` up, then serves a slice; returns the warm-up's
        // request count and the slice's outcomes.
        let mut slice = |stack: &Stack, phase| -> Result<(usize, Vec<Outcome>), String> {
            let warm = drive(stack, phase, WARMUP)?;
            warmup_mismatched += Summary::of(&warm).mismatched;
            let stop = AtomicBool::new(false);
            let outcomes = std::thread::scope(|s| {
                let sampler = s.spawn(|| looks.take(&stack.gateway, &stop));
                let outcomes = drive(stack, phase + 1, slice_window);
                stop.store(true, Ordering::Relaxed);
                sampler.join().expect("sampler thread does not panic");
                outcomes
            })?;
            Ok((warm.len(), outcomes))
        };
        let plain = Stack::up(ctx.served, TraceConfig::off());
        setups.push([plain.build, plain.register, plain.bind].map(|d| d.as_secs_f64() * 1e3));
        let (plain_warm, plain_out) = slice(&plain, 4 * pair)?;
        if let Some(old) = replay_stack.replace(plain) {
            old.down();
        }
        // The recorder is a ring: sized from the traffic just served, it
        // keeps every timeline of the traced slice on any machine.
        let served = plain_warm + plain_out.len();
        let slots = (served as f64 * SLOTS_PER_UNTRACED_REQUEST) as usize;
        let traced = Stack::up(
            ctx.served,
            TraceConfig {
                slots,
                ..TraceConfig::every_request()
            },
        );
        let (_, traced_slice) = slice(&traced, 4 * pair + 2)?;
        let recorder = traced
            .gateway
            .recorder()
            .expect("the traced stack records")
            .clone();
        traced_desc = traced.describe();
        traced.down();
        let mut timelines: HashMap<u64, Timeline> = recorder
            .timelines()
            .into_iter()
            .map(|t| (t.req_id, t))
            .collect();
        dropped_contended += recorder.stats().dropped_contended;
        slots_used.push(slots);
        // Join: every answered traced request must have its timeline.
        for (i, o) in traced_slice.iter().enumerate() {
            match (o.done, timelines.remove(&o.id)) {
                (None, _) => {}
                (Some(_), Some(t)) => {
                    timed.push((traced_out.len() + i, t, recorder.clock().epoch()))
                }
                (Some(_), None) => unjoined += 1,
            }
        }
        let (off, on) = (Summary::of(&plain_out), Summary::of(&traced_slice));
        ratios.push(match args.workload {
            crate::load::Workload::MushroomBatchClosed => {
                off.throughput_sps() / on.throughput_sps()
            }
            _ => median(on.short_us()) / median(off.short_us()),
        });
        untraced_out.extend(plain_out);
        traced_out.extend(traced_slice);
    }
    let plain = replay_stack.expect("at least one pair");
    let joined: Vec<(&Outcome, &Timeline, Instant)> = timed
        .iter()
        .map(|(i, t, epoch)| (&traced_out[*i], t, *epoch))
        .collect();
    if unjoined > 0 {
        errors.push(format!(
            "{unjoined} of {} answered traced requests have no recorder timeline",
            joined.len() + unjoined
        ));
    }

    let untraced_sum = Summary::of(&untraced_out);
    let traced_sum = Summary::of(&traced_out);
    errors.extend(Summary::mismatch_error(
        warmup_mismatched + untraced_sum.mismatched + traced_sum.mismatched,
    ));

    // Replays run on the idle process, before anything is torn down.
    let codec = Codec::replay(ctx, &traced_out);
    let inproc_us = inproc_replay(&plain, ctx, &traced_out, &mut errors);
    let chunk = plain.gateway.engine().chunk_samples();
    let mut metrics = Vec::new();

    // harness
    let all_us: Vec<f64> = untraced_out
        .iter()
        .filter(|o| o.is_correct())
        .filter_map(|o| o.latency().map(micros))
        .collect();
    let attempted = untraced_sum.attempted + traced_sum.attempted;
    let gen_lag_us: Vec<f64> = untraced_out.iter().map(|o| micros(o.gen_lag())).collect();
    metrics.extend([
        metric("harness.gen_lag_p50_us", quantile(&gen_lag_us, 0.5), "us"),
        metric("harness.gen_lag_p99_us", quantile(&gen_lag_us, 0.99), "us"),
        metric("harness.latency_p99_us", quantile(&all_us, 0.99), "us"),
        metric("harness.sent", attempted as f64, "count"),
        metric(
            "harness.refused",
            (untraced_sum.refused + traced_sum.refused) as f64,
            "count",
        ),
    ]);

    // Stage metrics cover the workload's smallest requests, whose latency
    // is the request path (all requests on the single-class workloads).
    let short = traced_out.iter().map(|o| o.spec.samples).min().unwrap_or(0);
    // Stage i runs from stamp i to stamp i + 1 of `received, admitted,
    // enqueued, dispatched, first_chunk, last_chunk, resolved`; a stamp the
    // request never reached (0) is taken to equal the one before it.
    let stamps = |t: &Timeline| {
        let mut s = [
            t.received_ns,
            t.admitted_ns,
            t.enqueued_ns,
            t.dispatched_ns,
            t.first_chunk_ns,
            t.last_chunk_ns,
            t.resolved_ns,
        ];
        for i in 1..s.len() {
            if s[i] == 0 {
                s[i] = s[i - 1];
            }
        }
        s
    };
    let stage = |i: usize| -> Vec<f64> {
        joined
            .iter()
            .filter(|(o, _, _)| o.spec.samples == short)
            .map(|(_, t, _)| {
                let s = stamps(t);
                s[i + 1].saturating_sub(s[i]) as f64 / 1e3
            })
            .collect()
    };
    let admit = stage(0);
    let enqueue = stage(1);
    let ring_wait = stage(2);
    let first_chunk = stage(3);
    let chunk_span = stage(4);
    let resolve = stage(5);
    let short_joined: Vec<&(&Outcome, &Timeline, Instant)> = joined
        .iter()
        .filter(|(o, _, _)| o.spec.samples == short)
        .collect();
    let (enc_req, dec_resp) = codec.client_ns(short);
    let transport: Vec<f64> = short_joined
        .iter()
        .filter_map(|(o, t, _)| {
            let rtt = micros(o.done? - o.start);
            let server = t.resolved_ns.saturating_sub(t.received_ns) as f64 / 1e3;
            Some(rtt - server - (enc_req + dec_resp) / 1e3)
        })
        .collect();
    let short_latency: Vec<f64> = short_joined
        .iter()
        .filter_map(|(o, _, _)| o.latency().map(micros))
        .collect();

    // net
    let answered_out: Vec<&Outcome> = traced_out.iter().filter(|o| o.done.is_some()).collect();
    metrics.extend([
        metric(
            "net.decode_request_ns",
            codec.weighted(|c| c.decode_request),
            "ns",
        ),
        metric(
            "net.encode_response_ns",
            codec.weighted(|c| c.encode_response),
            "ns",
        ),
        metric(
            "net.encode_request_ns",
            codec.weighted(|c| c.encode_request),
            "ns",
        ),
        metric(
            "net.decode_response_ns",
            codec.weighted(|c| c.decode_response),
            "ns",
        ),
        metric(
            "net.request_bytes",
            mean(
                &answered_out
                    .iter()
                    .map(|o| o.request_bytes as f64)
                    .collect::<Vec<_>>(),
            ),
            "bytes",
        ),
        metric(
            "net.response_bytes",
            mean(
                &answered_out
                    .iter()
                    .map(|o| o.response_bytes as f64)
                    .collect::<Vec<_>>(),
            ),
            "bytes",
        ),
        metric("net.transport_us", median(&transport), "us"),
        metric("net.bind_ms", median_of(&setups, 2), "ms"),
    ]);

    // gateway
    metrics.extend([
        metric("gateway.admit_us", median(&admit), "us"),
        metric("gateway.enqueue_us", median(&enqueue), "us"),
        metric("gateway.ring_wait_p50_us", quantile(&ring_wait, 0.5), "us"),
        metric("gateway.ring_wait_p90_us", quantile(&ring_wait, 0.9), "us"),
        metric("gateway.first_chunk_us", median(&first_chunk), "us"),
        metric("gateway.chunk_span_us", median(&chunk_span), "us"),
        metric("gateway.resolve_us", median(&resolve), "us"),
        metric("gateway.inproc_latency_us", inproc_us, "us"),
        metric(
            "gateway.queue_depth_mean",
            looks.ring_depth as f64 / looks.n.max(1) as f64,
            "count",
        ),
        metric("gateway.build_ms", median_of(&setups, 0), "ms"),
    ]);

    // serve
    metrics.extend([
        metric("serve.register_ms", median_of(&setups, 1), "ms"),
        metric(
            "serve.chunks_per_request",
            mean(
                &joined
                    .iter()
                    .map(|(_, t, _)| f64::from(t.chunks_total))
                    .collect::<Vec<_>>(),
            ),
            "count",
        ),
        metric(
            "serve.worker_busy_frac",
            looks.busy_workers as f64 / looks.workers.max(1) as f64,
            "ratio",
        ),
    ]);

    // core and emac
    let macs_per_request = mean(
        &answered_out
            .iter()
            .map(|o| (o.spec.samples * macs_per_sample(ctx.served.sets()[o.spec.model])) as f64)
            .collect::<Vec<_>>(),
    );
    metrics.push(metric("core.macs_per_request", macs_per_request, "count"));
    for (set, refs) in ctx.served.sets().into_iter().zip(ctx.refs) {
        let (core, emac) = replay_model(set, refs, chunk, &mut errors);
        metrics.extend(core);
        metrics.extend(emac);
    }

    // trace
    metrics.extend([
        metric("trace.overhead_frac", median(&ratios) - 1.0, "ratio"),
        metric("trace.dropped_contended", dropped_contended as f64, "count"),
    ]);

    // reconcile: the named stages' medians against the client's median.
    let named = [
        (enc_req + dec_resp) / 1e3,
        median(&transport),
        median(&admit),
        median(&enqueue),
        median(&ring_wait),
        median(&first_chunk),
        median(&chunk_span),
        median(&resolve),
    ];
    metrics.push(metric(
        "reconcile.unexplained_frac",
        1.0 - named.iter().sum::<f64>() / median(&short_latency),
        "ratio",
    ));

    if let Err(e) = write_spans(args, &joined) {
        eprintln!("servebench: could not write client spans: {e}");
    }
    let mut config = crate::machine(args);
    config.push(("stack", plain.describe()));
    config.push(("traced_stack", traced_desc));
    config.push((
        "trace_slots",
        slots_used
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(","),
    ));
    plain.down();
    Ok(Report {
        config,
        attempted,
        failed: untraced_sum.failed + traced_sum.failed,
        errors,
        metrics,
    })
}

/// Periodic looks at a running stack, summed.
#[derive(Default)]
struct Looks {
    n: usize,
    /// Requests waiting in the gateway's ring.
    ring_depth: usize,
    /// Pool workers running a job, and workers looked at.
    busy_workers: usize,
    workers: usize,
}

impl Looks {
    /// Looks at `gateway` every [`SAMPLE_EVERY`] until `stop`.
    fn take(&mut self, gateway: &Gateway, stop: &AtomicBool) {
        while !stop.load(Ordering::Relaxed) {
            let workers = gateway.engine().worker_busy_ms();
            self.n += 1;
            self.ring_depth += gateway.queue_depth();
            self.busy_workers += workers.iter().filter(|&&ms| ms > 0).count();
            self.workers += workers.len();
            std::thread::sleep(SAMPLE_EVERY);
        }
    }
}

fn macs_per_sample(set: &ModelSet) -> usize {
    set.variants[0]
        .model
        .layers
        .iter()
        .map(|l| l.fan_in() * l.fan_out())
        .sum()
}

/// Client and server codec costs per request class (by samples), from
/// replaying one of the workload's own requests of each class.
struct Codec {
    /// `(samples, share of requests, costs)`.
    classes: Vec<(usize, f64, CodecNs)>,
}

#[derive(Clone, Copy)]
struct CodecNs {
    encode_request: f64,
    decode_request: f64,
    encode_response: f64,
    decode_response: f64,
}

impl Codec {
    fn replay(ctx: &Ctx, outcomes: &[Outcome]) -> Codec {
        let mut by_size: Vec<(usize, usize, Spec, u64)> = Vec::new();
        for o in outcomes {
            match by_size.iter_mut().find(|c| c.0 == o.spec.samples) {
                Some(c) => c.1 += 1,
                None => by_size.push((o.spec.samples, 1, o.spec, o.id)),
            }
        }
        let total = outcomes.len().max(1) as f64;
        let classes = by_size
            .into_iter()
            .map(|(samples, count, spec, id)| {
                let req = spec.request(ctx, id);
                let frame = encode_request(&req);
                let resp = Response {
                    id,
                    body: spec.expected(ctx),
                };
                let resp_frame = encode_response(&resp);
                let costs = CodecNs {
                    encode_request: time_ns(|| encode_request(black_box(&req))),
                    decode_request: time_ns(|| decode_request(black_box(&frame[4..]))),
                    encode_response: time_ns(|| encode_response(black_box(&resp))),
                    decode_response: time_ns(|| decode_response(black_box(&resp_frame[4..]))),
                };
                (samples, count as f64 / total, costs)
            })
            .collect();
        Codec { classes }
    }

    /// Per-request mean over the workload's mix.
    fn weighted(&self, f: impl Fn(&CodecNs) -> f64) -> f64 {
        self.classes.iter().map(|(_, share, c)| share * f(c)).sum()
    }

    /// Client encode and decode nanoseconds for requests of `samples`.
    fn client_ns(&self, samples: usize) -> (f64, f64) {
        self.classes
            .iter()
            .find(|c| c.0 == samples)
            .map_or((0.0, 0.0), |(_, _, c)| {
                (c.encode_request, c.decode_response)
            })
    }
}

/// Median in-process latency of the workload's smallest requests through
/// `Gateway::try_submit_*` and `wait`, one at a time.
fn inproc_replay(stack: &Stack, ctx: &Ctx, outcomes: &[Outcome], errors: &mut Vec<String>) -> f64 {
    let short = outcomes.iter().map(|o| o.spec.samples).min().unwrap_or(0);
    let gw = &stack.gateway;
    let mut latencies = Vec::new();
    let started = Instant::now();
    for o in outcomes.iter().filter(|o| o.spec.samples == short) {
        if started.elapsed() > INPROC_BUDGET {
            break;
        }
        let set = ctx.served.sets()[o.spec.model];
        let key = ModelKey::new(set.name, set.variants[o.spec.variant].format.clone());
        let xs = o.spec.inputs(ctx);
        let expected = o.spec.expected(ctx);
        let t = Instant::now();
        let answer = if o.spec.model == 0 {
            gw.try_submit_classify(&key, xs).handle().map(|h| {
                h.wait()
                    .map(|c| ResponseBody::ClassifyOk(c.into_iter().map(|c| c as u32).collect()))
            })
        } else {
            gw.try_submit_forward(&key, xs)
                .handle()
                .map(|h| h.wait().map(ResponseBody::ForwardOk))
        };
        let elapsed = t.elapsed();
        match answer {
            Some(Ok(body)) if body == expected => latencies.push(micros(elapsed)),
            other => {
                errors.push(format!(
                    "in-process replay of request {} answered {other:?}",
                    o.id
                ));
                break;
            }
        }
    }
    median(&latencies)
}

/// The core and emac rows for one model set: each variant's layer
/// functions timed on the set's first inputs, `chunk` of them (the
/// engine's chunk size). Core rows are means over the set's variants.
fn replay_model(
    set: &ModelSet,
    refs: &[Reference],
    chunk: usize,
    errors: &mut Vec<String>,
) -> (Vec<Metric>, Vec<Metric>) {
    let inputs: Vec<Vec<f32>> = set.inputs.iter().cycle().take(chunk).cloned().collect();
    let b = inputs.len() as f64;
    let mut core: Vec<[f64; 6]> = Vec::new();
    let mut emac = Vec::new();
    for (variant, reference) in set.variants.iter().zip(refs) {
        let model = &variant.model;
        let mut units = model
            .make_layer_emacs()
            .expect("served formats have an EMAC datapath");
        let layers = LayerReplay::new(model, &mut units, &inputs);
        let expected: Vec<&Vec<u32>> = (0..inputs.len())
            .map(|i| &reference.bits[i % reference.bits.len()])
            .collect();
        if layers.outputs.iter().collect::<Vec<_>>() != expected {
            errors.push(format!(
                "{}@{}: per-layer replay differs from the reference",
                set.name, variant.format
            ));
        }
        // `infer_with` and `forward_bits_with` are timed in alternation,
        // each on its own units, and `argmax_ns` is their difference.
        let mut other_units = model
            .make_layer_emacs()
            .expect("served formats have an EMAC datapath");
        let pre = &layers.pre_activations;
        core.push([
            time_ns(|| model.make_layer_emacs()) / 1e3,
            time_ns(|| {
                for x in &inputs {
                    black_box(model.quantize_input(x));
                }
            }) / b,
            time_ns(|| {
                for x in &inputs {
                    black_box(model.forward_bits_with(&mut units, x));
                }
            }) / b,
            time_ns(|| model.forward_batch_bits_with(&mut units, &inputs)) / b,
            time_ns(|| {
                for &v in pre {
                    black_box(model.format.relu_bits(black_box(v)));
                }
            }) / pre.len().max(1) as f64,
            time_excess_ns(
                || {
                    for x in &inputs {
                        black_box(model.infer_with(&mut units, x));
                    }
                },
                || {
                    for x in &inputs {
                        black_box(model.forward_bits_with(&mut other_units, x));
                    }
                },
            ) / b,
        ]);
        let prefix = format!("emac.{}.{}", set.name, variant.label);
        let mac = time_ns(|| layers.macs(&mut units));
        let round = time_ns(|| {
            for unit in &layers.states {
                black_box(unit.result());
            }
        });
        let tile = time_ns(|| layers.tiles(&mut units));
        emac.extend([
            metric(
                format!("{prefix}.mac_ns"),
                mac / layers.mac_count as f64,
                "ns",
            ),
            metric(
                format!("{prefix}.round_ns"),
                round / layers.states.len() as f64,
                "ns",
            ),
            metric(
                format!("{prefix}.tile_mac_ns"),
                tile / layers.mac_count as f64,
                "ns",
            ),
        ]);
    }
    let names = [
        ("emac_setup_us", "us"),
        ("quantize_input_ns", "ns"),
        ("forward_ns", "ns"),
        ("tile_forward_ns", "ns"),
        ("activation_ns", "ns"),
        ("argmax_ns", "ns"),
    ];
    let core = names
        .iter()
        .enumerate()
        .map(|(i, (name, unit))| {
            metric(
                format!("core.{}.{name}", set.name),
                mean(&core.iter().map(|c| c[i]).collect::<Vec<_>>()),
                unit,
            )
        })
        .collect();
    (core, emac)
}

/// One model's layers evaluated neuron by neuron through the `Emac`
/// calls, keeping every layer's input activations for the timed replays.
struct LayerReplay<'a> {
    model: &'a QuantizedMlp,
    /// `[layer][sample]` input activations.
    acts: Vec<Vec<Vec<u32>>>,
    /// Hidden-layer outputs before ReLU.
    pre_activations: Vec<u32>,
    /// Final outputs per sample.
    outputs: Vec<Vec<u32>>,
    /// Every neuron's unit after its MACs, before `result` rounds it.
    states: Vec<EmacUnit>,
    mac_count: usize,
}

impl<'a> LayerReplay<'a> {
    fn new(model: &'a QuantizedMlp, units: &mut [EmacUnit], inputs: &[Vec<f32>]) -> Self {
        let mut acts = vec![inputs
            .iter()
            .map(|x| model.quantize_input(x))
            .collect::<Vec<_>>()];
        let mut pre_activations = Vec::new();
        let mut states = Vec::new();
        let last = model.layers.len() - 1;
        for (li, (layer, unit)) in model.layers.iter().zip(units.iter_mut()).enumerate() {
            let next = acts[li]
                .iter()
                .map(|a| {
                    layer
                        .weight_rows()
                        .zip(layer.biases())
                        .map(|(w, &bias)| {
                            unit.set_bias(bias);
                            unit.dot_slice(w, a);
                            states.push(unit.clone());
                            let out = unit.result();
                            if li == last {
                                out
                            } else {
                                pre_activations.push(out);
                                model.format.relu_bits(out)
                            }
                        })
                        .collect()
                })
                .collect();
            acts.push(next);
        }
        let outputs = acts.pop().expect("at least the input layer");
        let samples = inputs.len();
        LayerReplay {
            model,
            acts,
            pre_activations,
            outputs,
            states,
            mac_count: samples
                * model
                    .layers
                    .iter()
                    .map(|l| l.fan_in() * l.fan_out())
                    .sum::<usize>(),
        }
    }

    /// `set_bias` + `dot_slice` for every neuron of every sample.
    fn macs(&self, units: &mut [EmacUnit]) {
        for (layer, (unit, acts)) in self
            .model
            .layers
            .iter()
            .zip(units.iter_mut().zip(&self.acts))
        {
            for a in acts {
                for (w, &bias) in layer.weight_rows().zip(layer.biases()) {
                    unit.set_bias(bias);
                    unit.dot_slice(w, black_box(a));
                }
            }
        }
    }

    /// `dot_tile` over all samples for every neuron.
    fn tiles(&self, units: &mut [EmacUnit]) {
        let mut out = vec![0u32; self.outputs.len()];
        for (layer, (unit, acts)) in self
            .model
            .layers
            .iter()
            .zip(units.iter_mut().zip(&self.acts))
        {
            let cols: Vec<&[u32]> = acts.iter().map(Vec::as_slice).collect();
            for (w, &bias) in layer.weight_rows().zip(layer.biases()) {
                unit.dot_tile(bias, w, &cols, &mut out);
                black_box(&out);
            }
        }
    }
}

/// Writes the traced slices' client spans, each joined to its recorder
/// timeline, as JSON lines to `spans/<workload>.jsonl` in the benchmark's
/// directory (the first [`MAX_SPAN_LINES`] requests); each traced run
/// replaces its workload's file. All times are nanoseconds on the clock
/// of the request's recorder, whose epoch comes with it.
fn write_spans(args: &Args, joined: &[(&Outcome, &Timeline, Instant)]) -> std::io::Result<()> {
    let mut out = String::new();
    for (o, t, epoch) in joined.iter().take(MAX_SPAN_LINES) {
        let ns = |at: Instant| at.saturating_duration_since(*epoch).as_nanos();
        let done = o.done.map_or(0, ns);
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"model\": {}, \"samples\": {}, \"spans\": [\
             {{\"name\": \"client.request\", \"start_ns\": {}, \"end_ns\": {done}}}, \
             {{\"name\": \"client.send\", \"start_ns\": {}, \"end_ns\": {}}}], \
             \"timeline\": {{{}}}}}",
            o.id,
            crate::json_str(&t.model),
            o.spec.samples,
            ns(o.start),
            ns(o.start),
            ns(o.sent),
            t.stages()
                .iter()
                .map(|(name, at)| format!("\"{name}_ns\": {at}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("spans");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(format!("{}.jsonl", args.workload.name())), out)
}
