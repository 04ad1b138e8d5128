//! Gateway admission under steady, burst and overload traffic: the
//! bounded-ring front end (`dp_gateway`) over the persistent `dp_serve`
//! pool, with shed accounting.
//!
//! Run with `cargo bench --bench gateway`. Writes the committed baseline
//! `BENCH_gateway.json` at the repository root (`results/smoke/` under
//! `--smoke`), with the same JSON schema as `BENCH_serving.json` so CI
//! can cross-validate the two.

use deep_positron::train::{train, TrainConfig};
use deep_positron::{Mlp, NumericFormat, QuantizedMlp};
use dp_bench::timing::{measure, out_path, render_measurements, smoke, write_json, Measurement};
use dp_fixed::FixedFormat;
use dp_gateway::{Admission, Gateway, GatewayError, OverloadPolicy, SubmitOptions, TraceConfig};
use dp_minifloat::FloatFormat;
use dp_posit::PositFormat;
use dp_serve::ModelKey;
use std::hint::black_box;
use std::time::Instant;

const QUEUE_CAPACITY: usize = 16;

fn formats() -> [(&'static str, NumericFormat); 3] {
    [
        (
            "posit8e0",
            NumericFormat::Posit(PositFormat::new(8, 0).unwrap()),
        ),
        (
            "float8e4m3",
            NumericFormat::Float(FloatFormat::new(4, 3).unwrap()),
        ),
        (
            "fixed8q6",
            NumericFormat::Fixed(FixedFormat::new(8, 6).unwrap()),
        ),
    ]
}

fn gateway(policy: OverloadPolicy, mlp: &Mlp) -> (Gateway, Vec<ModelKey>) {
    gateway_traced(policy, mlp, TraceConfig::off())
}

fn gateway_traced(
    policy: OverloadPolicy,
    mlp: &Mlp,
    trace: TraceConfig,
) -> (Gateway, Vec<ModelKey>) {
    let gw = Gateway::builder()
        .chunk_samples(16)
        .queue_capacity(QUEUE_CAPACITY)
        .policy(policy)
        .trace(trace)
        .build();
    let keys = formats()
        .iter()
        .map(|(_, fmt)| {
            gw.registry()
                .register("iris", QuantizedMlp::quantize(mlp, *fmt))
                .expect("bench formats have EMAC datapaths")
        })
        .collect();
    (gw, keys)
}

fn main() {
    let split = dp_datasets::iris::load(42).split(50, 42).normalized();
    let mut mlp = Mlp::new(&[4, 16, 3], 42);
    train(
        &mut mlp,
        &split.train,
        TrainConfig {
            epochs: if smoke() { 8 } else { 60 },
            batch_size: 8,
            lr: 0.01,
            seed: 42,
        },
    );
    let req: Vec<Vec<f32>> = split
        .test
        .features
        .iter()
        .cycle()
        .take(if smoke() { 8 } else { 32 })
        .cloned()
        .collect();
    let req_samples = req.len();
    let x = split.test.features[0].clone();

    let mut rows: Vec<Measurement> = Vec::new();

    // Steady state: bursts within ring capacity — every request admitted,
    // mixed posit/minifloat/fixed traffic through one gateway.
    let (gw_steady, keys) = gateway(OverloadPolicy::ShedNewest, &mlp);
    let steady_requests = QUEUE_CAPACITY / 2;
    rows.push(measure(
        "steady_mixed3_gateway",
        (steady_requests * req_samples) as u64,
        || {
            let handles: Vec<_> = (0..steady_requests)
                .map(|r| {
                    gw_steady
                        .try_submit_forward(&keys[r % keys.len()], black_box(req.clone()))
                        .expect_admitted()
                })
                .collect();
            handles
                .iter()
                .map(|h| h.wait().unwrap().len())
                .sum::<usize>()
        },
    ));

    // Single-request latency: admission ring + worker + handle.
    rows.push(measure("gateway_single_latency", 1, || {
        gw_steady
            .try_submit_classify(&keys[0], vec![black_box(x.clone())])
            .expect_admitted()
            .wait()
            .unwrap()
            .len()
    }));
    let steady_snap = gw_steady.snapshot();
    drop(gw_steady);

    // The same steady-state workload with the flight recorder sampling
    // every request (worst-case trace overhead: one Arc per admission,
    // atomic stage stamps, seqlock publication at resolve). CI pins this
    // row within 10% of steady_mixed3_gateway.
    let (gw_traced, keys) = gateway_traced(
        OverloadPolicy::ShedNewest,
        &mlp,
        TraceConfig::every_request(),
    );
    rows.push(measure(
        "steady_mixed3_traced",
        (steady_requests * req_samples) as u64,
        || {
            let handles: Vec<_> = (0..steady_requests)
                .map(|r| {
                    gw_traced
                        .try_submit_forward(&keys[r % keys.len()], black_box(req.clone()))
                        .expect_admitted()
                })
                .collect();
            handles
                .iter()
                .map(|h| h.wait().unwrap().len())
                .sum::<usize>()
        },
    ));
    let traced_stats = gw_traced
        .recorder()
        .map(|r| r.stats())
        .expect("traced gateway has a recorder");
    drop(gw_traced);

    // Burst at 2× capacity, ShedNewest: dispatch paused while the burst
    // lands (so the ring genuinely fills), then released; the overflow is
    // shed, the admitted half completes. elems = samples served.
    let (gw_burst, keys) = gateway(OverloadPolicy::ShedNewest, &mlp);
    rows.push(measure(
        "burst_2x_shed_newest",
        (QUEUE_CAPACITY * req_samples) as u64,
        || {
            gw_burst.pause_dispatch();
            let mut handles = Vec::new();
            let mut shed = 0usize;
            for r in 0..2 * QUEUE_CAPACITY {
                match gw_burst.try_submit_forward(&keys[r % keys.len()], black_box(req.clone())) {
                    Admission::Admitted(h) => handles.push(h),
                    Admission::QueueFull => shed += 1,
                    other => panic!("unexpected verdict {other:?}"),
                }
            }
            gw_burst.resume_dispatch();
            assert_eq!(handles.len() + shed, 2 * QUEUE_CAPACITY);
            handles
                .iter()
                .map(|h| h.wait().unwrap().len())
                .sum::<usize>()
        },
    ));
    let burst_snap = gw_burst.snapshot();
    drop(gw_burst);

    // Sustained overload, ShedOldest: every submission is admitted but
    // the oldest half is evicted; survivors complete, evictees resolve
    // Shed without hanging.
    let (gw_over, keys) = gateway(OverloadPolicy::ShedOldest, &mlp);
    rows.push(measure(
        "overload_shed_oldest",
        (QUEUE_CAPACITY * req_samples) as u64,
        || {
            gw_over.pause_dispatch();
            let handles: Vec<_> = (0..2 * QUEUE_CAPACITY)
                .map(|r| {
                    gw_over
                        .try_submit_forward(&keys[r % keys.len()], black_box(req.clone()))
                        .expect_admitted()
                })
                .collect();
            gw_over.resume_dispatch();
            handles
                .iter()
                .map(|h| match h.wait() {
                    Ok(out) => out.len(),
                    Err(dp_gateway::GatewayError::Shed) => 0,
                    Err(e) => panic!("unexpected {e}"),
                })
                .sum::<usize>()
        },
    ));
    let overload_snap = gw_over.snapshot();
    drop(gw_over);

    // Pure admission cost at saturation: dispatch paused and the ring
    // full, every try_submit returns QueueFull — the non-blocking verdict
    // path that must stay cheap under attack-level load.
    let (gw_adm, keys) = gateway(OverloadPolicy::ShedNewest, &mlp);
    gw_adm.pause_dispatch();
    while gw_adm
        .try_submit_forward(&keys[0], req.clone())
        .is_admitted()
    {}
    rows.push(measure("admission_queue_full_verdict", 1, || {
        matches!(
            gw_adm.try_submit_forward(&keys[0], black_box(req.clone())),
            Admission::QueueFull
        )
    }));
    gw_adm.resume_dispatch();
    gw_adm.wait_idle();
    drop(gw_adm);

    // Deadline churn: a full ring of already-expired requests. The
    // workers' lazy-expiry path resolves and refunds every one without
    // ever touching the engine — the fixed per-request overhead deadlines
    // add to the admission/dispatch pipeline. elems = expiry verdicts.
    let (gw_dead, keys) = gateway(OverloadPolicy::ShedNewest, &mlp);
    rows.push(measure(
        "deadline_churn_expired",
        QUEUE_CAPACITY as u64,
        || {
            gw_dead.pause_dispatch();
            let handles: Vec<_> = (0..QUEUE_CAPACITY)
                .map(|r| {
                    gw_dead
                        .try_submit_forward_opts(
                            &keys[r % keys.len()],
                            black_box(req.clone()),
                            SubmitOptions::new().deadline(Instant::now()),
                        )
                        .expect_admitted()
                })
                .collect();
            gw_dead.resume_dispatch();
            let expired = handles
                .iter()
                .filter(|h| matches!(h.wait(), Err(GatewayError::DeadlineExceeded)))
                .count();
            assert_eq!(expired, QUEUE_CAPACITY, "every stale request must expire");
            expired
        },
    ));
    gw_dead.wait_idle();
    let dead_snap = gw_dead.snapshot();
    drop(gw_dead);

    println!("{}", render_measurements(&rows));

    let path = out_path("gateway");
    let meta = [
        ("bench", "gateway".to_string()),
        ("command", "cargo bench --bench gateway".to_string()),
        ("topology", "iris 4-16-3".to_string()),
        ("queue_capacity", QUEUE_CAPACITY.to_string()),
        ("request_samples", req_samples.to_string()),
        (
            "steady",
            format!(
                "submitted={} admitted={} shed={}",
                steady_snap.submitted,
                steady_snap.admitted,
                steady_snap.shed_total()
            ),
        ),
        (
            "traced",
            format!(
                "begun={} published={} dropped_contended={}",
                traced_stats.begun, traced_stats.published, traced_stats.dropped_contended
            ),
        ),
        (
            "burst_shed_newest",
            format!(
                "submitted={} admitted={} shed={} completed={}",
                burst_snap.submitted,
                burst_snap.admitted,
                burst_snap.shed_total(),
                burst_snap.completed
            ),
        ),
        (
            "overload_shed_oldest",
            format!(
                "submitted={} admitted={} evicted={} completed={}",
                overload_snap.submitted,
                overload_snap.admitted,
                overload_snap.shed_evicted,
                overload_snap.completed
            ),
        ),
        (
            "deadline_churn",
            format!(
                "submitted={} expired={}",
                dead_snap.submitted, dead_snap.deadline_exceeded
            ),
        ),
        (
            "note",
            "elems = inference samples served per iteration (1 for latency/verdict rows); \
             burst/overload rows pause dispatch while 2x-capacity traffic lands, so shedding is \
             deterministic; admission_queue_full_verdict is the pure non-blocking rejection path"
                .to_string(),
        ),
    ];
    write_json(&path, &meta, &rows).expect("write BENCH_gateway.json");
    println!("\nwrote {}", path.display());

    // Prometheus exposition of the deadline-churn gateway's final state:
    // CI asserts the robustness counters (deadline_exceeded, worker
    // supervision, degraded gauge) keep appearing in the rendered output.
    let prom_path = path.with_file_name("gateway_metrics.prom");
    std::fs::write(&prom_path, dead_snap.to_prometheus()).expect("write gateway_metrics.prom");
    println!("wrote {}", prom_path.display());
}
