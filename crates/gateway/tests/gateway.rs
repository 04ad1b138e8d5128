//! Integration tests: non-blocking admission under burst, overload
//! policies, rate limits, shed-handle semantics and bit-identity of every
//! admitted request against per-sample `forward_bits`.

use deep_positron::train::{train, TrainConfig};
use deep_positron::{Mlp, NumericFormat, QuantizedMlp};
use dp_fixed::FixedFormat;
use dp_gateway::{Admission, Gateway, GatewayError, OverloadPolicy, RateLimit, RequestStage};
use dp_minifloat::FloatFormat;
use dp_posit::PositFormat;
use dp_serve::ModelKey;
use std::sync::Arc;

fn trained_iris() -> (Mlp, dp_datasets::TrainTest) {
    let split = dp_datasets::iris::load(31).split(50, 31).normalized();
    let mut mlp = Mlp::new(&[4, 8, 3], 31);
    train(
        &mut mlp,
        &split.train,
        TrainConfig {
            epochs: 25,
            batch_size: 16,
            lr: 0.02,
            seed: 31,
        },
    );
    (mlp, split)
}

fn mixed_formats() -> Vec<NumericFormat> {
    vec![
        NumericFormat::Posit(PositFormat::new(8, 0).unwrap()),
        NumericFormat::Float(FloatFormat::new(4, 3).unwrap()),
        NumericFormat::Fixed(FixedFormat::new(8, 5).unwrap()),
    ]
}

/// Small gateway: 2 workers, 4-sample chunks, an 8-request ring.
fn small_gateway(policy: OverloadPolicy) -> Gateway {
    Gateway::builder()
        .workers(2)
        .chunk_samples(4)
        .queue_capacity(8)
        .policy(policy)
        .build()
}

fn batch(split: &dp_datasets::TrainTest, n: usize) -> Vec<Vec<f32>> {
    split
        .test
        .features
        .iter()
        .cycle()
        .take(n)
        .cloned()
        .collect()
}

#[test]
fn burst_at_twice_capacity_sheds_newest_and_stays_bit_identical() {
    // The acceptance scenario: a burst of 2× ring capacity against a
    // paused ring. try_submit must never block, shed + admitted
    // must equal submitted, and every admitted request's output must be
    // bit-identical to per-sample forward_bits.
    let (mlp, split) = trained_iris();
    let gw = small_gateway(OverloadPolicy::ShedNewest);
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    let key = gw.registry().register("iris", q.clone()).unwrap();
    let xs = batch(&split, 12);
    let direct: Vec<Vec<u32>> = xs.iter().map(|x| q.forward_bits(x)).collect();

    // Stall the workers' pops so the ring genuinely fills (on a fast
    // machine they would otherwise drain the "burst" as it arrives).
    gw.pause_dispatch();
    let burst = 2 * gw.queue_capacity();
    let mut handles = Vec::new();
    let mut shed = 0usize;
    for _ in 0..burst {
        match gw.try_submit_forward(&key, xs.clone()) {
            Admission::Admitted(h) => handles.push(h),
            Admission::QueueFull => shed += 1,
            other => panic!("unexpected verdict: {other:?}"),
        }
    }
    assert_eq!(handles.len(), gw.queue_capacity());
    assert_eq!(shed, burst - gw.queue_capacity());

    let snap = gw.snapshot();
    assert_eq!(snap.submitted, burst as u64);
    assert_eq!(snap.admitted + snap.shed_total(), snap.submitted);
    assert_eq!(snap.queue_depth_peak, gw.queue_capacity() as u64);

    gw.resume_dispatch();
    for h in &handles {
        assert_eq!(h.wait().unwrap(), direct, "admitted output diverged");
    }
    gw.wait_idle();
    let snap = gw.snapshot();
    assert_eq!(snap.completed, handles.len() as u64);
    assert_eq!(snap.failed, 0);
    assert_eq!(snap.samples_completed, (handles.len() * xs.len()) as u64);
}

#[test]
fn shed_oldest_evicts_admitted_requests_whose_handles_report_shed() {
    let (mlp, split) = trained_iris();
    let gw = small_gateway(OverloadPolicy::ShedOldest);
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    let key = gw.registry().register("iris", q.clone()).unwrap();
    let xs = batch(&split, 6);
    let direct: Vec<Vec<u32>> = xs.iter().map(|x| q.forward_bits(x)).collect();

    gw.pause_dispatch();
    let cap = gw.queue_capacity();
    // Admit 2× capacity: every submission is admitted, but the first
    // `cap` get evicted by the second wave.
    let handles: Vec<_> = (0..2 * cap)
        .map(|_| gw.try_submit_forward(&key, xs.clone()).expect_admitted())
        .collect();
    // Evicted handles resolve *before* dispatch resumes — a shed job
    // reports Shed promptly rather than hanging.
    for h in &handles[..cap] {
        assert_eq!(h.stage(), RequestStage::Done);
        assert_eq!(h.wait(), Err(GatewayError::Shed));
        // Double-wait on a shed handle is defined too.
        assert_eq!(h.wait(), Err(GatewayError::Shed));
    }
    gw.resume_dispatch();
    for h in &handles[cap..] {
        assert_eq!(h.wait().unwrap(), direct);
    }
    gw.wait_idle();
    let snap = gw.snapshot();
    assert_eq!(snap.submitted, 2 * cap as u64);
    assert_eq!(snap.admitted, 2 * cap as u64);
    assert_eq!(snap.shed_evicted, cap as u64);
    assert_eq!(snap.shed_queue_full, 0);
    assert_eq!(snap.completed, cap as u64);
    // Per-model accounting agrees.
    let row = &snap.per_model[0];
    assert_eq!(row.key, key.to_string());
    assert_eq!(row.admitted, 2 * cap as u64);
    assert_eq!(row.shed, cap as u64);
    assert_eq!(row.completed, cap as u64);
}

#[test]
fn block_policy_blocks_submit_but_never_try_submit() {
    let (mlp, split) = trained_iris();
    let gw = Arc::new(
        Gateway::builder()
            .workers(1)
            .chunk_samples(4)
            .queue_capacity(1)
            .policy(OverloadPolicy::Block)
            .build(),
    );
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    let key = gw.registry().register("iris", q.clone()).unwrap();
    let xs = batch(&split, 4);

    gw.pause_dispatch();
    let first = gw.submit_forward(&key, xs.clone()).expect_admitted();
    // Ring full: the non-blocking path sheds instead of blocking…
    assert!(matches!(
        gw.try_submit_forward(&key, xs.clone()),
        Admission::QueueFull
    ));
    // …while the blocking path waits for space.
    let gw2 = Arc::clone(&gw);
    let key2 = key.clone();
    let xs2 = xs.clone();
    let blocked = std::thread::spawn(move || gw2.submit_forward(&key2, xs2).expect_admitted());
    std::thread::sleep(std::time::Duration::from_millis(20));
    assert!(!blocked.is_finished(), "Block policy must wait for space");
    gw.resume_dispatch();
    let second = blocked.join().unwrap();
    let direct: Vec<Vec<u32>> = xs.iter().map(|x| q.forward_bits(x)).collect();
    assert_eq!(first.wait().unwrap(), direct);
    assert_eq!(second.wait().unwrap(), direct);
}

#[test]
fn mixed_format_traffic_through_one_gateway_is_bit_identical() {
    let (mlp, split) = trained_iris();
    let gw = Gateway::builder()
        .workers(3)
        .chunk_samples(8)
        .queue_capacity(64)
        .build();
    let models: Vec<(ModelKey, QuantizedMlp)> = mixed_formats()
        .into_iter()
        .map(|fmt| {
            let q = QuantizedMlp::quantize(&mlp, fmt);
            (gw.registry().register("iris", q.clone()).unwrap(), q)
        })
        .collect();
    // posit<16,1> rides along with a ragged tail: 2·chunk_samples + 3
    // samples, so its last chunk is a 3-column tile.
    let q16 = QuantizedMlp::quantize(&mlp, NumericFormat::Posit(PositFormat::new(16, 1).unwrap()));
    let key16 = gw.registry().register("iris", q16.clone()).unwrap();
    let xs16 = batch(&split, 2 * 8 + 3);
    let h16 = gw
        .try_submit_forward(&key16, xs16.clone())
        .expect_admitted();
    let xs = batch(&split, 50);
    let forwards: Vec<_> = models
        .iter()
        .map(|(key, _)| gw.try_submit_forward(key, xs.clone()).expect_admitted())
        .collect();
    let classifies: Vec<_> = models
        .iter()
        .map(|(key, _)| gw.try_submit_classify(key, xs.clone()).expect_admitted())
        .collect();
    for (((key, q), fh), ch) in models.iter().zip(&forwards).zip(&classifies) {
        let direct_bits: Vec<Vec<u32>> = xs.iter().map(|x| q.forward_bits(x)).collect();
        let direct_classes: Vec<usize> = xs.iter().map(|x| q.infer(x)).collect();
        assert_eq!(fh.wait().unwrap(), direct_bits, "{key}");
        assert_eq!(ch.wait().unwrap(), direct_classes, "{key}");
    }
    let direct16: Vec<Vec<u32>> = xs16.iter().map(|x| q16.forward_bits(x)).collect();
    assert_eq!(h16.wait().unwrap(), direct16, "{key16}");
    gw.wait_idle();
    let snap = gw.snapshot();
    assert_eq!(snap.completed, 7);
    assert_eq!(snap.per_model.len(), 4);
    assert_eq!(snap.service.count(), 7);
    assert!(snap.queue_wait.quantile_ns(0.5) > 0);
}

#[test]
fn f32_baseline_classifies_but_has_no_forward_path() {
    let (mlp, split) = trained_iris();
    let gw = small_gateway(OverloadPolicy::ShedNewest);
    let q = QuantizedMlp::quantize(&mlp, NumericFormat::F32);
    let key = gw.registry().register("iris", q.clone()).unwrap();
    assert!(matches!(
        gw.try_submit_forward(&key, batch(&split, 4)),
        Admission::Unsupported(_)
    ));
    let xs = batch(&split, 10);
    let h = gw.try_submit_classify(&key, xs.clone()).expect_admitted();
    let direct: Vec<usize> = xs.iter().map(|x| q.infer(x)).collect();
    assert_eq!(h.wait().unwrap(), direct);
}

#[test]
fn unknown_model_and_rate_limits_yield_typed_verdicts() {
    let (mlp, split) = trained_iris();
    // No refill: a 20-sample budget serves exactly 20 samples.
    let gw = Gateway::builder()
        .workers(2)
        .queue_capacity(16)
        .rate_limit(
            "iris",
            RateLimit {
                burst: 20.0,
                samples_per_sec: 0.0,
            },
        )
        .build();
    let ghost = ModelKey::new("ghost", "posit<8,0>");
    assert!(matches!(
        gw.try_submit_classify(&ghost, batch(&split, 1)),
        Admission::ModelUnknown(k) if k == ghost
    ));
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    let key = gw.registry().register("iris", q).unwrap();
    // Two 10-sample batches fit the budget; the third is limited.
    assert!(gw
        .try_submit_classify(&key, batch(&split, 10))
        .is_admitted());
    assert!(gw
        .try_submit_classify(&key, batch(&split, 10))
        .is_admitted());
    assert!(matches!(
        gw.try_submit_classify(&key, batch(&split, 10)),
        Admission::RateLimited
    ));
    let snap = gw.snapshot();
    assert_eq!(snap.rate_limited, 1);
    assert_eq!(snap.model_unknown, 1);
    gw.wait_idle();
}

#[test]
fn twenty_chunk_request_beside_a_two_chunk_one_completes_bit_identically() {
    // One worker, 2-sample chunks: a 20-chunk request and a 2-chunk one
    // queued behind it. The big one's chunks go out first (request-FIFO),
    // and both must come back whole and bit-identical.
    let (mlp, split) = trained_iris();
    let gw = Gateway::builder()
        .workers(1)
        .chunk_samples(2)
        .queue_capacity(8)
        .build();
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    let key = gw.registry().register("iris", q.clone()).unwrap();
    let big = batch(&split, 40);
    let small = batch(&split, 3);
    let h_big = gw.try_submit_forward(&key, big.clone()).expect_admitted();
    let h_small = gw.try_submit_forward(&key, small.clone()).expect_admitted();
    let direct_big: Vec<Vec<u32>> = big.iter().map(|x| q.forward_bits(x)).collect();
    let direct_small: Vec<Vec<u32>> = small.iter().map(|x| q.forward_bits(x)).collect();
    assert_eq!(h_big.wait().unwrap(), direct_big);
    assert_eq!(h_small.wait().unwrap(), direct_small);
    gw.wait_idle();
    assert_eq!(gw.snapshot().completed, 2);
    assert_eq!(gw.engine().stats().jobs_run, 22);
}

#[test]
fn shed_requests_refund_their_rate_limit_tokens() {
    // A 20-sample budget with no refill and a 1-deep ring: the shed
    // request must hand its tokens back, so traffic that the ring *can*
    // take later is not double-punished with RateLimited.
    let (mlp, split) = trained_iris();
    let gw = Gateway::builder()
        .workers(1)
        .queue_capacity(1)
        .rate_limit(
            "iris",
            RateLimit {
                burst: 20.0,
                samples_per_sec: 0.0,
            },
        )
        .build();
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    let key = gw.registry().register("iris", q).unwrap();
    gw.pause_dispatch();
    // 10 tokens charged and kept (admitted)…
    assert!(gw
        .try_submit_classify(&key, batch(&split, 10))
        .is_admitted());
    // …10 charged and refunded (ring full → shed).
    assert!(matches!(
        gw.try_submit_classify(&key, batch(&split, 10)),
        Admission::QueueFull
    ));
    gw.resume_dispatch();
    gw.wait_idle();
    // The refunded 10 tokens are available again; without the refund this
    // submission would be RateLimited.
    assert!(gw
        .try_submit_classify(&key, batch(&split, 10))
        .is_admitted());
    // And the budget is now genuinely exhausted.
    assert!(matches!(
        gw.try_submit_classify(&key, batch(&split, 1)),
        Admission::RateLimited
    ));
    gw.wait_idle();

    // ShedOldest evictions refund too: an evicted request served nothing,
    // so its tokens go back to the bucket.
    let gw = Gateway::builder()
        .workers(1)
        .queue_capacity(1)
        .policy(OverloadPolicy::ShedOldest)
        .rate_limit(
            "iris",
            RateLimit {
                burst: 20.0,
                samples_per_sec: 0.0,
            },
        )
        .build();
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    let key = gw.registry().register("iris", q).unwrap();
    gw.pause_dispatch();
    let first = gw
        .try_submit_classify(&key, batch(&split, 10))
        .expect_admitted();
    // Charges the last 10 tokens, evicts `first`, refunds its 10.
    let second = gw
        .try_submit_classify(&key, batch(&split, 10))
        .expect_admitted();
    assert_eq!(first.wait(), Err(GatewayError::Shed));
    gw.resume_dispatch();
    assert!(second.wait().is_ok());
    gw.wait_idle();
    // Without the eviction refund the bucket would be empty here.
    assert!(gw
        .try_submit_classify(&key, batch(&split, 10))
        .is_admitted());
    assert!(matches!(
        gw.try_submit_classify(&key, batch(&split, 1)),
        Admission::RateLimited
    ));
    gw.wait_idle();
}

#[test]
fn handle_edge_cases_poll_wait_and_empty_batches() {
    let (mlp, split) = trained_iris();
    let gw = small_gateway(OverloadPolicy::ShedNewest);
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    let key = gw.registry().register("iris", q.clone()).unwrap();

    // Empty batch: admitted and already resolved, no ring space used.
    let h = gw.try_submit_forward(&key, Vec::new()).expect_admitted();
    assert_eq!(h.stage(), RequestStage::Done);
    assert_eq!(h.wait().unwrap(), Vec::<Vec<u32>>::new());

    // Wait after the pool drained; then double-wait and poll-after-wait
    // return the cached result (unlike the single-consumer serve handles).
    let xs = batch(&split, 9);
    let h = gw.try_submit_forward(&key, xs.clone()).expect_admitted();
    gw.wait_idle();
    assert!(h.is_done());
    let direct: Vec<Vec<u32>> = xs.iter().map(|x| q.forward_bits(x)).collect();
    assert_eq!(h.wait().unwrap(), direct);
    assert_eq!(h.wait().unwrap(), direct);
    assert_eq!(h.poll(), Some(Ok(direct.clone())));
    assert_eq!(h.stage(), RequestStage::Done);
}

#[test]
fn shutdown_drains_every_admitted_request() {
    let (mlp, split) = trained_iris();
    let gw = small_gateway(OverloadPolicy::ShedNewest);
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    let key = gw.registry().register("iris", q.clone()).unwrap();
    // 200 samples in 4-sample chunks: 50 chunks per request.
    let xs = batch(&split, 200);
    let handles: Vec<_> = (0..4)
        .map(|_| gw.try_submit_forward(&key, xs.clone()).expect_admitted())
        .collect();
    gw.shutdown();
    let direct: Vec<Vec<u32>> = xs.iter().map(|x| q.forward_bits(x)).collect();
    for h in handles {
        assert_eq!(h.wait().unwrap(), direct);
    }
}

#[test]
fn snapshot_json_renders_live_traffic() {
    let (mlp, split) = trained_iris();
    let gw = small_gateway(OverloadPolicy::ShedNewest);
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    let key = gw.registry().register("iris", q).unwrap();
    let h = gw
        .try_submit_classify(&key, batch(&split, 16))
        .expect_admitted();
    h.wait().unwrap();
    gw.wait_idle();
    let json = gw.snapshot().to_json();
    assert!(json.contains("\"submitted\": 1"), "{json}");
    assert!(json.contains("\"completed\": 1"), "{json}");
    assert!(json.contains(&format!("\"key\": \"{key}\"")), "{json}");
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

// ---- request-lifecycle robustness (deadlines, cancel, degraded) --------

#[test]
fn expired_request_handle_resolves_promptly_without_spinning() {
    use std::time::{Duration, Instant};
    let (mlp, split) = trained_iris();
    let gw = small_gateway(OverloadPolicy::ShedNewest);
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    let key = gw.registry().register("iris", q).unwrap();

    // Hold the ring so the deadline is unambiguously in the past by the
    // time a worker pops the entry.
    gw.pause_dispatch();
    let h = gw
        .try_submit_forward_opts(
            &key,
            batch(&split, 4),
            dp_gateway::SubmitOptions::new().deadline(Instant::now()),
        )
        .expect_admitted();
    assert_eq!(h.poll(), None, "still queued while dispatch is paused");
    gw.resume_dispatch();

    // The popping worker expires the entry; the cached verdict must surface
    // through non-blocking poll() within a bounded number of attempts —
    // a regression here spins forever exactly like the shed-handle bug.
    let t0 = Instant::now();
    let verdict = loop {
        if let Some(v) = h.poll() {
            break v;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "expired handle never resolved"
        );
        std::thread::sleep(Duration::from_millis(2));
    };
    assert_eq!(verdict, Err(GatewayError::DeadlineExceeded));
    // Repeated polls and a blocking wait return the same cached verdict.
    assert_eq!(h.poll(), Some(Err(GatewayError::DeadlineExceeded)));
    assert_eq!(h.wait(), Err(GatewayError::DeadlineExceeded));
    assert_eq!(h.stage(), RequestStage::Done);

    gw.wait_idle();
    let snap = gw.snapshot();
    assert_eq!(snap.deadline_exceeded, 1);
    assert_eq!(snap.per_model[0].expired, 1);
    assert_eq!(snap.completed, 0);
}

#[test]
fn expired_requests_refund_their_rate_limit_tokens() {
    use std::time::Instant;
    let (mlp, split) = trained_iris();
    let gw = Gateway::builder()
        .workers(2)
        .chunk_samples(4)
        .queue_capacity(8)
        .rate_limit(
            "iris",
            RateLimit {
                burst: 8.0,
                samples_per_sec: 0.0,
            },
        )
        .build();
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    let key = gw.registry().register("iris", q).unwrap();

    gw.pause_dispatch();
    let doomed = gw
        .try_submit_forward_opts(
            &key,
            batch(&split, 4),
            dp_gateway::SubmitOptions::new().deadline(Instant::now()),
        )
        .expect_admitted();
    gw.resume_dispatch();
    assert_eq!(doomed.wait(), Err(GatewayError::DeadlineExceeded));

    // All 4 of the expired request's tokens are back: an 8-sample probe
    // fits the non-refilling 8-token bucket only if the refund happened.
    let probe = gw.try_submit_forward(&key, batch(&split, 8));
    assert!(probe.is_admitted(), "expiry must refund its tokens");
    probe.expect_admitted().wait().unwrap();
}

#[test]
fn wait_timeout_times_out_while_queued_then_delivers_after_resume() {
    use std::time::Duration;
    let (mlp, split) = trained_iris();
    let gw = small_gateway(OverloadPolicy::ShedNewest);
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    let key = gw.registry().register("iris", q.clone()).unwrap();
    let xs = batch(&split, 8);

    gw.pause_dispatch();
    let h = gw.try_submit_forward(&key, xs.clone()).expect_admitted();
    assert_eq!(
        h.wait_timeout(Duration::from_millis(50)),
        None,
        "queued request must time out, not block"
    );
    gw.resume_dispatch();
    let direct: Vec<Vec<u32>> = xs.iter().map(|x| q.forward_bits(x)).collect();
    assert_eq!(
        h.wait_timeout(Duration::from_secs(10)),
        Some(Ok(direct.clone()))
    );
    // The resolution is cached: a second (blocking) wait sees it too.
    assert_eq!(h.wait().unwrap(), direct);
}

#[test]
fn cancelling_a_queued_request_resolves_immediately_and_counts_once() {
    let (mlp, split) = trained_iris();
    let gw = small_gateway(OverloadPolicy::ShedNewest);
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    let key = gw.registry().register("iris", q).unwrap();

    gw.pause_dispatch();
    let h = gw
        .try_submit_forward(&key, batch(&split, 4))
        .expect_admitted();
    h.cancel();
    // The verdict is available before a worker even sees the entry.
    assert_eq!(h.poll(), Some(Err(GatewayError::Cancelled)));
    gw.resume_dispatch();
    gw.wait_idle();
    let snap = gw.snapshot();
    assert_eq!(snap.cancelled, 1, "cancel is counted exactly once");
    assert_eq!(snap.completed, 0);
    assert_eq!(snap.failed, 0);
}

// ---- close(&self) seam: snapshot after close is final ------------------

#[test]
fn snapshot_after_close_reports_final_conserved_counters() {
    use std::time::Instant;
    // The network front end scrapes /metrics after draining; that scrape
    // must see *final* counters, not a torn view racing the ring's drain
    // or late chunk completions. close(&self) works through an Arc
    // (front ends share the gateway across threads).
    let (mlp, split) = trained_iris();
    let gw = Arc::new(small_gateway(OverloadPolicy::ShedNewest));
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    let key = gw.registry().register("iris", q.clone()).unwrap();
    let bogus = ModelKey::new("nope", mixed_formats()[0].to_string());

    // Mixed traffic: completions, an expiry, and typed rejections.
    let handles: Vec<_> = (0..3)
        .map(|_| {
            gw.try_submit_forward(&key, batch(&split, 8))
                .expect_admitted()
        })
        .collect();
    gw.pause_dispatch();
    let doomed = gw
        .try_submit_forward_opts(
            &key,
            batch(&split, 4),
            dp_gateway::SubmitOptions::new().deadline(Instant::now()),
        )
        .expect_admitted();
    gw.resume_dispatch();
    assert!(matches!(
        gw.try_submit_classify(&bogus, batch(&split, 1)),
        Admission::ModelUnknown(_)
    ));

    // Close from another thread, through &self — no handle is waited
    // first, so the drain itself must resolve everything in flight.
    let closer = {
        let gw = Arc::clone(&gw);
        std::thread::spawn(move || gw.close())
    };
    closer.join().unwrap();

    // Post-close admission is a typed verdict, and counted.
    assert!(matches!(
        gw.try_submit_forward(&key, batch(&split, 4)),
        Admission::Closed
    ));

    let snap = gw.snapshot();
    // Admission-side conservation.
    assert_eq!(
        snap.submitted,
        snap.admitted
            + snap.shed_queue_full
            + snap.rate_limited
            + snap.model_unknown
            + snap.unsupported
            + snap.rejected_closed
            + snap.rejected_degraded,
        "admission conservation broken: {}",
        snap.to_json()
    );
    // Outcome-side conservation: every admitted request resolved.
    assert_eq!(
        snap.admitted,
        snap.completed
            + snap.failed
            + snap.shed_evicted
            + snap.deadline_exceeded
            + snap.cancelled
            + snap.dropped_closed
            + snap.drain_aborted,
        "outcome conservation broken: {}",
        snap.to_json()
    );
    assert_eq!(snap.submitted, 6);
    assert_eq!(snap.completed, 3);
    assert_eq!(snap.deadline_exceeded, 1);
    assert_eq!(snap.model_unknown, 1);
    assert_eq!(snap.rejected_closed, 1);

    // Counters are *final*: a later snapshot is identical.
    let again = gw.snapshot();
    assert_eq!(snap.to_json(), again.to_json());

    // Handles survive close and carry their cached verdicts.
    let direct: Vec<Vec<u32>> = batch(&split, 8).iter().map(|x| q.forward_bits(x)).collect();
    for h in handles {
        assert_eq!(h.wait().unwrap(), direct);
    }
    assert_eq!(doomed.wait(), Err(GatewayError::DeadlineExceeded));
}

// ---- bit-identity across formats and chunk widths; close; handle stage --

#[test]
fn sixteen_bit_models_serve_bit_identically() {
    // The split-table datapath through the full serving stack: a
    // posit<16,1> model must serve bit-identically to forward_bits and
    // classify exactly like infer.
    let (mlp, split) = trained_iris();
    let gw = small_gateway(OverloadPolicy::ShedNewest);
    let q = QuantizedMlp::quantize(&mlp, NumericFormat::Posit(PositFormat::new(16, 1).unwrap()));
    let key = gw.registry().register("iris", q.clone()).unwrap();
    let xs = batch(&split, 40);
    let bits = gw.try_submit_forward(&key, xs.clone()).expect_admitted();
    let classes = gw.try_submit_classify(&key, xs.clone()).expect_admitted();
    let direct: Vec<Vec<u32>> = xs.iter().map(|x| q.forward_bits(x)).collect();
    let direct_classes: Vec<usize> = xs.iter().map(|x| q.infer(x)).collect();
    assert_eq!(bits.wait().unwrap(), direct);
    assert_eq!(classes.wait().unwrap(), direct_classes);
}

#[test]
fn chunked_tile_evaluation_is_bit_identical_to_per_sample() {
    // Every chunk runs one weight-stationary tile sweep per layer over
    // its samples (dot_tile, B = chunk width); per sample it must match
    // forward_bits / infer exactly — at the production chunk width of
    // 64, at a ragged width, at B = 1, and for the 16-bit formats whose
    // gathered-fused tile rides the split-table operands.
    let (mlp, split) = trained_iris();
    let gw = Gateway::builder()
        .workers(2)
        .chunk_samples(64)
        .queue_capacity(64)
        .build();
    let mut formats = mixed_formats();
    formats.push(NumericFormat::Posit(PositFormat::new(16, 1).unwrap()));
    formats.push(NumericFormat::Float(FloatFormat::new(5, 10).unwrap()));
    formats.push(NumericFormat::Fixed(FixedFormat::new(16, 10).unwrap()));
    let xs = batch(&split, 64);
    for fmt in formats {
        let q = QuantizedMlp::quantize(&mlp, fmt);
        let key = gw.registry().register("iris", q.clone()).unwrap();
        let direct: Vec<Vec<u32>> = xs.iter().map(|x| q.forward_bits(x)).collect();
        let classes: Vec<usize> = xs.iter().map(|x| q.infer(x)).collect();
        for width in [64usize, 13, 1] {
            let chunk = xs[..width].to_vec();
            let bits = gw.try_submit_forward(&key, chunk.clone()).expect_admitted();
            let class = gw.try_submit_classify(&key, chunk).expect_admitted();
            assert_eq!(
                bits.wait().unwrap(),
                direct[..width],
                "{fmt} forward B={width}"
            );
            assert_eq!(
                class.wait().unwrap(),
                classes[..width],
                "{fmt} classify B={width}"
            );
        }
    }
}

#[test]
fn closed_gateway_rejects_whole_requests_and_drains_the_admitted_one() {
    // After close, a submission is a typed Closed verdict and none of its
    // chunks ever reaches a worker; the request admitted before the close
    // still drains completely and correctly.
    let (mlp, split) = trained_iris();
    let gw = Gateway::builder()
        .workers(2)
        .chunk_samples(4)
        .queue_capacity(8)
        .build();
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    let key = gw.registry().register("iris", q.clone()).unwrap();
    // 40 samples / 4-sample chunks = 10 chunk jobs admitted before the close.
    let xs = batch(&split, 40);
    let admitted = gw.try_submit_forward(&key, xs.clone()).expect_admitted();
    gw.close();
    assert!(matches!(
        gw.try_submit_forward(&key, xs.clone()),
        Admission::Closed
    ));
    assert!(matches!(
        gw.try_submit_classify(&key, xs.clone()),
        Admission::Closed
    ));
    let direct: Vec<Vec<u32>> = xs.iter().map(|x| q.forward_bits(x)).collect();
    assert_eq!(admitted.wait().unwrap(), direct);
    assert_eq!(gw.engine().stats().jobs_run, 10);
    let snap = gw.snapshot();
    assert_eq!(snap.rejected_closed, 2);
    assert_eq!(snap.completed, 1);
}

#[test]
fn stage_stays_dispatched_while_other_threads_wait() {
    // Regression: wait()/wait_timeout() used to take the engine-side
    // handle out of the gateway handle and park it at Queued while they
    // blocked, so another thread's stage() went Dispatched → Queued and
    // is_done() read false for the running request. One worker and a
    // 20k-sample posit<16,1> request on a 4-256-256-3 MLP keep the
    // request running well past the observation.
    let (_, split) = trained_iris();
    let wide = Mlp::new(&[4, 256, 256, 3], 5);
    let q = QuantizedMlp::quantize(
        &wide,
        NumericFormat::Posit(PositFormat::new(16, 1).unwrap()),
    );
    let gw = Gateway::builder().workers(1).build();
    let key = gw.registry().register("wide", q).unwrap();
    let h = Arc::new(
        gw.try_submit_forward(&key, batch(&split, 20_000))
            .expect_admitted(),
    );
    let t0 = std::time::Instant::now();
    while h.stage() == RequestStage::Queued {
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(10),
            "never started"
        );
        std::thread::yield_now();
    }
    let waiters: Vec<_> = (0..2)
        .map(|i| {
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                if i == 0 {
                    h.wait()
                } else {
                    h.wait_timeout(std::time::Duration::from_secs(600))
                        .expect("resolves")
                }
            })
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert_eq!(h.stage(), RequestStage::Dispatched);
    assert!(!h.is_done());
    // Cancel rather than serve all 20k samples: the waiters see the
    // verdict and the remaining chunks are skipped.
    h.cancel();
    for w in waiters {
        assert_eq!(w.join().unwrap(), Err(GatewayError::Cancelled));
    }
    assert_eq!(h.stage(), RequestStage::Done);
    assert!(h.is_done());
    gw.wait_idle();
    assert_eq!(gw.snapshot().cancelled, 1);
}
