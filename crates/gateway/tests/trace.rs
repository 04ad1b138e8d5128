//! Flight-recorder conservation tests: every request that opens a trace
//! context resolves to **exactly one** terminal event, and the per-kind
//! terminal counts equal the Prometheus counters the gateway already
//! exports — the recorder and the metrics must never tell different
//! stories about the same traffic.

use deep_positron::train::{train, TrainConfig};
use deep_positron::{Mlp, NumericFormat, QuantizedMlp};
use dp_gateway::{Admission, Gateway, OverloadPolicy, SubmitOptions, TerminalKind, TraceConfig};
use dp_posit::PositFormat;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(10);

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

fn quantized(mlp: &Mlp) -> QuantizedMlp {
    QuantizedMlp::quantize(mlp, NumericFormat::Posit(PositFormat::new(8, 0).unwrap()))
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
fn trace_conservation_terminals_partition_and_match_prometheus_counters() {
    // Mixed outcomes in one run: completed, shed (ring full), expired
    // (deadline passed while queued), cancelled (while queued) and the
    // inline empty-batch completion. Every context must resolve exactly
    // once, with kind counts equal to the exported counters.
    let (mlp, split) = trained_iris();
    let gw = Gateway::builder()
        .workers(2)
        .chunk_samples(4)
        .queue_capacity(8)
        .policy(OverloadPolicy::ShedNewest)
        .trace(TraceConfig::every_request())
        .build();
    let key = gw.registry().register("iris", quantized(&mlp)).unwrap();
    let xs = batch(&split, 4);

    gw.pause_dispatch();
    let cap = gw.queue_capacity();
    let mut admitted = Vec::new();
    let mut shed = 0usize;
    for i in 0..2 * cap {
        let opts = if i == 1 || i == 2 {
            // Already-dead deadline: expires when a worker pops it.
            SubmitOptions::new().deadline(Instant::now())
        } else {
            SubmitOptions::new()
        };
        match gw.try_submit_forward_opts(&key, xs.clone(), opts) {
            Admission::Admitted(h) => admitted.push(h),
            Admission::QueueFull => shed += 1,
            other => panic!("unexpected verdict: {other:?}"),
        }
    }
    assert_eq!(admitted.len(), cap);
    assert_eq!(shed, cap);
    admitted[4].cancel();
    admitted[5].cancel();
    // Empty batch: resolves inline, still one context + one terminal.
    gw.try_submit_forward(&key, Vec::new()).expect_admitted();
    gw.resume_dispatch();
    for h in &admitted {
        h.wait_timeout(WAIT)
            .expect("no admitted handle may hang")
            .ok();
    }
    // Settle the gateway so both counters and recorder stats are final.
    gw.close();

    let snap = gw.snapshot();
    let stats = gw.recorder().expect("tracing is on").stats();

    // Contexts open for everything that passed the pre-admission screens:
    // the admitted requests, the shed-at-the-ring requests, and the
    // inline empty batch.
    assert_eq!(stats.begun, (cap + shed + 1) as u64);
    // Conservation: exactly one terminal per context, none duplicated.
    assert_eq!(stats.terminals_total(), stats.begun);
    assert_eq!(stats.dup_terminals, 0);
    // The kind partition equals the Prometheus counters.
    assert_eq!(stats.terminal(TerminalKind::Completed), snap.completed);
    assert_eq!(
        stats.terminal(TerminalKind::Expired),
        snap.deadline_exceeded
    );
    assert_eq!(stats.terminal(TerminalKind::Cancelled), snap.cancelled);
    assert_eq!(
        stats.terminal(TerminalKind::Shed),
        snap.shed_queue_full + snap.shed_evicted
    );
    assert_eq!(stats.terminal(TerminalKind::Failed), snap.failed);
    assert_eq!(
        stats.terminal(TerminalKind::Closed),
        snap.rejected_closed + snap.dropped_closed
    );
    assert_eq!(snap.deadline_exceeded, 2);
    assert_eq!(snap.cancelled, 2);
    assert_eq!(snap.shed_queue_full, cap as u64);

    // Published timelines are monotone through every reached stage.
    let timelines = gw.recorder().unwrap().timelines();
    assert!(!timelines.is_empty());
    let mut saw_complete = false;
    for t in &timelines {
        let stages = t.stages();
        for w in stages.windows(2) {
            assert!(
                w[0].1 <= w[1].1,
                "stage {} ({}) after {} ({}) in {:?}",
                w[0].0,
                w[0].1,
                w[1].0,
                w[1].1,
                t
            );
        }
        if t.terminal == TerminalKind::Completed && t.chunks_total > 0 {
            saw_complete = true;
            assert_eq!(t.chunks_done, t.chunks_total);
            assert!(t.admitted_ns <= t.dispatched_ns);
            assert!(t.dispatched_ns <= t.first_chunk_ns);
            assert!(t.first_chunk_ns <= t.resolved_ns);
        }
    }
    assert!(
        saw_complete,
        "at least one complete timeline: {timelines:?}"
    );
}

#[test]
fn sampled_out_requests_still_count_terminals_but_publish_nothing() {
    // sample_every = 0 turns publication off entirely (no slow threshold
    // either), yet conservation accounting still runs: the terminal
    // counters are live even when no timeline is retained.
    let (mlp, split) = trained_iris();
    let gw = Gateway::builder()
        .workers(2)
        .chunk_samples(4)
        .trace(TraceConfig {
            sample_every: 0,
            slow_threshold: Duration::ZERO,
            ..TraceConfig::default()
        })
        .build();
    let key = gw.registry().register("iris", quantized(&mlp)).unwrap();
    for _ in 0..5 {
        gw.try_submit_forward(&key, batch(&split, 4))
            .expect_admitted()
            .wait_timeout(WAIT)
            .expect("resolves")
            .expect("completes");
    }
    gw.close();
    let stats = gw.recorder().unwrap().stats();
    assert_eq!(stats.begun, 5);
    assert_eq!(stats.terminal(TerminalKind::Completed), 5);
    assert_eq!(stats.published, 0);
    assert!(gw.recorder().unwrap().timelines().is_empty());
}

#[test]
fn unregister_prunes_the_per_model_metrics_row() {
    // Regression (gateway-level): `registry().remove` left the per-model
    // metrics row behind forever; `Gateway::unregister` prunes it.
    let (mlp, split) = trained_iris();
    let gw = Gateway::builder().workers(1).chunk_samples(4).build();
    let key = gw.registry().register("iris", quantized(&mlp)).unwrap();
    gw.try_submit_forward(&key, batch(&split, 4))
        .expect_admitted()
        .wait_timeout(WAIT)
        .expect("resolves")
        .expect("completes");
    assert_eq!(gw.snapshot().per_model.len(), 1);

    assert!(gw.unregister(&key));
    assert!(!gw.unregister(&key), "second unregister is a no-op");
    assert!(gw.snapshot().per_model.is_empty());
    assert!(matches!(
        gw.try_submit_forward(&key, batch(&split, 1)),
        Admission::ModelUnknown(_)
    ));
    // The rejected probe must not resurrect the row.
    assert!(gw.snapshot().per_model.is_empty());
}

#[test]
fn tracing_off_means_no_recorder_and_no_context_allocation() {
    let (mlp, split) = trained_iris();
    let gw = Gateway::builder()
        .workers(1)
        .chunk_samples(4)
        .trace(TraceConfig::off())
        .build();
    let key = gw.registry().register("iris", quantized(&mlp)).unwrap();
    assert!(gw.recorder().is_none());
    gw.try_submit_forward(&key, batch(&split, 4))
        .expect_admitted()
        .wait_timeout(WAIT)
        .expect("resolves")
        .expect("completes");
    let snap = gw.snapshot();
    assert_eq!(snap.completed, 1);
}

#[test]
fn wire_trace_ids_flow_into_timelines_and_generated_ids_are_flagged() {
    let (mlp, split) = trained_iris();
    let gw = Gateway::builder()
        .workers(1)
        .chunk_samples(4)
        .trace(TraceConfig::every_request())
        .build();
    let key = gw.registry().register("iris", quantized(&mlp)).unwrap();
    // A wire-style submission carries its own request id.
    let received = Instant::now();
    gw.try_submit_forward_opts(
        &key,
        batch(&split, 4),
        SubmitOptions::new().traced_from(42, received),
    )
    .expect_admitted()
    .wait_timeout(WAIT)
    .expect("resolves")
    .expect("completes");
    // An in-process submission gets a generated id with the high bit set.
    gw.try_submit_forward(&key, batch(&split, 4))
        .expect_admitted()
        .wait_timeout(WAIT)
        .expect("resolves")
        .expect("completes");
    gw.close();

    let timelines = gw.recorder().unwrap().timelines();
    assert_eq!(timelines.len(), 2);
    let ids: Vec<u64> = timelines.iter().map(|t| t.req_id).collect();
    assert!(ids.contains(&42), "{ids:?}");
    assert!(
        ids.iter().any(|id| id & (1 << 63) != 0),
        "generated ids carry the high bit: {ids:?}"
    );
    let wire = timelines.iter().find(|t| t.req_id == 42).unwrap();
    assert!(
        wire.received_ns > 0 && wire.received_ns <= wire.admitted_ns,
        "wire timelines start at the receive stamp: {wire:?}"
    );
}
