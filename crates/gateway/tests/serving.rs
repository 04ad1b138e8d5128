//! Integration tests of the serving engine behind the gateway: one
//! persistent engine serving interleaved posit/minifloat/fixed traffic,
//! bit-identical to per-sample `forward_bits`, with typed admission
//! errors, panic isolation and draining shutdown.

use deep_positron::train::{train, TrainConfig};
use deep_positron::{Mlp, NumericFormat, QuantizedMlp};
use dp_fixed::FixedFormat;
use dp_gateway::{Admission, Gateway, GatewayError, RequestStage};
use dp_minifloat::FloatFormat;
use dp_posit::PositFormat;
use dp_serve::{JobError, ModelKey, PanicBudget, RegistryError};
use std::time::Duration;

fn trained_iris() -> (Mlp, dp_datasets::TrainTest) {
    let split = dp_datasets::iris::load(77).split(50, 77).normalized();
    let mut mlp = Mlp::new(&[4, 8, 3], 77);
    train(
        &mut mlp,
        &split.train,
        TrainConfig {
            epochs: 30,
            batch_size: 16,
            lr: 0.02,
            seed: 77,
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

/// A gateway small enough that chunk splitting and sharing the workers
/// between requests actually happen on the test workload.
fn test_gateway() -> Gateway {
    Gateway::builder()
        .workers(4)
        .chunk_samples(8)
        .queue_capacity(64)
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

/// A sample one feature short of the iris model's input width. The
/// gateway does not check input widths, so evaluating it panics inside
/// a worker (the tile kernel's column/weight length check) — a real
/// in-chunk panic, with no fault injection compiled in.
fn malformed() -> Vec<Vec<f32>> {
    vec![vec![0.0; 3]]
}

#[test]
fn mixed_format_traffic_is_bit_identical_to_forward_bits() {
    let (mlp, split) = trained_iris();
    let gw = test_gateway();
    let models: Vec<(ModelKey, QuantizedMlp)> = mixed_formats()
        .into_iter()
        .map(|fmt| {
            let q = QuantizedMlp::quantize(&mlp, fmt);
            (gw.registry().register("iris", q.clone()).unwrap(), q)
        })
        .collect();
    assert_eq!(gw.registry().len(), 3);
    assert_eq!(gw.registry().formats_of("iris").len(), 3);

    // 60 samples per format, admitted as one interleaved burst so the
    // three formats genuinely share the workers.
    let xs = batch(&split, 60);
    let forwards: Vec<_> = models
        .iter()
        .map(|(key, _)| gw.try_submit_forward(key, xs.clone()).expect_admitted())
        .collect();
    let classifies: Vec<_> = models
        .iter()
        .map(|(key, _)| gw.try_submit_classify(key, xs.clone()).expect_admitted())
        .collect();

    for (((key, q), forward), classes) in models.iter().zip(forwards).zip(classifies) {
        let direct: Vec<Vec<u32>> = xs.iter().map(|x| q.forward_bits(x)).collect();
        assert_eq!(forward.wait().unwrap(), direct, "{key}: bits diverged");
        let direct_classes: Vec<usize> = xs.iter().map(|x| q.infer(x)).collect();
        assert_eq!(
            classes.wait().unwrap(),
            direct_classes,
            "{key}: classes diverged"
        );
    }
    gw.wait_idle();
    // 60 samples in 8-sample chunks: 8 chunks per request, 6 requests.
    assert_eq!(gw.engine().stats().jobs_run, 3 * 2 * 60_u64.div_ceil(8));
    assert_eq!(gw.engine().stats().panics, 0);
}

#[test]
fn single_sample_requests_match_batch_path() {
    let (mlp, split) = trained_iris();
    let gw = test_gateway();
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    let key = gw.registry().register("iris", q.clone()).unwrap();
    let x = split.test.features[3].clone();
    let bits = gw
        .try_submit_forward(&key, vec![x.clone()])
        .expect_admitted()
        .wait()
        .unwrap();
    assert_eq!(bits, vec![q.forward_bits(&x)]);
    let class = gw
        .try_submit_classify(&key, vec![x.clone()])
        .expect_admitted()
        .wait()
        .unwrap();
    assert_eq!(class, vec![q.infer(&x)]);
}

#[test]
fn engine_accuracy_matches_batch_accuracy() {
    let (mlp, split) = trained_iris();
    let gw = test_gateway();
    let served_accuracy = |key: &ModelKey| {
        let preds = gw
            .try_submit_classify(key, split.test.features.clone())
            .expect_admitted()
            .wait()
            .unwrap();
        let correct = preds
            .iter()
            .zip(&split.test.labels)
            .filter(|(p, y)| p == y)
            .count();
        correct as f64 / split.test.len() as f64
    };
    for fmt in mixed_formats() {
        let q = QuantizedMlp::quantize(&mlp, fmt);
        let key = gw.registry().register("iris", q.clone()).unwrap();
        assert_eq!(served_accuracy(&key), q.accuracy(&split.test), "{key}");
    }
    // The f32 baseline classifies through the gateway too.
    let f32_model = QuantizedMlp::quantize(&mlp, NumericFormat::F32);
    let key = gw.registry().register("iris", f32_model.clone()).unwrap();
    assert_eq!(served_accuracy(&key), f32_model.accuracy(&split.test));
}

#[test]
fn admission_errors_are_reported() {
    let (mlp, _) = trained_iris();
    let gw = test_gateway();
    let missing = ModelKey::new("ghost", "posit<8,0>");
    assert!(matches!(
        gw.try_submit_classify(&missing, vec![vec![0.0; 4]]),
        Admission::ModelUnknown(k) if k == missing
    ));
    // Raw EMAC activations are undefined for the f32 baseline, for a
    // batch and for a single sample alike.
    let key = gw
        .registry()
        .register("iris", QuantizedMlp::quantize(&mlp, NumericFormat::F32))
        .unwrap();
    assert!(matches!(
        gw.try_submit_forward(&key, vec![vec![0.0; 4]; 5]),
        Admission::Unsupported(_)
    ));
    assert!(matches!(
        gw.submit_forward(&key, vec![vec![0.0; 4]]),
        Admission::Unsupported(_)
    ));
    let snap = gw.snapshot();
    assert_eq!(snap.submitted, 3);
    assert_eq!(snap.model_unknown, 1);
    assert_eq!(snap.unsupported, 2);
    assert_eq!(snap.admitted, 0);
}

#[test]
fn unsupported_model_is_rejected_at_registration_not_in_a_worker() {
    // A posit<8,6> model (es > n − 3, no EMAC datapath) must fail
    // registration with a typed error, leave the registry unchanged, and
    // keep the workers fully healthy for other traffic.
    let (mlp, split) = trained_iris();
    let gw = test_gateway();
    let bad = QuantizedMlp::quantize(&mlp, NumericFormat::Posit(PositFormat::new(8, 6).unwrap()));
    let err = gw.registry().register("iris", bad).unwrap_err();
    assert!(matches!(
        &err,
        RegistryError::UnsupportedModel { key, .. }
            if key == &ModelKey::new("iris", "posit<8,6>")
    ));
    assert!(err.to_string().contains("es <= n-3"), "{err}");
    assert!(gw.registry().is_empty());
    // And the key is unknown at admission — a typed verdict, not a panic.
    let ghost = ModelKey::new("iris", "posit<8,6>");
    assert!(matches!(
        gw.try_submit_forward(&ghost, vec![vec![0.0; 4]]),
        Admission::ModelUnknown(_)
    ));
    // No worker ever saw a panicking chunk; healthy traffic still serves.
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    let key = gw.registry().register("iris", q.clone()).unwrap();
    let served = gw
        .try_submit_forward(&key, split.test.features.clone())
        .expect_admitted()
        .wait()
        .unwrap();
    let direct: Vec<Vec<u32>> = split
        .test
        .features
        .iter()
        .map(|x| q.forward_bits(x))
        .collect();
    assert_eq!(served, direct);
    gw.wait_idle();
    assert_eq!(gw.engine().stats().panics, 0);
}

#[test]
fn panicking_job_poisons_only_its_own_handle() {
    let (mlp, split) = trained_iris();
    let gw = test_gateway();
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    let key = gw.registry().register("iris", q.clone()).unwrap();

    let poisoned = gw.try_submit_forward(&key, malformed()).expect_admitted();
    let healthy = gw
        .try_submit_classify(&key, split.test.features.clone())
        .expect_admitted();

    assert_eq!(poisoned.wait(), Err(GatewayError::Job(JobError::Panicked)));
    // The concurrent request and the engine itself are unaffected.
    let preds = healthy.wait().unwrap();
    assert_eq!(preds.len(), split.test.len());
    // The handle resolves before the worker's unwind finishes; wait_idle
    // waits for every chunk to settle with the pool.
    gw.wait_idle();
    assert_eq!(gw.engine().stats().panics, 1);
    let snap = gw.snapshot();
    assert_eq!(snap.failed, 1);
    assert_eq!(snap.completed, 1);
    let x = split.test.features[0].clone();
    let again = gw
        .try_submit_classify(&key, vec![x.clone()])
        .expect_admitted();
    assert_eq!(again.wait().unwrap(), vec![q.infer(&x)]);
}

#[test]
fn panic_budget_degrades_admission_and_reset_restores_it() {
    let (mlp, split) = trained_iris();
    let gw = Gateway::builder()
        .workers(1)
        .chunk_samples(4)
        .queue_capacity(8)
        .panic_budget(PanicBudget {
            max_panics: 1,
            window: Duration::from_secs(30),
        })
        .build();
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    let key = gw.registry().register("iris", q).unwrap();

    // Two panicking chunks blow the budget of one.
    for _ in 0..2 {
        let h = gw.try_submit_forward(&key, malformed()).expect_admitted();
        assert_eq!(h.wait(), Err(GatewayError::Job(JobError::Panicked)));
        // The worker notes the panic after the handle resolves.
        gw.wait_idle();
    }
    assert!(gw.is_degraded());
    assert!(matches!(
        gw.try_submit_forward(&key, batch(&split, 4)),
        Admission::Degraded
    ));
    let snap = gw.snapshot();
    assert!(snap.degraded);
    assert_eq!(snap.rejected_degraded, 1);

    // Operator reset: admission works again end to end.
    gw.reset_degraded();
    assert!(!gw.is_degraded());
    let h = gw
        .try_submit_forward(&key, batch(&split, 4))
        .expect_admitted();
    h.wait().unwrap();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    // Forward and classify requests of every format in flight at once;
    // shutting down right away must still complete each of them.
    let (mlp, split) = trained_iris();
    let gw = Gateway::builder()
        .workers(2)
        .chunk_samples(4)
        .queue_capacity(16)
        .build();
    let xs = batch(&split, 100);
    let mut forwards = Vec::new();
    let mut classifies = Vec::new();
    for fmt in mixed_formats() {
        let q = QuantizedMlp::quantize(&mlp, fmt);
        let key = gw.registry().register("iris", q.clone()).unwrap();
        forwards.push((
            q.clone(),
            gw.try_submit_forward(&key, xs.clone()).expect_admitted(),
        ));
        classifies.push((
            q,
            gw.try_submit_classify(&key, xs.clone()).expect_admitted(),
        ));
    }
    gw.shutdown();
    for (q, h) in forwards {
        let direct: Vec<Vec<u32>> = xs.iter().map(|x| q.forward_bits(x)).collect();
        assert_eq!(h.wait().unwrap(), direct);
    }
    for (q, h) in classifies {
        let direct: Vec<usize> = xs.iter().map(|x| q.infer(x)).collect();
        assert_eq!(h.wait().unwrap(), direct);
    }
}

#[test]
fn wait_after_pool_drained_still_returns_the_result() {
    // The pool can go fully idle (every chunk settled, the assembled
    // result parked in the handle) long before the caller waits.
    let (mlp, split) = trained_iris();
    let gw = test_gateway();
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    let key = gw.registry().register("iris", q.clone()).unwrap();
    let xs = split.test.features.clone();
    let handle = gw.try_submit_forward(&key, xs.clone()).expect_admitted();
    gw.wait_idle();
    assert_eq!(gw.queue_depth(), 0);
    assert_eq!(
        gw.engine().stats().jobs_run,
        xs.len().div_ceil(gw.engine().chunk_samples()) as u64
    );
    assert_eq!(handle.stage(), RequestStage::Done);
    let direct: Vec<Vec<u32>> = xs.iter().map(|x| q.forward_bits(x)).collect();
    assert_eq!(handle.wait().unwrap(), direct);
}

#[test]
fn poll_transitions_from_pending_to_ready() {
    let (mlp, split) = trained_iris();
    let gw = test_gateway();
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    let key = gw.registry().register("iris", q.clone()).unwrap();
    gw.pause_dispatch();
    let handle = gw
        .try_submit_classify(&key, split.test.features.clone())
        .expect_admitted();
    assert_eq!(handle.poll(), None, "pending while dispatch is paused");
    assert_eq!(handle.stage(), RequestStage::Queued);
    gw.resume_dispatch();
    gw.wait_idle();
    assert!(handle.is_done());
    let polled = handle.poll().expect("done after wait_idle");
    let direct: Vec<usize> = split.test.features.iter().map(|x| q.infer(x)).collect();
    assert_eq!(polled.unwrap(), direct);
    // Cached: a second poll returns the same result.
    assert_eq!(handle.poll(), Some(Ok(direct)));
}

#[test]
fn empty_batch_completes_immediately() {
    let (mlp, _) = trained_iris();
    let gw = test_gateway();
    let key = gw
        .registry()
        .register("iris", QuantizedMlp::quantize(&mlp, mixed_formats()[0]))
        .unwrap();
    // Paused dispatch proves no worker is involved.
    gw.pause_dispatch();
    let forward = gw.try_submit_forward(&key, Vec::new()).expect_admitted();
    let classify = gw.try_submit_classify(&key, Vec::new()).expect_admitted();
    assert_eq!(forward.poll(), Some(Ok(Vec::<Vec<u32>>::new())));
    assert_eq!(classify.poll(), Some(Ok(Vec::<usize>::new())));
    assert_eq!(gw.queue_depth(), 0);
    gw.resume_dispatch();
    gw.wait_idle();
    assert_eq!(gw.engine().stats().jobs_run, 0);
    assert_eq!(gw.snapshot().completed, 2);
}
