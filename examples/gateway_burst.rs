//! Mixed-format traffic at 2× gateway capacity: load shedding in action.
//!
//! Trains one float MLP on Iris, quantizes it into the paper's three
//! 8-bit families (posit, minifloat, fixed), registers all of them behind
//! a `dp_gateway` with a deliberately small submission ring, then slams
//! the gateway with a burst of twice its capacity while dispatch is
//! paused. The overload policy sheds the overflow with typed verdicts
//! (nothing blocks, nothing hangs); the admitted half completes
//! bit-identically to per-sample `forward_bits`, and the metrics snapshot
//! accounts for every single request.
//!
//! Run with `cargo run --release --example gateway_burst`.

use deep_positron::train::{train, TrainConfig};
use deep_positron::{Mlp, NumericFormat, QuantizedMlp};
use dp_fixed::FixedFormat;
use dp_gateway::{Admission, Gateway, GatewayError, OverloadPolicy, RateLimit};
use dp_minifloat::FloatFormat;
use dp_posit::PositFormat;
use std::time::Instant;

fn main() {
    let split = dp_datasets::iris::load(5).split(50, 5).normalized();
    let mut mlp = Mlp::new(&[4, 16, 3], 5);
    train(
        &mut mlp,
        &split.train,
        TrainConfig {
            epochs: 60,
            batch_size: 8,
            lr: 0.01,
            seed: 5,
        },
    );

    let capacity = 12usize;
    let gw = Gateway::builder()
        .chunk_samples(16)
        .queue_capacity(capacity)
        .policy(OverloadPolicy::ShedNewest)
        .rate_limit("iris", RateLimit::per_sec(1_000_000.0))
        .build();
    println!(
        "gateway: {} worker(s), ring capacity {capacity} requests, policy {}\n",
        gw.engine().workers(),
        gw.policy().as_str()
    );

    let formats = [
        NumericFormat::Posit(PositFormat::new(8, 0).unwrap()),
        NumericFormat::Float(FloatFormat::new(4, 3).unwrap()),
        NumericFormat::Fixed(FixedFormat::new(8, 5).unwrap()),
    ];
    let models: Vec<(dp_serve::ModelKey, QuantizedMlp)> = formats
        .into_iter()
        .map(|fmt| {
            let q = QuantizedMlp::quantize(&mlp, fmt);
            let key = gw
                .registry()
                .register("iris", q.clone())
                .expect("paper formats have EMAC datapaths");
            (key, q)
        })
        .collect();
    for key in gw.registry().keys() {
        println!("registered {key}");
    }

    // The burst: 2× ring capacity, round-robin across the three formats,
    // landing while dispatch is paused so the ring genuinely fills (on an
    // idle machine the workers would otherwise keep up with us).
    let request: Vec<Vec<f32>> = split
        .test
        .features
        .iter()
        .cycle()
        .take(32)
        .cloned()
        .collect();
    let burst = 2 * capacity;
    gw.pause_dispatch();
    let t = Instant::now();
    let mut admitted = Vec::new();
    let mut shed = 0usize;
    for r in 0..burst {
        let (key, _) = &models[r % models.len()];
        match gw.try_submit_forward(key, request.clone()) {
            Admission::Admitted(handle) => admitted.push((r, handle)),
            Admission::QueueFull => shed += 1,
            other => panic!("unexpected verdict: {other:?}"),
        }
    }
    let admit_elapsed = t.elapsed();
    println!(
        "\nburst: {burst} requests submitted in {:.1} µs ({:.1} ns/verdict, never blocking)",
        admit_elapsed.as_secs_f64() * 1e6,
        admit_elapsed.as_nanos() as f64 / burst as f64
    );
    println!(
        "  admitted {} (ring capacity), shed {shed} with typed QueueFull verdicts",
        admitted.len()
    );
    assert_eq!(admitted.len() + shed, burst);

    gw.resume_dispatch();
    let mut served_samples = 0usize;
    for (r, handle) in admitted {
        let (key, q) = &models[r % models.len()];
        match handle.wait() {
            Ok(bits) => {
                let direct: Vec<Vec<u32>> = request.iter().map(|x| q.forward_bits(x)).collect();
                assert_eq!(bits, direct, "{key}: gateway output diverged");
                served_samples += bits.len();
            }
            Err(GatewayError::Shed) => unreachable!("ShedNewest never evicts admitted requests"),
            Err(e) => panic!("{key}: {e}"),
        }
    }
    gw.wait_idle();
    println!(
        "  admitted half served {served_samples} samples, all bit-identical to forward_bits ✓"
    );

    let snap = gw.snapshot();
    assert_eq!(snap.admitted + snap.shed_total(), snap.submitted);
    println!(
        "\naccounting: submitted {} = admitted {} + shed {} (completed {}, failed {})",
        snap.submitted,
        snap.admitted,
        snap.shed_total(),
        snap.completed,
        snap.failed
    );
    println!("\nlive metrics snapshot:\n{}", snap.to_json());
}
