//! Serving-engine throughput: the persistent `dp_serve` worker pool —
//! driven through its one front door, a `dp_gateway` ring with blocking
//! (`OverloadPolicy::Block`) submission and tracing off — against the
//! per-call scoped-thread batch engine, plus mixed-format traffic (posit +
//! minifloat + fixed interleaved through one pool) and single-request
//! latency.
//!
//! Run with `cargo bench --bench serving`. Writes the committed baseline
//! `BENCH_serving.json` at the repository root (`results/smoke/` under
//! `--smoke`).

use deep_positron::train::{train, TrainConfig};
use deep_positron::{Mlp, NumericFormat, QuantizedMlp};
use dp_bench::timing::{measure, out_path, render_measurements, smoke, write_json, Measurement};
use dp_fixed::FixedFormat;
use dp_gateway::{Gateway, OverloadPolicy, TraceConfig};
use dp_minifloat::FloatFormat;
use dp_posit::PositFormat;
use dp_serve::ModelKey;
use std::hint::black_box;

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
    let batch: Vec<Vec<f32>> = split
        .test
        .features
        .iter()
        .cycle()
        .take(if smoke() { 96 } else { 2000 })
        .cloned()
        .collect();
    let b = batch.len() as u64;
    let x = split.test.features[0].clone();

    let configs = [
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
    ];

    // One persistent engine serving every format from a single pool.
    let gateway = Gateway::builder()
        .policy(OverloadPolicy::Block)
        .trace(TraceConfig::off())
        .build();
    let keys: Vec<(&str, ModelKey, QuantizedMlp)> = configs
        .iter()
        .map(|(name, fmt)| {
            let q = QuantizedMlp::quantize(&mlp, *fmt);
            let key = gateway
                .registry()
                .register("iris", q.clone())
                .expect("bench formats have EMAC datapaths");
            (*name, key, q)
        })
        .collect();

    let mut rows: Vec<Measurement> = Vec::new();
    for (name, key, q) in &keys {
        // Per-call scoped-thread batch engine (the fallback path).
        rows.push(measure(&format!("{name}_scoped_batch{b}"), b, || {
            q.forward_batch(black_box(&batch)).len()
        }));
        // Persistent pool: admission + chunking + completion handle.
        rows.push(measure(&format!("{name}_engine_batch{b}"), b, || {
            gateway
                .submit_forward(key, black_box(batch.clone()))
                .expect_admitted()
                .wait()
                .expect("serving job")
                .len()
        }));
        // Single-request round trip through ring + handle (latency).
        rows.push(measure(&format!("{name}_engine_single"), 1, || {
            gateway
                .submit_forward(key, black_box(vec![x.clone()]))
                .expect_admitted()
                .wait()
                .expect("serving job")
                .len()
        }));
    }

    // Mixed traffic: all three formats admitted as one interleaved burst
    // of small batches against the same pool — the heterogeneous serving
    // scenario none of the per-call entry points can express.
    let requests = 12usize;
    let slice = batch.len() / requests;
    // The burst serves exactly requests × slice samples (the tail of
    // `batch` that does not fill a slice is left out of the workload).
    let burst_samples = (requests * slice) as u64;
    rows.push(measure("mixed3_engine_burst", burst_samples, || {
        let pending: Vec<_> = (0..requests)
            .map(|r| {
                let (_, key, _) = &keys[r % keys.len()];
                let xs = batch[r * slice..(r + 1) * slice].to_vec();
                gateway.submit_forward(key, xs).expect_admitted()
            })
            .collect();
        pending
            .into_iter()
            .map(|h| h.wait().expect("serving job").len())
            .sum::<usize>()
    }));

    println!("{}", render_measurements(&rows));

    let find = |name: &str| rows.iter().find(|m| m.name == name).unwrap();
    for (name, _, _) in &keys {
        let scoped = find(&format!("{name}_scoped_batch{b}"));
        let engine_row = find(&format!("{name}_engine_batch{b}"));
        println!(
            "{name}: persistent pool at {:.2}x the scoped-thread engine",
            scoped.ns_per_iter / engine_row.ns_per_iter
        );
    }

    let stats = gateway.engine().stats();
    let path = out_path("serving");
    let meta = [
        ("bench", "serving".to_string()),
        ("command", "cargo bench --bench serving".to_string()),
        ("topology", "iris 4-16-3".to_string()),
        ("batch", b.to_string()),
        ("workers", stats.workers.to_string()),
        ("jobs_run", stats.jobs_run.to_string()),
        (
            "note",
            "elems = inference samples; *_scoped_batch* is the per-call scoped-thread engine \
             (before), *_engine_batch* the persistent dp_serve pool behind a blocking dp_gateway \
             ring (after); mixed3_engine_burst interleaves posit/minifloat/fixed requests \
             through one pool"
                .to_string(),
        ),
    ];
    write_json(&path, &meta, &rows).expect("write BENCH_serving.json");
    println!("\nwrote {}", path.display());
}
