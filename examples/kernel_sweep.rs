//! Which slice-level MAC kernel serves each registered model?
//!
//! Trains one float MLP on Iris, quantizes it across the three format
//! families and all three kernel bands (n ≤ 8 product table, 9–16 batched
//! fused, > 16 scalar), registers everything in one `dp_gateway` gateway,
//! prints the row kernel each model's layers selected plus the tile
//! kernel the serving chunk width promotes it to, and verifies a served
//! batch stays bit-identical to per-sample `forward_bits` on every model.
//!
//! Run with `cargo run --release --example kernel_sweep`.

use deep_positron::train::{train, TrainConfig};
use deep_positron::{Mlp, NumericFormat, QuantizedMlp};
use dp_fixed::FixedFormat;
use dp_gateway::{Gateway, OverloadPolicy};
use dp_minifloat::FloatFormat;
use dp_posit::PositFormat;

fn main() {
    let split = dp_datasets::iris::load(17).split(50, 17).normalized();
    let mut mlp = Mlp::new(&[4, 12, 3], 17);
    train(
        &mut mlp,
        &split.train,
        TrainConfig {
            epochs: 60,
            batch_size: 8,
            lr: 0.01,
            seed: 17,
        },
    );

    let formats = [
        NumericFormat::Posit(PositFormat::new(8, 0).unwrap()),
        NumericFormat::Posit(PositFormat::new(16, 1).unwrap()),
        NumericFormat::Posit(PositFormat::new(17, 1).unwrap()),
        NumericFormat::Float(FloatFormat::new(4, 3).unwrap()),
        NumericFormat::Float(FloatFormat::new(5, 10).unwrap()),
        NumericFormat::Fixed(FixedFormat::new(8, 5).unwrap()),
        NumericFormat::Fixed(FixedFormat::new(16, 10).unwrap()),
    ];

    let chunk_samples = 32;
    let gateway = Gateway::builder()
        .chunk_samples(chunk_samples)
        .policy(OverloadPolicy::Block)
        .build();
    println!("kernel selection per registered model (layer dims 4-12-3):\n");
    println!(
        "{:<22} {:>6}  {:<34} tile kernel (chunk = {chunk_samples})",
        "model", "bits", "row kernel (one per layer)"
    );
    let mut models = Vec::new();
    for fmt in formats {
        let q = QuantizedMlp::quantize(&mlp, fmt);
        let kernels = q.layer_kernels().expect("low-precision format");
        let tiles = q
            .layer_tile_kernels(chunk_samples)
            .expect("low-precision format");
        let key = gateway
            .registry()
            .register("iris", q.clone())
            .expect("all sweep formats have EMAC datapaths");
        let rendered: Vec<String> = kernels.iter().map(|k| k.to_string()).collect();
        let tile_rendered: Vec<String> = tiles.iter().map(|k| k.to_string()).collect();
        println!(
            "{:<22} {:>6}  {:<34} {}",
            key.to_string(),
            fmt.n(),
            rendered.join(", "),
            tile_rendered.join(", ")
        );
        models.push((key, q));
    }

    // Every model serves a batch bit-identically to forward_bits — the
    // kernels are a speed story, never a numerics story.
    let batch: Vec<Vec<f32>> = split.test.features.iter().take(40).cloned().collect();
    for (key, q) in &models {
        let served = gateway
            .submit_forward(key, batch.clone())
            .expect_admitted()
            .wait()
            .expect("serving succeeded");
        let reference: Vec<Vec<u32>> = batch.iter().map(|x| q.forward_bits(x)).collect();
        assert_eq!(served, reference, "{key}: served != forward_bits");
    }
    println!(
        "\nverified: {} models × {} samples served bit-identical to forward_bits",
        models.len(),
        batch.len()
    );
}
