//! Quantized Deep Positron inference through EMAC units.
//!
//! A trained 32-bit float [`Mlp`] is quantized per format: weights and
//! biases become bit patterns, and each neuron evaluates
//! `round(bias + Σ wᵢ·aᵢ)` on an exact multiply-and-accumulate unit —
//! precisely the computation of the paper's per-layer EMAC arrays (Fig. 1).
//! An *inexact* per-op rounding path is also provided, for the ablation
//! quantifying how much the EMAC's delayed rounding matters (paper §III-A).
//!
//! ## Batch engine
//!
//! Weights are stored as one contiguous row-major pattern array per layer,
//! so a whole layer streams through the cache linearly. Dataset-scale
//! entry points ([`QuantizedMlp::forward_batch`],
//! [`QuantizedMlp::infer_batch`], [`QuantizedMlp::accuracy`]) partition
//! samples across threads; each thread builds its per-layer EMAC array
//! once and sweeps its whole contiguous chunk through
//! [`QuantizedMlp::forward_batch_bits_with`], which evaluates each layer
//! across the entire chunk before advancing — every neuron's weight row is
//! fed to [`dp_emac::Emac::dot_tile`] exactly once per layer, so the
//! weight-stationary tile kernels amortize operand gather and product-table
//! traffic across the batch the way a hardware EMAC array is amortized
//! across a request stream. Results are bit-identical to per-sample
//! [`QuantizedMlp::forward_bits`] (the tile contract).
//!
//! Partitioning policy (thread counts, chunking, the scoped-thread
//! fallback) lives in [`crate::batch`]; the persistent serving path —
//! long-lived worker pool and a multi-format model registry — is the
//! `dp_serve` crate, which runs the same
//! [`QuantizedMlp::forward_batch_bits_with`] tile sweep over each chunk
//! and therefore stays bit-identical too.

pub use crate::batch::batch_threads;
use crate::batch::{par_chunk_map_with, par_map_with};
use crate::format::NumericFormat;
use crate::mlp::Mlp;
use crate::tensor::argmax;
use dp_datasets::Dataset;
use dp_emac::{Emac, EmacUnit};

/// One quantized dense layer: contiguous row-major weight patterns plus
/// per-neuron biases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantizedLayer {
    fan_in: usize,
    fan_out: usize,
    /// Row-major `fan_out × fan_in` weight patterns (neuron `j`'s weights
    /// occupy `weights[j*fan_in .. (j+1)*fan_in]`).
    weights: Vec<u32>,
    /// Per-neuron bias patterns.
    biases: Vec<u32>,
}

impl QuantizedLayer {
    /// Builds a layer from a contiguous row-major weight array.
    ///
    /// # Panics
    ///
    /// Panics unless `weights.len() == fan_in × fan_out` and
    /// `biases.len() == fan_out`.
    pub fn new(fan_in: usize, fan_out: usize, weights: Vec<u32>, biases: Vec<u32>) -> Self {
        assert_eq!(weights.len(), fan_in * fan_out, "weight array shape");
        assert_eq!(biases.len(), fan_out, "bias array shape");
        QuantizedLayer {
            fan_in,
            fan_out,
            weights,
            biases,
        }
    }

    /// Builds a layer from per-neuron weight rows (all rows must share one
    /// length).
    ///
    /// # Panics
    ///
    /// Panics on ragged rows or a bias/row-count mismatch.
    pub fn from_rows(rows: &[Vec<u32>], biases: Vec<u32>) -> Self {
        let fan_out = rows.len();
        let fan_in = rows.first().map_or(0, |r| r.len());
        let mut weights = Vec::with_capacity(fan_in * fan_out);
        for row in rows {
            assert_eq!(row.len(), fan_in, "ragged weight rows");
            weights.extend_from_slice(row);
        }
        Self::new(fan_in, fan_out, weights, biases)
    }

    /// Fan-in of the layer.
    pub fn fan_in(&self) -> usize {
        self.fan_in
    }

    /// Fan-out (neuron count).
    pub fn fan_out(&self) -> usize {
        self.fan_out
    }

    /// The contiguous row-major weight patterns.
    pub fn weights(&self) -> &[u32] {
        &self.weights
    }

    /// Neuron `j`'s weight row.
    ///
    /// # Panics
    ///
    /// Panics if `j >= fan_out`.
    pub fn weight_row(&self, j: usize) -> &[u32] {
        &self.weights[j * self.fan_in..(j + 1) * self.fan_in]
    }

    /// Iterator over the per-neuron weight rows (always exactly
    /// [`QuantizedLayer::fan_out`] of them, even in the degenerate
    /// `fan_in == 0` case).
    pub fn weight_rows(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.fan_out).map(|j| self.weight_row(j))
    }

    /// Per-neuron bias patterns.
    pub fn biases(&self) -> &[u32] {
        &self.biases
    }

    /// Mutable view of neuron `j`'s weight row (weight surgery, fault
    /// injection).
    ///
    /// # Panics
    ///
    /// Panics if `j >= fan_out`.
    pub fn weight_row_mut(&mut self, j: usize) -> &mut [u32] {
        &mut self.weights[j * self.fan_in..(j + 1) * self.fan_in]
    }

    /// Mutable view of the bias patterns.
    pub fn biases_mut(&mut self) -> &mut [u32] {
        &mut self.biases
    }
}

/// A quantized MLP bound to a [`NumericFormat`].
#[derive(Debug, Clone)]
pub struct QuantizedMlp {
    /// The inference format.
    pub format: NumericFormat,
    /// Quantized layers, input to output.
    pub layers: Vec<QuantizedLayer>,
}

impl QuantizedMlp {
    /// Quantizes a trained float network into `format`.
    pub fn quantize(mlp: &Mlp, format: NumericFormat) -> Self {
        let layers = mlp
            .layers
            .iter()
            .map(|l| {
                let (fan_in, fan_out) = (l.fan_in(), l.fan_out());
                let mut weights = Vec::with_capacity(fan_in * fan_out);
                for j in 0..fan_out {
                    weights.extend(l.w.row(j).iter().map(|&w| format.quantize(w)));
                }
                QuantizedLayer::new(
                    fan_in,
                    fan_out,
                    weights,
                    l.b.iter().map(|&b| format.quantize(b)).collect(),
                )
            })
            .collect();
        QuantizedMlp { format, layers }
    }

    /// Quantizes an input feature vector.
    pub fn quantize_input(&self, x: &[f32]) -> Vec<u32> {
        x.iter().map(|&v| self.format.quantize(v)).collect()
    }

    /// One EMAC per layer, sized for that layer's fan-in, or `None` for
    /// the `F32` baseline. Batch callers build this once per thread and
    /// reuse it across samples.
    ///
    /// # Panics
    ///
    /// Panics when the format has no EMAC datapath (e.g. a posit with
    /// `es > n − 3`); registries and other untrusted entry points should
    /// gate on [`QuantizedMlp::try_make_layer_emacs`] first.
    pub fn make_layer_emacs(&self) -> Option<Vec<EmacUnit>> {
        self.try_make_layer_emacs()
            .expect("format has no EMAC datapath (see try_make_layer_emacs)")
    }

    /// [`QuantizedMlp::make_layer_emacs`] with a typed error instead of a
    /// panic: `Ok(None)` for the `F32` baseline, `Err` when the format
    /// has no EMAC datapath for some layer. `dp_serve`'s model registry
    /// calls this at registration time so an unsupported model is
    /// rejected up front rather than panicking a pool worker mid-request.
    ///
    /// # Errors
    ///
    /// [`dp_emac::UnsupportedFormat`] naming the offending format/layer
    /// pairing.
    pub fn try_make_layer_emacs(
        &self,
    ) -> Result<Option<Vec<EmacUnit>>, dp_emac::UnsupportedFormat> {
        if matches!(self.format, NumericFormat::F32) {
            return Ok(None);
        }
        self.layers
            .iter()
            .map(|l| {
                self.format
                    .try_make_emac(l.fan_in() as u64)
                    .map(|unit| unit.expect("low-precision formats yield an EMAC"))
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Some)
    }

    /// EMAC inference: each neuron seeds its accumulator with the bias,
    /// streams one exact MAC per input, rounds once, then applies ReLU
    /// (identity on the readout layer). Returns the output activations as
    /// bit patterns.
    pub fn forward_bits(&self, x: &[f32]) -> Vec<u32> {
        let mut emacs = self
            .make_layer_emacs()
            .expect("EMAC inference requires a low-precision format");
        self.forward_bits_with(&mut emacs, x)
    }

    /// [`QuantizedMlp::forward_bits`] with caller-owned EMACs (one per
    /// layer, as built by [`QuantizedMlp::make_layer_emacs`]); the batch
    /// engine's inner loop.
    ///
    /// Each neuron feeds its whole contiguous weight row to
    /// [`dp_emac::Emac::dot_slice`], so the unit runs its slice-level
    /// [`dp_emac::MacKernel`] (finished-product table at ≤ 8 bits, batched
    /// fused-operand gather at ≤ 16) instead of one `mac()` dispatch per
    /// weight — bit-identical to the scalar loop by the kernel contract.
    pub fn forward_bits_with(&self, emacs: &mut [EmacUnit], x: &[f32]) -> Vec<u32> {
        debug_assert_eq!(emacs.len(), self.layers.len());
        let mut acts = self.quantize_input(x);
        let last = self.layers.len() - 1;
        for (li, (layer, emac)) in self.layers.iter().zip(emacs).enumerate() {
            let mut next = Vec::with_capacity(layer.fan_out());
            for (wrow, &bias) in layer.weight_rows().zip(layer.biases()) {
                emac.set_bias(bias);
                emac.dot_slice(wrow, &acts);
                let mut out = emac.result();
                if li != last {
                    out = self.format.relu_bits(out);
                }
                next.push(out);
            }
            acts = next;
        }
        acts
    }

    /// The slice-level [`dp_emac::MacKernel`] each layer's EMAC selected
    /// (in layer order), or `None` for the `F32` baseline — serving
    /// introspection for registries, reports and the `kernel_sweep`
    /// example.
    ///
    /// # Panics
    ///
    /// Panics when the format has no EMAC datapath, like
    /// [`QuantizedMlp::make_layer_emacs`].
    pub fn layer_kernels(&self) -> Option<Vec<dp_emac::MacKernel>> {
        self.make_layer_emacs()
            .map(|emacs| emacs.iter().map(|u| u.kernel()).collect())
    }

    /// The tile-level [`dp_emac::TileKernel`] each layer's EMAC runs when
    /// [`QuantizedMlp::forward_batch_bits_with`] sweeps a chunk of `batch`
    /// samples (in layer order), or `None` for the `F32` baseline. `batch
    /// ≤ 1` reports the per-column wrap of [`QuantizedMlp::layer_kernels`].
    ///
    /// # Panics
    ///
    /// Panics when the format has no EMAC datapath, like
    /// [`QuantizedMlp::make_layer_emacs`].
    pub fn layer_tile_kernels(&self, batch: usize) -> Option<Vec<dp_emac::TileKernel>> {
        self.make_layer_emacs()
            .map(|emacs| emacs.iter().map(|u| u.tile_kernel(batch)).collect())
    }

    /// Whole-chunk EMAC inference with caller-owned EMACs: evaluates each
    /// layer across **all** of `xs` before advancing to the next, feeding
    /// every neuron's weight row to [`dp_emac::Emac::dot_tile`] once per
    /// layer so the tile kernels gather fused operands or cache-block the
    /// product table across the batch. Per sample, the output is
    /// bit-identical to [`QuantizedMlp::forward_bits_with`] (the tile
    /// contract); this is the batch engine's and the serving chunk path's
    /// inner loop.
    pub fn forward_batch_bits_with(
        &self,
        emacs: &mut [EmacUnit],
        xs: &[Vec<f32>],
    ) -> Vec<Vec<u32>> {
        debug_assert_eq!(emacs.len(), self.layers.len());
        if xs.is_empty() {
            return Vec::new();
        }
        let b = xs.len();
        let mut acts: Vec<Vec<u32>> = xs.iter().map(|x| self.quantize_input(x)).collect();
        let last = self.layers.len() - 1;
        let mut row_out = vec![0u32; b];
        for (li, (layer, emac)) in self.layers.iter().zip(emacs).enumerate() {
            let cols: Vec<&[u32]> = acts.iter().map(|a| a.as_slice()).collect();
            let mut next: Vec<Vec<u32>> = vec![Vec::with_capacity(layer.fan_out()); b];
            for (wrow, &bias) in layer.weight_rows().zip(layer.biases()) {
                emac.dot_tile(bias, wrow, &cols, &mut row_out);
                for (&out, sample) in row_out.iter().zip(next.iter_mut()) {
                    sample.push(if li != last {
                        self.format.relu_bits(out)
                    } else {
                        out
                    });
                }
            }
            acts = next;
        }
        acts
    }

    /// Predicted classes for a whole chunk via the tile sweep — the
    /// classify counterpart of [`QuantizedMlp::forward_batch_bits_with`],
    /// used by [`QuantizedMlp::infer_batch`]. Agrees with per-sample
    /// [`QuantizedMlp::infer_with`] exactly.
    pub fn infer_batch_with(&self, emacs: &mut [EmacUnit], xs: &[Vec<f32>]) -> Vec<usize> {
        self.forward_batch_bits_with(emacs, xs)
            .iter()
            .map(|bits| self.argmax_bits(bits))
            .collect()
    }

    /// EMAC inference over a whole batch, bit-identical to calling
    /// [`QuantizedMlp::forward_bits`] per sample but with the samples
    /// partitioned across threads, per-layer EMACs reused within each
    /// thread, and each thread's chunk evaluated as one weight-stationary
    /// tile sweep per layer ([`QuantizedMlp::forward_batch_bits_with`]).
    ///
    /// Thread count defaults to the machine's available parallelism
    /// (capped by the batch size) and can be pinned with the
    /// `DEEP_POSITRON_THREADS` environment variable.
    ///
    /// # Panics
    ///
    /// Panics for the `F32` baseline (which has no EMAC datapath).
    pub fn forward_batch(&self, xs: &[Vec<f32>]) -> Vec<Vec<u32>> {
        assert!(
            !matches!(self.format, NumericFormat::F32),
            "forward_batch requires a low-precision format"
        );
        par_chunk_map_with(
            xs,
            || self.make_layer_emacs().expect("low-precision format"),
            |emacs, chunk| self.forward_batch_bits_with(emacs, chunk),
        )
    }

    /// Predicted class via the EMAC path (or plain f32 math for `F32`).
    pub fn infer(&self, x: &[f32]) -> usize {
        match self.format {
            NumericFormat::F32 => self.infer_inexact(x),
            _ => self.argmax_bits(&self.forward_bits(x)),
        }
    }

    /// Predicted classes for a whole batch (parallel, EMACs reused per
    /// thread, one tile sweep per layer per chunk); agrees with per-sample
    /// [`QuantizedMlp::infer`] exactly.
    pub fn infer_batch(&self, xs: &[Vec<f32>]) -> Vec<usize> {
        match self.format {
            NumericFormat::F32 => par_map_with(xs, || (), |(), x| self.infer_inexact(x)),
            _ => par_chunk_map_with(
                xs,
                || self.make_layer_emacs().expect("low-precision format"),
                |emacs, chunk| self.infer_batch_with(emacs, chunk),
            ),
        }
    }

    /// [`QuantizedMlp::infer`] with caller-owned EMACs (one per layer, as
    /// built by [`QuantizedMlp::make_layer_emacs`]).
    pub fn infer_with(&self, emacs: &mut [EmacUnit], x: &[f32]) -> usize {
        self.argmax_bits(&self.forward_bits_with(emacs, x))
    }

    /// The class a sample's output activations (bit patterns from
    /// [`QuantizedMlp::forward_bits`] or a tile sweep) predict: the argmax
    /// of their decoded values. `dp_serve` classifies a served chunk with
    /// it.
    pub fn argmax_bits(&self, bits: &[u32]) -> usize {
        let logits: Vec<f32> = bits.iter().map(|&b| self.format.to_f64(b) as f32).collect();
        argmax(&logits)
    }

    /// Classification accuracy of the EMAC path on a dataset (batched and
    /// parallel; see [`QuantizedMlp::infer_batch`]).
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let preds = self.infer_batch(&data.features);
        let correct = preds
            .iter()
            .zip(&data.labels)
            .filter(|(p, &y)| **p == y)
            .count();
        correct as f64 / data.len() as f64
    }

    /// Per-op rounding inference (an ordinary MAC: every product and every
    /// accumulation rounds to the format) — the ablation baseline showing
    /// what the EMAC's exactness buys.
    pub fn infer_inexact(&self, x: &[f32]) -> usize {
        let mut acts = self.quantize_input(x);
        let last = self.layers.len() - 1;
        for (li, layer) in self.layers.iter().enumerate() {
            let mut next = Vec::with_capacity(layer.fan_out());
            for (wrow, &bias) in layer.weight_rows().zip(layer.biases()) {
                let mut acc = bias;
                for (&w, &a) in wrow.iter().zip(&acts) {
                    let p = self.format.mul_bits(w, a);
                    acc = self.format.add_bits(acc, p);
                }
                if li != last {
                    acc = self.format.relu_bits(acc);
                }
                next.push(acc);
            }
            acts = next;
        }
        self.argmax_bits(&acts)
    }

    /// Accuracy of the per-op rounding path (batched and parallel).
    pub fn accuracy_inexact(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let preds = par_map_with(&data.features, || (), |(), x| self.infer_inexact(x));
        let correct = preds
            .iter()
            .zip(&data.labels)
            .filter(|(p, &y)| **p == y)
            .count();
        correct as f64 / data.len() as f64
    }

    /// Layer widths `[in, hidden..., out]`.
    pub fn dims(&self) -> Vec<usize> {
        let mut d = vec![self.layers[0].fan_in()];
        d.extend(self.layers.iter().map(|l| l.fan_out()));
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::par_map_with_threads;
    use crate::train::{train, TrainConfig};
    use dp_datasets::iris;
    use dp_fixed::FixedFormat;
    use dp_minifloat::FloatFormat;
    use dp_posit::PositFormat;

    fn trained_iris() -> (Mlp, dp_datasets::TrainTest) {
        let split = iris::load(21).split(50, 21).normalized();
        let mut mlp = Mlp::new(&[4, 8, 3], 21);
        train(
            &mut mlp,
            &split.train,
            TrainConfig {
                epochs: 80,
                batch_size: 16,
                lr: 0.02,
                seed: 21,
            },
        );
        (mlp, split)
    }

    #[test]
    fn quantized_shapes_match() {
        let (mlp, _) = trained_iris();
        let q = QuantizedMlp::quantize(&mlp, NumericFormat::Posit(PositFormat::new(8, 0).unwrap()));
        assert_eq!(q.dims(), vec![4, 8, 3]);
        assert_eq!(q.layers[0].fan_in(), 4);
        assert_eq!(q.layers[1].fan_out(), 3);
        assert_eq!(q.layers[0].weights().len(), 4 * 8);
        assert_eq!(q.layers[0].weight_rows().count(), 8);
        assert_eq!(q.layers[0].weight_row(3), &q.layers[0].weights()[12..16]);
    }

    #[test]
    fn layer_constructors_agree_and_validate() {
        let rows = vec![vec![1u32, 2], vec![3, 4], vec![5, 6]];
        let a = QuantizedLayer::from_rows(&rows, vec![7, 8, 9]);
        let b = QuantizedLayer::new(2, 3, vec![1, 2, 3, 4, 5, 6], vec![7, 8, 9]);
        assert_eq!(a, b);
        assert_eq!(a.biases(), &[7, 8, 9]);
        assert!(std::panic::catch_unwind(|| {
            QuantizedLayer::new(2, 3, vec![1, 2, 3], vec![7, 8, 9])
        })
        .is_err());
        // Degenerate fan_in = 0 still yields one (empty) row per neuron.
        let empty_in = QuantizedLayer::new(0, 2, vec![], vec![1, 2]);
        assert_eq!(empty_in.weight_rows().count(), 2);
        assert!(empty_in.weight_rows().all(|r| r.is_empty()));
    }

    #[test]
    fn eight_bit_posit_tracks_f32_on_iris() {
        let (mlp, split) = trained_iris();
        let f32_acc = mlp.accuracy(&split.test);
        let q = QuantizedMlp::quantize(&mlp, NumericFormat::Posit(PositFormat::new(8, 0).unwrap()));
        let acc = q.accuracy(&split.test);
        assert!(f32_acc > 0.9, "f32 {f32_acc}");
        assert!(
            acc >= f32_acc - 0.08,
            "posit8 {acc} vs f32 {f32_acc} (paper: equal on Iris)"
        );
    }

    #[test]
    fn eight_bit_float_and_fixed_work_on_iris() {
        let (mlp, split) = trained_iris();
        for fmt in [
            NumericFormat::Float(FloatFormat::new(4, 3).unwrap()),
            NumericFormat::Fixed(FixedFormat::new(8, 5).unwrap()),
        ] {
            let q = QuantizedMlp::quantize(&mlp, fmt);
            let acc = q.accuracy(&split.test);
            assert!(acc > 0.8, "{fmt}: {acc}");
        }
    }

    #[test]
    fn batch_forward_is_bit_identical_to_per_sample() {
        // Includes the 16-bit §IV formats, which exercise the split-table
        // decode and the 256-bit accumulator through the batch engine.
        let (mlp, split) = trained_iris();
        for fmt in [
            NumericFormat::Posit(PositFormat::new(8, 0).unwrap()),
            NumericFormat::Posit(PositFormat::new(16, 1).unwrap()),
            NumericFormat::Float(FloatFormat::new(4, 3).unwrap()),
            NumericFormat::Float(FloatFormat::new(5, 10).unwrap()),
            NumericFormat::Fixed(FixedFormat::new(8, 5).unwrap()),
            NumericFormat::Fixed(FixedFormat::new(16, 10).unwrap()),
        ] {
            let q = QuantizedMlp::quantize(&mlp, fmt);
            let xs: Vec<Vec<f32>> = split.test.features.iter().take(25).cloned().collect();
            let batch = q.forward_batch(&xs);
            let scalar: Vec<Vec<u32>> = xs.iter().map(|x| q.forward_bits(x)).collect();
            assert_eq!(batch, scalar, "{fmt}");
            let preds = q.infer_batch(&xs);
            let scalar_preds: Vec<usize> = xs.iter().map(|x| q.infer(x)).collect();
            assert_eq!(preds, scalar_preds, "{fmt}");
        }
    }

    #[test]
    fn try_make_layer_emacs_validates_instead_of_panicking() {
        let (mlp, _) = trained_iris();
        // A datapath-less format: posit es > n − 3.
        let bad =
            QuantizedMlp::quantize(&mlp, NumericFormat::Posit(PositFormat::new(8, 6).unwrap()));
        let err = bad.try_make_layer_emacs().unwrap_err();
        assert!(err.reason().contains("es <= n-3"), "{err}");
        // Supported formats yield one EMAC per layer; F32 yields None.
        let good =
            QuantizedMlp::quantize(&mlp, NumericFormat::Posit(PositFormat::new(16, 1).unwrap()));
        assert_eq!(good.try_make_layer_emacs().unwrap().unwrap().len(), 2);
        let f32_model = QuantizedMlp::quantize(&mlp, NumericFormat::F32);
        assert!(f32_model.try_make_layer_emacs().unwrap().is_none());
    }

    #[test]
    fn sixteen_bit_posit_tracks_f32_on_iris() {
        // Paper §IV Tables II–III run the sweep up to [16,1]; at 16 bits
        // the quantized network should match the f32 baseline closely.
        let (mlp, split) = trained_iris();
        let f32_acc = mlp.accuracy(&split.test);
        let q =
            QuantizedMlp::quantize(&mlp, NumericFormat::Posit(PositFormat::new(16, 1).unwrap()));
        let acc = q.accuracy(&split.test);
        assert!(
            acc >= f32_acc - 0.04,
            "posit16 {acc} vs f32 {f32_acc} (paper: 16-bit matches f32)"
        );
    }

    #[test]
    fn slice_forward_matches_scalar_mac_loop() {
        // forward_bits now rides dot_slice (kernel datapath); an inline
        // per-element mac() loop is the pre-slice definition and must agree
        // bit for bit, across all three kernel bands.
        let (mlp, split) = trained_iris();
        for fmt in [
            NumericFormat::Posit(PositFormat::new(8, 0).unwrap()),
            NumericFormat::Posit(PositFormat::new(16, 1).unwrap()),
            NumericFormat::Posit(PositFormat::new(17, 1).unwrap()),
            NumericFormat::Float(FloatFormat::new(4, 3).unwrap()),
            NumericFormat::Fixed(FixedFormat::new(8, 5).unwrap()),
        ] {
            let q = QuantizedMlp::quantize(&mlp, fmt);
            let scalar_forward = |x: &[f32]| -> Vec<u32> {
                let mut emacs = q.make_layer_emacs().unwrap();
                let mut acts = q.quantize_input(x);
                let last = q.layers.len() - 1;
                for (li, (layer, emac)) in q.layers.iter().zip(&mut emacs).enumerate() {
                    let mut next = Vec::with_capacity(layer.fan_out());
                    for (wrow, &bias) in layer.weight_rows().zip(layer.biases()) {
                        emac.set_bias(bias);
                        for (&w, &a) in wrow.iter().zip(&acts) {
                            emac.mac(w, a);
                        }
                        let mut out = emac.result();
                        if li != last {
                            out = q.format.relu_bits(out);
                        }
                        next.push(out);
                    }
                    acts = next;
                }
                acts
            };
            for x in split.test.features.iter().take(20) {
                assert_eq!(q.forward_bits(x), scalar_forward(x), "{fmt}");
            }
        }
    }

    #[test]
    fn chunk_tile_sweep_is_bit_identical_to_per_sample() {
        // forward_batch_bits_with evaluates a whole chunk layer-by-layer
        // through dot_tile; per sample it must match forward_bits exactly,
        // across every tile band and at ragged chunk widths.
        let (mlp, split) = trained_iris();
        for fmt in [
            NumericFormat::Posit(PositFormat::new(8, 0).unwrap()),
            NumericFormat::Posit(PositFormat::new(16, 1).unwrap()),
            NumericFormat::Posit(PositFormat::new(17, 1).unwrap()),
            NumericFormat::Float(FloatFormat::new(4, 3).unwrap()),
            NumericFormat::Fixed(FixedFormat::new(8, 5).unwrap()),
            NumericFormat::Fixed(FixedFormat::new(16, 10).unwrap()),
        ] {
            let q = QuantizedMlp::quantize(&mlp, fmt);
            for take in [1usize, 7, 25] {
                let xs: Vec<Vec<f32>> = split.test.features.iter().take(take).cloned().collect();
                let mut emacs = q.make_layer_emacs().unwrap();
                let chunk = q.forward_batch_bits_with(&mut emacs, &xs);
                let per_sample: Vec<Vec<u32>> = xs.iter().map(|x| q.forward_bits(x)).collect();
                assert_eq!(chunk, per_sample, "{fmt} B={take}");
                let mut emacs = q.make_layer_emacs().unwrap();
                let preds = q.infer_batch_with(&mut emacs, &xs);
                let scalar_preds: Vec<usize> = xs.iter().map(|x| q.infer(x)).collect();
                assert_eq!(preds, scalar_preds, "{fmt} B={take}");
            }
            let mut emacs = q.make_layer_emacs().unwrap();
            assert!(q.forward_batch_bits_with(&mut emacs, &[]).is_empty());
        }
    }

    #[test]
    fn chunk_worker_count_does_not_change_results() {
        use crate::batch::par_chunk_map_with_threads;
        let (mlp, split) = trained_iris();
        let q = QuantizedMlp::quantize(&mlp, NumericFormat::Posit(PositFormat::new(8, 0).unwrap()));
        let xs: Vec<Vec<f32>> = split
            .test
            .features
            .iter()
            .cycle()
            .take(100)
            .cloned()
            .collect();
        let run = |threads: usize| {
            par_chunk_map_with_threads(
                &xs,
                threads,
                || q.make_layer_emacs().unwrap(),
                |emacs, chunk| q.forward_batch_bits_with(emacs, chunk),
            )
        };
        let serial = run(1);
        // The tile width is the chunk width, so worker count changes B —
        // bit-identity must hold anyway (per-column tile contract).
        for threads in [2, 4, 7, 1000] {
            assert_eq!(run(threads), serial, "threads = {threads}");
        }
        let per_sample: Vec<Vec<u32>> = xs.iter().map(|x| q.forward_bits(x)).collect();
        assert_eq!(serial, per_sample);
    }

    #[test]
    fn layer_tile_kernels_reports_batch_width_selection() {
        use dp_emac::{MacKernel, TileKernel};
        let (mlp, _) = trained_iris();
        let by_fmt = |fmt: NumericFormat, b: usize| {
            QuantizedMlp::quantize(&mlp, fmt)
                .layer_tile_kernels(b)
                .expect("low-precision format")
        };
        let p8 = NumericFormat::Posit(PositFormat::new(8, 0).unwrap());
        let p16 = NumericFormat::Posit(PositFormat::new(16, 1).unwrap());
        let p17 = NumericFormat::Posit(PositFormat::new(17, 1).unwrap());
        assert!(by_fmt(p8, 64)
            .iter()
            .all(|&k| k == TileKernel::BlockedProduct));
        assert!(by_fmt(p8, 1)
            .iter()
            .all(|&k| k == TileKernel::PerColumn(MacKernel::ProductTable)));
        assert!(by_fmt(p16, 64)
            .iter()
            .all(|&k| k == TileKernel::GatherFused));
        assert!(by_fmt(p17, 64)
            .iter()
            .all(|&k| k == TileKernel::PerColumn(MacKernel::Scalar)));
        assert!(QuantizedMlp::quantize(&mlp, NumericFormat::F32)
            .layer_tile_kernels(64)
            .is_none());
    }

    #[test]
    fn layer_kernels_reports_band_selection() {
        let (mlp, _) = trained_iris();
        let by_fmt = |fmt: NumericFormat| {
            QuantizedMlp::quantize(&mlp, fmt)
                .layer_kernels()
                .expect("low-precision format")
        };
        use dp_emac::MacKernel;
        let p8 = by_fmt(NumericFormat::Posit(PositFormat::new(8, 0).unwrap()));
        assert!(p8.iter().all(|&k| k == MacKernel::ProductTable), "{p8:?}");
        let p16 = by_fmt(NumericFormat::Posit(PositFormat::new(16, 1).unwrap()));
        assert!(p16.iter().all(|&k| k == MacKernel::BatchedFused), "{p16:?}");
        let p17 = by_fmt(NumericFormat::Posit(PositFormat::new(17, 1).unwrap()));
        assert!(p17.iter().all(|&k| k == MacKernel::Scalar), "{p17:?}");
        assert!(QuantizedMlp::quantize(&mlp, NumericFormat::F32)
            .layer_kernels()
            .is_none());
    }

    #[test]
    fn batch_handles_empty_input() {
        let (mlp, _) = trained_iris();
        let q = QuantizedMlp::quantize(&mlp, NumericFormat::Posit(PositFormat::new(8, 0).unwrap()));
        assert!(q.forward_batch(&[]).is_empty());
        assert!(q.infer_batch(&[]).is_empty());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        // Drive the spawn/chunk/merge path directly with explicit worker
        // counts (the public entry points would stay single-threaded for
        // small batches, and on single-core machines always).
        let (mlp, split) = trained_iris();
        let q = QuantizedMlp::quantize(&mlp, NumericFormat::Posit(PositFormat::new(8, 0).unwrap()));
        let xs: Vec<Vec<f32>> = split
            .test
            .features
            .iter()
            .cycle()
            .take(100)
            .cloned()
            .collect();
        let run = |threads: usize| {
            par_map_with_threads(
                &xs,
                threads,
                || q.make_layer_emacs().unwrap(),
                |emacs, x| q.forward_bits_with(emacs, x),
            )
        };
        let serial = run(1);
        for threads in [2, 4, 7] {
            assert_eq!(run(threads), serial, "threads = {threads}");
        }
        // Degenerate worker counts clamp instead of panicking.
        assert_eq!(run(0), serial);
        assert_eq!(run(1000), serial);
    }

    #[test]
    fn f32_roundtrip_format_is_identity() {
        let (mlp, split) = trained_iris();
        let q = QuantizedMlp::quantize(&mlp, NumericFormat::F32);
        assert_eq!(q.accuracy(&split.test), mlp.accuracy(&split.test));
    }

    #[test]
    fn exact_path_at_least_as_good_as_inexact_on_average() {
        // Not a theorem per-sample, but with 5-bit formats the EMAC path
        // should not be (much) worse in aggregate.
        let (mlp, split) = trained_iris();
        let q = QuantizedMlp::quantize(&mlp, NumericFormat::Posit(PositFormat::new(6, 0).unwrap()));
        let exact = q.accuracy(&split.test);
        let inexact = q.accuracy_inexact(&split.test);
        assert!(
            exact + 0.05 >= inexact,
            "exact {exact} vs inexact {inexact}"
        );
    }
}
