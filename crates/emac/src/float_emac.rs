//! The floating-point EMAC (paper Fig. 4).

use crate::acc::Accum;
use crate::ceil_log2;
use crate::kernel::{self, Job, Operands};
use crate::unit::Emac;
use crate::MacKernel;
use dp_minifloat::lut::{DecodeLut, EmacDirect, EmacEntry, EmacLut, ProductEntry, ProductLut};
use dp_minifloat::{decode, encode, FloatClass, FloatFormat};

/// The float family's kernel operands: an entry lookup (the per-pattern
/// table or the computed bit fields) and `2·wf`, the two fraction widths
/// the biased scales count. A product lands at `bw + ba − 2·wf`, which is
/// negative for subnormal products — the significand product then carries
/// at least that many trailing zeros, so the right shift is exact. On the
/// wide window the trailing zeros are normalized away first, like the
/// scalar datapath does.
#[derive(Clone, Copy)]
struct FloatOperands<E>(E, i32);

impl<E: Fn(u32) -> EmacEntry + Copy> Operands for FloatOperands<E> {
    type Product = ProductEntry;
    const SPECIAL: u64 = EmacEntry::SPECIAL_BIT;

    #[inline(always)]
    fn product_word(p: ProductEntry) -> u32 {
        p.0
    }

    #[inline(always)]
    fn entry(self, bits: u32) -> u64 {
        (self.0)(bits).0
    }

    #[inline(always)]
    fn term(self, prod: u64, scales: u32) -> u128 {
        let net = scales as i32 - self.1;
        debug_assert!(
            prod == 0 || net >= 0 || prod.trailing_zeros() >= (-net) as u32,
            "float products are multiples of min_sub²"
        );
        if net >= 0 {
            (prod as u128) << net
        } else {
            (prod as u128) >> -net
        }
    }

    #[inline(always)]
    fn wide_term(self, prod: u64, scales: u32) -> (u128, usize) {
        let tz = prod.trailing_zeros();
        let shift = scales as i32 + tz as i32 - self.1;
        debug_assert!(shift >= 0, "float products are multiples of min_sub²");
        ((prod >> tz) as u128, shift as usize)
    }
}

/// Exact floating-point multiply-and-accumulate.
///
/// Inputs are `(1, we, wf)` minifloats. The datapath mirrors paper Fig. 4:
/// subnormal detection sets the hidden bit and adjusts the exponent;
/// significands are multiplied exactly; the product is converted to a
/// two's-complement fixed-point value by shifting with a biased scale
/// factor, then accumulated. The register spans every bit any product can
/// produce — paper eq. (3) with `⌈log2(max/min)⌉ = 2^we − 2 + wf`:
///
/// ```text
/// wa = ⌈log2 k⌉ + 2·(2^we − 2 + wf) + 2
/// ```
///
/// (plus the product fraction tail which eq. (3)'s ratio form folds into
/// its ceiling). Readout applies inverse two's complement, normalizes,
/// rounds to nearest even once, and **clips at ±max**: the paper's EMAC
/// "does not overflow to infinity".
///
/// Inf/NaN inputs are outside the paper's operating envelope ("inputs
/// don't have these values"); this model poisons the accumulator and
/// returns NaN so misuse is visible rather than silent.
///
/// # Examples
///
/// ```
/// use dp_emac::{Emac, FloatEmac};
/// use dp_minifloat::FloatFormat;
///
/// let fmt = FloatFormat::new(4, 3)?;
/// let mut emac = FloatEmac::new(fmt, 8);
/// let x = dp_minifloat::convert::from_f64(fmt, 1.5);
/// emac.mac(x, x); // 2.25
/// emac.mac(x, x); // 2.25
/// assert_eq!(dp_minifloat::convert::to_f64(fmt, emac.result()), 4.5);
/// # Ok::<(), dp_minifloat::FormatError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FloatEmac {
    fmt: FloatFormat,
    capacity: u64,
    acc: Accum,
    /// Decode table for the format, when one exists (`n ≤ 12`).
    lut: Option<&'static DecodeLut>,
    /// Fused decode + front-end operands for `n ≤ 12` formats.
    emac: Option<&'static EmacLut>,
    /// Computed fused operands for 13–16-bit formats.
    direct: Option<EmacDirect>,
    /// Finished-product table for `n ≤ 8` formats: decode, multiply and
    /// underflow normalization collapse into one `2^(2n)`-entry lookup
    /// ([`MacKernel::ProductTable`] when the accumulator is an `i128`).
    product: Option<&'static ProductLut>,
    /// The fastest kernel this unit may select ([`FloatEmac::with_kernel_cap`]).
    cap: MacKernel,
    /// Bit index of weight 2^0: products are multiples of min_subnormal².
    offset: i32,
    count: u64,
    poisoned: bool,
    /// Gathered weight-operand scratch for the fused tile, retained
    /// across [`Emac::dot_tile`] calls so a tile sweep over a layer does
    /// not allocate per weight row. Never semantic: cleared and refilled
    /// on each gather-tile call.
    gather: Vec<u64>,
}

impl FloatEmac {
    /// Creates a unit for `fmt` sized for `capacity` accumulations, using
    /// the fused-operand and native-accumulator fast paths when the
    /// format qualifies (every ≤16-bit configuration of the paper's §IV
    /// sweep does; ≤8-bit ones additionally get the decode LUT).
    pub fn new(fmt: FloatFormat, capacity: u64) -> Self {
        let capacity = capacity.max(1);
        let mut unit = Self::build(
            fmt,
            capacity,
            Accum::new(Self::accumulator_width_for(fmt, capacity)),
        );
        unit.lut = dp_minifloat::lut::cached(fmt);
        unit.emac = dp_minifloat::lut::emac_cached(fmt);
        unit.direct = EmacDirect::build(fmt);
        unit.product = dp_minifloat::lut::product_cached(fmt);
        unit
    }

    /// [`FloatEmac::new`] in `Result` form, for uniformity with the posit
    /// and fixed units' `try_new`: every valid [`FloatFormat`] has an EMAC
    /// datapath, so this never fails.
    ///
    /// # Errors
    ///
    /// None — present so format-generic validation can treat the three
    /// families uniformly.
    pub fn try_new(fmt: FloatFormat, capacity: u64) -> Result<Self, crate::UnsupportedFormat> {
        Ok(Self::new(fmt, capacity))
    }

    /// Creates a unit on the pre-LUT reference datapath: bit-field decode
    /// per MAC and the limb-based `WideInt` register, regardless of
    /// format width. Kept for differential testing and benchmarking.
    pub fn new_reference(fmt: FloatFormat, capacity: u64) -> Self {
        let capacity = capacity.max(1);
        Self::build(
            fmt,
            capacity,
            Accum::new_wide(Self::accumulator_width_for(fmt, capacity)),
        )
    }

    /// Caps the slice-level kernel this unit may select — a bench/test
    /// knob for comparing kernels on one format; see
    /// [`crate::PositEmac::with_kernel_cap`] for the cap semantics.
    pub fn with_kernel_cap(mut self, cap: MacKernel) -> Self {
        self.cap = cap;
        self
    }

    /// A unit with no tables: the reference datapath on `acc`.
    fn build(fmt: FloatFormat, capacity: u64, acc: Accum) -> Self {
        // Smallest product bit: (2^(min_normal_scale - wf))² ; the offset
        // makes that land at register bit 0.
        let offset = 2 * (fmt.min_normal_scale() - fmt.wf() as i32);
        FloatEmac {
            fmt,
            capacity,
            acc,
            lut: None,
            emac: None,
            direct: None,
            product: None,
            cap: MacKernel::ProductTable,
            offset: -offset,
            count: 0,
            poisoned: false,
            gather: Vec::new(),
        }
    }

    /// True when this unit runs the fused operands + native (`i128` or
    /// two-word 256-bit) accumulator fast path.
    pub fn is_fast_path(&self) -> bool {
        self.kernel() != MacKernel::Scalar
    }

    /// Decode via the table when present, bit fields otherwise.
    #[inline]
    fn decode_bits(&self, bits: u32) -> FloatClass {
        match self.lut {
            Some(lut) => lut.decode(bits),
            None => decode(self.fmt, bits),
        }
    }

    /// The format of this unit.
    pub fn format(&self) -> FloatFormat {
        self.fmt
    }

    /// Paper eq. (3) accumulator width for `k` accumulations.
    pub fn accumulator_width_for(fmt: FloatFormat, k: u64) -> u32 {
        let log_ratio = (1u32 << fmt.we()) - 2 + fmt.wf(); // ⌈log2(max/min)⌉
        ceil_log2(k) + 2 * log_ratio + 2
    }

    fn add_value(&mut self, sign: bool, scale: i32, sig: u64) {
        let tz = sig.trailing_zeros() as i32;
        let pos = scale - 63 + tz + self.offset;
        debug_assert!(pos >= 0, "float values are multiples of min_sub");
        self.acc
            .add_shifted_u128((sig >> tz) as u128, pos as usize, sign);
    }

    /// The reference [`Emac::mac`] datapath (Fig. 4, scalar band) without
    /// the `macs_done` bookkeeping.
    fn reference_mac(&mut self, weight: u32, activation: u32) {
        let (ua, ub) = match (self.decode_bits(weight), self.decode_bits(activation)) {
            (FloatClass::NaN, _)
            | (_, FloatClass::NaN)
            | (FloatClass::Inf(_), _)
            | (_, FloatClass::Inf(_)) => {
                self.poisoned = true;
                return;
            }
            (FloatClass::Zero(_), _) | (_, FloatClass::Zero(_)) => return,
            (FloatClass::Finite(ua), FloatClass::Finite(ub)) => (ua, ub),
        };
        // Exact product of the two significands (Fig. 4 multiply stage).
        let prod = (ua.sig as u128) * (ub.sig as u128); // [2^126, 2^128)
        let tz = prod.trailing_zeros() as i32;
        let pos = ua.scale + ub.scale - 126 + tz + self.offset;
        debug_assert!(pos >= 0, "float products are multiples of min_sub²");
        self.acc
            .add_shifted_u128(prod >> tz, pos as usize, ua.sign ^ ub.sign);
    }

    /// Runs `job` through the shared kernel family on the fast `band`,
    /// with this unit's fused operands — one monomorphized body per entry
    /// source.
    #[inline(always)]
    fn run(&mut self, band: MacKernel, job: Job) {
        let wf2 = 2 * self.fmt.wf() as i32;
        match (self.emac, self.direct) {
            (Some(t), _) => self.run_with(FloatOperands(move |b| t.entry(b), wf2), band, job),
            (None, Some(d)) => self.run_with(FloatOperands(move |b| d.entry(b), wf2), band, job),
            (None, None) => unreachable!("fast band without fused operands"),
        }
    }

    #[inline(always)]
    fn run_with<O: Operands<Product = ProductEntry>>(&mut self, ops: O, band: MacKernel, job: Job) {
        let products = (self.product)
            .filter(|_| band == MacKernel::ProductTable)
            .map(|t| move |w, a| t.entry(w, a));
        match job {
            Job::Mac(w, a) => self.poisoned |= kernel::mac(ops, &mut self.acc, w, a),
            Job::Row(weights, xs) => {
                let register = (&mut self.acc, &mut self.poisoned);
                kernel::row(ops, products, register, weights, xs)
            }
            Job::Tile(weights, cols, out) => {
                let (seed, seed_poisoned) = (self.acc.clone(), self.poisoned);
                let mut gather = std::mem::take(&mut self.gather);
                let emit = |j: usize, acc, poisoned| {
                    (self.acc, self.poisoned) = (acc, poisoned);
                    out[j] = self.result();
                };
                let seed = (&seed, seed_poisoned);
                kernel::tile(ops, products, &mut gather, seed, weights, cols, emit);
                self.gather = gather;
            }
        }
    }
}

impl Emac for FloatEmac {
    fn reset(&mut self) {
        self.acc.clear();
        self.count = 0;
        self.poisoned = false;
    }

    fn set_bias(&mut self, bias: u32) {
        self.reset();
        match self.decode_bits(bias) {
            FloatClass::Zero(_) => {}
            FloatClass::Finite(u) => self.add_value(u.sign, u.scale, u.sig),
            _ => self.poisoned = true,
        }
    }

    #[inline]
    fn mac(&mut self, weight: u32, activation: u32) {
        self.count += 1;
        debug_assert!(self.count <= self.capacity, "float EMAC over capacity");
        match self.kernel() {
            MacKernel::Scalar => self.reference_mac(weight, activation),
            band => self.run(band, Job::Mac(weight, activation)),
        }
    }

    fn dot_slice(&mut self, weights: &[u32], activations: &[u32]) {
        assert_eq!(
            weights.len(),
            activations.len(),
            "dot_slice: weight/activation length mismatch"
        );
        self.count += weights.len() as u64;
        debug_assert!(self.count <= self.capacity, "float EMAC over capacity");
        match self.kernel() {
            MacKernel::Scalar => {
                for (&w, &a) in weights.iter().zip(activations) {
                    self.reference_mac(w, a);
                }
            }
            // A row is its band's tile body with one column.
            band => self.run(band, Job::Row(weights, activations)),
        }
    }

    fn dot_tile(&mut self, bias: u32, weights: &[u32], cols: &[&[u32]], out: &mut [u32]) {
        kernel::check_tile(weights, cols, out);
        let (k, b) = (weights.len(), cols.len());
        if b == 0 {
            return;
        }
        debug_assert!(k as u64 <= self.capacity, "float EMAC over capacity");
        let band = self.kernel();
        if b >= 2 && band != MacKernel::Scalar {
            self.set_bias(bias);
            self.run(band, Job::Tile(weights, cols, out));
        } else {
            // Per-column baseline: B == 1 keeps the row kernels, the
            // scalar band stays the differential reference at any width.
            for (col, slot) in cols.iter().zip(out.iter_mut()) {
                self.set_bias(bias);
                self.dot_slice(weights, col);
                *slot = self.result();
            }
        }
        self.count = (k * b) as u64;
    }

    fn kernel(&self) -> MacKernel {
        let band = if self.product.is_some() && self.acc.is_small() {
            MacKernel::ProductTable
        } else if (self.emac.is_some() || self.direct.is_some()) && self.acc.is_native() {
            MacKernel::BatchedFused
        } else {
            MacKernel::Scalar
        };
        band.min(self.cap)
    }

    fn result(&self) -> u32 {
        if self.poisoned {
            return self.fmt.nan_bits();
        }
        // Fig. 4 readout: inverse 2's complement, LZD, normalize, round.
        let w = match self.acc.window() {
            None => return self.fmt.zero_bits(false),
            Some(w) => w,
        };
        let scale = w.msb as i32 - self.offset;
        let rounded = encode(self.fmt, w.sign, scale, w.sig, w.sticky);
        // Clip at the maximum magnitude: the EMAC never emits infinity.
        match self.decode_bits(rounded) {
            FloatClass::Inf(s) => self.fmt.max_bits(s),
            _ => rounded,
        }
    }

    fn macs_done(&self) -> u64 {
        self.count
    }

    fn pipeline_depth(&self) -> u32 {
        4 // decode/multiply/shift → accumulate → normalize → round/clip
    }

    fn accumulator_width(&self) -> u32 {
        Self::accumulator_width_for(self.fmt, self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_minifloat::convert::{from_f64, to_f64};

    fn fmt(we: u32, wf: u32) -> FloatFormat {
        FloatFormat::new(we, wf).unwrap()
    }

    #[test]
    fn accumulator_width_matches_eq3() {
        // we=4, wf=3: log2(max/min) = 2^4 - 2 + 3 = 17; k=128 -> 7 + 34 + 2.
        assert_eq!(FloatEmac::accumulator_width_for(fmt(4, 3), 128), 43);
        assert_eq!(FloatEmac::accumulator_width_for(fmt(2, 2), 1), 2 * 4 + 2);
    }

    #[test]
    fn exact_small_sums() {
        let f = fmt(4, 3);
        let mut e = FloatEmac::new(f, 8);
        e.mac(from_f64(f, 0.5), from_f64(f, 0.5)); // 0.25
        e.mac(from_f64(f, 1.5), from_f64(f, 2.0)); // 3.0
        e.mac(from_f64(f, -1.0), from_f64(f, 0.25)); // -0.25
        assert_eq!(to_f64(f, e.result()), 3.0);
    }

    #[test]
    fn catastrophic_cancellation_is_exact() {
        let f = fmt(4, 3);
        let mut e = FloatEmac::new(f, 4);
        let max = f.max_bits(false);
        let one = from_f64(f, 1.0);
        let minsub = 0x01; // smallest subnormal
        e.mac(max, one);
        e.mac(max | (1 << 7), one); // -max × 1
        e.mac(minsub, one);
        assert_eq!(e.result(), minsub, "quire-style exactness");
    }

    #[test]
    fn subnormal_products_accumulate() {
        let f = fmt(4, 3);
        let mut e = FloatEmac::new(f, 64);
        let minsub = 0x01u32; // 2^-9
                              // 64 × (minsub × 1.0) = 2^-3
        let one = from_f64(f, 1.0);
        for _ in 0..64 {
            e.mac(minsub, one);
        }
        assert_eq!(to_f64(f, e.result()), 2f64.powi(-3));
    }

    #[test]
    fn clips_at_max_instead_of_inf() {
        let f = fmt(4, 3);
        let mut e = FloatEmac::new(f, 8);
        let max = f.max_bits(false);
        for _ in 0..8 {
            e.mac(max, max);
        }
        assert_eq!(e.result(), max, "saturates, never Inf");
        e.reset();
        for _ in 0..8 {
            e.mac(max | (1 << 7), max);
        }
        assert_eq!(e.result(), f.max_bits(true));
    }

    #[test]
    fn bias_and_reset() {
        let f = fmt(4, 3);
        let mut e = FloatEmac::new(f, 4);
        e.set_bias(from_f64(f, 2.0));
        e.mac(from_f64(f, 1.0), from_f64(f, 0.5));
        assert_eq!(to_f64(f, e.result()), 2.5);
        e.reset();
        assert_eq!(e.result(), 0);
        assert_eq!(e.macs_done(), 0);
    }

    #[test]
    fn nan_and_inf_poison() {
        let f = fmt(4, 3);
        let mut e = FloatEmac::new(f, 4);
        e.mac(f.inf_bits(false), from_f64(f, 1.0));
        assert_eq!(decode(f, e.result()), FloatClass::NaN);
        e.reset();
        e.mac(f.nan_bits(), from_f64(f, 1.0));
        assert_eq!(decode(f, e.result()), FloatClass::NaN);
    }

    #[test]
    fn single_product_equals_rounded_mul() {
        // With one product the EMAC must equal the correctly rounded op
        // (clipped at max instead of Inf).
        for (we, wf) in [(2u32, 2u32), (3, 2), (4, 3), (5, 2)] {
            let f = fmt(we, wf);
            for a in f.finites() {
                for b in [0x01u32, 0x11, 0x23, f.max_bits(false), f.zero_bits(true)] {
                    let b = b & f.mask();
                    if !matches!(decode(f, b), FloatClass::Finite(_) | FloatClass::Zero(_)) {
                        continue;
                    }
                    let mut e = FloatEmac::new(f, 1);
                    e.mac(a, b);
                    let direct = dp_minifloat::ops::mul(f, a, b);
                    let zero_input = matches!(decode(f, a), FloatClass::Zero(_))
                        || matches!(decode(f, b), FloatClass::Zero(_));
                    let expect = match decode(f, direct) {
                        FloatClass::Inf(s) => f.max_bits(s),
                        // A zero *input* is skipped by the EMAC, whose empty
                        // accumulator reads +0; a nonzero product that
                        // underflows keeps IEEE's signed zero.
                        FloatClass::Zero(_) if zero_input => 0,
                        _ => direct,
                    };
                    assert_eq!(e.result(), expect, "{f}: {a:#x} × {b:#x}");
                }
            }
        }
    }
}
