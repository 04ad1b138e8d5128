//! The posit EMAC (paper Fig. 5, Algorithms 1–2).

use crate::acc::Accum;
use crate::ceil_log2;
use crate::kernel::{self, Job, Operands};
use crate::unit::Emac;
use crate::{MacKernel, UnsupportedFormat};
use dp_posit::lut::{DecodeLut, EmacEntry, EmacLut, ProductEntry, ProductLut, SplitLut};
use dp_posit::{decode, encode, Decoded, PositFormat};

/// The posit family's kernel operands over an entry lookup (the
/// per-pattern table or the split regime-prefix extraction): a product
/// lands at the biased scale sum `bw + ba` — Algorithm 2 line 12's
/// `sf + 2·max_scale` — which is never negative.
#[derive(Clone, Copy)]
struct PositOperands<E>(E);

impl<E: Fn(u32) -> EmacEntry + Copy> Operands for PositOperands<E> {
    type Product = ProductEntry;
    const SPECIAL: u64 = EmacEntry::NAR_BIT;

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
        debug_assert!(scales + (64 - prod.leading_zeros()) <= 127);
        (prod as u128) << scales
    }

    #[inline(always)]
    fn wide_term(self, prod: u64, scales: u32) -> (u128, usize) {
        (prod as u128, scales as usize)
    }
}

/// Exact posit multiply-and-accumulate.
///
/// The datapath mirrors paper Fig. 5 and Algorithm 2:
///
/// 1. **Decode** (Algorithm 1): sign, regime, exponent and fraction are
///    extracted; the two's complement + regime-check inversion lets a
///    single leading-zero detector handle both regime polarities
///    (`dp_posit::decode` implements exactly this flow).
/// 2. **Multiply**: the fixed-width significands (`F = n − 2 − es` bits,
///    hidden bit included) multiply exactly; an overflow bit renormalizes
///    and bumps the scale factor (Algorithm 2 lines 6–10).
/// 3. **Accumulate**: the signed product is shifted by the *biased* scale
///    factor `sf + 2^(es+1)(n−2)` so all shifts are non-negative
///    (Algorithm 2 line 12) and added into a quire-style register
///    (paper eq. 4 sizes the integer span; this model keeps the product
///    fraction tail `2F − 2` explicitly, which the paper's ratio-of-extremes
///    formulation folds away — both hold every product bit exactly).
/// 4. **Round & encode** (Algorithm 2 lines 15–43): sign/magnitude split,
///    leading-zero detection, window extraction and convergent
///    (round-to-nearest-even on the pattern) re-encode.
///
/// Differentially tested against [`dp_posit::Quire`] — an independent
/// implementation of the same semantics.
///
/// ## Fast paths
///
/// Two table/width optimizations make the software model run at MACs/sec
/// rates resembling the hardware story rather than a bit-by-bit simulator;
/// both are bit-identical to the reference datapath (enforced by the
/// `fast_path_equivalence` tests and available directly via
/// [`PositEmac::new_reference`]):
///
/// * **Decode LUT / split table** — for formats up to 12 bits the
///   Algorithm-1 bit-field extraction is replaced by one lookup in the
///   process-wide [`dp_posit::lut`] table (the software analogue of
///   template-based posit multiplication); 13–16-bit formats use the
///   split scheme ([`dp_posit::lut::SplitLut`]): a 256-entry
///   regime-prefix table composed with direct fraction extraction.
/// * **Native accumulator** — whenever the eq.-(4) register fits 127 bits
///   (true for every 5–8-bit configuration in Table II) the quire-style
///   register is a native `i128` and each MAC is one shift and one add;
///   registers up to 255 bits (every 13–16-bit §IV format) use the
///   two-word [`crate::Acc256`]; only wider formats fall back to the
///   limb-based `WideInt`.
///
/// # Examples
///
/// ```
/// use dp_emac::{Emac, PositEmac};
/// use dp_posit::PositFormat;
///
/// let fmt = PositFormat::new(8, 2)?;
/// let mut emac = PositEmac::new(fmt, 4);
/// let maxpos = fmt.maxpos_bits();
/// let neg_maxpos = maxpos.wrapping_neg() & fmt.mask(); // two's complement
/// let minpos = fmt.minpos_bits();
/// let one = fmt.one_bits();
/// emac.mac(maxpos, one);
/// emac.mac(neg_maxpos, one);
/// emac.mac(minpos, one);
/// assert_eq!(emac.result(), minpos); // survives catastrophic cancellation
/// # Ok::<(), dp_posit::FormatError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PositEmac {
    fmt: PositFormat,
    capacity: u64,
    acc: Accum,
    /// Monolithic decode table for the format, when one exists (`n ≤ 12`).
    lut: Option<&'static DecodeLut>,
    /// Split regime-prefix table for 13–16-bit formats: decode, and the
    /// fused operands of the kernel bands.
    split: Option<&'static SplitLut>,
    /// Fused decode + front-end operands for `n ≤ 12` formats.
    emac: Option<&'static EmacLut>,
    /// Finished-product table for `n ≤ 8` formats: decode *and* multiply
    /// collapse into one `2^(2n)`-entry lookup ([`MacKernel::ProductTable`]
    /// when the accumulator window is an `i128`).
    product: Option<&'static ProductLut>,
    /// The fastest kernel this unit may select ([`PositEmac::with_kernel_cap`]).
    cap: MacKernel,
    /// `F`: significand width including the hidden bit, `n − 2 − es`.
    fbits: u32,
    /// Algorithm 2's `bias`: `2^(es+1) × (n − 2)` = 2 × max_scale.
    sf_bias: i32,
    count: u64,
    nar: bool,
    /// Gathered weight-operand scratch for the fused tile, retained
    /// across [`Emac::dot_tile`] calls so a tile sweep over a layer does
    /// not allocate per weight row. Never semantic: cleared and refilled
    /// on each gather-tile call.
    gather: Vec<u64>,
}

impl PositEmac {
    /// Creates a unit for `fmt` sized for `capacity` accumulations, using
    /// the decode LUT / split-table and native-accumulator fast paths
    /// when the format qualifies.
    ///
    /// # Panics
    ///
    /// Panics if `es > n − 3` (no significand bits: such formats have no
    /// EMAC datapath in the paper). Use [`PositEmac::try_new`] to validate
    /// a format without panicking.
    pub fn new(fmt: PositFormat, capacity: u64) -> Self {
        Self::try_new(fmt, capacity).expect("posit EMAC requires es <= n-3 (paper datapath)")
    }

    /// [`PositEmac::new`] returning a typed error instead of panicking for
    /// formats without an EMAC datapath (`es > n − 3`) — admission-time
    /// validation for serving registries and other untrusted callers.
    ///
    /// # Errors
    ///
    /// [`UnsupportedFormat`] when `es > n − 3`.
    pub fn try_new(fmt: PositFormat, capacity: u64) -> Result<Self, UnsupportedFormat> {
        Self::check_format(fmt)?;
        let capacity = capacity.max(1);
        let mut unit = Self::build(
            fmt,
            capacity,
            Accum::new(Self::accumulator_width_for(fmt, capacity)),
        );
        if fmt.n() <= dp_posit::lut::MAX_LUT_WIDTH {
            unit.lut = dp_posit::lut::cached(fmt);
            unit.emac = dp_posit::lut::emac_cached(fmt);
        } else {
            unit.split = dp_posit::lut::split_cached(fmt);
        }
        unit.product = dp_posit::lut::product_cached(fmt);
        Ok(unit)
    }

    /// Creates a unit on the pre-LUT reference datapath: Algorithm-1
    /// bit-field decode per MAC and the limb-based `WideInt` register,
    /// regardless of format width. Kept for differential testing and for
    /// benchmarking the fast paths against it.
    ///
    /// # Panics
    ///
    /// Panics if `es > n − 3`, as for [`PositEmac::new`].
    pub fn new_reference(fmt: PositFormat, capacity: u64) -> Self {
        Self::check_format(fmt).expect("posit EMAC requires es <= n-3 (paper datapath)");
        let capacity = capacity.max(1);
        Self::build(
            fmt,
            capacity,
            Accum::new_wide(Self::accumulator_width_for(fmt, capacity)),
        )
    }

    /// Caps the slice-level kernel this unit may select — a bench/test
    /// knob for comparing kernels on one format. [`MacKernel::ProductTable`]
    /// (the default cap) changes nothing; [`MacKernel::BatchedFused`] keeps
    /// the unit off the finished-product table; [`MacKernel::Scalar`]
    /// additionally off the fused operands, so [`Emac::dot_slice`] loops
    /// the scalar datapath. The decode tables and the accumulator window
    /// are untouched, so results stay bit-identical under any cap.
    pub fn with_kernel_cap(mut self, cap: MacKernel) -> Self {
        self.cap = cap;
        self
    }

    fn check_format(fmt: PositFormat) -> Result<(), UnsupportedFormat> {
        if fmt.es() > fmt.n() - 3 {
            return Err(UnsupportedFormat::new(format!(
                "{fmt}: posit EMAC requires es <= n-3 (no significand bits, \
                 no paper datapath)"
            )));
        }
        Ok(())
    }

    /// A unit with no tables: the reference datapath on `acc`.
    fn build(fmt: PositFormat, capacity: u64, acc: Accum) -> Self {
        PositEmac {
            fmt,
            capacity,
            acc,
            lut: None,
            split: None,
            emac: None,
            product: None,
            cap: MacKernel::ProductTable,
            fbits: fmt.n() - 2 - fmt.es(),
            sf_bias: 2 * fmt.max_scale(),
            count: 0,
            nar: false,
            gather: Vec::new(),
        }
    }

    /// True when this unit runs the fused table/split operands + native
    /// (`i128` or two-word 256-bit) accumulator fast path.
    pub fn is_fast_path(&self) -> bool {
        self.kernel() != MacKernel::Scalar
    }

    /// Decode via the monolithic table (`n ≤ 12`) or the split table
    /// (13–16 bits) when present, Algorithm 1 otherwise. Exactly one path
    /// exists per format, so LUT and fallback results never mix.
    #[inline]
    fn decode_bits(&self, bits: u32) -> Decoded {
        match (self.lut, self.split) {
            (Some(lut), _) => lut.decode(bits),
            (None, Some(split)) => split.decode(bits),
            (None, None) => decode(self.fmt, bits),
        }
    }

    /// The format of this unit.
    pub fn format(&self) -> PositFormat {
        self.fmt
    }

    /// Register width: paper eq. (4) plus the explicit product fraction
    /// tail (`2F − 2` bits) this layout keeps below minpos².
    pub fn accumulator_width_for(fmt: PositFormat, k: u64) -> u32 {
        let qsize_eq4 = (1u32 << (fmt.es() + 2)) * (fmt.n() - 2) + 2 + ceil_log2(k);
        let tail = 2 * (fmt.n() - 2 - fmt.es()) - 2;
        qsize_eq4 + tail
    }

    /// Paper eq. (4) exactly, for reference and reporting.
    pub fn paper_qsize(fmt: PositFormat, k: u64) -> u32 {
        (1u32 << (fmt.es() + 2)) * (fmt.n() - 2) + 2 + ceil_log2(k)
    }

    /// Extracts the fixed-width `F`-bit significand (hidden bit at MSB)
    /// from a decoded left-aligned significand.
    fn field(&self, sig: u64) -> u64 {
        sig >> (64 - self.fbits)
    }

    fn add_sig(&mut self, sign: bool, frac: u128, sf_lsb: i32) {
        // Position of the value's LSB inside the register: biased shift.
        debug_assert!(sf_lsb >= 0, "biased scale factor must be non-negative");
        self.acc.add_shifted_u128(frac, sf_lsb as usize, sign);
    }

    /// The reference [`Emac::mac`] datapath (Algorithms 1–2, scalar band)
    /// without the `macs_done` bookkeeping.
    fn reference_mac(&mut self, weight: u32, activation: u32) {
        let (uw, ua) = match (self.decode_bits(weight), self.decode_bits(activation)) {
            (Decoded::NaR, _) | (_, Decoded::NaR) => {
                self.nar = true;
                return;
            }
            (Decoded::Zero, _) | (_, Decoded::Zero) => return,
            (Decoded::Finite(uw), Decoded::Finite(ua)) => (uw, ua),
        };
        // Algorithm 2, Multiplication: F-bit significand product. The
        // overflow renormalization of lines 8–10 (`normfrac = prod >> ovf`,
        // `sf += ovf`) is a no-op on the *value*; the hardware keeps the
        // full 2F-bit product (Fig. 5 labels the path 2(n−2−es)+1 wide), so
        // this model places the unshifted product at the unbumped scale —
        // bit-identical, and provably lossless.
        let fw = self.field(uw.sig);
        let fa = self.field(ua.sig);
        let prod = (fw as u128) * (fa as u128); // [2^(2F-2), 2^(2F))
        let sf_mult = uw.scale + ua.scale;
        // Accumulation (lines 11-14): biased shift, signed add.
        let sf_biased = sf_mult + self.sf_bias; // line 12
        self.add_sig(uw.sign ^ ua.sign, prod, sf_biased);
    }

    /// Runs `job` through the shared kernel family on the fast `band`,
    /// with this unit's fused operands — one monomorphized body per entry
    /// source.
    #[inline(always)]
    fn run(&mut self, band: MacKernel, job: Job) {
        match (self.emac, self.split) {
            (Some(t), _) => self.run_with(PositOperands(move |b| t.entry(b)), band, job),
            (None, Some(s)) => self.run_with(PositOperands(move |b| s.entry(b)), band, job),
            (None, None) => unreachable!("fast band without fused operands"),
        }
    }

    #[inline(always)]
    fn run_with<O: Operands<Product = ProductEntry>>(&mut self, ops: O, band: MacKernel, job: Job) {
        let products = (self.product)
            .filter(|_| band == MacKernel::ProductTable)
            .map(|t| move |w, a| t.entry(w, a));
        match job {
            Job::Mac(w, a) => self.nar |= kernel::mac(ops, &mut self.acc, w, a),
            Job::Row(weights, xs) => {
                let register = (&mut self.acc, &mut self.nar);
                kernel::row(ops, products, register, weights, xs)
            }
            Job::Tile(weights, cols, out) => {
                let (seed, seed_nar) = (self.acc.clone(), self.nar);
                let mut gather = std::mem::take(&mut self.gather);
                let emit = |j: usize, acc, nar| {
                    (self.acc, self.nar) = (acc, nar);
                    out[j] = self.result();
                };
                let seed = (&seed, seed_nar);
                kernel::tile(ops, products, &mut gather, seed, weights, cols, emit);
                self.gather = gather;
            }
        }
    }
}

impl Emac for PositEmac {
    fn reset(&mut self) {
        self.acc.clear();
        self.count = 0;
        self.nar = false;
    }

    fn set_bias(&mut self, bias: u32) {
        self.reset();
        match self.decode_bits(bias) {
            Decoded::Zero => {}
            Decoded::NaR => self.nar = true,
            Decoded::Finite(u) => {
                // value = f × 2^(scale − F + 1) with f the F-bit significand;
                // register bit b weighs 2^(b − sf_bias − (2F−2)), so the
                // bias lands with its LSB at scale + F − 1 + sf_bias.
                let f = self.field(u.sig) as u128;
                let pos = u.scale + self.fbits as i32 - 1 + self.sf_bias;
                self.add_sig(u.sign, f, pos);
            }
        }
    }

    #[inline]
    fn mac(&mut self, weight: u32, activation: u32) {
        self.count += 1;
        debug_assert!(self.count <= self.capacity, "posit EMAC over capacity");
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
        debug_assert!(self.count <= self.capacity, "posit EMAC over capacity");
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
        debug_assert!(k as u64 <= self.capacity, "posit EMAC over capacity");
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
        } else if (self.emac.is_some() || self.split.is_some()) && self.acc.is_native() {
            MacKernel::BatchedFused
        } else {
            MacKernel::Scalar
        };
        band.min(self.cap)
    }

    fn result(&self) -> u32 {
        if self.nar {
            return self.fmt.nar_bits();
        }
        // Fraction & SF extraction (lines 15-19) + convergent rounding.
        let w = match self.acc.window() {
            None => return self.fmt.zero_bits(),
            Some(w) => w,
        };
        // Register bit b has weight 2^(b − sf_bias − (2F−2)).
        let scale = w.msb as i32 - self.sf_bias - (2 * self.fbits as i32 - 2);
        encode(self.fmt, w.sign, scale, w.sig, w.sticky)
    }

    fn macs_done(&self) -> u64 {
        self.count
    }

    fn pipeline_depth(&self) -> u32 {
        5 // decode → multiply/shift → accumulate → extract → round/encode
    }

    fn accumulator_width(&self) -> u32 {
        Self::accumulator_width_for(self.fmt, self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_posit::convert::{from_f64, to_f64};
    use dp_posit::Quire;

    fn fmt(n: u32, es: u32) -> PositFormat {
        PositFormat::new(n, es).unwrap()
    }

    #[test]
    fn widths_match_paper_eq4() {
        assert_eq!(PositEmac::paper_qsize(fmt(8, 0), 1), 26);
        assert_eq!(PositEmac::paper_qsize(fmt(8, 1), 128), 8 * 6 + 2 + 7);
        assert_eq!(PositEmac::paper_qsize(fmt(16, 1), 16), 8 * 14 + 2 + 4);
        assert!(PositEmac::accumulator_width_for(fmt(8, 0), 1) >= 26);
    }

    #[test]
    fn simple_dot_products() {
        let f = fmt(8, 0);
        let mut e = PositEmac::new(f, 8);
        e.mac(from_f64(f, 0.5), from_f64(f, 2.0));
        e.mac(from_f64(f, 0.5), from_f64(f, 0.5));
        assert_eq!(to_f64(f, e.result()), 1.25);
        assert_eq!(e.macs_done(), 2);
    }

    #[test]
    fn bias_seeding_matches_quire() {
        let f = fmt(8, 1);
        for bias_v in [-2.0, -0.25, 0.0, 0.125, 1.0, 3.5] {
            let bias = from_f64(f, bias_v);
            let mut e = PositEmac::new(f, 4);
            e.set_bias(bias);
            e.mac(from_f64(f, 1.5), from_f64(f, -0.5));
            let mut q = Quire::new(f, 4);
            q.add_posit(bias);
            q.add_product(from_f64(f, 1.5), from_f64(f, -0.5));
            assert_eq!(e.result(), q.to_posit(), "bias {bias_v}");
        }
    }

    #[test]
    fn nar_poisons() {
        let f = fmt(8, 0);
        let mut e = PositEmac::new(f, 4);
        e.mac(f.nar_bits(), f.one_bits());
        assert_eq!(e.result(), f.nar_bits());
        e.reset();
        assert_eq!(e.result(), 0);
    }

    #[test]
    fn single_product_equals_rounded_mul_exhaustive_p8() {
        for es in [0u32, 1, 2] {
            let f = fmt(8, es);
            for a in f.reals() {
                for b in [0u32, 1, 0x23, 0x40, 0x55, 0x7f, 0x81, 0xc0, 0xff] {
                    if b == f.nar_bits() {
                        continue;
                    }
                    let mut e = PositEmac::new(f, 1);
                    e.mac(a, b);
                    assert_eq!(
                        e.result(),
                        dp_posit::ops::mul(f, a, b),
                        "{f}: {a:#x} × {b:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_quire_on_random_dots() {
        // The quire is an independently implemented accumulator with the
        // same exactness contract; the Algorithm-2 datapath must agree.
        let mut state = 0xfeed_beef_dead_cafeu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (n, es) in [
            (5u32, 0u32),
            (6, 1),
            (7, 0),
            (8, 0),
            (8, 1),
            (8, 2),
            (12, 1),
            (16, 1),
        ] {
            let f = fmt(n, es);
            for _ in 0..300 {
                let len = (next() % 24 + 1) as usize;
                let mut e = PositEmac::new(f, len as u64);
                let mut q = Quire::new(f, len as u64);
                for _ in 0..len {
                    let mut w = (next() as u32) & f.mask();
                    let mut a = (next() as u32) & f.mask();
                    if w == f.nar_bits() {
                        w = 0;
                    }
                    if a == f.nar_bits() {
                        a = 0;
                    }
                    e.mac(w, a);
                    q.add_product(w, a);
                }
                assert_eq!(e.result(), q.to_posit(), "{f}");
            }
        }
    }

    #[test]
    fn saturates_at_maxpos() {
        let f = fmt(8, 0);
        let mut e = PositEmac::new(f, 16);
        for _ in 0..16 {
            e.mac(f.maxpos_bits(), f.maxpos_bits());
        }
        assert_eq!(e.result(), f.maxpos_bits());
    }

    #[test]
    fn minpos_squared_rounds_to_minpos_not_zero() {
        let f = fmt(8, 2);
        let mut e = PositEmac::new(f, 1);
        e.mac(f.minpos_bits(), f.minpos_bits());
        assert_eq!(e.result(), f.minpos_bits());
    }

    #[test]
    #[should_panic(expected = "es <= n-3")]
    fn rejects_formats_without_significand() {
        PositEmac::new(fmt(8, 6), 4);
    }
}
