//! Slice- and tile-level MAC kernels, written once for the posit and
//! float families.
//!
//! The paper's performance story is the exact EMAC dot product
//! (eqs. 3–4); a software model that dispatches one [`crate::Emac::mac`]
//! call per weight pays per-element dispatch, per-element table lookup and
//! a per-element wide accumulate. [`crate::Emac::dot_slice`] instead hands
//! the unit a whole `(weights, activations)` row, and
//! [`crate::Emac::dot_tile`] one weight row against `B` activation
//! columns. Each unit selects a [`MacKernel`] **once per (format band,
//! accumulator window)** at construction:
//!
//! * [`MacKernel::ProductTable`] — formats of ≤ 8 bits with an `i128`
//!   accumulator window. A `2^(2n)`-entry table of *finished* products
//!   (sign, shift, product fused into one word — see
//!   `dp_posit::lut::ProductLut` and its minifloat/fixed counterparts)
//!   removes the multiply entirely: the inner loop is one table load and
//!   one shifted add.
//! * [`MacKernel::BatchedFused`] — the ≤ 16-bit fused-operand paths
//!   (monolithic LUT, split regime-prefix table, computed bit-field
//!   operands) with a native accumulator: one small multiply per MAC, the
//!   `i128` accumulate running as a wrapping two-word add
//!   ([`I128Lanes`]) and the 256-bit one through [`Accum`].
//! * [`MacKernel::Scalar`] — everything else (wide formats on the
//!   [`dp_posit::WideInt`] register, and every `new_reference()` unit):
//!   the slice loops the unit's own reference `mac()` datapath, which
//!   stays the differential baseline.
//!
//! [`TileKernel`] extends that table by a batch-width axis: `B ≤ 1` runs
//! the row kernel per column, and at `B ≥ 2` the product band runs the
//! cache-blocked product tile and the fused band the gathered fused tile.
//!
//! ## One kernel family
//!
//! The posit (Fig. 5) and float (Fig. 4) units share every band body in
//! this module. Both families pack a fused operand (`EmacEntry`) and a
//! finished product (`ProductEntry`) in the same bit layouts, so the
//! bodies are generic over one operand-source trait, [`Operands`],
//! monomorphized per family and per entry source. A family supplies:
//!
//! * its finished-product word — posit and float `ProductEntry` share one
//!   layout: product in bits 0..16, register shift in 16..26, sign at 26,
//!   special flag at 27;
//! * the fused-operand entry lookup — the posit per-pattern table or
//!   split regime-prefix table, the float per-pattern table or computed
//!   bit fields (`EmacDirect`);
//! * its special-value bit — posit NaR, float Inf/NaN;
//! * its product-term rule — posit places `field·field` at the biased
//!   scale sum `bw + ba`; float at `bw + ba − 2·wf`, a right shift that is
//!   exact when negative (subnormal products carry that many trailing
//!   zeros), and trailing-zero normalization on the wide window.
//!
//! What is left is one copy of each body: the product tile (4-wide / pair
//! / single-column groups over [`PRODUCT_TILE_BLOCK`]-weight K-blocks),
//! the fused tile on the `i128` window, the fused tile on the 256-bit and
//! wide windows, and the fused step. A row (`dot_slice`) runs its band's
//! lane body with one column, in place on the unit's register, and
//! `mac()` on a fast unit is one fused step: a unit only picks its entry
//! source and hands the call over as a [`Job`]. The fixed-point unit
//! keeps its own `i64` partial-sum kernels: they share no arithmetic with
//! these shifted-lane bodies.
//!
//! Every kernel accumulates the same exact integer terms, and exact
//! integer addition commutes, so kernel choice can never change a result
//! bit — pinned against the reference datapath by the
//! `kernel_equivalence` and `tile_equivalence` suites.

use crate::acc::Accum;
use std::fmt;

/// Which slice-level MAC kernel a unit selected. Selection happens once
/// at construction, per (format band, accumulator window): ≤ 8-bit
/// formats on an `i128` window take [`MacKernel::ProductTable`], ≤ 16-bit
/// fused-operand paths on a native window take
/// [`MacKernel::BatchedFused`], and everything else (wide formats,
/// `new_reference()` units) loops the scalar datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MacKernel {
    /// Scalar `mac()` loop: bit-field or table decode per element, any
    /// accumulator. The reference band (> 16 bits, and every
    /// `new_reference()` unit).
    Scalar,
    /// Batched fused-operand kernel: gathered table/computed entries,
    /// unrolled, hi/lo-lane native accumulate. The ≤ 16-bit band.
    BatchedFused,
    /// Finished-product table kernel: one `2^(2n)`-entry lookup replaces
    /// decode *and* multiply. The ≤ 8-bit band on an `i128` window.
    ProductTable,
}

impl MacKernel {
    /// Stable snake_case name, used in bench row names and reports.
    pub fn name(self) -> &'static str {
        match self {
            MacKernel::ProductTable => "product_table",
            MacKernel::BatchedFused => "batched_fused",
            MacKernel::Scalar => "scalar",
        }
    }
}

impl fmt::Display for MacKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Weights per K-block of the cache-blocked product tile. Each weight owns
/// one contiguous `2^n`-entry table row (1 KiB at n = 8, 4-byte entries),
/// so a block keeps ≤ 32 KiB of table lines — comfortably inside L1 —
/// resident while all `B` columns stream through it.
pub const PRODUCT_TILE_BLOCK: usize = 32;

/// Columns per register group of the tile kernels. A full group runs as
/// a 4-wide micro-kernel: four independent lane chains held in locals
/// (4 × `u128` ≈ 8 GPRs — fits the x86-64 register file where 8 chains
/// would spill), each weight's table row (hot in cache) or gathered
/// operand shared by all four columns. Partial groups fall back to
/// a two-chain pair loop plus a single-column tail; wider batches are
/// processed group by group, and per-group accumulator state lives in
/// fixed-size stack arrays (no heap traffic on the tile path).
pub(crate) const TILE_COL_GROUP: usize = 4;

/// Which tile-level kernel [`crate::Emac::dot_tile`] runs for a given
/// batch width — the row-kernel table of [`MacKernel`] extended by a
/// batch-width axis. `B ≤ 1` always wraps the row kernel; at `B ≥ 2` the
/// fused band gathers weight operands once ([`TileKernel::GatherFused`]),
/// the product band cache-blocks its table
/// ([`TileKernel::BlockedProduct`]), and the scalar band stays the
/// per-column differential baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileKernel {
    /// Per-column loop over the wrapped row kernel: `B ≤ 1` tiles and the
    /// scalar band.
    PerColumn(MacKernel),
    /// Weight-stationary gather tile: the row's fused operands (LUT /
    /// split / computed / sign-extension) are gathered once, then every
    /// column streams through a monomorphized branch-free inner loop.
    GatherFused,
    /// Cache-blocked finished-product tile: K is tiled in
    /// [`PRODUCT_TILE_BLOCK`]-weight blocks kept hot across all columns.
    BlockedProduct,
}

impl TileKernel {
    /// Stable snake_case name, used in bench row names and reports. Tile
    /// fast paths end in `_tile`; per-column wrappers name the row kernel
    /// they loop.
    pub fn name(self) -> &'static str {
        match self {
            TileKernel::BlockedProduct => "product_tile",
            TileKernel::GatherFused => "fused_tile",
            TileKernel::PerColumn(MacKernel::ProductTable) => "per_column_product_table",
            TileKernel::PerColumn(MacKernel::BatchedFused) => "per_column_batched_fused",
            TileKernel::PerColumn(MacKernel::Scalar) => "per_column_scalar",
        }
    }

    /// The row kernel this tile body accumulates through.
    pub fn row_kernel(self) -> MacKernel {
        match self {
            TileKernel::BlockedProduct => MacKernel::ProductTable,
            TileKernel::GatherFused => MacKernel::BatchedFused,
            TileKernel::PerColumn(k) => k,
        }
    }
}

impl fmt::Display for TileKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Significand mask of the fused-operand layout shared by posit and float
/// `EmacEntry` words: significand in bits 0..16, biased scale in 16..32,
/// sign at bit 32 ([`ENTRY_SIGN`]), special flag at bit 33
/// ([`Operands::SPECIAL`]).
const ENTRY_FIELD: u64 = 0xffff;
/// Sign bit of a fused operand word.
const ENTRY_SIGN: u64 = 1 << 32;

/// Product mask of the finished-product layout shared by posit and float
/// `ProductEntry` words: product in bits 0..16, register shift in 16..26
/// ([`PRODUCT_SHIFT`]), sign at bit 26, special flag at bit 27.
const PRODUCT_FIELD: u32 = 0xffff;
/// Register-shift mask of a finished product, after shifting down by 16.
const PRODUCT_SHIFT: u32 = 0x3ff;
/// Sign bit of a finished product.
const PRODUCT_SIGN: u32 = 1 << 26;
/// Special (NaR, Inf/NaN) flag of a finished product.
const PRODUCT_SPECIAL: u32 = 1 << 27;

/// What one EMAC family and entry source supply to the shared kernel
/// bodies. The posit and float units implement it once per family over
/// their entry lookup, so every body is monomorphized per family and per
/// entry source and none of them branches on either.
pub(crate) trait Operands: Copy {
    /// The family's finished-product word (`ProductEntry`).
    type Product: Copy + 'static;
    /// The fused-operand flag of a special pattern: posit NaR, float
    /// Inf/NaN. Special operands carry a zero significand.
    const SPECIAL: u64;
    /// The bits of a finished product, in the shared product layout.
    fn product_word(p: Self::Product) -> u32;
    /// The fused operand word of pattern `bits`, in the shared layout.
    fn entry(self, bits: u32) -> u64;
    /// The magnitude the significand product `prod` adds to the `i128`
    /// window, given the sum of both operands' biased scales.
    fn term(self, prod: u64, scales: u32) -> u128;
    /// The `(magnitude, register shift)` a nonzero significand product
    /// adds to a wide window, given the sum of the biased scales.
    fn wide_term(self, prod: u64, scales: u32) -> (u128, usize);
}

/// One call into the kernel family, as a posit or float unit hands it
/// over once it has picked its entry source.
pub(crate) enum Job<'a> {
    /// `mac()`: one fused step.
    Mac(u32, u32),
    /// `dot_slice`: one row `(weights, activations)`, in place.
    Row(&'a [u32], &'a [u32]),
    /// `dot_tile` at B ≥ 2 `(weights, cols, out)`, from the current
    /// register: column `j` rounds into `out[j]`.
    Tile(&'a [u32], &'a [&'a [u32]], &'a mut [u32]),
}

/// Runs a tile of `cols` (B ≥ 2) against `weights` on a fast band,
/// seeded from the register `seed` (accumulator, special flag), and hands
/// each column's final register to `emit` in column order.
///
/// With the family's finished-product lookup `products` on an `i128`
/// seed this is the product tile; otherwise the fused tile on the seed's
/// window, its weight operands gathered once into `gather` (unit-owned
/// scratch that keeps a tile sweep over a layer allocation-free).
pub(crate) fn tile<O: Operands, R: Fn(u32, u32) -> O::Product>(
    ops: O,
    products: Option<R>,
    gather: &mut Vec<u64>,
    seed: (&Accum, bool),
    weights: &[u32],
    cols: &[&[u32]],
    mut emit: impl FnMut(usize, Accum, bool),
) {
    match (products, seed) {
        (Some(products), (&Accum::Small(acc), special)) => {
            product_tile::<O>(products, (acc, special), weights, cols, &mut emit)
        }
        (_, (&Accum::Small(acc), special)) => {
            fused_tile(ops, gather, (acc, special), weights, cols, &mut emit)
        }
        (_, seed) => wide_tile(ops, gather, seed, weights, cols, &mut emit),
    }
}

/// Accumulates one row (`dot_slice` on a fast unit) into the register
/// `(acc, special)` in place: the band's tile body with one column,
/// seeded from the current register. A row has nothing to share its
/// weight operands or table rows with, so it looks them up in stride and
/// streams K in one pass.
pub(crate) fn row<O: Operands, R: Fn(u32, u32) -> O::Product>(
    ops: O,
    products: Option<R>,
    (acc, special): (&mut Accum, &mut bool),
    weights: &[u32],
    activations: &[u32],
) {
    let (cols, wents) = ([activations], weights.iter().map(|&w| ops.entry(w)));
    let Accum::Small(seed) = *acc else {
        return wide_column(ops, (acc, special), wents, activations);
    };
    let (mut lanes, mut flags) = ([I128Lanes::from_i128(seed)], [0]);
    match products {
        Some(products) => {
            product_lanes::<O, 1>(&products, weights, 0, &cols, &mut lanes, &mut flags)
        }
        None => fused_lanes::<O, 1>(ops, wents, weights.len(), &cols, &mut lanes, &mut flags),
    }
    *acc = Accum::Small(lanes[0].into_i128());
    *special |= flags[0] != 0;
}

/// Checks a [`crate::Emac::dot_tile`] call's shapes: one output per
/// column, every column as long as the weight row.
///
/// # Panics
///
/// Panics on either mismatch, as `dot_tile` documents.
pub(crate) fn check_tile(weights: &[u32], cols: &[&[u32]], out: &[u32]) {
    assert_eq!(
        cols.len(),
        out.len(),
        "dot_tile: column/output length mismatch"
    );
    for col in cols {
        assert_eq!(
            col.len(),
            weights.len(),
            "dot_tile: column/weight length mismatch"
        );
    }
}

/// One MAC through the fused step of the register's window — `mac()` on
/// a fast unit. Returns whether a special operand was seen.
pub(crate) fn mac<O: Operands>(ops: O, acc: &mut Accum, weight: u32, activation: u32) -> bool {
    let (ew, ea) = (ops.entry(weight), ops.entry(activation));
    if let Accum::Small(reg) = acc {
        let mut lanes = I128Lanes::from_i128(*reg);
        let mut special = 0;
        fused_step(ops, ew, ea, &mut lanes, &mut special);
        *reg = lanes.into_i128();
        return special != 0;
    }
    let mut special = false;
    wide_step(ops, ew, ea, acc, &mut special);
    special
}

/// The product tile ([`TileKernel::BlockedProduct`]): columns in
/// [`TILE_COL_GROUP`]-wide chunks, K tiled in [`PRODUCT_TILE_BLOCK`]-weight
/// blocks so a block's table rows stay hot across the chunk's 4-wide or
/// pair + tail passes.
fn product_tile<O: Operands>(
    products: impl Fn(u32, u32) -> O::Product,
    (seed, seed_special): (i128, bool),
    weights: &[u32],
    cols: &[&[u32]],
    emit: &mut impl FnMut(usize, Accum, bool),
) {
    for (c, chunk) in cols.chunks(TILE_COL_GROUP).enumerate() {
        let n = chunk.len();
        let mut lanes = [I128Lanes::from_i128(seed); TILE_COL_GROUP];
        let mut special = [0; TILE_COL_GROUP];
        for (kb, wblock) in weights.chunks(PRODUCT_TILE_BLOCK).enumerate() {
            let (base, l, s) = (kb * PRODUCT_TILE_BLOCK, &mut lanes, &mut special);
            if n == TILE_COL_GROUP {
                product_lanes::<O, 4>(&products, wblock, base, chunk, l, s);
                continue;
            }
            if n >= 2 {
                product_lanes::<O, 2>(&products, wblock, base, chunk, l, s);
            }
            if n % 2 == 1 {
                let (tail, l, s) = (&chunk[n - 1..], &mut l[n - 1..], &mut s[n - 1..]);
                product_lanes::<O, 1>(&products, wblock, base, tail, l, s);
            }
        }
        emit_group(
            emit,
            c * TILE_COL_GROUP,
            (&lanes[..n], &special[..n]),
            seed_special,
        );
    }
}

/// Hands a register group's lane chains to `emit` as tile columns
/// `j0..`, each column's special flag joined with the seed's.
fn emit_group(
    emit: &mut impl FnMut(usize, Accum, bool),
    j0: usize,
    (lanes, special): (&[I128Lanes], &[u64]),
    seed_special: bool,
) {
    for (j, (lanes, &special)) in lanes.iter().zip(special).enumerate() {
        emit(
            j0 + j,
            Accum::Small(lanes.into_i128()),
            seed_special || special != 0,
        );
    }
}

/// `G` product-table lane chains over one K-block starting at weight
/// `base`: each weight's table row is read by the `G` columns in turn,
/// one finished-product lookup per MAC.
#[inline(always)]
fn product_lanes<O: Operands, const G: usize>(
    products: &impl Fn(u32, u32) -> O::Product,
    wblock: &[u32],
    base: usize,
    cols: &[&[u32]],
    lanes: &mut [I128Lanes],
    special: &mut [u64],
) {
    let n = wblock.len();
    let cols: [&[u32]; G] = std::array::from_fn(|j| &cols[j][base..base + n]);
    let mut l: [I128Lanes; G] = std::array::from_fn(|j| lanes[j]);
    let mut s: [u64; G] = std::array::from_fn(|j| special[j]);
    for i in 0..n {
        let w = wblock[i];
        for j in 0..G {
            let p = O::product_word(products(w, cols[j][i]));
            s[j] |= u64::from(p & PRODUCT_SPECIAL);
            let (prod, shift) = ((p & PRODUCT_FIELD) as u128, (p >> 16) & PRODUCT_SHIFT);
            debug_assert!(
                shift + (128 - prod.leading_zeros()) <= 127,
                "product-table kernel requires the i128 window"
            );
            l[j].add_select(prod << shift, p & PRODUCT_SIGN != 0);
        }
    }
    lanes[..G].copy_from_slice(&l);
    special[..G].copy_from_slice(&s);
}

/// The fused step on the `i128` window: one significand product at the
/// family's term, one branch-free lane add. A special operand's zero
/// significand makes its term zero, so only the flag records it.
#[inline(always)]
fn fused_step<O: Operands>(ops: O, ew: u64, ea: u64, lanes: &mut I128Lanes, special: &mut u64) {
    *special |= (ew | ea) & O::SPECIAL;
    let (prod, scales, negate) = multiply(ew, ea);
    lanes.add_select(ops.term(prod, scales), negate);
}

/// The fused step on a wide window: special operands and zero products
/// add nothing, the rest add at the family's wide term.
#[inline(always)]
fn wide_step<O: Operands>(ops: O, ew: u64, ea: u64, acc: &mut Accum, special: &mut bool) {
    if (ew | ea) & O::SPECIAL != 0 {
        *special = true;
        return;
    }
    let (prod, scales, negate) = multiply(ew, ea);
    if prod != 0 {
        let (magnitude, shift) = ops.wide_term(prod, scales);
        acc.add_shifted_u128(magnitude, shift, negate);
    }
}

/// Two fused operand words' significand product, biased-scale sum and
/// product sign.
#[inline(always)]
fn multiply(ew: u64, ea: u64) -> (u64, u32, bool) {
    let prod = (ew & ENTRY_FIELD) * (ea & ENTRY_FIELD);
    let scales = ((ew >> 16) & ENTRY_FIELD) + ((ea >> 16) & ENTRY_FIELD);
    (prod, scales as u32, (ew ^ ea) & ENTRY_SIGN != 0)
}

/// The fused tile on the `i128` window ([`TileKernel::GatherFused`]): the
/// weight operands are gathered once, then the columns stream in register
/// groups through the fused step, each gathered weight entry shared by
/// the group's lane chains.
fn fused_tile<O: Operands>(
    ops: O,
    gather: &mut Vec<u64>,
    (seed, seed_special): (i128, bool),
    weights: &[u32],
    cols: &[&[u32]],
    emit: &mut impl FnMut(usize, Accum, bool),
) {
    let k = weights.len();
    gather.clear();
    gather.extend(weights.iter().map(|&w| ops.entry(w)));
    let wents = &gather[..k];
    for (c, chunk) in cols.chunks(TILE_COL_GROUP).enumerate() {
        let n = chunk.len();
        let mut lanes = [I128Lanes::from_i128(seed); TILE_COL_GROUP];
        let mut special = [0; TILE_COL_GROUP];
        let (l, s) = (&mut lanes, &mut special);
        if n == TILE_COL_GROUP {
            fused_lanes::<O, 4>(ops, wents.iter().copied(), k, chunk, l, s);
        } else {
            if n >= 2 {
                fused_lanes::<O, 2>(ops, wents.iter().copied(), k, chunk, l, s);
            }
            if n % 2 == 1 {
                let (tail, l, s) = (&chunk[n - 1..], &mut l[n - 1..], &mut s[n - 1..]);
                fused_lanes::<O, 1>(ops, wents.iter().copied(), k, tail, l, s);
            }
        }
        emit_group(
            emit,
            c * TILE_COL_GROUP,
            (&lanes[..n], &special[..n]),
            seed_special,
        );
    }
}

/// `G` fused lane chains on the `i128` window over the `k` weight
/// operands `wents`, each shared by the `G` columns.
#[inline(always)]
fn fused_lanes<O: Operands, const G: usize>(
    ops: O,
    wents: impl Iterator<Item = u64>,
    k: usize,
    cols: &[&[u32]],
    lanes: &mut [I128Lanes],
    special: &mut [u64],
) {
    let cols: [&[u32]; G] = std::array::from_fn(|j| &cols[j][..k]);
    let mut l: [I128Lanes; G] = std::array::from_fn(|j| lanes[j]);
    let mut s: [u64; G] = std::array::from_fn(|j| special[j]);
    for (i, ew) in wents.enumerate() {
        for j in 0..G {
            fused_step(ops, ew, ops.entry(cols[j][i]), &mut l[j], &mut s[j]);
        }
    }
    lanes[..G].copy_from_slice(&l);
    special[..G].copy_from_slice(&s);
}

/// The fused tile on the 256-bit and wide windows: gathered weight
/// operands, one register per column cloned from the seed.
fn wide_tile<O: Operands>(
    ops: O,
    gather: &mut Vec<u64>,
    (seed, seed_special): (&Accum, bool),
    weights: &[u32],
    cols: &[&[u32]],
    emit: &mut impl FnMut(usize, Accum, bool),
) {
    gather.clear();
    gather.extend(weights.iter().map(|&w| ops.entry(w)));
    for (j, col) in cols.iter().enumerate() {
        let (mut acc, mut special) = (seed.clone(), seed_special);
        wide_column(ops, (&mut acc, &mut special), gather.iter().copied(), col);
        emit(j, acc, special);
    }
}

/// One column of the wide fused tile: the fused step over the weight
/// operands `wents` into the register `(acc, special)`.
#[inline(always)]
fn wide_column<O: Operands>(
    ops: O,
    (acc, special): (&mut Accum, &mut bool),
    wents: impl Iterator<Item = u64>,
    col: &[u32],
) {
    for (ew, &a) in wents.zip(col) {
        wide_step(ops, ew, ops.entry(a), acc, special);
    }
}

/// The fused kernels' two-word accumulation register, kept out of the
/// `Accum` enum so the unrolled loop body is plain word arithmetic with
/// no variant dispatch.
///
/// The register is held as a `u128` on purpose: unsigned two-word
/// arithmetic lowers to one `add`/`adc` (or `sub`/`sbb`) pair on the
/// hi/lo `u64` lanes, and letting the backend schedule that carry beat a
/// hand-split `(lo: u64, hi: u64)` + `overflowing_add` formulation when
/// measured on the dot-128 bench. Arithmetic is two's-complement mod
/// 2^128, identical to native `i128` wrapping arithmetic, and
/// eq.-(3)/(4) sizing guarantees the true sum fits 127 bits, so no
/// information is ever lost.
#[derive(Debug, Clone, Copy)]
struct I128Lanes {
    acc: u128,
}

impl I128Lanes {
    /// Splits an `i128` register into lanes.
    #[inline]
    fn from_i128(acc: i128) -> Self {
        I128Lanes { acc: acc as u128 }
    }

    /// `self += magnitude` (or `-=` when `negate`), branch-free: `negate`
    /// folds into a two's-complement mask (`(m ^ mask) − mask`). The tile
    /// kernels run up to four lane chains abreast, where one
    /// unpredictable sign branch per chain per weight would flush the
    /// work of all four.
    #[inline]
    fn add_select(&mut self, magnitude: u128, negate: bool) {
        let mask = (negate as u128).wrapping_neg();
        self.acc = self.acc.wrapping_add((magnitude ^ mask).wrapping_sub(mask));
    }

    /// Rejoins the lanes into the `i128` register.
    #[inline]
    fn into_i128(self) -> i128 {
        self.acc as i128
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_are_stable() {
        assert_eq!(MacKernel::ProductTable.name(), "product_table");
        assert_eq!(MacKernel::BatchedFused.to_string(), "batched_fused");
        assert_eq!(MacKernel::Scalar.name(), "scalar");
        // Ordering encodes "fanciness": caps compare against it.
        assert!(MacKernel::Scalar < MacKernel::BatchedFused);
        assert!(MacKernel::BatchedFused < MacKernel::ProductTable);
    }

    #[test]
    fn tile_kernel_names_and_row_kernels_are_stable() {
        assert_eq!(TileKernel::BlockedProduct.name(), "product_tile");
        assert_eq!(TileKernel::GatherFused.to_string(), "fused_tile");
        assert_eq!(
            TileKernel::PerColumn(MacKernel::Scalar).name(),
            "per_column_scalar"
        );
        assert_eq!(
            TileKernel::PerColumn(MacKernel::BatchedFused).name(),
            "per_column_batched_fused"
        );
        assert_eq!(
            TileKernel::PerColumn(MacKernel::ProductTable).name(),
            "per_column_product_table"
        );
        assert_eq!(
            TileKernel::BlockedProduct.row_kernel(),
            MacKernel::ProductTable
        );
        assert_eq!(
            TileKernel::GatherFused.row_kernel(),
            MacKernel::BatchedFused
        );
        assert_eq!(
            TileKernel::PerColumn(MacKernel::Scalar).row_kernel(),
            MacKernel::Scalar
        );
        // The block keeps at most 32 KiB of 8-bit table rows resident.
        const { assert!(PRODUCT_TILE_BLOCK * (1 << 8) * 4 <= 32 * 1024) }
    }

    #[test]
    fn shared_layouts_match_both_families() {
        use dp_minifloat::lut as float;
        use dp_posit::lut as posit;
        assert_eq!(posit::EmacEntry::SIGN_BIT, ENTRY_SIGN);
        assert_eq!(float::EmacEntry::SIGN_BIT, ENTRY_SIGN);
        assert_eq!(posit::ProductEntry::SIGN_BIT, PRODUCT_SIGN);
        assert_eq!(float::ProductEntry::SIGN_BIT, PRODUCT_SIGN);
        assert_eq!(posit::ProductEntry::NAR_BIT, PRODUCT_SPECIAL);
        assert_eq!(float::ProductEntry::SPECIAL_BIT, PRODUCT_SPECIAL);
        // Field accessors agree with the shared masks on every bit.
        let word = 0x3_ffff_ffffu64;
        let (pe, fe) = (posit::EmacEntry(word), float::EmacEntry(word));
        assert_eq!(pe.field(), word & ENTRY_FIELD);
        assert_eq!(fe.field(), word & ENTRY_FIELD);
        assert_eq!(pe.biased_scale(), (word >> 16) & ENTRY_FIELD);
        assert_eq!(fe.biased_scale(), (word >> 16) & ENTRY_FIELD);
        let (pp, fp) = (posit::ProductEntry(u32::MAX), float::ProductEntry(u32::MAX));
        assert_eq!(pp.product(), (PRODUCT_FIELD) as u64);
        assert_eq!(fp.product(), (PRODUCT_FIELD) as u64);
        assert_eq!(pp.shift(), PRODUCT_SHIFT);
        assert_eq!(fp.shift(), PRODUCT_SHIFT);
    }

    #[test]
    fn lanes_match_native_i128() {
        let mut s = 0x5eed_cafe_f00d_beefu64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..2000 {
            let mut acc: i128 = ((next() as i64) as i128) << (next() % 50);
            let mut lanes = I128Lanes::from_i128(acc);
            for _ in 0..(next() % 8 + 1) {
                let mag = ((next() % (1 << 16)) as u128) << (next() % 110);
                let neg = next() % 2 == 0;
                acc = if neg {
                    acc.wrapping_sub(mag as i128)
                } else {
                    acc.wrapping_add(mag as i128)
                };
                lanes.add_select(mag, neg);
            }
            assert_eq!(lanes.into_i128(), acc);
        }
    }
}
