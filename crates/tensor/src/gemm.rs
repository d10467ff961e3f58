//! Packed, register-blocked GEMM: the one driver behind
//! [`Tensor::matmul`](crate::Tensor::matmul), `matmul_tn`, `matmul_nt` and
//! [`Tensor::gemm_into`](crate::Tensor::gemm_into).
//!
//! # Tile layout
//!
//! The driver packs `B` into column panels, stored K-major
//! (`bpack[p * nr + jj]`), so the microkernel reads `B` contiguously no
//! matter which variant produced it — `matmul_nt`'s transposed access pattern
//! is absorbed entirely by the pack step. A short final panel is zero-padded.
//! `B` is packed once per call, unless the caller already holds its panels:
//! a [`Tensor`](crate::Tensor) marked to keep them (a frozen weight) packs
//! its `Nn` panels on its first product and hands them to every later one
//! (`NnPanels`, `gemm_kept`) until it is written to. A product of at most
//! [`MR`] rows reads each panel once, so it is not packed either: an `Nn` or
//! `Tn` right operand, already `(k, c)` row-major, is read where it is, at a
//! row stride of `c`, and only a short last panel is packed (into `k x nr`
//! floats) so that no tile reads past the operand.
//!
//! `A` is read in place, through [`MR`] row cursors (`ATile`): `Nn`/`Nt` row
//! `i` at `a[i * k + p]`, `Tn` row `i` at `a[p * r + i]`. A short row tile
//! points its padding cursors at its last real row; those lanes compute a
//! copy of that row, which is never written back, so padding cannot perturb
//! any output bit.
//!
//! | microkernel           | tile               | accumulators          | runs                                  |
//! |-----------------------|--------------------|-----------------------|---------------------------------------|
//! | `microkernel`         | `MR x 8`           | stack (SSE2: 16 regs) | any host; both panel widths           |
//! | `microkernel_avx2`    | `MR x 8`           | eight `ymm`           | AVX2; both panel widths               |
//! | `microkernel_avx512`  | `MR x 32`          | sixteen `zmm`         | AVX-512F; 32-wide panels              |
//! | `short_k_avx512`      | `8 x 32`           | sixteen `zmm`         | AVX-512F; other `k <= 16`             |
//! | `short_c_avx512`      | `32 x c`, by column| sixteen `zmm`         | AVX-512F; `Tn` with `c <= 16`         |
//!
//! # Short-side tiles
//!
//! A LoRA adapter's products have one side of rank `r = 8`: `x·A`, `g·Bᵀ`
//! and `xᵀ·g_xa` have 8 columns, `(x·A)·B` and `g_xa·Aᵀ` an inner dimension
//! of 8. On the panel tiles the first kind fills an 8-lane AVX2 register
//! and nothing wider, and the second runs a whole tile set-up and store per
//! 8 multiply-adds. On an AVX-512 host two tiles take them instead, and
//! read `B` where the caller holds it (no pack):
//!
//! - `short_k_avx512` (`k <= 16`) runs eight rows of `A` against 32
//!   columns at a time: the strip's `k` rows of `B` are loaded once per row
//!   group, every broadcast of `A` feeds two products, and each row goes
//!   straight into `out`. An `Nt` operand is first transposed, in
//!   registers, into `k x c` floats of scratch.
//! - `short_c_avx512` (a `Tn` product with `c <= 16`) turns the tile around:
//!   each accumulator is one output *column* over sixteen rows, 32 rows a
//!   tile when `c <= 8`, so all sixteen lanes work at `c = 8`. A `Tn`
//!   operand stores `A`'s columns contiguously; per `p` it loads them and
//!   broadcasts `B[p, j]`, and the finished tile is transposed back into
//!   rows on the way out. An `Nn`/`Nt` product with `c <= 16` keeps the
//!   AVX2 tile: transposing its `A` in registers measured no faster.
//!
//! Both keep one accumulator per output element, and its ascending-`p`
//! sequence, so they return the bits of every other kernel.
//!
//! # The panel width is chosen per call
//!
//! The panel width `nr` is [`NR`] (8) or `NR_WIDE` (32), a value threaded
//! from [`gemm`] through `pack_b`, `RowJob` and `gemm_rows` (and kept in
//! `NnPanels` beside panels packed ahead), not a constant:
//! 32 when the CPU has AVX-512F and the product has at least 32 columns,
//! otherwise 8. One width cannot serve both kinds of product a fine-tuning
//! step is made of. The expert FFN's projections are 64 to 1024 columns wide
//! and run 1.3–1.5× faster on the 512-bit tile. LoRA's adapters are 8 columns
//! wide (`x·A`, `g·Bᵀ`): padded to one 32-wide panel they do 4× the work, and
//! a global 32 was measured to give back on them everything the wide products
//! gained (EXPERIMENTS.md); they run the short-side tile instead. On 32-wide
//! panels the 8-wide kernels sweep four column strips per panel; only the
//! in-crate test asks them to, so that every host checks the wide pack
//! against the narrow one.
//!
//! # Why `Nt` packs by blocks
//!
//! `matmul_nt`'s `B` is `(c, k)` row-major, so a panel is the transpose of a
//! `nr x k` strip of rows. Walking one source row at a time writes the panel
//! at a stride of `nr` floats: at `nr = 32` every store opens a new cache
//! line, and `[16×1024]·[64×1024]ᵀ` took 198 µs, 2.2× what it took on 8-wide
//! panels, where it takes 47 µs now. The pack therefore works in blocks of a few values of `p` — a short run of every
//! source row in, 2 KiB of contiguous panel out — and on the AVX-512 path a
//! block is two 16×16 transposes held in registers (`transpose_16x16`).
//! Packing moves bits and never computes, so it cannot affect the contract
//! below.
//!
//! # Epilogue
//!
//! Every kernel writes its finished tile into `out` through one of four
//! [`Epilogue`]s: `out = acc`, `out = acc·s`, `out = out + acc` or
//! `out = out + acc·s`, straight from its registers (masked at a short
//! tile's edge), never through a copy on the stack. A caller that used to
//! scale a product, or add it to a tensor, in a pass of its own gets the
//! same bits in the same call, with no temporary: the epilogue applies
//! exactly the roundings those passes applied — `acc·s` rounds once, then
//! `out + ·` rounds once — to the same `acc`. LoRA's `y += s·(x·A)·B` and
//! its gradient updates are each one call. With `k = 0`, `acc` is `0.0`
//! and still goes through the epilogue.
//!
//! # Accumulation-order contract
//!
//! Every output element is accumulated in ascending inner-index (`p`) order
//! starting from `0.0`, in a dedicated accumulator slot that spans the full
//! `k` extent — there is no cache blocking over `k`, because splitting the
//! reduction would change rounding and break the bitwise parity contract
//! (serial and threaded runs, any `VELA_THREADS`, any variant: identical
//! bits). Threading only partitions output rows; tile boundaries inside a
//! row chunk don't affect per-element order, so any partition yields the
//! same bits. The multiply-adds are written as separate `*` and `+` (Rust
//! does not contract to FMA), matching the naive reference loops in the
//! parity suites.
//!
//! The contract is also independent of the instruction set and of the panel
//! width. An IEEE-754 single-precision multiply and an add each round once,
//! and a SIMD lane rounds exactly as the scalar instruction does, so as long
//! as every element keeps its own accumulator and its own ascending-`p`
//! sequence of `acc = acc + a*b`, the vector width only decides how many
//! elements advance per instruction, never what any of them holds: scalar,
//! 4-lane SSE2/NEON, 8-lane AVX2 and 16-lane AVX-512 agree to the last bit,
//! and so do a master and a `vela_worker` on different CPUs. Two things would
//! break that and stay out: a fused multiply-add rounds once where `*` then
//! `+` round twice (so `mul_add`/`+fma`, and AVX-512F's own `vfmadd`, change
//! bits relative to every host without FMA), and blocking over `k`
//! reassociates the sum.
//!
//! # Threads
//!
//! A product goes to the pool only when it clears the parallel cutoff, has
//! more than [`MR`] rows, and both its inner dimension and its column count
//! exceed 16: a product with a short side (every LoRA adapter product) lost
//! to the split on every shape measured, 0.53–0.69× on two lanes, and a
//! lane handed part of a single row tile computes all of it. Threads only
//! partition rows, so the rule moves no bit.
//!
//! # Instruction-set dispatch
//!
//! Packing, tiling and threading are one code path; the microkernel exists
//! three times over panels, and twice more as the AVX-512 short-side tiles.
//! `microkernel` is portable Rust that LLVM vectorizes at the
//! build target's baseline width (SSE2 on x86-64). On `x86_64`,
//! `microkernel_avx2` is the same loop in `std::arch` intrinsics — eight
//! `ymm` accumulator rows, one broadcast, one `vmulps` and one `vaddps` per
//! row per `p` — and `microkernel_avx512` the 8×32 one: sixteen `zmm`
//! accumulators, two panel loads and eight broadcasts per `p`, still separate
//! `vmulps` and `vaddps`. Each [`gemm`] call detects what the CPU has
//! (`is_x86_feature_detected!`, through the private `Isa`) and picks the
//! widest; there is no knob, cargo feature or build flag, nothing is cached
//! between calls, and the binary still runs on any x86-64 or aarch64 host.
//! The intrinsics are there because the autovectorizer is not dependable
//! above four lanes: compiling the portable body under
//! `#[target_feature(enable = "avx2")]` makes LLVM's SLP pass re-transpose
//! the accumulators with ~100 shuffles per `p` (slower than SSE2), and
//! whether it vectorizes the body at all depends on what it was inlined
//! into. An in-crate test runs every kernel the CPU has, at both panel
//! widths, over every layout and every epilogue, and asserts `to_bits()`
//! equality with a naive loop and with the portable kernel.

use std::ops::Range;

use vela_obs::LazyCounter;

use crate::{parallel, workspace};

/// GEMM dispatches that stayed on the calling thread (below the
/// parallel cutoff, a short side, or a single-lane pool) vs. went to the
/// pool.
static GEMM_SERIAL: LazyCounter = LazyCounter::new("tensor.gemm.serial");
static GEMM_PARALLEL: LazyCounter = LazyCounter::new("tensor.gemm.parallel");

/// Rows per microkernel tile (register-blocked output rows).
pub const MR: usize = 8;

/// Columns per narrow packed `B` panel, and per portable/AVX2 tile.
pub const NR: usize = 8;

/// Columns per wide packed `B` panel: one AVX-512 tile, two `zmm` per row.
const NR_WIDE: usize = 32;

/// The longest short side: a product whose inner dimension or column count
/// is at most this runs a short-side tile on an AVX-512 host, and never
/// splits across threads.
const SHORT_SIDE: usize = 16;

/// How the logical operands map onto the caller's row-major buffers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layout {
    /// `a: (r, k)`, `b: (k, c)` — plain `A @ B`.
    Nn,
    /// `a: (k, r)`, `b: (k, c)` — `A^T @ B` without materializing `A^T`.
    Tn,
    /// `a: (r, k)`, `b: (c, k)` — `A @ B^T` without materializing `B^T`.
    Nt,
}

/// What a product does with each element `acc` it computes, on the way into
/// `out`. Each arm rounds exactly as the separate pass it replaces: `acc·s`
/// is one multiply, `out + ·` one add.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Epilogue {
    /// `out = acc`; `out` need not hold anything before the call.
    Store,
    /// `out = acc·s`; `out` need not hold anything before the call.
    Scale(f32),
    /// `out = out + acc`.
    Add,
    /// `out = out + acc·s`.
    AddScaled(f32),
}

impl Epilogue {
    /// Whether `acc` is scaled.
    #[inline(always)]
    fn scales(self) -> bool {
        matches!(self, Epilogue::Scale(_) | Epilogue::AddScaled(_))
    }

    /// The scale, or `1.0` where [`scales`](Self::scales) says none is
    /// applied — never the enum's unused payload. The compiler may hoist a
    /// scaling multiply above its branch (it does, in the AVX2 store), and
    /// on stray bits that multiply can meet or make subnormals, which cost
    /// a microcode assist: an 8-column `Nn` product ran 20–27 % slower
    /// while it read the payload.
    #[inline(always)]
    fn factor(self) -> f32 {
        match self {
            Epilogue::Scale(s) | Epilogue::AddScaled(s) => s,
            Epilogue::Store | Epilogue::Add => 1.0,
        }
    }

    /// Whether `out`'s prior value takes part.
    #[inline(always)]
    fn adds(self) -> bool {
        matches!(self, Epilogue::Add | Epilogue::AddScaled(_))
    }

    /// The value an element of `out` holding `out` takes for `acc`.
    #[inline(always)]
    fn apply(self, out: f32, acc: f32) -> f32 {
        let acc = if self.scales() {
            acc * self.factor()
        } else {
            acc
        };
        if self.adds() {
            out + acc
        } else {
            acc
        }
    }
}

/// `out = ep(out, A @ B)` (per `layout`), `out: (r, c)`, inner dimension `k`.
///
/// Under [`Epilogue::Store`] and [`Epilogue::Scale`], `out` is fully
/// overwritten and does not need to be zeroed.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    layout: Layout,
    a: &[f32],
    b: &[f32],
    r: usize,
    k: usize,
    c: usize,
    out: &mut [f32],
    ep: Epilogue,
) {
    let isa = Isa::detect();
    let b = Right::Rows(b);
    gemm_with(isa, isa.panel_width(c), layout, a, b, r, k, c, out, ep);
}

/// The `Nn` column panels of a `(k, c)` right operand, packed once for
/// every product it takes part in — what a [`Tensor`](crate::Tensor) marked
/// to keep its panels holds. Packed at the width [`gemm`] would pick for
/// `c` on this host, with the same `pack_b`, so [`gemm_kept`] returns the
/// same bits as [`gemm`] on the unpacked operand.
///
/// The buffer comes from the allocator and goes back to it, not to the
/// [`workspace`] pool: it lives as long as its tensor is unwritten.
pub(crate) struct NnPanels {
    nr: usize,
    k: usize,
    c: usize,
    buf: Vec<f32>,
}

impl NnPanels {
    /// Packs `b`, a row-major `(k, c)` operand.
    pub(crate) fn pack(b: &[f32], k: usize, c: usize) -> NnPanels {
        debug_assert_eq!(b.len(), k * c);
        let isa = Isa::detect();
        let nr = isa.panel_width(c);
        let mut buf = vec![0.0; c.div_ceil(nr) * k * nr];
        if k > 0 {
            pack_b_spanned(isa, nr, Layout::Nn, b, k, c, &mut buf);
        }
        NnPanels { nr, k, c, buf }
    }

    /// The packed panels.
    pub(crate) fn as_slice(&self) -> &[f32] {
        &self.buf
    }
}

/// [`gemm`] in the `Nn` layout with `B: (k, c)` also packed into `panels`:
/// `out = ep(out, A @ B)`, `a: (r, k)`. A short-side tile reads `b` itself.
///
/// # Panics
/// Panics if `panels` were packed for other dimensions.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_kept(
    a: &[f32],
    b: &[f32],
    panels: &NnPanels,
    r: usize,
    k: usize,
    c: usize,
    out: &mut [f32],
    ep: Epilogue,
) {
    assert_eq!(
        (panels.k, panels.c),
        (k, c),
        "panels packed for another shape"
    );
    let b = Right::Kept(b, &panels.buf);
    gemm_with(Isa::detect(), panels.nr, Layout::Nn, a, b, r, k, c, out, ep);
}

/// [`gemm`] with [`Epilogue::Store`], pinned to the portable microkernel
/// and narrow panels whatever the host supports — the in-process baseline
/// `bench_kernels` times the dispatched kernel against. Same bits as
/// [`gemm`].
#[doc(hidden)]
pub fn gemm_portable(
    layout: Layout,
    a: &[f32],
    b: &[f32],
    r: usize,
    k: usize,
    c: usize,
    out: &mut [f32],
) {
    let b = Right::Rows(b);
    gemm_with(
        Isa::Portable,
        NR,
        layout,
        a,
        b,
        r,
        k,
        c,
        out,
        Epilogue::Store,
    );
}

/// [`gemm`] with [`Epilogue::Store`], pinned to the AVX2 microkernel and
/// narrow panels — what an AVX-512 host ran before it had wider tiles, and
/// `bench_kernels`' baseline for them. Same bits as [`gemm`].
///
/// # Panics
/// Panics if the CPU has no AVX2; callers check [`simd_level`] first.
#[doc(hidden)]
pub fn gemm_avx2(
    layout: Layout,
    a: &[f32],
    b: &[f32],
    r: usize,
    k: usize,
    c: usize,
    out: &mut [f32],
) {
    let isa = Isa::avx2().expect("gemm_avx2 called on a CPU without AVX2");
    let b = Right::Rows(b);
    gemm_with(isa, NR, layout, a, b, r, k, c, out, Epilogue::Store);
}

/// The widest microkernel [`gemm`] runs on this host: `"avx512"`, `"avx2"`
/// or `"portable"`. Detected from the CPU, not configured.
pub fn simd_level() -> &'static str {
    match Isa::detect() {
        Isa::Portable => "portable",
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => "avx2",
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => "avx512",
    }
}

/// The microkernel [`gemm`] runs a `layout` product of inner dimension `k`
/// and `c` columns on, on this host: `"avx512"` when the CPU has AVX-512F
/// and the product runs a 512-bit tile — 32-wide panels (`c >= 32`) or a
/// short-side tile (`k <= 16`, or a `Tn` product's `c <= 16`) — else
/// `"avx2"` or `"portable"`.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub fn kernel_for(layout: Layout, k: usize, c: usize) -> &'static str {
    let isa = Isa::detect();
    match isa {
        Isa::Portable => "portable",
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 if isa.plan(layout, k, c) != Tile::Panels || isa.panel_width(c) == NR_WIDE => {
            "avx512"
        }
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 | Isa::Avx512 => "avx2",
    }
}

/// Which microkernels a call may run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Isa {
    /// [`microkernel`], at the build target's baseline instruction set.
    Portable,
    /// `microkernel_avx2`. Only [`Isa::avx2`] makes this value, and only
    /// after the CPU reported the feature; [`Isa::microkernel`] relies on
    /// that.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// `microkernel_avx512` on wide panels, `microkernel_avx2` on narrow
    /// ones, and the short-side tiles. Only [`Isa::avx512`] makes this
    /// value, and only after the CPU reported both features.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// The tile a product runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Tile {
    /// Register tiles over `B` panels.
    Panels,
    /// `short_k_avx512`.
    ShortK,
    /// `short_c_avx512`.
    ShortC,
}

// Off x86-64 only `Portable` exists and the width questions have one answer.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
impl Isa {
    /// The AVX2 microkernel, if this is an x86-64 CPU that has AVX2.
    fn avx2() -> Option<Isa> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(Isa::Avx2);
        }
        None
    }

    /// The AVX-512 microkernel, if this is an x86-64 CPU that has AVX-512F
    /// (and the AVX2 its narrow panels run on).
    fn avx512() -> Option<Isa> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx2")
        {
            return Some(Isa::Avx512);
        }
        None
    }

    /// The widest microkernel this host can run.
    fn detect() -> Isa {
        Isa::avx512().or_else(Isa::avx2).unwrap_or(Isa::Portable)
    }

    /// The tile a `layout` product of inner dimension `k` and `c` columns
    /// runs: a short-side tile on AVX-512 when either is at most
    /// [`SHORT_SIDE`] — the column one first (it fills sixteen lanes
    /// whatever `k` is), and only for `Tn`, whose `A` columns are
    /// contiguous. An `Nn`/`Nt` one would transpose `A` in registers, and
    /// at `c = 8` that measured no faster than the AVX2 tile (0.88× on
    /// `64x1024x8`, Sapphire Rapids): there a 256-bit multiply or add
    /// issues on three ports, a 512-bit one on two, and the transposes
    /// share those two.
    fn plan(self, layout: Layout, k: usize, c: usize) -> Tile {
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 if c <= SHORT_SIDE && layout == Layout::Tn => Tile::ShortC,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 if k <= SHORT_SIDE => Tile::ShortK,
            _ => Tile::Panels,
        }
    }

    /// The `B`-panel width [`gemm`] packs a `c`-column product at. Wide
    /// panels pay only where a 512-bit tile can use them: below [`NR_WIDE`]
    /// columns the zero padding would be most of the tile (4× the work at
    /// LoRA's `c = 8`).
    fn panel_width(self, c: usize) -> usize {
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 if c >= NR_WIDE => NR_WIDE,
            _ => NR,
        }
    }

    /// Columns of the tile this kernel computes per call on `nr`-wide
    /// panels: the whole panel when a kernel of that width exists, else
    /// [`NR`] — the 8-wide kernels sweep a wide panel in column strips.
    fn tile_width(self, nr: usize) -> usize {
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 if nr == NR_WIDE => NR_WIDE,
            _ => NR,
        }
    }

    /// Packs as much of an `Nt` panel as this host has an in-register
    /// transpose for — on AVX-512, whole blocks of sixteen `p` of a full
    /// [`NR_WIDE`]-row strip — and returns the first `p` left to
    /// [`transpose_strip`].
    fn transpose_strip_prefix(self, strip: &[f32], k: usize, panel: &mut [f32]) -> usize {
        #[cfg(target_arch = "x86_64")]
        if self == Isa::Avx512 && strip.len() == NR_WIDE * k && panel.len() == NR_WIDE * k {
            let p0 = k - k % LANES_512;
            // SAFETY: an `Isa::Avx512` exists only because `Isa::avx512` saw
            // the CPU report AVX-512F.
            unsafe { transpose_strip_avx512(strip, k, &mut panel[..p0 * NR_WIDE]) };
            return p0;
        }
        0
    }

    /// Computes the `MR x tile_width(nr)` tile of `b`, columns of an
    /// `nr`-wide panel, into `out`.
    #[inline]
    fn microkernel(self, a: &ATile<'_>, b: &BTile<'_>, nr: usize, out: &mut OutTile<'_>) {
        match (self, nr) {
            (Isa::Portable, _) => microkernel(a, b, out),
            // SAFETY (every arm below): an `Isa::Avx2` exists only because
            // `Isa::avx2` saw the CPU report AVX2, and an `Isa::Avx512` only
            // because `Isa::avx512` saw it report AVX-512F and AVX2.
            #[cfg(target_arch = "x86_64")]
            (Isa::Avx2, _) | (Isa::Avx512, NR) => unsafe { microkernel_avx2(a, b, out) },
            #[cfg(target_arch = "x86_64")]
            (Isa::Avx512, _) => unsafe { microkernel_avx512(a, b, out) },
        }
    }
}

/// The right operand as a call hands it over.
#[derive(Clone, Copy)]
enum Right<'a> {
    /// The caller's buffer in the call's layout.
    Rows(&'a [f32]),
    /// The caller's `(k, c)` buffer and its `Nn` panels, packed ahead by
    /// [`NnPanels::pack`] at the call's width.
    Kept(&'a [f32], &'a [f32]),
}

/// Where the panel tiles read `B` from.
#[derive(Clone, Copy)]
enum Panels<'a> {
    /// Packed panels, `k * nr` floats each.
    Packed(&'a [f32]),
    /// The caller's row-major `(k, c)` buffer, a panel at a row stride of
    /// `c`; a short last panel packed into `tail`.
    InPlace { rows: &'a [f32], tail: &'a [f32] },
}

impl<'a> Panels<'a> {
    /// Panel `jp`: a slice whose row `p` starts at `p * ld`, and `ld`.
    fn panel(self, jp: usize, nr: usize, k: usize, c: usize) -> (&'a [f32], usize) {
        match self {
            Panels::Packed(b) => (&b[jp * k * nr..(jp + 1) * k * nr], nr),
            Panels::InPlace { rows, .. } if (jp + 1) * nr <= c => (&rows[jp * nr..], c),
            Panels::InPlace { tail, .. } => (tail, nr),
        }
    }
}

/// How [`RowJob`] computes its rows: the tile, and where it reads `B`.
#[derive(Clone, Copy)]
enum Plan<'a> {
    Panels(Panels<'a>),
    /// A short-side tile (never [`Tile::Panels`]), reading the caller's
    /// buffer in the call's layout.
    Short(Tile, &'a [f32]),
}

#[allow(clippy::too_many_arguments)]
fn gemm_with(
    isa: Isa,
    nr: usize,
    layout: Layout,
    a: &[f32],
    b: Right<'_>,
    r: usize,
    k: usize,
    c: usize,
    out: &mut [f32],
    ep: Epilogue,
) {
    debug_assert_eq!(out.len(), r * c);
    if r == 0 || c == 0 {
        return;
    }
    if k == 0 {
        // An empty sum is `0.0`, which goes through the epilogue like any
        // other.
        for o in out.iter_mut() {
            *o = ep.apply(*o, 0.0);
        }
        return;
    }

    let _g = vela_obs::span("tensor.gemm");

    // Pack B once (unless it came packed, or is read in place); the panels
    // are shared read-only across threads.
    let mut scratch = Vec::new();
    let plan = match (isa.plan(layout, k, c), b) {
        (Tile::Panels, Right::Kept(_, panels)) => {
            debug_assert_eq!(panels.len(), c.div_ceil(nr) * k * nr);
            Plan::Panels(Panels::Packed(panels))
        }
        // One row tile reads each panel once: read `B` where it is.
        (Tile::Panels, Right::Rows(b)) if r <= MR && layout != Layout::Nt => {
            let tail = c % nr;
            if tail != 0 {
                scratch = workspace::take_vec_uninit(k * nr);
                let _p = vela_obs::span("tensor.gemm.pack");
                pack_panel(isa, nr, layout, b, k, c, c - tail, &mut scratch);
            }
            Plan::Panels(Panels::InPlace {
                rows: b,
                tail: &scratch,
            })
        }
        (Tile::Panels, Right::Rows(b)) => {
            scratch = workspace::take_vec_uninit(c.div_ceil(nr) * k * nr);
            pack_b_spanned(isa, nr, layout, b, k, c, &mut scratch);
            Plan::Panels(Panels::Packed(&scratch))
        }
        (short, Right::Rows(b) | Right::Kept(b, _)) => Plan::Short(short, b),
    };

    {
        let _c = vela_obs::span("tensor.gemm.compute");
        let job = RowJob {
            isa,
            nr,
            layout,
            a,
            plan,
            r,
            k,
            c,
            ep,
        };
        par_rows(r, k, c, out, |rows, chunk| job.run(rows, chunk));
    }

    workspace::recycle_vec(scratch);
}

/// [`pack_b`] at the runtime panel width `nr`, under the
/// `tensor.gemm.pack` span the trace counts packs by.
fn pack_b_spanned(
    isa: Isa,
    nr: usize,
    layout: Layout,
    b: &[f32],
    k: usize,
    c: usize,
    bpack: &mut [f32],
) {
    let _p = vela_obs::span("tensor.gemm.pack");
    for (jp, panel) in bpack.chunks_exact_mut(k * nr).enumerate() {
        pack_panel(isa, nr, layout, b, k, c, jp * nr, panel);
    }
}

/// Packs the `nr`-wide column panel of `B` that starts at column `j0`:
/// `panel[p*nr + jj] = B[p, j0+jj]`, zero-padded past column `c`.
#[allow(clippy::too_many_arguments)]
fn pack_panel(
    isa: Isa,
    nr: usize,
    layout: Layout,
    b: &[f32],
    k: usize,
    c: usize,
    j0: usize,
    panel: &mut [f32],
) {
    match nr {
        NR => pack_b::<NR>(isa, layout, b, k, c, j0, panel),
        NR_WIDE => pack_b::<NR_WIDE>(isa, layout, b, k, c, j0, panel),
        _ => unreachable!("panels are NR or NR_WIDE columns, not {nr}"),
    }
}

/// Packs the panel of `W` columns `j0 .. j0+W` of `B` K-major:
/// `panel[p*W + jj] = B[p, j0+jj]`. A short panel is zero-padded.
fn pack_b<const W: usize>(
    isa: Isa,
    layout: Layout,
    b: &[f32],
    k: usize,
    c: usize,
    j0: usize,
    panel: &mut [f32],
) {
    let panel = &mut panel[..k * W];
    let jw = W.min(c - j0);
    match layout {
        // B is (k, c) row-major: copy row segments. Full panels copy a
        // constant `W` floats per row, which compiles to vector moves.
        Layout::Nn | Layout::Tn if jw == W => {
            for (p, dst) in panel.chunks_exact_mut(W).enumerate() {
                dst.copy_from_slice(&b[p * c + j0..p * c + j0 + W]);
            }
        }
        Layout::Nn | Layout::Tn => {
            for (p, dst) in panel.chunks_exact_mut(W).enumerate() {
                dst[..jw].copy_from_slice(&b[p * c + j0..p * c + j0 + jw]);
                dst[jw..].fill(0.0);
            }
        }
        // B is (c, k) row-major: transpose a `jw x k` strip of rows.
        Layout::Nt => {
            if jw < W {
                panel.fill(0.0);
            }
            let strip = &b[j0 * k..(j0 + jw) * k];
            let p0 = isa.transpose_strip_prefix(strip, k, panel);
            transpose_strip::<W>(strip, k, p0, panel);
        }
    }
}

/// Floats of panel one block of [`transpose_strip`] writes: 2 KiB, so a
/// block's writes and the cache line of every source row it reads stay in L1.
const PACK_BLOCK: usize = 512;

/// The `Nt` pack of one panel from `p0` on: `panel[p*W + jj] = strip[jj*k +
/// p]` for `p0 <= p < k` and every row `jj` of `strip`, in blocks of
/// `PACK_BLOCK / W` values of `p`. A block reads a short run of every source
/// row and writes [`PACK_BLOCK`] contiguous floats; walking a whole source row
/// at a time instead scatters across the panel at a stride of `W` floats — a
/// new cache line per store at `W = 32`, which made a 16-row product 2.2×
/// slower than on 8-wide panels.
fn transpose_strip<const W: usize>(strip: &[f32], k: usize, p0: usize, panel: &mut [f32]) {
    for (pb, block) in panel[p0 * W..].chunks_mut(PACK_BLOCK).enumerate() {
        let p0 = p0 + pb * (PACK_BLOCK / W);
        let pw = block.len() / W;
        for (jj, row) in strip.chunks_exact(k).enumerate() {
            for (pp, &v) in row[p0..p0 + pw].iter().enumerate() {
                block[pp * W + jj] = v;
            }
        }
    }
}

/// Floats per `zmm` register.
#[cfg(target_arch = "x86_64")]
const LANES_512: usize = 16;

/// [`transpose_strip`] for a whole [`NR_WIDE`]-row strip and the first
/// `panel.len() / NR_WIDE` values of `p`, a multiple of sixteen: each block of
/// sixteen is two 16×16 transposes held in registers — sixteen loads, 64
/// shuffles and sixteen stores per 256 floats where the scalar loop issues 256
/// of each.
///
/// # Safety
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn transpose_strip_avx512(strip: &[f32], k: usize, panel: &mut [f32]) {
    use std::arch::x86_64::{_mm512_loadu_ps, _mm512_setzero_ps, _mm512_storeu_ps};
    const L: usize = LANES_512;
    assert_eq!(strip.len(), NR_WIDE * k);

    for (pb, block) in panel.chunks_exact_mut(L * NR_WIDE).enumerate() {
        let p0 = pb * L;
        for (half, rows) in strip.chunks_exact(L * k).enumerate() {
            let mut tile = [_mm512_setzero_ps(); L];
            for (reg, row) in tile.iter_mut().zip(rows.chunks_exact(k)) {
                let src = &row[p0..p0 + L];
                // SAFETY: `src` was just sliced to exactly L == 16 floats.
                *reg = unsafe { _mm512_loadu_ps(src.as_ptr()) };
            }
            let tile = transpose_16x16(tile);
            for (reg, out) in tile.into_iter().zip(block.chunks_exact_mut(NR_WIDE)) {
                let dst = &mut out[half * L..half * L + L];
                // SAFETY: `dst` was just sliced to exactly L == 16 floats.
                unsafe { _mm512_storeu_ps(dst.as_mut_ptr(), reg) };
            }
        }
    }
}

/// Transposes sixteen 16-float rows: `out[i][j] = r[j][i]`. Two rounds of
/// 32- and 64-bit interleaves transpose every 4×4 block inside its 128-bit
/// lane; two rounds of lane shuffles then move the blocks into place.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn transpose_16x16(r: [std::arch::x86_64::__m512; 16]) -> [std::arch::x86_64::__m512; 16] {
    use std::arch::x86_64::{
        _mm512_shuffle_f32x4, _mm512_shuffle_ps, _mm512_unpackhi_ps, _mm512_unpacklo_ps,
    };
    // Element `[x, y]` below is row `x`, column `y` of the input; `q` stands
    // for the lane's column base 0, 4, 8 or 12.
    let mut t = r;
    for i in (0..16).step_by(2) {
        // [i,q] [i+1,q] [i,q+1] [i+1,q+1] | [i,q+2] [i+1,q+2] [i,q+3] [i+1,q+3]
        t[i] = _mm512_unpacklo_ps(r[i], r[i + 1]);
        t[i + 1] = _mm512_unpackhi_ps(r[i], r[i + 1]);
    }
    let mut u = t;
    for i in (0..16).step_by(4) {
        // u[i + d]: rows i..i+4 of column q + d, per lane.
        u[i] = _mm512_shuffle_ps::<0x44>(t[i], t[i + 2]);
        u[i + 1] = _mm512_shuffle_ps::<0xEE>(t[i], t[i + 2]);
        u[i + 2] = _mm512_shuffle_ps::<0x44>(t[i + 1], t[i + 3]);
        u[i + 3] = _mm512_shuffle_ps::<0xEE>(t[i + 1], t[i + 3]);
    }
    let mut v = u;
    for i in (0..16).step_by(8) {
        for d in 0..4 {
            // Lanes 0 and 2 of each: rows i..i+8 of columns d and 8 + d;
            // lanes 1 and 3: of columns 4 + d and 12 + d.
            v[i + d] = _mm512_shuffle_f32x4::<0x88>(u[i + d], u[i + 4 + d]);
            v[i + 4 + d] = _mm512_shuffle_f32x4::<0xDD>(u[i + d], u[i + 4 + d]);
        }
    }
    let mut out = v;
    for d in 0..8 {
        // v[d] holds rows 0..8 and v[8 + d] rows 8..16, both of column d in
        // lanes 0 and 2 and of column 8 + d in lanes 1 and 3.
        out[d] = _mm512_shuffle_f32x4::<0x88>(v[d], v[8 + d]);
        out[8 + d] = _mm512_shuffle_f32x4::<0xDD>(v[d], v[8 + d]);
    }
    out
}

/// Where the [`MR`] rows of one row tile of the logical `(r, k)` operand `A`
/// sit in the caller's buffer `src`: tile row `ii` holds `A[i0 + ii, p]` at
/// `src[start[ii] + p * step]`. `Nn`/`Nt` rows start `k` apart and step by one;
/// `Tn` rows start one apart and step by `r`. A short tile's padding rows
/// start where its last real row does: they compute a copy of that row,
/// which no kernel writes back.
struct ATile<'a> {
    src: &'a [f32],
    start: [usize; MR],
    step: usize,
    k: usize,
}

impl<'a> ATile<'a> {
    /// Rows `i0 .. i0 + iw` of `A` (`1 <= iw <= MR`).
    ///
    /// # Panics
    /// Panics if a row of the tile reaches past `a`. The SIMD kernels read
    /// unchecked on the strength of this check.
    fn new(layout: Layout, a: &'a [f32], r: usize, k: usize, i0: usize, iw: usize) -> Self {
        let (row_stride, step) = match layout {
            Layout::Nn | Layout::Nt => (k, 1),
            Layout::Tn => (1, r),
        };
        assert!(
            (1..=MR).contains(&iw) && k > 0,
            "a tile of {iw} rows, k = {k}"
        );
        let start = std::array::from_fn(|ii| (i0 + ii.min(iw - 1)) * row_stride);
        // The last real row starts furthest in, in both layouts.
        assert!(
            start[MR - 1] + (k - 1) * step < a.len(),
            "rows {i0}..{} of a {r}x{k} {layout:?} operand reach past its {} floats",
            i0 + iw,
            a.len()
        );
        ATile {
            src: a,
            start,
            step,
            k,
        }
    }

    /// Where each tile row's first value is.
    #[cfg(target_arch = "x86_64")]
    fn row_ptrs(&self) -> [*const f32; MR] {
        self.start.map(|s| self.src[s..].as_ptr())
    }
}

/// The columns of `B` one tile reads: row `p` of them is `width` floats at
/// `src[p * ld..]`, for every `p < k`.
struct BTile<'a> {
    src: &'a [f32],
    ld: usize,
}

impl<'a> BTile<'a> {
    /// # Panics
    /// Panics if row `k - 1`'s `width` floats reach past `src`. The SIMD
    /// kernels read unchecked on the strength of this check.
    fn new(src: &'a [f32], ld: usize, k: usize, width: usize) -> Self {
        assert!(
            k > 0 && (k - 1) * ld + width <= src.len(),
            "{k} rows of {width} floats, {ld} apart, reach past {} floats",
            src.len()
        );
        BTile { src, ld }
    }
}

/// Where one tile's results go: `rows x cols` elements of `out`, from its
/// start, rows `ld` apart, each through `ep`.
struct OutTile<'a> {
    out: &'a mut [f32],
    ld: usize,
    rows: usize,
    cols: usize,
    ep: Epilogue,
}

impl<'a> OutTile<'a> {
    /// # Panics
    /// Panics if the last row's `cols` values reach past `out`. The SIMD
    /// kernels write unchecked on the strength of this check.
    fn new(out: &'a mut [f32], ld: usize, rows: usize, cols: usize, ep: Epilogue) -> Self {
        assert!(
            rows > 0 && cols > 0 && (rows - 1) * ld + cols <= out.len(),
            "a {rows}x{cols} tile, rows {ld} apart, reaches past {} floats",
            out.len()
        );
        OutTile {
            out,
            ld,
            rows,
            cols,
            ep,
        }
    }

    /// Where row `ii`'s first value goes.
    #[cfg(target_arch = "x86_64")]
    fn row_ptr(&mut self, ii: usize) -> *mut f32 {
        debug_assert!(ii < self.rows);
        self.out[ii * self.ld..].as_mut_ptr()
    }

    /// Row `ii` through the epilogue, from `acc[..cols]`.
    fn store(&mut self, ii: usize, acc: &[f32]) {
        let ep = self.ep;
        let dst = &mut self.out[ii * self.ld..][..self.cols];
        for (o, &v) in dst.iter_mut().zip(acc) {
            *o = ep.apply(*o, v);
        }
    }
}

/// Computes one `MR x NR` output tile, accumulating the full `k` extent in
/// ascending-`p` order, and stores it through `out`'s epilogue. At the
/// x86-64 baseline LLVM turns each accumulator row into two 4-lane SSE2
/// `mulps`/`addps` pairs against a stack copy of `acc` (sixteen `xmm`
/// registers cannot hold 64 floats).
///
/// Never inlined: whether LLVM vectorizes this body has been seen to depend
/// on the caller it lands in, and one call per `128·k`-flop tile costs
/// nothing.
#[inline(never)]
fn microkernel(a: &ATile<'_>, b: &BTile<'_>, out: &mut OutTile<'_>) {
    let mut acc = [0.0f32; MR * NR];
    for p in 0..a.k {
        let brow = &b.src[p * b.ld..p * b.ld + NR];
        for (ii, &start) in a.start.iter().enumerate() {
            let av = a.src[start + p * a.step];
            let dst = &mut acc[ii * NR..ii * NR + NR];
            for (d, &bv) in dst.iter_mut().zip(brow) {
                *d += av * bv;
            }
        }
    }
    for ii in 0..out.rows {
        out.store(ii, &acc[ii * NR..ii * NR + NR]);
    }
}

/// Stores eight lanes, `cols` of them real, through `ep` at `dst`.
///
/// # Safety
/// The CPU must support AVX2, and `dst..dst + cols` must be writable.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn store_avx2(dst: *mut f32, v: std::arch::x86_64::__m256, cols: usize, ep: Epilogue) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_cmpgt_epi32, _mm256_loadu_ps, _mm256_maskload_ps,
        _mm256_maskstore_ps, _mm256_mul_ps, _mm256_set1_epi32, _mm256_set1_ps, _mm256_setr_epi32,
        _mm256_storeu_ps,
    };
    let v = if ep.scales() {
        _mm256_mul_ps(v, _mm256_set1_ps(ep.factor()))
    } else {
        v
    };
    if cols >= NR {
        // SAFETY: the caller vouches for `cols >= 8` writable floats.
        unsafe {
            let v = if ep.adds() {
                _mm256_add_ps(_mm256_loadu_ps(dst), v)
            } else {
                v
            };
            _mm256_storeu_ps(dst, v);
        }
    } else {
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(cols as i32), lanes);
        // SAFETY: the masked load and store touch only the first `cols`
        // lanes, which the caller vouches for.
        unsafe {
            let v = if ep.adds() {
                _mm256_add_ps(_mm256_maskload_ps(dst, mask), v)
            } else {
                v
            };
            _mm256_maskstore_ps(dst, mask, v);
        }
    }
}

/// [`microkernel`] in AVX2 intrinsics: the eight accumulator rows live in
/// eight `ymm` registers for the whole `k` extent, and each `A` value is
/// broadcast straight from the caller's buffer. Per element it performs the
/// same `acc = acc + a*b` sequence — `vmulps` then `vaddps`, two roundings;
/// `avx2` does not enable `fma` and nothing here asks for it — so it returns
/// the same bits as the portable kernel.
///
/// # Safety
/// The CPU must support AVX2, and `b` must hold [`NR`]-float rows.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn microkernel_avx2(a: &ATile<'_>, b: &BTile<'_>, out: &mut OutTile<'_>) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_broadcast_ss, _mm256_loadu_ps, _mm256_mul_ps, _mm256_setzero_ps,
    };
    const { assert!(NR == 8, "one ymm register holds one accumulator row") };

    let a_rows = a.row_ptrs();
    let mut rows = [_mm256_setzero_ps(); MR];
    let b_ptr = b.src.as_ptr();
    for p in 0..a.k {
        // SAFETY: `p < k`, and `BTile::new` checked that row `k - 1`'s NR
        // floats are inside `b`.
        let bv = unsafe { _mm256_loadu_ps(b_ptr.add(p * b.ld)) };
        let at = p * a.step;
        for (row, a_row) in rows.iter_mut().zip(a_rows) {
            // SAFETY: `p < k`, and `ATile::new` checked that every row's
            // `k`-th value is inside `a`.
            let av = unsafe { _mm256_broadcast_ss(&*a_row.add(at)) };
            *row = _mm256_add_ps(*row, _mm256_mul_ps(av, bv));
        }
    }
    let (cols, ep) = (out.cols, out.ep);
    for (ii, row) in rows.into_iter().enumerate().take(out.rows) {
        // SAFETY: `OutTile::new` checked that every real row has `cols`
        // floats.
        unsafe { store_avx2(out.row_ptr(ii), row, cols, ep) };
    }
}

/// The bits of the first `n` of sixteen lanes.
#[cfg(target_arch = "x86_64")]
fn lane_mask(n: usize) -> u16 {
    if n >= LANES_512 {
        u16::MAX
    } else {
        (1u16 << n) - 1
    }
}

/// Stores sixteen lanes, those in `mask` real, through `ep` at `dst`.
///
/// # Safety
/// The CPU must support AVX-512F, and every lane in `mask` must be a
/// writable float at `dst`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn store_avx512(dst: *mut f32, v: std::arch::x86_64::__m512, mask: u16, ep: Epilogue) {
    use std::arch::x86_64::{
        _mm512_add_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_mul_ps, _mm512_set1_ps,
    };
    let v = if ep.scales() {
        _mm512_mul_ps(v, _mm512_set1_ps(ep.factor()))
    } else {
        v
    };
    // SAFETY: masked-off lanes are neither read nor written; the caller
    // vouches for the rest.
    unsafe {
        let v = if ep.adds() {
            _mm512_add_ps(_mm512_maskz_loadu_ps(mask, dst), v)
        } else {
            v
        };
        _mm512_mask_storeu_ps(dst, mask, v);
    }
}

/// The `MR x NR_WIDE` tile in AVX-512F intrinsics: each accumulator row is
/// two `zmm` registers, sixteen in all, held for the whole `k` extent. Per
/// `p` it loads the panel row as two vectors and, per tile row, broadcasts
/// one `A` value from the caller's buffer and issues two `vmulps` and two
/// `vaddps` — separate multiply and add, two roundings, so every element
/// sees the `acc = acc + a*b` sequence of the portable kernel and holds the
/// same bits. AVX-512F *has* fused multiply-adds; nothing here asks for one,
/// and LLVM does not contract separate intrinsics.
///
/// # Safety
/// The CPU must support AVX-512F, and `b` must hold [`NR_WIDE`]-float rows.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn microkernel_avx512(a: &ATile<'_>, b: &BTile<'_>, out: &mut OutTile<'_>) {
    use std::arch::x86_64::{
        _mm512_add_ps, _mm512_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
    };
    const LANES: usize = LANES_512;
    const {
        assert!(
            NR_WIDE == 2 * LANES,
            "two zmm registers hold one accumulator row"
        )
    };

    let a_rows = a.row_ptrs();
    let mut lo = [_mm512_setzero_ps(); MR];
    let mut hi = [_mm512_setzero_ps(); MR];
    let b_ptr = b.src.as_ptr();
    for p in 0..a.k {
        // SAFETY: `p < k`, and `BTile::new` checked that row `k - 1`'s
        // NR_WIDE floats are inside `b`.
        let (b_lo, b_hi) = unsafe {
            let row = b_ptr.add(p * b.ld);
            (_mm512_loadu_ps(row), _mm512_loadu_ps(row.add(LANES)))
        };
        let at = p * a.step;
        for ((lo, hi), a_row) in lo.iter_mut().zip(&mut hi).zip(a_rows) {
            // SAFETY: `p < k`, and `ATile::new` checked that every row's
            // `k`-th value is inside `a`.
            let av = _mm512_set1_ps(unsafe { *a_row.add(at) });
            *lo = _mm512_add_ps(*lo, _mm512_mul_ps(av, b_lo));
            *hi = _mm512_add_ps(*hi, _mm512_mul_ps(av, b_hi));
        }
    }
    let (cols, ep) = (out.cols, out.ep);
    let (mask_lo, mask_hi) = (lane_mask(cols), lane_mask(cols.saturating_sub(LANES)));
    for ((ii, lo), hi) in lo.into_iter().enumerate().zip(hi).take(out.rows) {
        let dst = out.row_ptr(ii);
        // SAFETY: `OutTile::new` checked that every real row has `cols`
        // floats, and each mask covers only those.
        unsafe {
            store_avx512(dst, lo, mask_lo, ep);
            if mask_hi != 0 {
                store_avx512(dst.add(LANES), hi, mask_hi, ep);
            }
        }
    }
}

/// The short-inner-dimension tile (`k <= 16`): eight rows of `A` at a time
/// (then four, then one), each against every strip of 32 columns, the
/// strip's `k` rows of `B` loaded once per row group, every broadcast of
/// `A` feeding two products, and each row's accumulators going straight
/// into `chunk` through the epilogue. `B` is read where it is; an `Nt`
/// operand is first transposed, sixteen columns at a time in registers,
/// into `k x c` floats of scratch.
///
/// # Safety
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn short_k_avx512(job: &RowJob<'_>, b: &[f32], rows: Range<usize>, chunk: &mut [f32]) {
    use std::arch::x86_64::{_mm512_maskz_loadu_ps, _mm512_setzero_ps, _mm512_storeu_ps};
    const L: usize = LANES_512;
    let &RowJob {
        layout,
        a,
        r,
        k,
        c,
        ep,
        ..
    } = job;
    assert!(
        (1..=L).contains(&k) && a.len() >= r * k && b.len() >= k * c && rows.end <= r,
        "short-k tile: k = {k}, {r}x{c}, rows {rows:?}"
    );
    assert!(chunk.len() >= rows.len() * c, "chunk shorter than its rows");
    // `A[i, p]` is at `a[i * a_row + p * a_step]`.
    let (a_row, a_step) = match layout {
        Layout::Nn | Layout::Nt => (k, 1),
        Layout::Tn => (1, r),
    };

    // `B` as `k` rows of `c` floats: `B[p, j]` at `bt[p * c + j]`.
    let mut scratch = Vec::new();
    let bt = match layout {
        Layout::Nn | Layout::Tn => b,
        // `B[p, j] = b[j * k + p]`: row `j0 + jj` of `b` is column `jj` of
        // a strip.
        Layout::Nt => {
            scratch = workspace::take_vec_uninit(k * c);
            let mut j0 = 0;
            while j0 < c {
                let cols = L.min(c - j0);
                let mut strip = [_mm512_setzero_ps(); L];
                for (jj, reg) in strip.iter_mut().enumerate().take(cols) {
                    // SAFETY: row `j0 + jj < c` of `b` holds `k` floats.
                    *reg =
                        unsafe { _mm512_maskz_loadu_ps(lane_mask(k), b[(j0 + jj) * k..].as_ptr()) };
                }
                let strip = transpose_16x16(strip);
                for (p, &reg) in strip.iter().enumerate().take(k) {
                    if cols == L {
                        // SAFETY: row `p` of `scratch` has sixteen floats
                        // from column `j0`.
                        unsafe { _mm512_storeu_ps(scratch[p * c + j0..][..L].as_mut_ptr(), reg) };
                    } else {
                        // SAFETY: as above, for the `cols` lanes stored.
                        unsafe {
                            store_avx512(
                                scratch[p * c + j0..].as_mut_ptr(),
                                reg,
                                lane_mask(cols),
                                Epilogue::Store,
                            )
                        };
                    }
                }
                j0 += cols;
            }
            &scratch[..]
        }
    };

    let mut i = rows.start;
    while i < rows.end {
        let dst = chunk[(i - rows.start) * c..].as_mut_ptr();
        let a_i = a[i * a_row..].as_ptr();
        let n = rows.end - i;
        // SAFETY: rows `i..i + N` are below `rows.end <= r`, so every `A`
        // value read is inside `a` and every row written is inside
        // `chunk`; `bt` holds `K` rows of `c` floats.
        unsafe {
            if n >= 8 {
                short_k_rows::<8>(bt.as_ptr(), k, c, a_i, a_row, a_step, dst, ep);
                i += 8;
            } else if n >= 4 {
                short_k_rows::<4>(bt.as_ptr(), k, c, a_i, a_row, a_step, dst, ep);
                i += 4;
            } else {
                short_k_rows::<1>(bt.as_ptr(), k, c, a_i, a_row, a_step, dst, ep);
                i += 1;
            }
        }
    }
    workspace::recycle_vec(scratch);

    /// `N` rows, `A[i, p]` at `a + i * a_row + p * a_step`, against `B`'s
    /// `k` rows of `c` floats at `b`, results into `out + i * c`.
    ///
    /// # Safety
    /// The CPU must support AVX-512F; `N` rows of `A` and of `out` must be
    /// readable and writable there.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    #[inline]
    unsafe fn short_k_rows<const N: usize>(
        b: *const f32,
        k: usize,
        c: usize,
        a: *const f32,
        a_row: usize,
        a_step: usize,
        out: *mut f32,
        ep: Epilogue,
    ) {
        use std::arch::x86_64::{
            _mm512_add_ps, _mm512_maskz_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
        };
        // Thirty-two columns at a time: each broadcast of `A` feeds two
        // products.
        let mut j0 = 0;
        while j0 < c {
            let masks = [
                lane_mask(c - j0),
                lane_mask((c - j0).saturating_sub(LANES_512)),
            ];
            let mut acc = [[_mm512_setzero_ps(); 2]; N];
            for p in 0..k {
                // SAFETY: the caller vouches for `B`'s rows and `A`'s; a
                // masked-off lane is not read.
                let bv = unsafe {
                    let row = b.add(p * c + j0);
                    [
                        _mm512_maskz_loadu_ps(masks[0], row),
                        _mm512_maskz_loadu_ps(masks[1], row.add(LANES_512)),
                    ]
                };
                for (q, acc) in acc.iter_mut().enumerate() {
                    let av = _mm512_set1_ps(unsafe { *a.add(q * a_row + p * a_step) });
                    acc[0] = _mm512_add_ps(acc[0], _mm512_mul_ps(av, bv[0]));
                    acc[1] = _mm512_add_ps(acc[1], _mm512_mul_ps(av, bv[1]));
                }
            }
            for (q, acc) in acc.into_iter().enumerate() {
                // SAFETY: the caller vouches for rows `0..N` of `out`, and
                // the masks cover only its columns.
                unsafe {
                    let row = out.add(q * c + j0);
                    store_avx512(row, acc[0], masks[0], ep);
                    if masks[1] != 0 {
                        store_avx512(row.add(LANES_512), acc[1], masks[1], ep);
                    }
                }
            }
            j0 += 2 * LANES_512;
        }
    }
}

/// The short-column tile of a `Tn` product (`c <= C`; `C` 8 or 16, over `H`
/// 2 or 1 blocks of sixteen rows, so that at most sixteen `zmm`
/// accumulate): one accumulator per output column per block holds that
/// column over the block's sixteen rows. A `Tn` operand already stores
/// `A`'s columns contiguously, so per `p` each block loads one column run
/// of `A` and each `B[p, j]` is broadcast once for every block. The
/// finished tile is transposed back into rows in registers and stored
/// through the epilogue. Columns past `c` compute a copy of the last one,
/// and rows past the chunk zeros; neither is stored.
///
/// # Safety
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn short_c_avx512<const C: usize, const H: usize>(
    job: &RowJob<'_>,
    b: &[f32],
    rows: Range<usize>,
    chunk: &mut [f32],
) {
    use std::arch::x86_64::{
        _mm512_add_ps, _mm512_maskz_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
    };
    const L: usize = LANES_512;
    const { assert!(C * H <= L, "at most sixteen accumulators") };
    let &RowJob { a, r, k, c, ep, .. } = job;
    assert!(
        job.layout == Layout::Tn
            && (1..=C).contains(&c)
            && a.len() >= k * r
            && b.len() >= k * c
            && rows.end <= r,
        "short-c tile: {:?} {r}x{k}x{c} on {C} columns, rows {rows:?}",
        job.layout
    );
    assert!(chunk.len() >= rows.len() * c, "chunk shorter than its rows");
    let (a, b) = (a.as_ptr(), b.as_ptr());
    let out_mask = lane_mask(c);

    let mut i0 = rows.start;
    while i0 < rows.end {
        let tile_rows = (H * L).min(rows.end - i0);
        let masks: [u16; H] = std::array::from_fn(|h| lane_mask(tile_rows.saturating_sub(h * L)));
        let mut acc = [[_mm512_setzero_ps(); C]; H];
        for p in 0..k {
            // `av[h]` lane `ii` is `A[i0 + h * 16 + ii, p]`, at
            // `a[p * r + i0 + h * 16 + ii]`.
            let mut av = [_mm512_setzero_ps(); H];
            for (h, (av, &mask)) in av.iter_mut().zip(&masks).enumerate() {
                if mask != 0 {
                    // SAFETY: the lanes in `mask` are rows below
                    // `rows.end <= r` of column `p < k`, inside `a` by the
                    // assert above.
                    *av = unsafe { _mm512_maskz_loadu_ps(mask, a.add(p * r + i0 + h * L)) };
                }
            }
            for j in 0..C {
                // SAFETY: `p < k` and `min(j, c - 1) < c`.
                let bv = _mm512_set1_ps(unsafe { *b.add(p * c + j.min(c - 1)) });
                for (acc, &av) in acc.iter_mut().zip(&av) {
                    acc[j] = _mm512_add_ps(acc[j], _mm512_mul_ps(av, bv));
                }
            }
        }
        for (h, acc) in acc.iter().enumerate() {
            let first = h * L;
            if first >= tile_rows {
                break;
            }
            let mut by_col = [_mm512_setzero_ps(); L];
            by_col[..C].copy_from_slice(acc);
            let by_row = transpose_16x16(by_col);
            for (ii, &row) in by_row.iter().enumerate().take(tile_rows - first) {
                let dst = chunk[(i0 - rows.start + first + ii) * c..].as_mut_ptr();
                // SAFETY: row `i0 + first + ii < rows.end` owns `c` floats of
                // `chunk`, the lanes of `out_mask`.
                unsafe { store_avx512(dst, row, out_mask, ep) };
            }
        }
        i0 += tile_rows;
    }
}

/// What every row chunk of one [`gemm`] call shares: the kernels, the
/// caller's `A`, where `B` is read from, its panel width, the logical
/// dimensions and the epilogue.
struct RowJob<'a> {
    isa: Isa,
    nr: usize,
    layout: Layout,
    a: &'a [f32],
    plan: Plan<'a>,
    r: usize,
    k: usize,
    c: usize,
    ep: Epilogue,
}

impl RowJob<'_> {
    /// Computes output rows `rows` into `chunk` (the disjoint sub-slice
    /// owned by this range).
    fn run(&self, rows: Range<usize>, chunk: &mut [f32]) {
        match self.plan {
            Plan::Panels(panels) => gemm_rows(self, panels, rows, chunk),
            Plan::Short(tile, b) => self.run_short(tile, b, rows, chunk),
        }
    }

    /// [`RowJob::run`] on a short-side tile.
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
    fn run_short(&self, tile: Tile, b: &[f32], rows: Range<usize>, chunk: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        {
            assert_eq!(self.isa, Isa::Avx512, "short-side tiles are AVX-512");
            match tile {
                // SAFETY (every arm): an `Isa::Avx512` exists only because
                // `Isa::avx512` saw the CPU report AVX-512F.
                Tile::ShortK => unsafe { short_k_avx512(self, b, rows, chunk) },
                // Thirty-two rows a tile, and a last tile of at most
                // sixteen on half the registers rather than padded.
                Tile::ShortC if self.c <= 8 => {
                    let split = rows.start + rows.len() / 32 * 32;
                    let (head, tail) = chunk.split_at_mut((split - rows.start) * self.c);
                    unsafe {
                        short_c_avx512::<8, 2>(self, b, rows.start..split, head);
                        short_c_avx512::<8, 1>(self, b, split..rows.end, tail);
                    }
                }
                Tile::ShortC => unsafe { short_c_avx512::<16, 1>(self, b, rows, chunk) },
                Tile::Panels => unreachable!("a panel tile planned as a short one"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("short-side tiles are AVX-512")
    }
}

/// Computes output rows `rows` into `chunk`: per `A` row tile, sweeps all
/// `B` panels through the microkernel, one tile width of columns at a time.
fn gemm_rows(job: &RowJob<'_>, panels: Panels<'_>, rows: Range<usize>, chunk: &mut [f32]) {
    let &RowJob {
        isa,
        nr,
        layout,
        a,
        r,
        k,
        c,
        ep,
        ..
    } = job;
    let base = rows.start;
    let tw = isa.tile_width(nr);

    let mut i0 = rows.start;
    while i0 < rows.end {
        let iw = MR.min(rows.end - i0);
        let tile = ATile::new(layout, a, r, k, i0, iw);
        for jp in 0..c.div_ceil(nr) {
            let (panel, ld) = panels.panel(jp, nr, k, c);
            // Tiles wholly inside the last panel's zero padding are skipped.
            let panel_cols = nr.min(c - jp * nr);
            let mut t0 = 0;
            while t0 < panel_cols {
                let j0 = jp * nr + t0;
                let b = BTile::new(&panel[t0..], ld, k, tw);
                let dst = &mut chunk[(i0 - base) * c + j0..];
                let mut out = OutTile::new(dst, c, iw, tw.min(c - j0), ep);
                isa.microkernel(&tile, &b, nr, &mut out);
                t0 += tw;
            }
        }
        i0 += iw;
    }
}

/// Whether a product of `r x k x c` splits across a pool of `threads`
/// lanes: only when it clears the parallel cutoff, has more than one row
/// tile, and neither `k` nor `c` is a short side. Every product with a side
/// of at most [`SHORT_SIDE`] — all of LoRA's — ran slower on two lanes than
/// on one (0.53–0.69×); and every lane given part of a single row tile
/// computes the whole tile.
fn splits(r: usize, k: usize, c: usize, threads: usize) -> bool {
    threads > 1 && r * k * c >= parallel::PAR_CUTOFF && r > MR && k.min(c) > SHORT_SIDE
}

/// Runs `kernel` over disjoint row ranges of the `(r, c)` output of an
/// `r x k x c` product, splitting across the current pool only when
/// [`splits`] says so.
fn par_rows(
    r: usize,
    k: usize,
    c: usize,
    out: &mut [f32],
    kernel: impl Fn(Range<usize>, &mut [f32]) + Sync,
) {
    if !splits(r, k, c, parallel::current_threads()) {
        GEMM_SERIAL.add(1);
        kernel(0..r, out);
        return;
    }
    GEMM_PARALLEL.add(1);
    let min_rows = (parallel::PAR_MIN_WORK / (k * c)).max(1);
    let slots = parallel::DisjointSlots::new(out);
    parallel::par_ranges(r, min_rows, |range| {
        // SAFETY: ranges from `par_ranges` are disjoint, so each chunk is
        // the sole accessor of its row slice.
        let chunk =
            unsafe { std::slice::from_raw_parts_mut(slots.get(range.start * c), range.len() * c) };
        kernel(range, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;
    use crate::Tensor;

    /// `(r, k, c)` beside the grid: a single element, an empty inner
    /// dimension, and fewer columns than the narrow panel with remainders on
    /// the other axes.
    const EDGE_SHAPES: [(usize, usize, usize); 5] =
        [(1, 1, 1), (3, 0, 5), (1, 5, 3), (33, 64, 7), (13, 17, 5)];

    /// Every `(r, k, c)` the kernels are compared on: rows below, at and
    /// above `MR`; `k` of 1, the short-side bound and one past it, one tile,
    /// and the two expert-FFN depths; columns of 1, around the short-side
    /// bound and both panel widths, including the `ffn-heavy` hidden width.
    fn shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = EDGE_SHAPES.to_vec();
        for r in [1, 7, 8, 9, 64] {
            for k in [1, 2, 8, 16, 17, 64, 1024] {
                for c in [1, 8, 16, 17, 24, 31, 32, 33, 40, 64, 1024] {
                    shapes.push((r, k, c));
                }
            }
        }
        shapes
    }

    /// Every epilogue, scaled ones at a scale that is not 1.
    const EPILOGUES: [Epilogue; 4] = [
        Epilogue::Store,
        Epilogue::Scale(-0.75),
        Epilogue::Add,
        Epilogue::AddScaled(2.5),
    ];

    /// The kernels this CPU has beside the portable one, with a skip line for
    /// each it lacks.
    fn simd_isas() -> Vec<Isa> {
        let mut isas = Vec::new();
        match Isa::avx2() {
            Some(isa) => isas.push(isa),
            None => eprintln!(
                "skip: no AVX2 on this host (or not x86_64); the AVX2 microkernel is not compared"
            ),
        }
        match Isa::avx512() {
            Some(isa) => isas.push(isa),
            None => eprintln!("skip: no AVX-512F on this host (or not x86_64); the AVX-512 microkernel and short-side tiles are not compared"),
        }
        isas
    }

    /// `A[i, p]` and `B[p, j]` as `gemm` indexes the two buffers in `layout`.
    fn at(
        layout: Layout,
        (r, k, c): (usize, usize, usize),
    ) -> impl Fn(usize, usize, usize) -> (usize, usize) {
        move |i, p, j| match layout {
            Layout::Nn => (i * k + p, p * c + j),
            Layout::Tn => (p * r + i, p * c + j),
            Layout::Nt => (i * k + p, j * k + p),
        }
    }

    /// Each element's `acc = acc + a*b` from `0.0` in ascending `p`, one at
    /// a time: the order every kernel keeps.
    fn naive(layout: Layout, a: &[f32], b: &[f32], shape: (usize, usize, usize)) -> Vec<f32> {
        let (r, k, c) = shape;
        let at = at(layout, shape);
        let mut out = vec![0.0f32; r * c];
        for i in 0..r {
            for j in 0..c {
                let mut acc = 0.0f32;
                for p in 0..k {
                    let (ia, ib) = at(i, p, j);
                    acc += a[ia] * b[ib];
                }
                out[i * c + j] = acc;
            }
        }
        out
    }

    #[test]
    fn every_kernel_at_both_panel_widths_agrees_bitwise_with_portable() {
        let isas = simd_isas();
        assert_eq!(Isa::detect(), *isas.last().unwrap_or(&Isa::Portable));
        for (s, (r, k, c)) in shapes().into_iter().enumerate() {
            let mut rng = DetRng::new(0xA5A5 + s as u64);
            // Both operands are `r*k` and `k*c` floats whatever the layout;
            // only how `gemm` indexes them differs.
            let a = Tensor::uniform(r * k, -1.0, 1.0, &mut rng);
            let b = Tensor::uniform(k * c, -1.0, 1.0, &mut rng);
            let prior = Tensor::uniform(r * c, -1.0, 1.0, &mut rng);
            for layout in [Layout::Nn, Layout::Tn, Layout::Nt] {
                let acc = naive(layout, a.as_slice(), b.as_slice(), (r, k, c));
                for ep in EPILOGUES {
                    let run = |isa, nr| {
                        let mut out = prior.as_slice().to_vec();
                        let b = Right::Rows(b.as_slice());
                        gemm_with(isa, nr, layout, a.as_slice(), b, r, k, c, &mut out, ep);
                        out
                    };
                    let reference: Vec<f32> = (acc.iter().zip(prior.as_slice()))
                        .map(|(&acc, &out)| ep.apply(out, acc))
                        .collect();
                    let portable = run(Isa::Portable, NR);
                    let others = isas.iter().flat_map(|&isa| [(isa, NR), (isa, NR_WIDE)]);
                    let all = [(Isa::Portable, NR), (Isa::Portable, NR_WIDE)];
                    for (isa, nr) in all.into_iter().chain(others) {
                        let got = run(isa, nr);
                        let tile = isa.plan(layout, k, c);
                        for (i, ((n, p), w)) in
                            reference.iter().zip(&portable).zip(&got).enumerate()
                        {
                            assert_eq!(
                                (n.to_bits(), p.to_bits()),
                                (w.to_bits(), w.to_bits()),
                                "{layout:?} {r}x{k}x{c} {ep:?} element {i}: naive {n}, portable {p}, {isa:?} ({tile:?}) on {nr}-wide panels {w}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn kept_panels_agree_bitwise_with_packing_per_call() {
        let mut rng = DetRng::new(78);
        for (r, k, c) in [
            (1, 64, 1024),
            (7, 9, 40),
            (64, 64, 1024),
            (16, 1024, 64),
            (9, 8, 33),
        ] {
            let a = Tensor::uniform(r * k, -1.0, 1.0, &mut rng);
            let b = Tensor::uniform(k * c, -1.0, 1.0, &mut rng);
            let prior = Tensor::uniform(r * c, -1.0, 1.0, &mut rng);
            let panels = NnPanels::pack(b.as_slice(), k, c);
            for ep in EPILOGUES {
                let mut packed = prior.as_slice().to_vec();
                gemm(
                    Layout::Nn,
                    a.as_slice(),
                    b.as_slice(),
                    r,
                    k,
                    c,
                    &mut packed,
                    ep,
                );
                let mut kept = prior.as_slice().to_vec();
                gemm_kept(a.as_slice(), b.as_slice(), &panels, r, k, c, &mut kept, ep);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
                assert_eq!(bits(&kept), bits(&packed), "{r}x{k}x{c} {ep:?}");
            }
        }
    }

    #[test]
    fn wide_panels_are_for_avx512_and_at_least_one_full_tile() {
        // Every kernel, whether or not this CPU has it: the width rule is
        // pure and runs no instruction of the kernel it names. A narrow
        // product padded to one 32-wide panel (LoRA's `c = 8`) ran at
        // 0.45–0.5× its AVX2 time.
        #[cfg(target_arch = "x86_64")]
        let isas = [
            (Isa::Portable, false),
            (Isa::Avx2, false),
            (Isa::Avx512, true),
        ];
        #[cfg(not(target_arch = "x86_64"))]
        let isas = [(Isa::Portable, false)];
        for (isa, wide) in isas {
            assert_eq!(isa.tile_width(NR_WIDE) == NR_WIDE, wide, "{isa:?}");
            for c in [1, NR, NR_WIDE - 1] {
                assert_eq!(isa.panel_width(c), NR, "{isa:?} at c = {c}");
            }
            for c in [NR_WIDE, NR_WIDE + 1, 1024] {
                let want = if wide { NR_WIDE } else { NR };
                assert_eq!(isa.panel_width(c), want, "{isa:?} at c = {c}");
            }
        }
        let narrow = match simd_level() {
            "avx512" => "avx2",
            level => level,
        };
        let wide = simd_level();
        // LoRA's products: `x·A` (c = 8), `(x·A)·B` (k = 8), and the expert
        // FFN's; 24 columns over 64 is neither short nor wide.
        assert_eq!(
            [
                kernel_for(Layout::Tn, 64, 8),
                kernel_for(Layout::Nt, 64, 8),
                kernel_for(Layout::Nn, 8, 1024),
                kernel_for(Layout::Nn, 64, 24),
                kernel_for(Layout::Nn, 64, 32)
            ],
            [wide, narrow, wide, narrow, wide]
        );
    }

    #[test]
    fn short_side_tiles_are_for_avx512_and_a_side_of_at_most_sixteen() {
        // Pure, like the width rule: whether or not this CPU has AVX-512.
        #[cfg(target_arch = "x86_64")]
        {
            let isa = Isa::Avx512;
            assert_eq!(isa.plan(Layout::Tn, 1024, 8), Tile::ShortC);
            assert_eq!(
                isa.plan(Layout::Tn, 8, 8),
                Tile::ShortC,
                "the column tile first"
            );
            assert_eq!(isa.plan(Layout::Tn, 1024, 16), Tile::ShortC);
            for layout in [Layout::Nn, Layout::Nt] {
                assert_eq!(isa.plan(layout, 1024, 8), Tile::Panels, "{layout:?}");
                assert_eq!(isa.plan(layout, 8, 8), Tile::ShortK, "{layout:?}");
            }
            for layout in [Layout::Nn, Layout::Tn, Layout::Nt] {
                assert_eq!(isa.plan(layout, 16, 1024), Tile::ShortK, "{layout:?}");
                assert_eq!(isa.plan(layout, 17, 17), Tile::Panels, "{layout:?}");
                assert_eq!(Isa::Avx2.plan(layout, 8, 8), Tile::Panels, "{layout:?}");
            }
        }
        assert_eq!(Isa::Portable.plan(Layout::Tn, 8, 8), Tile::Panels);
    }

    #[test]
    fn a_short_side_never_splits_across_threads() {
        // The `ffn-heavy` expert's products on two lanes: its base
        // projections split, its adapter products stay on the caller.
        for shape in [(64, 64, 1024), (64, 1024, 64), (1024, 64, 1024)] {
            let (r, k, c) = shape;
            assert!(splits(r, k, c, 2), "{shape:?}");
            assert!(!splits(r, k, c, 1), "one lane never splits: {shape:?}");
        }
        for shape in [
            (64, 8, 1024),
            (64, 1024, 8),
            (1024, 64, 8),
            (8, 64, 1024),
            (512, 16, 1024),
            (512, 1024, 16),
        ] {
            let (r, k, c) = shape;
            assert!(!splits(r, k, c, 2), "{shape:?}");
        }
        // Wide enough on both sides, but under the cutoff.
        assert!(!splits(9, 17, 17, 2));
        assert!(splits(parallel::PAR_CUTOFF / (17 * 17) + 1, 17, 17, 2));
        // One row tile, however long.
        assert!(!splits(MR, 1024, 1024, 2));
    }

    #[test]
    fn pinned_entry_points_match_dispatched_gemm() {
        let mut rng = DetRng::new(77);
        for (r, k, c) in [(13, 17, 9), (13, 17, 70), (13, 5, 70)] {
            let a = Tensor::uniform((r, k), -1.0, 1.0, &mut rng);
            let b = Tensor::uniform((k, c), -1.0, 1.0, &mut rng);
            let (a, b) = (a.as_slice(), b.as_slice());
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            let mut dispatched = vec![0.0f32; r * c];
            gemm(Layout::Nn, a, b, r, k, c, &mut dispatched, Epilogue::Store);
            let mut pinned = vec![0.0f32; r * c];
            gemm_portable(Layout::Nn, a, b, r, k, c, &mut pinned);
            assert_eq!(bits(&dispatched), bits(&pinned));
            if Isa::avx2().is_some() {
                pinned.fill(0.0);
                gemm_avx2(Layout::Nn, a, b, r, k, c, &mut pinned);
                assert_eq!(bits(&dispatched), bits(&pinned));
            }
        }
    }
}
