//! Packed, register-blocked GEMM: the one driver behind
//! [`Tensor::matmul`](crate::Tensor::matmul), `matmul_tn` and `matmul_nt`.
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
//! ([`NnPanels`], [`gemm_kept`]) until it is written to.
//!
//! `A` is read in place, through [`MR`] row cursors (`ATile`): `Nn`/`Nt` row
//! `i` at `a[i * k + p]`, `Tn` row `i` at `a[p * r + i]`. A short row tile
//! points its padding cursors at its last real row; those lanes compute a
//! copy of that row, which is never written back, so padding cannot perturb
//! any output bit.
//!
//! | microkernel          | tile `MR x` | accumulators         | panels it runs on        |
//! |----------------------|-------------|----------------------|--------------------------|
//! | `microkernel`      | 8           | stack (SSE2: 16 regs)| any host; both widths    |
//! | `microkernel_avx2`   | 8           | eight `ymm`          | AVX2; both widths        |
//! | `microkernel_avx512` | 32          | sixteen `zmm`        | AVX-512F; 32-wide only   |
//!
//! # The panel width is chosen per call
//!
//! The panel width `nr` is [`NR`] (8) or `NR_WIDE` (32), a value threaded
//! from [`gemm`] through `pack_b`, `RowJob` and `gemm_rows` (and kept in
//! [`NnPanels`] beside panels packed ahead), not a constant:
//! 32 when the CPU has AVX-512F and the product has at least 32 columns,
//! otherwise 8. One width cannot serve both kinds of product a fine-tuning
//! step is made of. The expert FFN's projections are 64 to 1024 columns wide
//! and run 1.3–1.5× faster on the 512-bit tile. LoRA's adapters are 8 columns
//! wide (`x·A`, `g·Bᵀ`): padded to one 32-wide panel they do 4× the work, and
//! a global 32 was measured to give back on them everything the wide products
//! gained (EXPERIMENTS.md). On 32-wide panels the 8-wide kernels sweep four
//! column strips per panel; only the in-crate test asks them to, so that
//! every host checks the wide pack against the narrow one.
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
//! # Instruction-set dispatch
//!
//! Packing, tiling and threading are one code path; the microkernel exists
//! three times. `microkernel` is portable Rust that LLVM vectorizes at the
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
//! widths and over every layout, and asserts `to_bits()` equality with the
//! portable kernel.

use std::ops::Range;

use vela_obs::LazyCounter;

use crate::{parallel, workspace};

/// GEMM dispatches that stayed on the calling thread (below the
/// parallel cutoff or single-lane pool) vs. went to the pool.
static GEMM_SERIAL: LazyCounter = LazyCounter::new("tensor.gemm.serial");
static GEMM_PARALLEL: LazyCounter = LazyCounter::new("tensor.gemm.parallel");

/// Rows per microkernel tile (register-blocked output rows).
pub const MR: usize = 8;

/// Columns per narrow packed `B` panel, and per portable/AVX2 tile.
pub const NR: usize = 8;

/// Columns per wide packed `B` panel: one AVX-512 tile, two `zmm` per row.
const NR_WIDE: usize = 32;

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

/// `out = A @ B` (per `layout`), `out: (r, c)`, inner dimension `k`.
///
/// `out` is fully overwritten; it does not need to be zeroed.
pub fn gemm(layout: Layout, a: &[f32], b: &[f32], r: usize, k: usize, c: usize, out: &mut [f32]) {
    let isa = Isa::detect();
    gemm_with(isa, isa.panel_width(c), layout, a, b, r, k, c, out);
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

/// [`gemm`] in the `Nn` layout with `B: (k, c)` already packed into
/// `panels`: `out = A @ B`, `a: (r, k)`.
///
/// # Panics
/// Panics if `panels` were packed for other dimensions.
pub(crate) fn gemm_kept(
    a: &[f32],
    panels: &NnPanels,
    r: usize,
    k: usize,
    c: usize,
    out: &mut [f32],
) {
    assert_eq!(
        (panels.k, panels.c),
        (k, c),
        "panels packed for another shape"
    );
    let b = Right::Panels(&panels.buf);
    gemm_with(Isa::detect(), panels.nr, Layout::Nn, a, b, r, k, c, out);
}

/// [`gemm`] pinned to the portable microkernel and narrow panels whatever
/// the host supports — the in-process baseline `bench_kernels` times the
/// dispatched kernel against. Same bits as [`gemm`].
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
    gemm_with(Isa::Portable, NR, layout, a, b, r, k, c, out);
}

/// [`gemm`] pinned to the AVX2 microkernel and narrow panels — what an
/// AVX-512 host ran before it had a wider kernel, and `bench_kernels`'
/// baseline for it. Same bits as [`gemm`].
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
    gemm_with(isa, NR, layout, a, b, r, k, c, out);
}

/// The widest microkernel [`gemm`] runs on this host: `"avx512"`, `"avx2"`
/// or `"portable"`. Detected from the CPU, not configured.
pub fn simd_level() -> &'static str {
    kernel_for(usize::MAX)
}

/// The microkernel [`gemm`] runs a `c`-column product on, on this host:
/// `"avx512"` only when the CPU has AVX-512F and the product is wide enough
/// for 32-wide panels, else `"avx2"` or `"portable"`.
pub fn kernel_for(c: usize) -> &'static str {
    let isa = Isa::detect();
    match isa {
        Isa::Portable => "portable",
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 if isa.panel_width(c) == NR_WIDE => "avx512",
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
    /// ones. Only [`Isa::avx512`] makes this value, and only after the CPU
    /// reported both features.
    #[cfg(target_arch = "x86_64")]
    Avx512,
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

    /// Computes the `MR x tile_width(nr)` tile at columns `t0..` of `panel`,
    /// an `nr`-wide packed panel, into `acc` with row stride `tile_width(nr)`.
    #[inline]
    fn microkernel(
        self,
        a: &ATile<'_>,
        panel: &[f32],
        nr: usize,
        t0: usize,
        k: usize,
        acc: &mut [f32; MR * NR_WIDE],
    ) {
        let (acc8, _) = acc
            .split_first_chunk_mut::<{ MR * NR }>()
            .expect("the wide tile holds a narrow one");
        match (self, nr) {
            (Isa::Portable, NR) => microkernel::<NR>(a, panel, t0, k, acc8),
            (Isa::Portable, _) => microkernel::<NR_WIDE>(a, panel, t0, k, acc8),
            // SAFETY (every arm below): an `Isa::Avx2` exists only because
            // `Isa::avx2` saw the CPU report AVX2, and an `Isa::Avx512` only
            // because `Isa::avx512` saw it report AVX-512F and AVX2.
            #[cfg(target_arch = "x86_64")]
            (Isa::Avx2 | Isa::Avx512, NR) => unsafe {
                microkernel_avx2::<NR>(a, panel, t0, k, acc8)
            },
            #[cfg(target_arch = "x86_64")]
            (Isa::Avx2, _) => unsafe { microkernel_avx2::<NR_WIDE>(a, panel, t0, k, acc8) },
            #[cfg(target_arch = "x86_64")]
            (Isa::Avx512, _) => unsafe { microkernel_avx512(a, panel, k, acc) },
        }
    }
}

/// The right operand as a call hands it over.
#[derive(Clone, Copy)]
enum Right<'a> {
    /// The caller's row-major buffer, packed by this call.
    Rows(&'a [f32]),
    /// Panels packed ahead by [`NnPanels::pack`], at the call's width.
    Panels(&'a [f32]),
}

impl<'a> From<&'a [f32]> for Right<'a> {
    fn from(rows: &'a [f32]) -> Self {
        Right::Rows(rows)
    }
}

#[allow(clippy::too_many_arguments)]
fn gemm_with<'b>(
    isa: Isa,
    nr: usize,
    layout: Layout,
    a: &[f32],
    b: impl Into<Right<'b>>,
    r: usize,
    k: usize,
    c: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), r * c);
    if r == 0 || c == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }

    let _g = vela_obs::span("tensor.gemm");

    // Pack B once (unless it came packed); the panels are shared read-only
    // across threads.
    let panels_len = c.div_ceil(nr) * k * nr;
    let mut scratch = Vec::new();
    let bpack = match b.into() {
        Right::Panels(panels) => {
            debug_assert_eq!(panels.len(), panels_len);
            panels
        }
        Right::Rows(b) => {
            scratch = workspace::take_vec_uninit(panels_len);
            pack_b_spanned(isa, nr, layout, b, k, c, &mut scratch);
            &scratch[..]
        }
    };

    {
        let _c = vela_obs::span("tensor.gemm.compute");
        let job = RowJob {
            isa,
            nr,
            layout,
            a,
            bpack,
            r,
            k,
            c,
        };
        par_rows(r, k * c, out, c, |rows, chunk| gemm_rows(&job, rows, chunk));
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
    match nr {
        NR => pack_b::<NR>(isa, layout, b, k, c, bpack),
        NR_WIDE => pack_b::<NR_WIDE>(isa, layout, b, k, c, bpack),
        _ => unreachable!("panels are NR or NR_WIDE columns, not {nr}"),
    }
}

/// Packs `B` into K-major column panels of `W` columns: panel `jp` covers
/// columns `jp*W .. jp*W+W` and stores `bpack[jp*k*W + p*W + jj] =
/// B[p, j0+jj]`. A short final panel is zero-padded.
fn pack_b<const W: usize>(
    isa: Isa,
    layout: Layout,
    b: &[f32],
    k: usize,
    c: usize,
    bpack: &mut [f32],
) {
    for (jp, panel) in bpack.chunks_exact_mut(k * W).enumerate() {
        let j0 = jp * W;
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
/// which [`gemm_rows`] never writes back.
struct ATile<'a> {
    src: &'a [f32],
    start: [usize; MR],
    step: usize,
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
        }
    }

    /// Where each tile row's first value is.
    #[cfg(target_arch = "x86_64")]
    fn row_ptrs(&self) -> [*const f32; MR] {
        self.start.map(|s| self.src[s..].as_ptr())
    }
}

/// Computes one `MR x NR` output tile into `acc`, accumulating the full `k`
/// extent in ascending-`p` order. The tile's `B` columns are `t0..t0 + NR` of
/// `panel`, K-major with `LDB` columns, so its row `p` is
/// `panel[p*LDB + t0..][..NR]`; at the x86-64 baseline LLVM turns each
/// accumulator row into two 4-lane SSE2 `mulps`/`addps` pairs against a
/// stack copy of `acc` (sixteen `xmm` registers cannot hold 64 floats).
///
/// Never inlined: whether LLVM vectorizes this body has been seen to depend
/// on the caller it lands in, and one call per `128·k`-flop tile costs
/// nothing.
#[inline(never)]
fn microkernel<const LDB: usize>(
    a: &ATile<'_>,
    panel: &[f32],
    t0: usize,
    k: usize,
    acc: &mut [f32; MR * NR],
) {
    acc.fill(0.0);
    for p in 0..k {
        let brow = &panel[p * LDB + t0..p * LDB + t0 + NR];
        for (ii, &start) in a.start.iter().enumerate() {
            let av = a.src[start + p * a.step];
            let dst = &mut acc[ii * NR..ii * NR + NR];
            for (d, &bv) in dst.iter_mut().zip(brow) {
                *d += av * bv;
            }
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
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn microkernel_avx2<const LDB: usize>(
    a: &ATile<'_>,
    panel: &[f32],
    t0: usize,
    k: usize,
    acc: &mut [f32; MR * NR],
) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_broadcast_ss, _mm256_loadu_ps, _mm256_mul_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };
    const { assert!(NR == 8, "one ymm register holds one accumulator row") };

    let a_rows = a.row_ptrs();
    let mut rows = [_mm256_setzero_ps(); MR];
    let b_rows = panel[..k * LDB].chunks_exact(LDB);
    for (p, brow) in b_rows.enumerate() {
        let brow = &brow[t0..t0 + NR];
        // SAFETY: `brow` was just sliced to exactly NR == 8 floats.
        let b = unsafe { _mm256_loadu_ps(brow.as_ptr()) };
        let at = p * a.step;
        for (row, a_row) in rows.iter_mut().zip(a_rows) {
            // SAFETY: `p < k`, and `ATile::new` checked that every row's
            // `k`-th value is inside `a`.
            let av = unsafe { _mm256_broadcast_ss(&*a_row.add(at)) };
            *row = _mm256_add_ps(*row, _mm256_mul_ps(av, b));
        }
    }
    for (dst, row) in acc.chunks_exact_mut(NR).zip(rows) {
        // SAFETY: `dst` is exactly NR == 8 floats.
        unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), row) };
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
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn microkernel_avx512(
    a: &ATile<'_>,
    bpanel: &[f32],
    k: usize,
    acc: &mut [f32; MR * NR_WIDE],
) {
    use std::arch::x86_64::{
        _mm512_add_ps, _mm512_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
        _mm512_storeu_ps,
    };
    const LANES: usize = 16;
    const {
        assert!(
            NR_WIDE == 2 * LANES,
            "two zmm registers hold one accumulator row"
        )
    };

    let a_rows = a.row_ptrs();
    let mut lo = [_mm512_setzero_ps(); MR];
    let mut hi = [_mm512_setzero_ps(); MR];
    let b_rows = bpanel[..k * NR_WIDE].chunks_exact(NR_WIDE);
    for (p, brow) in b_rows.enumerate() {
        let (b_lo, b_hi) = brow.split_at(LANES);
        // SAFETY: `chunks_exact(NR_WIDE)` yields 32 floats, so each half is
        // exactly LANES == 16 of them.
        let (b_lo, b_hi) = unsafe {
            (
                _mm512_loadu_ps(b_lo.as_ptr()),
                _mm512_loadu_ps(b_hi.as_ptr()),
            )
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
    for ((dst, lo), hi) in acc.chunks_exact_mut(NR_WIDE).zip(lo).zip(hi) {
        let (dst_lo, dst_hi) = dst.split_at_mut(LANES);
        // SAFETY: `dst` is exactly NR_WIDE == 32 floats, LANES == 16 a half.
        unsafe {
            _mm512_storeu_ps(dst_lo.as_mut_ptr(), lo);
            _mm512_storeu_ps(dst_hi.as_mut_ptr(), hi);
        }
    }
}

/// What every row chunk of one [`gemm`] call shares: the microkernel, the
/// caller's `A`, the packed `B`, its panel width and the logical dimensions.
struct RowJob<'a> {
    isa: Isa,
    nr: usize,
    layout: Layout,
    a: &'a [f32],
    bpack: &'a [f32],
    r: usize,
    k: usize,
    c: usize,
}

/// Computes output rows `rows` into `chunk` (the disjoint sub-slice owned by
/// this range): per `A` row tile, sweeps all `B` panels through the
/// microkernel, one tile width of columns at a time.
fn gemm_rows(job: &RowJob<'_>, rows: Range<usize>, chunk: &mut [f32]) {
    let &RowJob {
        isa,
        nr,
        layout,
        a,
        bpack,
        r,
        k,
        c,
    } = job;
    let base = rows.start;
    let tw = isa.tile_width(nr);
    let panels = c.div_ceil(nr);
    let mut acc = [0.0f32; MR * NR_WIDE];

    let mut i0 = rows.start;
    while i0 < rows.end {
        let iw = MR.min(rows.end - i0);
        let tile = ATile::new(layout, a, r, k, i0, iw);
        for jp in 0..panels {
            let panel = &bpack[jp * k * nr..(jp + 1) * k * nr];
            // Tiles wholly inside the last panel's zero padding are skipped.
            let panel_cols = nr.min(c - jp * nr);
            let mut t0 = 0;
            while t0 < panel_cols {
                let j0 = jp * nr + t0;
                let jw = tw.min(c - j0);
                isa.microkernel(&tile, panel, nr, t0, k, &mut acc);
                for ii in 0..iw {
                    let dst = &mut chunk[(i0 - base + ii) * c + j0..][..jw];
                    dst.copy_from_slice(&acc[ii * tw..ii * tw + jw]);
                }
                t0 += tw;
            }
        }
        i0 += iw;
    }
}

/// Runs `kernel` over disjoint row ranges of the output, splitting across
/// the current pool only when the total work clears the parallel cutoff.
fn par_rows(
    rows: usize,
    work_per_row: usize,
    out: &mut [f32],
    cols: usize,
    kernel: impl Fn(Range<usize>, &mut [f32]) + Sync,
) {
    if rows * work_per_row.max(1) < parallel::PAR_CUTOFF || parallel::current_threads() <= 1 {
        GEMM_SERIAL.add(1);
        kernel(0..rows, out);
        return;
    }
    GEMM_PARALLEL.add(1);
    let min_rows = (parallel::PAR_MIN_WORK / work_per_row.max(1)).max(1);
    let slots = parallel::DisjointSlots::new(out);
    parallel::par_ranges(rows, min_rows, |range| {
        // SAFETY: ranges from `par_ranges` are disjoint, so each chunk is
        // the sole accessor of its row slice.
        let chunk = unsafe {
            std::slice::from_raw_parts_mut(slots.get(range.start * cols), range.len() * cols)
        };
        kernel(range, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;
    use crate::Tensor;

    /// `(r, k, c)` beside the grid: a single element, and fewer columns than
    /// the narrow panel with remainders on the other axes.
    const EDGE_SHAPES: [(usize, usize, usize); 4] =
        [(1, 1, 1), (1, 5, 3), (33, 64, 7), (13, 17, 5)];

    /// Every `(r, k, c)` the kernels are compared on: rows below, at and
    /// above `MR`; `k` of 1, one tile, and the two expert-FFN depths; columns
    /// around both panel widths, including the `ffn-heavy` hidden width.
    fn shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = EDGE_SHAPES.to_vec();
        for r in [1, 7, 8, 9, 64] {
            for k in [1, 8, 64, 1024] {
                for c in [8, 24, 31, 32, 33, 40, 64, 1024] {
                    shapes.push((r, k, c));
                }
            }
        }
        shapes
    }

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
            None => eprintln!("skip: no AVX-512F on this host (or not x86_64); the AVX-512 microkernel is not compared"),
        }
        isas
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
            for layout in [Layout::Nn, Layout::Tn, Layout::Nt] {
                let run = |isa, nr| {
                    let mut out = vec![f32::NAN; r * c];
                    gemm_with(
                        isa,
                        nr,
                        layout,
                        a.as_slice(),
                        b.as_slice(),
                        r,
                        k,
                        c,
                        &mut out,
                    );
                    out
                };
                let reference = run(Isa::Portable, NR);
                let others = isas.iter().flat_map(|&isa| [(isa, NR), (isa, NR_WIDE)]);
                for (isa, nr) in others.chain([(Isa::Portable, NR_WIDE)]) {
                    let got = run(isa, nr);
                    for (i, (p, w)) in reference.iter().zip(&got).enumerate() {
                        assert_eq!(
                            p.to_bits(),
                            w.to_bits(),
                            "{layout:?} {r}x{k}x{c} element {i}: portable {p} vs {isa:?} on {nr}-wide panels {w}"
                        );
                    }
                }
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
        assert_eq!((kernel_for(8), kernel_for(32)), (narrow, simd_level()));
    }

    #[test]
    fn pinned_entry_points_match_dispatched_gemm() {
        let mut rng = DetRng::new(77);
        for (r, k, c) in [(13, 17, 9), (13, 17, 70)] {
            let a = Tensor::uniform((r, k), -1.0, 1.0, &mut rng);
            let b = Tensor::uniform((k, c), -1.0, 1.0, &mut rng);
            let (a, b) = (a.as_slice(), b.as_slice());
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            let mut dispatched = vec![0.0f32; r * c];
            gemm(Layout::Nn, a, b, r, k, c, &mut dispatched);
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
