//! Packed, register-blocked GEMM: the one driver behind
//! [`Tensor::matmul`](crate::Tensor::matmul), `matmul_tn` and `matmul_nt`.
//!
//! # Tile layout
//!
//! The driver packs `B` once per call into column panels of [`NR`] columns,
//! stored K-major (`bpack[p * NR + jj]`), so the microkernel reads `B`
//! contiguously no matter which variant produced it — `matmul_nt`'s
//! transposed access pattern is absorbed entirely by the pack step. `A` is
//! packed per row tile into K-major [`MR`]-row strips (`apack[p * MR + ii]`).
//! Remainder tiles are zero-padded: padded lanes compute garbage that is
//! never written back, and real lanes only ever multiply real values, so
//! padding cannot perturb any output bit.
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
//! The contract is also independent of the instruction set. An IEEE-754
//! single-precision multiply and an add each round once, and a SIMD lane
//! rounds exactly as the scalar instruction does, so as long as every
//! element keeps its own accumulator and its own ascending-`p` sequence of
//! `acc = acc + a*b`, the vector width only decides how many elements
//! advance per instruction, never what any of them holds: scalar, 4-lane
//! SSE2/NEON and 8-lane AVX2 agree to the last bit, and so do a master and
//! a `vela_worker` on different CPUs. Two things would break that and stay
//! out: a fused multiply-add rounds once where `*` then `+` round twice
//! (so `mul_add`/`+fma` change bits relative to every host without FMA),
//! and blocking over `k` reassociates the sum.
//!
//! # Instruction-set dispatch
//!
//! Packing, tiling and threading are one code path. Only the `MR x NR`
//! microkernel exists twice: [`microkernel`], portable Rust that LLVM
//! vectorizes at the build target's baseline width (SSE2 on x86-64), and on
//! `x86_64` `microkernel_avx2`, the same loop in `std::arch` intrinsics —
//! eight `ymm` accumulator rows, one broadcast, one `vmulps` and one
//! `vaddps` per row per `p`. Each [`gemm`] call picks one with
//! `is_x86_feature_detected!("avx2")`; there is no knob, cargo feature or
//! build flag, and the binary still runs on any x86-64 or aarch64 host.
//! The intrinsics are there because the autovectorizer is not dependable at
//! eight lanes: compiling the portable body under
//! `#[target_feature(enable = "avx2")]` makes LLVM's SLP pass re-transpose
//! the accumulators with ~100 shuffles per `p` (slower than SSE2), and
//! whether it vectorizes the body at all depends on what it was inlined
//! into. An in-crate test runs both microkernels over every layout and
//! asserts `to_bits()` equality.

use std::ops::Range;

use vela_obs::LazyCounter;

use crate::{parallel, workspace};

/// GEMM dispatches that stayed on the calling thread (below the
/// parallel cutoff or single-lane pool) vs. went to the pool.
static GEMM_SERIAL: LazyCounter = LazyCounter::new("tensor.gemm.serial");
static GEMM_PARALLEL: LazyCounter = LazyCounter::new("tensor.gemm.parallel");

/// Rows per microkernel tile (register-blocked output rows).
pub const MR: usize = 8;

/// Columns per packed `B` panel (register-blocked output columns).
pub const NR: usize = 8;

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
    gemm_with(Isa::detect(), layout, a, b, r, k, c, out);
}

/// [`gemm`] pinned to the portable microkernel whatever the host supports —
/// the in-process baseline `bench_kernels` times the dispatched kernel
/// against. Same bits as [`gemm`].
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
    gemm_with(Isa::Portable, layout, a, b, r, k, c, out);
}

/// The microkernel [`gemm`] runs on this host: `"avx2"` or `"portable"`.
/// Detected from the CPU, not configured.
pub fn simd_level() -> &'static str {
    match Isa::detect() {
        Isa::Portable => "portable",
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => "avx2",
    }
}

/// Which microkernel a call runs.
#[derive(Clone, Copy)]
enum Isa {
    /// [`microkernel`], at the build target's baseline instruction set.
    Portable,
    /// `microkernel_avx2`. Only [`Isa::avx2`] makes this value, and only
    /// after the CPU reported the feature; [`Isa::microkernel`] relies on
    /// that.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Isa {
    /// The AVX2 microkernel, if this is an x86-64 CPU that has AVX2.
    fn avx2() -> Option<Isa> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(Isa::Avx2);
        }
        None
    }

    /// The widest microkernel this host can run.
    fn detect() -> Isa {
        Isa::avx2().unwrap_or(Isa::Portable)
    }

    #[inline]
    fn microkernel(self, apack: &[f32], bpanel: &[f32], k: usize, acc: &mut [f32; MR * NR]) {
        match self {
            Isa::Portable => microkernel(apack, bpanel, k, acc),
            // SAFETY: an `Isa::Avx2` exists only because `Isa::avx2` saw the
            // CPU report AVX2.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { microkernel_avx2(apack, bpanel, k, acc) },
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn gemm_with(
    isa: Isa,
    layout: Layout,
    a: &[f32],
    b: &[f32],
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

    // Pack B once; the packed panels are shared read-only across threads.
    let panels = c.div_ceil(NR);
    let mut bpack_buf = workspace::take_vec_uninit(panels * k * NR);
    {
        let _p = vela_obs::span("tensor.gemm.pack");
        pack_b(layout, b, k, c, &mut bpack_buf);
    }
    let bpack = &bpack_buf[..];

    {
        let _c = vela_obs::span("tensor.gemm.compute");
        let job = RowJob {
            isa,
            layout,
            a,
            bpack,
            r,
            k,
            c,
        };
        par_rows(r, k * c, out, c, |rows, chunk| gemm_rows(&job, rows, chunk));
    }

    workspace::recycle_vec(bpack_buf);
}

/// Packs `B` into K-major column panels: panel `jp` covers columns
/// `jp*NR .. jp*NR+NR` and stores `bpack[jp*k*NR + p*NR + jj] = B[p, j0+jj]`.
/// Short final panels are zero-padded.
fn pack_b(layout: Layout, b: &[f32], k: usize, c: usize, bpack: &mut [f32]) {
    let panels = c.div_ceil(NR);
    for jp in 0..panels {
        let j0 = jp * NR;
        let jw = NR.min(c - j0);
        let panel = &mut bpack[jp * k * NR..(jp + 1) * k * NR];
        match layout {
            // B is (k, c) row-major: copy row segments.
            Layout::Nn | Layout::Tn => {
                for p in 0..k {
                    let src = &b[p * c + j0..p * c + j0 + jw];
                    let dst = &mut panel[p * NR..p * NR + NR];
                    dst[..jw].copy_from_slice(src);
                    dst[jw..].fill(0.0);
                }
            }
            // B is (c, k) row-major: transpose-gather a column strip. Reads
            // are sequential per source row; this is the one-time cost that
            // turns matmul_nt into a contiguous panel-dot.
            Layout::Nt => {
                if jw < NR {
                    panel.fill(0.0);
                }
                for jj in 0..jw {
                    let src = &b[(j0 + jj) * k..(j0 + jj + 1) * k];
                    for (p, &v) in src.iter().enumerate() {
                        panel[p * NR + jj] = v;
                    }
                }
            }
        }
    }
}

/// Packs an `A` row tile (`rows i0..i0+iw` of the logical `(r, k)` operand)
/// into K-major order: `apack[p*MR + ii] = A[i0+ii, p]`, zero-padding short
/// tiles.
fn pack_a(layout: Layout, a: &[f32], r: usize, k: usize, i0: usize, iw: usize, apack: &mut [f32]) {
    match layout {
        // A is (r, k) row-major: gather MR rows into K-major strips.
        Layout::Nn | Layout::Nt => {
            if iw < MR {
                apack.fill(0.0);
            }
            for ii in 0..iw {
                let src = &a[(i0 + ii) * k..(i0 + ii + 1) * k];
                for (p, &v) in src.iter().enumerate() {
                    apack[p * MR + ii] = v;
                }
            }
        }
        // A is (k, r) row-major: the logical A^T rows are already K-major
        // columns, so each p contributes a contiguous segment.
        Layout::Tn => {
            for p in 0..k {
                let src = &a[p * r + i0..p * r + i0 + iw];
                let dst = &mut apack[p * MR..p * MR + MR];
                dst[..iw].copy_from_slice(src);
                dst[iw..].fill(0.0);
            }
        }
    }
}

/// Computes one `MR x NR` output tile into `acc`, accumulating the full `k`
/// extent in ascending-`p` order. Both operands are packed K-major, so the
/// inner loops read contiguously; at the x86-64 baseline LLVM turns each
/// accumulator row into two 4-lane SSE2 `mulps`/`addps` pairs against a
/// stack copy of `acc` (sixteen `xmm` registers cannot hold 64 floats).
///
/// Never inlined: whether LLVM vectorizes this body has been seen to depend
/// on the caller it lands in, and one call per `128·k`-flop tile costs
/// nothing.
#[inline(never)]
fn microkernel(apack: &[f32], bpanel: &[f32], k: usize, acc: &mut [f32; MR * NR]) {
    acc.fill(0.0);
    for p in 0..k {
        let arow = &apack[p * MR..p * MR + MR];
        let brow = &bpanel[p * NR..p * NR + NR];
        for ii in 0..MR {
            let av = arow[ii];
            let dst = &mut acc[ii * NR..ii * NR + NR];
            for (d, &bv) in dst.iter_mut().zip(brow) {
                *d += av * bv;
            }
        }
    }
}

/// [`microkernel`] in AVX2 intrinsics: the eight accumulator rows live in
/// eight `ymm` registers for the whole `k` extent. Per element it performs
/// the same `acc = acc + a*b` sequence — `vmulps` then `vaddps`, two
/// roundings; `avx2` does not enable `fma` and nothing here asks for it — so
/// it returns the same bits as the portable kernel.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn microkernel_avx2(apack: &[f32], bpanel: &[f32], k: usize, acc: &mut [f32; MR * NR]) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_broadcast_ss, _mm256_loadu_ps, _mm256_mul_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };
    const { assert!(NR == 8, "one ymm register holds one accumulator row") };

    let mut rows = [_mm256_setzero_ps(); MR];
    let a_rows = apack[..k * MR].chunks_exact(MR);
    let b_rows = bpanel[..k * NR].chunks_exact(NR);
    for (arow, brow) in a_rows.zip(b_rows) {
        // SAFETY: `chunks_exact(NR)` yields slices of exactly NR == 8 floats.
        let b = unsafe { _mm256_loadu_ps(brow.as_ptr()) };
        for (row, av) in rows.iter_mut().zip(arow) {
            *row = _mm256_add_ps(*row, _mm256_mul_ps(_mm256_broadcast_ss(av), b));
        }
    }
    for (dst, row) in acc.chunks_exact_mut(NR).zip(rows) {
        // SAFETY: `dst` is exactly NR == 8 floats.
        unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), row) };
    }
}

/// What every row chunk of one [`gemm`] call shares: the microkernel, the
/// caller's `A`, the packed `B` and the logical dimensions.
struct RowJob<'a> {
    isa: Isa,
    layout: Layout,
    a: &'a [f32],
    bpack: &'a [f32],
    r: usize,
    k: usize,
    c: usize,
}

/// Computes output rows `rows` into `chunk` (the disjoint sub-slice owned by
/// this range): packs each `A` tile, then sweeps all `B` panels through the
/// microkernel.
fn gemm_rows(job: &RowJob<'_>, rows: Range<usize>, chunk: &mut [f32]) {
    let &RowJob {
        isa,
        layout,
        a,
        bpack,
        r,
        k,
        c,
    } = job;
    let base = rows.start;
    let panels = c.div_ceil(NR);
    let mut apack = workspace::take_vec_uninit(k * MR);
    let mut acc = [0.0f32; MR * NR];

    let mut i0 = rows.start;
    while i0 < rows.end {
        let iw = MR.min(rows.end - i0);
        pack_a(layout, a, r, k, i0, iw, &mut apack);
        for jp in 0..panels {
            let j0 = jp * NR;
            let jw = NR.min(c - j0);
            isa.microkernel(&apack, &bpack[jp * k * NR..(jp + 1) * k * NR], k, &mut acc);
            for ii in 0..iw {
                let dst = &mut chunk[(i0 - base + ii) * c + j0..(i0 - base + ii) * c + j0 + jw];
                dst.copy_from_slice(&acc[ii * NR..ii * NR + jw]);
            }
        }
        i0 += iw;
    }

    workspace::recycle_vec(apack);
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
    if rows * work_per_row.max(1) < parallel::par_cutoff() || parallel::current_threads() <= 1 {
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

    /// `(r, k, c)`: the parallel-parity suite's matrix, then shapes that
    /// pin the edges of the tile — `k` of 1 and 8, fewer rows than `MR`,
    /// fewer columns than `NR`, remainders on every axis — and one expert
    /// projection of the `ffn-heavy` benchmark workload.
    const SHAPES: [(usize, usize, usize); 16] = [
        (1, 1, 1),
        (1, 5, 3),
        (8, 8, 8),
        (9, 4, 9),
        (16, 16, 16),
        (15, 16, 17),
        (17, 9, 33),
        (33, 64, 7),
        (96, 64, 80),
        (65, 33, 131),
        (13, 17, 9),
        (5, 1, 3),
        (3, 8, 5),
        (7, 8, 24),
        (24, 1, 7),
        (64, 64, 1024),
    ];

    #[test]
    fn avx2_and_portable_microkernels_agree_bitwise() {
        let Some(avx2) = Isa::avx2() else {
            eprintln!("skip: no AVX2 on this host (or not x86_64); only the portable microkernel exists here");
            return;
        };
        assert_eq!(simd_level(), "avx2");
        for (s, &(r, k, c)) in SHAPES.iter().enumerate() {
            let mut rng = DetRng::new(0xA5A5 + s as u64);
            // Both operands are `r*k` and `k*c` floats whatever the layout;
            // only how `gemm` indexes them differs.
            let a = Tensor::uniform(r * k, -1.0, 1.0, &mut rng);
            let b = Tensor::uniform(k * c, -1.0, 1.0, &mut rng);
            for layout in [Layout::Nn, Layout::Tn, Layout::Nt] {
                let mut portable = vec![f32::NAN; r * c];
                let mut wide = vec![f32::NAN; r * c];
                gemm_with(
                    Isa::Portable,
                    layout,
                    a.as_slice(),
                    b.as_slice(),
                    r,
                    k,
                    c,
                    &mut portable,
                );
                gemm_with(avx2, layout, a.as_slice(), b.as_slice(), r, k, c, &mut wide);
                for (i, (p, w)) in portable.iter().zip(&wide).enumerate() {
                    assert_eq!(
                        p.to_bits(),
                        w.to_bits(),
                        "{layout:?} {r}x{k}x{c} element {i}: portable {p} vs avx2 {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn portable_entry_point_matches_dispatched_gemm() {
        let (r, k, c) = (13, 17, 9);
        let mut rng = DetRng::new(77);
        let a = Tensor::uniform((r, k), -1.0, 1.0, &mut rng);
        let b = Tensor::uniform((k, c), -1.0, 1.0, &mut rng);
        let mut dispatched = vec![0.0f32; r * c];
        let mut portable = vec![0.0f32; r * c];
        gemm(
            Layout::Nn,
            a.as_slice(),
            b.as_slice(),
            r,
            k,
            c,
            &mut dispatched,
        );
        gemm_portable(
            Layout::Nn,
            a.as_slice(),
            b.as_slice(),
            r,
            k,
            c,
            &mut portable,
        );
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&dispatched), bits(&portable));
    }
}
