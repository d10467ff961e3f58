//! Dense `f32` tensor substrate for the VELA reproduction.
//!
//! This crate provides the minimal numerical foundation that the rest of the
//! workspace builds on: a row-major dense [`Tensor`] type, the arithmetic and
//! linear-algebra kernels needed by a Mixture-of-Experts transformer
//! (mat-muls, softmax, reductions, row gather/scatter), and a deterministic
//! random-number facility ([`rng::DetRng`]) so every experiment in the
//! repository is reproducible bit-for-bit.
//!
//! The design favours clarity and testability first: the mat-mul variants
//! lower onto one packed, register-blocked microkernel ([`gemm`]), threaded
//! across a deterministic pool ([`parallel`]) that partitions work over
//! output rows — so results stay bitwise-identical at any thread count
//! (`VELA_THREADS` selects the pool size; `1` reproduces the serial kernels
//! exactly; work below [`parallel::PAR_CUTOFF`] runs inline). Tensor
//! buffers recycle through a thread-local pool ([`workspace`]), keeping
//! steady-state training steps allocation-free.
//!
//! # Example
//!
//! ```
//! use vela_tensor::Tensor;
//!
//! let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.as_slice(), a.as_slice());
//! ```

mod expf;
pub mod gemm;
pub mod ops;
pub mod parallel;
pub mod rng;
mod shape;
mod tensor;
pub mod workspace;

pub use shape::Shape;
pub use tensor::Tensor;

/// Returns `true` if `a` and `b` are element-wise equal within `tol`.
///
/// Intended for tests; both slices must have the same length.
///
/// # Example
/// ```
/// assert!(vela_tensor::approx_eq(&[1.0], &[1.0 + 1e-6], 1e-4));
/// ```
pub fn approx_eq(a: &[f32], b: &[f32], tol: f32) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
}
