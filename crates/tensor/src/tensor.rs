use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

use crate::gemm::{self, Epilogue, Layout};
use crate::rng::DetRng;
use crate::workspace;
use crate::Shape;

use self::data::Data;

/// A tensor's elements, and the GEMM panels a marked tensor keeps of them.
///
/// The fields are private to this module, so the rest of [`Tensor`] reads
/// the elements through `Deref` and can write them only through
/// [`Data::get_mut`], which drops the panels first. A kept copy therefore
/// never outlives the elements it was packed from, and a `&mut` method that
/// forgets about the panels does not compile.
mod data {
    use std::ops::Deref;
    use std::sync::OnceLock;

    use crate::gemm::NnPanels;

    pub(super) struct Data {
        elems: Vec<f32>,
        /// Keep the `Nn` panels once built (the mark survives `clone`).
        keep: bool,
        /// Built by the first `matmul` that reads them while `keep` is set.
        panels: OnceLock<NnPanels>,
    }

    impl Deref for Data {
        type Target = Vec<f32>;

        fn deref(&self) -> &Vec<f32> {
            &self.elems
        }
    }

    impl Data {
        pub(super) fn new(elems: Vec<f32>) -> Self {
            Data {
                elems,
                keep: false,
                panels: OnceLock::new(),
            }
        }

        /// A copy of the elements in `elems` that keeps the mark but not
        /// the panels.
        pub(super) fn copied_into(&self, mut elems: Vec<f32>) -> Self {
            elems.copy_from_slice(&self.elems);
            Data {
                elems,
                keep: self.keep,
                panels: OnceLock::new(),
            }
        }

        /// The elements, to write: whatever panels were kept are dropped.
        /// Only a marked tensor can hold any, so an unmarked one (every
        /// activation and gradient) pays one branch on a plain `bool`.
        #[inline]
        pub(super) fn get_mut(&mut self) -> &mut Vec<f32> {
            if self.keep {
                self.panels.take();
            }
            &mut self.elems
        }

        /// Moves the elements out, leaving none.
        pub(super) fn take(&mut self) -> Vec<f32> {
            std::mem::take(self.get_mut())
        }

        pub(super) fn keeps_panels(&self) -> bool {
            self.keep
        }

        pub(super) fn set_keep_panels(&mut self, keep: bool) {
            if !keep {
                self.panels.take();
            }
            self.keep = keep;
        }

        /// The `Nn` panels of these elements as a `(k, c)` operand, packed
        /// now if not yet; `None` for an unmarked tensor.
        pub(super) fn panels(&self, k: usize, c: usize) -> Option<&NnPanels> {
            self.keep.then(|| {
                self.panels
                    .get_or_init(|| NnPanels::pack(&self.elems, k, c))
            })
        }

        /// The panels already kept, without packing any.
        pub(super) fn kept_panels(&self) -> Option<&NnPanels> {
            self.panels.get()
        }
    }
}

/// Resizes a pooled buffer to `n` elements without preserving contents
/// (beyond the zero-fill of any newly grown tail).
fn resize_for(data: &mut Vec<f32>, n: usize) {
    if data.len() >= n {
        data.truncate(n);
    } else {
        data.resize(n, 0.0);
    }
}

/// `(r, k, c)` of the product of `a` and `b` in `layout`.
///
/// # Panics
/// Panics if their dimensions disagree.
fn product_dims(layout: Layout, a: &Tensor, b: &Tensor) -> (usize, usize, usize) {
    let ((ar, ac), (br, bc)) = (a.shape.as_2d(), b.shape.as_2d());
    match layout {
        Layout::Nn => {
            assert_eq!(ac, br, "matmul inner dims: {ac} vs {br}");
            (ar, ac, bc)
        }
        Layout::Tn => {
            assert_eq!(ar, br, "matmul_tn row dims: {ar} vs {br}");
            (ac, ar, bc)
        }
        Layout::Nt => {
            assert_eq!(ac, bc, "matmul_nt col dims: {ac} vs {bc}");
            (ar, ac, br)
        }
    }
}

/// A dense, row-major, owned `f32` tensor of at most three dimensions.
///
/// `Tensor` is the single numerical currency of the workspace: activations,
/// weights, gradients and optimizer state are all `Tensor`s. The type keeps
/// its buffer contiguous and owned, which keeps every kernel a simple loop
/// and makes serialization for the distributed runtime trivial.
///
/// Buffers are drawn from and returned to the thread-local
/// [`workspace`] pool: dropping a tensor recycles its allocation, and every
/// constructor reuses a pooled buffer when one fits, so steady-state
/// training steps stay off the system allocator.
///
/// Most kernels live as inherent methods here or in [`crate::ops`]; binary
/// operators (`+`, `-`, `*`) are provided for same-shape element-wise use.
///
/// # Example
/// ```
/// use vela_tensor::Tensor;
///
/// let x = Tensor::full((2, 2), 3.0);
/// let y = &x + &Tensor::eye(2);
/// assert_eq!(y.at2(0, 0), 4.0);
/// assert_eq!(y.at2(0, 1), 3.0);
/// ```
pub struct Tensor {
    shape: Shape,
    data: Data,
}

// A tensor is shared read-only across the GEMM pool's threads, kept panels
// and all.
const _: () = {
    const fn send_and_sync<T: Send + Sync>() {}
    send_and_sync::<Tensor>();
};

impl Clone for Tensor {
    /// Copies the elements and the keep-panels mark, not the panels.
    fn clone(&self) -> Self {
        let data = self
            .data
            .copied_into(workspace::take_vec_uninit(self.data.len()));
        Tensor {
            shape: self.shape,
            data,
        }
    }
}

impl Drop for Tensor {
    /// Returns the backing buffer to the thread-local [`workspace`] pool;
    /// kept panels go back to the allocator.
    fn drop(&mut self) {
        workspace::recycle_vec(self.data.take());
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && *self.data == *other.data
    }
}

impl Tensor {
    /// Creates a tensor from a shape and backing data.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.len(),
            data.len(),
            "shape {shape} expects {} elements, got {}",
            shape.len(),
            data.len()
        );
        Tensor {
            shape,
            data: Data::new(data),
        }
    }

    /// Creates a 2-D tensor from row slices.
    ///
    /// # Panics
    /// Panics if `rows` is empty or the rows have unequal lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = workspace::take_vec_uninit(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), cols, "all rows must have equal length");
            data[i * cols..(i + 1) * cols].copy_from_slice(row);
        }
        Tensor::from_vec((rows.len(), cols), data)
    }

    /// A tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let data = workspace::take_vec_zeroed(shape.len());
        Tensor::from_vec(shape, data)
    }

    /// A tensor filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let mut data = workspace::take_vec_uninit(shape.len());
        data.fill(value);
        Tensor::from_vec(shape, data)
    }

    /// The `n`-by-`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros((n, n));
        for i in 0..n {
            t.data.get_mut()[i * n + i] = 1.0;
        }
        t
    }

    /// A tensor with elements drawn uniformly from `[lo, hi)`.
    pub fn uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut DetRng) -> Self {
        let shape = shape.into();
        let mut data = workspace::take_vec_uninit(shape.len());
        for x in &mut data {
            *x = rng.uniform(lo, hi);
        }
        Tensor::from_vec(shape, data)
    }

    /// A tensor with elements drawn from a normal distribution.
    pub fn normal(shape: impl Into<Shape>, mean: f32, std: f32, rng: &mut DetRng) -> Self {
        let shape = shape.into();
        let mut data = workspace::take_vec_uninit(shape.len());
        for x in &mut data {
            *x = rng.normal(mean, std);
        }
        Tensor::from_vec(shape, data)
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of rows in the 2-D view (outer dims flattened).
    pub fn rows(&self) -> usize {
        self.shape.as_2d().0
    }

    /// Number of columns in the 2-D view (innermost dim).
    pub fn cols(&self) -> usize {
        self.shape.as_2d().1
    }

    /// Immutable access to the backing buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the backing buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.data.get_mut()
    }

    /// Consumes the tensor and returns its backing buffer (which is then
    /// owned by the caller instead of returning to the pool).
    pub fn into_vec(mut self) -> Vec<f32> {
        self.data.take()
    }

    /// Element at flat index `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn at(&self, i: usize) -> f32 {
        self.data[i]
    }

    /// Element at 2-D position `(row, col)` of the flattened 2-D view.
    ///
    /// # Panics
    /// Panics if the position is out of bounds.
    pub fn at2(&self, row: usize, col: usize) -> f32 {
        let (r, c) = self.shape.as_2d();
        assert!(row < r && col < c, "index ({row},{col}) out of {r}x{c}");
        self.data[row * c + col]
    }

    /// Sets the element at 2-D position `(row, col)`.
    ///
    /// # Panics
    /// Panics if the position is out of bounds.
    pub fn set2(&mut self, row: usize, col: usize, value: f32) {
        let (r, c) = self.shape.as_2d();
        assert!(row < r && col < c, "index ({row},{col}) out of {r}x{c}");
        self.data.get_mut()[row * c + col] = value;
    }

    /// Borrows row `row` of the 2-D view.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> &[f32] {
        let (r, c) = self.shape.as_2d();
        assert!(row < r, "row {row} out of {r}");
        &self.data[row * c..(row + 1) * c]
    }

    /// Mutably borrows row `row` of the 2-D view.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        let (r, c) = self.shape.as_2d();
        assert!(row < r, "row {row} out of {r}");
        &mut self.data.get_mut()[row * c..(row + 1) * c]
    }

    /// Returns a copy reshaped to `shape` (same element count).
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            shape.len(),
            self.data.len(),
            "cannot reshape {} elements into {shape}",
            self.data.len()
        );
        let mut out = self.clone();
        out.shape = shape;
        out
    }

    /// Becomes a buffer-reusing copy of `src`: shape and contents are
    /// overwritten, the existing allocation is kept when it fits. The
    /// zero-allocation replacement for `*slot = src.clone()` in layer
    /// caches.
    pub fn copy_from(&mut self, src: &Tensor) {
        self.shape = src.shape;
        let data = self.data.get_mut();
        data.clear();
        data.extend_from_slice(&src.data);
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = workspace::take_vec_uninit(self.data.len());
        for (o, &x) in out.iter_mut().zip(self.data.iter()) {
            *o = f(x);
        }
        Tensor::from_vec(self.shape, out)
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in self.data.get_mut() {
            *x = f(*x);
        }
    }

    /// Element-wise `self + other` (same shape).
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// Element-wise `self - other` (same shape).
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// Element-wise `self * other` (Hadamard product, same shape).
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// Element-wise combination of two same-shape tensors.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        let mut out = workspace::take_vec_uninit(self.data.len());
        for ((o, &a), &b) in out.iter_mut().zip(self.data.iter()).zip(other.data.iter()) {
            *o = f(a, b);
        }
        Tensor::from_vec(self.shape, out)
    }

    /// In-place `self += other` (same shape).
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        for (a, b) in self.data.get_mut().iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// In-place `self += scale * other` (same shape). The fused AXPY used by
    /// gradient accumulation and optimizers.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, scale: f32, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        crate::ops::scaled_add(self.data.get_mut(), scale, &other.data);
    }

    /// `self * s` for a scalar `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// In-place scalar multiply.
    pub fn scale_inplace(&mut self, s: f32) {
        self.map_inplace(|x| x * s);
    }

    /// Fills the tensor with zeros, keeping its shape.
    pub fn fill_zero(&mut self) {
        self.data.get_mut().fill(0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    ///
    /// # Panics
    /// Panics if the tensor is empty.
    pub fn mean(&self) -> f32 {
        assert!(!self.is_empty(), "mean of empty tensor");
        self.sum() / self.data.len() as f32
    }

    /// Maximum element.
    ///
    /// # Panics
    /// Panics if the tensor is empty.
    pub fn max(&self) -> f32 {
        assert!(!self.is_empty(), "max of empty tensor");
        self.data.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
    }

    /// L2 norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// 2-D transpose of the flattened 2-D view.
    pub fn transpose(&self) -> Tensor {
        let (r, c) = self.shape.as_2d();
        let mut out = workspace::take_vec_uninit(self.data.len());
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Tensor::from_vec((c, r), out)
    }

    /// Marks this tensor as a fixed right operand of [`matmul`](Self::matmul)
    /// (`keep = true`), or clears the mark. A marked tensor packs its GEMM
    /// panels on the first product it is the right operand of and keeps them
    /// for every later one, until anything writes to it: every `&mut`
    /// method drops them. The mark survives `clone`; the panels do not.
    /// Clearing the mark drops them too.
    ///
    /// Frozen weights carry the mark (`vela_nn::Param`): they take part in
    /// a product every step and never change. Kept panels cost about one
    /// more copy of the tensor.
    pub fn set_keep_panels(&mut self, keep: bool) {
        self.data.set_keep_panels(keep);
    }

    /// Whether this tensor is marked to keep its GEMM panels.
    pub fn keeps_panels(&self) -> bool {
        self.data.keeps_panels()
    }

    /// The GEMM panels this tensor keeps: `None` until a product has packed
    /// them, and again after any write. Exposed so a caller can tell kept
    /// panels from re-packed ones by address.
    pub fn kept_panels(&self) -> Option<&[f32]> {
        self.data.kept_panels().map(|p| p.as_slice())
    }

    /// Matrix product of the 2-D views: `(r x k) @ (k x c) -> (r x c)`.
    ///
    /// All three variants lower onto the packed microkernel in
    /// [`crate::gemm`], as does [`gemm_into`](Self::gemm_into). Large
    /// products are split over output rows across the current
    /// [`crate::parallel`] pool; every element is accumulated in ascending
    /// inner-index order regardless of thread count, so results are
    /// bitwise-deterministic. When `other` is marked to keep its panels
    /// ([`set_keep_panels`](Self::set_keep_panels)), the product reads them
    /// instead of packing `other`; the bits are the same.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.product(Layout::Nn, other)
    }

    /// `self^T @ other`: `(k x r)^T`-free product computing `(r x c)` from
    /// `self: (k x r)` and `other: (k x c)` without materializing the
    /// transpose. Used by backward passes for weight gradients.
    ///
    /// # Panics
    /// Panics if the outer (row) dimensions disagree.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        self.product(Layout::Tn, other)
    }

    /// `self @ other^T`: computes `(r x c)` from `self: (r x k)` and
    /// `other: (c x k)` without materializing the transpose. Used by backward
    /// passes for input gradients.
    ///
    /// # Panics
    /// Panics if the inner (column) dimensions disagree.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        self.product(Layout::Nt, other)
    }

    /// The product of `self` and `other` in `layout`, into a new tensor.
    fn product(&self, layout: Layout, other: &Tensor) -> Tensor {
        let (r, _, c) = product_dims(layout, self, other);
        let mut out = Tensor::from_vec((r, c), workspace::take_vec_uninit(r * c));
        out.gemm_into(layout, self, other, Epilogue::Store);
        out
    }

    /// `self = ep(self, a ∘ b)`, where `a ∘ b` is the `(r x c)` product of
    /// `layout` ([`matmul`](Self::matmul), [`matmul_tn`](Self::matmul_tn) or
    /// [`matmul_nt`](Self::matmul_nt) of `a` and `b`): the epilogue scales
    /// each element, adds it to `self`'s, or both, as the product writes it
    /// — the bits of a separate [`scale_inplace`](Self::scale_inplace) and
    /// [`add_assign`](Self::add_assign), with no temporary.
    ///
    /// # Panics
    /// Panics if the operands' dimensions disagree, or `self` is not
    /// `(r x c)`.
    pub fn gemm_into(&mut self, layout: Layout, a: &Tensor, b: &Tensor, ep: Epilogue) {
        let (r, k, c) = product_dims(layout, a, b);
        assert_eq!(
            self.shape.as_2d(),
            (r, c),
            "gemm_into writes a {r}x{c} product into a {} tensor",
            self.shape
        );
        let kept = match layout {
            Layout::Nn => b.data.panels(k, c),
            Layout::Tn | Layout::Nt => None,
        };
        let out = self.data.get_mut();
        match kept {
            Some(panels) => gemm::gemm_kept(&a.data, &b.data, panels, r, k, c, out, ep),
            None => gemm::gemm(layout, &a.data, &b.data, r, k, c, out, ep),
        }
    }

    /// Gathers rows of the 2-D view by index, producing
    /// `(indices.len() x cols)`.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        let c = self.shape.as_2d().1;
        let mut out = Tensor::from_vec(
            (indices.len(), c),
            workspace::take_vec_uninit(indices.len() * c),
        );
        self.gather_rows_into(indices, &mut out);
        out
    }

    /// Gathers rows by index into `out` (reshaped to
    /// `(indices.len(), cols)`; its buffer is reused).
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn gather_rows_into(&self, indices: &[usize], out: &mut Tensor) {
        let (r, c) = self.shape.as_2d();
        out.shape = Shape::d2(indices.len(), c);
        let dst = out.data.get_mut();
        resize_for(dst, indices.len() * c);
        for (i, &idx) in indices.iter().enumerate() {
            assert!(idx < r, "gather index {idx} out of {r} rows");
            dst[i * c..(i + 1) * c].copy_from_slice(&self.data[idx * c..(idx + 1) * c]);
        }
    }

    /// Scatter-add of `src` rows into `self` rows of the 2-D view:
    /// `self[indices[i]] += src[i]`.
    ///
    /// # Panics
    /// Panics if the column counts differ, the index count does not match
    /// `src`'s row count, or any index is out of bounds.
    pub fn scatter_add_rows(&mut self, indices: &[usize], src: &Tensor) {
        let (r, c) = self.shape.as_2d();
        let (sr, sc) = src.shape.as_2d();
        assert_eq!(c, sc, "scatter column mismatch: {c} vs {sc}");
        assert_eq!(indices.len(), sr, "scatter index count mismatch");
        let data = self.data.get_mut();
        for (i, &idx) in indices.iter().enumerate() {
            assert!(idx < r, "scatter index {idx} out of {r} rows");
            let dst = &mut data[idx * c..(idx + 1) * c];
            let s = &src.data[i * c..(i + 1) * c];
            for (d, &v) in dst.iter_mut().zip(s) {
                *d += v;
            }
        }
    }

    /// Concatenates 2-D tensors along rows.
    ///
    /// # Panics
    /// Panics if `parts` is empty or the column counts differ.
    pub fn concat_rows(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_rows requires at least one part");
        let c = parts[0].cols();
        let total: usize = parts.iter().map(|p| p.rows()).sum();
        let mut data = workspace::take_vec_uninit(total * c);
        let mut off = 0;
        for p in parts {
            assert_eq!(p.cols(), c, "concat column mismatch");
            data[off..off + p.data.len()].copy_from_slice(&p.data);
            off += p.data.len();
        }
        Tensor::from_vec((total, c), data)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}", self.shape)?;
        if self.len() <= 8 {
            write!(f, ", {:?})", *self.data)
        } else {
            write!(
                f,
                ", [{:.4}, {:.4}, .., {:.4}])",
                self.data[0],
                self.data[1],
                self.data[self.len() - 1]
            )
        }
    }
}

impl Default for Tensor {
    /// A 1-element zero tensor.
    fn default() -> Self {
        Tensor::zeros(1usize)
    }
}

impl Add for &Tensor {
    type Output = Tensor;
    fn add(self, rhs: &Tensor) -> Tensor {
        Tensor::add(self, rhs)
    }
}

impl Sub for &Tensor {
    type Output = Tensor;
    fn sub(self, rhs: &Tensor) -> Tensor {
        Tensor::sub(self, rhs)
    }
}

impl Mul for &Tensor {
    type Output = Tensor;
    fn mul(self, rhs: &Tensor) -> Tensor {
        Tensor::mul(self, rhs)
    }
}

impl Neg for &Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        self.scale(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.at2(1, 2), 6.0);
        assert_eq!(t.row(0), &[1.0, 2.0, 3.0]);
        let mut t = t;
        t.set2(0, 0, -1.0);
        assert_eq!(t.at(0), -1.0);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = DetRng::new(7);
        let a = Tensor::uniform((4, 4), -1.0, 1.0, &mut rng);
        let i = Tensor::eye(4);
        assert!(approx_eq(a.matmul(&i).as_slice(), a.as_slice(), 1e-6));
        assert!(approx_eq(i.matmul(&a).as_slice(), a.as_slice(), 1e-6));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = DetRng::new(1);
        let a = Tensor::uniform((5, 3), -1.0, 1.0, &mut rng);
        let b = Tensor::uniform((5, 4), -1.0, 1.0, &mut rng);
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        assert!(approx_eq(fast.as_slice(), slow.as_slice(), 1e-5));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = DetRng::new(2);
        let a = Tensor::uniform((5, 3), -1.0, 1.0, &mut rng);
        let b = Tensor::uniform((4, 3), -1.0, 1.0, &mut rng);
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        assert!(approx_eq(fast.as_slice(), slow.as_slice(), 1e-5));
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(3usize, vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(3usize, vec![4.0, 5.0, 6.0]);
        assert_eq!((&a + &b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!((&b - &a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!((&a * &b).as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0, -3.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_vec(2usize, vec![1.0, 1.0]);
        let g = Tensor::from_vec(2usize, vec![2.0, 4.0]);
        a.axpy(0.5, &g);
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]);
        assert_eq!(t.sum(), 6.0);
        assert_eq!(t.mean(), 1.5);
        assert_eq!(t.max(), 4.0);
        assert!((t.norm() - (1.0f32 + 4.0 + 9.0 + 16.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let g = t.gather_rows(&[2, 0]);
        assert_eq!(g.as_slice(), &[5.0, 6.0, 1.0, 2.0]);
        let mut out = Tensor::zeros((3, 2));
        out.scatter_add_rows(&[2, 0], &g);
        assert_eq!(out.as_slice(), &[1.0, 2.0, 0.0, 0.0, 5.0, 6.0]);
    }

    #[test]
    fn gather_rows_into_reuses_buffer() {
        let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let mut out = Tensor::zeros((1, 1));
        t.gather_rows_into(&[1, 1, 0], &mut out);
        assert_eq!(out.shape().dims(), &[3, 2]);
        assert_eq!(out.as_slice(), &[3.0, 4.0, 3.0, 4.0, 1.0, 2.0]);
        // Shrinking works too.
        t.gather_rows_into(&[2], &mut out);
        assert_eq!(out.as_slice(), &[5.0, 6.0]);
    }

    #[test]
    fn scatter_add_accumulates_duplicates() {
        let src = Tensor::from_rows(&[&[1.0], &[2.0]]);
        let mut out = Tensor::zeros((2, 1));
        out.scatter_add_rows(&[0, 0], &src);
        assert_eq!(out.as_slice(), &[3.0, 0.0]);
    }

    #[test]
    fn concat_rows_stacks() {
        let a = Tensor::from_rows(&[&[1.0, 2.0]]);
        let b = Tensor::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let c = Tensor::concat_rows(&[&a, &b]);
        assert_eq!(c.rows(), 3);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = DetRng::new(3);
        let a = Tensor::uniform((3, 5), -1.0, 1.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(6usize, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let r = t.reshape((2, 3));
        assert_eq!(r.at2(1, 0), 3.0);
        let r3 = t.reshape((1, 2, 3));
        assert_eq!(r3.shape().dims(), &[1, 2, 3]);
    }

    #[test]
    fn copy_from_tracks_shape_and_contents() {
        let src = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let mut dst = Tensor::zeros((7, 7));
        dst.copy_from(&src);
        assert_eq!(dst, src);
        let smaller = Tensor::from_vec(2usize, vec![9.0, 8.0]);
        dst.copy_from(&smaller);
        assert_eq!(dst, smaller);
    }

    #[test]
    fn into_vec_detaches_buffer() {
        let t = Tensor::from_vec(3usize, vec![1.0, 2.0, 3.0]);
        let v = t.into_vec();
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros((2, 3));
        let b = Tensor::zeros((2, 3));
        a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_shape_mismatch_panics() {
        let a = Tensor::zeros((2, 3));
        let b = Tensor::zeros((3, 2));
        let _ = &a + &b;
    }

    #[test]
    fn debug_nonempty() {
        assert!(!format!("{:?}", Tensor::zeros(1usize)).is_empty());
        assert!(!format!("{:?}", Tensor::zeros((4, 4))).is_empty());
    }
}
