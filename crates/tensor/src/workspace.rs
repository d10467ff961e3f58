//! Thread-local scratch-buffer pool backing the zero-allocation hot path.
//!
//! Every [`Tensor`] returns its backing `Vec<f32>` here when
//! dropped, and every tensor-producing op draws its buffer from here first,
//! so a steady-state training step recycles the same handful of buffers
//! instead of hitting the system allocator. Layers that want explicit
//! scratch tensors (attention blocks, MoE gather buffers) use [`take`] /
//! [`take_uninit`] directly; everything else gets pooling for free through
//! the `Tensor` constructors.
//!
//! # Borrowing rules
//!
//! - Buffers are pooled **per thread**. A tensor created on a worker thread
//!   and dropped on the caller's thread migrates its buffer between pools;
//!   this is safe and merely shifts where the capacity lives.
//! - [`take_uninit`] returns a tensor whose elements are *unspecified but
//!   initialized* values (leftovers from a previous use). Callers must
//!   overwrite every element before reading. There is no `unsafe` here: the
//!   pool never exposes uninitialized memory, it only skips the zero-fill.
//! - The pool holds at most [`MAX_POOLED_BYTES`] of capacity in total and
//!   at most [`MAX_POOLED_BUFFERS`] buffers; a buffer that would take it
//!   over either is released to the allocator on drop, so what a pool pins
//!   is bounded in bytes whatever sizes a step returns, and pathological
//!   peaks don't pin memory forever.

use std::cell::RefCell;

use vela_obs::LazyCounter;

use crate::{Shape, Tensor};

/// Process-wide pool telemetry (sums over all thread-local pools; the
/// per-thread split stays available via [`stats`]).
static WS_HIT: LazyCounter = LazyCounter::new("tensor.workspace.hit");
static WS_MISS: LazyCounter = LazyCounter::new("tensor.workspace.miss");
static WS_RECYCLED: LazyCounter = LazyCounter::new("tensor.workspace.recycled");

/// Maximum bytes of buffer capacity one pool holds (16 MiB).
///
/// Measured on the `ffn-heavy` benchmark shape (dim 64, two blocks of eight
/// 1024-wide experts, top-4, batch 2 × 64 tokens), fine-tuning on one
/// thread: with no byte bound, a steady-state step ends with 9.6–15.1 MiB
/// pooled in 63 buffers; 16 MiB holds that, and a smaller whole-MiB budget
/// makes those steps allocate more.
pub const MAX_POOLED_BYTES: usize = 16 << 20;

/// Maximum buffers one pool holds. Besides bounding the best-fit scan, it
/// bounds a pool that more buffers enter than leave, as the master's does
/// in a frame-bound run: with bytes as the only bound, `wire-heavy`'s
/// master pool filled to [`MAX_POOLED_BYTES`] with thousands of small
/// buffers.
pub const MAX_POOLED_BUFFERS: usize = 64;

#[derive(Default)]
struct Pool {
    bufs: Vec<Vec<f32>>,
    /// Total capacity (elements) of `bufs`.
    floats: usize,
    hits: u64,
    misses: u64,
    recycled: u64,
}

impl Pool {
    /// Best-fit take: the smallest pooled buffer whose capacity covers `n`,
    /// falling back to the largest available buffer (its capacity will grow
    /// once and then stick) or a fresh allocation.
    fn take(&mut self, n: usize) -> Vec<f32> {
        let mut best: Option<(usize, usize)> = None; // (index, capacity)
        for (i, b) in self.bufs.iter().enumerate() {
            let cap = b.capacity();
            let better = match best {
                Some((_, bc)) => {
                    if bc >= n {
                        cap >= n && cap < bc
                    } else {
                        cap > bc
                    }
                }
                None => true,
            };
            if better {
                best = Some((i, cap));
            }
        }
        match best {
            Some((i, cap)) => {
                if cap >= n {
                    self.hits += 1;
                    WS_HIT.add(1);
                } else {
                    // The buffer is reused but must grow: counts as a miss.
                    self.misses += 1;
                    WS_MISS.add(1);
                }
                self.floats -= cap;
                self.bufs.swap_remove(i)
            }
            None => {
                self.misses += 1;
                WS_MISS.add(1);
                Vec::with_capacity(n)
            }
        }
    }

    fn recycle(&mut self, buf: Vec<f32>) {
        let floats = self.floats + buf.capacity();
        if buf.capacity() == 0
            || self.bufs.len() == MAX_POOLED_BUFFERS
            || floats > MAX_POOLED_BYTES / 4
        {
            return;
        }
        self.floats = floats;
        self.recycled += 1;
        WS_RECYCLED.add(1);
        self.bufs.push(buf);
    }
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

/// Takes a pooled buffer resized to `n` elements, all zero.
pub(crate) fn take_vec_zeroed(n: usize) -> Vec<f32> {
    let mut v = take_vec_raw(n);
    v.clear();
    v.resize(n, 0.0);
    v
}

/// Takes a pooled buffer resized to `n` elements with unspecified (but
/// initialized) contents. Callers must overwrite every element.
pub(crate) fn take_vec_uninit(n: usize) -> Vec<f32> {
    let mut v = take_vec_raw(n);
    // A pooled vec keeps its full length, so truncating or zero-extending
    // only touches the tail — never `set_len` into untouched capacity.
    if v.len() >= n {
        v.truncate(n);
    } else {
        v.resize(n, 0.0);
    }
    v
}

fn take_vec_raw(n: usize) -> Vec<f32> {
    // Best fit would hand an empty tensor (a frozen parameter's gradient)
    // the smallest pooled buffer, to hold at length 0 for its lifetime.
    if n == 0 {
        return Vec::new();
    }
    POOL.try_with(|p| p.borrow_mut().take(n))
        .unwrap_or_else(|_| Vec::with_capacity(n))
}

/// Returns a buffer to the current thread's pool. Called by `Tensor::drop`;
/// safe during thread teardown (the buffer is simply freed then).
pub(crate) fn recycle_vec(buf: Vec<f32>) {
    if buf.capacity() == 0 {
        return;
    }
    // During TLS teardown the pool may already be gone; dropping the buffer
    // normally is the correct fallback.
    let _ = POOL.try_with(|p| p.borrow_mut().recycle(buf));
}

/// Takes a zero-filled tensor of `shape` from the pool.
pub fn take(shape: impl Into<Shape>) -> Tensor {
    let shape = shape.into();
    let data = take_vec_zeroed(shape.len());
    Tensor::from_vec(shape, data)
}

/// Takes a tensor of `shape` with unspecified (but initialized) contents.
/// Every element must be overwritten before it is read.
pub fn take_uninit(shape: impl Into<Shape>) -> Tensor {
    let shape = shape.into();
    let data = take_vec_uninit(shape.len());
    Tensor::from_vec(shape, data)
}

/// Explicitly returns a tensor's buffer to the pool. Equivalent to dropping
/// it; provided so borrow-and-return call sites read symmetrically.
pub fn recycle(tensor: Tensor) {
    drop(tensor);
}

/// Point-in-time pool statistics for the current thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Buffers currently parked in this thread's pool.
    pub pooled_buffers: usize,
    /// Total capacity (elements) parked in this thread's pool.
    pub pooled_floats: usize,
    /// Takes served from the pool since thread start.
    pub hits: u64,
    /// Takes that had to allocate since thread start.
    pub misses: u64,
    /// Buffers accepted back into the pool since thread start.
    pub recycled: u64,
}

/// Statistics for the current thread's pool.
pub fn stats() -> WorkspaceStats {
    POOL.try_with(|p| {
        let p = p.borrow();
        WorkspaceStats {
            pooled_buffers: p.bufs.len(),
            pooled_floats: p.floats,
            hits: p.hits,
            misses: p.misses,
            recycled: p.recycled,
        }
    })
    .unwrap_or(WorkspaceStats {
        pooled_buffers: 0,
        pooled_floats: 0,
        hits: 0,
        misses: 0,
        recycled: 0,
    })
}

/// A pool owned by a caller instead of a thread: code that runs by turns
/// on a thread it does not own — the worker a master serves on its own
/// thread — keeps its scratch apart, as it would on a thread of its own,
/// instead of crowding the owner's pool out and churning the allocator.
#[derive(Default)]
pub struct Workspace(Pool);

impl std::fmt::Debug for Workspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Workspace({} buffers)", self.0.bufs.len())
    }
}

/// Runs `f` with `ws` as the current thread's pool, then puts the
/// thread's own pool back.
pub fn scoped<R>(ws: &mut Workspace, f: impl FnOnce() -> R) -> R {
    let swap = |ws: &mut Workspace| {
        let _ = POOL.try_with(|p| std::mem::swap(&mut *p.borrow_mut(), &mut ws.0));
    };
    swap(ws);
    let out = f();
    swap(ws);
    out
}

/// Frees every buffer parked in the current thread's pool.
pub fn clear() {
    let _ = POOL.try_with(|p| {
        let mut p = p.borrow_mut();
        p.bufs.clear();
        p.floats = 0;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_scoped_workspace_keeps_its_buffers_apart() {
        clear();
        let mut ws = Workspace::default();
        scoped(&mut ws, || drop(take(Shape::from((4, 4)))));
        assert_eq!(stats().pooled_buffers, 0, "the thread's pool got nothing");
        let reused = scoped(&mut ws, || {
            drop(take(Shape::from((2, 8))));
            stats().hits
        });
        assert_eq!(reused, 1, "the scoped pool served its own buffer again");
        assert_eq!(stats().pooled_buffers, 0);
    }

    #[test]
    fn an_empty_tensor_takes_no_pooled_buffer() {
        clear();
        drop(take_uninit((16, 16)));
        let pooled = stats().pooled_buffers;
        let empty = Tensor::from_vec(0usize, Vec::new());
        let copies = [empty.clone(), take(0usize), take_uninit(0usize)];
        assert_eq!(stats().pooled_buffers, pooled, "{copies:?}");
    }

    #[test]
    fn drop_then_take_reuses_capacity() {
        clear();
        let t = take_uninit((16, 16));
        let cap = t.as_slice().len();
        assert_eq!(cap, 256);
        drop(t);
        let before = stats();
        assert!(before.pooled_buffers >= 1);
        let t2 = take((16, 16));
        assert!(t2.as_slice().iter().all(|&x| x == 0.0));
        let after = stats();
        assert!(after.hits > before.hits, "second take should hit the pool");
    }

    #[test]
    fn take_uninit_has_correct_len_only() {
        clear();
        // Park a large buffer, then take a smaller one: length must shrink.
        drop(take((8, 8)));
        let small = take_uninit(5usize);
        assert_eq!(small.len(), 5);
        // And growing past a pooled buffer's length zero-extends the tail.
        let big = take_uninit((32, 32));
        assert_eq!(big.len(), 1024);
    }

    #[test]
    fn oversize_buffers_are_not_pooled() {
        clear();
        let n = MAX_POOLED_BYTES / 4 + 1;
        let t = Tensor::from_vec(n, vec![0.0; n]);
        drop(t);
        assert_eq!(stats().pooled_buffers, 0);
    }

    #[test]
    fn recycling_past_the_budget_keeps_the_pool_within_it() {
        clear();
        let mib = (1 << 20) / 4;
        for _ in 0..MAX_POOLED_BYTES / (1 << 20) + 4 {
            recycle_vec(Vec::with_capacity(mib + 3));
            assert!(stats().pooled_floats * 4 <= MAX_POOLED_BYTES);
        }
        // The room left is still used by a buffer that fits in it.
        let full = stats().pooled_buffers;
        recycle_vec(Vec::with_capacity(16));
        assert_eq!(stats().pooled_buffers, full + 1);
    }

    #[test]
    fn clear_empties_pool() {
        drop(take((4, 4)));
        clear();
        let s = stats();
        assert_eq!(s.pooled_buffers, 0);
        assert_eq!(s.pooled_floats, 0);
    }
}
