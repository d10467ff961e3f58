//! Deterministic std-only parallel compute backend.
//!
//! A persistent, work-stealing-free thread pool shared by every kernel in
//! the workspace. The design goals, in order:
//!
//! 1. **Bitwise determinism.** Work is partitioned over *output rows*, so
//!    each output element is accumulated by exactly one thread in exactly
//!    the order the serial kernel would use. Results are identical at any
//!    thread count, which keeps every parity and gradcheck test in the
//!    repository valid.
//! 2. **Zero dependencies.** Only `std::thread`, `Mutex`, `Condvar` and
//!    atomics; the build environment has no crates.io access.
//! 3. **No oversubscription.** Nested parallel sections (an expert FFN's
//!    matmul inside an already-parallel per-expert dispatch) run serially
//!    inline: every pool thread and every thread currently participating
//!    in a parallel section is marked, and `run` on a marked thread just
//!    executes its chunks on the spot.
//!
//! The pool size comes from the `VELA_THREADS` environment variable,
//! defaulting to [`std::thread::available_parallelism`]. `VELA_THREADS=1`
//! disables threading entirely and is guaranteed to reproduce serial
//! results (which, by goal 1, equal the parallel results anyway).
//!
//! # Example
//! ```
//! use vela_tensor::parallel::{self, ThreadPool};
//!
//! let pool = ThreadPool::new(2);
//! let squares = parallel::with_pool(&pool, || {
//!     parallel::par_map_hinted(4, usize::MAX, |i| i * i)
//! });
//! assert_eq!(squares, vec![0, 1, 4, 9]);
//! ```

use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

use vela_obs::LazyCounter;

/// Cutoff decisions taken by the hinted map helpers: sections that ran
/// inline on the calling thread vs. sections handed to the pool.
static PAR_INLINE: LazyCounter = LazyCounter::new("tensor.par.inline");
static PAR_POOL: LazyCounter = LazyCounter::new("tensor.par.pool");

thread_local! {
    /// True on pool workers and on any thread currently inside
    /// [`ThreadPool::run`]; nested sections run inline.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
    /// Scoped pool override installed by [`with_pool`]; null means the
    /// process-wide default pool.
    static CURRENT_POOL: Cell<*const ThreadPool> = const { Cell::new(std::ptr::null()) };
}

/// A persistent pool of `threads - 1` worker threads; the caller of
/// [`run`](ThreadPool::run) acts as the remaining lane.
#[derive(Debug)]
pub struct ThreadPool {
    shared: Arc<Shared>,
    threads: usize,
    /// Serializes concurrent `run` calls from different OS threads.
    submit: Mutex<()>,
    handles: Vec<thread::JoinHandle<()>>,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<PoolState>,
    start: Condvar,
    done: Condvar,
}

#[derive(Debug)]
struct PoolState {
    generation: u64,
    job: Option<Job>,
    panicked: bool,
    shutdown: bool,
}

/// One broadcast parallel section. `func` borrows from the `run` caller's
/// stack; soundness rests on `run` not returning until `completed ==
/// chunks`, and on late-waking workers never dereferencing `func` without
/// first claiming an in-range chunk (impossible once all chunks are
/// claimed, since `next` only grows).
#[derive(Debug, Clone)]
struct Job {
    func: FnPtr,
    chunks: usize,
    next: Arc<AtomicUsize>,
    completed: Arc<AtomicUsize>,
}

#[derive(Debug, Clone, Copy)]
struct FnPtr(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync` (shared calls from many threads are fine)
// and outlives every dereference per the protocol documented on `Job`.
unsafe impl Send for FnPtr {}
unsafe impl Sync for FnPtr {}

impl ThreadPool {
    /// Creates a pool with `threads` total lanes (the caller counts as
    /// one, so `threads - 1` OS threads are spawned). `threads == 1`
    /// spawns nothing and makes every [`run`](Self::run) serial.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                generation: 0,
                job: None,
                panicked: false,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|i| {
                let shared = shared.clone();
                thread::Builder::new()
                    .name(format!("vela-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            threads,
            submit: Mutex::new(()),
            handles,
        }
    }

    /// Total lanes (workers + the calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes `task(i)` for every `i in 0..chunks`, returning once all
    /// chunks finished. Chunks are claimed from a shared counter (no work
    /// stealing, no per-thread queues); since chunks touch disjoint output
    /// regions in every caller in this workspace, claim order never
    /// affects results.
    ///
    /// Runs inline when the pool has one lane, there is at most one chunk,
    /// or the calling thread is already inside a parallel section.
    ///
    /// # Panics
    /// Propagates a panic if any chunk panicked (on whichever thread ran it).
    pub fn run(&self, chunks: usize, task: &(dyn Fn(usize) + Sync)) {
        if chunks == 0 {
            return;
        }
        if self.threads == 1 || chunks == 1 || IN_PARALLEL.get() {
            for i in 0..chunks {
                task(i);
            }
            return;
        }
        // A panic propagated by a previous `run` poisons this mutex; the
        // guarded slot holds no data, so the poison flag carries no meaning.
        let _submit = self
            .submit
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let next = Arc::new(AtomicUsize::new(0));
        let completed = Arc::new(AtomicUsize::new(0));
        // SAFETY: erases the borrow lifetime from the trait-object pointer.
        // `run` does not return until every chunk completed, so the closure
        // outlives all dereferences (protocol documented on `Job`).
        let func: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute(task as *const (dyn Fn(usize) + Sync + '_)) };
        {
            let mut st = self.shared.state.lock().unwrap();
            debug_assert!(st.job.is_none(), "job slot busy despite submit lock");
            st.generation += 1;
            st.panicked = false;
            st.job = Some(Job {
                func: FnPtr(func),
                chunks,
                next: next.clone(),
                completed: completed.clone(),
            });
            self.shared.start.notify_all();
        }

        // The caller is a lane too: claim and execute chunks like a worker.
        IN_PARALLEL.set(true);
        let caller_result = catch_unwind(AssertUnwindSafe(|| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= chunks {
                break;
            }
            task(i);
            finish_chunk(&self.shared, &completed, chunks);
        }));
        IN_PARALLEL.set(false);
        if caller_result.is_err() {
            // The panicking chunk still counts as attempted, otherwise the
            // completion count never reaches `chunks`.
            finish_chunk(&self.shared, &completed, chunks);
        }

        let mut st = self.shared.state.lock().unwrap();
        while st.job.is_some() {
            st = self.shared.done.wait(st).unwrap();
        }
        let worker_panicked = st.panicked;
        drop(st);
        if let Err(payload) = caller_result {
            resume_unwind(payload);
        }
        if worker_panicked {
            panic!("a parallel task panicked on a pool worker");
        }
    }
}

/// Records one attempted chunk; the thread that attempts the last chunk
/// clears the job slot and wakes the submitter.
fn finish_chunk(shared: &Shared, completed: &AtomicUsize, chunks: usize) {
    if completed.fetch_add(1, Ordering::AcqRel) + 1 == chunks {
        let mut st = shared.state.lock().unwrap();
        st.job = None;
        shared.done.notify_all();
    }
}

fn worker_loop(shared: &Shared) {
    IN_PARALLEL.set(true);
    let mut seen_generation = 0u64;
    loop {
        let (job, generation) = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen_generation {
                    if let Some(job) = st.job.clone() {
                        break (job, st.generation);
                    }
                    // A generation we never saw already completed.
                    seen_generation = st.generation;
                }
                st = shared.start.wait(st).unwrap();
            }
        };
        seen_generation = generation;
        loop {
            let i = job.next.fetch_add(1, Ordering::Relaxed);
            if i >= job.chunks {
                break;
            }
            // SAFETY: `i < chunks`, so the submitter is still blocked in
            // `run` and the borrowed closure is alive.
            let task = unsafe { &*job.func.0 };
            if catch_unwind(AssertUnwindSafe(|| task(i))).is_err() {
                shared.state.lock().unwrap().panicked = true;
            }
            finish_chunk(shared, &job.completed, job.chunks);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.start.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Minimum number of inner-loop operations a parallel chunk should own;
/// kernels split work into chunks of at least this much each.
pub const PAR_MIN_WORK: usize = 16 * 1024;

/// Serial-fallback cutoff (in inner-loop operations, e.g.
/// `rows * k * cols` for a matmul): work totals **below** it run inline on
/// the calling thread and skip the pool entirely. On small or
/// oversubscribed hosts the pool's wake/sync overhead exceeds the kernel
/// time well past this point, which once made the "parallel" MoE dispatch
/// slower than serial. Any value is bit-neutral by the parity
/// contract; retuning it is a kernel change measured with `bench_kernels`
/// on a pool of more than one lane.
pub const PAR_CUTOFF: usize = 1 << 18;

/// Computes `f(i)` for `i in 0..n` and returns the results in index order:
/// inline (no pool, no per-slot bookkeeping) when `total_work` is below
/// [`PAR_CUTOFF`] or there is only one item, otherwise in parallel with each
/// result slot written by exactly one chunk.
pub fn par_map_hinted<R: Send, F: Fn(usize) -> R + Sync>(
    n: usize,
    total_work: usize,
    f: F,
) -> Vec<R> {
    if n <= 1 || total_work < PAR_CUTOFF || current_threads() <= 1 {
        PAR_INLINE.add(1);
        return (0..n).map(f).collect();
    }
    PAR_POOL.add(1);
    let mut results: Vec<Option<R>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    {
        let slots = DisjointSlots::new(&mut results);
        with_current(|pool| {
            pool.run(n, &|i| {
                // SAFETY: chunk `i` is the only writer of slot `i`.
                unsafe { *slots.get(i) = Some(f(i)) };
            });
        });
    }
    results
        .into_iter()
        .map(|r| r.expect("parallel map chunk skipped"))
        .collect()
}

/// Applies `f` to every element of `items` and returns the per-element
/// results in order: inline when `total_work` is below [`PAR_CUTOFF`] or
/// there is only one item, otherwise in parallel with each element visited
/// by exactly one chunk.
pub fn par_map_mut_hinted<T, R, F>(items: &mut [T], total_work: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    if items.len() <= 1 || total_work < PAR_CUTOFF || current_threads() <= 1 {
        PAR_INLINE.add(1);
        return items.iter_mut().enumerate().map(|(i, v)| f(i, v)).collect();
    }
    PAR_POOL.add(1);
    let n = items.len();
    let mut results: Vec<Option<R>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    {
        let slots = DisjointSlots::new(&mut results);
        let targets = DisjointSlots::new(items);
        with_current(|pool| {
            pool.run(n, &|i| {
                // SAFETY: chunk `i` is the only accessor of element `i` of
                // both slices.
                unsafe { *slots.get(i) = Some(f(i, &mut *targets.get(i))) };
            });
        });
    }
    results
        .into_iter()
        .map(|r| r.expect("parallel map chunk skipped"))
        .collect()
}

/// Thread count requested via `VELA_THREADS`, falling back to the host's
/// available parallelism. Invalid or zero values fall back too.
pub fn default_threads() -> usize {
    match std::env::var("VELA_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => available(),
        },
        Err(_) => available(),
    }
}

fn available() -> usize {
    thread::available_parallelism().map_or(1, usize::from)
}

/// The process-wide default pool, created on first use from
/// `VELA_THREADS` / [`std::thread::available_parallelism`].
pub fn global_pool() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| ThreadPool::new(default_threads()))
}

/// Runs `f` with `pool` installed as the calling thread's current pool;
/// every kernel invoked inside uses it instead of the global pool. This is
/// the shared handle threaded through `vela-nn`/`vela-model`, and the lever
/// the parity tests use to compare thread counts in one process.
pub fn with_pool<R>(pool: &ThreadPool, f: impl FnOnce() -> R) -> R {
    let previous = CURRENT_POOL.with(|c| c.replace(pool as *const ThreadPool));
    struct Restore(*const ThreadPool);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT_POOL.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(previous);
    f()
}

/// Calls `g` with the calling thread's current pool (the [`with_pool`]
/// override if one is active, the global pool otherwise).
fn with_current<R>(g: impl FnOnce(&ThreadPool) -> R) -> R {
    let ptr = CURRENT_POOL.with(Cell::get);
    if ptr.is_null() {
        g(global_pool())
    } else {
        // SAFETY: `with_pool` keeps the pool borrowed for the whole scope
        // in which the override is installed.
        g(unsafe { &*ptr })
    }
}

/// Lane count of the calling thread's current pool.
pub fn current_threads() -> usize {
    with_current(ThreadPool::threads)
}

/// Splits `0..rows` into at most `lanes` contiguous ranges of at least
/// `min_rows` rows each and runs `f` on every range in parallel.
///
/// Partitioning is over whole rows, so callers that write disjoint row
/// slices of an output buffer get bitwise-deterministic results at any
/// thread count.
pub fn par_ranges(rows: usize, min_rows: usize, f: impl Fn(Range<usize>) + Sync) {
    if rows == 0 {
        return;
    }
    with_current(|pool| {
        let max_chunks = rows.div_ceil(min_rows.max(1));
        let chunks = pool.threads().min(max_chunks).max(1);
        if chunks == 1 {
            f(0..rows);
            return;
        }
        let per_chunk = rows.div_ceil(chunks);
        pool.run(chunks, &|ci| {
            let start = ci * per_chunk;
            let end = ((ci + 1) * per_chunk).min(rows);
            if start < end {
                f(start..end);
            }
        });
    });
}

/// A raw view over a mutable slice for index-disjoint parallel writes.
///
/// Callers must guarantee that no index is accessed by two chunks; the
/// helpers above satisfy this by assigning chunk `i` exactly slot `i`.
pub(crate) struct DisjointSlots<T> {
    base: *mut T,
    len: usize,
}

// SAFETY: access discipline (disjoint indices, all writes complete before
// the borrow ends) is enforced by the callers.
unsafe impl<T: Send> Send for DisjointSlots<T> {}
unsafe impl<T: Send> Sync for DisjointSlots<T> {}

impl<T> DisjointSlots<T> {
    pub(crate) fn new(slice: &mut [T]) -> Self {
        DisjointSlots {
            base: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    /// Pointer to element `i`.
    ///
    /// # Safety
    /// `i` must be in bounds and not concurrently accessed by any other
    /// chunk.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn get(&self, i: usize) -> *mut T {
        debug_assert!(i < self.len);
        unsafe { self.base.add(i) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn run_executes_every_chunk_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        pool.run(64, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn single_lane_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        let order = Mutex::new(Vec::new());
        pool.run(5, &|i| order.lock().unwrap().push(i));
        assert_eq!(order.into_inner().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pool_is_reusable_across_many_runs() {
        let pool = ThreadPool::new(3);
        for round in 0..50 {
            let total = AtomicUsize::new(0);
            pool.run(7, &|i| {
                total.fetch_add(i + 1, Ordering::Relaxed);
            });
            assert_eq!(total.load(Ordering::Relaxed), 28, "round {round}");
        }
    }

    #[test]
    fn nested_run_executes_inline_without_deadlock() {
        let pool = ThreadPool::new(2);
        let total = AtomicUsize::new(0);
        pool.run(4, &|_| {
            // Nested section: must run inline on whichever thread is here.
            with_current(|p| {
                p.run(3, &|_| {
                    total.fetch_add(1, Ordering::Relaxed);
                })
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn par_map_preserves_index_order() {
        let pool = ThreadPool::new(4);
        let out = with_pool(&pool, || par_map_hinted(100, usize::MAX, |i| i * 3));
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_mut_gives_each_element_to_one_chunk() {
        let pool = ThreadPool::new(4);
        let mut items = vec![0u64; 32];
        let doubles = with_pool(&pool, || {
            par_map_mut_hinted(&mut items, usize::MAX, |i, v| {
                *v = i as u64 + 1;
                *v * 2
            })
        });
        assert_eq!(items, (1..=32u64).collect::<Vec<_>>());
        assert_eq!(doubles, (1..=32u64).map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_ranges_covers_rows_exactly_once() {
        let pool = ThreadPool::new(3);
        let covered: Vec<AtomicU32> = (0..97).map(|_| AtomicU32::new(0)).collect();
        with_pool(&pool, || {
            par_ranges(97, 4, |range| {
                for i in range {
                    covered[i].fetch_add(1, Ordering::Relaxed);
                }
            })
        });
        assert!(covered.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn with_pool_overrides_and_restores() {
        let pool = ThreadPool::new(7);
        let outer = current_threads();
        let inner = with_pool(&pool, current_threads);
        assert_eq!(inner, 7);
        assert_eq!(current_threads(), outer);
    }

    #[test]
    fn panics_propagate_to_the_submitter() {
        let pool = ThreadPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                if i == 3 {
                    panic!("chunk 3 exploded");
                }
            });
        }));
        assert!(result.is_err());
        // Pool must stay usable after a panicked section.
        let total = AtomicUsize::new(0);
        pool.run(4, &|_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn zero_chunks_is_a_no_op() {
        let pool = ThreadPool::new(2);
        pool.run(0, &|_| panic!("must not run"));
    }

    #[test]
    fn env_default_is_at_least_one() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn hinted_maps_match_plain_maps() {
        let pool = ThreadPool::new(3);
        with_pool(&pool, || {
            // Below any sensible cutoff: serial path.
            let small = par_map_hinted(8, 10, |i| i * 2);
            assert_eq!(small, (0..8).map(|i| i * 2).collect::<Vec<_>>());
            // Above the cutoff: pool path, same results.
            let big = par_map_hinted(8, usize::MAX, |i| i * 2);
            assert_eq!(big, small);
            let mut items = vec![0usize; 8];
            let r1 = par_map_mut_hinted(&mut items, 10, |i, v| {
                *v = i;
                i
            });
            let mut items2 = vec![0usize; 8];
            let r2 = par_map_mut_hinted(&mut items2, usize::MAX, |i, v| {
                *v = i;
                i
            });
            assert_eq!(items, items2);
            assert_eq!(r1, r2);
        });
    }
}
