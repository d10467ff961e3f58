//! The reference work every end-to-end timing is scaled by.
//!
//! The host is a small shared VM whose speed moves by a third for minutes
//! at a time and halves for a minute or two now and then, with no change to
//! the program. A timing taken on it says as much about the neighbours as
//! about the program, so each one is reported relative to a fixed piece of
//! arithmetic timed beside it: `measured × nominal burst / burst`. The
//! arithmetic is this file's own loop, not the program's kernels, so a
//! change to the program cannot move it.
//!
//! A burst has the shape of a step: the work once on the calling thread,
//! as the master computes alone, then once on each of two helper threads
//! at once, as it waits for two workers. Step times are scaled by the whole
//! burst; the set-up, which runs on one thread, by the first half alone.

use std::hint::black_box;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::stats::median;

/// Seconds the two halves of a burst take on the host the benchmark was
/// written on when nothing else runs there: the unit scaled timings are
/// expressed in.
pub const NOMINAL: Burst = Burst {
    serial_s: 1.4e-3,
    parallel_s: 2.0e-3,
};

/// Wall seconds of the two halves of one burst.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burst {
    /// The work on the calling thread.
    pub serial_s: f64,
    /// The same work on each of two helper threads at once.
    pub parallel_s: f64,
}

impl Burst {
    pub fn total_s(&self) -> f64 {
        self.serial_s + self.parallel_s
    }
}

const M: usize = 32;
const K: usize = 64;
const N: usize = 256;
const REPS: usize = 24;

/// `REPS` products `[M×K]·[K×N]` accumulated into one output: 25 MFLOP
/// over 100 KiB, cache-resident like one expert projection's tile.
struct Work {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl Work {
    fn new() -> Self {
        Work {
            a: (0..M * K).map(|i| (i % 7) as f32 * 0.25 - 0.5).collect(),
            b: (0..K * N).map(|i| (i % 5) as f32 * 0.125 - 0.25).collect(),
            c: vec![0.0; M * N],
        }
    }

    fn run(&mut self) {
        self.c.fill(0.0);
        for _ in 0..REPS {
            for (i, row) in self.c.chunks_exact_mut(N).enumerate() {
                for p in 0..K {
                    let aip = self.a[i * K + p];
                    for (c, b) in row.iter_mut().zip(&self.b[p * N..(p + 1) * N]) {
                        *c += aip * b;
                    }
                }
            }
            black_box(&mut self.c);
        }
    }
}

/// A thread that runs the work once per `true` it is sent.
struct Helper {
    go: SyncSender<bool>,
    done: Receiver<()>,
    thread: Option<JoinHandle<()>>,
}

impl Helper {
    fn spawn() -> Self {
        // Bounded channels: a burst allocates nothing, so it does not show
        // in `tensor.allocs_per_step`.
        let (go, wait) = sync_channel::<bool>(1);
        let (tell, done) = sync_channel::<()>(1);
        let thread = std::thread::spawn(move || {
            let mut work = Work::new();
            while let Ok(true) = wait.recv() {
                work.run();
                if tell.send(()).is_err() {
                    break;
                }
            }
        });
        Helper {
            go,
            done,
            thread: Some(thread),
        }
    }
}

/// The calling thread's copy of the work and the two helper threads.
pub struct Reference {
    own: Work,
    helpers: [Helper; 2],
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            own: Work::new(),
            helpers: [Helper::spawn(), Helper::spawn()],
        }
    }

    /// Runs one burst.
    pub fn burst(&mut self) -> Burst {
        let clock = Instant::now();
        self.own.run();
        let serial_s = clock.elapsed().as_secs_f64();
        for h in &self.helpers {
            h.go.send(true).expect("reference helper is alive");
        }
        for h in &self.helpers {
            h.done.recv().expect("reference helper is alive");
        }
        Burst {
            serial_s,
            parallel_s: clock.elapsed().as_secs_f64() - serial_s,
        }
    }

    /// Appends `n` bursts to `into`.
    pub fn bursts(&mut self, n: usize, into: &mut Vec<Burst>) {
        into.extend((0..n).map(|_| self.burst()));
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        for h in &mut self.helpers {
            // A helper that panicked has already hung up; there is nothing
            // to stop, and a destructor must not panic.
            let _ = h.go.send(false);
            if let Some(thread) = h.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

/// Median of `part` over `bursts`.
///
/// # Panics
/// Panics when `bursts` is empty.
pub fn median_of(bursts: &[Burst], part: fn(&Burst) -> f64) -> f64 {
    median(&bursts.iter().map(part).collect::<Vec<f64>>())
}

/// The factor that turns a time measured beside `bursts` into the time it
/// would have taken had `part` of a burst taken what it does in [`NOMINAL`].
///
/// # Panics
/// Panics when `bursts` is empty.
pub fn scale(bursts: &[Burst], part: fn(&Burst) -> f64) -> f64 {
    part(&NOMINAL) / median_of(bursts, part)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_burst_takes_time_and_helpers_stop_on_drop() {
        let mut reference = Reference::new();
        let mut seen = Vec::new();
        reference.bursts(3, &mut seen);
        assert_eq!(seen.len(), 3);
        assert!(seen
            .iter()
            .all(|b| b.serial_s > 0.0 && b.parallel_s > 0.0 && b.total_s().is_finite()));
        // Returns only once both helpers have been joined.
        drop(reference);
    }

    #[test]
    fn the_work_is_the_same_every_time() {
        let mut work = Work::new();
        work.run();
        let first = work.c.clone();
        work.run();
        assert_eq!(first, work.c);
        assert!(first.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn a_host_twice_as_slow_scales_to_the_same_time() {
        let burst = |serial_s, parallel_s| Burst {
            serial_s,
            parallel_s,
        };
        let bursts = [
            burst(1.5e-3, 2.5e-3),
            burst(1.4e-3, 2.1e-3),
            burst(1.6e-3, 2.9e-3),
        ];
        let slow = bursts.map(|b| burst(b.serial_s * 2.0, b.parallel_s * 2.0));
        for part in [Burst::total_s, |b: &Burst| b.serial_s] {
            let a = 0.060 * scale(&bursts, part);
            let b = 0.120 * scale(&slow, part);
            assert!((a - b).abs() < 1e-12);
            assert!((scale(&[NOMINAL], part) - 1.0).abs() < 1e-12);
        }
    }
}
