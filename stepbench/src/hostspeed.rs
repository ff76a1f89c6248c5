//! Host-speed correction for the benchmark's timings.
//!
//! On a shared host the two vCPUs the benchmark gets run at different
//! speeds from second to second: a neighbour on the same physical core or
//! memory traffic slows every instruction by up to half for tens of
//! seconds at a time. Raw wall times then measure the neighbours more than
//! the program.
//!
//! [`HostClock`] measures the host alongside the program: between the
//! operations the benchmark times it runs a fixed reference computation,
//! at most once every [`SAMPLE_EVERY_S`]. The reference is the
//! benchmark's own code and never changes, so its time tracks only the
//! host. Each timing is scaled by `(REF_NOMINAL_MS / r)^e`, where `r` is
//! the median reference time within [`WINDOW_S`] of it and `e` is the
//! workload's elasticity: the result is the time the operation would take
//! on the host at the reference's nominal speed, and a change to the
//! program moves it as it moves the raw time.
//!
//! The elasticity is how strongly a workload follows the reference: when a
//! host went from busy neighbours to idle ones, the reference ran 1.8 to
//! 2.2 times as fast, the training steps sped up by that to the power 0.8
//! and the tuning service's steps by that to the power 0.45.

use std::hint::black_box;
use std::time::Instant;

/// Side of the square matrices the reference multiplies.
const N: usize = 96;
/// Floats the reference streams through once per call (1 MiB).
const STREAM: usize = 1 << 18;
/// The reference time every timing is scaled to, in milliseconds. On a
/// 2-vCPU Xeon at 2.1 GHz the reference takes 0.15 to 0.35 ms, depending
/// on what its neighbours run.
pub const REF_NOMINAL_MS: f64 = 0.25;
/// Least time between two reference samples, in seconds.
pub const SAMPLE_EVERY_S: f64 = 0.02;
/// Half-width of the window of reference samples a timing is scaled by,
/// in seconds.
pub const WINDOW_S: f64 = 1.0;

/// The reference: a small matrix product and a streaming pass, the two
/// kinds of work the workloads do.
struct Kernel {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    stream: Vec<f32>,
}

impl Kernel {
    fn new() -> Kernel {
        let fill = |n: usize, k: f32| (0..n).map(|i| ((i % 17) as f32 - 8.0) * k).collect();
        Kernel {
            a: fill(N * N, 0.01),
            b: fill(N * N, 0.02),
            c: vec![0.0; N * N],
            stream: fill(STREAM, 0.001),
        }
    }

    fn run(&mut self) {
        let (a, b, c) = (black_box(&self.a), black_box(&self.b), &mut self.c);
        for i in 0..N {
            let row = &mut c[i * N..(i + 1) * N];
            row.fill(0.0);
            for k in 0..N {
                let aik = a[i * N + k];
                for (cj, bj) in row.iter_mut().zip(&b[k * N..(k + 1) * N]) {
                    *cj += aik * bj;
                }
            }
        }
        let scale = 1.0 + c[N + 1] * 1e-9;
        for x in self.stream.iter_mut() {
            *x = *x * scale + 1e-7;
        }
        black_box(&self.stream);
    }
}

/// A clock that samples the host's speed while the benchmark runs.
pub struct HostClock {
    origin: Instant,
    elasticity: f64,
    kernel: Kernel,
    last: Option<Instant>,
    /// `(seconds since origin, reference ms)`, in time order.
    samples: Vec<(f64, f64)>,
}

impl HostClock {
    pub fn new(elasticity: f64) -> HostClock {
        HostClock {
            origin: Instant::now(),
            elasticity,
            kernel: Kernel::new(),
            last: None,
            samples: Vec::new(),
        }
    }

    /// Seconds since the clock was made.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Samples the reference unless it ran less than [`SAMPLE_EVERY_S`]
    /// ago. Call it between timed operations, never inside one.
    pub fn tick(&mut self) {
        if self
            .last
            .is_some_and(|t| t.elapsed().as_secs_f64() < SAMPLE_EVERY_S)
        {
            return;
        }
        let t0 = Instant::now();
        self.kernel.run();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.samples.push((self.now(), ms));
        self.last = Some(Instant::now());
    }

    /// The host's speed over the whole run relative to the nominal one:
    /// `REF_NOMINAL_MS` over the median reference time.
    pub fn speed(&self) -> f64 {
        let ms: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        REF_NOMINAL_MS / crate::spans::median(&ms)
    }

    /// The factor a timing ending at `at` is scaled by: `REF_NOMINAL_MS`
    /// over the median reference time within [`WINDOW_S`] of it (of the
    /// nearest sample when none lies that close), to the power of the
    /// clock's elasticity.
    pub fn factor(&self, at: f64) -> f64 {
        let lo = self.samples.partition_point(|s| s.0 < at - WINDOW_S);
        let hi = self.samples.partition_point(|s| s.0 <= at + WINDOW_S);
        let mut near: Vec<f64> = self.samples[lo..hi].iter().map(|s| s.1).collect();
        if near.is_empty() {
            let i = lo.min(self.samples.len().saturating_sub(1));
            near.extend(self.samples.get(i).map(|s| s.1));
        }
        match crate::spans::median(&near) {
            r if r > 0.0 => (REF_NOMINAL_MS / r).powf(self.elasticity),
            _ => 1.0,
        }
    }
}

/// Operation times taken under a [`HostClock`]: each with the clock time
/// it ended at.
#[derive(Default)]
pub struct Timings {
    pub ms: Vec<f64>,
    at: Vec<f64>,
}

impl Timings {
    /// Records an operation of `ms` milliseconds that just ended.
    pub fn push(&mut self, clock: &HostClock, ms: f64) {
        self.ms.push(ms);
        self.at.push(clock.now());
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    /// The timings from the `from`-th on, scaled to the host's nominal
    /// speed.
    pub fn scaled(&self, clock: &HostClock, from: usize) -> Vec<f64> {
        self.ms[from..]
            .iter()
            .zip(&self.at[from..])
            .map(|(ms, at)| ms * clock.factor(*at))
            .collect()
    }
}
