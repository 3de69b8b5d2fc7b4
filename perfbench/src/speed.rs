//! Host-speed gauge.
//!
//! The benchmark shares its host with other work, which slows it by up to
//! about 1.4×, in phases from a second to minutes long; a run of a few
//! tens of seconds can fall wholly inside a slow phase. Throughout each
//! episode — between arrival groups, between deployments — a run times a
//! short fixed computation that does not touch the library, and scales
//! the episode's timings by the computation's reference time over its
//! mean measured time, so that they read as on the reference host at its
//! typical speed. The computation mixes what the program spends its time on: a
//! binary heap (the event queue), dense floating-point rows (the simplex)
//! and many small allocations.

use crate::trace::Tracer;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The computation's typical time on the reference host, a 2-CPU Intel
/// Xeon virtual machine shared with other work.
pub const REFERENCE: Duration = Duration::from_micros(420);

/// The samples of one episode.
#[derive(Debug, Default)]
pub struct Gauge {
    total: Duration,
    samples: u32,
}

impl Gauge {
    /// Times the computation once, under a `bench.probe` span.
    pub fn sample(&mut self, tracer: &mut Tracer) {
        let span = tracer.open("bench.probe", None);
        let t0 = Instant::now();
        black_box(work());
        self.total += t0.elapsed();
        self.samples += 1;
        tracer.close(span);
    }

    /// The factor from host time to reference time over the samples
    /// taken since the last call.
    pub fn take_factor(&mut self) -> f64 {
        let taken = std::mem::take(self);
        REFERENCE.as_secs_f64() * f64::from(taken.samples) / taken.total.as_secs_f64()
    }
}

fn work() -> u64 {
    // Event queue: xorshift keys pushed, a third of them popped.
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut heap = BinaryHeap::new();
    for _ in 0..5_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(x % 1_000_003);
        if x.is_multiple_of(3) {
            heap.pop();
        }
    }
    // Dense rows: power iteration on a fixed 80 × 80 matrix.
    let n = 80;
    let a: Vec<f64> = (0..n * n)
        .map(|i| ((i * 7919) % 1009) as f64 / 1009.0)
        .collect();
    let mut v: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
    for _ in 0..20 {
        let w: Vec<f64> = a
            .chunks_exact(n)
            .map(|row| row.iter().zip(&v).map(|(p, q)| p * q).sum())
            .collect();
        let norm = w.iter().map(|t: &f64| t.abs()).sum::<f64>().max(1e-9);
        v = w.into_iter().map(|t| t / norm).collect();
    }
    // Small allocations of mixed sizes, half of them freed at once.
    let mut boxes: Vec<Vec<u32>> = Vec::new();
    for i in 0..1_250u32 {
        boxes.push(vec![i; (i % 17) as usize + 1]);
        if i % 2 == 0 {
            boxes.swap_remove((i as usize * 31) % boxes.len());
        }
    }
    heap.len() as u64 + v[0].to_bits() + boxes.len() as u64
}
