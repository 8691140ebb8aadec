//! Host-speed reference.
//!
//! The benchmark runs on shared machines whose speed drifts by tens of
//! percent within seconds as other tenants load the cores. Every
//! host-time metric is therefore reported at a nominal host speed:
//! right next to each measured piece of work, the benchmark times a
//! fixed reference kernel on as many threads as the work keeps busy,
//! and scales the work's time by how much slower than nominal that
//! kernel ran. The kernel lives in this file, so no change to the
//! repository's crates can move it.
//!
//! The kernel mixes the two kinds of work the workloads spend their
//! time in: vector multiply-adds over L1-resident f32 tiles (the
//! executor) and hashing plus small allocations (planning, the event
//! engine). On a 2-vCPU host, planning time divided by the adjacent
//! kernel time varied 1–4% between 10 s windows while the raw planning
//! time varied 36%.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Reference-kernel time on an idle 2-vCPU host, seconds. Only ratios
/// matter: another constant would rescale every commit's numbers alike.
const NOMINAL_S: f64 = 5.0e-3;
const N: usize = 48;
const FMA_REPS: usize = 240;
const HASH_INSERTS: u64 = 100_000;

fn kernel() -> u64 {
    let a = vec![0.5f32; N * N];
    let b = vec![0.25f32; N * N];
    let mut c = vec![0.0f32; N * N];
    for _ in 0..FMA_REPS {
        for (arow, crow) in a.chunks_exact(N).zip(c.chunks_exact_mut(N)) {
            for (&av, brow) in arow.iter().zip(b.chunks_exact(N)) {
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += av * bv;
                }
            }
        }
        black_box(&mut c);
    }
    let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut x = 7u64;
    for i in 0..HASH_INSERTS {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        buckets.entry(x % 4096).or_default().push(i as u32);
    }
    black_box(buckets.len() as u64 + c[7].to_bits() as u64)
}

/// Time one reference sample for work that keeps `threads` threads
/// busy: the kernel on that many threads at once, so a slowed second
/// vCPU slows the sample as it slows two-thread work. Against a
/// two-thread executor over 240 s, this sample left 0.8–4% of spread
/// between 15 s windows where the mean of a one- and a two-thread
/// sample left 1.7–5%.
///
/// The kernel's own allocations stay out of the heap metric.
pub fn reference(threads: usize) -> f64 {
    crate::heap::uncounted(|| {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            let others: Vec<_> = (1..threads).map(|_| s.spawn(kernel)).collect();
            black_box(kernel());
            for h in others {
                h.join().expect("reference kernel thread");
            }
        });
        t0.elapsed().as_secs_f64()
    })
}

/// `secs` of work, timed next to a reference sample that took `ref_s`,
/// rescaled to the nominal host speed.
pub fn at_nominal(secs: f64, ref_s: f64) -> f64 {
    secs * NOMINAL_S / ref_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_scaling_cancels_a_uniform_slowdown() {
        // Work and kernel both twice as slow: the nominal time holds.
        assert_eq!(at_nominal(0.2, 2.0 * NOMINAL_S), at_nominal(0.1, NOMINAL_S));
        assert_eq!(at_nominal(0.1, NOMINAL_S), 0.1);
        // `reference` itself is not called here: it pauses the heap
        // counter, which the heap test on another thread relies on.
        assert_eq!(kernel(), kernel(), "the reference work is deterministic");
    }
}
