//! In-run calibration probes.
//!
//! The host's raw speed drifts by up to a quarter over tens of minutes,
//! so a wall-clock median cannot be compared between two runs. Each
//! probe is a fixed piece of work that shares no code with the
//! repository; it is run between the samples of a workload, and the
//! timing metrics are ratios to the probe's median, so drift that hits
//! both cancels. `mm` stands for compute-bound work (the training
//! workloads), `copy` for the data path (the sync workloads, which move
//! 4 MiB frames and touch them a few times per hop).

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

const MM_M: usize = 64;
const MM_K: usize = 128;
const MM_N: usize = 64;
const MM_REPS: usize = 48;
const COPY_LEN: usize = 1 << 20; // f32 elements = 4 MiB
const COPY_REPS: usize = 4;

pub struct Probe {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    src: Vec<f32>,
    dst: Vec<f32>,
    pub mm_s: Vec<f64>,
    pub copy_s: Vec<f64>,
}

impl Probe {
    pub fn new() -> Self {
        Probe {
            a: (0..MM_M * MM_K).map(|i| (i % 7) as f32 * 0.25).collect(),
            b: (0..MM_K * MM_N).map(|i| (i % 5) as f32 * 0.5).collect(),
            c: vec![0.0; MM_M * MM_N],
            src: (0..COPY_LEN).map(|i| (i % 13) as f32).collect(),
            dst: vec![0.0; COPY_LEN],
            mm_s: Vec::new(),
            copy_s: Vec::new(),
        }
    }

    /// 48× naive 64×128×64 f32 matmul, in i-k-j order: every access is
    /// contiguous, so the time does not depend on where the three
    /// matrices happen to sit relative to each other in the cache (the
    /// column-strided i-j-k order ran 1.6× slower in some processes
    /// than in others for exactly that reason).
    pub fn mm(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..MM_REPS {
            self.c.fill(0.0);
            for i in 0..MM_M {
                let c_row = &mut self.c[i * MM_N..(i + 1) * MM_N];
                for k in 0..MM_K {
                    let a_ik = self.a[i * MM_K + k];
                    let b_row = &self.b[k * MM_N..(k + 1) * MM_N];
                    for (c, b) in c_row.iter_mut().zip(b_row) {
                        *c += a_ik * *b;
                    }
                }
            }
            black_box(&mut self.c);
        }
        let dt = t.elapsed().as_secs_f64();
        self.mm_s.push(dt);
        dt
    }

    /// 4× `copy_from_slice` of 4 MiB plus one axpy pass over it.
    pub fn copy(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..COPY_REPS {
            self.dst.copy_from_slice(&self.src);
            black_box(&mut self.dst);
        }
        for (d, s) in self.dst.iter_mut().zip(&self.src) {
            *d += 0.5 * *s;
        }
        black_box(&mut self.dst);
        let dt = t.elapsed().as_secs_f64();
        self.copy_s.push(dt);
        dt
    }

    /// Both probes a few times, results discarded: page-faults the
    /// buffers in and lets the clocks settle. Part of set-up.
    pub fn warm_up(&mut self) {
        for _ in 0..5 {
            self.mm();
            self.copy();
        }
        self.mm_s.clear();
        self.copy_s.clear();
    }

    pub fn mm_median_s(&self) -> f64 {
        median(&self.mm_s)
    }

    pub fn copy_median_s(&self) -> f64 {
        median(&self.copy_s)
    }
}
