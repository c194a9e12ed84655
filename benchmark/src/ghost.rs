//! Synthetic inputs of the sync workloads and their scalar reference.
//!
//! A ghost device holds a flat parameter vector and no model, so a sync
//! round is measured without a training step in the way. To keep the
//! rounds from degenerating into moving the same bytes around, each
//! device nudges a short prefix of its vector after every round; the
//! rest of the vector is one repeated value. That makes the whole
//! vector checkable from [`PREFIX`] + 1 numbers per device, which
//! [`Replay`] tracks by applying the paper's arithmetic — ring mean
//! over the selected devices, β-blend on the unselected — in plain
//! scalar code that shares nothing with the repository.

/// Elements of the vector that change between rounds.
pub const PREFIX: usize = 16;

fn mix(mut x: u64) -> u64 {
    // splitmix64
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A value in [0, 1) that depends on all four arguments.
fn unit(seed: u64, a: u64, b: u64, c: u64) -> f32 {
    let h = mix(mix(mix(mix(seed) ^ a) ^ b) ^ c);
    (h >> 40) as f32 / (1u64 << 24) as f32
}

/// Device `device`'s starting vector of `len` elements.
pub fn init(seed: u64, device: usize, len: usize) -> Vec<f32> {
    let mut v = vec![1.0 + unit(seed, device as u64, u64::MAX, 0); len];
    for (j, p) in v.iter_mut().take(PREFIX).enumerate() {
        *p = 1.0 + unit(seed, device as u64, j as u64, 0);
    }
    v
}

/// The nudge a device applies to its prefix as its `step`-th local step.
pub fn perturb(prefix: &mut [f32], seed: u64, device: usize, step: u64) {
    for (j, p) in prefix.iter_mut().take(PREFIX).enumerate() {
        *p += 0.01 * unit(seed, device as u64, j as u64, step);
    }
}

/// One round's synchronization plan, the benchmark playing coordinator.
#[derive(Debug, Clone)]
pub struct Plan {
    pub round: u32,
    /// Selected devices in ring order; the first initiates the reduce.
    pub ring: Vec<u32>,
    pub broadcaster: u32,
    /// Devices that receive the merged model and blend it.
    pub unselected: Vec<u32>,
}

/// Seeded plans: each round a fresh random ring over `n_selected` of
/// `k` devices, a random broadcaster among them, the rest unselected.
pub struct PlanGen {
    seed: u64,
    k: usize,
    n_selected: usize,
    next_round: u32,
}

impl PlanGen {
    pub fn new(seed: u64, k: usize, n_selected: usize) -> Self {
        PlanGen {
            seed,
            k,
            n_selected,
            next_round: 1,
        }
    }

    pub fn next_plan(&mut self) -> Plan {
        let round = self.next_round;
        self.next_round += 1;
        let mut order: Vec<u32> = (0..self.k as u32).collect();
        // Fisher–Yates driven by the hash.
        for i in (1..order.len()).rev() {
            let j = (mix(self.seed ^ mix(u64::from(round)) ^ i as u64) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let unselected = order.split_off(self.n_selected);
        let pick = mix(self.seed ^ mix(u64::from(round)) ^ 0xB0) as usize % order.len();
        Plan {
            round,
            broadcaster: order[pick],
            ring: order,
            unselected,
        }
    }
}

/// Scalar replay of the schedule: per device the prefix and the
/// repeated tail value.
pub struct Replay {
    seed: u64,
    beta: f32,
    state: Vec<[f32; PREFIX + 1]>,
    steps: Vec<u64>,
}

impl Replay {
    pub fn new(seed: u64, k: usize, beta: f32) -> Self {
        let state = (0..k)
            .map(|d| {
                let v = init(seed, d, PREFIX + 1);
                let mut s = [0.0; PREFIX + 1];
                s.copy_from_slice(&v);
                s
            })
            .collect();
        Replay {
            seed,
            beta,
            state,
            steps: vec![0; k],
        }
    }

    /// Applies one completed round.
    pub fn apply(&mut self, plan: &Plan) {
        let n = plan.ring.len();
        let mut mean = self.state[plan.ring[0] as usize];
        for &m in &plan.ring[1..] {
            for (acc, p) in mean.iter_mut().zip(&self.state[m as usize]) {
                *acc += *p;
            }
        }
        let scale = 1.0 / n as f32;
        for acc in &mut mean {
            *acc *= scale;
        }
        for &m in &plan.ring {
            self.state[m as usize] = mean;
        }
        for &u in &plan.unselected {
            for (l, inc) in self.state[u as usize].iter_mut().zip(&mean) {
                *l = self.beta * *inc + (1.0 - self.beta) * *l;
            }
        }
        for &d in plan.ring.iter().chain(&plan.unselected) {
            let d = d as usize;
            self.steps[d] += 1;
            perturb(&mut self.state[d][..PREFIX], self.seed, d, self.steps[d]);
        }
    }

    /// Fraction of `params`' elements that match the replay within 1e-4
    /// relative (1.0 when the device's final vector is right).
    pub fn match_fraction(&self, device: usize, params: &[f32]) -> f64 {
        if params.len() < PREFIX + 1 {
            return 0.0;
        }
        let want = &self.state[device];
        let close = |got: f32, want: f32| (got - want).abs() <= 1e-4 * want.abs().max(1e-6);
        let ok = params
            .iter()
            .enumerate()
            .filter(|&(i, &got)| close(got, want[i.min(PREFIX)]))
            .count();
        ok as f64 / params.len() as f64
    }
}
