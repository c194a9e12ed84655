//! Deterministic persistent-pool chunk-parallel compute substrate.
//!
//! HADFL's premise is that per-device computing power sets the local
//! epoch budget `E_i`, yet a substrate whose kernels leave every core
//! but one idle misrepresents exactly the quantity the algorithm
//! schedules around. This crate makes the hot loops scale with cores
//! *without* giving up the bit-exact determinism the protocol model
//! checker and the byte-identical telemetry tests depend on.
//!
//! The contract (DESIGN.md §10):
//!
//! 1. **Fixed chunk boundaries.** Work is split into chunks whose
//!    boundaries depend only on the problem size — never on the thread
//!    count. A worker pool claims chunk *indices* from an atomic
//!    counter, so which thread computes a chunk varies run to run, but
//!    what each chunk computes never does.
//! 2. **Disjoint writes or ordered combines.** Elementwise kernels
//!    write disjoint output chunks (any schedule gives the same bytes);
//!    reductions fold per-chunk partials in ascending chunk order on
//!    the calling thread.
//!
//! Together these make every kernel's output a pure function of its
//! inputs and the fixed chunk policy: running under `HADFL_THREADS=1`
//! and `HADFL_THREADS=64` produces bit-identical floats.
//!
//! # Execution model
//!
//! Parallel dispatch goes through a **persistent worker pool**: worker
//! threads are spawned lazily on the first parallel dispatch and then
//! *parked* (`std::thread::park`) between dispatches. A dispatch
//! publishes a job (a raw fat pointer to the caller's stack closure
//! plus the shared claim counter) into the pool's job slot, bumps an
//! atomic **epoch** with `Release` ordering, and unparks the workers;
//! each worker observes the new epoch with `Acquire`, takes a
//! participation ticket if the job still wants hands, drains chunk
//! indices, and checks in by decrementing a countdown. The dispatcher
//! drains alongside the workers and parks until the countdown reaches
//! zero, which both joins the dispatch and keeps the borrowed job
//! alive until no worker can touch it. Worker panics are caught,
//! carried across the handoff, and resumed on the dispatching thread,
//! so a panicking chunk still propagates to the caller — and the pool
//! survives to serve the next dispatch.
//!
//! # Thresholds (measured autotune)
//!
//! Whether a region parallelizes at all is decided by [`plan_for`]
//! against a per-[`OpClass`] work threshold. The thresholds come from
//! a one-shot per-process calibration: the pool's dispatch overhead is
//! probed with no-op dispatches and divided by a measured per-element
//! serial FMA cost (an eight-accumulator sweep mirroring the
//! throughput of the slice-of-8 kernels), so the cutoff is "parallel
//! only when the serial time would dominate the dispatch cost".
//!
//! Thread count resolution: the [`with_threads`] thread-local override
//! (which still respects the thresholds) or [`with_threads_forced`]
//! (which bypasses them — determinism tests), else the `HADFL_THREADS`
//! environment variable, else [`std::thread::available_parallelism`].
//!
//! # Example
//!
//! ```
//! use hadfl_par::{plan, with_threads};
//!
//! let mut data = vec![1.0f32; 10_000];
//! // Same bytes at any thread count: chunk boundaries are fixed.
//! with_threads(4, || {
//!     plan(data.len() as u64).chunks_mut(&mut data, 4096, |_idx, chunk| {
//!         for v in chunk {
//!             *v *= 2.0;
//!         }
//!     });
//! });
//! assert!(data.iter().all(|&v| v == 2.0));
//! ```

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::{JoinHandle, Thread};
use std::time::Instant;

use hadfl_prof::PoolRegion;

/// No [`plan_for`] decision calibrates for regions smaller than this:
/// they are serial unconditionally (unless forced), so processes that
/// only ever run tiny kernels never pay the one-shot probe.
pub const MIN_AUTOTUNE_WORK: u64 = 16 * 1024;

/// Ceiling on spawned pool workers, regardless of overrides.
const MAX_POOL_WORKERS: usize = 15;

static MAX_THREADS: OnceLock<usize> = OnceLock::new();
static POOL: OnceLock<Mutex<WorkerPool>> = OnceLock::new();
static CALIBRATION: OnceLock<Calibration> = OnceLock::new();

thread_local! {
    /// Test override installed by [`with_threads`] / [`with_threads_forced`].
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set by [`with_threads_forced`]: bypass the work thresholds.
    static FORCE: Cell<bool> = const { Cell::new(false) };
    /// Set while running as a pool worker (or while the dispatcher
    /// drains its own chunks): nested kernels stay serial instead of
    /// multiplying thread counts or re-entering the pool.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The process-wide worker budget: `HADFL_THREADS` if set to a
/// positive integer, else the machine's available parallelism.
/// Resolved once and cached.
pub fn max_threads() -> usize {
    *MAX_THREADS.get_or_init(|| {
        std::env::var("HADFL_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// The thread count parallel regions started from this thread will
/// use: the [`with_threads`] override if one is active, else
/// [`max_threads`]. Inside a pool worker this is always 1 (no nested
/// fan-out).
pub fn current_threads() -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    OVERRIDE.with(Cell::get).unwrap_or_else(max_threads)
}

fn with_override<R>(n: usize, force: bool, f: impl FnOnce() -> R) -> R {
    struct Restore {
        prev: Option<usize>,
        prev_force: bool,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            let (prev, prev_force) = (self.prev, self.prev_force);
            OVERRIDE.with(|o| o.set(prev));
            FORCE.with(|x| x.set(prev_force));
        }
    }
    let _restore = Restore {
        prev: OVERRIDE.with(|o| o.replace(Some(n.max(1)))),
        prev_force: FORCE.with(|x| x.replace(force)),
    };
    f()
}

/// Runs `f` with the calling thread's parallelism pinned to `n`,
/// restoring the previous setting afterwards (panic-safe).
///
/// The override changes only the thread *count*; the autotuned work
/// thresholds still apply, so a region too small to amortize a pool
/// dispatch stays serial — this is what production code sees under
/// `HADFL_THREADS`. Tests that need small inputs to genuinely exercise
/// the parallel path use [`with_threads_forced`]. The override is
/// thread-local — concurrent tests cannot race each other.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    with_override(n, false, f)
}

/// [`with_threads`], but also bypassing the work thresholds so even
/// tiny regions take the parallel path. Intended for determinism
/// tests: the fixed-chunk contract means the bytes must match the
/// serial run anyway, and forcing makes small inputs actually cross
/// the pool.
pub fn with_threads_forced<R>(n: usize, f: impl FnOnce() -> R) -> R {
    with_override(n, true, f)
}

/// Number of fixed-size chunks covering `len` elements.
pub fn chunk_count(len: usize, chunk_len: usize) -> usize {
    assert!(chunk_len > 0, "chunk_len must be positive");
    len.div_ceil(chunk_len)
}

// ---------------------------------------------------------------------------
// Measured autotune
// ---------------------------------------------------------------------------

/// Coarse kernel families with distinct parallel break-even points.
/// The *work* unit for every class is "one scalar flop-ish operation"
/// (one FMA for matmul, one element visit for the others), so the
/// thresholds are comparable across classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Disjoint per-element writes: `axpy`, scaling, parameter merges,
    /// `im2col`. Memory-bandwidth-bound, so threads help the
    /// least — the most conservative cutoff.
    Elementwise,
    /// Chunked sums (`dot`, `sum`, `norm_l2`): bandwidth-bound reads
    /// but no output traffic.
    Reduce,
    /// Register-tiled matrix products: compute-bound, scales best —
    /// the most eager cutoff.
    Matmul,
}

impl OpClass {
    const ALL: [OpClass; 3] = [OpClass::Elementwise, OpClass::Reduce, OpClass::Matmul];

    fn index(self) -> usize {
        match self {
            OpClass::Elementwise => 0,
            OpClass::Reduce => 1,
            OpClass::Matmul => 2,
        }
    }

    /// How many multiples of the dispatch overhead the *serial* time
    /// must reach before parallelizing pays. Bandwidth-bound classes
    /// see smaller parallel speedups, so they demand more margin.
    fn break_even_margin(self) -> f64 {
        match self {
            OpClass::Elementwise => 4.0,
            OpClass::Reduce => 3.0,
            OpClass::Matmul => 2.0,
        }
    }
}

/// One-shot per-process measurement backing the [`plan_for`] cutoffs.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Minimum observed wall time of a no-op pool dispatch (publish,
    /// wake, drain nothing, join), in nanoseconds.
    pub dispatch_ns: u64,
    /// Measured serial cost of one FMA in an eight-accumulator sweep,
    /// in nanoseconds — the throughput the slice-of-8 kernels actually
    /// see, not the latency of a dependent chain.
    pub elem_ns: f64,
    /// Work cutoffs per [`OpClass`] (indexed by `OpClass::index`).
    pub thresholds: [u64; 3],
}

/// Serial throughput probe: a multiply-add sweep in slice-of-8 form,
/// so the compiler vectorizes it exactly like the SIMD kernels.
/// Minimum of several passes: noise only ever adds time.
fn probe_elem_ns() -> f64 {
    const N: usize = 1 << 16;
    let mut buf = vec![1.0f32; N];
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        let mut acc = [0.0f32; 8];
        for chunk in buf.chunks_exact_mut(8) {
            for (a, v) in acc.iter_mut().zip(chunk.iter_mut()) {
                *v = v.mul_add(0.999_999_9, 1.0e-9);
                *a += *v;
            }
        }
        let dt = start.elapsed().as_nanos() as f64;
        std::hint::black_box(&mut buf);
        std::hint::black_box(acc);
        best = best.min(dt / N as f64);
    }
    best.max(0.01)
}

/// Pool round-trip probe: minimum wall time over several no-op
/// dispatches at the process's real helper count. Runs through the
/// actual pool (spawning it if needed) so wake latency is included,
/// but records nothing into any installed profiler.
fn probe_dispatch_ns() -> u64 {
    let helpers = max_threads().saturating_sub(1).clamp(1, MAX_POOL_WORKERS);
    let region = PoolRegion::disabled();
    let mut pool = global_pool().lock().unwrap_or_else(PoisonError::into_inner);
    let mut best = u64::MAX;
    for _ in 0..8 {
        let start = Instant::now();
        pool.dispatch_inner(helpers + 1, helpers, &|_| {}, &region);
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    best.max(1_000)
}

/// The process calibration, measured on first use. Cheap to call after
/// that (one atomic load).
pub fn calibration() -> &'static Calibration {
    CALIBRATION.get_or_init(|| {
        let dispatch_ns = probe_dispatch_ns();
        let elem_ns = probe_elem_ns();
        let mut thresholds = [0u64; 3];
        for class in OpClass::ALL {
            let measured = (dispatch_ns as f64 * class.break_even_margin() / elem_ns) as u64;
            thresholds[class.index()] = measured.clamp(MIN_AUTOTUNE_WORK, 32 * 1024 * 1024);
        }
        Calibration {
            dispatch_ns,
            elem_ns,
            thresholds,
        }
    })
}

/// The measured work cutoff below which `class` regions stay serial.
pub fn serial_threshold(class: OpClass) -> u64 {
    calibration().thresholds[class.index()]
}

/// Estimated serial wall time for a region of `work` scalar
/// operations, from the calibrated per-element cost. Recorded into the
/// profiler's pool table so `hadfl-trace profile` can flag dispatches
/// that ran longer than just doing the work serially.
pub fn serial_estimate_ns(class: OpClass, work: u64) -> u64 {
    let _ = class;
    (work as f64 * calibration().elem_ns) as u64
}

// ---------------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------------

/// A dispatch decision for one parallel region: how many workers the
/// region will use, given its estimated scalar-operation count.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    workers: usize,
    work: u64,
}

/// Sizes a parallel region of `class` doing `work` scalar operations:
/// serial when only one thread is configured, when running inside a
/// pool worker, or when `work` is below the class's measured
/// threshold; the full [`current_threads`] otherwise. A
/// [`with_threads_forced`] override skips the size cutoff so tests can
/// force the parallel path.
pub fn plan_for(class: OpClass, work: u64) -> Plan {
    if IN_WORKER.with(Cell::get) {
        return Plan { workers: 1, work };
    }
    let t = OVERRIDE.with(Cell::get).unwrap_or_else(max_threads);
    if t <= 1 {
        return Plan { workers: 1, work };
    }
    if FORCE.with(Cell::get) {
        return Plan { workers: t, work };
    }
    // Static floor first: tiny regions never pay the one-shot probe.
    if work < MIN_AUTOTUNE_WORK || work < serial_threshold(class) {
        return Plan { workers: 1, work };
    }
    Plan { workers: t, work }
}

/// [`plan_for`] with the conservative [`OpClass::Elementwise`] cutoff —
/// the right default for disjoint per-element kernels.
pub fn plan(work: u64) -> Plan {
    plan_for(OpClass::Elementwise, work)
}

impl Plan {
    /// `true` when this region will run entirely on the calling thread.
    pub fn is_serial(&self) -> bool {
        self.workers <= 1
    }

    /// The worker count this region will use (including the caller).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `task(i)` for every `i in 0..n_tasks`, distributing task
    /// indices over the pool via an atomic claim counter. Tasks must
    /// be independent; any two schedules produce the same outputs
    /// because outputs are a function of the index alone.
    pub fn run(&self, n_tasks: usize, task: impl Fn(usize) + Sync) {
        let w = self.workers.min(n_tasks);
        // Every dispatch — serial or parallel — is one pool region when
        // a profiler is installed on the dispatching thread; workers
        // feed it through lock-free atomics. Disabled cost is one
        // thread-local flag read for the whole dispatch.
        let region = PoolRegion::begin("par");
        if w <= 1 {
            let wt = region.worker_start();
            for i in 0..n_tasks {
                let t = region.task_start();
                task(i);
                region.task_end(t);
            }
            region.worker_end(wt);
            region.finish();
            return;
        }
        // `u64::MAX` marks task-level dispatches with no meaningful
        // element count — no serial estimate for those.
        if self.work < u64::MAX / 2 {
            region.set_serial_estimate(serial_estimate_ns(OpClass::Elementwise, self.work));
        }
        let task_ref: &(dyn Fn(usize) + Sync) = &task;
        let mut pool = global_pool().lock().unwrap_or_else(PoisonError::into_inner);
        pool.dispatch_inner(n_tasks, w - 1, task_ref, &region);
        drop(pool);
        region.finish();
    }

    /// Splits `data` into fixed `chunk_len`-sized chunks (the last may
    /// be ragged) and runs `f(chunk_index, chunk)` on each. Chunks are
    /// disjoint `&mut` windows, so the result is byte-identical to the
    /// serial loop regardless of worker count or schedule.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero.
    pub fn chunks_mut<T: Send>(
        &self,
        data: &mut [T],
        chunk_len: usize,
        f: impl Fn(usize, &mut [T]) + Sync,
    ) {
        let len = data.len();
        let n_chunks = chunk_count(len, chunk_len);
        if self.is_serial() || n_chunks <= 1 {
            let region = PoolRegion::begin("par");
            let wt = region.worker_start();
            for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
                let t = region.task_start();
                f(i, chunk);
                region.task_end(t);
            }
            region.worker_end(wt);
            region.finish();
            return;
        }
        let base = SendPtr(data.as_mut_ptr());
        self.run(n_chunks, |i| {
            // Capture the `SendPtr` wrapper itself (not the raw-pointer
            // field, which edition-2021 closures would otherwise pick).
            let base = &base;
            let start = i * chunk_len;
            let end = (start + chunk_len).min(len);
            // SAFETY: chunk `i` covers exactly [start, end) with
            // `start = i * chunk_len`, so chunks for distinct indices
            // never overlap, each index is claimed exactly once by the
            // atomic counter in `run`, and `data` outlives the dispatch
            // (the dispatcher joins all participants before returning).
            // Disjoint `&mut` reborrows of one live `&mut [T]` are
            // therefore sound.
            let chunk = unsafe { std::slice::from_raw_parts_mut(base.0.add(start), end - start) };
            f(i, chunk);
        });
    }

    /// Computes `f(i)` for `i in 0..n` and returns the results in index
    /// order.
    pub fn map_collect<R: Send>(&self, n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        self.chunks_mut(&mut out, 1, |i, slot| slot[0] = Some(f(i)));
        out.into_iter()
            .map(|r| r.expect("every task index runs exactly once"))
            .collect()
    }

    /// Maps every chunk index to a partial result, then folds the
    /// partials **in ascending chunk order** on the calling thread —
    /// the deterministic-combine half of the substrate contract.
    /// Returns `None` when `n == 0`.
    pub fn reduce<R: Send>(
        &self,
        n: usize,
        map: impl Fn(usize) -> R + Sync,
        mut fold: impl FnMut(R, R) -> R,
    ) -> Option<R> {
        let mut partials = self.map_collect(n, map).into_iter();
        let first = partials.next()?;
        Some(partials.fold(first, &mut fold))
    }
}

fn drain(next: &AtomicUsize, n_tasks: usize, task: &(dyn Fn(usize) + Sync), region: &PoolRegion) {
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n_tasks {
            return;
        }
        let t = region.task_start();
        task(i);
        region.task_end(t);
    }
}

/// Raw-pointer wrapper so disjoint chunk addresses can cross the
/// pool-worker boundary.
#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);

// SAFETY: the pointer is only dereferenced through the disjoint-chunk
// protocol in `chunks_mut`, which hands each worker a non-overlapping
// window of a `&mut [T]` that outlives the dispatch.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

// ---------------------------------------------------------------------------
// The persistent worker pool
// ---------------------------------------------------------------------------

/// One published dispatch: everything a worker needs, as raw pointers
/// into the dispatcher's stack frame. Valid from the epoch bump until
/// every signalled worker has checked in — the dispatcher blocks on
/// that countdown before unwinding or returning, so no pointer here
/// ever dangles while a worker can read it.
struct Job {
    task: *const (dyn Fn(usize) + Sync),
    n_tasks: usize,
    next: *const AtomicUsize,
    region: *const PoolRegion,
    panic: *const Mutex<Option<Box<dyn Any + Send>>>,
    dispatcher: Thread,
}

/// State shared between a pool's owner and its workers.
struct PoolShared {
    /// Bumped (Release) once per dispatch after [`PoolShared::job`] is
    /// written; workers detect work by comparing against their last
    /// seen value (Acquire).
    epoch: AtomicUsize,
    /// Participation tickets for the current dispatch: workers that
    /// decrement it from a positive value drain tasks, the rest just
    /// check in. May go negative — only the sign matters.
    tickets: AtomicIsize,
    /// Workers yet to check in for the current dispatch. The
    /// dispatcher parks until this reaches zero; the worker that takes
    /// it to zero unparks the dispatcher.
    remaining: AtomicUsize,
    /// Set by `Drop`; parked workers exit on their next wake.
    shutdown: AtomicBool,
    /// Live worker threads (spawned minus exited) — observable through
    /// [`WorkerPool::liveness_probe`] even after the pool drops.
    live: AtomicUsize,
    /// The published job. Written by the dispatcher strictly before
    /// the epoch bump and cleared only after all check-ins, so workers
    /// only ever read a fully published value.
    job: UnsafeCell<Option<Job>>,
}

// SAFETY: `job` is protected by the epoch/countdown handoff protocol
// described on the fields: all worker reads happen between the
// Release epoch bump (after the write) and the Acquire countdown
// drain (before the clear). Everything else is atomics.
unsafe impl Send for PoolShared {}
unsafe impl Sync for PoolShared {}

/// A persistent pool of parked worker threads. The crate keeps one
/// process-global instance behind [`plan`]/[`plan_for`]; owning one
/// directly is for lifecycle tests and embedders that want isolation.
///
/// Workers spawn lazily on first dispatch, park between dispatches,
/// and are joined on drop.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerPool {
    /// An empty pool; the first dispatch spawns its workers.
    pub fn new() -> Self {
        WorkerPool {
            shared: Arc::new(PoolShared {
                epoch: AtomicUsize::new(0),
                tickets: AtomicIsize::new(0),
                remaining: AtomicUsize::new(0),
                shutdown: AtomicBool::new(false),
                live: AtomicUsize::new(0),
                job: UnsafeCell::new(None),
            }),
            workers: Vec::new(),
        }
    }

    /// Worker threads spawned so far.
    pub fn spawned_workers(&self) -> usize {
        self.workers.len()
    }

    /// A counter of this pool's live (not yet exited) worker threads
    /// that stays valid after the pool drops — lifecycle tests use it
    /// to prove shutdown leaks no threads.
    pub fn liveness_probe(&self) -> impl Fn() -> usize + Send + 'static {
        let shared = Arc::clone(&self.shared);
        move || shared.live.load(Ordering::Acquire)
    }

    /// Runs `task(i)` for `i in 0..n_tasks` across this pool with up
    /// to `helpers` worker threads assisting the calling thread.
    pub fn dispatch(&mut self, n_tasks: usize, helpers: usize, task: impl Fn(usize) + Sync) {
        let region = PoolRegion::begin("par");
        self.dispatch_inner(n_tasks, helpers, &task, &region);
        region.finish();
    }

    fn ensure(&mut self, helpers: usize) {
        let helpers = helpers.min(MAX_POOL_WORKERS);
        // A worker must start life agreeing with the current epoch, or
        // it would mistake history for a fresh job (or miss the next
        // one). Dispatches are serialized by `&mut self`, so one load
        // covers every worker spawned here.
        let birth_epoch = self.shared.epoch.load(Ordering::Acquire);
        while self.workers.len() < helpers {
            let shared = Arc::clone(&self.shared);
            shared.live.fetch_add(1, Ordering::Relaxed);
            let handle = std::thread::Builder::new()
                .name("hadfl-par".into())
                .spawn(move || worker_loop(shared, birth_epoch))
                .expect("spawn hadfl-par worker");
            self.workers.push(handle);
        }
    }

    fn dispatch_inner(
        &mut self,
        n_tasks: usize,
        helpers: usize,
        task: &(dyn Fn(usize) + Sync),
        region: &PoolRegion,
    ) {
        self.ensure(helpers);
        let signalled = self.workers.len();
        if signalled == 0 {
            let wt = region.worker_start();
            drain(&AtomicUsize::new(0), n_tasks, task, region);
            region.worker_end(wt);
            return;
        }
        let next = AtomicUsize::new(0);
        let panic_slot: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        // SAFETY: lifetime erasure only — the pointer is dead before
        // this frame unwinds (see the countdown wait below).
        #[allow(clippy::missing_transmute_annotations)]
        let task_ptr: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute(task as *const (dyn Fn(usize) + Sync)) };
        let job = Job {
            task: task_ptr,
            n_tasks,
            next: &next,
            region,
            panic: &panic_slot,
            dispatcher: std::thread::current(),
        };
        // Publish order: job and counters first, then the Release
        // epoch bump that makes them visible, then the wakes.
        unsafe { *self.shared.job.get() = Some(job) };
        self.shared
            .tickets
            .store(helpers as isize, Ordering::Relaxed);
        self.shared.remaining.store(signalled, Ordering::Relaxed);
        self.shared.epoch.fetch_add(1, Ordering::Release);
        for h in &self.workers {
            h.thread().unpark();
        }

        // Drain alongside the workers. IN_WORKER keeps kernels nested
        // inside chunks serial on this thread too — without it they
        // would re-enter the pool lock the caller already holds.
        let was_in_worker = IN_WORKER.with(|f| f.replace(true));
        let wt = region.worker_start();
        let mine = catch_unwind(AssertUnwindSafe(|| drain(&next, n_tasks, task, region)));
        region.worker_end(wt);
        IN_WORKER.with(|f| f.set(was_in_worker));

        // The job slot aliases this stack frame (`next`, `panic_slot`,
        // `region`, the caller's closure): every signalled worker must
        // check in before this frame may return or unwind. Park until
        // the countdown drains — the last worker unparks us, and the
        // permit semantics of `unpark` make the wake race-free.
        while self.shared.remaining.load(Ordering::Acquire) != 0 {
            std::thread::park();
        }
        unsafe { *self.shared.job.get() = None };
        if let Err(p) = mine {
            resume_unwind(p);
        }
        let worker_panic = panic_slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(p) = worker_panic {
            resume_unwind(p);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for h in &self.workers {
            h.thread().unpark();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: Arc<PoolShared>, mut last_epoch: usize) {
    loop {
        let epoch = shared.epoch.load(Ordering::Acquire);
        if epoch == last_epoch {
            if shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            std::thread::park();
            continue;
        }
        last_epoch = epoch;
        let dispatcher = {
            // SAFETY: the Acquire epoch load above synchronizes with
            // the Release bump that followed the job write, and the
            // slot is not rewritten until this worker (and every
            // other) checks in below.
            let job = unsafe { (*shared.job.get()).as_ref() }.expect("epoch bump publishes a job");
            if shared.tickets.fetch_sub(1, Ordering::AcqRel) > 0 {
                // SAFETY: all `Job` pointers outlive the dispatch; the
                // dispatcher blocks on the countdown we have not yet
                // decremented.
                let task = unsafe { &*job.task };
                let next = unsafe { &*job.next };
                let region = unsafe { &*job.region };
                IN_WORKER.with(|f| f.set(true));
                let wt = region.worker_start();
                let got = catch_unwind(AssertUnwindSafe(|| drain(next, job.n_tasks, task, region)));
                region.worker_end(wt);
                IN_WORKER.with(|f| f.set(false));
                if let Err(p) = got {
                    let mut slot = unsafe { &*job.panic }
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    if slot.is_none() {
                        *slot = Some(p);
                    }
                }
            }
            job.dispatcher.clone()
        };
        // Check in strictly after the last touch of the job slot; the
        // AcqRel countdown orders that touch before the dispatcher's
        // Acquire read of zero.
        if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            dispatcher.unpark();
        }
    }
    shared.live.fetch_sub(1, Ordering::Release);
}

fn global_pool() -> &'static Mutex<WorkerPool> {
    POOL.get_or_init(|| Mutex::new(WorkerPool::new()))
}

// ---------------------------------------------------------------------------
// Free-function conveniences
// ---------------------------------------------------------------------------

/// Elementwise convenience: fixed `chunk_len` windows of `data`, work
/// estimated as one operation per element.
pub fn par_chunks_mut<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    plan(data.len() as u64).chunks_mut(data, chunk_len, f);
}

/// Task-level convenience: `n` independent tasks assumed individually
/// heavy enough to parallelize whenever more than one thread is
/// configured.
pub fn par_map_collect<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    plan(u64::MAX).map_collect(n, f)
}

/// Reduction convenience over `n` chunks: partials fold in ascending
/// chunk order, sized with the [`OpClass::Reduce`] cutoff. Returns
/// `None` when `n == 0`.
pub fn par_reduce<R: Send>(
    n: usize,
    work: u64,
    map: impl Fn(usize) -> R + Sync,
    fold: impl FnMut(R, R) -> R,
) -> Option<R> {
    plan_for(OpClass::Reduce, work).reduce(n, map, fold)
}

/// The fixed chunk length every elementwise f32 kernel in the
/// workspace uses. Reductions built on this chunking (`dot`, `sum`,
/// `norm_l2`) are deterministic at any thread count because the chunk
/// boundaries — and therefore the float-addition association — depend
/// only on the input length.
pub const F32_CHUNK: usize = 32 * 1024;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn chunk_count_covers_ragged_tails() {
        assert_eq!(chunk_count(0, 4), 0);
        assert_eq!(chunk_count(1, 4), 1);
        assert_eq!(chunk_count(4, 4), 1);
        assert_eq!(chunk_count(5, 4), 2);
        assert_eq!(chunk_count(8, 4), 2);
    }

    #[test]
    #[should_panic(expected = "chunk_len must be positive")]
    fn zero_chunk_len_panics() {
        chunk_count(3, 0);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = current_threads();
        with_threads(7, || {
            assert_eq!(current_threads(), 7);
            with_threads(2, || assert_eq!(current_threads(), 2));
            assert_eq!(current_threads(), 7);
        });
        assert_eq!(current_threads(), outer);
    }

    #[test]
    fn override_restored_after_panic() {
        let outer = current_threads();
        let caught = std::panic::catch_unwind(|| with_threads(5, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(current_threads(), outer);
    }

    #[test]
    fn small_work_stays_serial_unless_forced() {
        assert!(plan(MIN_AUTOTUNE_WORK - 1).is_serial() || max_threads() == 1);
        // A plain thread override no longer forces tiny work parallel…
        with_threads(4, || assert!(plan(1).is_serial()));
        // …but the forced override does.
        with_threads_forced(4, || assert_eq!(plan(1).workers, 4));
    }

    #[test]
    fn forced_override_restores_threshold_behavior() {
        with_threads_forced(4, || {
            assert_eq!(plan(1).workers, 4);
            with_threads(4, || assert!(plan(1).is_serial()));
            assert_eq!(plan(1).workers, 4);
        });
        assert!(plan(1).is_serial());
    }

    #[test]
    fn thresholds_are_measured_and_overridable() {
        let cal = calibration();
        assert!(cal.dispatch_ns >= 1_000);
        assert!(cal.elem_ns > 0.0);
        for class in OpClass::ALL {
            let t = serial_threshold(class);
            assert!(t >= MIN_AUTOTUNE_WORK, "{class:?} threshold {t}");
        }
        // Margins order the cutoffs: matmul parallelizes soonest.
        assert!(serial_threshold(OpClass::Matmul) <= serial_threshold(OpClass::Reduce));
        assert!(serial_threshold(OpClass::Reduce) <= serial_threshold(OpClass::Elementwise));
        // Work above every cutoff parallelizes without forcing.
        with_threads(4, || {
            assert_eq!(plan_for(OpClass::Matmul, u64::MAX / 4).workers, 4);
        });
    }

    #[test]
    fn chunks_mut_is_identical_across_thread_counts() {
        let make = || (0..10_001).map(|i| i as f32).collect::<Vec<f32>>();
        let run = |threads: usize| {
            with_threads_forced(threads, || {
                let mut data = make();
                plan(u64::MAX).chunks_mut(&mut data, 97, |idx, chunk| {
                    for (off, v) in chunk.iter_mut().enumerate() {
                        *v = v.mul_add(1.5, (idx * 97 + off) as f32);
                    }
                });
                data
            })
        };
        let serial = run(1);
        for t in [2, 4, 8] {
            assert_eq!(serial, run(t), "thread count {t}");
        }
    }

    #[test]
    fn map_collect_preserves_index_order() {
        let got = with_threads_forced(4, || plan(u64::MAX).map_collect(100, |i| i * i));
        assert_eq!(got, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn reduce_folds_in_chunk_order() {
        // String concatenation is order-sensitive: any out-of-order
        // combine would scramble it.
        let got = with_threads_forced(4, || {
            plan(u64::MAX).reduce(
                26,
                |i| ((b'a' + i as u8) as char).to_string(),
                |a, b| a + &b,
            )
        });
        assert_eq!(got.as_deref(), Some("abcdefghijklmnopqrstuvwxyz"));
        assert_eq!(plan(0).reduce(0, |_| 0u32, |a, b| a + b), None);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let hits = AtomicU64::new(0);
        with_threads_forced(8, || {
            plan(u64::MAX).run(1000, |i| {
                hits.fetch_add(1 + i as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1000 + 999 * 1000 / 2);
    }

    #[test]
    fn pool_survives_many_dispatches_and_a_panic() {
        // Park → wake → park across dispatches, including one that
        // panics: the persistent pool must keep serving afterwards.
        let hits = AtomicU64::new(0);
        for round in 0..50u64 {
            with_threads_forced(4, || {
                plan(u64::MAX).run(16, |i| {
                    hits.fetch_add(round + i as u64, Ordering::Relaxed);
                });
            });
        }
        let caught = std::panic::catch_unwind(|| {
            with_threads_forced(4, || plan(u64::MAX).run(8, |_| panic!("mid-life panic")))
        });
        assert!(caught.is_err());
        let before = hits.load(Ordering::Relaxed);
        with_threads_forced(4, || {
            plan(u64::MAX).run(16, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), before + 16);
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            with_threads_forced(4, || {
                plan(u64::MAX).run(16, |i| {
                    if i == 7 {
                        panic!("chunk 7 failed");
                    }
                });
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn nested_regions_stay_serial_inside_workers() {
        with_threads_forced(4, || {
            plan(u64::MAX).run(8, |_| {
                // Inside any drain — worker or dispatcher — the nested
                // plan must not fan out again.
                assert_eq!(current_threads(), 1);
                assert!(plan(u64::MAX).is_serial());
            });
        });
    }

    #[test]
    fn concurrent_dispatchers_share_the_pool() {
        // Several threads dispatching at once serialize on the pool
        // lock but must all complete with every task run exactly once.
        let totals: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let hits = AtomicU64::new(0);
                        with_threads_forced(4, || {
                            plan(u64::MAX).run(100, |_| {
                                hits.fetch_add(1, Ordering::Relaxed);
                            });
                        });
                        hits.load(Ordering::Relaxed)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(totals, vec![100, 100, 100, 100]);
    }

    #[test]
    fn private_pool_lifecycle_joins_all_workers() {
        let mut pool = WorkerPool::new();
        assert_eq!(pool.spawned_workers(), 0);
        let live = pool.liveness_probe();
        let hits = AtomicU64::new(0);
        // park → wake → park across several dispatches
        for _ in 0..10 {
            pool.dispatch(32, 3, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(hits.load(Ordering::Relaxed), 320);
        assert_eq!(pool.spawned_workers(), 3);
        assert_eq!(live(), 3);
        drop(pool);
        // Drop joins the workers, so no thread may outlive the pool.
        assert_eq!(live(), 0, "worker threads leaked past drop");
    }

    #[test]
    fn private_pool_survives_panics_on_a_helper_and_on_the_dispatcher() {
        // Two tasks, one helper: each thread holds its first task until
        // the other has the second, so one task runs on each side and
        // the panicking side is fixed. Its panic reaches the caller.
        fn panic_on(pool: &mut WorkerPool, side: &str) {
            let both_in = std::sync::Barrier::new(2);
            let dispatcher = std::thread::current().id();
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.dispatch(2, 1, |_| {
                    both_in.wait();
                    let on_dispatcher = std::thread::current().id() == dispatcher;
                    if on_dispatcher == (side == "dispatcher") {
                        panic!("panic on the {side}");
                    }
                });
            }));
            let payload = caught.expect_err("the panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some(&*format!("panic on the {side}"))
            );
        }

        let mut pool = WorkerPool::new();
        let live = pool.liveness_probe();
        panic_on(&mut pool, "helper");
        panic_on(&mut pool, "dispatcher");
        let hits = AtomicU64::new(0);
        pool.dispatch(32, 1, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 32, "the pool still serves");
        assert_eq!((pool.spawned_workers(), live()), (1, 1));
        drop(pool);
        assert_eq!(live(), 0, "worker threads leaked past drop");
    }

    #[test]
    fn pool_dispatches_record_into_an_installed_profiler() {
        use hadfl_prof::{ManualClock, Profiler};
        let prof = Profiler::new(0, std::sync::Arc::new(ManualClock::new()));
        {
            let _g = prof.install();
            let mut data = vec![0f32; 1000];
            with_threads_forced(4, || {
                plan(u64::MAX).chunks_mut(&mut data, 100, |_, chunk| {
                    for v in chunk {
                        *v += 1.0;
                    }
                });
            });
            assert!(data.iter().all(|&v| v == 1.0));
        }
        let dump = prof.dump();
        assert_eq!(dump.pools.len(), 1);
        let p = &dump.pools[0];
        assert_eq!(p.region, "par");
        assert_eq!((p.dispatches, p.tasks, p.max_workers), (1, 10, 4));
    }

    #[test]
    fn empty_input_is_a_noop() {
        let mut empty: Vec<f32> = Vec::new();
        par_chunks_mut(&mut empty, 8, |_, _| panic!("no chunks expected"));
        assert!(par_map_collect(0, |i| i).is_empty());
    }
}
