//! In-process hierarchical compute profiler.
//!
//! The span tracer (`hadfl-telemetry`) sees protocol events; this crate
//! sees *below* them: where the nanoseconds of a train step actually go
//! — which kernel, how much of the pool's time was busy versus parked,
//! and whether chunking left workers idle. The design constraints, in
//! order:
//!
//! 1. **Zero cost when disabled.** Instrumentation sites call the free
//!    functions [`scope`]/[`scope_bytes`] unconditionally; when no
//!    profiler is installed on the thread they cost one thread-local
//!    flag check (single-digit nanoseconds, measured by
//!    `prof.scope_disabled_ns` in `BENCHMARK.json`). No handle plumbing
//!    through kernel signatures.
//! 2. **Per-op granularity.** A scope wraps an operation (a matmul, an
//!    encode, a train step), never an element or an inner loop — the
//!    `prof-in-inner-loop` lint rule enforces this.
//! 3. **Deterministic output.** Time flows through the [`Clock`] seam
//!    the protocol runs on (`hadfl::clock` re-exports it from here), so
//!    a scripted [`ManualClock`] makes two identical runs produce
//!    byte-identical profiles: the export merges all thread lanes into one
//!    name-ordered tree, which erases the (nondeterministic) physical
//!    thread-to-chunk assignment while preserving every deterministic
//!    sum.
//!
//! # Model
//!
//! Installing a [`Profiler`] on a thread ([`Profiler::install`]) gives
//! that thread a *lane*: a call-tree arena plus a stack of open frames.
//! [`scope`] pushes a frame; dropping the returned guard pops it and
//! charges the elapsed time to the named node (`total_ns`) and the
//! portion not covered by child scopes to `self_ns`. Uninstalling (the
//! guard from `install` dropping) commits the lane into the profiler's
//! merged tree, keyed by `;`-joined scope paths.
//!
//! Pool dispatches are recorded separately via [`PoolRegion`]: the
//! dispatcher opens a region (keyed by its current scope path), workers
//! time themselves and their claimed tasks through lock-free atomics on
//! the region, and `finish` folds the aggregate — busy, park, wall,
//! per-chunk extrema — into the profile's pool table.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use hadfl_prof::{scope, ManualClock, Profiler};
//!
//! let time = ManualClock::new();
//! let prof = Profiler::new(0, Arc::new(time.clone()));
//! {
//!     let _thread = prof.install();
//!     let _train = scope("train_step");
//!     time.advance(Duration::from_micros(5));
//!     {
//!         let _mm = scope("matmul");
//!         time.advance(Duration::from_micros(3));
//!     }
//! }
//! let dump = prof.dump();
//! assert_eq!(dump.stacks[0].stack, "train_step");
//! assert_eq!(dump.stacks[0].total_ns, 8_000);
//! assert_eq!(dump.stacks[0].self_ns, 5_000);
//! assert_eq!(dump.stacks[1].stack, "train_step;matmul");
//! ```

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

mod clock;
mod report;

pub use clock::{Clock, ManualClock, WallClock};
pub use report::{
    merge_dumps, parse_folded, to_folded, PoolRow, ProfileDump, StackRow, PROF_SCHEMA_VERSION,
};

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------------
// Call-tree lane (one per installed thread)
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct NodeStat {
    name: &'static str,
    children: BTreeMap<&'static str, usize>,
    count: u64,
    total_ns: u64,
    self_ns: u64,
    bytes: u64,
}

impl NodeStat {
    fn new(name: &'static str) -> Self {
        Self {
            name,
            children: BTreeMap::new(),
            count: 0,
            total_ns: 0,
            self_ns: 0,
            bytes: 0,
        }
    }
}

struct Frame {
    node: usize,
    start_ns: u64,
    child_ns: u64,
}

/// One thread's call tree: an arena of named nodes (index 0 is the
/// unnamed root) plus the stack of currently open frames.
struct Lane {
    nodes: Vec<NodeStat>,
    stack: Vec<Frame>,
}

impl Lane {
    fn new() -> Self {
        Self {
            nodes: vec![NodeStat::new("")],
            stack: Vec::new(),
        }
    }

    fn enter(&mut self, name: &'static str, now_ns: u64) {
        let parent = self.stack.last().map(|f| f.node).unwrap_or(0);
        let node = match self.nodes[parent].children.get(name) {
            Some(&idx) => idx,
            None => {
                let idx = self.nodes.len();
                self.nodes.push(NodeStat::new(name));
                self.nodes[parent].children.insert(name, idx);
                idx
            }
        };
        self.stack.push(Frame {
            node,
            start_ns: now_ns,
            child_ns: 0,
        });
    }

    fn exit(&mut self, now_ns: u64) {
        let Some(frame) = self.stack.pop() else {
            return;
        };
        let elapsed = now_ns.saturating_sub(frame.start_ns);
        let node = &mut self.nodes[frame.node];
        node.count += 1;
        node.total_ns += elapsed;
        node.self_ns += elapsed.saturating_sub(frame.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += elapsed;
        }
    }

    fn add_bytes(&mut self, bytes: u64) {
        if let Some(frame) = self.stack.last() {
            self.nodes[frame.node].bytes += bytes;
        }
    }

    /// The `;`-joined path of open scopes, innermost last. Empty when
    /// no scope is open.
    fn current_path(&self) -> String {
        let mut path = String::new();
        for frame in &self.stack {
            if !path.is_empty() {
                path.push(';');
            }
            path.push_str(self.nodes[frame.node].name);
        }
        path
    }

    /// Folds this lane's finished nodes into `merged` by path and
    /// resets the lane. Open frames (unbalanced scopes) are discarded:
    /// RAII makes them unreachable in correct code.
    fn commit(&mut self, merged: &mut Merged) {
        let mut path = String::new();
        let root_children: Vec<usize> = self.nodes[0].children.values().copied().collect();
        for child in root_children {
            self.commit_node(child, &mut path, merged);
        }
        self.nodes.truncate(1);
        self.nodes[0] = NodeStat::new("");
        self.stack.clear();
    }

    fn commit_node(&self, idx: usize, path: &mut String, merged: &mut Merged) {
        let node = &self.nodes[idx];
        let prev_len = path.len();
        if !path.is_empty() {
            path.push(';');
        }
        path.push_str(node.name);
        // A node that never closed (count 0, no data) is an open frame
        // discarded by the commit; its finished children still export.
        if node.count > 0 || node.total_ns > 0 || node.bytes > 0 {
            let agg = merged.stacks.entry(path.clone()).or_default();
            agg.count += node.count;
            agg.total_ns += node.total_ns;
            agg.self_ns += node.self_ns;
            agg.bytes += node.bytes;
        }
        for &child in node.children.values() {
            self.commit_node(child, path, merged);
        }
        path.truncate(prev_len);
    }
}

#[derive(Default, Clone, Copy)]
struct StackAgg {
    count: u64,
    total_ns: u64,
    self_ns: u64,
    bytes: u64,
}

#[derive(Default, Clone, Copy)]
struct PoolAgg {
    dispatches: u64,
    max_workers: u64,
    tasks: u64,
    busy_ns: u64,
    park_ns: u64,
    /// Dispatch-to-first-instruction latency summed over workers: the
    /// publish/unpark cost of waking the persistent pool.
    wake_ns: u64,
    wall_ns: u64,
    /// Calibrated estimate of the serial wall time for the dispatched
    /// work, summed over dispatches (0 when the dispatcher had none).
    serial_est_ns: u64,
    max_chunk_ns: u64,
    /// `u64::MAX` until the first task lands.
    min_chunk_ns: u64,
}

#[derive(Default)]
struct Merged {
    stacks: BTreeMap<String, StackAgg>,
    pools: BTreeMap<String, PoolAgg>,
}

// ---------------------------------------------------------------------------
// Profiler handle and thread installation
// ---------------------------------------------------------------------------

struct ProfInner {
    node: u32,
    time: Arc<dyn Clock>,
    merged: Mutex<Merged>,
}

/// Cheaply cloneable profiler handle. `Profiler::disabled()` is inert:
/// installing it is a no-op and every instrumentation site stays on the
/// one-flag-check fast path.
#[derive(Clone)]
pub struct Profiler(Option<Arc<ProfInner>>);

struct ThreadCtx {
    prof: Arc<ProfInner>,
    time: Arc<dyn Clock>,
    lane: Lane,
}

thread_local! {
    /// Fast-path flag mirroring `CURRENT.is_some()`, so a disabled
    /// `scope()` is a single `Cell` read.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static CURRENT: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

impl Profiler {
    /// The inert handle: never records anything.
    pub fn disabled() -> Self {
        Profiler(None)
    }

    /// A live profiler for node `node`, reading time from `time`.
    pub fn new(node: u32, time: Arc<dyn Clock>) -> Self {
        Profiler(Some(Arc::new(ProfInner {
            node,
            time,
            merged: Mutex::new(Merged::default()),
        })))
    }

    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Installs this profiler on the calling thread for the lifetime of
    /// the returned guard. Scopes opened on this thread record into a
    /// thread-private lane; dropping the guard commits the lane into
    /// the merged profile (and restores any previously installed
    /// profiler). Disabled handles install nothing.
    #[must_use = "the profiler records only while the install guard is alive"]
    pub fn install(&self) -> InstallGuard {
        let Some(inner) = &self.0 else {
            return InstallGuard {
                prev: None,
                armed: false,
            };
        };
        let ctx = ThreadCtx {
            prof: Arc::clone(inner),
            time: Arc::clone(&inner.time),
            lane: Lane::new(),
        };
        let prev = CURRENT.with(|c| c.borrow_mut().replace(ctx));
        ACTIVE.with(|a| a.set(true));
        InstallGuard { prev, armed: true }
    }

    /// Snapshot of everything committed so far, rows sorted by stack
    /// path / region name. Lanes still installed on live threads are
    /// not included — drop their install guards first.
    pub fn dump(&self) -> ProfileDump {
        let Some(inner) = &self.0 else {
            return ProfileDump::empty(0);
        };
        let merged = inner.merged.lock().unwrap_or_else(PoisonError::into_inner);
        let stacks = merged
            .stacks
            .iter()
            .map(|(stack, agg)| StackRow {
                stack: stack.clone(),
                count: agg.count,
                total_ns: agg.total_ns,
                self_ns: agg.self_ns,
                bytes: agg.bytes,
            })
            .collect();
        let pools = merged
            .pools
            .iter()
            .map(|(region, agg)| PoolRow {
                region: region.clone(),
                dispatches: agg.dispatches,
                max_workers: agg.max_workers,
                tasks: agg.tasks,
                busy_ns: agg.busy_ns,
                park_ns: agg.park_ns,
                wake_ns: agg.wake_ns,
                wall_ns: agg.wall_ns,
                serial_est_ns: agg.serial_est_ns,
                max_chunk_ns: agg.max_chunk_ns,
                min_chunk_ns: if agg.min_chunk_ns == u64::MAX {
                    0
                } else {
                    agg.min_chunk_ns
                },
            })
            .collect();
        ProfileDump {
            v: PROF_SCHEMA_VERSION,
            node: inner.node,
            stacks,
            pools,
        }
    }
}

/// Guard returned by [`Profiler::install`]; commits the thread's lane
/// on drop.
pub struct InstallGuard {
    prev: Option<ThreadCtx>,
    armed: bool,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let ctx = CURRENT.with(|c| {
            let mut b = c.borrow_mut();
            let ctx = b.take();
            *b = self.prev.take();
            let restored = b.is_some();
            ACTIVE.with(|a| a.set(restored));
            ctx
        });
        if let Some(mut ctx) = ctx {
            ctx.lane.commit(
                &mut ctx
                    .prof
                    .merged
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// RAII scopes
// ---------------------------------------------------------------------------

/// Guard for one open profiling scope; the scope closes when it drops.
#[must_use = "a scope measures until this guard drops"]
pub struct ScopeGuard {
    armed: bool,
}

/// Opens a named scope on the calling thread's lane. Inert (one flag
/// check) when no profiler is installed. Names become frames in the
/// `;`-joined stack path, so they must not contain `;`.
#[inline]
pub fn scope(name: &'static str) -> ScopeGuard {
    if !ACTIVE.with(Cell::get) {
        return ScopeGuard { armed: false };
    }
    CURRENT.with(|c| {
        if let Some(ctx) = c.borrow_mut().as_mut() {
            let now = ns(ctx.time.now());
            ctx.lane.enter(name, now);
        }
    });
    ScopeGuard { armed: true }
}

/// [`scope`] plus a byte count charged to the scope's node — for codec
/// and kernel sites where throughput matters.
#[inline]
pub fn scope_bytes(name: &'static str, bytes: u64) -> ScopeGuard {
    let guard = scope(name);
    if guard.armed {
        CURRENT.with(|c| {
            if let Some(ctx) = c.borrow_mut().as_mut() {
                ctx.lane.add_bytes(bytes);
            }
        });
    }
    guard
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        CURRENT.with(|c| {
            if let Some(ctx) = c.borrow_mut().as_mut() {
                let now = ns(ctx.time.now());
                ctx.lane.exit(now);
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Pool regions (used by hadfl-par)
// ---------------------------------------------------------------------------

struct RegionInner {
    prof: Arc<ProfInner>,
    key: String,
    start_ns: u64,
    busy_ns: AtomicU64,
    worker_ns: AtomicU64,
    wake_ns: AtomicU64,
    serial_est_ns: AtomicU64,
    tasks: AtomicU64,
    workers: AtomicU64,
    max_chunk_ns: AtomicU64,
    min_chunk_ns: AtomicU64,
}

/// One pool dispatch, opened by the dispatching thread. Workers share
/// it by reference (all recording is lock-free atomics) and time their
/// own lifetime and each claimed task; [`PoolRegion::finish`] folds the
/// aggregate into the profile's pool table under the dispatcher's
/// current scope path.
pub struct PoolRegion(Option<RegionInner>);

/// Start-timestamp token handed back by [`PoolRegion::task_start`] /
/// [`PoolRegion::worker_start`].
#[derive(Clone, Copy)]
pub struct PoolTimer(Option<u64>);

impl PoolRegion {
    /// Opens a region when a profiler is installed on the calling
    /// thread; inert otherwise. The region key is the dispatcher's
    /// current scope path, falling back to `kind` outside any scope.
    pub fn begin(kind: &'static str) -> PoolRegion {
        if !ACTIVE.with(Cell::get) {
            return PoolRegion(None);
        }
        let inner = CURRENT.with(|c| {
            c.borrow().as_ref().map(|ctx| {
                let path = ctx.lane.current_path();
                RegionInner {
                    prof: Arc::clone(&ctx.prof),
                    key: if path.is_empty() {
                        kind.to_string()
                    } else {
                        path
                    },
                    start_ns: ns(ctx.time.now()),
                    busy_ns: AtomicU64::new(0),
                    worker_ns: AtomicU64::new(0),
                    wake_ns: AtomicU64::new(0),
                    serial_est_ns: AtomicU64::new(0),
                    tasks: AtomicU64::new(0),
                    workers: AtomicU64::new(0),
                    max_chunk_ns: AtomicU64::new(0),
                    min_chunk_ns: AtomicU64::new(u64::MAX),
                }
            })
        });
        PoolRegion(inner)
    }

    /// A region that is guaranteed inert even with a profiler
    /// installed. Calibration probes dispatch through the real pool
    /// but must not pollute the profile's pool table with their no-op
    /// rounds.
    pub fn disabled() -> PoolRegion {
        PoolRegion(None)
    }

    /// `true` when this region actually records (a profiler was
    /// installed when it began).
    pub fn active(&self) -> bool {
        self.0.is_some()
    }

    /// Records the dispatcher's calibrated estimate of what this
    /// dispatch would have cost serially — `hadfl-trace profile` flags
    /// regions whose wall time exceeds it ("serial-better").
    pub fn set_serial_estimate(&self, estimate_ns: u64) {
        if let Some(r) = &self.0 {
            r.serial_est_ns.store(estimate_ns, Ordering::Relaxed);
        }
    }

    fn now_ns(&self) -> Option<u64> {
        self.0.as_ref().map(|r| ns(r.prof.time.now()))
    }

    /// Marks one worker joining the region (the dispatching thread
    /// counts as a worker when it drains tasks itself). The gap between
    /// the region opening and the worker's first instruction is charged
    /// as wake latency.
    pub fn worker_start(&self) -> PoolTimer {
        let now = self.now_ns();
        if let (Some(r), Some(now)) = (&self.0, now) {
            r.workers.fetch_add(1, Ordering::Relaxed);
            r.wake_ns
                .fetch_add(now.saturating_sub(r.start_ns), Ordering::Relaxed);
        }
        PoolTimer(now)
    }

    /// Closes a worker's lifetime; the gap between its lifetime and its
    /// busy time becomes park time.
    pub fn worker_end(&self, t: PoolTimer) {
        let (Some(r), Some(start), Some(now)) = (&self.0, t.0, self.now_ns()) else {
            return;
        };
        r.worker_ns
            .fetch_add(now.saturating_sub(start), Ordering::Relaxed);
    }

    /// Starts timing one claimed task (chunk).
    pub fn task_start(&self) -> PoolTimer {
        PoolTimer(self.now_ns())
    }

    /// Finishes one task, feeding busy time and per-chunk extrema.
    pub fn task_end(&self, t: PoolTimer) {
        let (Some(r), Some(start), Some(now)) = (&self.0, t.0, self.now_ns()) else {
            return;
        };
        let e = now.saturating_sub(start);
        r.busy_ns.fetch_add(e, Ordering::Relaxed);
        r.tasks.fetch_add(1, Ordering::Relaxed);
        r.max_chunk_ns.fetch_max(e, Ordering::Relaxed);
        r.min_chunk_ns.fetch_min(e, Ordering::Relaxed);
    }

    /// Ends the dispatch: computes wall and park time and commits the
    /// aggregate into the profile's pool table.
    pub fn finish(self) {
        let Some(r) = self.0 else {
            return;
        };
        let wall = ns(r.prof.time.now()).saturating_sub(r.start_ns);
        let busy = r.busy_ns.load(Ordering::Relaxed);
        let worker = r.worker_ns.load(Ordering::Relaxed);
        let mut merged = r.prof.merged.lock().unwrap_or_else(PoisonError::into_inner);
        let agg = merged.pools.entry(r.key.clone()).or_insert(PoolAgg {
            min_chunk_ns: u64::MAX,
            ..PoolAgg::default()
        });
        agg.dispatches += 1;
        agg.max_workers = agg.max_workers.max(r.workers.load(Ordering::Relaxed));
        agg.tasks += r.tasks.load(Ordering::Relaxed);
        agg.busy_ns += busy;
        agg.park_ns += worker.saturating_sub(busy);
        agg.wake_ns += r.wake_ns.load(Ordering::Relaxed);
        agg.wall_ns += wall;
        agg.serial_est_ns += r.serial_est_ns.load(Ordering::Relaxed);
        agg.max_chunk_ns = agg.max_chunk_ns.max(r.max_chunk_ns.load(Ordering::Relaxed));
        agg.min_chunk_ns = agg.min_chunk_ns.min(r.min_chunk_ns.load(Ordering::Relaxed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual() -> (ManualClock, Profiler) {
        let time = ManualClock::new();
        let prof = Profiler::new(7, Arc::new(time.clone()));
        (time, prof)
    }

    #[test]
    fn disabled_scope_is_inert() {
        let _s = scope("nothing");
        let _b = scope_bytes("nothing", 123);
        let dump = Profiler::disabled().dump();
        assert!(dump.stacks.is_empty() && dump.pools.is_empty());
    }

    #[test]
    fn scripted_tree_matches_hand_computation() {
        let (time, prof) = manual();
        {
            let _g = prof.install();
            for _ in 0..2 {
                let _train = scope("train_step");
                time.advance(Duration::from_nanos(100));
                {
                    let _mm = scope_bytes("matmul", 64);
                    time.advance(Duration::from_nanos(40));
                }
                {
                    let _mm = scope_bytes("matmul", 64);
                    time.advance(Duration::from_nanos(60));
                }
                time.advance(Duration::from_nanos(10));
            }
        }
        let dump = prof.dump();
        assert_eq!(dump.node, 7);
        assert_eq!(dump.stacks.len(), 2);
        let train = &dump.stacks[0];
        assert_eq!(
            (
                train.stack.as_str(),
                train.count,
                train.total_ns,
                train.self_ns
            ),
            ("train_step", 2, 420, 220)
        );
        let mm = &dump.stacks[1];
        assert_eq!(
            (
                mm.stack.as_str(),
                mm.count,
                mm.total_ns,
                mm.self_ns,
                mm.bytes
            ),
            ("train_step;matmul", 4, 200, 200, 256)
        );
    }

    #[test]
    fn sibling_scopes_with_the_same_name_share_a_node() {
        let (time, prof) = manual();
        {
            let _g = prof.install();
            for _ in 0..3 {
                let _s = scope("encode");
                time.advance(Duration::from_nanos(5));
            }
        }
        let dump = prof.dump();
        assert_eq!(dump.stacks.len(), 1);
        assert_eq!(dump.stacks[0].count, 3);
        assert_eq!(dump.stacks[0].total_ns, 15);
    }

    #[test]
    fn install_restores_previous_profiler() {
        let (time, outer_prof) = manual();
        let (_, inner_prof) = manual();
        {
            let _outer = outer_prof.install();
            {
                let _inner = inner_prof.install();
                let _s = scope("inner_only");
                time.advance(Duration::from_nanos(1));
            }
            // Back on the outer profiler.
            let _s = scope("outer_only");
        }
        assert_eq!(inner_prof.dump().stacks[0].stack, "inner_only");
        assert_eq!(outer_prof.dump().stacks[0].stack, "outer_only");
    }

    #[test]
    fn lanes_from_many_threads_merge_deterministically() {
        let (_, prof) = manual();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let prof = prof.clone();
                s.spawn(move || {
                    let _g = prof.install();
                    let _s = scope("worker_op");
                });
            }
        });
        let dump = prof.dump();
        assert_eq!(dump.stacks.len(), 1);
        assert_eq!(dump.stacks[0].count, 4);
    }

    #[test]
    fn pool_region_records_busy_park_and_chunks() {
        let (time, prof) = manual();
        {
            let _g = prof.install();
            let _s = scope("matmul");
            let region = PoolRegion::begin("par");
            assert!(region.active());
            let w = region.worker_start();
            let t = region.task_start();
            time.advance(Duration::from_nanos(30));
            region.task_end(t);
            let t = region.task_start();
            time.advance(Duration::from_nanos(70));
            region.task_end(t);
            time.advance(Duration::from_nanos(25)); // parked tail
            region.worker_end(w);
            region.finish();
        }
        let dump = prof.dump();
        assert_eq!(dump.pools.len(), 1);
        let p = &dump.pools[0];
        assert_eq!(p.region, "matmul");
        assert_eq!(
            (p.dispatches, p.max_workers, p.tasks, p.busy_ns, p.park_ns),
            (1, 1, 2, 100, 25)
        );
        assert_eq!((p.wall_ns, p.max_chunk_ns, p.min_chunk_ns), (125, 70, 30));
    }

    #[test]
    fn pool_region_without_profiler_is_inert() {
        let region = PoolRegion::begin("par");
        assert!(!region.active());
        let t = region.task_start();
        region.task_end(t);
        region.finish();
    }

    #[test]
    fn unbalanced_open_scope_is_discarded_on_commit() {
        let (time, prof) = manual();
        {
            let _g = prof.install();
            let open = scope("closed");
            time.advance(Duration::from_nanos(10));
            drop(open);
            let leaked = scope("still_open");
            time.advance(Duration::from_nanos(99));
            std::mem::forget(leaked);
        }
        // Only the balanced scope survives the commit; re-install to
        // clear the leaked frame's thread state.
        let dump = prof.dump();
        assert_eq!(dump.stacks.len(), 1);
        assert_eq!(dump.stacks[0].stack, "closed");
    }
}
