//! The deterministic parallel execution engine for the synchronous
//! variants.
//!
//! Opt-in via [`TcfMachine::set_engine`] or the `TCF_ENGINE` environment
//! variable (`seq` or `par:<workers>`). The engine shards the two
//! embarrassingly parallel regions of a synchronous step across a
//! persistent worker pool, keeping the step phases as barriers:
//!
//! * **phase 1, thick execution** — a thick instruction's fragments live on
//!   *distinct* processor groups, per-lane operations never read another
//!   lane's same-instruction writes, and local memories are per-group, so
//!   each fragment executes on its own worker against a read-only view of
//!   the registers, producing a [`FragOut`] (issue units, memory
//!   references, a register write log, a local-memory undo log). The
//!   coordinator merges the outputs in fragment order, replaying register
//!   writes through the exact `ThickRegs::set` sequence the sequential
//!   engine performs — bit-identical down to the `Uniform`/`PerThread`
//!   representation.
//! * **phase 2, shared-memory step** — an address maps to exactly one
//!   module, so per-module reference buckets resolve concurrently
//!   ([`SharedMemory::resolve_shard`]); every ordering-sensitive decision
//!   (CRCW winner, multiprefix order) is derived from thread ranks inside
//!   the shard, and the staged results commit atomically.
//!
//! Flow-wise instructions, NUMA slices and the timing phase stay on the
//! coordinator: flows interact (split/join/bunch absorption, shared local
//! memories), and the network's link/service reservations are
//! order-dependent, so parallelizing them could not be bit-identical. See
//! `docs/PARALLEL.md` for the full determinism argument.
//!
//! What runs on the pool is `crate::thick_exec`'s, shared with the
//! sequential engine; this file holds the engine switch, the pool and the
//! two places a step hands work to it (`WorkerPool::run_slices`,
//! `TcfMachine::memory_step_sharded`).
//!
//! [`SharedMemory::resolve_shard`]: tcf_mem::SharedMemory::resolve_shard

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use tcf_mem::{LocalMemory, MemError, MemRef, ShardOutcome, StepStats};

use crate::error::TcfError;
use crate::machine::TcfMachine;
use crate::thick_exec::FragOut;

/// Which execution engine a machine steps with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The default single-threaded engine.
    Sequential,
    /// The deterministic parallel engine: fragment and memory-module work
    /// sharded over `workers` host threads (the coordinating thread counts
    /// as one worker). `workers == 1` exercises the parallel code path
    /// without spawning threads.
    Parallel {
        /// Total worker count, coordinator included (clamped to ≥ 1).
        workers: usize,
    },
}

impl Engine {
    /// Parses an engine spec: `seq`/`sequential` or `par:<workers>`.
    pub fn from_spec(spec: &str) -> Option<Engine> {
        let s = spec.trim();
        if s.eq_ignore_ascii_case("seq") || s.eq_ignore_ascii_case("sequential") {
            return Some(Engine::Sequential);
        }
        let n = s.strip_prefix("par:")?;
        let workers: usize = n.trim().parse().ok()?;
        Some(Engine::Parallel {
            workers: workers.max(1),
        })
    }

    /// The engine selected by the `TCF_ENGINE` environment variable
    /// (`Sequential` when unset or unparseable).
    pub fn from_env() -> Engine {
        std::env::var("TCF_ENGINE")
            .ok()
            .and_then(|s| Engine::from_spec(&s))
            .unwrap_or(Engine::Sequential)
    }

    /// Whether this is the parallel engine.
    pub fn is_parallel(&self) -> bool {
        matches!(self, Engine::Parallel { .. })
    }
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

type StaticTask = Box<dyn FnOnce() + Send + 'static>;

struct BatchState {
    remaining: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct Batch {
    state: Mutex<BatchState>,
    done: Condvar,
}

struct PoolInner {
    queue: Mutex<VecDeque<StaticTask>>,
    work_ready: Condvar,
}

/// A persistent pool of host worker threads. Pools are process-global
/// (keyed by worker count, see [`global_pool`]) so repeated short steps
/// reuse warm threads instead of paying a spawn per step; idle workers
/// park on a condvar.
pub struct WorkerPool {
    inner: Arc<PoolInner>,
    workers: usize,
}

impl WorkerPool {
    /// A pool where `workers` threads (including the calling coordinator)
    /// drain each batch; `workers - 1` background threads are spawned.
    fn new(workers: usize) -> WorkerPool {
        let inner = Arc::new(PoolInner {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
        });
        for _ in 1..workers {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("tcf-par-worker".into())
                .spawn(move || worker_loop(inner))
                .expect("spawn pool worker");
        }
        WorkerPool { inner, workers }
    }

    /// Total worker count (coordinator included).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `tasks` to completion across the pool. The calling thread
    /// participates in draining the queue, then blocks until the last task
    /// finishes; a panicking task is re-raised here after the whole batch
    /// has drained.
    pub fn run<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        if tasks.is_empty() {
            return;
        }
        let batch = Arc::new(Batch {
            state: Mutex::new(BatchState {
                remaining: tasks.len(),
                panic: None,
            }),
            done: Condvar::new(),
        });
        {
            let mut queue = self.inner.queue.lock().expect("pool queue poisoned");
            for task in tasks {
                let b = Arc::clone(&batch);
                let wrapped: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(task));
                    let mut st = b.state.lock().expect("batch state poisoned");
                    st.remaining -= 1;
                    if let Err(p) = outcome {
                        st.panic.get_or_insert(p);
                    }
                    if st.remaining == 0 {
                        b.done.notify_all();
                    }
                });
                // SAFETY: `run` does not return before `remaining` reaches
                // zero (the wait below), so every borrow captured by the
                // task outlives its execution on whichever thread picks it
                // up. This is the scoped-thread guarantee, applied to a
                // persistent pool.
                let wrapped: StaticTask = unsafe {
                    std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, StaticTask>(wrapped)
                };
                queue.push_back(wrapped);
            }
            self.inner.work_ready.notify_all();
        }
        // The coordinator drains too — essential on hosts where it holds
        // the only runnable CPU, and it keeps `workers == 1` pools valid
        // with zero background threads.
        loop {
            let task = self
                .inner
                .queue
                .lock()
                .expect("pool queue poisoned")
                .pop_front();
            match task {
                Some(t) => t(),
                None => break,
            }
        }
        let mut st = batch.state.lock().expect("batch state poisoned");
        while st.remaining > 0 {
            st = batch.done.wait(st).expect("batch state poisoned");
        }
        if let Some(p) = st.panic.take() {
            drop(st);
            resume_unwind(p);
        }
    }

    /// Runs `step(out, local)` for every fragment output as one batch,
    /// handing each its fragment group's local memory. Fragments of one
    /// flow occupy distinct groups (the scheduler guarantees it), so this
    /// takes each `&mut` exactly once.
    pub(crate) fn run_slices(
        &self,
        outs: &mut [FragOut],
        locals: &mut [LocalMemory],
        step: impl Fn(&mut FragOut, &mut LocalMemory) + Sync,
    ) {
        let mut lm: Vec<Option<&mut LocalMemory>> = locals.iter_mut().map(Some).collect();
        let step = &step;
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(outs.len());
        for out in outs.iter_mut() {
            let local = lm[out.frag.group]
                .take()
                .expect("fragments of one flow have distinct groups");
            tasks.push(Box::new(move || step(out, local)));
        }
        self.run(tasks);
    }
}

fn worker_loop(inner: Arc<PoolInner>) {
    loop {
        let task = {
            let mut queue = inner.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(t) = queue.pop_front() {
                    break t;
                }
                queue = inner.work_ready.wait(queue).expect("pool queue poisoned");
            }
        };
        task();
    }
}

/// The process-global pool for `workers` total workers. Machines with the
/// same `par:<N>` engine share one pool; threads persist for the process
/// lifetime and park when idle.
pub fn global_pool(workers: usize) -> Arc<WorkerPool> {
    static POOLS: OnceLock<Mutex<HashMap<usize, Arc<WorkerPool>>>> = OnceLock::new();
    let pools = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut pools = pools.lock().expect("pool registry poisoned");
    Arc::clone(
        pools
            .entry(workers)
            .or_insert_with(|| Arc::new(WorkerPool::new(workers))),
    )
}

impl TcfMachine {
    /// The parallel engine's memory step: references bucketed per module,
    /// every non-empty bucket resolved as one pool task against its own
    /// scratch, and the staged outcomes committed together.
    pub(crate) fn memory_step_sharded(
        &mut self,
        pool: &WorkerPool,
        refs: &[MemRef],
    ) -> Result<StepStats, TcfError> {
        let mut stats = self
            .shared
            .shard_refs_into(refs, &mut self.mem_buckets)
            .map_err(|e| self.host_err(e.into()))?;
        let shared = &self.shared;
        let buckets = &self.mem_buckets;
        debug_assert_eq!(buckets.len(), self.shard_scratch.len());
        let n_active = buckets.iter().filter(|b| !b.is_empty()).count();
        let mut slots: Vec<Option<Result<ShardOutcome, MemError>>> = vec![None; n_active];
        {
            let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(n_active);
            let mut slot_iter = slots.iter_mut();
            // Zipping buckets with the per-module scratch keeps each
            // worker on its own buffers (workers only hold `&self.shared`).
            for (idxs, scratch) in buckets.iter().zip(self.shard_scratch.iter_mut()) {
                if idxs.is_empty() {
                    continue;
                }
                let slot = slot_iter.next().expect("one slot per active bucket");
                tasks.push(Box::new(move || {
                    *slot = Some(shared.resolve_shard_with(refs, idxs, scratch));
                }));
            }
            pool.run(tasks);
        }
        let mut outcomes: Vec<ShardOutcome> = Vec::with_capacity(slots.len());
        let mut fault: Option<MemError> = None;
        for slot in slots {
            match slot.expect("pool ran every task") {
                Ok(o) => outcomes.push(o),
                Err(e) => {
                    // The sequential step resolves addresses in ascending
                    // order: the lowest faulting address wins.
                    if fault.as_ref().map(|f| e.addr() < f.addr()).unwrap_or(true) {
                        fault = Some(e);
                    }
                }
            }
        }
        if let Some(e) = fault {
            return Err(self.host_err(e.into()));
        }
        self.mem_replies.clear();
        self.mem_replies.resize(refs.len(), None);
        for o in &outcomes {
            stats.hot_addrs += o.hot_addrs;
            stats.combined += o.combined;
            for &(i, v) in &o.replies {
                self.mem_replies[i] = Some(v);
            }
        }
        self.shared.commit_shards(&outcomes);
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn engine_spec_parsing() {
        assert_eq!(Engine::from_spec("seq"), Some(Engine::Sequential));
        assert_eq!(Engine::from_spec("Sequential"), Some(Engine::Sequential));
        assert_eq!(
            Engine::from_spec("par:4"),
            Some(Engine::Parallel { workers: 4 })
        );
        assert_eq!(
            Engine::from_spec(" par:1 "),
            Some(Engine::Parallel { workers: 1 })
        );
        // 0 workers clamps to 1 rather than deadlocking.
        assert_eq!(
            Engine::from_spec("par:0"),
            Some(Engine::Parallel { workers: 1 })
        );
        assert_eq!(Engine::from_spec("par"), None);
        assert_eq!(Engine::from_spec("par:x"), None);
        assert_eq!(Engine::from_spec(""), None);
    }

    #[test]
    fn pool_runs_all_tasks_with_borrows() {
        let pool = global_pool(4);
        let mut results = vec![0usize; 64];
        {
            let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
            for (i, slot) in results.iter_mut().enumerate() {
                tasks.push(Box::new(move || *slot = i * i));
            }
            pool.run(tasks);
        }
        for (i, &r) in results.iter().enumerate() {
            assert_eq!(r, i * i);
        }
    }

    #[test]
    fn single_worker_pool_drains_on_coordinator() {
        let pool = global_pool(1);
        let counter = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..16)
            .map(|_| {
                let c = &counter;
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(tasks);
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn pool_propagates_worker_panics() {
        let pool = global_pool(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
                Box::new(|| {}),
                Box::new(|| panic!("worker exploded")),
                Box::new(|| {}),
            ];
            pool.run(tasks);
        }));
        assert!(caught.is_err());
        // The pool survives a panicking batch.
        let ok = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![Box::new(|| {
            ok.fetch_add(1, Ordering::SeqCst);
        })];
        pool.run(tasks);
        assert_eq!(ok.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn global_pool_is_shared_per_worker_count() {
        let a = global_pool(3);
        let b = global_pool(3);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.workers(), 3);
    }
}
