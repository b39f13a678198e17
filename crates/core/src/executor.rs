//! Patch-parallel kernel executor: a persistent work-stealing worker pool
//! shared through [`crate::Services`] the way the [`Profiler`] is.
//!
//! # Why ownership transfer
//!
//! The workspace forbids `unsafe` (`unsafe_code = "deny"`), which rules
//! out the classic scoped-threads trick of lending `&mut` patch views into
//! long-lived worker threads. Instead the executor runs *owned* work
//! items: the caller moves each item (typically one SAMR patch's data)
//! into a job, workers mutate it through the shared kernel closure, and
//! every item is sent back over a channel and reassembled **in index
//! order**. Disjointness is therefore a fact of ownership, not a promise:
//! two workers cannot alias a patch because each patch is owned by exactly
//! one job.
//!
//! # Determinism
//!
//! The kernel runs the same code whether the pool has one worker or many —
//! at `workers == 1` the executor simply runs the jobs inline in index
//! order. Because jobs only touch the item they own and results are
//! reassembled by index, a run with N workers is bit-identical to the
//! serial run for any kernel that is a pure function of its item.
//!
//! # Panic containment
//!
//! A panicking kernel never takes down the pool and never loses a patch:
//! each job wraps the kernel in `catch_unwind` while *borrowing* its item,
//! so the item survives the panic and is returned alongside a
//! [`KernelFailure`]. [`RunReport::into_result`] turns any failure into a
//! poisoned-run error listing every failed index.

use crate::profile::Profiler;
use crossbeam::deque::{Injector, Steal, Stealer, Worker as LocalQueue};
use parking_lot::{Condvar, Mutex};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

/// Environment variable consulted by [`crate::Framework::new`] for the
/// initial worker count (a positive integer; `1` means serial).
pub const WORKERS_ENV: &str = "CCA_HYDRO_THREADS";

/// A type-erased job: receives the index of the worker executing it.
type Job = Box<dyn FnOnce(usize) + Send>;

/// One kernel invocation that panicked.
#[derive(Clone, Debug)]
pub struct KernelFailure {
    /// Index of the work item whose kernel panicked.
    pub index: usize,
    /// The panic payload, stringified.
    pub message: String,
}

impl std::fmt::Display for KernelFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "item {}: {}", self.index, self.message)
    }
}

/// Outcome of one [`Executor::run`]: every item comes back (in submission
/// order) even when kernels panicked.
#[derive(Debug)]
pub struct RunReport<T> {
    /// The work items, in the order they were submitted. Items whose
    /// kernel panicked are returned in whatever intermediate state the
    /// kernel left them.
    pub items: Vec<T>,
    /// Kernel panics, sorted by item index; empty on a clean run.
    pub failures: Vec<KernelFailure>,
    /// Busy seconds per worker (length = workers used for this run).
    pub worker_busy: Vec<f64>,
    /// Kernel seconds per item, in submission order. Summed over a
    /// worker these add up to that worker's `worker_busy` entry; the
    /// caller can use them to model makespans under other worker counts.
    pub item_busy: Vec<f64>,
}

impl<T> RunReport<T> {
    /// True if any kernel panicked.
    pub fn poisoned(&self) -> bool {
        !self.failures.is_empty()
    }

    /// The items on a clean run, or a poisoned-run error naming every
    /// failed item.
    pub fn into_result(self) -> Result<Vec<T>, String> {
        if self.failures.is_empty() {
            return Ok(self.items);
        }
        let list: Vec<String> = self.failures.iter().map(|f| f.to_string()).collect();
        Err(format!(
            "executor run poisoned: {} of {} kernels panicked [{}]",
            self.failures.len(),
            self.items.len(),
            list.join("; ")
        ))
    }
}

/// What a finished job sends home.
struct Done<T> {
    index: usize,
    item: T,
    worker: usize,
    busy: f64,
    panic: Option<String>,
}

struct PoolState {
    /// Monotone count of submitted runs; workers compare against their
    /// last observed value to decide whether sleeping is safe (see
    /// [`worker_loop`]).
    tickets: u64,
    shutdown: bool,
}

struct PoolShared {
    injector: Injector<Job>,
    stealers: Vec<Stealer<Job>>,
    state: Mutex<PoolState>,
    signal: Condvar,
}

/// Persistent worker threads around a global injector plus per-worker
/// work-stealing deques.
struct Pool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    workers: usize,
}

impl Pool {
    fn new(workers: usize) -> Self {
        let locals: Vec<LocalQueue<Job>> = (0..workers).map(|_| LocalQueue::new_fifo()).collect();
        let stealers = locals.iter().map(LocalQueue::stealer).collect();
        let shared = Arc::new(PoolShared {
            injector: Injector::new(),
            stealers,
            state: Mutex::new(PoolState {
                tickets: 0,
                shutdown: false,
            }),
            signal: Condvar::new(),
        });
        let handles = locals
            .into_iter()
            .enumerate()
            .map(|(k, local)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cca-exec-{k}"))
                    .spawn(move || worker_loop(k, local, &shared))
                    .expect("spawn executor worker")
            })
            .collect();
        Pool {
            shared,
            handles,
            workers,
        }
    }

    /// Queue every job of one run, then publish them with a single ticket
    /// bump and a single wakeup (not one mutex round trip per job).
    fn submit_all(&self, jobs: impl Iterator<Item = Job>) {
        for job in jobs {
            self.shared.injector.push(job);
        }
        self.shared.state.lock().tickets += 1;
        self.shared.signal.notify_all();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
        }
        self.shared.signal.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// No lost wakeup: a run pushes all its jobs *before* it bumps `tickets`,
/// and the bump and a worker's decision to sleep are both made under the
/// state mutex. A worker that reads the new ticket value searches again
/// with every job of the run already visible; a worker that read the old
/// one finds `tickets != seen_tickets` at its next check and searches
/// instead of sleeping.
fn worker_loop(me: usize, local: LocalQueue<Job>, shared: &PoolShared) {
    let mut seen_tickets = 0u64;
    loop {
        if let Some(job) = find_job(&local, shared) {
            job(me);
            continue;
        }
        let mut st = shared.state.lock();
        if st.shutdown {
            return;
        }
        if st.tickets == seen_tickets {
            shared.signal.wait(&mut st);
        }
        if st.shutdown {
            return;
        }
        seen_tickets = st.tickets;
    }
}

/// Local queue first, then a batch from the global injector, then steal
/// from a sibling — the standard crossbeam-deque search order.
fn find_job(local: &LocalQueue<Job>, shared: &PoolShared) -> Option<Job> {
    if let Some(job) = local.pop() {
        return Some(job);
    }
    loop {
        match shared.injector.steal_batch_and_pop(local) {
            Steal::Success(job) => return Some(job),
            Steal::Empty => break,
            Steal::Retry => continue,
        }
    }
    for stealer in &shared.stealers {
        loop {
            match stealer.steal() {
                Steal::Success(job) => return Some(job),
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
    }
    None
}

/// Cheap cumulative counters of everything an [`Executor`] has done since
/// construction — the machine-readable snapshot a serving tier embeds in
/// its own stats instead of parsing profiler text.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Currently configured worker count.
    pub workers: usize,
    /// Completed [`Executor::run`] invocations.
    pub runs: u64,
    /// Work items executed across all runs (including panicked ones).
    pub items: u64,
    /// Kernel panics contained by `catch_unwind` across all runs.
    pub poisonings: u64,
}

impl ExecutorStats {
    /// Merge another snapshot into this one (counters add; `workers`
    /// takes the other's value so the merged snapshot reflects the most
    /// recently observed configuration).
    pub fn absorb(&mut self, other: &ExecutorStats) {
        self.workers = other.workers;
        self.runs += other.runs;
        self.items += other.items;
        self.poisonings += other.poisonings;
    }
}

struct ExecCore {
    workers: usize,
    pool: Option<Pool>,
    runs: u64,
    items: u64,
    poisonings: u64,
}

impl ExecCore {
    /// The pool matching the configured worker count, created on first
    /// parallel use and kept across runs (persistent threads).
    fn pool(&mut self) -> &Pool {
        if self.pool.as_ref().is_none_or(|p| p.workers != self.workers) {
            self.pool = Some(Pool::new(self.workers));
        }
        self.pool.as_ref().expect("pool just ensured")
    }
}

/// Cheap-to-clone handle to the framework's patch-kernel executor.
///
/// Handed to components through [`crate::Services::executor`] exactly like
/// the [`Profiler`]; all clones share the worker-count setting and the
/// underlying pool. The handle itself is single-threaded (`Rc`-based, like
/// everything at the framework layer); only the pool's internals are
/// shared across threads.
#[derive(Clone)]
pub struct Executor {
    core: Rc<RefCell<ExecCore>>,
    profiler: Profiler,
}

impl Executor {
    /// New serial executor (one worker, inline execution) reporting kernel
    /// times into `profiler`.
    pub fn new(profiler: Profiler) -> Self {
        Executor {
            core: Rc::new(RefCell::new(ExecCore {
                workers: 1,
                pool: None,
                runs: 0,
                items: 0,
                poisonings: 0,
            })),
            profiler,
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.core.borrow().workers
    }

    /// The profiler this executor reports run times into, so callers can
    /// attach extra per-label stats (e.g. cell counts) to the same timers.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Snapshot of the cumulative run/item/poisoning counters. O(1), no
    /// allocation — cheap enough to call after every run.
    pub fn stats(&self) -> ExecutorStats {
        let core = self.core.borrow();
        ExecutorStats {
            workers: core.workers,
            runs: core.runs,
            items: core.items,
            poisonings: core.poisonings,
        }
    }

    /// Set the worker count (clamped to at least 1). At `1` kernels run
    /// inline on the calling thread; above `1` a persistent pool of that
    /// many worker threads executes them. Takes effect on the next run;
    /// all [`Executor`] clones (every component's `Services`) observe it.
    pub fn set_workers(&self, workers: usize) {
        let workers = workers.max(1);
        let mut core = self.core.borrow_mut();
        if core.workers != workers {
            core.workers = workers;
            // Drop eagerly so a shrink releases its threads now, not at
            // the next run.
            core.pool = None;
        }
    }

    /// Parse a `CCA_HYDRO_THREADS`-style setting. `None`, empty, zero, or
    /// garbage all mean "serial".
    pub fn workers_from_env_value(value: Option<&str>) -> usize {
        value
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(1)
    }

    /// Execute `kernel` once per item, concurrently across the worker
    /// pool, and hand every item back in submission order.
    ///
    /// The kernel receives `(index, &mut item)`. Items are moved into jobs
    /// (ownership = disjointness; see the module docs) and reassembled by
    /// index, so the result is independent of scheduling.
    ///
    /// When profiling is enabled, each item's kernel time is recorded
    /// under the plain `label` (one call per item, exactly like a
    /// profiler scope around a serial per-patch loop), and — on genuinely
    /// parallel runs — per-worker busy totals are additionally recorded
    /// as `{label}[w{k}]`.
    pub fn run<T, F>(&self, label: &str, items: Vec<T>, kernel: F) -> RunReport<T>
    where
        T: Send + 'static,
        F: Fn(usize, &mut T) + Send + Sync + 'static,
    {
        let mut core = self.core.borrow_mut();
        let report = if core.workers <= 1 || items.len() <= 1 {
            run_serial(items, &kernel)
        } else {
            run_parallel(core.pool(), items, kernel)
        };
        self.account(core, label, report)
    }

    /// Like [`Executor::run`] but items *start* in descending `priority`
    /// order (stable: equal priorities keep submission order) instead of
    /// index order. Results still come back in submission order, and —
    /// because each kernel is a pure function of its own item — they are
    /// bit-identical to a plain `run` at any worker count; only the
    /// schedule changes.
    ///
    /// The integrator uses this to start boundary-adjacent patches first:
    /// their results are what the next ghost exchange (and, distributed,
    /// the next halo message) waits on, so front-loading them shortens the
    /// critical path.
    pub fn run_with_priority<T, F, P>(
        &self,
        label: &str,
        items: Vec<T>,
        priority: P,
        kernel: F,
    ) -> RunReport<T>
    where
        T: Send + 'static,
        F: Fn(usize, &mut T) + Send + Sync + 'static,
        P: Fn(usize, &T) -> i64,
    {
        let prio: Vec<i64> = items
            .iter()
            .enumerate()
            .map(|(i, item)| priority(i, item))
            .collect();
        let mut order: Vec<usize> = (0..items.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(prio[i]));
        let mut core = self.core.borrow_mut();
        let report = if core.workers <= 1 || items.len() <= 1 {
            run_serial_ordered(items, &order, &kernel)
        } else {
            run_parallel_ordered(core.pool(), items, &order, kernel)
        };
        self.account(core, label, report)
    }

    fn account<T>(
        &self,
        mut core: std::cell::RefMut<'_, ExecCore>,
        label: &str,
        report: RunReport<T>,
    ) -> RunReport<T> {
        core.runs += 1;
        core.items += report.items.len() as u64;
        core.poisonings += report.failures.len() as u64;
        drop(core);
        if self.profiler.is_enabled() {
            for busy in &report.item_busy {
                self.profiler.record(label, *busy);
            }
            if report.worker_busy.len() > 1 {
                for (k, busy) in report.worker_busy.iter().enumerate() {
                    if *busy > 0.0 {
                        self.profiler.record(&format!("{label}[w{k}]"), *busy);
                    }
                }
            }
        }
        report
    }
}

fn run_serial<T, F>(mut items: Vec<T>, kernel: &F) -> RunReport<T>
where
    F: Fn(usize, &mut T),
{
    let mut failures = Vec::new();
    let mut item_busy = Vec::with_capacity(items.len());
    for (i, item) in items.iter_mut().enumerate() {
        let start = Instant::now();
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| kernel(i, item))) {
            failures.push(KernelFailure {
                index: i,
                message: panic_message(payload.as_ref()),
            });
        }
        item_busy.push(start.elapsed().as_secs_f64());
    }
    RunReport {
        items,
        failures,
        worker_busy: vec![item_busy.iter().sum()],
        item_busy,
    }
}

/// [`run_serial`] with an explicit execution order (result layout is
/// still submission order; a pure kernel makes the two bit-identical).
fn run_serial_ordered<T, F>(mut items: Vec<T>, order: &[usize], kernel: &F) -> RunReport<T>
where
    F: Fn(usize, &mut T),
{
    let mut failures = Vec::new();
    let mut item_busy = vec![0.0; items.len()];
    for &i in order {
        let start = Instant::now();
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| kernel(i, &mut items[i]))) {
            failures.push(KernelFailure {
                index: i,
                message: panic_message(payload.as_ref()),
            });
        }
        item_busy[i] = start.elapsed().as_secs_f64();
    }
    failures.sort_by_key(|f| f.index);
    RunReport {
        items,
        failures,
        worker_busy: vec![item_busy.iter().sum()],
        item_busy,
    }
}

fn run_parallel<T, F>(pool: &Pool, items: Vec<T>, kernel: F) -> RunReport<T>
where
    T: Send + 'static,
    F: Fn(usize, &mut T) + Send + Sync + 'static,
{
    let order: Vec<usize> = (0..items.len()).collect();
    run_parallel_ordered(pool, items, &order, kernel)
}

/// [`run_parallel`] with an explicit submission order: earlier-submitted
/// jobs are picked up by workers first, so `order` is a soft execution
/// priority (work stealing may still interleave).
fn run_parallel_ordered<T, F>(
    pool: &Pool,
    items: Vec<T>,
    order: &[usize],
    kernel: F,
) -> RunReport<T>
where
    T: Send + 'static,
    F: Fn(usize, &mut T) + Send + Sync + 'static,
{
    let n = items.len();
    let kernel = Arc::new(kernel);
    let (tx, rx) = mpsc::channel::<Done<T>>();
    let mut pending: Vec<Option<T>> = items.into_iter().map(Some).collect();
    pool.submit_all(order.iter().map(|&i| {
        let mut item = pending[i]
            .take()
            .expect("each index submitted exactly once");
        let kernel = Arc::clone(&kernel);
        let tx = tx.clone();
        Box::new(move |worker| {
            let start = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| kernel(i, &mut item)));
            let _ = tx.send(Done {
                index: i,
                item,
                worker,
                busy: start.elapsed().as_secs_f64(),
                panic: outcome.err().map(|p| panic_message(p.as_ref())),
            });
        }) as Job
    }));
    drop(tx);

    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut worker_busy = vec![0.0; pool.workers];
    let mut item_busy = vec![0.0; n];
    let mut failures = Vec::new();
    for _ in 0..n {
        let done = rx
            .recv()
            .expect("catch_unwind guarantees every job reports");
        worker_busy[done.worker.min(pool.workers - 1)] += done.busy;
        item_busy[done.index] = done.busy;
        if let Some(message) = done.panic {
            failures.push(KernelFailure {
                index: done.index,
                message,
            });
        }
        slots[done.index] = Some(done.item);
    }
    failures.sort_by_key(|f| f.index);
    RunReport {
        items: slots
            .into_iter()
            .map(|s| s.expect("each index reports exactly once"))
            .collect(),
        failures,
        worker_busy,
        item_busy,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "kernel panicked (non-string payload)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec(workers: usize) -> Executor {
        let e = Executor::new(Profiler::new());
        e.set_workers(workers);
        e
    }

    #[test]
    fn serial_and_parallel_agree_bitwise() {
        let items: Vec<(usize, f64)> = (0..64).map(|i| (i, i as f64 * 0.1)).collect();
        let kernel = |_: usize, it: &mut (usize, f64)| {
            for _ in 0..100 {
                it.1 = (it.1 * 1.000001).sin().mul_add(0.5, it.1);
            }
        };
        let serial = exec(1)
            .run("k", items.clone(), kernel)
            .into_result()
            .unwrap();
        for workers in [2, 4] {
            let par = exec(workers)
                .run("k", items.clone(), kernel)
                .into_result()
                .unwrap();
            assert_eq!(serial.len(), par.len());
            for (s, p) in serial.iter().zip(&par) {
                assert_eq!(s.0, p.0);
                assert_eq!(s.1.to_bits(), p.1.to_bits(), "item {}", s.0);
            }
        }
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let items: Vec<usize> = (0..100).collect();
        let report = exec(4).run("order", items, |i, it| {
            // Uneven work so completion order scrambles.
            std::thread::sleep(std::time::Duration::from_micros(((i * 7) % 13) as u64));
            *it += 1000;
        });
        assert!(!report.poisoned());
        for (i, it) in report.items.iter().enumerate() {
            assert_eq!(*it, 1000 + i);
        }
    }

    #[test]
    fn priority_controls_serial_execution_order_but_not_results() {
        let started: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&started);
        let items: Vec<usize> = (0..8).collect();
        // Even indices are "boundary" items and must start first.
        let report = exec(1).run_with_priority(
            "prio",
            items,
            |i, _| if i % 2 == 0 { 1 } else { 0 },
            move |i, it| {
                log.lock().push(i);
                *it += 100;
            },
        );
        assert!(!report.poisoned());
        // Results in submission order regardless of schedule.
        for (i, it) in report.items.iter().enumerate() {
            assert_eq!(*it, 100 + i);
        }
        // Evens first (stable within each class), then odds.
        assert_eq!(*started.lock(), vec![0, 2, 4, 6, 1, 3, 5, 7]);
    }

    #[test]
    fn priority_run_matches_plain_run_bitwise_at_any_worker_count() {
        let items: Vec<(usize, f64)> = (0..48).map(|i| (i, i as f64 * 0.3)).collect();
        let kernel = |_: usize, it: &mut (usize, f64)| {
            for _ in 0..50 {
                it.1 = (it.1 * 1.000001).sin().mul_add(0.5, it.1);
            }
        };
        let plain = exec(1)
            .run("k", items.clone(), kernel)
            .into_result()
            .unwrap();
        for workers in [1, 4] {
            let prioritized = exec(workers)
                .run_with_priority("k", items.clone(), |i, _| -(i as i64 % 5), kernel)
                .into_result()
                .unwrap();
            for (s, p) in plain.iter().zip(&prioritized) {
                assert_eq!(s.0, p.0);
                assert_eq!(s.1.to_bits(), p.1.to_bits(), "item {}", s.0);
            }
        }
    }

    #[test]
    fn priority_run_contains_panics_like_plain_run() {
        let report = exec(1).run_with_priority(
            "p",
            (0..10).collect::<Vec<i32>>(),
            |i, _| -(i as i64),
            |i, it| {
                if i == 4 {
                    panic!("boom at {i}");
                }
                *it += 1;
            },
        );
        assert!(report.poisoned());
        assert_eq!(report.items.len(), 10);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].index, 4);
    }

    #[test]
    fn panic_poisons_but_loses_nothing() {
        for workers in [1, 3] {
            let items: Vec<i32> = (0..20).collect();
            let report = exec(workers).run("p", items, |i, it| {
                if i % 7 == 3 {
                    panic!("boom at {i}");
                }
                *it = -*it;
            });
            assert!(report.poisoned());
            assert_eq!(report.items.len(), 20, "no lost items");
            let failed: Vec<usize> = report.failures.iter().map(|f| f.index).collect();
            assert_eq!(failed, vec![3, 10, 17]);
            assert!(report.failures[0].message.contains("boom at 3"));
            let err = report.into_result().unwrap_err();
            assert!(err.contains("poisoned"), "{err}");
            assert!(err.contains("boom at 10"), "{err}");
        }
    }

    #[test]
    fn pool_survives_across_runs_and_resizes() {
        let e = exec(3);
        for round in 0..5 {
            let out = e
                .run("r", vec![round; 16], |_, it| *it *= 2)
                .into_result()
                .unwrap();
            assert_eq!(out, vec![round * 2; 16]);
        }
        e.set_workers(2);
        let out = e
            .run("r", vec![1; 8], |_, it| *it += 1)
            .into_result()
            .unwrap();
        assert_eq!(out, vec![2; 8]);
        assert_eq!(e.workers(), 2);
    }

    #[test]
    fn profiler_gets_per_worker_records() {
        let profiler = Profiler::new();
        profiler.set_enabled(true);
        let e = Executor::new(profiler.clone());
        e.set_workers(2);
        let report = e.run("diff.rhs", (0..32).collect::<Vec<i32>>(), |_, it| {
            *it = it.wrapping_mul(3);
        });
        assert!(!report.poisoned());
        assert_eq!(report.worker_busy.len(), 2);
        let stats = profiler.stats();
        assert!(
            stats.iter().any(|(name, _)| name.starts_with("diff.rhs[w")),
            "no per-worker timer in {stats:?}"
        );
    }

    #[test]
    fn stats_count_runs_items_and_poisonings() {
        let e = exec(2);
        assert_eq!(e.stats(), ExecutorStats::default().with_workers(2));
        e.run("a", vec![0i32; 8], |_, it| *it += 1);
        let report = e.run("b", (0..4).collect::<Vec<i32>>(), |i, _| {
            if i == 2 {
                panic!("boom");
            }
        });
        assert!(report.poisoned());
        let s = e.stats();
        assert_eq!(s.runs, 2);
        assert_eq!(s.items, 12);
        assert_eq!(s.poisonings, 1);
        assert_eq!(s.workers, 2);
        // Snapshots merge additively.
        let mut agg = ExecutorStats::default();
        agg.absorb(&s);
        agg.absorb(&s);
        assert_eq!(agg.runs, 4);
        assert_eq!(agg.items, 24);
        assert_eq!(agg.poisonings, 2);
    }

    impl ExecutorStats {
        fn with_workers(mut self, workers: usize) -> Self {
            self.workers = workers;
            self
        }
    }

    #[test]
    fn env_value_parsing() {
        assert_eq!(Executor::workers_from_env_value(None), 1);
        assert_eq!(Executor::workers_from_env_value(Some("")), 1);
        assert_eq!(Executor::workers_from_env_value(Some("0")), 1);
        assert_eq!(Executor::workers_from_env_value(Some("junk")), 1);
        assert_eq!(Executor::workers_from_env_value(Some(" 4 ")), 4);
    }
}
