//! A scoped work-stealing thread pool: the `rayon` API subset the
//! workspace needs, vendored dev-shim-style (the build environment has no
//! crates.io access).
//!
//! Design: [`Pool::scope`] collects tasks into per-worker FIFO deques
//! (round-robin at spawn time), then runs them on `threads` workers — the
//! calling thread plus the `threads − 1` helpers of a crew that
//! [`Pool::new`] spawns once and parks on a condvar between scopes. A
//! worker pops its own deque from the front and, when dry, **steals from
//! the back** of a victim's deque; steals are counted and reported. Tasks
//! may spawn further tasks (they receive the [`Scope`]); the scope returns
//! only when every task has finished. A panicking task poisons the scope —
//! the other workers bail out and the panic resumes on the caller once
//! every worker has left the scope, leaving the crew serving.
//!
//! Clones share one crew and their scopes take turns. A scope opened from
//! inside a task that already runs on the same crew cannot wait for the
//! crew (which is busy with the outer scope), so it runs on its calling
//! thread alone.
//!
//! Safety of the crew hand-off: the caller publishes a type-erased pointer
//! to the [`Scope`] under the crew mutex, helpers register themselves
//! (`working += 1`) under that same mutex before dereferencing it, and the
//! caller blocks until the job is retracted **and** `working` is back to
//! zero before the scope frame is allowed to unwind — so no helper can
//! touch the scope after it dies.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use reservoir_obs::LazyCounter;

/// Registry view of the per-scope `steals` tally (slow path only: a
/// worker popping its own queue never touches it).
static POOL_STEALS: LazyCounter = LazyCounter::new(
    "pool_steals_total",
    "tasks stolen from another worker's deque (all scopes, process-wide)",
);
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A task queued inside a scope; receives the scope so it can spawn more.
type Task<'scope> = Box<dyn FnOnce(&Scope<'scope>) + Send + 'scope>;

/// What one [`Pool::scope`] execution did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScopeReport {
    /// Tasks executed to completion.
    pub tasks: u64,
    /// Tasks a worker took from another worker's deque.
    pub steals: u64,
    /// Seconds each worker spent executing tasks (index = worker id; the
    /// calling thread is worker 0). Idle spinning is not counted.
    pub worker_busy_s: Vec<f64>,
}

impl ScopeReport {
    /// The busiest worker's task-execution seconds (the critical path of
    /// the parallel region).
    pub fn max_busy_s(&self) -> f64 {
        self.worker_busy_s.iter().copied().fold(0.0, f64::max)
    }

    /// Total task-execution seconds across all workers (CPU seconds).
    pub fn total_busy_s(&self) -> f64 {
        self.worker_busy_s.iter().sum()
    }
}

/// The execution context of one [`Pool::scope`] call. Tasks registered
/// with [`Scope::spawn`] run exactly once, on some worker of the scope.
pub struct Scope<'scope> {
    queues: Box<[Mutex<VecDeque<Task<'scope>>>]>,
    /// Tasks queued or running, not yet finished.
    pending: AtomicUsize,
    /// Round-robin cursor for queue assignment at spawn time.
    next: AtomicUsize,
    steals: AtomicU64,
    executed: AtomicU64,
    /// Set when a task panicked: the other workers stop taking tasks.
    panicked: AtomicBool,
    /// First caught panic payload; resumed on the caller once the scope
    /// is quiescent.
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
    busy_s: Box<[Mutex<f64>]>,
}

/// Decrements `pending` when a task finishes — including by panic, where
/// it also poisons the scope so the remaining workers exit.
struct TaskGuard<'a, 'scope> {
    scope: &'a Scope<'scope>,
}

impl Drop for TaskGuard<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.scope.panicked.store(true, Ordering::SeqCst);
        }
        self.scope.pending.fetch_sub(1, Ordering::SeqCst);
    }
}

impl<'scope> Scope<'scope> {
    fn new(workers: usize) -> Self {
        Scope {
            queues: (0..workers)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            pending: AtomicUsize::new(0),
            next: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            panicked: AtomicBool::new(false),
            panic_payload: Mutex::new(None),
            busy_s: (0..workers)
                .map(|_| Mutex::new(0.0))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        }
    }

    /// Queue a task; it will run exactly once before the scope returns
    /// (unless another task panics first, which aborts the scope).
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.pending.fetch_add(1, Ordering::SeqCst);
        let w = self.next.fetch_add(1, Ordering::Relaxed) % self.queues.len();
        self.queues[w]
            .lock()
            .expect("pool queue poisoned")
            .push_back(Box::new(f));
    }

    /// Own queue front first; then steal from the *back* of the first
    /// non-empty victim.
    fn pop(&self, me: usize) -> Option<Task<'scope>> {
        if let Some(t) = self.queues[me]
            .lock()
            .expect("pool queue poisoned")
            .pop_front()
        {
            return Some(t);
        }
        let n = self.queues.len();
        for off in 1..n {
            let victim = (me + off) % n;
            if let Some(t) = self.queues[victim]
                .lock()
                .expect("pool queue poisoned")
                .pop_back()
            {
                self.steals.fetch_add(1, Ordering::Relaxed);
                POOL_STEALS.inc();
                return Some(t);
            }
        }
        None
    }

    /// Worker loop: run tasks until none are pending anywhere (or the
    /// scope was poisoned by a panic). Task panics are caught here — the
    /// first payload is stashed for the caller to resume — so crew
    /// threads outlive a panicking scope.
    fn work(&self, me: usize) {
        let mut busy = 0.0f64;
        let mut idle_spins = 0u32;
        loop {
            if self.panicked.load(Ordering::Relaxed) {
                break;
            }
            match self.pop(me) {
                Some(task) => {
                    idle_spins = 0;
                    let start = Instant::now();
                    let guard = TaskGuard { scope: self };
                    let result = std::panic::catch_unwind(AssertUnwindSafe(|| task(self)));
                    drop(guard);
                    if let Err(payload) = result {
                        self.panicked.store(true, Ordering::SeqCst);
                        let mut slot = self.panic_payload.lock().expect("payload slot poisoned");
                        slot.get_or_insert(payload);
                        break;
                    }
                    busy += start.elapsed().as_secs_f64();
                    self.executed.fetch_add(1, Ordering::Relaxed);
                }
                None => {
                    // A running task elsewhere may still spawn more work;
                    // only an all-idle scope with nothing pending is done.
                    if self.pending.load(Ordering::SeqCst) == 0 {
                        break;
                    }
                    idle_spins += 1;
                    if idle_spins > 64 {
                        std::thread::sleep(Duration::from_micros(20));
                    } else {
                        std::thread::yield_now();
                    }
                }
            }
        }
        *self.busy_s[me].lock().expect("busy slot poisoned") += busy;
    }

    fn report(&self) -> ScopeReport {
        ScopeReport {
            tasks: self.executed.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            worker_busy_s: self
                .busy_s
                .iter()
                .map(|m| *m.lock().expect("busy slot poisoned"))
                .collect(),
        }
    }
}

/// The job a crew's helpers run: a type-erased pointer to the live
/// [`Scope`] plus the epoch that distinguishes it from the previous scope.
/// Helpers only dereference the pointer between job publication and
/// retraction, both of which happen under the crew mutex.
#[derive(Clone, Copy)]
struct CrewJob {
    scope: *const (),
    epoch: u64,
}

// SAFETY: the only field that is not `Send` is the scope pointer. It is
// handed between threads only under the crew's mutex, and the caller
// keeps the scope alive until every helper has signed off (`Crew::run`).
unsafe impl Send for CrewJob {}

/// State shared between a crew's callers and helper threads.
struct CrewShared {
    state: Mutex<CrewState>,
    /// Wakes helpers when a job is published (or shutdown is requested).
    job_cv: Condvar,
    /// Wakes the caller when the last helper leaves the current job.
    done_cv: Condvar,
}

thread_local! {
    /// Crews this thread is currently executing a scope of (caller or
    /// helper side). A nested `Pool::scope` on the same crew would
    /// deadlock — the inner publish waits for the outer job to drain,
    /// which waits for the nested task to finish — so `scope` consults
    /// this stack and runs reentrant calls on the calling thread.
    static ACTIVE_CREWS: std::cell::RefCell<Vec<*const CrewShared>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Marks `shared` active on this thread for the guard's lifetime.
struct CrewActivation(*const CrewShared);

impl CrewActivation {
    fn enter(shared: &CrewShared) -> CrewActivation {
        let p = shared as *const CrewShared;
        ACTIVE_CREWS.with(|v| v.borrow_mut().push(p));
        CrewActivation(p)
    }

    fn is_active(shared: &CrewShared) -> bool {
        let p = shared as *const CrewShared;
        ACTIVE_CREWS.with(|v| v.borrow().contains(&p))
    }
}

impl Drop for CrewActivation {
    fn drop(&mut self) {
        ACTIVE_CREWS.with(|v| {
            let popped = v.borrow_mut().pop();
            debug_assert_eq!(popped, Some(self.0), "crew activations must nest");
        });
    }
}

struct CrewState {
    job: Option<CrewJob>,
    /// Epoch of the most recently published job.
    epoch: u64,
    /// Helpers currently inside the published scope.
    working: usize,
    shutdown: bool,
}

/// The long-lived helper threads of a [`Pool`]. Dropping the last `Pool`
/// clone shuts the crew down and joins every helper.
struct Crew {
    shared: Arc<CrewShared>,
    handles: Vec<JoinHandle<()>>,
}

impl Crew {
    /// Spawn `threads − 1` helpers (worker ids `1..threads`).
    fn spawn(threads: usize) -> Crew {
        let shared = Arc::new(CrewShared {
            state: Mutex::new(CrewState {
                job: None,
                epoch: 0,
                working: 0,
                shutdown: false,
            }),
            job_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || helper_loop(&shared, w))
            })
            .collect();
        Crew { shared, handles }
    }

    /// Publish `scope` to the crew, work it from the calling thread too,
    /// then retract the job and wait until every helper has signed off —
    /// only then may the scope die.
    fn run(&self, scope: &Scope<'_>) {
        let shared = &*self.shared;
        let _active = CrewActivation::enter(shared);
        {
            let mut st = shared.state.lock().expect("crew state poisoned");
            // Pool clones share the crew; serialize scopes so one job's
            // pointer can never clobber another's.
            while st.job.is_some() || st.working > 0 {
                st = shared.done_cv.wait(st).expect("crew state poisoned");
            }
            st.epoch += 1;
            st.job = Some(CrewJob {
                scope: scope as *const Scope<'_> as *const (),
                epoch: st.epoch,
            });
        }
        shared.job_cv.notify_all();
        scope.work(0);
        // The caller's worker loop only returns once no tasks are pending,
        // but helpers may still be inside (or just entering) the scope:
        // retract the job so late wakers skip it, then wait them out.
        let mut st = shared.state.lock().expect("crew state poisoned");
        st.job = None;
        while st.working > 0 {
            st = shared.done_cv.wait(st).expect("crew state poisoned");
        }
        drop(st);
        // A sibling clone may be parked in the pre-publish wait above.
        shared.done_cv.notify_all();
    }
}

impl Drop for Crew {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("crew state poisoned");
            st.shutdown = true;
        }
        self.shared.job_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A crew helper: park on the condvar, register into each published job
/// under the lock, run the scope's worker loop, sign off.
fn helper_loop(shared: &CrewShared, me: usize) {
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("crew state poisoned");
            loop {
                if st.shutdown {
                    return;
                }
                match st.job {
                    Some(job) if job.epoch != last_epoch => {
                        st.working += 1;
                        break job;
                    }
                    _ => st = shared.job_cv.wait(st).expect("crew state poisoned"),
                }
            }
        };
        last_epoch = job.epoch;
        // SAFETY: `working` was incremented under the lock while the job
        // was still published, and the caller cannot leave its scope frame
        // until `working` drops back to zero — the Scope outlives this
        // dereference. The 'static lifetime is a lie confined to this
        // call: `Scope::work` never stores the reference.
        let scope = unsafe { &*(job.scope as *const Scope<'static>) };
        let _active = CrewActivation::enter(shared);
        scope.work(me);
        drop(_active);
        let mut st = shared.state.lock().expect("crew state poisoned");
        st.working -= 1;
        if st.working == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// A fixed-width scoped thread pool: the calling thread plus a crew of
/// `threads − 1` helpers spawned once and woken per [`Pool::scope`].
/// `threads == 1` runs everything on the calling thread with no helper
/// threads at all. Cloning a pool shares its crew.
#[derive(Clone)]
pub struct Pool {
    threads: usize,
    crew: Option<Arc<Crew>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl Pool {
    /// A pool of `threads` workers (the calling thread counts as one); its
    /// `threads − 1` helpers are spawned now and sleep on a condvar
    /// between scopes.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "a pool needs at least one worker");
        Pool {
            threads,
            crew: (threads > 1).then(|| Arc::new(Crew::spawn(threads))),
        }
    }

    /// Worker count, including the calling thread.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Helper threads this pool's crew runs (0 at one worker).
    pub fn helpers(&self) -> usize {
        self.crew.as_ref().map_or(0, |c| c.handles.len())
    }

    /// Whether `self` and `other` run on the same crew (clones of one
    /// pool). Pools without helpers share nothing.
    pub fn shares_crew_with(&self, other: &Pool) -> bool {
        match (&self.crew, &other.crew) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Run `f` to register tasks, then execute every task (including tasks
    /// spawned by tasks) on this pool's workers, returning `f`'s result
    /// and the execution report once **all** tasks have finished.
    ///
    /// Unlike `rayon::scope`, the registering closure runs to completion
    /// on the calling thread *before* workers start — the registration
    /// order is the FIFO order of each worker's initial deque.
    ///
    /// A scope opened from a task already running on this pool's crew
    /// runs on its calling thread alone (one worker). A panic in any task
    /// propagates out of this call after every worker has stopped; tasks
    /// not yet started are dropped unexecuted, and the crew keeps serving
    /// later scopes.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'env>) -> R) -> (R, ScopeReport) {
        let crew = self
            .crew
            .as_ref()
            .filter(|c| !CrewActivation::is_active(&c.shared));
        let scope = Scope::new(if crew.is_some() { self.threads } else { 1 });
        let result = f(&scope);
        match crew {
            Some(crew) => crew.run(&scope),
            None => scope.work(0),
        }
        if let Some(payload) = scope
            .panic_payload
            .lock()
            .expect("payload slot poisoned")
            .take()
        {
            std::panic::resume_unwind(payload);
        }
        (result, scope.report())
    }

    /// Run `body(chunk_index, chunk_range)` over the `chunk`-sized chunks
    /// of `0..len` (the last chunk may be short), one task per chunk.
    pub fn par_for_chunks<F>(&self, len: usize, chunk: usize, body: F) -> ScopeReport
    where
        F: Fn(usize, Range<usize>) + Sync,
    {
        let body = &body;
        let (_, report) = self.scope(|s| {
            for (i, r) in chunk_ranges(len, chunk).enumerate() {
                s.spawn(move |_| body(i, r));
            }
        });
        report
    }
}

/// Run two closures, `b` on a scoped thread and `a` on the caller, and
/// return both results (`rayon::join`'s shape). A panic in either side
/// propagates.
pub fn join<RA, RB>(a: impl FnOnce() -> RA + Send, b: impl FnOnce() -> RB + Send) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        let rb = hb.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
        (ra, rb)
    })
}

/// The `chunk`-sized chunk ranges of `0..len`, in order; the partition the
/// parallel scan distributes over workers. `len == 0` yields no chunks.
pub fn chunk_ranges(len: usize, chunk: usize) -> impl Iterator<Item = Range<usize>> {
    assert!(chunk >= 1, "chunk size must be at least 1");
    (0..len.div_ceil(chunk)).map(move |i| (i * chunk)..((i + 1) * chunk).min(len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU32;
    use std::thread::ThreadId;

    /// The threads that ran the `tasks` tasks of one scope on `pool`.
    fn workers_of_one_scope(pool: &Pool, tasks: usize) -> HashSet<ThreadId> {
        let ran = Mutex::new(HashSet::new());
        pool.scope(|s| {
            for _ in 0..tasks {
                let ran = &ran;
                s.spawn(move |_| {
                    // Long enough that helpers wake up and take a share.
                    std::thread::sleep(Duration::from_micros(200));
                    ran.lock().unwrap().insert(std::thread::current().id());
                });
            }
        });
        ran.into_inner().unwrap()
    }

    #[test]
    fn every_task_runs_and_scope_joins() {
        let pool = Pool::new(4);
        let counter = AtomicU32::new(0);
        let (_, report) = pool.scope(|s| {
            for _ in 0..100 {
                let c = &counter;
                s.spawn(move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        assert_eq!(report.tasks, 100);
        assert_eq!(report.worker_busy_s.len(), 4);
    }

    #[test]
    fn tasks_can_spawn_tasks() {
        let pool = Pool::new(3);
        let counter = AtomicU32::new(0);
        let (_, report) = pool.scope(|s| {
            let c = &counter;
            for _ in 0..5 {
                s.spawn(move |inner| {
                    c.fetch_add(1, Ordering::SeqCst);
                    inner.spawn(move |_| {
                        c.fetch_add(10, Ordering::SeqCst);
                    });
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 55);
        assert_eq!(report.tasks, 10);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = Pool::new(1);
        assert_eq!(pool.helpers(), 0, "one worker needs no helper thread");
        let me = std::thread::current().id();
        assert_eq!(workers_of_one_scope(&pool, 7), HashSet::from([me]));
        let (_, report) = pool.scope(|s| s.spawn(|_| {}));
        assert_eq!(report.steals, 0, "one worker cannot steal");
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 2 + 2, || "ok".len());
        assert_eq!((a, b), (4, 2));
    }

    #[test]
    fn panics_propagate_out_of_scope() {
        let pool = Pool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|_| panic!("task boom"));
            });
        }));
        assert!(caught.is_err(), "task panic must reach the caller");
        // The pool stays usable afterwards.
        let (_, report) = pool.scope(|s| {
            s.spawn(|_| {});
        });
        assert_eq!(report.tasks, 1);
    }

    #[test]
    fn chunk_ranges_partition_exactly() {
        let ranges: Vec<_> = chunk_ranges(10, 4).collect();
        assert_eq!(ranges, vec![0..4, 4..8, 8..10]);
        assert_eq!(chunk_ranges(0, 4).count(), 0);
        assert_eq!(chunk_ranges(4, 4).collect::<Vec<_>>(), vec![0..4]);
    }

    #[test]
    fn par_for_chunks_covers_every_index_once() {
        let pool = Pool::new(4);
        let len = 1000;
        let marks: Vec<AtomicU32> = (0..len).map(|_| AtomicU32::new(0)).collect();
        let report = pool.par_for_chunks(len, 64, |_, range| {
            for i in range {
                marks[i].fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(marks.iter().all(|m| m.load(Ordering::SeqCst) == 1));
        assert_eq!(report.tasks as usize, len.div_ceil(64));
    }

    #[test]
    fn per_scope_pool_reports_spawns_persistent_reports_none() {
        // Scopes spawn no threads: every task of every scope runs on the
        // caller or on one of the crew's helpers, which were spawned once
        // by `Pool::new`. Thread ids are never reused, so a pool that
        // spawned per scope would show more than `threads` of them.
        let pool = Pool::new(3);
        assert_eq!(pool.helpers(), 2, "threads − 1 helpers, spawned once");
        let mut seen = HashSet::new();
        for _ in 0..4 {
            seen.extend(workers_of_one_scope(&pool, 12));
        }
        assert!(seen.contains(&std::thread::current().id()));
        assert!(
            seen.len() <= pool.threads(),
            "{} distinct threads ran the tasks of four scopes on a 3-worker pool",
            seen.len()
        );
    }

    #[test]
    fn persistent_crew_runs_every_task_across_many_scopes() {
        // Tasks must borrow the caller's stack — the unsafe pointer
        // hand-off may not lose or repeat work.
        let pool = Pool::new(4);
        for round in 0..50u32 {
            let counter = AtomicU32::new(0);
            let tasks = 1 + (round % 13);
            let (_, report) = pool.scope(|s| {
                for _ in 0..tasks {
                    let c = &counter;
                    s.spawn(move |_| {
                        c.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
            assert_eq!(counter.load(Ordering::SeqCst), tasks);
            assert_eq!(report.tasks, tasks as u64);
            assert_eq!(report.worker_busy_s.len(), 4);
        }
    }

    #[test]
    fn persistent_crew_survives_task_panics() {
        let pool = Pool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|_| panic!("crew task boom"));
            });
        }));
        assert!(caught.is_err(), "task panic must reach the caller");
        // The crew threads are still alive and serving.
        let counter = AtomicU32::new(0);
        let (_, report) = pool.scope(|s| {
            for _ in 0..10 {
                let c = &counter;
                s.spawn(move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 10);
        assert_eq!(report.tasks, 10);
    }

    #[test]
    fn reentrant_scope_on_a_persistent_pool_falls_back_instead_of_deadlocking() {
        // A task that opens another scope on (a clone of) its own crew
        // must run that scope on its own thread, not wedge the crew.
        let pool = Pool::new(2);
        let inner_pool = pool.clone();
        let hits = AtomicU32::new(0);
        let (_, outer) = pool.scope(|s| {
            let h = &hits;
            let q = &inner_pool;
            s.spawn(move |_| {
                let opener = std::thread::current().id();
                let ran_on = Mutex::new(HashSet::new());
                let (_, inner) = q.scope(|inner_s| {
                    for _ in 0..5 {
                        let ran_on = &ran_on;
                        inner_s.spawn(move |_| {
                            ran_on.lock().unwrap().insert(std::thread::current().id());
                            h.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
                assert_eq!(inner.tasks, 5);
                assert_eq!(inner.worker_busy_s.len(), 1, "one worker: the opener");
                assert_eq!(
                    ran_on.into_inner().unwrap(),
                    HashSet::from([opener]),
                    "the nested scope must run on the thread that opened it"
                );
                h.fetch_add(100, Ordering::SeqCst);
            });
        });
        assert_eq!(hits.load(Ordering::SeqCst), 105);
        assert_eq!(outer.tasks, 1);
        // The crew still serves non-reentrant scopes afterwards.
        let (_, after) = pool.scope(|s| s.spawn(|_| {}));
        assert_eq!(after.worker_busy_s.len(), 2);
    }

    #[test]
    fn cloned_persistent_pools_share_one_crew() {
        let a = Pool::new(3);
        let b = a.clone();
        assert!(a.shares_crew_with(&b));
        assert!(
            !a.shares_crew_with(&Pool::new(3)),
            "a new pool has its own crew"
        );
        assert!(!Pool::new(1).shares_crew_with(&Pool::new(1)));
        let hits = AtomicU32::new(0);
        let ha = &hits;
        // Serialized scopes from two clones must both run fine.
        a.scope(|s| {
            s.spawn(move |_| {
                ha.fetch_add(1, Ordering::SeqCst);
            })
        });
        b.scope(|s| {
            s.spawn(move |_| {
                ha.fetch_add(1, Ordering::SeqCst);
            })
        });
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }
}
