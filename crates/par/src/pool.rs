//! A fixed-width thread pool that runs one flat task list: the calling
//! thread and a crew of helpers claim task indices from one shared
//! counter until the list runs out. That is all the workspace asks of it
//! — the per-PE local scan hands it one task per fixed-size chunk and
//! never nests — so there are no per-worker queues and no tasks that
//! spawn tasks.
//!
//! Design: [`Pool::new`] spawns the crew's `threads − 1` helpers once and
//! parks them on a condvar between runs. [`Pool::run`] publishes the task
//! list to the crew, works it from the calling thread too, and returns
//! once every task has finished. A panicking task exhausts the list, so
//! no worker claims another; its panic resumes on the caller once every
//! worker has left the run, leaving the crew serving.
//!
//! Clones share one crew and their runs take turns. A run started from
//! inside a task that already runs on the same crew cannot wait for the
//! crew (which is busy with the outer run), so it runs on its calling
//! thread alone.
//!
//! Safety of the crew hand-off: the caller publishes a type-erased pointer
//! to the run's shared state under the crew mutex, helpers register
//! themselves (`working += 1`) under that same mutex before dereferencing
//! it, and the caller blocks until the job is retracted **and** `working`
//! is back to zero before the run's frame is allowed to unwind — so no
//! helper can touch the run after it dies.

use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// What one [`Pool::run`] execution did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScopeReport {
    /// Tasks executed to completion.
    pub tasks: u64,
    /// Seconds each worker spent executing tasks (index = worker id; the
    /// calling thread is worker 0). Claiming and waiting are not counted.
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

/// The state one [`Pool::run`] shares between its workers.
struct Run<'a> {
    body: &'a (dyn Fn(usize) + Sync),
    tasks: usize,
    /// The next unclaimed task index; a panicking task sets it to
    /// `tasks`. `Relaxed` is enough: the counter only hands out indices
    /// and publishes no data — a task's writes reach the caller through
    /// the crew mutex each helper signs off under.
    next: AtomicUsize,
    /// First caught panic payload; resumed on the caller once the run is
    /// quiescent.
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
    busy_s: Box<[Mutex<f64>]>,
}

impl Run<'_> {
    /// Worker loop: claim and run task indices until the list runs out.
    /// Task panics are caught here — the first payload is stashed for the
    /// caller to resume — so crew threads outlive a panicking run.
    fn work(&self, me: usize) {
        let mut busy = 0.0f64;
        loop {
            let task = self.next.fetch_add(1, Ordering::Relaxed);
            if task >= self.tasks {
                break;
            }
            let start = Instant::now();
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| (self.body)(task)));
            if let Err(payload) = result {
                // Exhaust the list: every later claim lands at or past
                // `tasks`, and no index below it is handed out twice.
                self.next.store(self.tasks, Ordering::Relaxed);
                let mut slot = self.panic_payload.lock().expect("payload slot poisoned");
                slot.get_or_insert(payload);
                break;
            }
            busy += start.elapsed().as_secs_f64();
        }
        *self.busy_s[me].lock().expect("busy slot poisoned") += busy;
    }
}

/// The job a crew's helpers run: a type-erased pointer to the live
/// [`Run`] plus the epoch that distinguishes it from the previous run.
/// Helpers only dereference the pointer between job publication and
/// retraction, both of which happen under the crew mutex.
#[derive(Clone, Copy)]
struct CrewJob {
    run: *const (),
    epoch: u64,
}

// SAFETY: the only field that is not `Send` is the run pointer. It is
// handed between threads only under the crew's mutex, the caller keeps
// the run alive until every helper has signed off (`Crew::run`), and
// helpers only share it by `&`, which is sound because `Run` is `Sync`
// (checked at compile time just below).
unsafe impl Send for CrewJob {}

const _: fn() = || {
    fn shared_by_reference<T: Sync>() {}
    shared_by_reference::<Run<'static>>();
};

/// State shared between a crew's callers and helper threads.
struct CrewShared {
    state: Mutex<CrewState>,
    /// Wakes helpers when a job is published (or shutdown is requested).
    job_cv: Condvar,
    /// Wakes the caller when the last helper leaves the current job.
    done_cv: Condvar,
}

thread_local! {
    /// Crews this thread is currently executing a run of (caller or
    /// helper side). A nested `Pool::run` on the same crew would
    /// deadlock — the inner publish waits for the outer job to drain,
    /// which waits for the nested task to finish — so `run` consults
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
    /// Helpers currently inside the published run.
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

    /// Publish `run` to the crew, work it from the calling thread too,
    /// then retract the job and wait until every helper has signed off —
    /// only then may the run die.
    fn run(&self, run: &Run<'_>) {
        let shared = &*self.shared;
        let _active = CrewActivation::enter(shared);
        {
            let mut st = shared.state.lock().expect("crew state poisoned");
            // Pool clones share the crew; serialize runs so one job's
            // pointer can never clobber another's.
            while st.job.is_some() || st.working > 0 {
                st = shared.done_cv.wait(st).expect("crew state poisoned");
            }
            st.epoch += 1;
            st.job = Some(CrewJob {
                run: run as *const Run<'_> as *const (),
                epoch: st.epoch,
            });
        }
        shared.job_cv.notify_all();
        run.work(0);
        // The caller's worker loop only returns once the task list is
        // exhausted, but helpers may still be inside (or just entering)
        // the run: retract the job so late wakers skip it, then wait them
        // out.
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
/// under the lock, run the run's worker loop, sign off.
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
        // was still published, and the caller cannot leave its run frame
        // until `working` drops back to zero — the Run outlives this
        // dereference. The 'static lifetime is a lie confined to this
        // call: `Run::work` never stores the reference.
        let run = unsafe { &*(job.run as *const Run<'static>) };
        let _active = CrewActivation::enter(shared);
        run.work(me);
        drop(_active);
        let mut st = shared.state.lock().expect("crew state poisoned");
        st.working -= 1;
        if st.working == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// A fixed-width thread pool: the calling thread plus a crew of
/// `threads − 1` helpers spawned once and woken per [`Pool::run`].
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
    /// between runs.
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

    /// Run `body(i)` exactly once for every task index `i` in
    /// `0..tasks`, on this pool's workers, and return the execution
    /// report once every task has finished. The caller and the helpers
    /// claim indices from one shared counter, so which worker runs which
    /// task varies from run to run.
    ///
    /// A run started from a task already running on this pool's crew
    /// runs on its calling thread alone (one worker). A panic in any task
    /// propagates out of this call after every worker has stopped; tasks
    /// not yet claimed never run, and the crew keeps serving later runs.
    pub fn run(&self, tasks: usize, body: impl Fn(usize) + Sync) -> ScopeReport {
        let crew = self
            .crew
            .as_ref()
            .filter(|c| !CrewActivation::is_active(&c.shared));
        let workers = if crew.is_some() { self.threads } else { 1 };
        let run = Run {
            body: &body,
            tasks,
            next: AtomicUsize::new(0),
            panic_payload: Mutex::new(None),
            busy_s: (0..workers).map(|_| Mutex::new(0.0)).collect(),
        };
        match crew {
            Some(crew) => crew.run(&run),
            None => run.work(0),
        }
        if let Some(payload) = run
            .panic_payload
            .lock()
            .expect("payload slot poisoned")
            .take()
        {
            std::panic::resume_unwind(payload);
        }
        ScopeReport {
            tasks: tasks as u64,
            worker_busy_s: run
                .busy_s
                .iter()
                .map(|m| *m.lock().expect("busy slot poisoned"))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU32;
    use std::thread::ThreadId;
    use std::time::Duration;

    /// The threads that ran the `tasks` tasks of one run on `pool`.
    fn workers_of_one_run(pool: &Pool, tasks: usize) -> HashSet<ThreadId> {
        let ran = Mutex::new(HashSet::new());
        pool.run(tasks, |_| {
            // Long enough that helpers wake up and take a share.
            std::thread::sleep(Duration::from_micros(200));
            ran.lock().unwrap().insert(std::thread::current().id());
        });
        ran.into_inner().unwrap()
    }

    #[test]
    fn every_task_runs_and_scope_joins() {
        let pool = Pool::new(4);
        let counter = AtomicU32::new(0);
        let report = pool.run(100, |_| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        assert_eq!(report.tasks, 100);
        assert_eq!(report.worker_busy_s.len(), 4);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = Pool::new(1);
        assert_eq!(pool.helpers(), 0, "one worker needs no helper thread");
        let me = std::thread::current().id();
        assert_eq!(workers_of_one_run(&pool, 7), HashSet::from([me]));
        let report = pool.run(1, |_| {});
        assert_eq!(report.worker_busy_s.len(), 1, "one worker: the caller");
    }

    #[test]
    fn panics_propagate_out_of_scope() {
        let pool = Pool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(1, |_| panic!("task boom"));
        }));
        assert!(caught.is_err(), "task panic must reach the caller");
        // The pool stays usable afterwards.
        let report = pool.run(1, |_| {});
        assert_eq!(report.tasks, 1);
    }

    #[test]
    fn par_for_chunks_covers_every_index_once() {
        // One task per 64-index chunk, the shape of the chunked scan.
        let pool = Pool::new(4);
        let (len, chunk) = (1000usize, 64);
        let marks: Vec<AtomicU32> = (0..len).map(|_| AtomicU32::new(0)).collect();
        let report = pool.run(len.div_ceil(chunk), |c| {
            for mark in &marks[c * chunk..len.min((c + 1) * chunk)] {
                mark.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(marks.iter().all(|m| m.load(Ordering::SeqCst) == 1));
        assert_eq!(report.tasks as usize, len.div_ceil(chunk));
    }

    #[test]
    fn per_scope_pool_reports_spawns_persistent_reports_none() {
        // Runs spawn no threads: every task of every run executes on the
        // caller or on one of the crew's helpers, which were spawned once
        // by `Pool::new`. Thread ids are never reused, so a pool that
        // spawned per run would show more than `threads` of them.
        let pool = Pool::new(3);
        assert_eq!(pool.helpers(), 2, "threads − 1 helpers, spawned once");
        let mut seen = HashSet::new();
        for _ in 0..4 {
            seen.extend(workers_of_one_run(&pool, 12));
        }
        assert!(seen.contains(&std::thread::current().id()));
        assert!(
            seen.len() <= pool.threads(),
            "{} distinct threads ran the tasks of four runs on a 3-worker pool",
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
            let report = pool.run(tasks as usize, |_| {
                counter.fetch_add(1, Ordering::SeqCst);
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
            pool.run(1, |_| panic!("crew task boom"));
        }));
        assert!(caught.is_err(), "task panic must reach the caller");
        // The crew threads are still alive and serving.
        let counter = AtomicU32::new(0);
        let report = pool.run(10, |_| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 10);
        assert_eq!(report.tasks, 10);
    }

    #[test]
    fn reentrant_scope_on_a_persistent_pool_falls_back_instead_of_deadlocking() {
        // A task that starts another run on (a clone of) its own crew
        // must run it on its own thread, not wedge the crew.
        let pool = Pool::new(2);
        let inner_pool = pool.clone();
        let hits = AtomicU32::new(0);
        let outer = pool.run(1, |_| {
            let opener = std::thread::current().id();
            let ran_on = Mutex::new(HashSet::new());
            let inner = inner_pool.run(5, |_| {
                ran_on.lock().unwrap().insert(std::thread::current().id());
                hits.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(inner.tasks, 5);
            assert_eq!(inner.worker_busy_s.len(), 1, "one worker: the opener");
            assert_eq!(
                ran_on.into_inner().unwrap(),
                HashSet::from([opener]),
                "the nested run must execute on the thread that started it"
            );
            hits.fetch_add(100, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 105);
        assert_eq!(outer.tasks, 1);
        // The crew still serves non-reentrant runs afterwards.
        let after = pool.run(1, |_| {});
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
        // Serialized runs from two clones must both complete.
        a.run(1, |_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        b.run(1, |_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }
}
