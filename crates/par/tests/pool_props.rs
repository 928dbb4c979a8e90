//! Property tests for the pool: exactly-once task execution,
//! join-before-return and panic propagation — over arbitrary task and
//! thread counts.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use proptest::prelude::*;
use reservoir_par::Pool;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_spawned_task_runs_exactly_once(
        threads in 1usize..6,
        tasks in 0usize..200,
    ) {
        let pool = Pool::new(threads);
        let ran: Vec<AtomicU64> = (0..tasks).map(|_| AtomicU64::new(0)).collect();
        let report = pool.run(tasks, |i| {
            ran[i].fetch_add(1, Ordering::SeqCst);
        });
        prop_assert!(ran.iter().all(|r| r.load(Ordering::SeqCst) == 1));
        prop_assert_eq!(report.tasks, tasks as u64);
        prop_assert_eq!(report.worker_busy_s.len(), threads);
    }

    #[test]
    fn scope_joins_before_returning(
        threads in 1usize..6,
        tasks in 1usize..100,
    ) {
        // Every task flips its flag; if `run` returned before a task
        // finished, the flag read below would race — the SeqCst flag plus
        // the join guarantee make this deterministic.
        let pool = Pool::new(threads);
        let done: Vec<AtomicBool> = (0..tasks).map(|_| AtomicBool::new(false)).collect();
        pool.run(tasks, |i| {
            // A little work so tasks are still in flight when the caller
            // runs out of indices to claim.
            std::hint::black_box((0..50).sum::<u64>());
            done[i].store(true, Ordering::SeqCst);
        });
        prop_assert!(done.iter().all(|f| f.load(Ordering::SeqCst)));
    }

    #[test]
    fn panics_propagate_and_pool_survives(
        threads in 1usize..5,
        tasks in 1usize..20,
        panicker in 0usize..20,
    ) {
        prop_assume!(panicker < tasks);
        let pool = Pool::new(threads);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(tasks, |i| {
                if i == panicker {
                    panic!("deliberate task panic");
                }
            });
        }));
        prop_assert!(caught.is_err(), "a task panic must reach the caller");
        // The same pool value still runs later task lists to completion.
        let ok = AtomicU64::new(0);
        pool.run(1, |_| {
            ok.fetch_add(1, Ordering::SeqCst);
        });
        prop_assert_eq!(ok.load(Ordering::SeqCst), 1);
    }
}
