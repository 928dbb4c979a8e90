//! The seeded yield injector that drives the [`sched`](crate::sched)
//! hooks, re-exported as `sched::YieldInjector`.
//!
//! Real-thread interleavings cannot be replayed exactly, but they can be
//! *forced wider*: [`YieldInjector`] installs a hook whose per-thread
//! pseudo-random decision streams (splitmix over a master seed) yield,
//! and occasionally sleep, at the instrumentation points. A yield between
//! a read and its validation stretches the read-validate race window; a
//! sleep right after `LockAcquired` (the *aggressive* profile) parks a
//! writer mid-critical-section long enough that every optimistic reader
//! of that lock exhausts its bounded spin and takes the conflict path —
//! which is how the snapshot stress suites force torn-read attempts on
//! demand instead of hoping for contention.
//!
//! Decisions are a pure function of `(master seed, thread registration
//! order, event sequence)`: reruns under one seed explore closely related
//! interleavings, and failures print the seed (`RESERVOIR_TEST_SEED`
//! reproduces/varies the whole sweep).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, MutexGuard};
use std::time::Duration;

use crate::sched::{hook_test_guard, set_hook, Hook, SchedEvent};

/// Probability denominators, in events: one yield roughly every `YIELD_1_IN`
/// events, one short sleep roughly every `SLEEP_1_IN`.
const YIELD_1_IN: u64 = 6;
const SLEEP_1_IN: u64 = 96;
/// Aggressive profile: fraction of exclusive lock acquisitions that hold
/// the lock for [`LOCK_HOLD`] — long enough to outlast any reader's
/// bounded spin, guaranteeing conflicts under contention.
const LOCK_HOLD_1_IN: u64 = 3;
const LOCK_HOLD: Duration = Duration::from_micros(120);

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A scheduler shim forcing adversarial interleavings; see the module docs.
pub struct YieldInjector {
    seed: u64,
    /// Hand each hooked thread its own decision stream, in registration
    /// order.
    next_thread: AtomicU64,
    /// Whether `LockAcquired` events park the writer (see module docs).
    aggressive: bool,
    /// Events the hook processed (all threads).
    events: AtomicU64,
    /// Yields + sleeps actually injected.
    injected: AtomicU64,
}

impl YieldInjector {
    /// Install the standard profile: yields that widen race windows
    /// without forcing lock-hold conflicts.
    pub fn install(seed: u64) -> YieldGuard {
        Self::install_profile(seed, false)
    }

    /// Install the aggressive profile: additionally parks writers inside
    /// their critical sections so optimistic readers *must* take the
    /// bounded-spin conflict path under contention.
    pub fn install_aggressive(seed: u64) -> YieldGuard {
        Self::install_profile(seed, true)
    }

    fn install_profile(seed: u64, aggressive: bool) -> YieldGuard {
        let serial = hook_test_guard();
        let injector = Arc::new(YieldInjector {
            seed,
            next_thread: AtomicU64::new(0),
            aggressive,
            events: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        });
        let hooked = injector.clone();
        let prev = set_hook(Some(Arc::new(move |ev| hooked.on_event(ev))));
        YieldGuard {
            injector,
            prev: Some(prev),
            _serial: serial,
        }
    }

    fn on_event(&self, event: SchedEvent) {
        thread_local! {
            /// (injector identity seed, decision stream state).
            static STREAM: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
        }
        self.events.fetch_add(1, Ordering::Relaxed);
        let r = STREAM.with(|s| {
            let (id, mut state) = s.get();
            if id != self.seed {
                // First event from this thread under this injector:
                // derive its stream from the master seed + registration
                // index.
                let idx = self.next_thread.fetch_add(1, Ordering::Relaxed);
                state = self.seed ^ idx.wrapping_mul(0xA076_1D64_78BD_642F);
                // Burn one draw so streams differ even when idx == 0
                // leaves state == seed.
                splitmix(&mut state);
            }
            let r = splitmix(&mut state);
            s.set((self.seed, state));
            r
        });
        if self.aggressive && event == SchedEvent::LockAcquired && r.is_multiple_of(LOCK_HOLD_1_IN)
        {
            self.injected.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(LOCK_HOLD);
            return;
        }
        if r % SLEEP_1_IN == 1 {
            self.injected.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_micros(20));
        } else if r.is_multiple_of(YIELD_1_IN) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            std::thread::yield_now();
        }
    }
}

/// Keeps a [`YieldInjector`] installed; uninstalling (and restoring any
/// previous hook) on drop. Also holds the global hook-test serialization
/// lock for its lifetime.
pub struct YieldGuard {
    injector: Arc<YieldInjector>,
    prev: Option<Option<Hook>>,
    _serial: MutexGuard<'static, ()>,
}

impl YieldGuard {
    /// Events the injector saw so far (all threads).
    pub fn events(&self) -> u64 {
        self.injector.events.load(Ordering::Relaxed)
    }

    /// Yields/sleeps the injector actually forced so far.
    pub fn injected(&self) -> u64 {
        self.injector.injected.load(Ordering::Relaxed)
    }
}

impl Drop for YieldGuard {
    fn drop(&mut self) {
        set_hook(self.prev.take().unwrap_or(None));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeqLock;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn injector_fires_and_uninstalls() {
        let lock = SeqLock::new();
        let cycle = || {
            for _ in 0..200 {
                let v = lock.read_begin().expect("no writer");
                drop(lock.try_lock(v).expect("uncontended upgrade"));
            }
        };
        let injector = {
            let guard = YieldInjector::install(0xA5A5);
            cycle();
            assert!(guard.events() > 0, "hooks must fire while installed");
            Arc::clone(&guard.injector)
        };
        let seen = injector.events.load(Ordering::Relaxed);
        cycle();
        assert_eq!(
            injector.events.load(Ordering::Relaxed),
            seen,
            "an uninstalled injector must see no events"
        );
    }

    #[test]
    fn aggressive_profile_forces_retries() {
        // A writer parked inside `LockAcquired` must outlast a concurrent
        // reader's bounded spin at least once, so some `read_begin`
        // reports the conflict instead of returning a version.
        let lock = SeqLock::new();
        let _guard = YieldInjector::install_aggressive(0xBEEF);
        let conflicts = AtomicU64::new(0);
        let writing = AtomicBool::new(true);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..300 {
                    if let Ok(v) = lock.read_begin() {
                        drop(lock.try_lock(v));
                    }
                }
                writing.store(false, Ordering::Relaxed);
            });
            s.spawn(|| {
                while writing.load(Ordering::Relaxed) {
                    if lock.read_begin().is_err() {
                        conflicts.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        });
        assert!(
            conflicts.load(Ordering::Relaxed) > 0,
            "held locks must force bounded-spin conflicts"
        );
    }
}
