//! Scheduler instrumentation points for the lock-free layer, and the
//! seeded yield injector that drives them.
//!
//! [`SeqLock`](crate::SeqLock) calls [`hook`] at every interesting point of
//! its protocol: before an optimistic read, while spinning on a held lock,
//! right after a lock is acquired, and on unlock. In production the hook
//! is a single relaxed atomic load (disabled, no callback installed).
//! Stress harnesses install a callback with [`set_hook`] — normally
//! through [`YieldInjector`] — to force specific interleavings: a
//! `yield_now` between a read and its validation widens the
//! read-validate race window, a sleep after `LockAcquired` forces
//! optimistic readers into their bounded-spin conflict path, a panic at
//! `ReadBegin` simulates a thread dying outside a critical section.
//!
//! The hook is process-global; tests that install one must serialize
//! against each other ([`hook_test_guard`], which every [`YieldGuard`]
//! holds). A callback that panics unwinds into the operation that
//! triggered it — the seqlock only fires events *outside* its exclusive
//! critical sections, so an unwinding hook can never leave a payload
//! half-mutated or a lock held.
//!
//! The seeded [`YieldInjector`] that drives these hooks lives in a module
//! of its own and is re-exported here.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, MutexGuard, RwLock};

pub use crate::stress::{YieldGuard, YieldInjector};

/// Where in the lock protocol the event fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedEvent {
    /// About to take an optimistic version snapshot.
    ReadBegin,
    /// Spinning because the lock is currently held by a writer.
    ReadSpin,
    /// An exclusive lock was acquired (fired just before the critical
    /// section begins mutating).
    LockAcquired,
    /// An exclusive lock was released.
    Unlock,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// A scheduler callback; shared so harnesses can stash and restore it.
pub type Hook = Arc<dyn Fn(SchedEvent) + Send + Sync>;

static HOOK: RwLock<Option<Hook>> = RwLock::new(None);

/// Install (or clear, with `None`) the global scheduler hook. Returns the
/// previously installed hook so nested harnesses can restore it.
pub fn set_hook(hook: Option<Hook>) -> Option<Hook> {
    let mut slot = HOOK.write().unwrap_or_else(|e| e.into_inner());
    ENABLED.store(hook.is_some(), Ordering::Release);
    std::mem::replace(&mut slot, hook)
}

/// Serialize tests that install the global hook: hold the returned guard
/// for the whole install..uninstall span. Poisoning is ignored — a
/// previous test's (possibly deliberate) panic must not cascade.
pub fn hook_test_guard() -> MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Fire `event` into the installed hook, if any. The disabled fast path
/// is one relaxed load.
#[inline]
pub fn hook(event: SchedEvent) {
    if ENABLED.load(Ordering::Relaxed) {
        hook_slow(event);
    }
}

#[cold]
fn hook_slow(event: SchedEvent) {
    // Clone the Arc out of the registry before calling so a hook that
    // itself flips the registry (or panics) never deadlocks the lock.
    let cb = HOOK
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .cloned();
    if let Some(cb) = cb {
        cb(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn hook_fires_while_installed() {
        let _guard = hook_test_guard();
        let hits = Arc::new(AtomicU64::new(0));
        hook(SchedEvent::ReadBegin); // disabled: no effect, no panic
        let h = hits.clone();
        let prev = set_hook(Some(Arc::new(move |_| {
            h.fetch_add(1, Ordering::Relaxed);
        })));
        hook(SchedEvent::ReadBegin);
        hook(SchedEvent::Unlock);
        let installed = set_hook(prev);
        assert!(installed.is_some(), "uninstall must return our hook");
        // Seqlock tests in this binary may also fire events while our
        // hook is installed, so only a lower bound is stable.
        assert!(hits.load(Ordering::Relaxed) >= 2);
    }
}
