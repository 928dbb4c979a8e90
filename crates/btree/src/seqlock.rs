//! One-word sequence lock: the synchronization primitive of the snapshot
//! service (`reservoir_core::dist::snapshot::EpochPublisher` guards its
//! epoch pointer with one).
//!
//! The word holds a version counter in which the low bit doubles as the
//! write-lock flag: **even = unlocked, odd = write-locked**. Readers never
//! block writers and never write the word at all:
//!
//! * [`SeqLock::read_begin`] snapshots an even (unlocked) version,
//!   spinning a bounded number of times if a writer holds the lock;
//! * the reader then reads the guarded payload (atomics only, so a racing
//!   writer can make the *set* of values read inconsistent but never
//!   undefined);
//! * [`SeqLock::validate`] re-reads the version — unchanged means no
//!   writer completed (or started) in between, so the reads form a
//!   consistent snapshot; changed means retry.
//!
//! Writers upgrade optimistically: [`SeqLock::try_lock`] compare-exchanges
//! the exact version the reader observed to its odd successor, which
//! *atomically* validates the read set and acquires the lock.
//! [`WriteGuard`] releases by storing `version + 2`: the next even value,
//! so every write ends with a fresh version and invalidates all optimistic
//! readers that overlapped it. The guard unlocks on drop, so a panicking
//! writer cannot leave the lock held (callers keep their critical
//! sections panic-free, so an unwound guard never publishes a half
//! mutation either).

use std::sync::atomic::{fence, AtomicU64, Ordering};

use reservoir_obs::LazyCounter;

use crate::sched::{self, SchedEvent};

/// Spin iterations burned waiting out writers (slow path only: the
/// uncontended first-try read carries zero instrumentation).
static READ_SPINS: LazyCounter = LazyCounter::new(
    "seqlock_read_spins_total",
    "spin iterations optimistic readers burned waiting out writers",
);
/// Reads that exhausted the spin budget and started over.
static READ_RETRIES: LazyCounter = LazyCounter::new(
    "seqlock_read_retries_total",
    "optimistic reads that exhausted the spin budget and restarted",
);

/// Bounded spin budget of [`SeqLock::read_begin`] before it reports a
/// conflict instead of waiting out the writer. Small: a conflicted read
/// simply starts over, and the counter it bumps is what the stress suites
/// assert on.
const SPIN_LIMIT: u32 = 128;

/// A version word whose low bit is the write-lock flag.
#[derive(Debug)]
pub struct SeqLock(AtomicU64);

impl Default for SeqLock {
    fn default() -> Self {
        Self::new()
    }
}

impl SeqLock {
    /// A fresh unlocked lock at version 0.
    pub const fn new() -> Self {
        SeqLock(AtomicU64::new(0))
    }

    /// Begin an optimistic read: return the current (even) version, or
    /// `Err(())` if a writer kept the lock held past the spin budget.
    /// The error carries no detail by design — every caller's only
    /// response is to start the read over.
    #[inline]
    #[allow(clippy::result_unit_err)]
    pub fn read_begin(&self) -> Result<u64, ()> {
        sched::hook(SchedEvent::ReadBegin);
        for spins in 0..SPIN_LIMIT {
            let v = self.0.load(Ordering::Acquire);
            if v & 1 == 0 {
                if spins > 0 {
                    READ_SPINS.add(spins as u64);
                }
                return Ok(v);
            }
            sched::hook(SchedEvent::ReadSpin);
            std::hint::spin_loop();
        }
        READ_SPINS.add(SPIN_LIMIT as u64);
        READ_RETRIES.inc();
        Err(())
    }

    /// Whether the version is still exactly `v`: the relaxed payload reads
    /// made since [`Self::read_begin`] returned `v` form a consistent
    /// snapshot. The fence orders those reads before the re-check.
    #[inline]
    #[must_use]
    pub fn validate(&self, v: u64) -> bool {
        fence(Ordering::Acquire);
        self.0.load(Ordering::Acquire) == v
    }

    /// Upgrade the optimistic read at version `v` to an exclusive write
    /// lock. Success doubles as validation: nothing changed since `v` was
    /// observed, and the lock is now held (version `v + 1`, odd).
    #[inline]
    pub fn try_lock(&self, v: u64) -> Option<WriteGuard<'_>> {
        debug_assert_eq!(v & 1, 0, "cannot lock from a locked snapshot");
        if self
            .0
            .compare_exchange(v, v + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            sched::hook(SchedEvent::LockAcquired);
            Some(WriteGuard { lock: self, v })
        } else {
            None
        }
    }

    /// The raw word, for diagnostics/tests.
    #[cfg(test)]
    pub(crate) fn raw(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Exclusive write access to the guarded payload; unlocks (to version `v + 2`) on
/// drop, so the lock is released even if the holder unwinds.
pub struct WriteGuard<'a> {
    lock: &'a SeqLock,
    v: u64,
}

impl Drop for WriteGuard<'_> {
    fn drop(&mut self) {
        self.lock.0.store(self.v + 2, Ordering::Release);
        sched::hook(SchedEvent::Unlock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_cycle_bumps_version_by_two() {
        let l = SeqLock::new();
        let v = l.read_begin().expect("unlocked");
        assert_eq!(v, 0);
        assert!(l.validate(v));
        {
            let _g = l.try_lock(v).expect("uncontended upgrade");
            assert_eq!(l.raw(), 1, "locked versions are odd");
            assert!(!l.validate(v), "readers overlapping a writer must fail");
        }
        assert_eq!(l.raw(), 2);
        assert!(!l.validate(v), "completed write invalidates the snapshot");
        assert!(l.try_lock(v).is_none(), "stale upgrade must lose");
        let v2 = l.read_begin().expect("unlocked again");
        assert!(l.try_lock(v2).is_some());
    }

    #[test]
    fn read_begin_gives_up_on_a_held_lock() {
        let l = SeqLock::new();
        let v = l.read_begin().unwrap();
        let _g = l.try_lock(v).unwrap();
        assert_eq!(l.read_begin(), Err(()), "bounded spin must report conflict");
    }
}
