//! Model-aware replacements for [`std::sync`] primitives (the subset
//! used by the workspace: `Arc`, `Mutex`, `Condvar`, atomics).
//!
//! Inside [`crate::model`] every operation is a scheduling choice
//! point; blocking goes through the scheduler so the interleaving
//! search sees it. Outside a model everything forwards to `std`.

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
use std::time::Duration;

use crate::rt;

pub use std::sync::{Arc, LockResult, TryLockError, TryLockResult};

/// Mutual exclusion, as [`std::sync::Mutex`] but model-aware.
///
/// Data lives in a real `std` mutex (uncontended inside a model: only
/// the token holder runs); blocking and contention are modeled in the
/// scheduler, keyed by the mutex's address. The address is a stable
/// identity because every registered waiter holds a `&self` borrow.
#[derive(Default, Debug)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Create an unlocked mutex. `const` so statics work.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    fn key(&self) -> rt::Key {
        self as *const Self as usize
    }

    /// Acquire the lock, blocking through the model scheduler.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        match rt::ctx() {
            Some((sched, me)) => {
                sched.acquire(me, self.key());
                let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
                Ok(MutexGuard {
                    lock: self,
                    modeled: true,
                    inner: Some(inner),
                })
            }
            None => match self.inner.lock() {
                Ok(g) => Ok(MutexGuard {
                    lock: self,
                    modeled: false,
                    inner: Some(g),
                }),
                Err(p) => Err(PoisonError::new(MutexGuard {
                    lock: self,
                    modeled: false,
                    inner: Some(p.into_inner()),
                })),
            },
        }
    }

    /// Acquire the lock only if it is free right now.
    pub fn try_lock(&self) -> TryLockResult<MutexGuard<'_, T>> {
        match rt::ctx() {
            Some((sched, me)) => {
                if sched.try_acquire(me, self.key()) {
                    let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
                    Ok(MutexGuard {
                        lock: self,
                        modeled: true,
                        inner: Some(inner),
                    })
                } else {
                    Err(TryLockError::WouldBlock)
                }
            }
            None => match self.inner.try_lock() {
                Ok(g) => Ok(MutexGuard {
                    lock: self,
                    modeled: false,
                    inner: Some(g),
                }),
                Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
                Err(TryLockError::Poisoned(p)) => {
                    Err(TryLockError::Poisoned(PoisonError::new(MutexGuard {
                        lock: self,
                        modeled: false,
                        inner: Some(p.into_inner()),
                    })))
                }
            },
        }
    }
}

/// RAII guard for [`Mutex`]; releases on drop.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    modeled: bool,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<'a, T> MutexGuard<'a, T> {
    fn inner(&self) -> &std::sync::MutexGuard<'a, T> {
        match &self.inner {
            Some(g) => g,
            // The Option is only ever None mid-consumption inside
            // Condvar::wait, where the guard is owned by value.
            None => unreachable!("loom-shim: guard used after release"),
        }
    }

    fn inner_mut(&mut self) -> &mut std::sync::MutexGuard<'a, T> {
        match &mut self.inner {
            Some(g) => g,
            None => unreachable!("loom-shim: guard used after release"),
        }
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner()
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner_mut()
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock before the modeled one: the next token
        // holder must be able to take `inner` without blocking the OS
        // thread. Releasing is not a choice point and cannot panic, so
        // it is safe during unwinding.
        self.inner = None;
        if self.modeled {
            if let Some((sched, me)) = rt::ctx() {
                sched.release(me, self.lock.key());
            }
        }
    }
}

/// Whether a [`Condvar::wait_timeout`] returned because time ran out.
///
/// Defined locally ([`std::sync::WaitTimeoutResult`] cannot be
/// constructed outside `std`). In a model, "time ran out" means the
/// quiescence rule fired: no thread was runnable, so the timeout was
/// the only way forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// True if the wait ended by timeout rather than notification.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// Condition variable, as [`std::sync::Condvar`] but model-aware.
#[derive(Default, Debug)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Create a condition variable. `const` so statics work.
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    fn key(&self) -> rt::Key {
        self as *const Self as usize
    }

    /// Atomically release the guard and wait for a notification.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        match rt::ctx() {
            Some(_) => {
                let (g, _) = self.model_wait(guard, true);
                Ok(g)
            }
            None => self.std_wait(guard),
        }
    }

    /// As [`Condvar::wait`] with a timeout. Inside a model the timeout
    /// "fires" only when no other thread can make progress.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        match rt::ctx() {
            Some(_) => {
                let (g, timed_out) = self.model_wait(guard, false);
                Ok((g, WaitTimeoutResult { timed_out }))
            }
            None => {
                let lock = guard.lock;
                let mut guard = guard;
                let inner = match guard.inner.take() {
                    Some(g) => g,
                    None => unreachable!("loom-shim: guard used after release"),
                };
                std::mem::forget(guard);
                let (inner, res) = match self.inner.wait_timeout(inner, dur) {
                    Ok((g, r)) => (g, r),
                    Err(p) => p.into_inner(),
                };
                Ok((
                    MutexGuard {
                        lock,
                        modeled: false,
                        inner: Some(inner),
                    },
                    WaitTimeoutResult {
                        timed_out: res.timed_out(),
                    },
                ))
            }
        }
    }

    /// Model-mode wait: dissolve the guard, park through the
    /// scheduler, re-acquire, rebuild the guard. Returns the rebuilt
    /// guard and whether the wake was a (modeled) timeout.
    fn model_wait<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        forever: bool,
    ) -> (MutexGuard<'a, T>, bool) {
        let lock = guard.lock;
        let mutex_key = lock.key();
        let mut guard = guard;
        // Drop the real lock by hand, then tell the scheduler; the
        // forget skips the guard's Drop (which would double-release).
        guard.inner = None;
        std::mem::forget(guard);
        let timed_out = match rt::ctx() {
            Some((sched, me)) => {
                let t = sched.cv_wait(me, self.key(), mutex_key, !forever);
                sched.acquire(me, mutex_key);
                t
            }
            None => unreachable!("loom-shim: model_wait outside a model"),
        };
        let inner = lock.inner.lock().unwrap_or_else(PoisonError::into_inner);
        (
            MutexGuard {
                lock,
                modeled: true,
                inner: Some(inner),
            },
            timed_out,
        )
    }

    fn std_wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let lock = guard.lock;
        let mut guard = guard;
        let inner = match guard.inner.take() {
            Some(g) => g,
            None => unreachable!("loom-shim: guard used after release"),
        };
        std::mem::forget(guard);
        let inner = match self.inner.wait(inner) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        Ok(MutexGuard {
            lock,
            modeled: false,
            inner: Some(inner),
        })
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        match rt::ctx() {
            Some((sched, me)) => sched.notify(me, self.key(), false),
            None => self.inner.notify_one(),
        }
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        match rt::ctx() {
            Some((sched, me)) => sched.notify(me, self.key(), true),
            None => self.inner.notify_all(),
        }
    }
}

/// Model-aware atomics: each access is a scheduling choice point.
///
/// Orderings are accepted for API compatibility but the model is
/// sequentially consistent (one thread runs at a time and the token
/// hand-off orders everything).
pub mod atomic {
    use crate::rt;

    pub use std::sync::atomic::Ordering;

    fn point() {
        if let Some((sched, me)) = rt::ctx() {
            sched.point(me);
        }
    }

    macro_rules! int_atomic {
        ($(#[$doc:meta])* $name:ident, $ty:ty) => {
            $(#[$doc])*
            #[derive(Debug, Default)]
            pub struct $name {
                inner: std::sync::atomic::$name,
            }

            impl $name {
                /// Create a new atomic. `const` so statics work.
                pub const fn new(v: $ty) -> Self {
                    Self {
                        inner: std::sync::atomic::$name::new(v),
                    }
                }

                /// Model-aware load.
                pub fn load(&self, o: Ordering) -> $ty {
                    point();
                    self.inner.load(o)
                }

                /// Model-aware store.
                pub fn store(&self, v: $ty, o: Ordering) {
                    point();
                    self.inner.store(v, o)
                }

                /// Model-aware swap.
                pub fn swap(&self, v: $ty, o: Ordering) -> $ty {
                    point();
                    self.inner.swap(v, o)
                }

                /// Model-aware fetch-add.
                pub fn fetch_add(&self, v: $ty, o: Ordering) -> $ty {
                    point();
                    self.inner.fetch_add(v, o)
                }

                /// Model-aware fetch-sub.
                pub fn fetch_sub(&self, v: $ty, o: Ordering) -> $ty {
                    point();
                    self.inner.fetch_sub(v, o)
                }

                /// Model-aware fetch-min.
                pub fn fetch_min(&self, v: $ty, o: Ordering) -> $ty {
                    point();
                    self.inner.fetch_min(v, o)
                }

                /// Model-aware fetch-max.
                pub fn fetch_max(&self, v: $ty, o: Ordering) -> $ty {
                    point();
                    self.inner.fetch_max(v, o)
                }

                /// Model-aware compare-exchange.
                pub fn compare_exchange(
                    &self,
                    cur: $ty,
                    new: $ty,
                    s: Ordering,
                    f: Ordering,
                ) -> Result<$ty, $ty> {
                    point();
                    self.inner.compare_exchange(cur, new, s, f)
                }

                /// Model-aware compare-exchange; never fails spuriously
                /// here (strengthening is allowed by the contract).
                pub fn compare_exchange_weak(
                    &self,
                    cur: $ty,
                    new: $ty,
                    s: Ordering,
                    f: Ordering,
                ) -> Result<$ty, $ty> {
                    self.compare_exchange(cur, new, s, f)
                }

                /// Consume the atomic, returning the value.
                pub fn into_inner(self) -> $ty {
                    self.inner.into_inner()
                }
            }
        };
    }

    int_atomic!(
        /// Model-aware [`std::sync::atomic::AtomicUsize`].
        AtomicUsize,
        usize
    );
    int_atomic!(
        /// Model-aware [`std::sync::atomic::AtomicU8`].
        AtomicU8,
        u8
    );
    int_atomic!(
        /// Model-aware [`std::sync::atomic::AtomicU32`].
        AtomicU32,
        u32
    );
    int_atomic!(
        /// Model-aware [`std::sync::atomic::AtomicU64`].
        AtomicU64,
        u64
    );

    /// Model-aware [`std::sync::atomic::AtomicBool`].
    #[derive(Debug, Default)]
    pub struct AtomicBool {
        inner: std::sync::atomic::AtomicBool,
    }

    impl AtomicBool {
        /// Create a new atomic bool. `const` so statics work.
        pub const fn new(v: bool) -> Self {
            Self {
                inner: std::sync::atomic::AtomicBool::new(v),
            }
        }

        /// Model-aware load.
        pub fn load(&self, o: Ordering) -> bool {
            point();
            self.inner.load(o)
        }

        /// Model-aware store.
        pub fn store(&self, v: bool, o: Ordering) {
            point();
            self.inner.store(v, o)
        }

        /// Model-aware swap.
        pub fn swap(&self, v: bool, o: Ordering) -> bool {
            point();
            self.inner.swap(v, o)
        }

        /// Model-aware fetch-or.
        pub fn fetch_or(&self, v: bool, o: Ordering) -> bool {
            point();
            self.inner.fetch_or(v, o)
        }

        /// Model-aware fetch-and.
        pub fn fetch_and(&self, v: bool, o: Ordering) -> bool {
            point();
            self.inner.fetch_and(v, o)
        }

        /// Model-aware compare-exchange.
        pub fn compare_exchange(
            &self,
            cur: bool,
            new: bool,
            s: Ordering,
            f: Ordering,
        ) -> Result<bool, bool> {
            point();
            self.inner.compare_exchange(cur, new, s, f)
        }

        /// Model-aware compare-exchange (never spuriously fails).
        pub fn compare_exchange_weak(
            &self,
            cur: bool,
            new: bool,
            s: Ordering,
            f: Ordering,
        ) -> Result<bool, bool> {
            self.compare_exchange(cur, new, s, f)
        }

        /// Consume the atomic, returning the value.
        pub fn into_inner(self) -> bool {
            self.inner.into_inner()
        }
    }
}
