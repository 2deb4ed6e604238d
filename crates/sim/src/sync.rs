//! Minimal synchronization primitives with a `parking_lot`-style surface.
//!
//! The simulator holds locks only for short, panic-free critical sections,
//! so poisoning adds no information; these thin wrappers over [`std::sync`]
//! recover the guard on poison and return guards directly from
//! [`Mutex::lock`] (no `Result`), keeping call sites clean and the
//! workspace free of external dependencies.

use std::sync::PoisonError;

/// A mutual-exclusion lock whose `lock` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// Guard returned by [`Mutex::lock`]; unlocks on drop.
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Creates a lock around `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available. A poisoned lock (a
    /// panic while held) is recovered rather than propagated.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_guards_mutation() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison");
        })
        .join();
        assert_eq!(*m.lock(), 7, "value survives a panicking holder");
    }
}
