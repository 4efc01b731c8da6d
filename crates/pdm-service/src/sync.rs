//! Poison-propagation choke points for the service's locks.
//!
//! A poisoned lock means another worker already panicked while holding it —
//! the shard (or slot, or stripe) behind it may be half-updated, so the only
//! sound response is to propagate the abort rather than serve corrupt state.
//! These helpers are the service's *single* place where that decision is
//! made: callers never write `.expect("… poisoned")` inline, which keeps the
//! `no-unwrap-in-lib` lint surface at zero and the panic message uniform.

use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks a mutex, propagating a worker panic as an explicit abort.
pub(crate) fn lock<'a, T>(mutex: &'a Mutex<T>, what: &str) -> MutexGuard<'a, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(_) => poisoned(what),
    }
}

/// `Mutex::get_mut` under the same poison policy (exclusive-borrow paths,
/// e.g. a WAL restore recording into the service it owns).
pub(crate) fn get_mut<'a, T>(mutex: &'a mut Mutex<T>, what: &str) -> &'a mut T {
    match mutex.get_mut() {
        Ok(inner) => inner,
        Err(_) => poisoned(what),
    }
}

/// Read-locks an `RwLock` under the same poison policy.
pub(crate) fn read<'a, T>(rw: &'a RwLock<T>, what: &str) -> RwLockReadGuard<'a, T> {
    match rw.read() {
        Ok(guard) => guard,
        Err(_) => poisoned(what),
    }
}

/// Write-locks an `RwLock` under the same poison policy.
pub(crate) fn write<'a, T>(rw: &'a RwLock<T>, what: &str) -> RwLockWriteGuard<'a, T> {
    match rw.write() {
        Ok(guard) => guard,
        Err(_) => poisoned(what),
    }
}

fn poisoned(what: &str) -> ! {
    panic!(
        "{what} lock poisoned: a worker panicked while holding it, so its state cannot be trusted"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_pass_through_healthy_locks() {
        let m = Mutex::new(7u32);
        assert_eq!(*lock(&m, "test"), 7);
        let mut m = m;
        *get_mut(&mut m, "test") = 8;
        assert_eq!(*lock(&m, "test"), 8);

        let rw = RwLock::new(3u32);
        assert_eq!(*read(&rw, "test"), 3);
        *write(&rw, "test") = 4;
        assert_eq!(*read(&rw, "test"), 4);
    }

    #[test]
    fn poisoned_lock_panics_with_context() {
        let m = std::sync::Arc::new(Mutex::new(0u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().expect("first lock is healthy");
            panic!("poison the mutex");
        })
        .join();
        let err = std::panic::catch_unwind(|| lock(&m, "shard"));
        let msg = err
            .err()
            .and_then(|e| e.downcast::<String>().ok())
            .expect("panics with a String payload");
        assert!(msg.contains("shard lock poisoned"), "{msg}");
    }
}
