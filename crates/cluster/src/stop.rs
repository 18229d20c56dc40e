//! The router's stop signal: a flag, and the wake-ups a stop runs so
//! nothing waits out a sleep or a read timeout to notice it.
//!
//! Each thread that blocks registers, with [`Stop::on_request`], what
//! unblocks it: the maintenance loop unparks itself, the frontend's
//! accept loop connects to its own listener, and a connection thread
//! shuts its socket for reading.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

type Wake = Box<dyn Fn() + Send>;

/// A stop flag that runs the registered wake-ups when it is raised.
#[derive(Default)]
pub(crate) struct Stop {
    requested: AtomicBool,
    wakes: Mutex<HashMap<u64, Wake>>,
    next_wake: AtomicU64,
}

impl Stop {
    /// Whether a stop was requested.
    pub(crate) fn requested(&self) -> bool {
        self.requested.load(Ordering::SeqCst)
    }

    /// Raises the flag and runs every registered wake-up. Idempotent.
    pub(crate) fn request(&self) {
        self.requested.store(true, Ordering::SeqCst);
        for wake in self.wakes().values() {
            wake();
        }
    }

    /// Runs `wake` when a stop is requested, for as long as the
    /// returned guard lives. Returns `None`, registering nothing, when
    /// a stop was requested already.
    pub(crate) fn on_request(&self, wake: impl Fn() + Send + 'static) -> Option<OnStop<'_>> {
        let mut wakes = self.wakes();
        // Checked under the lock `request` runs the wake-ups under:
        // either it runs this one or this check sees the flag.
        if self.requested() {
            return None;
        }
        let key = self.next_wake.fetch_add(1, Ordering::Relaxed);
        wakes.insert(key, Box::new(wake));
        Some(OnStop { stop: self, key })
    }

    /// The wake-up table. Each update is one insert or remove, so a
    /// panic elsewhere cannot leave it half-written, and a poisoned
    /// lock is used as is.
    fn wakes(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Wake>> {
        self.wakes
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A registered wake-up; dropping it unregisters the wake-up.
pub(crate) struct OnStop<'a> {
    stop: &'a Stop,
    key: u64,
}

impl Drop for OnStop<'_> {
    fn drop(&mut self) {
        self.stop.wakes().remove(&self.key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_stop_runs_the_live_wake_ups_and_refuses_late_ones() {
        let stop = Stop::default();
        let woken = Arc::new(AtomicU64::new(0));
        let count = Arc::clone(&woken);
        let kept = stop
            .on_request(move || {
                count.fetch_add(1, Ordering::Relaxed);
            })
            .expect("registered before the stop");
        let count = Arc::clone(&woken);
        drop(stop.on_request(move || {
            count.fetch_add(100, Ordering::Relaxed);
        }));

        assert!(!stop.requested());
        stop.request();
        assert!(stop.requested());
        assert_eq!(woken.load(Ordering::Relaxed), 1, "only the live wake-up");
        assert!(stop.on_request(|| {}).is_none(), "too late to register");
        drop(kept);
        stop.request();
        assert_eq!(woken.load(Ordering::Relaxed), 1, "unregistered");
    }
}
