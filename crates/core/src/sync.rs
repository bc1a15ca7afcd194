//! Poison-tolerant locking for the harness's shared state.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, ignoring poison: a thread that panicked while holding the
/// lock (a failed cell, not a dead harness) leaves it usable. Every lock
/// taken through this keeps its data valid between statements, so what a
/// panicking holder leaves behind is still consistent.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
