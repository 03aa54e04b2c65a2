//! Helpers for tests that mutate process-global state.
//!
//! `std::env::set_var`/`remove_var` affect the whole process, and
//! `cargo test` runs tests in one process on many threads, so every
//! test that toggles a `FLUX_*` variable must serialize against every
//! other such test. Before this module each test file kept its own
//! static lock, which only serialized tests *within* that file; the
//! shared [`test_env_lock`] here serializes them across the whole
//! crate (and downstream crates' tests, which link this library).

use std::sync::{Mutex, MutexGuard};

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Serializes tests that set/remove process environment variables
/// (`FLUX_FUSE`, `FLUX_FUSE_BUDGET`, ...). Hold the guard for the whole
/// test, including the part that *reads* the env (server/runtime
/// startup).
///
/// Poisoning is ignored: a panic in one env test must not cascade into
/// spurious failures of every later env test.
pub fn test_env_lock() -> MutexGuard<'static, ()> {
    ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}
