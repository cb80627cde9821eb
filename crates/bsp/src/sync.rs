//! Synchronization-primitive shim for the BSP runtime and the server.
//!
//! Everything in `pool.rs` — and in `vcsql-server`'s plan cache, admission
//! queue and placement lock — that parks, wakes, locks, counts, or spawns
//! goes through this module instead of naming `std::sync` / `std::thread`
//! directly. In a normal build the re-exports *are* the std types — zero
//! cost, zero behaviour change. Under `--cfg vcsql_loom` (the
//! model-checking lane, see `RUSTFLAGS="--cfg vcsql_loom"` in CI) they swap
//! for the `loom` compat crate's shadow types, whose deterministic
//! scheduler explores every preemption-bounded interleaving of the pool's
//! hand-off protocol (and the server's admission permits) inside
//! `loom::model`. Outside a model the shadow types degrade to std, so the
//! regular test suite runs unchanged in that configuration too.
//!
//! Only the types the pool and the server actually use are re-exported;
//! adding a primitive here means teaching `crates/compat/loom` to model it
//! first.

#[cfg(not(vcsql_loom))]
pub use std::sync::{Condvar, Mutex, MutexGuard};

#[cfg(vcsql_loom)]
pub use loom::sync::{Condvar, Mutex, MutexGuard};

/// Atomics: std by default, loom shadows under `--cfg vcsql_loom`.
pub mod atomic {
    #[cfg(not(vcsql_loom))]
    pub use std::sync::atomic::{AtomicUsize, Ordering};

    #[cfg(vcsql_loom)]
    pub use loom::sync::atomic::{AtomicUsize, Ordering};
}

/// Thread spawning: std by default, loom-controlled threads under
/// `--cfg vcsql_loom`. Only the pool spawns (see `disallowed-methods` in
/// `crates/clippy.toml`).
pub mod thread {
    #[cfg(not(vcsql_loom))]
    pub use std::thread::{Builder, JoinHandle};

    #[cfg(vcsql_loom)]
    pub use loom::thread::{Builder, JoinHandle};
}
