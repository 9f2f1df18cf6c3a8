//! Cooperative SIGINT/SIGTERM handling for long sweeps.
//!
//! [`install`] registers async-signal-safe handlers that set one atomic
//! flag; nothing else happens in signal context. The campaign loop polls
//! [`interrupted`] between groups and skips the remainder of the batch
//! (without journaling the skipped cells, so a `--resume` re-runs them),
//! letting the in-flight journal appends land through the normal fsync'd
//! path instead of dying mid-append and leaning on salvage.
//!
//! The handler is installed via the C `signal()` entry point declared
//! directly (the workspace links no libc-wrapper crate); on non-Unix
//! targets [`install`] is a no-op and the flag can only be raised
//! programmatically through [`trigger`].

use std::sync::atomic::{AtomicBool, Ordering};

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sys {
    pub const SIGINT: i32 = 2;
    pub const SIGTERM: i32 = 15;
    extern "C" {
        pub fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
}

#[cfg(unix)]
extern "C" fn mark_interrupted(_signum: i32) {
    // The only async-signal-safe thing we do: one atomic store.
    INTERRUPTED.store(true, Ordering::SeqCst);
}

/// Installs the SIGINT/SIGTERM handlers (idempotent). No-op off Unix.
pub fn install() {
    #[cfg(unix)]
    // Safety: `signal` with a non-returning-into-Rust handler that only
    // performs an atomic store is async-signal-safe.
    unsafe {
        sys::signal(sys::SIGINT, mark_interrupted);
        sys::signal(sys::SIGTERM, mark_interrupted);
    }
}

/// True once an interrupt signal has been received (or [`trigger`]ed).
pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

/// Raises the interrupt flag programmatically (tests, and the serve
/// daemon's shutdown path).
pub fn trigger() {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

/// Clears the interrupt flag (tests, and daemon restart-in-process).
pub fn reset() {
    INTERRUPTED.store(false, Ordering::SeqCst);
}
