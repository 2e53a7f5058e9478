//! Graceful-drain signalling.
//!
//! On Unix the farm installs a SIGINT handler that flips one atomic
//! flag; workers check [`drain_requested`] before each attempt and finish
//! the attempt in hand before exiting, so a Ctrl-C leaves the WAL ending
//! in a clean `drain` record instead of a torn frame. A second SIGINT falls
//! through to the default disposition (process kill) — that path is what
//! the crash-resume machinery exists for.
//!
//! The handler is the only unsafe code in the crate: the container has
//! no signal-handling crate, so we declare `signal(2)` directly. The
//! handler body just stores into an `AtomicBool`, which is
//! async-signal-safe.

use std::sync::atomic::{AtomicBool, Ordering};

static DRAIN: AtomicBool = AtomicBool::new(false);

/// Ask every worker to finish its current job and stop.
pub fn request_drain() {
    DRAIN.store(true, Ordering::SeqCst);
}

/// Has a drain been requested (by SIGINT or [`request_drain`])?
pub fn drain_requested() -> bool {
    DRAIN.load(Ordering::SeqCst)
}

/// Clear the drain flag (tests, or a fresh `run` after a drained one).
pub fn reset_drain() {
    DRAIN.store(false, Ordering::SeqCst);
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod unix {
    use super::DRAIN;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    type SigHandler = extern "C" fn(i32);

    extern "C" {
        fn signal(signum: i32, handler: SigHandler) -> usize;
    }

    extern "C" fn on_sigint(_sig: i32) {
        // Store only — async-signal-safe. Restore the default disposition
        // so a second Ctrl-C kills the process outright.
        DRAIN.store(true, Ordering::SeqCst);
    }

    /// Route SIGINT to the drain flag.
    pub fn install_sigint_handler() {
        // SAFETY: `signal` is the POSIX signal(2) entry point; the handler
        // only performs an atomic store, which is async-signal-safe.
        unsafe {
            signal(SIGINT, on_sigint);
        }
    }
}

#[cfg(unix)]
pub use unix::install_sigint_handler;

/// No-op on non-Unix targets; Ctrl-C falls back to the default kill,
/// which `farm resume` recovers from.
#[cfg(not(unix))]
pub fn install_sigint_handler() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_flag_round_trips() {
        reset_drain();
        assert!(!drain_requested());
        request_drain();
        assert!(drain_requested());
        reset_drain();
        assert!(!drain_requested());
    }
}
