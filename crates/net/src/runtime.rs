//! Session control shared by the live host's threads: the
//! completion-signaled shutdown ([`SessionControl`], [`await_session`]).
//! The `Runtime` that hosts the `mss-core` actors is the simulator's own
//! `Ctx`: a live worker is an `mss_sim` world on a wall clock (see
//! [`crate::live`]); this module is only the orchestration around it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Shared shutdown/completion state for one live session.
///
/// Replaces the old bare `AtomicBool` stop flag: hosts raise `done` the
/// moment the session's completion condition holds (the leaf finished
/// streaming), and the orchestrator waits on *done-or-deadline* instead
/// of always sleeping the full wall timeout. `stop` remains the hard
/// cutoff every hosting loop polls.
#[derive(Default)]
pub struct SessionControl {
    stop: AtomicBool,
    done: Mutex<bool>,
    cv: Condvar,
}

impl SessionControl {
    /// Fresh control block (not stopped, not done).
    pub fn new() -> SessionControl {
        SessionControl::default()
    }

    /// Raise the hard stop flag; hosting loops exit at their next poll.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        // Wake any orchestrator still blocked in `wait_done`.
        self.cv.notify_all();
    }

    /// True once `request_stop` has been called.
    pub fn should_stop(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Mark the session's completion condition as reached and wake the
    /// orchestrator. Idempotent.
    pub fn signal_done(&self) {
        let mut done = self.done.lock().expect("session control poisoned");
        if !*done {
            *done = true;
            self.cv.notify_all();
        }
    }

    /// Block until the session signals done or `timeout` elapses.
    /// Returns true when completion (not the deadline) ended the wait.
    pub fn wait_done(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut done = self.done.lock().expect("session control poisoned");
        while !*done && !self.should_stop() {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(done, deadline - now)
                .expect("session control poisoned");
            done = guard;
        }
        *done
    }
}

/// Post-completion settle: long enough for in-flight datagrams and the
/// final coordination replies to land, far shorter than any wall
/// timeout a test would otherwise sleep out in full. Public so
/// benchmarks can subtract this fixed grace from measured wall-clock.
pub const SETTLE: Duration = Duration::from_millis(200);

/// Orchestrator-side shutdown: wait for completion or the wall deadline,
/// then (on completion) a short settle grace so in-flight stragglers
/// land — late data packets, final coordination replies — before the
/// hard stop. Returns the elapsed time until the done signal, or `None`
/// when the deadline ended the wait. This is the replacement for
/// `sleep(wall_timeout)`: a finished session pays `settle`, not the
/// full timeout — and the returned duration is the honest
/// time-to-completion, excluding that teardown grace.
pub fn await_session(
    ctl: &SessionControl,
    wall_timeout: Duration,
    settle: Duration,
) -> Option<Duration> {
    let start = Instant::now();
    let done = ctl.wait_done(wall_timeout);
    let elapsed = start.elapsed();
    if done {
        std::thread::sleep(settle);
    }
    ctl.request_stop();
    done.then_some(elapsed)
}
