//! Cooperative query cancellation.
//!
//! A [`CancelToken`] is a cheap, cloneable handle checked at the
//! executor's natural yield points — morsel claims, chunk boundaries,
//! spill operations, external-sort merge rounds. Cancellation is
//! *cooperative*: nothing is interrupted mid-kernel; the query unwinds
//! via ordinary `Result` propagation, so every RAII guard (memory
//! reservations, spill temp files, channel hang-ups) runs and the
//! engine is immediately reusable.
//!
//! Two triggers share one code path:
//!
//! - **Caller-side cancellation** — [`CancelToken::cancel`] flips a
//!   shared flag; every clone observes it.
//! - **Deadline** — [`CancelToken::with_timeout`] derives a per-query
//!   child that also trips once the deadline passes (the Dask engine
//!   derives one per query from [`ExecConfig::query_timeout`]).
//!
//! [`ExecConfig::query_timeout`]: crate::ExecConfig::query_timeout
//!
//! Both surface as [`ColumnarError::Cancelled`] with a message saying
//! which trigger fired.

use crate::error::{ColumnarError, Result};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cloneable cancellation handle. Clones share the cancel flag;
/// deadlines are per-handle (set when the handle is derived).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A fresh, uncancelled token with no deadline.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Trip the token. Every clone (and every child derived with
    /// [`with_timeout`](CancelToken::with_timeout)) observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has the token been cancelled or its deadline passed?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Cheap cooperative check: `Err(Cancelled)` once tripped. A passed
    /// deadline latches the shared flag so later checks (and siblings
    /// of this handle) fail fast without consulting the clock.
    pub fn check(&self) -> Result<()> {
        if self.flag.load(Ordering::Relaxed) {
            return Err(ColumnarError::Cancelled("query cancelled".into()));
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.flag.store(true, Ordering::Relaxed);
                return Err(ColumnarError::Cancelled(
                    "query deadline exceeded".into(),
                ));
            }
        }
        Ok(())
    }

    /// Derive a child sharing this token's cancel flag with a deadline
    /// `timeout` from now (tighter of the two if this handle already
    /// has one).
    pub fn with_timeout(&self, timeout: Duration) -> CancelToken {
        let new = Instant::now() + timeout;
        CancelToken {
            flag: Arc::clone(&self.flag),
            deadline: Some(match self.deadline {
                Some(d) => d.min(new),
                None => new,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_passes() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
    }

    #[test]
    fn cancel_is_seen_by_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        t.cancel();
        assert!(c.is_cancelled());
        assert!(matches!(
            c.check(),
            Err(ColumnarError::Cancelled(_))
        ));
    }

    #[test]
    fn zero_timeout_trips_immediately_and_latches() {
        let t = CancelToken::new();
        let q = t.with_timeout(Duration::from_millis(0));
        let err = q.check().unwrap_err();
        assert!(matches!(err, ColumnarError::Cancelled(_)));
        // Deadline latched the shared flag: the parent now fails too.
        assert!(t.is_cancelled());
    }

    #[test]
    fn long_timeout_does_not_trip() {
        let t = CancelToken::new().with_timeout(Duration::from_secs(3600));
        assert!(t.check().is_ok());
    }

    #[test]
    fn child_keeps_tighter_deadline() {
        let t = CancelToken::new().with_timeout(Duration::from_millis(0));
        let child = t.with_timeout(Duration::from_secs(3600));
        assert!(child.check().is_err(), "parent deadline is tighter");
    }
}
