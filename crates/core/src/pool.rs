//! Compatibility stub for the retired OS-threaded batch executor.
//!
//! Bank-level parallelism is modelled in simulated time by
//! [`IssuePolicy::BankParallel`](crate::IssuePolicy::BankParallel); host
//! threads on top of it never beat single-threaded issue at simulator batch
//! sizes, so the persistent worker pool was removed. What remains is a
//! plain `std::thread::scope` fan-out that no library path calls. It exists
//! only so the frozen `perfbench` harness, whose `pool.*` probes name it,
//! still compiles; it goes once a later benchmark revision drops those
//! probes.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::Result;

/// Dispatch counters of an [`ExecutorPool`]. Kept only so the frozen
/// `perfbench` harness compiles; goes with its `pool.*` probes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs handed to an already-running thread. Always 0: every job gets
    /// a fresh scoped thread.
    pub warm_dispatches: u64,
    /// Jobs that spawned a scoped thread.
    pub cold_spawns: u64,
}

/// A `std::thread::scope` fan-out: one scoped thread per job, joined before
/// [`run_scoped`](Self::run_scoped) returns. No library path calls it; it
/// exists only so the frozen `perfbench` harness compiles, and goes once a
/// later benchmark revision drops the `pool.*` probes.
#[derive(Debug, Default)]
pub struct ExecutorPool {
    cold_spawns: AtomicU64,
}

impl ExecutorPool {
    /// Creates a fan-out. The thread count is ignored: each
    /// [`run_scoped`](Self::run_scoped) call spawns one thread per job.
    pub fn new(_threads: usize) -> Self {
        ExecutorPool::default()
    }

    /// Runs every job on its own scoped thread and returns once all have
    /// finished; jobs may borrow from the caller's stack frame. Always
    /// `Ok`: a panicking job re-raises its panic on the caller, exactly as
    /// `std::thread::scope` does.
    ///
    /// # Errors
    ///
    /// None; the `Result` keeps the harness's call sites compiling.
    pub fn run_scoped<'env>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'env>>) -> Result<()> {
        self.cold_spawns
            .fetch_add(jobs.len() as u64, Ordering::Relaxed);
        std::thread::scope(|s| {
            for job in jobs {
                s.spawn(job);
            }
        });
        Ok(())
    }

    /// Dispatch counters since construction.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            warm_dispatches: 0,
            cold_spawns: self.cold_spawns.load(Ordering::Relaxed),
        }
    }
}
