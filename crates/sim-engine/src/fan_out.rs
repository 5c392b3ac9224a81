//! Scoped fan-out of independent, index-addressed jobs.
//!
//! [`fan_out`] runs `job(0), job(1), ..., job(count-1)` on the calling
//! thread plus up to `helpers` scoped threads, which claim indices from a
//! shared cursor: whichever thread frees up first takes the next
//! unstarted job, so one long job never holds back the ones behind it.
//! The threads live for one call only. Callers fan out whole simulation
//! runs (milliseconds to seconds each), so a spawn per call is noise.
//!
//! Determinism contract: the fan-out orders nothing but its return value,
//! which lists every job's output in index order whatever thread ran it.
//! Jobs that write shared state must make those writes commute. With zero
//! helpers (or at most one job) everything runs inline on the caller, in
//! index order.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Runs `job(i)` for every `i in 0..count` on the caller and up to
/// `helpers` scoped threads, and returns the outputs in index order.
///
/// Each thread collects its outputs locally, so a panicking job poisons
/// no shared lock.
///
/// # Panics
///
/// If any job panics, the first captured payload (the caller's own
/// first, then the helpers' in spawn order) is re-raised here with its
/// original value, after every helper has stopped.
///
/// # Examples
///
/// ```
/// use manet_sim_engine::fan_out;
///
/// let squares = fan_out(5, 2, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn fan_out<O, F>(count: usize, helpers: usize, job: F) -> Vec<O>
where
    O: Send,
    F: Fn(usize) -> O + Sync,
{
    let helpers = helpers.min(count.saturating_sub(1));
    if helpers == 0 {
        return (0..count).map(job).collect();
    }
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut local = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                return local;
            }
            local.push((i, job(i)));
        }
    };
    let results: Vec<thread::Result<Vec<(usize, O)>>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(claim)).collect();
        let mut results = vec![catch_unwind(AssertUnwindSafe(claim))];
        results.extend(handles.into_iter().map(|h| h.join()));
        results
    });
    let mut slots: Vec<Option<O>> = Vec::new();
    slots.resize_with(count, || None);
    for result in results {
        match result {
            Ok(local) => {
                for (i, out) in local {
                    slots[i] = Some(out);
                }
            }
            Err(payload) => resume_unwind(payload),
        }
    }
    slots
        .into_iter()
        .map(|o| o.expect("fan-out skipped an index"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn covers_every_index_exactly_once_in_order() {
        for helpers in [0, 1, 3] {
            for count in [0usize, 1, 2, 17, 100] {
                let hits: Vec<AtomicU64> = (0..count).map(|_| AtomicU64::new(0)).collect();
                let out = fan_out(count, helpers, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                    i * 2
                });
                assert_eq!(out, (0..count).map(|i| i * 2).collect::<Vec<_>>());
                for (i, h) in hits.iter().enumerate() {
                    assert_eq!(
                        h.load(Ordering::Relaxed),
                        1,
                        "index {i} at {helpers} helpers"
                    );
                }
            }
        }
    }

    #[test]
    fn job_panic_reaches_the_caller_with_its_payload() {
        for helpers in [0, 2] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                fan_out(8, helpers, |i| {
                    if i == 5 {
                        panic!("boom at {i}");
                    }
                })
            }));
            let payload = result.expect_err("a job panic must reach the caller");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert_eq!(msg, "boom at 5", "original payload at {helpers} helpers");
        }
    }
}
