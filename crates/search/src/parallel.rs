//! Data-parallel building blocks for index construction and batch
//! query pipelines.
//!
//! Built on `std::thread::scope` — this workspace vendors no external
//! crates, so there is no rayon; a scoped fork-join over an index
//! range covers everything the search structures need. Work is dealt
//! **strided** (thread `t` takes indices `t, t + T, t + 2T, …`), which
//! balances the triangular loops of AESA preprocessing (row `i` costs
//! `n − i − 1` distances) as well as uniform per-query batches.
//!
//! The worker count defaults to [`std::thread::available_parallelism`]
//! and can be pinned with the `CNED_THREADS` environment variable
//! (read **once**, at first use — `getenv` after worker threads exist
//! would be a data race if anything called `setenv`) or at runtime
//! with [`set_thread_override`] — useful both for capping fan-out on
//! shared machines and for exercising the multi-threaded code paths
//! in tests on single-core CI boxes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Runtime override; 0 means "no override".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `CNED_THREADS` parsed once per process.
static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();

fn parse_threads(value: &str) -> Option<usize> {
    value.parse::<usize>().ok().filter(|&n| n > 0)
}

/// Pin the worker count at runtime (`Some(n)`), or restore the
/// default resolution (`None`). Takes precedence over `CNED_THREADS`.
///
/// This is the mechanism tests use to exercise the threaded paths —
/// mutating the environment instead would race with concurrent
/// `getenv` calls from other test threads.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::SeqCst);
}

/// Number of worker threads parallel operations will use.
pub fn num_threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::SeqCst) {
        0 => ENV_THREADS
            .get_or_init(|| {
                std::env::var("CNED_THREADS")
                    .ok()
                    .as_deref()
                    .and_then(parse_threads)
            })
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            }),
        n => n,
    }
}

/// Worker count for `n` independent work items: [`num_threads`]
/// clamped to the number of items, and never zero.
///
/// Every consumer that spawns workers over a batch must fan out
/// through this clamp rather than raw [`num_threads`]: with a large
/// `CNED_THREADS` (or a future 128-core box) a 3-element batch would
/// otherwise spawn dozens of workers whose strided ranges are empty —
/// pure spawn/join overhead, and in a serving pipeline a thundering
/// herd per tiny batch.
pub fn workers_for(n: usize) -> usize {
    num_threads().min(n).max(1)
}

/// Compute `f(0), f(1), …, f(n - 1)` across [`workers_for`]`(n)`
/// scoped threads, returning the results in index order.
///
/// Falls back to a plain sequential map when one thread suffices (or
/// `n <= 1`), so callers pay no threading overhead in the small case.
/// A panic in `f` propagates to the caller.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = workers_for(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let f = &f;
            handles.push(scope.spawn(move || {
                let mut out = Vec::with_capacity(n / threads + 1);
                let mut i = t;
                while i < n {
                    out.push((i, f(i)));
                    i += threads;
                }
                out
            }));
        }
        for handle in handles {
            for (i, v) in handle.join().expect("cned-search worker thread panicked") {
                slots[i] = Some(v);
            }
        }
    });
    slots
        .into_iter()
        .map(|v| v.expect("every index computed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_covers_all_indices() {
        let out = par_map(257, |i| i * i);
        assert_eq!(out.len(), 257);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(par_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn override_forces_thread_counts() {
        // The override is process-global: serialise with the other
        // tests that set it. This exercises the threaded path even on
        // a single-core machine.
        let _guard = crate::TEST_ENV_LOCK.lock().unwrap();
        let sequential: Vec<usize> = (0..100).map(|i| i * 3 + 1).collect();
        for threads in [1usize, 2, 7] {
            set_thread_override(Some(threads));
            assert_eq!(num_threads(), threads);
            assert_eq!(par_map(100, |i| i * 3 + 1), sequential, "threads {threads}");
        }
        set_thread_override(None);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn worker_fan_out_is_clamped_to_items() {
        // Regression: a huge thread override over a tiny batch must
        // not spawn workers with empty strided ranges.
        let _guard = crate::TEST_ENV_LOCK.lock().unwrap();
        set_thread_override(Some(64));
        assert_eq!(workers_for(3), 3);
        assert_eq!(workers_for(1), 1);
        assert_eq!(workers_for(0), 1);
        assert_eq!(workers_for(100), 64);
        // A 3-element batch under the 64-thread override still
        // computes every element exactly once, in order.
        assert_eq!(par_map(3, |i| i * 2), vec![0, 2, 4]);
        set_thread_override(None);
    }

    #[test]
    fn env_value_parsing() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads("1"), Some(1));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("not-a-number"), None);
        assert_eq!(parse_threads(""), None);
    }
}
