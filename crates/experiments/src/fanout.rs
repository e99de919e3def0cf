//! Ordered fan-out of independent jobs over scoped worker threads.
//!
//! Workers take job indices from one atomic cursor and store each result
//! in that job's slot, so the results come back in input order whichever
//! worker ran which job. That ordering is what makes a parallel trial
//! batch bit-identical to a serial one.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The worker count trial batches use: `RAYON_NUM_THREADS` when it holds a
/// positive number, else the machine's available parallelism.
pub fn env_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Maps `op` over `items` on up to `threads` scoped workers and returns the
/// results in input order. With one worker (or one item) the jobs run in
/// order on the calling thread.
pub fn map_ordered<T, R, F>(items: &[T], threads: usize, op: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter().map(op).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = op(item);
                *slots[i].lock().expect("slot lock") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("every job ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order_at_any_thread_count() {
        let items: Vec<u64> = (0..200).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [0, 1, 2, 4, 300] {
            assert_eq!(map_ordered(&items, threads, |&x| x * x + 1), serial);
        }
        assert!(map_ordered(&[] as &[u64], 4, |&x| x).is_empty());
    }

    /// Four jobs on four workers are all in flight at once: each waits
    /// until the other three have started. Run one after another, the
    /// first would wait alone until the shared 10 s deadline.
    #[test]
    fn runs_threads_jobs_at_once() {
        use std::sync::Condvar;
        use std::time::{Duration, Instant};

        let deadline = Instant::now() + Duration::from_secs(10);
        let started = Mutex::new(0usize);
        let all_started = Condvar::new();
        let met = map_ordered(&[(); 4], 4, |_| {
            let mut n = started.lock().expect("lock");
            *n += 1;
            all_started.notify_all();
            let wait = deadline.saturating_duration_since(Instant::now());
            let (_n, timeout) = all_started
                .wait_timeout_while(n, wait, |n| *n < 4)
                .expect("lock");
            !timeout.timed_out()
        });
        assert_eq!(met, [true; 4], "the four jobs never ran at once");
    }
}
