//! Scoped-thread fan-out for the hot multi-server loops.
//!
//! Striping, mirroring, and the stub engine all end in the same shape:
//! N independent RPC jobs, one per server, whose results must come
//! back in submission order so partial-failure semantics ("first error
//! in part order wins") are those of a sequential loop. This helper
//! runs that shape on one scoped thread per job.

/// Run every job and return their results in submission order.
///
/// With more than one job, each gets its own scoped thread; a single
/// job runs inline. A panicking job is propagated to the caller either
/// way.
pub(crate) fn run_fanout<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    if jobs.len() <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    std::thread::scope(|scope| {
        let threads: Vec<_> = jobs.into_iter().map(|job| scope.spawn(job)).collect();
        threads
            .into_iter()
            .map(|t| t.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_keep_submission_order() {
        let jobs: Vec<_> = (0..8)
            .map(|i| {
                move || {
                    if i % 2 == 0 {
                        // Stagger even jobs so finish order differs
                        // from submission order.
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                    i * 10
                }
            })
            .collect();
        assert_eq!(run_fanout(jobs), vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn parallel_jobs_overlap_in_time() {
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..4)
            .map(|_| {
                let live = &live;
                let peak = &peak;
                move || {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    live.fetch_sub(1, Ordering::SeqCst);
                }
            })
            .collect();
        run_fanout(jobs);
        assert!(peak.load(Ordering::SeqCst) > 1, "jobs never overlapped");
    }

    #[test]
    fn a_single_job_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ran_on = run_fanout(vec![|| std::thread::current().id()]);
        assert_eq!(ran_on, vec![caller]);
    }

    #[test]
    fn mutable_borrows_can_be_distributed() {
        let mut cells = [0u64; 4];
        let jobs: Vec<_> = cells
            .iter_mut()
            .enumerate()
            .map(|(i, cell)| move || *cell = i as u64 + 1)
            .collect();
        run_fanout(jobs);
        assert_eq!(cells, [1, 2, 3, 4]);
    }
}
