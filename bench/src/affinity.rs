//! Thread placement, so that runs repeat.
//!
//! On a small virtual machine the kernel's choice of which threads
//! share a processor moves loopback round trips by a factor of two to
//! four, and it changes its mind in the middle of a run. The benchmark
//! therefore fixes the placement: reactor worker `i` of every server
//! and client thread `i` run on processor `i`. A client's connections
//! land on the worker of the same number because connections are
//! opened client by client and the reactor deals them round-robin.
//!
//! Placement is a property of the measurement, not of the program:
//! nothing here reaches the crates under test. Where the platform
//! refuses (one processor, a restricted container) the threads stay
//! where they are and the run goes on.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

extern "C" {
    // From the C library the standard library already links.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Processors this process may use, as seen before anything was pinned.
fn processors() -> usize {
    static COUNT: OnceLock<usize> = OnceLock::new();
    *COUNT.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get().min(64)))
}

/// Restrict thread `tid` (0 = the caller) to `cpu`, or give it every
/// processor back with `None`. Best effort.
fn set(tid: i32, cpu: Option<usize>) {
    let all = if processors() == 64 {
        u64::MAX
    } else {
        (1u64 << processors()) - 1
    };
    let mask = cpu.map_or(all, |c| 1u64 << (c % processors()));
    // SAFETY: `mask` is a live u64 and its size is passed with it; the
    // call reads it and keeps nothing.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<u64>(), &mask) };
}

/// Run the calling thread on processor `cpu` (modulo the processors
/// there are); `None` lifts the restriction.
pub fn pin_current(cpu: Option<usize>) {
    set(0, cpu);
}

/// Put every live reactor worker `chirp-react-<i>` of this process on
/// processor `i`. A thread names itself only once it runs, so this
/// waits (up to two seconds) until `expected` workers have shown up.
pub fn pin_reactor_workers(expected: usize) {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let mut pinned = 0;
        for task in std::fs::read_dir("/proc/self/task")
            .into_iter()
            .flatten()
            .flatten()
        {
            let name = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
            let worker = name
                .trim()
                .strip_prefix("chirp-react-")
                .and_then(|i| i.parse().ok());
            let tid = task.file_name().to_str().and_then(|t| t.parse().ok());
            if let (Some(worker), Some(tid)) = (worker, tid) {
                set(tid, Some(worker));
                pinned += 1;
            }
        }
        if pinned >= expected || Instant::now() >= deadline {
            return;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}
