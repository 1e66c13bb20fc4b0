//! Data placement for distributed filesystems: which server receives a
//! newly created file, and how data file names are made unique.

use std::sync::atomic::{AtomicUsize, Ordering};

use rand::RngCore;

/// Policy for choosing the server of a new file.
#[derive(Debug)]
pub enum Placement {
    /// Cycle through the servers in order (balanced under uniform
    /// file sizes; deterministic for tests).
    RoundRobin(AtomicUsize),
}

impl Placement {
    /// A fresh round-robin policy.
    pub fn round_robin() -> Placement {
        Placement::RoundRobin(AtomicUsize::new(0))
    }

    /// Choose a server index out of `n`.
    pub fn choose(&self, n: usize) -> usize {
        assert!(n > 0, "placement over an empty server set");
        match self {
            Placement::RoundRobin(next) => next.fetch_add(1, Ordering::Relaxed) % n,
        }
    }
}

/// Generate a unique data file name.
///
/// The paper derives uniqueness from the client's IP address, the
/// current time, and a random number; collisions are additionally
/// caught by the exclusive-open create protocol, so this only needs to
/// make them rare.
pub fn unique_data_name() -> String {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let r = rand::thread_rng().next_u64();
    format!("file-{now:x}-{r:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn round_robin_cycles() {
        let p = Placement::round_robin();
        let picks: Vec<usize> = (0..6).map(|_| p.choose(3)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn unique_names_do_not_collide() {
        let names: HashSet<String> = (0..1000).map(|_| unique_data_name()).collect();
        assert_eq!(names.len(), 1000);
    }

    #[test]
    #[should_panic(expected = "empty server set")]
    fn empty_set_panics() {
        Placement::round_robin().choose(0);
    }
}
