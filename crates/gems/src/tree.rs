//! THIRDPUT distribution trees: N replicas in O(log N) time.
//!
//! Pushing N replicas from one source serially costs N source
//! uplinks back to back. But THIRDPUT moves data *server-to-server*:
//! once any depot holds the file, it can push onward. So
//! distribution runs in doubling waves — every server that already
//! holds the data pushes to one that does not, and the holder set
//! doubles each wave: 1 → 2 → 4 → 8. Eight replicas cost three
//! wave-times instead of seven serial pushes (§6 of the paper calls
//! this out as the motivation for third-party transfer).
//!
//! The tree is resilient mid-flight: a failed push is retried
//! against a *different* holder (the orphaned subtree re-parents),
//! holders that keep failing are demoted, and the whole transfer is
//! bounded by per-target attempt budgets. Per-hop telemetry
//! (`tree.hops`, `tree.depth`, `tree.bytes_relayed`, `tree.retries`,
//! `tree.reparents`) ties every fault to its recovery, and the
//! `on_wave` hook gives chaos tests a deterministic seam to kill an
//! interior node between waves.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use chirp_proto::Clock;
use parking_lot::Mutex;
use telemetry::Registry;
use tss_core::cfs::Cfs;

/// One location in a distribution tree: a server and a path on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeTarget {
    /// File server endpoint, `host:port`.
    pub endpoint: String,
    /// Path of the data on that server.
    pub path: String,
}

impl TreeTarget {
    /// A target at `endpoint:path`.
    pub fn new(endpoint: &str, path: &str) -> TreeTarget {
        TreeTarget {
            endpoint: endpoint.to_string(),
            path: path.to_string(),
        }
    }
}

/// Tuning for a tree distribution.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// The clock retry backoff sleeps on (virtual under simulation).
    pub clock: Clock,
    /// Pause before re-trying failed pushes.
    pub backoff: Duration,
    /// Push attempts per target before it is abandoned.
    pub max_attempts: u32,
}

impl Default for TreeConfig {
    fn default() -> TreeConfig {
        TreeConfig {
            clock: Clock::wall(),
            backoff: Duration::from_millis(50),
            max_attempts: 3,
        }
    }
}

/// What a distribution accomplished.
#[derive(Debug, Clone, Default)]
pub struct TreeReport {
    /// Successful pushes (tree edges traversed).
    pub hops: u64,
    /// Waves executed — the tree's depth, ~⌈log₂(replicas)⌉ when
    /// nothing fails.
    pub depth: u64,
    /// Bytes pushed by servers other than the original source —
    /// load the tree took *off* the source's uplink.
    pub bytes_relayed: u64,
    /// Failed pushes that were retried.
    pub retries: u64,
    /// Targets that moved to a different parent after a failure.
    pub reparents: u64,
    /// Targets that now hold the data.
    pub completed: Vec<TreeTarget>,
    /// Targets abandoned after exhausting their attempt budget.
    pub failed: Vec<TreeTarget>,
}

/// Internal per-wave push outcome.
struct PushOutcome {
    target: TreeTarget,
    attempts: u32,
    holder_at: usize,
    result: std::io::Result<u64>,
}

/// Distribute `source`'s file to every target as a doubling tree.
///
/// `conn` yields a client for an endpoint (cached upstream — the
/// tree dials each holder at most once per wave). When `registry` is
/// given, per-hop telemetry lands in `tree.*`. `on_wave(w)` runs
/// after wave `w` completes (1-based) — the deterministic seam chaos
/// tests use to fail an interior holder mid-transfer.
pub fn distribute<F>(
    source: &TreeTarget,
    targets: &[TreeTarget],
    conn: F,
    cfg: &TreeConfig,
    registry: Option<&Registry>,
    mut on_wave: Option<&mut (dyn FnMut(u64) + Send)>,
) -> TreeReport
where
    F: Fn(&str) -> Arc<Cfs> + Sync,
{
    let mut report = TreeReport::default();
    let mut holders: Vec<TreeTarget> = vec![source.clone()];
    let mut strikes: HashMap<String, u32> = HashMap::new();
    let mut pending: std::collections::VecDeque<(TreeTarget, u32)> =
        targets.iter().map(|t| (t.clone(), 0u32)).collect();

    while !pending.is_empty() {
        report.depth += 1;
        let wave = report.depth;
        let fanout = holders.len().min(pending.len());
        let batch: Vec<(TreeTarget, u32, usize)> = (0..fanout)
            .map(|k| {
                let (target, attempts) = pending.pop_front().expect("fanout <= pending");
                // Rotate holder assignment by wave so a retried
                // target meets a *different* parent than last time.
                let holder_at = (k + wave as usize) % holders.len();
                (target, attempts, holder_at)
            })
            .collect();

        let outcomes: Mutex<Vec<PushOutcome>> = Mutex::new(Vec::with_capacity(fanout));
        std::thread::scope(|scope| {
            for (target, attempts, holder_at) in batch {
                let holder = holders[holder_at].clone();
                let conn = &conn;
                let outcomes = &outcomes;
                scope.spawn(move || {
                    let cfs = conn(&holder.endpoint);
                    let result = cfs.thirdput(&holder.path, &target.endpoint, &target.path);
                    outcomes.lock().push(PushOutcome {
                        target,
                        attempts: attempts + 1,
                        holder_at,
                        result,
                    });
                });
            }
        });

        let mut any_failed = false;
        for outcome in outcomes.into_inner() {
            let holder_endpoint = holders[outcome.holder_at].endpoint.clone();
            match outcome.result {
                Ok(n) => {
                    report.hops += 1;
                    if holder_endpoint != source.endpoint {
                        report.bytes_relayed += n;
                    }
                    report.completed.push(outcome.target.clone());
                    holders.push(outcome.target);
                }
                Err(_) => {
                    any_failed = true;
                    report.retries += 1;
                    *strikes.entry(holder_endpoint).or_default() += 1;
                    if outcome.attempts >= cfg.max_attempts {
                        report.failed.push(outcome.target);
                    } else {
                        report.reparents += 1;
                        pending.push_back((outcome.target, outcome.attempts));
                    }
                }
            }
        }
        // Demote holders that failed twice — a dead interior node
        // must not keep adopting orphans. The source is exempt: with
        // no holders at all the transfer cannot proceed.
        holders.retain(|h| {
            h.endpoint == source.endpoint || strikes.get(&h.endpoint).copied().unwrap_or(0) < 2
        });

        if let Some(hook) = on_wave.as_deref_mut() {
            hook(wave);
        }
        if any_failed && !pending.is_empty() {
            cfg.clock.sleep(cfg.backoff);
        }
    }

    if let Some(reg) = registry {
        reg.counter("tree.hops").add(report.hops);
        reg.counter("tree.bytes_relayed").add(report.bytes_relayed);
        reg.counter("tree.retries").add(report.retries);
        reg.counter("tree.reparents").add(report.reparents);
        reg.gauge("tree.depth").set(report.depth as i64);
    }
    report
}

/// The depth a fault-free doubling tree needs for `n` targets:
/// ⌈log₂(n+1)⌉ waves (holders double each wave starting from one).
pub fn ideal_depth(n: usize) -> u64 {
    let mut depth = 0u64;
    let mut holders = 1usize;
    let mut placed = 0usize;
    while placed < n {
        let pushes = holders.min(n - placed);
        placed += pushes;
        holders += pushes;
        depth += 1;
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_depth_is_logarithmic() {
        assert_eq!(ideal_depth(0), 0);
        assert_eq!(ideal_depth(1), 1);
        assert_eq!(ideal_depth(2), 2);
        assert_eq!(ideal_depth(3), 2);
        assert_eq!(ideal_depth(7), 3);
        assert_eq!(ideal_depth(8), 4);
        assert_eq!(ideal_depth(15), 4);
    }
}
