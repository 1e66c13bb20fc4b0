//! Transparent striping — the first of the conclusion's "wide array
//! of variations": a filesystem whose files are striped across
//! multiple disks for single-file bandwidth beyond one server's port.
//!
//! Layout: a file is cut into fixed-size stripes dealt round-robin
//! over `k` servers chosen at create time. Each server holds its
//! stripes compacted into one part file, so stripe `s` of a `k`-way
//! file lives in part `s mod k` at offset `(s div k) * stripe_size`.
//! The directory tree (any [`FileSystem`], as with DPFS/DSFS) stores a
//! stripe-stub naming the layout.
//!
//! Like every TSS abstraction this is built *entirely* on the ordinary
//! file interface of the servers — no new server code was required to
//! add striping, which is the architectural point being demonstrated.

use std::io;
use std::sync::Arc;

use chirp_proto::{OpenFlags, StatBuf};

use crate::cfs::reopen_flags_of;
use crate::failover::FailoverHandle;
use crate::fanout::run_fanout;
use crate::fs::{FileHandle, FileSystem};
use crate::placement::Placement;
use crate::pool::ServerPool;
use crate::stub::Layout;
use crate::stubfs::{delegate_filesystem, DataServer, StubFs, StubFsOptions};

/// A filesystem that stripes each new file over several servers: the
/// stub engine, creating [`Layout::Striped`] files.
pub struct StripedFs {
    inner: StubFs,
}

impl StripedFs {
    /// Build a striped filesystem: directory tree on `meta`, data
    /// striped `width`-ways in `stripe_size` units over `pool`.
    pub fn new(
        meta: Arc<dyn FileSystem>,
        pool: Vec<DataServer>,
        width: usize,
        stripe_size: u64,
        options: StubFsOptions,
    ) -> io::Result<StripedFs> {
        if width == 0 || pool.len() < width {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "stripe width exceeds pool",
            ));
        }
        if stripe_size == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "zero stripe"));
        }
        Ok(StripedFs {
            inner: StubFs::with_layout(
                meta,
                pool,
                Placement::round_robin(),
                options,
                Layout::Striped { stripe_size },
                width,
            ),
        })
    }
}

delegate_filesystem!(StripedFs, inner);

/// The arithmetic of a striped file: `width` parts, `stripe_size`
/// bytes per stripe.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    stripe_size: u64,
    width: u64,
}

impl Geometry {
    /// Where byte `offset` lives: `(part index, offset within part)`.
    fn locate(self, offset: u64) -> (usize, u64) {
        let stripe = offset / self.stripe_size;
        let within = offset % self.stripe_size;
        let part = (stripe % self.width) as usize;
        let part_offset = (stripe / self.width) * self.stripe_size + within;
        (part, part_offset)
    }

    /// Bytes from `offset` to the end of its stripe.
    fn stripe_remaining(self, offset: u64) -> u64 {
        self.stripe_size - (offset % self.stripe_size)
    }
}

/// The attributes of a striped file from those of its parts, in part
/// order: the logical size is the sum of the compacted part sizes, and
/// the first error wins.
pub(crate) fn sum_sizes(stats: Vec<io::Result<StatBuf>>) -> io::Result<StatBuf> {
    let stats = stats.into_iter().collect::<io::Result<Vec<StatBuf>>>()?;
    let mut base = stats[0];
    base.size = stats.iter().map(|st| st.size).sum();
    Ok(base)
}

/// One open striped file. Per-part RPCs fan out over scoped threads:
/// each part has its own pooled connection, so parts genuinely proceed
/// concurrently, and each part is a [`FailoverHandle`] over its one
/// location, so it recovers from a dead connection by re-opening
/// itself mid-operation (the step before first-error-wins).
pub(crate) struct StripedHandle {
    geometry: Geometry,
    parts: Vec<FailoverHandle>,
}

/// The outcome of one stripe-chunk RPC, tagged with its position in
/// logical-offset order so partial results merge deterministically.
type ChunkResult = (usize, io::Result<usize>);

impl StripedHandle {
    /// One handle over `parts` (in stripe order) already opened as
    /// `handles` with `flags`.
    pub(crate) fn new(
        stripe_size: u64,
        parts: Vec<(String, String)>,
        handles: Vec<Box<dyn FileHandle>>,
        pool: &ServerPool,
        flags: OpenFlags,
    ) -> StripedHandle {
        let geometry = Geometry {
            stripe_size,
            width: parts.len() as u64,
        };
        // A part is re-opened with the open flags minus the one-shot
        // bits (create, truncate), so recovery never clobbers data.
        let flags = reopen_flags_of(flags);
        let parts = parts
            .into_iter()
            .zip(handles)
            .map(|(part, handle)| FailoverHandle::new(vec![part], 0, handle, pool, flags))
            .collect();
        StripedHandle { geometry, parts }
    }

    /// Run `op` on every part concurrently; results come back in part
    /// order.
    fn on_each_part<T: Send>(
        &mut self,
        op: impl Fn(usize, &mut FailoverHandle) -> io::Result<T> + Sync,
    ) -> Vec<io::Result<T>> {
        let op = &op;
        let jobs: Vec<_> = self
            .parts
            .iter_mut()
            .enumerate()
            .map(|(i, part)| move || op(i, part))
            .collect();
        run_fanout(jobs)
    }
}

impl FileHandle for StripedHandle {
    fn pread(&mut self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        // Split the request into per-stripe chunks of disjoint buffer
        // slices, grouped by part; each part's chunks run in logical
        // order on that part's own connection, and parts run
        // concurrently.
        let mut plans: Vec<Vec<(usize, u64, &mut [u8])>> =
            (0..self.parts.len()).map(|_| Vec::new()).collect();
        let mut chunk_lens = Vec::new();
        let mut rest = buf;
        let mut pos = 0u64;
        while !rest.is_empty() {
            let off = offset + pos;
            let (part, part_off) = self.geometry.locate(off);
            let len = rest.len().min(self.geometry.stripe_remaining(off) as usize);
            let (chunk, tail) = rest.split_at_mut(len);
            plans[part].push((chunk_lens.len(), part_off, chunk));
            chunk_lens.push(len);
            rest = tail;
            pos += len as u64;
        }
        let jobs: Vec<_> = self
            .parts
            .iter_mut()
            .zip(plans)
            .filter(|(_, plan)| !plan.is_empty())
            .map(|(part, plan)| {
                move || {
                    let mut out: Vec<ChunkResult> = Vec::with_capacity(plan.len());
                    for (order, part_off, chunk) in plan {
                        let want = chunk.len();
                        match part.pread(chunk, part_off) {
                            Ok(n) => {
                                out.push((order, Ok(n)));
                                if n < want {
                                    break; // this part hit end of file
                                }
                            }
                            Err(e) => {
                                out.push((order, Err(e)));
                                break;
                            }
                        }
                    }
                    out
                }
            })
            .collect();
        // Merge in logical order, reproducing the sequential loop's
        // semantics: stop at the first short chunk (end of file),
        // surface the first erroring chunk.
        let mut by_order: Vec<Option<io::Result<usize>>> =
            chunk_lens.iter().map(|_| None).collect();
        for part_out in run_fanout(jobs) {
            for (order, res) in part_out {
                by_order[order] = Some(res);
            }
        }
        let mut filled = 0usize;
        for (i, res) in by_order.into_iter().enumerate() {
            match res {
                Some(Ok(n)) => {
                    filled += n;
                    if n < chunk_lens[i] {
                        break;
                    }
                }
                Some(Err(e)) => return Err(e),
                // Not attempted: an earlier chunk of the same part
                // stopped, and the global walk stops there first.
                None => break,
            }
        }
        Ok(filled)
    }

    fn pwrite(&mut self, buf: &[u8], offset: u64) -> io::Result<usize> {
        let mut plans: Vec<Vec<(usize, u64, &[u8])>> =
            (0..self.parts.len()).map(|_| Vec::new()).collect();
        let mut chunk_lens = Vec::new();
        let mut rest = buf;
        let mut pos = 0u64;
        while !rest.is_empty() {
            let off = offset + pos;
            let (part, part_off) = self.geometry.locate(off);
            let len = rest.len().min(self.geometry.stripe_remaining(off) as usize);
            let (chunk, tail) = rest.split_at(len);
            plans[part].push((chunk_lens.len(), part_off, chunk));
            chunk_lens.push(len);
            rest = tail;
            pos += len as u64;
        }
        let jobs: Vec<_> = self
            .parts
            .iter_mut()
            .zip(plans)
            .filter(|(_, plan)| !plan.is_empty())
            .map(|(part, plan)| {
                move || {
                    let mut out: Vec<(usize, io::Result<()>)> = Vec::with_capacity(plan.len());
                    for (order, part_off, chunk) in plan {
                        match part.pwrite(chunk, part_off) {
                            Ok(_) => out.push((order, Ok(()))),
                            Err(e) => {
                                out.push((order, Err(e)));
                                break;
                            }
                        }
                    }
                    out
                }
            })
            .collect();
        let mut by_order: Vec<Option<io::Result<()>>> = chunk_lens.iter().map(|_| None).collect();
        for part_out in run_fanout(jobs) {
            for (order, res) in part_out {
                by_order[order] = Some(res);
            }
        }
        let mut written = 0usize;
        for (i, res) in by_order.into_iter().enumerate() {
            match res {
                Some(Ok(())) => written += chunk_lens[i],
                Some(Err(e)) => return Err(e),
                None => break,
            }
        }
        Ok(written)
    }

    fn fstat(&mut self) -> io::Result<StatBuf> {
        sum_sizes(self.on_each_part(|_, h| h.fstat()))
    }

    fn fsync(&mut self) -> io::Result<()> {
        self.on_each_part(|_, h| h.fsync()).into_iter().collect()
    }

    fn ftruncate(&mut self, size: u64) -> io::Result<()> {
        // Compute each part's new length: whole stripes dealt round
        // robin plus the partial tail.
        let k = self.geometry.width;
        let ss = self.geometry.stripe_size;
        let full = size / ss;
        let tail = size % ss;
        let part_lens: Vec<u64> = (0..k)
            .map(|i| {
                // Stripes this part holds among the first `full`
                // stripes; the tail stripe replaces that part's next
                // stripe slot (when tail == 0 nothing is added).
                let whole = full / k + u64::from(i < full % k);
                let mut part_len = whole * ss;
                if i == full % k {
                    part_len += tail;
                }
                part_len
            })
            .collect();
        self.on_each_part(|i, h| h.ftruncate(part_lens[i]))
            .into_iter()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_deals_stripes_round_robin() {
        let g = Geometry {
            stripe_size: 100,
            width: 3,
        };
        assert_eq!(g.locate(0), (0, 0));
        assert_eq!(g.locate(99), (0, 99));
        assert_eq!(g.locate(100), (1, 0));
        assert_eq!(g.locate(250), (2, 50));
        // Second round: stripe 3 -> part 0 at its second slot.
        assert_eq!(g.locate(300), (0, 100));
        assert_eq!(g.locate(599), (2, 199));
        assert_eq!(g.stripe_remaining(0), 100);
        assert_eq!(g.stripe_remaining(130), 70);
    }
}
