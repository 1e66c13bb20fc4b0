//! Seeded inputs: the random stream every workload draws its choices
//! from, and the file contents every read is checked against.
//!
//! The benchmark carries its own generator (no `rand`, nothing shared
//! with the crates under test) so a change elsewhere in the repository
//! cannot alter the inputs.

/// splitmix64: small, fast, and good enough to pick files and offsets.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        finalize(self.0)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for
    /// every `n` the workloads use.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: u32) -> Vec<u32> {
        let mut v: Vec<u32> = (0..n).collect();
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
        v
    }
}

fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Largest unit a file is stamped in; also the application read size
/// of the stream workloads.
pub const BLOCK: usize = 64 * 1024;

/// File contents as a function of `(seed, file, offset)`.
///
/// A file is a run of equal *units*; the first 8 bytes of each unit
/// encode `(file, offset)` under the seed and the last 8 bytes are
/// their complement, so a read that returns the wrong file, the wrong
/// offset, a torn unit or a stale unit fails the check. The bytes in
/// between come from one seeded template, so data sets differ by seed
/// but cost a `memcpy` per unit to produce.
#[derive(Debug)]
pub struct DataGen {
    seed: u64,
    template: Vec<u8>,
}

impl DataGen {
    pub fn new(seed: u64) -> DataGen {
        let mut rng = Rng::new(seed ^ 0x7465_6d70_6c61_7465);
        let mut template = Vec::with_capacity(BLOCK);
        while template.len() < BLOCK {
            template.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        DataGen { seed, template }
    }

    fn stamp(&self, file: u32, offset: u64) -> u64 {
        finalize(self.seed ^ ((file as u64) << 40) ^ offset)
    }

    /// Fill `buf` (a whole number of `unit`-byte units) with the bytes
    /// of `file` starting at `offset`.
    pub fn fill(&self, file: u32, offset: u64, unit: usize, buf: &mut [u8]) {
        assert!(
            (16..=BLOCK).contains(&unit) && buf.len().is_multiple_of(unit),
            "unit {unit} does not tile a {}-byte buffer",
            buf.len()
        );
        for (i, chunk) in buf.chunks_exact_mut(unit).enumerate() {
            let stamp = self.stamp(file, offset + (i * unit) as u64);
            chunk.copy_from_slice(&self.template[..unit]);
            chunk[..8].copy_from_slice(&stamp.to_le_bytes());
            chunk[unit - 8..].copy_from_slice(&(!stamp).to_le_bytes());
        }
    }

    /// The first `len` bytes of `file`.
    pub fn file_bytes(&self, file: u32, len: usize, unit: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.fill(file, 0, unit, &mut buf);
        buf
    }

    /// Whether `buf` holds the bytes of `file` at `offset`: non-empty,
    /// whole units, every unit's head and tail stamp in place.
    pub fn check(&self, file: u32, offset: u64, unit: usize, buf: &[u8]) -> bool {
        if buf.is_empty() || !buf.len().is_multiple_of(unit) {
            return false;
        }
        buf.chunks_exact(unit).enumerate().all(|(i, chunk)| {
            let stamp = self.stamp(file, offset + (i * unit) as u64);
            chunk[..8] == stamp.to_le_bytes() && chunk[unit - 8..] == (!stamp).to_le_bytes()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_repeats_per_seed_and_differs_across_seeds() {
        let a: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7);
            move || r.next_u64()
        })
        .take(8)
        .collect();
        let b: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7);
            move || r.next_u64()
        })
        .take(8)
        .collect();
        let mut other = Rng::new(8);
        assert_eq!(a, b);
        assert_ne!(a[0], other.next_u64());
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = Rng::new(3).permutation(64);
        p.sort_unstable();
        assert_eq!(p, (0..64).collect::<Vec<u32>>());
    }

    #[test]
    fn check_accepts_only_the_right_file_and_offset() {
        let gen = DataGen::new(11);
        let mut buf = vec![0u8; 4 * 4096];
        gen.fill(5, 8192, 4096, &mut buf);
        assert!(gen.check(5, 8192, 4096, &buf));
        assert!(!gen.check(6, 8192, 4096, &buf));
        assert!(!gen.check(5, 4096, 4096, &buf));
        assert!(!gen.check(5, 8192, 4096, &buf[..4095]));
        assert!(!gen.check(5, 8192, 4096, &[]));
        assert!(!DataGen::new(12).check(5, 8192, 4096, &buf));
        // A torn unit: the head of one write, the tail of another.
        buf[4096 - 8..4096].copy_from_slice(&[0; 8]);
        assert!(!gen.check(5, 8192, 4096, &buf));
    }

    #[test]
    fn units_of_a_file_agree_however_it_is_cut() {
        let gen = DataGen::new(1);
        let whole = gen.file_bytes(2, 4 * 64, 64);
        let mut tail = vec![0u8; 2 * 64];
        gen.fill(2, 128, 64, &mut tail);
        assert_eq!(&whole[128..], &tail[..]);
    }
}
