//! One pack-verify cycle.
//!
//! The cycle the paper describes: `tar` the tree, compress it, `md5sum` the
//! result, compare against the golden value computed at install time; keep
//! the tarball only when the hashes differ. A memory bit flip during the
//! run corrupts one bit of the in-flight compressed stream, which makes the
//! hash differ *and* leaves a stored archive in which exactly one
//! compression block fails its CRC — reproducing the §4.2.2 forensics.
//! The stored archive is kept as its recipe ([`CorruptedArchive`]): the
//! shared clean bytes plus the bits that flipped, rebuilt when read.
//!
//! Page-operation accounting uses the **modeled** (paper-scale) tree size:
//! the simulated pipeline runs on a scaled-down tree for speed, but the
//! exposure estimate (T3's ≈ 3.2 × 10⁹ page ops) must reflect the ~450 MB
//! the real hosts shoveled through memory every 10 minutes.

use std::sync::Arc;

use frostlab_compress::archive::{archive, FileEntry};
use frostlab_compress::block::compress;
use frostlab_compress::md5::md5_hex;
use frostlab_simkern::rng::Rng;

use crate::source_tree::{generate, TreeConfig};

/// Configuration for the job pipeline.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Compressor block size (input bytes per block).
    pub block_size: usize,
    /// Actual synthetic tree size used in simulation, bytes.
    pub tree_bytes: usize,
    /// The tree size the accounting *models* (the real kernel tree), bytes.
    pub modeled_tree_bytes: u64,
    /// Memory passes over the data per run (tar read + write, compress
    /// read + write, hash read ≈ 5 half-passes ⇒ ~2.5 effective full
    /// passes; the paper's own estimate folds this into its ballpark).
    pub memory_passes: f64,
    /// Page size for exposure accounting, bytes.
    pub page_bytes: u64,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            block_size: 512,
            // 396 × 512 B so the tarball (content + tar headers) yields a
            // block count close to the paper's 396.
            tree_bytes: 180 * 1024,
            modeled_tree_bytes: 450 * 1024 * 1024,
            memory_passes: 1.0,
            page_bytes: 4096,
        }
    }
}

impl JobConfig {
    /// Page operations one run contributes to the exposure estimate.
    ///
    /// Calibration: the paper estimates ≈ 3.2 × 10⁹ page ops over 27 627
    /// runs ⇒ ≈ 116 k page ops per run ⇒ passes ≈ 1 over a ~450 MB tree
    /// with 4 KiB pages.
    pub fn page_ops_per_run(&self) -> u64 {
        ((self.modeled_tree_bytes as f64 / self.page_bytes as f64) * self.memory_passes) as u64
    }
}

/// Outcome of one pack-verify run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The md5 of this run's tarball (hex). A clean run shares the golden
    /// hash rather than copying it.
    pub hash: Arc<str>,
    /// Did it match the golden value?
    pub hash_ok: bool,
    /// The compressed archive — kept only when the hash differed
    /// ("if the results differ, the packed tarball is stored").
    pub stored_archive: Option<CorruptedArchive>,
    /// Page operations this run contributed to memory exposure.
    pub page_ops: u64,
    /// Modeled wall-clock duration of the run, seconds (drives the
    /// utilization/power profile in the orchestrator).
    pub duration_secs: f64,
}

/// A corrupted archive kept as its recipe: the clean compressed bytes every
/// host shares, and the `(byte, bit)` flips one run made in them, in order.
///
/// A faulted run's archive is a pure function of these, so keeping them in
/// place of a ~200 KiB copy makes a stored archive cost a few words;
/// [`CorruptedArchive::bytes`] rebuilds the archive for whoever reads it.
#[derive(Debug, Clone)]
pub struct CorruptedArchive {
    clean: Arc<Vec<u8>>,
    flips: Vec<(usize, u8)>,
}

impl CorruptedArchive {
    /// The corrupted archive, byte for byte as the run packed it.
    pub fn bytes(&self) -> Vec<u8> {
        let mut bytes = self.clean.as_ref().clone();
        for &(byte, bit) in &self.flips {
            bytes[byte] ^= 1 << bit;
        }
        bytes
    }

    /// The shared clean archive the flips apply to.
    pub fn clean(&self) -> &Arc<Vec<u8>> {
        &self.clean
    }

    /// The `(byte, bit)` flips, in the order the run made them.
    pub fn flips(&self) -> &[(usize, u8)] {
        &self.flips
    }
}

/// The shared, host-independent part of the job: the reference tree, its
/// tarball and the golden compressed bytes. Built once per experiment (the
/// tar → compress of the tree is the expensive step) and shared into each
/// host's [`JobRunner`] — all hosts packed the *same* kernel version, so
/// the byte buffers live behind `Arc`s: a 10,000-host fleet holds one copy
/// of the ~180 KiB tarball, not ten thousand.
#[derive(Debug, Clone)]
pub struct JobTemplate {
    config: JobConfig,
    tar_bytes: Arc<Vec<u8>>,
    clean_compressed: Arc<Vec<u8>>,
    golden_hash: Arc<str>,
}

impl JobTemplate {
    /// Build the template: generate the tree, archive it, compress it,
    /// compute the golden hash.
    pub fn build(config: JobConfig) -> JobTemplate {
        let tree_cfg = TreeConfig {
            total_bytes: config.tree_bytes,
            ..TreeConfig::default()
        };
        // Fixed tree seed: every host packs the same reference tree.
        let tree: Vec<FileEntry> = generate(&tree_cfg, 0x2632);
        let tar_bytes = archive(&tree);
        let clean_compressed = compress(&tar_bytes, config.block_size);
        let golden_hash = md5_hex(&clean_compressed);
        JobTemplate {
            config,
            tar_bytes: Arc::new(tar_bytes),
            clean_compressed: Arc::new(clean_compressed),
            golden_hash: golden_hash.into(),
        }
    }
}

/// A host's job runner: owns the tree, the golden hash, and a corruption
/// RNG stream.
#[derive(Debug, Clone)]
pub struct JobRunner {
    config: JobConfig,
    tar_bytes: Arc<Vec<u8>>,
    golden_hash: Arc<str>,
    /// Cached clean compressed archive (shared with the template and every
    /// other runner). The pipeline is deterministic, so a fault-free run
    /// reproduces these bytes exactly; caching them lets a three-month
    /// campaign (tens of thousands of runs) execute quickly while
    /// corrupted runs still exercise the full real pipeline.
    clean_compressed: Arc<Vec<u8>>,
    corrupt_rng: Rng,
    /// Modeled run duration, seconds.
    duration_secs: f64,
}

impl JobRunner {
    /// Build the runner: generates the tree, computes the golden hash
    /// ("an initial value calculated before installation").
    pub fn new(config: JobConfig, host_seed_rng: &Rng) -> Self {
        Self::from_template(&JobTemplate::build(config), host_seed_rng)
    }

    /// Build from a shared [`JobTemplate`] (the fleet-construction fast
    /// path: the expensive tar+compress happens once per experiment).
    pub fn from_template(template: &JobTemplate, host_seed_rng: &Rng) -> Self {
        JobRunner {
            corrupt_rng: host_seed_rng.derive("job-corruption"),
            clean_compressed: Arc::clone(&template.clean_compressed),
            golden_hash: Arc::clone(&template.golden_hash),
            // The real run took a couple of minutes of mostly-CPU work on
            // 2000s hardware; model 150 s ± nothing (determinism).
            duration_secs: 150.0,
            tar_bytes: Arc::clone(&template.tar_bytes),
            config: template.config.clone(),
        }
    }

    /// The golden md5 (hex) computed at install time.
    pub fn golden_hash(&self) -> &str {
        &self.golden_hash
    }

    /// Size of the clean compressed archive, bytes.
    pub fn compressed_len(&self) -> usize {
        self.clean_compressed.len()
    }

    /// Number of compression blocks per archive.
    pub fn block_count(&self) -> usize {
        self.tar_bytes.len().div_ceil(self.config.block_size)
    }

    /// Execute one cycle. `bit_flips` is the number of memory bit flips the
    /// fault layer scheduled into this run (0 for a clean run).
    ///
    /// A clean run verifies the cached archive (the deterministic pipeline
    /// always reproduces it byte-for-byte); a faulted run re-runs the full
    /// tar → compress pipeline and corrupts the in-flight buffer.
    pub fn run(&mut self, bit_flips: u32) -> RunOutcome {
        if bit_flips == 0 {
            // The real hosts recomputed this every cycle and overwrote the
            // previous tarball; the deterministic pipeline reproduces the
            // golden bytes exactly (validated at construction and by
            // `run_full`), so the fast path returns the golden hash without
            // re-deriving a byte-identical archive. Campaigns execute tens
            // of thousands of clean runs; this is what makes them cheap.
            return RunOutcome {
                hash_ok: true,
                stored_archive: None,
                page_ops: self.config.page_ops_per_run(),
                duration_secs: self.duration_secs,
                hash: Arc::clone(&self.golden_hash),
            };
        }
        // The pipeline is deterministic: recompressing `tar_bytes` always
        // reproduces `clean_compressed` byte-for-byte (validated at
        // template construction and by `run_full`), and the scheduled bit
        // flips land in the *buffered output*. Start from the cached bytes
        // instead of burning a real compress per faulted run — at fleet
        // scale a single day sees hundreds of them. The copy lives only
        // until it is hashed: a stored archive keeps the flips instead.
        let mut packed = self.clean_compressed.as_ref().clone();
        let mut flips = Vec::with_capacity(bit_flips as usize);
        for _ in 0..bit_flips {
            // A flipped bit lands somewhere in the buffered archive.
            let byte = self.corrupt_rng.below(packed.len() as u64) as usize;
            let bit = self.corrupt_rng.below(8) as u8;
            packed[byte] ^= 1 << bit;
            flips.push((byte, bit));
        }
        let hash: Arc<str> = md5_hex(&packed).into();
        let hash_ok = hash == self.golden_hash;
        RunOutcome {
            hash_ok,
            stored_archive: (!hash_ok).then(|| CorruptedArchive {
                clean: Arc::clone(&self.clean_compressed),
                flips,
            }),
            page_ops: self.config.page_ops_per_run(),
            duration_secs: self.duration_secs,
            hash,
        }
    }

    /// Execute one cycle through the *full* pipeline unconditionally
    /// (benchmarks and validation; the orchestrator uses [`JobRunner::run`]).
    pub fn run_full(&mut self, bit_flips: u32) -> RunOutcome {
        let packed = compress(&self.tar_bytes, self.config.block_size);
        debug_assert_eq!(&packed, self.clean_compressed.as_ref());
        self.run(bit_flips)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frostlab_compress::recover::recover;

    fn runner(seed: u64) -> JobRunner {
        JobRunner::new(JobConfig::default(), &Rng::new(seed))
    }

    #[test]
    fn clean_runs_match_golden() {
        let mut r = runner(1);
        for _ in 0..5 {
            let o = r.run(0);
            assert!(o.hash_ok, "clean run must match golden");
            assert!(o.stored_archive.is_none());
            assert_eq!(&*o.hash, r.golden_hash());
        }
    }

    #[test]
    fn clean_runs_share_the_golden_hash() {
        let mut r = runner(3);
        let (a, b) = (r.run(0), r.run(0));
        assert!(Arc::ptr_eq(&a.hash, &b.hash), "no copy per clean run");
        assert_eq!(a.hash.as_ptr(), r.golden_hash().as_ptr());
    }

    #[test]
    fn bit_flip_produces_wrong_hash_and_stores_archive() {
        let mut r = runner(2);
        let o = r.run(1);
        assert!(!o.hash_ok);
        assert!(o.stored_archive.is_some());
        assert_ne!(&*o.hash, r.golden_hash());
    }

    #[test]
    fn forensics_single_corrupted_block() {
        // The full §4.2.2 chain: wrong hash → keep tarball → recover →
        // one bad block out of ~396.
        let mut r = runner(3);
        let o = r.run(1);
        let archive = o.stored_archive.expect("wrong hash stores the archive");
        let report = recover(&archive.bytes());
        assert!(
            report.total_blocks() >= 300 && report.total_blocks() <= 500,
            "block count {} should be near the paper's 396",
            report.total_blocks()
        );
        // One flipped bit damages at most one block (it can also land in
        // stream framing, in which case blocks themselves all verify).
        assert!(
            report.corrupted_count() <= 1,
            "corrupted {}",
            report.corrupted_count()
        );
    }

    #[test]
    fn stored_archive_rebuilds_the_corrupted_buffer() {
        for seed in [2, 3, 7, 11, 42] {
            for bit_flips in 1..=3 {
                let mut r = runner(seed);
                // The twin replays the run's draws on a buffer corrupted in
                // place, the way the hosts' memory corrupted it.
                let mut twin = r.clone();
                let o = r.run(bit_flips);
                let mut packed = twin.clean_compressed.as_ref().clone();
                for _ in 0..bit_flips {
                    let byte = twin.corrupt_rng.below(packed.len() as u64) as usize;
                    let bit = twin.corrupt_rng.below(8) as u8;
                    packed[byte] ^= 1 << bit;
                }
                let archive = o.stored_archive.expect("a flipped run stores its archive");
                assert_eq!(archive.flips().len(), bit_flips as usize);
                assert!(Arc::ptr_eq(archive.clean(), &r.clean_compressed));
                let bytes = archive.bytes();
                assert_eq!(md5_hex(&bytes), *o.hash, "seed {seed}, {bit_flips} flips");
                assert!(bytes == packed, "seed {seed}, {bit_flips} flips");
            }
        }
    }

    #[test]
    fn block_count_near_paper() {
        let r = runner(4);
        let n = r.block_count();
        assert!((300..=500).contains(&n), "block count {n}");
    }

    #[test]
    fn page_ops_calibration() {
        // ≈ 116 k page ops per run so that 27 627 runs ≈ 3.2e9.
        let cfg = JobConfig::default();
        let per_run = cfg.page_ops_per_run();
        assert!((90_000..150_000).contains(&per_run), "page ops {per_run}");
        let total = per_run * 27_627;
        assert!(
            (2.4e9..4.0e9).contains(&(total as f64)),
            "campaign exposure {total}"
        );
    }

    #[test]
    fn golden_hash_is_stable_across_hosts() {
        // Same tree, same pipeline ⇒ all hosts share the golden value.
        let a = runner(10);
        let b = runner(999);
        assert_eq!(a.golden_hash(), b.golden_hash());
    }

    #[test]
    fn two_flips_still_detected() {
        let mut r = runner(5);
        let o = r.run(2);
        assert!(!o.hash_ok);
    }
}
