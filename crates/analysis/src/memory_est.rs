//! T3: the memory-fault exposure estimate.
//!
//! §4.2.2: "By calculating the size of the source directory to be
//! compressed, the average block size of the compressed tarball, and the
//! amount of cycles we have estimated the amount of memory pages read and
//! written to lie in the ballpark of 3.2 billion. If the estimate is
//! correct, and the six faulty archives are caused by a single memory page
//! fault each, the failure ratio is around one in 570 million."
//!
//! This module reproduces that back-of-envelope *as computation*, so the
//! simulated campaign can report its own version of both numbers.

/// The estimate's inputs, mirroring the paper's wording.
#[derive(Debug, Clone, PartialEq)]
pub struct ExposureInputs {
    /// Size of the source directory, bytes.
    pub source_dir_bytes: u64,
    /// Total pack-verify cycles executed across the fleet.
    pub total_cycles: u64,
    /// Page size, bytes.
    pub page_bytes: u64,
    /// Effective passes over the data per cycle (read + write amplification
    /// through tar, compressor and hash).
    pub passes: f64,
}

impl ExposureInputs {
    /// The paper-shaped inputs: a ~450 MB kernel tree, 27 627 cycles,
    /// 4 KiB pages, ≈ 1 effective pass — chosen to land at the paper's
    /// own "ballpark of 3.2 billion".
    pub fn paper_ballpark() -> ExposureInputs {
        ExposureInputs {
            source_dir_bytes: 450 * 1024 * 1024,
            total_cycles: 27_627,
            page_bytes: 4096,
            passes: 1.0,
        }
    }

    /// Estimated page operations across the campaign.
    fn page_ops(&self) -> u64 {
        ((self.source_dir_bytes as f64 / self.page_bytes as f64)
            * self.passes
            * self.total_cycles as f64) as u64
    }
}

/// The T3 result: exposure and implied fault ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryFaultEstimate {
    /// Page operations over the campaign.
    pub page_ops: u64,
    /// Number of faulty archives attributed to single page faults.
    pub faulty_archives: u64,
    /// One fault per this many page operations.
    pub ops_per_fault: f64,
}

/// Derive the estimate.
pub fn estimate(inputs: &ExposureInputs, faulty_archives: u64) -> MemoryFaultEstimate {
    let page_ops = inputs.page_ops();
    let ops_per_fault = if faulty_archives == 0 {
        f64::INFINITY
    } else {
        page_ops as f64 / faulty_archives as f64
    };
    MemoryFaultEstimate {
        page_ops,
        faulty_archives,
        ops_per_fault,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ballpark_reproduced() {
        let inputs = ExposureInputs::paper_ballpark();
        let ops = inputs.page_ops();
        // "ballpark of 3.2 billion"
        assert!((2.8e9..3.6e9).contains(&(ops as f64)), "page ops {ops}");
        // The paper divides by *six* faulty archives (5 observed + 1 from
        // the prototype's bookkeeping; its §4.2.2 says "six faulty
        // archives" while reporting 5 wrong hashes — we follow the text).
        let est = estimate(&inputs, 6);
        assert!(
            (4.0e8..7.0e8).contains(&est.ops_per_fault),
            "one in {} (paper: one in 570 million)",
            est.ops_per_fault
        );
    }

    #[test]
    fn five_archives_variant() {
        // Using the 5 observed wrong hashes instead of 6 stays in the same
        // order of magnitude.
        let est = estimate(&ExposureInputs::paper_ballpark(), 5);
        assert!((5.0e8..8.0e8).contains(&est.ops_per_fault));
    }

    #[test]
    fn zero_faults_infinite_interval() {
        let est = estimate(&ExposureInputs::paper_ballpark(), 0);
        assert!(est.ops_per_fault.is_infinite());
    }

    #[test]
    fn scaling_linearity() {
        let mut inputs = ExposureInputs::paper_ballpark();
        let base = inputs.page_ops();
        inputs.total_cycles *= 2;
        assert_eq!(inputs.page_ops(), base * 2);
    }
}
