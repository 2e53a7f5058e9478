//! T1: the failure-rate comparison.
//!
//! §4: "Of the eighteen hosts installed initially, one has encountered two
//! transient system failures … A failure rate of 5.6 % may seem harsh
//! initially, but Intel has reported a comparable rate of 4.46 % during
//! their experiment." This module derives that comparison from fleet
//! results, with a Wilson interval standing in for the paper's informal
//! "comparable".

use crate::stats::wilson_interval;

/// Intel's reported failure rate in the air-economizer PoC \[1\].
const INTEL_ECONOMIZER_RATE: f64 = 0.0446;

/// A host-level failure-rate estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureRate {
    /// Hosts that experienced at least one system failure.
    pub failed_hosts: u64,
    /// Hosts at risk.
    pub total_hosts: u64,
    /// Point estimate.
    pub rate: f64,
    /// 95 % Wilson interval.
    pub interval: (f64, f64),
}

impl FailureRate {
    /// Compute from counts.
    fn from_counts(failed_hosts: u64, total_hosts: u64) -> FailureRate {
        let rate = if total_hosts == 0 {
            0.0
        } else {
            failed_hosts as f64 / total_hosts as f64
        };
        FailureRate {
            failed_hosts,
            total_hosts,
            rate,
            interval: wilson_interval(failed_hosts, total_hosts),
        }
    }

    /// Is `reference` (e.g. Intel's 4.46 %) inside our interval — the
    /// quantitative version of the paper's "comparable rate"?
    fn comparable_to(&self, reference: f64) -> bool {
        let (lo, hi) = self.interval;
        reference >= lo && reference <= hi
    }
}

/// The full T1 comparison: tent group vs. control group vs. Intel.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureComparison {
    /// Failure rate of the tent (outside) group.
    pub outside: FailureRate,
    /// Failure rate of the basement control group.
    pub control: FailureRate,
    /// Intel's published rate.
    pub intel_rate: f64,
}

impl FailureComparison {
    /// Build from per-group counts.
    pub fn new(
        outside_failed: u64,
        outside_total: u64,
        control_failed: u64,
        control_total: u64,
    ) -> FailureComparison {
        FailureComparison {
            outside: FailureRate::from_counts(outside_failed, outside_total),
            control: FailureRate::from_counts(control_failed, control_total),
            intel_rate: INTEL_ECONOMIZER_RATE,
        }
    }

    /// Whole-fleet rate (the paper's headline 5.6 % counts both groups).
    pub fn fleet(&self) -> FailureRate {
        FailureRate::from_counts(
            self.outside.failed_hosts + self.control.failed_hosts,
            self.outside.total_hosts + self.control.total_hosts,
        )
    }

    /// The paper's verdict: rates comparable with Intel's PoC?
    pub fn comparable_with_intel(&self) -> bool {
        self.fleet().comparable_to(self.intel_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers() {
        // 1 failing host (tent), 18 hosts total, none in the control group.
        let cmp = FailureComparison::new(1, 9, 0, 9);
        let fleet = cmp.fleet();
        assert!((fleet.rate - 1.0 / 18.0).abs() < 1e-12);
        assert!((fleet.rate - 0.0556).abs() < 0.001, "5.6 % headline");
        assert!(cmp.comparable_with_intel(), "interval must cover 4.46 %");
    }

    #[test]
    fn control_group_clean() {
        let cmp = FailureComparison::new(1, 9, 0, 9);
        assert_eq!(cmp.control.rate, 0.0);
        assert_eq!(cmp.control.failed_hosts, 0);
        assert!(cmp.outside.rate > cmp.control.rate);
    }

    #[test]
    fn a_catastrophic_rate_is_not_comparable() {
        let cmp = FailureComparison::new(8, 9, 0, 9);
        assert!(!cmp.comparable_with_intel());
        assert!(cmp.fleet().rate > 0.4);
    }

    #[test]
    fn zero_hosts_degenerate() {
        let r = FailureRate::from_counts(0, 0);
        assert_eq!(r.rate, 0.0);
        assert_eq!(r.interval, (0.0, 1.0));
    }
}
