//! Run and error bookkeeping across the fleet.
//!
//! Feeds the T2 reproduction (wrong-hash table: 5 / 27 627 runs; the
//! tent/basement split) and the T3 exposure estimate.

use std::collections::BTreeMap;

use frostlab_simkern::time::SimTime;

/// Where a host lives (for the tent/basement error split).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Placement {
    /// On the roof terrace, in the tent.
    Tent,
    /// In the basement control group.
    Basement,
}

impl std::fmt::Display for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Placement::Tent => write!(f, "tent"),
            Placement::Basement => write!(f, "basement"),
        }
    }
}

/// One wrong-hash incident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashError {
    /// Host that produced it (paper numbering).
    pub host: u32,
    /// Where that host lived.
    pub placement: Placement,
    /// When the run completed.
    pub at: SimTime,
}

/// Aggregated workload statistics.
#[derive(Debug, Clone, Default)]
pub struct WorkloadStats {
    total_runs: u64,
    hash_errors: Vec<HashError>,
    total_page_ops: u64,
}

impl WorkloadStats {
    /// Fresh, empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed run.
    pub fn record_run(&mut self, page_ops: u64) {
        self.total_runs += 1;
        self.total_page_ops = self.total_page_ops.saturating_add(page_ops);
    }

    /// Record a wrong-hash incident.
    pub fn record_hash_error(&mut self, host: u32, placement: Placement, at: SimTime) {
        self.hash_errors.push(HashError {
            host,
            placement,
            at,
        });
    }

    /// Total runs across the fleet.
    pub fn total_runs(&self) -> u64 {
        self.total_runs
    }

    /// All wrong-hash incidents.
    pub fn hash_errors(&self) -> &[HashError] {
        &self.hash_errors
    }

    /// Wrong-hash count split by placement: `(tent, basement)`.
    pub fn hash_errors_by_placement(&self) -> (usize, usize) {
        let tent = self
            .hash_errors
            .iter()
            .filter(|e| e.placement == Placement::Tent)
            .count();
        (tent, self.hash_errors.len() - tent)
    }

    /// Wrong-hash counts per host.
    pub fn hash_errors_by_host(&self) -> BTreeMap<u32, usize> {
        let mut m = BTreeMap::new();
        for e in &self.hash_errors {
            *m.entry(e.host).or_insert(0) += 1;
        }
        m
    }

    /// Total memory page operations across the fleet.
    pub fn total_page_ops(&self) -> u64 {
        self.total_page_ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_t2_shape() {
        // Reproduce the exact bookkeeping of §4.2.2: 27 627 runs, two tent
        // hosts with one error each, one basement host with three.
        let mut s = WorkloadStats::new();
        for _ in 0..27_627 {
            s.record_run(116_000);
        }
        let t = SimTime::from_date(2010, 3, 20);
        s.record_hash_error(3, Placement::Tent, t);
        s.record_hash_error(7, Placement::Tent, t);
        s.record_hash_error(12, Placement::Basement, t);
        s.record_hash_error(12, Placement::Basement, t);
        s.record_hash_error(12, Placement::Basement, t);

        assert_eq!(s.total_runs(), 27_627);
        assert_eq!(s.hash_errors().len(), 5);
        assert_eq!(s.hash_errors_by_placement(), (2, 3));
        let per_host = s.hash_errors_by_host();
        assert_eq!(per_host[&3], 1);
        assert_eq!(per_host[&7], 1);
        assert_eq!(per_host[&12], 3);
        // Exposure ≈ 3.2e9, ratio ≈ 1 / 640e6 (paper: ~1 / 570e6).
        let ratio = s.hash_errors().len() as f64 / s.total_page_ops() as f64;
        assert!((1.0 / 9e8..1.0 / 4e8).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn empty_stats() {
        let s = WorkloadStats::new();
        assert_eq!(s.total_runs(), 0);
    }

    #[test]
    fn per_host_run_counts() {
        let mut s = WorkloadStats::new();
        s.record_run(10);
        s.record_run(10);
        s.record_run(10);
        assert_eq!(s.total_page_ops(), 30);
    }
}
