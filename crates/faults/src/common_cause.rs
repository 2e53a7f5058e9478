//! Common-cause failure detection.
//!
//! §3, third research question: *"If the extreme temperature and humidity
//! shifts indeed cause certain components to regularly fail, we should be
//! able to detect this as a common-cause failure on multiple hosts nearly
//! simultaneously."* This module is that detector: it clusters fault events
//! in time and flags clusters touching several distinct hosts, optionally
//! restricted to one component class.

use std::collections::BTreeSet;

use frostlab_hardware::component::ComponentKind;
use frostlab_simkern::time::{SimDuration, SimTime};

use crate::types::FaultEvent;

/// A cluster of failures close enough in time to suggest a common cause.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureCluster {
    /// First event in the cluster.
    pub start: SimTime,
    /// Last event in the cluster.
    pub end: SimTime,
    /// The events, in time order.
    pub events: Vec<FaultEvent>,
    /// Distinct hosts involved.
    pub distinct_hosts: usize,
    /// The single component class involved, if the cluster is homogeneous.
    pub component: Option<ComponentKind>,
}

impl FailureCluster {
    /// A cluster is a common-cause *candidate* when it touches at least
    /// `min_hosts` distinct hosts.
    pub fn is_common_cause_candidate(&self, min_hosts: usize) -> bool {
        self.distinct_hosts >= min_hosts
    }
}

/// Detector configuration.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Maximum gap between consecutive events within one cluster.
    pub window: SimDuration,
    /// Minimum distinct hosts for a common-cause candidate.
    pub min_hosts: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            window: SimDuration::hours(6),
            min_hosts: 2,
        }
    }
}

/// Cluster `events` (any order accepted) by the gap rule: consecutive events
/// separated by more than `config.window` start a new cluster.
pub fn cluster_failures(events: &[FaultEvent], config: &DetectorConfig) -> Vec<FailureCluster> {
    let mut sorted: Vec<FaultEvent> = events.to_vec();
    sorted.sort_by_key(|e| e.at);
    let mut clusters = Vec::new();
    let mut current: Vec<FaultEvent> = Vec::new();
    for e in sorted {
        if let Some(last) = current.last() {
            if e.at - last.at > config.window {
                clusters.push(finish(std::mem::take(&mut current)));
            }
        }
        current.push(e);
    }
    if !current.is_empty() {
        clusters.push(finish(current));
    }
    clusters
}

fn finish(events: Vec<FaultEvent>) -> FailureCluster {
    let hosts: BTreeSet<u32> = events.iter().map(|e| e.host.0).collect();
    let kinds: BTreeSet<_> = events.iter().map(|e| e.kind.component()).collect();
    FailureCluster {
        start: events.first().expect("non-empty cluster").at,
        end: events.last().expect("non-empty cluster").at,
        distinct_hosts: hosts.len(),
        component: if kinds.len() == 1 {
            kinds.into_iter().next()
        } else {
            None
        },
        events,
    }
}

/// Convenience: all common-cause candidates among `events`.
pub fn common_cause_candidates(
    events: &[FaultEvent],
    config: &DetectorConfig,
) -> Vec<FailureCluster> {
    cluster_failures(events, config)
        .into_iter()
        .filter(|c| c.is_common_cause_candidate(config.min_hosts))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{FaultKind, HostId};

    fn ev(hours: i64, host: u32, kind: FaultKind) -> FaultEvent {
        FaultEvent {
            at: SimTime::from_secs(hours * 3600),
            host: HostId(host),
            kind,
        }
    }

    #[test]
    fn isolated_failures_do_not_cluster_together() {
        let events = vec![
            ev(0, 1, FaultKind::TransientSystemFailure),
            ev(100, 2, FaultKind::TransientSystemFailure),
            ev(500, 3, FaultKind::DiskPendingSector),
        ];
        let clusters = cluster_failures(&events, &DetectorConfig::default());
        assert_eq!(clusters.len(), 3);
        assert!(common_cause_candidates(&events, &DetectorConfig::default()).is_empty());
    }

    #[test]
    fn simultaneous_multi_host_failures_flagged() {
        // A cold snap takes out three sensor chips within two hours.
        let events = vec![
            ev(10, 1, FaultKind::SensorChipErratic),
            ev(11, 6, FaultKind::SensorChipErratic),
            ev(12, 14, FaultKind::SensorChipErratic),
            ev(300, 2, FaultKind::TransientSystemFailure),
        ];
        let cands = common_cause_candidates(&events, &DetectorConfig::default());
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].distinct_hosts, 3);
        assert_eq!(
            cands[0].component,
            Some(frostlab_hardware::component::ComponentKind::Motherboard)
        );
    }

    #[test]
    fn same_host_repeat_failures_are_not_common_cause() {
        // Host #15 failing twice is not a common-cause event.
        let events = vec![
            ev(10, 15, FaultKind::TransientSystemFailure),
            ev(12, 15, FaultKind::TransientSystemFailure),
        ];
        let cands = common_cause_candidates(&events, &DetectorConfig::default());
        assert!(cands.is_empty());
        let clusters = cluster_failures(&events, &DetectorConfig::default());
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].distinct_hosts, 1);
    }

    #[test]
    fn mixed_components_yield_no_single_component() {
        let events = vec![
            ev(1, 1, FaultKind::DiskPendingSector),
            ev(2, 2, FaultKind::PsuFailure),
        ];
        let clusters = cluster_failures(&events, &DetectorConfig::default());
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].component, None);
        assert!(clusters[0].is_common_cause_candidate(2));
    }

    #[test]
    fn chain_clustering_uses_gaps_not_total_span() {
        // Events every 5 h for 30 h: one cluster despite span > window.
        let events: Vec<FaultEvent> = (0..7)
            .map(|i| ev(i * 5, i as u32, FaultKind::DiskPendingSector))
            .collect();
        let clusters = cluster_failures(&events, &DetectorConfig::default());
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].distinct_hosts, 7);
    }

    #[test]
    fn unsorted_input_accepted() {
        let events = vec![
            ev(50, 2, FaultKind::DiskPendingSector),
            ev(1, 1, FaultKind::DiskPendingSector),
            ev(2, 3, FaultKind::DiskPendingSector),
        ];
        let clusters = cluster_failures(&events, &DetectorConfig::default());
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0].events.len(), 2);
        assert_eq!(clusters[0].start, SimTime::from_secs(3600));
    }

    #[test]
    fn empty_input() {
        assert!(cluster_failures(&[], &DetectorConfig::default()).is_empty());
    }
}
