//! Fault vocabulary shared across the platform.

use frostlab_hardware::component::ComponentKind;
use frostlab_simkern::time::SimTime;

/// Identifier of a host in the fleet (the paper numbers them 1–19; the
/// replacement machine is #19).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{:02}", self.0)
    }
}

/// The kinds of faults a campaign can record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Whole-system hang requiring a reset (§4.2.1, host #15).
    TransientSystemFailure,
    /// Sensor chip goes erratic after deep-cold exposure (§4.2.1).
    SensorChipErratic,
    /// A single memory bit flip (§4.2.2, the wrong-hash cause).
    MemoryBitFlip,
    /// A drive develops an unreadable sector.
    DiskPendingSector,
    /// A PSU dies.
    PsuFailure,
    /// A network switch dies (the whiny units' inherent defect).
    SwitchFailure,
}

impl FaultKind {
    /// The component class this fault belongs to (for the "which component
    /// fails first" analysis).
    pub fn component(self) -> ComponentKind {
        match self {
            FaultKind::TransientSystemFailure => ComponentKind::Motherboard,
            FaultKind::SensorChipErratic => ComponentKind::Motherboard,
            FaultKind::MemoryBitFlip => ComponentKind::Memory,
            FaultKind::DiskPendingSector => ComponentKind::Disk,
            FaultKind::PsuFailure => ComponentKind::Psu,
            FaultKind::SwitchFailure => ComponentKind::Switch,
        }
    }

    /// Does this fault stop the host's workload?
    pub fn is_outage(self) -> bool {
        matches!(
            self,
            FaultKind::TransientSystemFailure | FaultKind::PsuFailure
        )
    }
}

/// One concrete fault occurrence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When it happened.
    pub at: SimTime,
    /// Which host (switches use the pseudo-ids 101/102/103).
    pub host: HostId,
    /// What happened.
    pub kind: FaultKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_mapping() {
        assert_eq!(FaultKind::MemoryBitFlip.component(), ComponentKind::Memory);
        assert_eq!(FaultKind::SwitchFailure.component(), ComponentKind::Switch);
        assert_eq!(
            FaultKind::TransientSystemFailure.component(),
            ComponentKind::Motherboard
        );
    }

    #[test]
    fn outage_classification() {
        assert!(FaultKind::TransientSystemFailure.is_outage());
        assert!(FaultKind::PsuFailure.is_outage());
        assert!(!FaultKind::MemoryBitFlip.is_outage());
        assert!(!FaultKind::SensorChipErratic.is_outage());
    }

    #[test]
    fn host_display() {
        assert_eq!(HostId(15).to_string(), "#15");
        assert_eq!(HostId(3).to_string(), "#03");
    }
}
