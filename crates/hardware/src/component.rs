//! Common component vocabulary.

use std::fmt;

/// The component classes the study tracks — used by the fault layer to test
/// the "which components fail first" research question (§3, third question).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ComponentKind {
    /// Motherboard (including its sensor chip).
    Motherboard,
    /// A DIMM.
    Memory,
    /// A hard drive.
    Disk,
    /// Power supply unit.
    Psu,
    /// A network switch.
    Switch,
}

impl fmt::Display for ComponentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ComponentKind::Motherboard => "motherboard",
            ComponentKind::Memory => "memory",
            ComponentKind::Disk => "disk",
            ComponentKind::Psu => "PSU",
            ComponentKind::Switch => "switch",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_strings() {
        assert_eq!(ComponentKind::Motherboard.to_string(), "motherboard");
    }
}
