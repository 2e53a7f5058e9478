//! The motherboard sensor chip (the `lm-sensors` view of the world).
//!
//! §4.2.1 documents a remarkable failure chain on the longest-running host
//! after it saw −22 °C outside air:
//!
//! 1. the chip reported CPU temperatures below −4 °C, then **clearly
//!    erroneous readings of −111 °C**;
//! 2. an attempted re-detection of the chip made things *worse* — the chip
//!    ceased to be detected at all;
//! 3. after a week, a **warm reboot** brought it back, and it behaved
//!    normally ever after.
//!
//! [`SensorState`] names that state machine's states; each host's chip is a
//! row of [`HostBank`](crate::columns::HostBank). The fault layer triggers
//! the erratic transition (deep-cold exposure); the repair layer drives
//! re-detection attempts and reboots.

/// The erroneous reading the paper quotes.
pub const ERRATIC_READING_C: f64 = -111.0;

/// Operating states of the sensor chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensorState {
    /// Reporting real temperatures.
    Ok,
    /// Cold-faulted: reports the −111 °C garbage value.
    Erratic,
    /// Not detected on the bus at all (no readings).
    Undetected,
}
