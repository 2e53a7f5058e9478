//! Memory modules and the bit-flip accounting behind §4.2.2.
//!
//! The paper's conjecture for the five wrong md5sums is a memory error: all
//! three affected hosts had DIMMs "without error-correcting parities", and
//! the estimated exposure was ≈ 3.2 billion page operations across the
//! campaign, giving a failure ratio around **one in 570 million page
//! operations**. [`HostBank`](crate::columns::HostBank) tracks exactly that
//! exposure per host and applies bit flips: on a non-ECC host a flip becomes
//! a *silent corruption* the workload will later observe as a wrong hash; on
//! an ECC host it is corrected.

/// The paper's estimated fault rate: one flip per ~570 million page ops.
pub const PAPER_FLIPS_PER_PAGE_OP: f64 = 1.0 / 570.0e6;

/// Outcome of a bit-flip event applied to a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlipOutcome {
    /// Non-ECC: the flip silently corrupts data in flight.
    SilentCorruption,
    /// ECC corrected the single-bit error.
    CorrectedByEcc,
}
