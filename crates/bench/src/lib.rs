//! # frostlab-bench
//!
//! The reproduction harness: **one binary per figure/table in the paper**,
//! plus the `ensemble`, `farm`, `trace_report`, `obs_report` and
//! `bench_report` CLIs.
//!
//! | binary | paper item |
//! |---|---|
//! | `fig1_tent` | Fig. 1 — tent schematic (parameterized) |
//! | `fig2_timeline` | Fig. 2 — server install dates |
//! | `fig3_temperature` | Fig. 3 — temperatures in/outside the tent (CSV + marks) |
//! | `fig4_humidity` | Fig. 4 — relative humidities (CSV + marks) |
//! | `table_failures` | T1 — 5.6 % vs Intel's 4.46 % |
//! | `table_hashes` | T2 — 5 wrong md5sums / 27 627 runs, 1 bad block of 396 |
//! | `table_memory` | T3 — 3.2·10⁹ page ops, one in 570 million |
//! | `table_pue` | T4 — the §5 PUE 1.74 calculation |
//! | `table_prototype` | T5 — the plastic-box weekend |
//! | `table_savings` | T6 — 40–67 % economizer savings across climates |
//! | `repro_all` | everything above, in order (the EXPERIMENTS.md evidence) |
//!
//! Run with `cargo run -p frostlab-bench --release --bin <name> [seed]`.

#![forbid(unsafe_code)]

use frostlab_core::{ExperimentConfig, ExperimentResults, ScenarioBuilder};

/// Parse the optional seed argument (default 42 — the published runs).
pub fn seed_from_args() -> u64 {
    std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Run the scripted campaign for the given seed.
pub fn scripted_campaign(seed: u64) -> ExperimentResults {
    ScenarioBuilder::paper(ExperimentConfig::paper_scripted(seed))
        .build()
        .run()
}
