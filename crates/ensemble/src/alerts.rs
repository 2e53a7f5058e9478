//! Per-seed alert timelines folded across an observed sweep.
//!
//! The observability analog of [`crate::metrics`]: every campaign in an
//! observed sweep produces a [`CampaignObs`]
//! whose alert fires/resolves and SLO attainment are pure functions of
//! (config, seed). This module keeps the per-seed view — an operator
//! asking "which winters breached the corruption SLO, and when?" needs
//! the timeline, not a blurred average — while staying O(alerts) in
//! memory because the heavyweight parts of each record (flight dumps,
//! rollup reports) are dropped on the worker before folding.
//!
//! The fold happens in the engine's ordered sink, so the frozen
//! [`EnsembleAlerts`] (and its [`EnsembleAlerts::timeline_jsonl`]
//! rendering) is byte-identical at any thread count — the
//! `thread-invariance (obs)` CI job diffs it at 1 vs 4 threads.

use frostlab_obs::{AlertRecord, CampaignObs, SloAttainment};

/// Schema tag embedded in every serialized ensemble alerts report.
pub const ALERTS_SCHEMA: &str = "frostlab-ensemble-alerts/v1";

/// One campaign's alert view: the timeline plus end-of-campaign SLO
/// attainment, tagged with the seed that produced it.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SeedAlerts {
    /// Root seed of the campaign.
    pub seed: u64,
    /// Every alert fire/resolve, in sim-time order.
    pub alerts: Vec<AlertRecord>,
    /// End-of-campaign attainment per SLO, in spec order.
    pub slos: Vec<SloAttainment>,
}

impl SeedAlerts {
    /// Project a campaign's frozen observability record down to the
    /// alert view (flight dumps and rollup report are dropped — they
    /// stay with the per-campaign artifacts, not the sweep fold).
    pub fn from_obs(seed: u64, obs: &CampaignObs) -> SeedAlerts {
        SeedAlerts {
            seed,
            alerts: obs.alerts.clone(),
            slos: obs.slos.clone(),
        }
    }
}

/// Frozen per-seed alert timelines of a whole observed sweep, in seed
/// order. Contains no execution metadata, so its JSON must be
/// byte-identical across thread counts.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EnsembleAlerts {
    /// Schema tag ([`ALERTS_SCHEMA`]).
    pub schema: String,
    /// Campaigns observed.
    pub campaigns: u64,
    /// First seed of the contiguous seed range.
    pub seed_start: u64,
    /// Per-seed alert views, in seed order.
    pub per_seed: Vec<SeedAlerts>,
}

impl EnsembleAlerts {
    /// Start an empty report for a sweep beginning at `seed_start`.
    pub fn new(seed_start: u64) -> EnsembleAlerts {
        EnsembleAlerts {
            schema: ALERTS_SCHEMA.to_string(),
            campaigns: 0,
            seed_start,
            per_seed: Vec::new(),
        }
    }

    /// Fold one campaign's alert view in. Callers must push in seed
    /// order (the engine's ordered sink guarantees it).
    pub fn absorb(&mut self, per_seed: SeedAlerts) {
        self.campaigns += 1;
        self.per_seed.push(per_seed);
    }

    /// Total alert records (fires + resolves) across the sweep.
    pub fn total_alerts(&self) -> usize {
        self.per_seed.iter().map(|s| s.alerts.len()).sum()
    }

    /// Seeds whose named SLO was *not* attained at campaign end.
    pub fn breached_seeds(&self, slo: &str) -> Vec<u64> {
        self.per_seed
            .iter()
            .filter(|s| s.slos.iter().any(|a| a.slo == slo && !a.attained))
            .map(|s| s.seed)
            .collect()
    }

    /// The whole sweep's alert timeline as deterministic JSON lines:
    /// one `{"seed":N,"alert":{…}}` object per line, seeds in order,
    /// alerts in sim-time order within each seed. This is the artifact
    /// the 1-vs-4-thread CI byte-diff pins.
    pub fn timeline_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.per_seed {
            for a in &s.alerts {
                out.push_str(&format!(
                    "{{\"seed\":{},\"alert\":{}}}\n",
                    s.seed,
                    serde_json::to_string(a).expect("plain data")
                ));
            }
        }
        out
    }

    /// Pretty JSON of the report, newline-terminated: the `alerts.json`
    /// artifact, byte for byte, that the farm, `frostlabd` and
    /// `obs_report` all write.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        Ok(serde_json::to_string_pretty(self)? + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs_with(seed: u64, fires: usize) -> CampaignObs {
        CampaignObs {
            alerts: (0..fires)
                .map(|i| AlertRecord {
                    slo: "dew-point-margin".to_string(),
                    action: if i % 2 == 0 { "fire" } else { "resolve" }.to_string(),
                    at: format!("2010-01-0{} 00:00:00", i + 1),
                    at_s: (i as i64) * 86_400,
                    fast_burn: 0.5 + seed as f64,
                    slow_burn: 0.5,
                })
                .collect(),
            slos: vec![SloAttainment {
                slo: "corruption-rate".to_string(),
                bad: seed,
                total: 100,
                ratio: seed as f64 / 100.0,
                target: 0.01,
                attained: seed == 0,
                fires: 0,
            }],
            rollup: None,
            flights: Vec::new(),
        }
    }

    #[test]
    fn folds_in_seed_order_and_counts() {
        let mut agg = EnsembleAlerts::new(3);
        for seed in 3..6 {
            agg.absorb(SeedAlerts::from_obs(seed, &obs_with(seed, 2)));
        }
        assert_eq!(agg.campaigns, 3);
        assert_eq!(agg.total_alerts(), 6);
        assert_eq!(agg.per_seed[0].seed, 3);
        assert_eq!(agg.breached_seeds("corruption-rate"), vec![3, 4, 5]);
        assert!(agg.breached_seeds("dew-point-margin").is_empty());
    }

    #[test]
    fn timeline_is_one_tagged_object_per_line() {
        let mut agg = EnsembleAlerts::new(0);
        agg.absorb(SeedAlerts::from_obs(0, &obs_with(0, 1)));
        agg.absorb(SeedAlerts::from_obs(1, &obs_with(1, 1)));
        let t = agg.timeline_jsonl();
        assert_eq!(t.lines().count(), 2);
        assert!(t.starts_with("{\"seed\":0,\"alert\":{\"slo\":\"dew-point-margin\""));
        assert!(t.lines().nth(1).unwrap().starts_with("{\"seed\":1,"));
        // Every line is valid JSON on its own.
        for line in t.lines() {
            let v: serde_json::Value = serde_json::from_str(line).expect("valid");
            assert!(v.get("alert").is_some());
        }
    }

    #[test]
    fn report_json_roundtrips() {
        let mut agg = EnsembleAlerts::new(0);
        agg.absorb(SeedAlerts::from_obs(0, &obs_with(0, 3)));
        let json = agg.to_json().expect("plain data");
        let back: EnsembleAlerts = serde_json::from_str(&json).expect("valid");
        assert_eq!(back, agg);
        assert_eq!(back.schema, ALERTS_SCHEMA);
    }
}
