//! The per-campaign health digest.
//!
//! A [`HealthDigest`] is the operator-facing summary the `obs_report`
//! bin emits: SLO attainment, the top-k hottest zones, the alert
//! timeline and the flight-recorder inventory. It is a pure projection
//! of a [`crate::CampaignObs`], so its JSON is byte-identical across
//! thread counts — CI diffs it directly.

use crate::rollup::RollupReport;
use crate::slo::{AlertRecord, SloAttainment};
use crate::CampaignObs;

/// Digest schema tag.
const DIGEST_SCHEMA: &str = "frostlab-health-digest/v1";

/// A rollup bucket ranked by peak temperature.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HotBucket {
    /// Bucket label (zone name).
    pub label: String,
    /// Peak case temperature (°C).
    pub temp_max_c: f64,
    /// Mean case temperature (°C).
    pub temp_mean_c: f64,
}

/// The serializable digest.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HealthDigest {
    /// Schema tag (`frostlab-health-digest/v1`).
    pub schema: String,
    /// Campaign name.
    pub campaign: String,
    /// Campaign seed.
    pub seed: u64,
    /// Per-SLO attainment, in spec order.
    pub slos: Vec<SloAttainment>,
    /// Top-k hottest zone buckets by peak temperature.
    pub hottest_zones: Vec<HotBucket>,
    /// The full alert timeline.
    pub alerts: Vec<AlertRecord>,
    /// Flight dumps retained.
    pub flights: u64,
}

impl HealthDigest {
    /// Build from a frozen observability record.
    pub fn from_obs(campaign: &str, seed: u64, obs: &CampaignObs, top_k: usize) -> HealthDigest {
        HealthDigest {
            schema: DIGEST_SCHEMA.to_string(),
            campaign: campaign.to_string(),
            seed,
            slos: obs.slos.clone(),
            hottest_zones: hottest(obs.rollup.as_ref(), top_k),
            alerts: obs.alerts.clone(),
            flights: obs.flights.len() as u64,
        }
    }

    /// Human-readable rendering for terminal reports.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "health digest — campaign {:?}, seed {}\n",
            self.campaign, self.seed
        ));
        out.push_str("\nSLO attainment:\n");
        for s in &self.slos {
            out.push_str(&format!(
                "  {:<22} {}  {}/{} (ratio {:.6}, target {:.6}), {} alert fire(s)\n",
                s.slo,
                if s.attained { "MET   " } else { "BREACH" },
                s.bad,
                s.total,
                s.ratio,
                s.target,
                s.fires,
            ));
        }
        if !self.hottest_zones.is_empty() {
            out.push_str("\nhottest zones (by peak case temp):\n");
            for z in &self.hottest_zones {
                out.push_str(&format!(
                    "  {:<10} max {:.2} °C, mean {:.2} °C\n",
                    z.label, z.temp_max_c, z.temp_mean_c
                ));
            }
        }
        out.push_str(&format!(
            "\nalert timeline ({} events):\n",
            self.alerts.len()
        ));
        for a in &self.alerts {
            out.push_str(&format!(
                "  {} {:<8} {} (fast burn {:.2}, slow burn {:.2})\n",
                a.at, a.action, a.slo, a.fast_burn, a.slow_burn
            ));
        }
        out.push_str(&format!("\nflight recordings: {}\n", self.flights));
        out
    }
}

/// Rank the `zone` dimension's buckets by peak temperature, ties broken
/// by label so the ordering is total and deterministic.
fn hottest(rollup: Option<&RollupReport>, top_k: usize) -> Vec<HotBucket> {
    let Some(report) = rollup else {
        return Vec::new();
    };
    let Some(dim) = report.dims.iter().find(|d| d.dim == "zone") else {
        return Vec::new();
    };
    let mut ranked: Vec<HotBucket> = dim
        .buckets
        .iter()
        .filter_map(|b| {
            Some(HotBucket {
                label: b.label.clone(),
                temp_max_c: b.temp_max_c?,
                temp_mean_c: b.temp_mean_c?,
            })
        })
        .collect();
    ranked.sort_by(|a, b| {
        b.temp_max_c
            .partial_cmp(&a.temp_max_c)
            .expect("finite temps")
            .then_with(|| a.label.cmp(&b.label))
    });
    ranked.truncate(top_k);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rollup::{FleetRollup, RollupDim};

    fn obs_with_zones(temps: &[(&str, f64)]) -> CampaignObs {
        let labels: Vec<String> = temps.iter().map(|(l, _)| l.to_string()).collect();
        let mut dim = RollupDim::new("zone", labels);
        for (i, (_, t)) in temps.iter().enumerate() {
            dim.push(i, *t, 50.0);
            dim.push(i, *t - 4.0, 50.0);
        }
        CampaignObs {
            alerts: Vec::new(),
            slos: Vec::new(),
            rollup: Some(FleetRollup::new(vec![dim]).report()),
            flights: Vec::new(),
        }
    }

    #[test]
    fn hottest_zones_rank_by_peak_with_label_tiebreak() {
        let obs = obs_with_zones(&[("z0", 5.0), ("z1", 9.0), ("z2", 9.0), ("z3", 1.0)]);
        let digest = HealthDigest::from_obs("paper", 7, &obs, 3);
        let labels: Vec<&str> = digest
            .hottest_zones
            .iter()
            .map(|z| z.label.as_str())
            .collect();
        assert_eq!(labels, ["z1", "z2", "z0"]);
        assert_eq!(digest.hottest_zones[0].temp_max_c, 9.0);
        assert_eq!(digest.hottest_zones[0].temp_mean_c, 7.0);
    }

    #[test]
    fn digest_json_and_render_are_deterministic() {
        let obs = obs_with_zones(&[("z0", 3.0)]);
        let a = HealthDigest::from_obs("paper", 0, &obs, 5);
        let b = HealthDigest::from_obs("paper", 0, &obs, 5);
        assert_eq!(
            serde_json::to_string(&a).expect("plain data"),
            serde_json::to_string(&b).expect("plain data")
        );
        assert_eq!(a.render(), b.render());
        assert!(a.render().contains("hottest zones"));
        assert!(serde_json::to_string(&a)
            .expect("plain data")
            .starts_with("{\"schema\":\"frostlab-health-digest/v1\""));
    }
}
