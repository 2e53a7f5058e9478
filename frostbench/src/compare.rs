//! `frostbench compare A.json B.json`: per workload and end-to-end
//! metric, each side's median and quartiles and a verdict.

use crate::report::RunFile;
use crate::spec::{BenchSpec, Better, MetricSpec};
use crate::stats::{quartiles, relative_spread};

/// What the runs of side B say about one metric relative to side A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than the bound.
    Improved,
    /// The medians differ by no more than the bound.
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// Either side's quartile spread is wider than the bound, so the
    /// runs cannot tell a change of that size from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge side `b` against baseline `a` for one metric.
///
/// A spread wider than the bound makes the metric unresolved, unless
/// every run of `b` reads better than every run of `a`.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let worse_by = |base: f64, x: f64| match better {
        Better::Lower => (x - base) / base,
        Better::Higher => (base - x) / base,
    };
    let (ma, mb) = (quartiles(a).1, quartiles(b).1);
    if relative_spread(a).max(relative_spread(b)) > bound {
        let b_always_better = b.iter().all(|&x| a.iter().all(|&y| worse_by(y, x) < 0.0));
        return if b_always_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let change = worse_by(ma, mb);
    if change > bound {
        Verdict::Regressed
    } else if change < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Print the comparison table; returns true when B regressed on any
/// metric or failed a larger share of its operations than A.
pub fn compare(spec: &BenchSpec, a: &RunFile, b: &RunFile) -> bool {
    let mut bad = false;
    println!(
        "{:<15} {:<20} {:>26} {:>26}  verdict (bound)",
        "workload", "metric", "A q1/median/q3", "B q1/median/q3"
    );
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            println!("{:<15} missing from B", wa.name);
            bad = true;
            continue;
        };
        for metric in &spec.end_to_end {
            let (va, vb) = (wa.values(&metric.name), wb.values(&metric.name));
            if va.is_empty() || vb.is_empty() {
                println!("{:<15} {:<20} no samples", wa.name, metric.name);
                continue;
            }
            let v = verdict(&va, &vb, metric.better, bound(metric));
            bad |= v == Verdict::Regressed;
            println!(
                "{:<15} {:<20} {:>26} {:>26}  {} (±{:.0} %)",
                wa.name,
                metric.name,
                fmt_quartiles(&va),
                fmt_quartiles(&vb),
                v.as_str(),
                100.0 * bound(metric)
            );
        }
        let (ea, eb) = (wa.error_rate(), wb.error_rate());
        if eb > ea {
            println!(
                "{:<15} error_rate rose from {ea:.6} to {eb:.6} — REGRESSED",
                wa.name
            );
            bad = true;
        }
    }
    bad
}

fn bound(metric: &MetricSpec) -> f64 {
    metric.bound.expect("end-to-end metrics carry a bound")
}

fn fmt_quartiles(xs: &[f64]) -> String {
    let (q1, q2, q3) = quartiles(xs);
    format!("{q1:.4}/{q2:.4}/{q3:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.0, 100.5];
        let lower = Better::Lower;
        // Inside the bound either way.
        assert_eq!(
            verdict(&a, &[104.0, 105.0, 103.0], lower, 0.1),
            Verdict::Unchanged
        );
        // Worse beyond the bound.
        assert_eq!(
            verdict(&a, &[125.0, 126.0, 124.0], lower, 0.1),
            Verdict::Regressed
        );
        // Better beyond the bound.
        assert_eq!(
            verdict(&a, &[80.0, 81.0, 79.0], lower, 0.1),
            Verdict::Improved
        );
        // Direction flips for higher-is-better metrics.
        assert_eq!(
            verdict(&a, &[80.0, 81.0, 79.0], Better::Higher, 0.1),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_always_wins() {
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        // Medians equal, but the spread (60 %) dwarfs a 10 % bound.
        assert_eq!(
            verdict(&noisy, &[100.0, 101.0, 99.0], Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &[150.0, 151.0, 149.0], Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // Every B run beats every A run: improved despite the noise.
        assert_eq!(
            verdict(&noisy, &[50.0, 51.0, 49.0], Better::Lower, 0.1),
            Verdict::Improved
        );
    }
}
