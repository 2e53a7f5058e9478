//! Cooling-plant components and the department's §5 retrofit.

/// One computer-room air-conditioning unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CracUnit {
    /// Heat it can remove, kW (thermal).
    pub cooling_capacity_kw: f64,
    /// Electrical power it draws while doing so, kW.
    pub power_draw_kw: f64,
}

/// The whole cooling chain for one machine room.
#[derive(Debug, Clone)]
pub struct CoolingPlant {
    /// Room-side CRAC units.
    pub cracs: Vec<CracUnit>,
    /// The chilled-water HVAC unit's electrical draw, kW.
    pub hvac_unit_kw: f64,
    /// The roof liquid-cooling unit's electrical draw, kW.
    pub roof_cooler_kw: f64,
}

impl CoolingPlant {
    /// The department's retrofit for the new cluster (§5): three new CRACs
    /// drawing 6.9 kW total, a 44.7 kW chilled-water unit, a 3.8 kW roof
    /// cooler, sized for a 75 kW peak IT load.
    pub fn department_retrofit() -> CoolingPlant {
        CoolingPlant {
            cracs: vec![
                CracUnit {
                    cooling_capacity_kw: 25.0,
                    power_draw_kw: 2.3,
                },
                CracUnit {
                    cooling_capacity_kw: 25.0,
                    power_draw_kw: 2.3,
                },
                CracUnit {
                    cooling_capacity_kw: 25.0,
                    power_draw_kw: 2.3,
                },
            ],
            hvac_unit_kw: 44.7,
            roof_cooler_kw: 3.8,
        }
    }

    /// Total electrical overhead of the plant, kW.
    pub fn total_overhead_kw(&self) -> f64 {
        self.cracs.iter().map(|c| c.power_draw_kw).sum::<f64>()
            + self.hvac_unit_kw
            + self.roof_cooler_kw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn department_figures_match_paper() {
        let p = CoolingPlant::department_retrofit();
        let crac_total: f64 = p.cracs.iter().map(|c| c.power_draw_kw).sum();
        assert!((crac_total - 6.9).abs() < 1e-9, "CRACs draw {crac_total}");
        assert!((p.total_overhead_kw() - 55.4).abs() < 1e-9);
        // The CRACs can actually carry the 75 kW design load.
        let capacity: f64 = p.cracs.iter().map(|c| c.cooling_capacity_kw).sum();
        assert!(capacity >= 75.0);
    }

    #[test]
    fn crac_cop_reasonable() {
        let p = CoolingPlant::department_retrofit();
        for c in &p.cracs {
            let cop = c.cooling_capacity_kw / c.power_draw_kw;
            assert!((5.0..20.0).contains(&cop), "air-mover COP {cop}");
        }
    }
}
