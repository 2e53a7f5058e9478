//! In-chassis thermal chain for fleet-scale stepping: enclosure air → case
//! air → CPU / disks.
//!
//! This is the model that turns "−10 °C in the tent" into the paper's
//! reported "CPU had been operating in temperatures as low as −4 °C": the
//! case air runs a few kelvin above intake (set by the chassis airflow), the
//! CPU runs `R_th·P_cpu` above case air, and disks ride a fixed offset above
//! case air. Vendor B's small-form-factor workstations were "considered
//! unreliable … due to bad air flow circulation" (§3); their parameter set
//! models that with a weak case airflow, which pushes component
//! temperatures up — and lets the experiment ask the paper's fourth
//! research question (does the cold alleviate the known problem?).
//!
//! [`CaseBank`] holds the chassis state of *every* host in a fleet as
//! parallel flat arrays and steps one host with a closed-form kernel. Each
//! chassis is a two-node RC network (case air + CPU, coupled to the
//! enclosure boundary) integrated with exponential-Euler substeps; for that
//! fixed topology the generic [`RcNetwork`](crate::network::RcNetwork)
//! solver's arithmetic collapses to a handful of fused update lines whose
//! floating-point operation order is copied here exactly, so the kernel
//! reproduces the solver **bit for bit** (the tests below check it):
//!
//! * conductance sums accumulate in edge order — boundary coupling first,
//!   then the case↔CPU link — so `gsum_case = airflow + g` and
//!   `gsum_cpu = g`;
//! * each substep freezes node temperatures before computing both
//!   `Σ G·T` terms (the solver reads a snapshot, not in-place updates);
//! * the substep count, substep width `h` and the decay factors
//!   `exp(−h·ΣG/C)` depend only on the host's constants and `dt`, so they
//!   are cached per distinct `dt` instead of recomputed per call — the
//!   cached values are produced by the very same expressions, keeping the
//!   results identical to the per-tick recomputation.
//!
//! The bank stores no heap data per step: all state lives in flat `Vec`s
//! sized once at fleet construction, which is what lets a 10,000-host
//! campaign tick in O(hosts) with zero allocations in the hot loop.

/// Thermal parameters for one chassis design.
#[derive(Debug, Clone)]
pub struct ServerThermalParams {
    /// Conductance from case air to intake air (chassis airflow), W/K.
    pub case_airflow_w_k: f64,
    /// Thermal capacity of the case air + structure, J/K.
    pub case_capacity_j_k: f64,
    /// CPU heatsink thermal resistance, K/W.
    pub cpu_rth_k_w: f64,
    /// CPU + heatsink capacity, J/K.
    pub cpu_capacity_j_k: f64,
}

impl ServerThermalParams {
    /// Vendor A: medium-tower clone desktops, decent airflow.
    pub fn vendor_a_tower() -> Self {
        ServerThermalParams {
            case_airflow_w_k: 15.0,
            case_capacity_j_k: 4_000.0,
            cpu_rth_k_w: 0.35,
            cpu_capacity_j_k: 450.0,
        }
    }

    /// Vendor B: small-form-factor workstations with the known airflow
    /// problem — weak case airflow, hot components.
    pub fn vendor_b_sff() -> Self {
        ServerThermalParams {
            case_airflow_w_k: 6.0,
            case_capacity_j_k: 2_000.0,
            cpu_rth_k_w: 0.50,
            cpu_capacity_j_k: 350.0,
        }
    }

    /// Vendor C: 2U rack servers with strong forced airflow.
    pub fn vendor_c_2u() -> Self {
        ServerThermalParams {
            case_airflow_w_k: 30.0,
            case_capacity_j_k: 8_000.0,
            cpu_rth_k_w: 0.25,
            cpu_capacity_j_k: 600.0,
        }
    }
}

/// Flat-array thermal state for a fleet of server cases.
///
/// Hosts are addressed by the dense index returned from [`CaseBank::push`];
/// callers keep that index aligned with their other per-host columns.
#[derive(Debug, Clone, Default)]
pub struct CaseBank {
    // Mutable state.
    t_case: Vec<f64>,
    t_cpu: Vec<f64>,
    // Per-host constants (from `ServerThermalParams`).
    airflow_w_k: Vec<f64>,
    g_cpu_w_k: Vec<f64>,
    gsum_case: Vec<f64>,
    gsum_cpu: Vec<f64>,
    c_case: Vec<f64>,
    c_cpu: Vec<f64>,
    // Integrator constants cached for the last-seen `dt` (NaN = stale).
    n_sub: Vec<u32>,
    k_case: Vec<f64>,
    k_cpu: Vec<f64>,
    cached_dt: f64,
}

impl CaseBank {
    /// An empty bank.
    pub fn new() -> Self {
        CaseBank {
            cached_dt: f64::NAN,
            ..CaseBank::default()
        }
    }

    /// Number of hosts in the bank.
    pub fn len(&self) -> usize {
        self.t_case.len()
    }

    /// Whether the bank holds no hosts.
    pub fn is_empty(&self) -> bool {
        self.t_case.is_empty()
    }

    /// Add one host's chassis, initialized to `initial_c` (both nodes),
    /// returning its dense index.
    pub fn push(&mut self, params: &ServerThermalParams, initial_c: f64) -> usize {
        let idx = self.t_case.len();
        self.t_case.push(initial_c);
        self.t_cpu.push(initial_c);
        let g = 1.0 / params.cpu_rth_k_w;
        self.airflow_w_k.push(params.case_airflow_w_k);
        self.g_cpu_w_k.push(g);
        // Edge-order accumulation: boundary coupling, then the CPU link.
        self.gsum_case.push((0.0 + params.case_airflow_w_k) + g);
        self.gsum_cpu.push(0.0 + g);
        self.c_case.push(params.case_capacity_j_k);
        self.c_cpu.push(params.cpu_capacity_j_k);
        self.n_sub.push(0);
        self.k_case.push(0.0);
        self.k_cpu.push(0.0);
        // New rows have no integrator constants yet.
        self.cached_dt = f64::NAN;
        idx
    }

    /// Recompute the per-host substep constants for a new step width.
    fn refresh_integrator(&mut self, dt_secs: f64) {
        for i in 0..self.t_case.len() {
            // `min_time_constant`: fold C/ΣG over the nodes in index order,
            // starting from +∞ (IEEE min, like the network solver).
            let tau = f64::min(
                f64::min(f64::INFINITY, self.c_case[i] / self.gsum_case[i]),
                self.c_cpu[i] / self.gsum_cpu[i],
            );
            let max_sub = if tau.is_finite() {
                (tau / 4.0).max(1e-3)
            } else {
                dt_secs
            };
            let n_sub = (dt_secs / max_sub).ceil().max(1.0) as usize;
            let h = dt_secs / n_sub as f64;
            self.n_sub[i] = n_sub as u32;
            self.k_case[i] = (-h * self.gsum_case[i] / self.c_case[i]).exp();
            self.k_cpu[i] = (-h * self.gsum_cpu[i] / self.c_cpu[i]).exp();
        }
        self.cached_dt = dt_secs;
    }

    /// Advance host `i` by `dt_secs` with the given intake-air temperature,
    /// CPU power and total chassis power (CPU power is part of the total;
    /// the non-CPU remainder, clamped at zero, heats the case air directly).
    pub fn step_one(
        &mut self,
        i: usize,
        dt_secs: f64,
        intake_c: f64,
        cpu_power_w: f64,
        total_power_w: f64,
    ) {
        assert!(dt_secs >= 0.0, "time cannot flow backwards");
        if dt_secs == 0.0 {
            return;
        }
        if dt_secs != self.cached_dt {
            self.refresh_integrator(dt_secs);
        }
        let other_w = (total_power_w - cpu_power_w).max(0.0);
        let airflow = self.airflow_w_k[i];
        let g = self.g_cpu_w_k[i];
        let (gsum_case, gsum_cpu) = (self.gsum_case[i], self.gsum_cpu[i]);
        let (k_case, k_cpu) = (self.k_case[i], self.k_cpu[i]);
        let (mut t_case, mut t_cpu) = (self.t_case[i], self.t_cpu[i]);
        for _ in 0..self.n_sub[i] {
            // Σ G·T from temperatures frozen at substep start, edge order.
            let gt_case = (0.0 + airflow * intake_c) + g * t_cpu;
            let gt_cpu = 0.0 + g * t_case;
            let t_inf_case = (gt_case + other_w) / gsum_case;
            let t_inf_cpu = (gt_cpu + cpu_power_w) / gsum_cpu;
            t_case = t_inf_case + (t_case - t_inf_case) * k_case;
            t_cpu = t_inf_cpu + (t_cpu - t_inf_cpu) * k_cpu;
        }
        self.t_case[i] = t_case;
        self.t_cpu[i] = t_cpu;
    }

    /// CPU die temperature of host `i`, °C.
    pub fn cpu_temp_c(&self, i: usize) -> f64 {
        self.t_cpu[i]
    }

    /// Internal case air temperature of host `i`, °C.
    pub fn case_temp_c(&self, i: usize) -> f64 {
        self.t_case[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{BoundaryId, NodeId, RcNetwork};

    /// The reference chassis: the generic solver's two-node network, built
    /// in the order the kernel's edge sums assume — case node, CPU node,
    /// intake boundary, then the boundary edge and then the CPU edge.
    struct RcCase {
        net: RcNetwork,
        case: NodeId,
        cpu: NodeId,
        intake: BoundaryId,
    }

    impl RcCase {
        fn new(params: &ServerThermalParams, intake_c: f64) -> Self {
            let mut net = RcNetwork::new();
            let case = net.add_node(params.case_capacity_j_k, intake_c);
            let cpu = net.add_node(params.cpu_capacity_j_k, intake_c);
            let intake = net.add_boundary(intake_c);
            net.connect_boundary(case, intake, params.case_airflow_w_k);
            net.connect(case, cpu, 1.0 / params.cpu_rth_k_w);
            RcCase {
                net,
                case,
                cpu,
                intake,
            }
        }

        fn step(&mut self, dt_secs: f64, intake_c: f64, cpu_power_w: f64, total_power_w: f64) {
            let other_w = (total_power_w - cpu_power_w).max(0.0);
            self.net.set_boundary_temp(self.intake, intake_c);
            self.net.set_power(self.case, other_w);
            self.net.set_power(self.cpu, cpu_power_w);
            self.net.step(dt_secs);
        }

        fn case_temp_c(&self) -> f64 {
            self.net.temp(self.case)
        }

        fn cpu_temp_c(&self) -> f64 {
            self.net.temp(self.cpu)
        }
    }

    fn vendors() -> [ServerThermalParams; 3] {
        [
            ServerThermalParams::vendor_a_tower(),
            ServerThermalParams::vendor_b_sff(),
            ServerThermalParams::vendor_c_2u(),
        ]
    }

    /// Deterministic pseudo-input wiggle, no RNG needed.
    fn wiggle(step: usize, scale: f64, offset: f64) -> f64 {
        offset + scale * ((step as f64 * 0.7).sin() + 0.3 * (step as f64 * 0.13).cos())
    }

    /// A one-host bank starting in equilibrium with `intake_c`.
    fn one_case(params: ServerThermalParams, intake_c: f64) -> CaseBank {
        let mut bank = CaseBank::new();
        bank.push(&params, intake_c);
        bank
    }

    fn settle(bank: &mut CaseBank, intake: f64, cpu_w: f64, total_w: f64) {
        for _ in 0..600 {
            bank.step_one(0, 30.0, intake, cpu_w, total_w);
        }
    }

    #[test]
    fn bank_matches_rc_network_bit_for_bit() {
        let mut bank = CaseBank::new();
        let mut nets = Vec::new();
        for params in vendors() {
            bank.push(&params, 18.0);
            nets.push(RcCase::new(&params, 18.0));
        }
        for step in 0..3_000 {
            for (i, net) in nets.iter_mut().enumerate() {
                let intake = wiggle(step + i, 12.0, -4.0);
                let cpu_w = wiggle(step, 20.0, 40.0).max(0.0);
                let total_w = cpu_w + wiggle(step, 30.0, 60.0).max(0.0);
                net.step(60.0, intake, cpu_w, total_w);
                bank.step_one(i, 60.0, intake, cpu_w, total_w);
                assert_eq!(
                    net.cpu_temp_c().to_bits(),
                    bank.cpu_temp_c(i).to_bits(),
                    "cpu diverged at step {step} host {i}"
                );
                assert_eq!(
                    net.case_temp_c().to_bits(),
                    bank.case_temp_c(i).to_bits(),
                    "case diverged at step {step} host {i}"
                );
            }
        }
    }

    #[test]
    fn negative_other_power_clamps_like_rc_network() {
        // total < cpu: the non-CPU share clamps to zero in both models.
        let params = ServerThermalParams::vendor_b_sff();
        let mut net = RcCase::new(&params, 18.0);
        let mut bank = one_case(params, 18.0);
        for _ in 0..500 {
            net.step(60.0, -8.0, 50.0, 30.0);
            bank.step_one(0, 60.0, -8.0, 50.0, 30.0);
        }
        assert_eq!(net.cpu_temp_c().to_bits(), bank.cpu_temp_c(0).to_bits());
        assert_eq!(net.case_temp_c().to_bits(), bank.case_temp_c(0).to_bits());
    }

    #[test]
    fn dt_changes_reprime_the_integrator_cache() {
        let params = ServerThermalParams::vendor_a_tower();
        let mut net = RcCase::new(&params, 18.0);
        let mut bank = one_case(params, 18.0);
        // Alternate step widths: the cache must refresh, not reuse stale
        // substep constants.
        for step in 0..400 {
            let dt = if step % 3 == 0 { 60.0 } else { 17.5 };
            net.step(dt, -2.0, 30.0, 80.0);
            bank.step_one(0, dt, -2.0, 30.0, 80.0);
            assert_eq!(net.cpu_temp_c().to_bits(), bank.cpu_temp_c(0).to_bits());
        }
    }

    #[test]
    fn zero_dt_is_a_no_op() {
        let mut bank = one_case(ServerThermalParams::vendor_c_2u(), 21.0);
        bank.step_one(0, 0.0, -20.0, 100.0, 200.0);
        assert_eq!(bank.cpu_temp_c(0), 21.0);
        assert_eq!(bank.case_temp_c(0), 21.0);
    }

    #[test]
    fn pushing_after_stepping_keeps_existing_rows_exact() {
        // A host added later must not disturb earlier rows, and the new row
        // must integrate exactly (the dt cache is invalidated by push).
        let a = ServerThermalParams::vendor_a_tower();
        let c = ServerThermalParams::vendor_c_2u();
        let mut net_a = RcCase::new(&a, 18.0);
        let mut net_c = RcCase::new(&c, 18.0);
        let mut bank = CaseBank::new();
        bank.push(&a, 18.0);
        for _ in 0..50 {
            net_a.step(60.0, -5.0, 20.0, 70.0);
            bank.step_one(0, 60.0, -5.0, 20.0, 70.0);
        }
        bank.push(&c, 18.0);
        for _ in 0..50 {
            net_a.step(60.0, -5.0, 20.0, 70.0);
            net_c.step(60.0, 21.0, 60.0, 200.0);
            bank.step_one(0, 60.0, -5.0, 20.0, 70.0);
            bank.step_one(1, 60.0, 21.0, 60.0, 200.0);
        }
        assert_eq!(net_a.cpu_temp_c().to_bits(), bank.cpu_temp_c(0).to_bits());
        assert_eq!(net_c.cpu_temp_c().to_bits(), bank.cpu_temp_c(1).to_bits());
    }

    #[test]
    fn paper_cpu_reading_reproduced() {
        // Prototype weekend: ambient ≈ −10 °C, idle generic PC.
        // The paper observed CPU ≈ −4 °C.
        let mut s = one_case(ServerThermalParams::vendor_a_tower(), -10.0);
        settle(&mut s, -10.0, 12.0, 70.0);
        let cpu = s.cpu_temp_c(0);
        assert!((-7.0..=-1.0).contains(&cpu), "idle CPU at {cpu} °C");
    }

    #[test]
    fn load_raises_cpu_temperature() {
        let mut s = one_case(ServerThermalParams::vendor_a_tower(), 20.0);
        settle(&mut s, 20.0, 15.0, 90.0);
        let idle = s.cpu_temp_c(0);
        settle(&mut s, 20.0, 65.0, 140.0);
        let load = s.cpu_temp_c(0);
        assert!(load > idle + 10.0, "idle {idle}, load {load}");
    }

    #[test]
    fn vendor_b_runs_hotter_than_a() {
        let mut a = one_case(ServerThermalParams::vendor_a_tower(), 21.0);
        let mut b = one_case(ServerThermalParams::vendor_b_sff(), 21.0);
        settle(&mut a, 21.0, 60.0, 120.0);
        settle(&mut b, 21.0, 60.0, 120.0);
        assert!(
            b.cpu_temp_c(0) > a.cpu_temp_c(0) + 8.0,
            "B {} vs A {}",
            b.cpu_temp_c(0),
            a.cpu_temp_c(0)
        );
    }

    #[test]
    fn cold_intake_alleviates_vendor_b_heat_problem() {
        // Research question 4: vendor B in the basement (21 °C) vs the tent
        // (−5 °C): the cold should pull the hot SFF CPUs well below their
        // indoor operating point.
        let mut indoors = one_case(ServerThermalParams::vendor_b_sff(), 21.0);
        let mut tent = one_case(ServerThermalParams::vendor_b_sff(), -5.0);
        settle(&mut indoors, 21.0, 60.0, 120.0);
        settle(&mut tent, -5.0, 60.0, 120.0);
        assert!(tent.cpu_temp_c(0) < indoors.cpu_temp_c(0) - 20.0);
    }

    #[test]
    fn case_between_intake_and_cpu() {
        let mut s = one_case(ServerThermalParams::vendor_c_2u(), 10.0);
        settle(&mut s, 10.0, 80.0, 250.0);
        assert!(s.case_temp_c(0) > 10.0);
        assert!(s.cpu_temp_c(0) > s.case_temp_c(0));
    }

    #[test]
    fn thermal_response_is_minutes_not_hours() {
        // After an intake step change, the CPU should be most of the way to
        // the new equilibrium within ~15 minutes.
        let mut s = one_case(ServerThermalParams::vendor_a_tower(), 20.0);
        settle(&mut s, 20.0, 15.0, 80.0);
        let before = s.cpu_temp_c(0);
        for _ in 0..30 {
            s.step_one(0, 30.0, 0.0, 15.0, 80.0);
        }
        let after_15min = s.cpu_temp_c(0);
        assert!(
            before - after_15min > 12.0,
            "only moved {} K",
            before - after_15min
        );
    }
}
