//! Generic lumped-capacitance (RC) thermal network.
//!
//! Nodes carry a heat capacity (J/K) and an injected power (W); edges carry a
//! conductance (W/K) either between two capacitive nodes or from a node to a
//! *boundary* (a prescribed temperature such as outside air). Integration
//! uses **exponential Euler** per node: over a step the node relaxes toward
//! its instantaneous steady state with its own time constant,
//!
//! ```text
//! T ← T∞ + (T − T∞)·exp(−dt·G/C),   T∞ = (Σ G_i·T_i + P) / Σ G_i
//! ```
//!
//! which is unconditionally stable, exact for a single node with constant
//! inputs, and accurate for the mildly coupled networks used here (automatic
//! sub-stepping keeps cross-node coupling honest).

/// Index of a capacitive node in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

/// Index of a boundary (prescribed-temperature) terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BoundaryId(pub usize);

#[derive(Debug, Clone)]
struct Node {
    capacity_j_k: f64,
    temp_c: f64,
    power_w: f64,
}

#[derive(Debug, Clone)]
enum EdgeKind {
    NodeNode(NodeId, NodeId),
    NodeBoundary(NodeId, BoundaryId),
}

#[derive(Debug, Clone)]
struct Edge {
    kind: EdgeKind,
    conductance_w_k: f64,
}

/// A lumped RC thermal network. See module docs.
#[derive(Debug, Clone, Default)]
pub struct RcNetwork {
    nodes: Vec<Node>,
    boundaries: Vec<f64>,
    edges: Vec<Edge>,
}

impl RcNetwork {
    /// Create an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a capacitive node with initial temperature.
    ///
    /// # Panics
    /// Panics if `capacity_j_k` is not strictly positive.
    pub fn add_node(&mut self, capacity_j_k: f64, initial_temp_c: f64) -> NodeId {
        assert!(capacity_j_k > 0.0, "node capacity must be positive");
        self.nodes.push(Node {
            capacity_j_k,
            temp_c: initial_temp_c,
            power_w: 0.0,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Add a boundary terminal with a prescribed temperature.
    pub fn add_boundary(&mut self, temp_c: f64) -> BoundaryId {
        self.boundaries.push(temp_c);
        BoundaryId(self.boundaries.len() - 1)
    }

    /// Connect two capacitive nodes with a conductance.
    pub fn connect(&mut self, a: NodeId, b: NodeId, conductance_w_k: f64) {
        assert!(conductance_w_k >= 0.0);
        self.edges.push(Edge {
            kind: EdgeKind::NodeNode(a, b),
            conductance_w_k,
        });
    }

    /// Connect a node to a boundary with a conductance.
    pub fn connect_boundary(&mut self, n: NodeId, b: BoundaryId, conductance_w_k: f64) {
        assert!(conductance_w_k >= 0.0);
        self.edges.push(Edge {
            kind: EdgeKind::NodeBoundary(n, b),
            conductance_w_k,
        });
    }

    /// Set the heat injected into a node (W). Persists until changed.
    pub fn set_power(&mut self, n: NodeId, power_w: f64) {
        self.nodes[n.0].power_w = power_w;
    }

    /// Update a boundary's prescribed temperature.
    pub fn set_boundary_temp(&mut self, b: BoundaryId, temp_c: f64) {
        self.boundaries[b.0] = temp_c;
    }

    /// Update an edge's conductance (edges are indexed in creation order).
    pub fn set_conductance(&mut self, edge_index: usize, conductance_w_k: f64) {
        assert!(conductance_w_k >= 0.0);
        self.edges[edge_index].conductance_w_k = conductance_w_k;
    }

    /// Current temperature of a node.
    pub fn temp(&self, n: NodeId) -> f64 {
        self.nodes[n.0].temp_c
    }

    /// Smallest node time constant C/ΣG — used for sub-step sizing.
    fn min_time_constant(&self) -> f64 {
        let mut gsum = vec![0.0f64; self.nodes.len()];
        for e in &self.edges {
            match e.kind {
                EdgeKind::NodeNode(a, b) => {
                    gsum[a.0] += e.conductance_w_k;
                    gsum[b.0] += e.conductance_w_k;
                }
                EdgeKind::NodeBoundary(n, _) => gsum[n.0] += e.conductance_w_k,
            }
        }
        self.nodes
            .iter()
            .zip(&gsum)
            .filter(|(_, &g)| g > 0.0)
            .map(|(n, &g)| n.capacity_j_k / g)
            .fold(f64::INFINITY, f64::min)
    }

    /// Advance the network by `dt_secs`, sub-stepping for accuracy.
    pub fn step(&mut self, dt_secs: f64) {
        assert!(dt_secs >= 0.0, "negative time step");
        if dt_secs == 0.0 || self.nodes.is_empty() {
            return;
        }
        // Sub-step at a quarter of the fastest time constant so inter-node
        // coupling (handled with frozen neighbour temperatures per sub-step)
        // stays accurate.
        let tau = self.min_time_constant();
        let max_sub = if tau.is_finite() {
            (tau / 4.0).max(1e-3)
        } else {
            dt_secs
        };
        let n_sub = (dt_secs / max_sub).ceil().max(1.0) as usize;
        let h = dt_secs / n_sub as f64;
        for _ in 0..n_sub {
            self.substep(h);
        }
    }

    fn substep(&mut self, h: f64) {
        let n = self.nodes.len();
        let mut gsum = vec![0.0f64; n];
        let mut gtsum = vec![0.0f64; n];
        for e in &self.edges {
            match e.kind {
                EdgeKind::NodeNode(a, b) => {
                    gsum[a.0] += e.conductance_w_k;
                    gtsum[a.0] += e.conductance_w_k * self.nodes[b.0].temp_c;
                    gsum[b.0] += e.conductance_w_k;
                    gtsum[b.0] += e.conductance_w_k * self.nodes[a.0].temp_c;
                }
                EdgeKind::NodeBoundary(nd, bd) => {
                    gsum[nd.0] += e.conductance_w_k;
                    gtsum[nd.0] += e.conductance_w_k * self.boundaries[bd.0];
                }
            }
        }
        for i in 0..n {
            let node = &mut self.nodes[i];
            if gsum[i] <= 0.0 {
                // Pure integrator: adiabatic node.
                node.temp_c += node.power_w * h / node.capacity_j_k;
                continue;
            }
            let t_inf = (gtsum[i] + node.power_w) / gsum[i];
            let k = (-h * gsum[i] / node.capacity_j_k).exp();
            node.temp_c = t_inf + (node.temp_c - t_inf) * k;
        }
    }

    /// Steady-state temperature of every node under the current inputs,
    /// found by relaxation (used by tests and sizing tools).
    pub fn steady_state(&self) -> Vec<f64> {
        let mut net = self.clone();
        // Relax with large steps until movement stops.
        for _ in 0..10_000 {
            let before: Vec<f64> = net.nodes.iter().map(|n| n.temp_c).collect();
            net.step(3600.0);
            let moved = net
                .nodes
                .iter()
                .zip(&before)
                .map(|(n, b)| (n.temp_c - b).abs())
                .fold(0.0f64, f64::max);
            if moved < 1e-9 {
                break;
            }
        }
        net.nodes.iter().map(|n| n.temp_c).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_relaxes_to_boundary() {
        let mut net = RcNetwork::new();
        let n = net.add_node(1000.0, 20.0);
        let amb = net.add_boundary(-10.0);
        net.connect_boundary(n, amb, 10.0); // tau = 100 s
        net.step(10_000.0);
        assert!((net.temp(n) + 10.0).abs() < 1e-6, "{}", net.temp(n));
    }

    #[test]
    fn exponential_time_constant() {
        let mut net = RcNetwork::new();
        let n = net.add_node(1000.0, 1.0);
        let amb = net.add_boundary(0.0);
        net.connect_boundary(n, amb, 10.0); // tau = 100 s
        net.step(100.0); // one time constant: T should be e^-1
        assert!(
            (net.temp(n) - (-1.0f64).exp()).abs() < 1e-3,
            "{}",
            net.temp(n)
        );
    }

    #[test]
    fn heated_node_steady_state_offset() {
        // ΔT = P / UA.
        let mut net = RcNetwork::new();
        let n = net.add_node(5000.0, 0.0);
        let amb = net.add_boundary(-20.0);
        net.connect_boundary(n, amb, 50.0);
        net.set_power(n, 1000.0);
        net.step(100_000.0);
        assert!((net.temp(n) - 0.0).abs() < 1e-6, "{}", net.temp(n)); // -20 + 1000/50
    }

    #[test]
    fn two_node_chain_steady_state() {
        // boundary —G1— A —G2— B, power into B.
        let mut net = RcNetwork::new();
        let a = net.add_node(1000.0, 0.0);
        let b = net.add_node(500.0, 0.0);
        let amb = net.add_boundary(10.0);
        net.connect_boundary(a, amb, 20.0);
        net.connect(a, b, 5.0);
        net.set_power(b, 100.0);
        let ss = net.steady_state();
        // All of B's 100 W flows through both edges:
        // T_a = 10 + 100/20 = 15; T_b = 15 + 100/5 = 35.
        assert!((ss[0] - 15.0).abs() < 1e-3, "a = {}", ss[0]);
        assert!((ss[1] - 35.0).abs() < 1e-3, "b = {}", ss[1]);
    }

    #[test]
    fn adiabatic_node_integrates_power() {
        let mut net = RcNetwork::new();
        let n = net.add_node(2000.0, 0.0);
        net.set_power(n, 100.0);
        net.step(40.0);
        assert!((net.temp(n) - 2.0).abs() < 1e-9); // 100*40/2000
    }

    #[test]
    fn step_is_stable_for_stiff_network() {
        // A fast node (tau = 1 s) stepped with a huge dt must not blow up.
        let mut net = RcNetwork::new();
        let n = net.add_node(10.0, 100.0);
        let amb = net.add_boundary(0.0);
        net.connect_boundary(n, amb, 10.0);
        net.step(86_400.0);
        assert!(net.temp(n).abs() < 1e-6);
        assert!(net.temp(n).is_finite());
    }

    #[test]
    fn conductance_update_changes_equilibrium() {
        let mut net = RcNetwork::new();
        let n = net.add_node(1000.0, 0.0);
        let amb = net.add_boundary(0.0);
        net.connect_boundary(n, amb, 10.0); // edge 0
        net.set_power(n, 100.0);
        net.step(50_000.0);
        assert!((net.temp(n) - 10.0).abs() < 1e-6);
        net.set_conductance(0, 40.0);
        net.step(50_000.0);
        assert!((net.temp(n) - 2.5).abs() < 1e-6);
    }

    #[test]
    fn energy_flows_downhill() {
        // Without power injection, node temperatures stay bracketed by
        // initial node temps and boundary temps (maximum principle).
        let mut net = RcNetwork::new();
        let a = net.add_node(100.0, 50.0);
        let b = net.add_node(100.0, -30.0);
        let amb = net.add_boundary(5.0);
        net.connect(a, b, 3.0);
        net.connect_boundary(a, amb, 1.0);
        net.connect_boundary(b, amb, 1.0);
        for _ in 0..1000 {
            net.step(10.0);
            for t in [net.temp(a), net.temp(b)] {
                assert!((-30.0..=50.0).contains(&t), "escaped bracket: {t}");
            }
        }
        assert!((net.temp(a) - 5.0).abs() < 0.1);
        assert!((net.temp(b) - 5.0).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        RcNetwork::new().add_node(0.0, 0.0);
    }
}
