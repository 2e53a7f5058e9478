//! Vendor specs and assembled machines.
//!
//! §3.4: ten hosts from vendor A, four from B (the known-unreliable series)
//! and four from C were split pairwise between tent and basement (nine
//! each); a nineteenth machine later replaced host #15. [`ServerSpec`]
//! captures per-vendor hardware (power envelope, memory, PSU);
//! [`HostBank::push_host`](crate::columns::HostBank::push_host) turns a
//! spec into a live host.

/// The three vendors of §3.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vendor {
    /// Small vendor building "cloned" desktops from COTS parts.
    A,
    /// Large vendor's mass-manufactured small-form-factor workstations.
    B,
    /// Large vendor's 2U rack servers.
    C,
}

impl std::fmt::Display for Vendor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Vendor::A => write!(f, "A"),
            Vendor::B => write!(f, "B"),
            Vendor::C => write!(f, "C"),
        }
    }
}

/// Static description of one machine model.
#[derive(Debug, Clone)]
pub struct ServerSpec {
    /// Which vendor.
    pub vendor: Vendor,
    /// Marketing-style form factor name.
    pub form_factor: &'static str,
    /// DC power draw at idle, W.
    pub idle_power_w: f64,
    /// DC power draw at full synthetic load, W.
    pub load_power_w: f64,
    /// CPU package power at idle, W.
    pub cpu_idle_w: f64,
    /// CPU package power at full load, W.
    pub cpu_load_w: f64,
    /// Installed memory, MiB.
    pub memory_mib: u32,
    /// Whether the DIMMs are ECC.
    pub ecc: bool,
    /// PSU rating, W.
    pub psu_rated_w: f64,
    /// PSU efficiency.
    pub psu_efficiency: f64,
    /// Whether this unit belongs to the known-defective series (§3: the
    /// unreliable vendor-B workstations with bad airflow).
    pub defective_series: bool,
}

impl ServerSpec {
    /// Vendor A clone desktop.
    pub fn vendor_a() -> Self {
        ServerSpec {
            vendor: Vendor::A,
            form_factor: "medium tower",
            idle_power_w: 70.0,
            load_power_w: 125.0,
            cpu_idle_w: 15.0,
            cpu_load_w: 65.0,
            memory_mib: 2048,
            ecc: false,
            psu_rated_w: 300.0,
            psu_efficiency: 0.78,
            defective_series: false,
        }
    }

    /// Vendor B small-form-factor workstation (optionally from the
    /// known-defective series).
    pub fn vendor_b(defective_series: bool) -> Self {
        ServerSpec {
            vendor: Vendor::B,
            form_factor: "small form factor",
            idle_power_w: 45.0,
            load_power_w: 85.0,
            cpu_idle_w: 12.0,
            cpu_load_w: 48.0,
            memory_mib: 1024,
            ecc: false,
            psu_rated_w: 220.0,
            psu_efficiency: 0.75,
            defective_series,
        }
    }

    /// Vendor C 2U rack server.
    pub fn vendor_c() -> Self {
        ServerSpec {
            vendor: Vendor::C,
            form_factor: "2U rack",
            idle_power_w: 150.0,
            load_power_w: 260.0,
            cpu_idle_w: 40.0,
            cpu_load_w: 140.0,
            memory_mib: 4096,
            ecc: true,
            psu_rated_w: 650.0,
            psu_efficiency: 0.82,
            defective_series: false,
        }
    }
}

/// Run state of a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerState {
    /// Executing the workload.
    Running,
    /// Hung: powered but not executing (a "transient system failure" —
    /// needs a reset).
    Hung,
    /// Powered off / removed.
    Off,
}
