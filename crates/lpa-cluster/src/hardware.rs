//! Deployment hardware profiles (Experiment 5 varies these).

/// Hardware characteristics of one cluster deployment.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct HardwareProfile {
    /// Number of database nodes.
    pub nodes: usize,
    /// Per-link network bandwidth, bytes/second.
    pub net_bandwidth: f64,
    /// Per-node memory scan bandwidth, bytes/second.
    pub mem_scan_bandwidth: f64,
    /// Per-node disk scan bandwidth, bytes/second (disk-based engines).
    pub disk_scan_bandwidth: f64,
    /// Per-tuple CPU cost for join/aggregation work, seconds.
    pub cpu_tuple_cost: f64,
}

impl HardwareProfile {
    /// The paper's CloudLab nodes: Xeon Silver, 10 Gbps interconnect.
    pub fn standard() -> Self {
        Self {
            nodes: 4,
            net_bandwidth: 1.25e9,
            mem_scan_bandwidth: 4.0e9,
            disk_scan_bandwidth: 0.5e9,
            cpu_tuple_cost: 2.0e-8,
        }
    }

    /// Standard compute on a 0.6 Gbps interconnect (basic Redshift-like).
    pub fn slow_network() -> Self {
        Self {
            net_bandwidth: 0.075e9,
            ..Self::standard()
        }
    }

    /// The less powerful AMD nodes of Fig. 8b: slower scans and CPU.
    pub fn slow_compute() -> Self {
        Self {
            mem_scan_bandwidth: 2.0e9,
            disk_scan_bandwidth: 0.35e9,
            cpu_tuple_cost: 6.0e-8,
            ..Self::standard()
        }
    }

    /// Slower compute on the 0.6 Gbps interconnect.
    pub fn slow_compute_slow_network() -> Self {
        Self {
            net_bandwidth: 0.075e9,
            ..Self::slow_compute()
        }
    }

    pub fn with_nodes(mut self, nodes: usize) -> Self {
        assert!(nodes >= 2, "a distributed cluster needs at least 2 nodes");
        self.nodes = nodes;
        self
    }

    /// Aggregate cluster network bandwidth.
    pub fn aggregate_net(&self) -> f64 {
        self.net_bandwidth * self.nodes as f64
    }
}

impl Default for HardwareProfile {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_ordered() {
        let std = HardwareProfile::standard();
        assert!(HardwareProfile::slow_network().net_bandwidth < std.net_bandwidth);
        assert!(HardwareProfile::slow_compute().cpu_tuple_cost > std.cpu_tuple_cost);
        assert!(std.disk_scan_bandwidth < std.mem_scan_bandwidth);
        assert_eq!(std.with_nodes(6).nodes, 6);
    }
}
