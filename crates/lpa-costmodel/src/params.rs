//! Hardware parameters of the cost model.

/// Cluster characteristics the network-centric cost model charges against.
///
/// The defaults correspond to the paper's standard deployment: 4 nodes on a
/// 10 Gbps interconnect. Experiment 5 varies `net_bandwidth` (0.6 Gbps for
/// the slow network) and `scan_bandwidth`/`cpu_tuple_cost` (slower compute).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CostParams {
    /// Number of database nodes (shards per partitioned table).
    pub nodes: usize,
    /// Per-link network bandwidth in bytes/second.
    pub net_bandwidth: f64,
    /// Per-node sequential scan bandwidth in bytes/second.
    pub scan_bandwidth: f64,
    /// Per-tuple join/aggregation CPU cost in seconds.
    pub cpu_tuple_cost: f64,
    /// Per-tuple cost of *shipping* a row between nodes (serialization,
    /// exchange operators). In real distributed engines this — not raw
    /// bandwidth — dominates shuffle cost, which is why co-located joins
    /// pay off so dramatically.
    pub ship_tuple_cost: f64,
    /// Fixed per-exchange-stage setup cost in seconds.
    pub shuffle_overhead: f64,
}

impl CostParams {
    /// 4 nodes, 10 Gbps network, memory-speed scans.
    ///
    /// The scan/network ratio matters for the Exp-5 crossover: with 2–5 %
    /// dimension selectivity, broadcasting the filtered dimension beats
    /// replicating it iff `selectivity < net_bandwidth / scan_bandwidth`,
    /// so memory-speed scans put the paper's 0.6 Gbps deployment on the
    /// "replicate" side and the 10 Gbps one on the "partition" side.
    pub fn standard() -> Self {
        Self {
            nodes: 4,
            net_bandwidth: 1.25e9,
            scan_bandwidth: 4.0e9,
            cpu_tuple_cost: 2.0e-8,
            ship_tuple_cost: 2.0e-7,
            shuffle_overhead: 5.0e-4,
        }
    }

    /// Same compute, 0.6 Gbps interconnect (Amazon-Redshift-basic-like,
    /// Section 7.6).
    pub fn slow_network() -> Self {
        Self {
            net_bandwidth: 0.075e9,
            ..Self::standard()
        }
    }

    /// Slower compute nodes (Fig. 8b): scan and CPU roughly 3x slower.
    pub fn slow_compute() -> Self {
        Self {
            scan_bandwidth: 0.7e9,
            cpu_tuple_cost: 6.0e-8,
            ..Self::standard()
        }
    }

    /// Slower compute nodes on the slow interconnect.
    pub fn slow_compute_slow_network() -> Self {
        Self {
            net_bandwidth: 0.075e9,
            ..Self::slow_compute()
        }
    }

    /// Override the node count.
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        assert!(nodes >= 2, "a distributed cluster needs at least 2 nodes");
        self.nodes = nodes;
        self
    }
}

impl Default for CostParams {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_sensibly() {
        let std = CostParams::standard();
        let slow_net = CostParams::slow_network();
        let slow_cpu = CostParams::slow_compute();
        assert!(slow_net.net_bandwidth < std.net_bandwidth);
        assert_eq!(slow_net.scan_bandwidth, std.scan_bandwidth);
        assert!(slow_cpu.scan_bandwidth < std.scan_bandwidth);
        assert!(slow_cpu.cpu_tuple_cost > std.cpu_tuple_cost);
    }

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn single_node_rejected() {
        let _ = CostParams::standard().with_nodes(1);
    }
}
