//! Cluster topology: nodes, devices and link characteristics.

use std::fmt;

use crate::Bandwidth;

/// Identifies a compute node (machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifies a compute device (GPU).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gpu{}", self.0)
    }
}

/// One compute device.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    /// Global device id.
    pub id: DeviceId,
    /// The node hosting this device.
    pub node: NodeId,
    /// Device memory in bytes (caps expert capacity, constraint (11)).
    pub mem_bytes: u64,
    /// Sustained training throughput in FLOP/s.
    pub flops: f64,
}

/// A cluster of nodes, each with identical devices, connected by fast
/// intra-node links and a slower inter-node network. Individual node
/// pairs may override the inter-node bandwidth (heterogeneous networks,
/// e.g. one rack-local peer and one remote peer).
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    devices: Vec<Device>,
    intra_bw: Bandwidth,
    inter_bw: Bandwidth,
    intra_latency_s: f64,
    inter_latency_s: f64,
    /// `(min(node_a, node_b), max(node_a, node_b)) -> bandwidth` overrides.
    link_overrides: Vec<((usize, usize), Bandwidth)>,
}

/// Builder for [`Topology`].
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    nodes: usize,
    devices_per_node: usize,
    intra_bw: Bandwidth,
    inter_bw: Bandwidth,
    intra_latency_s: f64,
    inter_latency_s: f64,
    mem_bytes: u64,
    flops: f64,
    link_overrides: Vec<((usize, usize), Bandwidth)>,
}

impl TopologyBuilder {
    /// Starts a builder for `nodes × devices_per_node` devices.
    ///
    /// # Panics
    /// Panics if either count is zero.
    pub fn new(nodes: usize, devices_per_node: usize) -> Self {
        assert!(nodes > 0 && devices_per_node > 0, "empty topology");
        TopologyBuilder {
            nodes,
            devices_per_node,
            intra_bw: Bandwidth::from_gbytes_per_sec(18.3),
            inter_bw: Bandwidth::from_gbytes_per_sec(1.17),
            intra_latency_s: 10e-6,
            inter_latency_s: 100e-6,
            mem_bytes: 32 * (1 << 30),
            flops: 1.0e14,
            link_overrides: Vec::new(),
        }
    }

    /// Sets intra-node (PCIe/NVLink) bandwidth.
    pub fn intra_bandwidth(&mut self, bw: Bandwidth) -> &mut Self {
        self.intra_bw = bw;
        self
    }

    /// Sets inter-node (network) bandwidth.
    pub fn inter_bandwidth(&mut self, bw: Bandwidth) -> &mut Self {
        self.inter_bw = bw;
        self
    }

    /// Sets one-way latencies (seconds) for intra- and inter-node links.
    pub fn latencies(&mut self, intra_s: f64, inter_s: f64) -> &mut Self {
        self.intra_latency_s = intra_s;
        self.inter_latency_s = inter_s;
        self
    }

    /// Sets per-device memory in bytes.
    pub fn device_memory(&mut self, bytes: u64) -> &mut Self {
        self.mem_bytes = bytes;
        self
    }

    /// Sets per-device sustained FLOP/s.
    pub fn device_flops(&mut self, flops: f64) -> &mut Self {
        self.flops = flops;
        self
    }

    /// Overrides the bandwidth of the link between two specific nodes
    /// (heterogeneous inter-node network).
    ///
    /// # Panics
    /// Panics if the nodes are equal or out of range.
    pub fn node_link(&mut self, a: usize, b: usize, bw: Bandwidth) -> &mut Self {
        assert!(a != b, "node link needs two distinct nodes");
        assert!(a < self.nodes && b < self.nodes, "node out of range");
        let key = (a.min(b), a.max(b));
        self.link_overrides.retain(|(k, _)| *k != key);
        self.link_overrides.push((key, bw));
        self
    }

    /// Builds the topology.
    pub fn build(&self) -> Topology {
        let mut devices = Vec::with_capacity(self.nodes * self.devices_per_node);
        for n in 0..self.nodes {
            for d in 0..self.devices_per_node {
                devices.push(Device {
                    id: DeviceId(n * self.devices_per_node + d),
                    node: NodeId(n),
                    mem_bytes: self.mem_bytes,
                    flops: self.flops,
                });
            }
        }
        Topology {
            devices,
            intra_bw: self.intra_bw,
            inter_bw: self.inter_bw,
            intra_latency_s: self.intra_latency_s,
            inter_latency_s: self.inter_latency_s,
            link_overrides: self.link_overrides.clone(),
        }
    }
}

impl Topology {
    /// The paper's testbed (§V-A): 3 nodes × 2 V100s (32 GB), 18.3 GB/s
    /// intra-node, 1.17 GB/s Ethernet inter-node.
    pub fn paper_testbed() -> Self {
        TopologyBuilder::new(3, 2).build()
    }

    /// Starts building a custom topology.
    pub fn builder(nodes: usize, devices_per_node: usize) -> TopologyBuilder {
        TopologyBuilder::new(nodes, devices_per_node)
    }

    /// All devices, ordered by id.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.devices
            .iter()
            .map(|d| d.node.0)
            .max()
            .map_or(0, |m| m + 1)
    }

    /// The device record for `id`.
    ///
    /// # Panics
    /// Panics if the id is unknown.
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id.0]
    }

    /// The node hosting `id`.
    pub fn node_of(&self, id: DeviceId) -> NodeId {
        self.device(id).node
    }

    /// Whether two devices share a node.
    pub fn same_node(&self, a: DeviceId, b: DeviceId) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Bandwidth of the link between two devices (intra-node bandwidth for
    /// a device to itself, where transfers are effectively free but keeping
    /// a finite number avoids division by zero in cost formulas).
    pub fn bandwidth(&self, a: DeviceId, b: DeviceId) -> Bandwidth {
        if self.same_node(a, b) {
            return self.intra_bw;
        }
        let (na, nb) = (self.node_of(a).0, self.node_of(b).0);
        let key = (na.min(nb), na.max(nb));
        self.link_overrides
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(self.inter_bw, |(_, bw)| *bw)
    }

    /// One-way latency between two devices, in seconds (zero for a device
    /// to itself).
    pub fn latency(&self, a: DeviceId, b: DeviceId) -> f64 {
        if a == b {
            0.0
        } else if self.same_node(a, b) {
            self.intra_latency_s
        } else {
            self.inter_latency_s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_shape() {
        let t = Topology::paper_testbed();
        assert_eq!(t.devices().len(), 6);
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.node_of(DeviceId(0)), NodeId(0));
        assert_eq!(t.node_of(DeviceId(5)), NodeId(2));
        assert!(t.same_node(DeviceId(2), DeviceId(3)));
        assert!(!t.same_node(DeviceId(1), DeviceId(2)));
    }

    #[test]
    fn paper_bandwidths() {
        let t = Topology::paper_testbed();
        let intra = t.bandwidth(DeviceId(0), DeviceId(1));
        let inter = t.bandwidth(DeviceId(0), DeviceId(2));
        assert!((intra.gbytes_per_sec() - 18.3).abs() < 1e-9);
        assert!((inter.gbytes_per_sec() - 1.17).abs() < 1e-9);
    }

    #[test]
    fn latency_structure() {
        let t = Topology::paper_testbed();
        assert_eq!(t.latency(DeviceId(0), DeviceId(0)), 0.0);
        assert!(t.latency(DeviceId(0), DeviceId(1)) < t.latency(DeviceId(0), DeviceId(2)));
    }

    #[test]
    fn builder_customization() {
        let t = Topology::builder(2, 4)
            .intra_bandwidth(Bandwidth::from_gbytes_per_sec(50.0))
            .inter_bandwidth(Bandwidth::from_gbytes_per_sec(5.0))
            .latencies(1e-6, 1e-4)
            .device_memory(16 << 30)
            .device_flops(1e13)
            .build();
        assert_eq!(t.devices().len(), 8);
        assert_eq!(t.device(DeviceId(0)).mem_bytes, 16 << 30);
        assert_eq!(t.device(DeviceId(0)).flops, 1e13);
        assert!((t.bandwidth(DeviceId(0), DeviceId(4)).gbytes_per_sec() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn heterogeneous_link_overrides() {
        let t = Topology::builder(3, 2)
            .node_link(0, 1, Bandwidth::from_gbytes_per_sec(10.0))
            .node_link(0, 2, Bandwidth::from_gbytes_per_sec(0.5))
            .build();
        // node0 (gpus 0,1) <-> node1 (gpus 2,3): overridden fast.
        assert!((t.bandwidth(DeviceId(0), DeviceId(2)).gbytes_per_sec() - 10.0).abs() < 1e-9);
        // node0 <-> node2 (gpus 4,5): overridden slow, symmetric.
        assert!((t.bandwidth(DeviceId(4), DeviceId(1)).gbytes_per_sec() - 0.5).abs() < 1e-9);
        // node1 <-> node2: untouched default.
        assert!((t.bandwidth(DeviceId(2), DeviceId(4)).gbytes_per_sec() - 1.17).abs() < 1e-9);
        // Intra-node unaffected.
        assert!((t.bandwidth(DeviceId(0), DeviceId(1)).gbytes_per_sec() - 18.3).abs() < 1e-9);
    }

    #[test]
    fn node_link_last_override_wins() {
        let t = Topology::builder(2, 1)
            .node_link(0, 1, Bandwidth::from_gbytes_per_sec(2.0))
            .node_link(1, 0, Bandwidth::from_gbytes_per_sec(4.0))
            .build();
        assert!((t.bandwidth(DeviceId(0), DeviceId(1)).gbytes_per_sec() - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "two distinct nodes")]
    fn self_link_panics() {
        Topology::builder(2, 1).node_link(1, 1, Bandwidth::from_gbytes_per_sec(1.0));
    }

    #[test]
    #[should_panic(expected = "empty topology")]
    fn empty_topology_panics() {
        Topology::builder(0, 2);
    }
}
