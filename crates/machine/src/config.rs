//! Complete machine configurations.

use crate::ports::PortCounts;
use crate::rf::{Capacity, RfOrganization};
use hcrf_ir::{OpLatencies, ResourceCounts};

/// Identifier of a first-level cluster (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterId(pub u32);

impl ClusterId {
    /// Index usable for slice addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A complete VLIW core configuration: computational resources, operation
/// latencies and the register-file organization (with its inter-level port
/// counts and movement-operation latencies).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of general-purpose floating point units.
    pub fu_count: u32,
    /// Number of memory (load/store) ports.
    pub mem_ports: u32,
    /// Operation latencies in cycles for this configuration.
    pub latencies: OpLatencies,
    /// Register file organization.
    pub rf: RfOrganization,
    /// LoadR ports per cluster bank (reads from the shared bank), or bus
    /// receive ports for a purely clustered organization.
    pub lp: u32,
    /// StoreR ports per cluster bank (writes into the shared bank), or bus
    /// send ports for a purely clustered organization.
    pub sp: u32,
    /// Number of inter-cluster buses for the purely clustered organization
    /// (ignored by hierarchical organizations).
    pub buses: u32,
    /// Maximum number of scheduling attempts per node before the scheduler
    /// gives up on the current II (the paper's *Budget Ratio*).
    pub budget_ratio: u32,
}

impl MachineConfig {
    /// The paper's baseline processor (Section 2.2): 8 general-purpose FP
    /// units, 4 memory ports, 4-cycle add/mul, 17-cycle div, 30-cycle sqrt,
    /// 2-cycle load hit / 1-cycle store, with the requested RF organization
    /// and the default `lp`/`sp` port counts of Section 4.
    pub fn paper_baseline(rf: RfOrganization) -> Self {
        MachineConfig {
            fu_count: 8,
            mem_ports: 4,
            latencies: OpLatencies::paper_baseline(),
            lp: rf.default_lp(),
            sp: rf.default_sp(),
            buses: if rf.is_clustered() && !rf.is_hierarchical() {
                rf.clusters()
            } else {
                0
            },
            budget_ratio: 6,
            rf,
        }
    }

    /// A scaled machine with `fus` functional units and `mem_ports` memory
    /// ports and a monolithic unbounded register file — used for the IPC vs.
    /// resources study of Figure 1.
    pub fn with_resources(fus: u32, mem_ports: u32) -> Self {
        let mut m = Self::paper_baseline(RfOrganization::Monolithic {
            regs: Capacity::Unbounded,
        });
        m.fu_count = fus;
        m.mem_ports = mem_ports;
        m
    }

    /// Override the inter-level (or inter-cluster) port counts.
    pub fn with_ports(mut self, lp: u32, sp: u32) -> Self {
        self.lp = lp;
        self.sp = sp;
        self
    }

    /// Override the operation latencies (used when the hardware model derives
    /// per-configuration latencies from the clock cycle).
    pub fn with_latencies(mut self, latencies: OpLatencies) -> Self {
        self.latencies = latencies;
        self
    }

    /// Treat inter-level bandwidth as unbounded (static studies of Table 3
    /// and Figure 4).
    pub fn with_unbounded_bandwidth(mut self) -> Self {
        self.lp = u32::MAX;
        self.sp = u32::MAX;
        self.buses = if self.rf.is_clustered() && !self.rf.is_hierarchical() {
            u32::MAX
        } else {
            0
        };
        self
    }

    /// Whether inter-level / inter-cluster bandwidth is modelled as unbounded.
    pub fn unbounded_bandwidth(&self) -> bool {
        self.lp == u32::MAX
    }

    /// Number of clusters of the register file.
    pub fn clusters(&self) -> u32 {
        self.rf.clusters()
    }

    /// Functional units available in each cluster.
    ///
    /// # Panics
    /// Panics if the FUs cannot be evenly distributed among the clusters.
    pub fn fus_per_cluster(&self) -> u32 {
        let c = self.clusters();
        assert!(
            self.fu_count.is_multiple_of(c),
            "{} FUs cannot be evenly distributed among {} clusters",
            self.fu_count,
            c
        );
        self.fu_count / c
    }

    /// Memory ports attached to each cluster.
    ///
    /// In a hierarchical organization the memory ports talk only to the
    /// shared bank, so this is 0; otherwise they are evenly distributed.
    pub fn mem_ports_per_cluster(&self) -> u32 {
        if self.rf.is_hierarchical() {
            0
        } else {
            let c = self.clusters();
            assert!(
                self.mem_ports.is_multiple_of(c),
                "{} memory ports cannot be evenly distributed among {} clusters",
                self.mem_ports,
                c
            );
            self.mem_ports / c
        }
    }

    /// Whether this configuration is realizable: a purely clustered
    /// organization cannot have more clusters than memory ports (the paper
    /// does not consider clusters without memory access), and FUs must
    /// distribute evenly.
    pub fn is_realizable(&self) -> bool {
        let c = self.clusters();
        if !self.fu_count.is_multiple_of(c) {
            return false;
        }
        match self.rf {
            RfOrganization::Clustered { .. } => {
                self.mem_ports >= c && self.mem_ports.is_multiple_of(c)
            }
            _ => true,
        }
    }

    /// Registers available in each cluster bank.
    pub fn cluster_regs(&self) -> u32 {
        self.rf.cluster_capacity().limit()
    }

    /// Registers available in the shared bank (`None` if the organization
    /// has no second level).
    pub fn shared_regs(&self) -> Option<u32> {
        self.rf.shared_capacity().map(Capacity::limit)
    }

    /// Resource counts used for the MII bounds.
    pub fn resource_counts(&self) -> ResourceCounts {
        ResourceCounts {
            fus: self.fu_count,
            fus_per_cluster: self.fu_count / self.clusters(),
            mem_ports: self.mem_ports,
            buses: 0,
        }
    }

    /// Read/write port counts of every bank in the organization, for the
    /// hardware timing/area model.
    pub fn port_counts(&self) -> PortCounts {
        crate::ports::port_counts(self)
    }

    /// Short configuration label (`"8+4 4C16S64"`).
    pub fn label(&self) -> String {
        format!("{}+{} {}", self.fu_count, self.mem_ports, self.rf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper() {
        let m = MachineConfig::paper_baseline(RfOrganization::monolithic(128));
        assert_eq!(m.fu_count, 8);
        assert_eq!(m.mem_ports, 4);
        assert_eq!(m.latencies.fadd, 4);
        assert_eq!(m.clusters(), 1);
        assert_eq!(m.fus_per_cluster(), 8);
        assert_eq!(m.mem_ports_per_cluster(), 4);
        assert!(m.is_realizable());
    }

    #[test]
    fn clustered_distribution() {
        let m = MachineConfig::paper_baseline(RfOrganization::clustered(4, 32));
        assert_eq!(m.fus_per_cluster(), 2);
        assert_eq!(m.mem_ports_per_cluster(), 1);
        assert!(m.is_realizable());
    }

    #[test]
    fn hierarchical_decouples_memory_ports() {
        let m = MachineConfig::paper_baseline(RfOrganization::hierarchical(8, 16, 16));
        assert_eq!(m.fus_per_cluster(), 1);
        assert_eq!(m.mem_ports_per_cluster(), 0);
        assert!(m.is_realizable());
    }

    #[test]
    fn eight_way_clustering_not_realizable_without_hierarchy() {
        // 8 clusters with only 4 memory ports: the paper's motivating example
        // for why the hierarchy allows higher clustering degrees.
        let m = MachineConfig::paper_baseline(RfOrganization::clustered(8, 16));
        assert!(!m.is_realizable());
        let h = MachineConfig::paper_baseline(RfOrganization::hierarchical(8, 16, 16));
        assert!(h.is_realizable());
    }

    #[test]
    fn default_port_counts_follow_section4() {
        let m = MachineConfig::paper_baseline(RfOrganization::hierarchical(4, 16, 64));
        assert_eq!((m.lp, m.sp), (2, 1));
        let m1 = MachineConfig::paper_baseline(RfOrganization::hierarchical(1, 32, 64));
        assert_eq!((m1.lp, m1.sp), (4, 2));
    }

    #[test]
    fn unbounded_bandwidth_marker() {
        let m = MachineConfig::paper_baseline(RfOrganization::hierarchical(4, 16, 64))
            .with_unbounded_bandwidth();
        assert!(m.unbounded_bandwidth());
    }

    #[test]
    fn label_format() {
        let m = MachineConfig::paper_baseline(RfOrganization::hierarchical(4, 16, 64));
        assert_eq!(m.label(), "8+4 4C16S64");
    }

    #[test]
    fn with_resources_scales() {
        let m = MachineConfig::with_resources(12, 6);
        assert_eq!(m.fu_count, 12);
        assert_eq!(m.mem_ports, 6);
        assert_eq!(m.resource_counts().fus, 12);
    }
}
