//! Read/write port counts of every register bank in an organization.
//!
//! The conventions follow Section 3 of the paper: every functional unit needs
//! two read ports and one write port on the bank that feeds it, and every
//! memory port needs one read port (store data) and one write port (load
//! data) on the bank it is attached to. Hierarchical organizations add `lp`
//! write ports (LoadR results arriving from the shared bank) and `sp` read
//! ports (StoreR operands leaving towards the shared bank) to each cluster
//! bank, with the mirror-image ports on the shared bank. Purely clustered
//! organizations add one read and one write port per bus endpoint instead.
//!
//! With these rules the monolithic `S128` baseline gets 20 read and 12 write
//! ports, exactly the numbers quoted in Section 3.

use crate::config::MachineConfig;
use crate::rf::RfOrganization;

/// Read/write ports and capacity of one register bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankPorts {
    /// Number of 64-bit registers in the bank (`u32::MAX` when unbounded).
    pub registers: u32,
    /// Read ports.
    pub read_ports: u32,
    /// Write ports.
    pub write_ports: u32,
}

impl BankPorts {
    /// Total number of ports.
    pub fn total_ports(&self) -> u32 {
        self.read_ports + self.write_ports
    }
}

/// Port description of a complete register file organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortCounts {
    /// Ports of one first-level (cluster) bank. For a monolithic
    /// organization this *is* the single register file.
    pub cluster: BankPorts,
    /// Number of identical first-level banks.
    pub cluster_banks: u32,
    /// Ports of the shared second-level bank, if the organization has one.
    pub shared: Option<BankPorts>,
}

/// Compute the port counts for a machine configuration.
pub fn port_counts(m: &MachineConfig) -> PortCounts {
    let clusters = m.clusters();
    let lp = if m.lp == u32::MAX { 1 } else { m.lp };
    let sp = if m.sp == u32::MAX { 1 } else { m.sp };
    match m.rf {
        RfOrganization::Monolithic { regs } => PortCounts {
            cluster: BankPorts {
                registers: regs.limit(),
                read_ports: 2 * m.fu_count + m.mem_ports,
                write_ports: m.fu_count + m.mem_ports,
            },
            cluster_banks: 1,
            shared: None,
        },
        RfOrganization::Clustered {
            regs_per_cluster, ..
        } => {
            let fus = m.fu_count / clusters;
            let mems = m.mem_ports / clusters.min(m.mem_ports.max(1));
            PortCounts {
                cluster: BankPorts {
                    registers: regs_per_cluster.limit(),
                    // 2 reads per FU + store data read per memory port + bus send
                    read_ports: 2 * fus + mems + sp,
                    // 1 write per FU + load result per memory port + bus receive
                    write_ports: fus + mems + lp,
                },
                cluster_banks: clusters,
                shared: None,
            }
        }
        RfOrganization::Hierarchical {
            cluster_regs,
            shared_regs,
            ..
        } => {
            let fus = m.fu_count / clusters;
            PortCounts {
                cluster: BankPorts {
                    registers: cluster_regs.limit(),
                    // 2 reads per FU + StoreR operands leaving the bank
                    read_ports: 2 * fus + sp,
                    // 1 write per FU + LoadR results arriving from the shared bank
                    write_ports: fus + lp,
                },
                cluster_banks: clusters,
                shared: Some(BankPorts {
                    registers: shared_regs.limit(),
                    // store data towards memory + LoadR reads towards every cluster
                    read_ports: m.mem_ports + lp * clusters,
                    // load results from memory + StoreR writes from every cluster
                    write_ports: m.mem_ports + sp * clusters,
                }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rf::RfOrganization;

    #[test]
    fn monolithic_s128_matches_paper_port_counts() {
        // Section 3: "configuration S128 has 20 read ports (2 for each
        // functional unit and 1 for each memory port) and 12 write ports".
        let m = MachineConfig::paper_baseline(RfOrganization::monolithic(128));
        let p = m.port_counts();
        assert_eq!(p.cluster.read_ports, 20);
        assert_eq!(p.cluster.write_ports, 12);
        assert_eq!(p.cluster_banks, 1);
        assert!(p.shared.is_none());
    }

    #[test]
    fn clustered_4c32_ports() {
        let m = MachineConfig::paper_baseline(RfOrganization::clustered(4, 32));
        let p = m.port_counts();
        // 2 FUs, 1 memory port, 1 bus in / 1 bus out per cluster
        assert_eq!(p.cluster.read_ports, 2 * 2 + 1 + 1);
        assert_eq!(p.cluster.write_ports, 2 + 1 + 1);
        assert_eq!(p.cluster_banks, 4);
        assert_eq!(p.cluster.registers, 32);
    }

    #[test]
    fn hierarchical_4c16s64_ports() {
        let m = MachineConfig::paper_baseline(RfOrganization::hierarchical(4, 16, 64));
        let p = m.port_counts();
        // lp=2, sp=1 for 4 clusters
        assert_eq!(p.cluster.read_ports, 2 * 2 + 1);
        assert_eq!(p.cluster.write_ports, 2 + 2);
        let s = p.shared.unwrap();
        assert_eq!(s.read_ports, 4 + 2 * 4);
        assert_eq!(s.write_ports, 4 + 4);
        assert_eq!(s.registers, 64);
    }

    #[test]
    fn hierarchical_one_cluster_ports() {
        let m = MachineConfig::paper_baseline(RfOrganization::hierarchical(1, 64, 64));
        let p = m.port_counts();
        // 8 FUs in the single cluster, lp=4, sp=2
        assert_eq!(p.cluster.read_ports, 16 + 2);
        assert_eq!(p.cluster.write_ports, 8 + 4);
        let s = p.shared.unwrap();
        assert_eq!(s.read_ports, 4 + 4);
        assert_eq!(s.write_ports, 4 + 2);
    }

    #[test]
    fn fewer_ports_with_more_clusters() {
        let p4 = MachineConfig::paper_baseline(RfOrganization::hierarchical(4, 16, 16))
            .port_counts()
            .cluster
            .total_ports();
        let p8 = MachineConfig::paper_baseline(RfOrganization::hierarchical(8, 16, 16))
            .port_counts()
            .cluster
            .total_ports();
        let p1 = MachineConfig::paper_baseline(RfOrganization::monolithic(128))
            .port_counts()
            .cluster
            .total_ports();
        assert!(p8 < p4);
        assert!(p4 < p1);
    }

    #[test]
    fn unbounded_bandwidth_uses_single_port_for_hw_model() {
        let m = MachineConfig::paper_baseline(RfOrganization::hierarchical(4, 16, 64))
            .with_unbounded_bandwidth();
        let p = m.port_counts();
        // the hardware model never sees "infinite ports"
        assert!(p.cluster.write_ports < 100);
    }
}
