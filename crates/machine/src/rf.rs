//! Register file organizations and the `xCy-Sz` notation.

use std::fmt;
use std::str::FromStr;

/// Capacity of a register bank: a concrete number of registers or unbounded
/// (used in the paper's static studies, Table 3 and Figure 4, where banks are
/// assumed infinite to isolate the scheduler behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Capacity {
    /// A bank with exactly this many registers.
    Bounded(u32),
    /// An unbounded bank (`∞` in the paper's notation).
    Unbounded,
}

impl Capacity {
    /// The concrete register count, or `u32::MAX` when unbounded.
    pub fn limit(self) -> u32 {
        match self {
            Capacity::Bounded(n) => n,
            Capacity::Unbounded => u32::MAX,
        }
    }

    /// Whether the bank is bounded.
    pub fn is_bounded(self) -> bool {
        matches!(self, Capacity::Bounded(_))
    }
}

impl fmt::Display for Capacity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Capacity::Bounded(n) => write!(f, "{n}"),
            Capacity::Unbounded => write!(f, "inf"),
        }
    }
}

/// A register-file organization in the paper's `xCy-Sz` design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RfOrganization {
    /// Monolithic (centralized) register file: `Sz`.
    Monolithic {
        /// Number of registers in the single shared bank.
        regs: Capacity,
    },
    /// Clustered register file without a shared bank: `xCy`.
    ///
    /// FUs *and* memory ports are evenly distributed among the clusters and
    /// inter-cluster communication uses buses (`Move` operations).
    Clustered {
        /// Number of clusters.
        clusters: u32,
        /// Registers per cluster bank.
        regs_per_cluster: Capacity,
    },
    /// Hierarchical (possibly clustered) register file: `xCySz`.
    ///
    /// FUs are split into `x` clusters with local banks; all memory ports
    /// access only the shared second-level bank; values move between the
    /// levels with LoadR/StoreR through `lp` read and `sp` write ports per
    /// cluster.
    Hierarchical {
        /// Number of first-level clusters (1 = the non-clustered hierarchy
        /// of the authors' earlier MICRO-33 work).
        clusters: u32,
        /// Registers per cluster bank.
        cluster_regs: Capacity,
        /// Registers in the shared second-level bank.
        shared_regs: Capacity,
    },
}

impl RfOrganization {
    /// Monolithic organization with `regs` registers.
    pub fn monolithic(regs: u32) -> Self {
        RfOrganization::Monolithic {
            regs: Capacity::Bounded(regs),
        }
    }

    /// Clustered organization `clusters`C`regs`.
    pub fn clustered(clusters: u32, regs: u32) -> Self {
        RfOrganization::Clustered {
            clusters,
            regs_per_cluster: Capacity::Bounded(regs),
        }
    }

    /// Hierarchical-clustered organization `clusters`C`cluster_regs`S`shared`.
    pub fn hierarchical(clusters: u32, cluster_regs: u32, shared: u32) -> Self {
        RfOrganization::Hierarchical {
            clusters,
            cluster_regs: Capacity::Bounded(cluster_regs),
            shared_regs: Capacity::Bounded(shared),
        }
    }

    /// Number of first-level clusters (1 for a monolithic organization).
    pub fn clusters(&self) -> u32 {
        match *self {
            RfOrganization::Monolithic { .. } => 1,
            RfOrganization::Clustered { clusters, .. } => clusters,
            RfOrganization::Hierarchical { clusters, .. } => clusters,
        }
    }

    /// Registers available in each first-level bank (the bank FUs read from).
    pub fn cluster_capacity(&self) -> Capacity {
        match *self {
            RfOrganization::Monolithic { regs } => regs,
            RfOrganization::Clustered {
                regs_per_cluster, ..
            } => regs_per_cluster,
            RfOrganization::Hierarchical { cluster_regs, .. } => cluster_regs,
        }
    }

    /// Registers in the shared second-level bank, if the organization has one.
    pub fn shared_capacity(&self) -> Option<Capacity> {
        match *self {
            RfOrganization::Hierarchical { shared_regs, .. } => Some(shared_regs),
            _ => None,
        }
    }

    /// Whether the organization has a second (shared) register file level.
    pub fn is_hierarchical(&self) -> bool {
        matches!(self, RfOrganization::Hierarchical { .. })
    }

    /// Whether inter-cluster communication is needed at all
    /// (more than one cluster).
    pub fn is_clustered(&self) -> bool {
        self.clusters() > 1
    }

    /// Total register storage capacity across all banks
    /// (`None` when any bank is unbounded).
    pub fn total_registers(&self) -> Option<u32> {
        match *self {
            RfOrganization::Monolithic { regs } => match regs {
                Capacity::Bounded(n) => Some(n),
                Capacity::Unbounded => None,
            },
            RfOrganization::Clustered {
                clusters,
                regs_per_cluster,
            } => match regs_per_cluster {
                Capacity::Bounded(n) => Some(n * clusters),
                Capacity::Unbounded => None,
            },
            RfOrganization::Hierarchical {
                clusters,
                cluster_regs,
                shared_regs,
            } => match (cluster_regs, shared_regs) {
                (Capacity::Bounded(c), Capacity::Bounded(s)) => Some(c * clusters + s),
                _ => None,
            },
        }
    }

    /// Default number of LoadR read ports (`lp`) between the shared bank and
    /// each cluster bank, per the design decision of Section 4 (at least 95 %
    /// of loops must be satisfiable): 1 cluster → 4, 2 → 3, 4 → 2, 8 → 1.
    ///
    /// For non-hierarchical organizations this is the number of bus receive
    /// ports per bank (the paper uses 1).
    pub fn default_lp(&self) -> u32 {
        match self {
            RfOrganization::Hierarchical { clusters, .. } => match clusters {
                0 | 1 => 4,
                2 => 3,
                3 | 4 => 2,
                _ => 1,
            },
            _ => 1,
        }
    }

    /// Default number of StoreR write ports (`sp`) between each cluster bank
    /// and the shared bank (Section 4): 1 cluster → 2, otherwise 1.
    pub fn default_sp(&self) -> u32 {
        match self {
            RfOrganization::Hierarchical { clusters, .. } if *clusters <= 1 => 2,
            _ => 1,
        }
    }

    /// Parse the paper's notation: `"S128"`, `"4C32"`, `"1C64S64"`,
    /// `"2CinfSinf"` (`inf`, `Inf` or `∞` accepted for unbounded banks).
    pub fn parse(s: &str) -> Result<Self, RfParseError> {
        s.parse()
    }
}

/// Error produced when parsing an `xCy-Sz` configuration string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RfParseError {
    /// The offending input.
    pub input: String,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for RfParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid RF configuration '{}': {}",
            self.input, self.reason
        )
    }
}

impl std::error::Error for RfParseError {}

fn parse_capacity(s: &str, input: &str) -> Result<Capacity, RfParseError> {
    let norm = s.trim();
    if norm.is_empty() {
        return Err(RfParseError {
            input: input.to_string(),
            reason: "missing register count".to_string(),
        });
    }
    if norm.eq_ignore_ascii_case("inf") || norm == "∞" {
        return Ok(Capacity::Unbounded);
    }
    norm.parse::<u32>()
        .map(Capacity::Bounded)
        .map_err(|_| RfParseError {
            input: input.to_string(),
            reason: format!("'{norm}' is not a register count"),
        })
}

impl FromStr for RfOrganization {
    type Err = RfParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.trim().replace('-', "");
        let err = |reason: &str| RfParseError {
            input: s.to_string(),
            reason: reason.to_string(),
        };
        if trimmed.is_empty() {
            return Err(err("empty configuration"));
        }
        // Monolithic: S<z>
        if let Some(rest) = trimmed.strip_prefix(['S', 's']) {
            let regs = parse_capacity(rest, s)?;
            return Ok(RfOrganization::Monolithic { regs });
        }
        // Clustered / hierarchical: <x>C<y>[S<z>]
        let c_pos = trimmed
            .find(['C', 'c'])
            .ok_or_else(|| err("expected 'S<z>' or '<x>C<y>[S<z>]'"))?;
        let clusters: u32 = trimmed[..c_pos]
            .parse()
            .map_err(|_| err("invalid cluster count"))?;
        if clusters == 0 {
            return Err(err("cluster count must be at least 1"));
        }
        let rest = &trimmed[c_pos + 1..];
        if let Some(s_pos) = rest.find(['S', 's']) {
            let cluster_regs = parse_capacity(&rest[..s_pos], s)?;
            let shared = parse_capacity(&rest[s_pos + 1..], s)?;
            Ok(RfOrganization::Hierarchical {
                clusters,
                cluster_regs,
                shared_regs: shared,
            })
        } else {
            let regs = parse_capacity(rest, s)?;
            Ok(RfOrganization::Clustered {
                clusters,
                regs_per_cluster: regs,
            })
        }
    }
}

impl fmt::Display for RfOrganization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RfOrganization::Monolithic { regs } => write!(f, "S{regs}"),
            RfOrganization::Clustered {
                clusters,
                regs_per_cluster,
            } => write!(f, "{clusters}C{regs_per_cluster}"),
            RfOrganization::Hierarchical {
                clusters,
                cluster_regs,
                shared_regs,
            } => write!(f, "{clusters}C{cluster_regs}S{shared_regs}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_monolithic() {
        assert_eq!(
            RfOrganization::parse("S128").unwrap(),
            RfOrganization::monolithic(128)
        );
        assert_eq!(
            RfOrganization::parse("s64").unwrap(),
            RfOrganization::monolithic(64)
        );
    }

    #[test]
    fn parse_clustered() {
        assert_eq!(
            RfOrganization::parse("4C32").unwrap(),
            RfOrganization::clustered(4, 32)
        );
        assert_eq!(
            RfOrganization::parse("2C64").unwrap(),
            RfOrganization::clustered(2, 64)
        );
    }

    #[test]
    fn parse_hierarchical() {
        assert_eq!(
            RfOrganization::parse("1C64S64").unwrap(),
            RfOrganization::hierarchical(1, 64, 64)
        );
        assert_eq!(
            RfOrganization::parse("8C16S16").unwrap(),
            RfOrganization::hierarchical(8, 16, 16)
        );
        assert_eq!(
            RfOrganization::parse("4C16-S64").unwrap(),
            RfOrganization::hierarchical(4, 16, 64)
        );
    }

    #[test]
    fn parse_unbounded() {
        let c = RfOrganization::parse("2CinfSinf").unwrap();
        assert_eq!(
            c,
            RfOrganization::Hierarchical {
                clusters: 2,
                cluster_regs: Capacity::Unbounded,
                shared_regs: Capacity::Unbounded,
            }
        );
        let m = RfOrganization::parse("Sinf").unwrap();
        assert_eq!(
            m,
            RfOrganization::Monolithic {
                regs: Capacity::Unbounded
            }
        );
        let u = RfOrganization::parse("4C∞S∞").unwrap();
        assert!(u.is_hierarchical());
    }

    #[test]
    fn parse_errors() {
        assert!(RfOrganization::parse("").is_err());
        assert!(RfOrganization::parse("X128").is_err());
        assert!(RfOrganization::parse("0C32").is_err());
        assert!(RfOrganization::parse("4C").is_err());
        assert!(RfOrganization::parse("Sabc").is_err());
    }

    #[test]
    fn display_round_trip() {
        for s in [
            "S128", "S64", "4C32", "2C64", "1C64S64", "8C16S16", "4C16S64",
        ] {
            let parsed = RfOrganization::parse(s).unwrap();
            assert_eq!(parsed.to_string(), s);
            assert_eq!(RfOrganization::parse(&parsed.to_string()).unwrap(), parsed);
        }
    }

    #[test]
    fn total_registers() {
        assert_eq!(
            RfOrganization::parse("S128").unwrap().total_registers(),
            Some(128)
        );
        assert_eq!(
            RfOrganization::parse("4C32").unwrap().total_registers(),
            Some(128)
        );
        assert_eq!(
            RfOrganization::parse("1C64S64").unwrap().total_registers(),
            Some(128)
        );
        assert_eq!(
            RfOrganization::parse("Sinf").unwrap().total_registers(),
            None
        );
    }

    #[test]
    fn default_ports_match_paper_section4() {
        // Section 4: lp=4,sp=2 (1 cluster); lp=3,sp=1 (2); lp=2,sp=1 (4); lp=sp=1 (8)
        let c1 = RfOrganization::hierarchical(1, 32, 64);
        assert_eq!((c1.default_lp(), c1.default_sp()), (4, 2));
        let c2 = RfOrganization::hierarchical(2, 32, 32);
        assert_eq!((c2.default_lp(), c2.default_sp()), (3, 1));
        let c4 = RfOrganization::hierarchical(4, 16, 16);
        assert_eq!((c4.default_lp(), c4.default_sp()), (2, 1));
        let c8 = RfOrganization::hierarchical(8, 16, 16);
        assert_eq!((c8.default_lp(), c8.default_sp()), (1, 1));
    }

    #[test]
    fn classification_helpers() {
        let m = RfOrganization::monolithic(64);
        assert!(!m.is_clustered());
        assert!(!m.is_hierarchical());
        assert_eq!(m.clusters(), 1);
        let c = RfOrganization::clustered(4, 32);
        assert!(c.is_clustered());
        assert!(!c.is_hierarchical());
        let h = RfOrganization::hierarchical(8, 16, 16);
        assert!(h.is_clustered());
        assert!(h.is_hierarchical());
        let h1 = RfOrganization::hierarchical(1, 64, 64);
        assert!(!h1.is_clustered());
        assert!(h1.is_hierarchical());
    }
}
