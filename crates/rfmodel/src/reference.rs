//! The paper's published hardware evaluation (Table 5) as a calibration and
//! validation dataset.
//!
//! The paper produced these figures with CACTI 3.0 adapted to register files
//! at 0.10 µm. They are reproduced here so that (a) the performance
//! experiments can use exactly the hardware parameters the paper used, and
//! (b) the analytical model of [`crate::model`] can be validated against
//! them (`table2_rf_model` / `table5_hardware` benches print both).

/// One row of the paper's Table 5.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperHardwareRow {
    /// Configuration in `xCy-Sz` notation (e.g. `"4C16S16"`).
    pub config: &'static str,
    /// LoadR ports per cluster bank (`lp`), 0 for non-hierarchical configs.
    pub lp: u32,
    /// StoreR ports per cluster bank (`sp`), 0 for non-hierarchical configs.
    pub sp: u32,
    /// Access time of one cluster (first level) bank in ns
    /// (`None` for monolithic configurations, which only have a shared bank).
    pub access_cluster_ns: Option<f64>,
    /// Access time of the shared bank in ns (`None` when there is none).
    pub access_shared_ns: Option<f64>,
    /// Area of one cluster bank in Mλ² (`None` for monolithic configs).
    pub area_cluster: Option<f64>,
    /// Area of the shared bank in Mλ² (`None` when there is none).
    pub area_shared: Option<f64>,
    /// Total register file area in Mλ² (all banks).
    pub area_total: f64,
    /// Logic depth in FO4 needed to access the critical bank in one cycle.
    pub logic_depth_fo4: u32,
    /// Clock cycle in ns.
    pub clock_ns: f64,
    /// Memory hit latency in cycles for this configuration.
    pub mem_latency: u32,
    /// FU (add/mul) latency in cycles for this configuration.
    pub fu_latency: u32,
}

impl PaperHardwareRow {
    /// Access time of the bank that determines the cycle time (the first
    /// level bank when present, the shared bank otherwise).
    pub fn critical_access_ns(&self) -> f64 {
        self.access_cluster_ns
            .or(self.access_shared_ns)
            .expect("row must have at least one bank")
    }
}

/// The 15 configurations of the paper's Table 5.
pub fn paper_table5() -> Vec<PaperHardwareRow> {
    vec![
        PaperHardwareRow {
            config: "S128",
            lp: 0,
            sp: 0,
            access_cluster_ns: None,
            access_shared_ns: Some(1.145),
            area_cluster: None,
            area_shared: Some(14.91),
            area_total: 14.91,
            logic_depth_fo4: 31,
            clock_ns: 1.181,
            mem_latency: 2,
            fu_latency: 4,
        },
        PaperHardwareRow {
            config: "S64",
            lp: 0,
            sp: 0,
            access_cluster_ns: None,
            access_shared_ns: Some(1.021),
            area_cluster: None,
            area_shared: Some(12.20),
            area_total: 12.20,
            logic_depth_fo4: 27,
            clock_ns: 1.037,
            mem_latency: 3,
            fu_latency: 4,
        },
        PaperHardwareRow {
            config: "S32",
            lp: 0,
            sp: 0,
            access_cluster_ns: None,
            access_shared_ns: Some(0.685),
            area_cluster: None,
            area_shared: Some(7.50),
            area_total: 7.50,
            logic_depth_fo4: 18,
            clock_ns: 0.713,
            mem_latency: 3,
            fu_latency: 4,
        },
        PaperHardwareRow {
            config: "1C64S32",
            lp: 3,
            sp: 2,
            access_cluster_ns: Some(0.943),
            access_shared_ns: Some(0.485),
            area_cluster: Some(10.07),
            area_shared: Some(1.31),
            area_total: 11.37,
            logic_depth_fo4: 25,
            clock_ns: 0.965,
            mem_latency: 3,
            fu_latency: 4,
        },
        PaperHardwareRow {
            config: "1C32S64",
            lp: 4,
            sp: 2,
            access_cluster_ns: Some(0.666),
            access_shared_ns: Some(0.493),
            area_cluster: Some(6.61),
            area_shared: Some(1.50),
            area_total: 8.12,
            logic_depth_fo4: 17,
            clock_ns: 0.677,
            mem_latency: 3,
            fu_latency: 4,
        },
        PaperHardwareRow {
            config: "2C64",
            lp: 1,
            sp: 1,
            access_cluster_ns: Some(0.686),
            access_shared_ns: None,
            area_cluster: Some(3.99),
            area_shared: None,
            area_total: 7.98,
            logic_depth_fo4: 18,
            clock_ns: 0.713,
            mem_latency: 3,
            fu_latency: 4,
        },
        PaperHardwareRow {
            config: "2C32",
            lp: 1,
            sp: 1,
            access_cluster_ns: Some(0.532),
            access_shared_ns: None,
            area_cluster: Some(2.44),
            area_shared: None,
            area_total: 4.88,
            logic_depth_fo4: 13,
            clock_ns: 0.533,
            mem_latency: 4,
            fu_latency: 6,
        },
        PaperHardwareRow {
            config: "2C64S32",
            lp: 2,
            sp: 1,
            access_cluster_ns: Some(0.626),
            access_shared_ns: Some(0.493),
            area_cluster: Some(2.81),
            area_shared: Some(1.50),
            area_total: 7.12,
            logic_depth_fo4: 16,
            clock_ns: 0.641,
            mem_latency: 3,
            fu_latency: 5,
        },
        PaperHardwareRow {
            config: "2C32S32",
            lp: 3,
            sp: 1,
            access_cluster_ns: Some(0.515),
            access_shared_ns: Some(0.510),
            area_cluster: Some(1.95),
            area_shared: Some(1.94),
            area_total: 5.83,
            logic_depth_fo4: 13,
            clock_ns: 0.533,
            mem_latency: 4,
            fu_latency: 6,
        },
        PaperHardwareRow {
            config: "4C64",
            lp: 1,
            sp: 1,
            access_cluster_ns: Some(0.531),
            access_shared_ns: None,
            area_cluster: Some(1.30),
            area_shared: None,
            area_total: 5.21,
            logic_depth_fo4: 13,
            clock_ns: 0.533,
            mem_latency: 4,
            fu_latency: 6,
        },
        PaperHardwareRow {
            config: "4C32",
            lp: 1,
            sp: 1,
            access_cluster_ns: Some(0.475),
            access_shared_ns: None,
            area_cluster: Some(1.07),
            area_shared: None,
            area_total: 4.29,
            logic_depth_fo4: 12,
            clock_ns: 0.497,
            mem_latency: 4,
            fu_latency: 6,
        },
        PaperHardwareRow {
            config: "4C32S16",
            lp: 1,
            sp: 1,
            access_cluster_ns: Some(0.442),
            access_shared_ns: Some(0.456),
            area_cluster: Some(0.70),
            area_shared: Some(1.57),
            area_total: 4.38,
            logic_depth_fo4: 11,
            clock_ns: 0.461,
            mem_latency: 4,
            fu_latency: 7,
        },
        PaperHardwareRow {
            config: "4C16S16",
            lp: 2,
            sp: 1,
            access_cluster_ns: Some(0.393),
            access_shared_ns: Some(0.483),
            area_cluster: Some(0.52),
            area_shared: Some(2.42),
            area_total: 4.49,
            logic_depth_fo4: 10,
            clock_ns: 0.425,
            mem_latency: 4,
            fu_latency: 7,
        },
        PaperHardwareRow {
            config: "8C32S16",
            lp: 1,
            sp: 1,
            access_cluster_ns: Some(0.400),
            access_shared_ns: Some(0.532),
            area_cluster: Some(0.30),
            area_shared: Some(3.45),
            area_total: 5.84,
            logic_depth_fo4: 10,
            clock_ns: 0.425,
            mem_latency: 4,
            fu_latency: 7,
        },
        PaperHardwareRow {
            config: "8C16S16",
            lp: 1,
            sp: 1,
            access_cluster_ns: Some(0.360),
            access_shared_ns: Some(0.532),
            area_cluster: Some(0.17),
            area_shared: Some(3.45),
            area_total: 4.82,
            logic_depth_fo4: 9,
            clock_ns: 0.389,
            mem_latency: 5,
            fu_latency: 8,
        },
    ]
}

/// Look up a published row by configuration name.
pub fn lookup(config: &str) -> Option<PaperHardwareRow> {
    paper_table5().into_iter().find(|r| r.config == config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifteen_rows_match_the_paper() {
        assert_eq!(paper_table5().len(), 15);
    }

    #[test]
    fn lookup_by_name() {
        let row = lookup("4C16S16").unwrap();
        assert_eq!(row.lp, 2);
        assert_eq!(row.clock_ns, 0.425);
        assert!(lookup("3C17S5").is_none());
    }

    #[test]
    fn total_area_is_consistent_with_banks() {
        // total = clusters * cluster_area + shared_area within rounding
        for row in paper_table5() {
            let clusters: f64 = row
                .config
                .split('C')
                .next()
                .and_then(|s| s.parse().ok())
                .unwrap_or(1.0);
            let c = row.area_cluster.unwrap_or(0.0) * clusters.max(1.0);
            let s = row.area_shared.unwrap_or(0.0);
            assert!(
                (c + s - row.area_total).abs() < 0.15,
                "{}: {} + {} != {}",
                row.config,
                c,
                s,
                row.area_total
            );
        }
    }

    #[test]
    fn clock_never_faster_than_critical_access() {
        for row in paper_table5() {
            assert!(
                row.clock_ns + 1e-9 >= row.critical_access_ns() * 0.95,
                "{}: clock {} vs access {}",
                row.config,
                row.clock_ns,
                row.critical_access_ns()
            );
        }
    }

    #[test]
    fn deeper_clustering_gives_faster_clock() {
        let s128 = lookup("S128").unwrap().clock_ns;
        let c4 = lookup("4C32").unwrap().clock_ns;
        let c8 = lookup("8C16S16").unwrap().clock_ns;
        assert!(c4 < s128);
        assert!(c8 < c4);
    }
}
