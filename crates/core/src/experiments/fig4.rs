//! Figure 4: cumulative distribution of the LoadR (`lp`) and StoreR (`sp`)
//! ports each loop needs per distributed bank, measured with unbounded
//! register banks and unbounded inter-level bandwidth.

use hcrf_ir::Loop;
use hcrf_sched::port_profile::{cumulative_distribution, port_requirements};

/// Clustering degrees evaluated by the figure.
pub const CLUSTER_DEGREES: [u32; 4] = [1, 2, 4, 8];

/// Distribution of port requirements for one clustering degree.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Series {
    /// Number of clusters.
    pub clusters: u32,
    /// `lp_cdf[k]` = percentage of loops needing at most `k` LoadR ports.
    pub lp_cdf: Vec<f64>,
    /// `sp_cdf[k]` = percentage of loops needing at most `k` StoreR ports.
    pub sp_cdf: Vec<f64>,
    /// Smallest `lp` satisfying at least 95 % of the loops
    /// (the design rule of Section 4).
    pub lp_95: u32,
    /// Smallest `sp` satisfying at least 95 % of the loops.
    pub sp_95: u32,
}

/// Run the Figure 4 experiment for every clustering degree.
pub fn run(suite: &[Loop]) -> Vec<Fig4Series> {
    CLUSTER_DEGREES.iter().map(|&c| series(suite, c)).collect()
}

/// Measure one clustering degree.
pub fn series(suite: &[Loop], clusters: u32) -> Fig4Series {
    let mut lp_req = Vec::with_capacity(suite.len());
    let mut sp_req = Vec::with_capacity(suite.len());
    for l in suite {
        let req = port_requirements(&l.ddg, clusters);
        lp_req.push(req.lp);
        sp_req.push(req.sp);
    }
    let max_ports = 6;
    let lp_cdf = cumulative_distribution(&lp_req, max_ports);
    let sp_cdf = cumulative_distribution(&sp_req, max_ports);
    let lp_95 = lp_cdf
        .iter()
        .position(|&p| p >= 95.0)
        .unwrap_or(max_ports as usize) as u32;
    let sp_95 = sp_cdf
        .iter()
        .position(|&p| p >= 95.0)
        .unwrap_or(max_ports as usize) as u32;
    Fig4Series {
        clusters,
        lp_cdf,
        sp_cdf,
        lp_95,
        sp_95,
    }
}

/// Format the series as two small tables (one for lp, one for sp).
pub fn format(series: &[Fig4Series]) -> String {
    let mut out = String::from("(a) LoadR ports (lp): % of loops needing <= k ports\nclusters ");
    let max = series.first().map(|s| s.lp_cdf.len()).unwrap_or(0);
    for k in 0..max {
        out.push_str(&format!("   k={k}  "));
    }
    out.push_str(" lp@95%\n");
    for s in series {
        out.push_str(&format!("{:>8} ", s.clusters));
        for v in &s.lp_cdf {
            out.push_str(&format!(" {v:6.1} "));
        }
        out.push_str(&format!("   {}\n", s.lp_95));
    }
    out.push_str("(b) StoreR ports (sp): % of loops needing <= k ports\nclusters ");
    for k in 0..max {
        out.push_str(&format!("   k={k}  "));
    }
    out.push_str(" sp@95%\n");
    for s in series {
        out.push_str(&format!("{:>8} ", s.clusters));
        for v in &s.sp_cdf {
            out.push_str(&format!(" {v:6.1} "));
        }
        out.push_str(&format!("   {}\n", s.sp_95));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcrf_workloads::small_suite;

    #[test]
    fn cdfs_are_monotone_and_reach_100() {
        let suite = small_suite(0);
        let s = series(&suite, 4);
        for w in s.lp_cdf.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(*s.lp_cdf.last().unwrap() > 99.0);
        assert!(*s.sp_cdf.last().unwrap() > 99.0);
    }

    #[test]
    fn most_loops_need_one_or_two_ports() {
        // The paper's design rule settles on lp <= 4 and sp <= 2 and on fewer
        // ports per bank as the clustering degree grows (the LoadR traffic
        // spreads over more banks).
        let suite = small_suite(0);
        let mut prev_lp = u32::MAX;
        for &c in &CLUSTER_DEGREES {
            let s = series(&suite, c);
            assert!(s.lp_95 <= 5, "{c} clusters: lp@95 = {}", s.lp_95);
            assert!(s.sp_95 <= 2, "{c} clusters: sp@95 = {}", s.sp_95);
            assert!(
                s.lp_95 <= prev_lp,
                "{c} clusters needs more ports than fewer clusters did"
            );
            prev_lp = s.lp_95;
        }
    }
}
