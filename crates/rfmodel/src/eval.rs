//! Full hardware evaluation of a machine configuration: per-bank access
//! time and area, clock cycle and per-configuration operation latencies.

use crate::clock::ClockModel;
use crate::model::{AnalyticRfModel, BankEstimate};
use crate::reference;
use hcrf_ir::OpLatencies;
use hcrf_machine::MachineConfig;

/// Where the hardware numbers of a [`HardwareEval`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSource {
    /// The paper's published CACTI 3.0 values (Table 5) were used.
    PaperReference,
    /// The analytical model of [`AnalyticRfModel`] was used.
    Analytic,
}

/// Complete hardware characterisation of one machine configuration
/// (one row of Table 5).
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareEval {
    /// Configuration name in `xCy-Sz` notation.
    pub config: String,
    /// Source of the access-time / area values.
    pub source: ModelSource,
    /// Estimate for one first-level (cluster) bank.
    pub cluster_bank: BankEstimate,
    /// Number of identical first-level banks.
    pub cluster_banks: u32,
    /// Estimate for the shared bank, if the organization has one.
    pub shared_bank: Option<BankEstimate>,
    /// Total register file area (all banks), in Mλ².
    pub total_area: f64,
    /// Access time of the bank that limits the cycle time, in ns.
    pub critical_access_ns: f64,
    /// Logic depth, in FO4, of a single-cycle access to the critical bank.
    pub logic_depth: u32,
    /// Clock cycle in ns.
    pub clock_ns: f64,
    /// Per-configuration operation latencies (cycles), including the
    /// LoadR/StoreR latency and the cache-miss latency.
    pub latencies: OpLatencies,
}

impl HardwareEval {
    /// Latency, in cycles, of LoadR/StoreR operations for this configuration.
    pub fn inter_level_latency(&self) -> u32 {
        self.latencies.loadr
    }

    /// Speed ratio of this configuration's clock relative to another
    /// (greater than 1 means this configuration has a faster clock).
    pub fn clock_speedup_vs(&self, other: &HardwareEval) -> f64 {
        other.clock_ns / self.clock_ns
    }
}

/// Evaluate a machine configuration, preferring the paper's published
/// hardware values when the configuration matches a Table 5 row with its
/// default port counts, and falling back to the analytical model otherwise.
pub fn evaluate(m: &MachineConfig) -> HardwareEval {
    evaluate_with(
        m,
        &AnalyticRfModel::at_100nm(),
        &ClockModel::at_100nm(),
        true,
    )
}

/// Evaluate a machine configuration with explicit models.
///
/// When `use_reference` is true and the configuration matches a published
/// Table 5 row, the published access times / areas / latencies are used;
/// otherwise everything comes from `rf_model` and `clock_model`.
pub fn evaluate_with(
    m: &MachineConfig,
    rf_model: &AnalyticRfModel,
    clock_model: &ClockModel,
    use_reference: bool,
) -> HardwareEval {
    let name = m.rf.to_string();
    if use_reference {
        if let Some(row) = reference::lookup(&name) {
            return from_reference(m, &row, clock_model);
        }
    }
    from_analytic(m, rf_model, clock_model)
}

fn from_reference(
    m: &MachineConfig,
    row: &reference::PaperHardwareRow,
    clock_model: &ClockModel,
) -> HardwareEval {
    let ports = m.port_counts();
    let cluster_bank = BankEstimate {
        access_ns: row.access_cluster_ns.unwrap_or_else(|| {
            row.access_shared_ns
                .expect("reference row without any bank")
        }),
        area_mlambda2: row
            .area_cluster
            .unwrap_or_else(|| row.area_shared.unwrap_or(0.0)),
    };
    let shared_bank = if m.rf.is_hierarchical() {
        Some(BankEstimate {
            access_ns: row.access_shared_ns.unwrap_or(cluster_bank.access_ns),
            area_mlambda2: row.area_shared.unwrap_or(0.0),
        })
    } else {
        None
    };
    let clock_ns = row.clock_ns;
    let inter_level = shared_bank
        .map(|s| clock_model.inter_level_latency(s.access_ns, clock_ns))
        .unwrap_or(1);
    let miss = clock_model.miss_latency(clock_ns);
    let latencies = clock_model.latencies(row.fu_latency, row.mem_latency, miss, inter_level);
    HardwareEval {
        config: row.config.to_string(),
        source: ModelSource::PaperReference,
        cluster_bank,
        cluster_banks: ports.cluster_banks,
        shared_bank,
        total_area: row.area_total,
        critical_access_ns: row.critical_access_ns(),
        logic_depth: row.logic_depth_fo4,
        clock_ns,
        latencies,
    }
}

fn from_analytic(
    m: &MachineConfig,
    rf_model: &AnalyticRfModel,
    clock_model: &ClockModel,
) -> HardwareEval {
    let ports = m.port_counts();
    let cluster_bank = rf_model.bank(ports.cluster);
    let shared_bank = ports.shared.map(|p| rf_model.bank(p));
    let total_area = cluster_bank.area_mlambda2 * ports.cluster_banks as f64
        + shared_bank.map(|b| b.area_mlambda2).unwrap_or(0.0);
    // The cycle time is set by the first-level bank (the one feeding the
    // FUs); the shared bank may take several cycles to access.
    let critical_access_ns = cluster_bank.access_ns;
    let clock_ns = clock_model.clock_ns(critical_access_ns);
    let logic_depth = clock_model.logic_depth(critical_access_ns);
    let inter_level = shared_bank
        .map(|s| clock_model.inter_level_latency(s.access_ns, clock_ns))
        .unwrap_or(1);
    let fu = clock_model.fu_latency(clock_ns);
    let mem = clock_model.mem_latency(clock_ns);
    let miss = clock_model.miss_latency(clock_ns);
    let latencies = clock_model.latencies(fu, mem, miss, inter_level);
    HardwareEval {
        config: m.rf.to_string(),
        source: ModelSource::Analytic,
        cluster_bank,
        cluster_banks: ports.cluster_banks,
        shared_bank,
        total_area,
        critical_access_ns,
        logic_depth,
        clock_ns,
        latencies,
    }
}

/// Produce the machine configuration with its latencies replaced by the ones
/// derived from the hardware evaluation — this is what the experiment driver
/// feeds to the scheduler so that each RF organization is scheduled with its
/// own operation latencies (Table 5, last column).
pub fn configure_latencies(m: &MachineConfig) -> (MachineConfig, HardwareEval) {
    let hw = evaluate(m);
    let m2 = m.clone().with_latencies(hw.latencies);
    (m2, hw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcrf_machine::RfOrganization;

    fn cfg(s: &str) -> MachineConfig {
        MachineConfig::paper_baseline(RfOrganization::parse(s).unwrap())
    }

    #[test]
    fn published_configs_use_reference_values() {
        let hw = evaluate(&cfg("S128"));
        assert_eq!(hw.source, ModelSource::PaperReference);
        assert!((hw.clock_ns - 1.181).abs() < 1e-9);
        assert_eq!(hw.latencies.fadd, 4);
        assert_eq!(hw.latencies.load, 2);
    }

    #[test]
    fn unpublished_configs_fall_back_to_analytic() {
        let hw = evaluate(&cfg("2C16S128"));
        assert_eq!(hw.source, ModelSource::Analytic);
        assert!(hw.clock_ns > 0.0);
        assert!(hw.total_area > 0.0);
    }

    #[test]
    fn clustering_beats_monolithic_on_clock_and_area() {
        let mono = evaluate(&cfg("S128"));
        let clus = evaluate(&cfg("4C32"));
        let hier = evaluate(&cfg("8C16S16"));
        assert!(clus.clock_ns < mono.clock_ns);
        assert!(hier.clock_ns < clus.clock_ns);
        assert!(clus.total_area < mono.total_area);
        assert!(hier.total_area < mono.total_area);
    }

    #[test]
    fn hierarchical_slow_shared_bank_gets_two_cycle_loadr() {
        let hw = evaluate(&cfg("8C16S16"));
        assert_eq!(hw.inter_level_latency(), 2);
        let hw2 = evaluate(&cfg("2C32S32"));
        assert_eq!(hw2.inter_level_latency(), 1);
    }

    #[test]
    fn faster_clock_means_longer_latencies_in_cycles() {
        let mono = evaluate(&cfg("S128"));
        let hier = evaluate(&cfg("8C16S16"));
        assert!(hier.latencies.fadd > mono.latencies.fadd);
        assert!(hier.latencies.load > mono.latencies.load);
        assert!(hier.latencies.load_miss > mono.latencies.load_miss);
    }

    #[test]
    fn configure_latencies_rewrites_machine() {
        let (m, hw) = configure_latencies(&cfg("4C32S16"));
        assert_eq!(m.latencies, hw.latencies);
        assert_eq!(m.latencies.fadd, 7); // Table 5: FU latency 7 for 4C32S16
    }

    #[test]
    fn clock_speedup_helper() {
        let mono = evaluate(&cfg("S64"));
        let hier = evaluate(&cfg("8C16S16"));
        let s = hier.clock_speedup_vs(&mono);
        assert!(s > 2.0 && s < 3.5, "speedup {s}");
    }

    #[test]
    fn analytic_total_area_sums_banks() {
        let m = cfg("4C16S64");
        let hw = evaluate_with(
            &m,
            &AnalyticRfModel::at_100nm(),
            &ClockModel::at_100nm(),
            false,
        );
        let expect = hw.cluster_bank.area_mlambda2 * 4.0 + hw.shared_bank.unwrap().area_mlambda2;
        assert!((hw.total_area - expect).abs() < 1e-9);
    }
}
