//! Tables 2 and 5: hardware evaluation (access time, area, logic depth,
//! clock cycle and per-configuration latencies) of the register file
//! organizations, comparing the analytical model against the paper's
//! published CACTI 3.0 values.

use crate::experiments::TABLE5_CONFIGS;
use hcrf_machine::{MachineConfig, RfOrganization};
use hcrf_rfmodel::{evaluate_with, AnalyticRfModel, ClockModel, HardwareEval};

/// One row of the hardware evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareRow {
    /// Configuration name.
    pub config: String,
    /// LoadR / StoreR ports (lp-sp) used by the configuration.
    pub lp: u32,
    /// StoreR ports.
    pub sp: u32,
    /// Evaluation using the paper's published values where available.
    pub reference: HardwareEval,
    /// Evaluation using the analytical model only.
    pub analytic: HardwareEval,
}

impl HardwareRow {
    /// Relative error of the analytical clock cycle against the reference.
    pub fn clock_error(&self) -> f64 {
        (self.analytic.clock_ns - self.reference.clock_ns).abs() / self.reference.clock_ns
    }

    /// Relative error of the analytical total area against the reference.
    pub fn area_error(&self) -> f64 {
        (self.analytic.total_area - self.reference.total_area).abs() / self.reference.total_area
    }
}

/// Evaluate one configuration.
pub fn row(name: &str) -> HardwareRow {
    let rf = RfOrganization::parse(name).expect("valid configuration");
    let machine = MachineConfig::paper_baseline(rf);
    let reference = evaluate_with(
        &machine,
        &AnalyticRfModel::at_100nm(),
        &ClockModel::at_100nm(),
        true,
    );
    let analytic = evaluate_with(
        &machine,
        &AnalyticRfModel::at_100nm(),
        &ClockModel::at_100nm(),
        false,
    );
    HardwareRow {
        config: name.to_string(),
        lp: machine.lp,
        sp: machine.sp,
        reference,
        analytic,
    }
}

/// Table 2: the three equally-sized organizations.
pub fn table2() -> Vec<HardwareRow> {
    ["S128", "4C32", "1C64S64"].iter().map(|n| row(n)).collect()
}

/// Table 5: the full 15-configuration design space.
pub fn table5() -> Vec<HardwareRow> {
    TABLE5_CONFIGS.iter().map(|n| row(n)).collect()
}

/// Format rows in the layout of Table 5.
pub fn format(rows: &[HardwareRow]) -> String {
    let mut out = String::from(
        "Config    lp-sp  AccC(ns) AccS(ns)  Area(Mλ²)  FO4  Clk(ns)  Mem/FU lat   [model Clk / Area, err]\n",
    );
    for r in rows {
        let acc_c = r.reference.cluster_bank.access_ns;
        let acc_s = r
            .reference
            .shared_bank
            .map(|b| format!("{:8.3}", b.access_ns))
            .unwrap_or_else(|| "     ---".to_string());
        out.push_str(&format!(
            "{:<9} {}-{}   {:8.3} {}  {:9.2}  {:>3}  {:7.3}  {:>2} / {:<2}      [{:6.3} / {:6.2}, {:4.1}% / {:4.1}%]\n",
            r.config,
            r.lp,
            r.sp,
            acc_c,
            acc_s,
            r.reference.total_area,
            r.reference.logic_depth,
            r.reference.clock_ns,
            r.reference.latencies.load,
            r.reference.latencies.fadd,
            r.analytic.clock_ns,
            r.analytic.total_area,
            100.0 * r.clock_error(),
            100.0 * r.area_error(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_has_15_rows_in_paper_order() {
        let rows = table5();
        assert_eq!(rows.len(), 15);
        assert_eq!(rows[0].config, "S128");
        assert_eq!(rows[14].config, "8C16S16");
    }

    #[test]
    fn reference_rows_match_published_clock() {
        let rows = table5();
        let s128 = &rows[0];
        assert!((s128.reference.clock_ns - 1.181).abs() < 1e-9);
        let c8 = &rows[14];
        assert!((c8.reference.clock_ns - 0.389).abs() < 1e-9);
    }

    #[test]
    fn analytic_model_errors_are_bounded() {
        for r in table5() {
            assert!(
                r.clock_error() < 0.45,
                "{}: clock error {:.2}",
                r.config,
                r.clock_error()
            );
            assert!(
                r.area_error() < 1.5,
                "{}: area error {:.2}",
                r.config,
                r.area_error()
            );
        }
    }

    #[test]
    fn clustering_reduces_clock_and_area_in_both_models() {
        let rows = table2();
        let s128 = &rows[0];
        let c4 = &rows[1];
        assert!(c4.reference.clock_ns < s128.reference.clock_ns);
        assert!(c4.analytic.clock_ns < s128.analytic.clock_ns);
        assert!(c4.reference.total_area < s128.reference.total_area);
        assert!(c4.analytic.total_area < s128.analytic.total_area);
    }

    #[test]
    fn format_contains_every_config() {
        let s = format(&table5());
        for c in TABLE5_CONFIGS {
            assert!(s.contains(c));
        }
    }
}
