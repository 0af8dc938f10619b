//! Figure 1: IPC achieved as a function of the machine resources
//! (x functional units + y memory ports), monolithic register file with
//! unbounded registers.

use crate::driver::{run_suite, ConfiguredMachine, RunOptions};
use hcrf_ir::Loop;
use hcrf_machine::{Capacity, MachineConfig, RfOrganization};
use hcrf_rfmodel::evaluate;

/// One point of Figure 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Point {
    /// Number of general-purpose functional units.
    pub fus: u32,
    /// Number of memory ports.
    pub mem_ports: u32,
    /// Aggregate IPC over the suite (operations executed per cycle,
    /// weighted by loop trip counts).
    pub ipc: f64,
    /// Efficiency: IPC divided by the issue width (fus + mem_ports).
    pub efficiency: f64,
}

/// The resource points of the paper's Figure 1.
pub const RESOURCE_POINTS: [(u32, u32); 5] = [(4, 2), (6, 3), (8, 4), (10, 5), (12, 6)];

/// Run the Figure 1 sweep.
pub fn run(suite: &[Loop], options: &RunOptions) -> Vec<Fig1Point> {
    RESOURCE_POINTS
        .iter()
        .map(|&(fus, mem_ports)| point(suite, options, fus, mem_ports))
        .collect()
}

/// Evaluate a single resource point.
pub fn point(suite: &[Loop], options: &RunOptions, fus: u32, mem_ports: u32) -> Fig1Point {
    let mut machine = MachineConfig::with_resources(fus, mem_ports);
    machine.rf = RfOrganization::Monolithic {
        regs: Capacity::Unbounded,
    };
    let hardware = evaluate(&machine);
    let config = ConfiguredMachine { machine, hardware };
    let run = run_suite(&config, suite, options);
    // IPC weighted by trip count: operations executed / kernel cycles spent.
    let mut ops: f64 = 0.0;
    let mut cycles: f64 = 0.0;
    for (l, r) in suite.iter().zip(run.loops.iter()) {
        ops += r.schedule.original_ops as f64 * l.iterations as f64;
        cycles += r.schedule.ii as f64 * l.iterations as f64;
    }
    let ipc = if cycles > 0.0 { ops / cycles } else { 0.0 };
    Fig1Point {
        fus,
        mem_ports,
        ipc,
        efficiency: ipc / (fus + mem_ports) as f64,
    }
}

/// Format the points like the figure's axis labels.
pub fn format(points: &[Fig1Point]) -> String {
    let mut out = String::from("resources (FU+mem)   IPC    efficiency\n");
    for p in points {
        out.push_str(&format!(
            "{:>2}+{:<2}               {:5.2}   {:5.2}\n",
            p.fus, p.mem_ports, p.ipc, p.efficiency
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcrf_workloads::small_suite;

    #[test]
    fn ipc_grows_with_resources() {
        let suite = small_suite(0);
        let opts = RunOptions::fast();
        let small = point(&suite, &opts, 4, 2);
        let big = point(&suite, &opts, 12, 6);
        assert!(big.ipc >= small.ipc, "{} vs {}", big.ipc, small.ipc);
        assert!(small.ipc > 0.5);
        // Efficiency drops as the machine gets wider (diminishing returns).
        assert!(big.efficiency <= small.efficiency + 1e-9);
    }

    #[test]
    fn formatting_contains_every_point() {
        let pts = vec![Fig1Point {
            fus: 8,
            mem_ports: 4,
            ipc: 6.2,
            efficiency: 0.52,
        }];
        let s = format(&pts);
        assert!(s.contains(" 8+4"));
        assert!(s.contains("6.2"));
    }
}
