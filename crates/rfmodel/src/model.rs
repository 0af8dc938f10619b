//! Analytical register-file access-time and area model.

use hcrf_machine::BankPorts;

/// Access time and area estimate for one register bank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BankEstimate {
    /// Access time in nanoseconds.
    pub access_ns: f64,
    /// Area in millions of λ².
    pub area_mlambda2: f64,
}

/// Smooth analytical model of a multi-ported register file at 0.10 µm.
///
/// Access time is modelled as decoder + wordline + bitline + sense amplifier
/// delay; wordline length grows with the per-cell width (which grows with the
/// port count because every port adds bitline pairs), bitline length grows
/// with the number of rows and the per-cell height (which grows with the port
/// count because every port adds a wordline).  Area is the bit-cell array
/// (quadratic in ports) plus per-port periphery.
///
/// The default coefficients were calibrated against the paper's CACTI 3.0
/// numbers (Tables 2 and 5); the fit favours the monotone trends over exact
/// per-point agreement since CACTI's internal sub-banking produces step
/// discontinuities a smooth model cannot reproduce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticRfModel {
    /// Fixed sense-amplifier plus drive delay (ns).
    pub t_fixed: f64,
    /// Decoder delay per address bit (ns / log2(registers)).
    pub t_decode: f64,
    /// Wordline + drive delay per port (ns / port).
    pub t_port: f64,
    /// Bitline delay per (register × port) product (ns).
    pub t_bitline: f64,
    /// Area of one bit cell divided by (base_tracks + ports)^2, in λ².
    pub a_cell: f64,
    /// Track overhead of a port-less cell (λ-tracks on each side).
    pub a_base_tracks: f64,
    /// Per-port periphery area coefficient (Mλ² per port).
    pub a_port_periphery: f64,
    /// Bits per register (the paper's machines are 64-bit).
    pub bits_per_register: f64,
}

impl Default for AnalyticRfModel {
    fn default() -> Self {
        AnalyticRfModel {
            t_fixed: 0.12,
            t_decode: 0.055,
            t_port: 0.009,
            t_bitline: 0.00009,
            a_cell: 0.94,
            a_base_tracks: 12.0,
            a_port_periphery: 0.020,
            bits_per_register: 64.0,
        }
    }
}

impl AnalyticRfModel {
    /// Calibrated model at 0.10 µm drawn gate length.
    pub fn at_100nm() -> Self {
        Self::default()
    }

    /// Estimate access time (ns) of a bank with `registers` entries and
    /// `read_ports` + `write_ports` ports.
    ///
    /// Unbounded banks (used by the static scheduler studies) are estimated
    /// as if they had 1024 registers; they never participate in hardware
    /// comparisons.
    pub fn access_ns(&self, registers: u32, read_ports: u32, write_ports: u32) -> f64 {
        let regs = effective_regs(registers);
        let ports = (read_ports + write_ports) as f64;
        self.t_fixed
            + self.t_decode * (regs.max(2.0)).log2()
            + self.t_port * ports
            + self.t_bitline * regs * ports
    }

    /// Estimate area (millions of λ²) of a bank.
    pub fn area_mlambda2(&self, registers: u32, read_ports: u32, write_ports: u32) -> f64 {
        let regs = effective_regs(registers);
        let ports = (read_ports + write_ports) as f64;
        let cell = self.a_cell * (self.a_base_tracks + ports).powi(2);
        let array = regs * self.bits_per_register * cell / 1.0e6;
        let periphery =
            self.a_port_periphery * ports * (regs * self.bits_per_register).sqrt() / 100.0;
        array + periphery
    }

    /// Estimate both metrics for a bank described by [`BankPorts`].
    pub fn bank(&self, ports: BankPorts) -> BankEstimate {
        BankEstimate {
            access_ns: self.access_ns(ports.registers, ports.read_ports, ports.write_ports),
            area_mlambda2: self.area_mlambda2(ports.registers, ports.read_ports, ports.write_ports),
        }
    }
}

fn effective_regs(registers: u32) -> f64 {
    if registers == u32::MAX {
        1024.0
    } else {
        registers.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> AnalyticRfModel {
        AnalyticRfModel::at_100nm()
    }

    #[test]
    fn monotone_in_registers() {
        let m = model();
        let mut prev = 0.0;
        for regs in [16u32, 32, 64, 128, 256] {
            let t = m.access_ns(regs, 20, 12);
            assert!(t > prev, "access time must grow with registers");
            prev = t;
        }
        let mut prev = 0.0;
        for regs in [16u32, 32, 64, 128, 256] {
            let a = m.area_mlambda2(regs, 20, 12);
            assert!(a > prev, "area must grow with registers");
            prev = a;
        }
    }

    #[test]
    fn monotone_in_ports() {
        let m = model();
        let mut prev = 0.0;
        for ports in [2u32, 6, 10, 18, 32] {
            let t = m.access_ns(64, ports, ports / 2);
            assert!(t > prev);
            prev = t;
        }
        let mut prev = 0.0;
        for ports in [2u32, 6, 10, 18, 32] {
            let a = m.area_mlambda2(64, ports, ports / 2);
            assert!(a > prev);
            prev = a;
        }
    }

    #[test]
    fn s128_point_is_in_the_right_ballpark() {
        // Paper (Table 5): S128 with 20r/12w ports: 1.145 ns, 14.91 Mλ².
        let m = model();
        let t = m.access_ns(128, 20, 12);
        let a = m.area_mlambda2(128, 20, 12);
        assert!((t - 1.145).abs() / 1.145 < 0.25, "access {t}");
        assert!((a - 14.91).abs() / 14.91 < 0.45, "area {a}");
    }

    #[test]
    fn cluster_bank_much_faster_and_smaller_than_monolithic() {
        // Paper: 4C32 cluster bank is 0.475 ns / 1.07 Mλ² vs S128's
        // 1.145 ns / 14.91 Mλ².
        let m = model();
        let mono = m.bank(BankPorts {
            registers: 128,
            read_ports: 20,
            write_ports: 12,
        });
        let clus = m.bank(BankPorts {
            registers: 32,
            read_ports: 6,
            write_ports: 4,
        });
        assert!(clus.access_ns < 0.6 * mono.access_ns);
        assert!(clus.area_mlambda2 < 0.25 * mono.area_mlambda2);
    }

    #[test]
    fn unbounded_banks_get_a_finite_estimate() {
        let m = model();
        let t = m.access_ns(u32::MAX, 20, 12);
        assert!(t.is_finite() && t > 0.0);
    }
}
