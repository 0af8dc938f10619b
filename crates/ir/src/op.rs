//! Operation kinds, resource classes and latency tables.

/// The kind of a loop operation.
///
/// The first group (`FAdd`..`FSqrt`) executes on the general-purpose
/// floating-point units; `Load`/`Store` execute on the memory ports;
/// the remaining kinds are inserted by the schedulers to move values between
/// register banks:
///
/// * [`OpKind::Move`] — inter-cluster bus move in a *clustered* (non
///   hierarchical) organization.
/// * [`OpKind::LoadR`] / [`OpKind::StoreR`] — movement between a cluster bank
///   and the shared second-level bank in a *hierarchical* organization
///   (also used for spilling a cluster-bank value into the shared bank).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Floating point addition / subtraction.
    FAdd,
    /// Floating point multiplication.
    FMul,
    /// Floating point division (not pipelined).
    FDiv,
    /// Floating point square root (not pipelined).
    FSqrt,
    /// Memory load (uses a memory port).
    Load,
    /// Memory store (uses a memory port).
    Store,
    /// Inter-cluster move through a bus (clustered organization).
    Move,
    /// Load a value from the shared bank into a cluster bank.
    LoadR,
    /// Store a value from a cluster bank into the shared bank.
    StoreR,
    /// Register-to-register copy within the same bank.
    Copy,
}

impl OpKind {
    /// All operation kinds that can appear in a *source* loop body
    /// (i.e. before any scheduler-inserted communication or spill code).
    pub const SOURCE_KINDS: [OpKind; 6] = [
        OpKind::FAdd,
        OpKind::FMul,
        OpKind::FDiv,
        OpKind::FSqrt,
        OpKind::Load,
        OpKind::Store,
    ];

    /// Resource class this operation executes on.
    #[inline]
    pub fn resource_class(self) -> ResourceClass {
        match self {
            OpKind::FAdd | OpKind::FMul | OpKind::FDiv | OpKind::FSqrt | OpKind::Copy => {
                ResourceClass::Fu
            }
            OpKind::Load | OpKind::Store => ResourceClass::MemPort,
            OpKind::Move => ResourceClass::Bus,
            OpKind::LoadR => ResourceClass::SharedReadPort,
            OpKind::StoreR => ResourceClass::SharedWritePort,
        }
    }

    /// Whether this operation defines (writes) a register value.
    ///
    /// `StoreR` defines a value too: it creates a copy of a cluster-bank
    /// value in the shared bank, which occupies a shared-bank register until
    /// its consumers (LoadR operations or stores) have read it.
    pub fn defines_value(self) -> bool {
        !matches!(self, OpKind::Store)
    }

    /// Whether this operation was inserted by a scheduler (communication or
    /// spill code) rather than being part of the original loop body.
    pub fn is_inserted(self) -> bool {
        matches!(
            self,
            OpKind::Move | OpKind::LoadR | OpKind::StoreR | OpKind::Copy
        )
    }

    /// Whether the operation accesses memory.
    #[inline]
    pub fn is_memory(self) -> bool {
        matches!(self, OpKind::Load | OpKind::Store)
    }

    /// Whether the functional unit executing this operation is fully
    /// pipelined (can accept a new operation every cycle).
    #[inline]
    pub fn fully_pipelined(self) -> bool {
        !matches!(self, OpKind::FDiv | OpKind::FSqrt)
    }

    /// Short mnemonic used in schedule dumps.
    pub fn mnemonic(self) -> &'static str {
        match self {
            OpKind::FAdd => "fadd",
            OpKind::FMul => "fmul",
            OpKind::FDiv => "fdiv",
            OpKind::FSqrt => "fsqrt",
            OpKind::Load => "ld",
            OpKind::Store => "st",
            OpKind::Move => "mov",
            OpKind::LoadR => "ldr",
            OpKind::StoreR => "str",
            OpKind::Copy => "cp",
        }
    }
}

/// The hardware resource class an operation occupies during execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceClass {
    /// General purpose floating point functional unit.
    Fu,
    /// Memory (load/store) port.
    MemPort,
    /// Inter-cluster bus (clustered organization only).
    Bus,
    /// Read port of the shared bank (LoadR issue slot, per cluster).
    SharedReadPort,
    /// Write port of the shared bank (StoreR issue slot, per cluster).
    SharedWritePort,
}

/// Operation latencies in cycles.
///
/// The values are *cycles for the configuration being scheduled*: the
/// hardware model scales the nanosecond latencies of the functional units and
/// the memory hierarchy to cycles for each register-file configuration
/// (Table 5 of the paper), and the result is stored here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpLatencies {
    /// Latency of additions and multiplications (paper baseline: 4 cycles).
    pub fadd: u32,
    /// Latency of multiplications (paper baseline: 4 cycles).
    pub fmul: u32,
    /// Latency of division (paper baseline: 17 cycles, not pipelined).
    pub fdiv: u32,
    /// Latency of square root (paper baseline: 30 cycles, not pipelined).
    pub fsqrt: u32,
    /// Memory read hit latency (paper baseline: 2 cycles).
    pub load: u32,
    /// Memory write latency (paper baseline: 1 cycle).
    pub store: u32,
    /// Inter-cluster move latency (paper: 1 cycle).
    pub mov: u32,
    /// Latency of a LoadR (shared bank -> cluster bank) operation.
    pub loadr: u32,
    /// Latency of a StoreR (cluster bank -> shared bank) operation.
    pub storer: u32,
    /// Latency of an intra-bank copy.
    pub copy: u32,
    /// Memory read latency when the scheduler assumes a cache miss
    /// (binding prefetching schedules such loads with this latency).
    pub load_miss: u32,
}

impl OpLatencies {
    /// The latencies of the paper's baseline processor configuration
    /// (Section 2.2): 4-cycle add/mul, 17-cycle div, 30-cycle sqrt,
    /// 2-cycle load hit, 1-cycle store and 1-cycle movement operations.
    pub fn paper_baseline() -> Self {
        OpLatencies {
            fadd: 4,
            fmul: 4,
            fdiv: 17,
            fsqrt: 30,
            load: 2,
            store: 1,
            mov: 1,
            loadr: 1,
            storer: 1,
            copy: 1,
            load_miss: 10,
        }
    }

    /// Latency, in cycles, of an operation of kind `kind`.
    #[inline]
    pub fn of(&self, kind: OpKind) -> u32 {
        match kind {
            OpKind::FAdd => self.fadd,
            OpKind::FMul => self.fmul,
            OpKind::FDiv => self.fdiv,
            OpKind::FSqrt => self.fsqrt,
            OpKind::Load => self.load,
            OpKind::Store => self.store,
            OpKind::Move => self.mov,
            OpKind::LoadR => self.loadr,
            OpKind::StoreR => self.storer,
            OpKind::Copy => self.copy,
        }
    }

    /// Number of cycles the executing resource is busy (occupancy).
    ///
    /// Fully-pipelined units are busy for a single cycle; division and square
    /// root block their unit for their whole latency (Section 2.2: "all
    /// operations are fully pipelined except for division and square root").
    #[inline]
    pub fn occupancy(&self, kind: OpKind) -> u32 {
        if kind.fully_pipelined() {
            1
        } else {
            self.of(kind).max(1)
        }
    }

    /// Scale every latency that is expressed in wall-clock terms by the ratio
    /// of clock cycles, rounding up, with a minimum of 1 cycle.
    ///
    /// This is used by the hardware model when deriving the per-configuration
    /// latencies of Table 5: the baseline latencies correspond to the S128
    /// cycle time, and a faster clock needs proportionally more cycles.
    pub fn rescaled(&self, ratio: f64) -> Self {
        let scale = |c: u32| -> u32 { ((c as f64) * ratio).ceil().max(1.0) as u32 };
        OpLatencies {
            fadd: scale(self.fadd),
            fmul: scale(self.fmul),
            fdiv: scale(self.fdiv),
            fsqrt: scale(self.fsqrt),
            load: scale(self.load),
            store: self.store.max(1),
            mov: self.mov.max(1),
            loadr: self.loadr.max(1),
            storer: self.storer.max(1),
            copy: self.copy.max(1),
            load_miss: scale(self.load_miss),
        }
    }
}

impl Default for OpLatencies {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_latencies_match_paper() {
        let l = OpLatencies::paper_baseline();
        assert_eq!(l.of(OpKind::FAdd), 4);
        assert_eq!(l.of(OpKind::FMul), 4);
        assert_eq!(l.of(OpKind::FDiv), 17);
        assert_eq!(l.of(OpKind::FSqrt), 30);
        assert_eq!(l.of(OpKind::Load), 2);
        assert_eq!(l.of(OpKind::Store), 1);
    }

    #[test]
    fn occupancy_non_pipelined() {
        let l = OpLatencies::paper_baseline();
        assert_eq!(l.occupancy(OpKind::FAdd), 1);
        assert_eq!(l.occupancy(OpKind::FMul), 1);
        assert_eq!(l.occupancy(OpKind::FDiv), 17);
        assert_eq!(l.occupancy(OpKind::FSqrt), 30);
        assert_eq!(l.occupancy(OpKind::Load), 1);
    }

    #[test]
    fn resource_classes() {
        assert_eq!(OpKind::FAdd.resource_class(), ResourceClass::Fu);
        assert_eq!(OpKind::FDiv.resource_class(), ResourceClass::Fu);
        assert_eq!(OpKind::Load.resource_class(), ResourceClass::MemPort);
        assert_eq!(OpKind::Store.resource_class(), ResourceClass::MemPort);
        assert_eq!(OpKind::Move.resource_class(), ResourceClass::Bus);
        assert_eq!(
            OpKind::LoadR.resource_class(),
            ResourceClass::SharedReadPort
        );
        assert_eq!(
            OpKind::StoreR.resource_class(),
            ResourceClass::SharedWritePort
        );
    }

    #[test]
    fn defines_value() {
        assert!(OpKind::FAdd.defines_value());
        assert!(OpKind::Load.defines_value());
        assert!(OpKind::LoadR.defines_value());
        assert!(OpKind::StoreR.defines_value());
        assert!(!OpKind::Store.defines_value());
    }

    #[test]
    fn inserted_kinds() {
        assert!(OpKind::Move.is_inserted());
        assert!(OpKind::LoadR.is_inserted());
        assert!(OpKind::StoreR.is_inserted());
        assert!(!OpKind::FAdd.is_inserted());
        assert!(!OpKind::Load.is_inserted());
    }

    #[test]
    fn rescaling_rounds_up_and_clamps() {
        let l = OpLatencies::paper_baseline();
        let faster = l.rescaled(1.5);
        assert_eq!(faster.fadd, 6);
        assert_eq!(faster.fdiv, 26); // ceil(17 * 1.5)
        let slower = l.rescaled(0.1);
        assert!(slower.fadd >= 1);
        assert!(slower.store >= 1);
    }

    #[test]
    fn mnemonics_are_unique() {
        use std::collections::HashSet;
        let all = [
            OpKind::FAdd,
            OpKind::FMul,
            OpKind::FDiv,
            OpKind::FSqrt,
            OpKind::Load,
            OpKind::Store,
            OpKind::Move,
            OpKind::LoadR,
            OpKind::StoreR,
            OpKind::Copy,
        ];
        let set: HashSet<_> = all.iter().map(|k| k.mnemonic()).collect();
        assert_eq!(set.len(), all.len());
    }
}
