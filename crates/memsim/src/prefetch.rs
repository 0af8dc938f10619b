//! Selective binding prefetching policy (Section 6.2).
//!
//! Binding prefetching schedules load instructions assuming the cache miss
//! latency, so a miss is absorbed by the schedule instead of stalling the
//! processor. It costs register pressure (lifetimes stretch by the miss
//! latency) but no extra memory traffic. The paper applies it *selectively*:
//! loads on recurrences and spill reloads are scheduled with the hit latency
//! (stretching a recurrence would inflate RecMII), and loops with very few
//! iterations are excluded to keep prologues short.

use hcrf_ir::{Loop, Node, OpKind};

/// Which loads are scheduled with the miss latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchPolicy {
    /// No prefetching: every load uses the hit latency and every miss stalls.
    None,
    /// Selective binding prefetching (the paper's policy): loads not on a
    /// recurrence and not spill reloads use the miss latency, unless the loop
    /// iterates fewer than `min_iterations` times.
    SelectiveBinding {
        /// Loops with fewer iterations than this are not prefetched.
        min_iterations: u64,
    },
}

impl Default for PrefetchPolicy {
    fn default() -> Self {
        PrefetchPolicy::SelectiveBinding { min_iterations: 8 }
    }
}

impl PrefetchPolicy {
    /// Whether prefetching applies to the loop at all.
    pub fn applies_to_loop(&self, l: &Loop) -> bool {
        match self {
            PrefetchPolicy::None => false,
            PrefetchPolicy::SelectiveBinding { min_iterations } => {
                l.iterations / l.invocations.max(1) >= *min_iterations
            }
        }
    }
}

/// Whether a load operation is scheduled with the miss latency under the
/// selective binding-prefetching policy: it must be a load, not on a
/// recurrence, and not a spill reload (spill reloads are identified by their
/// synthetic spill array id, `base >= 1 << 16`).
pub fn is_prefetchable(n: &Node) -> bool {
    if n.kind != OpKind::Load {
        return false;
    }
    if n.on_recurrence {
        return false;
    }
    if let Some(mem) = n.mem {
        if mem.base >= (1 << 16) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcrf_ir::{DdgBuilder, MemAccess};

    #[test]
    fn loads_on_recurrences_are_not_prefetched() {
        let mut b = DdgBuilder::new("rec");
        let l = b.load(0, 8);
        let a = b.op(OpKind::FAdd);
        b.flow(l, a, 0).flow(a, l, 1); // load participates in the recurrence
        let g = b.build();
        assert!(!is_prefetchable(g.node(l)));
    }

    #[test]
    fn streaming_loads_are_prefetched() {
        let mut b = DdgBuilder::new("stream");
        let l = b.load(0, 8);
        let s = b.store(1, 8);
        b.flow(l, s, 0);
        let g = b.build();
        assert!(is_prefetchable(g.node(l)));
        assert!(!is_prefetchable(g.node(s)));
    }

    #[test]
    fn spill_reloads_are_not_prefetched() {
        let mut b = DdgBuilder::new("spill");
        let l = b.load_at(MemAccess {
            base: 1 << 16,
            offset: 0,
            stride: 0,
            size: 8,
        });
        let g = b.build();
        assert!(!is_prefetchable(g.node(l)));
    }

    #[test]
    fn short_loops_excluded() {
        let mut b = DdgBuilder::new("short");
        let l = b.load(0, 8);
        let s = b.store(1, 8);
        b.flow(l, s, 0);
        let lp = Loop::new(b.build(), 16, 8); // 2 iterations per invocation
        let policy = PrefetchPolicy::default();
        assert!(!policy.applies_to_loop(&lp));
        let mut b2 = DdgBuilder::new("long");
        let l2 = b2.load(0, 8);
        let s2 = b2.store(1, 8);
        b2.flow(l2, s2, 0);
        let lp2 = Loop::new(b2.build(), 4096, 2);
        assert!(policy.applies_to_loop(&lp2));
        assert!(!PrefetchPolicy::None.applies_to_loop(&lp2));
    }
}
