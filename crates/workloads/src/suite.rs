//! The standard evaluation suite: hand-written kernels plus the synthetic
//! population, 1258 loops in total (the size of the paper's workbench).

use crate::kernels::all_kernels;
use crate::synthetic::{SyntheticParams, SyntheticWorkload};
use hcrf_ir::Loop;

/// Parameters of the evaluation suite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuiteParams {
    /// Total number of loops (kernels + synthetic).
    pub total_loops: usize,
    /// Seed of the synthetic part.
    pub seed: u64,
}

impl Default for SuiteParams {
    fn default() -> Self {
        SuiteParams {
            total_loops: 1258,
            seed: SyntheticParams::default().seed,
        }
    }
}

/// Build a suite with explicit parameters.
pub fn suite(params: SuiteParams) -> Vec<Loop> {
    let mut loops = all_kernels();
    if params.total_loops > loops.len() {
        let synthetic = SyntheticWorkload::new(SyntheticParams {
            loops: params.total_loops - loops.len(),
            seed: params.seed,
            ..Default::default()
        })
        .generate();
        loops.extend(synthetic);
    } else {
        loops.truncate(params.total_loops);
    }
    loops
}

/// The standard 1258-loop suite used by the benches (kernels + synthetic).
pub fn standard_suite() -> Vec<Loop> {
    suite(SuiteParams::default())
}

/// A reduced suite for tests and examples: the hand-written kernels plus
/// `extra` synthetic loops.
pub fn small_suite(extra: usize) -> Vec<Loop> {
    suite(SuiteParams {
        total_loops: all_kernels().len() + extra,
        ..Default::default()
    })
}

/// The standard suite extended with `churn` ejection-churn-heavy loops (see
/// [`crate::churn`]): the scenario where backtracking, not pressure
/// checking, dominates scheduling time.
pub fn small_suite_with_churn(extra: usize, churn: usize) -> Vec<Loop> {
    let mut loops = small_suite(extra);
    loops.extend(crate::churn::churn_suite(churn));
    loops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_suite_has_1258_loops() {
        let s = standard_suite();
        assert_eq!(s.len(), 1258);
    }

    #[test]
    fn small_suite_size() {
        let s = small_suite(10);
        assert_eq!(s.len(), all_kernels().len() + 10);
        let none = small_suite(0);
        assert_eq!(none.len(), all_kernels().len());
    }

    #[test]
    fn suite_truncates_when_requested_fewer_than_kernels() {
        let s = suite(SuiteParams {
            total_loops: 5,
            ..Default::default()
        });
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn suite_loops_have_unique_names() {
        use std::collections::HashSet;
        let s = small_suite(100);
        let names: HashSet<_> = s.iter().map(|l| l.ddg.name.clone()).collect();
        assert_eq!(names.len(), s.len());
    }

    #[test]
    fn churn_extension_appends_the_churn_family() {
        let base = small_suite(4);
        let s = small_suite_with_churn(4, 6);
        assert_eq!(s.len(), base.len() + 6);
        assert!(s[base.len()..]
            .iter()
            .all(|l| l.ddg.name.starts_with("churn")));
    }

    #[test]
    fn suite_is_deterministic() {
        let a = small_suite(50);
        let b = small_suite(50);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.ddg.name, y.ddg.name);
            assert_eq!(x.iterations, y.iterations);
        }
    }
}
