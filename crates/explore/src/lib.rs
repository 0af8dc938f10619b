//! Design-space exploration for hierarchical clustered register files.
//!
//! The paper argues its case with 15 hand-picked points of the `xCy-Sz`
//! design space (Tables 3–6). This crate turns that into a subsystem that
//! scales the sweep:
//!
//! * [`space`] — a **design-space generator**: enumerate every realizable
//!   organization from declarative constraints (cluster counts, bank sizes,
//!   register and port budgets) instead of a hard-coded list;
//! * [`cache`] — **content-addressed keys**: suite aggregates keyed by a
//!   stable hash of (machine config, suite fingerprint, scheduler params,
//!   scenario);
//! * [`store`] — the **result store**, [`ResultCache`]: one crash-safe,
//!   append-only segment of checksummed records, so re-runs and
//!   incremental sweeps are near-free;
//! * [`executor`] — an **exploration executor** that shards uncached points
//!   across worker threads (reusing `hcrf::run_suite`) and streams progress;
//! * [`report`] — **Pareto analysis**: frontier extraction over (execution
//!   time, area, clock, memory traffic) with table / CSV / JSON emitters.
//!
//! The `explore` binary in `hcrf-bench` wraps them into a CLI:
//!
//! ```text
//! cargo run --release --bin explore -- \
//!     --clusters 1,2,4,8 --regs 16..128 --budget 160 --scenario ideal --top 10
//! ```
//!
//! # Example
//!
//! ```
//! use hcrf_explore::prelude::*;
//!
//! // Enumerate a small space and evaluate it over the kernel suite.
//! let space = DesignSpace {
//!     bank_sizes: vec![32, 64],
//!     max_total_regs: 128,
//!     ..Default::default()
//! };
//! let orgs = space.enumerate();
//! assert!(orgs.len() >= 6);
//!
//! let suite = hcrf_workloads::small_suite(0);
//! let mut cache = ResultCache::disabled();
//! let outcome = explore(&orgs[..3], &suite, &ExploreOptions::default(), &mut cache);
//! let report = build_report(&outcome);
//! assert_eq!(report.points.len(), 3);
//! assert!(!report.frontier.is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod executor;
pub mod json;
pub mod report;
pub mod space;
pub mod store;

pub use cache::{CacheKey, CacheStats, CachedResult, Scenario, CACHE_FORMAT_VERSION};
pub use executor::{
    explore, explore_traced, ExploreOptions, ExploreOutcome, PointResult, QuarantinedPoint,
};
pub use report::{build_report, RankedPoint, Report};
pub use space::DesignSpace;
pub use store::{FsckReport, ResultCache};

/// Convenience re-exports for downstream users.
pub mod prelude {
    pub use crate::cache::{CacheKey, CacheStats, Scenario};
    pub use crate::executor::{
        explore, explore_traced, ExploreOptions, ExploreOutcome, PointResult,
    };
    pub use crate::report::{build_report, Report};
    pub use crate::space::DesignSpace;
    pub use crate::store::ResultCache;
    pub use hcrf_telemetry::{Telemetry, Verbosity};
}
