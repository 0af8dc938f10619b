//! Satellite coverage: `xCy-Sz` notation round-trips for every configuration
//! the repo names (Table 5's 15 points plus everything the design-space
//! generator produces), and stability of the content-addressed cache keys
//! (same configuration + same suite ⇒ same key, on independently rebuilt
//! inputs).

use hcrf::driver::suite_fingerprint;
use hcrf::experiments::TABLE5_CONFIGS;
use hcrf_explore::{CacheKey, DesignSpace, Scenario};
use hcrf_machine::{MachineConfig, RfOrganization};
use hcrf_sched::SchedulerParams;
use hcrf_workloads::small_suite;

#[test]
fn table5_configs_round_trip_through_parse_and_display() {
    for name in TABLE5_CONFIGS {
        let parsed = RfOrganization::parse(name)
            .unwrap_or_else(|e| panic!("Table 5 config {name} failed to parse: {e}"));
        assert_eq!(parsed.to_string(), name, "display of {name} changed");
        let reparsed = RfOrganization::parse(&parsed.to_string()).unwrap();
        assert_eq!(reparsed, parsed, "{name} did not round-trip");
    }
}

#[test]
fn generator_names_round_trip_through_parse_and_display() {
    let space = DesignSpace {
        // Widen beyond the defaults so non-power-of-two sizes round-trip too.
        bank_sizes: vec![8, 16, 24, 32, 64, 128, 256],
        max_total_regs: 512,
        ..Default::default()
    };
    let orgs = space.enumerate();
    assert!(
        orgs.len() > 50,
        "only {} organizations generated",
        orgs.len()
    );
    for rf in orgs {
        let name = rf.to_string();
        let parsed = RfOrganization::parse(&name)
            .unwrap_or_else(|e| panic!("generated name {name} failed to parse: {e}"));
        assert_eq!(parsed, rf, "{name} did not round-trip");
    }
}

#[test]
fn cache_keys_are_stable_across_independent_constructions() {
    // Rebuild suite and machine from scratch twice — as two separate runs of
    // the explore CLI would — and require identical keys.
    let key = |config: &str, extra: usize| {
        let machine = MachineConfig::paper_baseline(RfOrganization::parse(config).unwrap());
        let suite = small_suite(extra);
        CacheKey::for_run(
            &machine,
            suite_fingerprint(&suite),
            &SchedulerParams::default().without_schedule(),
            Scenario::Ideal,
            64,
        )
    };
    for config in ["S128", "4C32S16", "8C16S16", "2C64"] {
        let a = key(config, 12);
        let b = key(config, 12);
        assert_eq!(a, b, "{config}: key changed between constructions");
        assert_eq!(a.digest(), b.digest());
    }
}

#[test]
fn cache_keys_separate_every_component() {
    let machine = |c: &str| MachineConfig::paper_baseline(RfOrganization::parse(c).unwrap());
    let fp = suite_fingerprint(&small_suite(0));
    let params = SchedulerParams::default().without_schedule();
    let base = CacheKey::for_run(&machine("4C32S16"), fp, &params, Scenario::Ideal, 64);

    let mut digests = vec![
        base.digest(),
        // different organization
        CacheKey::for_run(&machine("4C16S16"), fp, &params, Scenario::Ideal, 64).digest(),
        // different suite
        CacheKey::for_run(
            &machine("4C32S16"),
            suite_fingerprint(&small_suite(1)),
            &params,
            Scenario::Ideal,
            64,
        )
        .digest(),
        // different scheduler parameters
        CacheKey::for_run(
            &machine("4C32S16"),
            fp,
            &SchedulerParams::baseline36(),
            Scenario::Ideal,
            64,
        )
        .digest(),
        // different scenario
        CacheKey::for_run(&machine("4C32S16"), fp, &params, Scenario::Real, 64).digest(),
        // different simulation depth
        CacheKey::for_run(&machine("4C32S16"), fp, &params, Scenario::Ideal, 128).digest(),
    ];
    digests.sort_unstable();
    digests.dedup();
    assert_eq!(digests.len(), 6, "cache key components collided");
}

/// Golden digest: the suite fingerprint is part of the persistent cache
/// address, so an *accidental* change to the workload generator, the vendored
/// RNG stream or the stable-hash encoding must fail loudly here. When such a
/// change is deliberate, update this value and bump
/// `hcrf_explore::CACHE_FORMAT_VERSION` so stale entries miss instead of
/// colliding.
#[test]
fn suite_fingerprint_matches_golden_value() {
    let fp = suite_fingerprint(&small_suite(4));
    assert_eq!(
        fp, GOLDEN_SMALL_SUITE_4_FINGERPRINT,
        "suite fingerprint drifted: got {fp:#018x}"
    );
}

const GOLDEN_SMALL_SUITE_4_FINGERPRINT: u64 = 0xb7d3_ea47_8fa0_0842;
