//! Exact-count determinism: the same seed gives the same inputs and the
//! same count metrics; another seed gives other requests.

use cned_perfbench::gen::{inputs, Scale, Stream, Workload};
use cned_perfbench::trace::replay_layers;

/// Per-layer metrics that are counts (or ratios of counts): they must
/// not depend on the clock.
const COUNTS: [&str; 11] = [
    "core.dc_gate_reject_share",
    "search.evals_per_read",
    "search.build_evals",
    "search.compactions",
    "plan.predicted_evals",
    "plan.eval_error",
    "plan.cache_hit_share",
    "plan.cache_seeded_share",
    "plan.cache_invalidations",
    "store.snapshot_bytes",
    "store.wal_bytes_per_write",
];

#[test]
fn inputs_follow_the_seed() {
    for workload in Workload::ALL {
        let scale = Scale::small(workload);
        let a = inputs(workload, scale, 7);
        let prefix_a = Stream::prefix(workload, &a, 7, 200);
        assert_eq!(a, inputs(workload, scale, 7), "{}", workload.name());
        assert_eq!(
            prefix_a,
            Stream::prefix(workload, &a, 7, 200),
            "{}",
            workload.name()
        );
        // The dictionary is fixed; everything sent to it follows the seed.
        let b = inputs(workload, scale, 8);
        assert_eq!(a.corpus, b.corpus, "{}", workload.name());
        assert!(a.tail.is_empty() || a.tail != b.tail, "{}", workload.name());
        assert!(
            a.warmup.is_empty() || a.warmup != b.warmup,
            "{}",
            workload.name()
        );
        assert_ne!(
            prefix_a,
            Stream::prefix(workload, &b, 8, 200),
            "{}",
            workload.name()
        );
    }
}

#[test]
fn count_metrics_repeat_exactly() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-determinism");
    for workload in Workload::ALL {
        let scale = Scale::small(workload);
        let seed = 11;
        let input = inputs(workload, scale, seed);
        let runs: Vec<Vec<(&str, u64)>> = (0..2)
            .map(|_| {
                let traced = replay_layers(workload, scale, seed, &input, &dir)
                    .expect("the replay covers the workload's shape");
                assert_eq!(traced.mismatches, 0, "{}", workload.name());
                let counts: Vec<(&str, u64)> = traced
                    .metrics
                    .iter()
                    .filter(|(name, _, _)| COUNTS.contains(name))
                    .map(|&(name, _, value)| (name, value.to_bits()))
                    .collect();
                assert_eq!(counts.len(), COUNTS.len());
                counts
            })
            .collect();
        assert_eq!(runs[0], runs[1], "{}", workload.name());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
