//! Acceptance tests for the DESIGN.md §14 host profiler: the per-stage
//! host times must reconcile with real wall-clock, the trend measurement
//! must be deterministic in its exact-gated columns, and work outside a
//! profiled region must record nothing into it.
//!
//! Each test profiles its own region with `hostprof::profile`, so the
//! tests run in parallel without seeing each other's scopes.

use pic_bench::experiments::common::{compare, cost};
use pic_bench::experiments::{report as perf, ExperimentCtx};
use pic_bench::host_trend;
use pic_simnet::hostprof::{self, Stage};

/// The engine-level stages whose scopes never overlap each other. The
/// driver rollups (`ic_iterate`, `pic_solve`, `pic_merge`) nest these
/// and are excluded — summing them too would double-count.
const ENGINE_STAGES: [Stage; 10] = [
    Stage::Map,
    Stage::Combine,
    Stage::Partition,
    Stage::SortMergeGroup,
    Stage::Reduce,
    Stage::ShuffleMaterialization,
    Stage::DfsSerialization,
    Stage::DfsDeserialization,
    Stage::EventQueueOps,
    Stage::Schedule,
];

/// Fig. 2 k-means on a single-thread pool: the non-overlapping
/// engine-level stage times must sum to within 20% of the engine's
/// wall-clock. "Engine wall-clock" is the `ic_iterate` driver rollup —
/// on a one-thread pool it is literally the wall time spent inside the
/// engine's `iterate` calls (IC run plus PIC top-off), and the
/// fine-grained stages nest inside it, so the two are independent
/// measurements of the same region at different granularities. The band
/// absorbs both directions of drift: uninstrumented engine glue (task
/// bookkeeping, KV sizing) under-counts, while stage work outside
/// `iterate` (dataset serialization, inter-iteration model broadcasts
/// driving the event queue) over-counts. A one-thread pool is essential
/// — on a parallel pool per-stage times are CPU-seconds summed across
/// workers and can legitimately exceed any wall-clock.
#[test]
fn engine_stage_times_reconcile_with_wall_clock() {
    use pic_apps::kmeans::{gaussian_mixture, init_random_centroids, Centroids, KMeansApp};

    let (n, k, dim) = (8_000, 100, 3);
    let app = KMeansApp::new(k, dim, 1.0);
    let pts = gaussian_mixture(n, k, dim, 1000.0, 40.0, 21);
    let init = Centroids::new(init_random_centroids(k, dim, 1000.0, 5));
    let stride = (n / 2_000).max(1);
    let sample: Vec<_> = pts.iter().step_by(stride).cloned().collect();
    let reference = app.solve_reference(&sample, &init, 300);
    let app = app.with_eval_sample(sample, &reference);
    let spec = pic_simnet::ClusterSpec::medium();

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let t0 = std::time::Instant::now();
    let (cmp, profile) = hostprof::profile(|| {
        pool.install(|| compare(&spec, &app, pts, init, 256, 64, cost::kmeans()))
    });
    let wall = t0.elapsed().as_secs_f64();
    assert!(
        cmp.ic.iterations > 0 && cmp.pic.be_iterations > 0,
        "comparison must actually run"
    );

    let covered: f64 = ENGINE_STAGES
        .iter()
        .filter_map(|s| profile.get(*s))
        .map(|s| s.total_s)
        .sum();
    assert!(covered > 0.0, "no engine stages recorded");
    let engine_wall = profile
        .get(Stage::IcIterate)
        .expect("iterate rollup recorded")
        .total_s;
    let gap = (covered - engine_wall).abs() / engine_wall;
    assert!(
        gap <= 0.20,
        "engine stages sum to {covered:.4}s vs {engine_wall:.4}s engine wall \
         ({:.1}% gap)\n{}",
        100.0 * gap,
        profile.render()
    );
    // Sanity on the nesting rule: each driver rollup stays within the
    // overall wall-clock on the one-thread pool (they would blow past it
    // if their scopes overlapped each other).
    for s in [Stage::IcIterate, Stage::PicSolve, Stage::PicMerge] {
        if let Some(p) = profile.get(s) {
            assert!(
                p.total_s <= wall * 1.05,
                "{}: {} > wall {}",
                s.label(),
                p.total_s,
                wall
            );
        }
    }
}

/// The trend measurement's exact-gated columns (stage set, calls, bytes)
/// are identical across repeated measurements, so a fresh run gates
/// cleanly against itself — the re-run half of the CI contract.
#[test]
fn host_trend_rerun_passes_its_own_gate() {
    let a = host_trend::measure(0.01, 2).unwrap();
    let b = host_trend::measure(0.01, 2).unwrap();
    let errs = host_trend::check(&a, &b, host_trend::SHARE_BAND);
    assert!(errs.is_empty(), "{errs:?}");

    // And the CSV survives a disk round-trip without losing the gate.
    let parsed = host_trend::from_csv(&host_trend::to_csv(&a)).unwrap();
    let errs = host_trend::check(&parsed, &b, host_trend::SHARE_BAND);
    assert!(errs.is_empty(), "{errs:?}");

    // An injected cliff (one stage's time inflated 100x) must fail it.
    let mut cliff = b.clone();
    let busiest = (0..cliff.len())
        .max_by(|&x, &y| cliff[x].share.partial_cmp(&cliff[y].share).unwrap())
        .unwrap();
    cliff[busiest].median_total_s *= 100.0;
    let sum: f64 = cliff.iter().map(|r| r.median_total_s).sum();
    for r in &mut cliff {
        r.share = r.median_total_s / sum;
    }
    let errs = host_trend::check(&a, &cliff, host_trend::SHARE_BAND);
    assert!(!errs.is_empty(), "inflated stage must trip the share gate");
}

/// A suite run on a thread outside the profiled region records nothing
/// into it, even while the region is open — the scopes threaded through
/// the engine only reach the profiler of the thread that opened them.
#[test]
fn unprofiled_work_records_nothing() {
    let ctx = ExperimentCtx { scale: 0.01 };
    let ((), profile) = hostprof::profile(|| {
        std::thread::scope(|s| {
            s.spawn(|| perf::collect(&ctx, &["linsolve"]).unwrap());
        });
    });
    assert!(profile.stages.is_empty(), "{}", profile.render());
}
