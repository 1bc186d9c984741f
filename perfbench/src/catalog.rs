//! Every metric the benchmark reports: its unit, which direction is
//! better and, for a layer metric, which end-to-end metric it should move
//! on which workload. `BENCHMARK.json` lists the same names and units.

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// For a layer metric: the end-to-end metric and workloads it should
    /// move; for an end-to-end metric, what it measures.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        moves,
    }
}

/// End-to-end metrics, reported by a run with `--trace 0`.
pub const END_TO_END: [Metric; 6] = [
    m(
        "wall_s",
        "s",
        "lower",
        "host time of one workload run after set-up: IC + PIC drivers and the report analyses",
    ),
    m(
        "cpu_s",
        "s",
        "lower",
        "user + system CPU time over the same interval",
    ),
    m(
        "setup_s",
        "s",
        "lower",
        "input generation, quality reference and Dataset::create for both engines",
    ),
    m(
        "peak_rss_mb",
        "MB",
        "lower",
        "peak resident memory of the benchmark process",
    ),
    m(
        "sim_speedup_x",
        "x",
        "higher",
        "simulated IC time / PIC time (deterministic)",
    ),
    m(
        "sim_traffic_x",
        "x",
        "higher",
        "network bytes charged by IC / by PIC (deterministic)",
    ),
];

/// Per-layer metrics, reported by a run with `--trace 1`.
pub const PER_LAYER: [Metric; 29] = [
    m("apps.gen_s", "s", "lower", "setup_s (all workloads)"),
    m(
        "apps.solve_ms_mean",
        "ms",
        "lower",
        "wall_s on nn-solve and kmeans-fig2",
    ),
    m(
        "apps.solve_ms_max",
        "ms",
        "lower",
        "wall_s on nn-solve and kmeans-fig2",
    ),
    m(
        "apps.solve_skew",
        "ratio",
        "lower",
        "wall_s on kmeans-fig2 (load-balance headroom)",
    ),
    m("dfs.create_ms", "ms", "lower", "setup_s on kmeans-fig2"),
    m(
        "dfs.overwrite_us",
        "us",
        "lower",
        "wall_s on linsolve-sweep",
    ),
    m("driver.ic_s", "s", "lower", "wall_s (all workloads)"),
    m("driver.pic_s", "s", "lower", "wall_s (all workloads)"),
    m(
        "driver.ic_iter_ms",
        "ms",
        "lower",
        "wall_s on kmeans-fig2 and linsolve-sweep",
    ),
    m(
        "driver.ic_iterations",
        "count",
        "lower",
        "exact; must not move under host-only changes",
    ),
    m(
        "driver.be_rounds",
        "count",
        "lower",
        "exact; must not move under host-only changes",
    ),
    m(
        "driver.topoff_iterations",
        "count",
        "lower",
        "exact; must not move under host-only changes",
    ),
    m(
        "driver.local_iterations",
        "count",
        "lower",
        "exact; must not move under host-only changes",
    ),
    m("engine.iter_ms", "ms", "lower", "wall_s on kmeans-fig2"),
    m(
        "engine.job_fixed_us",
        "us",
        "lower",
        "wall_s on linsolve-sweep",
    ),
    m("engine.map_ms", "ms", "lower", "wall_s on kmeans-fig2"),
    m(
        "engine.partition_ms",
        "ms",
        "lower",
        "wall_s on kmeans-fig2",
    ),
    m("engine.reduce_ms", "ms", "lower", "wall_s on kmeans-fig2"),
    m(
        "scheduler.phase_us",
        "us",
        "lower",
        "wall_s on linsolve-sweep and kmeans-fig2",
    ),
    m("event.ns_per_op", "ns", "lower", "wall_s on linsolve-sweep"),
    m("pool.collect_us", "us", "lower", "wall_s on linsolve-sweep"),
    m(
        "pool.busy_frac",
        "ratio",
        "higher",
        "wall_s on kmeans-fig2 and nn-solve",
    ),
    m("trace.spans", "count", "lower", "wall_s on linsolve-sweep"),
    m("trace.tracer_s", "s", "lower", "wall_s on linsolve-sweep"),
    m(
        "analysis.validate_ms",
        "ms",
        "lower",
        "wall_s on linsolve-sweep",
    ),
    m(
        "analysis.perf_ms",
        "ms",
        "lower",
        "wall_s on linsolve-sweep",
    ),
    m(
        "analysis.util_ms",
        "ms",
        "lower",
        "wall_s on linsolve-sweep",
    ),
    m(
        "analysis.monitor_ms",
        "ms",
        "lower",
        "wall_s on linsolve-sweep",
    ),
    m(
        "unattributed_s",
        "s",
        "lower",
        "wall_s minus the summed self time of the timed layer calls",
    ),
];

/// Look a metric up by name in either list.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}
