//! One benchmark run: set up and run a workload repeatedly for the
//! requested time, check every comparison, and reduce the repetitions to
//! the reported metrics.

use crate::catalog;
use crate::measure::{median, peak_rss_mb, quantile, SpanTotal, Spans};
use crate::workload::{engine_phase_ms, network_bytes, Outcome, Probe, SimStats, Size, Workload};
use std::collections::BTreeMap;
use std::time::Instant;

/// Workload runs measured at the least, however short `seconds` is.
const MIN_REPS: usize = 3;

/// `setup_s` is the median of set-ups timed back to back, at least this
/// many and for at least [`MIN_SETUP_SECS`].
const MIN_SETUPS: usize = 10;
/// See [`MIN_SETUPS`].
const MIN_SETUP_SECS: f64 = 1.0;

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Input scale.
    pub size: Size,
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Measuring time; repetitions continue until it has passed.
    pub seconds: f64,
    /// Per-layer run with benchmark spans (`true`) or end-to-end run.
    pub trace: bool,
    /// Pool width of the measured repetitions.
    pub threads: usize,
}

/// A reported value.
#[derive(Debug, Clone)]
pub struct Value {
    /// The catalog entry.
    pub metric: &'static catalog::Metric,
    /// The reported value (a median over `samples` for host times).
    pub value: f64,
    /// First and third quartile over the samples.
    pub quartiles: (f64, f64),
    /// Repetitions the value was taken from.
    pub samples: usize,
}

/// The result of one run.
#[derive(Debug)]
pub struct Report {
    /// Reported metrics, in catalog order.
    pub values: Vec<Value>,
    /// Comparisons run.
    pub attempted: usize,
    /// Comparisons that failed the output or determinism check.
    pub failed: usize,
    /// What failed, one line each.
    pub problems: Vec<String>,
    /// Largest excess of PIC's final model over IC's, with its tolerance.
    pub worst_excess: (f64, f64),
    /// Per-name totals of every benchmark span (traced runs).
    pub spans: BTreeMap<&'static str, SpanTotal>,
}

/// Host measurements of one repetition.
struct Rep {
    wall_s: f64,
    cpu_s: f64,
    spans: BTreeMap<&'static str, SpanTotal>,
    probe: Option<Probe>,
    engine_ms: [f64; 3],
}

/// Tallies comparisons against the first repetition's simulated
/// statistics.
struct Tally {
    reference: Option<Vec<SimStats>>,
    /// Largest excess of PIC's final model over IC's, with its tolerance.
    worst_excess: (f64, f64),
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Tally {
    /// Count the outcomes of one repetition; `label` names the repetition
    /// in problem lines.
    fn add(&mut self, label: &str, outcomes: &[Outcome]) {
        let sims: Vec<SimStats> = outcomes.iter().map(|o| o.sim.clone()).collect();
        let reference = self.reference.get_or_insert_with(|| sims.clone());
        for (i, o) in outcomes.iter().enumerate() {
            self.attempted += 1;
            if o.excess.0.total_cmp(&self.worst_excess.0).is_gt() {
                self.worst_excess = o.excess;
            }
            let mut bad: Vec<String> = o.problems.clone();
            if reference[i] != o.sim {
                bad.push("simulated statistics differ from the first repetition".into());
            }
            if !bad.is_empty() {
                self.failed += 1;
                self.problems
                    .extend(bad.into_iter().map(|p| format!("{label} case {i}: {p}")));
            }
        }
    }

    /// Compare one untraced repetition's statistics (no output to check).
    fn add_untraced(&mut self, sims: &[SimStats]) {
        let reference = self
            .reference
            .as_ref()
            .expect("a traced repetition ran first");
        for (i, s) in sims.iter().enumerate() {
            self.attempted += 1;
            if reference[i] != *s {
                self.failed += 1;
                self.problems.push(format!(
                    "untraced case {i}: simulated statistics differ from the traced run"
                ));
            }
        }
    }
}

/// Run the benchmark.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let spans = Spans::new(cfg.trace);
    let quiet = Spans::new(false);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(cfg.threads)
        .build()
        .map_err(|e| e.to_string())?;
    // The determinism repetition runs at the other of the widths 1 and 2.
    let other_width = if cfg.threads == 1 { 2 } else { 1 };
    let other = rayon::ThreadPoolBuilder::new()
        .num_threads(other_width)
        .build()
        .map_err(|e| e.to_string())?;

    // `setup_s`: set-ups timed back to back (end-to-end runs only).
    let mut setups: Vec<f64> = Vec::new();
    let t0 = Instant::now();
    while !cfg.trace && (setups.len() < MIN_SETUPS || t0.elapsed().as_secs_f64() < MIN_SETUP_SECS) {
        let t = Instant::now();
        let cases = pool.install(|| cfg.workload.setup(cfg.size, cfg.seed, &quiet));
        setups.push(t.elapsed().as_secs_f64());
        drop(cases);
    }

    let mut tally = Tally {
        reference: None,
        worst_excess: (f64::NEG_INFINITY, 0.0),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    // Determinism across pool widths: a first repetition at the other
    // width sets the simulated statistics every timed repetition must
    // reproduce exactly. Running it first also keeps one-time lazy
    // initialisation out of the timed repetitions.
    let cases = other.install(|| cfg.workload.setup(cfg.size, cfg.seed, &quiet));
    let outcomes: Vec<Outcome> = other.install(|| {
        cases
            .into_iter()
            .map(|c| c.run(&quiet))
            .collect::<Result<_, _>>()
    })?;
    tally.add(&format!("width-{other_width} rep"), &outcomes);

    let mut reps: Vec<Rep> = Vec::new();
    let mut trace_spans = 0usize;
    let start = Instant::now();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < cfg.seconds {
        let mark = spans.mark();
        let cases =
            pool.install(|| spans.time("setup", || cfg.workload.setup(cfg.size, cfg.seed, &spans)));

        let outcomes: Vec<Outcome> = pool.install(|| {
            cases
                .into_iter()
                .map(|c| c.run(&spans))
                .collect::<Result<_, _>>()
        })?;
        let wall_s = outcomes.iter().map(|o| o.wall_s).sum();
        let cpu_s = outcomes.iter().map(|o| o.cpu_s).sum();
        tally.add(&format!("rep {}", reps.len() + 1), &outcomes);
        trace_spans = outcomes.iter().map(|o| o.trace_spans).sum();

        let (mut probe, mut engine_ms) = (None, [0.0; 3]);
        if cfg.trace {
            let cases = pool.install(|| cfg.workload.setup(cfg.size, cfg.seed, &quiet));
            let untraced: Vec<SimStats> =
                pool.install(|| cases.iter().map(|c| c.run_untraced(&spans)).collect());
            tally.add_untraced(&untraced);
            pool.install(|| {
                probe = Some(cases[0].probe(&spans, cfg.seed));
                let (spec, records, splits) = cases[0].shape();
                engine_ms = engine_phase_ms(&spec, records, splits, &spans);
            });
        }
        reps.push(Rep {
            wall_s,
            cpu_s,
            spans: spans.totals_since(mark),
            probe,
            engine_ms,
        });
    }

    let reference = tally
        .reference
        .clone()
        .expect("at least one repetition ran");
    let values = if cfg.trace {
        layer_values(cfg, &reps, &reference, trace_spans)
    } else {
        end_to_end_values(&reps, &setups, &reference)?
    };
    Ok(Report {
        values,
        attempted: tally.attempted,
        failed: tally.failed,
        problems: tally.problems,
        worst_excess: tally.worst_excess,
        spans: spans.totals_since(0),
    })
}

/// A value taken from every repetition, reported as the median.
fn over_reps(name: &str, reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Value {
    over_samples(name, &reps.iter().map(f).collect::<Vec<_>>())
}

/// The median of `samples`.
fn over_samples(name: &str, samples: &[f64]) -> Value {
    Value {
        metric: catalog::find(name).expect("metric is in the catalog"),
        value: median(samples),
        quartiles: (quantile(samples, 0.25), quantile(samples, 0.75)),
        samples: samples.len(),
    }
}

/// A value that does not vary between repetitions.
fn exact(name: &str, value: f64) -> Value {
    Value {
        metric: catalog::find(name).expect("metric is in the catalog"),
        value,
        quartiles: (value, value),
        samples: 1,
    }
}

fn end_to_end_values(
    reps: &[Rep],
    setups: &[f64],
    sims: &[SimStats],
) -> Result<Vec<Value>, String> {
    let ic_s: f64 = sims.iter().map(|s| s.ic_time_s).sum();
    let pic_s: f64 = sims.iter().map(|s| s.pic_time_s).sum();
    let ic_bytes: u64 = sims.iter().map(|s| network_bytes(&s.ic_traffic)).sum();
    let pic_bytes: u64 = sims.iter().map(|s| network_bytes(&s.pic_traffic)).sum();
    Ok(vec![
        over_reps("wall_s", reps, |r| r.wall_s),
        over_reps("cpu_s", reps, |r| r.cpu_s),
        over_samples("setup_s", setups),
        exact("peak_rss_mb", peak_rss_mb()?),
        exact("sim_speedup_x", ic_s / pic_s),
        exact("sim_traffic_x", ic_bytes as f64 / pic_bytes as f64),
    ])
}

fn layer_values(cfg: &Config, reps: &[Rep], sims: &[SimStats], trace_spans: usize) -> Vec<Value> {
    let total = |r: &Rep, name: &str| r.spans.get(name).map_or(0.0, |t| t.total_s);
    fn probe(r: &Rep) -> &Probe {
        r.probe
            .as_ref()
            .expect("traced repetitions probe the layers")
    }
    let solve_mean = |r: &Rep| {
        let ms = &probe(r).solve_ms;
        ms.iter().sum::<f64>() / ms.len() as f64
    };
    let solve_max = |r: &Rep| probe(r).solve_ms.iter().copied().fold(0.0, f64::max);
    let ic_iterations: usize = sims.iter().map(|s| s.ic_iterations).sum();
    let count = |f: fn(&SimStats) -> usize| sims.iter().map(f).sum::<usize>() as f64;
    let local: usize = sims
        .iter()
        .flat_map(|s| s.local_iterations.iter().flatten())
        .sum();
    vec![
        over_reps("apps.gen_s", reps, |r| total(r, "apps.gen")),
        over_reps("apps.solve_ms_mean", reps, solve_mean),
        over_reps("apps.solve_ms_max", reps, solve_max),
        over_reps("apps.solve_skew", reps, |r| solve_max(r) / solve_mean(r)),
        over_reps("dfs.create_ms", reps, |r| total(r, "dfs.create") * 1e3),
        over_reps("dfs.overwrite_us", reps, |r| probe(r).overwrite_us),
        over_reps("driver.ic_s", reps, |r| total(r, "driver.ic")),
        over_reps("driver.pic_s", reps, |r| total(r, "driver.pic")),
        over_reps("driver.ic_iter_ms", reps, |r| {
            total(r, "driver.ic") * 1e3 / ic_iterations as f64
        }),
        exact("driver.ic_iterations", ic_iterations as f64),
        exact("driver.be_rounds", count(|s| s.be_rounds)),
        exact("driver.topoff_iterations", count(|s| s.topoff_iterations)),
        exact("driver.local_iterations", local as f64),
        over_reps("engine.iter_ms", reps, |r| probe(r).iter_ms),
        over_reps("engine.job_fixed_us", reps, |r| probe(r).job_fixed_us),
        over_reps("engine.map_ms", reps, |r| r.engine_ms[0]),
        over_reps("engine.partition_ms", reps, |r| r.engine_ms[1]),
        over_reps("engine.reduce_ms", reps, |r| r.engine_ms[2]),
        over_reps("scheduler.phase_us", reps, |r| probe(r).phase_us),
        over_reps("event.ns_per_op", reps, |r| probe(r).event_ns),
        over_reps("pool.collect_us", reps, |r| probe(r).collect_us),
        over_reps("pool.busy_frac", reps, |r| {
            r.cpu_s / (r.wall_s * cfg.threads as f64)
        }),
        exact("trace.spans", trace_spans as f64),
        over_reps("trace.tracer_s", reps, |r| {
            total(r, "driver.ic") + total(r, "driver.pic")
                - total(r, "driver.ic.untraced")
                - total(r, "driver.pic.untraced")
        }),
        over_reps("analysis.validate_ms", reps, |r| {
            total(r, "analysis.validate") * 1e3
        }),
        over_reps("analysis.perf_ms", reps, |r| {
            total(r, "analysis.perf") * 1e3
        }),
        over_reps("analysis.util_ms", reps, |r| {
            total(r, "analysis.util") * 1e3
        }),
        over_reps("analysis.monitor_ms", reps, |r| {
            total(r, "analysis.monitor") * 1e3
        }),
        over_reps("unattributed_s", reps, |r| {
            r.spans.get("run").map_or(0.0, |t| t.self_s)
        }),
    ]
}
