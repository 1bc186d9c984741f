//! The benchmark's workloads: seeded inputs, one IC-vs-PIC comparison per
//! case, the output checks run on every comparison, and the layer probes
//! of the traced run.

use crate::measure::{cpu_seconds, mean_call_secs, median, Spans};
use pic_apps::kmeans::{
    gaussian_mixture, init_random_centroids, sse, AssignMapper, AverageReducer, Centroids,
    KMeansApp, Point, SumCombiner,
};
use pic_apps::linsolve::{diag_dominant_system, LinSolveApp};
use pic_apps::neuralnet::{ocr_like_split, Mlp, NeuralNetApp};
use pic_bench::experiments::common::cost::{self, AppCost};
use pic_core::prelude::*;
use pic_core::report::{IcReport, PicReport};
use pic_mapreduce::traits::Value;
use pic_mapreduce::{ByteSize, Dataset, Engine, JobConfig, MapContext, Mapper, Timing};
use pic_simnet::event::EventQueue;
use pic_simnet::trace::check;
use pic_simnet::{
    ClusterSpec, Monitor, MonitorConfig, PerfReport, SlotScheduler, TaskSpec, Trace, TrafficClass,
    TrafficSnapshot, UtilizationReport,
};
use rayon::prelude::*;
use std::hint::black_box;
use std::marker::PhantomData;
use std::time::Instant;

/// A named set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper Fig. 2: K-means on the 64-node preset.
    KmeansFig2,
    /// MLP trainings on the 6-node preset; PIC time is dominated by a few
    /// heavy, balanced `solve_local` tasks.
    NnSolve,
    /// Many small Jacobi comparisons back to back on the 6-node preset;
    /// per-job fixed costs dominate.
    LinsolveSweep,
}

/// Input scale: the benchmark's own sizes, or a tiny smoke size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Seconds-scale inputs for the self-test.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::KmeansFig2,
        Workload::NnSolve,
        Workload::LinsolveSweep,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KmeansFig2 => "kmeans-fig2",
            Workload::NnSolve => "nn-solve",
            Workload::LinsolveSweep => "linsolve-sweep",
        }
    }

    /// Resolve a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generate the inputs from `seed` and load them into fresh engines:
    /// one prepared comparison per case.
    pub fn setup(self, size: Size, seed: u64, spans: &Spans) -> Vec<Box<dyn Case>> {
        match self {
            Workload::KmeansFig2 => {
                let g = KmeansGeometry::fig2(size);
                let (app, pts, init) = spans.time("apps.gen", || {
                    let (pts, init) = g.inputs();
                    // Quality reference as in the repository's Fig. 2 run:
                    // the sequential solution on a ~2k-point subsample,
                    // here starting at a seeded offset. It runs a fixed 300
                    // Lloyd steps (a zero threshold never stops it early),
                    // so its cost does not depend on the sample.
                    let stride = (g.n / 2_000).max(1);
                    let offset = stream(seed, 1) as usize % stride;
                    let sample: Vec<Point> =
                        pts.iter().skip(offset).step_by(stride).cloned().collect();
                    let reference =
                        KMeansApp::new(g.k, g.dim, 0.0).solve_reference(&sample, &init, 300);
                    let app = KMeansApp::new(g.k, g.dim, 1.0);
                    (app.with_eval_sample(sample, &reference), pts, init)
                });
                let case = Prepared::new(
                    spans,
                    ClusterSpec::medium(),
                    app,
                    pts,
                    init,
                    g.splits,
                    g.partitions,
                    cost::kmeans(),
                    // PIC's clustering cost on the whole input within 10%
                    // of IC's. (The app's own error is measured on a 2k
                    // subsample, on which the two costs differ by up to
                    // 2x either way.)
                    Quality {
                        budgeted: false,
                        excess: |_, data, ic, pic| {
                            let cost =
                                |m| data.splits.iter().map(|s| sse(&s.records, m)).sum::<f64>();
                            cost(pic) / cost(ic) - 1.0
                        },
                        tolerance: 0.1,
                    },
                );
                vec![Box::new(case)]
            }
            Workload::NnSolve => {
                let (draws, n) = match size {
                    Size::Full => (NN_DRAWS, 1_000),
                    Size::Tiny => (1, 300),
                };
                let partitions = 12;
                (0..draws as u64)
                    .map(|i| {
                        let (app, train, init) = spans.time("apps.gen", || {
                            let (train, valid) =
                                ocr_like_split(n, n / 10, 10, 64, 0.2, stream(seed, 2 * i + 1));
                            let mut app = NeuralNetApp::new(valid);
                            app.max_iterations = 60;
                            (app, train, Mlp::random(64, 32, 10, stream(seed, 2 * i + 2)))
                        });
                        let case = Prepared::new(
                            spans,
                            ClusterSpec::small(),
                            app,
                            train,
                            init,
                            partitions * 2,
                            partitions,
                            cost::neuralnet(),
                            // Validation misclassification rate, within 5
                            // points of IC's; training is budgeted in epochs.
                            Quality::error_gap(true, 0.05),
                        );
                        Box::new(case) as Box<dyn Case>
                    })
                    .collect()
            }
            Workload::LinsolveSweep => {
                let (systems, n, parts) = match size {
                    Size::Full => (LINSOLVE_SYSTEMS, 100, 5),
                    Size::Tiny => (2, 40, 4),
                };
                (0..systems)
                    .map(|i| {
                        let (app, rows) = spans.time("apps.gen", || {
                            let sys = diag_dominant_system(n, 0.05, stream(seed, 100 + i as u64));
                            let app = LinSolveApp::new(n, parts, 1e-8)
                                .with_exact(sys.exact.clone())
                                .with_rows(sys.rows.clone());
                            (app, sys.rows)
                        });
                        let case = Prepared::new(
                            spans,
                            ClusterSpec::small(),
                            app,
                            rows,
                            vec![0.0; n],
                            parts,
                            parts,
                            cost::linsolve(),
                            // L2 distance to the exact solution.
                            Quality::error_gap(false, 1e-6),
                        );
                        Box::new(case) as Box<dyn Case>
                    })
                    .collect()
            }
        }
    }
}

/// Host time of the map, partition and reduce phases of the public
/// K-means job types (milliseconds, median over repeated jobs, from the
/// [`JobStats`] the engine returns), over Fig. 2 points of the given
/// record and split counts on `spec`. On `kmeans-fig2` these are the
/// workload's own inputs.
///
/// [`JobStats`]: pic_mapreduce::JobStats
pub fn engine_phase_ms(
    spec: &ClusterSpec,
    records: usize,
    splits: usize,
    spans: &Spans,
) -> [f64; 3] {
    let (pts, init) = KmeansGeometry {
        n: records,
        splits,
        ..KmeansGeometry::fig2(Size::Full)
    }
    .inputs();
    let engine = Engine::new(spec.clone());
    let data = Dataset::create(&engine, "/perfbench/points", pts, splits);
    let cfg = IterScope::cluster(spec.nodes, cost::kmeans().timing, spec.nodes).job("assign");
    let (mut map, mut part, mut reduce) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    while map.len() < 3 || t0.elapsed().as_secs_f64() < 0.05 {
        engine.reset();
        let res = spans.time("engine.job", || {
            engine.run_with_combiner(
                &cfg,
                &data,
                &AssignMapper { model: &init },
                &SumCombiner,
                &AverageReducer,
            )
        });
        map.push(res.stats.host_map_s * 1e3);
        part.push(res.stats.host_partition_s * 1e3);
        reduce.push(res.stats.host_reduce_s * 1e3);
    }
    [median(&map), median(&part), median(&reduce)]
}

/// MLP trainings per `nn-solve` run. Host time per training depends on
/// the drawn data by up to ~15%, so a run averages several.
const NN_DRAWS: usize = 3;

/// Jacobi systems per `linsolve-sweep` run.
const LINSOLVE_SYSTEMS: usize = 12;

/// Decorrelated sub-seed `i` of a workload seed (SplitMix64 finaliser).
fn stream(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Shape of a K-means input.
#[derive(Debug, Clone, Copy)]
struct KmeansGeometry {
    n: usize,
    k: usize,
    dim: usize,
    splits: usize,
    partitions: usize,
}

impl KmeansGeometry {
    /// The paper's Fig. 2 configuration: k=100, dim=3, 256 splits, one
    /// partition per node of the 64-node preset.
    fn fig2(size: Size) -> Self {
        match size {
            Size::Full => KmeansGeometry {
                n: 100_000,
                k: 100,
                dim: 3,
                splits: 256,
                partitions: 64,
            },
            Size::Tiny => KmeansGeometry {
                n: 4_000,
                k: 10,
                dim: 3,
                splits: 16,
                partitions: 16,
            },
        }
    }

    /// The repository's Fig. 2 draw: a Gaussian mixture and random
    /// starting centroids from the seeds `repro --exp fig2` and
    /// `pic report` use. K-means from a random start is chaotic in its
    /// input (any perturbation of the points or the partitioning moves
    /// the IC iteration count and PIC's top-off by several times), so the
    /// draw is fixed and the workload seed picks the evaluation sample.
    fn inputs(&self) -> (Vec<Point>, Centroids) {
        const FIG2_DATA_SEED: u64 = 21;
        const FIG2_INIT_SEED: u64 = 5;
        let pts = gaussian_mixture(self.n, self.k, self.dim, 1000.0, 40.0, FIG2_DATA_SEED);
        let init = Centroids::new(init_random_centroids(
            self.k,
            self.dim,
            1000.0,
            FIG2_INIT_SEED,
        ));
        (pts, init)
    }
}

/// How much worse PIC's final model is than IC's, from the app, the input
/// and the two final models (IC's, then PIC's).
pub type Excess<A> = fn(
    &A,
    &Dataset<<A as IterativeApp>::Record>,
    &<A as IterativeApp>::Model,
    &<A as IterativeApp>::Model,
) -> f64;

/// What counts as a correct result for one app.
pub struct Quality<A: PicApp> {
    /// The app's convergence test is its iteration budget (epoch-budgeted
    /// training): a run is complete when it used the whole budget.
    pub budgeted: bool,
    /// How much worse PIC's final model is than IC's.
    pub excess: Excess<A>,
    /// The largest excess that passes.
    pub tolerance: f64,
}

impl<A: PicApp> Quality<A> {
    /// PIC's final error (the app's own metric) minus IC's.
    fn error_gap(budgeted: bool, tolerance: f64) -> Self {
        Quality {
            budgeted,
            excess: |app, _, ic, pic| match (app.error(ic), app.error(pic)) {
                (Some(ic), Some(pic)) => pic - ic,
                _ => f64::NAN,
            },
            tolerance,
        }
    }
}

/// The simulated statistics of one comparison. Host-only changes must
/// leave every field bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// IC total simulated seconds.
    pub ic_time_s: f64,
    /// PIC best-effort simulated seconds.
    pub be_time_s: f64,
    /// PIC top-off simulated seconds.
    pub topoff_time_s: f64,
    /// PIC total simulated seconds.
    pub pic_time_s: f64,
    /// IC iterations.
    pub ic_iterations: usize,
    /// PIC best-effort rounds.
    pub be_rounds: usize,
    /// PIC top-off iterations.
    pub topoff_iterations: usize,
    /// Local iterations per best-effort round and partition.
    pub local_iterations: Vec<Vec<usize>>,
    /// IC engine ledger.
    pub ic_traffic: TrafficSnapshot,
    /// PIC engine ledger.
    pub pic_traffic: TrafficSnapshot,
}

/// Bytes a run charged to the network for shuffle across nodes, model
/// update, broadcast and merge.
pub fn network_bytes(t: &TrafficSnapshot) -> u64 {
    t.shuffle_network()
        + t.model_update_total()
        + t.get(TrafficClass::Broadcast)
        + t.get(TrafficClass::Merge)
}

/// One checked comparison.
#[derive(Debug)]
pub struct Outcome {
    /// Its simulated statistics.
    pub sim: SimStats,
    /// Everything the output check found wrong (empty = correct).
    pub problems: Vec<String>,
    /// Spans in the IC and PIC engine traces.
    pub trace_spans: usize,
    /// How much worse PIC's final model is than IC's, and the tolerance
    /// it is checked against.
    pub excess: (f64, f64),
    /// Host seconds of the timed part: both drivers and the analyses.
    pub wall_s: f64,
    /// CPU seconds over the same interval.
    pub cpu_s: f64,
}

/// Host-time numbers of one case's layer probes.
#[derive(Debug)]
pub struct Probe {
    /// Serial `solve_local` milliseconds per partition, first
    /// best-effort round.
    pub solve_ms: Vec<f64>,
    /// Microseconds per `Dfs::overwrite` of one model.
    pub overwrite_us: f64,
    /// Milliseconds per cluster-wide `IterativeApp::iterate`.
    pub iter_ms: f64,
    /// Microseconds per no-op map-only job over the dataset.
    pub job_fixed_us: f64,
    /// Microseconds per map-phase schedule.
    pub phase_us: f64,
    /// Nanoseconds per event-queue push or pop.
    pub event_ns: f64,
    /// Microseconds per pool `par_iter().map().collect()` over the
    /// partitions.
    pub collect_us: f64,
}

/// A prepared comparison, type-erased so a workload can hold several apps.
pub trait Case {
    /// Run IC then PIC on the traced engines, then the checks and analyses
    /// `pic report` runs on their traces; check the results. The engines
    /// and their traces are freed before returning.
    fn run(self: Box<Self>, spans: &Spans) -> Result<Outcome, String>;
    /// The same comparison on untraced engines (the tracer's cost).
    fn run_untraced(&self, spans: &Spans) -> SimStats;
    /// Time this case's calls into single layers.
    fn probe(&self, spans: &Spans, seed: u64) -> Probe;
    /// The cluster, record count and split count of the input.
    fn shape(&self) -> (ClusterSpec, usize, usize);
}

/// Both engines hold the dataset; ledgers and clocks are reset.
struct Prepared<A: PicApp> {
    spec: ClusterSpec,
    app: A,
    init: A::Model,
    ic_engine: Engine,
    ic_data: Dataset<A::Record>,
    pic_engine: Engine,
    pic_data: Dataset<A::Record>,
    partitions: usize,
    cost: AppCost,
    quality: Quality<A>,
}

/// Everything one comparison produced.
pub struct Executed<M> {
    /// IC report.
    pub ic: IcReport<M>,
    /// PIC report.
    pub pic: PicReport<M>,
    /// IC engine trace.
    pub ic_trace: Trace,
    /// PIC engine trace.
    pub pic_trace: Trace,
    /// IC engine ledger.
    pub ic_traffic: TrafficSnapshot,
    /// PIC engine ledger.
    pub pic_traffic: TrafficSnapshot,
}

impl<M> Executed<M> {
    fn sim(&self) -> SimStats {
        SimStats {
            ic_time_s: self.ic.total_time_s,
            be_time_s: self.pic.be_time_s,
            topoff_time_s: self.pic.topoff_time_s,
            pic_time_s: self.pic.total_time_s,
            ic_iterations: self.ic.iterations,
            be_rounds: self.pic.be_iterations,
            topoff_iterations: self.pic.topoff_iterations,
            local_iterations: self.pic.local_iterations.clone(),
            ic_traffic: self.ic_traffic,
            pic_traffic: self.pic_traffic,
        }
    }
}

impl<A> Prepared<A>
where
    A: PicApp + QualityProbe,
    A::Record: Clone,
    A::Model: Clone,
{
    #[allow(clippy::too_many_arguments)]
    fn new(
        spans: &Spans,
        spec: ClusterSpec,
        app: A,
        records: Vec<A::Record>,
        init: A::Model,
        splits: usize,
        partitions: usize,
        cost: AppCost,
        quality: Quality<A>,
    ) -> Self {
        let ic_engine = Engine::new(spec.clone());
        let pic_engine = Engine::new(spec.clone());
        let (ic_data, pic_data) = spans.time("dfs.create", || {
            (
                Dataset::create(&ic_engine, "/perfbench/input", records.clone(), splits),
                Dataset::create(&pic_engine, "/perfbench/input", records, splits),
            )
        });
        // Loading input is not part of the measured run.
        ic_engine.reset();
        pic_engine.reset();
        Prepared {
            spec,
            app,
            init,
            ic_engine,
            ic_data,
            pic_engine,
            pic_data,
            partitions,
            cost,
            quality,
        }
    }

    fn ic_options(&self) -> IcOptions {
        IcOptions {
            timing: self.cost.timing.clone(),
            ..Default::default()
        }
    }

    fn pic_options(&self) -> PicOptions {
        PicOptions {
            partitions: self.partitions,
            timing: self.cost.timing.clone(),
            local_secs_per_record: Some(self.cost.local_secs),
            ..Default::default()
        }
    }

    /// Both drivers on the traced engines.
    fn execute(&self, spans: &Spans) -> Executed<A::Model> {
        let ic = spans.time("driver.ic", || {
            run_ic(
                &self.ic_engine,
                &self.app,
                &self.ic_data,
                self.init.clone(),
                &self.ic_options(),
            )
        });
        let pic = spans.time("driver.pic", || {
            run_pic(
                &self.pic_engine,
                &self.app,
                &self.pic_data,
                self.init.clone(),
                &self.pic_options(),
            )
        });
        Executed {
            ic,
            pic,
            ic_trace: self.ic_engine.trace(),
            pic_trace: self.pic_engine.trace(),
            ic_traffic: self.ic_engine.traffic(),
            pic_traffic: self.pic_engine.traffic(),
        }
    }

    /// The analyses `pic report` runs on both traces; returns where the
    /// traces and their reports disagree with the engines' ledgers.
    fn analyse(&self, ex: &Executed<A::Model>, spans: &Spans) -> Vec<String> {
        let mut problems = Vec::new();
        let mut take = |side: &str, r: Result<(), Vec<String>>| {
            if let Err(es) = r {
                problems.extend(es.into_iter().map(|e| format!("{side}: {e}")));
            }
        };
        let sides = [
            ("ic", &ex.ic_trace, &ex.ic_traffic),
            ("pic", &ex.pic_trace, &ex.pic_traffic),
        ];
        for (side, trace, ledger) in sides {
            take(
                side,
                spans.time("analysis.validate", || check::validate(trace, ledger)),
            );
        }
        for (side, trace, ledger) in sides {
            let perf = spans.time("analysis.perf", || PerfReport::from_trace(trace));
            take(side, perf.reconcile(ledger));
        }
        for (side, trace, ledger) in sides {
            let util = spans.time("analysis.util", || {
                UtilizationReport::from_trace(trace, &self.spec)
            });
            take(side, util.reconcile(ledger));
        }
        for (side, trace, _) in sides {
            let report = spans.time("analysis.monitor", || {
                Monitor::replay(MonitorConfig::new(self.spec.clone()), trace)
            });
            take(
                side,
                report.map(|r| drop(black_box(r))).map_err(|e| vec![e]),
            );
        }
        problems
    }

    /// The output check beyond the traces: both runs complete, and PIC's
    /// final model within the app's tolerance of IC's.
    fn check(&self, ex: &Executed<A::Model>, mut problems: Vec<String>) -> Outcome {
        let q = &self.quality;
        if q.budgeted {
            if ex.ic.iterations != self.app.max_iterations() {
                problems.push(format!(
                    "ic: ran {} of {} budgeted iterations",
                    ex.ic.iterations,
                    self.app.max_iterations()
                ));
            }
            if ex.pic.topoff_iterations != self.app.max_topoff_iterations() {
                problems.push(format!(
                    "pic: ran {} of {} budgeted top-off iterations",
                    ex.pic.topoff_iterations,
                    self.app.max_topoff_iterations()
                ));
            }
        } else {
            if !ex.ic.converged {
                problems.push(format!(
                    "ic: not converged after {} iterations",
                    ex.ic.iterations
                ));
            }
            if !ex.pic.topoff_converged {
                problems.push(format!(
                    "pic: top-off not converged after {} iterations",
                    ex.pic.topoff_iterations
                ));
            }
        }
        let excess = (q.excess)(
            &self.app,
            &self.ic_data,
            &ex.ic.final_model,
            &ex.pic.final_model,
        );
        if excess.is_nan() || excess > q.tolerance {
            problems.push(format!(
                "final quality: pic is worse than ic by {excess} (tolerance {})",
                q.tolerance
            ));
        }
        Outcome {
            sim: ex.sim(),
            problems,
            trace_spans: ex.ic_trace.spans.len() + ex.pic_trace.spans.len(),
            excess: (excess, q.tolerance),
            wall_s: 0.0,
            cpu_s: 0.0,
        }
    }
}

/// A mapper that emits nothing: a job of it costs only the engine's
/// per-job and per-task fixed work.
struct NoopMapper<I>(PhantomData<fn(&I)>);

impl<I: Value> Mapper for NoopMapper<I> {
    type In = I;
    type K = u64;
    type V = u64;

    fn map(&self, _record: &I, _ctx: &mut MapContext<u64, u64>) {}
}

impl<A> Case for Prepared<A>
where
    A: PicApp + QualityProbe,
    A::Record: Clone,
    A::Model: Clone,
{
    fn run(self: Box<Self>, spans: &Spans) -> Result<Outcome, String> {
        let cpu0 = cpu_seconds()?;
        let t0 = Instant::now();
        let (ex, problems) = spans.time("run", || {
            let ex = self.execute(spans);
            let problems = self.analyse(&ex, spans);
            (ex, problems)
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds()? - cpu0;
        Ok(Outcome {
            wall_s,
            cpu_s,
            ..self.check(&ex, problems)
        })
    }

    fn shape(&self) -> (ClusterSpec, usize, usize) {
        let splits = self.ic_data.splits.len();
        (self.spec.clone(), self.ic_data.total_records(), splits)
    }

    fn run_untraced(&self, spans: &Spans) -> SimStats {
        let ic_engine = Engine::untraced(self.spec.clone());
        let pic_engine = Engine::untraced(self.spec.clone());
        let records: Vec<A::Record> = self.ic_data.iter_records().cloned().collect();
        let splits = self.ic_data.splits.len();
        let ic_data = Dataset::create(&ic_engine, "/perfbench/input", records.clone(), splits);
        let pic_data = Dataset::create(&pic_engine, "/perfbench/input", records, splits);
        ic_engine.reset();
        pic_engine.reset();
        let ic = spans.time("driver.ic.untraced", || {
            run_ic(
                &ic_engine,
                &self.app,
                &ic_data,
                self.init.clone(),
                &self.ic_options(),
            )
        });
        let pic = spans.time("driver.pic.untraced", || {
            run_pic(
                &pic_engine,
                &self.app,
                &pic_data,
                self.init.clone(),
                &self.pic_options(),
            )
        });
        Executed {
            ic,
            pic,
            ic_trace: Trace::default(),
            pic_trace: Trace::default(),
            ic_traffic: ic_engine.traffic(),
            pic_traffic: pic_engine.traffic(),
        }
        .sim()
    }

    fn probe(&self, spans: &Spans, seed: u64) -> Probe {
        // First best-effort round, one partition at a time.
        let parts = self.partitions;
        let part_records = self.app.partition_data(&self.pic_data, parts);
        let sub_models = self.app.split_model(&self.init, parts);
        let cap = self.app.local_iteration_cap();
        let solve_ms = part_records
            .iter()
            .zip(&sub_models)
            .enumerate()
            .map(|(p, (records, model))| {
                let t0 = Instant::now();
                spans.time("apps.solve", || {
                    black_box(self.app.solve_local(p, records, model, cap))
                });
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();

        let scratch = Engine::new(self.spec.clone());
        let model_bytes = self.init.byte_size();
        let overwrite_us = spans.time("dfs.overwrite", || {
            mean_call_secs(50, 0.02, || {
                black_box(scratch.dfs().overwrite(
                    "/perfbench/model",
                    model_bytes,
                    0,
                    TrafficClass::ModelUpdate,
                ));
            })
        }) * 1e6;

        let engine = &self.ic_engine;
        let nodes = self.spec.nodes;
        let scope = IterScope::cluster(nodes, self.cost.timing.clone(), nodes);
        let iter_ms = spans.time("engine.iter", || {
            mean_call_secs(2, 0.05, || {
                engine.reset();
                black_box(self.app.iterate(engine, &self.ic_data, &self.init, &scope));
            })
        }) * 1e3;
        let noop = NoopMapper::<A::Record>(PhantomData);
        let job_fixed_us = spans.time("engine.job_fixed", || {
            mean_call_secs(5, 0.02, || {
                engine.reset();
                black_box(engine.run_map_only(&JobConfig::new("noop"), &self.ic_data, &noop));
            })
        }) * 1e6;
        engine.reset();

        let map_secs = match self.cost.timing {
            Timing::PerRecord { map_secs, .. } => map_secs,
            Timing::Measured { .. } => unreachable!("every workload uses per-record costs"),
        };
        let tasks: Vec<TaskSpec> = self
            .ic_data
            .splits
            .iter()
            .map(|s| TaskSpec {
                duration_s: s.records.len() as f64 * map_secs,
                preferred_nodes: s.hosts.clone(),
                input_bytes: s.bytes,
            })
            .collect();
        let sched = SlotScheduler::new(&self.spec);
        let phase_us = spans.time("scheduler.phase", || {
            mean_call_secs(10, 0.02, || {
                black_box(sched.schedule(&tasks, self.spec.map_slots_per_node(), 0..nodes));
            })
        }) * 1e6;
        let event_ns = spans.time("event.queue", || event_hold_ns(tasks.len(), seed));
        let collect_us = spans.time("pool.collect", || {
            mean_call_secs(20, 0.02, || {
                black_box(
                    (0..parts)
                        .into_par_iter()
                        .map(black_box)
                        .collect::<Vec<usize>>(),
                );
            })
        }) * 1e6;

        Probe {
            solve_ms,
            overwrite_us,
            iter_ms,
            job_fixed_us,
            phase_us,
            event_ns,
            collect_us,
        }
    }
}

/// Nanoseconds per operation of the hold model on an [`EventQueue`]
/// holding `population` events: each step pops the earliest event and
/// pushes it back a seeded pseudo-random time later.
fn event_hold_ns(population: usize, seed: u64) -> f64 {
    let mut rng = stream(seed, 3) | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut q = EventQueue::new();
    for i in 0..population.max(1) {
        q.push(next() * 10.0, i);
    }
    const BATCH: usize = 10_000;
    let t0 = Instant::now();
    let mut steps = 0usize;
    while steps == 0 || t0.elapsed().as_secs_f64() < 0.02 {
        for _ in 0..BATCH {
            let (t, e) = q.pop().expect("the hold model keeps the queue full");
            q.push(t + next() * 10.0, black_box(e));
        }
        steps += BATCH;
    }
    t0.elapsed().as_secs_f64() * 1e9 / (2 * steps) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The output check rejects an engine ledger that is one byte off
    /// from what the trace attributes.
    #[test]
    fn output_check_rejects_ledger_one_byte_off() {
        let spans = Spans::new(false);
        let g = KmeansGeometry::fig2(Size::Tiny);
        let (pts, init) = g.inputs();
        let case = Prepared::new(
            &spans,
            ClusterSpec::medium(),
            KMeansApp::new(g.k, g.dim, 1.0).with_reference(init.clone()),
            pts,
            init,
            g.splits,
            g.partitions,
            cost::kmeans(),
            Quality::error_gap(false, f64::INFINITY),
        );
        let mut ex = case.execute(&spans);
        assert_eq!(case.analyse(&ex, &spans), Vec::<String>::new());

        let one = pic_simnet::TrafficLedger::new();
        one.add(TrafficClass::Broadcast, 1);
        ex.pic_traffic = ex.pic_traffic.plus(&one.snapshot());
        let problems = case.analyse(&ex, &spans);
        // `check::validate` itself reports the off-by-one class, and only
        // on the side whose ledger is off.
        assert!(
            problems
                .iter()
                .any(|p| p.starts_with("pic: class broadcast: trace attributes")),
            "{problems:?}"
        );
        assert!(
            problems.iter().all(|p| p.starts_with("pic: ")),
            "{problems:?}"
        );
    }
}
