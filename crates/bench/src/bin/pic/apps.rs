//! The app launcher: `pic <app> [flags]` runs one case study through
//! both drivers and prints the IC-vs-PIC comparison.

use crate::flags::{self, Fail, Flags, Outcome};
use pic_bench::experiments::common::cost;
use pic_bench::table::{fmt_bytes, fmt_secs, fmt_x, Table};
use pic_core::prelude::*;
use pic_mapreduce::{Dataset, Engine};
use pic_simnet::{ClusterSpec, TrafficClass};

pub const USAGE: &str = "\
usage: pic <kmeans|pagerank|neuralnet|linsolve|smoothing> [flags]

flags:
  --n <records>        dataset size (points/pages/samples/unknowns)
  --k <clusters>       K-means cluster count (default 100)
  --side <pixels>      smoothing image side (default 256)
  --partitions <p>     PIC sub-problem count (default 24)
  --cluster <c>        small | medium | large:N (default small)
  --seed <s>           workload seed (default 42)
  --list-apps          print the valid app names and exit";

#[derive(Debug)]
struct Args {
    n: usize,
    k: usize,
    side: usize,
    partitions: usize,
    cluster: ClusterSpec,
    seed: u64,
}

impl Args {
    fn parse(mut f: Flags) -> Result<Args, String> {
        let mut args = Args {
            n: 50_000,
            k: 100,
            side: 256,
            partitions: 24,
            cluster: ClusterSpec::small(),
            seed: 42,
        };
        while let Some(arg) = f.next() {
            match arg.as_str() {
                "--n" => args.n = f.positive("--n")?,
                "--k" => args.k = f.positive("--k")?,
                "--side" => args.side = f.positive("--side")?,
                "--partitions" => args.partitions = f.positive("--partitions")?,
                "--cluster" => args.cluster = cluster_spec(&f.value::<String>("--cluster")?)?,
                "--seed" => args.seed = f.value("--seed")?,
                other => return Err(flags::unknown(other)),
            }
        }
        Ok(args)
    }
}

/// `small`, `medium` or `large:N` with a positive node count.
fn cluster_spec(name: &str) -> Result<ClusterSpec, String> {
    match name {
        "small" => Ok(ClusterSpec::small()),
        "medium" => Ok(ClusterSpec::medium()),
        _ => match name.strip_prefix("large:") {
            Some(n) => {
                let nodes: usize = flags::parse("--cluster large:N", n)?;
                if nodes == 0 {
                    return Err("--cluster large:N needs a positive node count".into());
                }
                Ok(ClusterSpec::large(nodes))
            }
            None => Err(format!("unknown cluster '{name}' (small|medium|large:N)")),
        },
    }
}

/// `pic <app>`: parse every flag before printing anything, then run.
pub fn run(app: &str, f: Flags) -> Outcome {
    let args = Args::parse(f)?;
    // The generators assert these shapes; reject them as usage errors.
    match app {
        "pagerank" | "linsolve" if args.partitions > args.n => {
            return Err(Fail::Usage("--partitions must not exceed --n".into()));
        }
        "smoothing" if args.side < 2 || args.partitions > args.side => {
            return Err(Fail::Usage(
                "--side must be at least 2 and at least --partitions".into(),
            ));
        }
        _ => {}
    }
    let spec = &args.cluster;
    println!(
        "app={} cluster={} ({} nodes) partitions={}\n",
        app, spec.name, spec.nodes, args.partitions
    );
    let p = args.partitions;
    match app {
        "kmeans" => {
            use pic_apps::kmeans::{gaussian_mixture, init_random_centroids, Centroids, KMeansApp};
            let app = KMeansApp::new(args.k, 3, 1.0);
            let pts = gaussian_mixture(args.n, args.k, 3, 1000.0, 40.0, args.seed);
            let init = Centroids::new(init_random_centroids(args.k, 3, 1000.0, args.seed + 1));
            compare(spec, &app, pts, init, p, cost::kmeans());
        }
        "pagerank" => {
            use pic_apps::pagerank::{block_local_graph, PageRankApp, PartitionMode};
            let g = block_local_graph(args.n, p, 2, 8, 0.9, args.seed);
            let app = PageRankApp::new(g.clone(), p, PartitionMode::Random, args.seed);
            let init = app.initial_model();
            compare(spec, &app, g.records(), init, p, cost::pagerank());
        }
        "neuralnet" => {
            use pic_apps::neuralnet::{ocr_like_split, Mlp, NeuralNetApp};
            let (train, valid) = ocr_like_split(args.n, args.n / 10, 10, 64, 0.2, args.seed);
            let mut app = NeuralNetApp::new(valid);
            app.max_iterations = 60;
            let init = Mlp::random(64, 32, 10, args.seed + 1);
            compare(spec, &app, train, init, p, cost::neuralnet());
        }
        "linsolve" => {
            use pic_apps::linsolve::{diag_dominant_system, LinSolveApp};
            let sys = diag_dominant_system(args.n, 0.05, args.seed);
            let app = LinSolveApp::new(args.n, p, 1e-8).with_exact(sys.exact.clone());
            compare(spec, &app, sys.rows, vec![0.0; args.n], p, cost::linsolve());
        }
        "smoothing" => {
            use pic_apps::smoothing::{noisy_image, SmoothingApp};
            let f = noisy_image(args.side, args.side, 0.08, args.seed);
            let app = SmoothingApp::new(args.side, args.side, p, 1e-6);
            compare(
                spec,
                &app,
                f.rows(),
                f.clone(),
                p,
                cost::smoothing(args.side),
            );
        }
        other => unreachable!("main dispatches only known apps, got '{other}'"),
    }
    Ok(0)
}

/// Run one app through both drivers on `partitions` input splits and
/// PIC sub-problems, and print the comparison.
fn compare<A: PicApp + QualityProbe>(
    spec: &ClusterSpec,
    app: &A,
    records: Vec<A::Record>,
    init: A::Model,
    partitions: usize,
    cost: cost::AppCost,
) where
    A::Record: Clone,
    A::Model: Clone,
{
    let ic_engine = Engine::new(spec.clone());
    let data = Dataset::create(&ic_engine, "/cli/input", records.clone(), partitions);
    ic_engine.reset();
    let ic = run_ic(
        &ic_engine,
        app,
        &data,
        init.clone(),
        &IcOptions {
            timing: cost.timing.clone(),
            ..Default::default()
        },
    );

    let pic_engine = Engine::new(spec.clone());
    let data = Dataset::create(&pic_engine, "/cli/input", records, partitions);
    pic_engine.reset();
    let pic = run_pic(
        &pic_engine,
        app,
        &data,
        init,
        &PicOptions {
            partitions,
            timing: cost.timing,
            local_secs_per_record: Some(cost.local_secs),
            ..Default::default()
        },
    );

    let mut t = Table::new(["", "IC baseline", "PIC"]);
    t.row([
        "simulated time",
        &fmt_secs(ic.total_time_s),
        &fmt_secs(pic.total_time_s),
    ]);
    t.row([
        "iterations",
        &ic.iterations.to_string(),
        &format!(
            "{} BE + {} top-off",
            pic.be_iterations, pic.topoff_iterations
        ),
    ]);
    t.row([
        "intermediate data",
        &fmt_bytes(ic.traffic.get(TrafficClass::MapSpill)),
        &fmt_bytes(pic.traffic().get(TrafficClass::MapSpill)),
    ]);
    t.row([
        "model updates",
        &fmt_bytes(ic.traffic.model_update_total()),
        &fmt_bytes(pic.traffic().model_update_total()),
    ]);
    if let (Some(a), Some(b)) = (
        ic.trajectory.last().map(|p| p.error),
        pic.trajectory.last().map(|p| p.error),
    ) {
        t.row(["final error", &format!("{a:.4}"), &format!("{b:.4}")]);
    }
    println!("{}", t.render());
    println!("speedup: {}", fmt_x(ic.total_time_s / pic.total_time_s));
    println!(
        "max local iterations per BE round: {:?}",
        pic.max_local_iterations()
    );
}
