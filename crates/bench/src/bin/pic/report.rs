//! `pic report`, `pic regress` and `pic repro`: the paper's results and
//! the gate over them. `report` and `regress` run the same [`suite`].

use crate::flags::{self, write_artifact, Fail, Flags, Outcome};
use pic_bench::experiments::{self, chaos, explain, report as perf, tenancy, ExperimentCtx};
use pic_bench::json;
use pic_simnet::hostprof::{self, HostProfile};

pub const REPORT_USAGE: &str = "\
usage: pic report [flags] — trace-driven perf analysis (DESIGN.md §9)

flags:
  --scale <f>          workload scale multiplier (default 1.0)
  --apps <a,b,..>      subset of kmeans,pagerank,neuralnet,linsolve,smoothing
  --json <path>        write the schema-versioned BENCH_pic.json here
  --traces <dir>       export Chrome about:tracing JSON per app/run
  --path-limit <n>     critical-path lines to print (default 40, 0 = all)
  --check              validate every trace invariant; exit 1 on violation
  --quality            print only the quality-of-convergence sections
  --csv <path>         write the per-app convergence curves as CSV
  --util-csv <path>    write the utilization/occupancy series as CSV
  --chaos-csv <path>   write the quality-under-failure campaign as CSV
  --profile-host       record host-side stage timings (DESIGN.md §14);
                       prints the table and embeds host_profile in --json";

pub const REGRESS_USAGE: &str = "\
usage: pic regress [flags] — gate a fresh BENCH_pic.json against the baseline (DESIGN.md §9)

Runs the pic-report suite plus the fault-injection campaign and the
multi-tenant packing stream, and diffs the fresh BENCH_pic.json against
the committed baseline (exact for bytes/counters, relative epsilon for
*_s / *_x / *_err / *_util keys — recovery_s and tt_quality_delta_s get
a 100x-wider band — host_* ignored). Exits 0 on a match, 1 on a
regression, 2 on a configuration problem.

flags:
  --baseline <path>    committed report to diff against (default BENCH_pic.json)
  --scale <f>          workload scale multiplier (default 0.05)
  --out <path>         write the fresh report here (default target/BENCH_pic.fresh.json)
  --epsilon <e>        relative tolerance for banded keys (default 1e-9)
  --csv <path>         write the per-app convergence curves as CSV
  --util-csv <path>    write the utilization/occupancy series as CSV
  --chaos-csv <path>   write the quality-under-failure campaign as CSV
  --explain-csv <path> write the ranked counterfactual bottleneck tables (DESIGN.md §15)
  --profile-host       embed host-side stage timings as the (gate-ignored) host_profile
  --update             rewrite the baseline from the fresh run instead of diffing";

pub const REPRO_USAGE: &str = "\
usage: pic repro --exp <name[,name...]|all> [--scale <f>]
       pic repro --list

Regenerates the paper's tables and figures.

flags:
  --exp <a,b,..|all>   experiments to run, in order (repeatable)
  --scale <f>          multiplies every workload's record count (default 1.0)
  --list               print the valid experiment names and exit";

/// Which optional artifacts a [`suite`] run feeds.
struct Want {
    /// Run the fault-injection campaign (for `--json` or `--chaos-csv`).
    cells: bool,
    /// Emit `BENCH_pic.json` (also runs the campaign and the tenancy section).
    json: bool,
    /// Wrap the suite in the host profiler.
    profile_host: bool,
}

/// One run of the report suite.
struct Suite {
    runs: Vec<perf::AppRun>,
    cells: Vec<chaos::ChaosCell>,
    host_profile: Option<HostProfile>,
    /// The `BENCH_pic.json` document, when requested.
    json: Option<String>,
}

/// The suite `pic report` and `pic regress` share: collect the per-app
/// runs, then the campaign, the tenancy section and `BENCH_pic.json` as
/// `want` asks, all under the host profiler when requested.
fn suite(ctx: &ExperimentCtx, apps: &[&str], want: Want) -> Result<Suite, String> {
    let run = || -> Result<_, String> {
        let runs = perf::collect(ctx, apps)?;
        let cells = if want.cells || want.json {
            chaos::campaign(ctx, &chaos::SCENARIOS)?
        } else {
            Vec::new()
        };
        // The multi-tenant packing section rides along only with the JSON
        // artifact — it pays for 12 solo profile runs.
        let tenancy_section = if want.json {
            Some(tenancy::section(ctx)?)
        } else {
            None
        };
        Ok((runs, cells, tenancy_section))
    };
    let ((runs, cells, tenancy_section), host_profile) = if want.profile_host {
        let (out, profile) = hostprof::profile(run);
        (out?, Some(profile))
    } else {
        (run()?, None)
    };
    let json = tenancy_section
        .map(|t| perf::bench_json(ctx, &runs, &cells, Some(&t), host_profile.as_ref()));
    Ok(Suite {
        runs,
        cells,
        host_profile,
        json,
    })
}

/// The `--csv`, `--util-csv` and `--chaos-csv` outputs of both commands.
#[derive(Default)]
struct Csvs {
    quality: Option<String>,
    util: Option<String>,
    chaos: Option<String>,
}

impl Csvs {
    /// Claim `arg` if it is one of the three CSV flags.
    fn take(&mut self, arg: &str, f: &mut Flags) -> Result<bool, String> {
        let slot = match arg {
            "--csv" => &mut self.quality,
            "--util-csv" => &mut self.util,
            "--chaos-csv" => &mut self.chaos,
            _ => return Ok(false),
        };
        *slot = Some(f.value(arg)?);
        Ok(true)
    }

    fn write(&self, tag: &str, s: &Suite) -> Result<(), Fail> {
        if let Some(path) = &self.quality {
            write_artifact(tag, path, &perf::quality_csv(&s.runs))?;
        }
        if let Some(path) = &self.util {
            write_artifact(tag, path, &perf::utilization_csv(&s.runs))?;
        }
        if let Some(path) = &self.chaos {
            write_artifact(tag, path, &chaos::chaos_csv(&s.cells))?;
        }
        Ok(())
    }
}

/// `pic report`: run the comparisons, print perf reports, optionally
/// validate, export traces, and write `BENCH_pic.json`.
pub fn run_report(mut f: Flags) -> Outcome {
    const TAG: &str = "pic report";
    let mut ctx = ExperimentCtx::default();
    let mut apps: Vec<String> = perf::APPS.iter().map(|s| s.to_string()).collect();
    let mut json_path: Option<String> = None;
    let mut traces_dir: Option<String> = None;
    let mut check = false;
    let mut path_limit = 40usize;
    let mut quality_only = false;
    let mut csvs = Csvs::default();
    let mut profile_host = false;
    while let Some(arg) = f.next() {
        match arg.as_str() {
            "--scale" => ctx.scale = f.positive("--scale")?,
            "--apps" => apps = f.list("--apps")?,
            "--json" => json_path = Some(f.value("--json")?),
            "--traces" => traces_dir = Some(f.value("--traces")?),
            "--path-limit" => path_limit = f.value("--path-limit")?,
            "--check" => check = true,
            "--quality" => quality_only = true,
            "--profile-host" => profile_host = true,
            other if csvs.take(other, &mut f)? => {}
            other => return Err(flags::unknown(other).into()),
        }
    }

    let want = Want {
        cells: csvs.chaos.is_some(),
        json: json_path.is_some(),
        profile_host,
    };
    let app_refs: Vec<&str> = apps.iter().map(String::as_str).collect();
    let s = suite(&ctx, &app_refs, want)?;
    if let Some(p) = &s.host_profile {
        println!("{}", p.render());
    }
    for run in &s.runs {
        if quality_only {
            println!("{}", run.quality.render());
        } else {
            println!("{}", run.render(path_limit));
        }
    }

    csvs.write(TAG, &s)?;
    if let Some(dir) = &traces_dir {
        for run in &s.runs {
            // Counter tracks ride along so the Chrome view plots link
            // utilization and slot occupancy under the span timeline.
            let utils = [
                ("ic", &run.ic_trace, run.ic_utilization()),
                ("pic", &run.pic_trace, run.pic_utilization()),
            ];
            for (side, trace, util) in utils {
                let path = format!("{dir}/{}_{side}_trace.json", run.app);
                let doc = trace.to_chrome_json_with_counters(&util.counter_tracks());
                write_artifact(TAG, &path, &doc)?;
            }
        }
    }
    if let (Some(path), Some(doc)) = (&json_path, &s.json) {
        write_artifact(TAG, path, doc)?;
    }

    if check {
        let mut failures = 0;
        for run in &s.runs {
            let errs = run.validate();
            for e in &errs {
                eprintln!("[{TAG}] violation: {e}");
            }
            if errs.is_empty() {
                eprintln!(
                    "[{TAG}] {} traces ok ({} + {} spans, bytes reconcile exactly)",
                    run.app,
                    run.ic_trace.spans.len(),
                    run.pic_trace.spans.len()
                );
            }
            failures += errs.len();
        }
        if failures > 0 {
            eprintln!("[{TAG}] {failures} invariant violation(s)");
            return Ok(1);
        }
        eprintln!("[{TAG}] all trace invariants hold");
    }
    Ok(0)
}

/// `pic regress`: the CI performance-regression gate. Re-runs the report
/// suite at the baseline's scale, writes the fresh `BENCH_pic.json`, and
/// diffs it against the committed baseline under the DESIGN.md §9
/// tolerance bands. Exits 0 on a match, 1 on a regression, 2 on a
/// configuration problem. `--update` rewrites the baseline instead.
pub fn run_regress(mut f: Flags) -> Outcome {
    const TAG: &str = "pic regress";
    let mut baseline_path = "BENCH_pic.json".to_string();
    let mut out = "target/BENCH_pic.fresh.json".to_string();
    let mut ctx = ExperimentCtx { scale: 0.05 };
    let mut epsilon = 1e-9f64;
    let mut update = false;
    let mut csvs = Csvs::default();
    let mut explain_csv: Option<String> = None;
    let mut profile_host = false;
    while let Some(arg) = f.next() {
        match arg.as_str() {
            "--baseline" => baseline_path = f.value("--baseline")?,
            "--out" => out = f.value("--out")?,
            "--scale" => ctx.scale = f.positive("--scale")?,
            "--epsilon" => epsilon = f.value("--epsilon")?,
            "--explain-csv" => explain_csv = Some(f.value("--explain-csv")?),
            "--update" => update = true,
            "--profile-host" => profile_host = true,
            other if csvs.take(other, &mut f)? => {}
            other => return Err(flags::unknown(other).into()),
        }
    }

    // Check the baseline before the suite runs: a missing file or one
    // recorded at a different scale (which would diff everywhere) is a
    // configuration problem, not a regression.
    let baseline = if update {
        None
    } else {
        let text = std::fs::read_to_string(&baseline_path).map_err(|e| {
            Fail::Abort(format!(
                "cannot read baseline {baseline_path}: {e}\n\
                 [{TAG}] generate it with: pic regress --update --scale {}",
                ctx.scale
            ))
        })?;
        let doc = json::parse(&text)
            .map_err(|e| Fail::Abort(format!("baseline {baseline_path} is not valid JSON: {e}")))?;
        let scale = doc.get("scale").and_then(|v| v.as_f64());
        if scale != Some(ctx.scale) {
            return Err(Fail::Abort(format!(
                "baseline {baseline_path} was recorded at scale {scale:?}, this run is at {} — \
                 pass a matching --scale or refresh with --update",
                ctx.scale
            )));
        }
        Some(doc)
    };

    let t0 = std::time::Instant::now();
    let want = Want {
        cells: true,
        json: true,
        profile_host,
    };
    let s = suite(&ctx, &perf::APPS, want)?;
    let fresh_text = s.json.as_deref().expect("the suite emits JSON when asked");
    eprintln!(
        "[{TAG}] suite ran in {:.1}s (host time) at scale {}",
        t0.elapsed().as_secs_f64(),
        ctx.scale
    );
    write_artifact(TAG, &out, fresh_text)?;
    csvs.write(TAG, &s)?;
    if let Some(path) = &explain_csv {
        let sections = explain::sections(&s.runs, &pic_simnet::whatif::CATALOG);
        write_artifact(TAG, path, &explain::explain_csv(&sections))?;
    }

    let Some(baseline) = baseline else {
        write_artifact(TAG, &baseline_path, fresh_text)?;
        eprintln!("[{TAG}] baseline {baseline_path} updated");
        return Ok(0);
    };
    let fresh = json::parse(fresh_text).expect("bench_json emits valid JSON");
    let diffs = json::diff(&baseline, &fresh, epsilon);
    if diffs.is_empty() {
        eprintln!("[{TAG}] PASS: fresh report matches {baseline_path} within tolerance");
        return Ok(0);
    }
    eprintln!(
        "[{TAG}] FAIL: {} regression(s) against {baseline_path}:",
        diffs.len()
    );
    for d in &diffs {
        eprintln!("[{TAG}]   {d}");
    }
    Ok(1)
}

/// `pic repro`: regenerate the paper's tables and figures. Every name is
/// checked before the first experiment runs.
pub fn run_repro(mut f: Flags) -> Outcome {
    let mut exps: Vec<String> = Vec::new();
    let mut ctx = ExperimentCtx::default();
    while let Some(arg) = f.next() {
        match arg.as_str() {
            "--list" => {
                for name in experiments::ALL {
                    println!("{name}");
                }
                return Ok(0);
            }
            "--exp" => {
                for name in f.list::<String>("--exp")? {
                    if name == "all" {
                        exps.extend(experiments::ALL.iter().map(|s| s.to_string()));
                    } else if experiments::ALL.contains(&name.as_str()) {
                        exps.push(name);
                    } else {
                        return Err(format!(
                            "unknown experiment '{name}'; valid experiments: all, {}",
                            experiments::ALL.join(", ")
                        )
                        .into());
                    }
                }
            }
            "--scale" => ctx.scale = f.positive("--scale")?,
            other => return Err(flags::unknown(other).into()),
        }
    }
    if exps.is_empty() {
        return Err(Fail::Usage("no experiments selected".into()));
    }

    for (idx, name) in exps.iter().enumerate() {
        if idx > 0 {
            println!("\n{}\n", "=".repeat(78));
        }
        let t0 = std::time::Instant::now();
        print!("{}", experiments::run(name, &ctx)?);
        eprintln!(
            "[{name}] completed in {:.1}s (host time)",
            t0.elapsed().as_secs_f64()
        );
    }
    Ok(0)
}
