//! The analysis views over recorded runs: `pic timeline`, `chaos`,
//! `tenancy`, `diff`, `explain` and `watch`.

use crate::flags::{self, write_artifact, Fail, Flags, Outcome};
use pic_bench::experiments::{chaos, explain, report as perf, tenancy, watch, ExperimentCtx};
use pic_bench::table::{csv_row, fmt_bytes, fmt_secs, Table};

pub const TIMELINE_USAGE: &str = "\
usage: pic timeline [flags] — utilization heatmaps, IC vs PIC (DESIGN.md §11)

flags:
  --scale <f>          workload scale multiplier (default 1.0)
  --apps <a,b,..>      subset of kmeans,pagerank,neuralnet,linsolve,smoothing
  --width <n>          heatmap cells per side (default 48)";

pub const CHAOS_USAGE: &str = "\
usage: pic chaos [flags] — fault-injection campaign, IC vs PIC (DESIGN.md §12)

flags:
  --scale <f>          workload scale multiplier (default 1.0)
  --scenarios <a,b,..> subset of the scenario matrix (default all)
  --csv <path>         write the campaign cells as CSV
  --list-scenarios     print the valid scenario names and exit";

pub const TENANCY_USAGE: &str = "\
usage: pic tenancy [flags] — multi-tenant job stream (DESIGN.md §13)

flags:
  --preset <p>         topology preset: 1k | 2k | 4k | 10k (default 1k)
  --jobs <n>           concurrent jobs in the stream (default 16)
  --arrival <r>        mean arrivals per second (default 0.02)
  --mix <a=w,b=w,..>   app mix weights (default kmeans,linsolve,smoothing at 1)
  --drivers <d>        mixed | ic | pic (default mixed)
  --scales <n,n,..>    node counts jobs request (default 64,128,256)
  --seed <s>           stream seed (default 0x7E4A)
  --scale <f>          profile-run workload scale multiplier (default 1.0)
  --csv <path>         write the per-job rows as CSV
  --list-presets       print the valid topology presets and exit";

pub const DIFF_USAGE: &str = "\
usage: pic diff <old.json> <new.json> [flags] — attribute a perf delta (DESIGN.md §14)

Exits 0 when nothing simulated moved, 1 when deltas were attributed,
2 on unusable inputs.

flags:
  --epsilon <e>        relative tolerance for simulated seconds (default 1e-9)
  --top <n>            rows in the ranked segment table (default 15)
  --json <path>        write the machine-readable attribution here";

pub const EXPLAIN_USAGE: &str = "\
usage: pic explain [apps..] [flags] — counterfactual bottleneck attribution (DESIGN.md §15)

flags:
  --scale <f>          workload scale multiplier (default 1.0)
  --side <s>           ic | pic | both — tables and CSV rows to print (default both)
  --scenarios <a,b,..> subset of the scenario catalog (default all)
  --top <n>            rows per ranked table (default 10, 0 = all)
  --json <path>        write the full projection document (both sides, with phases)
  --csv <path>         write the ranked tables as CSV
  --list-scenarios     print the valid scenario names and exit";

pub const WATCH_USAGE: &str = "\
usage: pic watch [apps..] [flags] — online monitor replay (DESIGN.md §16)

flags:
  --scale <f>          workload scale multiplier (default 1.0)
  --rules <a,b,..>     alert rules to evaluate (default the full catalog)
  --window <s>         sliding-window length, simulated seconds (default 5)
  --interval <s>       render a dashboard frame every <s> simulated seconds
  --width <n>          sparkline cells per series (default 48)
  --json <path>        write the full monitor document (series + incidents)
  --csv <path>         write the incident log as CSV
  --metrics <path>     write an OpenMetrics-style text snapshot
  --list-rules         print the valid rule names and exit";

fn all_apps() -> Vec<String> {
    perf::APPS.iter().map(|s| s.to_string()).collect()
}

/// `pic timeline`: run the comparisons and print the side-by-side
/// utilization heatmaps (DESIGN.md §11).
pub fn run_timeline(mut f: Flags) -> Outcome {
    let mut ctx = ExperimentCtx::default();
    let mut apps = all_apps();
    let mut width = 48usize;
    while let Some(arg) = f.next() {
        match arg.as_str() {
            "--scale" => ctx.scale = f.positive("--scale")?,
            "--apps" => apps = f.list("--apps")?,
            "--width" => width = f.positive("--width")?,
            other => return Err(flags::unknown(other).into()),
        }
    }

    let app_refs: Vec<&str> = apps.iter().map(String::as_str).collect();
    for run in &perf::collect(&ctx, &app_refs)? {
        let ic = run.ic_utilization();
        let pic = run.pic_utilization();
        println!(
            "=== {} ({}) on {} — utilization, darkness = fraction of capacity ===\n",
            run.app, run.experiment, run.spec.name
        );
        println!(
            "{}",
            pic_simnet::timeline::render_side_by_side(&ic, &pic, width)
        );
    }
    Ok(0)
}

/// `pic chaos`: run the fault-injection campaign (DESIGN.md §12) and
/// print one row per (app, scenario, driver) cell.
pub fn run_chaos(mut f: Flags) -> Outcome {
    let mut ctx = ExperimentCtx::default();
    let mut scenarios: Vec<String> = chaos::SCENARIOS.iter().map(|s| s.to_string()).collect();
    let mut csv_path: Option<String> = None;
    while let Some(arg) = f.next() {
        match arg.as_str() {
            "--list-scenarios" => {
                for s in chaos::SCENARIOS {
                    println!("{s}");
                }
                return Ok(0);
            }
            "--scale" => ctx.scale = f.positive("--scale")?,
            "--scenarios" => scenarios = f.list("--scenarios")?,
            "--csv" => csv_path = Some(f.value("--csv")?),
            other => return Err(flags::unknown(other).into()),
        }
    }

    let scenario_refs: Vec<&str> = scenarios.iter().map(String::as_str).collect();
    let cells = chaos::campaign(&ctx, &scenario_refs)?;

    let mut t = Table::new([
        "app", "scenario", "driver", "clean", "faulty", "recovery", "bytes", "events", "tt-Δ",
        "alerts", "exact",
    ]);
    for c in &cells {
        t.row([
            c.app,
            c.scenario,
            c.driver,
            &fmt_secs(c.clean_s),
            &fmt_secs(c.faulty_s),
            &fmt_secs(c.recovery_s),
            &fmt_bytes(c.recovery_bytes),
            &c.injected_events.to_string(),
            &fmt_secs(c.tt_quality_delta_s),
            // The §16 monitor's incident count for the faulty run; the
            // clean counterpart is pinned at 0 by the campaign tests.
            &c.incidents.to_string(),
            if c.exact_result { "yes" } else { "no" },
        ]);
    }
    println!("{}", t.render());

    if let Some(path) = &csv_path {
        write_artifact("pic chaos", path, &chaos::chaos_csv(&cells))?;
    }
    Ok(0)
}

/// `pic tenancy`: generate a seeded multi-tenant job stream, run it
/// through the cluster-level scheduler, and print per-job rows plus the
/// time-to-quality percentile summary (DESIGN.md §13).
pub fn run_tenancy(mut f: Flags) -> Outcome {
    let mut ctx = ExperimentCtx::default();
    let mut preset_name = "1k".to_string();
    let mut wl = tenancy::default_workload();
    let mut csv_path: Option<String> = None;
    while let Some(arg) = f.next() {
        match arg.as_str() {
            "--list-presets" => {
                for p in pic_simnet::tenancy::PRESETS {
                    println!("{p}");
                }
                return Ok(0);
            }
            "--preset" => preset_name = f.value("--preset")?,
            "--jobs" => wl.jobs = f.value("--jobs")?,
            "--arrival" => wl.arrival_per_s = f.value("--arrival")?,
            "--mix" => {
                wl.mix = f
                    .list::<String>("--mix")?
                    .iter()
                    .map(|pair| {
                        let (app, w) = pair
                            .split_once('=')
                            .ok_or("--mix wants app=weight,app=weight")?;
                        Ok((app.trim().to_string(), flags::parse("--mix", w.trim())?))
                    })
                    .collect::<Result<_, String>>()?;
            }
            "--drivers" => {
                wl.drivers =
                    pic_simnet::tenancy::DriverMix::parse(&f.value::<String>("--drivers")?)?
            }
            "--scales" => wl.scales = f.list("--scales")?,
            "--seed" => wl.seed = f.value("--seed")?,
            "--scale" => ctx.scale = f.positive("--scale")?,
            "--csv" => csv_path = Some(f.value("--csv")?),
            other => return Err(flags::unknown(other).into()),
        }
    }

    let report = tenancy::stream(&ctx, &preset_name, &wl)?;

    let mut t = Table::new([
        "job", "app", "driver", "arrive", "admit", "finish", "queued", "tt-qual", "contend",
        "nodes", "preempt",
    ]);
    for r in &report.rows {
        t.row([
            &r.id.to_string(),
            &r.app,
            &r.driver,
            &fmt_secs(r.arrival_s),
            &fmt_secs(r.admitted_s),
            &fmt_secs(r.finish_s),
            &fmt_secs(r.queue_delay_s),
            &fmt_secs(r.tt_quality_s),
            &fmt_secs(r.contention_s),
            &format!("{}/{}", r.granted_nodes, r.requested_nodes),
            &r.preemptions.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("{}", report.render());

    if let Some(path) = &csv_path {
        write_artifact("pic tenancy", path, &tenancy::tenancy_csv(&report))?;
    }
    Ok(0)
}

/// `pic diff`: attribute the difference between two BENCH_pic.json
/// documents (DESIGN.md §14). Exits 0 when nothing simulated moved,
/// 1 when deltas were attributed, 2 on unusable inputs.
pub fn run_diff(mut f: Flags) -> Outcome {
    let mut paths: Vec<String> = Vec::new();
    let mut epsilon = 1e-9f64;
    let mut top = 15usize;
    let mut json_out: Option<String> = None;
    while let Some(arg) = f.next() {
        match arg.as_str() {
            "--epsilon" => epsilon = f.value("--epsilon")?,
            "--top" => top = f.value("--top")?,
            "--json" => json_out = Some(f.value("--json")?),
            _ => paths.push(flags::positional(arg)?),
        }
    }
    let [old_path, new_path] = &paths[..] else {
        return Err(Fail::Usage(
            "pic diff wants exactly two report paths: <old.json> <new.json>".into(),
        ));
    };

    let load = |path: &String| -> Result<pic_bench::json::Json, Fail> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| Fail::Abort(format!("cannot read {path}: {e}")))?;
        pic_bench::json::parse(&text)
            .map_err(|e| Fail::Abort(format!("{path} is not valid JSON: {e}")))
    };
    let (old, new) = (load(old_path)?, load(new_path)?);
    let report = pic_bench::diff::diff_docs(&old, &new, epsilon).map_err(Fail::Abort)?;
    print!("{}", report.render(top));

    if let Some(path) = &json_out {
        write_artifact("pic diff", path, &report.to_json())?;
    }
    Ok(if report.is_empty() { 0 } else { 1 })
}

/// `pic explain`: replay the recorded runs under counterfactual edits
/// and print the ranked bottleneck-attribution tables (DESIGN.md §15).
/// Pure trace post-processing — nothing is re-simulated, so the output
/// is a deterministic function of the runs.
pub fn run_explain(mut f: Flags) -> Outcome {
    use pic_simnet::whatif::{Scenario, SensitivityReport, CATALOG};

    let mut ctx = ExperimentCtx::default();
    let mut apps: Vec<String> = Vec::new();
    let mut side = "both".to_string();
    let mut scenarios: Vec<Scenario> = CATALOG.to_vec();
    let mut top = 10usize;
    let mut json_path: Option<String> = None;
    let mut csv_path: Option<String> = None;
    while let Some(arg) = f.next() {
        match arg.as_str() {
            "--list-scenarios" => {
                for name in Scenario::names() {
                    println!("{name}");
                }
                return Ok(0);
            }
            "--scale" => ctx.scale = f.positive("--scale")?,
            "--side" => {
                side = f.value("--side")?;
                if !["ic", "pic", "both"].contains(&side.as_str()) {
                    return Err(Fail::Usage("--side wants ic | pic | both".into()));
                }
            }
            "--scenarios" => {
                scenarios = f
                    .list::<String>("--scenarios")?
                    .iter()
                    .map(|name| {
                        Scenario::parse(name).ok_or_else(|| {
                            format!(
                                "unknown scenario '{name}'; valid scenarios: {}",
                                Scenario::names().join(", ")
                            )
                        })
                    })
                    .collect::<Result<_, String>>()?;
            }
            "--top" => top = f.value("--top")?,
            "--json" => json_path = Some(f.value("--json")?),
            "--csv" => csv_path = Some(f.value("--csv")?),
            _ => apps.push(flags::positional(arg)?),
        }
    }
    if apps.is_empty() {
        apps = all_apps();
    }

    let app_refs: Vec<&str> = apps.iter().map(String::as_str).collect();
    let runs = perf::collect(&ctx, &app_refs)?;
    let sections = explain::sections(&runs, &scenarios);

    for s in &sections {
        match side.as_str() {
            "ic" => {
                println!("=== {} (ic) — bottleneck attribution ===", s.app);
                print!("{}", s.ic.render(top));
            }
            "pic" => {
                println!("=== {} (pic) — bottleneck attribution ===", s.app);
                print!("{}", s.pic.render(top));
            }
            _ => print!("{}", explain::render_side_by_side(s, top)),
        }
        println!();
    }

    if let Some(path) = &json_path {
        // The JSON artifact always carries both sides with phase
        // breakdowns — `--side` narrows the printed tables and CSV only.
        write_artifact("pic explain", path, &explain::explain_json(&ctx, &sections))?;
    }

    if let Some(path) = &csv_path {
        let mut doc = String::from(SensitivityReport::csv_header());
        doc.push('\n');
        for s in &sections {
            for (sd, report) in [("ic", &s.ic), ("pic", &s.pic)] {
                if side != "both" && side != sd {
                    continue;
                }
                for rec in report.csv_records(&s.app, sd) {
                    doc.push_str(&csv_row(&rec));
                    doc.push('\n');
                }
            }
        }
        write_artifact("pic explain", path, &doc)?;
    }
    Ok(0)
}

/// `pic watch`: replay the recorded runs through the online monitor
/// (DESIGN.md §16) and render the dashboard — optional intermediate
/// frames, sparkline per series, incident ticker — plus the JSON,
/// incident-CSV and OpenMetrics exports. Pure trace post-processing, so
/// every artifact is byte-identical across rayon pool widths.
pub fn run_watch(mut f: Flags) -> Outcome {
    use pic_simnet::monitor::{parse_rules, CATALOG_RULES};

    let mut ctx = ExperimentCtx::default();
    let mut apps: Vec<String> = Vec::new();
    let mut opts = watch::WatchOptions::default();
    let mut json_path: Option<String> = None;
    let mut csv_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    while let Some(arg) = f.next() {
        match arg.as_str() {
            "--list-rules" => {
                for name in CATALOG_RULES {
                    println!("{name}");
                }
                return Ok(0);
            }
            "--scale" => ctx.scale = f.positive("--scale")?,
            "--rules" => opts.rules = parse_rules(&f.value::<String>("--rules")?)?,
            "--window" => opts.window_s = f.positive("--window")?,
            "--interval" => {
                opts.interval_s = f.value("--interval")?;
                if !(0.0..).contains(&opts.interval_s) {
                    return Err(Fail::Usage("--interval must be non-negative".into()));
                }
            }
            "--width" => opts.width = f.positive("--width")?,
            "--json" => json_path = Some(f.value("--json")?),
            "--csv" => csv_path = Some(f.value("--csv")?),
            "--metrics" => metrics_path = Some(f.value("--metrics")?),
            _ => apps.push(flags::positional(arg)?),
        }
    }
    if apps.is_empty() {
        apps = all_apps();
    }

    let app_refs: Vec<&str> = apps.iter().map(String::as_str).collect();
    let runs = perf::collect(&ctx, &app_refs)?;
    let sections = watch::sections(&runs, &opts)?;

    for s in &sections {
        print!("{}", watch::render_section(s, &opts));
        println!();
    }

    const TAG: &str = "pic watch";
    if let Some(path) = &json_path {
        write_artifact(TAG, path, &watch::watch_json(ctx.scale, &opts, &sections))?;
    }
    if let Some(path) = &csv_path {
        write_artifact(TAG, path, &watch::watch_csv(&sections))?;
    }
    if let Some(path) = &metrics_path {
        write_artifact(TAG, path, &watch::watch_metrics(&sections))?;
    }
    Ok(0)
}
