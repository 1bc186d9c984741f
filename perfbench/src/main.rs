//! Host-time benchmark of the PIC reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kmeans-fig2|nn-solve|linsolve-sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one IC-vs-PIC workload through the public API, repeating set-up
//! and workload run until `--seconds` have passed, and checks every
//! comparison it times: both traces validate against their engine's
//! ledger, both runs complete, PIC's final error is within the app's
//! tolerance of IC's, and the simulated statistics are identical across
//! repetitions and across pool widths 1 and 2. With `--trace 0` it reports
//! the end-to-end metrics; with `--trace 1` it wraps its own calls into
//! each layer in spans and reports the per-layer metrics. The last line of
//! standard output is one JSON object; the exit code is non-zero if any
//! comparison failed.

mod bench;
mod catalog;
mod measure;
mod workload;

use bench::{Config, Report};
use std::process::ExitCode;
use workload::{Size, Workload};

const USAGE: &str = "usage: pic-perfbench --workload <kmeans-fig2|nn-solve|linsolve-sweep> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, not {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    Ok(Config {
        workload: workload.ok_or("missing --workload")?,
        size: Size::Full,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        threads,
    })
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit.
fn json_line(report: &Report) -> Result<String, String> {
    let mut metrics = Vec::new();
    for v in &report.values {
        if !v.value.is_finite() {
            return Err(format!("{} is not finite: {}", v.metric.name, v.value));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            v.metric.name, v.value, v.metric.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    ))
}

/// Human-readable lines printed before the result line.
fn summary(cfg: &Config, report: &Report) -> String {
    let mut out = format!(
        "# workload={} seed={} seconds={} trace={} threads={} attempted={} failed={}\n",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.threads,
        report.attempted,
        report.failed
    );
    out += &format!(
        "# worst excess of pic's final model over ic's = {} (tolerance {})\n",
        report.worst_excess.0, report.worst_excess.1
    );
    for p in &report.problems {
        out += &format!("# FAILED {p}\n");
    }
    if cfg.trace {
        out += "# span                      count      total_s       self_s\n";
        for (name, t) in &report.spans {
            out += &format!(
                "# {name:<24} {:>6} {:>12.6} {:>12.6}\n",
                t.count, t.total_s, t.self_s
            );
        }
    }
    for v in &report.values {
        out += &format!(
            "# {:<26} {:>14.6} {:<5} {:<6} median of {:>3} (q1 {:.6}, q3 {:.6}) seed={} -> {}\n",
            v.metric.name,
            v.value,
            v.metric.unit,
            v.metric.better,
            v.samples,
            v.quartiles.0,
            v.quartiles.1,
            cfg.seed,
            v.metric.moves
        );
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let line = bench::run(&cfg).and_then(|report| {
        print!("{}", summary(&cfg, &report));
        Ok((json_line(&report)?, report.failed))
    });
    match line {
        Ok((line, failed)) => {
            println!("{line}");
            if failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("pic-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny-size run of every workload, end to end and traced, reports
    /// every catalog metric with its unit, and no comparison fails.
    #[test]
    fn tiny_runs_report_every_metric() {
        for workload in Workload::ALL {
            for (trace, expected) in [
                (false, &catalog::END_TO_END[..]),
                (true, &catalog::PER_LAYER[..]),
            ] {
                let cfg = Config {
                    workload,
                    size: Size::Tiny,
                    seed: 3,
                    seconds: 0.0,
                    trace,
                    threads: 2,
                };
                let report = bench::run(&cfg).unwrap();
                assert_eq!(
                    report.failed,
                    0,
                    "{}: {:?}",
                    workload.name(),
                    report.problems
                );
                let line = json_line(&report).unwrap();
                for m in expected {
                    let entry = format!("\"{}\": {{\"value\": ", m.name);
                    assert!(
                        line.contains(&entry),
                        "{} lacks {}: {line}",
                        workload.name(),
                        m.name
                    );
                    assert!(line.contains(&format!("\"unit\": \"{}\"", m.unit)));
                }
                assert_eq!(report.values.len(), expected.len());
            }
        }
    }

    /// `BENCHMARK.json` names exactly the catalog's metrics and workloads,
    /// with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        let compact: String = json.chars().filter(|c| !c.is_whitespace()).collect();
        for m in catalog::END_TO_END.iter().chain(&catalog::PER_LAYER) {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
                m.name, m.unit, m.better
            );
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in Workload::ALL {
            assert!(compact.contains(&format!("{{\"name\":\"{}\",\"why\":", w.name())));
        }
        let names = compact.matches("{\"name\":").count();
        assert_eq!(
            names,
            catalog::END_TO_END.len() + catalog::PER_LAYER.len() + 3
        );
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let cfg = parse_args(&args("--workload nn-solve --seed 5 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (cfg.workload, cfg.seed, cfg.trace),
            (Workload::NnSolve, 5, true)
        );
        assert!(parse_args(&args("--workload nope --seed 5 --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&args(
            "--workload nn-solve --seed -1 --seconds 10 --trace 1"
        ))
        .is_err());
        assert!(parse_args(&args("--workload nn-solve --seed 5 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&args("--workload nn-solve --seed 5 --seconds 10")).is_err());
    }
}
