//! `pic` — run any of the five case studies, IC vs PIC, on any simulated
//! cluster, from the command line.
//!
//! ```text
//! pic kmeans    --n 100000 --k 100 --partitions 24 --cluster small
//! pic pagerank  --n 20000 --partitions 18 --cluster small
//! pic neuralnet --n 10000 --partitions 12
//! pic linsolve  --n 100 --partitions 5
//! pic smoothing --side 256 --partitions 16 --cluster medium
//! ```
//!
//! Every other entry point is a subcommand in [`COMMANDS`]; `pic help`
//! renders that table and `pic <subcommand> --help` prints one usage
//! block. A few of them:
//!
//! ```text
//! pic repro --exp fig9,table2                 # the paper's tables and figures
//! pic report --scale 0.05 --check --json target/BENCH_pic.json
//! pic regress --baseline BENCH_pic.json       # the CI gate over BENCH_pic.json
//! pic explain kmeans --scale 0.05 --top 8     # counterfactual attribution
//! pic watch kmeans --scale 0.05 --interval 10 # online monitor replay
//! pic event-bench --check                     # BENCH_event_queue.csv
//! pic host-trend --baseline BENCH_host.csv    # BENCH_host.csv gate
//! ```

mod apps;
mod bench;
mod flags;
mod report;
mod views;

use flags::{Fail, Flags, Outcome};
use pic_bench::experiments::report::APPS;
use pic_bench::table::Table;

/// One `pic` subcommand: `main` dispatches on `name`, `pic help` lists
/// `summary`, and `--help` or a usage error prints `usage`.
struct Command {
    name: &'static str,
    summary: &'static str,
    usage: &'static str,
    run: fn(Flags) -> Outcome,
}

/// Every subcommand, in help-table order.
const COMMANDS: [Command; 12] = [
    Command {
        name: "report",
        summary: "trace-driven perf analysis and BENCH_pic.json (DESIGN.md §9)",
        usage: report::REPORT_USAGE,
        run: report::run_report,
    },
    Command {
        name: "timeline",
        summary: "utilization heatmaps, IC vs PIC (DESIGN.md §11)",
        usage: views::TIMELINE_USAGE,
        run: views::run_timeline,
    },
    Command {
        name: "chaos",
        summary: "fault-injection campaign, IC vs PIC (DESIGN.md §12)",
        usage: views::CHAOS_USAGE,
        run: views::run_chaos,
    },
    Command {
        name: "tenancy",
        summary: "multi-tenant job stream through the cluster scheduler (DESIGN.md §13)",
        usage: views::TENANCY_USAGE,
        run: views::run_tenancy,
    },
    Command {
        name: "diff",
        summary: "attribute the delta between two BENCH_pic.json documents (DESIGN.md §14)",
        usage: views::DIFF_USAGE,
        run: views::run_diff,
    },
    Command {
        name: "explain",
        summary: "counterfactual bottleneck attribution (DESIGN.md §15)",
        usage: views::EXPLAIN_USAGE,
        run: views::run_explain,
    },
    Command {
        name: "watch",
        summary: "online monitor replay: dashboard, alert rules, incident log (DESIGN.md §16)",
        usage: views::WATCH_USAGE,
        run: views::run_watch,
    },
    Command {
        name: "regress",
        summary: "gate a fresh BENCH_pic.json against the committed baseline (DESIGN.md §9)",
        usage: report::REGRESS_USAGE,
        run: report::run_regress,
    },
    Command {
        name: "repro",
        summary: "regenerate the paper's tables and figures (EXPERIMENTS.md)",
        usage: report::REPRO_USAGE,
        run: report::run_repro,
    },
    Command {
        name: "event-bench",
        summary: "calendar-queue vs heap hold benchmark, BENCH_event_queue.csv (DESIGN.md §13)",
        usage: bench::EVENT_BENCH_USAGE,
        run: bench::run_event_bench,
    },
    Command {
        name: "host-trend",
        summary: "per-stage host-profile trend and gate, BENCH_host.csv (DESIGN.md §14)",
        usage: bench::HOST_TREND_USAGE,
        run: bench::run_host_trend,
    },
    Command {
        name: "help",
        summary: "print this subcommand table",
        usage: "usage: pic help — print the subcommand table (also printed by bare `pic`)",
        run: run_help,
    },
];

/// `pic help` (and bare `pic`): render the subcommand table plus the
/// app launcher line.
fn run_help(_: Flags) -> Outcome {
    println!("pic — partitioned iterative convergence workbench\n");
    println!("usage: pic <app> [flags]         run one app, IC vs PIC (see `pic --help`)");
    println!("       pic <subcommand> [flags]  see `pic <subcommand> --help`\n");
    let mut t = Table::new(["subcommand", "what it does"]);
    for c in &COMMANDS {
        t.row([c.name, c.summary]);
    }
    println!("{}", t.render());
    println!("apps: {}", APPS.join(", "));
    Ok(0)
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_else(|| "help".into());
    let rest: Vec<String> = argv.collect();
    let code = if name == "--list-apps" {
        for app in APPS {
            println!("{app}");
        }
        0
    } else if name == "--help" || name == "-h" {
        eprintln!("{}", apps::USAGE);
        0
    } else if let Some(c) = COMMANDS.iter().find(|c| c.name == name) {
        dispatch(&name, c.usage, rest, c.run)
    } else if APPS.contains(&name.as_str()) {
        dispatch(&name, apps::USAGE, rest, |f| apps::run(&name, f))
    } else {
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        eprintln!(
            "error: unknown app or subcommand '{name}'; valid apps: {}; valid subcommands: {}",
            APPS.join(", "),
            names.join(", ")
        );
        2
    };
    std::process::exit(code);
}

/// Run one subcommand and turn its outcome into an exit status: `--help`
/// prints `usage`, a usage error prints it after the message.
fn dispatch(name: &str, usage: &str, rest: Vec<String>, run: impl FnOnce(Flags) -> Outcome) -> i32 {
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{usage}");
        return 0;
    }
    match run(Flags::new(rest)) {
        Ok(code) => code,
        Err(Fail::Usage(e)) => {
            eprintln!("error: {e}\n\n{usage}");
            2
        }
        Err(Fail::Abort(e)) => {
            eprintln!("[pic {name}] {e}");
            2
        }
    }
}
