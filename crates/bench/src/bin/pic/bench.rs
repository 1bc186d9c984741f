//! The host-time benchmarks behind the committed trend files:
//! `pic event-bench` (`BENCH_event_queue.csv`, DESIGN.md §13) and
//! `pic host-trend` (`BENCH_host.csv`, DESIGN.md §14).

use crate::flags::{self, write_artifact, Fail, Flags, Outcome};
use pic_bench::host_trend;
use pic_simnet::event::{EventQueue, HeapQueue};

pub const EVENT_BENCH_USAGE: &str = "\
usage: pic event-bench [flags] — calendar queue vs BinaryHeap, hold model (DESIGN.md §13)

Pops the earliest event and pushes a replacement a pseudo-random
increment later, keeping the population constant (the steady state of a
multi-tenant simulation), and reports host nanoseconds per operation.

flags:
  --events <n>         total operations per run (default 1000000)
  --jobs <a,b,..>      concurrent-event populations (default 1024,4096,16384)
  --out <csv>          write the CSV trend file
  --check              exit 1 unless the calendar queue wins at every 1k+ population";

pub const HOST_TREND_USAGE: &str = "\
usage: pic host-trend [flags] — per-stage host profile trend (DESIGN.md §14)

Profiles the fixed k-means workload at scale 0.02 five times and reduces
to per-stage medians and shares of host time.

flags:
  --out <csv>          write the fresh trend file (how BENCH_host.csv is regenerated)
  --baseline <csv>     gate the fresh profile against this file: calls/bytes
                       exact, time shares within 0.25 absolute; exit 1 on violation";

/// SplitMix64: deterministic hold increments without RNG setup cost.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn increment(state: &mut u64) -> f64 {
    (splitmix64(state) % 1_000_000) as f64 * 1e-6 + 1e-6
}

/// One hold run: `events` pop+push pairs over a `jobs`-event population.
/// Returns (ns per operation, checksum) — the checksum keeps the
/// optimizer honest and doubles as a cross-implementation assert.
macro_rules! hold {
    ($queue:expr, $jobs:expr, $events:expr) => {{
        let mut q = $queue;
        let mut rng = 0xE7E4u64;
        for i in 0..$jobs {
            q.push(i as f64 * 1e-3, i as u32);
        }
        let t0 = std::time::Instant::now();
        let mut checksum = 0.0f64;
        for _ in 0..$events {
            let (t, id) = q.pop().expect("hold keeps the queue non-empty");
            checksum += t;
            q.push(t + increment(&mut rng), id);
        }
        let ns = t0.elapsed().as_nanos() as f64 / $events as f64;
        (ns, checksum)
    }};
}

/// `pic event-bench`: the hold model on both queues at each population.
/// `--check` is the CI wiring for the calendar queue's claim.
pub fn run_event_bench(mut f: Flags) -> Outcome {
    const TAG: &str = "pic event-bench";
    let mut events = 1_000_000usize;
    let mut populations = vec![1_024usize, 4_096, 16_384];
    let mut out: Option<String> = None;
    let mut check = false;
    while let Some(arg) = f.next() {
        match arg.as_str() {
            "--events" => events = f.positive("--events")?,
            "--jobs" => {
                populations = f.list("--jobs")?;
                if populations.contains(&0) {
                    return Err(Fail::Usage("--jobs wants positive populations".into()));
                }
            }
            "--out" => out = Some(f.value("--out")?),
            "--check" => check = true,
            other => return Err(flags::unknown(other).into()),
        }
    }

    let mut csv = String::from("events,jobs,heap_ns_per_op,calendar_ns_per_op,speedup_x\n");
    let mut losses = 0usize;
    for &jobs in &populations {
        let (heap_ns, heap_sum) = hold!(HeapQueue::new(), jobs, events);
        let (cal_ns, cal_sum) = hold!(EventQueue::new(), jobs, events);
        assert_eq!(
            heap_sum.to_bits(),
            cal_sum.to_bits(),
            "hold runs must pop identical event sequences"
        );
        let speedup = heap_ns / cal_ns;
        println!(
            "jobs {jobs:>6}: heap {heap_ns:8.1} ns/op, calendar {cal_ns:8.1} ns/op, {speedup:.2}x"
        );
        csv.push_str(&format!(
            "{events},{jobs},{heap_ns:.1},{cal_ns:.1},{speedup:.3}\n"
        ));
        if jobs >= 1_000 && cal_ns >= heap_ns {
            losses += 1;
        }
    }
    if let Some(path) = &out {
        write_artifact(TAG, path, &csv)?;
    }

    if check {
        if losses > 0 {
            eprintln!("[{TAG}] FAIL: calendar queue lost at {losses} population(s) of 1k+ jobs");
            return Ok(1);
        }
        eprintln!("[{TAG}] PASS: calendar queue wins at every 1k+ population");
    }
    Ok(0)
}

/// `pic host-trend`: load the baseline first (a malformed one exits 2
/// before any measuring), measure, print, then write and/or gate.
pub fn run_host_trend(mut f: Flags) -> Outcome {
    const TAG: &str = "pic host-trend";
    let mut out: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    while let Some(arg) = f.next() {
        match arg.as_str() {
            "--out" => out = Some(f.value("--out")?),
            "--baseline" => baseline_path = Some(f.value("--baseline")?),
            other => return Err(flags::unknown(other).into()),
        }
    }

    let baseline = match &baseline_path {
        Some(path) => {
            let doc = std::fs::read_to_string(path).map_err(|e| {
                Fail::Abort(format!(
                    "cannot read baseline {path}: {e}\n\
                     [{TAG}] generate it with: pic host-trend --out {path}"
                ))
            })?;
            let rows = host_trend::from_csv(&doc)
                .map_err(|e| Fail::Abort(format!("baseline {path} is malformed: {e}")))?;
            Some((path, rows))
        }
        None => None,
    };

    let rows = host_trend::measure(host_trend::TREND_SCALE, host_trend::DEFAULT_REPS)
        .map_err(|e| Fail::Abort(format!("host profile failed: {e}")))?;
    for r in &rows {
        println!(
            "{:<24} calls {:>8} bytes {:>12} median {:>10.6}s share {:>5.1}%",
            r.stage,
            r.calls,
            r.bytes,
            r.median_total_s,
            100.0 * r.share
        );
    }
    if let Some(path) = &out {
        write_artifact(TAG, path, &host_trend::to_csv(&rows))?;
    }

    if let Some((path, baseline)) = baseline {
        let errs = host_trend::check(&baseline, &rows, host_trend::SHARE_BAND);
        if !errs.is_empty() {
            eprintln!(
                "[{TAG}] FAIL: {} host-trend violation(s) against {path}:",
                errs.len()
            );
            for e in &errs {
                eprintln!("[{TAG}]   {e}");
            }
            return Ok(1);
        }
        eprintln!(
            "[{TAG}] PASS: host profile matches {path} (calls/bytes exact, shares within {})",
            host_trend::SHARE_BAND
        );
    }
    Ok(0)
}
