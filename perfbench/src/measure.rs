//! Host measurement: benchmark spans, process CPU time and peak memory,
//! and the order statistics every reported value is taken from.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One benchmark span: a call into one layer, timed from the benchmark.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
}

/// Total and self time of every span of one name within a range of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotal {
    /// Spans of this name.
    pub count: usize,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed duration minus the time covered by child spans, seconds.
    pub self_s: f64,
}

/// In-memory recorder of the benchmark's own spans. A disabled recorder
/// only runs the closure, so end-to-end runs carry no span cost.
pub struct Spans {
    on: bool,
    origin: Instant,
    inner: RefCell<Inner>,
}

#[derive(Default)]
struct Inner {
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    /// Run `f` inside a span called `name`, nested in the innermost open
    /// span.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = {
            let mut inner = self.inner.borrow_mut();
            let id = inner.spans.len();
            let parent = inner.stack.last().copied();
            let start_s = self.origin.elapsed().as_secs_f64();
            inner.spans.push(Span {
                name,
                parent,
                start_s,
                end_s: f64::NAN,
            });
            inner.stack.push(id);
            id
        };
        let out = f();
        let mut inner = self.inner.borrow_mut();
        inner.stack.pop();
        inner.spans[id].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Number of spans recorded so far; a mark for [`Spans::totals_since`].
    pub fn mark(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    /// Per-name totals of the closed spans recorded since `mark`.
    pub fn totals_since(&self, mark: usize) -> BTreeMap<&'static str, SpanTotal> {
        let inner = self.inner.borrow();
        let spans = &inner.spans[mark..];
        let mut child_s = vec![0.0; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.filter(|&p| p >= mark) {
                child_s[p - mark] += s.end_s - s.start_s;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_s) {
            let dur = s.end_s - s.start_s;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += dur;
            t.self_s += dur - child;
        }
        out
    }
}

/// User plus system CPU seconds of this process so far, threads that have
/// exited included. Reads `/proc/self/stat`, whose times are in the
/// kernel's fixed user-visible tick of 1/100 s.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / 100.0)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    // utime and stime are fields 14 and 15.
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Median of `values` (the mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics.
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Time `f`, calling it until at least `min_calls` calls and `min_secs`
/// seconds have passed; returns the mean seconds per call.
pub fn mean_call_secs(min_calls: usize, min_secs: f64, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0usize;
    while calls < min_calls || t0.elapsed().as_secs_f64() < min_secs {
        f();
        calls += 1;
    }
    t0.elapsed().as_secs_f64() / calls as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = Spans::new(true);
        let mark = spans.mark();
        spans.time("outer", || {
            spans.time("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let t = spans.totals_since(mark);
        let outer = t["outer"];
        let inner = t["inner"];
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.total_s >= 0.02);
        assert!(outer.total_s >= inner.total_s);
        assert!((outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-12);
        assert_eq!(inner.self_s, inner.total_s);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let spans = Spans::new(false);
        assert_eq!(spans.time("x", || 7), 7);
        assert_eq!(spans.mark(), 0);
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
    }

    #[test]
    fn process_counters_read() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
