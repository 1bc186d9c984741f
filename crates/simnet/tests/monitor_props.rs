//! Property-based tests for the reconciling views: the series pass, the
//! perf report, the utilization report and the online monitor must all
//! reproduce the **exact** ledger totals for any sequence of charges —
//! windowed or impulse, awkward fractional windows included — and each
//! must name the one class a corrupted ledger disagrees on.

use pic_simnet::monitor::{Monitor, MonitorConfig};
use pic_simnet::trace::check;
use pic_simnet::{
    ClusterSpec, PerfReport, Tracer, TrafficClass, TrafficLedger, TrafficSnapshot,
    UtilizationReport,
};
use proptest::prelude::*;

/// A random charge: a class index, a byte count, and an optional window.
type ChargeSpec = (usize, u64, Option<(f64, f64)>);

/// One view's ledger comparison.
type Reconcile<'a> = &'a dyn Fn(&TrafficSnapshot) -> Result<(), Vec<String>>;

/// One random charge: a class, a byte count small enough that even
/// hundreds of charges cannot overflow `u64`, and an optional window
/// (`add_over`) instead of an impulse (`add`).
fn charge_strategy() -> impl Strategy<Value = ChargeSpec> {
    (
        0..TrafficClass::ALL.len(),
        0u64..1_000_000_000,
        any::<bool>(),
        0.0f64..500.0,
        0.0f64..500.0,
    )
        .prop_map(|(class, bytes, windowed, w0, w1)| (class, bytes, windowed.then_some((w0, w1))))
}

fn traced_run(charges: &[ChargeSpec]) -> (Tracer, TrafficLedger) {
    let tracer = Tracer::standalone();
    let ledger = TrafficLedger::traced(tracer.clone());
    let root = tracer.begin_at("run", "driver", 0.0);
    for &(class_idx, bytes, window) in charges {
        let class = TrafficClass::ALL[class_idx];
        match window {
            Some((w0, w1)) => ledger.add_over(class, bytes, w0, w1),
            None => ledger.add(class, bytes),
        }
    }
    tracer.end_at(root, 500.0);
    (tracer, ledger)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every reconciling view accepts the ledger for any random charge
    /// sequence, monitor window and utilization grid — and a ledger one
    /// byte off in one class makes each report exactly one violation,
    /// naming that class.
    #[test]
    fn window_integrals_equal_ledger_totals(
        charges in proptest::collection::vec(charge_strategy(), 0..120),
        window_s in 0.1f64..60.0,
        intervals in 1usize..200,
        off_class in 0..TrafficClass::ALL.len(),
    ) {
        let (tracer, ledger) = traced_run(&charges);
        let trace = tracer.trace();
        let snap = ledger.snapshot();

        let mut cfg = MonitorConfig::new(ClusterSpec::small());
        cfg.window_s = window_s;
        let monitor = Monitor::replay(cfg, &trace).expect("valid config");
        let perf = PerfReport::from_trace(&trace);
        let util = UtilizationReport::with_intervals(&trace, &ClusterSpec::small(), intervals);
        let views: [(&str, Reconcile); 4] = [
            ("series", &|l| check::series_integrals(&trace, l)),
            ("perf", &|l| perf.reconcile(l)),
            ("utilization", &|l| util.reconcile(l)),
            ("monitor", &|l| monitor.reconcile(l)),
        ];

        prop_assert!(check::validate(&trace, &snap).is_ok(),
            "{:?}", check::validate(&trace, &snap).unwrap_err());
        for (name, reconcile) in &views {
            prop_assert!(reconcile(&snap).is_ok(),
                "{name} (window {window_s}, {intervals} intervals): {:?}",
                reconcile(&snap).unwrap_err());
        }

        let one = TrafficLedger::new();
        let class = TrafficClass::ALL[off_class];
        one.add(class, 1);
        let off = snap.plus(&one.snapshot());
        let prefix = format!("class {}: ", class.label());
        for (name, reconcile) in &views {
            let errs = reconcile(&off).expect_err("one byte off must be caught");
            prop_assert_eq!(errs.len(), 1, "{}: {:?}", name, errs);
            prop_assert!(errs[0].starts_with(&prefix), "{name}: {errs:?}");
        }

        // The recovery series integrates to the exact recovery total.
        prop_assert_eq!(monitor.recovery_bytes_total(), snap.recovery_total());
    }
}
