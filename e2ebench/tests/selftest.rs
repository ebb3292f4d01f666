//! Self-tests of the benchmark: the seed alone fixes every generated
//! input, estimate quality and placements repeat exactly at one seed
//! (untraced and traced alike), the traced pass meets the accounting
//! identity, and `BENCHMARK.json` declares exactly the metrics the
//! command prints.
//!
//! Run with `cargo test --release --manifest-path e2ebench/Cargo.toml`.

use e2ebench::adhoc::Adhoc;
use e2ebench::dag::Dag;
use e2ebench::serve::Serve;
use e2ebench::trace::{Breakdown, Recorder};
use e2ebench::{Args, Phase, Scenario, Workload, END_TO_END, PER_LAYER};

/// Seconds of one short measured pass.
const SHORT: f64 = 0.3;

fn pass<D: Scenario>(inputs: &D::Inputs, traced: bool) -> Phase {
    let mut state = D::setup(inputs);
    D::run(&mut state, inputs, SHORT, Recorder::new(traced))
}

#[test]
fn seed_alone_fixes_every_input() {
    assert_eq!(Adhoc::inputs(7, SHORT), Adhoc::inputs(7, SHORT));
    assert_ne!(Adhoc::inputs(7, SHORT), Adhoc::inputs(8, SHORT));
    let a = Adhoc::inputs(7, SHORT);
    let stream: Vec<usize> = (0..1000).map(|i| a.statement(i)).collect();
    assert_eq!(
        stream,
        (0..1000)
            .map(|i| Adhoc::inputs(7, SHORT).statement(i))
            .collect::<Vec<_>>()
    );

    assert_eq!(Dag::inputs(7, SHORT), Dag::inputs(7, SHORT));
    let (d7, d8) = (Dag::inputs(7, SHORT), Dag::inputs(8, SHORT));
    assert_eq!(d7.round(3), Dag::inputs(7, SHORT).round(3));
    assert_ne!(d7.round(3), d8.round(3));

    let (s7, s8) = (Serve::inputs(7, 1.0), Serve::inputs(8, 1.0));
    assert_eq!(s7, Serve::inputs(7, 1.0));
    assert_ne!(s7.arrivals, s8.arrivals);
    assert_ne!(s7.pool, s8.pool);
    assert!(s7.arrivals.len() > 15_000, "about 20k arrivals per second");
    for i in [0, 1, 999, 12_345] {
        assert_eq!(s7.request(i), Serve::inputs(7, 1.0).request(i));
    }
    // A longer schedule extends a shorter one.
    let s7_long = Serve::inputs(7, 2.0);
    assert_eq!(s7.arrivals[..], s7_long.arrivals[..s7.arrivals.len()]);
}

fn repeats_exactly<D: Scenario>(seed: u64) {
    let inputs = D::inputs(seed, SHORT);
    let first = pass::<D>(&inputs, false);
    let second = pass::<D>(&inputs, false);
    let traced = pass::<D>(&inputs, true);
    for p in [&first, &second, &traced] {
        assert_eq!(p.failed, 0, "{:?}", p.notes);
    }
    let q = &first.quality;
    assert!(!q.qerrors.is_empty() && !q.regrets_pct.is_empty() && !q.batches.is_empty());
    assert_eq!(
        q, &second.quality,
        "quality samples differ between two runs of one seed"
    );
    for (a, b) in [
        (q.regret_pct(), second.quality.regret_pct()),
        (q.exec_makespan_s(), second.quality.exec_makespan_s()),
        (q.makespan_error_pct(), second.quality.makespan_error_pct()),
    ] {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(first.digest, second.digest);
    assert_eq!(
        first.digest, traced.digest,
        "traced pass placed differently"
    );

    assert!(
        !traced.spanned_us.is_empty() && !traced.latencies_us.is_empty(),
        "the traced pass interleaves ops with and without spans"
    );
    let breakdown = Breakdown::of(traced.recorder.spans());
    let identity = breakdown.identity(e2ebench::IDENTITY_REL, e2ebench::IDENTITY_ABS_US);
    assert!(identity.ops > 0);
    assert!(
        identity.violations as f64 <= identity.ops as f64 * e2ebench::IDENTITY_MAX_VIOLATING + 1.0,
        "{identity:?}"
    );
}

#[test]
fn adhoc_quality_and_placements_repeat_exactly() {
    repeats_exactly::<Adhoc>(3);
}

#[test]
fn dag_quality_and_placements_repeat_exactly() {
    repeats_exactly::<Dag>(3);
}

#[test]
fn serve_quality_and_replies_repeat_exactly() {
    repeats_exactly::<Serve>(3);
}

#[test]
fn command_prints_every_declared_metric() {
    for trace in [false, true] {
        let report = e2ebench::run(&Args {
            workload: Workload::DagFeedback,
            seed: 5,
            seconds: 0.5,
            trace,
        });
        let defs: &[_] = if trace { &PER_LAYER } else { &END_TO_END };
        let names: Vec<_> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(
            names,
            defs.iter().map(|d| (d.name, d.unit)).collect::<Vec<_>>()
        );
        let json = report.json();
        assert!(json.starts_with("{\"correct\": ") && json.ends_with("}}"));
        assert!(report.attempted >= 1);
    }
}

#[test]
fn benchmark_json_declares_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let (head, per_layer) = text.split_once("\"per_layer\"").expect("a per_layer list");
    let (workloads, end_to_end) = head
        .split_once("\"end_to_end\"")
        .expect("an end_to_end list");
    for w in Workload::ALL {
        assert!(
            workloads.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())),
            "{}",
            w.name()
        );
    }
    assert_eq!(workloads.matches("\"name\"").count(), Workload::ALL.len());
    for (section, defs) in [(end_to_end, &END_TO_END[..]), (per_layer, &PER_LAYER[..])] {
        assert_eq!(section.matches("\"name\"").count(), defs.len());
        for d in defs {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            );
            assert!(section.contains(&entry), "{entry} missing");
        }
    }
}

#[test]
fn arguments_are_validated() {
    let args = |s: &str| Args::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
    let ok = args("--workload serve-open --seed 4 --seconds 10 --trace 1").unwrap();
    assert_eq!(
        (ok.workload, ok.seed, ok.seconds, ok.trace),
        (Workload::ServeOpen, 4, 10.0, true)
    );
    for bad in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload adhoc-execute --seed -1 --seconds 1 --trace 0",
        "--workload adhoc-execute --seed 1 --seconds 0 --trace 0",
        "--workload adhoc-execute --seed 1 --seconds 1 --trace 2",
        "--workload adhoc-execute --seconds 1",
        "--workload",
    ] {
        assert!(args(bad).is_err(), "{bad}");
    }
}
