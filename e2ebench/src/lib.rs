//! End-to-end benchmark of the IntelliSphere cost-estimation workspace.
//!
//! One command runs one of three workloads against the program's public
//! API from a single process, checks the outputs and prints every metric
//! by name and unit; the last line of standard output is one JSON object.
//! See `README.md` beside this crate for the workloads, the metric
//! definitions, the layer → end-to-end map and the thread budget.
//!
//! A run with `--trace 0` measures the end-to-end metrics with tracing
//! off. A run with `--trace 1` measures twice from fresh set-ups of the
//! same seed — once untraced, once with benchmark spans around every call
//! into a layer on every other op (or block of rounds) — and reports the
//! per-layer metrics, the tracing overhead, the accounting identity and
//! whether both passes placed identically.

pub mod adhoc;
pub mod dag;
pub mod serve;
pub mod setup;
pub mod stats;
pub mod trace;

use stats::{median, quantile, sliced_tail, slices, tail, FULL_LADDER};
use std::time::Instant;
use trace::{Breakdown, Recorder};

/// How many times a `--trace 0` run builds its set-up: half of the rest
/// before the measured pass, the pass's own, and half of the rest after
/// it, so the samples span the run. `setup_s` is the median of their CPU
/// times.
pub const SETUP_REPEATS: usize = 7;

/// Accounting-identity tolerance: per op, the benchmark's own glue (root
/// self time) may be at most this share of the op's wall time ...
pub const IDENTITY_REL: f64 = 0.05;
/// ... or this many µs, whichever is larger ...
pub const IDENTITY_ABS_US: f64 = 25.0;
/// ... and at most this share of ops may miss it (preemption on a
/// shared 2-core box lands inside a few ops' glue).
pub const IDENTITY_MAX_VIOLATING: f64 = 0.01;

/// Band on `telemetry.trace_overhead_pct`, the p50 of the traced pass's
/// ops with spans against the p50 of its ops without, interleaved in one
/// pass. Where the traced ops replay a program function call by call, a
/// replay that no longer matches the function's cost leaves this band and
/// fails the run. Spans cost under 1% of an op; the rest of the band is
/// noise: the two halves of a 15 s dag pass hold different rounds, and
/// their p50s differed by up to ±7% (seeds 1–35).
pub const TRACE_OVERHEAD_BAND_PCT: f64 = 15.0;

/// Statements per batch for `exec_makespan_s` / `makespan_error_pct` on
/// the streaming workloads (the DAG workload's batch is one round).
pub const MAKESPAN_BATCH: usize = 32;

/// Failed checks printed per pass (all are counted).
const FAILURES_SHOWN: usize = 5;

/// A metric's declaration, as listed in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics (`--trace 0`), in output order.
pub const END_TO_END: [MetricDef; 7] = [
    m("setup_s", "s", "lower"),
    m("latency_p50_us", "us", "lower"),
    m("latency_tail_us", "us", "lower"),
    m("throughput_ops", "ops/s", "higher"),
    m("qerror_p50", "ratio", "lower"),
    m("qerror_p90", "ratio", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics (`--trace 1`), in output order.
pub const PER_LAYER: [MetricDef; 37] = [
    m("sqlkit.parse_us", "us", "lower"),
    m("catalog.global_catalog_us", "us", "lower"),
    m("catalog.tables", "count", "lower"),
    m("federation.plan_self_us", "us", "lower"),
    m("federation.candidates", "count", "lower"),
    m("federation.tables_moved", "count", "lower"),
    m("costing.manager_estimate_us", "us", "lower"),
    m("costing.remedy_share", "ratio", "lower"),
    m("costing.zero_estimate_share", "ratio", "lower"),
    m("remote_sim.exec_us", "us", "lower"),
    m("costing.observe_us", "us", "lower"),
    m("federation.build_us", "us", "lower"),
    m("federation.rules_us", "us", "lower"),
    m("federation.dispatch_us", "us", "lower"),
    m("federation.rule_applications", "count", "higher"),
    m("federation.merged", "count", "higher"),
    m("federation.shared_scan_hits", "count", "higher"),
    m("federation.waves", "count", "lower"),
    m("costing.epochs_published", "count", "lower"),
    m("costing.tune_us", "us", "lower"),
    m("remote_sim.executed_nodes", "count", "lower"),
    m("costing.cache_hit_ratio", "ratio", "higher"),
    m("costing.cache_probe_us", "us", "lower"),
    m("costing.kernel_us", "us", "lower"),
    m("costing.remedy_us", "us", "lower"),
    m("serving.submit_us", "us", "lower"),
    m("serving.queue_wait_us", "us", "lower"),
    m("serving.coalesce_us", "us", "lower"),
    m("serving.batch_size_mean", "count", "higher"),
    m("serving.shed", "count", "lower"),
    m("serving.direct_estimate_us", "us", "lower"),
    m("bench.generator_lag_us", "us", "lower"),
    m("telemetry.trace_overhead_pct", "%", "lower"),
    m("trace.identity_coverage", "ratio", "higher"),
    m("regret_pct", "%", "lower"),
    m("exec_makespan_s", "sim_s", "lower"),
    m("makespan_error_pct", "%", "lower"),
];

/// Per-layer metrics read from benchmark spans: `(metric, span, self?)`.
/// `self? = true` reports the span's self time instead of its duration.
const SPAN_METRICS: [(&str, &str, bool); 11] = [
    ("sqlkit.parse_us", "sqlkit.parse", false),
    ("catalog.global_catalog_us", "catalog.global_catalog", false),
    ("federation.plan_self_us", "federation.plan", true),
    (
        "costing.manager_estimate_us",
        "costing.manager_estimate",
        false,
    ),
    ("remote_sim.exec_us", "remote_sim.exec", false),
    ("costing.observe_us", "costing.observe", false),
    ("federation.build_us", "federation.build", false),
    ("federation.rules_us", "federation.rules", false),
    ("federation.dispatch_us", "federation.dispatch", false),
    ("costing.tune_us", "costing.tune", false),
    ("serving.submit_us", "serving.submit", false),
];

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One closed-loop client running `IntelliSphere::execute`.
    AdhocExecute,
    /// Closed-loop rounds of plan-workload, execute and observe.
    DagFeedback,
    /// An open-loop Poisson schedule into the serving front-end.
    ServeOpen,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::AdhocExecute,
        Workload::DagFeedback,
        Workload::ServeOpen,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AdhocExecute => "adhoc-execute",
            Workload::DagFeedback => "dag-feedback",
            Workload::ServeOpen => "serve-open",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// `--trace 1`: per-layer run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Estimate-quality samples of one measured pass, taken over the
/// workload's fixed quality window (a fixed set of statements or rounds,
/// whatever the run length), so they depend on the seed alone.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Quality {
    /// Q-error of each executed placement's execution estimate.
    pub qerrors: Vec<f64>,
    /// Per-decision regret, percent.
    pub regrets_pct: Vec<f64>,
    /// Per batch: `(predicted, executed)` makespan in simulated seconds.
    pub batches: Vec<(f64, f64)>,
}

impl Quality {
    /// Median over batches of the executed makespan.
    pub fn exec_makespan_s(&self) -> f64 {
        median(&self.batches.iter().map(|b| b.1).collect::<Vec<_>>())
    }

    /// Median over batches of |predicted − executed| / executed, %.
    pub fn makespan_error_pct(&self) -> f64 {
        median(
            &self
                .batches
                .iter()
                .map(|(p, e)| (p - e).abs() / e * 100.0)
                .collect::<Vec<_>>(),
        )
    }

    /// Mean regret, %.
    pub fn regret_pct(&self) -> f64 {
        stats::mean(&self.regrets_pct)
    }
}

/// What one measured pass of a workload produced.
#[derive(Debug)]
pub struct Phase {
    /// Per-op latency, µs (in a traced pass: of the ops run without spans).
    pub latencies_us: Vec<f64>,
    /// Per-op latency of the ops a traced pass ran with spans, µs.
    pub spanned_us: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed, shed or refused.
    pub failed: u64,
    /// Completed work units per wall second (statements for rounds).
    pub throughput: f64,
    /// Estimate quality over the quality window.
    pub quality: Quality,
    /// Digest of the placements (and their estimates) in the quality
    /// window: equal across traced and untraced passes of one seed.
    pub digest: u64,
    /// Output checks that failed.
    pub failed_checks: u64,
    /// The first few failed checks, one line each.
    pub failures: Vec<String>,
    /// Workload-computed per-layer metrics.
    pub layer: Vec<(&'static str, f64)>,
    /// Human-readable notes printed above the result.
    pub notes: Vec<String>,
    /// The spans (empty when untraced).
    pub recorder: Recorder,
}

impl Phase {
    /// A phase with no ops yet, recording into `recorder`.
    pub fn new(recorder: Recorder) -> Self {
        let spanned = if recorder.is_on() { 1 << 19 } else { 0 };
        Phase {
            // Reserved (not touched) up front so growth never copies a
            // large buffer between two timed ops.
            latencies_us: Vec::with_capacity(1 << 20),
            spanned_us: Vec::with_capacity(spanned),
            attempted: 0,
            failed: 0,
            throughput: 0.0,
            quality: Quality::default(),
            digest: stats::FNV_START,
            failed_checks: 0,
            failures: Vec::new(),
            layer: Vec::new(),
            notes: Vec::new(),
            recorder,
        }
    }

    /// Records an output check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed_checks += 1;
            if self.failures.len() < FAILURES_SHOWN {
                self.failures.push(what());
            }
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The run's result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// Metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// Lines printed above the JSON result.
    pub notes: Vec<String>,
}

impl Report {
    /// The JSON result line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One workload: its seeded inputs, its set-up and one measured pass.
pub trait Scenario {
    /// Everything generated from the seed.
    type Inputs;
    /// What set-up builds: engines, tables, trained models.
    type State;
    /// The inputs of `seed` for a pass of `seconds`.
    fn inputs(seed: u64, seconds: f64) -> Self::Inputs;
    /// Builds the program-side state (timed as `setup_s`).
    fn setup(inputs: &Self::Inputs) -> Self::State;
    /// One measured pass.
    fn run(
        state: &mut Self::State,
        inputs: &Self::Inputs,
        seconds: f64,
        recorder: Recorder,
    ) -> Phase;
}

/// Builds a set-up; returns it with its wall and CPU seconds.
fn timed_setup<D: Scenario>(inputs: &D::Inputs) -> (D::State, f64, f64) {
    let (t, cpu) = (Instant::now(), setup::process_cpu_secs());
    let state = D::setup(inputs);
    let cpu = setup::process_cpu_secs() - cpu;
    (state, t.elapsed().as_secs_f64(), cpu)
}

/// A fresh set-up and one pass.
fn phase<D: Scenario>(inputs: &D::Inputs, seconds: f64, traced: bool) -> Phase {
    let mut state = D::setup(inputs);
    D::run(&mut state, inputs, seconds, Recorder::new(traced))
}

fn latency_note(label: &str, latencies: &[f64]) -> String {
    let gated = sliced_tail(latencies);
    let full = tail(latencies, &FULL_LADDER);
    let medians: Vec<String> = slices(latencies)
        .map(|c| format!("{:.1}", median(c)))
        .collect();
    format!(
        "{label}: latency_tail_us is p{} = {:.1} us, the median over {} slices of {} samples \
         ({} beyond each slice's p{}; slice medians {} us); whole run: p{} = {:.1} us ({} of {} samples beyond)",
        gated.percentile,
        gated.value,
        medians.len(),
        gated.samples / medians.len().max(1),
        gated.beyond,
        gated.percentile,
        medians.join(", "),
        full.percentile,
        full.value,
        full.beyond,
        full.samples
    )
}

/// Runs the benchmark as `args` asks and returns its report.
pub fn run(args: &Args) -> Report {
    match (args.workload, args.trace) {
        (Workload::AdhocExecute, false) => run_untraced::<adhoc::Adhoc>(args),
        (Workload::AdhocExecute, true) => run_traced::<adhoc::Adhoc>(args),
        (Workload::DagFeedback, false) => run_untraced::<dag::Dag>(args),
        (Workload::DagFeedback, true) => run_traced::<dag::Dag>(args),
        (Workload::ServeOpen, false) => run_untraced::<serve::Serve>(args),
        (Workload::ServeOpen, true) => run_traced::<serve::Serve>(args),
    }
}

fn run_untraced<D: Scenario>(args: &Args) -> Report {
    let inputs = D::inputs(args.seed, args.seconds);
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let mut setup = || {
        let (state, wall, cpu) = timed_setup::<D>(&inputs);
        walls.push(wall);
        cpus.push(cpu);
        state
    };
    for _ in 0..(SETUP_REPEATS - 1) / 2 {
        drop(setup());
    }
    let mut state = setup();
    let phase = D::run(&mut state, &inputs, args.seconds, Recorder::new(false));
    drop(state);
    for _ in 0..SETUP_REPEATS / 2 {
        drop(setup());
    }
    let q = &phase.quality;
    let t = sliced_tail(&phase.latencies_us);
    let values = [
        median(&cpus),
        median(&phase.latencies_us),
        t.value,
        phase.throughput,
        quantile(&q.qerrors, 0.5),
        quantile(&q.qerrors, 0.9),
        setup::peak_rss_mb(),
    ];
    let mut notes = phase.notes.clone();
    notes.push(latency_note(args.workload.name(), &phase.latencies_us));

    let list = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    notes.push(format!(
        "set-ups: CPU s {} (setup_s is their median); wall s {}",
        list(&cpus),
        list(&walls)
    ));
    notes.push(format!(
        "quality window: {} Q-errors ({} infinite: an estimate of 0 s), {} regret decisions, {} makespan batches",
        q.qerrors.len(),
        q.qerrors.iter().filter(|x| x.is_infinite()).count(),
        q.regrets_pct.len(),
        q.batches.len()
    ));
    finish(
        args,
        phase.failed_checks,
        &phase.failures,
        phase.attempted,
        phase.failed,
        &END_TO_END,
        &values,
        notes,
    )
}

fn run_traced<D: Scenario>(args: &Args) -> Report {
    let half = args.seconds / 2.0;
    let inputs = D::inputs(args.seed, half);
    let plain = phase::<D>(&inputs, half, false);
    let traced = phase::<D>(&inputs, half, true);
    let mut failed_checks = plain.failed_checks + traced.failed_checks;
    let mut failures = plain.failures.clone();
    failures.extend(traced.failures.iter().cloned());
    if plain.digest != traced.digest {
        failed_checks += 1;
        failures.push(format!(
            "placement digest differs between untraced ({:016x}) and traced ({:016x}) passes",
            plain.digest, traced.digest
        ));
    }
    let spans = traced.recorder.spans();
    let breakdown = Breakdown::of(spans);
    let identity = breakdown.identity(IDENTITY_REL, IDENTITY_ABS_US);
    let violating = if identity.ops > 0 {
        identity.violations as f64 / identity.ops as f64
    } else {
        1.0
    };
    if identity.ops == 0 || violating > IDENTITY_MAX_VIOLATING {
        failed_checks += 1;
        failures.push(format!(
            "accounting identity: {} of {} ops have glue beyond max({}% of wall, {} us)",
            identity.violations,
            identity.ops,
            IDENTITY_REL * 100.0,
            IDENTITY_ABS_US
        ));
    }
    // Ops with and without spans, interleaved in the traced pass.
    let p50_plain = median(&traced.latencies_us);
    let p50_traced = median(&traced.spanned_us);
    let overhead_pct = (p50_traced - p50_plain) / p50_plain * 100.0;
    if overhead_pct.is_nan() || overhead_pct.abs() > TRACE_OVERHEAD_BAND_PCT {
        failed_checks += 1;
        failures.push(format!(
            "trace overhead {overhead_pct:.2}% is outside ±{TRACE_OVERHEAD_BAND_PCT}%: \
             ops with spans (p50 {p50_traced:.2} us) no longer cost what the program's own ops \
             (p50 {p50_plain:.2} us) do; a replayed function has drifted from the program"
        ));
    }
    let mut values = vec![0.0; PER_LAYER.len()];
    let mut set = |name: &str, v: f64| {
        if let Some(i) = PER_LAYER.iter().position(|d| d.name == name) {
            values[i] = v;
        }
    };
    for (metric, span, self_time) in SPAN_METRICS {
        let samples = if self_time {
            breakdown.self_times(span)
        } else {
            breakdown.durations(span)
        };
        set(metric, median(&samples));
    }
    for (name, v) in &traced.layer {
        set(name, *v);
    }
    set("telemetry.trace_overhead_pct", overhead_pct);
    set("trace.identity_coverage", identity.coverage());
    // Estimate quality of the untraced pass (the traced pass replays the
    // same placements; the digests prove it).
    set("regret_pct", plain.quality.regret_pct());
    set("exec_makespan_s", plain.quality.exec_makespan_s());
    set("makespan_error_pct", plain.quality.makespan_error_pct());
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}.tsv", args.workload.name()));
    let mut notes = traced.notes.clone();
    match traced.recorder.write_tsv(&path) {
        Ok(()) => notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => notes.push(format!("could not write spans to {}: {e}", path.display())),
    }
    notes.push(format!(
        "accounting identity: layers cover {:.2}% of op wall time; {} of {} ops beyond tolerance",
        identity.coverage() * 100.0,
        identity.violations,
        identity.ops
    ));
    notes.push(format!(
        "traced pass: p50 {p50_plain:.2} us over {} ops without spans, {p50_traced:.2} us over {} ops with; \
         untraced pass p50 {:.2} us; digests {:016x} / {:016x}",
        traced.latencies_us.len(),
        traced.spanned_us.len(),
        median(&plain.latencies_us),
        plain.digest,
        traced.digest
    ));
    notes.push(latency_note("untraced", &plain.latencies_us));
    finish(
        args,
        failed_checks,
        &failures,
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
        &PER_LAYER,
        &values,
        notes,
    )
}

#[allow(clippy::too_many_arguments)]
fn finish(
    args: &Args,
    failed_checks: u64,
    failures: &[String],
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &[f64],
    mut notes: Vec<String>,
) -> Report {
    let mut correct = failed_checks == 0 && attempted > 0;
    let mut metrics = Vec::with_capacity(defs.len());
    for (d, &v) in defs.iter().zip(values) {
        let value = if v.is_finite() {
            v
        } else {
            correct = false;
            notes.push(format!("metric {} is not finite ({v})", d.name));
            0.0
        };
        metrics.push(Metric {
            name: d.name,
            value,
            unit: d.unit,
        });
    }
    if failed_checks > 0 {
        notes.push(format!("{failed_checks} output checks FAILED; the first:"));
    }
    for f in failures {
        notes.push(format!("CHECK FAILED: {f}"));
    }
    notes.insert(
        0,
        format!(
            "workload {} seed {} seconds {} trace {}",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
    );
    Report {
        correct,
        attempted: attempted.max(1),
        failed,
        metrics,
        notes,
    }
}
