//! `adhoc-execute`: one closed-loop client; each op is
//! `IntelliSphere::execute(sql)` — parse, plan, QueryGrid move,
//! remote-sim execute, observe (the paper's Fig. 3 flow).
//!
//! The statement stream is drawn Zipf-skewed from a seeded pool of
//! Fig. 10 joins and aggregations over all 120 tables, spread across a
//! hybrid federation: a black-box Hive costed by a logical-op model
//! trained on tables of up to 2M rows (larger tables take the remedy,
//! Fig. 14), sub-op Spark and RDBMS, and the master.
//!
//! The traced pass alternates ops between `execute` itself and a replay
//! of `execute` through the same public functions it is built from, with
//! a span around each layer call. The placement digest proves the replay
//! placed, estimated and executed identically; the p50 of replayed ops
//! against the p50 of `execute` ops (`telemetry.trace_overhead_pct`,
//! held to a band) proves it costs the same. [`execute_spanned`] must
//! follow `IntelliSphere::execute` whenever that function changes.

use crate::setup::{
    self, draw, hive, mix, rdbms, shuffle, spark, stratified, train_flows, zipf_cdf, SystemSpec,
    MASTER, SYSTEM_SEED,
};
use crate::stats::{fnv, qerror};
use crate::trace::{Recorder, ROOT};
use crate::{Phase, Scenario, MAKESPAN_BATCH};
use catalog::SystemId;
use costing::hybrid::{CostingApproach, CostingProfile, LogicalOpSuite};
use costing::{EstimateSource, OperatorKind};
use federation::ir::cost_candidates;
use federation::{
    enumerate_placements, ExecutionReport, IntelliSphere, PlacementOption, PlanReport,
    TransferCostModel,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use remote_sim::analyze::analyze;
use remote_sim::{ClusterEngine, RemoteSystem};
use std::collections::BTreeMap;
use std::time::Instant;
use workload::{
    build_table, fig10_table_specs, probe_suite, specs_up_to, AggQuery, JoinQuery, TableSpec,
};

/// The federation: master, black-box Hive, sub-op Spark, sub-op RDBMS.
pub const SYSTEMS: [SystemSpec; 4] = [
    MASTER,
    hive("hive-bb"),
    spark("spark-so"),
    rdbms("rdbms-so"),
];
/// Index of the logical-op (black-box) Hive in [`SYSTEMS`].
const HIVE: usize = 1;
/// The Hive model's training range: tables of at most this many rows.
pub const HIVE_TRAINED_ROWS: u64 = 2_000_000;
/// Zipf exponent of statement popularity: 1.1, the skew the workspace's
/// own generators use (`workload::dag`, the workload and front-end
/// experiments).
pub const ZIPF_SKEW: f64 = 1.1;
/// Pool statements per table (half aggregations, half joins).
pub const POOL_PER_TABLE: usize = 4;
/// Ops from the start of the timed loop the placement digest covers
/// (besides the whole quality pass).
pub const DIGEST_OPS: u64 = 1024;

/// The seeded inputs: table owners, the statement pool and the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    seed: u64,
    /// Every Fig. 10 table with the index of its owning system.
    pub tables: Vec<(TableSpec, usize)>,
    /// The statement pool, in Zipf-rank order (most popular first).
    pub pool: Vec<String>,
    cdf: Vec<f64>,
}

impl Inputs {
    /// The inputs of `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(mix(seed, 0xADC0));
        let specs = fig10_table_specs();
        // Balanced ownership: a seeded permutation dealt round-robin, so
        // every system owns the same number of tables.
        let mut order: Vec<usize> = (0..specs.len()).collect();
        shuffle(&mut order, &mut rng);
        let mut tables: Vec<(TableSpec, usize)> = vec![(specs[0], 0); specs.len()];
        for (k, &i) in order.iter().enumerate() {
            tables[i] = (specs[i], k % SYSTEMS.len());
        }
        // Per table, POOL_PER_TABLE / 2 aggregations and as many joins, so
        // every table is read.
        let (mut aggs, mut joins) = (Vec::new(), Vec::new());
        for &table in &specs {
            for _ in 0..POOL_PER_TABLE / 2 {
                aggs.push(
                    AggQuery {
                        table,
                        shrink_factor: [2u64, 5, 10, 20, 50, 100][rng.gen_range(0..6usize)],
                        n_aggs: rng.gen_range(1..=5),
                    }
                    .sql(),
                );
                // Fig. 10 joins pair two tables of one record size.
                let partners: Vec<TableSpec> = specs
                    .iter()
                    .copied()
                    .filter(|s| s.record_bytes == table.record_bytes && s.rows != table.rows)
                    .collect();
                let other = partners[rng.gen_range(0..partners.len())];
                let (big, small) = if table.rows > other.rows {
                    (table, other)
                } else {
                    (other, table)
                };
                joins.push(
                    JoinQuery {
                        big,
                        small,
                        selectivity_pct: [100u32, 50, 25, 1][rng.gen_range(0..4usize)],
                        projection: rng.gen_range(0..3),
                    }
                    .sql(),
                );
            }
        }
        // Seeded popularity ranks that alternate aggregation and join.
        let kinds = aggs
            .into_iter()
            .map(|a| (0, a))
            .chain(joins.into_iter().map(|j| (1, j)));
        let pool = stratified(kinds.collect(), &mut rng);
        Inputs {
            seed,
            tables,
            cdf: zipf_cdf(pool.len(), ZIPF_SKEW),
            pool,
        }
    }

    /// The pool index of the `i`-th statement of the stream.
    pub fn statement(&self, i: u64) -> usize {
        draw(&self.cdf, mix(self.seed ^ 0x5EED_57EA, i))
    }
}

/// The set-up: the federation with its tables and trained profiles.
pub struct State {
    sphere: IntelliSphere,
}

/// The `adhoc-execute` workload.
pub struct Adhoc;

impl Scenario for Adhoc {
    type Inputs = Inputs;
    type State = State;

    fn inputs(seed: u64, _seconds: f64) -> Inputs {
        Inputs::new(seed)
    }

    /// Builds engines, registers tables, runs the training campaigns and
    /// fits every profile.
    fn setup(inputs: &Inputs) -> State {
        let mut sphere = IntelliSphere::new(mix(SYSTEM_SEED, 10));
        for (i, s) in SYSTEMS.iter().enumerate().skip(1) {
            sphere.add_remote(s.engine(mix(SYSTEM_SEED, 20 + i as u64)));
        }
        for (spec, owner) in &inputs.tables {
            sphere
                .add_table(&SYSTEMS[*owner].system(), build_table(spec))
                .expect("fig10 tables are distinct");
        }
        let hive = &SYSTEMS[HIVE];
        let (join, agg) = train_flows(hive, &specs_up_to(HIVE_TRAINED_ROWS), mix(SYSTEM_SEED, 30));
        sphere.manager_mut().register(CostingProfile::new(
            hive.system(),
            (hive.persona)().kind,
            CostingApproach::LogicalOp(LogicalOpSuite {
                join: Some(join),
                aggregation: Some(agg),
            }),
        ));
        let probes = probe_suite();
        for (i, s) in SYSTEMS.iter().enumerate() {
            if i != HIVE {
                sphere
                    .train_subop(&s.system(), &probes)
                    .expect("sub-op profile fits");
            }
        }
        State { sphere }
    }

    /// Runs the quality pass (which is also the warm-up), then the timed
    /// closed loop for `seconds` (and at least [`DIGEST_OPS`] ops). A
    /// traced pass replays every odd op with spans and runs every even
    /// one through `execute`.
    fn run(state: &mut State, inputs: &Inputs, seconds: f64, recorder: Recorder) -> Phase {
        let mut phase = Phase::new(recorder);
        let traced = phase.recorder.is_on();
        let mut counts = Counts::default();

        // Untimed: every pool statement once, in its seeded order. This is
        // the quality window, and it lets QueryGrid moves settle before
        // timing starts. The traced pass replays it without spans.
        let mut window: Vec<WindowOp> = Vec::with_capacity(inputs.pool.len());
        let mut silent = Recorder::new(false);
        for (statement, sql) in inputs.pool.iter().enumerate() {
            // The candidate set the planner is about to see: regret truth.
            let options = if traced {
                Vec::new()
            } else {
                let catalog = state.sphere.global_catalog();
                sqlkit::sql_to_plan(sql)
                    .ok()
                    .and_then(|plan| enumerate_placements(&catalog, &plan).ok())
                    .unwrap_or_default()
            };
            let result = if traced {
                execute_traced(&mut state.sphere, sql, &mut silent, 0, &mut counts)
            } else {
                state.sphere.execute(sql).map_err(|e| e.to_string())
            };
            if let Some(report) = checked(&mut phase, "warm-up", sql, result) {
                digest_report(&mut phase.digest, &report);
                window.push(WindowOp {
                    statement,
                    options,
                    report,
                });
            }
        }

        let start = Instant::now();
        let mut i: u64 = 0;
        while i < DIGEST_OPS || start.elapsed().as_secs_f64() < seconds {
            let sql = &inputs.pool[inputs.statement(i)];
            let replay = traced && i % 2 == 1;
            let t = Instant::now();
            let result = if replay {
                execute_traced(&mut state.sphere, sql, &mut phase.recorder, i, &mut counts)
            } else {
                state.sphere.execute(sql).map_err(|e| e.to_string())
            };
            let us = t.elapsed().as_secs_f64() * 1e6;
            if replay {
                phase.spanned_us.push(us);
            } else {
                phase.latencies_us.push(us);
            }
            phase.attempted += 1;
            match checked(&mut phase, "timed", sql, result) {
                Some(report) if i < DIGEST_OPS => digest_report(&mut phase.digest, &report),
                Some(_) => {}
                None => phase.failed += 1,
            }
            i += 1;
        }
        let wall = start.elapsed().as_secs_f64();
        phase.throughput = (phase.attempted - phase.failed) as f64 / wall;
        if traced {
            let tables: usize = SYSTEMS
                .iter()
                .filter_map(|s| {
                    state
                        .sphere
                        .engine_mut(&s.system())
                        .map(|e| e.catalog().table_count())
                })
                .sum();
            phase.layer = vec![
                ("catalog.tables", tables as f64),
                (
                    "costing.zero_estimate_share",
                    counts.zero as f64 / counts.plans.max(1) as f64,
                ),
                (
                    "federation.candidates",
                    counts.candidates as f64 / counts.plans.max(1) as f64,
                ),
                ("federation.tables_moved", counts.moved as f64),
                (
                    "costing.remedy_share",
                    counts.remedy as f64 / counts.estimates.max(1) as f64,
                ),
            ];
        } else {
            phase.quality = quality(inputs, &window);
        }
        phase.notes.push(format!(
            "{} timed ops in {wall:.2} s after a {}-statement quality pass",
            phase.attempted,
            window.len()
        ));
        phase
    }
}

/// Per-op record kept over the quality window.
struct WindowOp {
    statement: usize,
    options: Vec<PlacementOption>,
    report: ExecutionReport,
}

/// The output check on one executed op: estimates and actual finite and
/// positive. Returns the report when the op succeeded.
fn checked(
    phase: &mut Phase,
    pass: &str,
    sql: &str,
    result: Result<ExecutionReport, String>,
) -> Option<ExecutionReport> {
    match result {
        Ok(report) => {
            let ok = [
                report.estimated_secs,
                report.estimated_exec_secs,
                report.actual_secs,
            ]
            .iter()
            .all(|v| v.is_finite() && *v > 0.0);
            phase.check(ok, || {
                format!(
                    "{pass} `{sql}` on {}: estimate {} s (execution {} s), actual {} s — not all finite and positive",
                    report.system, report.estimated_secs, report.estimated_exec_secs, report.actual_secs
                )
            });
            Some(report)
        }
        Err(e) => {
            phase.check(false, || format!("{pass} `{sql}` failed: {e}"));
            None
        }
    }
}

fn digest_report(h: &mut u64, r: &ExecutionReport) {
    fnv(h, r.system.as_str().as_bytes());
    fnv(h, &r.estimated_secs.to_bits().to_le_bytes());
    fnv(h, &r.actual_secs.to_bits().to_le_bytes());
    for t in &r.tables_moved {
        fnv(h, t.as_bytes());
    }
}

/// Counters the traced pass reads from the public return values.
#[derive(Default)]
struct Counts {
    plans: u64,
    zero: u64,
    candidates: u64,
    moved: u64,
    estimates: u64,
    remedy: u64,
}

/// `IntelliSphere::execute`, replayed through the public calls it is
/// made of (see [`execute_spanned`]), under a root span.
fn execute_traced(
    sphere: &mut IntelliSphere,
    sql: &str,
    rec: &mut Recorder,
    op: u64,
    counts: &mut Counts,
) -> Result<ExecutionReport, String> {
    let root = rec.enter(ROOT, op);
    let result = execute_spanned(sphere, sql, rec, counts);
    rec.exit(root);
    result
}

/// `IntelliSphere::execute` with a span around each layer call: parse,
/// global catalog, `plan_query` (placement enumeration, analysis, one
/// manager estimate per candidate, the shared costing core), the
/// QueryGrid moves, `submit_plan`, the second analysis and
/// `observe_actual`. It must be kept in step with `execute`; the traced
/// run's digest and overhead band fail when it is not.
fn execute_spanned(
    sphere: &mut IntelliSphere,
    sql: &str,
    rec: &mut Recorder,
    counts: &mut Counts,
) -> Result<ExecutionReport, String> {
    let s = rec.child("sqlkit.parse");
    let plan = sqlkit::sql_to_plan(sql);
    rec.exit(s);
    let plan = plan.map_err(|e| e.to_string())?;

    let s = rec.child("catalog.global_catalog");
    let catalog = sphere.global_catalog();
    rec.exit(s);

    let planning = rec.child("federation.plan");
    let options = enumerate_placements(&catalog, &plan).map_err(|e| e.to_string())?;
    let s = rec.child("remote_sim.analyze");
    let analysis = analyze(&catalog, &plan);
    rec.exit(s);
    let analysis = analysis.map_err(|e| e.to_string())?;
    let transfer = TransferCostModel::default();
    let (candidates, _, last_err) = cost_candidates(options, &transfer, |option| {
        let s = rec.child("costing.manager_estimate");
        let cost = sphere.manager_mut().estimate(&option.system, &analysis);
        rec.exit(s);
        cost.map(|c| {
            counts.estimates += c.operators.len() as u64;
            counts.remedy += c
                .operators
                .iter()
                .filter(|(_, e)| matches!(e.source, EstimateSource::OnlineRemedy { .. }))
                .count() as u64;
            c.total_secs
        })
    });
    if candidates.is_empty() {
        rec.exit(planning);
        return Err(format!("no viable placement ({last_err:?})"));
    }
    counts.plans += 1;
    counts.zero += u64::from(candidates[0].execution_secs == 0.0);
    counts.candidates += candidates.len() as u64;
    let report = PlanReport {
        candidates,
        epoch: Some(sphere.manager_mut().version()),
    };
    rec.exit(planning);

    let best = report.best().clone();
    let host = best.option.system.clone();
    let grid = rec.child("federation.querygrid");
    let mut moved = Vec::new();
    for t in &best.option.transfers {
        let mut shipped = catalog.table(&t.table).map_err(|e| e.to_string())?.clone();
        shipped.partitioned_by = None;
        let engine = sphere.engine_mut(&host).ok_or("unknown host")?;
        let s = rec.child("remote_sim.register_table");
        let added = engine.register_table(shipped).is_ok();
        rec.exit(s);
        if added {
            counts.moved += 1;
            moved.push(t.table.clone());
        }
    }
    rec.exit(grid);

    let engine = sphere.engine_mut(&host).ok_or("unknown host")?;
    let s = rec.child("remote_sim.exec");
    let exec = engine.submit_plan(&plan);
    rec.exit(s);
    let exec = exec.map_err(|e| e.to_string())?;
    let actual_secs = exec.elapsed.as_secs();

    let s = rec.child("remote_sim.analyze");
    let analysis = analyze(&catalog, &plan);
    rec.exit(s);
    let analysis = analysis.map_err(|e| e.to_string())?;
    let op = if analysis.join.is_some() {
        OperatorKind::Join
    } else if analysis.agg.is_some() {
        OperatorKind::Aggregation
    } else {
        OperatorKind::Scan
    };
    let s = rec.child("costing.observe");
    sphere
        .manager_mut()
        .observe_actual(&host, op, &analysis, actual_secs);
    rec.exit(s);

    // The per-op global catalog is freed here, as at the end of
    // `execute`: catalog-layer work.
    let s = rec.child("catalog.release");
    drop(catalog);
    rec.exit(s);

    Ok(ExecutionReport {
        system: host,
        estimated_secs: best.total_secs(),
        estimated_exec_secs: best.execution_secs,
        actual_secs,
        transfer_secs: best.transfer_secs,
        tables_moved: moved,
        output_rows: exec.output_rows,
    })
}

/// Estimate quality over the window (untimed): Q-error of the executed
/// placement, regret against noise-free truth on shadow engines, and
/// per-batch predicted vs executed back-to-back makespan.
fn quality(inputs: &Inputs, window: &[WindowOp]) -> crate::Quality {
    let specs: Vec<TableSpec> = inputs.tables.iter().map(|(t, _)| *t).collect();
    let shadows: BTreeMap<SystemId, ClusterEngine> = SYSTEMS
        .iter()
        .zip(setup::shadow_engines(&SYSTEMS, &specs))
        .map(|(s, e)| (s.system(), e))
        .collect();
    let transfer = TransferCostModel::default();
    let mut truth_cache: BTreeMap<(usize, SystemId), f64> = BTreeMap::new();
    let mut truth = |statement: usize, option: &PlacementOption| -> f64 {
        let exec = *truth_cache
            .entry((statement, option.system.clone()))
            .or_insert_with(|| {
                shadows
                    .get(&option.system)
                    .and_then(|e| e.explain(&inputs.pool[statement]).ok())
                    .map_or(f64::INFINITY, |x| x.estimated_secs)
            });
        exec + option
            .transfers
            .iter()
            .map(|t| transfer.transfer_secs(t.bytes, t.hops))
            .sum::<f64>()
    };
    let mut q = crate::Quality::default();
    for w in window {
        let r = &w.report;
        q.qerrors.push(qerror(r.estimated_exec_secs, r.actual_secs));
        let chosen = w.options.iter().find(|o| o.system == r.system);
        if let Some(chosen) = chosen {
            let chosen_cost = truth(w.statement, chosen);
            let best = w
                .options
                .iter()
                .map(|o| truth(w.statement, o))
                .fold(f64::INFINITY, f64::min);
            if best > 0.0 && best.is_finite() {
                q.regrets_pct.push((chosen_cost - best) / best * 100.0);
            }
        }
    }
    for batch in window.chunks_exact(MAKESPAN_BATCH) {
        let predicted: f64 = batch.iter().map(|w| w.report.estimated_secs).sum();
        let executed: f64 = batch
            .iter()
            .map(|w| w.report.actual_secs + w.report.transfer_secs)
            .sum();
        q.batches.push((predicted, executed));
    }
    q
}
