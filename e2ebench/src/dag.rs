//! `dag-feedback`: one closed-loop client; each op is a round.
//!
//! A round builds a fresh seeded `workload::dag` of [`QUERIES`]
//! statements at reuse 0.5, plans it with `plan_workload_pinned` against
//! an `EstimatorService` of remote-sim-trained models, executes every
//! non-merged node on its engine (registering moved base tables and
//! intermediates), and feeds each actual to `observe_actual`. Every
//! [`TUNE_EVERY`] rounds a `TuningPipeline` pass retrains. This is the
//! write-beside-read workload: rules, scheduling, clone-and-publish
//! observes, epoch-invalidated cache reads and retraining.
//!
//! The traced pass alternates blocks of [`TUNE_EVERY`] rounds between
//! `plan_workload_pinned` itself and a replay of it with a span around
//! each call it makes (see [`play_round`]); the digest and the overhead
//! band prove the replay matches it in output and in cost.

use crate::setup::{
    self, hive, mix, rdbms, sampled_telemetry, shuffle, spark, train_flows, SystemSpec, MASTER,
    SYSTEM_SEED,
};
use crate::stats::{fnv, median, qerror};
use crate::trace::{Recorder, ROOT};
use crate::{Phase, Scenario};
use catalog::{Catalog, SystemId};
use costing::features::{agg_features, join_features};
use costing::logical_op::model::FitConfig;
use costing::service::EstimatorService;
use costing::{ModelSnapshot, OperatorKind, ServiceConfig, TuningPipeline};
use federation::ir::{build_workload_pinned, synthetic_table_def, InputRef, QueryId, SlotMap};
use federation::schedule::{dispatch, plan_workload_pinned, ScheduleConfig, WorkloadOutcome};
use federation::{optimize, TransferCostModel, WorkloadQuery, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use remote_sim::analyze::analyze;
use remote_sim::{ClusterEngine, RemoteSystem};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use telemetry::span::Stage;
use workload::{
    build_table, dag_base_tables, dag_workload, specs_up_to, DagConfig, DagStatement, TableSpec,
};

/// The federation: the master and three remote engines.
pub const SYSTEMS: [SystemSpec; 4] = [
    MASTER,
    hive("hive-w0"),
    spark("spark-w1"),
    rdbms("rdbms-w2"),
];
/// Statements per round.
pub const QUERIES: usize = 64;
/// Share of statements repeating an earlier template.
pub const REUSE: f64 = 0.5;
/// Base tables the DAGs draw from (the first Fig. 10 specs: 10k–400k rows).
pub const TABLE_POOL: usize = 48;
/// Models are trained on tables of at most this many rows, so the
/// pool's larger tables take the remedy.
pub const TRAINED_ROWS: u64 = 100_000;
/// A tuning pass runs after every this many rounds.
pub const TUNE_EVERY: u64 = 4;
/// Rounds per episode: each episode starts from the trained models (the
/// set-up snapshot is rolled back in, untimed), so observations and
/// retraining cannot grow the model state without bound and a run's
/// figures do not depend on how many rounds it fits.
pub const EPISODE: u64 = 32;
/// Training iterations of a tuning pass's refit.
pub const TUNE_ITERATIONS: usize = 250;
/// Rounds from the start of the timed loop that quality and the
/// placement digest are taken over.
pub const QUALITY_ROUNDS: u64 = 48;
/// Capacity slots per engine.
pub const SLOTS: usize = 2;

/// The DAG generator configuration of one round.
pub fn dag_config(seed: u64, round: u64) -> DagConfig {
    DagConfig {
        queries: QUERIES,
        reuse: REUSE,
        intermediate_rate: 0.4,
        table_pool: TABLE_POOL,
        zipf_skew: 1.1,
        seed: mix(seed, 0xDA6 + round),
    }
}

/// The seeded inputs: base-table owners (the DAGs themselves come from
/// [`dag_config`] per round).
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    seed: u64,
    /// Every base table with the index of its owning remote.
    pub tables: Vec<(TableSpec, usize)>,
}

impl Inputs {
    /// The inputs of `seed`.
    pub fn new(seed: u64) -> Self {
        let specs = dag_base_tables(&dag_config(seed, 0));
        let mut order: Vec<usize> = (0..specs.len()).collect();
        shuffle(&mut order, &mut StdRng::seed_from_u64(mix(seed, 0xDA60)));
        let mut tables = vec![(specs[0], 1); specs.len()];
        for (k, &i) in order.iter().enumerate() {
            tables[i] = (specs[i], 1 + k % (SYSTEMS.len() - 1));
        }
        Inputs { seed, tables }
    }

    /// The statements of round `round`.
    pub fn round(&self, round: u64) -> Vec<DagStatement> {
        dag_workload(&dag_config(self.seed, round))
    }
}

/// The set-up: the global catalog, the service with its trained models,
/// and the tuning pipeline.
pub struct State {
    catalog: Catalog,
    service: EstimatorService,
    baseline: Arc<ModelSnapshot>,
    pipeline: TuningPipeline,
}

/// The `dag-feedback` workload.
pub struct Dag;

impl Scenario for Dag {
    type Inputs = Inputs;
    type State = State;

    fn inputs(seed: u64, _seconds: f64) -> Inputs {
        Inputs::new(seed)
    }

    /// Builds the catalog, runs a training campaign per system on a twin
    /// engine and registers the fitted models on a fresh service.
    fn setup(inputs: &Inputs) -> State {
        let owned: Vec<(TableSpec, SystemId)> = inputs
            .tables
            .iter()
            .map(|(t, o)| (*t, SYSTEMS[*o].system()))
            .collect();
        let catalog = setup::catalog_of(&SYSTEMS, &owned);
        let service =
            EstimatorService::with_telemetry(ServiceConfig::default(), sampled_telemetry());
        let trained = specs_up_to(TRAINED_ROWS);
        for (i, s) in SYSTEMS.iter().enumerate() {
            let (join, agg) = train_flows(s, &trained, mix(SYSTEM_SEED, 40 + i as u64));
            service.register(s.system(), join);
            service.register(s.system(), agg);
        }
        State {
            catalog,
            baseline: service.snapshot(),
            service,
            pipeline: TuningPipeline::new(FitConfig {
                iterations: TUNE_ITERATIONS,
                ..setup::fit_config(mix(SYSTEM_SEED, 50))
            }),
        }
    }

    /// Runs rounds for `seconds` (and at least [`QUALITY_ROUNDS`]). A
    /// traced pass replays planning with spans in every other block of
    /// [`TUNE_EVERY`] rounds, starting with the second block in even
    /// episodes and the first in odd ones: round costs grow through an
    /// episode, and this way both halves hold the same share of tuning
    /// rounds and of every position in an episode.
    fn run(state: &mut State, inputs: &Inputs, seconds: f64, recorder: Recorder) -> Phase {
        let mut phase = Phase::new(recorder);
        let traced = phase.recorder.is_on();
        let schedule = ScheduleConfig {
            slots: SlotMap::uniform(SLOTS),
            threads: 1,
        };
        let spans = state.service.telemetry().spans.clone();
        if traced {
            spans.set_sampling(1);
        }
        state.service.reset_stats();
        let epoch0 = state.service.epoch().get();
        let mut per_round: Vec<[f64; 5]> = Vec::new();
        let mut statements = 0u64;
        let mut zero_estimates = 0usize;
        let mut timed = 0.0;
        let mut silent = Recorder::new(false);
        let mut round: u64 = 0;
        while round < QUALITY_ROUNDS || timed < seconds {
            // Untimed: a new episode's model reset, the round's inputs and
            // fresh engines.
            if round > 0 && round % EPISODE == 0 {
                state.service.rollback_to(&state.baseline);
            }
            let stmts = inputs.round(round);
            let mut engines = round_engines(inputs, round);
            let replay = traced && (round / TUNE_EVERY + round / EPISODE) % 2 == 1;
            let rec = if replay {
                &mut phase.recorder
            } else {
                &mut silent
            };
            let t = Instant::now();
            let guard = spans.start_request(round);
            let root = rec.enter(ROOT, round);
            let result = play_round(state, &stmts, &mut engines, &schedule, rec, round);
            rec.exit(root);
            drop(guard);
            let secs = t.elapsed().as_secs_f64();
            timed += secs;
            if replay {
                phase.spanned_us.push(secs * 1e6);
            } else {
                phase.latencies_us.push(secs * 1e6);
            }
            phase.attempted += 1;
            match result {
                Ok(r) => {
                    statements += r.spec.queries.len() as u64;
                    let plan = &r.outcome.plan;
                    zero_estimates += r
                        .executed
                        .keys()
                        .filter(|&&q| plan.nodes[q].exec_secs_on(&plan.assignment[q]) == Some(0.0))
                        .count();
                    check_round(&mut phase, round, &r);
                    let o = &r.outcome;
                    per_round.push([
                        o.trace.applications.len() as f64,
                        o.optimized.merged_queries as f64,
                        o.optimized.shared_scan_hits as f64,
                        o.optimized.waves as f64,
                        r.executed.len() as f64,
                    ]);
                    if round < QUALITY_ROUNDS {
                        digest_round(&mut phase.digest, &r);
                        if !traced {
                            quality_round(&mut phase.quality, inputs, &stmts, &r, &schedule);
                        }
                    }
                }
                Err(e) => {
                    phase.failed += 1;
                    phase.check(false, || format!("round {round} failed: {e}"));
                }
            }
            round += 1;
        }
        phase.throughput = statements as f64 / timed;
        if traced {
            spans.set_sampling(0);
            let col = |k: usize| {
                per_round.iter().map(|r| r[k]).sum::<f64>() / per_round.len().max(1) as f64
            };
            let stats = state.service.stats();
            let exemplars = spans.snapshot().exemplars;
            let stage =
                |s: Stage| median(&exemplars.iter().map(|e| e.stage_us(s)).collect::<Vec<_>>());
            phase.layer = vec![
                ("federation.rule_applications", col(0)),
                ("federation.merged", col(1)),
                ("federation.shared_scan_hits", col(2)),
                ("federation.waves", col(3)),
                ("remote_sim.executed_nodes", col(4)),
                (
                    "costing.zero_estimate_share",
                    zero_estimates as f64 / (col(4) * per_round.len() as f64).max(1.0),
                ),
                (
                    "costing.epochs_published",
                    (state.service.epoch().get() - epoch0) as f64 / round as f64,
                ),
                (
                    "costing.cache_hit_ratio",
                    stats.hits as f64 / stats.requests().max(1) as f64,
                ),
                ("costing.cache_probe_us", stage(Stage::CacheProbe)),
                ("costing.kernel_us", stage(Stage::Kernel)),
                ("costing.remedy_us", stage(Stage::Remedy)),
            ];
        }
        phase.notes.push(format!(
            "{round} rounds ({statements} statements) in {timed:.2} s timed; tuning every {TUNE_EVERY} rounds; \
             {zero_estimates} executed placements were estimated at 0 s"
        ));
        phase
    }
}

/// One round's executed result per node.
#[derive(Debug, Clone, Copy)]
struct Executed {
    secs: f64,
    rows: u64,
    row_bytes: u64,
}

/// Everything one round produced.
struct Round {
    spec: WorkloadSpec,
    outcome: WorkloadOutcome,
    executed: BTreeMap<usize, Executed>,
}

/// Fresh engines for one round, each holding the base tables it owns.
fn round_engines(inputs: &Inputs, round: u64) -> BTreeMap<SystemId, ClusterEngine> {
    let mut engines: BTreeMap<SystemId, ClusterEngine> = SYSTEMS
        .iter()
        .enumerate()
        .map(|(i, s)| {
            (
                s.system(),
                s.engine(mix(SYSTEM_SEED, (round << 8) + i as u64)),
            )
        })
        .collect();
    for (spec, owner) in &inputs.tables {
        if let Some(e) = engines.get_mut(&SYSTEMS[*owner].system()) {
            e.register_table(build_table(spec))
                .expect("base tables are distinct");
        }
    }
    engines
}

/// One round: plan, execute every executing node, observe, maybe tune.
///
/// With `rec` on, `WorkloadSpec::push_sql` and `plan_workload_pinned` are
/// replayed call by call — parse per statement, `build_workload_pinned`,
/// both `dispatch` calls, `optimize` and the scheduler counters — so each
/// gets its span. The replay must be kept in step with those functions;
/// the traced run's digest and overhead band fail when it is not.
fn play_round(
    state: &mut State,
    stmts: &[DagStatement],
    engines: &mut BTreeMap<SystemId, ClusterEngine>,
    schedule: &ScheduleConfig,
    rec: &mut Recorder,
    round: u64,
) -> Result<Round, String> {
    let transfer = TransferCostModel::default();
    let mut spec = WorkloadSpec::default();
    if rec.is_on() {
        for s in stmts {
            let p = rec.child("sqlkit.parse");
            let plan = sqlkit::sql_to_plan(&s.sql);
            rec.exit(p);
            spec.queries.push(WorkloadQuery {
                label: s.label.clone(),
                plan: plan.map_err(|e| e.to_string())?,
                output: s.output.clone(),
            });
        }
    } else {
        for s in stmts {
            spec.push_sql(&s.label, &s.sql, s.output.as_deref())
                .map_err(|e| e.to_string())?;
        }
    }
    let s = rec.child("costing.snapshot");
    let snapshot = state.service.snapshot();
    rec.exit(s);
    let outcome = if rec.is_on() {
        // `plan_workload_pinned`, replayed call by call.
        let b = rec.child("federation.build");
        let greedy_plan = build_workload_pinned(
            &state.catalog,
            &state.service,
            &snapshot,
            &transfer,
            &spec,
            &schedule.slots,
        );
        rec.exit(b);
        let greedy_plan = greedy_plan.map_err(|e| e.to_string())?;
        let d = rec.child("federation.dispatch");
        let greedy = dispatch(&greedy_plan, schedule);
        rec.exit(d);
        let r = rec.child("federation.rules");
        let (plan, trace) = optimize(&greedy_plan);
        rec.exit(r);
        let d = rec.child("federation.dispatch");
        let optimized = dispatch(&plan, schedule);
        rec.exit(d);
        let c = rec.child("telemetry.scheduler_counters");
        let scheduler = &state.service.telemetry().scheduler;
        scheduler.workloads.inc();
        scheduler
            .scheduled
            .add(optimized.queries.len() as u64 - optimized.merged_queries as u64);
        scheduler.merged.add(optimized.merged_queries as u64);
        scheduler.shared_scans.add(optimized.shared_scan_hits);
        scheduler.waves.add(optimized.waves as u64);
        scheduler
            .pinned_moves
            .add(trace.count_of("placement_pinning") as u64);
        rec.exit(c);
        WorkloadOutcome {
            greedy,
            optimized,
            plan,
            trace,
        }
    } else {
        plan_workload_pinned(
            &state.catalog,
            &state.service,
            &snapshot,
            &transfer,
            &spec,
            schedule,
        )
        .map_err(|e| e.to_string())?
    };

    let plan = &outcome.plan;
    let mut executed: BTreeMap<usize, Executed> = BTreeMap::new();
    let s = rec.child("federation.waves");
    let waves = plan.waves();
    rec.exit(s);
    for wave in waves {
        for q in wave {
            let system = plan.assignment[q.0].clone();
            let engine = engines.get_mut(&system).ok_or("unknown engine")?;
            for input in &plan.nodes[q.0].inputs {
                let name = match input {
                    InputRef::Base { table, .. } | InputRef::Intermediate { table, .. } => table,
                };
                let s = rec.child("catalog.lookup");
                let present = engine.catalog().table(name).is_ok();
                rec.exit(s);
                if present {
                    continue;
                }
                let def = match input {
                    InputRef::Base { table, .. } => {
                        let s = rec.child("catalog.lookup");
                        let def = state.catalog.table(table).cloned();
                        rec.exit(s);
                        let mut def = def.map_err(|e| e.to_string())?;
                        def.partitioned_by = None;
                        def
                    }
                    InputRef::Intermediate { producer, table } => {
                        let made = executed
                            .get(&plan.canonical(*producer).0)
                            .ok_or("intermediate consumed before it was produced")?;
                        let rows = made.rows as f64;
                        let s = rec.child("federation.synthetic_table");
                        let def =
                            synthetic_table_def(table, rows, rows * made.row_bytes as f64, &system);
                        rec.exit(s);
                        def
                    }
                };
                let s = rec.child("remote_sim.register_table");
                let added = engine.register_table(def);
                rec.exit(s);
                added.map_err(|e| e.to_string())?;
            }
            let query = &spec.queries[q.0].plan;
            let s = rec.child("remote_sim.exec");
            let exec = engine.submit_plan(query);
            rec.exit(s);
            let exec = exec.map_err(|e| format!("{}: {e}", spec.queries[q.0].label))?;
            let secs = exec.elapsed.as_secs();
            executed.insert(
                q.0,
                Executed {
                    secs,
                    rows: exec.output_rows,
                    row_bytes: exec.output_row_bytes,
                },
            );
            let s = rec.child("remote_sim.analyze");
            let analysis = analyze(engine.catalog(), query);
            rec.exit(s);
            let analysis = analysis.map_err(|e| e.to_string())?;
            let (op, features) = match (join_features(&analysis), agg_features(&analysis)) {
                (Some(f), _) => (OperatorKind::Join, f.to_vec()),
                (None, Some(f)) => (OperatorKind::Aggregation, f.to_vec()),
                _ => return Err(format!("{}: no costed operator", spec.queries[q.0].label)),
            };
            let s = rec.child("costing.observe");
            let observed = state.service.observe_actual(&system, op, &features, secs);
            rec.exit(s);
            observed.map_err(|e| e.to_string())?;
        }
    }
    // Releasing the pinned snapshot may free superseded model states.
    let s = rec.child("costing.snapshot");
    drop(snapshot);
    rec.exit(s);
    if (round + 1) % TUNE_EVERY == 0 {
        let s = rec.child("costing.tune");
        state.service.run_tuning(&state.pipeline);
        rec.exit(s);
    }
    Ok(Round {
        spec,
        outcome,
        executed,
    })
}

/// Output checks: optimized makespan ≤ greedy, every statement is either
/// executed or merged into an executed node, and every executed node's
/// estimate on its engine is finite and non-negative (the range
/// `CostEstimate` promises; estimates of exactly 0 s are counted into
/// the Q-error quantiles as infinite Q-errors instead).
fn check_round(phase: &mut Phase, round: u64, r: &Round) {
    let o = &r.outcome;
    for &q in r.executed.keys() {
        let est = o.plan.nodes[q].exec_secs_on(&o.plan.assignment[q]);
        phase.check(est.is_some_and(|e| e.is_finite() && e >= 0.0), || {
            format!(
                "round {round}: executed statement {q} on {} has estimate {est:?}",
                o.plan.assignment[q]
            )
        });
    }
    phase.check(
        o.optimized.makespan_secs <= o.greedy.makespan_secs * (1.0 + 1e-9),
        || {
            format!(
                "round {round}: optimized makespan {} s > greedy {} s",
                o.optimized.makespan_secs, o.greedy.makespan_secs
            )
        },
    );
    for q in 0..r.spec.queries.len() {
        let c = o.plan.canonical(QueryId(q));
        let ok = r.executed.contains_key(&c.0) && o.plan.executes(c);
        phase.check(ok, || {
            format!("round {round}: statement {q} (canonical {}) was neither executed nor merged into an executed node", c.0)
        });
    }
}

fn digest_round(h: &mut u64, r: &Round) {
    let plan = &r.outcome.plan;
    for (q, node) in plan.nodes.iter().enumerate() {
        let system = &plan.assignment[q];
        fnv(h, system.as_str().as_bytes());
        fnv(h, &(plan.canonical(QueryId(q)).0 as u64).to_le_bytes());
        fnv(
            h,
            &node
                .exec_secs_on(system)
                .unwrap_or(0.0)
                .to_bits()
                .to_le_bytes(),
        );
    }
    for e in r.executed.values() {
        fnv(h, &e.secs.to_bits().to_le_bytes());
    }
    fnv(
        h,
        &r.outcome.optimized.makespan_secs.to_bits().to_le_bytes(),
    );
}

/// The optimized plan replayed through its slots with executed
/// durations: the same list scheduler as `WorkloadPlan::simulate`, with
/// each node's remote-sim actual in place of its estimate.
fn executed_makespan(r: &Round, schedule: &ScheduleConfig) -> f64 {
    let plan = &r.outcome.plan;
    let mut slots: BTreeMap<&SystemId, Vec<f64>> = BTreeMap::new();
    let mut finish = vec![0.0f64; plan.nodes.len()];
    let mut makespan: f64 = 0.0;
    for (i, node) in plan.nodes.iter().enumerate() {
        let c = plan.canonical(QueryId(i));
        if c.0 != i {
            finish[i] = finish[c.0];
            continue;
        }
        let ready = node
            .producers()
            .map(|p| finish[plan.canonical(p).0])
            .fold(0.0, f64::max);
        let system = &plan.assignment[i];
        let transfer = r.outcome.optimized.queries[i].transfer_secs;
        let duration = r.executed.get(&i).map_or(0.0, |e| e.secs) + transfer;
        let engine = slots
            .entry(system)
            .or_insert_with(|| vec![0.0; schedule.slots.slots_for(system)]);
        let slot = engine
            .iter_mut()
            .min_by(|a, b| a.total_cmp(b))
            .expect("at least one slot");
        let start = ready.max(*slot);
        *slot = start + duration;
        finish[i] = start + duration;
        makespan = makespan.max(finish[i]);
    }
    makespan
}

/// Quality of one round (untimed): per executed node, Q-error and regret
/// against noise-free truth on shadow engines; per round, predicted vs
/// executed makespan.
fn quality_round(
    q: &mut crate::Quality,
    inputs: &Inputs,
    stmts: &[DagStatement],
    r: &Round,
    schedule: &ScheduleConfig,
) {
    let plan = &r.outcome.plan;
    let specs: Vec<TableSpec> = inputs.tables.iter().map(|(t, _)| *t).collect();
    let mut shadows: BTreeMap<SystemId, ClusterEngine> = SYSTEMS
        .iter()
        .zip(setup::shadow_engines(&SYSTEMS, &specs))
        .map(|(s, e)| (s.system(), e))
        .collect();
    // Every intermediate, as executed, on every shadow engine.
    for (i, node) in plan.nodes.iter().enumerate() {
        let (Some(name), Some(made)) =
            (&node.output, r.executed.get(&plan.canonical(QueryId(i)).0))
        else {
            continue;
        };
        let rows = made.rows as f64;
        for (id, e) in shadows.iter_mut() {
            let _ = e.register_table(synthetic_table_def(
                name,
                rows,
                rows * made.row_bytes as f64,
                id,
            ));
        }
    }
    for (&i, made) in &r.executed {
        let node = &plan.nodes[i];
        let chosen = &plan.assignment[i];
        // An estimate of 0 s stays in the sample as an infinite Q-error.
        if let Some(est) = node.exec_secs_on(chosen) {
            q.qerrors.push(qerror(est, made.secs));
        }
        let sql = &stmts[i].sql;
        let truth = |c: &federation::PlacementCost| -> f64 {
            shadows
                .get(&c.option.system)
                .and_then(|e| e.explain(sql).ok())
                .map_or(f64::INFINITY, |x| x.estimated_secs)
                + c.transfer_secs
        };
        let best = node
            .candidates
            .iter()
            .map(truth)
            .fold(f64::INFINITY, f64::min);
        if let Some(c) = node.candidates.iter().find(|c| &c.option.system == chosen) {
            if best.is_finite() && best > 0.0 {
                q.regrets_pct.push((truth(c) - best) / best * 100.0);
            }
        }
    }
    q.batches.push((
        r.outcome.optimized.makespan_secs,
        executed_makespan(r, schedule),
    ));
}
