//! Seeded set-up shared by the workloads: simulated engines, the Fig. 10
//! tables, training campaigns on remote-sim and model fits.
//!
//! Everything here is a pure function of [`SYSTEM_SEED`], so every
//! set-up trains bit-identical models.

use catalog::{Catalog, SystemId};
use costing::features::{agg_dim_names, join_dim_names};
use costing::logical_op::flow::LogicalOpCosting;
use costing::logical_op::model::{FitConfig, LogicalOpModel};
use costing::logical_op::run_training;
use costing::OperatorKind;
use rand::rngs::StdRng;
use rand::Rng;
use remote_sim::personas::{hive_persona, rdbms_persona, spark_persona};
use remote_sim::{ClusterConfig, ClusterEngine, Persona, RemoteSystem};
use std::collections::BTreeMap;
use telemetry::span::{SpanConfig, SpanLayer};
use telemetry::Telemetry;
use workload::{
    agg_training_queries, build_table, join_training_queries, AggQuery, JoinQuery, TableSpec,
};

/// Seed of everything on the program's side — engine noise, training
/// campaigns, model fits — so every `--seed` runs the same system and
/// the seed varies only the workload's inputs.
pub const SYSTEM_SEED: u64 = 0x1E7E_5EED;

/// SplitMix64 finalizer: derives independent streams from one seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// A seeded popularity order that spreads every class evenly over the
/// ranks: items are shuffled within their class, and each takes the rank
/// of its quantile position in that class. Every rank range then carries
/// the pool's class mix, so Zipf-skewed draws see the same mix of kinds
/// whatever the seed; the seed picks which items.
pub fn stratified<T>(items: Vec<(usize, T)>, rng: &mut StdRng) -> Vec<T> {
    let mut classes: BTreeMap<usize, Vec<T>> = BTreeMap::new();
    for (class, item) in items {
        classes.entry(class).or_default().push(item);
    }
    let mut ranked: Vec<(f64, usize, T)> = Vec::new();
    for (class, mut members) in classes {
        shuffle(&mut members, rng);
        let n = members.len() as f64;
        for (k, item) in members.into_iter().enumerate() {
            ranked.push(((k as f64 + 0.5) / n, class, item));
        }
    }
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    ranked.into_iter().map(|(_, _, item)| item).collect()
}

/// Normalised cumulative Zipf weights over `n` ranks.
pub fn zipf_cdf(n: usize, skew: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (0..n)
        .map(|i| {
            acc += 1.0 / ((i + 1) as f64).powf(skew);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// Maps a hash to a rank through a cumulative distribution.
pub fn draw(cdf: &[f64], hash: u64) -> usize {
    let u = (hash >> 11) as f64 / (1u64 << 53) as f64;
    cdf.partition_point(|&c| c <= u)
        .min(cdf.len().saturating_sub(1))
}

/// Telemetry whose span layer keeps every sampled span (sampling stays
/// off until a traced pass turns it on).
pub fn sampled_telemetry() -> Telemetry {
    Telemetry {
        spans: SpanLayer::new(SpanConfig {
            sample_every: 0,
            exemplar_k: 1 << 14,
            exemplar_window: 1 << 14,
        }),
        ..Telemetry::default()
    }
}

/// One simulated system of a federation.
#[derive(Debug, Clone, Copy)]
pub struct SystemSpec {
    /// System id (the master is `teradata`).
    pub id: &'static str,
    /// Engine persona constructor.
    pub persona: fn() -> Persona,
    /// Cluster layout.
    pub cluster: ClusterConfig,
}

impl SystemSpec {
    /// The system's id.
    pub fn system(&self) -> SystemId {
        SystemId::new(self.id)
    }

    /// A fresh engine of this system with the given noise seed.
    pub fn engine(&self, seed: u64) -> ClusterEngine {
        ClusterEngine::new(self.id, (self.persona)(), self.cluster, seed)
    }

    /// A noise-free engine of this system: the truth `explain` reads.
    pub fn shadow(&self) -> ClusterEngine {
        self.engine(0).without_noise()
    }
}

/// The master engine, laid out as `IntelliSphere::new` builds it
/// (`ClusterConfig::single_node(32, 256 GiB)`).
pub const MASTER: SystemSpec = SystemSpec {
    id: "teradata",
    persona: rdbms_persona,
    cluster: ClusterConfig {
        nodes: 1,
        cores_per_node: 32,
        memory_per_node_bytes: 256 * (1 << 30),
        dfs_block_bytes: 1 << 30,
        task_memory_fraction: 0.25,
    },
};

/// A Hive cluster with the paper's layout.
pub const fn hive(id: &'static str) -> SystemSpec {
    SystemSpec {
        id,
        persona: hive_persona,
        cluster: ClusterConfig {
            nodes: 3,
            cores_per_node: 2,
            memory_per_node_bytes: 8 * 1024 * 1024 * 1024,
            dfs_block_bytes: 32 * 1024 * 1024,
            task_memory_fraction: 0.10,
        },
    }
}

/// A four-node Spark cluster.
pub const fn spark(id: &'static str) -> SystemSpec {
    SystemSpec {
        id,
        persona: spark_persona,
        cluster: ClusterConfig {
            nodes: 4,
            cores_per_node: 4,
            memory_per_node_bytes: 8 * 1024 * 1024 * 1024,
            dfs_block_bytes: 32 * 1024 * 1024,
            task_memory_fraction: 0.10,
        },
    }
}

/// A single-node RDBMS.
pub const fn rdbms(id: &'static str) -> SystemSpec {
    SystemSpec {
        id,
        persona: rdbms_persona,
        cluster: ClusterConfig {
            nodes: 1,
            cores_per_node: 16,
            memory_per_node_bytes: 64 * (1 << 30),
            dfs_block_bytes: 1 << 30,
            task_memory_fraction: 0.25,
        },
    }
}

/// The model-fit configuration every campaign uses, seeded per model.
pub fn fit_config(seed: u64) -> FitConfig {
    FitConfig {
        seed,
        ..FitConfig::fast()
    }
}

/// The Fig. 10 join and aggregation training grids over `tables`.
pub fn training_grids(tables: &[TableSpec]) -> (Vec<String>, Vec<String>) {
    let joins = join_training_queries(tables)
        .iter()
        .map(JoinQuery::sql)
        .collect();
    let aggs = agg_training_queries(tables)
        .iter()
        .map(AggQuery::sql)
        .collect();
    (joins, aggs)
}

/// Runs a join + aggregation training campaign on a twin of `spec`
/// holding `tables`, and fits both logical-op models.
pub fn train_flows(
    spec: &SystemSpec,
    tables: &[TableSpec],
    seed: u64,
) -> (LogicalOpCosting, LogicalOpCosting) {
    let mut twin = spec.engine(mix(seed, 0x7717));
    for t in tables {
        twin.register_table(build_table(t))
            .expect("training tables are distinct");
    }
    let (joins, aggs) = training_grids(tables);
    let join_runs = run_training(&mut twin, OperatorKind::Join, &joins);
    let agg_runs = run_training(&mut twin, OperatorKind::Aggregation, &aggs);
    let (join, _) = LogicalOpModel::fit(
        OperatorKind::Join,
        &join_dim_names(),
        &join_runs.dataset(),
        &fit_config(mix(seed, 1)),
    );
    let (agg, _) = LogicalOpModel::fit(
        OperatorKind::Aggregation,
        &agg_dim_names(),
        &agg_runs.dataset(),
        &fit_config(mix(seed, 2)),
    );
    (LogicalOpCosting::new(join), LogicalOpCosting::new(agg))
}

/// A catalog of `systems` and `tables`, table `i` owned by `owners[i]`.
pub fn catalog_of(systems: &[SystemSpec], tables: &[(TableSpec, SystemId)]) -> Catalog {
    let mut catalog = Catalog::new();
    for s in systems {
        catalog
            .register_system(s.shadow().profile().clone())
            .expect("unique system ids");
    }
    for (spec, owner) in tables {
        let mut def = build_table(spec);
        def.location = owner.clone();
        catalog.register_table(def).expect("unique table names");
    }
    catalog
}

/// Noise-free engines holding every table: `explain` on them is the
/// ground truth a placement's execution cost is judged by.
pub fn shadow_engines(systems: &[SystemSpec], tables: &[TableSpec]) -> Vec<ClusterEngine> {
    systems
        .iter()
        .map(|s| {
            let mut e = s.shadow();
            for t in tables {
                e.register_table(build_table(t))
                    .expect("shadow tables are distinct");
            }
            e
        })
        .collect()
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds this process has used, over all its threads (those that
/// have exited included): `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`.
/// NaN where the clock cannot be read.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_secs() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is a constant the kernel
    // knows.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        f64::NAN
    }
}

/// CPU seconds this process has used; unavailable off 64-bit Linux.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_secs() -> f64 {
    f64::NAN
}
