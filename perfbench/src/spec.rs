//! The two workloads: their data, server configuration and traffic, and
//! the append trace the traced run replays into the live layer.
//!
//! The served data is generated from a fixed data seed, so set-up does
//! the same work on every run; the run's `--seed` drives only the
//! traffic (query placement, hotspots and the append interleaving).

use chronorank_core::TemporalSet;
use chronorank_live::{LiveConfig, RebuildPolicy};
use chronorank_net::NetConfig;
use chronorank_serve::{ServeConfig, ServeQuery};
use chronorank_storage::StoreConfig;
use chronorank_workloads::{
    AppendStream, AppendStreamConfig, DatasetGenerator, IntervalPattern, LiveOp, QueryWorkload,
    QueryWorkloadConfig, StockConfig, StockGenerator, TempConfig, TempGenerator,
};

/// Seed of every generated data set (the traffic seed is the run's).
pub const DATA_SEED: u64 = 42;
/// Shards of the serve and live engines.
pub const WORKERS: usize = 2;
/// Buffer-pool frames per index file.
pub const POOL_FRAMES: usize = 1024;
/// Block size of every index file.
pub const BLOCK: usize = 4096;
/// `k` of every query.
pub const K: usize = 20;
/// Query length as a share of the data's time span.
pub const SPAN: f64 = 0.2;
/// Tolerance of the approximate half of `wire-zipf`.
pub const EPS: f64 = 0.2;
/// The hotspot law of the Zipf workloads: 8 hot intervals, exponent 1,
/// 10% uniform background.
pub const ZIPF: IntervalPattern =
    IntervalPattern::Zipf { hotspots: 8, exponent: 1.0, background: 0.1 };
/// Ticks per durable append batch of the live trace.
pub const BATCH: usize = 64;
/// Appended segments per shard that trigger a background rebuild of the
/// live replay: fewer, larger rebuilds than the default 512, so that
/// fewer of them overlap and their count depends less on timing.
pub const MAX_TAIL: usize = 2048;
/// Exact queries after every append batch of the live trace.
pub const QUERIES_PER_BATCH: usize = 4;

/// One benchmark workload (see README.md for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WireZipf,
    ExactCold,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::WireZipf, Workload::ExactCold];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WireZipf => "wire-zipf",
            Workload::ExactCold => "exact-cold",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Server set-ups per run; `setup_s` is their median. The host's
    /// speed drifts within seconds, so one set-up (~2.6 s on
    /// `exact-cold`, ~0.2 s on `wire-zipf`) reads up to 40% apart from
    /// the next; the median of several does not.
    pub fn setups(self) -> usize {
        match self {
            Workload::ExactCold => 7,
            Workload::WireZipf => 9,
        }
    }

    /// Closed-loop load: `(connections, requests in flight per connection)`.
    pub fn closed_loop(self) -> (usize, usize) {
        match self {
            Workload::ExactCold => (2, 2),
            Workload::WireZipf => (2, 8),
        }
    }

    /// The served Temp data `(m, n_avg)` of the serve-backend workloads.
    fn temp_shape(self) -> (usize, usize) {
        match self {
            Workload::WireZipf => (1_200, 50),
            Workload::ExactCold => (4_000, 250),
        }
    }
}

/// The page size and pool every index file of every engine uses.
pub fn store() -> StoreConfig {
    StoreConfig { block_size: BLOCK, pool_capacity: POOL_FRAMES }
}

pub fn serve_config() -> ServeConfig {
    ServeConfig { workers: WORKERS, store: store(), ..Default::default() }
}

/// Where the live replay's WAL lives, as the run record states it.
pub const WAL: &str =
    "mem: one group-commit sync per 64-tick batch on an in-memory block device, no kernel fsync";

/// The live engine's WAL sits on an in-memory block device ([`WAL`]). A
/// shard rebuilds its generation every [`MAX_TAIL`] appended segments.
pub fn live_config() -> LiveConfig {
    LiveConfig {
        workers: WORKERS,
        store: store(),
        wal_dir: None,
        rebuild: RebuildPolicy { mass_factor: 2.0, max_tail_segments: MAX_TAIL },
        ..Default::default()
    }
}

pub fn net_config() -> NetConfig {
    NetConfig {
        addr: "127.0.0.1:0".to_string(),
        // Above anything the load generators keep outstanding.
        max_in_flight: 4096,
        max_connections: 8,
        engine_threads: 1,
        ..Default::default()
    }
}

/// The workload's served Temp set, the same on every run.
pub fn generate(w: Workload) -> TemporalSet {
    let (objects, avg_segments) = w.temp_shape();
    TempGenerator::new(TempConfig { objects, avg_segments, seed: DATA_SEED, dropout: 0.02 })
        .generate_set()
}

/// The live append trace: Stock data, 400 tickers × 60 days × 8
/// readings, the first half of every ticker as the base and the rest
/// appended in 64-tick batches; `seed` shapes only the interleaving.
pub fn live_stream(seed: u64) -> AppendStream {
    let generator = StockGenerator::new(StockConfig {
        objects: 400,
        days: 60,
        readings_per_day: 8,
        seed: DATA_SEED,
    });
    AppendStream::from_generator(
        &generator,
        AppendStreamConfig { base_fraction: 0.5, batch: BATCH, skew: 0.5, seed },
    )
}

/// The closed-loop query list. `wire-zipf` alternates exact and `ε = 0.2`
/// queries over the Zipf law; `exact-cold` is uniform and exact. Clients
/// cycle the list if they outrun it.
pub fn query_list(w: Workload, set: &TemporalSet, seed: u64) -> Vec<ServeQuery> {
    let (count, pattern) = match w {
        Workload::WireZipf => (200_000, ZIPF),
        Workload::ExactCold => (3_000, IntervalPattern::Uniform),
    };
    QueryWorkload::new(
        QueryWorkloadConfig { count, span_fraction: SPAN, k: K, seed, pattern },
        set.t_min(),
        set.t_max(),
    )
    .generate()
    .iter()
    .enumerate()
    .map(|(i, q)| {
        if w == Workload::WireZipf && i % 2 == 1 {
            ServeQuery::approx(q.t1, q.t2, q.k, EPS)
        } else {
            ServeQuery::exact(q.t1, q.t2, q.k)
        }
    })
    .collect()
}

/// The live trace's operations: every durable batch followed by
/// [`QUERIES_PER_BATCH`] exact Zipf queries over the full domain.
pub fn live_ops(stream: &AppendStream, seed: u64) -> Vec<LiveOp> {
    stream.hotspot(
        QueryWorkloadConfig { count: 0, span_fraction: SPAN, k: K, seed, pattern: ZIPF },
        QUERIES_PER_BATCH,
    )
}
