//! The traced run's per-layer ledger.
//!
//! A fixed sample of the workload's queries is replayed one query at a
//! time through the public entry points of each layer, in process, and
//! timed from here:
//!
//! * `core` — `RankMethod::top_k` of the routed method on every
//!   `serve::partition` shard (the slowest shard is the query's core time,
//!   charged only when the twin's result cache missed: a hit does no core
//!   work);
//! * `serve` — the same query on a twin `ServeEngine`, its cache warmed by
//!   one pass over the sample as the server's is by the load;
//! * `net` — `NetClient::topk` against the benchmark's server at depth 1;
//! * `codec` — encoding and decoding the request and answer frames.
//!
//! Per query, `rtt = core + serve.self + codec + unattributed`; the
//! ledger reports each term's mean over the sampled queries whose round
//! trip is at most the sample's p99, so the terms add up to the mean
//! round trip. `live` replays an
//! append trace through an in-process `IngestEngine` and checks its final
//! answers against a brute-force scan.

use crate::spec::{self, Workload};
use crate::stats::{median, quantile, Metric};
use crate::wire::{same_answer, Expected, Tally};
use chronorank_core::{AggKind, Breakpoints, Exact1, Exact3, IndexConfig, TemporalSet, TopK};
use chronorank_live::{IngestEngine, LiveOp};
use chronorank_net::{Decoder, Frame, NetClient, OpCode, TopKRequest, TopKResponse};
use chronorank_serve::{
    assemble_route_methods, partition, BuiltRoutes, Route, ServeEngine, ServeQuery,
};
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::Instant;

/// Queries replayed per layer.
fn sample_len(w: Workload) -> usize {
    match w {
        Workload::ExactCold => 300,
        Workload::WireZipf => 1_000,
    }
}

/// One timed call, kept in memory and written out when the run ends.
/// Spans of one sampled query share its `query` id; `parent` names the
/// enclosing span (`None` for the query's root).
pub struct Span {
    pub query: u64,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One sampled query's layer times, in µs.
struct Row {
    /// The slowest shard's core time; 0 when the twin answered from cache.
    core: f64,
    serve: f64,
    codec: f64,
    rtt: f64,
}

pub struct Ledger {
    pub metrics: Vec<Metric>,
    pub spans: Vec<Span>,
    pub tally: Tally,
}

pub struct Inputs<'a> {
    pub workload: Workload,
    /// Seeds the live append trace.
    pub seed: u64,
    pub set: &'a TemporalSet,
    pub queries: &'a [ServeQuery],
    pub expected: &'a Expected,
    pub addr: SocketAddr,
}

/// The routed methods of one partition, with their build times.
struct Part {
    routes: BuiltRoutes,
    exact1_s: f64,
    exact3_s: f64,
    appx_s: f64,
}

fn build_part(set: &TemporalSet) -> Result<Part, String> {
    let cfg = spec::serve_config();
    let store = cfg.store;
    let err = |e: chronorank_core::CoreError| format!("core build: {e}");
    let t = Instant::now();
    let exact1 = Exact1::build(set, IndexConfig { store }).map_err(err)?;
    let exact1_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let exact3 = Exact3::build(set, IndexConfig { store }).map_err(err)?;
    let exact3_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let bp = match cfg.approx.eps {
        Some(eps) => Breakpoints::b2_with_eps(set, eps, cfg.approx.b2),
        None => Breakpoints::b2_with_count(set, cfg.approx.r, cfg.approx.b2),
    }
    .map_err(err)?;
    let routes = assemble_route_methods(
        set,
        cfg.methods,
        cfg.approx,
        store,
        Some(std::sync::Arc::new(exact1)),
        std::sync::Arc::new(exact3),
        Some(bp),
    )
    .map_err(err)?;
    let appx_s = t.elapsed().as_secs_f64();
    Ok(Part { routes, exact1_s, exact3_s, appx_s })
}

fn top_k(part: &Part, route: Route, q: &ServeQuery) -> Result<TopK, String> {
    part.routes.methods[route.idx()]
        .as_ref()
        .ok_or_else(|| format!("route {} not built", route.name()))?
        .top_k(q.t1, q.t2, q.k, AggKind::Sum)
        .map_err(|e| format!("core query: {e}"))
}

/// Encode a TOPK request frame and its answer frame, and decode both back
/// through a streaming decoder, as the two ends of the wire do.
fn codec_round_trip(q: ServeQuery, answer: &TopKResponse) -> Result<(), String> {
    let err = |e: chronorank_net::FrameError| format!("codec: {e}");
    let mut decoder = Decoder::new();
    decoder.feed(&Frame::new(OpCode::TopK, 1, TopKRequest(q).encode().map_err(err)?).encode());
    let frame = decoder.next_frame().map_err(err)?.ok_or("codec: request frame incomplete")?;
    black_box(TopKRequest::decode(&frame.payload).map_err(err)?);
    decoder.feed(&Frame::new(OpCode::TopKOk, 1, answer.encode().map_err(err)?).encode());
    let frame = decoder.next_frame().map_err(err)?.ok_or("codec: answer frame incomplete")?;
    black_box(TopKResponse::decode(&frame.payload).map_err(err)?);
    Ok(())
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

pub fn run(inp: &Inputs<'_>) -> Result<Ledger, String> {
    let n = sample_len(inp.workload).min(inp.queries.len());
    let sample = &inp.queries[..n];
    let mut m: Vec<Metric> = Vec::new();
    let mut spans = Vec::new();
    let mut tally = Tally::default();
    let epoch = Instant::now();
    let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;

    // --- core: build each partition's methods as a serve shard would ----
    let parts: Vec<Part> = partition(inp.set, spec::WORKERS)
        .iter()
        .map(|(subset, _)| build_part(subset))
        .collect::<Result<_, _>>()?;
    m.push(Metric::new("core.build_s.exact1", parts.iter().map(|p| p.exact1_s).sum(), "s"));
    m.push(Metric::new("core.build_s.exact3", parts.iter().map(|p| p.exact3_s).sum(), "s"));
    m.push(Metric::new("core.build_s.appx", parts.iter().map(|p| p.appx_s).sum(), "s"));
    let twin = ServeEngine::new(inp.set, spec::serve_config()).map_err(|e| format!("twin: {e}"))?;
    let routes: Vec<Route> = sample.iter().map(|q| twin.route_for(q)).collect();
    // Warm the partitions' pools as the twin's and the server's will be.
    for (q, &route) in sample.iter().zip(&routes) {
        for part in &parts {
            black_box(top_k(part, route, q)?);
        }
    }

    // --- serve, cold: the result cache over the sample's own repeats ----
    // This pass also warms the twin's cache and pools, as the load has
    // warmed the server's.
    let cold = twin.report();
    for q in sample {
        black_box(twin.query(*q).map_err(|e| format!("twin: {e}"))?);
    }
    let warm = twin.report();
    let (hits, lookups) =
        (warm.cache_hits - cold.cache_hits, warm.cache_lookups - cold.cache_lookups);

    // --- the ledger pass: one query through every layer in turn ---------
    let mut client = NetClient::connect(inp.addr).map_err(|e| format!("ledger connect: {e}"))?;
    let mut rows: Vec<Row> = Vec::with_capacity(n);
    let (mut serve_exact, mut serve_approx) = (vec![], vec![]);
    for (i, (q, &route)) in sample.iter().zip(&routes).enumerate() {
        let root = Instant::now();
        let mut layer = |name: &'static str, start: Instant, end: Instant| {
            let parent = (name != "ledger.query").then_some("ledger.query");
            spans.push(Span {
                query: i as u64,
                name,
                parent,
                start_ns: ns(start),
                end_ns: ns(end),
            });
        };
        let mut core_calls = Vec::with_capacity(parts.len());
        for part in &parts {
            let t = Instant::now();
            black_box(top_k(part, route, q)?);
            core_calls.push((t, Instant::now()));
        }
        let before = twin.report();
        let t = Instant::now();
        let (topk, served_route) = twin.query_routed(*q).map_err(|e| format!("twin: {e}"))?;
        let serve = us(t);
        let served_at = (t, Instant::now());
        let after = twin.report();
        // Every shard answered from its result cache: no core work.
        let lookups = after.cache_lookups - before.cache_lookups;
        let cached = lookups > 0 && after.cache_hits - before.cache_hits == lookups;
        let mut core = 0.0f64;
        if !cached {
            for &(start, end) in &core_calls {
                core = core.max(end.duration_since(start).as_secs_f64() * 1e6);
                layer("core.top_k", start, end);
            }
        }
        layer("serve.query", served_at.0, served_at.1);
        let t = Instant::now();
        tally.attempted += 1;
        let Ok(resp) = client.topk(*q) else {
            tally.failed += 1;
            continue;
        };
        let rtt = us(t);
        layer("net.topk", t, Instant::now());
        if !same_answer(&resp.topk, inp.expected.of(i)) {
            tally.mismatched += 1;
        }
        let answer = TopKResponse {
            eps_used: twin.planner().profile(served_route).and_then(|p| p.eps),
            topk,
            route: served_route,
            appends_applied: 0,
        };
        let t = Instant::now();
        codec_round_trip(*q, &answer)?;
        let codec = us(t);
        layer("net.codec", t, Instant::now());
        layer("ledger.query", root, Instant::now());
        rows.push(Row { core, serve, codec, rtt });
        if q.tolerance.is_some() { &mut serve_approx } else { &mut serve_exact }.push(serve);
    }
    let serve_after = twin.report();
    let reads = serve_after.io.since(warm.io).reads;

    // --- core per method, and the storage pool under EXACT3 -------------
    let p0 = &parts[0];
    let (hits0, misses0) = p0.routes.exact3.tree_file().cache_stats();
    let mut exact3_us = Vec::with_capacity(n);
    let mut appx2_us = Vec::with_capacity(n);
    for q in sample {
        let t = Instant::now();
        black_box(top_k(p0, Route::Exact3, q)?);
        exact3_us.push(us(t));
        let t = Instant::now();
        black_box(top_k(p0, Route::Appx2, q)?);
        appx2_us.push(us(t));
    }
    let (hits1, misses1) = p0.routes.exact3.tree_file().cache_stats();
    let pool_accesses = (hits1 - hits0) + (misses1 - misses0);

    // --- serve in windows of 16 ------------------------------------------
    let t = Instant::now();
    for window in sample.chunks(16) {
        black_box(twin.query_batch(window).map_err(|e| format!("twin batch: {e}"))?);
    }
    let batch16 = us(t) / n as f64;

    // --- curve: columnar rescoring over the sample's windows ------------
    let columns = inp.set.to_columnar();
    let ids: Vec<u32> = (0..inp.set.num_objects() as u32).collect();
    let windows: Vec<(f64, f64)> = sample.iter().take(16).map(|q| (q.t1, q.t2)).collect();
    let mut out = Vec::with_capacity(ids.len() * windows.len());
    let t = Instant::now();
    columns.integral_multi(&ids, &windows, &mut out);
    black_box(&out);
    let rescore_ns =
        t.elapsed().as_nanos() as f64 / (inp.set.num_segments() as f64 * windows.len() as f64);

    let p50 = median;
    let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    // The trimmed tail is wakeup stalls, which would swamp the means.
    let cutoff = quantile(&rows.iter().map(|r| r.rtt).collect::<Vec<_>>(), 0.99);
    let kept: Vec<&Row> = rows.iter().filter(|r| r.rtt <= cutoff).collect();
    let mean = |f: fn(&Row) -> f64| kept.iter().map(|r| f(r)).sum::<f64>() / kept.len() as f64;
    m.push(Metric::new("core.query_us", mean(|r| r.core), "us"));
    m.push(Metric::new("core.exact3_us", p50(&exact3_us), "us"));
    m.push(Metric::new("core.appx2_us", p50(&appx2_us), "us"));
    m.push(Metric::new("storage.pool_hit_rate", ratio(hits1 - hits0, pool_accesses), "ratio"));
    m.push(Metric::new("storage.reads_per_query", reads as f64 / n as f64, "count"));
    m.push(Metric::new("curve.rescore_ns_per_segment", rescore_ns, "ns"));
    m.push(Metric::new("serve.query_us.exact", p50(&serve_exact), "us"));
    m.push(Metric::new("serve.query_us.approx", p50(&serve_approx), "us"));
    m.push(Metric::new("serve.self_us", mean(|r| r.serve - r.core), "us"));
    m.push(Metric::new("serve.batch16_us", batch16, "us"));
    m.push(Metric::new("serve.cache_hit_rate", ratio(hits, lookups), "ratio"));
    for route in Route::ALL {
        let count = routes.iter().filter(|&&r| r == route).count();
        m.push(Metric::new(format!("serve.routes.{}", route_key(route)), count as f64, "count"));
    }
    m.push(Metric::new(
        "serve.index_mib",
        serve_after.index_bytes as f64 / (1u64 << 20) as f64,
        "MiB",
    ));
    m.push(Metric::new("net.rtt_us", mean(|r| r.rtt), "us"));
    m.push(Metric::new("net.self_us", mean(|r| r.rtt - r.serve), "us"));
    m.push(Metric::new("net.codec_us", mean(|r| r.codec), "us"));
    m.push(Metric::new("net.unattributed_us", mean(|r| r.rtt - r.serve - r.codec), "us"));
    m.extend(live_layer(inp.seed, &mut tally)?);
    Ok(Ledger { metrics: m, spans, tally })
}

/// A metric-name-safe route label.
fn route_key(route: Route) -> &'static str {
    match route {
        Route::Exact1 => "exact1",
        Route::Exact3 => "exact3",
        Route::Appx1 => "appx1",
        Route::Appx2 => "appx2",
        Route::Appx2Plus => "appx2_plus",
    }
}

/// Trace queries re-asked of the live engine after the replay.
const LIVE_CHECKS: usize = 100;

/// `live`: the append trace of `seed` replayed into an in-process engine.
/// Afterwards [`LIVE_CHECKS`] of the trace's queries are asked again and
/// must match a brute-force scan of the final set bit for bit.
fn live_layer(seed: u64, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let stream = spec::live_stream(seed);
    let ops = spec::live_ops(&stream, seed);
    let mut engine = IngestEngine::new(&stream.base_set(), spec::live_config())
        .map_err(|e| format!("live engine: {e}"))?;
    let (mut append_us, mut query_us) = (vec![], vec![]);
    for op in &ops {
        let t = Instant::now();
        match op {
            LiveOp::Appends(recs) => {
                engine.append_batch(recs).map_err(|e| format!("live append: {e}"))?;
                append_us.push(us(t));
            }
            LiveOp::Query(q) => {
                black_box(
                    engine
                        .query(ServeQuery::exact(q.t1, q.t2, q.k))
                        .map_err(|e| format!("live query: {e}"))?,
                );
                query_us.push(us(t));
            }
        }
    }
    let report = engine.report();

    let full = stream.full_set();
    let asked: Vec<_> = ops
        .iter()
        .filter_map(|op| match op {
            LiveOp::Query(q) => Some(q),
            LiveOp::Appends(_) => None,
        })
        .collect();
    for q in asked.iter().step_by((asked.len() / LIVE_CHECKS).max(1)) {
        tally.attempted += 1;
        match engine.query(ServeQuery::exact(q.t1, q.t2, q.k)) {
            Ok(got) if same_answer(&got, &full.top_k_bruteforce(q.t1, q.t2, q.k)) => {}
            Ok(_) => tally.mismatched += 1,
            Err(_) => tally.failed += 1,
        }
    }

    let ticks = report.appends.max(1);
    Ok(vec![
        Metric::new("live.append_us", median(&append_us), "us"),
        Metric::new("live.query_us", median(&query_us), "us"),
        Metric::new(
            "live.wal_bytes_per_tick",
            report.wal.wal_bytes as f64 / ticks as f64,
            "B/tick",
        ),
        Metric::new("live.rebuilds", report.rebuilds as f64, "count"),
        Metric::new("live.rebuild_s", report.build_secs, "s"),
        Metric::new("live.swap_pause_max_us", report.swap_pause.max_us as f64, "us"),
        Metric::new("live.tail_segments", report.tail_segments as f64, "count"),
    ])
}
