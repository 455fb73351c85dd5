//! The five workloads. Each builds its inputs from `--seed`, measures one
//! untraced closed-loop pass, and — with `--trace 1` — repeats the pass on a traced
//! session and runs the direct-call probes. README.md records why each exists and
//! which layer metric should move which end-to-end metric on it.

use std::path::Path;
use std::time::Instant;

use frogwild::prelude::{
    exact_pagerank, mass_captured, personalized_pagerank, single_source_restart, top_k, Admission,
    DiGraph, ExecutionConfig, FrogWildConfig, PageRankConfig, PprMethod, Query, QueryOutcome,
    Response, ServeConfig, ServeHandle, ServeReport, Session, TraceConfig, VertexId,
    WalkIndexConfig,
};
use frogwild_graph::generators::{livejournal_like, twitter_like};
use frogwild_graph::io::{read_edge_list_file, write_edge_list_file, EdgeListOptions};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::metrics::{mean, median, Metrics, SYNC_SWEEP};
use crate::pass::{
    err, finish, measure, measure_traced, record_engine_costs, record_traced, record_untraced,
    rehearse_setup, Exact, Measured, QueryTarget, Target,
};
use crate::probes;
use crate::trace::{Layer, OpSpans, Spans};
use crate::Opts;

/// Simulated machines of every session.
pub const MACHINES: usize = 16;
pub const TELEPORT: f64 = 0.15;
/// Walkers of a sweep op, an index-served query and a fresh Monte-Carlo probe.
pub const WALKERS: u64 = 20_000;
pub const MC_MAX_STEPS: usize = 32;
/// Size of the hot source set of the PPR mix: the highest in-degree vertices.
const HOT_SET: usize = 64;

/// A workload: its name, why it exists, and how to run it.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub run: fn(&Ctx<'_>) -> Result<Outcome, String>,
    /// Run under the pinned allocator (`pin_allocator` in `main.rs`).
    pub pin_allocator: bool,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "fw_topk_sweep",
        why: "the paper's algorithm at p_s 1/0.7/0.4/0.1 with walkers << vertices: a sparse frontier, so sync, scatter and per-superstep fixed costs do the work",
        run: fw_topk_sweep,
        pin_allocator: false,
    },
    Workload {
        name: "pr_dense",
        why: "the GraphLab PageRank baseline on the engine worker pool: every vertex active, so route and gather dominate; a sparse-frontier change must leave it unmoved",
        run: pr_dense,
        pin_allocator: false,
    },
    Workload {
        name: "ppr_index_stream",
        why: "index-served PPR and top-k from one client, hot and uniform sources: the engine is bypassed, time is forward push, segment stitching and response assembly",
        run: ppr_index_stream,
        pin_allocator: false,
    },
    Workload {
        name: "serve_pool_mixed",
        why: "the same query mix through the concurrent serve pool with an engine-served blocker per chunk: queue, admission and the shared index under two threads",
        run: serve_pool_mixed,
        pin_allocator: true,
    },
    Workload {
        name: "cold_topk",
        why: "parse, CSR build, partition and one top-k per op: the one-shot CLI path, where a query speed-up bought with a costlier layout shows",
        run: cold_topk,
        pin_allocator: false,
    },
];

/// What a workload run needs from the command line and the process.
pub struct Ctx<'a> {
    pub opts: &'a Opts,
    /// Records when `--trace 1`; set-up, the traced pass and the probes use it.
    pub spans: Spans,
    /// Never records; the untraced pass uses it, so both passes run the same code.
    pub off: Spans,
    /// A directory inside the build tree for the file `cold_topk` writes.
    pub scratch: &'a Path,
}

impl Ctx<'_> {
    fn vertices(&self, full: usize) -> usize {
        if self.opts.smoke {
            2_000
        } else {
            full
        }
    }

    /// Op counts shrink under `--smoke`; graph sizes never depend on them.
    pub fn count(&self, full: usize, smoke: usize) -> usize {
        if self.opts.smoke {
            smoke
        } else {
            full
        }
    }

    /// Seconds each pass measures: all of `--seconds` untraced, or half each for
    /// the untraced and the traced pass.
    pub fn pass_seconds(&self) -> f64 {
        if self.opts.trace {
            self.opts.seconds / 2.0
        } else {
            self.opts.seconds
        }
    }

    /// Threads a workload may use: never more than the host has.
    fn threads(&self) -> usize {
        std::thread::available_parallelism()
            .map_or(1, |p| p.get())
            .min(2)
    }
}

/// One output check: a name, whether it held, and the numbers behind it.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub checks: Vec<Check>,
    /// Queries attempted and failed in the untraced pass.
    pub attempted: u64,
    pub failed: u64,
    /// Digest of the exact block's responses: equal across runs of one seed.
    pub response_digest: u64,
    /// Chrome-trace documents to write under `--trace-dir`: `(suffix, json)`.
    pub traces: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    fn check_at_least(&mut self, name: &str, value: f64, floor: f64) {
        self.check(name, value >= floor, format!("{value:.4} >= {floor}"));
    }
}

fn mass_k100(response: &Response, oracle: &[f64]) -> f64 {
    mass_captured(&response.estimate, oracle, 100).normalized()
}

// ---------------------------------------------------------------------------
// Workloads 1 and 2: engine-served queries on the Twitter-shaped graph.
// ---------------------------------------------------------------------------

struct EngineSpec {
    execution: ExecutionConfig,
    block_len: usize,
    warmup: usize,
    mass_floor: f64,
    query: fn(u64, usize) -> Query,
}

/// What `engine_workload` hands back for workload-specific metrics.
struct EngineRun {
    out: Outcome,
    untraced: Measured,
    /// Mass captured by each response of the exact block.
    masses: Vec<f64>,
}

fn engine_session(
    graph: &DiGraph,
    seed: u64,
    execution: ExecutionConfig,
    tracing: TraceConfig,
) -> Result<Session<'_>, String> {
    Session::builder(graph)
        .machines(MACHINES)
        .seed(seed)
        .execution(execution)
        .tracing(tracing)
        .build()
        .map_err(err)
}

fn engine_workload(ctx: &Ctx<'_>, spec: &EngineSpec) -> Result<EngineRun, String> {
    let seed = ctx.opts.seed;
    let n = ctx.vertices(100_000);
    let generate = || twitter_like(n, &mut SmallRng::seed_from_u64(seed));

    let mut setup_times = rehearse_setup(|| {
        engine_session(&generate(), seed, spec.execution, TraceConfig::disabled()).map(drop)
    })?;
    let started = Instant::now();
    let graph = ctx.spans.time(Layer::Generate, generate);
    let mut session = ctx.spans.time(Layer::SessionBuild, || {
        engine_session(&graph, seed, spec.execution, TraceConfig::disabled())
    })?;
    setup_times.push(started.elapsed().as_secs_f64());

    let oracle = ctx.spans.time(Layer::Oracle, || {
        exact_pagerank(&graph, TELEPORT, 200, 1e-10)
    });
    let queries: Vec<Query> = (0..spec.block_len)
        .map(|slot| (spec.query)(seed, slot))
        .collect();
    let k = queries[0].k();
    let mut out = Outcome::default();
    out.metrics.set(
        "engine.partition.replication_factor",
        session.replication_factor(),
    );

    for query in queries.iter().cycle().take(spec.warmup) {
        session.query(query).map_err(err)?;
    }
    let mut masses = Vec::new();
    let mut target = QueryTarget {
        session: &mut session,
        queries: &queries,
    };
    let untraced = measure(ctx, &mut target, spec.block_len, |i, response| {
        if i < spec.block_len {
            masses.push(mass_k100(response, &oracle.scores));
        }
    });
    record_untraced(&mut out, &untraced, k, 1, 0);
    record_engine_costs(&mut out.metrics, &untraced.block);
    let mass = mean(&masses);
    out.metrics.set("mass_captured_k100", mass);
    out.check_at_least("mass_captured_k100", mass, spec.mass_floor);

    if ctx.opts.trace {
        drop(session);
        let mut session = ctx.spans.time(Layer::SessionBuild, || {
            engine_session(&graph, seed, spec.execution, TraceConfig::enabled())
        })?;
        let tracer = session.tracer().clone();
        let mut target = QueryTarget {
            session: &mut session,
            queries: &queries,
        };
        let traced = measure_traced(ctx, Some(&tracer), &mut target, spec.block_len);
        probes::partition(ctx, &graph);
        record_traced(&mut out, ctx, &untraced, traced, 1, true);
    }

    finish(
        &mut out,
        &setup_times,
        untraced.pass.throughput(),
        mass,
        &untraced.block,
    );
    Ok(EngineRun {
        out,
        untraced,
        masses,
    })
}

fn fw_topk_sweep(ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let spec = EngineSpec {
        execution: ExecutionConfig::new(),
        block_len: ctx.count(40, 8),
        warmup: ctx.count(8, 1),
        mass_floor: 0.90,
        query: |seed, slot| Query::TopK {
            k: 100,
            config: FrogWildConfig {
                num_walkers: WALKERS,
                iterations: 4,
                sync_probability: SYNC_SWEEP[slot % SYNC_SWEEP.len()].0,
                seed: seed + slot as u64,
                ..FrogWildConfig::default()
            },
        },
    };
    let EngineRun {
        mut out,
        untraced,
        masses,
    } = engine_workload(ctx, &spec)?;
    // Slot `j`, `j + 4`, ... ran at `SYNC_SWEEP[j]`. The ps1 -> ps0.1 spread of
    // these three metrics is the paper's partial-sync effect.
    for (j, (_, suffix)) in SYNC_SWEEP.iter().enumerate() {
        let at_ps = |len: usize| (j..len).step_by(SYNC_SWEEP.len());
        let latencies: Vec<f64> = at_ps(untraced.pass.ops())
            .map(|i| untraced.pass.latencies[i])
            .collect();
        let bytes: Vec<f64> = at_ps(untraced.block.len())
            .map(|i| untraced.block[i].cost.network_bytes as f64)
            .collect();
        let mass = mean(&at_ps(masses.len()).map(|i| masses[i]).collect::<Vec<_>>());
        out.metrics.set_quantile(
            &format!("core.programs.fw_latency_s_p50.{suffix}"),
            &latencies,
            0.5,
        );
        out.metrics.set(
            &format!("core.programs.fw_net_bytes.{suffix}"),
            mean(&bytes),
        );
        out.metrics
            .set(&format!("core.programs.fw_mass_captured.{suffix}"), mass);
        out.check_at_least(
            &format!("mass_captured_k100.{suffix}"),
            mass,
            spec.mass_floor,
        );
    }
    Ok(out)
}

fn pr_dense(ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let spec = EngineSpec {
        execution: ExecutionConfig::new().workers(ctx.threads()),
        block_len: ctx.count(2, 1),
        warmup: ctx.count(2, 1),
        mass_floor: 0.99,
        query: |_, _| Query::Pagerank {
            k: 100,
            config: PageRankConfig {
                parallel: true,
                ..PageRankConfig::truncated(2)
            },
        },
    };
    Ok(engine_workload(ctx, &spec)?.out)
}

// ---------------------------------------------------------------------------
// Workloads 3 and 4: index-served queries on the LiveJournal-shaped graph.
// ---------------------------------------------------------------------------

pub fn ppr_query(source: VertexId, seed: u64) -> Query {
    Query::Ppr {
        source,
        k: 20,
        teleport_probability: TELEPORT,
        method: PprMethod::MonteCarlo {
            walkers: WALKERS,
            max_steps: MC_MAX_STEPS,
            seed,
        },
    }
}

/// The PPR/top-k mix of workloads 3 and 4 and its accuracy oracle.
struct IndexMix {
    queries: Vec<Query>,
    /// `(slot, exact top-20)` of the PPR queries the oracle covers.
    oracle: Vec<(usize, Vec<VertexId>)>,
    /// Sources for the direct-call probes: half hot, half uniform.
    probe_sources: Vec<VertexId>,
}

/// Seven of eight queries are index-served PPR, sources alternating between the
/// hot set and uniform draws; every eighth is an index-served top-k. The first
/// `oracle_sources` PPR queries are the ones scored against exact PPR.
fn index_mix(ctx: &Ctx<'_>, graph: &DiGraph, len: usize) -> IndexMix {
    let seed = ctx.opts.seed;
    let n = graph.num_vertices();
    let oracle_sources = ctx.count(16, 4);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let in_degrees: Vec<f64> = (0..n as VertexId)
        .map(|v| graph.in_degree(v) as f64)
        .collect();
    let hot = top_k(&in_degrees, HOT_SET);
    let mut draw = |j: usize| -> VertexId {
        if j.is_multiple_of(2) {
            hot[rng.gen_range(0..hot.len())]
        } else {
            rng.gen_range(0..n) as VertexId
        }
    };

    let mut queries = Vec::with_capacity(len);
    let mut oracle_slots = Vec::new();
    let mut ppr_seen = 0;
    for slot in 0..len {
        let query_seed = seed + slot as u64;
        if slot % 8 == 7 {
            queries.push(Query::TopK {
                k: 20,
                config: FrogWildConfig {
                    num_walkers: WALKERS,
                    iterations: 4,
                    seed: query_seed,
                    ..FrogWildConfig::default()
                },
            });
        } else {
            let source = draw(ppr_seen);
            if ppr_seen < oracle_sources {
                oracle_slots.push((slot, source));
            }
            ppr_seen += 1;
            queries.push(ppr_query(source, query_seed));
        }
    }
    let probe_sources = (0..ctx.count(200, 8)).map(&mut draw).collect();

    // Exact PPR of the oracle sources, on as many threads as the workload may use.
    let exact_top = |source: VertexId| {
        let restart = single_source_restart(n, source);
        let exact = personalized_pagerank(graph, &restart, TELEPORT, 100, 1e-9);
        top_k(&exact.scores, 20)
    };
    let threads = ctx.threads();
    let mut oracle: Vec<(usize, Vec<VertexId>)> = ctx.spans.time(Layer::Oracle, || {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let slots = oracle_slots.iter().skip(t).step_by(threads);
                    let exact_top = &exact_top;
                    scope.spawn(move || {
                        slots
                            .map(|&(slot, source)| (slot, exact_top(source)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("oracle thread panicked"))
                .collect()
        })
    });
    oracle.sort_by_key(|(slot, _)| *slot);
    IndexMix {
        queries,
        oracle,
        probe_sources,
    }
}

impl IndexMix {
    /// Top-20 overlap of `response` with exact PPR, if `slot` is an oracle slot.
    fn overlap(&self, slot: usize, response: &Response) -> Option<f64> {
        let (_, exact) = self.oracle.iter().find(|(s, _)| *s == slot)?;
        let hits = response
            .ranking
            .iter()
            .filter(|(v, _)| exact.contains(v))
            .count();
        Some(hits as f64 / exact.len() as f64)
    }

    fn record_overlap(&self, out: &mut Outcome, overlaps: &[f64]) -> f64 {
        let overlap = mean(overlaps);
        out.metrics.set("ppr_overlap_k20", overlap);
        out.check(
            "ppr_overlap_k20",
            overlap >= 0.70 && overlaps.len() == self.oracle.len(),
            format!("{overlap:.4} >= 0.7 over {} sources", overlaps.len()),
        );
        overlap
    }
}

fn index_graph(ctx: &Ctx<'_>) -> DiGraph {
    livejournal_like(
        ctx.vertices(100_000),
        &mut SmallRng::seed_from_u64(ctx.opts.seed),
    )
}

fn index_session<'g>(
    ctx: &Ctx<'_>,
    graph: &'g DiGraph,
    tracing: TraceConfig,
) -> Result<Session<'g>, String> {
    Session::builder(graph)
        .machines(MACHINES)
        .seed(ctx.opts.seed)
        .walk_index(WalkIndexConfig::default())
        .tracing(tracing)
        .build()
        .map_err(err)
}

/// The set-up of workloads 3 and 4 up to the graph: rehearsals, then the
/// generation that is kept. The caller builds the kept session under
/// [`timed_into_last`].
fn index_setup(ctx: &Ctx<'_>) -> Result<(DiGraph, Vec<f64>), String> {
    let mut setup_times = rehearse_setup(|| {
        index_session(ctx, &index_graph(ctx), TraceConfig::disabled()).map(drop)
    })?;
    let started = Instant::now();
    let graph = ctx.spans.time(Layer::Generate, || index_graph(ctx));
    setup_times.push(started.elapsed().as_secs_f64());
    Ok((graph, setup_times))
}

/// Runs `f` and adds its seconds to the last entry of `times`.
fn timed_into_last<T>(times: &mut [f64], f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let value = f();
    if let Some(last) = times.last_mut() {
        *last += started.elapsed().as_secs_f64();
    }
    value
}

fn ppr_index_stream(ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let (graph, mut setup_times) = index_setup(ctx)?;
    let mut session = timed_into_last(&mut setup_times, || {
        ctx.spans.time(Layer::SessionBuild, || {
            index_session(ctx, &graph, TraceConfig::disabled())
        })
    })?;

    let block_len = ctx.count(400, 40);
    let mix = index_mix(ctx, &graph, block_len);
    let mut out = Outcome::default();
    out.metrics.set(
        "engine.partition.replication_factor",
        session.replication_factor(),
    );

    // The oracle's queries double as the warm-up.
    for (slot, _) in &mix.oracle {
        session.query(&mix.queries[*slot]).map_err(err)?;
    }
    let mut overlaps = Vec::new();
    let mut target = QueryTarget {
        session: &mut session,
        queries: &mix.queries,
    };
    let untraced = measure(ctx, &mut target, block_len, |i, response| {
        if i < block_len {
            overlaps.extend(mix.overlap(i, response));
        }
    });
    record_untraced(&mut out, &untraced, 20, 1, 0);
    out.metrics
        .set_quantile("latency_s_p99", &untraced.pass.latencies, 0.99);
    let overlap = mix.record_overlap(&mut out, &overlaps);
    out.check(
        "engine_bypassed",
        untraced.block.iter().all(|e| e.cost.index_served),
        "every response index-served".to_string(),
    );

    if ctx.opts.trace {
        probes::ppr(ctx, &graph, &mut session, &mix.probe_sources)?;
        drop(session);
        let mut session = ctx.spans.time(Layer::SessionBuild, || {
            index_session(ctx, &graph, TraceConfig::enabled())
        })?;
        let tracer = session.tracer().clone();
        let mut target = QueryTarget {
            session: &mut session,
            queries: &mix.queries,
        };
        let traced = measure_traced(ctx, Some(&tracer), &mut target, block_len);
        record_traced(&mut out, ctx, &untraced, traced, 1, true);
    }

    finish(
        &mut out,
        &setup_times,
        untraced.pass.throughput(),
        overlap,
        &untraced.block,
    );
    Ok(out)
}

/// One `ServeHandle::serve` call per op: a chunk of queries through the pool.
struct ServeTarget<'q, 's, 'g> {
    handle: ServeHandle<'s, 'g>,
    chunk: &'q [Query],
}

impl Target for ServeTarget<'_, '_, '_> {
    type Output = ServeReport;

    fn run(&mut self, _slot: usize, spans: &OpSpans) -> Result<ServeReport, String> {
        let _span = spans.layer(Layer::Serve);
        Ok(self.handle.serve(self.chunk))
    }

    fn exact(report: &ServeReport) -> Vec<Exact> {
        report
            .outcomes
            .iter()
            .map(|outcome| match outcome {
                QueryOutcome::Served(response) => Exact::of(response),
                _ => Exact::missing(),
            })
            .collect()
    }
}

/// Serve-pool counters summed over the chunks of one pass.
#[derive(Default)]
struct ServeTotals {
    wall_s: f64,
    busy_s: f64,
    queue_wait_s: f64,
    service_s: f64,
    served: u64,
    rejected: u64,
    failed: u64,
    workers: usize,
}

impl ServeTotals {
    fn add(&mut self, report: &ServeReport) {
        self.wall_s += report.wall_seconds;
        self.busy_s += report.workers.iter().map(|w| w.busy_seconds).sum::<f64>();
        self.queue_wait_s += report.queue_wait.overall().sum_seconds();
        self.service_s += report.latency.overall().sum_seconds();
        self.served += report.served;
        self.rejected += report.rejected;
        self.failed += report.failed;
        self.workers = report.workers.len();
    }

    /// `pool_qps` and `serial_qps` are throughputs over the same chunk.
    fn record(&self, metrics: &mut Metrics, pool_qps: f64, serial_qps: f64) {
        let workers = self.workers.max(1) as f64;
        let served = self.served.max(1) as f64;
        metrics.set(
            "core.serve.busy_share",
            self.busy_s / (workers * self.wall_s),
        );
        metrics.set("core.serve.queue_wait_s_mean", self.queue_wait_s / served);
        metrics.set("core.serve.service_s_mean", self.service_s / served);
        metrics.set(
            "core.serve.pool_efficiency",
            pool_qps / (workers * serial_qps),
        );
        metrics.set("core.serve.rejected", self.rejected as f64);
        metrics.set("core.serve.failed", self.failed as f64);
    }
}

fn serve_pool_mixed(ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let (graph, mut setup_times) = index_setup(ctx)?;
    let mut session = timed_into_last(&mut setup_times, || {
        ctx.spans.time(Layer::SessionBuild, || {
            index_session(ctx, &graph, TraceConfig::disabled())
        })
    })?;

    // One chunk is one `serve` call, and the same chunk is submitted every time:
    // the pool re-seeds each query from its sequence id, so the answers still
    // differ from chunk to chunk. A response carries a dense per-vertex
    // estimate, so each report is dropped before the next chunk is submitted.
    let chunk_len = ctx.count(200, 40);
    let mut mix = index_mix(ctx, &graph, chunk_len);
    // The head-of-line blocker: one engine-served query per chunk.
    mix.queries[chunk_len / 2 + 1] = Query::Pagerank {
        k: 20,
        config: PageRankConfig::truncated(1),
    };
    let config = ServeConfig {
        workers: ctx.threads(),
        admission: Admission::Block,
        ..ServeConfig::default()
    };
    let mut out = Outcome::default();
    out.metrics.set(
        "engine.partition.replication_factor",
        session.replication_factor(),
    );

    // The serial reference answers chunk 0 under the sequence ids the pool will
    // use (a fresh handle starts at 0); it doubles as the warm-up.
    let serial = ctx.spans.time(Layer::ServeSerial, || {
        session
            .serve_with(config)
            .map(|mut handle| handle.serve_serial(&mix.queries))
            .map_err(err)
    })?;
    let serial_qps = serial.qps();
    let serial_block = ServeTarget::exact(&serial);
    drop(serial);

    let mut totals = ServeTotals::default();
    let mut overlaps = Vec::new();
    let mut target = ServeTarget {
        handle: session.serve_with(config).map_err(err)?,
        chunk: &mix.queries,
    };
    let untraced = measure(ctx, &mut target, 1, |i, report| {
        totals.add(report);
        if i == 0 {
            for (slot, outcome) in report.outcomes.iter().enumerate() {
                overlaps.extend(outcome.response().and_then(|r| mix.overlap(slot, r)));
            }
        }
    });
    record_untraced(
        &mut out,
        &untraced,
        20,
        chunk_len as u64,
        totals.rejected + totals.failed,
    );
    let submitted = (untraced.pass.ops() * chunk_len) as u64;
    out.check(
        "served_equals_submitted",
        totals.served == submitted,
        format!("{} served of {submitted}", totals.served),
    );
    out.check(
        "pool_bit_identical_to_serial",
        untraced.block == serial_block,
        format!("{} responses of chunk 0 compared", serial_block.len()),
    );
    record_engine_costs(&mut out.metrics, &untraced.block);
    let overlap = mix.record_overlap(&mut out, &overlaps);
    let chunk_qps: Vec<f64> = untraced
        .pass
        .latencies
        .iter()
        .map(|seconds| chunk_len as f64 / seconds)
        .collect();
    let throughput = median(&chunk_qps);
    totals.record(&mut out.metrics, throughput, serial_qps);

    if ctx.opts.trace {
        drop(session);
        let mut session = ctx.spans.time(Layer::SessionBuild, || {
            index_session(ctx, &graph, TraceConfig::enabled())
        })?;
        let tracer = session.tracer().clone();
        let mut target = ServeTarget {
            handle: session.serve_with(config).map_err(err)?,
            chunk: &mix.queries,
        };
        let traced = measure_traced(ctx, Some(&tracer), &mut target, 1);
        probes::partition(ctx, &graph);
        record_traced(&mut out, ctx, &untraced, traced, chunk_len, false);
    }

    finish(&mut out, &setup_times, throughput, overlap, &untraced.block);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Workload 5: the one-shot path.
// ---------------------------------------------------------------------------

/// Parse the edge list, build a session, answer one top-k, drop everything.
struct ColdTarget<'a> {
    path: &'a Path,
    options: EdgeListOptions,
    seed: u64,
    tracing: TraceConfig,
}

/// A cold op's response and the replication factor of the layout it built.
struct ColdOutput {
    response: Response,
    replication_factor: f64,
}

impl Target for ColdTarget<'_> {
    type Output = ColdOutput;

    fn run(&mut self, slot: usize, spans: &OpSpans) -> Result<ColdOutput, String> {
        let (graph, _) = {
            let mut span = spans.layer(Layer::Parse);
            let read = read_edge_list_file(self.path, &self.options).map_err(err)?;
            span.counter("edges", read.0.num_edges() as u64);
            read
        };
        let mut session = {
            let _span = spans.layer(Layer::SessionBuild);
            Session::builder(&graph)
                .machines(MACHINES)
                .seed(self.seed)
                .tracing(self.tracing)
                .build()
                .map_err(err)?
        };
        let query = Query::TopK {
            k: 100,
            config: FrogWildConfig {
                num_walkers: 10_000,
                iterations: 4,
                sync_probability: 0.7,
                seed: self.seed + slot as u64,
                ..FrogWildConfig::default()
            },
        };
        let _span = spans.layer(Layer::SessionQuery);
        Ok(ColdOutput {
            response: session.query(&query).map_err(err)?,
            replication_factor: session.replication_factor(),
        })
    }

    fn exact(output: &ColdOutput) -> Vec<Exact> {
        vec![Exact::of(&output.response)]
    }
}

fn cold_topk(ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let seed = ctx.opts.seed;
    let n = ctx.vertices(50_000);
    let path = ctx.scratch.join("cold_topk_edges.txt");
    let generate = || twitter_like(n, &mut SmallRng::seed_from_u64(seed));
    let write = |graph: &DiGraph| write_edge_list_file(graph, &path).map_err(err);

    let mut setup_times = rehearse_setup(|| write(&generate()))?;
    let started = Instant::now();
    let generated = ctx.spans.time(Layer::Generate, generate);
    ctx.spans.time(Layer::WriteEdges, || write(&generated))?;
    setup_times.push(started.elapsed().as_secs_f64());

    // Reading relabels vertices in order of first appearance, so the oracle is
    // taken on the graph as loaded, not as generated.
    let options = EdgeListOptions::default();
    let (loaded, _) = read_edge_list_file(&path, &options).map_err(err)?;
    let mut out = Outcome::default();
    // The generator emits parallel edges; the default reader collapses them.
    let mut distinct = generated.edge_vec();
    distinct.sort_unstable();
    distinct.dedup();
    out.check(
        "loaded_graph_matches_generated",
        loaded.num_vertices() == generated.num_vertices() && loaded.num_edges() == distinct.len(),
        format!(
            "{} vertices {} edges loaded, {} vertices {} distinct edges generated",
            loaded.num_vertices(),
            loaded.num_edges(),
            generated.num_vertices(),
            distinct.len()
        ),
    );
    drop((distinct, generated));
    let oracle = ctx.spans.time(Layer::Oracle, || {
        exact_pagerank(&loaded, TELEPORT, 200, 1e-10)
    });
    if ctx.opts.trace {
        probes::partition(ctx, &loaded);
    }
    drop(loaded);

    let block_len = ctx.count(2, 1);
    let mut target = ColdTarget {
        path: &path,
        options,
        seed,
        tracing: TraceConfig::disabled(),
    };
    let mut masses = Vec::new();
    let mut replication_factor = 0.0;
    let untraced = measure(ctx, &mut target, block_len, |i, output| {
        if i < block_len {
            masses.push(mass_k100(&output.response, &oracle.scores));
            replication_factor = output.replication_factor;
        }
    });
    record_untraced(&mut out, &untraced, 100, 1, 0);
    record_engine_costs(&mut out.metrics, &untraced.block);
    out.metrics
        .set("engine.partition.replication_factor", replication_factor);
    let mass = mean(&masses);
    out.metrics.set("mass_captured_k100", mass);
    // 10 000 walkers on 50 000 vertices capture less than the sweep's 20 000 do.
    out.check_at_least("mass_captured_k100", mass, 0.85);

    if ctx.opts.trace {
        // Every op builds and drops its own traced session, so there is no
        // session timeline to drain: the harness spans are the breakdown.
        target.tracing = TraceConfig::enabled();
        let traced = measure_traced(ctx, None, &mut target, block_len);
        record_traced(&mut out, ctx, &untraced, traced, 1, true);
    }
    let _ = std::fs::remove_file(&path);

    finish(
        &mut out,
        &setup_times,
        untraced.pass.throughput(),
        mass,
        &untraced.block,
    );
    Ok(out)
}
