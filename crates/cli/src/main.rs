//! `frogwild` — command-line front end for the FrogWild reproduction.
//!
//! The engine-backed subcommands (`topk`, `pagerank`, `autotune`) build a [`Session`] —
//! the graph is partitioned across the simulated cluster exactly once — and serve their
//! queries through the typed `Query` → `Response` surface; `ppr` is serial and is
//! served directly from the raw graph (no partitioning) unless the `--walk-index-*`
//! options ask for an index-serving session; `index` builds such a session and reports
//! the economics of its walk index. Errors are `frogwild::Error` values printed to
//! stderr; nothing panics on a bad configuration, and an option that is mistyped, or that
//! the subcommand never reads, is an error (`unknown option --walker`, `option --ps does
//! not apply to pagerank`), never a default silently used in its place.
//!
//! `frogwild --help` lists the subcommands and every option with its default and the
//! subcommands that read it; it is generated from the one table in [`args`].

mod args;

use args::{ArgError, Args, OPTIONS};
use frogwild::obs::{span_meta, SpanKey};
use frogwild::prelude::*;
use frogwild_graph::io::{read_edge_list_file, write_edge_list_file, EdgeListOptions};
use frogwild_graph::stats::{degree_summary, in_degree_tail_exponent, Direction};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::process::ExitCode;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw[0] == "--help" || raw[0] == "-h" || raw[0] == "help" {
        print!("{}", args::usage());
        return ExitCode::SUCCESS;
    }
    match Args::parse(&raw).map_err(Error::from).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Args) -> Result<()> {
    match args.command.as_str() {
        "topk" => cmd_topk(&args),
        "autotune" => cmd_autotune(&args),
        "pagerank" => cmd_pagerank(&args),
        "ppr" => cmd_ppr(&args),
        "serve" => cmd_serve(&args),
        "index" => cmd_index(&args),
        "plan" => cmd_plan(&args),
        "stats" => cmd_stats(&args),
        "generate" => cmd_generate(&args),
        other => Err(ArgError::UnknownCommand(other.to_string()).into()),
    }
}

/// A graph and the vertex ids of whatever it was loaded from.
struct Loaded {
    graph: DiGraph,
    /// `labels[v]` is the id the `--graph` file uses for dense vertex `v`; empty for a
    /// `--synthetic` graph, whose dense ids are the only ones it has.
    labels: Vec<u64>,
}

impl Loaded {
    /// The id to print for dense vertex `v`.
    fn label(&self, v: VertexId) -> u64 {
        self.labels.get(v as usize).copied().unwrap_or(v as u64)
    }
}

/// `--seed`: the one seed of everything a run randomizes.
fn seed_of(args: &Args) -> Result<u64> {
    Ok(args.get_parsed("seed", 42, "an integer")?)
}

/// Loads the graph named by `--graph`, or generates one per `--synthetic`.
fn load_graph(args: &Args) -> Result<Loaded> {
    let seed = seed_of(args)?;
    if let Some(path) = args.get("graph") {
        let (graph, labels) = read_edge_list_file(path, &EdgeListOptions::default())
            .map_err(|e| Error::graph(format!("could not load {path}: {e}")))?;
        eprintln!(
            "loaded {path}: {} vertices, {} edges",
            graph.num_vertices(),
            graph.num_edges()
        );
        return Ok(Loaded { graph, labels });
    }
    let vertices = vertex_count(args)?;
    if vertices > VertexId::MAX as usize {
        return Err(Error::config(
            "command line",
            format!(
                "--vertices {vertices} is more than 32-bit vertex ids can name (at most {})",
                VertexId::MAX
            ),
        ));
    }
    let kind = args.get("synthetic").unwrap_or("twitter");
    let mut rng = SmallRng::seed_from_u64(seed);
    let graph = match kind {
        "twitter" => frogwild_graph::generators::twitter_like(vertices, &mut rng),
        "livejournal" => frogwild_graph::generators::livejournal_like(vertices, &mut rng),
        other => {
            return Err(Error::config(
                "command line",
                format!("unknown synthetic graph kind {other:?}"),
            ))
        }
    };
    eprintln!(
        "generated {kind}-shaped graph: {} vertices, {} edges (seed {seed})",
        graph.num_vertices(),
        graph.num_edges()
    );
    Ok(Loaded {
        graph,
        labels: Vec::new(),
    })
}

/// `--vertices`: the size of the graph to generate, or to plan for; at least one.
fn vertex_count(args: &Args) -> Result<usize> {
    let vertices: usize = args.get_parsed("vertices", 100_000, "an integer")?;
    if vertices == 0 {
        return Err(Error::config(
            "command line",
            "--vertices must be at least 1",
        ));
    }
    Ok(vertices)
}

/// The `--walk-index-*` options parsed into a config (defaults where absent) and
/// validated, before any graph is loaded.
fn walk_index_values(args: &Args) -> Result<WalkIndexConfig> {
    let base = WalkIndexConfig::default();
    // An explicit `--walk-index-budget-mb 0` must reach the library validator (which
    // rejects a zero budget) instead of silently meaning "unbounded"; only an absent
    // option keeps the default.
    let memory_budget_bytes = match args.get("walk-index-budget-mb") {
        None => base.memory_budget_bytes,
        Some(_) => {
            let mib = args.get_parsed::<usize>("walk-index-budget-mb", 0, "an integer")?;
            mib.checked_mul(1024 * 1024).ok_or_else(|| {
                Error::config(
                    "command line",
                    format!("--walk-index-budget-mb {mib} is more bytes than a usize can count"),
                )
            })?
        }
    };
    let config = WalkIndexConfig {
        segments_per_vertex: args.get_parsed(
            "walk-index-segments",
            base.segments_per_vertex,
            "an integer",
        )?,
        segment_length: args.get_parsed("walk-index-length", base.segment_length, "an integer")?,
        frontier_epsilon: args.get_parsed(
            "walk-index-epsilon",
            base.frontier_epsilon,
            "a positive number",
        )?,
        walks_per_unit_residual: args.get_parsed(
            "walk-index-walks",
            base.walks_per_unit_residual,
            "an integer",
        )?,
        memory_budget_bytes,
        seed: seed_of(args)?,
    };
    config.validate()?;
    Ok(config)
}

/// `Some(config)` when the command line opts into a walk index — via the bare
/// `--walk-index` switch or any `--walk-index-*` value.
fn walk_index_config(args: &Args) -> Result<Option<WalkIndexConfig>> {
    let mut named = OPTIONS.iter().filter(|o| o.name.starts_with("walk-index"));
    if named.any(|o| args.has_flag(o.name)) {
        walk_index_values(args).map(Some)
    } else {
        Ok(None)
    }
}

/// Says so when an option the subcommand does read has no effect on this run of it.
fn warn_no_effect(args: &Args, options: &[&str], why: &str) {
    for name in options.iter().filter(|name| args.has_flag(name)) {
        eprintln!("warning: --{name} has no effect here: {why}");
    }
}

/// The `--serve-*` / `--admission*` options parsed into a [`ServeConfig`] and
/// validated, before any graph is loaded.
fn serve_config_from(args: &Args) -> Result<ServeConfig> {
    let base = ServeConfig::default();
    let admission = match args.get("admission").unwrap_or("block") {
        "block" => Admission::Block,
        "reject" => Admission::Reject,
        "timeout" => {
            let ms: u64 = args.get_parsed("admission-timeout-ms", 100, "milliseconds")?;
            Admission::Timeout(std::time::Duration::from_millis(ms))
        }
        other => {
            return Err(Error::config(
                "command line",
                format!("unknown admission policy {other:?} (expected block, reject or timeout)"),
            ))
        }
    };
    let config = ServeConfig {
        workers: args.get_parsed("serve-workers", base.workers, "an integer")?,
        queue_depth: args.get_parsed("queue-depth", base.queue_depth, "an integer")?,
        batch: args.get_parsed("serve-batch", base.batch, "an integer")?,
        admission,
    };
    config.validate()?;
    Ok(config)
}

/// [`SpanKey::lane`] of the one CLI-level span (the sessionless `ppr` command's). Engine
/// spans use lanes 0–6 and the serving stack lanes 8–10, so it never shares a `(key)`
/// with a library sink.
const LANE_CLI: u16 = 11;

/// What `--trace <path>` asked for: where to write, in which format (chrome trace-event
/// JSON, which loads in `chrome://tracing` / `ui.perfetto.dev`, or a flat CSV with one
/// row per timeline record), on which clock.
struct TraceRequest {
    path: String,
    csv: bool,
    config: TraceConfig,
}

/// The `--trace` / `--trace-format` / `--trace-logical` options, `Some` only when a
/// trace was actually requested. Pure (no side effects), so both the session builder
/// and the post-command exporter can call it.
fn trace_request(args: &Args) -> Result<Option<TraceRequest>> {
    let Some(path) = args.get("trace") else {
        return Ok(None);
    };
    let csv = match args.get("trace-format").unwrap_or("chrome") {
        "chrome" => false,
        "csv" => true,
        other => {
            return Err(Error::config(
                "command line",
                format!("unknown trace format {other:?} (expected chrome or csv)"),
            ))
        }
    };
    let config = if args.has_flag("trace-logical") {
        TraceConfig::logical()
    } else {
        TraceConfig::enabled()
    };
    Ok(Some(TraceRequest {
        path: path.to_string(),
        csv,
        config,
    }))
}

/// When `--trace` asked for one: merges `tracer`'s records into the deterministic
/// timeline, writes the requested export, and prints the phase-breakdown summary to
/// stderr. Chrome output is run back through the in-repo validator *before* the file is
/// written, so the `trace: wrote ...` confirmation line guarantees a loadable trace.
fn write_trace(args: &Args, tracer: &Tracer) -> Result<()> {
    let Some(request) = trace_request(args)? else {
        return Ok(());
    };
    let timeline = tracer.finish();
    let (data, label, records) = if request.csv {
        (timeline.to_csv(), "csv", timeline.entries().len())
    } else {
        let json = timeline.to_chrome_json();
        let events = frogwild::obs::validate_chrome_json(&json)
            .map_err(|e| Error::query(format!("emitted chrome trace failed validation: {e}")))?;
        (json, "chrome, validated", events)
    };
    std::fs::write(&request.path, &data)
        .map_err(|e| Error::graph(format!("could not write {}: {e}", request.path)))?;
    eprintln!("{}", timeline.report(5));
    eprintln!(
        "trace: wrote {records} records to {} ({label})",
        request.path
    );
    Ok(())
}

/// Builds the session shared by the ranking subcommands — over a walk index when the
/// subcommand's queries can be served from one and the command line asked for it.
fn session_over<'g>(
    args: &Args,
    graph: &'g DiGraph,
    index: Option<WalkIndexConfig>,
) -> Result<Session<'g>> {
    let partitioner: PartitionerKind =
        args.get_parsed("partitioner", Default::default(), "a partitioner name")?;
    let execution = ExecutionConfig::new()
        .workers(args.get_parsed("workers", 1usize, "an integer")?)
        .staleness(args.get_parsed("staleness", 0usize, "an integer")?);
    let mut builder = Session::builder(graph)
        .machines(args.get_parsed("machines", 16, "an integer")?)
        .partitioner(partitioner)
        .seed(seed_of(args)?)
        .execution(execution);
    if let Some(request) = trace_request(args)? {
        builder = builder.tracing(request.config);
    }
    if let Some(config) = index {
        builder = builder.walk_index(config);
    }
    let session = builder.build()?;
    eprintln!(
        "session: {} machines, {} partitioner, replication factor {:.2}, partitioned in {:.3}s",
        session.num_machines(),
        session.partitioner_name(),
        session.replication_factor(),
        session.stats().partition_seconds,
    );
    if let Some(report) = session.walk_index_report() {
        eprintln!(
            "walk index: {}x{}-hop segments/vertex, {} bytes, built in {:.3}s on {} machines",
            report.effective_segments,
            report.segment_length,
            report.arena_bytes,
            report.build_seconds,
            report.machines,
        );
    }
    Ok(session)
}

/// Under `--verbose`, prints the per-query cost audit (`QueryCost`'s `Display`)
/// to stderr so the stdout CSV stays machine-readable.
fn print_verbose_cost(args: &Args, response: &Response) {
    if args.has_flag("verbose") {
        eprintln!("{}", response.cost);
    }
}

/// The one place a vertex is printed: under the id its source gave it.
fn print_ranking(response: &Response, loaded: &Loaded, score_label: &str) {
    println!("rank,vertex,{score_label}");
    for (rank, (v, score)) in response.ranking.iter().enumerate() {
        println!("{},{},{:.8}", rank + 1, loaded.label(*v), score);
    }
}

/// What `topk`, `pagerank` and `autotune` do once their query is answered: the run's
/// header, the ranking, the session's amortized-economics audit (`SessionStats`'
/// `Display`, to stderr) and the trace.
fn finish_ranking(
    args: &Args,
    session: &Session<'_>,
    response: &Response,
    loaded: &Loaded,
    score_label: &str,
) -> Result<()> {
    println!("# algorithm: {}", response.algorithm);
    println!(
        "# machines: {}, supersteps: {}, network bytes: {}, simulated time: {:.4}s",
        session.num_machines(),
        response.cost.supersteps,
        response.cost.network_bytes,
        response.cost.simulated_seconds,
    );
    print_verbose_cost(args, response);
    print_ranking(response, loaded, score_label);
    eprintln!("{}", session.stats());
    write_trace(args, session.tracer())
}

fn cmd_topk(args: &Args) -> Result<()> {
    let config = FrogWildConfig {
        num_walkers: args.get_parsed("walkers", 800_000u64, "an integer")?,
        iterations: args.get_parsed("iterations", 4usize, "an integer")?,
        sync_probability: args.get_parsed("ps", 0.7f64, "a probability in (0, 1]")?,
        seed: seed_of(args)?,
        tolerance: args.get_parsed("tolerance", 0.0f64, "a non-negative number")?,
        ..FrogWildConfig::default()
    };
    // Fail fast on a bad configuration before the (expensive) graph load + partition.
    config.validate()?;
    let index = walk_index_config(args)?;
    if index.is_some() {
        warn_no_effect(
            args,
            &["tolerance", "workers", "staleness"],
            "it configures the engine, but --walk-index serves topk from precomputed segments",
        );
    }
    let k = ranked_count(args, 100)?;
    let repeat: usize = args.get_parsed("repeat", 1usize, "an integer")?;
    if repeat == 0 {
        return Err(Error::config("command line", "--repeat must be at least 1"));
    }

    let loaded = load_graph(args)?;
    let mut session = session_over(args, &loaded.graph, index)?;
    let mut last = None;
    for _ in 0..repeat {
        last = Some(session.query(&Query::TopK { k, config })?);
    }
    let response = last.expect("repeat >= 1");
    finish_ranking(args, &session, &response, &loaded, "estimated_mass")
}

/// `--k`, the number of vertices a ranking command reports: at least one.
fn ranked_count(args: &Args, default: usize) -> Result<usize> {
    let k: usize = args.get_parsed("k", default, "an integer")?;
    if k == 0 {
        return Err(Error::config("command line", "--k must be at least 1"));
    }
    Ok(k)
}

fn cmd_pagerank(args: &Args) -> Result<()> {
    let mut config = if args.has_flag("exact") {
        PageRankConfig::exact()
    } else {
        PageRankConfig::truncated(args.get_parsed("iterations", 2usize, "an integer")?)
    };
    config.tolerance = args.get_parsed("tolerance", config.tolerance, "a non-negative number")?;
    let k = ranked_count(args, 100)?;
    // Fail fast on a bad configuration before the (expensive) graph load + partition.
    config.validate()?;

    let loaded = load_graph(args)?;
    let mut session = session_over(args, &loaded.graph, None)?;
    let response = session.query(&Query::Pagerank { k, config })?;
    finish_ranking(args, &session, &response, &loaded, "score")
}

fn cmd_autotune(args: &Args) -> Result<()> {
    let k: usize = args.get_parsed("k", 100, "an integer")?;
    let config = AutoTuneConfig {
        k,
        mass_loss_target: args.get_parsed("loss", 0.05, "a positive number")?,
        failure_probability: args.get_parsed("delta", 0.1, "a probability")?,
        sync_probability: args.get_parsed("ps", 0.7, "a probability in (0, 1]")?,
        pilot_walkers: args.get_parsed("pilot-walkers", 10_000u64, "an integer")?,
        seed: seed_of(args)?,
        ..AutoTuneConfig::default()
    };
    // Fail fast on a bad configuration before the (expensive) graph load + partition.
    config.validate()?;

    let loaded = load_graph(args)?;
    let mut session = session_over(args, &loaded.graph, None)?;
    let response = session.query(&Query::AutotunedTopK { config })?;
    if let ResponseDetail::AutotunedTopK {
        estimated_topk_mass,
        planned_walkers,
        planned_iterations,
        pilot_network_bytes,
    } = response.detail
    {
        println!(
            "# plan: estimated top-{k} mass {estimated_topk_mass:.4}, planned {planned_walkers} walkers / {planned_iterations} iterations (pilot cost {pilot_network_bytes} bytes)"
        );
    }
    finish_ranking(args, &session, &response, &loaded, "estimated_mass")
}

fn cmd_ppr(args: &Args) -> Result<()> {
    args.require("source")?;
    let source: u64 = args.get_parsed("source", 0, "a vertex id")?;
    let k = ranked_count(args, 20)?;
    let method = match args.get("method").unwrap_or("push") {
        "push" => PprMethod::ForwardPush {
            epsilon: args.get_parsed("epsilon", 1e-7, "a positive number")?,
        },
        "exact" => PprMethod::PowerIteration {
            max_iterations: 200,
            tolerance: 1e-10,
        },
        "mc" => PprMethod::MonteCarlo {
            walkers: args.get_parsed("walkers", 100_000u64, "an integer")?,
            max_steps: args.get_parsed("max-steps", 64usize, "an integer")?,
            seed: seed_of(args)?,
        },
        other => {
            return Err(Error::config(
                "command line",
                format!("unknown ppr method {other:?} (expected push, exact or mc)"),
            ))
        }
    };

    warn_no_effect(
        args,
        &["tolerance", "workers", "staleness"],
        "it configures the engine, and ppr is served serially or from the walk index",
    );

    // Without an index, PPR runs serially on the raw graph and never touches a
    // partitioned layout, so a one-shot CLI query skips the session (and its O(|E|)
    // partitioning) entirely. With `--walk-index-*` options a session is built so the
    // query is served by stitching precomputed segments — except for the exact method,
    // which always bypasses the index and must not pay for building one.
    let index =
        walk_index_config(args)?.filter(|_| !matches!(method, PprMethod::PowerIteration { .. }));

    let loaded = load_graph(args)?;
    let graph = &loaded.graph;
    // `--source` names a vertex the way the graph's origin does: by the file's own id
    // when there is a file.
    let source = match args.get("graph") {
        Some(path) => {
            let v = loaded.labels.iter().position(|&label| label == source);
            v.ok_or_else(|| Error::query(format!("no vertex with id {source} in {path}")))? as u64
        }
        None => source,
    };
    // Range-check on the raw u64 before narrowing: `--source` values past u32::MAX
    // must not silently wrap onto a valid vertex id.
    if source >= graph.num_vertices() as u64 {
        return Err(Error::query(format!(
            "--source {source} is out of range for a graph with {} vertices",
            graph.num_vertices()
        )));
    }

    let response = if index.is_some() {
        let mut session = session_over(args, graph, index)?;
        let response = session.query(&Query::Ppr {
            source: source as VertexId,
            k,
            teleport_probability: TELEPORT,
            method,
        })?;
        eprintln!("{}", session.stats());
        write_trace(args, session.tracer())?;
        response
    } else {
        // The sessionless path has no library instrumentation to piggyback on, so the
        // CLI wraps the whole serve in one span of its own; the tracer stays disabled
        // (and the span free) unless --trace asked for it.
        let tracer =
            Tracer::new(trace_request(args)?.map_or_else(TraceConfig::disabled, |r| r.config));
        let sink = tracer.sink();
        let mut span = sink.span(span_meta!("serve_ppr"), SpanKey::new(0, 0, 0, LANE_CLI));
        let response =
            frogwild::session::serve_ppr(graph, source as VertexId, k, TELEPORT, method)?;
        span.counter("pushes", response.cost.push_ops);
        span.counter("walk_hops", response.cost.walk_hops);
        drop(span);
        drop(sink);
        write_trace(args, &tracer)?;
        response
    };
    if let ResponseDetail::Ppr {
        iterations,
        residual,
    } = response.detail
    {
        let pushes = response.cost.push_ops;
        eprintln!("ppr: {pushes} pushes, {iterations} power iterations, residual {residual:.3e}");
    }
    if response.cost.index_served {
        eprintln!(
            "walk index served it: {} hops covered via {} cached segments, only {} hops sampled fresh on segment exhaustion",
            response.cost.walk_hops,
            response.cost.index_hits,
            response.cost.index_misses,
        );
    }
    // The library names the source by its dense id; the user named it by the file's.
    let dense = format!("src={source}");
    let named = format!("src={}", loaded.label(source as VertexId));
    println!("# {}", response.algorithm.replacen(&dense, &named, 1));
    print_verbose_cost(args, &response);
    print_ranking(&response, &loaded, "ppr");
    Ok(())
}

/// Generates a deterministic mixed TopK/PPR stream of `--queries` queries ranking `k`
/// each, shaped to exercise both the engine path and (with `--walk-index`) the index path.
fn serve_stream(args: &Args, graph: &DiGraph, k: usize) -> Result<Vec<Query>> {
    let count: usize = args.get_parsed("queries", 100usize, "an integer")?;
    if count == 0 {
        return Err(Error::config(
            "command line",
            "--queries must be at least 1",
        ));
    }
    let topk_config = FrogWildConfig {
        num_walkers: args.get_parsed("walkers", 20_000u64, "an integer")?,
        iterations: args.get_parsed("iterations", 3usize, "an integer")?,
        sync_probability: args.get_parsed("ps", 0.7f64, "a probability in (0, 1]")?,
        ..FrogWildConfig::default()
    };
    topk_config.validate()?;
    let vertices = graph.num_vertices() as u64;
    // 1-in-4 global top-k, the rest PPR from a rotating source — roughly the mix a
    // front-end sees (a few dashboards, many per-user queries). The per-query seeds
    // placed here are irrelevant: the serving front-end re-roots them by sequence id.
    Ok((0..count)
        .map(|i| {
            if i % 4 == 0 {
                Query::TopK {
                    k,
                    config: topk_config,
                }
            } else {
                Query::Ppr {
                    source: ((i as u64 * 31) % vertices) as VertexId,
                    k,
                    teleport_probability: TELEPORT,
                    method: PprMethod::MonteCarlo {
                        walkers: 2_000,
                        max_steps: 32,
                        seed: 0,
                    },
                }
            }
        })
        .collect())
}

fn cmd_serve(args: &Args) -> Result<()> {
    let serve_config = serve_config_from(args)?;
    let k = ranked_count(args, 20)?;
    let index = walk_index_config(args)?;
    let graph = load_graph(args)?.graph;
    let queries = serve_stream(args, &graph, k)?;
    let mut session = session_over(args, &graph, index)?;
    let mut handle = session.serve_with(serve_config)?;
    let report = if args.has_flag("serial") {
        handle.serve_serial(&queries)
    } else {
        handle.serve(&queries)
    };
    eprintln!("{report}");

    println!("quantity,value");
    println!("queries,{}", queries.len());
    println!("workers,{}", report.workers.len());
    println!("served,{}", report.served);
    println!("rejected,{}", report.rejected);
    println!("failed,{}", report.failed);
    println!("wall_seconds,{:.6}", report.wall_seconds);
    println!("query_seconds,{:.6}", report.query_seconds);
    println!("qps,{:.2}", report.qps());
    for kind in frogwild::serve::QUERY_KINDS {
        let h = report.latency.histogram(kind);
        if h.count() == 0 {
            continue;
        }
        let label = kind.label();
        println!("{label}_served,{}", h.count());
        println!("{label}_mean_ms,{:.3}", h.mean_seconds() * 1e3);
        println!("{label}_p50_ms,{:.3}", h.p50() * 1e3);
        println!("{label}_p95_ms,{:.3}", h.p95() * 1e3);
        println!("{label}_p99_ms,{:.3}", h.p99() * 1e3);
    }
    // Queue wait (submission → start of execution) separated from the service time
    // above: together they account for each served query's end-to-end latency.
    for kind in frogwild::serve::QUERY_KINDS {
        let h = report.queue_wait.histogram(kind);
        if h.count() == 0 {
            continue;
        }
        let label = kind.label();
        println!("{label}_queue_wait_mean_ms,{:.3}", h.mean_seconds() * 1e3);
        println!("{label}_queue_wait_p50_ms,{:.3}", h.p50() * 1e3);
        println!("{label}_queue_wait_p95_ms,{:.3}", h.p95() * 1e3);
        println!("{label}_queue_wait_p99_ms,{:.3}", h.p99() * 1e3);
    }
    println!("worker,served,failed,batches,busy_seconds,queue_wait_seconds");
    for w in &report.workers {
        println!(
            "{},{},{},{},{:.6},{:.6}",
            w.worker, w.served, w.failed, w.batches, w.busy_seconds, w.queue_wait_seconds
        );
    }
    if let Some(response) = report.responses().next() {
        print_verbose_cost(args, response);
    }
    eprintln!("{}", session.stats());
    write_trace(args, session.tracer())
}

fn cmd_index(args: &Args) -> Result<()> {
    let config = walk_index_values(args)?;
    let graph = load_graph(args)?.graph;
    // A session over the walk index is the build — each machine's segment generation
    // lands in the trace as a `walk_segments` span — and, below, the probes.
    let mut builder = Session::builder(&graph)
        .machines(args.get_parsed("machines", 16, "an integer")?)
        .seed(config.seed)
        .walk_index(config);
    if let Some(request) = trace_request(args)? {
        builder = builder.tracing(request.config);
    }
    let mut session = builder.build()?;
    println!("quantity,value");
    println!("vertices,{}", graph.num_vertices());
    if let Some(report) = session.walk_index_report() {
        println!("requested_segments,{}", report.requested_segments);
        println!("effective_segments,{}", report.effective_segments);
        println!("segment_length,{}", report.segment_length);
        println!("machines,{}", report.machines);
        println!("arena_bytes,{}", report.arena_bytes);
        println!("total_hops,{}", report.total_hops);
        println!("truncated_segments,{}", report.truncated_segments);
        println!("build_seconds,{:.6}", report.build_seconds);
    }

    let probes: usize = args.get_parsed("probe", 0usize, "an integer")?;
    if probes > 0 {
        let mut rng = SmallRng::seed_from_u64(config.seed ^ 0x1DE7_0B5E);
        for _ in 0..probes {
            session.query(&Query::Ppr {
                source: rng.gen_range(0..graph.num_vertices()) as VertexId,
                k: 20,
                teleport_probability: TELEPORT,
                method: PprMethod::ForwardPush {
                    epsilon: config.frontier_epsilon,
                },
            })?;
        }
        let stats = session.stats();
        println!("probe_queries,{probes}");
        println!("probe_seconds,{:.6}", stats.total_wall_seconds);
        println!("probe_segment_hits,{}", stats.totals.index_hits);
        println!("probe_segment_misses,{}", stats.totals.index_misses);
        println!("probe_hit_rate,{:.4}", stats.index_hit_rate());
        println!(
            "amortized_build_seconds,{:.6}",
            stats.amortized_index_build_seconds()
        );
    }
    write_trace(args, session.tracer())
}

fn cmd_plan(args: &Args) -> Result<()> {
    use frogwild::confidence::plan_walkers;
    use frogwild::theory::{recommended_iterations, recommended_walkers};

    let k: usize = args.get_parsed("k", 100, "an integer")?;
    let vertices = vertex_count(args)?;
    let mass: f64 = args.get_parsed("mass", 0.1, "a probability")?;
    let loss: f64 = args.get_parsed("loss", 0.02, "a positive number")?;
    let delta: f64 = args.get_parsed("delta", 0.1, "a probability")?;
    if k == 0 {
        return Err(Error::config("command line", "--k must be positive"));
    }
    let mass_ok = mass > 0.0 && mass <= 1.0;
    let delta_ok = delta > 0.0 && delta < 1.0;
    let loss_ok = loss.is_finite() && loss > 0.0;
    if !mass_ok || !delta_ok || !loss_ok {
        return Err(Error::config(
            "command line",
            "--mass and --delta must be in (0, 1), --loss finite and positive",
        ));
    }

    // A count no u64 holds (a squared mass or loss that underflows) is `unreachable`.
    let count = |walkers: Option<u64>| walkers.map_or("unreachable".into(), |w| w.to_string());
    let plan = plan_walkers(k, vertices, mass, loss, delta);
    println!("# walker-budget plan for top-{k} on {vertices} vertices");
    println!("quantity,value");
    println!(
        "walkers_theorem1_sampling_term,{}",
        count(plan.walkers_for_mass)
    );
    println!(
        "walkers_per_vertex_frequency_term,{}",
        count(plan.walkers_for_frequency)
    );
    println!("walkers_recommended,{}", count(plan.recommended));
    println!(
        "walkers_remark6_scaling,{}",
        count(recommended_walkers(k, mass))
    );
    println!(
        "iterations_remark6_scaling,{}",
        recommended_iterations(TELEPORT, mass)
    );
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<()> {
    let graph = load_graph(args)?.graph;
    let out = degree_summary(&graph, Direction::Out);
    let inn = degree_summary(&graph, Direction::In);
    println!("vertices,{}", graph.num_vertices());
    println!("edges,{}", graph.num_edges());
    println!("dangling_vertices,{}", graph.dangling_vertices().len());
    println!("out_degree_min,{}", out.min);
    println!("out_degree_mean,{:.3}", out.mean);
    println!("out_degree_max,{}", out.max);
    println!("in_degree_min,{}", inn.min);
    println!("in_degree_mean,{:.3}", inn.mean);
    println!("in_degree_max,{}", inn.max);
    match in_degree_tail_exponent(&graph, 0.05) {
        Some(theta) => println!("in_degree_tail_exponent,{theta:.3}"),
        None => println!("in_degree_tail_exponent,n/a"),
    }
    println!("memory_bytes,{}", graph.memory_bytes());
    Ok(())
}

fn cmd_generate(args: &Args) -> Result<()> {
    let out = args.require("out")?.to_string();
    let graph = load_graph(args)?.graph;
    write_edge_list_file(&graph, &out)
        .map_err(|e| Error::graph(format!("could not write {out}: {e}")))?;
    eprintln!("wrote {out}");
    Ok(())
}
