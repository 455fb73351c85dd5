//! `frogwild` — command-line front end for the FrogWild reproduction.
//!
//! The engine-backed subcommands (`topk`, `pagerank`, `autotune`) build a [`Session`] —
//! the graph is partitioned across the simulated cluster exactly once — and serve their
//! queries through the typed `Query` → `Response` surface; `ppr` is serial and is
//! served directly from the raw graph (no partitioning) unless the `--walk-index-*`
//! options ask for an index-serving session. `index` builds a walk index standalone
//! and reports its economics. Errors are `frogwild::Error` values printed to stderr;
//! nothing panics on a bad configuration, and a mistyped option is an error (`unknown
//! option --walker`), never a default silently used in its place.
//!
//! ```text
//! USAGE:
//!     frogwild <COMMAND> [OPTIONS]
//!
//! COMMANDS:
//!     topk       estimate the top-k PageRank vertices of a graph with FrogWild
//!     autotune   self-tuning top-k: pilot run → walker plan → full run
//!     pagerank   run the GraphLab-style PageRank baseline on the simulated cluster
//!     ppr        personalized PageRank from a source vertex (push / exact / mc)
//!     serve      run a mixed query stream through the concurrent serving front-end
//!     index      build a walk index and report its economics (optionally probe it)
//!     plan       walker-budget planning for a target top-k accuracy
//!     stats      print basic structural statistics of an edge-list graph
//!     generate   write a synthetic Twitter-/LiveJournal-shaped graph as an edge list
//!
//! COMMON OPTIONS (session setup):
//!     --graph <path>        SNAP-style edge list (whitespace separated, # comments);
//!                           vertex ids printed and accepted are the file's own
//!     --synthetic <kind>    use a generated graph instead: twitter | livejournal
//!     --vertices <n>        size of the synthetic graph             [default: 100000]
//!     --machines <n>        simulated cluster size                  [default: 16]
//!     --partitioner <p>     random|grid|oblivious|hdrf|hybrid       [default: oblivious]
//!     --seed <n>            random seed                             [default: 42]
//!     --verbose             print the per-query cost audit (QueryCost) to stderr
//!
//! EXECUTION OPTIONS (engine-served queries: topk, pagerank, autotune, serve):
//!     --workers <n>         size of the engine pool `topk --parallel` turns on
//!                           (0 = auto)                                   [default: 0]
//!     --staleness <s>       bounded-staleness window, in supersteps      [default: 0]
//!
//!   `--workers` sizes the engine's batch pool *inside* one query (results are
//!   bit-identical for every setting), but the pool exists only where `--parallel`
//!   turns it on, and only `topk` has `--parallel`: `pagerank`, `autotune` and
//!   `serve`'s engine queries run on the calling thread whatever `--workers` says, and
//!   say so. (Folding `--parallel` into `--workers` is the cure; it waits for a
//!   `[benchmark]` PR, because the benchmark names the flag it would remove.)
//!   `--serve-workers` (below) is a different pool: the serving front-end's, across
//!   concurrent queries. `--staleness 0` is the synchronous barriered executor; `s > 0`
//!   lets each machine run up to `s` supersteps ahead of its peers' messages under a
//!   deterministic delivery schedule — results stay reproducible for a fixed `s` but
//!   differ from the synchronous ones. Serial and index-served paths (`ppr`,
//!   `--walk-index` topk) ignore both engine options and say so.
//!
//! SERVING OPTIONS (serve subcommand; also honoured by topk --repeat sessions):
//!     --serve-workers <n>   worker threads in the serving pool (0 = auto) [default: 0]
//!     --queue-depth <n>     bounded submission queue capacity, in batches [default: 64]
//!     --serve-batch <n>     queries per submitted batch                   [default: 4]
//!     --admission <p>       block | reject | timeout                      [default: block]
//!     --admission-timeout-ms <n>  wait bound for --admission timeout      [default: 100]
//!     --queries <n>         queries in the generated mixed stream (serve) [default: 100]
//!     --serial              serve on the calling thread (reference path)
//!
//! TRACING OPTIONS (topk, pagerank, autotune, ppr, serve, index):
//!     --trace <path>        export the run's structured trace to <path>
//!     --trace-format <f>    chrome | csv                             [default: chrome]
//!     --trace-logical       logical clock: byte-stable traces, diffable across runs
//!                           (ordinal timestamps instead of wall-clock durations)
//!
//!   Tracing observes, never steers: responses are bit-identical with tracing on or
//!   off. The chrome format loads in `chrome://tracing` / `ui.perfetto.dev` and is
//!   validated before the file is written; either format also prints the
//!   phase-breakdown summary (`TraceReport`) to stderr.
//!
//! WALK-INDEX OPTIONS (enable with --walk-index on topk/ppr; implicit for index):
//!     --walk-index                     precompute a walk index at session build
//!     --walk-index-segments <n>       segments per vertex (R)        [default: 16]
//!     --walk-index-length <n>         hops per segment (L)           [default: 8]
//!     --walk-index-epsilon <e>        serve-time push frontier       [default: 1e-4]
//!     --walk-index-walks <n>          stitched walks per unit residual [default: 3000]
//!     --walk-index-budget-mb <n>      arena memory budget in MiB     [default: unbounded]
//!
//! TOPK OPTIONS:
//!     --k <n>              how many vertices to report              [default: 100]
//!     --walkers <n>        number of random walkers                 [default: 800000]
//!     --iterations <n>     engine supersteps                        [default: 4]
//!     --ps <p>             mirror synchronization probability       [default: 0.7]
//!     --repeat <n>         serve the query n times on one session   [default: 1]
//!     --parallel           serve engine work batches from a worker pool
//!                          (sized by --workers, see EXECUTION OPTIONS)
//!     --tolerance <t>      delta gate: a vertex whose live-walker count after apply
//!                          is <= t skips scatter and leaves the frontier [default: 0]
//!
//! PAGERANK OPTIONS:
//!     --iterations <n>     number of iterations                     [default: 2]
//!     --exact              run to convergence instead
//!     --tolerance <t>      delta gate: a vertex whose rank changed by <= t skips
//!                          scatter (overrides the preset's tolerance)
//!
//! PPR OPTIONS:
//!     --source <v>         source vertex id (required; the file's id under --graph)
//!     --method <m>         push | exact | mc                        [default: push]
//!     --epsilon <e>        forward-push threshold                   [default: 1e-7]
//!     --walkers <n>        mc walk count                            [default: 100000]
//!     --max-steps <n>      mc walk-length truncation                [default: 64]
//!     --k <n>              how many vertices to report              [default: 20]
//!
//! INDEX OPTIONS (plus the walk-index options above):
//!     --probe <n>          serve n random PPR queries from the index [default: 0]
//!
//! PLAN OPTIONS:
//!     --k <n>              target top-k size                        [default: 100]
//!     --vertices <n>       graph size the query will run on         [default: 100000]
//!     --mass <m>           expected true top-k mass                 [default: 0.1]
//!     --loss <e>           tolerated captured-mass loss             [default: 0.02]
//!     --delta <d>          tolerated failure probability            [default: 0.1]
//!
//! GENERATE OPTIONS:
//!     --kind <k>           twitter | livejournal                    [default: twitter]
//!     --out <path>         output edge-list path (required)
//! ```

mod args;

use args::Args;
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
        print_usage();
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
        other => Err(Error::query(format!("unknown command {other:?}"))),
    }
}

fn print_usage() {
    println!(
        "frogwild — fast top-k PageRank approximation (FrogWild, VLDB 2015 reproduction)\n\n\
         usage: frogwild <topk|autotune|pagerank|ppr|serve|index|plan|stats|generate> [options]\n\
         \n\
         Ranking commands build one Session (the graph is partitioned once) and serve\n\
         typed queries against it; repeated queries amortize the partitioning cost.\n\
         With --walk-index the session also precomputes per-vertex walk segments and\n\
         serves topk/ppr by stitching them instead of fresh Monte-Carlo walks.\n\
         \n\
         session:  --graph <edge list> | --synthetic twitter|livejournal [--vertices N]\n\
         \u{20}          --machines N --partitioner random|grid|oblivious|hdrf|hybrid --seed N\n\
         \u{20}          [--walk-index] [--walk-index-segments R] [--walk-index-length L]\n\
         \u{20}          [--walk-index-epsilon E] [--walk-index-walks N] [--walk-index-budget-mb M]\n\
         \u{20}          [--staleness S] [--workers N]  (N sizes the pool topk --parallel turns\n\
         \u{20}          on; pagerank, autotune and serve run engine queries on one thread)\n\
         \u{20}          [--trace <path>] [--trace-format chrome|csv] [--trace-logical]\n\
         topk:     --k N --walkers N --iterations N --ps P [--repeat N] [--parallel]\n\
         \u{20}          [--tolerance T]\n\
         autotune: --k N --loss E --delta D --ps P [--pilot-walkers N]\n\
         pagerank: --iterations N | --exact [--tolerance T]\n\
         ppr:      --source V [--method push|exact|mc] [--epsilon E] [--k N]\n\
         serve:    --queries N --serve-workers N --queue-depth N --serve-batch N\n\
         \u{20}          [--admission block|reject|timeout] [--admission-timeout-ms N] [--serial]\n\
         index:    [--probe N] (walk-index options above; builds and reports the index)\n\
         plan:     --k N --vertices N --mass M --loss E --delta D\n\
         generate: --kind twitter|livejournal --vertices N --out <path>\n\
         \n\
         run `cargo doc --open -p frogwild` for the library documentation."
    );
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

/// Loads the graph named by `--graph`, or generates one per `--synthetic`.
fn load_graph(args: &Args) -> Result<Loaded> {
    let seed: u64 = args.get_parsed("seed", 42, "an integer")?;
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
    let vertices: usize = args.get_parsed("vertices", 100_000, "an integer")?;
    if vertices == 0 {
        return Err(Error::config(
            "command line",
            "--vertices must be at least 1",
        ));
    }
    // `generate` calls the shape `--kind`.
    let kind = (args.get("synthetic").or(args.get("kind"))).unwrap_or("twitter");
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

/// The `--walk-index-*` options parsed into a config (defaults where absent).
fn walk_index_values(args: &Args) -> Result<WalkIndexConfig> {
    let base = WalkIndexConfig::default();
    // An explicit `--walk-index-budget-mb 0` must reach the library validator (which
    // rejects a zero budget) instead of silently meaning "unbounded"; only an absent
    // option keeps the default.
    let memory_budget_bytes = match args.get("walk-index-budget-mb") {
        None => base.memory_budget_bytes,
        Some(_) => args.get_parsed::<usize>("walk-index-budget-mb", 0, "an integer")? * 1024 * 1024,
    };
    Ok(WalkIndexConfig {
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
        seed: args.get_parsed("seed", 42, "an integer")?,
        parallel: args.has_flag("parallel"),
    })
}

/// `Some(config)` when the command line opts into a walk index — via the bare
/// `--walk-index` switch or any `--walk-index-*` value.
fn walk_index_config(args: &Args) -> Result<Option<WalkIndexConfig>> {
    let wants = args.has_flag("walk-index")
        || [
            "walk-index-segments",
            "walk-index-length",
            "walk-index-epsilon",
            "walk-index-walks",
            "walk-index-budget-mb",
        ]
        .iter()
        .any(|name| args.get(name).is_some());
    if !wants {
        return Ok(None);
    }
    walk_index_values(args).map(Some)
}

/// The `--serve-*` / `--admission*` options parsed into a [`ServeConfig`].
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
    Ok(ServeConfig {
        workers: args.get_parsed("serve-workers", base.workers, "an integer")?,
        queue_depth: args.get_parsed("queue-depth", base.queue_depth, "an integer")?,
        batch: args.get_parsed("serve-batch", base.batch, "an integer")?,
        admission,
    })
}

/// [`SpanKey::lane`] of CLI-level spans (the sessionless `ppr` command span and the
/// `index` command's probe spans). Engine spans use lanes 0–6 and the serving stack
/// lanes 8–10, so CLI spans never share a `(key)` with a library sink.
const LANE_CLI: u16 = 11;

/// How a `--trace` export is serialized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TraceFormat {
    /// Chrome trace-event JSON — loads in `chrome://tracing` / `ui.perfetto.dev`.
    Chrome,
    /// Flat CSV, one row per timeline record.
    Csv,
}

/// What `--trace <path>` asked for: where to write, in which format, on which clock.
struct TraceRequest {
    path: String,
    format: TraceFormat,
    config: TraceConfig,
}

/// The `--trace` / `--trace-format` / `--trace-logical` options, `Some` only when a
/// trace was actually requested. Pure (no side effects), so both the session builder
/// and the post-command exporter can call it.
fn trace_request(args: &Args) -> Result<Option<TraceRequest>> {
    let Some(path) = args.get("trace") else {
        return Ok(None);
    };
    let format = match args.get("trace-format").unwrap_or("chrome") {
        "chrome" => TraceFormat::Chrome,
        "csv" => TraceFormat::Csv,
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
        format,
        config,
    }))
}

/// Merges `tracer`'s records into the deterministic timeline, writes the requested
/// export, and prints the phase-breakdown summary to stderr. Chrome output is run
/// back through the in-repo validator *before* the file is written, so the
/// `trace: wrote ...` confirmation line guarantees a loadable trace.
fn write_trace(tracer: &Tracer, request: &TraceRequest) -> Result<()> {
    let timeline = tracer.finish();
    let (data, label, records) = match request.format {
        TraceFormat::Chrome => {
            let json = timeline.to_chrome_json();
            let events = frogwild::obs::validate_chrome_json(&json).map_err(|e| {
                Error::query(format!("emitted chrome trace failed validation: {e}"))
            })?;
            (json, "chrome, validated", events)
        }
        TraceFormat::Csv => (timeline.to_csv(), "csv", timeline.entries().len()),
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

/// Builds the session shared by all ranking subcommands. `allow_index` is set by the
/// subcommands whose queries can actually be served from a walk index (topk, ppr);
/// the engine-only subcommands skip the build and say so, instead of silently paying
/// for an index their queries always bypass.
fn session_over<'g>(args: &Args, graph: &'g DiGraph, allow_index: bool) -> Result<Session<'g>> {
    let machines: usize = args.get_parsed("machines", 16, "an integer")?;
    let seed: u64 = args.get_parsed("seed", 42, "an integer")?;
    let partitioner: PartitionerKind = args.get_parsed(
        "partitioner",
        PartitionerKind::default(),
        "a partitioner name",
    )?;
    let workers: usize = args.get_parsed("workers", 0usize, "an integer")?;
    let staleness: usize = args.get_parsed("staleness", 0usize, "an integer")?;
    let mut builder = Session::builder(graph)
        .machines(machines)
        .partitioner(partitioner)
        .seed(seed)
        .execution(ExecutionConfig::new().workers(workers).staleness(staleness))
        .serve_config(serve_config_from(args)?);
    if let Some(request) = trace_request(args)? {
        builder = builder.tracing(request.config);
    }
    let index = walk_index_config(args)?;
    if let Some(config) = index.filter(|_| allow_index) {
        builder = builder.walk_index(config);
    } else if index.is_some() {
        eprintln!("note: --walk-index is ignored here (this query always runs on the engine)");
    }
    // Index-serving commands say on their own that no engine option reaches them.
    let pooled = args.command == "topk" && args.has_flag("parallel");
    if args.get("workers").is_some() && !pooled && !(allow_index && index.is_some()) {
        eprintln!(
            "warning: --workers sizes the engine pool that --parallel turns on, and only topk \
             has --parallel; {}'s engine queries run on the calling thread",
            args.command
        );
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

fn print_response_header(session: &Session<'_>, response: &Response) {
    println!("# algorithm: {}", response.algorithm);
    println!(
        "# machines: {}, supersteps: {}, network bytes: {}, simulated time: {:.4}s",
        session.num_machines(),
        response.cost.supersteps,
        response.cost.network_bytes,
        response.cost.simulated_seconds,
    );
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

fn print_session_stats(session: &Session<'_>) {
    // SessionStats implements Display with the full amortized-economics audit,
    // including the executor's frontier counters.
    eprintln!("{}", session.stats());
}

fn cmd_topk(args: &Args) -> Result<()> {
    let config = FrogWildConfig {
        num_walkers: args.get_parsed("walkers", 800_000u64, "an integer")?,
        iterations: args.get_parsed("iterations", 4usize, "an integer")?,
        sync_probability: args.get_parsed("ps", 0.7f64, "a probability in (0, 1]")?,
        seed: args.get_parsed("seed", 42, "an integer")?,
        parallel: args.has_flag("parallel"),
        tolerance: args.get_parsed("tolerance", 0.0f64, "a non-negative number")?,
        ..FrogWildConfig::default()
    };
    // Fail fast on a bad configuration before the (expensive) graph load + partition.
    config.validate()?;
    if config.tolerance > 0.0 && walk_index_config(args)?.is_some() {
        eprintln!(
            "warning: --tolerance gates the engine's scatter phase, but --walk-index serves \
             topk from precomputed segments; the tolerance has no effect on index-served queries"
        );
    }
    if walk_index_config(args)?.is_some() {
        for flag in ["workers", "staleness"] {
            if args.get(flag).is_some() {
                eprintln!(
                    "warning: --{flag} configures the engine executor, but --walk-index serves \
                     topk from precomputed segments; it has no effect on index-served queries"
                );
            }
        }
    }
    let k: usize = args.get_parsed("k", 100, "an integer")?;
    let repeat: usize = args.get_parsed("repeat", 1usize, "an integer")?;
    if repeat == 0 {
        return Err(Error::config("command line", "--repeat must be at least 1"));
    }

    let loaded = load_graph(args)?;
    let mut session = session_over(args, &loaded.graph, true)?;
    let mut last = None;
    for _ in 0..repeat {
        last = Some(session.query(&Query::TopK { k, config })?);
    }
    let response = last.expect("repeat >= 1");
    print_response_header(&session, &response);
    print_verbose_cost(args, &response);
    print_ranking(&response, &loaded, "estimated_mass");
    print_session_stats(&session);
    if let Some(request) = trace_request(args)? {
        write_trace(session.tracer(), &request)?;
    }
    Ok(())
}

fn cmd_pagerank(args: &Args) -> Result<()> {
    let loaded = load_graph(args)?;
    let mut session = session_over(args, &loaded.graph, false)?;
    let mut config = if args.has_flag("exact") {
        PageRankConfig::exact()
    } else {
        PageRankConfig::truncated(args.get_parsed("iterations", 2usize, "an integer")?)
    };
    if args.get("tolerance").is_some() {
        config.tolerance =
            args.get_parsed("tolerance", config.tolerance, "a non-negative number")?;
        config.validate()?;
    }
    let k: usize = args.get_parsed("k", 100, "an integer")?;

    let response = session.query(&Query::Pagerank { k, config })?;
    print_response_header(&session, &response);
    print_verbose_cost(args, &response);
    print_ranking(&response, &loaded, "score");
    print_session_stats(&session);
    if let Some(request) = trace_request(args)? {
        write_trace(session.tracer(), &request)?;
    }
    Ok(())
}

fn cmd_autotune(args: &Args) -> Result<()> {
    let k: usize = args.get_parsed("k", 100, "an integer")?;
    let config = AutoTuneConfig {
        k,
        mass_loss_target: args.get_parsed("loss", 0.05, "a positive number")?,
        failure_probability: args.get_parsed("delta", 0.1, "a probability")?,
        sync_probability: args.get_parsed("ps", 0.7, "a probability in (0, 1]")?,
        pilot_walkers: args.get_parsed("pilot-walkers", 10_000u64, "an integer")?,
        seed: args.get_parsed("seed", 42, "an integer")?,
        ..AutoTuneConfig::default()
    };
    // Fail fast on a bad configuration before the (expensive) graph load + partition.
    config.validate()?;

    let loaded = load_graph(args)?;
    let mut session = session_over(args, &loaded.graph, false)?;
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
    print_response_header(&session, &response);
    print_verbose_cost(args, &response);
    print_ranking(&response, &loaded, "estimated_mass");
    print_session_stats(&session);
    if let Some(request) = trace_request(args)? {
        write_trace(session.tracer(), &request)?;
    }
    Ok(())
}

fn cmd_ppr(args: &Args) -> Result<()> {
    let source: u64 = args.get_parsed("source", u64::MAX, "a vertex id")?;
    if source == u64::MAX {
        return Err(Error::config(
            "command line",
            "--source is required for the ppr command",
        ));
    }
    let k: usize = args.get_parsed("k", 20, "an integer")?;
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
            seed: args.get_parsed("seed", 42, "an integer")?,
        },
        other => {
            return Err(Error::config(
                "command line",
                format!("unknown ppr method {other:?} (expected push, exact or mc)"),
            ))
        }
    };

    if args.get("tolerance").is_some() {
        eprintln!(
            "warning: --tolerance gates the engine's scatter phase; ppr is served serially \
             or from the walk index and ignores it"
        );
    }
    for flag in ["workers", "staleness"] {
        if args.get(flag).is_some() {
            eprintln!(
                "warning: --{flag} configures the engine executor; ppr is served serially \
                 or from the walk index and ignores it"
            );
        }
    }

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

    // Without an index, PPR runs serially on the raw graph and never touches a
    // partitioned layout, so a one-shot CLI query skips the session (and its O(|E|)
    // partitioning) entirely. With `--walk-index-*` options a session is built so the
    // query is served by stitching precomputed segments — except for the exact method,
    // which always bypasses the index and must not pay for building one.
    let wants_index =
        walk_index_config(args)?.is_some() && !matches!(method, PprMethod::PowerIteration { .. });
    let trace = trace_request(args)?;
    let response = if wants_index {
        let mut session = session_over(args, graph, true)?;
        let response = session.query(&Query::Ppr {
            source: source as VertexId,
            k,
            teleport_probability: 0.15,
            method,
        })?;
        print_session_stats(&session);
        if let Some(request) = &trace {
            write_trace(session.tracer(), request)?;
        }
        response
    } else {
        // The sessionless path has no library instrumentation to piggyback on, so the
        // CLI wraps the whole serve in one span of its own; the tracer stays disabled
        // (and the span free) unless --trace asked for it.
        let tracer = Tracer::new(
            trace
                .as_ref()
                .map_or_else(TraceConfig::disabled, |r| r.config),
        );
        let sink = tracer.sink();
        let mut span = sink.span(span_meta!("serve_ppr"), SpanKey::new(0, 0, 0, LANE_CLI));
        let response = frogwild::session::serve_ppr(graph, source as VertexId, k, 0.15, method)?;
        if let ResponseDetail::Ppr { pushes, .. } = &response.detail {
            span.counter("pushes", *pushes as u64);
        }
        span.counter("walk_hops", response.cost.walk_hops);
        drop(span);
        drop(sink);
        if let Some(request) = &trace {
            write_trace(&tracer, request)?;
        }
        response
    };
    if let ResponseDetail::Ppr {
        pushes,
        iterations,
        residual,
    } = response.detail
    {
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

/// Generates a deterministic mixed TopK/PPR stream sized by `--queries`, shaped to
/// exercise both the engine path and (when `--walk-index` is set) the index path.
fn serve_stream(args: &Args, graph: &DiGraph) -> Result<Vec<Query>> {
    let count: usize = args.get_parsed("queries", 100usize, "an integer")?;
    if count == 0 {
        return Err(Error::config(
            "command line",
            "--queries must be at least 1",
        ));
    }
    let k: usize = args.get_parsed("k", 20, "an integer")?;
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
                    teleport_probability: 0.15,
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
    let graph = load_graph(args)?.graph;
    let queries = serve_stream(args, &graph)?;
    let mut session = session_over(args, &graph, true)?;
    let mut handle = session.serve();
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
    if args.has_flag("verbose") {
        if let Some(response) = report.responses().next() {
            eprintln!("{}", response.cost);
        }
    }
    print_session_stats(&session);
    if let Some(request) = trace_request(args)? {
        write_trace(session.tracer(), &request)?;
    }
    Ok(())
}

fn cmd_index(args: &Args) -> Result<()> {
    let graph = load_graph(args)?.graph;
    let machines: usize = args.get_parsed("machines", 16, "an integer")?;
    if machines == 0 {
        return Err(Error::config(
            "command line",
            "--machines must be at least 1",
        ));
    }
    let config = walk_index_values(args)?;
    let trace = trace_request(args)?;
    // Build over an explicit layout, under the CLI's tracer: each machine's segment
    // generation then lands in the trace as a `walk_segments` span.
    let tracer = Tracer::new(
        trace
            .as_ref()
            .map_or_else(TraceConfig::disabled, |r| r.config),
    );
    let pg = frogwild_engine::PartitionedGraph::build(
        &graph,
        machines,
        PartitionerKind::Oblivious,
        config.seed,
    );
    let (index, report) =
        frogwild::walkindex::build_walk_index_traced(&graph, &pg, &config, &tracer)?;
    println!("quantity,value");
    println!("vertices,{}", index.num_vertices());
    println!("requested_segments,{}", report.requested_segments);
    println!("effective_segments,{}", report.effective_segments);
    println!("segment_length,{}", report.segment_length);
    println!("machines,{}", report.machines);
    println!("arena_bytes,{}", report.arena_bytes);
    println!("total_hops,{}", report.total_hops);
    println!("truncated_segments,{}", report.truncated_segments);
    println!("build_seconds,{:.6}", report.build_seconds);

    let probes: usize = args.get_parsed("probe", 0usize, "an integer")?;
    if probes > 0 {
        let seed: u64 = args.get_parsed("seed", 42, "an integer")?;
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x1DE7_0B5E);
        let started = std::time::Instant::now();
        let mut totals = frogwild::walkindex::IndexServeStats::default();
        let sink = tracer.sink();
        for probe in 0..probes {
            let source = rng.gen_range(0..graph.num_vertices()) as VertexId;
            let mut span = sink.span(
                span_meta!("probe_ppr"),
                SpanKey::new(probe as u64, 0, 0, LANE_CLI),
            );
            let served = frogwild::walkindex::indexed_ppr(&graph, &index, &config, source, 0.15)?;
            span.counter("pushes", served.stats.pushes as u64);
            span.counter("frontier", served.stats.frontier_vertices);
            span.counter("segment_hits", served.stats.segment_hits);
            span.counter("segment_misses", served.stats.segment_misses);
            // Every miss resamples exactly one fresh hop.
            span.counter("resamples", served.stats.segment_misses);
            drop(span);
            totals.segment_hits += served.stats.segment_hits;
            totals.segment_misses += served.stats.segment_misses;
        }
        drop(sink);
        let serve_seconds = started.elapsed().as_secs_f64();
        println!("probe_queries,{probes}");
        println!("probe_seconds,{serve_seconds:.6}");
        println!("probe_segment_hits,{}", totals.segment_hits);
        println!("probe_segment_misses,{}", totals.segment_misses);
        println!("probe_hit_rate,{:.4}", totals.hit_rate());
        println!(
            "amortized_build_seconds,{:.6}",
            report.build_seconds / probes as f64
        );
    }
    if let Some(request) = &trace {
        write_trace(&tracer, request)?;
    }
    Ok(())
}

fn cmd_plan(args: &Args) -> Result<()> {
    use frogwild::confidence::plan_walkers;
    use frogwild::theory::{recommended_iterations, recommended_walkers};

    let k: usize = args.get_parsed("k", 100, "an integer")?;
    let vertices: usize = args.get_parsed("vertices", 100_000, "an integer")?;
    let mass: f64 = args.get_parsed("mass", 0.1, "a probability")?;
    let loss: f64 = args.get_parsed("loss", 0.02, "a positive number")?;
    let delta: f64 = args.get_parsed("delta", 0.1, "a probability")?;
    if k == 0 {
        return Err(Error::config("command line", "--k must be positive"));
    }
    let mass_ok = mass > 0.0 && mass <= 1.0;
    let delta_ok = delta > 0.0 && delta < 1.0;
    if !mass_ok || !delta_ok || loss <= 0.0 {
        return Err(Error::config(
            "command line",
            "--mass and --delta must be in (0, 1), --loss positive",
        ));
    }

    let plan = plan_walkers(k, vertices, mass, loss, delta);
    println!("# walker-budget plan for top-{k} on {vertices} vertices");
    println!("quantity,value");
    println!("walkers_theorem1_sampling_term,{}", plan.walkers_for_mass);
    println!(
        "walkers_per_vertex_frequency_term,{}",
        plan.walkers_for_frequency
    );
    println!("walkers_recommended,{}", plan.recommended);
    println!("walkers_remark6_scaling,{}", recommended_walkers(k, mass));
    println!(
        "iterations_remark6_scaling,{}",
        recommended_iterations(0.15, mass)
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
