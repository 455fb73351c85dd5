//! Measuring machinery shared by the workloads: a closed loop of ops over a fixed
//! block of inputs, the untraced and the traced pass over it, and the metrics and
//! checks every workload derives from them.

use std::collections::BTreeMap;
use std::time::Instant;

use frogwild::obs::Tracer;
use frogwild::prelude::{Query, QueryCost, Response, Session};

use crate::metrics::{mean, median, peak_rss_mib, Digest, Metrics};
use crate::probes;
use crate::trace::{Layer, OpSpans, Spans};
use crate::workloads::{Ctx, Outcome};

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// What a pass drives: one op per call, on input slot `slot` of the block.
pub trait Target {
    type Output;

    /// Runs one op, with a child span around each call into a layer.
    fn run(&mut self, slot: usize, spans: &OpSpans) -> Result<Self::Output, String>;

    /// The responses in one op's output, reduced to what the checks compare.
    fn exact(output: &Self::Output) -> Vec<Exact>;
}

/// One `Session::query` per op.
pub struct QueryTarget<'s, 'g> {
    pub session: &'s mut Session<'g>,
    pub queries: &'s [Query],
}

impl Target for QueryTarget<'_, '_> {
    type Output = Response;

    fn run(&mut self, slot: usize, spans: &OpSpans) -> Result<Response, String> {
        let _span = spans.layer(Layer::SessionQuery);
        self.session.query(&self.queries[slot]).map_err(err)
    }

    fn exact(response: &Response) -> Vec<Exact> {
        vec![Exact::of(response)]
    }
}

/// What the harness keeps of one response of the exact block: enough to tell
/// whether two runs answered bit for bit alike. `QueryCost`'s equality ignores
/// host seconds, so an `Exact` is a pure function of the seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exact {
    pub digest: u64,
    pub cost: QueryCost,
    pub ranking_len: usize,
    /// Every ranked estimate is finite and non-negative.
    pub scores_valid: bool,
}

impl Exact {
    pub fn of(response: &Response) -> Exact {
        let mut digest = Digest::new();
        for &(v, score) in &response.ranking {
            digest.word(u64::from(v));
            digest.word(score.to_bits());
        }
        for x in &response.estimate {
            digest.word(x.to_bits());
        }
        Exact {
            digest: digest.finish(),
            cost: response.cost,
            ranking_len: response.ranking.len(),
            scores_valid: response
                .ranking
                .iter()
                .all(|&(_, score)| score.is_finite() && score >= 0.0),
        }
    }

    /// Stands in for a query the serve pool did not answer.
    pub fn missing() -> Exact {
        Exact {
            digest: 0,
            cost: QueryCost::default(),
            ranking_len: 0,
            scores_valid: false,
        }
    }
}

/// A closed loop of ops from one client: latencies in op order.
#[derive(Default)]
pub struct Pass {
    pub latencies: Vec<f64>,
    pub seconds: f64,
    pub failed: u64,
}

impl Pass {
    /// Runs ops until at least `min_ops` have run in total and `seconds` have been
    /// measured. Op `i` runs slot `i % block`, so a pass repeats one fixed block of
    /// inputs however long it lasts. `op` is timed under an op span; `post` gets
    /// the op index and the output outside the timed region.
    fn extend<T>(
        &mut self,
        spans: &Spans,
        block: usize,
        min_ops: usize,
        seconds: f64,
        mut op: impl FnMut(usize, &OpSpans) -> Result<T, String>,
        mut post: impl FnMut(usize, T),
    ) {
        while self.latencies.len() < min_ops || self.seconds < seconds {
            let i = self.latencies.len();
            let op_spans = spans.op(i as u64);
            let started = Instant::now();
            let output = {
                let _span = op_spans.layer(Layer::Op);
                op(i % block, &op_spans)
            };
            let elapsed = started.elapsed().as_secs_f64();
            drop(op_spans);
            self.latencies.push(elapsed);
            self.seconds += elapsed;
            match output {
                Ok(output) => post(i, output),
                Err(e) => {
                    if self.failed == 0 {
                        eprintln!("frogbench: op {i} failed: {e}");
                    }
                    self.failed += 1;
                }
            }
        }
    }

    pub fn ops(&self) -> usize {
        self.latencies.len()
    }

    /// Ops per second of measured time; time between ops is the harness's.
    pub fn throughput(&self) -> f64 {
        self.ops() as f64 / self.seconds
    }
}

/// A pass and the responses of its exact block — the first `block_len` ops, the
/// ones every exact metric is taken from.
pub struct Measured {
    pub pass: Pass,
    pub block: Vec<Exact>,
}

/// The untraced pass: the block once, then ops until the pass's seconds are up.
/// `observe` sees every op's index and output, outside the timed region.
pub fn measure<T: Target>(
    ctx: &Ctx<'_>,
    target: &mut T,
    block_len: usize,
    mut observe: impl FnMut(usize, &T::Output),
) -> Measured {
    let mut pass = Pass::default();
    let mut block = Vec::new();
    pass.extend(
        &ctx.off,
        block_len,
        block_len,
        ctx.pass_seconds(),
        |slot, spans| target.run(slot, spans),
        |i, output| {
            if i < block_len {
                block.extend(T::exact(&output));
            }
            observe(i, &output);
        },
    );
    Measured { pass, block }
}

/// What the traced session's own timeline said, folded over the traced pass.
#[derive(Default)]
struct SessionTrace {
    events_exact_block: usize,
    finish_s: f64,
    phase_us: BTreeMap<&'static str, u64>,
    chrome_json: Option<String>,
}

impl SessionTrace {
    fn drain(&mut self, tracer: &Tracer, exact_block: bool, keep_json: bool) {
        let started = Instant::now();
        let timeline = tracer.finish();
        self.finish_s += started.elapsed().as_secs_f64();
        let report = timeline.report(0);
        if exact_block {
            self.events_exact_block = report.events;
            if keep_json {
                self.chrome_json = Some(timeline.to_chrome_json());
            }
        }
        for row in &report.phases {
            *self.phase_us.entry(row.name).or_default() += row.total_us;
        }
    }

    fn phase_s(&self, name: &str) -> f64 {
        self.phase_us.get(name).map_or(0.0, |us| *us as f64 * 1e-6)
    }
}

/// The traced pass and, when the ops share one traced session, its timeline.
pub struct Traced {
    measured: Measured,
    session: Option<SessionTrace>,
}

/// The traced pass: the exact block first, so the session tracer is drained at a
/// point that depends on the seed alone, then ops until the pass's seconds are up.
/// `tracer` is the traced session's; `None` when every op builds its own session.
pub fn measure_traced<T: Target>(
    ctx: &Ctx<'_>,
    tracer: Option<&Tracer>,
    target: &mut T,
    block_len: usize,
) -> Traced {
    let mut pass = Pass::default();
    let mut block = Vec::new();
    let mut session = tracer.map(|_| SessionTrace::default());
    let mut op = |slot: usize, spans: &OpSpans| target.run(slot, spans);
    let mut post = |i: usize, output: T::Output| {
        if i < block_len {
            block.extend(T::exact(&output));
        }
    };
    pass.extend(&ctx.spans, block_len, block_len, 0.0, &mut op, &mut post);
    if let (Some(trace), Some(tracer)) = (&mut session, tracer) {
        trace.drain(tracer, true, ctx.opts.trace_dir.is_some());
    }
    let seconds = ctx.pass_seconds();
    pass.extend(&ctx.spans, block_len, 0, seconds, &mut op, &mut post);
    if let (Some(trace), Some(tracer)) = (&mut session, tracer) {
        trace.drain(tracer, false, false);
    }
    Traced {
        measured: Measured { pass, block },
        session,
    }
}

/// Runs `setup` once less than `setup_s` needs samples and returns the seconds of
/// each; the caller times the last set-up itself, because it keeps what that one
/// builds.
pub fn rehearse_setup(mut setup: impl FnMut() -> Result<(), String>) -> Result<Vec<f64>, String> {
    /// Set-ups per run; `setup_s` is their median.
    const SETUP_REPEATS: usize = 3;
    let mut times = Vec::new();
    for _ in 1..SETUP_REPEATS {
        let started = Instant::now();
        setup()?;
        times.push(started.elapsed().as_secs_f64());
    }
    Ok(times)
}

/// Metrics and checks of the untraced pass that every workload shares.
/// `queries_per_op` is 1 except where an op is a chunk through the serve pool;
/// `unanswered` counts queries a completed op reported rejected or failed.
pub fn record_untraced(
    out: &mut Outcome,
    untraced: &Measured,
    k: usize,
    queries_per_op: u64,
    unanswered: u64,
) {
    let pass = &untraced.pass;
    out.attempted = pass.ops() as u64 * queries_per_op;
    out.failed = pass.failed * queries_per_op + unanswered;
    out.metrics
        .set_quantile("latency_s_p50", &pass.latencies, 0.5);
    out.metrics.set(
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    let failed = out.failed;
    out.check("no_failed_ops", failed == 0, format!("{failed} failed"));
    let well_formed = untraced
        .block
        .iter()
        .all(|e| e.ranking_len == k && e.scores_valid);
    out.check(
        "rankings_well_formed",
        well_formed,
        format!("length {k}, finite non-negative estimates"),
    );
    let mut digest = Digest::new();
    for exact in &untraced.block {
        digest.word(exact.digest);
    }
    out.response_digest = digest.finish();
}

/// Work counters of the exact block as per-query means, and the two exact costs
/// the paper reports. A host-speed change must leave every one of them identical.
pub fn record_engine_costs(metrics: &mut Metrics, block: &[Exact]) {
    let per_query =
        |f: fn(&QueryCost) -> f64| mean(&block.iter().map(|e| f(&e.cost)).collect::<Vec<_>>());
    metrics.set("net_bytes_per_query", per_query(|c| c.network_bytes as f64));
    metrics.set("sim_s_per_query", per_query(|c| c.simulated_seconds));
    metrics.set("engine.supersteps", per_query(|c| c.supersteps as f64));
    metrics.set(
        "engine.active_vertices",
        per_query(|c| c.active_vertices as f64),
    );
    metrics.set(
        "engine.routed_messages",
        per_query(|c| c.routed_messages as f64),
    );
    metrics.set(
        "engine.skipped_scatters",
        per_query(|c| c.skipped_scatters as f64),
    );
    metrics.set(
        "engine.net_messages",
        per_query(|c| c.network_messages as f64),
    );
    metrics.set("engine.sim_cpu_s", per_query(|c| c.simulated_cpu_seconds));
    let engine_served = || block.iter().filter(|e| e.cost.supersteps > 0);
    let host_s: f64 = engine_served().map(|e| e.cost.host_seconds).sum();
    let supersteps: f64 = engine_served().map(|e| e.cost.supersteps as f64).sum();
    let active: f64 = engine_served().map(|e| e.cost.active_vertices as f64).sum();
    if supersteps > 0.0 {
        metrics.set("engine.host_s_per_superstep", host_s / supersteps);
    }
    if active > 0.0 {
        metrics.set("engine.host_ns_per_active_vertex", host_s * 1e9 / active);
    }
}

/// Everything the traced pass adds: the checks that tracing changed nothing and
/// that the child spans account for the ops, the tracing overhead, the engine's
/// phase breakdown from the session's own timeline, and every per-layer metric
/// the harness timeline holds. `single_client` says a query's latency is its
/// op's, so time outside supersteps can be told apart.
pub fn record_traced(
    out: &mut Outcome,
    ctx: &Ctx<'_>,
    untraced: &Measured,
    traced: Traced,
    queries_per_op: usize,
    single_client: bool,
) {
    let Traced { measured, session } = traced;
    out.metrics.set(
        "obs.overhead_ratio",
        untraced.pass.throughput() / measured.pass.throughput(),
    );
    out.check(
        "traced_responses_bit_identical",
        untraced.block == measured.block,
        format!(
            "{} block responses and their exact costs compared",
            untraced.block.len()
        ),
    );

    if let Some(session) = session {
        let queries = (measured.pass.ops() * queries_per_op) as f64;
        for phase in ["gather", "apply", "sync", "scatter", "route", "superstep"] {
            out.metrics.set(
                &format!("engine.phase.{phase}_s"),
                session.phase_s(phase) / queries,
            );
        }
        if single_client {
            let outside = measured.pass.seconds - session.phase_s("superstep");
            out.metrics
                .set("engine.phase.other_s", outside.max(0.0) / queries);
        }
        out.metrics.set(
            "obs.events_per_query",
            session.events_exact_block as f64 / measured.block.len() as f64,
        );
        out.metrics.set("obs.finish_s", session.finish_s);
        if let Some(json) = session.chrome_json {
            out.traces.push(("session", json));
        }
    }

    let trace = ctx.spans.finish();
    if let Some((share, worst)) = trace.op_self_share() {
        out.check(
            "op_self_time_under_10pct",
            share < 0.10,
            format!("self share {share:.4} over all ops, worst op {worst:.4}"),
        );
    }
    probes::record(&mut out.metrics, &trace);
    if ctx.opts.trace_dir.is_some() {
        out.traces.push(("harness", trace.to_chrome_json()));
    }
}

/// The two exact costs under the names `BENCHMARK.json` bounds, which may never
/// read 0: network bytes and simulated seconds per query where a query of the
/// block reached the engine. Where none did both are 0, and the index's exact
/// work per query stands in — walk hops for the bytes, pushes for the seconds.
fn record_exact_costs(metrics: &mut Metrics, block: &[Exact]) {
    let per_query =
        |f: fn(&QueryCost) -> f64| mean(&block.iter().map(|e| f(&e.cost)).collect::<Vec<_>>());
    let (net, sim) = if block.iter().any(|e| e.cost.supersteps > 0) {
        (
            per_query(|c| c.network_bytes as f64),
            per_query(|c| c.simulated_seconds),
        )
    } else {
        (
            per_query(|c| c.walk_hops as f64),
            per_query(|c| c.push_ops as f64),
        )
    };
    metrics.set("net_cost", net);
    metrics.set("sim_cost", sim);
}

/// The end-to-end metrics every workload reports. `block` is the exact block of
/// the untraced pass.
pub fn finish(
    out: &mut Outcome,
    setup_times: &[f64],
    throughput: f64,
    accuracy: f64,
    block: &[Exact],
) {
    out.metrics.set("setup_s", median(setup_times));
    out.metrics.set("throughput_qps", throughput);
    record_exact_costs(&mut out.metrics, block);
    out.metrics.set("accuracy", accuracy);
    // Last, so it covers the whole run of this workload's process.
    if let Some(rss) = peak_rss_mib() {
        out.metrics.set("peak_rss_mib", rss);
    }
}
