//! # frogwild-bench
//!
//! The benchmark harness that regenerates every figure of the FrogWild paper's
//! evaluation section (Figures 1–8) plus a numerical check of the paper's theory
//! (Theorems 1–2, Proposition 7). Its `frogbench` binary is the workspace's one
//! benchmark: end-to-end and per-layer metrics over five workloads, described by the
//! root `BENCHMARK.json`.
//!
//! The `figures` binary is the entry point:
//!
//! ```text
//! cargo run -p frogwild-bench --release --bin figures -- all
//! cargo run -p frogwild-bench --release --bin figures -- fig1 fig2
//! FROGWILD_SCALE=medium cargo run -p frogwild-bench --release --bin figures -- fig1
//! ```
//!
//! Each figure function returns [`crate::report::Table`]s; the binary prints them as
//! markdown and writes CSVs under `bench_results/`.
//!
//! The experiments run on synthetic graphs whose shape matches the paper's datasets
//! (see the `frogwild_graph::generators` module docs); [`Scale`] controls the graph
//! sizes and sweep ranges so the whole suite finishes in minutes on a laptop at the
//! default scale.

pub mod figures;
pub mod report;
pub mod workloads;

pub use workloads::Scale;

/// Runs the selected figures and returns all produced tables, in order.
pub fn run_figures(names: &[String], scale: &Scale) -> Vec<report::Table> {
    let mut tables = Vec::new();
    let wants = |name: &str| {
        names.is_empty()
            || names.iter().any(|n| n == "all")
            || names.iter().any(|n| n.eq_ignore_ascii_case(name))
    };
    if wants("fig1") {
        tables.extend(figures::fig1::run(scale));
    }
    if wants("fig2") {
        tables.extend(figures::fig2::run(scale));
    }
    if wants("fig3") || wants("fig4") {
        tables.extend(figures::fig34::run(scale));
    }
    if wants("fig5") {
        tables.extend(figures::fig5::run(scale));
    }
    if wants("fig6") || wants("fig7") {
        tables.extend(figures::fig67::run(scale));
    }
    if wants("fig8") {
        tables.extend(figures::fig8::run(scale));
    }
    if wants("theory") {
        tables.extend(figures::theory_check::run(scale));
    }
    if wants("ablation") {
        tables.extend(figures::ablation::run(scale));
    }
    if wants("estimator") {
        tables.extend(figures::estimator::run(scale));
    }
    if wants("stragglers") {
        tables.extend(figures::stragglers::run(scale));
    }
    if wants("staleness") {
        tables.extend(figures::staleness::run(scale));
    }
    if wants("walkindex") {
        tables.extend(figures::walkindex::run(scale));
    }
    if wants("qps") {
        tables.extend(figures::qps::run(scale));
    }
    if wants("trace") {
        tables.extend(figures::trace::run(scale));
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_figures_with_unknown_name_produces_nothing() {
        let tables = run_figures(&["not-a-figure".to_string()], &Scale::tiny());
        assert!(tables.is_empty());
    }

    #[test]
    fn run_figures_selects_by_name() {
        let tables = run_figures(&["fig8".to_string()], &Scale::tiny());
        assert!(!tables.is_empty());
        assert!(tables.iter().all(|t| t.title.contains("Figure 8")));
    }
}
