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
//! cargo run -p frogwild_bench --release --bin figures -- all
//! cargo run -p frogwild_bench --release --bin figures -- fig1 fig2
//! FROGWILD_SCALE=medium cargo run -p frogwild_bench --release --bin figures -- fig1
//! ```
//!
//! [`FIGURES`] lists every figure the harness runs; the binary's name check, its
//! `--help` and [`run_figures`] all read it. Each figure function returns
//! [`crate::report::Table`]s; the binary prints them as markdown and writes CSVs
//! under `bench_results/`, one file per [`report::file_stem`].
//!
//! Every number in those tables comes from the engine's simulated clock and cost
//! model, never from the host clock, so a figure is a function of its [`Scale`]:
//! two runs print the same bytes. Host-clock speed is frogbench's to measure.
//!
//! The experiments run on synthetic graphs whose shape matches the paper's datasets
//! (see the `frogwild_graph::generators` module docs); [`Scale`] controls the graph
//! sizes and sweep ranges so the whole suite finishes in minutes on a laptop at the
//! default scale.

pub mod figures;
pub mod report;
pub mod workloads;

pub use workloads::Scale;

use report::Table;

/// A figure's `run` function: its tables at a scale.
pub type RunFigure = fn(&Scale) -> Vec<Table>;

/// Every figure the harness runs, in output order: the names that select it
/// (compared ignoring ASCII case) and the function that produces its tables.
pub const FIGURES: &[(&[&str], RunFigure)] = &[
    (&["fig1"], figures::fig1::run),
    (&["fig2"], figures::fig2::run),
    (&["fig3", "fig4"], figures::fig34::run),
    (&["fig5"], figures::fig5::run),
    (&["fig6", "fig7"], figures::fig67::run),
    (&["fig8"], figures::fig8::run),
    (&["theory"], figures::theory_check::run),
    (&["ablation"], figures::ablation::run),
    (&["estimator"], figures::estimator::run),
    (&["stragglers"], figures::stragglers::run),
    (&["staleness"], figures::staleness::run),
];

/// The names [`run_figures`] accepts: `all`, then every [`FIGURES`] name in order.
pub fn figure_names() -> Vec<&'static str> {
    std::iter::once("all")
        .chain(FIGURES.iter().flat_map(|(names, _)| names.iter().copied()))
        .collect()
}

/// Runs the selected figures and returns all produced tables, in [`FIGURES`] order.
/// No names, or `all`, selects every figure; a name no row lists is an error that
/// names the accepted ones.
pub fn run_figures(names: &[&str], scale: &Scale) -> Result<Vec<Table>, String> {
    let among = |row: &[&str], name: &str| row.iter().any(|r| r.eq_ignore_ascii_case(name));
    let accepted = figure_names();
    if let Some(unknown) = names.iter().find(|n| !among(&accepted, n)) {
        let accepted = accepted.join(", ");
        return Err(format!("unknown figure {unknown:?} (accepted: {accepted})"));
    }
    let every = names.is_empty() || among(names, "all");
    Ok(FIGURES
        .iter()
        .filter(|(row, _)| every || names.iter().any(|n| among(row, n)))
        .flat_map(|(_, run)| run(scale))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn run_figures_with_unknown_name_produces_nothing() {
        for names in [&["not-a-figure"][..], &["fig8", "fgi2"], &["walkindex"]] {
            let err = run_figures(names, &Scale::tiny()).unwrap_err();
            assert!(err.contains("unknown figure"), "{err}");
            assert!(err.contains("all, fig1, fig2, fig3, fig4"), "{err}");
        }
    }

    #[test]
    fn run_figures_selects_by_name() {
        let tables = run_figures(&["FIG8"], &Scale::tiny()).unwrap();
        assert!(!tables.is_empty());
        assert!(tables.iter().all(|t| t.title.contains("Figure 8")));
    }

    #[test]
    fn every_figure_is_a_function_of_its_scale() {
        let first = run_figures(&["all"], &Scale::tiny()).unwrap();
        assert_eq!(first, run_figures(&["all"], &Scale::tiny()).unwrap());
        let stems: BTreeSet<String> = first.iter().map(|t| report::file_stem(&t.title)).collect();
        assert_eq!(stems.len(), first.len(), "two tables share a CSV file");
    }
}
