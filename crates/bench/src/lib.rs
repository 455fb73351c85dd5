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
//! `--help` and [`run_figures`] all read it. Each figure function asks one [`Lab`] for
//! the runs its tables read — the lab generates each workload once and runs each
//! distinct experiment once, however many figures read it — and returns
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

pub use workloads::{Lab, Scale};

use report::Table;

/// A figure's `run` function: its tables, from the runs it asks the [`Lab`] for.
pub type RunFigure = fn(&mut Lab) -> Vec<Table>;

/// Every figure the harness runs, in output order: the names that select it
/// (compared ignoring ASCII case) and the function that produces its tables from the
/// shared [`Lab`].
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

/// Runs the selected figures on one [`Lab`] at `scale` and returns all produced tables,
/// in [`FIGURES`] order, so an experiment two figures read runs once. No names, or
/// `all`, selects every figure; a name no row lists is an error that names the accepted
/// ones.
pub fn run_figures(names: &[&str], scale: &Scale) -> Result<Vec<Table>, String> {
    let among = |row: &[&str], name: &str| row.iter().any(|r| r.eq_ignore_ascii_case(name));
    let accepted = figure_names();
    if let Some(unknown) = names.iter().find(|n| !among(&accepted, n)) {
        let accepted = accepted.join(", ");
        return Err(format!("unknown figure {unknown:?} (accepted: {accepted})"));
    }
    let every = names.is_empty() || among(names, "all");
    let mut lab = Lab::new(scale.clone());
    Ok(FIGURES
        .iter()
        .filter(|(row, _)| every || names.iter().any(|n| among(row, n)))
        .flat_map(|(_, run)| run(&mut lab))
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

    /// FNV-1a over a table's title, header and rows, each cell ended by 0x1F.
    fn fold(table: &Table) -> u64 {
        let cells = std::iter::once(&table.title)
            .chain(&table.columns)
            .chain(table.rows.iter().flatten());
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in cells.flat_map(|c| c.bytes().chain([0x1f])) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        h
    }

    /// The [`fold`] of every tiny-scale table, in output order.
    const TINY_FOLDS: [u64; 25] = [
        0x8ef170081d89a72d, // Figure 1(a): time per iteration vs machines (Twitter-shaped, 1000 walkers, 4 iters)
        0x057ab56a8e327798, // Figure 1(b): total running time vs machines
        0x0f7970df7429c013, // Figure 1(c): network bytes sent vs machines
        0x4d61244597927f5b, // Figure 1(d): total CPU usage vs machines
        0x52e0c5b32cc01059, // Figure 2(a): mass captured vs k (Twitter-shaped, 8 machines, 1000 walkers, 4 iters)
        0xff579a34af5f8c22, // Figure 2(b): exact identification vs k
        0xd63d1e1f51af7327, // Figures 3-4: accuracy (k=100) vs total time vs network (Twitter-shaped, 8 machines, 1000 walkers)
        0x008caa9d8cc9854a, // Figure 5: FrogWild vs uniform sparsification (Twitter-shaped, 4 machines, 1000 walkers, k=100)
        0xae89dabf215f160d, // Figure 6(a): accuracy vs number of walkers (LiveJournal-shaped, 8 machines, 4 iters, k=100)
        0x80cab20b0cadb065, // Figure 6(b): accuracy vs number of iterations (1000 walkers, k=100)
        0x648ce69c57d0ce28, // Figure 6(c): total time vs number of walkers
        0x3a6e6b692d3dfccc, // Figure 6(d): total time vs number of iterations
        0xaf06b546a9e89d88, // Figure 7: accuracy vs total time and network (LiveJournal-shaped, 8 machines, 1000 walkers, k=100)
        0x3032df511f2fc7b2, // Figure 8: network bytes vs number of initial walkers (LiveJournal-shaped, 8 machines, 4 iters, ps=1)
        0x2622d99dda49c366, // Theorem 2: intersection probability, bound vs Monte-Carlo (Twitter-shaped)
        0x0b7b4bfe61efadd5, // Proposition 7: bound on the largest PageRank entry (gamma = 0.5, theta = 2.2)
        0xf817fc6330b2ad18, // Theorem 1: measured captured-mass loss vs epsilon envelope (Twitter-shaped, k=30, delta=0.1, 1000 walkers)
        0x78295175d6f6af68, // Ablation A: vertex-cut ingress strategy (Twitter-shaped, 8 machines, 1000 walkers)
        0xd5b6aa9d35670d7e, // Ablation B: deterministic even-split scatter vs idealized binomial scatter
        0x104fcb270bd7a82c, // Ablation C: at-least-one-out-edge vs independent mirror erasures (serial simulation)
        0x891eb3c91f88a8ce, // Ablation D: estimator comparison (Twitter-shaped, 1000 walkers, 4 steps)
        0xc5a9a453a903bdb1, // Ablation E: graph-family control (1000 walkers, 4 iterations, ps=0.7)
        0x8c5e7de0c1e5f64f, // Ablation F: straggler sensitivity (Twitter-shaped, 8 machines, machine 0 slowed)
        0x6de81ad1410dfddf, // Ablation G: bounded staleness — overlap vs accuracy (Twitter-shaped, 8 machines, ps=0.7)
        0x40e3b75826734ca2, // Ablation G2: per-machine watermark finish times (Twitter-shaped, staleness = 4)
    ];

    #[test]
    fn every_figure_is_a_function_of_its_scale() {
        let first = run_figures(&["all"], &Scale::tiny()).unwrap();
        assert_eq!(first, run_figures(&["all"], &Scale::tiny()).unwrap());
        let stems: BTreeSet<String> = first.iter().map(|t| report::file_stem(&t.title)).collect();
        assert_eq!(stems.len(), first.len(), "two tables share a CSV file");
        assert_eq!(first.len(), TINY_FOLDS.len());
        for (table, want) in first.iter().zip(TINY_FOLDS) {
            assert_eq!(fold(table), want, "{} moved", table.title);
        }
    }
}
