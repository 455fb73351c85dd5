//! The figure harness binary: regenerates every figure of the FrogWild paper.
//!
//! ```text
//! USAGE:
//!     cargo run -p frogwild_bench --release --bin figures -- [FIGURES...]
//!
//! FIGURES:
//!     all (default), or any name of a `frogwild_bench::FIGURES` row; `--help` lists them
//!
//! ENVIRONMENT:
//!     FROGWILD_SCALE=tiny|small|medium   experiment scale (default: small)
//!     FROGWILD_OUT=<dir>                 CSV output directory (default: bench_results)
//! ```
//!
//! Each figure is printed as a markdown table and written as a CSV file. An unknown
//! figure name or `FROGWILD_SCALE` value exits 1 and lists the accepted ones.

use frogwild_bench::report::file_stem;
use frogwild_bench::{figure_names, run_figures, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "usage: figures [{}]...\n\
             env:   FROGWILD_SCALE=tiny|small|medium, FROGWILD_OUT=<dir>",
            figure_names().join("|")
        );
        return;
    }
    let scale = Scale::from_env().unwrap_or_else(|e| fail(&e));
    let out_dir = std::env::var("FROGWILD_OUT").unwrap_or_else(|_| "bench_results".to_string());
    let selected: Vec<&str> = args.iter().map(String::as_str).collect();

    eprintln!(
        "# FrogWild figure harness — scale: {} twitter vertices / {} livejournal vertices, {} walkers, machines {:?}",
        scale.twitter_vertices, scale.livejournal_vertices, scale.walkers, scale.machine_counts
    );
    eprintln!("# figures: {selected:?}; CSV output: {out_dir}/");

    let tables = run_figures(&selected, &scale).unwrap_or_else(|e| fail(&e));
    for table in &tables {
        println!("{}", table.to_markdown());
        let path = std::path::Path::new(&out_dir).join(format!("{}.csv", file_stem(&table.title)));
        if let Err(e) = table.write_csv(&path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
    eprintln!("# produced {} tables", tables.len());
}

/// Prints `error: <message>` and exits 1.
fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}
