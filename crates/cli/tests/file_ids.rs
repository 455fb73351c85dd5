//! The `frogwild` binary reports and accepts the vertex ids of the `--graph` file, not
//! the dense first-appearance ids the loader hands the library.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// File ids 100, 200, 300, 400 load as dense vertices 0, 1, 2, 3; 200 collects every
/// other vertex's edge, so it ranks first whatever is asked.
const EDGES: &str = "100 200\n200 300\n300 200\n400 200\n";

/// One file per test, inside the build tree.
fn edge_file(test: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("file_ids_{test}.txt"));
    std::fs::write(&path, EDGES).unwrap();
    path
}

fn frogwild(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_frogwild"))
        .args(args)
        .output()
        .unwrap()
}

/// The `vertex` column of the ranking CSV on stdout.
fn ranked_vertices(output: &Output) -> Vec<String> {
    let stdout = String::from_utf8(output.stdout.clone()).unwrap();
    let rows = stdout
        .lines()
        .skip_while(|line| !line.starts_with("rank,vertex,"));
    rows.skip(1)
        .map(|row| row.split(',').nth(1).unwrap().to_string())
        .collect()
}

#[test]
fn topk_reports_the_files_ids() {
    let path = edge_file("topk");
    let output = frogwild(&["topk", "--graph", path.to_str().unwrap(), "--k", "2"]);
    assert!(output.status.success(), "{output:?}");
    assert_eq!(ranked_vertices(&output), ["200", "300"]);
}

#[test]
fn ppr_source_is_an_id_of_the_file() {
    let path = edge_file("ppr");
    let path = path.to_str().unwrap();
    let output = frogwild(&["ppr", "--graph", path, "--source", "200"]);
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout.clone()).unwrap();
    assert!(
        stdout.starts_with("# PPR forward-push src=200 "),
        "{stdout}"
    );
    assert_eq!(ranked_vertices(&output), ["200", "300", "100", "400"]);

    // Dense id 1 is vertex 200, but the file has no vertex called 1.
    let output = frogwild(&["ppr", "--graph", path, "--source", "1"]);
    assert!(!output.status.success(), "{output:?}");
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(
        stderr.contains(&format!("no vertex with id 1 in {path}")),
        "{stderr}"
    );
}
