//! What the binary-driving tests share: a four-vertex edge-list file and a runner.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// File ids 100, 200, 300, 400 load as dense vertices 0, 1, 2, 3; 200 collects every
/// other vertex's edge, so it ranks first whatever is asked.
const EDGES: &str = "100 200\n200 300\n300 200\n400 200\n";

/// One file per test, inside the build tree.
pub fn edge_file(test: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{test}.txt"));
    std::fs::write(&path, EDGES).unwrap();
    path
}

pub fn frogwild(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_frogwild"))
        .args(args)
        .output()
        .unwrap()
}

/// The `vertex` column of the ranking CSV on stdout.
pub fn ranked_vertices(output: &Output) -> Vec<String> {
    let stdout = String::from_utf8(output.stdout.clone()).unwrap();
    let rows = stdout
        .lines()
        .skip_while(|line| !line.starts_with("rank,vertex,"));
    rows.skip(1)
        .map(|row| row.split(',').nth(1).unwrap().to_string())
        .collect()
}
