//! The `frogwild` binary reports and accepts the vertex ids of the `--graph` file, not
//! the dense first-appearance ids the loader hands the library.

mod common;

use common::{edge_file, frogwild, ranked_vertices};

#[test]
fn topk_reports_the_files_ids() {
    let path = edge_file("file_ids_topk");
    let output = frogwild(&["topk", "--graph", path.to_str().unwrap(), "--k", "2"]);
    assert!(output.status.success(), "{output:?}");
    assert_eq!(ranked_vertices(&output), ["200", "300"]);
}

#[test]
fn ppr_source_is_an_id_of_the_file() {
    let path = edge_file("file_ids_ppr");
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
