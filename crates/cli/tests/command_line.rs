//! The `frogwild` binary never ranks a graph other than the one it was pointed at, and
//! never panics on a value: a mistyped option, a value option with no value and an
//! absurd number are each a typed error (exit 1, `error: ...`) or a run that works.

mod common;

use common::{edge_file, frogwild, ranked_vertices};

/// A command line and what it must do: `Err(text)` exits 1 with `text` on stderr,
/// `Ok(ids)` exits 0 having ranked exactly the file's `ids`, in whatever order.
type Case<'a> = (&'a [&'a str], Result<&'a [&'a str], &'a str>);

#[test]
fn hostile_command_lines_are_errors_or_the_right_answer() {
    let ids = edge_file("command_line_ids");
    let ids = ids.to_str().unwrap();
    let out = edge_file("command_line_out");
    let out = out.to_str().unwrap();
    let max = u64::MAX.to_string();
    let table: [Case<'_>; 7] = [
        (
            &["topk", "--graph", ids, "--walker", "100"],
            Err("error: invalid command line: unknown option --walker"),
        ),
        // A switch does not swallow the path after it.
        (
            &["topk", "--parallel", ids, "--k", "2"],
            Ok(&["200", "300"]),
        ),
        (
            &["topk", "--graph", ids, "--k"],
            Err("error: invalid command line: option --k needs a value"),
        ),
        (
            &["topk", "--synthetic", "twitter", "--vertices", "0"],
            Err("error: invalid command line: --vertices must be at least 1"),
        ),
        (
            &["generate", "--vertices", "0", "--out", out],
            Err("error: invalid command line: --vertices must be at least 1"),
        ),
        (
            &["topk", "--graph", ids, "--k", "4", "--staleness", &max],
            Ok(&["100", "200", "300", "400"]),
        ),
        (
            &[
                "serve",
                "--graph",
                ids,
                "--queries",
                "4",
                "--serve-workers",
                "100000",
            ],
            Ok(&[]),
        ),
    ];
    for (args, expected) in table {
        let output = frogwild(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        match expected {
            Ok(ids) => {
                assert!(output.status.success(), "{args:?}: {stderr}");
                let mut ranked = ranked_vertices(&output);
                ranked.sort();
                assert_eq!(ranked, ids, "{args:?}");
            }
            Err(text) => {
                assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
                assert!(stderr.contains(text), "{args:?}: {stderr}");
            }
        }
    }
}
