//! The `frogwild` binary never ranks a graph other than the one it was pointed at, and
//! never panics on a value: a mistyped option, an option the subcommand does not read, a
//! value option with no value and an absurd number are each a typed error (exit 1,
//! `error: ...`) or a run that works.

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
    let table: [Case<'_>; 31] = [
        (
            &["topk", "--graph", ids, "--walker", "100"],
            Err("error: invalid command line: unknown option --walker"),
        ),
        // A switch does not swallow the path after it.
        (
            &["topk", "--verbose", ids, "--k", "2"],
            Ok(&["200", "300"]),
        ),
        // `--workers` alone sizes the engine pool; the switch that turned it on is gone.
        (
            &["topk", "--parallel", ids, "--k", "2"],
            Err("error: invalid command line: unknown option --parallel"),
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
        // Aborted on a 1.3 TB allocation; past 2^32 the ids would have wrapped.
        (
            &[
                "generate",
                "--synthetic",
                "twitter",
                "--vertices",
                "5000000000",
                "--out",
                out,
            ],
            Err("error: invalid command line: --vertices 5000000000 is more than 32-bit vertex ids can name"),
        ),
        // The switch that asked an index build for a thread per simulated machine, and
        // died spawning 40 000 of them, is gone; the same line without it runs (and is
        // pinned) in the test below.
        (
            &[
                "index",
                "--synthetic",
                "twitter",
                "--vertices",
                "100",
                "--machines",
                "40000",
                "--probe",
                "2",
                "--parallel",
            ],
            Err("error: invalid command line: unknown option --parallel"),
        ),
        (
            &["topk", "--graph", ids, "--k", "4", "--staleness", &max],
            Ok(&["100", "200", "300", "400"]),
        ),
        // 2^44 + 1 MiB is 2^64 + 2^20 bytes: it wrapped to a one-MiB budget.
        (
            &[
                "index",
                "--synthetic",
                "twitter",
                "--vertices",
                "100",
                "--walk-index-budget-mb",
                "17592186044417",
            ],
            Err("error: invalid command line: --walk-index-budget-mb 17592186044417 is more bytes"),
        ),
        // NaN passed `loss <= 0.0` and reached the walker planner's assertion.
        (
            &["autotune", "--graph", ids, "--loss", "NaN"],
            Err("error: invalid AutoTuneConfig: mass_loss_target must be finite and positive"),
        ),
        (
            &["plan", "--loss", "NaN"],
            Err("--loss finite and positive"),
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
        // Asked for a hundred thousand engine threads, the pool takes the host's: it
        // spent ten times the serial run's host time spawning one thread per batch,
        // and would now allocate a lane per thread. The ids are the serial run's.
        (
            &[
                "topk",
                "--synthetic",
                "twitter",
                "--vertices",
                "20000",
                "--machines",
                "4000",
                "--workers",
                "100000",
                "--k",
                "3",
            ],
            Ok(&["0", "16384", "8192"]),
        ),
        // A correctly spelled option the subcommand never reads is not a default
        // silently used in its place.
        (
            &["pagerank", "--graph", ids, "--ps", "0.1"],
            Err("option --ps does not apply to pagerank (read by: topk, autotune, serve)"),
        ),
        (
            &["topk", "--graph", ids, "--source", "3"],
            Err("option --source does not apply to topk"),
        ),
        (
            &[
                "ppr",
                "--graph",
                ids,
                "--source",
                "200",
                "--iterations",
                "3",
            ],
            Err("option --iterations does not apply to ppr"),
        ),
        (
            &["plan", "--graph", ids],
            Err("option --graph does not apply to plan"),
        ),
        (
            &["stats", "--graph", ids, "--machines", "4"],
            Err("option --machines does not apply to stats"),
        ),
        // A bad configuration is rejected before the graph is generated and
        // partitioned (the loop checks that no `generated` or `session:` line was
        // printed).
        (
            &["pagerank", "--synthetic", "twitter", "--vertices", "2000", "--iterations", "0"],
            Err("error: invalid PageRankConfig: max_iterations must be positive"),
        ),
        (
            &["pagerank", "--synthetic", "twitter", "--vertices", "2000", "--tolerance", "NaN"],
            Err("error: invalid PageRankConfig: tolerance must be finite and non-negative"),
        ),
        (
            &["pagerank", "--synthetic", "twitter", "--vertices", "2000", "--k", "0"],
            Err("error: invalid command line: --k must be at least 1"),
        ),
        (
            &["topk", "--synthetic", "twitter", "--vertices", "2000", "--k", "0"],
            Err("error: invalid command line: --k must be at least 1"),
        ),
        // Served every query as a failure and exited 0.
        (
            &["serve", "--synthetic", "twitter", "--vertices", "2000", "--queries", "8", "--k", "0"],
            Err("error: invalid command line: --k must be at least 1"),
        ),
        (
            &["ppr", "--synthetic", "twitter", "--vertices", "2000", "--source", "3", "--k", "0"],
            Err("error: invalid command line: --k must be at least 1"),
        ),
        (
            &["serve", "--vertices", "500", "--queries", "4", "--serve-batch", "0"],
            Err("error: invalid ServeConfig: batch must be at least 1"),
        ),
        (
            &["topk", "--vertices", "500", "--walkers", "100", "--walk-index-length", "0"],
            Err("error: invalid WalkIndexConfig: segment_length must be positive"),
        ),
        (
            &["index", "--vertices", "500", "--walk-index-length", "0"],
            Err("error: invalid WalkIndexConfig: segment_length must be positive"),
        ),
        (
            &["ppr", "--vertices", "500", "--source", "3", "--walk-index-length", "0"],
            Err("error: invalid WalkIndexConfig: segment_length must be positive"),
        ),
        // Printed a walker plan for a graph with no vertices.
        (
            &["plan", "--vertices", "0", "--k", "5"],
            Err("error: invalid command line: --vertices must be at least 1"),
        ),
        // The subcommand is checked by the parser, before any of its options.
        (
            &["topkk", "--walker", "100"],
            Err("error: invalid command line: unknown command \"topkk\""),
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
                assert!(!stderr.contains("session:"), "{args:?}: {stderr}");
                assert!(!stderr.contains("generated"), "{args:?}: {stderr}");
            }
        }
    }
}

/// `index` is a session over a walk index, probed through `Session::query`; what it
/// reports is what the standalone build and the direct `indexed_ppr` probes it replaced
/// reported (pinned from the commit before), timings aside.
#[test]
fn index_reports_the_build_and_the_probes_of_its_session() {
    let synthetic = ["index", "--synthetic", "twitter", "--vertices"];
    let cases: [(&[&str], [&str; 12]); 2] = [
        (
            &["2000", "--probe", "20", "--seed", "7"],
            [
                "vertices,2000",
                "requested_segments,16",
                "effective_segments,16",
                "segment_length,8",
                "machines,16",
                "arena_bytes,1024000",
                "total_hops,256000",
                "truncated_segments,0",
                "probe_queries,20",
                "probe_segment_hits,94453",
                "probe_segment_misses,74914",
                "probe_hit_rate,0.5577",
            ],
        ),
        // More simulated machines than a process may have threads, sharing however
        // many the host has: the rows the commit before printed from its serial build.
        (
            &["100", "--probe", "2", "--machines", "40000"],
            [
                "vertices,100",
                "requested_segments,16",
                "effective_segments,16",
                "segment_length,8",
                "machines,40000",
                "arena_bytes,51200",
                "total_hops,12800",
                "truncated_segments,0",
                "probe_queries,2",
                "probe_segment_hits,2345",
                "probe_segment_misses,5751",
                "probe_hit_rate,0.2896",
            ],
        ),
    ];
    for (options, pinned) in cases {
        let output = frogwild(&[&synthetic[..], options].concat());
        assert!(output.status.success(), "{output:?}");
        let stdout = String::from_utf8(output.stdout).unwrap();
        let rows: Vec<&str> = stdout
            .lines()
            .filter(|row| !row.contains("_seconds,"))
            .collect();
        assert_eq!(rows.first(), Some(&"quantity,value"), "{stdout}");
        assert_eq!(rows.get(1..), Some(&pinned[..]), "{stdout}");
        assert_eq!(stdout.lines().count(), 1 + pinned.len() + 3, "{stdout}");
    }
}

/// `--workers` sizes the pool of every engine query: under `pagerank` it is read, says
/// nothing on stderr, and answers exactly what the calling thread answers.
#[test]
fn workers_sizes_every_engine_query_without_a_warning() {
    let ids = edge_file("command_line_workers");
    let ids = ids.to_str().unwrap();
    let line = ["pagerank", "--graph", ids, "--k", "4"];
    let serial = frogwild(&line);
    assert!(serial.status.success(), "{serial:?}");
    for workers in ["2", "0"] {
        let pooled = frogwild(&[&line[..], &["--workers", workers]].concat());
        let stderr = String::from_utf8_lossy(&pooled.stderr);
        assert!(pooled.status.success(), "--workers {workers}: {stderr}");
        assert!(
            !stderr.contains("warning:"),
            "--workers {workers}: {stderr}"
        );
        assert_eq!(pooled.stdout, serial.stdout, "--workers {workers}");
    }
}

/// A walker count no u64 holds is `unreachable`: at a mass whose square is 0 in f64 the
/// per-vertex term, the recommendation and Remark 6's scaling printed `u64::MAX`, a
/// saturated cast of infinity. The sampling term does not involve the mass.
#[test]
fn plan_walker_counts_no_u64_holds_are_unreachable_not_saturated() {
    let output = frogwild(&["plan", "--mass", "1e-300", "--k", "5"]);
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(!stdout.contains(&u64::MAX.to_string()), "{stdout}");
    for (quantity, value) in [
        ("walkers_theorem1_sampling_term", "125000"),
        ("walkers_per_vertex_frequency_term", "unreachable"),
        ("walkers_recommended", "unreachable"),
        ("walkers_remark6_scaling", "unreachable"),
    ] {
        let row = stdout
            .lines()
            .find(|row| row.starts_with(&format!("{quantity},")));
        assert_eq!(
            row,
            Some(format!("{quantity},{value}").as_str()),
            "{stdout}"
        );
    }
}

/// Remark 6's iteration count is solved in log space: at a mass whose square is 0 in
/// f64 it printed `u64::MAX`.
#[test]
fn plan_iterations_stay_finite_where_the_squared_mass_underflows() {
    let output = frogwild(&["plan", "--mass", "1e-300", "--k", "5"]);
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let row = stdout
        .lines()
        .find(|row| row.starts_with("iterations_remark6_scaling,"));
    assert_eq!(row, Some("iterations_remark6_scaling,8512"), "{stdout}");
}
