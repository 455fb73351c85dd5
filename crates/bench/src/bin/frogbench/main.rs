//! `frogbench` — the repository's benchmark. Five workloads, measured from outside
//! through the public API; README.md in this directory is the reference.
//!
//! ```text
//! frogbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!           [--out FILE] [--trace-dir DIR] [--smoke]
//! ```
//!
//! With `--workload` it runs that workload in this process and ends with the one
//! JSON line `BENCHMARK.json`'s driver reads. Without, it re-executes itself once
//! per workload, one after the other, so peak RSS and allocator state belong to
//! one workload, and then cross-checks determinism at smoke scale.

mod json;
mod metrics;
mod pass;
mod probes;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

use json::Json;
use metrics::{end_to_end_names, per_layer_names};
use trace::Spans;
use workloads::{Ctx, Outcome, Workload, WORKLOADS};

const USAGE: &str = "usage: frogbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
[--out FILE] [--trace-dir DIR] [--smoke]";

/// Command-line options.
#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: Option<String>,
    /// The only input to graph and query generation.
    pub seed: u64,
    /// Seconds of ops to measure; 0 measures exactly one block of ops per pass.
    pub seconds: f64,
    /// Also run the traced pass and the per-layer probes.
    pub trace: bool,
    /// 2 000-vertex graphs and one short block of ops per pass.
    pub smoke: bool,
    pub out: Option<PathBuf>,
    pub trace_dir: Option<PathBuf>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            workload: None,
            seed: 11,
            seconds: 10.0,
            trace: true,
            smoke: false,
            out: None,
            trace_dir: None,
        }
    }
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => opts.workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&opts.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => opts.out = Some(PathBuf::from(value)),
            "--trace-dir" => opts.trace_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    if opts.smoke {
        opts.seconds = 0.0;
    }
    Ok(opts)
}

fn find_workload(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })
}

/// A fresh directory beside the executable — inside the build tree, so a run
/// writes nothing outside its checkout.
fn scratch_dir() -> Result<PathBuf, String> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe.parent().unwrap_or(Path::new(".")).join(format!(
        "frogbench-scratch-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Runs one workload in this process.
fn run_workload(workload: &Workload, opts: &Opts) -> Result<Outcome, String> {
    let scratch = scratch_dir()?;
    let ctx = Ctx {
        opts,
        spans: Spans::new(opts.trace),
        off: Spans::new(false),
        scratch: &scratch,
    };
    let outcome = (workload.run)(&ctx);
    let _ = std::fs::remove_dir_all(&scratch);
    outcome
}

/// The `name unit value` table, the check lines and the determinism digest.
fn print_report(workload: &Workload, opts: &Opts, outcome: &Outcome) {
    println!(
        "workload {} seed {} seconds {} trace {} threads {}",
        workload.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );
    let width = outcome
        .metrics
        .iter()
        .map(|m| m.name.len())
        .max()
        .unwrap_or(0);
    for m in outcome.metrics.iter() {
        let samples = m.samples.map_or(String::new(), |n| format!("  n={n}"));
        println!("{:<width$}  {:<8}  {}{samples}", m.name, m.unit, m.value);
    }
    for check in &outcome.checks {
        let verdict = if check.ok { "ok" } else { "FAIL" };
        println!("check {} {verdict} ({})", check.name, check.detail);
    }
    println!("exact_digest {:016x}", exact_digest(outcome));
}

/// One number two runs agree on only if every exact metric and every response
/// of the exact block agree bit for bit.
fn exact_digest(outcome: &Outcome) -> u64 {
    outcome.metrics.exact_digest() ^ outcome.response_digest.rotate_left(1)
}

fn out_document(workload: &Workload, opts: &Opts, outcome: &Outcome) -> Json {
    let checks = outcome.checks.iter().map(|c| {
        Json::obj([
            ("name", Json::str(c.name.as_str())),
            ("ok", Json::Bool(c.ok)),
            ("detail", Json::str(c.detail.as_str())),
        ])
    });
    Json::obj([
        ("workload", Json::str(workload.name)),
        ("why", Json::str(workload.why)),
        ("seed", Json::Int(opts.seed)),
        ("seconds", Json::Num(opts.seconds)),
        ("traced", Json::Bool(opts.trace)),
        ("smoke", Json::Bool(opts.smoke)),
        ("attempted", Json::Int(outcome.attempted)),
        ("failed", Json::Int(outcome.failed)),
        (
            "exact_digest",
            Json::Str(format!("{:016x}", exact_digest(outcome))),
        ),
        ("checks", Json::Arr(checks.collect())),
        ("metrics", outcome.metrics.full_json()),
    ])
}

/// The driver's last line: the end-to-end metrics untraced, the per-layer ones
/// traced.
fn driver_line(opts: &Opts, outcome: &Outcome, correct: bool) -> Result<String, String> {
    let names = if opts.trace {
        per_layer_names()
    } else {
        end_to_end_names()
    };
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(outcome.attempted.max(1))),
        ("failed", Json::Int(outcome.failed)),
        ("metrics", outcome.metrics.driver_json(&names)),
    ])
    .render()
}

fn single(workload: &Workload, opts: &Opts) -> Result<bool, String> {
    if workload.pin_allocator {
        pin_allocator();
    }
    let outcome = run_workload(workload, opts)?;
    print_report(workload, opts, &outcome);
    if let Some(dir) = &opts.trace_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for (suffix, json) in &outcome.traces {
            let path = dir.join(format!("{}.{suffix}.json", workload.name));
            std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    if let Some(path) = &opts.out {
        let document = out_document(workload, opts, &outcome).render()?;
        std::fs::write(path, document + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let correct = outcome.checks.iter().all(|c| c.ok);
    println!("{}", driver_line(opts, &outcome, correct)?);
    Ok(correct)
}

/// Re-executes this binary for one workload; `piped` captures its stdout.
fn spawn_child(opts: &Opts, workload: &str, piped: bool) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }]);
    if opts.smoke {
        command.arg("--smoke");
    }
    if let Some(out) = &opts.out {
        command.arg("--out").arg(out);
    }
    if let Some(dir) = &opts.trace_dir {
        command.arg("--trace-dir").arg(dir);
    }
    if piped {
        command.stdout(Stdio::piped());
    }
    let output = command
        .spawn()
        .and_then(|child| child.wait_with_output())
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    Ok((
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    ))
}

/// The digest a smoke-scale run of `workload` prints for `seed`.
fn smoke_digest(workload: &str, seed: u64) -> Result<String, String> {
    let opts = Opts {
        seed,
        smoke: true,
        trace: false,
        ..Opts::default()
    };
    let (ok, stdout) = spawn_child(&opts, workload, true)?;
    let digest = stdout
        .lines()
        .find_map(|line| line.strip_prefix("exact_digest "))
        .map(str::to_string);
    match digest {
        Some(digest) if ok => Ok(digest),
        _ => Err(format!("smoke run of {workload} with seed {seed} failed")),
    }
}

/// Every workload in its own process, then the cross-invocation determinism
/// check: two smoke runs of one seed agree on every exact value, another seed
/// does not.
fn all(opts: &Opts) -> Result<bool, String> {
    let mut correct = true;
    let mut parts = Vec::new();
    for workload in &WORKLOADS {
        let mut child = opts.clone();
        if let Some(out) = &opts.out {
            let part = PathBuf::from(format!("{}.{}", out.display(), workload.name));
            parts.push((workload.name, part.clone()));
            child.out = Some(part);
        }
        let (ok, _) = spawn_child(&child, workload.name, false)?;
        correct &= ok;
        println!();
    }
    for workload in &WORKLOADS {
        let first = smoke_digest(workload.name, opts.seed)?;
        let again = smoke_digest(workload.name, opts.seed)?;
        let other = smoke_digest(workload.name, opts.seed + 1)?;
        let ok = first == again && first != other;
        correct &= ok;
        println!(
            "check determinism.{} {} (seed {}: {first} and {again}; seed {}: {other})",
            workload.name,
            if ok { "ok" } else { "FAIL" },
            opts.seed,
            opts.seed + 1,
        );
    }
    if let Some(out) = &opts.out {
        // Each part is a complete JSON document, so splicing them is safe.
        let mut members = Vec::new();
        for (name, part) in &parts {
            let text =
                std::fs::read_to_string(part).map_err(|e| format!("{}: {e}", part.display()))?;
            members.push(format!(
                "{}:{}",
                Json::str(*name).render()?,
                text.trim_end()
            ));
            let _ = std::fs::remove_file(part);
        }
        let document = format!(
            "{{\"seed\":{},\"workloads\":{{{}}}}}\n",
            opts.seed,
            members.join(",")
        );
        std::fs::write(out, document).map_err(|e| format!("{}: {e}", out.display()))?;
    }
    Ok(correct)
}

/// Pins glibc malloc to one arena that never trims and never uses `mmap` below
/// 32 MiB, for `serve_pool_mixed` alone; the other workloads measure the default
/// allocator. Every response carries a dense per-vertex estimate, and the serve
/// pool starts fresh worker threads for every chunk. With the defaults —
/// thresholds that adapt to the order in which the first large blocks happen to
/// be freed, and an arena per thread taken from a free list — a
/// `serve_pool_mixed` process settles, by chance, either into reusing warm memory
/// or into faulting 160 MB back in for every chunk, and its throughput is
/// bimodal. Pinned, freed memory is always reused. README.md, "Allocator", has
/// the numbers.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    const M_ARENA_MAX: c_int = -8;
    // SAFETY: `mallopt` only stores the three tunables; it is called once, from
    // `single`, before this process has started any other thread.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, c_int::MAX);
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|opts| match &opts.workload {
        Some(name) => single(find_workload(name)?, &opts),
        None => all(&opts),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("frogbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(name: &str, seed: u64, trace: bool) -> Outcome {
        let opts = Opts {
            seed,
            smoke: true,
            seconds: 0.0,
            trace,
            ..Opts::default()
        };
        let workload = find_workload(name).expect("declared workload");
        run_workload(workload, &opts).expect("smoke run")
    }

    /// The tier-1 guard: every workload runs at smoke scale, passes its own
    /// checks, and between them the workloads produce every declared metric.
    #[test]
    fn smoke_runs_produce_every_declared_metric() {
        let mut seen: Vec<&str> = Vec::new();
        for workload in &WORKLOADS {
            let outcome = smoke(workload.name, 11, true);
            for check in &outcome.checks {
                assert!(
                    check.ok,
                    "{}: {} ({})",
                    workload.name, check.name, check.detail
                );
            }
            assert!(outcome.attempted >= 1 && outcome.failed == 0);
            for name in end_to_end_names() {
                let value = outcome.metrics.get(name);
                assert!(
                    value.is_some_and(|v| v.is_finite() && v > 0.0),
                    "{}: {name} = {value:?}",
                    workload.name
                );
            }
            for m in outcome.metrics.iter() {
                assert!(
                    m.value.is_finite(),
                    "{}: {} = {}",
                    workload.name,
                    m.name,
                    m.value
                );
                seen.push(m.name);
            }
            for traced in [false, true] {
                let opts = Opts {
                    trace: traced,
                    ..Opts::default()
                };
                let line = driver_line(&opts, &outcome, true).expect("finite metrics");
                assert!(
                    line.starts_with("{\"correct\":true,\"attempted\":"),
                    "{line}"
                );
            }
        }
        for name in end_to_end_names().into_iter().chain(per_layer_names()) {
            assert!(seen.contains(&name), "no workload produced {name}");
        }
    }

    #[test]
    fn exact_values_repeat_for_a_seed_and_differ_across_seeds() {
        for name in ["fw_topk_sweep", "ppr_index_stream"] {
            let first = exact_digest(&smoke(name, 11, false));
            assert_eq!(first, exact_digest(&smoke(name, 11, false)), "{name}");
            assert_ne!(first, exact_digest(&smoke(name, 12, false)), "{name}");
        }
    }

    /// `BENCHMARK.json` is written by hand; this keeps it naming exactly what the
    /// harness emits, with the unit and the direction declared in `metrics.rs`.
    #[test]
    fn benchmark_json_names_what_the_harness_emits() {
        let manifest = include_str!("../../../../../BENCHMARK.json");
        let mut expected = 0;
        for workload in &WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": ", workload.name);
            assert!(manifest.contains(&entry), "{}", workload.name);
            expected += 1;
        }
        for (name, unit, better) in metrics::declarations() {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(manifest.contains(&entry), "{entry}");
            expected += 1;
        }
        assert_eq!(manifest.matches("\"name\": ").count(), expected);
    }

    /// The non-comment lines of `[header]` in a manifest.
    fn section<'a>(manifest: &'a str, header: &str) -> Vec<&'a str> {
        manifest
            .lines()
            .skip_while(|line| line.trim() != header)
            .skip(1)
            .take_while(|line| !line.starts_with('['))
            .map(str::trim)
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .collect()
    }

    /// The package `BENCHMARK.json` builds must be the bin tier-1 builds: the
    /// workspace's release profile and the dependencies of `frogwild_bench`.
    #[test]
    fn own_manifest_follows_the_workspace() {
        let own = include_str!("Cargo.toml");
        let root = include_str!("../../../../../Cargo.toml");
        let bench = include_str!("../../../Cargo.toml");
        let profile = section(own, "[profile.release]");
        assert!(!profile.is_empty());
        assert_eq!(profile, section(root, "[profile.release]"));
        let names = |lines: Vec<&str>| -> Vec<String> {
            let name = |line: &str| line.split([' ', '.', '=']).next().map(str::to_string);
            lines.into_iter().filter_map(name).collect()
        };
        let dependencies = names(section(own, "[dependencies]"));
        assert!(!dependencies.is_empty());
        assert_eq!(dependencies, names(section(bench, "[dependencies]")));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let opts = parse_args(&args("--workload pr_dense --seed 7 --seconds 3 --trace 0"))
            .expect("driver arguments");
        assert_eq!(opts.workload.as_deref(), Some("pr_dense"));
        assert_eq!((opts.seed, opts.seconds, opts.trace), (7, 3.0, false));
        assert_eq!(parse_args(&args("--smoke")).expect("smoke").seconds, 0.0);
        assert!(parse_args(&args("--trace 2")).is_err());
        assert!(parse_args(&args("--seed")).is_err());
        assert!(parse_args(&args("--bogus 1")).is_err());
        assert!(find_workload("nope").is_err());
    }
}
