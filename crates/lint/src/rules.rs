//! The rule set: shallow token-pattern checks encoding the project invariants.
//!
//! Every rule is documented in [`RULES`] (`--list-rules` prints the table).
//! Rules never see comments or string contents — the lexer strips them — and
//! skip `#[cfg(test)]` regions. Findings can be suppressed by a
//! `// lint:allow(rule, reason)` on the same or the preceding line, or a
//! `// lint:allow-file(rule, reason)` anywhere in the file.

use crate::lexer::{lex, LexOutput, Token, TokenKind};
use std::collections::BTreeSet;

/// Machine name + one-line doc for one rule.
pub struct RuleInfo {
    pub name: &'static str,
    pub doc: &'static str,
}

/// The registry, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "hash-container",
        doc: "std HashMap/HashSet/DefaultHasher/RandomState in library code: iteration \
              order is nondeterministic, use BTreeMap/BTreeSet or sorted vecs",
    },
    RuleInfo {
        name: "timing",
        doc: "Instant::now/SystemTime/thread::current clock or thread-identity reads \
              outside the allowlisted timing modules (serve/latency, the obs clock \
              shim, bench, cli)",
    },
    RuleInfo {
        name: "span-guard",
        doc: "`let _ = ...span(...)` drops the tracing SpanGuard immediately, so the \
              span closes before the work it was meant to cover; bind it to a named \
              variable (`let _span = ...`)",
    },
    RuleInfo {
        name: "panic",
        doc: ".unwrap()/.expect()/panic!/unreachable!/todo!/unimplemented! in library \
              code: return a typed frogwild::Error or document with lint:allow",
    },
    RuleInfo {
        name: "indexing",
        doc: "slice/array indexing `x[..]` in library code can panic: prefer .get()/\
              iterators, or document the bounds invariant with lint:allow",
    },
    RuleInfo {
        name: "counter-arith",
        doc: "bare `+=`/`*=` or a narrowing `as` cast on a stat counter in an \
              accumulator file (metrics.rs/session.rs/serve): use saturating_*/try_from",
    },
    RuleInfo {
        name: "non-exhaustive-ctor",
        doc: "a #[non_exhaustive] pub struct/enum in crates/core has no public \
              constructor helper (pub fn returning Self, or Default/From/FromStr impl)",
    },
    RuleInfo {
        name: "orphan-pub",
        doc: "a pub fn/struct/enum/trait/type/const in crates/{graph,engine,obs,core}/src \
              whose name occurs nowhere else in non-test code of crates/*/src or examples/ \
              (a `use` re-export or a `mod` line is not a caller): delete it, or — when a \
              test uses it to check other code — mark it \
              `lint:allow(orphan-pub, oracle for <test name>)`",
    },
    RuleInfo {
        name: "forbidden",
        doc: "a token sequence a row of the FORBIDDEN table names, in the files that row \
              covers, more often than the row allows (engine addressing and pricing, set-up \
              path, graph construction, index arena, engine configuration, p_T, figures: \
              shapes a rewrite removed)",
    },
    RuleInfo {
        name: "allow-syntax",
        doc: "malformed lint:allow comment (missing reason), one naming an unknown rule, \
              or an orphan-pub allow whose reason is not `oracle for <test name>`",
    },
];

/// One row of [`FORBIDDEN`]: token sequences that may occur at most `at_most` times,
/// summed over `paths`, outside test regions.
pub struct Forbidden {
    /// Exact files, or directory prefixes ending in `/`.
    pub paths: &'static [&'static str],
    /// Source text, tokenised with [`lex`]. A pattern `lint:allow(<rule>` counts the
    /// allow directives naming `<rule>` instead of tokens.
    pub patterns: &'static [&'static str],
    pub at_most: usize,
    pub reason: &'static str,
}

const fn forbid(
    paths: &'static [&'static str],
    patterns: &'static [&'static str],
    reason: &'static str,
) -> Forbidden {
    Forbidden {
        paths,
        patterns,
        at_most: 0,
        reason,
    }
}

const ENGINE: &[&str] = &["crates/engine/src/engine.rs", "crates/engine/src/engine/"];
/// Every file that runs threads on the one pool: the engine, the walk-segment generator,
/// and the graph crate, whose pool module is the only place a thread is started and whose
/// reader and CSR build share it.
const ONE_POOL: &[&str] = &[
    "crates/engine/src/engine.rs",
    "crates/engine/src/engine/",
    "crates/engine/src/walkgen.rs",
    "crates/graph/src/",
];
/// The pool's files without the graph crate's generators, whose documented
/// preconditions keep panic allows of their own.
const ONE_POOL_PANICS: &[&str] = &[
    "crates/engine/src/engine.rs",
    "crates/engine/src/engine/",
    "crates/engine/src/walkgen.rs",
    "crates/graph/src/pool.rs",
];
const ENGINE_AND_CORE: &[&str] = &["crates/engine/src/", "crates/core/src/"];

/// The `forbidden` rule's table: shapes the engine, the set-up path, the walk index
/// and the figures were rewritten away from, kept from growing back one line at a time.
pub const FORBIDDEN: &[Forbidden] = &[
    // Engine addressing: a vertex is found through the placement table and the
    // vertex-indexed mailboxes, and each machine combines its own mail on the one pool.
    forbid(
        ENGINE,
        &[
            "BTreeMap",
            "btree_map::",
            "local_index(",
            "combine_by_destination",
            "sort_by_key",
        ],
        "address vertices through VertexPlacement slots and the vertex-indexed mailboxes; \
         combine messages by folding into them where they are produced or delivered",
    ),
    forbid(
        ENGINE,
        &[
            "fn scatter_batch",
            "extend(produced)",
            "fold_messages(outgoing",
            "outbox",
            ".sort_unstable(",
        ],
        "a machine's scatter is one unit that folds each emission into its lane's outgoing \
         slot where it is produced and reads its mail back ascending from the lane's \
         bitmap, and a frontier is read back ascending from the drain's bitmap: no outbox, \
         no sort, no scatter batches, no re-assembly",
    ),
    // Engine pricing: simulated time has one source.
    forbid(
        ENGINE,
        &[
            "CostModel",
            "finish_times",
            "watermarks",
            "machine_superstep_seconds",
            "superstep_seconds_hetero",
        ],
        "the engine counts, and metrics prices: one clock there turns each superstep's \
         per-machine profile into simulated seconds, barriered or pipelined",
    ),
    Forbidden {
        at_most: 1,
        ..forbid(
            ONE_POOL,
            &["std::thread::scope"],
            "one pool: run_batched is the only thread scope of the engine, the reader and \
             the CSR build",
        )
    },
    Forbidden {
        at_most: 1,
        ..forbid(
            ONE_POOL_PANICS,
            &["lint:allow(panic"],
            "the one allowed panic re-raises a worker-thread panic in run_batched",
        )
    },
    // Set-up path: each edge is touched a constant number of times and nothing is
    // searched for.
    forbid(
        &["crates/graph/src/io.rs"],
        &["BTreeMap", ".lines()"],
        "parse bytes from the reader's buffer and relabel through the one hash table; no \
         BTreeMap, no per-line String",
    ),
    Forbidden {
        at_most: 2,
        ..forbid(
            &["crates/graph/src/io.rs"],
            &["writeln!"],
            "the two header lines are formatted; an edge is spelled into the line buffer",
        )
    },
    // Graph construction: one contract (dense ids, duplicates collapsed on request,
    // sinks given a self-loop) and one way to add an edge.
    forbid(
        &["crates/", "examples/", "tests/"],
        &[
            "DanglingPolicy",
            "DanglingVertex",
            "remove_self_loops",
            "add_edge_unchecked",
        ],
        "GraphBuilder and the edge-list reader give every sink a self-loop and drop no \
         input self-loop, DiGraph::from_edges keeps sinks, and add_edge is checked at build",
    ),
    forbid(
        &["crates/graph/src/generators/rmat.rs"],
        &[".log2()", "else if r <"],
        "the recursion depth is integer arithmetic and the quadrant a count of thresholds \
         passed; no float logarithm, no branch chain",
    ),
    forbid(
        &["crates/engine/src/placement.rs"],
        &[".local_index("],
        "only validate may call local_index(; the build reads the slots VertexPlacement holds",
    ),
    // Index arena: one fixed-stride format, filled in place, and a stitcher that learns
    // everything about a vertex from its next slot.
    forbid(
        &[
            "crates/core/src/walkindex/storage.rs",
            "crates/core/src/walkindex/build.rs",
        ],
        &["offsets"],
        "segment (v, j) lives at (v * R + j) * L; the arena keeps no offsets table",
    ),
    forbid(
        &["crates/engine/src/walkgen.rs"],
        &["MachineSegments"],
        "machines write hops into their chunks of the arena; no per-machine batch type",
    ),
    Forbidden {
        at_most: 1,
        ..forbid(
            &["crates/core/src/walkindex/serve.rs"],
            &["out_degree("],
            "a sentinel in slot 0 already says the vertex is a sink",
        )
    },
    // Engine configuration: a setting exists only if production sets it, and a counter
    // has one record.
    forbid(
        &["crates/engine/src/lib.rs"],
        &["mod sync"],
        "mirror synchronisation is EngineConfig::sync_probability, a number",
    ),
    forbid(
        ENGINE_AND_CORE,
        &[
            "SyncPolicy",
            "AlgorithmKnobs",
            "batch_size",
            "dyn Partitioner",
            "trait Partitioner",
        ],
        "p_s is a probability, a partitioner is a PartitionerKind, the batch size is a \
         constant",
    ),
    forbid(
        ENGINE_AND_CORE,
        &[
            "WorkStats",
            "NetworkStats",
            "from_metrics",
            "total_cpu_seconds",
        ],
        "a superstep's counters are its QueryCost and a total is QueryCost::absorb; no \
         second stats type or fold",
    ),
    forbid(
        &["crates/engine/src/walkgen.rs", "crates/core/src/walkindex/"],
        &["parallel"],
        "set-up shares worker_threads(0): segment generation deals the machines out to the \
         host's threads, always; there is no parallel setting",
    ),
    forbid(
        &["crates/cli/src/"],
        &["parallel"],
        "--workers sizes the pool of every engine query; there is no parallel switch",
    ),
    Forbidden {
        at_most: 3,
        ..forbid(
            &["crates/core/src/"],
            &["parallel"],
            "ExecutionConfig::workers sizes the engine pool; PageRankConfig::parallel keeps \
             only its declaration, its Default and the driver's read until the benchmark \
             stops naming it (ROADMAP item 1(a)), and then goes",
        )
    },
    // Configuration: p_T is the paper's one constant, written once.
    Forbidden {
        at_most: 1,
        ..forbid(
            &[
                "crates/core/src/",
                "crates/engine/src/",
                "crates/cli/src/",
                "crates/bench/src/figures/",
                "crates/bench/src/workloads.rs",
            ],
            &["0.15"],
            "p_T is frogwild::config::TELEPORT; only its definition spells 0.15 (the oracles \
             and theory formulas take p_T as an argument)",
        )
    },
    // Figures: the evaluation is one grid of runs, and the Lab holds it.
    forbid(
        &["crates/bench/src/figures/"],
        &[
            "run_frogwild(",
            "run_graphlab_pr(",
            "run_sparsified_pr(",
            "partition_graph(",
            "PartitionedGraph::build(",
            "Session::builder(",
            "twitter_workload(",
            "livejournal_workload(",
        ],
        "a figure asks the Lab, which builds each workload and layout and runs each \
         experiment once",
    ),
];

impl Forbidden {
    fn covers(&self, path: &str) -> bool {
        self.paths
            .iter()
            .any(|p| path == *p || (p.ends_with('/') && path.starts_with(p)))
    }
}

/// Is `name` a registered rule?
pub fn known_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

/// Which crate a file belongs to, for rule scoping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// `crates/core` — all library rules plus the ctor rule.
    Core,
    /// `crates/engine` / `crates/graph` / `crates/obs` — all library rules.
    Engine,
    Graph,
    /// `crates/obs` — library rules; its clock shim is the one timing allowlist
    /// entry, every other module must stay wall-clock free.
    Obs,
    /// `crates/cli`, `crates/bench`, `crates/lint`, the root umbrella crate:
    /// binaries and dev tooling, exempt from the library rules.
    Tool,
    /// `examples/` — only the `forbidden` rows that name `examples/` run here; the
    /// files are otherwise read as evidence that a library item has a caller
    /// (`orphan-pub`).
    Example,
    /// Anything else (scratch files, fixtures): treated like `Core`, the
    /// strictest scope, so seeding a violation anywhere trips the lint.
    Unknown,
}

impl Scope {
    /// Classifies a workspace-relative path (forward slashes).
    pub fn classify(path: &str) -> Scope {
        if path.starts_with("crates/core/") {
            Scope::Core
        } else if path.starts_with("crates/engine/") {
            Scope::Engine
        } else if path.starts_with("crates/graph/") {
            Scope::Graph
        } else if path.starts_with("crates/obs/") {
            Scope::Obs
        } else if path.starts_with("crates/cli/")
            || path.starts_with("crates/bench/")
            || path.starts_with("crates/lint/")
            || path.starts_with("src/")
        {
            Scope::Tool
        } else if path.starts_with("examples/") {
            Scope::Example
        } else {
            Scope::Unknown
        }
    }

    fn library(self) -> bool {
        matches!(
            self,
            Scope::Core | Scope::Engine | Scope::Graph | Scope::Obs | Scope::Unknown
        )
    }

    fn ctor_rule(self) -> bool {
        matches!(self, Scope::Core | Scope::Unknown)
    }
}

/// One reported violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

/// A `#[non_exhaustive]` pub type declaration, pending the crate-level join.
#[derive(Clone, Debug)]
pub struct TypeDecl {
    pub name: String,
    pub path: String,
    pub line: u32,
    /// Suppressed by a lint:allow at the declaration.
    pub allowed: bool,
}

/// A `pub` item declared in library code, pending the workspace-level
/// `orphan-pub` join.
#[derive(Clone, Debug)]
pub struct PubDecl {
    pub name: String,
    pub path: String,
    pub line: u32,
    pub col: u32,
    /// Suppressed by a lint:allow at the declaration.
    pub allowed: bool,
}

/// Everything one file's analysis produces.
#[derive(Debug, Default)]
pub struct FileReport {
    pub findings: Vec<Finding>,
    /// Declarations feeding the crate-level `non-exhaustive-ctor` join.
    pub non_exhaustive: Vec<TypeDecl>,
    /// Type names this file provides public-constructor evidence for.
    pub ctor_evidence: Vec<String>,
    /// Declarations feeding the workspace-level `orphan-pub` join.
    pub pub_decls: Vec<PubDecl>,
    /// Every identifier this file uses outside test regions, the names its own
    /// `pub_decls` declare excepted: the `orphan-pub` evidence.
    pub referenced: BTreeSet<String>,
    /// Occurrences of [`FORBIDDEN`] patterns, pending the per-row count.
    pub forbidden: Vec<ForbiddenHit>,
}

/// One unsuppressed occurrence of a pattern of `FORBIDDEN[row]`.
#[derive(Clone, Debug)]
pub struct ForbiddenHit {
    pub row: usize,
    pub pattern: &'static str,
    pub path: String,
    pub line: u32,
    pub col: u32,
}

/// Keywords that may directly precede `[` without forming an index expression.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "trait", "type", "unsafe", "use", "where", "while",
    "yield",
];

/// Narrowing targets for the lossy-cast half of `counter-arith`.
const NARROW_CASTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// Timing-rule allowlist: modules whose whole purpose is wall-clock telemetry.
/// Exactly two entries: the serving latency histograms, and the obs crate's clock
/// shim — the single place in the tracing stack allowed to read the host clock.
fn timing_allowlisted(path: &str) -> bool {
    path.ends_with("serve/latency.rs") || path.ends_with("obs/src/clock.rs")
}

/// Does the `counter-arith` rule apply to this file? The accumulator surface:
/// the metrics modules (the engine's holds the cost record and its one sum), the
/// session stats, and the serving front-end (the `serve/` module directory —
/// `walkindex/serve.rs` is walk math, not counter accumulation, and stays under the
/// general library rules only).
pub fn is_accumulator_file(path: &str) -> bool {
    let file = path.rsplit('/').next().unwrap_or(path);
    matches!(file, "metrics.rs" | "session.rs") || path.contains("/serve/")
}

/// Analyzes one file. `path` must be workspace-relative with forward slashes.
pub fn analyze_file(path: &str, scope: Scope, src: &str) -> FileReport {
    let lexed = lex(src);
    let mut report = FileReport::default();
    if scope == Scope::Example {
        collect_references(path, scope, &lexed, &mut report);
        collect_forbidden(path, &lexed, &mut report);
        return report;
    }

    for bad in &lexed.bad_allows {
        report.findings.push(Finding {
            rule: "allow-syntax",
            path: path.to_string(),
            line: bad.line,
            col: 1,
            message: bad.problem.clone(),
        });
    }
    for allow in &lexed.allows {
        let problem = if !known_rule(&allow.rule) {
            format!("lint:allow names unknown rule `{}`", allow.rule)
        } else if allow.rule == "orphan-pub" && !allow.reason.starts_with("oracle for ") {
            "an orphan-pub allow names the test that needs the item: \
             `lint:allow(orphan-pub, oracle for <test name>)`"
                .to_string()
        } else {
            continue;
        };
        report.findings.push(Finding {
            rule: "allow-syntax",
            path: path.to_string(),
            line: allow.line,
            col: 1,
            message: problem,
        });
    }

    if scope.library() {
        hash_container(path, &lexed, &mut report);
        if !timing_allowlisted(path) {
            timing(path, &lexed, &mut report);
        }
        panic_freedom(path, &lexed, &mut report);
        indexing(path, &lexed, &mut report);
    }
    // A dropped-on-arrival span guard is a tracing bug in any scope, binaries
    // and benches included — the CLI and bench harness open spans too.
    span_guard(path, &lexed, &mut report);
    if scope.library() && is_accumulator_file(path) {
        counter_arith(path, &lexed, &mut report);
    }
    if scope.ctor_rule() {
        collect_non_exhaustive(path, &lexed, &mut report);
    }
    collect_ctor_evidence(&lexed, &mut report);
    collect_references(path, scope, &lexed, &mut report);
    collect_forbidden(path, &lexed, &mut report);

    // Apply lint:allow suppression (except to allow-syntax itself).
    report
        .findings
        .retain(|f| f.rule == "allow-syntax" || !allowed(&lexed, f.rule, f.line));
    report
}

/// Does a `lint:allow(rule, ..)` on `line` or the line before, or a file-level one,
/// suppress `rule` there?
fn allowed(lexed: &LexOutput, rule: &str, line: u32) -> bool {
    lexed
        .allows
        .iter()
        .any(|a| a.rule == rule && (a.file_level || a.line == line || a.line + 1 == line))
}

/// Crate-level join for `non-exhaustive-ctor`: every declared type must appear
/// in some file's constructor evidence.
pub fn finish_ctor_rule(decls: &[TypeDecl], evidence: &[String]) -> Vec<Finding> {
    decls
        .iter()
        .filter(|d| !d.allowed && !evidence.iter().any(|e| e == &d.name))
        .map(|d| Finding {
            rule: "non-exhaustive-ctor",
            path: d.path.clone(),
            line: d.line,
            col: 1,
            message: format!(
                "#[non_exhaustive] pub type `{}` has no public constructor helper \
                 (pub fn returning Self, or a Default/From/FromStr impl)",
                d.name
            ),
        })
        .collect()
}

/// Workspace-level join for `orphan-pub`: a declared name must be used somewhere —
/// in any scanned file, outside test regions, other than where it is declared.
/// Name-based on purpose: two items sharing a name vouch for each other.
pub fn finish_orphan_rule(decls: &[PubDecl], referenced: &BTreeSet<String>) -> Vec<Finding> {
    decls
        .iter()
        .filter(|d| !d.allowed && !referenced.contains(&d.name))
        .map(|d| Finding {
            rule: "orphan-pub",
            path: d.path.clone(),
            line: d.line,
            col: d.col,
            message: format!(
                "pub item `{}` has no non-test caller in crates/*/src or examples/: delete \
                 it, or mark a test oracle `lint:allow(orphan-pub, oracle for <test name>)`",
                d.name
            ),
        })
        .collect()
}

/// Workspace-level join for `forbidden`: each row's occurrences, in (path, line)
/// order, past the first `at_most` are findings.
pub fn finish_forbidden_rule(hits: &[ForbiddenHit]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (row, rule) in FORBIDDEN.iter().enumerate() {
        let mut mine: Vec<&ForbiddenHit> = hits.iter().filter(|h| h.row == row).collect();
        mine.sort_by_key(|h| (&h.path, h.line, h.col));
        let found = mine.len();
        for h in mine.into_iter().skip(rule.at_most) {
            findings.push(Finding {
                rule: "forbidden",
                path: h.path.clone(),
                line: h.line,
                col: h.col,
                message: format!(
                    "`{}` in {}: {found} found, at most {} allowed; {}",
                    h.pattern,
                    rule.paths.join(" + "),
                    rule.at_most,
                    rule.reason
                ),
            });
        }
    }
    findings
}

/// Records every occurrence, outside test regions, of a pattern of each
/// [`FORBIDDEN`] row that covers `path`, unless a `lint:allow(forbidden, ..)`
/// suppresses it.
fn collect_forbidden(path: &str, lexed: &LexOutput, report: &mut FileReport) {
    let toks = &lexed.tokens;
    for (row, rule) in FORBIDDEN.iter().enumerate() {
        if !rule.covers(path) {
            continue;
        }
        for &pattern in rule.patterns {
            let at: Vec<(u32, u32)> = match pattern.strip_prefix("lint:allow(") {
                Some(name) => {
                    let directive_in_test = |line: u32| {
                        let next = toks.partition_point(|t| t.span.line < line);
                        lexed.in_test.get(next).copied().unwrap_or(false)
                    };
                    (lexed.allows.iter())
                        .filter(|a| a.rule == name && !directive_in_test(a.line))
                        .map(|a| (a.line, 1))
                        .collect()
                }
                None => {
                    let want: Vec<String> =
                        lex(pattern).tokens.into_iter().map(|t| t.text).collect();
                    live(lexed)
                        .filter(|(i, _)| {
                            toks.get(*i..i + want.len())
                                .is_some_and(|w| w.iter().map(|t| &t.text).eq(want.iter()))
                        })
                        .map(|(_, t)| (t.span.line, t.span.col))
                        .collect()
                }
            };
            for (line, col) in at {
                if !allowed(lexed, "forbidden", line) {
                    report.forbidden.push(ForbiddenHit {
                        row,
                        pattern,
                        path: path.to_string(),
                        line,
                        col,
                    });
                }
            }
        }
    }
}

fn live(lexed: &LexOutput) -> impl Iterator<Item = (usize, &Token)> {
    lexed
        .tokens
        .iter()
        .enumerate()
        .filter(|(i, _)| !lexed.in_test.get(*i).copied().unwrap_or(false))
}

fn finding(report: &mut FileReport, rule: &'static str, path: &str, tok: &Token, message: String) {
    report.findings.push(Finding {
        rule,
        path: path.to_string(),
        line: tok.span.line,
        col: tok.span.col,
        message,
    });
}

fn hash_container(path: &str, lexed: &LexOutput, report: &mut FileReport) {
    for (_, tok) in live(lexed) {
        if tok.kind == TokenKind::Ident
            && matches!(
                tok.text.as_str(),
                "HashMap" | "HashSet" | "DefaultHasher" | "RandomState"
            )
        {
            finding(
                report,
                "hash-container",
                path,
                tok,
                format!(
                    "`{}` has nondeterministic iteration order; use BTreeMap/BTreeSet \
                     or a sorted vec",
                    tok.text
                ),
            );
        }
    }
}

fn timing(path: &str, lexed: &LexOutput, report: &mut FileReport) {
    let toks = &lexed.tokens;
    for (i, tok) in live(lexed) {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let follows = |a: usize, text: &str| toks.get(i + a).is_some_and(|t| t.text == text);
        let hit = match tok.text.as_str() {
            "Instant" => follows(1, "::") && follows(2, "now"),
            "SystemTime" => true,
            "thread" => follows(1, "::") && follows(2, "current"),
            _ => false,
        };
        if hit {
            finding(
                report,
                "timing",
                path,
                tok,
                format!(
                    "`{}` reads the wall clock / thread identity outside an allowlisted \
                     timing module; results must not depend on it",
                    tok.text
                ),
            );
        }
    }
}

fn panic_freedom(path: &str, lexed: &LexOutput, report: &mut FileReport) {
    let toks = &lexed.tokens;
    for (i, tok) in live(lexed) {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let next_is = |text: &str| toks.get(i + 1).is_some_and(|t| t.text == text);
        let prev_is_dot = i > 0 && toks[i - 1].text == ".";
        let hit = match tok.text.as_str() {
            "unwrap" | "expect" => prev_is_dot && next_is("("),
            "panic" | "unreachable" | "todo" | "unimplemented" => next_is("!"),
            _ => false,
        };
        if hit {
            finding(
                report,
                "panic",
                path,
                tok,
                format!(
                    "`{}` can panic in library code; return a typed Error or document \
                     the invariant with lint:allow(panic, reason)",
                    tok.text
                ),
            );
        }
    }
}

fn indexing(path: &str, lexed: &LexOutput, report: &mut FileReport) {
    let toks = &lexed.tokens;
    for (i, tok) in live(lexed) {
        if tok.text != "[" || i == 0 {
            continue;
        }
        let prev = &toks[i - 1];
        let index_expr = match prev.kind {
            TokenKind::Ident => !KEYWORDS.contains(&prev.text.as_str()),
            TokenKind::Punct => prev.text == ")" || prev.text == "]",
            _ => false,
        };
        if index_expr {
            finding(
                report,
                "indexing",
                path,
                tok,
                "indexing can panic on out-of-bounds; use .get()/iterators or document \
                 the bounds invariant with lint:allow(indexing, reason)"
                    .to_string(),
            );
        }
    }
}

/// Flags `let _ = ...span(...)...;` — the `_` pattern drops the returned
/// [`SpanGuard`] immediately, so the span closes before the work it was meant
/// to cover and records (near-)zero duration. The scan walks the initializer
/// up to the statement's top-level `;` looking for a `span` call.
fn span_guard(path: &str, lexed: &LexOutput, report: &mut FileReport) {
    let toks = &lexed.tokens;
    for (i, tok) in live(lexed) {
        if tok.kind != TokenKind::Ident
            || tok.text != "let"
            || toks.get(i + 1).is_none_or(|t| t.text != "_")
            || toks.get(i + 2).is_none_or(|t| t.text != "=")
        {
            continue;
        }
        let mut depth = 0i32;
        for t in &toks[i + 3..] {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth <= 0 => break,
                "span" if t.kind == TokenKind::Ident => {
                    finding(
                        report,
                        "span-guard",
                        path,
                        tok,
                        "`let _ = ...span(...)` drops the span guard immediately and \
                         records an empty span; bind it to a named variable so it \
                         covers the traced work"
                            .to_string(),
                    );
                    break;
                }
                _ => {}
            }
        }
    }
}

fn counter_arith(path: &str, lexed: &LexOutput, report: &mut FileReport) {
    let toks = &lexed.tokens;
    for (i, tok) in live(lexed) {
        if tok.text == "+=" || tok.text == "*=" {
            if let Some(field) = lhs_field(toks, i) {
                // Float telemetry (everything `*seconds*` here) cannot wrap.
                if field.contains("seconds") || field.contains("factor") {
                    continue;
                }
            }
            finding(
                report,
                "counter-arith",
                path,
                tok,
                format!(
                    "bare `{}` on a stat counter can overflow; use saturating_add/\
                     saturating_mul (PR 7 saturation contract)",
                    tok.text
                ),
            );
        } else if tok.kind == TokenKind::Ident
            && tok.text == "as"
            && toks
                .get(i + 1)
                .is_some_and(|t| NARROW_CASTS.contains(&t.text.as_str()))
        {
            let target = &toks[i + 1].text;
            finding(
                report,
                "counter-arith",
                path,
                tok,
                format!(
                    "narrowing `as {target}` cast in an accumulator file silently \
                     truncates counters; use try_from or widen the target"
                ),
            );
        }
    }
}

/// Walks back from an `op=` token to the field identifier being assigned,
/// skipping one trailing `[...]` index group (`buckets[i] += 1`).
fn lhs_field(toks: &[Token], op: usize) -> Option<String> {
    let mut i = op.checked_sub(1)?;
    if toks[i].text == "]" {
        let mut depth = 1usize;
        while depth > 0 {
            i = i.checked_sub(1)?;
            match toks[i].text.as_str() {
                "]" => depth += 1,
                "[" => depth -= 1,
                _ => {}
            }
        }
        i = i.checked_sub(1)?;
    }
    (toks[i].kind == TokenKind::Ident).then(|| toks[i].text.clone())
}

fn collect_non_exhaustive(path: &str, lexed: &LexOutput, report: &mut FileReport) {
    let toks = &lexed.tokens;
    for (i, tok) in live(lexed) {
        if tok.text != "non_exhaustive" {
            continue;
        }
        // Walk forward past the closing `]` and any further attributes to the
        // item header; require `pub struct X` / `pub enum X`.
        let mut j = i + 1;
        while j < toks.len() && toks[j].text != "]" {
            j += 1;
        }
        j += 1;
        // Skip stacked attributes (`#[derive(..)]` etc).
        while j + 1 < toks.len() && toks[j].text == "#" && toks[j + 1].text == "[" {
            let mut depth = 0usize;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            j += 1;
        }
        if toks.get(j).is_none_or(|t| t.text != "pub") {
            continue;
        }
        let mut k = j + 1;
        while k < toks.len() && !matches!(toks[k].text.as_str(), "struct" | "enum") {
            // Past visibility modifiers like `pub(crate)` (which we already
            // treat as non-pub for rule purposes) — bail on anything else.
            if !matches!(toks[k].text.as_str(), "(" | ")" | "crate" | "super" | "in") {
                break;
            }
            k += 1;
        }
        if !toks
            .get(k)
            .is_some_and(|t| matches!(t.text.as_str(), "struct" | "enum"))
        {
            continue;
        }
        let Some(name_tok) = toks.get(k + 1) else {
            continue;
        };
        report.non_exhaustive.push(TypeDecl {
            name: name_tok.text.clone(),
            path: path.to_string(),
            line: tok.span.line,
            allowed: allowed(lexed, "non-exhaustive-ctor", tok.span.line),
        });
    }
}

/// The `orphan-pub` inputs of one file: its `pub fn|struct|enum|trait|type|const`
/// declarations (library scopes only; `pub(crate)` and friends are not public) and
/// every other identifier it uses outside test regions, `use` items and `mod` names.
fn collect_references(path: &str, scope: Scope, lexed: &LexOutput, report: &mut FileReport) {
    let toks = &lexed.tokens;
    let text = |i: usize| toks.get(i).map_or("", |t| t.text.as_str());
    let mut declared_at = BTreeSet::new();
    if scope.library() {
        for (i, tok) in live(lexed) {
            if tok.kind != TokenKind::Ident || tok.text != "pub" {
                continue;
            }
            let mut j = i + 1;
            while matches!(text(j), "const" | "async" | "unsafe")
                && matches!(text(j + 1), "fn" | "async" | "unsafe")
            {
                j += 1;
            }
            if !matches!(
                text(j),
                "fn" | "struct" | "enum" | "trait" | "type" | "const"
            ) {
                continue;
            }
            let Some(name) = toks.get(j + 1).filter(|t| t.kind == TokenKind::Ident) else {
                continue;
            };
            declared_at.insert(j + 1);
            report.pub_decls.push(PubDecl {
                name: name.text.clone(),
                path: path.to_string(),
                line: tok.span.line,
                col: tok.span.col,
                allowed: allowed(lexed, "orphan-pub", tok.span.line),
            });
        }
    }
    // A `use …;` item and the name of a `mod` declaration say where an item lives,
    // not that anything calls it: neither is evidence.
    let mut in_use = false;
    for (i, tok) in live(lexed) {
        match tok.text.as_str() {
            "use" if tok.kind == TokenKind::Ident => in_use = true,
            ";" => in_use = false,
            _ => {}
        }
        let names_a_module = i > 0 && text(i - 1) == "mod";
        if tok.kind == TokenKind::Ident && !in_use && !names_a_module && !declared_at.contains(&i) {
            report.referenced.insert(tok.text.clone());
        }
    }
}

/// Records, for every `impl` block, whether it provides constructor evidence:
/// an inherent `pub fn` returning `Self`/the type, or a `Default`/`From`/
/// `FromStr` trait impl.
fn collect_ctor_evidence(lexed: &LexOutput, report: &mut FileReport) {
    let toks = &lexed.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if tok.text != "impl" || tok.kind != TokenKind::Ident {
            continue;
        }
        let mut j = i + 1;
        // Skip `impl<...>` generics (the lexer may fuse `>>`).
        if toks.get(j).is_some_and(|t| t.text == "<") {
            let mut depth = 0i32;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "<" => depth += 1,
                    ">" => depth -= 1,
                    "<<" => depth += 2,
                    ">>" => depth -= 2,
                    _ => {}
                }
                j += 1;
                if depth <= 0 {
                    break;
                }
            }
        }
        // Header: everything up to `{` / `where`; split on a depth-0 `for`.
        let mut header: Vec<&Token> = Vec::new();
        let mut for_at: Option<usize> = None;
        let mut depth = 0i32;
        let mut body_open = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "{" => {
                    body_open = Some(j);
                    break;
                }
                "where" if depth == 0 => break,
                ";" if depth == 0 => break,
                "<" => depth += 1,
                ">" => depth -= 1,
                "<<" => depth += 2,
                ">>" => depth -= 2,
                "for" if depth == 0 => for_at = Some(header.len()),
                _ => {}
            }
            header.push(&toks[j]);
            j += 1;
        }
        let (trait_part, type_part) = match for_at {
            Some(pos) => (&header[..pos], &header[pos + 1..]),
            None => (&header[..0], &header[..]),
        };
        let Some(type_name) = last_depth0_ident(type_part) else {
            continue;
        };
        if for_at.is_some() {
            if let Some(trait_name) = last_depth0_ident(trait_part) {
                if matches!(trait_name.as_str(), "Default" | "From" | "FromStr") {
                    report.ctor_evidence.push(type_name);
                }
            }
            continue;
        }
        // Inherent impl: scan the body for `pub fn .. -> ..Self/Type..`.
        let Some(open) = body_open else { continue };
        let close = matching_brace(toks, open);
        if inherent_ctor_in_body(toks, open + 1, close, &type_name) {
            report.ctor_evidence.push(type_name);
        }
    }
}

/// The last identifier at angle-depth 0 — the final path segment of a type or
/// trait expression, generics stripped.
fn last_depth0_ident(part: &[&Token]) -> Option<String> {
    let mut depth = 0i32;
    let mut name = None;
    for t in part {
        match t.text.as_str() {
            "<" => depth += 1,
            ">" => depth -= 1,
            "<<" => depth += 2,
            ">>" => depth -= 2,
            _ => {
                if depth == 0 && t.kind == TokenKind::Ident {
                    name = Some(t.text.clone());
                }
            }
        }
    }
    name
}

fn matching_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    toks.len()
}

fn inherent_ctor_in_body(toks: &[Token], start: usize, end: usize, type_name: &str) -> bool {
    let mut i = start;
    while i < end {
        if toks[i].text != "pub" {
            i += 1;
            continue;
        }
        // `pub(crate)` and friends are not public API.
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.text == "(") {
            i += 1;
            continue;
        }
        while j < end
            && matches!(
                toks[j].text.as_str(),
                "const" | "async" | "unsafe" | "extern"
            )
        {
            j += 1;
        }
        if toks.get(j).is_none_or(|t| t.text != "fn") {
            i += 1;
            continue;
        }
        // Return type: tokens between `->` and the body `{` (or `;`/`where`).
        let mut k = j;
        let mut arrow = None;
        let mut depth = 0i32;
        while k < end {
            match toks[k].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "->" if depth == 0 => arrow = Some(k),
                "{" | ";" if depth == 0 => break,
                "where" if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        if let Some(a) = arrow {
            let returns = &toks[a + 1..k];
            if returns
                .iter()
                .any(|t| t.text == "Self" || t.text == type_name)
            {
                return true;
            }
        }
        i = k.max(i + 1);
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, scope: Scope, src: &str) -> Vec<Finding> {
        analyze_file(path, scope, src).findings
    }

    fn rules_of(f: &[Finding]) -> Vec<&'static str> {
        f.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn hash_container_flags_maps_and_hashers() {
        let src = "use std::collections::{HashMap, HashSet};\n\
                   use std::hash::RandomState;\nfn f() { let h = DefaultHasher::new(); }";
        let f = findings("crates/core/src/x.rs", Scope::Core, src);
        let hashes: Vec<_> = f.iter().filter(|x| x.rule == "hash-container").collect();
        assert_eq!(hashes.len(), 4);
        assert_eq!(hashes[0].line, 1);
    }

    #[test]
    fn hash_container_ignores_btree_and_test_mods() {
        let src = "use std::collections::BTreeMap;\n\
                   #[cfg(test)]\nmod tests { use std::collections::HashMap; }";
        let f = findings("crates/graph/src/x.rs", Scope::Graph, src);
        assert!(!rules_of(&f).contains(&"hash-container"), "{f:?}");
    }

    #[test]
    fn timing_flags_clock_reads_but_not_type_positions() {
        let src = "fn f(started: Instant) { let t = Instant::now(); \
                   let s = SystemTime::now(); let id = std::thread::current().id(); }";
        let f = findings("crates/core/src/x.rs", Scope::Core, src);
        let timing: Vec<_> = f.iter().filter(|x| x.rule == "timing").collect();
        assert_eq!(timing.len(), 3, "{timing:?}");
    }

    #[test]
    fn timing_allowlists_latency_module_and_tools() {
        let src = "fn f() { let t = Instant::now(); }";
        assert!(findings("crates/core/src/serve/latency.rs", Scope::Core, src).is_empty());
        assert!(findings("crates/cli/src/main.rs", Scope::Tool, src).is_empty());
        assert!(findings("crates/bench/src/lib.rs", Scope::Tool, src).is_empty());
    }

    #[test]
    fn timing_allowlists_exactly_the_obs_clock_shim() {
        let src = "fn f() { let t = Instant::now(); }";
        assert!(findings("crates/obs/src/clock.rs", Scope::Obs, src).is_empty());
        // Every other obs module stays under the timing rule.
        let f = findings("crates/obs/src/sink.rs", Scope::Obs, src);
        assert!(rules_of(&f).contains(&"timing"), "{f:?}");
    }

    #[test]
    fn span_guard_flags_discarded_guards_in_every_scope() {
        let src = "fn f(sink: &SpanSink) { let _ = sink.span(META, key); }";
        for (path, scope) in [
            ("crates/core/src/session.rs", Scope::Core),
            ("crates/cli/src/main.rs", Scope::Tool),
            ("crates/obs/src/lib.rs", Scope::Obs),
        ] {
            let f = findings(path, scope, src);
            assert!(rules_of(&f).contains(&"span-guard"), "{path}: {f:?}");
        }
    }

    #[test]
    fn span_guard_accepts_named_bindings_and_unrelated_discards() {
        let src = "fn f(sink: &SpanSink) { let _span = sink.span(META, key); \
                   let _ = tx.send(x); let _ = span_meta_count; }";
        let f = findings("crates/core/src/x.rs", Scope::Core, src);
        assert!(!rules_of(&f).contains(&"span-guard"), "{f:?}");
    }

    #[test]
    fn span_guard_scan_stops_at_the_statement_boundary() {
        // The `span` call in the *next* statement must not blame the first `let _`.
        let src = "fn f(sink: &SpanSink) { let _ = unrelated(); \
                   let s = sink.span(META, key); }";
        let f = findings("crates/core/src/x.rs", Scope::Core, src);
        assert!(!rules_of(&f).contains(&"span-guard"), "{f:?}");
    }

    #[test]
    fn panic_rule_flags_methods_and_macros() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"b\"); unreachable!(); \
                   todo!(); unimplemented!(); }";
        let f = findings("crates/engine/src/x.rs", Scope::Engine, src);
        assert_eq!(f.iter().filter(|x| x.rule == "panic").count(), 6);
    }

    #[test]
    fn panic_rule_skips_lookalikes() {
        // unwrap_or* are total; `should_panic` is an ident of its own; a path
        // mention of the panic module is not an invocation.
        let src = "fn f() { x.unwrap_or(0); x.unwrap_or_else(|| 1); x.unwrap_or_default(); \
                   std::panic::catch_unwind(|| 2); }";
        let f = findings("crates/core/src/x.rs", Scope::Core, src);
        assert!(!rules_of(&f).contains(&"panic"), "{f:?}");
    }

    #[test]
    fn indexing_flags_expressions_not_types_or_macros() {
        let src = "fn f(a: [u8; 4], v: &[u64]) -> Vec<u8> { let x = v[0]; let y = g()[1]; \
                   let z = m[0][1]; let w = vec![1, 2]; let s = &v[1..]; a.to_vec() }";
        let f = findings("crates/graph/src/x.rs", Scope::Graph, src);
        // v[0], g()[1], m[0], [1] after m[0], v[1..] — five index expressions.
        assert_eq!(
            f.iter().filter(|x| x.rule == "indexing").count(),
            5,
            "{f:?}"
        );
    }

    #[test]
    fn indexing_skips_patterns_and_attributes() {
        let src = "#[derive(Debug)]\nstruct S;\nfn f(x: &[u8]) { if let [a, b] = x { } }";
        let f = findings("crates/core/src/x.rs", Scope::Core, src);
        assert!(!rules_of(&f).contains(&"indexing"), "{f:?}");
    }

    #[test]
    fn counter_arith_flags_bare_add_but_not_float_seconds() {
        let src = "fn f(s: &mut Stats) { s.served += 1; s.busy_seconds += 0.5; \
                   s.buckets[i] += 1; s.total = s.total.saturating_add(2); }";
        let f = findings("crates/core/src/session.rs", Scope::Core, src);
        assert_eq!(
            f.iter().filter(|x| x.rule == "counter-arith").count(),
            2,
            "{f:?}"
        );
    }

    #[test]
    fn counter_arith_only_applies_to_accumulator_files() {
        let src = "fn f(x: &mut u64) { *x += 1; }";
        let f = findings("crates/core/src/topk.rs", Scope::Core, src);
        assert!(!rules_of(&f).contains(&"counter-arith"), "{f:?}");
        // walkindex/serve.rs is walk math, not the serve/ accumulator module.
        let f = findings("crates/core/src/walkindex/serve.rs", Scope::Core, src);
        assert!(!rules_of(&f).contains(&"counter-arith"), "{f:?}");
        for path in [
            "crates/core/src/serve/pool.rs",
            "crates/engine/src/metrics.rs",
        ] {
            let f = findings(path, Scope::Core, src);
            assert!(rules_of(&f).contains(&"counter-arith"), "{path}: {f:?}");
        }
    }

    #[test]
    fn counter_arith_flags_narrowing_casts() {
        let src = "fn f(n: u64) -> u32 { n as u32 }\nfn g(n: u64) -> f64 { n as f64 }";
        let f = findings("crates/engine/src/metrics.rs", Scope::Engine, src);
        let casts: Vec<_> = f.iter().filter(|x| x.rule == "counter-arith").collect();
        assert_eq!(casts.len(), 1, "{casts:?}");
        assert!(casts[0].message.contains("as u32"));
    }

    #[test]
    fn ctor_rule_passes_with_pub_fn_returning_self() {
        let src = "#[non_exhaustive]\npub struct Q { pub k: usize }\n\
                   impl Q { pub fn top_k(k: usize) -> Self { Q { k } } }";
        let r = analyze_file("crates/core/src/x.rs", Scope::Core, src);
        let f = finish_ctor_rule(&r.non_exhaustive, &r.ctor_evidence);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn ctor_rule_accepts_default_and_from_impls() {
        let src = "#[non_exhaustive]\n#[derive(Debug)]\npub enum E { A }\n\
                   impl Default for E { fn default() -> Self { E::A } }";
        let r = analyze_file("crates/core/src/x.rs", Scope::Core, src);
        let f = finish_ctor_rule(&r.non_exhaustive, &r.ctor_evidence);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn ctor_rule_flags_missing_constructor() {
        let src = "#[non_exhaustive]\npub struct R { pub v: u64 }\n\
                   impl R { pub fn value(&self) -> u64 { self.v } }";
        let r = analyze_file("crates/core/src/x.rs", Scope::Core, src);
        let f = finish_ctor_rule(&r.non_exhaustive, &r.ctor_evidence);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "non-exhaustive-ctor");
        assert_eq!(f[0].line, 1);
        assert!(f[0].message.contains("`R`"));
    }

    #[test]
    fn ctor_rule_ignores_pub_crate_fn_and_getters() {
        let src = "#[non_exhaustive]\npub struct R;\n\
                   impl R { pub(crate) fn new() -> Self { R } }";
        let r = analyze_file("crates/core/src/x.rs", Scope::Core, src);
        let f = finish_ctor_rule(&r.non_exhaustive, &r.ctor_evidence);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn ctor_evidence_joins_across_files() {
        let decl = analyze_file(
            "crates/core/src/a.rs",
            Scope::Core,
            "#[non_exhaustive]\npub struct T;",
        );
        let ctor = analyze_file(
            "crates/core/src/b.rs",
            Scope::Core,
            "impl T { pub fn new() -> T { T } }",
        );
        let f = finish_ctor_rule(&decl.non_exhaustive, &ctor.ctor_evidence);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn orphan_rule_collects_pub_items_of_every_kind_but_not_restricted_ones() {
        let src = "pub fn a() {}\npub const fn b() {}\npub struct S;\npub enum E {}\n\
                   pub trait T {}\npub type Y = u8;\npub const C: u8 = 0;\n\
                   pub(crate) fn hidden() {}\npub mod m {}\npub use x::z;\nfn private() {}\n\
                   #[cfg(test)]\nmod tests { pub fn helper() {} }";
        let r = analyze_file("crates/graph/src/x.rs", Scope::Graph, src);
        let names: Vec<&str> = r.pub_decls.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "S", "E", "T", "Y", "C"]);
        assert_eq!(r.pub_decls[1].line, 2);
        // A declaration does not vouch for itself, and neither a `use` item nor the
        // name of a module vouches for anything; every other use does.
        assert!(!r.referenced.contains("a"));
        assert!(r.referenced.contains("hidden") && r.referenced.contains("private"));
        assert!(["x", "z", "m", "tests"]
            .iter()
            .all(|n| !r.referenced.contains(*n)));
        assert!(!r.referenced.contains("helper"));
        // Tool crates declare nothing, but still supply evidence.
        let tool = analyze_file("crates/cli/src/x.rs", Scope::Tool, "pub fn run() { a(); }");
        assert!(tool.pub_decls.is_empty());
        assert!(tool.referenced.contains("a") && tool.referenced.contains("run"));
    }

    #[test]
    fn orphan_rule_flags_unreferenced_names_and_honours_oracle_allows() {
        let src = "pub fn used() {}\npub fn unused() {}\n\
                   // lint:allow(orphan-pub, oracle for some_test)\npub fn oracle() {}\n\
                   fn f() { used(); }";
        let r = analyze_file("crates/core/src/x.rs", Scope::Core, src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        let f = finish_orphan_rule(&r.pub_decls, &r.referenced);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].rule, f[0].line, f[0].col), ("orphan-pub", 2, 1));
        assert!(f[0].message.contains("`unused`"));
    }

    #[test]
    fn orphan_allow_without_an_oracle_is_malformed() {
        let src = "// lint:allow(orphan-pub, might be handy later)\npub fn spare() {}";
        let f = findings("crates/core/src/x.rs", Scope::Core, src);
        assert_eq!(rules_of(&f), ["allow-syntax"]);
        assert!(f[0].message.contains("oracle for"));
    }

    #[test]
    fn examples_are_evidence_only() {
        let src = "fn main() { let h = HashMap::new(); x.unwrap(); let _ = s.span(M, k); }";
        let r = analyze_file("examples/demo.rs", Scope::Example, src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert!(r.pub_decls.is_empty());
        assert!(r.referenced.contains("unwrap"));
    }

    #[test]
    fn allow_same_line_and_previous_line_suppress() {
        let src = "fn f() {\n\
                   x.unwrap(); // lint:allow(panic, poisoning implies a prior panic)\n\
                   // lint:allow(panic, checked two lines up)\n\
                   y.unwrap();\n\
                   z.unwrap();\n}";
        let f = findings("crates/core/src/x.rs", Scope::Core, src);
        let panics: Vec<_> = f.iter().filter(|x| x.rule == "panic").collect();
        assert_eq!(panics.len(), 1, "{panics:?}");
        assert_eq!(panics[0].line, 5);
    }

    #[test]
    fn file_level_allow_suppresses_everywhere() {
        let src = "// lint:allow-file(indexing, arena offsets are construction-checked)\n\
                   fn f(v: &[u8]) -> u8 { v[0] }";
        let f = findings("crates/core/src/x.rs", Scope::Core, src);
        assert!(!rules_of(&f).contains(&"indexing"), "{f:?}");
    }

    #[test]
    fn allow_for_other_rule_does_not_suppress() {
        let src = "// lint:allow(indexing, wrong rule)\nx.unwrap();";
        let f = findings("crates/core/src/x.rs", Scope::Core, src);
        assert!(rules_of(&f).contains(&"panic"));
    }

    #[test]
    fn malformed_and_unknown_allows_are_reported() {
        let src = "// lint:allow(panic)\n// lint:allow(not-a-rule, reason text)\n";
        let f = findings("crates/core/src/x.rs", Scope::Core, src);
        assert_eq!(
            f.iter().filter(|x| x.rule == "allow-syntax").count(),
            2,
            "{f:?}"
        );
    }

    #[test]
    fn scope_classification() {
        assert_eq!(Scope::classify("crates/core/src/topk.rs"), Scope::Core);
        assert_eq!(
            Scope::classify("crates/engine/src/engine.rs"),
            Scope::Engine
        );
        assert_eq!(Scope::classify("crates/graph/src/csr.rs"), Scope::Graph);
        assert_eq!(Scope::classify("crates/obs/src/clock.rs"), Scope::Obs);
        assert_eq!(Scope::classify("crates/cli/src/main.rs"), Scope::Tool);
        assert_eq!(Scope::classify("crates/lint/src/rules.rs"), Scope::Tool);
        assert_eq!(Scope::classify("src/lib.rs"), Scope::Tool);
        assert_eq!(Scope::classify("examples/quickstart.rs"), Scope::Example);
        assert_eq!(Scope::classify("scratch/evil.rs"), Scope::Unknown);
    }
}
