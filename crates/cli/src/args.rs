//! The command line, declared once: every `--option` the binary knows is one row of
//! [`OPTIONS`] — its name, whether it takes a value, which subcommands read it, and its
//! `--help` text — and the parser, the help screen and the readers all work from that
//! table.
//!
//! So a mistyped option is an error ([`ArgError::UnknownOption`]), an option the
//! running subcommand never reads is an error ([`ArgError::NotApplicable`]) instead of a
//! default silently used in its place, a switch never swallows the token after it, and a
//! reader asking for a name its subcommand is not listed for fails a `debug_assert!`.
//! Hand-rolled and dependency-free on purpose: the workspace restricts itself to the
//! crates the library itself needs.

use std::collections::HashMap;
use std::fmt::Write as _;

/// The subcommands and what `--help` says of each.
#[rustfmt::skip]
const COMMANDS: &[(&str, &str)] = &[
    ("topk", "estimate the top-k PageRank vertices of a graph with FrogWild"),
    ("autotune", "self-tuning top-k: pilot run, walker plan, full run"),
    ("pagerank", "run the GraphLab-style PageRank baseline on the simulated cluster"),
    ("ppr", "personalized PageRank from a source vertex (push / exact / mc)"),
    ("serve", "run a mixed query stream through the concurrent serving front-end"),
    ("index", "build a walk index and report its economics (optionally probe it)"),
    ("plan", "walker-budget planning for a target top-k accuracy"),
    ("stats", "print basic structural statistics of a graph"),
    ("generate", "write a synthetic Twitter-/LiveJournal-shaped graph as an edge list"),
];

/// One `--name`: what the parser, `--help` and the readers' checks know about it.
pub struct OptionSpec {
    pub name: &'static str,
    /// The placeholder of the value it takes; empty for a bare switch.
    value: &'static str,
    /// The subcommands that read it, space-separated.
    commands: &'static str,
    /// The default as `--help` shows it; empty when there is none.
    default: &'static str,
    help: &'static str,
}

impl OptionSpec {
    fn read_by(&self, command: &str) -> bool {
        self.commands.split(' ').any(|c| c == command)
    }

    fn readers(&self) -> String {
        self.commands.replace(' ', ", ")
    }
}

const fn opt(
    name: &'static str,
    value: &'static str,
    commands: &'static str,
    default: &'static str,
    help: &'static str,
) -> OptionSpec {
    OptionSpec {
        name,
        value,
        commands,
        default,
        help,
    }
}

/// Every command that loads or generates a graph (all but `plan`).
const LOADS: &str = "topk autotune pagerank ppr serve index stats generate";
/// The commands that answer queries on a session set up by `session_over`.
const RANKS: &str = "topk autotune pagerank ppr serve";
/// The commands that build a `Session`.
const SESSIONS: &str = "topk autotune pagerank ppr serve index";
/// The commands that can build a walk index.
const INDEXED: &str = "topk ppr serve index";

/// Every option some subcommand reads, written from what each `cmd_*` reads. A new
/// option is one row here plus its reader.
#[rustfmt::skip]
pub const OPTIONS: &[OptionSpec] = &[
    opt("graph", "path", LOADS, "", "SNAP-style edge list (whitespace separated, # comments); ids printed and accepted are the file's own"),
    opt("synthetic", "kind", LOADS, "twitter", "generate the graph instead of loading one: twitter | livejournal"),
    opt("kind", "kind", LOADS, "", "the same as the option above: the name `generate` is documented with"),
    opt("vertices", "n", "topk autotune pagerank ppr serve index plan stats generate", "100000", "size of the synthetic graph (plan: of the graph the query will run on)"),
    opt("machines", "n", SESSIONS, "16", "simulated cluster size"),
    opt("partitioner", "p", RANKS, "oblivious", "random | grid | oblivious | hdrf | hybrid"),
    opt("seed", "n", LOADS, "42", "random seed"),
    opt("verbose", "", RANKS, "", "print the per-query cost audit (QueryCost) to stderr"),
    opt("workers", "n", RANKS, "0", "size of the engine pool that topk's parallel switch turns on, 0 = host parallelism (results are bit-identical for every size)"),
    opt("staleness", "s", RANKS, "0", "bounded-staleness window: 0 is the synchronous executor, s > 0 lets a machine run s supersteps ahead of its peers' messages"),
    opt("serve-workers", "n", "serve", "0", "worker threads in the serving pool, 0 = host parallelism"),
    opt("queue-depth", "n", "serve", "64", "bounded submission queue capacity, in batches"),
    opt("serve-batch", "n", "serve", "4", "queries per submitted batch"),
    opt("admission", "policy", "serve", "block", "what a full queue does to a submission: block | reject | timeout"),
    opt("admission-timeout-ms", "n", "serve", "100", "wait bound of the timeout admission policy"),
    opt("queries", "n", "serve", "100", "queries in the generated mixed stream"),
    opt("serial", "", "serve", "", "serve on the calling thread (the reference path)"),
    opt("trace", "path", SESSIONS, "", "export the run's structured trace (tracing observes, never steers: results are bit-identical with it on or off)"),
    opt("trace-format", "f", SESSIONS, "chrome", "chrome | csv"),
    opt("trace-logical", "", SESSIONS, "", "logical clock: byte-stable traces, diffable across runs"),
    opt("walk-index", "", "topk ppr serve", "", "precompute a walk index at session build and serve topk/ppr from it (implied by any of the five values below)"),
    opt("walk-index-segments", "n", INDEXED, "16", "segments per vertex (R)"),
    opt("walk-index-length", "n", INDEXED, "8", "hops per segment (L)"),
    opt("walk-index-epsilon", "e", INDEXED, "1e-4", "serve-time push frontier threshold"),
    opt("walk-index-walks", "n", INDEXED, "3000", "stitched walks per unit residual"),
    opt("walk-index-budget-mb", "n", INDEXED, "unbounded", "arena memory budget in MiB"),
    opt("k", "n", "topk autotune pagerank ppr serve plan", "100; ppr, serve: 20", "how many vertices to report (plan: the target top-k size)"),
    opt("walkers", "n", "topk ppr serve", "800000; ppr: 100000; serve: 20000", "number of random walkers (ppr: of the mc method)"),
    opt("iterations", "n", "topk pagerank serve", "4; pagerank: 2; serve: 3", "engine supersteps (pagerank: iterations)"),
    opt("ps", "p", "topk autotune serve", "0.7", "mirror synchronization probability, in (0, 1]"),
    opt("repeat", "n", "topk", "1", "serve the query n times on one session"),
    opt("parallel", "", "topk", "", "run topk's engine work batches on a worker pool"),
    opt("tolerance", "t", "topk pagerank ppr", "0; pagerank: the preset's", "delta gate: a vertex whose live-walker count (pagerank: rank change) after apply is <= t skips scatter"),
    opt("exact", "", "pagerank", "", "run to convergence instead of a fixed number of iterations"),
    opt("pilot-walkers", "n", "autotune", "10000", "walkers of the pilot run"),
    opt("source", "v", "ppr", "", "source vertex id (required; the file's id when the graph is a file)"),
    opt("method", "m", "ppr", "push", "push | exact | mc"),
    opt("epsilon", "e", "ppr", "1e-7", "forward-push threshold"),
    opt("max-steps", "n", "ppr", "64", "mc walk-length truncation"),
    opt("probe", "n", "index", "0", "serve n random PPR queries from the index and report its hit rate"),
    opt("mass", "m", "plan", "0.1", "expected true top-k mass"),
    opt("loss", "e", "autotune plan", "0.05; plan: 0.02", "tolerated captured-mass loss"),
    opt("delta", "d", "autotune plan", "0.1", "tolerated failure probability"),
    opt("out", "path", "generate", "", "output edge-list path (required)"),
];

/// The `--help` screen, generated from [`COMMANDS`] and [`OPTIONS`].
pub fn usage() -> String {
    let mut out = String::from(
        "frogwild — fast top-k PageRank approximation (FrogWild, VLDB 2015 reproduction)\n\n\
         usage: frogwild <command> [options]   (a bare token is the graph path)\n\n\
         Ranking commands build one Session (the graph is partitioned once) and serve typed\n\
         queries against it. An option is accepted by the commands that read it and is an\n\
         error on any other.\n\ncommands:\n",
    );
    for (name, summary) in COMMANDS {
        let _ = writeln!(out, "  {name:<10}{summary}");
    }
    out.push_str("\noptions:\n");
    for o in OPTIONS {
        let value = if o.value.is_empty() {
            String::new()
        } else {
            format!(" <{}>", o.value)
        };
        let _ = write!(out, "  --{}{value}\n      {}", o.name, o.help);
        if !o.default.is_empty() {
            let _ = write!(out, " [default: {}]", o.default);
        }
        let _ = writeln!(out, "\n      read by: {}", o.readers());
    }
    out
}

/// A parsed command line: the subcommand and the options given to it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Args {
    /// The subcommand, one of [`COMMANDS`].
    pub command: String,
    /// Options by name, without the leading dashes; a switch maps to the empty string.
    options: HashMap<String, String>,
}

/// Errors produced while interpreting the command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand was given.
    MissingCommand,
    /// A subcommand that does not exist.
    UnknownCommand(String),
    /// A required option is absent.
    MissingOption(String),
    /// A `--name` no subcommand reads.
    UnknownOption(String),
    /// A `--name` some subcommand reads, but not this one.
    NotApplicable {
        /// Option name.
        option: String,
        /// The subcommand it was given to.
        command: String,
    },
    /// A value option with nothing after it to be its value.
    MissingValue(String),
    /// An option's value could not be parsed into the requested type.
    InvalidValue {
        /// Option name.
        option: String,
        /// The raw value supplied.
        value: String,
        /// What the value should have looked like.
        expected: &'static str,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "missing subcommand"),
            ArgError::UnknownCommand(name) => write!(f, "unknown command {name:?}"),
            ArgError::MissingOption(name) => write!(f, "missing required option --{name}"),
            ArgError::UnknownOption(name) => write!(f, "unknown option --{name}"),
            ArgError::NotApplicable { option, command } => {
                let readers = OPTIONS.iter().find(|o| o.name == option);
                let readers = readers.map_or(String::new(), OptionSpec::readers);
                write!(
                    f,
                    "option --{option} does not apply to {command} (read by: {readers})"
                )
            }
            ArgError::MissingValue(name) => write!(f, "option --{name} needs a value"),
            ArgError::InvalidValue {
                option,
                value,
                expected,
            } => write!(
                f,
                "invalid value {value:?} for --{option}: expected {expected}"
            ),
        }
    }
}

impl std::error::Error for ArgError {}

impl From<ArgError> for frogwild::Error {
    fn from(e: ArgError) -> Self {
        frogwild::Error::config("command line", e.to_string())
    }
}

impl Args {
    /// Parses a raw argument vector (without the program name).
    pub fn parse(raw: &[String]) -> Result<Args, ArgError> {
        let mut iter = raw.iter().peekable();
        let command = iter.next().cloned().ok_or(ArgError::MissingCommand)?;
        if !COMMANDS.iter().any(|(name, _)| *name == command) {
            return Err(ArgError::UnknownCommand(command));
        }
        let mut options = HashMap::new();
        while let Some(token) = iter.next() {
            // A positional token is shorthand for `--graph <token>`.
            let named = token.strip_prefix("--");
            let name = named.unwrap_or("graph");
            let spec = (OPTIONS.iter().find(|o| o.name == name))
                .ok_or_else(|| ArgError::UnknownOption(name.to_string()))?;
            if !spec.read_by(&command) {
                return Err(ArgError::NotApplicable {
                    option: name.to_string(),
                    command,
                });
            }
            let value = if named.is_none() {
                token.clone()
            } else if spec.value.is_empty() {
                String::new()
            } else {
                // The next token is the value unless it is itself an option.
                iter.next_if(|next| !next.starts_with("--"))
                    .ok_or_else(|| ArgError::MissingValue(name.to_string()))?
                    .clone()
            };
            options.insert(name.to_string(), value);
        }
        Ok(Args { command, options })
    }

    /// In debug builds, a bug unless [`OPTIONS`] lists the running subcommand as a reader
    /// of `name`: the table and the code that reads options cannot drift apart unnoticed.
    fn check_listed(&self, name: &str) {
        debug_assert!(
            (OPTIONS.iter()).any(|o| o.name == name && o.read_by(&self.command)),
            "--{name} is read under `{}`, which OPTIONS does not list for it",
            self.command
        );
    }

    /// Whether `--name` was given (a switch, or a value option).
    pub fn has_flag(&self, name: &str) -> bool {
        self.check_listed(name);
        self.options.contains_key(name)
    }

    /// A string option, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.check_listed(name);
        self.options.get(name).map(|s| s.as_str())
    }

    /// A required string option.
    pub fn require(&self, name: &str) -> Result<&str, ArgError> {
        self.get(name)
            .ok_or_else(|| ArgError::MissingOption(name.to_string()))
    }

    /// A numeric/string option parsed into `T`, with a default when absent.
    pub fn get_parsed<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(value) => value.parse().map_err(|_| ArgError::InvalidValue {
                option: name.to_string(),
                value: value.to_string(),
                expected,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_vec(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_command_and_options() {
        let args = Args::parse(&to_vec(&["topk", "--graph", "g.txt", "--k", "50"])).unwrap();
        assert_eq!(args.command, "topk");
        assert_eq!(args.get("graph"), Some("g.txt"));
        assert_eq!(args.get_parsed("k", 100usize, "integer").unwrap(), 50);
        assert_eq!(
            args.get_parsed("walkers", 800_000u64, "integer").unwrap(),
            800_000
        );
    }

    #[test]
    fn positional_token_is_graph_shorthand() {
        let args = Args::parse(&to_vec(&["stats", "edges.txt"])).unwrap();
        assert_eq!(args.get("graph"), Some("edges.txt"));
    }

    #[test]
    fn flags_without_values() {
        let args = Args::parse(&to_vec(&["pagerank", "--graph", "g.txt", "--exact"])).unwrap();
        assert!(args.has_flag("exact"));
        assert!(!args.has_flag("verbose"));
    }

    #[test]
    fn a_switch_never_consumes_the_token_after_it() {
        let args = Args::parse(&to_vec(&["topk", "--parallel", "ids.txt", "--k", "2"])).unwrap();
        assert!(args.has_flag("parallel"));
        assert_eq!(args.get("graph"), Some("ids.txt"));
        assert_eq!(args.get("k"), Some("2"));
    }

    #[test]
    fn unknown_names_and_missing_values_are_errors() {
        let parse = |parts: &[&str]| Args::parse(&to_vec(parts)).unwrap_err();
        assert_eq!(
            parse(&["topk", "--walker", "100"]),
            ArgError::UnknownOption("walker".into())
        );
        assert_eq!(parse(&["topk", "--k"]), ArgError::MissingValue("k".into()));
        assert_eq!(
            parse(&["topk", "--k", "--parallel"]),
            ArgError::MissingValue("k".into())
        );
        // A negative number is a value, not an option.
        let args = Args::parse(&to_vec(&["topk", "--tolerance", "-1"])).unwrap();
        assert_eq!(args.get("tolerance"), Some("-1"));
    }

    /// `command` followed by every option of [`OPTIONS`] that `wanted` picks, each
    /// value option with a value.
    fn command_line(command: &str, wanted: impl Fn(&OptionSpec) -> bool) -> Vec<String> {
        let mut line = vec![command.to_string()];
        for o in OPTIONS.iter().filter(|o| wanted(o)) {
            line.push(format!("--{}", o.name));
            if !o.value.is_empty() {
                line.push("1".to_string());
            }
        }
        line
    }

    #[test]
    fn each_subcommand_takes_exactly_the_options_the_table_lists_for_it() {
        assert_eq!(OPTIONS.len(), 44);
        for (command, _) in COMMANDS {
            let args = Args::parse(&command_line(command, |o| o.read_by(command))).unwrap();
            for o in OPTIONS {
                if o.read_by(command) {
                    assert!(args.has_flag(o.name), "{command} --{}", o.name);
                } else {
                    assert_eq!(
                        Args::parse(&command_line(command, |other| other.name == o.name)),
                        Err(ArgError::NotApplicable {
                            option: o.name.to_string(),
                            command: command.to_string(),
                        }),
                    );
                }
            }
        }
        let err = Args::parse(&to_vec(&["pagerank", "--ps", "0.1"])).unwrap_err();
        assert_eq!(
            err.to_string(),
            "option --ps does not apply to pagerank (read by: topk, autotune, serve)"
        );
        // A bare token is `--graph`, which `plan` does not read either.
        assert!(matches!(
            Args::parse(&to_vec(&["plan", "g.txt"])),
            Err(ArgError::NotApplicable { .. })
        ));
    }

    #[test]
    fn help_names_every_command_and_each_option_exactly_once() {
        let help = usage();
        for (command, _) in COMMANDS {
            assert!(help.contains(&format!("\n  {command} ")), "{command}");
        }
        for o in OPTIONS {
            let name = format!("--{}", o.name);
            let named = help.split_whitespace().filter(|word| *word == name).count();
            assert_eq!(named, 1, "{name}");
            assert!(o
                .commands
                .split(' ')
                .all(|c| COMMANDS.iter().any(|(name, _)| *name == c)));
        }
    }

    #[test]
    fn missing_command_and_options_are_errors() {
        assert_eq!(Args::parse(&[]).unwrap_err(), ArgError::MissingCommand);
        assert_eq!(
            Args::parse(&to_vec(&["topkk", "--k", "2"])).unwrap_err(),
            ArgError::UnknownCommand("topkk".into())
        );
        let args = Args::parse(&to_vec(&["topk"])).unwrap();
        assert!(matches!(
            args.require("graph"),
            Err(ArgError::MissingOption(_))
        ));
    }

    #[test]
    fn invalid_numeric_values_are_reported() {
        let args = Args::parse(&to_vec(&["topk", "--k", "many"])).unwrap();
        let err = args
            .get_parsed("k", 10usize, "a positive integer")
            .unwrap_err();
        assert!(matches!(err, ArgError::InvalidValue { .. }));
        assert!(err.to_string().contains("--k"));
    }

    #[test]
    fn error_display_strings() {
        assert_eq!(ArgError::MissingCommand.to_string(), "missing subcommand");
        assert!(ArgError::MissingOption("graph".into())
            .to_string()
            .contains("--graph"));
        assert_eq!(
            ArgError::UnknownOption("walker".into()).to_string(),
            "unknown option --walker"
        );
        assert!(ArgError::MissingValue("k".into())
            .to_string()
            .contains("--k"));
    }
}
