//! Minimal hand-rolled argument parsing (`--option value` pairs and bare `--switch`es
//! after a subcommand).
//!
//! Kept dependency-free on purpose: the workspace restricts itself to the crates the
//! library itself needs, and the option surface is small enough that a hand-written
//! parser stays readable and fully unit-tested.
//!
//! The parser knows every name the binary reads ([`VALUE_OPTIONS`], [`SWITCHES`]), so a
//! mistyped option is an error instead of a default silently used in its place, and a
//! switch never swallows the token after it.

use std::collections::HashMap;

/// Every `--name <value>` option some subcommand reads.
const VALUE_OPTIONS: &[&str] = &[
    "graph",
    "synthetic",
    "vertices",
    "machines",
    "partitioner",
    "seed",
    "workers",
    "staleness",
    "serve-workers",
    "queue-depth",
    "serve-batch",
    "admission",
    "admission-timeout-ms",
    "queries",
    "trace",
    "trace-format",
    "walk-index-segments",
    "walk-index-length",
    "walk-index-epsilon",
    "walk-index-walks",
    "walk-index-budget-mb",
    "k",
    "walkers",
    "iterations",
    "ps",
    "repeat",
    "tolerance",
    "pilot-walkers",
    "source",
    "method",
    "epsilon",
    "max-steps",
    "probe",
    "mass",
    "loss",
    "delta",
    "kind",
    "out",
];

/// Every bare `--name` switch some subcommand reads.
const SWITCHES: &[&str] = &[
    "parallel",
    "exact",
    "serial",
    "verbose",
    "walk-index",
    "trace-logical",
];

/// A parsed command line: the subcommand and its `--key value` options.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (`topk`, `pagerank`, `stats`, `generate`).
    pub command: String,
    /// `--key value` pairs, keys stored without the leading dashes.
    options: HashMap<String, String>,
    /// Bare `--flag` switches with no value.
    flags: Vec<String>,
}

/// Errors produced while interpreting the command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand was given.
    MissingCommand,
    /// A required option is absent.
    MissingOption(String),
    /// A `--name` no subcommand reads.
    UnknownOption(String),
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
            ArgError::MissingOption(name) => write!(f, "missing required option --{name}"),
            ArgError::UnknownOption(name) => write!(f, "unknown option --{name}"),
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
        let mut options = HashMap::new();
        let mut flags = Vec::new();
        while let Some(token) = iter.next() {
            let Some(name) = token.strip_prefix("--") else {
                // Positional tokens are treated as the graph path shorthand.
                options.insert("graph".to_string(), token.clone());
                continue;
            };
            if SWITCHES.contains(&name) {
                flags.push(name.to_string());
            } else if VALUE_OPTIONS.contains(&name) {
                // The next token is the value unless it is itself an option.
                let value = iter
                    .next_if(|next| !next.starts_with("--"))
                    .ok_or_else(|| ArgError::MissingValue(name.to_string()))?;
                options.insert(name.to_string(), value.clone());
            } else {
                return Err(ArgError::UnknownOption(name.to_string()));
            }
        }
        Ok(Args {
            command,
            options,
            flags,
        })
    }

    /// Whether a bare `--flag` switch was present.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// A string option, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
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
        assert!(!args.has_flag("parallel"));
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

    #[test]
    fn missing_command_and_options_are_errors() {
        assert_eq!(Args::parse(&[]).unwrap_err(), ArgError::MissingCommand);
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
