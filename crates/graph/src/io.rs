//! SNAP-style edge-list input and output.
//!
//! The paper's datasets (LiveJournal `soc-LiveJournal1.txt`, Twitter `twitter-2010.txt`)
//! are distributed as whitespace-separated `src dst` edge lists with `#`-prefixed
//! comment lines. These readers accept that format so the real datasets can be used with
//! the experiment harness without modification; the writers emit the same format so
//! generated graphs can be shared with external tools (including the original GraphLab
//! implementation).
//!
//! # Grammar
//!
//! The input is bytes, read as lines ended by `\n` (the last line may go without).
//! Tokens are separated by ASCII whitespace — space, `\t`, `\r` (so CRLF files load),
//! vertical tab and form feed — in any amount, leading and trailing included.
//!
//! * A line with no token is skipped, and so is one whose first token starts with `#`
//!   or `%`, whatever bytes follow.
//! * Any other line is an edge `src dst`: two decimal `u64` ids, each an optional `+`
//!   and one or more ASCII digits. Tokens after the second are ignored, unread.
//! * Anything else — a missing `dst`, a sign, a letter, a NUL, an id above `u64::MAX`,
//!   a non-UTF-8 byte in an id — is [`GraphError::Parse`] with the 1-based line number
//!   and the line's text (lossily decoded).
//!
//! Non-ASCII Unicode whitespace (U+00A0, U+2003, …) is not a separator: an id glued to
//! one is a parse error. That is the one input the line-and-`str` reader this module
//! started with accepted and this one rejects; in exchange a stray non-UTF-8 byte in a
//! comment no longer fails the whole load.
//!
//! # Labels
//!
//! With [`EdgeListOptions::relabel`] (the default) the ids of the file are replaced by
//! dense ones in order of first appearance — source before destination, line by line —
//! and the reader returns `labels`, where `labels[v]` is the id the file used for dense
//! vertex `v`. Without it ids are used verbatim, must fit a [`VertexId`], and `labels`
//! is empty.

use crate::builder::{DanglingPolicy, GraphBuilder};
use crate::csr::{DiGraph, VertexId};
use crate::{GraphError, Result};
use std::collections::hash_map::Entry;
use std::hash::{BuildHasherDefault, Hasher};
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::path::Path;

/// Options controlling how an edge list is interpreted.
#[derive(Clone, Debug)]
pub struct EdgeListOptions {
    /// Collapse duplicate edges (default: `true`, matching GraphLab ingress behaviour).
    pub dedup: bool,
    /// Drop self-loops found in the input (default: `false`).
    pub remove_self_loops: bool,
    /// What to do with vertices that have no outgoing edges after loading.
    pub dangling: DanglingPolicy,
    /// If `true`, vertex ids are re-mapped to a dense `0..n` range in order of first
    /// appearance; if `false` the ids are used verbatim and the vertex count is
    /// `max_id + 1` (default: `true` — SNAP files frequently have sparse id spaces).
    pub relabel: bool,
}

impl Default for EdgeListOptions {
    fn default() -> Self {
        EdgeListOptions {
            dedup: true,
            remove_self_loops: false,
            dangling: DanglingPolicy::SelfLoop,
            relabel: true,
        }
    }
}

/// Reads an edge list (see the [module documentation](self) for the grammar) from any
/// `Read` implementation, in one streaming pass over its bytes.
///
/// Returns the graph together with `labels`: `labels[v]` is the id the input used for
/// dense vertex `v` when `relabel` is enabled, and the table is empty otherwise.
pub fn read_edge_list<R: Read>(
    reader: R,
    options: &EdgeListOptions,
) -> Result<(DiGraph, Vec<u64>)> {
    read_buffered(BufReader::with_capacity(READ_BUFFER_BYTES, reader), options)
}

/// Reads an edge list from a file path. See [`read_edge_list`].
pub fn read_edge_list_file<P: AsRef<Path>>(
    path: P,
    options: &EdgeListOptions,
) -> Result<(DiGraph, Vec<u64>)> {
    let file = std::fs::File::open(path)?;
    read_edge_list(file, options)
}

/// Large enough that a refill is rare next to the parsing of what it brought.
const READ_BUFFER_BYTES: usize = 1 << 16;

/// [`read_edge_list`] over a caller-supplied buffer, whatever its capacity: lines are
/// parsed where they lie in it, and only the one line that straddles a refill is
/// copied, into `carry`.
fn read_buffered<B: BufRead>(
    mut reader: B,
    options: &EdgeListOptions,
) -> Result<(DiGraph, Vec<u64>)> {
    let mut edges = EdgeSink {
        builder: GraphBuilder::new(0),
        relabel: options.relabel,
        dense: Default::default(),
        labels: Vec::new(),
    };
    let mut carry: Vec<u8> = Vec::new();
    let mut line_number = 0usize;
    loop {
        let buffer = match reader.fill_buf() {
            Ok(buffer) => buffer,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        if buffer.is_empty() {
            break;
        }
        // Every piece but the last ended in a newline; the last is a line's beginning.
        let mut lines = buffer.split(|&b| b == b'\n');
        let unfinished = lines.next_back().unwrap_or_default();
        for line in lines {
            line_number += 1;
            if carry.is_empty() {
                edges.line(line, line_number)?;
            } else {
                carry.extend_from_slice(line);
                edges.line(&carry, line_number)?;
                carry.clear();
            }
        }
        carry.extend_from_slice(unfinished);
        let consumed = buffer.len();
        reader.consume(consumed);
    }
    if !carry.is_empty() {
        edges.line(&carry, line_number + 1)?;
    }

    let graph = edges
        .builder
        .dedup(options.dedup)
        .remove_self_loops(options.remove_self_loops)
        .dangling_policy(options.dangling)
        .build()?;
    Ok((graph, edges.labels))
}

/// Where parsed lines go: straight into the builder's edge vector, through the
/// first-appearance table when relabelling.
struct EdgeSink {
    builder: GraphBuilder,
    relabel: bool,
    /// The first-appearance table, both ways: `labels[v]` is the file's id for dense
    /// vertex `v`, and `dense` finds `v` again from that id — the one lookup structure,
    /// whatever the range of the ids. Both stay empty when not relabelling.
    // lint:allow(hash-container, probed by id and never iterated, so no order of its own reaches an output; and the hasher is fixed, not per-process)
    dense: std::collections::HashMap<u64, VertexId, BuildHasherDefault<IdHasher>>,
    labels: Vec<u64>,
}

impl EdgeSink {
    /// Parses one line (without its `\n`) and, if it is an edge, records it.
    fn line(&mut self, line: &[u8], number: usize) -> Result<()> {
        let edge = skip_spaces(line);
        if matches!(edge.first(), None | Some(b'#' | b'%')) {
            return Ok(());
        }
        let Some((src, dst)) = parse_edge(edge) else {
            let text = line.strip_suffix(b"\r").unwrap_or(line);
            return Err(GraphError::Parse {
                line: number,
                content: String::from_utf8_lossy(text).into_owned(),
            });
        };
        let (src, dst) = (self.vertex(src)?, self.vertex(dst)?);
        self.builder.add_edge_growing(src, dst);
        Ok(())
    }

    /// The dense vertex a file id stands for.
    fn vertex(&mut self, id: u64) -> Result<VertexId> {
        // Vertices number fewer than `VertexId::MAX`, so that their count is one too.
        let fit = |v: u64| {
            if v < VertexId::MAX as u64 {
                return Ok(v as VertexId);
            }
            Err(GraphError::VertexOutOfBounds {
                vertex: id,
                num_vertices: VertexId::MAX as u64,
            })
        };
        if !self.relabel {
            return fit(id);
        }
        match self.dense.entry(id) {
            Entry::Occupied(known) => Ok(*known.get()),
            Entry::Vacant(first_appearance) => {
                let v = fit(self.labels.len() as u64)?;
                self.labels.push(id);
                Ok(*first_appearance.insert(v))
            }
        }
    }
}

/// One widening multiply per id, its halves folded together: both ends of the hash,
/// which the table reads, depend on every bit of the id, and consecutive ids land in
/// distinct buckets. It is not keyed, so ids crafted against it can make a load slow —
/// never wrong; the default SipHash cost this path a third of its time.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, id: u64) {
        let product = u128::from(self.0 ^ id) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product >> 64) as u64 ^ product as u64;
    }
}

/// The separators of the grammar: the ASCII members of Unicode `White_Space`. (`\n` is
/// one, but never gets here: it ended the line before a token was looked for.)
fn is_space(byte: u8) -> bool {
    matches!(byte, b' ' | b'\t'..=b'\r')
}

/// `bytes` from its first non-separator on.
fn skip_spaces(bytes: &[u8]) -> &[u8] {
    let start = bytes.iter().position(|&b| !is_space(b));
    bytes.split_at(start.unwrap_or(bytes.len())).1
}

/// The two ids an edge line starts with; whatever follows them is not looked at.
fn parse_edge(edge: &[u8]) -> Option<(u64, u64)> {
    let (src, rest) = take_id(edge)?;
    let (dst, _) = take_id(skip_spaces(rest))?;
    Some((src, dst))
}

/// Reads the token `bytes` starts with as an id: `[+]digits` up to a separator or the
/// end, as `(id, what follows)`. `None` for anything else, overflow included.
fn take_id(bytes: &[u8]) -> Option<(u64, &[u8])> {
    let digits = bytes.strip_prefix(b"+").unwrap_or(bytes);
    let mut rest = digits;
    let mut id = 0u64;
    while let Some((&byte, tail)) = rest.split_first() {
        let digit = byte.wrapping_sub(b'0');
        if digit > 9 {
            if is_space(byte) {
                break;
            }
            return None;
        }
        id = id.checked_mul(10)?.checked_add(u64::from(digit))?;
        rest = tail;
    }
    (rest.len() < digits.len()).then_some((id, rest))
}

/// Writes the graph as a SNAP-style edge list, one `src\tdst` pair per line, preceded by
/// a comment header with the vertex and edge counts.
pub fn write_edge_list<W: Write>(graph: &DiGraph, writer: W) -> Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# Directed graph: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    writeln!(w, "# FromNodeId\tToNodeId")?;
    // Spelled by hand: a `fmt` call per edge costs a tenth of a second per 3 M edges.
    let mut line = [0u8; EDGE_LINE_BYTES];
    for (s, d) in graph.edges() {
        w.write_all(spell_edge(&mut line, s, d))?;
    }
    w.flush()?;
    Ok(())
}

/// The longest edge line: two [`VertexId`]s of ten decimal digits, a tab, a newline.
const EDGE_LINE_BYTES: usize = 22;

/// Spells `src\tdst\n` in decimal, from its end backwards into the end of `line`, and
/// returns the part of `line` it took.
fn spell_edge(line: &mut [u8; EDGE_LINE_BYTES], src: VertexId, dst: VertexId) -> &[u8] {
    let mut at = EDGE_LINE_BYTES;
    for (id, after) in [(dst, b'\n'), (src, b'\t')] {
        at -= 1;
        // lint:allow(indexing, two ids and two separators fill at most EDGE_LINE_BYTES)
        line[at] = after;
        let mut rest = id;
        loop {
            at -= 1;
            // lint:allow(indexing, two ids and two separators fill at most EDGE_LINE_BYTES)
            line[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
    }
    // lint:allow(indexing, `at` has only come down from the buffer's length)
    &line[at..]
}

/// Writes the graph to a file path. See [`write_edge_list`].
pub fn write_edge_list_file<P: AsRef<Path>>(graph: &DiGraph, path: P) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_edge_list(graph, file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The line-and-`str` reader this module started with, kept as the oracle the
    /// byte-level reader is compared against.
    fn reference_read_edge_list<R: Read>(
        reader: R,
        options: &EdgeListOptions,
    ) -> Result<(DiGraph, BTreeMap<u64, VertexId>)> {
        let reader = BufReader::new(reader);
        let mut raw_edges: Vec<(u64, u64)> = Vec::new();
        for (idx, line) in reader.lines().enumerate() {
            let line = line?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
                continue;
            }
            let mut parts = trimmed.split_whitespace();
            let src = parts.next();
            let dst = parts.next();
            match (src, dst) {
                (Some(s), Some(d)) => {
                    let s: u64 = s.parse().map_err(|_| GraphError::Parse {
                        line: idx + 1,
                        content: line.clone(),
                    })?;
                    let d: u64 = d.parse().map_err(|_| GraphError::Parse {
                        line: idx + 1,
                        content: line.clone(),
                    })?;
                    raw_edges.push((s, d));
                }
                _ => {
                    return Err(GraphError::Parse {
                        line: idx + 1,
                        content: line,
                    })
                }
            }
        }

        let mut mapping: BTreeMap<u64, VertexId> = BTreeMap::new();
        let edges: Vec<(VertexId, VertexId)>;
        let num_vertices: usize;
        if options.relabel {
            edges = raw_edges
                .iter()
                .map(|&(s, d)| {
                    let next = mapping.len() as VertexId;
                    let si = *mapping.entry(s).or_insert(next);
                    let next = mapping.len() as VertexId;
                    let di = *mapping.entry(d).or_insert(next);
                    (si, di)
                })
                .collect();
            num_vertices = mapping.len();
        } else {
            let max_id = raw_edges.iter().map(|&(s, d)| s.max(d)).max().unwrap_or(0);
            if max_id >= VertexId::MAX as u64 {
                return Err(GraphError::VertexOutOfBounds {
                    vertex: max_id,
                    num_vertices: VertexId::MAX as u64,
                });
            }
            edges = raw_edges
                .iter()
                .map(|&(s, d)| (s as VertexId, d as VertexId))
                .collect();
            num_vertices = if raw_edges.is_empty() {
                0
            } else {
                max_id as usize + 1
            };
        }

        let mut builder = GraphBuilder::new(num_vertices).with_edge_capacity(edges.len());
        builder.extend_edges(edges)?;
        let graph = builder
            .dedup(options.dedup)
            .remove_self_loops(options.remove_self_loops)
            .dangling_policy(options.dangling)
            .build()?;
        Ok((graph, mapping))
    }

    /// What the byte-level reader must return on `input`: the reference's answer, but
    /// for one documented difference in *which* error a doubly bad file gets. Without
    /// relabelling the reference parses every line before it looks at any id, while the
    /// streaming reader refuses an id that does not fit a `VertexId` as soon as it is
    /// read — so an oversized id above a malformed line wins.
    fn oracle(input: &[u8], options: &EdgeListOptions) -> Result<(DiGraph, BTreeMap<u64, u32>)> {
        let whole = reference_read_edge_list(input, options);
        if let (false, Err(GraphError::Parse { line, .. })) = (options.relabel, &whole) {
            let before: Vec<&[u8]> = input.split_inclusive(|&b| b == b'\n').collect();
            let before = before[..line - 1].concat();
            let earlier = reference_read_edge_list(before.as_slice(), options);
            if matches!(earlier, Err(GraphError::VertexOutOfBounds { .. })) {
                return earlier;
            }
        }
        whole
    }

    /// One generated line, before it is spelled out: `(kind, a, b, spelling)`.
    type LineSeed = (u8, u64, u64, u64);

    /// Spells generated lines out as edge-list text. Ids are small (so they repeat) or,
    /// two in `rare` of them, at least `u32::MAX` (so they are sparse under relabelling
    /// and refused without it — nothing in between, which a verbatim load would
    /// allocate a graph for).
    fn spell(lines: &[LineSeed], final_newline: bool, rare: u64) -> Vec<u8> {
        const GAPS: [&str; 6] = [" ", "\t", "  ", " \t ", "\x0b", "\x0c "];
        const EDGES: [&str; 4] = ["", " ", "\t\t", " \r "];
        const GARBAGE: [&str; 9] = [
            "7",
            "-1 2",
            "1e3 2",
            "0x10 2",
            "1 two",
            "+ 1",
            "18446744073709551616 1",
            "1 1111111111111111111111111111111111111111",
            "not-an-edge",
        ];
        let id = |x: u64| match x % rare {
            0 => u64::MAX - (x >> 8) % 3,
            1 => u32::MAX as u64 + (x >> 8) % 1000,
            _ => (x >> 8) % 40,
        };
        let pick = |options: &[&'static str], x: u64| options[(x % options.len() as u64) as usize];
        let mut text = String::new();
        for (i, &(kind, a, b, spelling)) in lines.iter().enumerate() {
            let lead = pick(&EDGES, spelling);
            let gap = pick(&GAPS, spelling >> 8);
            let trail = pick(&EDGES, spelling >> 16);
            let plus = if spelling >> 24 & 1 == 1 { "+" } else { "" };
            let body = match kind % 32 {
                0 | 1 => format!("# comment {a} {b}"),
                2 | 3 => format!("%{a}"),
                4 | 5 => String::new(),
                6 => pick(&GARBAGE, a).to_string(),
                7..=10 => format!("{}{gap}{plus}{}{gap}{b}{gap}ignored", id(a), id(b)),
                _ => format!("{plus}{}{gap}{}", id(a), id(b)),
            };
            text.push_str(lead);
            text.push_str(&body);
            text.push_str(trail);
            if spelling >> 25 & 1 == 1 {
                text.push('\r');
            }
            if final_newline || i + 1 < lines.len() {
                text.push('\n');
            }
        }
        text.into_bytes()
    }

    fn arb_options() -> impl Strategy<Value = EdgeListOptions> {
        (any::<bool>(), any::<bool>(), 0u8..3, any::<bool>()).prop_map(
            |(dedup, remove_self_loops, dangling, relabel)| EdgeListOptions {
                dedup,
                remove_self_loops,
                dangling: [
                    DanglingPolicy::SelfLoop,
                    DanglingPolicy::Error,
                    DanglingPolicy::Keep,
                ][dangling as usize],
                relabel,
            },
        )
    }

    /// Same variant, and the same payload where the two readers define one: the line
    /// of a parse error, the vertex of a dangling one.
    fn assert_same_error(actual: &GraphError, expected: &GraphError, case: &str) {
        match (actual, expected) {
            (GraphError::Parse { line: a, .. }, GraphError::Parse { line: e, .. }) => {
                assert_eq!(a, e, "{case}")
            }
            (
                GraphError::DanglingVertex { vertex: a },
                GraphError::DanglingVertex { vertex: e },
            ) => assert_eq!(a, e, "{case}"),
            (GraphError::VertexOutOfBounds { .. }, GraphError::VertexOutOfBounds { .. }) => {}
            _ => panic!("{case}: got {actual:?}, the reference reader gives {expected:?}"),
        }
    }

    proptest! {
        #[test]
        fn byte_reader_agrees_with_the_line_reader(
            lines in proptest::collection::vec(
                (any::<u8>(), any::<u64>(), any::<u64>(), any::<u64>()),
                0..40,
            ),
            final_newline in any::<bool>(),
            options in arb_options(),
            capacity in 1usize..48,
        ) {
            // Without relabelling one oversized id fails the load, so they are rarer.
            let input = spell(&lines, final_newline, if options.relabel { 5 } else { 400 });
            let case = format!(
                "{:?} with {options:?} through a {capacity}-byte buffer",
                String::from_utf8_lossy(&input)
            );
            let expected = oracle(&input, &options);
            // The capacity under test, and the public entry point's own.
            let small = read_buffered(BufReader::with_capacity(capacity, input.as_slice()), &options);
            let public = read_edge_list(input.as_slice(), &options);
            for actual in [small, public] {
                match (actual, &expected) {
                    (Ok((graph, labels)), Ok((reference, map))) => {
                        prop_assert_eq!(&graph, reference, "{}", case);
                        prop_assert_eq!(labels.len(), map.len(), "{}", case);
                        for (&id, &v) in map {
                            prop_assert_eq!(labels[v as usize], id, "{}", case);
                        }
                    }
                    (Err(actual), Err(expected)) => assert_same_error(&actual, expected, &case),
                    (actual, expected) => panic!(
                        "{case}: got {actual:?}, the reference reader gives {expected:?}"
                    ),
                }
            }
        }
    }

    /// What a hostile input must come back as.
    #[derive(Debug)]
    enum Want {
        /// A graph with this many vertices and edges.
        Graph(usize, usize),
        /// `GraphError::Parse` at this line, with this (lossily decoded) content.
        Parse(usize, &'static str),
        /// `GraphError::VertexOutOfBounds` naming this id.
        OutOfBounds(u64),
    }

    #[test]
    fn hostile_bytes_are_typed_errors_at_the_right_line() {
        let verbatim = EdgeListOptions {
            relabel: false,
            ..EdgeListOptions::default()
        };
        let relabelled = EdgeListOptions::default();
        let forty_digits = "1111111111222222222233333333334444444444";
        let cases: Vec<(Vec<u8>, &EdgeListOptions, Want)> = vec![
            // Overflow is a parse error, not a wrap and not a panic.
            (
                b"0 1\n18446744073709551616 1\n".to_vec(),
                &relabelled,
                Want::Parse(2, "18446744073709551616 1"),
            ),
            (
                b"0 18446744073709551615\n".to_vec(),
                &relabelled,
                Want::Graph(2, 2),
            ),
            (
                format!("0 1\n1 2\n2 {forty_digits}\n").into_bytes(),
                &relabelled,
                Want::Parse(3, "2 1111111111222222222233333333334444444444"),
            ),
            // Spellings `u64::from_str` refuses too.
            (b"0 1\n-1 2\n".to_vec(), &relabelled, Want::Parse(2, "-1 2")),
            (b"1e3 2\n".to_vec(), &relabelled, Want::Parse(1, "1e3 2")),
            (
                b"\n\n3 0x10\n".to_vec(),
                &relabelled,
                Want::Parse(3, "3 0x10"),
            ),
            (b"+ 1\n".to_vec(), &relabelled, Want::Parse(1, "+ 1")),
            (b"++1 1\n".to_vec(), &relabelled, Want::Parse(1, "++1 1")),
            // A lone token, at the end of the input and without a newline.
            (b"0 1\n# c\n5".to_vec(), &relabelled, Want::Parse(3, "5")),
            // NUL is neither a digit nor a separator.
            (
                b"0 1\n1\x002\n".to_vec(),
                &relabelled,
                Want::Parse(2, "1\x002"),
            ),
            (b"\0\n".to_vec(), &relabelled, Want::Parse(1, "\0")),
            // Invalid UTF-8: an error with a line number in an edge, nothing in a comment
            // (the reference reader fails both with an `Io` error and no line).
            (
                b"0 1\r\n1 \xff2\r\n".to_vec(),
                &relabelled,
                Want::Parse(2, "1 \u{fffd}2"),
            ),
            (
                b"# caf\xe9 \xff\xfe\n0 1\n".to_vec(),
                &relabelled,
                Want::Graph(2, 2),
            ),
            // Non-ASCII whitespace is not a separator: the one input the line reader
            // accepted that this one rejects.
            (
                "0\u{a0}1\n".as_bytes().to_vec(),
                &relabelled,
                Want::Parse(1, "0\u{a0}1"),
            ),
            // A verbatim id that cannot be a `VertexId` is refused where it is read,
            // before the malformed line below it is reached.
            (
                b"0 1\n4294967295 0\nnot-an-edge\n".to_vec(),
                &verbatim,
                Want::OutOfBounds(4294967295),
            ),
            (
                b"18446744073709551615 0\n".to_vec(),
                &verbatim,
                Want::OutOfBounds(u64::MAX),
            ),
        ];
        for (input, options, want) in &cases {
            // Every small capacity puts some refill boundary inside the hostile token.
            for capacity in [1, 2, 3, 5, 7, 16, READ_BUFFER_BYTES] {
                let got = read_buffered(
                    BufReader::with_capacity(capacity, input.as_slice()),
                    options,
                );
                let case = format!(
                    "{:?} through {capacity} bytes",
                    String::from_utf8_lossy(input)
                );
                match (got, want) {
                    (Ok((g, _)), &Want::Graph(vertices, edges)) => {
                        assert_eq!(
                            (g.num_vertices(), g.num_edges()),
                            (vertices, edges),
                            "{case}"
                        )
                    }
                    (Err(GraphError::Parse { line, content }), &Want::Parse(at, text)) => {
                        assert_eq!((line, content.as_str()), (at, text), "{case}")
                    }
                    (Err(GraphError::VertexOutOfBounds { vertex, .. }), &Want::OutOfBounds(id)) => {
                        assert_eq!(vertex, id, "{case}")
                    }
                    (got, want) => panic!("{case}: got {got:?}, want {want:?}"),
                }
            }
        }
    }

    #[test]
    fn a_mebibyte_without_a_newline_grows_the_carry_and_ends() {
        let options = EdgeListOptions::default();
        let mut comment = vec![b'x'; 1 << 20];
        comment[0] = b'#';
        let mut digits = vec![b'7'; 1 << 20];
        digits[1] = b' ';
        for capacity in [1, 4096, READ_BUFFER_BYTES] {
            let read =
                |input: &[u8]| read_buffered(BufReader::with_capacity(capacity, input), &options);
            let (g, labels) = read(&comment).unwrap();
            assert_eq!((g.num_vertices(), labels.len()), (0, 0));
            match read(&digits) {
                Err(GraphError::Parse { line: 1, content }) => assert_eq!(content.len(), 1 << 20),
                other => panic!("got {other:?}"),
            }
        }
    }

    const SAMPLE: &str = "\
# Directed graph (each unordered pair of nodes is saved once)
# FromNodeId\tToNodeId
0\t1
0\t2
1\t2
2\t0
";

    #[test]
    fn reads_snap_format_with_comments() {
        let (g, labels) = read_edge_list(SAMPLE.as_bytes(), &EdgeListOptions::default()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(labels.len(), 3);
        assert!(g.has_no_dangling());
    }

    #[test]
    fn relabeling_densifies_sparse_ids() {
        let input = "100 200\n200 300\n300 100\n";
        let (g, labels) = read_edge_list(input.as_bytes(), &EdgeListOptions::default()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(labels[0], 100);
        assert_eq!(labels[1], 200);
        assert_eq!(labels[2], 300);
    }

    #[test]
    fn no_relabel_uses_max_id() {
        let input = "0 5\n5 0\n";
        let options = EdgeListOptions {
            relabel: false,
            ..EdgeListOptions::default()
        };
        let (g, labels) = read_edge_list(input.as_bytes(), &options).unwrap();
        assert_eq!(g.num_vertices(), 6);
        assert!(labels.is_empty());
        // vertices 1..5 were dangling and received self-loops
        assert!(g.has_no_dangling());
    }

    #[test]
    fn dedup_option_controls_duplicates() {
        let input = "0 1\n0 1\n1 0\n";
        let with_dedup = read_edge_list(input.as_bytes(), &EdgeListOptions::default())
            .unwrap()
            .0;
        assert_eq!(with_dedup.num_edges(), 2);
        let no_dedup = read_edge_list(
            input.as_bytes(),
            &EdgeListOptions {
                dedup: false,
                ..EdgeListOptions::default()
            },
        )
        .unwrap()
        .0;
        assert_eq!(no_dedup.num_edges(), 3);
    }

    #[test]
    fn malformed_line_reports_position() {
        let input = "0 1\nnot-an-edge\n";
        let err = read_edge_list(input.as_bytes(), &EdgeListOptions::default()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn missing_destination_reports_parse_error() {
        let input = "0\n";
        let err = read_edge_list(input.as_bytes(), &EdgeListOptions::default()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let (g, _) =
            read_edge_list("# only comments\n".as_bytes(), &EdgeListOptions::default()).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    /// The `writeln!`-per-edge writer this module started with, kept as the oracle.
    fn reference_write_edge_list<W: Write>(graph: &DiGraph, writer: W) -> Result<()> {
        let mut w = BufWriter::new(writer);
        writeln!(
            w,
            "# Directed graph: {} vertices, {} edges",
            graph.num_vertices(),
            graph.num_edges()
        )?;
        writeln!(w, "# FromNodeId\tToNodeId")?;
        for (s, d) in graph.edges() {
            writeln!(w, "{s}\t{d}")?;
        }
        w.flush()?;
        Ok(())
    }

    #[test]
    fn byte_writer_spells_what_the_formatter_spelled() {
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xED6E);
        let graphs = [
            DiGraph::from_edges(0, &[]),
            DiGraph::from_edges(1, &[(0, 0)]),
            crate::generators::simple::star(12),
            crate::generators::twitter_like(700, &mut rng),
            crate::generators::livejournal_like(1025, &mut rng),
        ];
        for graph in &graphs {
            let (mut new, mut old) = (Vec::new(), Vec::new());
            write_edge_list(graph, &mut new).unwrap();
            reference_write_edge_list(graph, &mut old).unwrap();
            assert!(new == old, "{} vertices", graph.num_vertices());
        }
        // Ids of one to ten digits in either column, the largest a vertex can have
        // included. A graph holding them would take gigabytes of row offsets, so these
        // go through the line speller alone.
        let mut ids = vec![0, VertexId::MAX / 2, VertexId::MAX - 1, VertexId::MAX];
        ids.extend((0..10).flat_map(|digits| [10u32.pow(digits), 10u32.pow(digits) * 2 - 1]));
        let mut line = [0xAA; EDGE_LINE_BYTES];
        for &s in &ids {
            for &d in &ids {
                let spelled = spell_edge(&mut line, s, d);
                assert_eq!(spelled, format!("{s}\t{d}\n").as_bytes());
            }
        }
    }

    #[test]
    fn write_then_read_round_trips() {
        let g = crate::generators::simple::star(6);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let options = EdgeListOptions {
            relabel: false,
            dedup: false,
            ..EdgeListOptions::default()
        };
        let (g2, _) = read_edge_list(buf.as_slice(), &options).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn file_round_trip() {
        let g = crate::generators::simple::cycle(5);
        let dir = std::env::temp_dir().join("frogwild_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cycle5.txt");
        write_edge_list_file(&g, &path).unwrap();
        let options = EdgeListOptions {
            relabel: false,
            dedup: false,
            ..EdgeListOptions::default()
        };
        let (g2, _) = read_edge_list_file(&path, &options).unwrap();
        assert_eq!(g, g2);
        std::fs::remove_file(&path).ok();
    }
}
