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

use crate::builder::DanglingPolicy;
use crate::csr::{DiGraph, VertexId};
use crate::pool::{run_batched, setup_width, split_lengths, worker_threads};
use crate::{GraphError, Result};
use std::collections::hash_map::Entry;
use std::hash::{BuildHasherDefault, Hasher};
use std::io::{BufWriter, ErrorKind, Read, Write};
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
/// The input is read in bounded blocks cut at newlines, and each block is split into
/// pieces parsed side by side on the host's threads ([`worker_threads`]`(0)`); an input
/// of one piece, half a mebibyte or less, is parsed on the calling thread. Each piece
/// numbers the ids it meets in its own order of first appearance, and the pieces'
/// lists are merged in file order, so the dense ids, `labels` and the line of the first
/// error are those of a line-by-line read. The graph is then built on
/// [`setup_width`] threads. Width never changes the result.
///
/// Returns the graph together with `labels`: `labels[v]` is the id the input used for
/// dense vertex `v` when `relabel` is enabled, and the table is empty otherwise.
pub fn read_edge_list<R: Read>(
    reader: R,
    options: &EdgeListOptions,
) -> Result<(DiGraph, Vec<u64>)> {
    let read = read_edges(reader, options.relabel, worker_threads(0), PIECE_BYTES)?;
    let width = setup_width(read.edges.len());
    read.build(options, width)
}

/// Reads an edge list from a file path. See [`read_edge_list`].
pub fn read_edge_list_file<P: AsRef<Path>>(
    path: P,
    options: &EdgeListOptions,
) -> Result<(DiGraph, Vec<u64>)> {
    let file = std::fs::File::open(path)?;
    read_edge_list(file, options)
}

/// The bytes of edge list one unit of the reader parses: a block holds one piece per
/// thread. Large enough that a block's merge and hand-over are small next to its
/// parsing, small enough that a block's pieces add little to the load's memory.
const PIECE_BYTES: usize = 1 << 19;

/// Bytes of edge list a piece's id table and first-appearance list are sized for per
/// distinct id. A synthetic Twitter-shaped list, sorted by source, brings one new id
/// every 30 to 35 bytes of a half-mebibyte piece; a piece with more grows them, on its
/// pool thread.
const BYTES_PER_ID: usize = 24;

/// An edge list as read, before its graph is built: the edges in dense ids, how many
/// vertices they name, and the labels.
struct ReadEdges {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
    labels: Vec<u64>,
}

impl ReadEdges {
    /// The graph, built on `width` threads, and the labels.
    fn build(self, options: &EdgeListOptions, width: usize) -> Result<(DiGraph, Vec<u64>)> {
        let graph = DiGraph::from_edge_rows_on(
            width,
            self.num_vertices,
            &self.edges,
            options.dedup,
            options.remove_self_loops,
            options.dangling,
        )?;
        Ok((graph, self.labels))
    }
}

/// The reader behind [`read_edge_list`], on `threads` threads and pieces of about
/// `piece_bytes` bytes (the last line of a piece runs on to its newline). Blocks of
/// `threads * piece_bytes` bytes are read into one buffer, allocated here; the partial
/// line at a block's end is carried over to the next, and is only parsed, whatever its
/// length, once its newline or the end of the input arrives.
fn read_edges<R: Read>(
    mut reader: R,
    relabel: bool,
    threads: usize,
    piece_bytes: usize,
) -> Result<ReadEdges> {
    let threads = threads.max(1);
    let piece_bytes = piece_bytes.max(1);
    let block_bytes = threads * piece_bytes;
    let mut merged = Merged {
        relabel,
        dense: Default::default(),
        read: ReadEdges {
            num_vertices: 0,
            edges: Vec::new(),
            labels: Vec::new(),
        },
        lines: 0,
    };
    // Every buffer a piece is parsed into is made here, on the calling thread, at the
    // size a piece of typical text fills, and reused block after block: memory a pool
    // thread allocates stays with its own arena, out of the calling thread's reach.
    let mut pieces: Vec<Piece> = Vec::new();
    let mut lanes: Vec<IdTable> = (0..threads)
        .map(|_| IdTable::with_capacity_and_hasher(piece_bytes / BYTES_PER_ID, <_>::default()))
        .collect();
    let mut buffer = vec![0u8; block_bytes];
    let mut carry = 0;
    loop {
        if buffer.len() < carry + block_bytes {
            buffer.resize(carry + block_bytes, 0);
        }
        // lint:allow(indexing, the buffer was just grown to hold the carry and a block)
        let got = fill(&mut reader, &mut buffer[carry..carry + block_bytes])?;
        let len = carry + got;
        let at_end = got < block_bytes;
        // lint:allow(indexing, `len` counts the bytes the buffer holds)
        let end = match buffer[carry..len].iter().rposition(|&b| b == b'\n') {
            _ if at_end => len,
            Some(newline) => carry + newline + 1,
            None => {
                carry = len;
                continue;
            }
        };
        // lint:allow(indexing, `end` is at most `len`)
        let texts: Vec<&[u8]> = split_pieces(&buffer[..end], piece_bytes).collect();
        while pieces.len() < texts.len() {
            pieces.push(Piece::with_room(piece_bytes));
        }
        let mut units: Vec<_> = texts.into_iter().zip(pieces.iter_mut()).collect();
        let known = &merged.dense;
        run_batched(&mut units, &mut lanes, |_, (text, piece), table| {
            // Parsed as locals: the pieces' headers, like the lanes', lie side by side,
            // and two threads bumping lengths in one cache line would both crawl.
            let (mut parsed, mut local) = (std::mem::take(*piece), std::mem::take(table));
            parsed.parse(text, relabel, &mut local);
            parsed.look_up(known);
            (**piece, *table) = (parsed, local);
        });
        let parsed: Vec<&mut Piece> = units.into_iter().map(|(_, piece)| piece).collect();
        merged.absorb(parsed, threads)?;
        buffer.copy_within(end..len, 0);
        carry = len - end;
        if at_end {
            break;
        }
    }
    if relabel {
        merged.read.num_vertices = merged.read.labels.len();
    }
    Ok(merged.read)
}

/// Reads until `buffer` is full or the input ends; returns how much was read.
fn fill<R: Read>(reader: &mut R, buffer: &mut [u8]) -> Result<usize> {
    let mut got = 0;
    while got < buffer.len() {
        // lint:allow(indexing, `got` is below the buffer's length)
        match reader.read(&mut buffer[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(got)
}

/// Cuts a block (whole lines, the last perhaps without its newline) into pieces of at
/// least `piece_bytes` bytes, each running on to the end of its last line.
fn split_pieces(block: &[u8], piece_bytes: usize) -> impl Iterator<Item = &[u8]> {
    let mut rest = block;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let stop = piece_bytes.min(rest.len());
        // lint:allow(indexing, `rest` is not empty and `piece_bytes` is at least 1)
        let cut = match rest[stop - 1..].iter().position(|&b| b == b'\n') {
            Some(newline) => stop + newline,
            None => rest.len(),
        };
        let (piece, tail) = rest.split_at(cut);
        rest = tail;
        Some(piece)
    })
}

/// A first-appearance table: the dense id of every file id met so far. The merge keeps
/// the one of the whole file; a relabelling piece numbers its own ids through its
/// lane's, emptied for each piece.
// lint:allow(hash-container, probed by id and never iterated, so no order of its own reaches an output; and the hasher is fixed, not per-process)
type IdTable = std::collections::HashMap<u64, VertexId, BuildHasherDefault<IdHasher>>;

/// What one piece of a block parses to. The buffers are the calling thread's, reused
/// from block to block.
#[derive(Default)]
struct Piece {
    /// The piece's edges: in ids of its own when relabelling (`firsts[i]` is the file's
    /// id for local id `i`), in the file's ids otherwise.
    edges: Vec<(VertexId, VertexId)>,
    /// When relabelling, the file's ids in order of first appearance in the piece.
    firsts: Vec<u64>,
    /// When relabelling, the dense id of each local one: looked up by the piece for the
    /// ids earlier blocks numbered, [`UNNUMBERED`] for the rest until the merge.
    dense: Vec<VertexId>,
    /// Lines read, the bad one included.
    lines: usize,
    /// The first bad line's error, with its line number counted within the piece.
    error: Option<GraphError>,
    /// Without relabelling, one more than the largest id.
    bound: usize,
    /// When relabelling, the last source read and its local id: a file sorted by
    /// source, as SNAP's are, repeats it line after line, and then needs no lookup.
    last_source: Option<(u64, VertexId)>,
}

impl Piece {
    /// Empty buffers, the edge list with room for every edge `piece_bytes` can spell
    /// (`0 0\n` is the shortest edge line).
    fn with_room(piece_bytes: usize) -> Piece {
        Piece {
            edges: Vec::with_capacity(piece_bytes / 4 + 1),
            firsts: Vec::with_capacity(piece_bytes / BYTES_PER_ID),
            dense: Vec::with_capacity(piece_bytes / BYTES_PER_ID),
            ..Piece::default()
        }
    }

    /// Parses `text` (whole lines, the last perhaps without its newline) up to its end
    /// or its first bad line.
    fn parse(&mut self, text: &[u8], relabel: bool, table: &mut IdTable) {
        self.edges.clear();
        self.firsts.clear();
        self.lines = 0;
        self.error = None;
        self.bound = 0;
        self.last_source = None;
        table.clear();
        let text = text.strip_suffix(b"\n").unwrap_or(text);
        for line in text.split(|&b| b == b'\n') {
            self.lines += 1;
            if let Err(error) = self.line(line, relabel, table) {
                self.error = Some(error);
                return;
            }
        }
    }

    /// Looks up, in the merge's table as the blocks before this one left it, the dense
    /// id of each id the piece met: most are found, and the merge, on the calling
    /// thread, only numbers the rest.
    fn look_up(&mut self, known: &IdTable) {
        self.dense.clear();
        let ids = self.firsts.iter();
        (self.dense).extend(ids.map(|id| known.get(id).copied().unwrap_or(UNNUMBERED)));
    }

    /// Parses one line (without its `\n`) and, if it is an edge, records it.
    fn line(&mut self, line: &[u8], relabel: bool, table: &mut IdTable) -> Result<()> {
        let edge = skip_spaces(line);
        if matches!(edge.first(), None | Some(b'#' | b'%')) {
            return Ok(());
        }
        let Some((src, dst)) = parse_edge(edge) else {
            let text = line.strip_suffix(b"\r").unwrap_or(line);
            return Err(GraphError::Parse {
                line: self.lines,
                content: String::from_utf8_lossy(text).into_owned(),
            });
        };
        let edge = if relabel {
            let firsts = &mut self.firsts;
            let mut local = |id: u64| {
                *table.entry(id).or_insert_with(|| {
                    firsts.push(id);
                    (firsts.len() - 1) as VertexId
                })
            };
            let s = match self.last_source {
                Some((id, s)) if id == src => s,
                _ => local(src),
            };
            self.last_source = Some((src, s));
            (s, local(dst))
        } else {
            let (s, d) = (fit(src, src)?, fit(dst, dst)?);
            self.bound = self.bound.max(s.max(d) as usize + 1);
            (s, d)
        };
        self.edges.push(edge);
        Ok(())
    }
}

/// The dense id a piece has not found numbered; never a vertex's, as `fit` refuses it.
const UNNUMBERED: VertexId = VertexId::MAX;

/// `v` as a vertex id, or the error naming the file's `id` when it does not fit:
/// vertices number fewer than `VertexId::MAX`, so that their count is one too.
fn fit(v: u64, id: u64) -> Result<VertexId> {
    if v < VertexId::MAX as u64 {
        return Ok(v as VertexId);
    }
    Err(GraphError::VertexOutOfBounds {
        vertex: id,
        num_vertices: VertexId::MAX as u64,
    })
}

/// The pieces read so far, merged in file order.
struct Merged {
    relabel: bool,
    /// The first-appearance table, both ways: `read.labels[v]` is the file's id for
    /// dense vertex `v`, and `dense` finds `v` again from that id — the one lookup
    /// structure, whatever the range of the ids. Both stay empty when not relabelling.
    dense: IdTable,
    read: ReadEdges,
    /// Lines before the pieces to come.
    lines: usize,
}

impl Merged {
    /// Takes a block's pieces, in order: numbers each piece's ids no earlier block did
    /// on the calling thread, through the one table, stops at the first bad line (after
    /// the ids the lines above it brought), then appends every piece's edges in dense
    /// ids, each piece translated on one of `threads` pool threads into its own part of
    /// the list.
    fn absorb(&mut self, mut pieces: Vec<&mut Piece>, threads: usize) -> Result<()> {
        for piece in pieces.iter_mut() {
            if self.relabel {
                let Piece { firsts, dense, .. } = &mut **piece;
                let unnumbered = dense.iter_mut().zip(firsts.iter());
                for (v, &id) in unnumbered.filter(|(v, _)| **v == UNNUMBERED) {
                    *v = match self.dense.entry(id) {
                        // Met first in an earlier piece of this block.
                        Entry::Occupied(known) => *known.get(),
                        Entry::Vacant(first_appearance) => {
                            let v = fit(self.read.labels.len() as u64, id)?;
                            self.read.labels.push(id);
                            *first_appearance.insert(v)
                        }
                    };
                }
            } else {
                self.read.num_vertices = self.read.num_vertices.max(piece.bound);
            }
            if let Some(mut error) = piece.error.take() {
                if let GraphError::Parse { line, .. } = &mut error {
                    *line += self.lines;
                }
                return Err(error);
            }
            self.lines += piece.lines;
        }
        let edges = &mut self.read.edges;
        let start = edges.len();
        edges.resize(
            start + pieces.iter().map(|p| p.edges.len()).sum::<usize>(),
            (0, 0),
        );
        // lint:allow(indexing, `start` is the list's length before it grew)
        let parts = split_lengths(&mut edges[start..], pieces.iter().map(|p| p.edges.len()));
        let mut units: Vec<_> = pieces.into_iter().zip(parts).collect();
        let relabel = self.relabel;
        run_batched(&mut units, &mut vec![(); threads], |_, (piece, part), _| {
            if relabel {
                let dense = &piece.dense;
                for (to, &(s, d)) in part.iter_mut().zip(&piece.edges) {
                    // lint:allow(indexing, a piece's local ids number its first appearances)
                    *to = (dense[s as usize], dense[d as usize]);
                }
            } else {
                part.copy_from_slice(&piece.edges);
            }
        });
        Ok(())
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
    use crate::builder::GraphBuilder;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::io::{BufRead, BufReader};

    /// The reader at `threads` threads and `piece_bytes`-byte pieces, the graph built at
    /// the same width.
    fn read_at(
        input: &[u8],
        options: &EdgeListOptions,
        threads: usize,
        piece_bytes: usize,
    ) -> Result<(DiGraph, Vec<u64>)> {
        read_edges(input, options.relabel, threads, piece_bytes)?.build(options, threads)
    }

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
            // Pieces of the size under test at one, two and eight threads, and the
            // public entry point.
            let mut reads: Vec<_> = [1, 2, 8]
                .map(|threads| read_at(&input, &options, threads, capacity))
                .into();
            reads.push(read_edge_list(input.as_slice(), &options));
            for actual in reads {
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
            // Every small piece puts some block or piece boundary inside the hostile token.
            for (capacity, threads) in [1, 2, 3, 5, 7, 16, PIECE_BYTES]
                .into_iter()
                .flat_map(|capacity| [1, 2, 8].map(|threads| (capacity, threads)))
            {
                let got = read_at(input, options, threads, capacity);
                let case = format!(
                    "{:?} in {capacity}-byte pieces on {threads} threads",
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
        for (capacity, threads) in [(1, 1), (1, 2), (4096, 8), (PIECE_BYTES, 2)] {
            let read = |input: &[u8]| read_at(input, &options, threads, capacity);
            let (g, labels) = read(&comment).unwrap();
            assert_eq!((g.num_vertices(), labels.len()), (0, 0));
            match read(&digits) {
                Err(GraphError::Parse { line: 1, content }) => assert_eq!(content.len(), 1 << 20),
                other => panic!("got {other:?}"),
            }
        }
    }

    #[test]
    fn the_first_bad_line_wins_at_every_width() {
        // Two thousand edges over a hundred ids, with bad lines deep in; the pieces are
        // small, so the bad lines fall in different pieces and blocks.
        let lines = |bad: &[(usize, &str)]| {
            let mut text = String::from("# header\n");
            for i in 0..2000usize {
                match bad.iter().find(|(at, _)| *at == i + 2) {
                    Some((_, line)) => text.push_str(line),
                    None => text.push_str(&format!("{} {}", i * 7 % 100, i * 13 % 97)),
                }
                text.push('\n');
            }
            text.into_bytes()
        };
        let relabelled = EdgeListOptions::default();
        let verbatim = EdgeListOptions {
            relabel: false,
            ..EdgeListOptions::default()
        };
        let cases: Vec<(Vec<u8>, &EdgeListOptions, &str)> = vec![
            (
                lines(&[(1500, "15 x"), (1700, "7"), (1900, "99999999999 1")]),
                &relabelled,
                "could not parse edge-list line 1500: \"15 x\"",
            ),
            (
                lines(&[(1500, "15 x"), (1700, "7"), (1900, "99999999999 1")]),
                &verbatim,
                "could not parse edge-list line 1500: \"15 x\"",
            ),
            (
                lines(&[(900, "4294967295 1"), (1500, "15 x")]),
                &verbatim,
                "vertex id 4294967295 out of bounds for graph with 4294967295 vertices",
            ),
        ];
        for (input, options, want) in &cases {
            for threads in [1, 2, 8] {
                for piece_bytes in [1, 64, 1000, PIECE_BYTES] {
                    match read_at(input, options, threads, piece_bytes) {
                        Err(e) => assert_eq!(&e.to_string(), want, "{threads} x {piece_bytes}"),
                        Ok(_) => panic!("{threads} x {piece_bytes}: read a bad file"),
                    }
                }
            }
        }
        // And without the bad lines, the same graph and labels at every width.
        let clean = lines(&[]);
        for options in [&relabelled, &verbatim] {
            let one = read_at(&clean, options, 1, PIECE_BYTES).unwrap();
            assert_eq!(one.0.num_edges(), 2000);
            for threads in [2, 8] {
                for piece_bytes in [1, 64, 1000] {
                    let wide = read_at(&clean, options, threads, piece_bytes).unwrap();
                    assert!(one == wide, "{threads} x {piece_bytes}");
                }
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
