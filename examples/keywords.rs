//! Keyword extraction with approximate PageRank (TextRank), the paper's second
//! motivating application.
//!
//! TextRank builds a graph whose vertices are content words and whose edges connect
//! words co-occurring within a small window; PageRank over that graph ranks keywords.
//! When the corpus is large or arrives continuously, recomputing the full PageRank
//! vector per document batch is wasteful — only the top keywords matter, which is
//! exactly the regime FrogWild targets.
//!
//! This example runs the full pipeline on a built-in text (no external data needed):
//! tokenize → co-occurrence graph → FrogWild top-k → compare with exact PageRank.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example keywords
//! ```

use frogwild::prelude::*;
use frogwild_graph::GraphBuilder;
use std::collections::HashMap;

/// A public-domain style passage about graph processing; repeated phrases give the
/// co-occurrence graph realistic hubs.
const TEXT: &str = "
Large scale graph processing is becoming increasingly important for the analysis of data
from social networks, web pages and recommendation systems. Graph algorithms are hard to
implement in general distributed computation frameworks, so specialized graph engines
partition the graph across machines and expose vertex programs. PageRank computation is
the canonical task for a graph engine: PageRank estimates the importance of each vertex
in the graph, and the heaviest PageRank vertices identify influential users, important
web pages or key words in a text. Computing the complete PageRank vector is expensive
because every iteration must synchronize every vertex replica over the network. A fast
approximation of the top PageRank vertices needs only a small number of random walks:
each walker jumps across the graph, teleports with a small probability, and the vertices
where walkers stop concentrate around the important vertices. Partial synchronization of
vertex replicas reduces network traffic further, because only a fraction of the replicas
of each vertex must receive the updated walker counts. The graph engine, the random
walks and the partial synchronization together give a fast approximation of the top
PageRank vertices with a fraction of the network cost of the exact computation.
";

/// Small stop-word list; everything else longer than two characters is a candidate
/// keyword vertex, approximating the paper's "nouns, verbs and adjectives" filter.
const STOP_WORDS: &[&str] = &[
    "the", "and", "for", "are", "with", "that", "this", "from", "each", "must", "only", "its",
    "was", "has", "have", "not", "but", "can", "over", "into", "because", "every", "very", "their",
    "where", "which", "needs", "gives", "give", "together", "becoming", "is", "of", "in", "to",
    "a", "an", "so", "or",
];

/// Tokenizes the text, maps distinct words to vertex ids, and connects words
/// co-occurring within a window of three tokens (in both directions, as TextRank does).
fn build_cooccurrence_graph(text: &str) -> (DiGraph, Vec<String>) {
    let tokens: Vec<String> = text
        .split(|c: char| !c.is_alphabetic())
        .map(|w| w.to_lowercase())
        .filter(|w| w.len() > 2 && !STOP_WORDS.contains(&w.as_str()))
        .collect();

    let mut word_ids: HashMap<String, u32> = HashMap::new();
    let mut words: Vec<String> = Vec::new();
    let ids: Vec<u32> = tokens
        .iter()
        .map(|w| {
            *word_ids.entry(w.clone()).or_insert_with(|| {
                words.push(w.clone());
                (words.len() - 1) as u32
            })
        })
        .collect();

    let window = 3usize;
    let mut builder = GraphBuilder::new(words.len());
    for (i, &a) in ids.iter().enumerate() {
        for &b in &ids[i + 1..(i + 1 + window).min(ids.len())] {
            if a != b {
                builder.add_edge(a, b);
                builder.add_edge(b, a);
            }
        }
    }
    let graph = builder
        .dedup(true)
        .build()
        .expect("valid co-occurrence graph");
    (graph, words)
}

fn main() -> Result<()> {
    let (graph, words) = build_cooccurrence_graph(TEXT);
    println!(
        "co-occurrence graph: {} distinct words, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    let k = 10;
    let truth = exact_pagerank(&graph, 0.15, 200, 1e-12);

    // The graph is tiny, so a handful of machines and walkers suffice; the point is the
    // pipeline, not the scale. In a streaming-corpus deployment the session would stay
    // alive and answer a top-k query per document batch.
    let mut session = Session::builder(&graph).machines(4).seed(3).build()?;
    let config = FrogWildConfig {
        num_walkers: 20_000,
        iterations: 5,
        sync_probability: 0.7,
        ..FrogWildConfig::default()
    };
    let report = session.query(&Query::TopK { k, config })?;

    let accuracy = mass_captured(&report.estimate, &truth.scores, k);
    let ident = exact_identification(&report.estimate, &truth.scores, k);
    println!(
        "FrogWild vs exact TextRank: mass captured {:.3}, exact identification {:.2}\n",
        accuracy.normalized(),
        ident
    );

    println!(
        "{:<6} {:<22} {:<22}",
        "rank", "FrogWild keyword", "exact TextRank keyword"
    );
    let approx_top = report.top_vertices();
    let exact_top = top_k(&truth.scores, k);
    for i in 0..k {
        println!(
            "{:<6} {:<22} {:<22}",
            i + 1,
            approx_top
                .get(i)
                .map(|&v| words[v as usize].as_str())
                .unwrap_or("-"),
            exact_top
                .get(i)
                .map(|&v| words[v as usize].as_str())
                .unwrap_or("-"),
        );
    }

    println!(
        "\nThe approximate list agrees on the dominant keywords (graph, pagerank, vertices, \
         network, ...) while touching only a few thousand walker messages — the keyword \
         use-case from the paper's introduction."
    );
    Ok(())
}
