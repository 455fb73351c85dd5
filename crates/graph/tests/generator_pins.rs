//! The random generators, pinned: one 64-bit fold per (generator, vertex count, seed)
//! over the generated graph — its vertex count and every out-row in order — and over the
//! word the caller's `rng` yields next, which moves if the generator reads one word
//! more or fewer. The expected values were generated on the commit before the R-MAT
//! sampler lost its branches, so a rewrite that moves one edge of one graph fails here
//! and not as a changed benchmark digest, golden trace or layout pin four crates away.
//!
//! Sizes sit on and around the powers of two where the recursion depth steps, and at
//! the one- to three-vertex graphs whose depth is clamped.

use frogwild_graph::generators::{livejournal_like, rmat, twitter_like, RmatParams};
use frogwild_graph::DiGraph;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

const SIZES: [usize; 7] = [1, 2, 3, 1000, 1024, 1025, 4097];
const SEEDS: [u64; 2] = [3, 0xF20C];

/// Order-sensitive fold of one more value into the fingerprint.
fn fold(acc: &mut u64, value: u64) {
    *acc = (*acc ^ value)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(29);
}

fn fingerprint(graph: &DiGraph, next_word: u64) -> u64 {
    let mut acc = 0u64;
    fold(&mut acc, graph.num_vertices() as u64);
    for v in graph.vertices() {
        let row = graph.out_neighbors(v);
        fold(&mut acc, row.len() as u64);
        for &target in row {
            fold(&mut acc, target as u64);
        }
    }
    fold(&mut acc, next_word);
    acc
}

type Generator = fn(usize, &mut SmallRng) -> DiGraph;

#[test]
fn generated_graphs_are_the_ones_seeds_have_always_bought() {
    let generators: [(&str, Generator); 3] = [
        ("twitter_like", |n, rng| twitter_like(n, rng)),
        ("livejournal_like", |n, rng| livejournal_like(n, rng)),
        ("rmat", |n, rng| rmat(n, RmatParams::default(), rng)),
    ];
    let mut actual = Vec::new();
    for (name, generate) in generators {
        for n in SIZES {
            for seed in SEEDS {
                let mut rng = SmallRng::seed_from_u64(seed);
                let graph = generate(n, &mut rng);
                graph.validate().unwrap();
                actual.push((
                    format!("{name}/{n}/{seed}"),
                    fingerprint(&graph, rng.next_u64()),
                ));
            }
        }
    }
    assert_eq!(actual.len(), EXPECTED.len());
    for ((case, fp), expected) in actual.iter().zip(EXPECTED) {
        assert_eq!(fp, expected, "{case}: the generated graph moved");
    }
}

/// In the order of the loops above: generator, then size, then seed.
const EXPECTED: &[u64] = &[
    0xDF8BC71E5825F2E6, // twitter_like/1/3
    0x5B2A1DC19580C0EC, // twitter_like/1/61964
    0xF7B8B9F9B79FCC8E, // twitter_like/2/3
    0x9169084AB5A5B996, // twitter_like/2/61964
    0xBB87274E16DA0F29, // twitter_like/3/3
    0xAE1F41422F72A7D4, // twitter_like/3/61964
    0x925BCA9392A4BDE4, // twitter_like/1000/3
    0xD0C501D2B0C0F7BF, // twitter_like/1000/61964
    0xF7B4B58ABDC54B02, // twitter_like/1024/3
    0xFCFE89438452CF9A, // twitter_like/1024/61964
    0x3D79BD5C9E0963C5, // twitter_like/1025/3
    0xD64A9AA10835FCB2, // twitter_like/1025/61964
    0xCB3C38DD97A4DCAE, // twitter_like/4097/3
    0x82BAE4880F7F2AC3, // twitter_like/4097/61964
    0x49F5E5EDB7BD9672, // livejournal_like/1/3
    0x86C54CA3B03C9375, // livejournal_like/1/61964
    0xA660CDE2689D8D3C, // livejournal_like/2/3
    0x03919B22C3E1CB7D, // livejournal_like/2/61964
    0xDC77E6D86708358E, // livejournal_like/3/3
    0x3E518044A43C82C4, // livejournal_like/3/61964
    0x3205C64CE17E7A74, // livejournal_like/1000/3
    0x1F7AADFA8E7FE9E6, // livejournal_like/1000/61964
    0xCB5A679943DF7667, // livejournal_like/1024/3
    0xDDEDE2E4E8A123D1, // livejournal_like/1024/61964
    0xA2752D444569B739, // livejournal_like/1025/3
    0x61149C79857F8E6B, // livejournal_like/1025/61964
    0x0E7E0606049FB02C, // livejournal_like/4097/3
    0x29F430F08E9A3BF4, // livejournal_like/4097/61964
    0x49F5E5EDB7BD9672, // rmat/1/3
    0x86C54CA3B03C9375, // rmat/1/61964
    0x2C4C97B83772091B, // rmat/2/3
    0xD79C9A8BB6940F30, // rmat/2/61964
    0x96D244CCE7208B52, // rmat/3/3
    0xF0DA9DF7523AFC9B, // rmat/3/61964
    0xEA6EDC950574FC69, // rmat/1000/3
    0x82D928C3C369F080, // rmat/1000/61964
    0xBAD0ABCB109AC74D, // rmat/1024/3
    0x91E2EF3494C6A43E, // rmat/1024/61964
    0x25D134257FF3A294, // rmat/1025/3
    0x571C5CADD1CCA449, // rmat/1025/61964
    0xD42D6AA5F305C34B, // rmat/4097/3
    0x16B1348EA95D2806, // rmat/4097/61964
];
