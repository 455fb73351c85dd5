//! The partitioned layout, pinned: one 64-bit fold per (graph, partitioner, machine
//! count) over everything `PartitionedGraph::build` decides — the edge assignment, the
//! placement table and every shard's tables. The expected values were generated on the
//! commit before the placement build stopped searching for slots, so a rewrite of
//! `assign` or `from_assignment` that moves one edge, one slot or one master fails here
//! instead of surfacing as a changed `exact_digest` three layers up.

use frogwild_engine::rng::mix;
use frogwild_engine::{PartitionedGraph, PartitionerKind};
use frogwild_graph::generators::simple::star;
use frogwild_graph::generators::{rmat, RmatParams};
use frogwild_graph::DiGraph;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const SEED: u64 = 29;
/// 70 machines need a two-word replica mask.
const MACHINES: [usize; 4] = [1, 4, 16, 70];

/// Order-sensitive fold of one more value into the fingerprint.
fn fold(acc: &mut u64, value: u64) {
    *acc = mix(&[*acc, value]);
}

fn fingerprint(graph: &DiGraph, kind: PartitionerKind, machines: usize) -> u64 {
    let mut acc = 0u64;
    let assignment = kind.assign(graph, machines, SEED);
    fold(&mut acc, assignment.num_machines as u64);
    for m in &assignment.machines {
        fold(&mut acc, m.index() as u64);
    }

    let pg = PartitionedGraph::from_assignment(graph, &assignment, SEED);
    pg.validate().unwrap();
    let placement = pg.placement();
    for v in graph.vertices() {
        let (master, slot) = placement.master_slot(v);
        fold(&mut acc, master.index() as u64);
        fold(&mut acc, slot as u64);
        fold(&mut acc, placement.replica_slots(v).len() as u64);
        for (machine, local) in placement.replica_slots(v) {
            fold(&mut acc, machine.index() as u64);
            fold(&mut acc, local as u64);
        }
    }
    for shard in pg.shards() {
        fold(&mut acc, shard.machine.index() as u64);
        fold(&mut acc, shard.vertices.len() as u64);
        for (local, &v) in shard.vertices.iter().enumerate() {
            let is_master = placement.master_slot(v) == (shard.machine, local as u32);
            fold(&mut acc, v as u64);
            fold(&mut acc, is_master as u64);
            let out = shard.local_out_neighbors(local as u32);
            fold(&mut acc, out.len() as u64);
            for &t in out {
                fold(&mut acc, t as u64);
            }
            let inn = shard.local_in_neighbors(local as u32);
            fold(&mut acc, inn.len() as u64);
            for &s in inn {
                fold(&mut acc, s as u64);
            }
        }
    }
    acc
}

/// A graph whose vertices 3, 7 and 11 have no edge at all: their master is hashed
/// across every machine instead of picked among replicas.
fn with_isolated_vertices() -> DiGraph {
    let edges: Vec<(u32, u32)> = (0..12u32)
        .filter(|v| ![3, 7, 11].contains(v))
        .flat_map(|v| {
            [(v, (v + 1) % 12), (v, (v * 5 + 2) % 12)]
                .into_iter()
                .filter(|(_, d)| ![3, 7, 11].contains(d))
        })
        .collect();
    DiGraph::from_edges(12, &edges)
}

#[test]
fn partition_layout_fingerprints() {
    let graphs = [
        (
            "rmat",
            rmat(
                600,
                RmatParams::default(),
                &mut SmallRng::seed_from_u64(SEED),
            ),
        ),
        ("star", star(50)),
        ("isolated", with_isolated_vertices()),
    ];
    let mut actual = Vec::new();
    for (name, graph) in &graphs {
        for kind in PartitionerKind::ALL {
            for machines in MACHINES {
                actual.push((
                    format!("{name}/{kind}/{machines}"),
                    fingerprint(graph, kind, machines),
                ));
            }
        }
    }
    assert_eq!(actual.len(), EXPECTED.len());
    for ((case, fp), expected) in actual.iter().zip(EXPECTED) {
        assert_eq!(fp, expected, "{case}: layout fingerprint moved");
    }
}

/// In `graphs` × `PartitionerKind::ALL` × `MACHINES` order.
const EXPECTED: &[u64] = &[
    0x5eafb6532ca2b865,
    0xfc712bfe78956633,
    0x65c4d97f28ae7a0e,
    0x221856eec5d1a5e6,
    0x5eafb6532ca2b865,
    0x705075ebd06f7a06,
    0xc6209d8180dc99f3,
    0x62c166ffa8d16ff3,
    0x5eafb6532ca2b865,
    0x191446263acf14d4,
    0x7241b31a8a9feb5b,
    0xdc1f5c7475ac36ae,
    0x5eafb6532ca2b865,
    0x389d649da31f2d09,
    0x6a8260d309c3b94e,
    0x0192a94ffb9c92cd,
    0x5eafb6532ca2b865,
    0x62249fe7368be3ab,
    0x336d991488215c8c,
    0x2eb98e12acd48227,
    0xfb3376a60e207b93,
    0x488b80f2fb1d0a3d,
    0x3fbe501392fc9677,
    0xdd6666347c599261,
    0xfb3376a60e207b93,
    0xd394c2ca1b85934b,
    0xca1b966c47817ac4,
    0x9a33026576ab9280,
    0xfb3376a60e207b93,
    0xd312391622c846ce,
    0x15389013fdd8a29c,
    0x0a9ba971e6da0232,
    0xfb3376a60e207b93,
    0x556cbcf11cd8223d,
    0x2e05d3baa19b9c7d,
    0xb7f7b0160481507f,
    0xfb3376a60e207b93,
    0x02292e53f29dcfc4,
    0x94ed0e6c2c36a487,
    0xba8a8a71e402159f,
    0xdbdc0b84ce522e42,
    0xae96e7097ec1a33a,
    0xc5b48d1902b76f96,
    0x59c6e04d89ecb1ec,
    0xdbdc0b84ce522e42,
    0xa5ef2843b3bc373c,
    0x69e73fd36a77d984,
    0xe833f7ee572d74ea,
    0xdbdc0b84ce522e42,
    0xeb06f86149a355fe,
    0xf58805b39055898e,
    0x8b80897b36a4ec5b,
    0xdbdc0b84ce522e42,
    0xbffc82091b1db8e8,
    0x28b4c1d9d0969f97,
    0xa2589c87fe69d7f4,
    0xdbdc0b84ce522e42,
    0x18dba3b3315632db,
    0x9c874c2f5179097f,
    0xa6c466bbf48d381b,
];
