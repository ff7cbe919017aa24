//! Pinned CCN mappings: the exact `Mapping` the CCN returns for three
//! seeded inputs, fingerprinted as an FNV-1a hash of its `Debug` text.
//!
//! Placement, clustering and lane allocation are free to get faster, but
//! never to change their answer: every admission decision, lane index and
//! f64 demand is part of the replay contract the fabrics, the fleet and
//! the benchmark fingerprints build on. The hashes below were recorded by
//! running this file against the quadratic full-edge-scan placement and
//! the hash-keyed lane allocator that preceded the incident-list placement
//! and the flat lane-occupancy array; a mismatch means a mapping changed.
//!
//! The graphs come from an inline SplitMix64 permutation generator, so the
//! inputs cannot drift with any library RNG either.

use noc_core::lane::Port;
use rcs_noc::prelude::*;

/// SplitMix64 (Steele, Lea & Flood 2014), inlined so the inputs are
/// pinned by this file alone.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)` (modulo bias is irrelevant here).
    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * u
    }
}

/// FNV-1a (64-bit) over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn fingerprint(mapping: &Mapping) -> u64 {
    fnv1a(format!("{mapping:?}").as_bytes())
}

/// `processes` processes wired as `perms` random permutations (fixed
/// points skipped), each demand `lanes.0..lanes.1` lane capacities.
fn permutation_graph(
    seed: u64,
    processes: usize,
    perms: usize,
    lanes: (f64, f64),
    lane: Bandwidth,
) -> TaskGraph {
    let mut rng = SplitMix64(seed);
    let mut g = TaskGraph::new(format!("pinned-perm{perms}x{processes}"));
    let ids: Vec<ProcessId> = (0..processes)
        .map(|i| g.add_process(format!("p{i}")))
        .collect();
    for k in 0..perms {
        let mut p: Vec<usize> = (0..processes).collect();
        for i in (1..processes).rev() {
            p.swap(i, rng.below(i + 1));
        }
        for (i, &j) in p.iter().enumerate() {
            if i != j {
                let demand = lane.value() * rng.uniform(lanes.0, lanes.1);
                g.add_edge(
                    ids[i],
                    ids[j],
                    Bandwidth(demand),
                    TrafficShape::Streaming,
                    format!("perm{k}"),
                );
            }
        }
    }
    g
}

/// A CCN at the paper's 25 MHz clock and the SoC's tile kinds.
fn ccn_and_kinds(w: usize, h: usize) -> (Ccn, Vec<TileKind>) {
    let mesh = Mesh::new(w, h);
    let params = RouterParams::paper();
    let soc = Soc::new(mesh, params);
    let kinds = mesh.iter().map(|n| soc.tiles().kind(n.0)).collect();
    (Ccn::new(mesh, params, MegaHertz(25.0)), kinds)
}

#[test]
fn chiplet_scale_permutation_mapping_is_pinned() {
    let (ccn, kinds) = ccn_and_kinds(32, 32);
    let g = permutation_graph(1, 1024, 1, (0.2, 0.6), ccn.lane_capacity());
    let m = ccn
        .map_with_spill(&g, &kinds)
        .expect("one process per tile");
    assert_eq!(m.placement.len(), 1024);
    assert!(m.routes.len() > 800, "premise: most demands get circuits");
    assert!(!m.spilled.is_empty(), "premise: long paths exhaust lanes");
    assert_eq!(
        fingerprint(&m),
        0x0c4c_b10a_2747_f445,
        "32x32 mapping changed"
    );
}

#[test]
fn two_permutation_mapping_with_spills_is_pinned() {
    let (ccn, kinds) = ccn_and_kinds(16, 16);
    let g = permutation_graph(2, 256, 2, (0.3, 1.1), ccn.lane_capacity());
    let m = ccn
        .map_with_spill(&g, &kinds)
        .expect("one process per tile");
    assert!(!m.spilled.is_empty(), "premise: some demands spill");
    assert_eq!(
        fingerprint(&m),
        0x5ab9_0ebe_b3a2_c951,
        "16x16 mapping changed"
    );
}

/// A 6×6 graph whose hub processes have more partners than a tile has
/// lanes (forcing `cluster` merges), with affinity hints, mapped with and
/// without dead links.
#[test]
fn clustered_affinity_mapping_with_dead_links_is_pinned() {
    let (ccn, kinds) = ccn_and_kinds(6, 6);
    let mesh = Mesh::new(6, 6);
    let mut rng = SplitMix64(3);
    let mut g = TaskGraph::new("pinned-hubs");
    let hints = ["DSP", "FFT", "ASIC", "GPP"];
    let ids: Vec<ProcessId> = (0..24)
        .map(|i| {
            if i % 3 == 0 {
                g.add_process_with_affinity(format!("p{i}"), hints[i / 3 % hints.len()])
            } else {
                g.add_process(format!("p{i}"))
            }
        })
        .collect();
    // Two hubs fanning out to five partners each: 5 > 4 lanes per port.
    for (hub, first) in [(0, 1), (12, 13)] {
        for k in 0..5 {
            let bw = ccn.lane_capacity().value() * rng.uniform(0.1, 0.9);
            g.add_edge(
                ids[hub],
                ids[first + k],
                Bandwidth(bw),
                TrafficShape::Streaming,
                "fan",
            );
        }
    }
    // A ring through everything, some of it wider than one lane.
    for i in 0..24 {
        let bw = ccn.lane_capacity().value() * rng.uniform(0.2, 1.6);
        g.add_edge(
            ids[i],
            ids[(i + 7) % 24],
            Bandwidth(bw),
            TrafficShape::Streaming,
            "ring",
        );
    }

    let spilly = ccn.map_with_spill(&g, &kinds).expect("fits the mesh");
    let tiles: std::collections::BTreeSet<NodeId> =
        spilly.placement.iter().map(|&(_, n)| n).collect();
    assert!(tiles.len() < 24, "premise: clustering merged processes");

    // A physically broken link listed in both directions, one listed
    // twice, and a border "link" that does not exist.
    let dead = [
        (mesh.node(1, 0), Port::East),
        (mesh.node(2, 0), Port::West),
        (mesh.node(3, 0), Port::East),
        (mesh.node(3, 0), Port::East),
        (mesh.node(0, 0), Port::North),
    ];
    let faulty = ccn
        .map_with_faults(&g, &kinds, &dead)
        .expect("detours exist");
    assert_ne!(
        faulty.routes,
        ccn.map(&g, &kinds).expect("feasible").routes,
        "premise: the dead links move some circuit"
    );
    assert_eq!(
        fingerprint(&spilly),
        0xb6fb_8c14_86d1_c551,
        "clustered spill mapping changed"
    );
    assert_eq!(
        fingerprint(&faulty),
        0xafb8_61b1_810c_67e6,
        "clustered faulty mapping changed"
    );
}

/// Runtime admission is the mapping's lane allocation re-run for one
/// stream: releasing any circuit of the 32×32 mapping and re-admitting its
/// demand against all the other circuits reproduces its lane paths.
#[test]
fn every_released_circuit_readmits_onto_its_own_paths() {
    let (ccn, kinds) = ccn_and_kinds(32, 32);
    let g = permutation_graph(1, 1024, 1, (0.2, 0.6), ccn.lane_capacity());
    let m = ccn
        .map_with_spill(&g, &kinds)
        .expect("one process per tile");
    let mut live = m.routes.clone();
    let mut readmitted = 0;
    for stream in m.streams().iter().filter(|s| !s.spilled) {
        let i = stream.route.expect("circuit streams have routes");
        let released = live.swap_remove(i);
        let demand = m.stream_demand(stream.id).expect("mapped stream");
        let again = ccn
            .admit_stream(&demand, &live)
            .expect("its own lanes are free again");
        assert_eq!(again.paths, released.paths, "stream {:?}", stream.id);
        live.push(released);
        let last = live.len() - 1;
        live.swap(i, last);
        readmitted += 1;
    }
    assert!(readmitted > 800, "premise: most demands have circuits");
}
