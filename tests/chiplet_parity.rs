//! The chiplet hierarchy's degenerate-grid contract: a **1×1 chiplet
//! grid is bit-identical to the equivalent flat fabric** for every inner
//! `FabricKind` and spill plane — same session handles, same delivered
//! payload, same per-stream telemetry, same activity ledgers, and the same
//! energy down to the f64 bits. With one chiplet there are no NoI links,
//! so the hierarchy must add exactly nothing: not a cycle, not a ledger
//! event, not a square micrometre of area. Both sides come out of the same
//! deployment builder, so the grid's inner planes must honour every
//! backend knob the flat fabric does.
//!
//! Also here: on a real grid, a deployment binds offered load to exactly
//! the streams the chiplet fabric serves, and a same-chiplet stream whose
//! aggregate route detours through a neighbouring chiplet still delivers
//! every word.

use noc_mesh::ccn::{EdgeRoute, PathHop};
use noc_mesh::chiplet::CHIPLET_BACKEND;
use rcs_noc::prelude::*;

/// A spill-heavy workload on a 4×4 mesh: several streams at 25 MHz (80
/// Mbit/s lanes), three of them out of `p0` asking for more lanes than one
/// tile port has, so the CCN admits some onto circuits and spills the
/// rest — exercising the route, spill and skip paths of every backend.
fn workload() -> TaskGraph {
    let mut g = TaskGraph::new("chiplet-parity");
    let procs: Vec<_> = (0..8).map(|i| g.add_process(format!("p{i}"))).collect();
    let edges = [
        (0, 7, 240.0),
        (0, 3, 100.0),
        (0, 5, 150.0),
        (1, 4, 60.0),
        (2, 7, 240.0),
        (3, 6, 90.0),
        (4, 2, 45.0),
        (6, 1, 120.0),
    ];
    for (k, &(a, b, bw)) in edges.iter().enumerate() {
        g.add_edge(
            procs[a],
            procs[b],
            Bandwidth(bw),
            TrafficShape::Streaming,
            format!("e{k}"),
        );
    }
    g
}

fn assert_bit_identical(kind: FabricKind, deflection_spill: bool) {
    let label = format!("{kind} (deflection spill: {deflection_spill})");
    let graph = workload();
    let deploy = |builder: DeploymentBuilder<'_>| {
        builder
            .mesh(4, 4)
            .clock(MegaHertz(25.0))
            .fabric(kind)
            .spill(true)
            .deflection_spill(deflection_spill)
            .build()
            .expect("spill admission deploys")
    };
    let mut flat_dep = deploy(Deployment::builder(&graph));
    let mut chip_dep = deploy(Deployment::builder(&graph).chiplets(1, 1));
    let flat = flat_dep.fabric_mut();
    let chip = chip_dep.fabric_mut();
    assert_eq!(
        chip.snapshot().backend(),
        CHIPLET_BACKEND,
        "{label}: a grid"
    );
    assert_eq!(chip.kind(), kind, "the hierarchy is kind-transparent");

    let flat_ids: Vec<StreamId> = flat.stream_stats().iter().map(|s| s.id).collect();
    let chip_ids: Vec<StreamId> = chip.stream_stats().iter().map(|s| s.id).collect();
    assert_eq!(flat_ids, chip_ids, "{label}: same session handles");

    for (k, &id) in flat_ids.iter().enumerate() {
        let words: Vec<u16> = (0..20 + 3 * k as u16)
            .map(|i| i.wrapping_mul(0xB0C5) ^ ((k as u16) << 11))
            .collect();
        assert_eq!(
            flat.inject_stream(id, &words),
            chip.inject_stream(id, &words),
            "{label}: same acceptance on stream {k}"
        );
    }
    flat.finish_injection();
    chip.finish_injection();
    flat.run(5_000);
    chip.run(5_000);
    assert!(flat.is_quiescent(), "{label}: flat failed to drain");
    assert!(chip.is_quiescent(), "{label}: chiplet failed to drain");

    for &id in &flat_ids {
        assert_eq!(
            flat.drain_stream(id),
            chip.drain_stream(id),
            "{label}: payload diverged on {id:?}"
        );
    }
    assert_eq!(
        flat.stream_stats(),
        chip.stream_stats(),
        "{label}: per-stream telemetry diverged"
    );
    assert_eq!(
        flat.activity(),
        chip.activity(),
        "{label}: activity ledgers diverged"
    );

    let model = EnergyModel::calibrated(MegaHertz(25.0));
    assert_eq!(
        flat.area(&model).value().to_bits(),
        chip.area(&model).value().to_bits(),
        "{label}: a linkless NoI must add zero area"
    );
    assert_eq!(
        flat.total_energy(&model).value().to_bits(),
        chip.total_energy(&model).value().to_bits(),
        "{label}: energy diverged"
    );
    assert_eq!(flat.total_overflows(), chip.total_overflows());
    assert_eq!(flat.spilled_streams(), chip.spilled_streams());
    assert_eq!(flat.spilled_words(), chip.spilled_words());
    if kind == FabricKind::Hybrid {
        assert!(flat.spilled_words() > 0, "{label}: the workload must spill");
    }
}

#[test]
fn one_by_one_chiplet_grid_is_bit_identical_to_flat_circuit() {
    assert_bit_identical(FabricKind::Circuit, false);
}

#[test]
fn one_by_one_chiplet_grid_is_bit_identical_to_flat_hybrid() {
    assert_bit_identical(FabricKind::Hybrid, false);
}

#[test]
fn one_by_one_chiplet_grid_is_bit_identical_to_flat_hybrid_with_deflection_spill() {
    assert_bit_identical(FabricKind::Hybrid, true);
}

#[test]
fn one_by_one_chiplet_grid_is_bit_identical_to_flat_deflection() {
    assert_bit_identical(FabricKind::Deflection, false);
}

#[test]
fn one_by_one_chiplet_grid_is_bit_identical_to_flat_packet() {
    assert_bit_identical(FabricKind::Packet, false);
}

/// An 8×8 mesh of 64 processes, each sending to a partner on another
/// chiplet of a 2×2 grid at 1.5 lanes' worth of bandwidth: far more
/// boundary traffic than the circuit planes' exit tiles have lanes for.
fn oversubscribed_grid_workload() -> TaskGraph {
    let mut g = TaskGraph::new("oversubscribed-grid");
    let procs: Vec<_> = (0..64).map(|i| g.add_process(format!("p{i}"))).collect();
    let lane = Ccn::new(Mesh::new(8, 8), RouterParams::paper(), MegaHertz(25.0)).lane_capacity();
    for (i, &p) in procs.iter().enumerate() {
        let partner = procs[(i * 37 + 11) % 64];
        if partner != p {
            g.add_edge(
                p,
                partner,
                Bandwidth(lane.value() * 1.5),
                TrafficShape::Streaming,
                format!("e{i}"),
            );
        }
    }
    g
}

#[test]
fn circuit_chiplets_with_spill_bind_only_served_streams() {
    let graph = oversubscribed_grid_workload();
    let mesh = Mesh::new(8, 8);
    let mut dep = Deployment::builder(&graph)
        .mesh_topology(mesh)
        .clock(MegaHertz(25.0))
        .seed(13)
        .fabric(FabricKind::Circuit)
        .spill(true)
        .chiplets(2, 2)
        .build()
        .expect("spill admission deploys");

    // What the grid serves for this mapping, from an identical fabric.
    let mut probe = ChipletFabric::paper(mesh, 2, 2, FabricKind::Circuit);
    let served = Fabric::provision(&mut probe, dep.mapping()).expect("legal mapping");
    let unserved_cross = dep
        .mapping()
        .streams()
        .iter()
        .filter(|ms| !ms.spilled && probe.chip_of(ms.src) != probe.chip_of(ms.dst))
        .filter(|ms| !served.contains(&ms.id))
        .count();
    assert!(
        unserved_cross > 0,
        "non-vacuous: some circuit-routed cross-chiplet stream must find no segment lanes"
    );

    let bound: Vec<StreamId> = dep.report(&graph).iter().map(|r| r.stream).collect();
    assert_eq!(
        bound, served,
        "offered load binds exactly the served streams"
    );

    dep.run(2_000);
    dep.settle(20_000);
    let stats = dep.fabric().stream_stats();
    let reported: Vec<StreamId> = stats.iter().map(|s| s.id).collect();
    assert_eq!(
        reported, bound,
        "the grid reports exactly the bound streams"
    );
    for s in &stats {
        assert!(s.injected_words > 0, "{:?} carried no traffic", s.id);
        assert_eq!(s.delivered_words, s.injected_words, "{:?} lost words", s.id);
    }
}

/// A hand-built mapping on a 4×4 mesh cut into a 2×2 grid of 2×2
/// chiplets: one stream (0,0) → (0,1), both tiles on chiplet 0, whose
/// circuit detours east through chiplet 1 — (0,0) → (1,0) → (2,0) →
/// (2,1) → (1,1) → (0,1) — the way the aggregate CCN routes a
/// same-chiplet stream around congestion.
fn detouring_intra_mapping(mesh: Mesh) -> Mapping {
    let hops = [
        ((0, 0), Port::Tile, Port::East),
        ((1, 0), Port::West, Port::East),
        ((2, 0), Port::West, Port::South),
        ((2, 1), Port::North, Port::West),
        ((1, 1), Port::East, Port::West),
        ((0, 1), Port::East, Port::Tile),
    ];
    let path = hops
        .iter()
        .map(|&((x, y), in_port, out_port)| PathHop {
            node: mesh.node(x, y),
            in_port,
            in_lane: 0,
            out_port,
            out_lane: 0,
        })
        .collect();
    let lane_capacity = Ccn::new(mesh, RouterParams::paper(), MegaHertz(100.0)).lane_capacity();
    Mapping {
        placement: Vec::new(),
        routes: vec![EdgeRoute {
            edges: Vec::new(),
            paths: vec![path],
            lane_capacity,
            demand: Bandwidth(60.0),
        }],
        spilled: Vec::new(),
        lane_capacity,
    }
}

#[test]
fn intra_chiplet_route_detouring_through_a_neighbour_delivers_every_word() {
    let mesh = Mesh::new(4, 4);
    let mapping = detouring_intra_mapping(mesh);
    let words: Vec<u16> = (0..64).map(|i| 0x0D00 | i).collect();
    for kind in [FabricKind::Circuit, FabricKind::Hybrid] {
        let mut fabric = ChipletFabric::paper(mesh, 2, 2, kind);
        let ids = fabric.provision(&mapping).expect("legal mapping");
        assert_eq!(ids.len(), 1, "{kind}: the free chiplet serves the stream");
        fabric.inject_stream(ids[0], &words);
        fabric.finish_injection();
        let mut delivered = Vec::new();
        for _ in 0..50 {
            fabric.run(32);
            delivered.extend(fabric.drain_stream(ids[0]));
        }
        let stats = fabric.stream_stats().remove(0);
        assert_eq!(stats.delivered_words, stats.injected_words, "{kind}");
        assert_eq!(delivered, words, "{kind}: payload intact and in order");
        assert!(fabric.is_quiescent(), "{kind}: nothing stranded");
    }
}
