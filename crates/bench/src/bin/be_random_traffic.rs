//! Best-effort plane under uniform-random traffic: the classic NoC
//! load-latency curve.
//!
//! Section 2 of the paper: "The routers are benchmarked using a local area
//! network approach where the benchmarks use random traffic patterns."
//! This binary applies exactly that methodology to the packet-switched
//! plane (which the paper reserves for its <5% best-effort share): uniform
//! random destinations, swept injection rate, delivered throughput and
//! per-word latency percentiles.
//!
//! The sweep runs on [`PacketFabric`] itself: an empty provision, one
//! runtime-admitted stream per ordered node pair, and one packet's worth of
//! words injected per generated packet. It exits non-zero unless the knee
//! is really in the sweep: the lowest rate must deliver every injected
//! word once the mesh settles, and the highest rate must leave more than
//! one packet per node queued at the sources (below the knee the whole
//! mesh holds only a few).

use noc_exp::tables;
use noc_mesh::ccn::Mapping;
use noc_mesh::fabric::{Fabric, PacketFabric};
use noc_mesh::stream::StreamDemand;
use noc_mesh::topology::Mesh;
use noc_packet::params::PacketParams;
use noc_sim::rng::SplitMix64;
use noc_sim::stats::LatencyHistogram;
use noc_sim::units::Bandwidth;

const PACKET_WORDS: usize = 4;
const CYCLES: u64 = 5000;
const SETTLE_CYCLES: u64 = 2_000;
const RATES_MILLI: [u32; 7] = [5, 10, 20, 40, 60, 80, 120];

/// One sweep point: the fabric after `CYCLES` cycles of uniform-random
/// packets at `rate` per node per cycle.
fn run_point(mesh: Mesh, rate: f64) -> PacketFabric {
    let mut fabric = PacketFabric::new(mesh, PacketParams::paper(), PACKET_WORDS);
    let empty = Mapping {
        placement: Vec::new(),
        routes: Vec::new(),
        spilled: Vec::new(),
        lane_capacity: Bandwidth(0.0),
    };
    fabric
        .provision(&empty)
        .expect("an empty mapping provisions");
    // One session per ordered pair, at ids[src * nodes + dst] (240 on 4×4,
    // inside the head flit's 256-tag space).
    let nodes = mesh.nodes();
    let mut ids = vec![None; nodes * nodes];
    for src in mesh.iter() {
        for dst in mesh.iter().filter(|&dst| dst != src) {
            let demand = Bandwidth(0.0);
            let id = fabric.admit(&StreamDemand { src, dst, demand });
            ids[src.0 * nodes + dst.0] = Some(id.expect("the tag space fits every pair"));
        }
    }
    let mut rng = SplitMix64::new(2005);
    for _ in 0..CYCLES {
        for src in 0..nodes {
            if rng.chance(rate) {
                let mut dst = rng.below(nodes as u32) as usize;
                if dst == src {
                    dst = (dst + 1) % nodes;
                }
                let words: Vec<u16> = (0..PACKET_WORDS).map(|_| rng.next_u16()).collect();
                let id = ids[src * nodes + dst].expect("src != dst");
                fabric.inject_stream(id, &words);
            }
        }
        fabric.step();
    }
    fabric
}

/// Words (injected, delivered) across every stream.
fn totals(fabric: &PacketFabric) -> (u64, u64) {
    let stats = fabric.stream_stats();
    let injected = stats.iter().map(|s| s.injected_words).sum();
    (injected, stats.iter().map(|s| s.delivered_words).sum())
}

fn main() {
    println!("Best-effort plane: 4x4 packet-switched mesh, uniform random traffic,");
    println!("{PACKET_WORDS}-word packets, {CYCLES} cycles per point.\n");

    let mesh = Mesh::new(4, 4);
    // One packet per node still queued at the sources: past the knee.
    let knee_backlog = mesh.nodes() * (PACKET_WORDS + 1);
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for (i, &rate_milli) in RATES_MILLI.iter().enumerate() {
        let rate = f64::from(rate_milli) / 1000.0;
        let mut fabric = run_point(mesh, rate);
        let mut latency = LatencyHistogram::new();
        for s in fabric.stream_stats() {
            latency.merge(&s.latency);
        }
        let packets = totals(&fabric).1 as f64 / PACKET_WORDS as f64;
        let backlog = fabric.ingress_backlog();
        let quantile = |q| latency.quantile(q).map_or("-".into(), |v| v.to_string());
        rows.push(vec![
            format!("{rate:.3}"),
            format!("{:.4}", packets / (CYCLES as f64 * mesh.nodes() as f64)),
            format!("{:.1}", latency.mean()),
            quantile(0.5),
            quantile(0.99),
            backlog.to_string(),
        ]);

        if i == 0 {
            fabric.finish_injection();
            for _ in 0..SETTLE_CYCLES {
                fabric.step();
            }
            let (injected, delivered) = totals(&fabric);
            if injected == 0 || delivered != injected {
                failures.push(format!(
                    "lowest rate {rate:.3}: {delivered} of {injected} injected words delivered"
                ));
            }
        }
        if i + 1 == RATES_MILLI.len() && backlog <= knee_backlog {
            failures.push(format!(
                "highest rate {rate:.3}: backlog {backlog} flits is not past {knee_backlog}, no knee"
            ));
        }
    }
    println!(
        "{}",
        tables::render(
            &[
                "Offered [pkt/node/cyc]",
                "Delivered",
                "Mean lat [cyc/word]",
                "p50",
                "p99",
                "Backlog [flits]",
            ],
            &rows
        )
    );
    println!("\nThe knee where latency departs its zero-load floor and backlog grows");
    println!("marks the BE plane's saturation point; the paper's <5% control traffic");
    println!("sits far below it.");
    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
