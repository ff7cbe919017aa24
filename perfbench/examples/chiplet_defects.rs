//! Repro for the two chiplet defects that keep `chiplet32-packet-pooled`
//! on packet inner planes (see `perfbench/README.md`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml --example chiplet_defects -- hybrid [seed]
//! cargo run --release --manifest-path perfbench/Cargo.toml --example chiplet_defects -- circuit-spill [seed]
//! ```
//!
//! Both build the benchmark's chiplet32 graph (1024 processes on one random
//! permutation, 0.3–1.8 lanes per demand) on a 32×32 mesh cut into a 4×4
//! grid. `hybrid` uses hybrid inner planes, offers 1000 cycles of load,
//! settles, steps 50k more cycles, under `Sequential` and under
//! `Threads(2)`, and prints the words that never arrive. `circuit-spill`
//! uses circuit inner planes with spill admission and panics while
//! injecting.

#[allow(dead_code)]
#[path = "../src/gen.rs"]
mod gen;

use noc_core::params::RouterParams;
use noc_mesh::ccn::Ccn;
use noc_mesh::deployment::Deployment;
use noc_mesh::fabric::{Fabric, FabricKind};
use noc_mesh::topology::Mesh;
use noc_sim::par::ParPolicy;
use noc_sim::units::MegaHertz;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = args
        .get(1)
        .map_or(1, |s| s.parse().expect("a whole-number seed"));
    let kind = match args.first().map(String::as_str) {
        Some("hybrid") => FabricKind::Hybrid,
        Some("circuit-spill") => FabricKind::Circuit,
        _ => {
            eprintln!("usage: chiplet_defects <hybrid|circuit-spill> [seed]");
            std::process::exit(2);
        }
    };
    let clock = MegaHertz(100.0);
    let lane = Ccn::new(Mesh::new(32, 32), RouterParams::paper(), clock).lane_capacity();
    let graph = gen::permutation_graph(seed, 1024, 1, (0.3, 1.8), lane);
    for policy in [ParPolicy::Sequential, ParPolicy::Threads(2)] {
        let mut dep = Deployment::builder(&graph)
            .mesh(32, 32)
            .clock(clock)
            .seed(seed)
            .fabric(kind)
            .spill(true)
            .chiplets(4, 4)
            .parallelism(policy)
            .build()
            .expect("the chiplet32 graph deploys");
        dep.run(1000);
        let settled = dep.settle(50_000);
        // Step 50k more cycles, then collect whatever arrived.
        dep.fabric_mut().run(50_000);
        dep.settle(1_000);
        println!(
            "{kind} inner planes, {policy:?}: injected {}, delivered {}, stranded {}, \
             overflows {}, quiescent {} after {settled} settle + 50k extra cycles",
            dep.total_injected(),
            dep.total_delivered(),
            dep.total_injected() - dep.total_delivered(),
            dep.total_overflows(),
            dep.fabric().is_quiescent()
        );
    }
}
