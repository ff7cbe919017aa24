//! Seeded workload generation. The program under test receives only what
//! these functions return: task graphs and tenant specs.
//!
//! Graphs are wired from random permutations so that no process has more
//! than [`RouterParams::lanes_per_port`] distinct partners in either
//! direction. Past that bound the CCN clusters processes onto shared tiles
//! until the pressure fits, and a dense random graph collapses into a
//! handful of streams; [`check_graph`] enforces the bound on every run.

use noc_apps::synthetic::{oversubscribed_line, streaming_pipeline};
use noc_apps::taskgraph::{TaskGraph, TrafficShape};
use noc_apps::workload::PhaseProfile;
use noc_core::params::RouterParams;
use noc_exp::fleet::TenantSpec;
use noc_mesh::ccn::Ccn;
use noc_mesh::controller::{LoadDemotion, ProfiledPromotion};
use noc_mesh::fabric::FabricKind;
use noc_mesh::stream::ProvisionMode;
use noc_mesh::topology::Mesh;
use noc_sim::rng::SplitMix64;
use noc_sim::units::{Bandwidth, MegaHertz};
use std::collections::BTreeSet;

/// Uniform draw in `[lo, hi)`.
fn uniform(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    lo + (hi - lo) * u
}

/// A uniformly random permutation of `0..n` (Fisher-Yates).
fn permutation(rng: &mut SplitMix64, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u32 + 1) as usize;
        p.swap(i, j);
    }
    p
}

/// `processes` processes wired as `perms` random permutations: process
/// `i` streams to `π_k(i)` for each permutation `π_k` (fixed points are
/// skipped), each demand drawn from `demand_lanes` lane capacities.
pub fn permutation_graph(
    seed: u64,
    processes: usize,
    perms: usize,
    demand_lanes: (f64, f64),
    lane: Bandwidth,
) -> TaskGraph {
    let mut rng = SplitMix64::new(seed);
    let mut g = TaskGraph::new(format!("perm{perms}x{processes}"));
    let ids: Vec<_> = (0..processes)
        .map(|i| g.add_process(format!("p{i}")))
        .collect();
    for k in 0..perms {
        let p = permutation(&mut rng, processes);
        for (i, &j) in p.iter().enumerate() {
            if i == j {
                continue;
            }
            let demand = lane.value() * uniform(&mut rng, demand_lanes.0, demand_lanes.1);
            g.add_edge(
                ids[i],
                ids[j],
                Bandwidth(demand),
                TrafficShape::Streaming,
                format!("perm{k}"),
            );
        }
    }
    g
}

/// The generator's own checks on a graph it produced: it must equal a
/// second generation from the same seed (`again`), and no process may
/// exceed `lanes_per_port` distinct partners in either direction.
pub fn check_graph(graph: &TaskGraph, again: &TaskGraph, params: &RouterParams) -> Vec<String> {
    let mut problems = Vec::new();
    if graph != again {
        problems.push("the same seed generated two different graphs".to_string());
    }
    let n = graph.process_count();
    let mut out: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    let mut inn: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for (_, e) in graph.edges() {
        out[e.src.0].insert(e.dst.0);
        inn[e.dst.0].insert(e.src.0);
    }
    let worst = out.iter().chain(&inn).map(BTreeSet::len).max().unwrap_or(0);
    if worst > params.lanes_per_port {
        problems.push(format!(
            "a process has {worst} distinct partners, above lanes_per_port = {}",
            params.lanes_per_port
        ));
    }
    if graph.edge_count() == 0 {
        problems.push("the generated graph has no edges".to_string());
    }
    problems
}

/// Clock of the oversubscribed-line tenants (the canonical 25 MHz line
/// whose lane capacity the line's demands are sized against).
const LINE_CLOCK: MegaHertz = MegaHertz(25.0);
/// Clock of the pipeline tenants.
const PIPELINE_CLOCK: MegaHertz = MegaHertz(100.0);

/// The fleet census: `tenants` controlled tenants drawn from `seed`.
///
/// About a third are oversubscribed 3×1 hybrid lines with spill admission
/// and BE-delivered cold start: their light stream starts spilled, so the
/// demotion+promotion loop has something to hand freed lanes to. The rest
/// are 2–4 stage pipelines on any of the four backends. Every tenant runs a
/// bursty on/off or rotating-hotspot profile under
/// `LoadDemotion(floor 0.5).then(ProfiledPromotion)`, the profiled
/// promotion/demotion loop of arXiv:2005.08478.
pub fn fleet_census(seed: u64, tenants: usize) -> Vec<TenantSpec> {
    let mut rng = SplitMix64::new(seed);
    let line_lane = Ccn::new(Mesh::new(3, 1), RouterParams::paper(), LINE_CLOCK).lane_capacity();
    (0..tenants)
        .map(|i| {
            let profile = if rng.chance(0.5) {
                let period = [128, 256, 512][rng.below(3) as usize];
                PhaseProfile::BurstyOnOff {
                    period,
                    on: period / 4 * (1 + u64::from(rng.below(3))),
                }
            } else {
                PhaseProfile::HotspotFlip {
                    period: [64, 128, 256][rng.below(3) as usize],
                    background: uniform(&mut rng, 0.0, 0.4),
                }
            };
            let tenant_seed = rng.next_u64();
            let name = format!("tenant-{i:04}");
            let spec = if rng.chance(0.35) {
                TenantSpec::new(name, oversubscribed_line(line_lane))
                    .mesh(3, 1)
                    .clock(LINE_CLOCK)
                    .fabric(FabricKind::Hybrid)
                    .spill(true)
                    .provisioning(ProvisionMode::BeDelivered)
                    .policy(Box::new(
                        LoadDemotion::new(LINE_CLOCK, 0.5).then(Box::new(ProfiledPromotion)),
                    ))
            } else {
                let stages = 2 + rng.below(3) as usize;
                let per_stage = Bandwidth(uniform(&mut rng, 30.0, 90.0));
                TenantSpec::new(name, streaming_pipeline(stages, per_stage))
                    .mesh(3, 3)
                    .clock(PIPELINE_CLOCK)
                    .fabric(FabricKind::ALL[rng.below(4) as usize])
                    .policy(Box::new(
                        LoadDemotion::new(PIPELINE_CLOCK, 0.5).then(Box::new(ProfiledPromotion)),
                    ))
            };
            spec.seed(tenant_seed).workload(profile).tick_window(64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane() -> Bandwidth {
        Ccn::new(Mesh::new(16, 16), RouterParams::paper(), MegaHertz(100.0)).lane_capacity()
    }

    #[test]
    fn same_seed_same_graph_and_partner_bound_holds() {
        for seed in [1, 2, 99] {
            let a = permutation_graph(seed, 256, 2, (0.3, 1.8), lane());
            let b = permutation_graph(seed, 256, 2, (0.3, 1.8), lane());
            assert!(check_graph(&a, &b, &RouterParams::paper()).is_empty());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = permutation_graph(1, 64, 1, (0.3, 1.8), lane());
        let b = permutation_graph(2, 64, 1, (0.3, 1.8), lane());
        assert_ne!(a, b);
        assert!(!check_graph(&a, &b, &RouterParams::paper()).is_empty());
    }

    #[test]
    fn the_partner_check_rejects_a_dense_graph() {
        let dense = permutation_graph(5, 64, 6, (0.3, 1.8), lane());
        let again = permutation_graph(5, 64, 6, (0.3, 1.8), lane());
        assert!(!check_graph(&dense, &again, &RouterParams::paper()).is_empty());
    }

    #[test]
    fn the_census_is_seeded() {
        let names = |seed| -> Vec<String> {
            fleet_census(seed, 50)
                .iter()
                .map(|s| format!("{:?}{:?}{}", s.kind, s.workload, s.seed))
                .collect()
        };
        assert_eq!(names(3), names(3));
        assert_ne!(names(3), names(4));
    }
}
