//! The single-deployment workloads: a saturated flat hybrid mesh and a
//! sharded chiplet grid of packet planes.
//!
//! A run builds the deployment a few times (the `setup_s` samples) and
//! keeps two copies. An episode restores the first to the freshly built
//! state, offers load for half the episode, checkpoints it
//! (`Deployment::snapshot`) into the second (`Deployment::restore`),
//! offers the second half, settles and checks. Even episodes continue on
//! the original deployment, odd ones on the restored copy, so every run
//! compares an uninterrupted simulation with a restored one through the
//! episode fingerprints.

use crate::gen::{check_graph, permutation_graph};
use crate::trace::median;
use crate::{fingerprint_problems, fnv1a, pool_lanes, Outcome, RunCtx};
use noc_apps::taskgraph::TaskGraph;
use noc_core::params::RouterParams;
use noc_exp::json::Json;
use noc_mesh::ccn::Ccn;
use noc_mesh::chiplet::{ChipletFabric, CHIPLET_BACKEND};
use noc_mesh::deployment::{Deployment, DeploymentSnapshot};
use noc_mesh::fabric::{Fabric, FabricKind};
use noc_mesh::stream::{StreamPlane, StreamStats};
use noc_mesh::tile::default_tile_kinds;
use noc_mesh::topology::Mesh;
use noc_sim::par::ParPolicy;
use noc_sim::time::CycleCount;
use noc_sim::units::MegaHertz;

/// Pooled or sequential stepping, resolved against the pool at run time.
#[derive(Clone, Copy)]
pub enum Stepping {
    Sequential,
    Pooled,
}

impl Stepping {
    fn policy(self) -> ParPolicy {
        match self {
            Stepping::Sequential => ParPolicy::Sequential,
            Stepping::Pooled => ParPolicy::Threads(pool_lanes()),
        }
    }

    fn other(self) -> Stepping {
        match self {
            Stepping::Sequential => Stepping::Pooled,
            Stepping::Pooled => Stepping::Sequential,
        }
    }
}

pub struct DeploySpec {
    pub name: &'static str,
    /// Aggregate mesh side.
    pub side: usize,
    /// `Some(g)`: a `g × g` chiplet grid.
    pub grid: Option<usize>,
    pub kind: FabricKind,
    pub stepping: Stepping,
    /// Random permutations wiring the task graph.
    pub perms: usize,
    /// Per-stream demand range, in lane capacities.
    pub demand_lanes: (f64, f64),
    /// Offered-load cycles per episode.
    pub offered: CycleCount,
    /// Upper bound on settle cycles; a fabric still busy after it fails
    /// the quiescence check.
    pub settle_cap: CycleCount,
    /// Builds at the start of a run (each a `setup_s` sample).
    pub setup_builds: usize,
    /// Also build the restore target afresh in every episode, which spreads
    /// the `setup_s` samples over the whole run. Off where one build costs
    /// more than an episode's stepping (chiplet32 maps for ~1.4 s).
    pub build_each_episode: bool,
    /// Snapshot/restore repetitions per episode (the metric is their
    /// median).
    pub snapshot_reps: usize,
    /// Fingerprint of an episode at [`crate::DEFAULT_SEED`].
    pub golden: u64,
}

const CLOCK: MegaHertz = MegaHertz(100.0);

/// 256 processes on a 16×16 hybrid mesh, two random permutations, demands
/// of 0.3–1.1 lanes: every router is busy and about a third of the ~510
/// streams spill. (At 0.3–1.8 lanes more than 256 streams spill, past the
/// packet plane's 256-stream head-flit tag space, and the build fails.)
pub const FLAT16: DeploySpec = DeploySpec {
    name: "flat16-hybrid-saturated",
    side: 16,
    grid: None,
    kind: FabricKind::Hybrid,
    stepping: Stepping::Sequential,
    perms: 2,
    demand_lanes: (0.3, 1.1),
    offered: 1000,
    settle_cap: 20_000,
    setup_builds: 2,
    build_each_episode: true,
    snapshot_reps: 5,
    golden: 0xdea8_b688_3caa_4563,
};

/// 1024 processes on a 32×32 aggregate mesh cut into a 4×4 grid of 8×8
/// packet planes, one random permutation: most streams cross chiplets.
/// Demands of 0.2–0.6 lanes keep the settle tail short; at higher load the
/// tail's length, and with it the share of cheap settle cycles, varies
/// with the seed by more than the host noise.
pub const CHIPLET32: DeploySpec = DeploySpec {
    name: "chiplet32-packet-pooled",
    side: 32,
    grid: Some(4),
    kind: FabricKind::Packet,
    stepping: Stepping::Pooled,
    perms: 1,
    demand_lanes: (0.2, 0.6),
    offered: 600,
    settle_cap: 50_000,
    setup_builds: 3,
    build_each_episode: false,
    snapshot_reps: 3,
    golden: 0x9fe1_9803_4998_9207,
};

/// What one episode measured and produced.
struct Episode {
    fingerprint: u64,
    /// Simulated cycles (offered plus settle).
    cycles: CycleCount,
    settle_cycles: CycleCount,
    /// Host seconds in `run` + `settle`.
    stepping_s: f64,
    /// `setup_s` samples taken in the episode.
    builds_s: Vec<f64>,
    snapshot_restore_s: Vec<f64>,
    delivered: u64,
    circuit_words: u64,
    spilled_words: u64,
    /// `(cross streams, NoI links, NoI wait cycles)` on a chiplet grid.
    noi: (u64, u64, u64),
}

fn lane_capacity(spec: &DeploySpec) -> noc_sim::units::Bandwidth {
    Ccn::new(
        Mesh::new(spec.side, spec.side),
        RouterParams::paper(),
        CLOCK,
    )
    .lane_capacity()
}

fn build(
    spec: &DeploySpec,
    graph: &TaskGraph,
    seed: u64,
    stepping: Stepping,
) -> Result<Deployment<Box<dyn Fabric>>, String> {
    let mut b = Deployment::builder(graph)
        .mesh(spec.side, spec.side)
        .clock(CLOCK)
        .seed(seed)
        .fabric(spec.kind)
        .spill(true)
        .parallelism(stepping.policy());
    if let Some(g) = spec.grid {
        b = b.chiplets(g, g);
    }
    b.build().map_err(|e| format!("build failed: {e}"))
}

/// Everything a sim-only change must leave bit-identical.
fn fingerprint(
    energy_bits: u64,
    dep: &Deployment<Box<dyn Fabric>>,
    stats: &[StreamStats],
    settle_cycles: CycleCount,
    noi: (u64, u64, u64),
) -> u64 {
    let streams: Vec<Json> = stats
        .iter()
        .map(|s| {
            Json::Array(vec![
                s.id.0.into(),
                s.src.0.into(),
                s.dst.0.into(),
                s.plane.name().into(),
                s.active.into(),
                s.injected_words.into(),
                s.delivered_words.into(),
                s.reconfig_cycles.into(),
                s.latency.count().into(),
                s.latency.min().into(),
                s.latency.max().into(),
                s.latency.p50().into(),
                s.latency.p95().into(),
                s.latency.mean().to_bits().into(),
                s.max_deflections.into(),
            ])
        })
        .collect();
    let doc = Json::obj()
        .with("energy_bits", energy_bits)
        .with("injected", dep.total_injected())
        .with("delivered", dep.total_delivered())
        .with("cycles", dep.cycles_run())
        .with("settle_cycles", settle_cycles)
        .with("spilled_words", dep.fabric().spilled_words())
        .with("noi", vec![noi.0, noi.1, noi.2])
        .with("streams", Json::Array(streams));
    fnv1a(&doc.to_string())
}

/// The two deployments every episode uses, and the state both start from.
struct Pair {
    a: Deployment<Box<dyn Fabric>>,
    b: Deployment<Box<dyn Fabric>>,
    initial: DeploymentSnapshot,
}

/// Build the deployment [`DeploySpec::setup_builds`] times (each build is a
/// `setup_s` sample) and keep the last two.
fn prepare(
    spec: &DeploySpec,
    graph: &TaskGraph,
    ctx: &mut RunCtx,
) -> Result<(Pair, Vec<f64>), String> {
    let seed = ctx.seed;
    let mut builds_s = Vec::new();
    let mut kept: Vec<Deployment<Box<dyn Fabric>>> = Vec::new();
    for _ in 0..spec.setup_builds.max(2) {
        let (dep, took) = ctx.tracer.time("deployment.build", || {
            build(spec, graph, seed, spec.stepping)
        });
        builds_s.push(took.as_secs_f64());
        kept.push(dep?);
        if kept.len() > 2 {
            kept.remove(0);
        }
    }
    let b = kept.pop().expect("two builds kept");
    let a = kept.pop().expect("two builds kept");
    let initial = a.snapshot();
    Ok((Pair { a, b, initial }, builds_s))
}

fn episode(
    spec: &DeploySpec,
    graph: &TaskGraph,
    pair: &mut Pair,
    ctx: &mut RunCtx,
    index: usize,
    stepping: Stepping,
) -> Result<(Episode, Vec<String>), String> {
    let tr = &mut ctx.tracer;
    let seed = ctx.seed;
    let restore = |dep: &mut Deployment<Box<dyn Fabric>>, snap: &DeploymentSnapshot| {
        dep.restore(snap)
            .map_err(|e| format!("restore failed: {e}"))?;
        dep.fabric_mut().set_parallelism(stepping.policy());
        Ok::<(), String>(())
    };
    restore(&mut pair.a, &pair.initial)?;

    let half = spec.offered / 2;
    let ((), run_a) = tr.time("deployment.run", || pair.a.run(half));

    let mut builds_s = Vec::new();
    if spec.build_each_episode {
        let (fresh, took) = tr.time("deployment.build", || build(spec, graph, seed, stepping));
        pair.b = fresh?;
        builds_s.push(took.as_secs_f64());
    }
    let mut snapshot_restore_s = Vec::new();
    for _ in 0..spec.snapshot_reps {
        let (snap, t_snap) = tr.time("deployment.snapshot", || pair.a.snapshot());
        let (restored, t_restore) = tr.time("deployment.restore", || restore(&mut pair.b, &snap));
        restored?;
        snapshot_restore_s.push((t_snap + t_restore).as_secs_f64());
    }
    if index % 2 == 1 {
        std::mem::swap(&mut pair.a, &mut pair.b);
    }
    let dep = &mut pair.a;

    let ((), run_b) = tr.time("deployment.run", || dep.run(spec.offered - half));
    let (settle_cycles, settle) = tr.time("deployment.settle", || dep.settle(spec.settle_cap));
    let model = dep.energy_model();
    let ((energy, stats), _) = tr.time("power.report", || {
        (dep.total_energy(&model), dep.fabric().stream_stats())
    });
    let stepping_s = (run_a + run_b + settle).as_secs_f64();

    let mut problems = Vec::new();
    for s in &stats {
        if s.injected_words != s.delivered_words {
            problems.push(format!(
                "stream {} delivered {} of {} words",
                s.id.0, s.delivered_words, s.injected_words
            ));
        }
    }
    if dep.total_overflows() != 0 {
        problems.push(format!("{} words overflowed", dep.total_overflows()));
    }
    if !dep.fabric().is_quiescent() {
        problems.push(format!(
            "the fabric is not quiescent after {settle_cycles} settle cycles"
        ));
    }
    if dep.total_injected() == 0 || dep.total_injected() != dep.total_delivered() {
        problems.push(format!(
            "injected {} words, delivered {}",
            dep.total_injected(),
            dep.total_delivered()
        ));
    }
    let words_on = |plane: StreamPlane| -> u64 {
        stats
            .iter()
            .filter(|s| s.plane == plane)
            .map(|s| s.delivered_words)
            .sum()
    };
    let (circuit_words, spilled_words) = (
        words_on(StreamPlane::Circuit),
        words_on(StreamPlane::Spilled),
    );
    let noi = match spec.grid {
        None => (0, 0, 0),
        Some(_) => {
            let snap = dep.fabric().snapshot();
            let ch = snap
                .downcast::<ChipletFabric>(CHIPLET_BACKEND)
                .map_err(|e| format!("not a chiplet fabric: {e}"))?;
            (
                ch.cross_streams() as u64,
                ch.noi_links() as u64,
                ch.noi_wait_cycles(),
            )
        }
    };
    if spec.kind == FabricKind::Hybrid && (spilled_words == 0 || circuit_words == 0) {
        problems.push(format!(
            "both hybrid planes must carry load: circuit {circuit_words} words, spilled {spilled_words}"
        ));
    }
    if spec.grid.is_some() && (noi.0 == 0 || noi.2 == 0) {
        problems.push(format!(
            "the chiplet grid must carry cross traffic and queue at the NoI: \
             {} cross streams, {} wait cycles",
            noi.0, noi.2
        ));
    }
    let ep = Episode {
        fingerprint: fingerprint(energy.value().to_bits(), dep, &stats, settle_cycles, noi),
        cycles: dep.cycles_run(),
        settle_cycles,
        stepping_s,
        builds_s,
        snapshot_restore_s,
        delivered: dep.total_delivered(),
        circuit_words,
        spilled_words,
        noi,
    };
    Ok((ep, problems))
}

pub fn run(spec: &DeploySpec, ctx: &mut RunCtx) -> Outcome {
    let mut out = Outcome::default();
    let lane = lane_capacity(spec);
    let processes = spec.side * spec.side;
    let graph = permutation_graph(ctx.seed, processes, spec.perms, spec.demand_lanes, lane);
    let again = permutation_graph(ctx.seed, processes, spec.perms, spec.demand_lanes, lane);
    out.check(
        "generator",
        &check_graph(&graph, &again, &RouterParams::paper()),
    );
    if out.failed > 0 {
        return out;
    }

    ctx.tracer.set_enabled(ctx.traced);
    let prepared = prepare(spec, &graph, ctx);
    ctx.tracer.set_enabled(false);
    let (mut pair, mut builds) = match prepared {
        Ok(p) => p,
        Err(e) => {
            out.check("set-up", &[e]);
            return out;
        }
    };

    let mut first = None;
    let mut episodes: Vec<(bool, Episode)> = Vec::new();
    let mut maps = Vec::new();
    let mut index = 0;
    while ctx.more(episodes.len()) {
        if ctx.traced && index % 2 == 1 {
            // Mapped standalone, outside the episode's wall time.
            ctx.tracer.set_episode(index);
            ctx.tracer.set_enabled(true);
            let mesh = Mesh::new(spec.side, spec.side);
            let kinds = default_tile_kinds(&mesh);
            let (mapping, _) = ctx.tracer.time("ccn.map", || {
                Ccn::new(mesh, RouterParams::paper(), CLOCK).map_with_spill(&graph, &kinds)
            });
            match mapping {
                Ok(m) => maps.push((m.routes.len(), m.spilled.len())),
                Err(e) => out.check("ccn.map", &[e.to_string()]),
            }
        }
        let open = ctx.begin_episode(index);
        let traced = ctx.tracer.enabled();
        let result = episode(spec, &graph, &mut pair, ctx, index, spec.stepping);
        ctx.end_episode(index, open);
        match result {
            Ok((ep, mut problems)) => {
                problems.extend(fingerprint_problems(
                    ctx.seed,
                    spec.golden,
                    &mut first,
                    ep.fingerprint,
                    spec.name,
                ));
                out.check(&format!("episode {index}"), &problems);
                println!(
                    "episode {index}{}: {} cycles ({} settle) in {:.3} s, {} words, fingerprint {:016x}",
                    if traced { " [traced]" } else { "" },
                    ep.cycles,
                    ep.settle_cycles,
                    ep.stepping_s,
                    ep.delivered,
                    ep.fingerprint
                );
                if index > 0 {
                    episodes.push((traced, ep));
                }
            }
            Err(e) => {
                out.check(&format!("episode {index}"), &[e]);
                return out;
            }
        }
        index += 1;
    }

    let rate = |e: &Episode| e.cycles as f64 / e.stepping_s;
    let all: Vec<&Episode> = episodes.iter().map(|(_, e)| e).collect();
    let cycles_per_s = median(&all.iter().map(|e| rate(e)).collect::<Vec<_>>());
    let snaps: Vec<f64> = all
        .iter()
        .flat_map(|e| e.snapshot_restore_s.iter().copied())
        .collect();
    builds.extend(all.iter().flat_map(|e| e.builds_s.iter().copied()));
    out.end_to_end = vec![
        ("sim_cycles_per_s", cycles_per_s),
        // One deployment is one tenant.
        ("tenant_cycles_per_s", cycles_per_s),
        ("setup_s", median(&builds)),
        ("snapshot_restore_s", median(&snaps)),
    ];
    if !ctx.traced {
        return out;
    }

    // The same episode under the other stepping policy: the fingerprint
    // must not move, and the host-time ratio is the pool's speedup.
    ctx.tracer.set_episode(index);
    ctx.tracer.set_enabled(false);
    let other = episode(spec, &graph, &mut pair, ctx, index, spec.stepping.other());
    let speedup = match other {
        Ok((ep, mut problems)) => {
            if Some(ep.fingerprint) != first {
                problems.push(format!(
                    "fingerprint {:016x} under the other stepping policy differs from {:016x}",
                    ep.fingerprint,
                    first.unwrap_or(0)
                ));
            }
            out.check("cross-policy episode", &problems);
            let mine = median(&all.iter().map(|e| e.stepping_s).collect::<Vec<_>>());
            match spec.stepping {
                Stepping::Pooled => ep.stepping_s / mine,
                Stepping::Sequential => mine / ep.stepping_s,
            }
        }
        Err(e) => {
            out.check("cross-policy episode", &[e]);
            0.0
        }
    };

    let traced: Vec<&Episode> = episodes
        .iter()
        .filter(|(t, _)| *t)
        .map(|(_, e)| e)
        .collect();
    let last = traced.last().expect("a traced run has traced episodes");
    let tr = &ctx.tracer;
    let nodes = processes as f64;
    let (routed, spilled) = maps.first().copied().unwrap_or((0, 0));
    let per =
        |f: &dyn Fn(&Episode) -> f64| median(&traced.iter().map(|e| f(e)).collect::<Vec<_>>());
    out.per_layer = vec![
        ("ccn.map_s", median(&tr.durations("ccn.map"))),
        ("ccn.routed_streams", routed as f64),
        ("ccn.spilled_streams", spilled as f64),
        (
            "deployment.build_s",
            median(&tr.durations("deployment.build")),
        ),
        (
            "deployment.run_s",
            median(&tr.per_episode_totals("deployment.run")),
        ),
        (
            "deployment.settle_s",
            median(&tr.per_episode_totals("deployment.settle")),
        ),
        ("deployment.settle_cycles", last.settle_cycles as f64),
        (
            "step.ns_per_router_cycle",
            per(&|e| e.stepping_s * 1e9 / (nodes * e.cycles as f64)),
        ),
        (
            "step.ns_per_word",
            per(&|e| e.stepping_s * 1e9 / e.delivered as f64),
        ),
        ("hybrid.circuit_words", last.circuit_words as f64),
        ("hybrid.spilled_words", last.spilled_words as f64),
        ("chiplet.cross_streams", last.noi.0 as f64),
        ("chiplet.noi_links", last.noi.1 as f64),
        ("chiplet.noi_wait_cycles", last.noi.2 as f64),
        ("par.speedup", speedup),
        ("power.report_s", median(&tr.durations("power.report"))),
    ];
    out
}
