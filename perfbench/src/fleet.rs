//! The churning-fleet workload: a few hundred small controlled tenants
//! stepped in lockstep batches over the worker pool, checkpointed mid-run
//! into a fresh fleet, and drained to retirement.
//!
//! Like the deployment workloads, even episodes continue on the original
//! fleet and odd episodes on the restored one; their `FleetSloReport`s
//! must compare `==`.

use crate::gen::fleet_census;
use crate::trace::{median, quantile};
use crate::{fingerprint_problems, fnv1a, pool_lanes, Outcome, RunCtx};
use noc_core::params::RouterParams;
use noc_exp::fleet::{Fleet, FleetSloReport, TenantSpec, TenantState};
use noc_mesh::ccn::Ccn;
use noc_mesh::fabric::{Fabric, FabricKind};
use noc_mesh::stream::StreamPlane;
use noc_mesh::tile::default_tile_kinds;
use noc_mesh::topology::Mesh;
use noc_sim::par::ParPolicy;

pub struct FleetWorkload {
    pub name: &'static str,
    pub tenants: usize,
    pub batch_cycles: u64,
    /// Offered-load batches per episode; the checkpoint sits halfway.
    pub batches: u64,
    /// Batches allowed for the final drain to retirement.
    pub retire_budget: u64,
    pub snapshot_reps: usize,
    /// Fingerprint of an episode at [`crate::DEFAULT_SEED`].
    pub golden: u64,
}

pub const CHURN: FleetWorkload = FleetWorkload {
    name: "fleet-churn",
    tenants: 400,
    batch_cycles: 64,
    batches: 24,
    retire_budget: 400,
    snapshot_reps: 3,
    golden: 0xb14b_95c4_d5c2_fdba,
};

struct Episode {
    report: FleetSloReport,
    fingerprint: u64,
    /// Σ over tenants of simulated cycles.
    tenant_cycles: u64,
    /// Σ over tenants of routers × simulated cycles.
    router_cycles: u64,
    /// Fleet (lockstep) cycles.
    fleet_cycles: u64,
    /// Host seconds of batch stepping plus the drain to retirement.
    stepping_s: f64,
    admits_s: Vec<f64>,
    snapshot_restore_s: Vec<f64>,
    circuit_words: u64,
    spilled_words: u64,
}

fn admit(specs: &[TenantSpec], w: &FleetWorkload, policy: ParPolicy) -> Result<Fleet, String> {
    let mut fleet = Fleet::new(w.batch_cycles).parallelism(policy);
    for spec in specs {
        fleet
            .admit(spec)
            .map_err(|e| format!("{} failed to admit: {e}", spec.name))?;
    }
    Ok(fleet)
}

fn episode(
    specs: &[TenantSpec],
    w: &FleetWorkload,
    ctx: &mut RunCtx,
    index: usize,
    policy: ParPolicy,
) -> Result<(Episode, Vec<String>), String> {
    let tr = &mut ctx.tracer;
    let mut admits_s = Vec::new();
    let (a, took) = tr.time("fleet.admit", || admit(specs, w, policy));
    let mut a = a?;
    admits_s.push(took.as_secs_f64());

    let mut stepping = std::time::Duration::ZERO;
    let half = w.batches / 2;
    for _ in 0..half {
        stepping += tr.time("fleet.step_batch", || a.step_batch()).1;
    }

    let (b, took) = tr.time("fleet.admit", || admit(specs, w, policy));
    let mut b = b?;
    admits_s.push(took.as_secs_f64());
    let mut snapshot_restore_s = Vec::new();
    for _ in 0..w.snapshot_reps {
        let (snap, t_snap) = tr.time("fleet.snapshot", || a.snapshot());
        let (restored, t_restore) = tr.time("fleet.restore", || b.restore(&snap));
        restored.map_err(|e| format!("restore failed: {e}"))?;
        snapshot_restore_s.push((t_snap + t_restore).as_secs_f64());
    }
    let mut fleet = if index.is_multiple_of(2) { a } else { b };

    for _ in half..w.batches {
        stepping += tr.time("fleet.step_batch", || fleet.step_batch()).1;
    }
    let (retired, took) = tr.time("fleet.retire", || fleet.retire_all(w.retire_budget));
    stepping += took;
    let (report, _) = tr.time("fleet.slo_report", || fleet.slo_report());
    let (energy, _) = tr.time("power.report", || {
        fleet
            .tenants()
            .iter()
            .map(|t| {
                let dep = t.deployment();
                dep.total_energy(&dep.energy_model()).value()
            })
            .sum::<f64>()
    });

    let mut problems = Vec::new();
    let tenants = specs.len() as u64;
    if !retired || report.retired != tenants {
        problems.push(format!("{} of {tenants} tenants retired", report.retired));
    }
    if !report.loss_free() || report.injected == 0 {
        problems.push(format!(
            "injected {} words, delivered {}, overflowed {}",
            report.injected, report.delivered, report.overflows
        ));
    }
    let c = report.controller;
    if c.promotions == 0 || c.demotions == 0 || c.lost != 0 {
        problems.push(format!(
            "the control loop must promote and demote without loss: \
             {} promotions, {} demotions, {} lost",
            c.promotions, c.demotions, c.lost
        ));
    }
    let mut circuit_words = 0;
    let mut spilled_words = 0;
    let mut tenant_cycles = 0;
    let mut router_cycles = 0;
    for t in fleet.tenants() {
        let dep = t.deployment();
        if t.state() != TenantState::Retired || !dep.fabric().is_quiescent() {
            problems.push(format!(
                "{} is {:?}, not retired and quiescent",
                t.name(),
                t.state()
            ));
        }
        for s in dep.fabric().stream_stats() {
            if s.injected_words != s.delivered_words {
                problems.push(format!(
                    "{} stream {} delivered {} of {} words",
                    t.name(),
                    s.id.0,
                    s.delivered_words,
                    s.injected_words
                ));
            }
            match s.plane {
                StreamPlane::Circuit => circuit_words += s.delivered_words,
                StreamPlane::Spilled => spilled_words += s.delivered_words,
                StreamPlane::Packet => {}
            }
        }
        tenant_cycles += dep.cycles_run();
        router_cycles += dep.cycles_run() * dep.fabric().mesh().nodes() as u64;
    }
    let fingerprint = fnv1a(&format!("{}{}", energy.to_bits(), report.to_json()));
    let ep = Episode {
        fingerprint,
        tenant_cycles,
        router_cycles,
        fleet_cycles: fleet.cycles_run(),
        stepping_s: stepping.as_secs_f64(),
        admits_s,
        snapshot_restore_s,
        circuit_words,
        spilled_words,
        report,
    };
    Ok((ep, problems))
}

/// Σ over the census of each tenant's standalone CCN mapping, the way its
/// admission maps it; returns `(routes, spills)`.
fn map_census(specs: &[TenantSpec]) -> Result<(usize, usize), String> {
    let mut routed = 0;
    let mut spilled = 0;
    for spec in specs {
        let mesh = Mesh::new(spec.mesh.0, spec.mesh.1);
        let ccn = Ccn::new(mesh, RouterParams::paper(), spec.clock);
        let kinds = default_tile_kinds(&mesh);
        let mapping = if spec.spill || spec.kind == FabricKind::Hybrid {
            ccn.map_with_spill(&spec.graph, &kinds)
        } else {
            ccn.map(&spec.graph, &kinds)
        }
        .map_err(|e| format!("{} does not map: {e}", spec.name))?;
        routed += mapping.routes.len();
        spilled += mapping.spilled.len();
    }
    Ok((routed, spilled))
}

pub fn run(w: &FleetWorkload, ctx: &mut RunCtx) -> Outcome {
    let mut out = Outcome::default();
    let specs = fleet_census(ctx.seed, w.tenants);
    let again = fleet_census(ctx.seed, w.tenants);
    let same = specs.len() == again.len()
        && specs
            .iter()
            .zip(&again)
            .all(|(a, b)| format!("{a:?}") == format!("{b:?}"));
    out.check(
        "generator",
        &if same {
            Vec::new()
        } else {
            vec!["the same seed generated two different censuses".to_string()]
        },
    );
    let policy = ParPolicy::Threads(pool_lanes());

    let mut first = None;
    let mut first_report: Option<FleetSloReport> = None;
    let mut episodes: Vec<(bool, Episode)> = Vec::new();
    let mut maps = Vec::new();
    let mut index = 0;
    while ctx.more(episodes.len()) {
        if ctx.traced && index % 2 == 1 {
            ctx.tracer.set_episode(index);
            ctx.tracer.set_enabled(true);
            match ctx.tracer.time("ccn.map", || map_census(&specs)).0 {
                Ok(counts) => maps.push(counts),
                Err(e) => out.check("ccn.map", &[e]),
            }
        }
        let open = ctx.begin_episode(index);
        let traced = ctx.tracer.enabled();
        let result = episode(&specs, w, ctx, index, policy);
        ctx.end_episode(index, open);
        match result {
            Ok((ep, mut problems)) => {
                match &first_report {
                    None => first_report = Some(ep.report.clone()),
                    Some(r) if *r != ep.report => problems.push(
                        "the SLO report differs from the first episode's (restored vs uninterrupted)"
                            .to_string(),
                    ),
                    Some(_) => {}
                }
                problems.extend(fingerprint_problems(
                    ctx.seed,
                    w.golden,
                    &mut first,
                    ep.fingerprint,
                    w.name,
                ));
                out.check(&format!("episode {index}"), &problems);
                let c = ep.report.controller;
                println!(
                    "episode {index}{}: {} tenant-cycles in {:.3} s, {} words, \
                     {} promotions, {} demotions, fingerprint {:016x}",
                    if traced { " [traced]" } else { "" },
                    ep.tenant_cycles,
                    ep.stepping_s,
                    ep.report.delivered,
                    c.promotions,
                    c.demotions,
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

    let all: Vec<&Episode> = episodes.iter().map(|(_, e)| e).collect();
    let over = |f: &dyn Fn(&Episode) -> f64| median(&all.iter().map(|e| f(e)).collect::<Vec<_>>());
    let admits: Vec<f64> = all
        .iter()
        .flat_map(|e| e.admits_s.iter().copied())
        .collect();
    let snaps: Vec<f64> = all
        .iter()
        .flat_map(|e| e.snapshot_restore_s.iter().copied())
        .collect();
    out.end_to_end = vec![
        (
            "sim_cycles_per_s",
            over(&|e| e.fleet_cycles as f64 / e.stepping_s),
        ),
        (
            "tenant_cycles_per_s",
            over(&|e| e.tenant_cycles as f64 / e.stepping_s),
        ),
        ("setup_s", median(&admits)),
        ("snapshot_restore_s", median(&snaps)),
    ];
    if !ctx.traced {
        return out;
    }

    // The same episode with the fleet fan-out sequential: the report must
    // not move, and the host-time ratio is the pool's speedup.
    ctx.tracer.set_episode(index);
    ctx.tracer.set_enabled(false);
    let speedup = match episode(&specs, w, ctx, index, ParPolicy::Sequential) {
        Ok((ep, mut problems)) => {
            if Some(&ep.report) != first_report.as_ref() || Some(ep.fingerprint) != first {
                problems.push("the sequential fan-out changed the SLO report".to_string());
            }
            out.check("cross-policy episode", &problems);
            ep.stepping_s / over(&|e| e.stepping_s)
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
    let (routed, spilled) = maps.first().copied().unwrap_or((0, 0));
    let c = last.report.controller;
    let per =
        |f: &dyn Fn(&Episode) -> f64| median(&traced.iter().map(|e| f(e)).collect::<Vec<_>>());
    let batch_ms: Vec<f64> = tr
        .durations("fleet.step_batch")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    out.per_layer = vec![
        ("ccn.map_s", median(&tr.durations("ccn.map"))),
        ("ccn.routed_streams", routed as f64),
        ("ccn.spilled_streams", spilled as f64),
        (
            "step.ns_per_router_cycle",
            per(&|e| e.stepping_s * 1e9 / e.router_cycles as f64),
        ),
        (
            "step.ns_per_word",
            per(&|e| e.stepping_s * 1e9 / e.report.delivered as f64),
        ),
        ("hybrid.circuit_words", last.circuit_words as f64),
        ("hybrid.spilled_words", last.spilled_words as f64),
        ("par.speedup", speedup),
        ("power.report_s", median(&tr.durations("power.report"))),
        ("controller.ticks", c.ticks as f64),
        ("controller.promotions", c.promotions as f64),
        ("controller.demotions", c.demotions as f64),
        ("controller.readmissions", c.readmissions as f64),
        ("controller.lost", c.lost as f64),
        (
            "controller.pointless_eviction_ratio",
            c.pointless_evictions as f64 / c.demotions.max(1) as f64,
        ),
        ("fleet.admit_s", median(&tr.durations("fleet.admit"))),
        ("fleet.batch_ms_p50", median(&batch_ms)),
        ("fleet.batch_ms_p90", quantile(&batch_ms, 0.9)),
        ("fleet.retire_s", median(&tr.durations("fleet.retire"))),
        ("fleet.snapshot_s", median(&tr.durations("fleet.snapshot"))),
        ("fleet.restore_s", median(&tr.durations("fleet.restore"))),
    ];
    out
}
