//! Chiplet mesh-of-meshes: a hierarchical fabric built from a `cw × ch`
//! grid of independent per-chiplet backend fabrics stitched together by
//! **network-on-interposer (NoI) entry routers**.
//!
//! Each chiplet owns a full backend fabric (`FabricKind`-generic: circuit,
//! hybrid, deflection or packet) over its `iw × ih` sub-mesh. Streams whose
//! endpoints land on the same chiplet are provisioned verbatim on that
//! plane. Cross-chiplet streams are split into a *source segment* (src tile
//! → boundary exit tile), an XY walk over the NoI link graph, and a
//! *destination segment* (boundary entry tile → dst tile); the NoI hop is a
//! contended resource with `entry_lanes` lanes per directed link — one word
//! per lane per cycle, excess words queue and the wait is charged to the
//! stream's `LatencyHistogram`.
//!
//! Stepping shards the chiplet planes onto the shared [`WorkerPool`]: each
//! plane is one contiguous dispatch block, and boundary words are exchanged
//! in a fully sequential post-step phase so results are bit-identical under
//! every [`ParPolicy`].

use std::collections::{BTreeMap, VecDeque};

use noc_core::lane::Port;
use noc_power::area::noi_entry_router_area;
use noc_sim::activity::{
    merge_by_kind, ActivityClass, ActivityLedger, ComponentActivity, ComponentKind,
};
use noc_sim::kernel::Clocked;
use noc_sim::par::{ParPolicy, WorkerPool};
use noc_sim::time::Cycle;
use noc_sim::units::SquareMicroMeters;

use crate::ccn::{Ccn, EdgeRoute, Mapping, PathHop, SpillReason, SpillStream};
use crate::deployment::{Backend, BackendParams};
use crate::fabric::{
    EnergyModel, Fabric, FabricKind, FabricSnapshot, ProvisionError, SnapshotError,
};
use crate::stream::{
    stats_by_id, AdmitError, Ledger, ProvisionMode, ReleaseMode, Sessions, StreamDemand, StreamId,
    StreamPlane, StreamStats,
};
use crate::topology::{Mesh, NodeId};

/// Snapshot label for [`ChipletFabric`] — public so harnesses holding a
/// `&dyn Fabric` can recognise and downcast a chiplet snapshot.
pub const CHIPLET_BACKEND: &str = "chiplet-mesh";

/// Knobs of the chiplet hierarchy: the per-chiplet backend parameters plus
/// the NoI entry-router sizing.
#[derive(Debug, Clone)]
pub struct ChipletConfig {
    /// How every inner plane is built — the same parameter set the
    /// deployment builder builds a flat fabric from.
    pub backend: BackendParams,
    /// Entry lanes per directed NoI link — the contended boundary resource.
    pub entry_lanes: usize,
}

impl ChipletConfig {
    /// Paper-default backend parameters with the default NoI sizing.
    pub fn paper() -> Self {
        ChipletConfig {
            backend: BackendParams::paper(),
            entry_lanes: ChipletFabric::DEFAULT_ENTRY_LANES,
        }
    }
}

impl Default for ChipletConfig {
    fn default() -> Self {
        ChipletConfig::paper()
    }
}

/// One word in flight on the NoI: stream tag, payload, and the cycle it
/// entered the current link's staging buffer (words advance one link per
/// cycle, so a word entered at cycle `t` is eligible to pop at `t + 1`).
#[derive(Debug, Clone, Copy)]
struct NoiWord {
    stream: u32,
    word: u16,
    entered: u64,
}

/// One directed NoI link between two adjacent chiplets, with its finite
/// entry lanes and the staging queue in front of them.
#[derive(Debug, Clone)]
struct NoiLink {
    /// Source chiplet index in the grid.
    from: usize,
    /// Destination chiplet index.
    to: usize,
    /// Streams currently holding a reserved entry lane.
    reserved: usize,
    /// Words staged at this link's entry router.
    queue: VecDeque<NoiWord>,
}

/// Where a provisioned stream lives in the hierarchy.
#[derive(Debug, Clone)]
enum ChipletSlot {
    /// Both endpoints on one chiplet: forwarded verbatim to that plane.
    Intra { chip: usize, local: StreamId },
    /// Endpoints on different chiplets: source segment, NoI walk,
    /// destination segment. A `None` segment is degenerate (the endpoint
    /// tile *is* the boundary tile) and words bypass that inner plane.
    Cross {
        src_chip: usize,
        dst_chip: usize,
        src_seg: Option<StreamId>,
        dst_seg: Option<StreamId>,
        links: Vec<usize>,
    },
}

/// Per-stream bookkeeping at the chiplet level.
#[derive(Debug, Clone)]
struct ChipletStream {
    slot: ChipletSlot,
    /// Whether the destination segment's drain release has been issued.
    dst_drain_issued: bool,
    /// NoI configuration cycles charged at `BeDelivered` provisioning.
    noi_reconfig: u64,
    /// First cycle at which the NoI path accepts words.
    ready_at: u64,
    /// Total cycles words of this stream spent queued at NoI entry routers.
    noi_wait: u64,
    /// Words currently somewhere on the NoI walk.
    in_flight: u64,
    /// Injection timestamps of words not yet delivered, in order.
    pending_ts: VecDeque<u64>,
    /// Words waiting to enter the first NoI link (degenerate source
    /// segment, or flushed out of the source plane).
    noi_ingress: VecDeque<u16>,
    /// Cross streams' delivery ledger (intra streams report their plane's).
    ledger: Ledger,
}

impl ChipletStream {
    /// A stream on `slot` whose NoI path takes `noi_reconfig` cycles to
    /// configure from cycle `now`.
    fn new(slot: ChipletSlot, now: u64, noi_reconfig: u64) -> ChipletStream {
        ChipletStream {
            slot,
            dst_drain_issued: false,
            noi_reconfig,
            ready_at: now + noi_reconfig,
            noi_wait: 0,
            in_flight: 0,
            pending_ts: VecDeque::new(),
            noi_ingress: VecDeque::new(),
            ledger: Ledger::default(),
        }
    }

    fn cross_links(&self) -> &[usize] {
        match &self.slot {
            ChipletSlot::Cross { links, .. } => links,
            ChipletSlot::Intra { .. } => &[],
        }
    }
}

/// How a stream segment resolved during hierarchical provisioning.
enum SegOutcome {
    /// Local stream admitted/spilled on the chiplet plane.
    Stream,
    /// Degenerate: endpoint tile is the boundary tile, no local stream.
    Degenerate,
    /// Could not be served (circuit inner plane out of lanes).
    Unserved,
}

/// What a pending local-plane binding refers to, in the order local ids
/// come back from `provision_with`.
#[derive(Debug, Clone, Copy)]
enum SegRef {
    /// Intra stream (global id): bind the local id to the `Intra` slot.
    Intra(u32),
    /// Source segment of cross stream (global id).
    Src(u32),
    /// Destination segment of cross stream (global id).
    Dst(u32),
}

/// Per-chiplet mapping under construction during `provision_with`.
#[derive(Debug, Default)]
struct ChipPlan {
    placement: Vec<(noc_apps::taskgraph::ProcessId, NodeId)>,
    routes: Vec<EdgeRoute>,
    spilled: Vec<SpillStream>,
    /// Bindings for streams that become *routes* on this plane, in push order.
    route_refs: Vec<SegRef>,
    /// Bindings for streams that become *spills* on this plane, in push order.
    spill_refs: Vec<SegRef>,
}

impl ChipPlan {
    /// Append a tentatively resolved segment's routes and spills.
    fn absorb(&mut self, other: ChipPlan) {
        self.routes.extend(other.routes);
        self.route_refs.extend(other.route_refs);
        self.spilled.extend(other.spilled);
        self.spill_refs.extend(other.spill_refs);
    }
}

/// How a cross-chiplet stream crosses the hierarchy: its NoI walk and the
/// two inner-plane segments around it.
struct CrossWalk {
    src_chip: usize,
    dst_chip: usize,
    /// Directed NoI link indices in hop order.
    links: Vec<usize>,
    /// Source tile → boundary exit tile on the source chiplet; `None` when
    /// the source tile is the boundary tile.
    src_seg: Option<StreamDemand>,
    /// Boundary entry tile → destination tile on the destination chiplet;
    /// `None` when the destination tile is the boundary tile.
    dst_seg: Option<StreamDemand>,
}

/// A `cw × ch` grid of per-chiplet backend fabrics joined by NoI entry
/// routers. Implements [`Fabric`] so every layer above (deployments,
/// controllers, fleets, benches) works unchanged.
#[derive(Debug, Clone)]
pub struct ChipletFabric {
    mesh: Mesh,
    grid: Mesh,
    inner_mesh: Mesh,
    inner_kind: FabricKind,
    config: ChipletConfig,
    planes: Vec<Backend>,
    links: Vec<NoiLink>,
    link_index: BTreeMap<(usize, usize), usize>,
    sessions: Sessions<ChipletStream>,
    policy: ParPolicy,
    now: Cycle,
    noi_link_activity: ActivityLedger,
    noi_buffer_activity: ActivityLedger,
    noi_arbiter_activity: ActivityLedger,
}

impl ChipletFabric {
    /// Default entry lanes per directed NoI link.
    pub const DEFAULT_ENTRY_LANES: usize = 4;

    /// Configuration cycles charged per NoI link on a `BeDelivered`
    /// provision or a runtime `admit_stream` of a cross-chiplet stream:
    /// the entry router's lane table is written over the die-to-die
    /// sideband, one link at a time.
    pub const NOI_CONFIG_CYCLES_PER_LINK: u64 = 4;

    /// Build a chiplet fabric over `mesh` split into a `cw × ch` grid of
    /// identical inner planes of `kind`.
    ///
    /// # Panics
    /// Panics when the grid is empty or `mesh` does not divide evenly
    /// into `cw × ch` chiplets.
    pub fn new(mesh: Mesh, cw: usize, ch: usize, kind: FabricKind, config: ChipletConfig) -> Self {
        assert!(cw >= 1 && ch >= 1, "chiplet grid must be at least 1x1");
        assert!(
            mesh.width.is_multiple_of(cw) && mesh.height.is_multiple_of(ch),
            "mesh {}x{} does not divide into a {}x{} chiplet grid",
            mesh.width,
            mesh.height,
            cw,
            ch,
        );
        assert!(
            config.entry_lanes >= 1,
            "NoI links need at least one entry lane"
        );
        let grid = Mesh::new(cw, ch);
        let inner_mesh = Mesh::new(mesh.width / cw, mesh.height / ch);
        let planes = (0..grid.nodes())
            .map(|_| Backend::new(kind, inner_mesh, &config.backend))
            .collect();
        let mut links = Vec::new();
        let mut link_index = BTreeMap::new();
        for (from, _, to) in grid.links() {
            link_index.insert((from.0, to.0), links.len());
            links.push(NoiLink {
                from: from.0,
                to: to.0,
                reserved: 0,
                queue: VecDeque::new(),
            });
        }
        ChipletFabric {
            mesh,
            grid,
            inner_mesh,
            inner_kind: kind,
            config,
            planes,
            links,
            link_index,
            sessions: Sessions::new(),
            policy: ParPolicy::Sequential,
            now: Cycle(0),
            noi_link_activity: ActivityLedger::default(),
            noi_buffer_activity: ActivityLedger::default(),
            noi_arbiter_activity: ActivityLedger::default(),
        }
    }

    /// Paper-default chiplet fabric.
    pub fn paper(mesh: Mesh, cw: usize, ch: usize, kind: FabricKind) -> Self {
        ChipletFabric::new(mesh, cw, ch, kind, ChipletConfig::paper())
    }

    /// The chiplet grid (`cw × ch`).
    pub fn grid(&self) -> Mesh {
        self.grid
    }

    /// The per-chiplet sub-mesh.
    pub fn inner_mesh(&self) -> Mesh {
        self.inner_mesh
    }

    /// Number of chiplet planes (= parallel shards).
    pub fn chiplets(&self) -> usize {
        self.planes.len()
    }

    /// Entry lanes per directed NoI link.
    pub fn entry_lanes(&self) -> usize {
        self.config.entry_lanes
    }

    /// Number of directed NoI links in the grid.
    pub fn noi_links(&self) -> usize {
        self.links.len()
    }

    /// Total cycles stream words spent queued at NoI entry routers.
    pub fn noi_wait_cycles(&self) -> u64 {
        self.sessions.iter().map(|s| s.state.noi_wait).sum()
    }

    /// Number of live cross-chiplet streams.
    pub fn cross_streams(&self) -> usize {
        self.sessions
            .iter()
            .filter(|s| s.active && matches!(s.state.slot, ChipletSlot::Cross { .. }))
            .count()
    }

    // -- geometry -----------------------------------------------------------

    /// Chiplet grid index owning aggregate `node`.
    pub fn chip_of(&self, node: NodeId) -> usize {
        let (x, y) = self.mesh.coords(node);
        (y / self.inner_mesh.height) * self.grid.width + x / self.inner_mesh.width
    }

    /// Aggregate node → tile on its chiplet's sub-mesh.
    pub fn local_node(&self, node: NodeId) -> NodeId {
        let (x, y) = self.mesh.coords(node);
        self.inner_mesh
            .node(x % self.inner_mesh.width, y % self.inner_mesh.height)
    }

    /// Tile on chiplet `chip`'s sub-mesh → aggregate node.
    pub fn aggregate_node(&self, chip: usize, local: NodeId) -> NodeId {
        let (cx, cy) = self.grid.coords(NodeId(chip));
        let (lx, ly) = self.inner_mesh.coords(local);
        self.mesh.node(
            cx * self.inner_mesh.width + lx,
            cy * self.inner_mesh.height + ly,
        )
    }

    /// Boundary tile a source-segment word exits through, given the first
    /// NoI hop direction.
    fn exit_node(&self, local_src: NodeId, first_port: Port) -> NodeId {
        let (x, y) = self.inner_mesh.coords(local_src);
        match first_port {
            Port::East => self.inner_mesh.node(self.inner_mesh.width - 1, y),
            Port::West => self.inner_mesh.node(0, y),
            Port::South => self.inner_mesh.node(x, self.inner_mesh.height - 1),
            Port::North => self.inner_mesh.node(x, 0),
            Port::Tile => local_src,
        }
    }

    /// Boundary tile a destination-segment word enters through, given the
    /// last NoI hop direction.
    fn entry_node(&self, local_dst: NodeId, last_port: Port) -> NodeId {
        let (x, y) = self.inner_mesh.coords(local_dst);
        match last_port {
            Port::East => self.inner_mesh.node(0, y),
            Port::West => self.inner_mesh.node(self.inner_mesh.width - 1, y),
            Port::South => self.inner_mesh.node(x, 0),
            Port::North => self.inner_mesh.node(x, self.inner_mesh.height - 1),
            Port::Tile => local_dst,
        }
    }

    /// XY walk over the chiplet grid from `src_chip` to `dst_chip`,
    /// returning the directed link indices in hop order.
    fn noi_route(&self, src_chip: usize, dst_chip: usize) -> Vec<usize> {
        let mut route = Vec::new();
        let mut cur = NodeId(src_chip);
        let dst = NodeId(dst_chip);
        while cur != dst {
            let port = self
                .grid
                .xy_step(cur, dst)
                .expect("xy_step yields a port while chiplets differ");
            let next = self
                .grid
                .neighbour(cur, port)
                .expect("xy_step ports stay on the grid");
            route.push(self.link_index[&(cur.0, next.0)]);
            cur = next;
        }
        route
    }

    /// The NoI walk and inner-plane segments of cross-chiplet `demand`.
    fn cross_walk(&self, demand: &StreamDemand) -> CrossWalk {
        let (src_chip, dst_chip) = (self.chip_of(demand.src), self.chip_of(demand.dst));
        let links = self.noi_route(src_chip, dst_chip);
        let port_of = |l: &NoiLink| {
            self.grid
                .xy_step(NodeId(l.from), NodeId(l.to))
                .expect("adjacent chiplets are one XY step apart")
        };
        let first = port_of(&self.links[links[0]]);
        let last = port_of(&self.links[*links.last().expect("cross walk has at least one link")]);
        let segment = |src, dst| {
            (src != dst).then_some(StreamDemand {
                src,
                dst,
                demand: demand.demand,
            })
        };
        let (local_src, local_dst) = (self.local_node(demand.src), self.local_node(demand.dst));
        CrossWalk {
            src_chip,
            dst_chip,
            src_seg: segment(local_src, self.exit_node(local_src, first)),
            dst_seg: segment(self.entry_node(local_dst, last), local_dst),
            links,
        }
    }

    /// Does any link of a NoI walk have every entry lane reserved?
    fn noi_full(&self, links: &[usize]) -> bool {
        links
            .iter()
            .any(|&l| self.links[l].reserved >= self.config.entry_lanes)
    }

    /// `demand` between two tiles of one chiplet, in that chiplet's local
    /// coordinates.
    fn local_demand(&self, demand: &StreamDemand) -> StreamDemand {
        StreamDemand {
            src: self.local_node(demand.src),
            dst: self.local_node(demand.dst),
            demand: demand.demand,
        }
    }

    /// Can same-chiplet `route` be installed on its chiplet's plane as it
    /// stands? Packet and deflection planes read only a route's endpoints.
    /// Circuit and hybrid planes configure every hop, so the route must
    /// stay on the chiplet — and the aggregate CCN may detour a
    /// same-chiplet stream through a neighbouring chiplet.
    fn verbatim(&self, route: &EdgeRoute) -> bool {
        let chip = route.src().map(|n| self.chip_of(n));
        !matches!(self.inner_kind, FabricKind::Circuit | FabricKind::Hybrid)
            || route
                .paths
                .iter()
                .flatten()
                .all(|hop| Some(self.chip_of(hop.node)) == chip)
    }

    /// Translate an aggregate-mesh path-hop sequence onto the inner mesh of
    /// one chiplet (all hops must stay inside that chiplet wherever the
    /// plane reads them).
    fn route_in_chip(&self, route: &EdgeRoute) -> EdgeRoute {
        debug_assert!(self.verbatim(route), "route leaves its chiplet");
        let paths = route
            .paths
            .iter()
            .map(|path| {
                path.iter()
                    .map(|hop| PathHop {
                        node: self.local_node(hop.node),
                        ..*hop
                    })
                    .collect()
            })
            .collect();
        EdgeRoute {
            edges: route.edges.clone(),
            paths,
            lane_capacity: route.lane_capacity,
            demand: route.demand,
        }
    }

    /// Resolve one stream segment `want` (local tiles; `None` when
    /// degenerate) onto a chip's plan. Circuit and hybrid inner planes go
    /// through the local CCN; packet and deflection planes take everything
    /// as spill streams.
    fn resolve_segment(
        &self,
        ccn: &Ccn,
        plan: &mut ChipPlan,
        occupied: &mut Vec<EdgeRoute>,
        want: Option<StreamDemand>,
        seg: SegRef,
    ) -> SegOutcome {
        let Some(want) = want else {
            return SegOutcome::Degenerate;
        };
        if matches!(self.inner_kind, FabricKind::Circuit | FabricKind::Hybrid) {
            match ccn.admit_stream(&want, occupied) {
                Ok(route) => {
                    occupied.push(route.clone());
                    plan.routes.push(route);
                    plan.route_refs.push(seg);
                    return SegOutcome::Stream;
                }
                // A circuit plane has no spill plane to fall back on.
                Err(_) if self.inner_kind == FabricKind::Circuit => return SegOutcome::Unserved,
                Err(_) => {}
            }
        }
        plan.spilled.push(SpillStream {
            edges: Vec::new(),
            src: want.src,
            dst: want.dst,
            demand: want.demand,
            reason: SpillReason::NoFreeLanes,
        });
        plan.spill_refs.push(seg);
        SegOutcome::Stream
    }

    // -- NoI stepping phases ------------------------------------------------

    /// Advance every NoI link by one cycle: pop up to `entry_lanes` eligible
    /// words per link (arrival order), deliver or forward them. Fully
    /// sequential in link-index order — this is the determinism barrier.
    fn advance_noi(&mut self, now: u64) {
        let entry_lanes = self.config.entry_lanes;
        // Phase 1: pop grants per link. Only words staged before this cycle
        // are eligible, so a word makes exactly one link per cycle.
        let mut moved: Vec<(usize, NoiWord)> = Vec::new();
        for (li, link) in self.links.iter_mut().enumerate() {
            let mut granted = 0usize;
            while granted < entry_lanes {
                match link.queue.front() {
                    Some(w) if w.entered < now => {
                        let w = link.queue.pop_front().expect("front word just observed");
                        moved.push((li, w));
                        granted += 1;
                    }
                    _ => break,
                }
            }
            if granted > 0 || !link.queue.is_empty() {
                self.noi_arbiter_activity.add(ActivityClass::ArbiterEval, 1);
            }
        }
        // Phase 2: charge energy and wait, then deliver or push to the next
        // link on the word's walk.
        let mut relays: BTreeMap<(usize, u32), Vec<u16>> = BTreeMap::new();
        for (li, w) in moved {
            self.noi_buffer_activity.add(ActivityClass::BufferRead, 1);
            self.noi_link_activity.add(ActivityClass::LinkToggle, 16);
            let idx = self
                .sessions
                .index_of(StreamId(w.stream))
                .expect("NoI words belong to registered streams");
            let st = &mut self.sessions[idx].state;
            st.noi_wait += (now - w.entered).saturating_sub(1);
            let links = st.cross_links();
            let pos = links
                .iter()
                .position(|&l| l == li)
                .expect("NoI word travels on its stream's walk");
            if let Some(&next) = links.get(pos + 1) {
                self.noi_buffer_activity.add(ActivityClass::BufferWrite, 1);
                self.links[next]
                    .queue
                    .push_back(NoiWord { entered: now, ..w });
            } else {
                st.in_flight -= 1;
                match &st.slot {
                    ChipletSlot::Cross {
                        dst_chip,
                        dst_seg: Some(_),
                        ..
                    } => {
                        relays
                            .entry((*dst_chip, w.stream))
                            .or_default()
                            .push(w.word);
                    }
                    ChipletSlot::Cross { dst_seg: None, .. } => {
                        // Degenerate destination segment: the boundary tile
                        // is the destination tile.
                        let latency = st.pending_ts.pop_front().map(|ts| now - ts);
                        st.ledger.deliver(w.word, latency);
                    }
                    ChipletSlot::Intra { .. } => unreachable!("intra streams never ride the NoI"),
                }
            }
        }
        // Phase 3: relay delivered words into destination planes, then give
        // those planes their injection flush.
        let mut touched: Vec<usize> = Vec::new();
        for ((chip, stream), words) in relays {
            let st = self
                .sessions
                .get(StreamId(stream))
                .expect("relayed words belong to registered streams");
            let local = match &st.state.slot {
                ChipletSlot::Cross {
                    dst_seg: Some(local),
                    ..
                } => *local,
                _ => unreachable!("relayed words target a live destination segment"),
            };
            self.planes[chip]
                .as_fabric_mut()
                .inject_stream(local, &words);
            if touched.last() != Some(&chip) {
                touched.push(chip);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for chip in touched {
            self.planes[chip].as_fabric_mut().finish_injection();
        }
    }

    /// Move source-segment output (or degenerate-source ingress) onto the
    /// first NoI link of each cross stream.
    fn feed_noi(&mut self, now: u64) {
        for idx in 0..self.sessions.len() {
            let st = &self.sessions[idx];
            if !st.active && !st.draining {
                continue;
            }
            let (src_chip, first_link, src_seg) = match &st.state.slot {
                ChipletSlot::Cross {
                    src_chip,
                    links,
                    src_seg,
                    ..
                } => (*src_chip, links[0], *src_seg),
                ChipletSlot::Intra { .. } => continue,
            };
            if let Some(local) = src_seg {
                let words = self.planes[src_chip].as_fabric_mut().drain_stream(local);
                self.sessions[idx].state.noi_ingress.extend(words);
            }
            let id = self.sessions[idx].id.0;
            let st = &mut self.sessions[idx].state;
            if now >= st.ready_at {
                while let Some(word) = st.noi_ingress.pop_front() {
                    st.in_flight += 1;
                    self.noi_buffer_activity.add(ActivityClass::BufferWrite, 1);
                    self.links[first_link].queue.push_back(NoiWord {
                        stream: id,
                        word,
                        entered: now,
                    });
                }
            }
        }
    }

    /// Pull destination-segment deliveries up to the chiplet level.
    fn collect_dst(&mut self, now: u64) {
        for idx in 0..self.sessions.len() {
            let (dst_chip, dst_seg) = match &self.sessions[idx].state.slot {
                ChipletSlot::Cross {
                    dst_chip,
                    dst_seg: Some(local),
                    ..
                } => (*dst_chip, *local),
                _ => continue,
            };
            let words = self.planes[dst_chip].as_fabric_mut().drain_stream(dst_seg);
            if words.is_empty() {
                continue;
            }
            let st = &mut self.sessions[idx].state;
            for word in words {
                let latency = st.pending_ts.pop_front().map(|ts| now - ts);
                st.ledger.deliver(word, latency);
            }
        }
    }

    /// Progress draining streams: finalise intra streams whose plane stream
    /// went inactive, cascade cross-stream drains from source segment to
    /// NoI to destination segment.
    fn finalise_drains(&mut self) {
        let planes = &mut self.planes;
        let retired = self.sessions.retire_drained(|s| {
            let st = &mut s.state;
            let retired = |planes: &[Backend], chip: usize, local: StreamId| {
                planes[chip].as_fabric().stream_is_active(local) == Some(false)
            };
            match st.slot {
                ChipletSlot::Intra { chip, local } => retired(&planes[..], chip, local),
                ChipletSlot::Cross {
                    src_chip,
                    dst_chip,
                    src_seg,
                    dst_seg,
                    ..
                } => {
                    let src_done = src_seg.is_none_or(|s| retired(&planes[..], src_chip, s));
                    let noi_empty = st.noi_ingress.is_empty() && st.in_flight == 0;
                    if src_done && noi_empty && !st.dst_drain_issued {
                        if let Some(d) = dst_seg {
                            planes[dst_chip]
                                .as_fabric_mut()
                                .release(d, ReleaseMode::Drain)
                                .expect("destination segment is live while draining");
                        }
                        st.dst_drain_issued = true;
                    }
                    st.dst_drain_issued && dst_seg.is_none_or(|d| retired(&planes[..], dst_chip, d))
                }
            }
        });
        for idx in retired {
            self.free_links(idx);
        }
    }

    /// Free stream `idx`'s NoI entry-lane reservations.
    fn free_links(&mut self, idx: usize) {
        for &l in self.sessions[idx].state.cross_links() {
            self.links[l].reserved = self.links[l].reserved.saturating_sub(1);
        }
    }

    /// One aggregate cycle: step every chiplet plane (sharded onto the
    /// worker pool), then exchange boundary words sequentially.
    fn step_chiplets(&mut self) {
        let lanes = self.policy.lanes_for(self.mesh.nodes());
        if lanes <= 1 || self.planes.len() <= 1 {
            for plane in &mut self.planes {
                plane.as_fabric_mut().step();
            }
        } else {
            WorkerPool::global().for_each_mut(&mut self.planes, lanes, |plane| {
                plane.as_fabric_mut().step();
            });
        }
        self.now = Cycle(self.now.0 + 1);
        let now = self.now.0;
        self.advance_noi(now);
        self.feed_noi(now);
        self.collect_dst(now);
        self.finalise_drains();
    }
}

impl Clocked for ChipletFabric {
    fn eval(&mut self) {}

    fn commit(&mut self) {
        self.step_chiplets();
    }
}

impl Fabric for ChipletFabric {
    fn kind(&self) -> FabricKind {
        self.inner_kind
    }

    fn snapshot(&self) -> FabricSnapshot {
        FabricSnapshot::new(CHIPLET_BACKEND, self.clone())
    }

    fn restore(&mut self, snapshot: &FabricSnapshot) -> Result<(), SnapshotError> {
        *self = snapshot.downcast::<ChipletFabric>(CHIPLET_BACKEND)?.clone();
        Ok(())
    }

    fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    fn now(&self) -> Cycle {
        self.now
    }

    fn provision(&mut self, mapping: &Mapping) -> Result<Vec<StreamId>, ProvisionError> {
        self.provision_with(mapping, ProvisionMode::Instant)
    }

    fn provision_with(
        &mut self,
        mapping: &Mapping,
        mode: ProvisionMode,
    ) -> Result<Vec<StreamId>, ProvisionError> {
        for link in &mut self.links {
            link.reserved = 0;
            link.queue.clear();
        }
        let streams = mapping.streams();
        self.sessions.reset(streams.len() as u32);

        let ccn = Ccn::with_lane_capacity(
            self.inner_mesh,
            self.config.backend.router_params,
            mapping.lane_capacity,
        );
        let chips = self.planes.len();
        let mut plans: Vec<ChipPlan> = (0..chips).map(|_| ChipPlan::default()).collect();
        let mut occupied: Vec<Vec<EdgeRoute>> = vec![Vec::new(); chips];

        for &(proc, node) in &mapping.placement {
            plans[self.chip_of(node)]
                .placement
                .push((proc, self.local_node(node)));
        }

        // Pre-pass: seed each chiplet's occupancy with every same-chiplet
        // route that will be provisioned verbatim, so segment admission
        // cannot collide with them regardless of stream order.
        for ms in &streams {
            if ms.spilled {
                continue;
            }
            let route = &mapping.routes[ms.route.expect("non-spilled stream has a route")];
            if self.chip_of(ms.src) == self.chip_of(ms.dst) && self.verbatim(route) {
                occupied[self.chip_of(ms.src)].push(self.route_in_chip(route));
            }
        }

        let mut served = Vec::new();
        for ms in &streams {
            let src_chip = self.chip_of(ms.src);
            let dst_chip = self.chip_of(ms.dst);
            let gid = ms.id.0;
            let (slot, noi_reconfig) = if src_chip == dst_chip {
                let plan = &mut plans[src_chip];
                if ms.spilled {
                    // Aggregate-level spill decisions are preserved verbatim
                    // so a 1×1 grid stays bit-identical to the flat fabric:
                    // a circuit plane cannot carry them at all, every other
                    // plane takes them directly as spill streams.
                    if matches!(self.inner_kind, FabricKind::Circuit) {
                        continue;
                    }
                    let spill = &mapping.spilled[ms.spill.expect("spilled stream has a spill")];
                    plan.spilled.push(SpillStream {
                        edges: spill.edges.clone(),
                        src: self.local_node(ms.src),
                        dst: self.local_node(ms.dst),
                        demand: spill.demand,
                        reason: spill.reason,
                    });
                    plan.spill_refs.push(SegRef::Intra(gid));
                } else {
                    let route = &mapping.routes[ms.route.expect("non-spilled stream has a route")];
                    if self.verbatim(route) {
                        plan.routes.push(self.route_in_chip(route));
                        plan.route_refs.push(SegRef::Intra(gid));
                    } else {
                        // A detour off the chiplet is re-resolved on the
                        // local CCN: a hybrid plane spills it when no lanes
                        // are free, a circuit plane leaves it unserved.
                        let want = Some(self.local_demand(&StreamDemand::from(ms)));
                        let seg = SegRef::Intra(gid);
                        let occupied = &mut occupied[src_chip];
                        let out = self.resolve_segment(&ccn, plan, occupied, want, seg);
                        if matches!(out, SegOutcome::Unserved) {
                            continue;
                        }
                    }
                }
                (
                    ChipletSlot::Intra {
                        chip: src_chip,
                        local: StreamId(0),
                    },
                    0,
                )
            } else {
                let walk = self.cross_walk(&StreamDemand::from(ms));
                // Resolve both segments tentatively so a failed destination
                // segment does not leave a half-committed source segment.
                let mut src_plan = ChipPlan::default();
                let mut dst_plan = ChipPlan::default();
                let mut src_occ = occupied[src_chip].clone();
                let mut dst_occ = occupied[dst_chip].clone();
                let src_out = self.resolve_segment(
                    &ccn,
                    &mut src_plan,
                    &mut src_occ,
                    walk.src_seg,
                    SegRef::Src(gid),
                );
                let dst_out = self.resolve_segment(
                    &ccn,
                    &mut dst_plan,
                    &mut dst_occ,
                    walk.dst_seg,
                    SegRef::Dst(gid),
                );
                if matches!(src_out, SegOutcome::Unserved)
                    || matches!(dst_out, SegOutcome::Unserved)
                {
                    continue;
                }
                occupied[src_chip] = src_occ;
                occupied[dst_chip] = dst_occ;
                let mut bind = |chip: usize, out: SegOutcome, seg_plan: ChipPlan| {
                    matches!(out, SegOutcome::Stream).then(|| {
                        plans[chip].absorb(seg_plan);
                        StreamId(0)
                    })
                };
                let src_seg = bind(src_chip, src_out, src_plan);
                let dst_seg = bind(dst_chip, dst_out, dst_plan);
                for &l in &walk.links {
                    self.links[l].reserved += 1;
                }
                let noi_reconfig = match mode {
                    ProvisionMode::BeDelivered => {
                        walk.links.len() as u64 * Self::NOI_CONFIG_CYCLES_PER_LINK
                    }
                    ProvisionMode::Instant => 0,
                };
                (
                    ChipletSlot::Cross {
                        src_chip,
                        dst_chip,
                        src_seg,
                        dst_seg,
                        links: walk.links,
                    },
                    noi_reconfig,
                )
            };
            let state = ChipletStream::new(slot, self.now.0, noi_reconfig);
            self.sessions.insert(ms.id, ms.src, ms.dst, state);
            served.push(ms.id);
        }

        // Bind local plane ids back into the chiplet table. Each plane
        // returns ids in `Mapping::streams()` order: routes first (in push
        // order), spills after — matching route_refs ++ spill_refs.
        for (chip, plan) in plans.into_iter().enumerate() {
            let local_mapping = Mapping {
                placement: plan.placement,
                routes: plan.routes,
                spilled: plan.spilled,
                lane_capacity: mapping.lane_capacity,
            };
            let ids = self.planes[chip]
                .as_fabric_mut()
                .provision_with(&local_mapping, mode)?;
            let mut refs = plan.route_refs;
            refs.extend(plan.spill_refs);
            assert_eq!(
                ids.len(),
                refs.len(),
                "chiplet {chip} plane served {} of {} expected segments",
                ids.len(),
                refs.len(),
            );
            for (local, r) in ids.into_iter().zip(refs) {
                let gid = match r {
                    SegRef::Intra(g) | SegRef::Src(g) | SegRef::Dst(g) => g,
                };
                let idx = self
                    .sessions
                    .index_of(StreamId(gid))
                    .expect("every bound segment belongs to a registered stream");
                match (&mut self.sessions[idx].state.slot, r) {
                    (ChipletSlot::Intra { local: slot, .. }, SegRef::Intra(_)) => *slot = local,
                    (ChipletSlot::Cross { src_seg, .. }, SegRef::Src(_)) => {
                        *src_seg = Some(local);
                    }
                    (ChipletSlot::Cross { dst_seg, .. }, SegRef::Dst(_)) => {
                        *dst_seg = Some(local);
                    }
                    _ => unreachable!("segment binding matches its slot shape"),
                }
            }
        }
        Ok(served)
    }

    fn inject_stream(&mut self, id: StreamId, words: &[u16]) -> usize {
        let idx = self.sessions.injectable(id);
        match self.sessions[idx].state.slot {
            ChipletSlot::Intra { chip, local } => self.planes[chip]
                .as_fabric_mut()
                .inject_stream(local, words),
            ChipletSlot::Cross {
                src_chip, src_seg, ..
            } => {
                let now = self.now.0;
                let accepted = match src_seg {
                    Some(local) => self.planes[src_chip]
                        .as_fabric_mut()
                        .inject_stream(local, words),
                    None => {
                        let st = &mut self.sessions[idx].state;
                        st.noi_ingress.extend(words.iter().copied());
                        words.len()
                    }
                };
                let st = &mut self.sessions[idx].state;
                st.ledger.injected += accepted as u64;
                for _ in 0..accepted {
                    st.pending_ts.push_back(now);
                }
                accepted
            }
        }
    }

    fn finish_injection(&mut self) {
        for plane in &mut self.planes {
            plane.as_fabric_mut().finish_injection();
        }
    }

    fn drain_stream(&mut self, id: StreamId) -> Vec<u16> {
        let idx = self.sessions.served(id);
        let st = &mut self.sessions[idx].state;
        match st.slot {
            ChipletSlot::Intra { chip, local } => {
                self.planes[chip].as_fabric_mut().drain_stream(local)
            }
            ChipletSlot::Cross { .. } => std::mem::take(&mut st.ledger.egress),
        }
    }

    fn release(&mut self, id: StreamId, mode: ReleaseMode) -> Result<(), AdmitError> {
        let idx = self.sessions.releasable(id)?;
        match self.sessions[idx].state.slot.clone() {
            ChipletSlot::Intra { chip, local } => {
                let plane = self.planes[chip].as_fabric_mut();
                self.sessions.release_on(idx, plane, local, mode)
            }
            ChipletSlot::Cross {
                src_chip,
                dst_chip,
                src_seg,
                dst_seg,
                ..
            } => match mode {
                ReleaseMode::Drop => {
                    if let Some(s) = src_seg {
                        self.planes[src_chip]
                            .as_fabric_mut()
                            .release(s, ReleaseMode::Drop)?;
                    }
                    if let Some(d) = dst_seg {
                        self.planes[dst_chip]
                            .as_fabric_mut()
                            .release(d, ReleaseMode::Drop)
                            .expect("destination segment is live while the stream is");
                    }
                    for link in &mut self.links {
                        link.queue.retain(|w| w.stream != id.0);
                    }
                    self.free_links(idx);
                    let st = &mut self.sessions[idx].state;
                    st.noi_ingress.clear();
                    st.pending_ts.clear();
                    st.in_flight = 0;
                    self.sessions.retire(idx);
                    Ok(())
                }
                ReleaseMode::Drain => {
                    if let Some(s) = src_seg {
                        self.planes[src_chip]
                            .as_fabric_mut()
                            .release(s, ReleaseMode::Drain)?;
                    }
                    self.sessions.drain(idx, false);
                    Ok(())
                }
            },
        }
    }

    fn admit(&mut self, demand: &StreamDemand) -> Result<StreamId, AdmitError> {
        let chip = self.chip_of(demand.src);
        if chip == self.chip_of(demand.dst) {
            let want = self.local_demand(demand);
            let local = self.planes[chip].as_fabric_mut().admit(&want)?;
            let state = ChipletStream::new(ChipletSlot::Intra { chip, local }, self.now.0, 0);
            return Ok(self.sessions.issue(demand.src, demand.dst, state));
        }
        let walk = self.cross_walk(demand);
        if self.noi_full(&walk.links) {
            return Err(AdmitError::NoFreeLanes);
        }
        let (src_chip, dst_chip) = (walk.src_chip, walk.dst_chip);
        let mut admit_on = |chip: usize, seg: Option<StreamDemand>| {
            seg.map(|want| self.planes[chip].as_fabric_mut().admit(&want))
                .transpose()
        };
        let src_seg = admit_on(src_chip, walk.src_seg)?;
        let dst_seg = match admit_on(dst_chip, walk.dst_seg) {
            Ok(seg) => seg,
            Err(e) => {
                if let Some(s) = src_seg {
                    self.planes[src_chip]
                        .as_fabric_mut()
                        .release(s, ReleaseMode::Drop)
                        .expect("freshly admitted source segment releases cleanly");
                }
                return Err(e);
            }
        };
        for &l in &walk.links {
            self.links[l].reserved += 1;
        }
        let noi_reconfig = walk.links.len() as u64 * Self::NOI_CONFIG_CYCLES_PER_LINK;
        let slot = ChipletSlot::Cross {
            src_chip,
            dst_chip,
            src_seg,
            dst_seg,
            links: walk.links,
        };
        let state = ChipletStream::new(slot, self.now.0, noi_reconfig);
        Ok(self.sessions.issue(demand.src, demand.dst, state))
    }

    fn can_admit_circuit(&self, demand: &StreamDemand) -> bool {
        let chip = self.chip_of(demand.src);
        let fits = |chip: usize, seg: Option<StreamDemand>| {
            seg.is_none_or(|want| self.planes[chip].as_fabric().can_admit_circuit(&want))
        };
        if chip == self.chip_of(demand.dst) {
            return fits(chip, Some(self.local_demand(demand)));
        }
        if !matches!(self.inner_kind, FabricKind::Circuit | FabricKind::Hybrid) {
            return false;
        }
        let walk = self.cross_walk(demand);
        !self.noi_full(&walk.links)
            && fits(walk.src_chip, walk.src_seg)
            && fits(walk.dst_chip, walk.dst_seg)
    }

    fn stream_stats(&self) -> Vec<StreamStats> {
        // Per-plane lookups by local handle (iteration order stays the
        // chiplet table's).
        let plane_stats: Vec<_> = self
            .planes
            .iter()
            .map(|p| stats_by_id(p.as_fabric()))
            .collect();
        self.sessions
            .iter()
            .map(|s| match &s.state.slot {
                ChipletSlot::Intra { chip, local } => StreamStats {
                    id: s.id,
                    src: s.src,
                    dst: s.dst,
                    ..plane_stats[*chip]
                        .get(local)
                        .expect("intra stream has plane telemetry")
                        .clone()
                },
                ChipletSlot::Cross {
                    src_chip,
                    dst_chip,
                    src_seg,
                    dst_seg,
                    ..
                } => {
                    let src_stats = src_seg.and_then(|s| plane_stats[*src_chip].get(&s));
                    let dst_stats = dst_seg.and_then(|d| plane_stats[*dst_chip].get(&d));
                    let seg_plane = src_stats
                        .map(|s| s.plane)
                        .or_else(|| dst_stats.map(|s| s.plane));
                    let plane = if src_stats.map(|s| s.plane) == Some(StreamPlane::Spilled)
                        || dst_stats.map(|s| s.plane) == Some(StreamPlane::Spilled)
                    {
                        StreamPlane::Spilled
                    } else {
                        seg_plane.unwrap_or(match self.inner_kind {
                            FabricKind::Circuit | FabricKind::Hybrid => StreamPlane::Circuit,
                            FabricKind::Deflection | FabricKind::Packet => StreamPlane::Packet,
                        })
                    };
                    let seg_reconfig = src_stats
                        .map_or(0, |s| s.reconfig_cycles)
                        .max(dst_stats.map_or(0, |s| s.reconfig_cycles));
                    let max_deflections = src_stats
                        .map_or(0, |s| s.max_deflections)
                        .max(dst_stats.map_or(0, |s| s.max_deflections));
                    StreamStats {
                        reconfig_cycles: s.state.noi_reconfig.max(seg_reconfig),
                        max_deflections,
                        ..s.state.ledger.stats(s, plane)
                    }
                }
            })
            .collect()
    }

    fn stream_is_active(&self, id: StreamId) -> Option<bool> {
        self.sessions.is_active(id)
    }

    fn step(&mut self) {
        self.step_chiplets();
    }

    fn set_parallelism(&mut self, policy: ParPolicy) {
        self.policy = policy;
        for plane in &mut self.planes {
            plane.as_fabric_mut().set_parallelism(policy);
        }
    }

    fn activity(&self) -> Vec<ComponentActivity> {
        // NoI ledgers join only when they carry events, so a quiet 1×1 grid
        // stays bit-identical to the flat fabric's activity.
        let noi = [
            (ComponentKind::Link, self.noi_link_activity),
            (ComponentKind::Buffering, self.noi_buffer_activity),
            (ComponentKind::Arbitration, self.noi_arbiter_activity),
        ]
        .into_iter()
        .filter(|(_, ledger)| !ledger.is_empty())
        .map(|(kind, ledger)| ComponentActivity::new(kind, ledger));
        merge_by_kind(
            self.planes
                .iter()
                .flat_map(|p| p.as_fabric().activity())
                .chain(noi),
        )
    }

    fn clear_activity(&mut self) {
        for plane in &mut self.planes {
            plane.as_fabric_mut().clear_activity();
        }
        self.noi_link_activity.clear();
        self.noi_buffer_activity.clear();
        self.noi_arbiter_activity.clear();
    }

    fn is_quiescent(&self) -> bool {
        self.planes.iter().all(|p| p.as_fabric().is_quiescent())
            && self.links.iter().all(|l| l.queue.is_empty())
            && self
                .sessions
                .iter()
                .all(|s| s.state.noi_ingress.is_empty() && s.state.in_flight == 0)
    }

    fn total_overflows(&self) -> u64 {
        self.planes
            .iter()
            .map(|p| p.as_fabric().total_overflows())
            .sum()
    }

    fn spilled_streams(&self) -> u64 {
        self.planes
            .iter()
            .map(|p| p.as_fabric().spilled_streams())
            .sum()
    }

    fn spilled_words(&self) -> u64 {
        self.planes
            .iter()
            .map(|p| p.as_fabric().spilled_words())
            .sum()
    }

    fn area(&self, model: &EnergyModel) -> SquareMicroMeters {
        let planes: f64 = self
            .planes
            .iter()
            .map(|p| p.as_fabric().area(model).0)
            .sum();
        let noi = if self.links.is_empty() {
            0.0
        } else {
            noi_entry_router_area(self.config.entry_lanes, model.estimator().tech())
                .total()
                .0
                * self.links.len() as f64
        };
        SquareMicroMeters(planes + noi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ccn::Ccn;
    use crate::soc::Soc;
    use noc_core::params::RouterParams;
    use noc_sim::units::{Bandwidth, MegaHertz};

    fn mapping_for(mesh: Mesh, streams: &[(NodeId, NodeId)]) -> Mapping {
        let ccn = Ccn::new(mesh, RouterParams::paper(), MegaHertz(100.0));
        let mut occupied: Vec<EdgeRoute> = Vec::new();
        let mut routes = Vec::new();
        let lane_capacity = ccn.lane_capacity();
        for &(src, dst) in streams {
            let demand = StreamDemand {
                src,
                dst,
                demand: Bandwidth(60.0),
            };
            let route = ccn
                .admit_stream(&demand, &occupied)
                .expect("test stream admits");
            occupied.push(route.clone());
            routes.push(route);
        }
        Mapping {
            placement: Vec::new(),
            routes,
            spilled: Vec::new(),
            lane_capacity,
        }
    }

    fn stats_of(fabric: &dyn Fabric, id: StreamId) -> StreamStats {
        fabric
            .stream_stats()
            .into_iter()
            .find(|s| s.id == id)
            .expect("stream has telemetry")
    }

    #[test]
    fn geometry_roundtrip() {
        let fabric = ChipletFabric::paper(Mesh::new(6, 4), 3, 2, FabricKind::Circuit);
        assert_eq!(fabric.inner_mesh(), Mesh::new(2, 2));
        for node in 0..fabric.mesh().nodes() {
            let node = NodeId(node);
            let chip = fabric.chip_of(node);
            let local = fabric.local_node(node);
            assert_eq!(fabric.aggregate_node(chip, local), node);
        }
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn indivisible_grid_panics() {
        let _ = ChipletFabric::paper(Mesh::new(5, 4), 2, 2, FabricKind::Circuit);
    }

    #[test]
    fn one_by_one_grid_matches_flat_soc() {
        let mesh = Mesh::new(4, 4);
        let mapping = mapping_for(mesh, &[(mesh.node(0, 0), mesh.node(3, 2))]);
        let mut flat = Soc::new(mesh, RouterParams::paper());
        let mut chiplet = ChipletFabric::paper(mesh, 1, 1, FabricKind::Circuit);
        let flat_ids = flat
            .provision_with(&mapping, ProvisionMode::BeDelivered)
            .unwrap();
        let chip_ids = chiplet
            .provision_with(&mapping, ProvisionMode::BeDelivered)
            .unwrap();
        assert_eq!(flat_ids.len(), chip_ids.len());
        let payload: Vec<u16> = (0..24).collect();
        flat.inject_stream(flat_ids[0], &payload);
        chiplet.inject_stream(chip_ids[0], &payload);
        flat.finish_injection();
        chiplet.finish_injection();
        let mut flat_out = Vec::new();
        let mut chip_out = Vec::new();
        for _ in 0..200 {
            flat.step();
            chiplet.step();
            flat_out.extend(flat.drain_stream(flat_ids[0]));
            chip_out.extend(chiplet.drain_stream(chip_ids[0]));
        }
        assert_eq!(flat_out, payload);
        assert_eq!(chip_out, payload);
        let fs = stats_of(&flat, flat_ids[0]);
        let cs = stats_of(&chiplet, chip_ids[0]);
        assert_eq!(fs, cs);
        let model = EnergyModel::calibrated(MegaHertz(100.0));
        assert_eq!(flat.activity(), chiplet.activity());
        assert_eq!(flat.total_energy(&model), chiplet.total_energy(&model));
    }

    #[test]
    fn cross_chiplet_stream_delivers_in_order() {
        let mesh = Mesh::new(4, 2);
        let mut fabric = ChipletFabric::paper(mesh, 2, 1, FabricKind::Hybrid);
        let mapping = mapping_for(mesh, &[(mesh.node(0, 0), mesh.node(3, 1))]);
        let ids = fabric
            .provision_with(&mapping, ProvisionMode::Instant)
            .unwrap();
        assert_eq!(ids.len(), 1);
        assert_eq!(fabric.cross_streams(), 1);
        let payload: Vec<u16> = (100..140).collect();
        fabric.inject_stream(ids[0], &payload);
        fabric.finish_injection();
        let mut out = Vec::new();
        for _ in 0..400 {
            fabric.step();
            out.extend(fabric.drain_stream(ids[0]));
            if out.len() == payload.len() {
                break;
            }
        }
        assert_eq!(out, payload);
        let stats = stats_of(&fabric, ids[0]);
        assert_eq!(stats.delivered_words, payload.len() as u64);
        assert_eq!(stats.injected_words, payload.len() as u64);
        assert_eq!(stats.latency.count(), payload.len() as u64);
    }

    #[test]
    fn entry_lane_exhaustion_and_release() {
        let mesh = Mesh::new(2, 1);
        let mut config = ChipletConfig::paper();
        config.entry_lanes = 1;
        let mut fabric = ChipletFabric::new(mesh, 2, 1, FabricKind::Hybrid, config);
        let empty = Mapping {
            placement: Vec::new(),
            routes: Vec::new(),
            spilled: Vec::new(),
            lane_capacity: Ccn::new(mesh, RouterParams::paper(), MegaHertz(100.0)).lane_capacity(),
        };
        fabric
            .provision_with(&empty, ProvisionMode::Instant)
            .unwrap();
        let demand = StreamDemand {
            src: mesh.node(0, 0),
            dst: mesh.node(1, 0),
            demand: Bandwidth(60.0),
        };
        let first = fabric.admit(&demand).expect("first stream fits");
        assert!(matches!(
            fabric.admit(&demand),
            Err(AdmitError::NoFreeLanes)
        ));
        assert!(!fabric.can_admit_circuit(&demand));
        fabric.release(first, ReleaseMode::Drop).unwrap();
        fabric.admit(&demand).expect("lane freed by drop");
    }

    #[test]
    fn noi_queueing_charged_to_latency() {
        let mesh = Mesh::new(2, 1);
        let mut config = ChipletConfig::paper();
        config.entry_lanes = 1;
        let mut fabric = ChipletFabric::new(mesh, 2, 1, FabricKind::Hybrid, config);
        let empty = Mapping {
            placement: Vec::new(),
            routes: Vec::new(),
            spilled: Vec::new(),
            lane_capacity: Ccn::new(mesh, RouterParams::paper(), MegaHertz(100.0)).lane_capacity(),
        };
        fabric
            .provision_with(&empty, ProvisionMode::Instant)
            .unwrap();
        let demand = StreamDemand {
            src: mesh.node(0, 0),
            dst: mesh.node(1, 0),
            demand: Bandwidth(60.0),
        };
        let id = fabric.admit(&demand).expect("stream admits");
        let payload: Vec<u16> = (0..16).collect();
        fabric.inject_stream(id, &payload);
        fabric.finish_injection();
        let mut out = Vec::new();
        for _ in 0..200 {
            fabric.step();
            out.extend(fabric.drain_stream(id));
            if out.len() == payload.len() {
                break;
            }
        }
        assert_eq!(out, payload);
        // One entry lane + a 16-word burst → words queue; the wait lands in
        // the stream latency spread and the fabric-level counter.
        assert!(fabric.noi_wait_cycles() > 0, "queueing must be charged");
        let stats = stats_of(&fabric, id);
        assert!(stats.latency.max().unwrap() > stats.latency.min().unwrap());
        // Runtime admission charges NoI reconfiguration before first entry.
        assert!(stats.reconfig_cycles >= ChipletFabric::NOI_CONFIG_CYCLES_PER_LINK);
        assert!(stats.latency.min().unwrap() >= ChipletFabric::NOI_CONFIG_CYCLES_PER_LINK);
    }

    #[test]
    fn snapshot_restore_mid_flight() {
        let mesh = Mesh::new(4, 2);
        let mut fabric = ChipletFabric::paper(mesh, 2, 1, FabricKind::Circuit);
        let mapping = mapping_for(mesh, &[(mesh.node(0, 0), mesh.node(3, 0))]);
        let ids = fabric
            .provision_with(&mapping, ProvisionMode::Instant)
            .unwrap();
        let payload: Vec<u16> = (0..32).collect();
        fabric.inject_stream(ids[0], &payload);
        fabric.finish_injection();
        for _ in 0..3 {
            fabric.step();
        }
        let snap = fabric.snapshot();
        let mut replica = ChipletFabric::paper(mesh, 2, 1, FabricKind::Circuit);
        replica.restore(&snap).unwrap();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..300 {
            fabric.step();
            replica.step();
            a.extend(fabric.drain_stream(ids[0]));
            b.extend(replica.drain_stream(ids[0]));
        }
        assert_eq!(a, b);
        assert_eq!(a, payload[..a.len()].to_vec());
        assert_eq!(stats_of(&fabric, ids[0]), stats_of(&replica, ids[0]));
    }

    #[test]
    fn drain_release_cascades_across_chiplets() {
        let mesh = Mesh::new(4, 2);
        let mut fabric = ChipletFabric::paper(mesh, 2, 1, FabricKind::Hybrid);
        let mapping = mapping_for(mesh, &[(mesh.node(0, 0), mesh.node(3, 1))]);
        let ids = fabric
            .provision_with(&mapping, ProvisionMode::Instant)
            .unwrap();
        let payload: Vec<u16> = (7..27).collect();
        fabric.inject_stream(ids[0], &payload);
        fabric.finish_injection();
        fabric.release(ids[0], ReleaseMode::Drain).unwrap();
        assert!(matches!(
            fabric.release(ids[0], ReleaseMode::Drain),
            Err(AdmitError::Draining(_))
        ));
        let mut out = Vec::new();
        for _ in 0..400 {
            fabric.step();
            out.extend(fabric.drain_stream(ids[0]));
        }
        assert_eq!(out, payload, "drain release loses no words");
        let stats = stats_of(&fabric, ids[0]);
        assert!(!stats.active);
    }
}
