//! The system under test and the request path through it.
//!
//! [`System::build`] is the set-up a run times: a fig20-shaped gateway with
//! every service registered, the tenants' compiled policy, the route table,
//! the committed gateway config, the tunnel aggregators and (for `l7_api`)
//! the pool of established mTLS connections. [`System::step`] drives one
//! request's bytes through the public APIs:
//! parse -> policy -> route -> `Gateway::handle_request` -> mTLS seal ->
//! tunnel encapsulation -> VXLAN encode (`l4_conn_churn` skips the first
//! three and the seal). Outputs go to an event log that [`crate::check`]
//! verifies with the clock stopped.

use crate::clock;
use crate::inputs::{Inputs, GATEWAY_IDENTITY};
use crate::trace::{Layer, Probe, Root};
use crate::workload::{
    Workload, CHURN_INVALID_EVERY, CHURN_REQUESTS_PER_CONN, CHURN_REQUESTS_PER_PUSH,
    CHURN_VARIANTS, L4_FLOW_LIFETIME,
};
use bytes::Bytes;
use canal_crypto::mtls::Record;
use canal_crypto::{MtlsEndpoint, MtlsError};
use canal_gateway::config::{ConfigRejection, ConfigSpec, RouteSpec};
use canal_gateway::gateway::{GatewayError, GatewayServed};
use canal_gateway::policy::PolicyPushRejection;
use canal_gateway::{
    ActivePolicy, BucketTable, Gateway, PlacementView, Redirector, Sandbox, SessionAggregator,
    TunnelConfig,
};
use canal_http::{Request, RequestParser};
use canal_mesh::authz::AuthzPolicy;
use canal_mesh::l7::{L7Engine, RouteInstallError};
use canal_net::{
    ecmp_select, Endpoint, FiveTuple, GlobalServiceId, Packet, ServiceId, SessionTable, TenantId,
    VpcAddr, VxlanFrame, VXLAN_OVERHEAD,
};
use canal_policy::{L4Ctx, L7Ctx, PolicyVerdict};
use canal_sim::{CpuServer, SimDuration, SimRng, SimTime};

/// MTU of the tunnel underlay. Forwarded bytes are cut into segments that
/// fit one frame each, as the data path's packets would be.
pub const TUNNEL_MTU: usize = 9000;
/// Inner bytes per tunnel frame.
pub const TUNNEL_SEGMENT: usize = TUNNEL_MTU - VXLAN_OVERHEAD;

/// Seed of the gateway's shuffle-shard placement.
const PLACEMENT_SEED: u64 = 0x7368_6172_6431;

/// Outer source address of every tunnel frame.
pub fn router_ip() -> u32 {
    TunnelConfig::for_cores(1).router_ip
}

/// Tunnel endpoint address of a replica.
pub fn replica_ip(backend: u32, replica: usize) -> u32 {
    u32::from_be_bytes([10, 200, backend as u8, replica as u8 + 1])
}

/// Source tuple of `l4_conn_churn` flow `i`.
pub fn l4_tuple(inp: &Inputs, i: u64) -> FiveTuple {
    let svc = &inp.services[(i % inp.services.len() as u64) as usize];
    let a = inp.l4_ips.len() as u64;
    let ip = inp.l4_ips[(i % a) as usize];
    let port = inp.l4_ports[((i / a) % inp.l4_ports.len() as u64) as usize];
    let vpc = inp.tenants[svc.tenant].vpc;
    FiveTuple::tcp(Endpoint::new(VpcAddr::from_ip(vpc, ip), port), svc.vip)
}

/// Simulated arrival time of request `i`.
pub fn sim_time(inp: &Inputs, i: u64) -> SimTime {
    SimTime::from_nanos(inp.spec.sim_step.as_nanos() * i)
}

/// One request's outputs, kept for the checks.
#[derive(Debug)]
pub struct Outcome {
    /// Request index in the phase.
    pub idx: u64,
    /// Request pool index (L7) or payload index (L4).
    pub req: usize,
    /// Service the request was for (L4) or routed to (L7).
    pub service: usize,
    /// Connection serial (L7).
    pub conn: u64,
    /// Whether the gateway saw the flow's first packet.
    pub syn: bool,
    /// Parser output.
    pub parsed: Option<Request>,
    /// Policy verdict.
    pub verdict: Option<PolicyVerdict>,
    /// Route target id.
    pub target: Option<u32>,
    /// Gateway dispatch.
    pub served: Option<GatewayServed>,
    /// Sealed record.
    pub record: Option<Record>,
    /// Encoded tunnel frames, one per segment, in order.
    pub frames: Vec<Bytes>,
    /// Policy variant enforced.
    pub policy_gen: usize,
    /// Route variant installed.
    pub route_gen: usize,
    /// Why the request failed, if it did.
    pub error: Option<String>,
}

impl Outcome {
    fn new(idx: u64, req: usize, service: usize, syn: bool) -> Outcome {
        Outcome {
            idx,
            req,
            service,
            conn: 0,
            syn,
            parsed: None,
            verdict: None,
            target: None,
            served: None,
            record: None,
            frames: Vec::new(),
            policy_gen: 0,
            route_gen: 0,
            error: None,
        }
    }
}

/// One control-plane update's results.
#[derive(Debug)]
pub struct PushOutcome {
    /// Update number.
    pub update: u64,
    /// Whether the update was built to be rejected.
    pub invalid: bool,
    /// Policy stage/commit result.
    pub policy: Result<u64, PolicyPushRejection>,
    /// Route install result.
    pub routes: Result<(), RouteInstallError>,
    /// Gateway config commit result.
    pub config: Result<u64, ConfigRejection>,
    /// Running policy version before the update.
    pub policy_before: u64,
    /// Running policy version after the update.
    pub policy_after: Option<u64>,
    /// Running config version before the update.
    pub config_before: u64,
    /// Running config version after the update.
    pub config_after: Option<u64>,
    /// Stage-to-commit time of the whole update.
    pub ns: u64,
}

/// What a step leaves for the checks, in order. Requests are stored
/// inline so recording one is a write into a reused buffer, not an
/// allocation.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Event {
    /// A request.
    Request(Outcome),
    /// A connection opened; the receiver checks its records.
    ConnOpen {
        /// Connection serial.
        serial: u64,
        /// The upstream receiver.
        rx: Box<MtlsEndpoint>,
    },
    /// A connection closed.
    ConnClose {
        /// Connection serial.
        serial: u64,
    },
    /// A control-plane update.
    Push(PushOutcome),
}

/// An upstream connection as the gateway holds it.
struct Conn {
    serial: u64,
    service: usize,
    tuple: FiveTuple,
    l4: L4Ctx,
    parser: RequestParser,
    tx: MtlsEndpoint,
    syn: bool,
    agg: Option<usize>,
}

/// Exact counters over the requests a system has handled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// `CompiledTenant::lookup_ops` summed over every policy lookup.
    pub lookup_ops: u64,
    /// `GatewayServed::redirect_hops` summed.
    pub redirect_hops: u64,
    /// Rejected control writes.
    pub nacks: u64,
}

/// The gateway's dispatch parts, on state mirroring the gateway's own.
struct Mirror {
    sandbox: Sandbox,
    placement: PlacementView,
    redirectors: Vec<Redirector>,
    sessions: Vec<SessionTable>,
    cpus: Vec<CpuServer>,
    replicas: usize,
    cpu_per_request: SimDuration,
}

/// What the mirror concluded for one call.
type MirrorResult = Option<(u32, usize, SimTime, usize)>;

impl Mirror {
    fn new(gw: &Gateway, inp: &Inputs) -> Mirror {
        let cfg = gw.config();
        let backends = gw.backends();
        let mut placement = PlacementView::new();
        for &(b, az) in &backends {
            placement.add_backend(b, az, cfg.replicas_per_backend);
        }
        let replicas: Vec<usize> = (0..cfg.replicas_per_backend).collect();
        let mut redirectors: Vec<Redirector> = backends.iter().map(|_| Redirector::new()).collect();
        for s in &inp.services {
            for b in gw.backends_of(s.id) {
                placement.place(s.id, b);
                if let Some(r) = redirectors.get_mut(b as usize) {
                    r.install(
                        s.id,
                        BucketTable::new(cfg.buckets, &replicas, cfg.max_chain),
                    );
                }
            }
        }
        let n = backends.len() * cfg.replicas_per_backend;
        Mirror {
            sandbox: Sandbox::new(),
            placement,
            redirectors,
            sessions: (0..n)
                .map(|_| SessionTable::new(cfg.sessions_per_replica, cfg.session_idle_timeout))
                .collect(),
            cpus: (0..n)
                .map(|_| CpuServer::new(cfg.cores_per_replica))
                .collect(),
            replicas: cfg.replicas_per_backend,
            cpu_per_request: cfg.cpu_per_request,
        }
    }

    /// The calls `handle_request` makes, each timed as a part.
    fn handle<P: Probe>(
        &mut self,
        now: SimTime,
        service: GlobalServiceId,
        tuple: &FiveTuple,
        syn: bool,
        p: &mut P,
    ) -> MirrorResult {
        p.parts_begin();
        let admitted = self.sandbox.admit(now, service);
        p.part(Layer::Admit);
        if !admitted {
            return None;
        }
        let mut avail = [0u32; 16];
        let mut n = 0;
        for &b in self.placement.backends_of(service) {
            if n < avail.len() && self.placement.backend_available(b) {
                avail[n] = b;
                n += 1;
            }
        }
        p.part(Layer::Placement);
        if n == 0 {
            return None;
        }
        let backend = avail[ecmp_select(tuple, n)];
        p.part(Layer::Ecmp);
        let live = self.placement.live_replicas(backend);
        p.part(Layer::Placement);
        let base = backend as usize * self.replicas;
        let sessions = &self.sessions;
        let decision =
            self.redirectors
                .get_mut(backend as usize)?
                .dispatch(service, tuple, syn, |r, t| {
                    sessions.get(base + r).is_some_and(|s| s.contains(t))
                });
        p.part(Layer::Dispatch);
        let decision = decision?;
        let replica = if live.contains(&decision.replica) {
            decision.replica
        } else {
            *live.first()?
        };
        let table = self.sessions.get_mut(base + replica)?;
        if syn || !table.contains(tuple) {
            let ok = table.establish(*tuple, now).is_ok();
            p.part(Layer::Establish);
            if !ok {
                return None;
            }
        } else {
            table.touch(tuple, now);
            p.part(Layer::Touch);
        }
        let served = self
            .cpus
            .get_mut(base + replica)?
            .submit(now, self.cpu_per_request);
        p.part(Layer::Submit);
        Some((backend, replica, served.finish, decision.redirect_hops))
    }
}

/// The gateway, its L7 state and its open connections.
pub struct System {
    gw: Gateway,
    policy: ActivePolicy,
    engine: L7Engine,
    aggs: Vec<SessionAggregator>,
    n_backends: usize,
    replicas: usize,
    conns: Vec<Conn>,
    config_routes: Vec<RouteSpec>,
    lookup_ops: Vec<u64>,
    policy_gen: usize,
    route_gen: usize,
    policy_version: u64,
    config_version: u64,
    flow_aggs: Vec<usize>,
    mirror: Option<Mirror>,
    /// Exact counters.
    pub counters: Counters,
    /// Handshake durations measured during set-up.
    pub setup_handshake_ns: Vec<u64>,
}

fn open_conn(
    inp: &Inputs,
    spec: usize,
    serial: u64,
    now: SimTime,
) -> Result<(Conn, MtlsEndpoint), MtlsError> {
    let cs = &inp.conns[spec];
    let svc = &inp.services[cs.service];
    let tenant = &inp.tenants[svc.tenant];
    let port = 1024 + ((serial.wrapping_mul(7919)) % 60_000) as u16;
    let tuple = FiveTuple::tcp(Endpoint::new(cs.src, port), svc.vip);
    let mut tx = MtlsEndpoint::new(GATEWAY_IDENTITY, cs.gw_key).expect_peer(cs.up_identity);
    let mut rx = MtlsEndpoint::new(cs.up_identity, cs.up_key).expect_peer(GATEWAY_IDENTITY);
    let hello = tx.client_hello(now)?;
    let (reply, _) = rx.server_respond(&hello, now)?;
    tx.client_finish(&reply, now)?;
    let conn = Conn {
        serial,
        service: cs.service,
        tuple,
        l4: L4Ctx {
            tenant: tenant.id,
            vpc: tenant.vpc,
            src_ip: cs.src.ip,
            dst_port: svc.vip.port,
            identity: cs.identity,
        },
        parser: RequestParser::new(),
        tx,
        syn: true,
        agg: None,
    };
    Ok((conn, rx))
}

impl System {
    /// Set up the system for `inp`. With `mirror`, also build the mirror
    /// the traced run times `handle_request`'s parts on. Returns the
    /// receivers of the connections opened during set-up.
    pub fn build(inp: &Inputs, mirror: bool) -> Result<(System, Vec<Event>), String> {
        let cfg = inp.spec.gateway;
        let mut gw = Gateway::new(cfg);
        // The shuffle-shard placement is deployment config, the same for
        // every seed: seeds vary the traffic, not the topology.
        let mut rng = SimRng::seed(PLACEMENT_SEED);
        for s in &inp.services {
            gw.register_service(s.id, &mut rng);
        }
        let n_backends = cfg.azs * cfg.backends_per_az;
        let mut aggs =
            Vec::with_capacity(inp.tenants.len() * n_backends * cfg.replicas_per_backend);
        for t in &inp.tenants {
            for b in 0..n_backends {
                for r in 0..cfg.replicas_per_backend {
                    aggs.push(SessionAggregator::new(
                        TunnelConfig::for_cores(cfg.cores_per_replica),
                        replica_ip(b as u32, r),
                        t.vni,
                    ));
                }
            }
        }
        let config_routes: Vec<RouteSpec> = inp
            .services
            .iter()
            .map(|s| RouteSpec {
                service: s.id,
                backends: gw.backends_of(s.id),
            })
            .collect();
        gw.stage_config(ConfigSpec {
            version: 1,
            routes: config_routes.clone(),
        });
        gw.commit_staged_config(SimTime::ZERO)
            .map_err(|e| format!("initial config: {e}"))?;
        let mut policy = ActivePolicy::new();
        let mut engine = L7Engine::new(canal_http::RouteTable::new(), AuthzPolicy::default_allow());
        let l7 = inp.workload != Workload::L4ConnChurn;
        if l7 {
            let mut spec = inp.policies.first().cloned().ok_or("no policy")?;
            spec.version = 1;
            policy.stage(spec);
            policy
                .commit_staged(SimTime::ZERO)
                .map_err(|e| format!("initial policy: {e}"))?;
            let routes = inp.routes.first().cloned().ok_or("no routes")?;
            engine
                .try_install_routes(routes, &inp.known_targets)
                .map_err(|e| format!("initial routes: {e}"))?;
        }
        let mut sys = System {
            gw,
            policy,
            engine,
            aggs,
            n_backends,
            replicas: cfg.replicas_per_backend,
            conns: Vec::new(),
            config_routes,
            lookup_ops: Vec::new(),
            policy_gen: 0,
            route_gen: 0,
            policy_version: 1,
            config_version: 1,
            flow_aggs: Vec::new(),
            mirror: None,
            counters: Counters::default(),
            setup_handshake_ns: Vec::new(),
        };
        sys.refresh_lookup_ops(inp);
        let mut events = Vec::new();
        match inp.workload {
            Workload::L4ConnChurn => sys.flow_aggs = vec![usize::MAX; L4_FLOW_LIFETIME as usize],
            Workload::L7Api => {
                for slot in 0..inp.conns.len() {
                    let t0 = clock::now();
                    let (conn, rx) = open_conn(inp, slot, slot as u64, SimTime::ZERO)
                        .map_err(|e| format!("handshake: {e}"))?;
                    sys.setup_handshake_ns
                        .push(clock::ns_between(t0, clock::now()));
                    events.push(Event::ConnOpen {
                        serial: conn.serial,
                        rx: Box::new(rx),
                    });
                    sys.conns.push(conn);
                }
            }
            Workload::TenantChurn => {}
        }
        if mirror {
            sys.mirror = Some(Mirror::new(&sys.gw, inp));
        }
        Ok((sys, events))
    }

    fn refresh_lookup_ops(&mut self, inp: &Inputs) {
        self.lookup_ops = inp
            .tenants
            .iter()
            .map(|t| {
                self.policy
                    .compiled()
                    .and_then(|c| c.tenant(t.id))
                    .map_or(0, |c| c.lookup_ops())
            })
            .collect();
    }

    fn agg_index(&self, tenant: usize, backend: u32, replica: usize) -> usize {
        (tenant * self.n_backends + backend as usize) * self.replicas + replica
    }

    /// Backends a service is placed on.
    pub fn backends_of(&self, service: GlobalServiceId) -> Vec<u32> {
        self.gw.backends_of(service)
    }

    /// Live sessions over every replica table.
    pub fn live_sessions(&self) -> u64 {
        self.gw
            .backends()
            .iter()
            .map(|&(b, _)| self.gw.backend_sessions(b) as u64)
            .sum()
    }

    /// Mean user sessions per tunnel over aggregators in use.
    pub fn tunnel_reduction_factor(&self) -> f64 {
        let used: Vec<f64> = self
            .aggs
            .iter()
            .filter(|a| a.user_sessions() > 0)
            .map(SessionAggregator::reduction_factor)
            .collect();
        crate::stats::ratio(used.iter().sum(), used.len() as f64)
    }

    /// Drive request `i` (and, on `tenant_churn`, the connection turnover
    /// and control push due before it).
    pub fn step<P: Probe>(&mut self, inp: &Inputs, i: u64, p: &mut P, out: &mut Vec<Event>) {
        match inp.workload {
            Workload::L4ConnChurn => self.step_l4(inp, i, p, out),
            Workload::L7Api => {
                self.step_l7(inp, i, (i % inp.requests.len() as u64) as usize, p, out)
            }
            Workload::TenantChurn => {
                if i.is_multiple_of(CHURN_REQUESTS_PER_PUSH) {
                    self.push(inp, i / CHURN_REQUESTS_PER_PUSH, sim_time(inp, i), p, out);
                }
                if i.is_multiple_of(CHURN_REQUESTS_PER_CONN) {
                    self.rotate_conn(inp, i / CHURN_REQUESTS_PER_CONN, sim_time(inp, i), p, out);
                }
                let Some(conn) = self.conns.first() else {
                    let mut o = Outcome::new(i, 0, 0, false);
                    o.error = Some("no open connection".into());
                    out.push(Event::Request(o));
                    return;
                };
                // Connections take services round-robin, so this is the
                // service's own connection count: every pool entry gets
                // the same share of the traffic.
                let nth = conn.serial / inp.services.len() as u64;
                let pool = &inp.by_service[conn.service];
                let k = nth * CHURN_REQUESTS_PER_CONN + i % CHURN_REQUESTS_PER_CONN;
                let req = pool[(k % pool.len() as u64) as usize];
                self.step_l7(inp, i, req, p, out)
            }
        }
    }

    fn step_l4<P: Probe>(&mut self, inp: &Inputs, i: u64, p: &mut P, out: &mut Vec<Event>) {
        let now = sim_time(inp, i);
        let si = (i % inp.services.len() as u64) as usize;
        let svc = &inp.services[si];
        let tuple = l4_tuple(inp, i);
        let pi = (i % inp.l4_payloads.len() as u64) as usize;
        let payload = &inp.l4_payloads[pi];
        let lifetime = L4_FLOW_LIFETIME;
        let closing = i.checked_sub(lifetime).map(|old| {
            (
                l4_tuple(inp, old),
                self.flow_aggs[(old % lifetime) as usize],
            )
        });
        let mut o = Outcome::new(i, pi, si, true);

        p.begin(Root::Request, i);
        let res = self.gw.handle_request(now, svc.id, &tuple, true);
        p.lap(Layer::Handle);
        let mut agg = usize::MAX;
        match res {
            Ok(served) => {
                agg = self.agg_index(svc.tenant, served.backend, served.replica);
                let pkt = Packet {
                    tuple,
                    syn: true,
                    service_tag: Some(svc.id),
                    payload: payload.clone(),
                };
                let frame = self.aggs[agg].encapsulate(&pkt);
                p.lap(Layer::Encap);
                let bytes = frame.encode();
                p.lap(Layer::Encode);
                if let Some((old_tuple, old_agg)) = closing {
                    if let Some(a) = self.aggs.get_mut(old_agg) {
                        a.session_closed(&old_tuple);
                        p.lap(Layer::Close);
                    }
                }
                self.counters.redirect_hops += served.redirect_hops as u64;
                o.served = Some(served);
                o.frames.push(bytes);
            }
            Err(e) => o.error = Some(format!("gateway: {e:?}")),
        }
        self.flow_aggs[(i % lifetime) as usize] = agg;
        out.push(Event::Request(o));
        p.lap(Layer::Bench);
        p.end();
        if P::TRACED {
            self.check_mirror(now, svc.id, &tuple, true, res, p, out);
        }
    }

    fn step_l7<P: Probe>(
        &mut self,
        inp: &Inputs,
        i: u64,
        req: usize,
        p: &mut P,
        out: &mut Vec<Event>,
    ) {
        let now = sim_time(inp, i);
        let spec = &inp.requests[req];
        let slot = if inp.workload == Workload::L7Api {
            spec.conn
        } else {
            0
        };
        let Some(conn) = self.conns.get_mut(slot) else {
            return;
        };
        let svc = &inp.services[conn.service];
        let mut o = Outcome::new(i, req, conn.service, conn.syn);
        o.conn = conn.serial;
        o.policy_gen = self.policy_gen;
        o.route_gen = self.route_gen;

        p.begin(Root::Request, i);
        let parsed = conn.parser.feed(&spec.wire);
        p.lap(Layer::Parse);
        let request = match parsed {
            Ok(Some(r)) => r,
            Ok(None) => {
                o.error = Some("parse: incomplete request".into());
                return finish(o, p, out);
            }
            Err(e) => {
                o.error = Some(format!("parse: {e}"));
                return finish(o, p, out);
            }
        };
        let Some(compiled) = self.policy.compiled() else {
            o.error = Some("policy: nothing committed".into());
            return finish(o, p, out);
        };
        let headers: Vec<(&str, &str)> = request.headers.iter().collect();
        let l7 = L7Ctx {
            method: request.method.as_str(),
            path: request.path_only(),
            sni: Some(svc.host.as_str()),
            headers: &headers,
        };
        p.lap(Layer::Bench);
        let verdict = compiled.l7_verdict(&conn.l4, &l7);
        p.lap(Layer::Policy);
        drop(headers);
        self.counters.lookup_ops += self.lookup_ops[svc.tenant];
        o.verdict = Some(verdict);
        if verdict == PolicyVerdict::Deny {
            o.parsed = Some(request);
            return finish(o, p, out);
        }
        let routed = self.engine.routes().route(&request, spec.draw);
        p.lap(Layer::Route);
        let target = routed.and_then(|(_, name)| inp.targets.get(name).copied());
        p.lap(Layer::Bench);
        o.parsed = Some(request);
        let Some(target) = target else {
            o.error = Some("route: no rule matched".into());
            return finish(o, p, out);
        };
        o.target = Some(target.id);
        o.service = target.service;
        let service = inp.services[target.service].id;
        let syn = conn.syn;
        let res = self.gw.handle_request(now, service, &conn.tuple, syn);
        p.lap(Layer::Handle);
        let served = match res {
            Ok(s) => s,
            Err(e) => {
                o.error = Some(format!("gateway: {e:?}"));
                finish(o, p, out);
                if P::TRACED {
                    let tuple = conn.tuple;
                    self.check_mirror(now, service, &tuple, syn, res, p, out);
                }
                return;
            }
        };
        conn.syn = false;
        let record = conn.tx.seal(&spec.wire);
        p.lap(Layer::Seal);
        let agg = (svc.tenant * self.n_backends + served.backend as usize) * self.replicas
            + served.replica;
        let segments = spec.wire.len().div_ceil(TUNNEL_SEGMENT);
        let mut frames = Vec::with_capacity(segments);
        for k in 0..segments {
            let end = ((k + 1) * TUNNEL_SEGMENT).min(spec.wire.len());
            let pkt = Packet {
                tuple: conn.tuple,
                syn: syn && k == 0,
                service_tag: Some(service),
                payload: spec.wire.slice(k * TUNNEL_SEGMENT..end),
            };
            frames.push(self.aggs[agg].encapsulate(&pkt));
        }
        p.lap(Layer::Encap);
        o.frames = frames.iter().map(VxlanFrame::encode).collect();
        p.lap(Layer::Encode);
        conn.agg = Some(agg);
        self.counters.redirect_hops += served.redirect_hops as u64;
        o.served = Some(served);
        match record {
            Ok(r) => o.record = Some(r),
            Err(e) => o.error = Some(format!("seal: {e}")),
        }
        let tuple = conn.tuple;
        finish(o, p, out);
        if P::TRACED {
            self.check_mirror(now, service, &tuple, syn, res, p, out);
        }
    }

    /// Time the mirror's parts for the call just made and flag any
    /// divergence from the gateway's own answer.
    #[allow(clippy::too_many_arguments)]
    fn check_mirror<P: Probe>(
        &mut self,
        now: SimTime,
        service: GlobalServiceId,
        tuple: &FiveTuple,
        syn: bool,
        real: Result<GatewayServed, GatewayError>,
        p: &mut P,
        out: &mut [Event],
    ) {
        let Some(m) = self.mirror.as_mut() else {
            return;
        };
        let mirrored = m.handle(now, service, tuple, syn, p);
        let expected = real
            .ok()
            .map(|s| (s.backend, s.replica, s.finish, s.redirect_hops));
        if mirrored != expected {
            if let Some(Event::Request(o)) = out.last_mut() {
                o.error = Some(format!(
                    "mirror diverged: gateway {expected:?}, mirror {mirrored:?}"
                ));
            }
        }
    }

    /// Close the current `tenant_churn` connection and open connection
    /// `serial` (a full mTLS handshake; its first request is a SYN).
    fn rotate_conn<P: Probe>(
        &mut self,
        inp: &Inputs,
        serial: u64,
        now: SimTime,
        p: &mut P,
        out: &mut Vec<Event>,
    ) {
        let spec = (serial % inp.conns.len() as u64) as usize;
        p.begin(Root::ConnOpen, serial);
        let old = self.conns.pop();
        if let Some(c) = &old {
            if let Some(a) = c.agg.and_then(|a| self.aggs.get_mut(a)) {
                a.session_closed(&c.tuple);
            }
            p.lap(Layer::Close);
        }
        let opened = open_conn(inp, spec, serial, now);
        p.lap(Layer::Handshake);
        p.end();
        if let Some(c) = old {
            out.push(Event::ConnClose { serial: c.serial });
        }
        match opened {
            Ok((conn, rx)) => {
                out.push(Event::ConnOpen {
                    serial,
                    rx: Box::new(rx),
                });
                self.conns.push(conn);
            }
            Err(e) => {
                let mut o = Outcome::new(serial, 0, 0, true);
                o.error = Some(format!("handshake: {e}"));
                out.push(Event::Request(o));
            }
        }
    }

    /// Apply `tenant_churn` control-plane update `update`: a policy spec
    /// through `ActivePolicy` stage/commit, a rebuilt route table through
    /// `L7Engine::try_install_routes`, and a `ConfigSpec` through the
    /// gateway's stage/commit. One update in [`CHURN_INVALID_EVERY`] is
    /// invalid in all three parts and must be NACKed with the old config
    /// still serving.
    fn push<P: Probe>(
        &mut self,
        inp: &Inputs,
        update: u64,
        now: SimTime,
        p: &mut P,
        out: &mut Vec<Event>,
    ) {
        let invalid = update % CHURN_INVALID_EVERY == CHURN_INVALID_EVERY - 1;
        let variant = (update % CHURN_VARIANTS as u64) as usize;
        let policy_before = self.policy_version;
        let config_before = self.config_version;
        let stale_config = invalid && (update / CHURN_INVALID_EVERY).is_multiple_of(2);
        let t0 = clock::now();
        p.begin(Root::Push, update);
        let mut spec = inp.policies[variant].clone();
        spec.version = if invalid {
            policy_before
        } else {
            policy_before + 1
        };
        self.policy.stage(spec);
        let policy = self.policy.commit_staged(now);
        p.lap(Layer::PolicyCommit);
        let table = if invalid {
            inp.bad_routes.clone()
        } else {
            inp.routes[variant].clone()
        };
        let routes = self.engine.try_install_routes(table, &inp.known_targets);
        p.lap(Layer::RouteInstall);
        let mut cfg_routes = self.config_routes.clone();
        if invalid && !stale_config {
            cfg_routes.push(RouteSpec {
                service: GlobalServiceId::compose(TenantId(999), ServiceId(1)),
                backends: vec![0],
            });
        }
        let version = if stale_config {
            config_before
        } else {
            config_before + 1
        };
        self.gw.stage_config(ConfigSpec {
            version,
            routes: cfg_routes,
        });
        let config = self.gw.commit_staged_config(now);
        p.lap(Layer::ConfigCommit);
        p.end();
        let ns = clock::ns_between(t0, clock::now());

        if let Ok(v) = policy {
            self.policy_version = v;
            self.policy_gen = variant;
            self.refresh_lookup_ops(inp);
        }
        if routes.is_ok() {
            self.route_gen = variant;
        }
        if let Ok(v) = config {
            self.config_version = v;
        }
        self.counters.nacks += [policy.is_err(), routes.is_err(), config.is_err()]
            .iter()
            .filter(|&&r| r)
            .count() as u64;
        out.push(Event::Push(PushOutcome {
            update,
            invalid,
            policy,
            routes,
            config,
            policy_before,
            policy_after: self.policy.running_version(),
            config_before,
            config_after: self.gw.active_config().running_version(),
            ns,
        }));
    }
}

fn finish<P: Probe>(o: Outcome, p: &mut P, out: &mut Vec<Event>) {
    out.push(Event::Request(o));
    p.lap(Layer::Bench);
    p.end();
}
