//! The assembled mesh gateway.
//!
//! Glues the pieces together the way Fig. 6/Fig. 8 describe: services are
//! shuffle-sharded onto backends across AZs; each backend is a group of
//! replica VMs with bounded session tables; per-service bucket tables keep
//! session consistency; a sandbox handles exceptions; per-window water
//! levels and top-service RPS feed the control plane (root-cause analysis,
//! precise scaling — `canal-control`).

use crate::config::{ActiveConfig, ConfigRejection, ConfigSpec};
use crate::failure::{BackendKey, FailureDomain, PlacementView};
use crate::overload::{
    AttemptKind, ClientId, OverloadConfig, OverloadControl, OverloadSignals,
};
use crate::redirector::{BucketTable, Redirector};
use crate::sandbox::Sandbox;
use crate::sharding::ShuffleShardPlanner;
use canal_net::{FiveTuple, GlobalServiceId, Priority, SessionTable};
use canal_sim::{CpuServer, Digest, SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;

/// Identifier of a gateway backend.
pub type BackendId = BackendKey;

/// Identifier of a replica within a backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ReplicaId {
    /// Owning backend.
    pub backend: BackendId,
    /// Index within the backend.
    pub index: usize,
}

/// Gateway deployment parameters.
#[derive(Debug, Clone, Copy)]
pub struct GatewayConfig {
    /// Availability zones.
    pub azs: usize,
    /// Initial backends per AZ.
    pub backends_per_az: usize,
    /// Replica VMs per backend.
    pub replicas_per_backend: usize,
    /// Cores per replica VM.
    pub cores_per_replica: usize,
    /// Backends a service is placed on per AZ (shuffle-shard size).
    pub shard_size: usize,
    /// Session-table budget per replica (SmartNIC memory).
    pub sessions_per_replica: usize,
    /// Session idle timeout.
    pub session_idle_timeout: SimDuration,
    /// Buckets per per-service bucket table.
    pub buckets: usize,
    /// Max replica-chain length (paper: > 2).
    pub max_chain: usize,
    /// Gateway CPU demand per request (request+response passes).
    pub cpu_per_request: SimDuration,
    /// Backend water-level alert threshold (fraction of CPU).
    pub alert_threshold: f64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            azs: 2,
            backends_per_az: 4,
            replicas_per_backend: 3,
            cores_per_replica: 4,
            shard_size: 2,
            sessions_per_replica: 100_000,
            session_idle_timeout: SimDuration::from_secs(300),
            buckets: 1024,
            max_chain: 4,
            cpu_per_request: SimDuration::from_micros(34),
            alert_threshold: 0.70,
        }
    }
}

/// Why a request failed at the gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatewayError {
    /// Service unknown to the gateway.
    UnknownService,
    /// No available backend (all failed).
    Unavailable,
    /// Dropped by a redirector-level throttle.
    Throttled,
    /// Replica session table full.
    SessionsExhausted,
    /// Dropped by the overload layer (queue caps or CoDel shedding).
    OverloadShed,
    /// A retry/hedge rejected because the client's retry budget is dry.
    /// Terminal: retrying a budget rejection is exactly what it forbids.
    RetryBudgetExhausted,
}

/// Successful dispatch summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayServed {
    /// Backend that served the request.
    pub backend: BackendId,
    /// Replica within that backend.
    pub replica: usize,
    /// When the gateway finished processing.
    pub finish: SimTime,
    /// Chain-redirect hops taken.
    pub redirect_hops: usize,
}

struct ReplicaState {
    cpu: CpuServer,
    sessions: SessionTable,
}

struct ServiceWindow {
    requests: u64,
}

/// The mesh gateway.
pub struct Gateway {
    cfg: GatewayConfig,
    placement: PlacementView,
    planner: ShuffleShardPlanner,
    // lint:allow(bounded-state) reason=one entry per replica VM in the deployed topology; grown only by explicit scale operations
    replicas: BTreeMap<(BackendId, usize), ReplicaState>,
    /// Per-backend redirector (per-service bucket tables inside).
    // lint:allow(bounded-state) reason=one redirector per deployed backend; grown only by explicit scale operations
    redirectors: BTreeMap<BackendId, Redirector>,
    /// The sandbox/throttle machinery.
    pub sandbox: Sandbox,
    /// The overload-control pipeline, when enabled.
    overload: Option<OverloadControl>,
    // lint:allow(bounded-state) reason=one entry per deployed backend; grown only by explicit scale operations
    backend_az: BTreeMap<BackendId, canal_net::AzId>,
    next_backend: BackendId,
    /// Per (backend, service) request counts in the current window.
    window: BTreeMap<(BackendId, GlobalServiceId), ServiceWindow>,
    window_start: SimTime,
    errors: u64,
    served: u64,
    /// The version-skew-safe `{running, staged}` config pair. Its context
    /// is the known-service set (everything ever registered/extended
    /// here, one entry per service; registration is a control-plane setup
    /// operation, not a data-path event), the ground truth config
    /// validation checks routes against.
    active_config: ActiveConfig,
}

/// One backend's water-level report for the control plane.
#[derive(Debug, Clone)]
pub struct WaterLevel {
    /// Which backend.
    pub backend: BackendId,
    /// CPU utilization over the window.
    pub utilization: f64,
    /// Session occupancy (max over replicas).
    pub session_occupancy: f64,
    /// Per-service request counts over the window, descending.
    pub top_services: Vec<(GlobalServiceId, u64)>,
    /// Whether the alert threshold is breached.
    pub alert: bool,
}

impl Gateway {
    /// Build a gateway with `cfg`, creating the initial backend pool.
    pub fn new(cfg: GatewayConfig) -> Self {
        let total = cfg.azs * cfg.backends_per_az;
        let mut gw = Gateway {
            cfg,
            placement: PlacementView::new(),
            planner: ShuffleShardPlanner::new(total, cfg.shard_size, cfg.shard_size - 1),
            replicas: BTreeMap::new(),
            redirectors: BTreeMap::new(),
            sandbox: Sandbox::new(),
            overload: None,
            backend_az: BTreeMap::new(),
            next_backend: 0,
            window: BTreeMap::new(),
            window_start: SimTime::ZERO,
            errors: 0,
            served: 0,
            active_config: ActiveConfig::new(),
        };
        for az in 0..cfg.azs {
            for _ in 0..cfg.backends_per_az {
                gw.create_backend(canal_net::AzId(az as u32));
            }
        }
        gw
    }

    /// The configuration.
    pub fn config(&self) -> GatewayConfig {
        self.cfg
    }

    /// Placement and failure state (for DNS/availability integration).
    pub fn placement(&self) -> &PlacementView {
        &self.placement
    }

    /// Mutable failure injection. Errors if the domain is outside the
    /// registered topology, so fault plans cannot silently drift.
    pub fn fail(&mut self, domain: FailureDomain) -> Result<(), crate::failure::UnknownDomain> {
        self.placement.fail(domain)
    }

    /// Recovery. Errors if the domain is outside the registered topology.
    pub fn recover(&mut self, domain: FailureDomain) -> Result<(), crate::failure::UnknownDomain> {
        self.placement.recover(domain)
    }

    /// Stage a pushed config without applying it (serving continues from
    /// the last committed config until [`Self::commit_staged_config`]).
    pub fn stage_config(&mut self, spec: ConfigSpec) {
        self.active_config.stage(spec);
    }

    /// Validate and atomically commit the staged config against this
    /// gateway's known services. A rejection is the NACK the control plane
    /// records; the gateway keeps serving its last committed config.
    pub fn commit_staged_config(&mut self, now: SimTime) -> Result<u64, ConfigRejection> {
        self.active_config.commit_staged(now)
    }

    /// The `{running, staged}` config pair.
    pub fn active_config(&self) -> &ActiveConfig {
        &self.active_config
    }

    fn create_backend(&mut self, az: canal_net::AzId) -> BackendId {
        let id = self.next_backend;
        self.next_backend += 1;
        self.placement
            .add_backend(id, az, self.cfg.replicas_per_backend);
        self.backend_az.insert(id, az);
        for r in 0..self.cfg.replicas_per_backend {
            self.replicas.insert(
                (id, r),
                ReplicaState {
                    cpu: CpuServer::new(self.cfg.cores_per_replica),
                    sessions: SessionTable::new(
                        self.cfg.sessions_per_replica,
                        self.cfg.session_idle_timeout,
                    ),
                },
            );
        }
        self.redirectors.insert(id, Redirector::new());
        id
    }

    /// The `New` scaling operation: spawn a fresh backend in `az` and grow
    /// the shard pool. (Its multi-minute wall-clock cost is modeled by the
    /// control plane, which schedules the completion event.)
    pub fn scale_new_backend(&mut self, az: canal_net::AzId) -> BackendId {
        self.planner.grow_pool(1);
        self.create_backend(az)
    }

    /// Register a tenant service: shuffle-shard it onto backends in each AZ
    /// and install its bucket tables.
    pub fn register_service(&mut self, service: GlobalServiceId, rng: &mut SimRng) -> Vec<BackendId> {
        self.active_config.ctx_mut().insert(service);
        let combo = self.planner.assign(service, rng);
        let backends: Vec<BackendId> = combo.iter().map(|&b| b as BackendId).collect();
        for &b in &backends {
            self.placement.place(service, b);
            let replicas: Vec<usize> = (0..self.cfg.replicas_per_backend).collect();
            if let Some(r) = self.redirectors.get_mut(&b) {
                r.install(
                    service,
                    BucketTable::new(self.cfg.buckets, &replicas, self.cfg.max_chain),
                );
            }
        }
        backends
    }

    /// The `Reuse` scaling operation: extend a service onto an existing
    /// low-water backend. Returns false if already placed there.
    pub fn extend_service(&mut self, service: GlobalServiceId, backend: BackendId) -> bool {
        self.active_config.ctx_mut().insert(service);
        if self.placement.backends_of(service).contains(&backend) {
            return false;
        }
        if !self.planner.extend(service, backend as usize) {
            // The planner only knows services it assigned; register the
            // extension directly for services placed manually.
        }
        self.placement.place(service, backend);
        let replicas: Vec<usize> = (0..self.cfg.replicas_per_backend).collect();
        if let Some(r) = self.redirectors.get_mut(&backend) {
            r.install(
                service,
                BucketTable::new(self.cfg.buckets, &replicas, self.cfg.max_chain),
            );
        }
        true
    }

    /// Backends of a service.
    pub fn backends_of(&self, service: GlobalServiceId) -> Vec<BackendId> {
        self.placement.backends_of(service).to_vec()
    }

    /// All backends with their AZ.
    pub fn backends(&self) -> Vec<(BackendId, canal_net::AzId)> {
        self.backend_az.iter().map(|(&b, &az)| (b, az)).collect()
    }

    /// Handle one request at the gateway: throttle check → backend choice
    /// (ECMP over the service's available backends) → bucket-table dispatch
    /// → session + CPU accounting.
    pub fn handle_request(
        &mut self,
        now: SimTime,
        service: GlobalServiceId,
        tuple: &FiveTuple,
        syn: bool,
    ) -> Result<GatewayServed, GatewayError> {
        self.handle_request_avoiding(now, service, tuple, syn, &[])
    }

    /// [`Gateway::handle_request`] with a retry steer: backends listed in
    /// `avoid` (ejected by an outlier detector, or already tried this
    /// request) are skipped *as a preference* — if avoiding them would
    /// leave no backend at all, the gateway degrades gracefully and falls
    /// back to the full available set (fail-open) rather than rejecting a
    /// servable request.
    pub fn handle_request_avoiding(
        &mut self,
        now: SimTime,
        service: GlobalServiceId,
        tuple: &FiveTuple,
        syn: bool,
        avoid: &[BackendId],
    ) -> Result<GatewayServed, GatewayError> {
        if !self.sandbox.admit(now, service) {
            self.errors += 1;
            return Err(GatewayError::Throttled);
        }
        let placed = self.placement.backends_of(service);
        if placed.is_empty() {
            self.errors += 1;
            return Err(GatewayError::UnknownService);
        }
        let available: Vec<BackendId> = placed
            .iter()
            .copied()
            .filter(|&b| self.placement.backend_available(b))
            .collect();
        if available.is_empty() {
            self.errors += 1;
            return Err(GatewayError::Unavailable);
        }
        let preferred: Vec<BackendId> = available
            .iter()
            .copied()
            .filter(|b| !avoid.contains(b))
            .collect();
        let pool = if preferred.is_empty() { &available } else { &preferred };
        let backend = pool[canal_net::ecmp_select(tuple, pool.len())];
        let live = self.placement.live_replicas(backend);

        // Bucket-table dispatch with the replica session tables as the
        // flow-state oracle.
        let replicas = &self.replicas;
        let decision = self
            .redirectors
            .get_mut(&backend)
            .ok_or(GatewayError::Unavailable)?
            .dispatch(service, tuple, syn, |r, t| {
                replicas
                    .get(&(backend, r))
                    .is_some_and(|st| st.sessions.contains(t))
            })
            .ok_or(GatewayError::UnknownService)?;

        // If the chain head is dead, fall over to any live replica (the
        // short disruption + reconstruction of §4.2).
        let replica = if live.contains(&decision.replica) {
            decision.replica
        } else {
            *live.first().ok_or(GatewayError::Unavailable)?
        };

        let state = self
            .replicas
            .get_mut(&(backend, replica))
            .ok_or(GatewayError::Unavailable)?;
        if syn || !state.sessions.contains(tuple) {
            if state.sessions.establish(*tuple, now).is_err() {
                self.errors += 1;
                return Err(GatewayError::SessionsExhausted);
            }
        } else {
            state.sessions.touch(tuple, now);
        }
        let served = state.cpu.submit(now, self.cfg.cpu_per_request);

        self.window
            .entry((backend, service))
            .or_insert(ServiceWindow { requests: 0 })
            .requests += 1;
        self.served += 1;
        Ok(GatewayServed {
            backend,
            replica,
            finish: served.finish,
            redirect_hops: decision.redirect_hops,
        })
    }

    /// Turn on the overload-control pipeline: subsequent traffic should
    /// enter through [`Gateway::offer_request`] / [`Gateway::pump_overload`]
    /// instead of calling [`Gateway::handle_request`] directly.
    pub fn enable_overload_control(&mut self, cfg: OverloadConfig) {
        self.overload = Some(OverloadControl::new(cfg));
    }

    /// The overload pipeline, if enabled.
    pub fn overload(&self) -> Option<&OverloadControl> {
        self.overload.as_ref()
    }

    /// Mutable access to the overload pipeline (weight overrides, signals).
    pub fn overload_mut(&mut self) -> Option<&mut OverloadControl> {
        self.overload.as_mut()
    }

    /// Offer one request to the overload pipeline: retry-budget admission →
    /// bounded per-tenant queue. Returns a ticket; the dispatch outcome is
    /// delivered by [`Gateway::pump_overload`] once the fair scheduler
    /// grants the request CPU (or sheds it). Requires
    /// [`Gateway::enable_overload_control`] first.
    #[allow(clippy::too_many_arguments, reason = "request metadata is genuinely this wide")]
    pub fn offer_request(
        &mut self,
        now: SimTime,
        service: GlobalServiceId,
        priority: Priority,
        tuple: &FiveTuple,
        syn: bool,
        client: ClientId,
        kind: AttemptKind,
        bytes: u64,
    ) -> Result<u64, GatewayError> {
        let Some(ov) = self.overload.as_mut() else {
            // Pipeline disabled: nothing can ever pump the ticket out.
            return Err(GatewayError::Unavailable);
        };
        let res = ov.offer(now, service, priority, *tuple, syn, client, kind, bytes);
        if res.is_err() {
            self.errors += 1;
        }
        res
    }

    /// Drain the overload scheduler up to `now`: each granted request is
    /// dispatched through the normal gateway path at its grant time; CoDel
    /// sheds surface as [`GatewayError::OverloadShed`]. Returns
    /// `(ticket, outcome)` pairs in grant order.
    pub fn pump_overload(
        &mut self,
        now: SimTime,
    ) -> Vec<(u64, Result<GatewayServed, GatewayError>)> {
        let Some(mut ov) = self.overload.take() else {
            return Vec::new();
        };
        let started = ov.pump(now);
        let mut out = Vec::with_capacity(started.len());
        for s in started {
            let res = if s.shed {
                self.errors += 1;
                Err(GatewayError::OverloadShed)
            } else {
                self.handle_request_avoiding(s.start, s.pending.service, &s.pending.tuple, s.pending.syn, &[])
            };
            out.push((s.ticket, res));
        }
        self.overload = Some(ov);
        out
    }

    /// When the overload scheduler next has work to grant (schedule a pump
    /// event then). `None` when queues are empty or the pipeline is off.
    pub fn next_overload_wake(&self) -> Option<SimTime> {
        self.overload.as_ref().and_then(|ov| ov.next_wake())
    }

    /// Read and reset the overload telemetry window (queue depth, shed
    /// rate, sojourn p99) for the control plane's monitor.
    pub fn overload_signals(&mut self) -> Option<OverloadSignals> {
        self.overload.as_mut().map(|ov| ov.signals())
    }

    /// Read and reset the monitoring window: per-backend water levels with
    /// top services (the control plane's §4.3 input).
    pub fn water_levels(&mut self, now: SimTime) -> Vec<WaterLevel> {
        let mut out = Vec::new();
        for (&backend, &_az) in self.backend_az.iter() {
            let mut util_sum = 0.0;
            let mut occupancy: f64 = 0.0;
            let mut n = 0;
            for r in 0..self.cfg.replicas_per_backend {
                if let Some(st) = self.replicas.get_mut(&(backend, r)) {
                    util_sum += st.cpu.window_utilization(now);
                    occupancy = occupancy.max(st.sessions.occupancy());
                    n += 1;
                }
            }
            let utilization = if n == 0 { 0.0 } else { util_sum / n as f64 };
            let mut top: Vec<(GlobalServiceId, u64)> = self
                .window
                .iter()
                .filter(|((b, _), _)| *b == backend)
                .map(|((_, s), w)| (*s, w.requests))
                .collect();
            top.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
            top.truncate(10);
            out.push(WaterLevel {
                backend,
                utilization,
                session_occupancy: occupancy,
                top_services: top,
                alert: utilization > self.cfg.alert_threshold,
            });
        }
        self.window.clear();
        self.window_start = now;
        out
    }

    /// Session count currently live on a backend.
    pub fn backend_sessions(&self, backend: BackendId) -> usize {
        (0..self.cfg.replicas_per_backend)
            .filter_map(|r| self.replicas.get(&(backend, r)))
            .map(|st| st.sessions.len())
            .sum()
    }

    /// Lifetime counters `(served, errors)`.
    pub fn stats(&self) -> (u64, u64) {
        (self.served, self.errors)
    }

    /// One step of a rolling version upgrade (the Fig. 20 nightly
    /// operation): take a single replica of a single backend out, "upgrade"
    /// it, and bring it back. With `replicas_per_backend > 1` every backend
    /// keeps serving throughout. Returns the `(backend, replica)` pairs in
    /// the full rolling order so the caller can pace them (the paper's
    /// region-wide upgrade takes ~4 hours).
    pub fn rolling_upgrade_order(&self) -> Vec<(BackendId, usize)> {
        let mut order = Vec::new();
        for r in 0..self.cfg.replicas_per_backend {
            for &b in self.backend_az.keys() {
                order.push((b, r));
            }
        }
        order
    }

    /// Fold the whole gateway into a digest, delegating to every
    /// subsystem: `placement`, `planner`, per-replica `replicas` state,
    /// per-backend `redirectors`, the `sandbox`, the `overload` pipeline,
    /// `backend_az`, `next_backend`, the `window` counters and
    /// `window_start`, `errors`/`served`, and the `active_config` pair
    /// preceded by its known-service set.
    pub fn fold_digest(&self, d: &mut Digest) {
        self.placement.fold_digest(d);
        self.planner.fold_digest(d);
        d.write_u64(self.replicas.len() as u64);
        for (&(b, r), st) in &self.replicas {
            d.write_u64(b as u64).write_u64(r as u64);
            st.cpu.fold_digest(d);
            d.write_u64(st.sessions.len() as u64);
        }
        d.write_u64(self.redirectors.len() as u64);
        for (&b, red) in &self.redirectors {
            d.write_u64(b as u64);
            red.fold_digest(d);
        }
        self.sandbox.fold_digest(d);
        match &self.overload {
            None => {
                d.write_u64(0);
            }
            Some(ov) => {
                d.write_u64(1);
                ov.fold_digest(d);
            }
        }
        d.write_u64(self.backend_az.len() as u64);
        for (&b, az) in &self.backend_az {
            d.write_u64(b as u64).write_u64(az.0 as u64);
        }
        d.write_u64(self.next_backend as u64);
        d.write_u64(self.window.len() as u64);
        for (&(b, s), w) in &self.window {
            d.write_u64(b as u64).write_u64(s.0).write_u64(w.requests);
        }
        d.write_u64(self.window_start.as_nanos())
            .write_u64(self.errors)
            .write_u64(self.served)
            .write_u64(self.active_config.ctx().len() as u64);
        for s in self.active_config.ctx() {
            d.write_u64(s.0);
        }
        self.active_config.fold_digest(d);
    }

    /// Execute one upgrade step: fail the replica, migrate its sessions'
    /// ownership implicitly (flows re-establish on siblings via the
    /// redirector), then recover it. Returns whether every service placed
    /// on the backend stayed available during the step.
    pub fn rolling_upgrade_step(&mut self, backend: BackendId, replica: usize) -> bool {
        if self
            .placement
            .fail(crate::failure::FailureDomain::Replica(backend, replica))
            .is_err()
        {
            return false;
        }
        let still_up = self.placement.backend_available(backend);
        // Upgrade happens here (image swap); then the replica rejoins with
        // a cleared session table.
        if let Some(st) = self.replicas.get_mut(&(backend, replica)) {
            st.sessions.expire_idle(SimTime::MAX - SimDuration::from_secs(1));
        }
        let recovered = self
            .placement
            .recover(crate::failure::FailureDomain::Replica(backend, replica))
            .is_ok();
        still_up && recovered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canal_net::{Endpoint, ServiceId, TenantId, VpcAddr, VpcId};

    fn svc(i: u32) -> GlobalServiceId {
        GlobalServiceId::compose(TenantId(1), ServiceId(i))
    }

    fn tuple(sport: u16) -> FiveTuple {
        FiveTuple::tcp(
            Endpoint::new(VpcAddr::new(VpcId(1), 10, 0, 0, 1), sport),
            Endpoint::new(VpcAddr::new(VpcId(1), 10, 0, 2, 2), 443),
        )
    }

    const T: fn(u64) -> SimTime = SimTime::from_millis;

    fn gateway_with_service() -> (Gateway, GlobalServiceId) {
        let mut gw = Gateway::new(GatewayConfig::default());
        let mut rng = SimRng::seed(42);
        let s = svc(1);
        gw.register_service(s, &mut rng);
        (gw, s)
    }

    #[test]
    fn registration_places_on_shard_size_backends() {
        let (gw, s) = gateway_with_service();
        let backends = gw.backends_of(s);
        assert_eq!(backends.len(), gw.config().shard_size);
    }

    #[test]
    fn requests_flow_and_sessions_stick() {
        let (mut gw, s) = gateway_with_service();
        let t1 = tuple(1000);
        let first = gw.handle_request(T(0), s, &t1, true).unwrap();
        // Subsequent packets of the same flow land on the same replica.
        for i in 1..10u64 {
            let again = gw.handle_request(T(i), s, &t1, false).unwrap();
            assert_eq!(again.backend, first.backend);
            assert_eq!(again.replica, first.replica);
        }
        let (served, errors) = gw.stats();
        assert_eq!((served, errors), (10, 0));
    }

    #[test]
    fn unknown_service_rejected() {
        let (mut gw, _) = gateway_with_service();
        assert_eq!(
            gw.handle_request(T(0), svc(99), &tuple(1), true),
            Err(GatewayError::UnknownService)
        );
    }

    #[test]
    fn failure_of_all_service_backends_is_unavailable_but_isolated() {
        let (mut gw, s) = gateway_with_service();
        let mut rng = SimRng::seed(43);
        let other = svc(2);
        gw.register_service(other, &mut rng);
        for b in gw.backends_of(s) {
            gw.fail(FailureDomain::Backend(b)).unwrap();
        }
        assert_eq!(
            gw.handle_request(T(0), s, &tuple(1), true),
            Err(GatewayError::Unavailable)
        );
        // Shuffle sharding: the other service still has at least one
        // backend (combinations differ).
        let other_ok = gw
            .backends_of(other)
            .iter()
            .any(|&b| gw.placement().backend_available(b));
        assert!(other_ok);
    }

    #[test]
    fn replica_failure_falls_over_within_backend() {
        let (mut gw, s) = gateway_with_service();
        let t1 = tuple(7);
        let first = gw.handle_request(T(0), s, &t1, true).unwrap();
        gw.fail(FailureDomain::Replica(first.backend, first.replica)).unwrap();
        // The flow's replica died: the session breaks briefly and is
        // reconstructed on another live replica of the same backend.
        let again = gw.handle_request(T(1), s, &t1, false).unwrap();
        assert_eq!(again.backend, first.backend);
        assert_ne!(again.replica, first.replica);
    }

    #[test]
    fn throttled_service_drops_excess() {
        let (mut gw, s) = gateway_with_service();
        gw.sandbox.throttle(s, 1.0, 1.0);
        assert!(gw.handle_request(T(0), s, &tuple(1), true).is_ok());
        assert_eq!(
            gw.handle_request(T(1), s, &tuple(2), true),
            Err(GatewayError::Throttled)
        );
    }

    #[test]
    fn water_levels_identify_top_service() {
        let (mut gw, s) = gateway_with_service();
        let mut rng = SimRng::seed(44);
        let quiet = svc(3);
        gw.register_service(quiet, &mut rng);
        for i in 0..200u16 {
            gw.handle_request(T(i as u64), s, &tuple(1000 + i), true).unwrap();
        }
        gw.handle_request(T(300), quiet, &tuple(5), true).unwrap();
        let levels = gw.water_levels(T(1000));
        let hot = levels
            .iter()
            .filter(|w| !w.top_services.is_empty())
            .max_by_key(|w| w.top_services[0].1)
            .unwrap();
        assert_eq!(hot.top_services[0].0, s);
        // Window resets after reading.
        let levels2 = gw.water_levels(T(2000));
        assert!(levels2.iter().all(|w| w.top_services.is_empty()));
    }

    #[test]
    fn session_exhaustion_surfaces() {
        let cfg = GatewayConfig {
            sessions_per_replica: 4,
            azs: 1,
            backends_per_az: 1,
            shard_size: 1,
            replicas_per_backend: 1,
            ..GatewayConfig::default()
        };
        let mut gw = Gateway::new(cfg);
        let mut rng = SimRng::seed(45);
        let s = svc(1);
        gw.register_service(s, &mut rng);
        let mut full = 0;
        for i in 0..10u16 {
            if gw.handle_request(T(0), s, &tuple(100 + i), true)
                == Err(GatewayError::SessionsExhausted)
            {
                full += 1;
            }
        }
        assert_eq!(full, 6, "4 admitted, 6 rejected");
    }

    #[test]
    fn rolling_upgrade_never_loses_availability() {
        let (mut gw, s) = gateway_with_service();
        let order = gw.rolling_upgrade_order();
        // 8 backends × 3 replicas by default.
        assert_eq!(order.len(), 8 * 3);
        for (i, (b, r)) in order.into_iter().enumerate() {
            assert!(gw.rolling_upgrade_step(b, r), "step {i} lost a backend");
            // The service keeps serving mid-upgrade.
            let t = tuple(30_000 + i as u16);
            assert!(gw.handle_request(T(i as u64 * 10), s, &t, true).is_ok());
        }
        let (_, errors) = gw.stats();
        assert_eq!(errors, 0);
    }

    #[test]
    fn single_replica_backends_do_blip_during_upgrade() {
        // The inverse guarantee: with one replica per backend, an upgrade
        // step takes the whole backend down — which is why the gateway
        // deploys replicated backends.
        let cfg = GatewayConfig {
            replicas_per_backend: 1,
            ..GatewayConfig::default()
        };
        let mut gw = Gateway::new(cfg);
        let mut rng = SimRng::seed(50);
        gw.register_service(svc(1), &mut rng);
        let (b, r) = gw.rolling_upgrade_order()[0];
        assert!(!gw.rolling_upgrade_step(b, r));
    }

    #[test]
    fn overload_pipeline_dispatches_through_gateway() {
        let (mut gw, s) = gateway_with_service();
        gw.enable_overload_control(OverloadConfig::default());
        let ticket = gw
            .offer_request(
                T(0),
                s,
                Priority::Interactive,
                &tuple(1),
                true,
                1,
                AttemptKind::First,
                256,
            )
            .unwrap();
        let results = gw.pump_overload(T(1));
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].0, ticket);
        assert!(results[0].1.is_ok(), "granted request dispatched");
        let (served, errors) = gw.stats();
        assert_eq!((served, errors), (1, 0));
        let sig = gw.overload_signals().unwrap();
        assert_eq!((sig.offered, sig.started), (1, 1));
    }

    #[test]
    fn offer_without_overload_control_is_unavailable() {
        let (mut gw, s) = gateway_with_service();
        assert_eq!(
            gw.offer_request(
                T(0),
                s,
                Priority::Interactive,
                &tuple(1),
                true,
                1,
                AttemptKind::First,
                256,
            ),
            Err(GatewayError::Unavailable)
        );
        assert!(gw.pump_overload(T(1)).is_empty());
        assert!(gw.next_overload_wake().is_none());
    }

    #[test]
    fn scale_new_backend_then_extend_service() {
        let (mut gw, s) = gateway_with_service();
        let before = gw.backends_of(s).len();
        let nb = gw.scale_new_backend(canal_net::AzId(0));
        assert!(gw.extend_service(s, nb));
        assert!(!gw.extend_service(s, nb), "idempotent");
        assert_eq!(gw.backends_of(s).len(), before + 1);
        // New backend serves traffic for the service.
        let mut landed = false;
        for i in 0..200u16 {
            let r = gw.handle_request(T(i as u64), s, &tuple(2000 + i), true).unwrap();
            landed |= r.backend == nb;
        }
        assert!(landed, "extended backend never selected");
    }
}
