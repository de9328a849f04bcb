//! Deterministic fault injection (§4.2 / Fig. 8).
//!
//! A [`FaultPlan`] is an explicit, seed-reproducible list of typed
//! [`FaultEvent`]s: replica/backend/AZ crashes and recoveries, config-push
//! stalls, key-server outages and timeout spikes, and per-link packet
//! loss/latency degradation. Plans come from two sources:
//!
//! * **Scripted outages** — a one-line-per-event scenario DSL
//!   ([`FaultPlan::parse`]), e.g. `at 30s fail az 1` / `at 90s recover az 1`,
//!   so a Fig. 8-style walkthrough is versionable text.
//! * **Random plans** — [`FaultPlan::random`] draws exponential MTTF/MTTR
//!   up/down cycles per domain from a caller-supplied [`SimRng`], honouring
//!   the determinism contract: no wall clocks, no ambient randomness, and a
//!   plan folds into a [`Digest`] so double-run harnesses can demand
//!   bit-identical fault schedules.
//!
//! Plans schedule into a [`Simulation`] via [`FaultPlan::schedule_into`];
//! [`FaultState`] is the ground-truth bookkeeping a chaos model keeps while
//! events fire (who is *actually* down, independent of what the control
//! plane has detected so far — the gap between the two is exactly what the
//! resilience layer gets measured on).

use crate::engine::Simulation;
use crate::invariant::Digest;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// What a fault event targets. Identifiers are plain integers (backend key,
/// AZ index) because `canal-sim` is a leaf crate: the gateway layers map
/// them onto their own `BackendKey`/`AzId` types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultTarget {
    /// One replica VM of a backend.
    Replica {
        /// Owning backend key.
        backend: u32,
        /// Replica index within the backend.
        index: usize,
    },
    /// A whole backend (all replicas).
    Backend(u32),
    /// A whole availability zone (power-loss scenario).
    Az(u32),
    /// The control plane's config-push path (`control::configure`).
    ConfigPush,
    /// The config *content* pipeline: while failed, every config the
    /// controller emits is semantically invalid (a route to an unknown
    /// service, an empty backend set) — §2.2's "bad config" outage vector.
    /// Data planes are expected to NACK it instead of applying it.
    ConfigPoison,
    /// The multi-tenant key server (`crypto::keyserver`).
    KeyServer,
    /// The cert-issuance clock: while failed (or degraded with `extra`),
    /// every cert bundle the rotation controller cuts carries a skewed
    /// `not_after` (already in the past, or behind the fleet clock by
    /// `extra`) — data planes are expected to NACK it at commit validation.
    CertExpirySkew,
    /// A tenant's CA private key is compromised: the incident response
    /// revokes every cert the current generation signed, forcing the whole
    /// tenant through re-issuance + full handshakes at once.
    CaCompromiseRevoke(u32),
    /// Synchronized restart of every pod in an AZ (kernel patch wave,
    /// hypervisor reboot): all connections and resumption tickets in the
    /// zone are lost at one instant, flooding the key server with *full*
    /// handshakes.
    AzMassRestart(u32),
    /// The inter-AZ link between two zones (undirected).
    Link {
        /// One endpoint AZ.
        a: u32,
        /// The other endpoint AZ.
        b: u32,
    },
    /// One *direction* of an inter-AZ link: traffic `from → to` is lost or
    /// delayed while `to → from` stays clean. This is the asymmetric
    /// partition that defeats symmetric health checks — A can't reach B but
    /// B's probes of A still succeed.
    LinkDirected {
        /// Sending AZ (the degraded direction's source).
        from: u32,
        /// Receiving AZ.
        to: u32,
    },
    /// Gray failure of a gateway: the target keeps answering health probes
    /// normally while *real* requests error (`loss`) and/or slow (`extra`).
    /// `fail` means every real request errors; probes stay green either way.
    GrayDegrade(u32),
    /// Control-plane partition: the gateway is unreachable from
    /// `canal-control` (no config pushes, no ACK/NACK returns) while its
    /// *data path* keeps serving whatever config it last committed.
    ControlPartition(u32),
    /// The network-policy *content* pipeline: while failed, every policy
    /// spec the controller emits is semantically invalid (an inverted
    /// port range, a non-canonical CIDR) — the policy-plane twin of
    /// [`ConfigPoison`](FaultTarget::ConfigPoison). Data planes are
    /// expected to NACK it instead of applying it.
    PolicyPoison,
    /// The rollout controller process itself dies mid-wave and restarts
    /// later from its journal. In the DSL, `fail control-crash <dur>`
    /// expands into a `Crash` at `t` plus an auto-generated `Recover` at
    /// `t + dur` — the restart — so a script line models the full
    /// crash/recover cycle the failover drill measures.
    ControlCrash,
    /// A **zombie** controller incarnation: the pre-crash process was
    /// paused (GC, VM migration, partitioned), not dead, and resumes
    /// pushing with its stale epoch concurrently with the restarted
    /// controller. Data planes are expected to fence every stale-epoch
    /// push (`StaleEpoch` NACK), never apply it.
    ControlZombie,
}

/// What happens to the target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Hard outage: the target stops serving entirely.
    Crash,
    /// The target returns to full health (clears crashes *and* degradation).
    Recover,
    /// Partial degradation with a magnitude: `loss` is a packet-loss
    /// probability (links), `extra` is added latency (links), push delay
    /// (config path) or timeout (key server).
    Degrade {
        /// Packet-loss probability in `[0, 1]` (links only; 0 elsewhere).
        loss: f64,
        /// Added latency / stall duration, by target.
        extra: SimDuration,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault takes effect.
    pub at: SimTime,
    /// What it hits.
    pub target: FaultTarget,
    /// What happens.
    pub kind: FaultKind,
}

/// A parse error from the scenario DSL, with the 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptError {
    /// 1-based line in the script.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault script line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ScriptError {}

/// Mean time to failure / mean time to recovery for one domain class.
#[derive(Debug, Clone, Copy)]
pub struct FaultRates {
    /// Mean up-time before a crash (exponentially distributed).
    pub mttf: SimDuration,
    /// Mean down-time before recovery (exponentially distributed).
    pub mttr: SimDuration,
}

/// Which domain classes a random plan crashes, and how often.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomFaultProfile {
    /// Per-replica crash/recover cycling.
    pub replica: Option<FaultRates>,
    /// Per-backend crash/recover cycling.
    pub backend: Option<FaultRates>,
    /// Per-AZ crash/recover cycling.
    pub az: Option<FaultRates>,
}

/// One backend of the simulated topology (for random plans and
/// [`FaultState`] liveness queries).
#[derive(Debug, Clone, Copy)]
pub struct BackendSpec {
    /// Backend key.
    pub id: u32,
    /// AZ the backend lives in.
    pub az: u32,
    /// Replica count.
    pub replicas: usize,
}

/// The failure-domain topology a plan runs against.
#[derive(Debug, Clone, Default)]
pub struct FaultTopology {
    /// All backends, with AZ and replica count.
    pub backends: Vec<BackendSpec>,
}

impl FaultTopology {
    /// The distinct AZ indices present, ascending.
    pub fn azs(&self) -> Vec<u32> {
        let set: BTreeSet<u32> = self.backends.iter().map(|b| b.az).collect();
        set.into_iter().collect()
    }
}

/// An ordered, reproducible fault schedule.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    // lint:allow(bounded-state) reason=plan is built once from a finite script or generator before the run starts
    events: Vec<FaultEvent>,
}

fn parse_duration(s: &str) -> Option<SimDuration> {
    // Suffix order matters: try the longer units first so "ms" is not read
    // as "m"+"s" and "us"/"ns" are not read as "s".
    for (suffix, to_ns) in [("ns", 1.0), ("us", 1e3), ("ms", 1e6), ("s", 1e9)] {
        if let Some(num) = s.strip_suffix(suffix) {
            // "10us" must not match the "s" arm with num="10u".
            let value: f64 = num.parse().ok()?;
            if value < 0.0 {
                return None;
            }
            return Some(SimDuration::from_nanos((value * to_ns).round() as u64));
        }
    }
    None
}

fn parse_loss(s: &str) -> Option<f64> {
    let v: f64 = if let Some(pct) = s.strip_suffix('%') {
        pct.parse::<f64>().ok()? / 100.0
    } else {
        s.parse().ok()?
    };
    (0.0..=1.0).contains(&v).then_some(v)
}

fn err(line: usize, msg: impl Into<String>) -> ScriptError {
    ScriptError {
        line,
        msg: msg.into(),
    }
}

fn parse_target(words: &mut std::slice::Iter<'_, &str>, lineno: usize) -> Result<FaultTarget, ScriptError> {
    let what = words
        .next()
        .ok_or_else(|| err(lineno, "missing target after action"))?;
    match *what {
        "replica" => {
            let spec = words
                .next()
                .ok_or_else(|| err(lineno, "replica needs <backend>/<index>"))?;
            let (b, r) = spec
                .split_once('/')
                .ok_or_else(|| err(lineno, format!("bad replica spec `{spec}` (want b/r)")))?;
            let backend = b
                .parse()
                .map_err(|_| err(lineno, format!("bad backend id `{b}`")))?;
            let index = r
                .parse()
                .map_err(|_| err(lineno, format!("bad replica index `{r}`")))?;
            Ok(FaultTarget::Replica { backend, index })
        }
        "backend" => {
            let id = words
                .next()
                .ok_or_else(|| err(lineno, "backend needs an id"))?;
            Ok(FaultTarget::Backend(id.parse().map_err(|_| {
                err(lineno, format!("bad backend id `{id}`"))
            })?))
        }
        "az" => {
            let id = words.next().ok_or_else(|| err(lineno, "az needs an id"))?;
            Ok(FaultTarget::Az(id.parse().map_err(|_| {
                err(lineno, format!("bad az id `{id}`"))
            })?))
        }
        "config-push" => Ok(FaultTarget::ConfigPush),
        "config-poison" => Ok(FaultTarget::ConfigPoison),
        "policy-poison" => Ok(FaultTarget::PolicyPoison),
        "key-server" => Ok(FaultTarget::KeyServer),
        "cert-expiry-skew" => Ok(FaultTarget::CertExpirySkew),
        "ca-compromise-revoke" => {
            let id = words
                .next()
                .ok_or_else(|| err(lineno, "ca-compromise-revoke needs a tenant id"))?;
            Ok(FaultTarget::CaCompromiseRevoke(id.parse().map_err(|_| {
                err(lineno, format!("bad tenant id `{id}`"))
            })?))
        }
        "az-mass-restart" => {
            let id = words
                .next()
                .ok_or_else(|| err(lineno, "az-mass-restart needs an az id"))?;
            Ok(FaultTarget::AzMassRestart(id.parse().map_err(|_| {
                err(lineno, format!("bad az id `{id}`"))
            })?))
        }
        "link" => {
            let spec = words
                .next()
                .ok_or_else(|| err(lineno, "link needs <azA>-<azB>"))?;
            let (a, b) = spec
                .split_once('-')
                .ok_or_else(|| err(lineno, format!("bad link spec `{spec}` (want a-b)")))?;
            let a = a
                .parse()
                .map_err(|_| err(lineno, format!("bad az id `{a}`")))?;
            let b = b
                .parse()
                .map_err(|_| err(lineno, format!("bad az id `{b}`")))?;
            Ok(FaultTarget::Link { a, b })
        }
        "link-directed" => {
            let spec = words
                .next()
                .ok_or_else(|| err(lineno, "link-directed needs <from>><to>"))?;
            let (from, to) = spec
                .split_once('>')
                .ok_or_else(|| err(lineno, format!("bad directed link spec `{spec}` (want from>to)")))?;
            let from = from
                .parse()
                .map_err(|_| err(lineno, format!("bad az id `{from}`")))?;
            let to = to
                .parse()
                .map_err(|_| err(lineno, format!("bad az id `{to}`")))?;
            Ok(FaultTarget::LinkDirected { from, to })
        }
        "gray" => {
            let id = words
                .next()
                .ok_or_else(|| err(lineno, "gray needs a gateway id"))?;
            Ok(FaultTarget::GrayDegrade(id.parse().map_err(|_| {
                err(lineno, format!("bad gateway id `{id}`"))
            })?))
        }
        "control-partition" => {
            let id = words
                .next()
                .ok_or_else(|| err(lineno, "control-partition needs a gateway id"))?;
            Ok(FaultTarget::ControlPartition(id.parse().map_err(|_| {
                err(lineno, format!("bad gateway id `{id}`"))
            })?))
        }
        "control-crash" => Ok(FaultTarget::ControlCrash),
        "control-zombie" => Ok(FaultTarget::ControlZombie),
        other => Err(err(lineno, format!("unknown target `{other}`"))),
    }
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one event (kept; ordering is normalized lazily).
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
        // Stable sort: same-instant events keep insertion order, matching
        // the engine's FIFO tie-break.
        self.events.sort_by_key(|e| e.at);
    }

    /// Parse the scenario DSL. One event per line:
    ///
    /// ```text
    /// # AZ-1 power loss at t=30s, recover at t=90s
    /// at 30s fail az 1
    /// at 90s recover az 1
    /// at 10s fail replica 2/0
    /// at 40s fail backend 3
    /// at 20s degrade link 0-1 loss 5% extra 2ms
    /// at 50s degrade config-push extra 5s
    /// at 55s fail config-poison
    /// at 57s fail policy-poison
    /// at 60s degrade key-server extra 15ms
    /// at 70s degrade cert-expiry-skew extra 90s
    /// at 80s fail ca-compromise-revoke 3
    /// at 85s fail az-mass-restart 1
    /// at 86s degrade link-directed 1>0 loss 80%   # A→B only; B→A clean
    /// at 87s degrade gray 2 loss 60% extra 10ms   # probes stay green
    /// at 88s fail control-partition 2             # unreachable from control
    /// at 89s fail control-crash 20s               # dies now, restarts at 109s
    /// at 90s fail control-zombie                  # stale incarnation pushes
    /// ```
    ///
    /// Durations take `ns`/`us`/`ms`/`s` suffixes; loss takes a fraction or
    /// a percentage. `fail` is a hard crash; `degrade` needs `loss` and/or
    /// `extra`; `recover` clears both.
    pub fn parse(script: &str) -> Result<Self, ScriptError> {
        let mut plan = FaultPlan::new();
        for (idx, raw) in script.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let words: Vec<&str> = line.split_whitespace().collect();
            let mut it = words.iter();
            match it.next() {
                Some(&"at") => {}
                _ => return Err(err(lineno, "line must start with `at <time>`")),
            }
            let at_str = it.next().ok_or_else(|| err(lineno, "missing time"))?;
            let offset = parse_duration(at_str)
                .ok_or_else(|| err(lineno, format!("bad time `{at_str}`")))?;
            let at = SimTime::ZERO + offset;
            let action = *it.next().ok_or_else(|| err(lineno, "missing action"))?;
            let target = parse_target(&mut it, lineno)?;
            let kind = match action {
                "fail" => FaultKind::Crash,
                "recover" => FaultKind::Recover,
                "degrade" => {
                    let mut loss = 0.0;
                    let mut extra = SimDuration::ZERO;
                    let mut saw_any = false;
                    while let Some(key) = it.next() {
                        let value = it
                            .next()
                            .ok_or_else(|| err(lineno, format!("`{key}` needs a value")))?;
                        match *key {
                            "loss" => {
                                loss = parse_loss(value).ok_or_else(|| {
                                    err(lineno, format!("bad loss `{value}`"))
                                })?;
                            }
                            "extra" => {
                                extra = parse_duration(value).ok_or_else(|| {
                                    err(lineno, format!("bad duration `{value}`"))
                                })?;
                            }
                            other => {
                                return Err(err(lineno, format!("unknown key `{other}`")))
                            }
                        }
                        saw_any = true;
                    }
                    if !saw_any {
                        return Err(err(lineno, "degrade needs `loss ...` and/or `extra ...`"));
                    }
                    FaultKind::Degrade { loss, extra }
                }
                other => return Err(err(lineno, format!("unknown action `{other}`"))),
            };
            // `fail control-crash <dur>` is sugar for the full cycle: the
            // controller dies now and its restart is the auto-generated
            // recover at `t + dur` — one script line, two events.
            if target == FaultTarget::ControlCrash && kind == FaultKind::Crash {
                let dur_str = it.next().ok_or_else(|| {
                    err(lineno, "control-crash needs a restart duration")
                })?;
                let dur = parse_duration(dur_str)
                    .ok_or_else(|| err(lineno, format!("bad duration `{dur_str}`")))?;
                if it.next().is_some() {
                    return Err(err(lineno, "trailing tokens"));
                }
                plan.events.push(FaultEvent { at, target, kind });
                plan.events.push(FaultEvent {
                    at: at + dur,
                    target,
                    kind: FaultKind::Recover,
                });
                continue;
            }
            if it.next().is_some() {
                return Err(err(lineno, "trailing tokens"));
            }
            plan.events.push(FaultEvent { at, target, kind });
        }
        plan.events.sort_by_key(|e| e.at);
        Ok(plan)
    }

    /// Draw a random plan: each domain in `profile` cycles up (mean `mttf`)
    /// and down (mean `mttr`) independently until `horizon`. All randomness
    /// comes from the caller's `rng`; the same rng state always yields the
    /// same plan.
    pub fn random(
        topo: &FaultTopology,
        profile: &RandomFaultProfile,
        horizon: SimDuration,
        rng: &mut SimRng,
    ) -> Self {
        let mut plan = FaultPlan::new();
        let mut cycle = |target: FaultTarget, rates: FaultRates, rng: &mut SimRng| {
            let mut t = SimDuration::ZERO;
            loop {
                t += SimDuration::from_secs_f64(rng.exponential(rates.mttf.as_secs_f64()));
                if t >= horizon {
                    break;
                }
                plan.events.push(FaultEvent {
                    at: SimTime::ZERO + t,
                    target,
                    kind: FaultKind::Crash,
                });
                t += SimDuration::from_secs_f64(rng.exponential(rates.mttr.as_secs_f64()));
                let recover_at = t.min(horizon);
                plan.events.push(FaultEvent {
                    at: SimTime::ZERO + recover_at,
                    target,
                    kind: FaultKind::Recover,
                });
                if t >= horizon {
                    break;
                }
            }
        };
        // Iterate domains in a fixed order (backends as listed, then AZs
        // ascending) so plans are insensitive to caller-side reordering of
        // unrelated draws.
        if let Some(rates) = profile.replica {
            for be in &topo.backends {
                for r in 0..be.replicas {
                    cycle(
                        FaultTarget::Replica {
                            backend: be.id,
                            index: r,
                        },
                        rates,
                        rng,
                    );
                }
            }
        }
        if let Some(rates) = profile.backend {
            for be in &topo.backends {
                cycle(FaultTarget::Backend(be.id), rates, rng);
            }
        }
        if let Some(rates) = profile.az {
            for az in topo.azs() {
                cycle(FaultTarget::Az(az), rates, rng);
            }
        }
        plan.events.sort_by_key(|e| e.at);
        plan
    }

    /// Merge another plan into this one (e.g. a scripted outage on top of
    /// background MTTF noise), preserving per-instant insertion order.
    pub fn merge(&mut self, other: &FaultPlan) {
        self.events.extend(other.events.iter().copied());
        self.events.sort_by_key(|e| e.at);
    }

    /// The events, ascending by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Schedule every event into a simulation, wrapping each in the model's
    /// own event type. `wrap` receives the plan index so the model can look
    /// the event back up when it fires.
    pub fn schedule_into<E>(
        &self,
        sim: &mut Simulation<E>,
        mut wrap: impl FnMut(usize, &FaultEvent) -> E,
    ) {
        for (i, ev) in self.events.iter().enumerate() {
            sim.schedule(ev.at, wrap(i, ev));
        }
    }

    /// Fold the full schedule into a digest (time, target, kind — floats by
    /// bit pattern), so chaos harnesses can demand bit-identical plans.
    pub fn fold_digest(&self, d: &mut Digest) {
        for ev in &self.events {
            d.write_u64(ev.at.as_nanos());
            match ev.target {
                FaultTarget::Replica { backend, index } => {
                    d.write_u64(1).write_u64(backend as u64).write_u64(index as u64);
                }
                FaultTarget::Backend(b) => {
                    d.write_u64(2).write_u64(b as u64);
                }
                FaultTarget::Az(a) => {
                    d.write_u64(3).write_u64(a as u64);
                }
                FaultTarget::ConfigPush => {
                    d.write_u64(4);
                }
                FaultTarget::KeyServer => {
                    d.write_u64(5);
                }
                FaultTarget::Link { a, b } => {
                    d.write_u64(6).write_u64(a as u64).write_u64(b as u64);
                }
                FaultTarget::ConfigPoison => {
                    d.write_u64(7);
                }
                FaultTarget::CertExpirySkew => {
                    d.write_u64(8);
                }
                FaultTarget::CaCompromiseRevoke(t) => {
                    d.write_u64(9).write_u64(t as u64);
                }
                FaultTarget::AzMassRestart(a) => {
                    d.write_u64(10).write_u64(a as u64);
                }
                FaultTarget::LinkDirected { from, to } => {
                    d.write_u64(11).write_u64(from as u64).write_u64(to as u64);
                }
                FaultTarget::GrayDegrade(g) => {
                    d.write_u64(12).write_u64(g as u64);
                }
                FaultTarget::ControlPartition(g) => {
                    d.write_u64(13).write_u64(g as u64);
                }
                FaultTarget::PolicyPoison => {
                    d.write_u64(14);
                }
                FaultTarget::ControlCrash => {
                    d.write_u64(15);
                }
                FaultTarget::ControlZombie => {
                    d.write_u64(16);
                }
            }
            match ev.kind {
                FaultKind::Crash => {
                    d.write_u64(10);
                }
                FaultKind::Recover => {
                    d.write_u64(11);
                }
                FaultKind::Degrade { loss, extra } => {
                    d.write_u64(12).write_f64(loss).write_u64(extra.as_nanos());
                }
            }
        }
    }
}

/// Every target token the scenario DSL accepts: `(token, operand, meaning)`.
///
/// This is the canonical catalogue — `parse` accepts exactly these tokens,
/// and the README's fault-target table is checked against it by test, so
/// adding a target here (or in `parse_target`) without documenting it
/// fails the suite.
pub const DSL_TARGETS: &[(&str, &str, &str)] = &[
    ("replica", "<backend>/<index>", "one replica VM of a backend"),
    ("backend", "<id>", "a whole backend (all replicas)"),
    ("az", "<id>", "a whole availability zone (power loss)"),
    ("config-push", "—", "the control plane's config-push path"),
    ("config-poison", "—", "config pipeline emits semantically invalid configs"),
    ("policy-poison", "—", "policy pipeline emits semantically invalid specs"),
    ("key-server", "—", "the multi-tenant key server"),
    ("cert-expiry-skew", "—", "cert-issuance clock skew (bundles NACKed downstream)"),
    ("ca-compromise-revoke", "<tenant>", "tenant CA key compromise: mass revocation + re-issuance"),
    ("az-mass-restart", "<az>", "synchronized pod restart of a zone (resumption state lost)"),
    ("link", "<azA>-<azB>", "the undirected inter-AZ link"),
    ("link-directed", "<from>><to>", "one direction of an inter-AZ link (asymmetric partition)"),
    ("gray", "<gateway>", "gray failure: real requests degrade, probes stay green"),
    ("control-partition", "<gateway>", "gateway unreachable from the control plane"),
    ("control-crash", "<dur> (on fail)", "rollout controller dies, restarts from journal after dur"),
    ("control-zombie", "—", "stale controller incarnation resumes pushing concurrently"),
];

/// Per-link degradation state.
#[derive(Debug, Clone, Copy, Default)]
struct LinkState {
    crashed: bool,
    loss: f64,
    extra: SimDuration,
}

/// Per-gateway gray-failure state: what *real* requests see while health
/// probes keep answering normally.
#[derive(Debug, Clone, Copy, Default)]
struct GrayState {
    loss: f64,
    extra: SimDuration,
}

/// Ground-truth fault bookkeeping while a plan's events fire.
///
/// This is what is *actually* down — the control plane's detected view
/// (e.g. `PlacementView`) lags behind it by the detection delay, and the
/// resilience layer's job is to mask that gap.
#[derive(Debug, Clone, Default)]
pub struct FaultState {
    az_of: BTreeMap<u32, u32>,
    replicas: BTreeMap<u32, usize>,
    down_replicas: BTreeSet<(u32, usize)>,
    down_backends: BTreeSet<u32>,
    down_azs: BTreeSet<u32>,
    config_blocked: bool,
    config_extra: SimDuration,
    config_poisoned: bool,
    policy_poisoned: bool,
    key_server_down: bool,
    key_server_extra: SimDuration,
    cert_skew_active: bool,
    cert_skew: SimDuration,
    compromised_tenants: BTreeSet<u32>,
    /// AZs whose pods restarted since the flag was last cleared. A restart
    /// is an *instant* with lasting session damage: the model consumes the
    /// flag (drops tickets/connections) and recovers it explicitly.
    mass_restart_azs: BTreeSet<u32>,
    links: BTreeMap<(u32, u32), LinkState>,
    /// Directed degradations keyed `(from, to)` — independent of the
    /// undirected `links` map; queries take the worse of the two.
    directed_links: BTreeMap<(u32, u32), LinkState>,
    /// Gateways whose real traffic is degraded while probes stay green.
    gray: BTreeMap<u32, GrayState>,
    /// Gateways unreachable from the control plane.
    partitioned: BTreeSet<u32>,
    /// The rollout controller process is down (crashed, pre-restart).
    controller_down: bool,
    /// A stale controller incarnation is concurrently pushing (zombie).
    zombie_active: bool,
}

fn link_key(a: u32, b: u32) -> (u32, u32) {
    (a.min(b), a.max(b))
}

impl FaultState {
    /// Fresh state (everything healthy) over a topology.
    pub fn new(topo: &FaultTopology) -> Self {
        FaultState {
            az_of: topo.backends.iter().map(|b| (b.id, b.az)).collect(),
            replicas: topo.backends.iter().map(|b| (b.id, b.replicas)).collect(),
            ..Default::default()
        }
    }

    /// Apply one fired event.
    pub fn apply(&mut self, ev: &FaultEvent) {
        match (ev.target, ev.kind) {
            (FaultTarget::Replica { backend, index }, FaultKind::Crash) => {
                self.down_replicas.insert((backend, index));
            }
            (FaultTarget::Replica { backend, index }, FaultKind::Recover) => {
                self.down_replicas.remove(&(backend, index));
            }
            (FaultTarget::Backend(b), FaultKind::Crash) => {
                self.down_backends.insert(b);
            }
            (FaultTarget::Backend(b), FaultKind::Recover) => {
                self.down_backends.remove(&b);
                self.down_replicas.retain(|&(be, _)| be != b);
            }
            (FaultTarget::Az(a), FaultKind::Crash) => {
                self.down_azs.insert(a);
            }
            (FaultTarget::Az(a), FaultKind::Recover) => {
                self.down_azs.remove(&a);
            }
            (FaultTarget::ConfigPush, FaultKind::Crash) => self.config_blocked = true,
            (FaultTarget::ConfigPush, FaultKind::Recover) => {
                self.config_blocked = false;
                self.config_extra = SimDuration::ZERO;
            }
            (FaultTarget::ConfigPush, FaultKind::Degrade { extra, .. }) => {
                self.config_extra = extra;
            }
            (FaultTarget::ConfigPoison, FaultKind::Crash) => self.config_poisoned = true,
            (FaultTarget::ConfigPoison, FaultKind::Recover) => self.config_poisoned = false,
            // Poison is binary: a config is valid or it is not.
            (FaultTarget::ConfigPoison, FaultKind::Degrade { .. }) => {}
            (FaultTarget::PolicyPoison, FaultKind::Crash) => self.policy_poisoned = true,
            (FaultTarget::PolicyPoison, FaultKind::Recover) => self.policy_poisoned = false,
            // Same binary semantics as config poison.
            (FaultTarget::PolicyPoison, FaultKind::Degrade { .. }) => {}
            (FaultTarget::KeyServer, FaultKind::Crash) => self.key_server_down = true,
            (FaultTarget::KeyServer, FaultKind::Recover) => {
                self.key_server_down = false;
                self.key_server_extra = SimDuration::ZERO;
            }
            (FaultTarget::KeyServer, FaultKind::Degrade { extra, .. }) => {
                self.key_server_extra = extra;
            }
            (FaultTarget::CertExpirySkew, FaultKind::Crash) => {
                // A hard failure of the issuance clock: bundles are cut
                // with an already-expired not_after.
                self.cert_skew_active = true;
            }
            (FaultTarget::CertExpirySkew, FaultKind::Recover) => {
                self.cert_skew_active = false;
                self.cert_skew = SimDuration::ZERO;
            }
            (FaultTarget::CertExpirySkew, FaultKind::Degrade { extra, .. }) => {
                self.cert_skew_active = true;
                self.cert_skew = extra;
            }
            (FaultTarget::CaCompromiseRevoke(t), FaultKind::Crash) => {
                self.compromised_tenants.insert(t);
            }
            (FaultTarget::CaCompromiseRevoke(t), FaultKind::Recover) => {
                self.compromised_tenants.remove(&t);
            }
            // A compromise is binary: the key leaked or it did not.
            (FaultTarget::CaCompromiseRevoke(_), FaultKind::Degrade { .. }) => {}
            (FaultTarget::AzMassRestart(a), FaultKind::Crash) => {
                self.mass_restart_azs.insert(a);
            }
            (FaultTarget::AzMassRestart(a), FaultKind::Recover) => {
                self.mass_restart_azs.remove(&a);
            }
            // A restart either happened or it did not.
            (FaultTarget::AzMassRestart(_), FaultKind::Degrade { .. }) => {}
            (FaultTarget::Link { a, b }, FaultKind::Crash) => {
                self.links.entry(link_key(a, b)).or_default().crashed = true;
            }
            (FaultTarget::Link { a, b }, FaultKind::Recover) => {
                self.links.remove(&link_key(a, b));
            }
            (FaultTarget::Link { a, b }, FaultKind::Degrade { loss, extra }) => {
                let st = self.links.entry(link_key(a, b)).or_default();
                st.loss = loss;
                st.extra = extra;
            }
            (FaultTarget::LinkDirected { from, to }, FaultKind::Crash) => {
                self.directed_links.entry((from, to)).or_default().crashed = true;
            }
            (FaultTarget::LinkDirected { from, to }, FaultKind::Recover) => {
                self.directed_links.remove(&(from, to));
            }
            (FaultTarget::LinkDirected { from, to }, FaultKind::Degrade { loss, extra }) => {
                let st = self.directed_links.entry((from, to)).or_default();
                st.loss = loss;
                st.extra = extra;
            }
            // A hard gray failure: every real request errors, probes green.
            (FaultTarget::GrayDegrade(g), FaultKind::Crash) => {
                self.gray.insert(g, GrayState { loss: 1.0, extra: SimDuration::ZERO });
            }
            (FaultTarget::GrayDegrade(g), FaultKind::Recover) => {
                self.gray.remove(&g);
            }
            (FaultTarget::GrayDegrade(g), FaultKind::Degrade { loss, extra }) => {
                self.gray.insert(g, GrayState { loss, extra });
            }
            (FaultTarget::ControlPartition(g), FaultKind::Crash) => {
                self.partitioned.insert(g);
            }
            (FaultTarget::ControlPartition(g), FaultKind::Recover) => {
                self.partitioned.remove(&g);
            }
            // A partition is binary: reachable or not.
            (FaultTarget::ControlPartition(_), FaultKind::Degrade { .. }) => {}
            (FaultTarget::ControlCrash, FaultKind::Crash) => self.controller_down = true,
            (FaultTarget::ControlCrash, FaultKind::Recover) => self.controller_down = false,
            // A process is running or it is not.
            (FaultTarget::ControlCrash, FaultKind::Degrade { .. }) => {}
            (FaultTarget::ControlZombie, FaultKind::Crash) => self.zombie_active = true,
            (FaultTarget::ControlZombie, FaultKind::Recover) => self.zombie_active = false,
            // A zombie either exists or it does not.
            (FaultTarget::ControlZombie, FaultKind::Degrade { .. }) => {}
            // Degrading a compute domain has no defined magnitude semantics;
            // treat it as a no-op rather than guessing.
            (
                FaultTarget::Replica { .. } | FaultTarget::Backend(_) | FaultTarget::Az(_),
                FaultKind::Degrade { .. },
            ) => {}
        }
    }

    /// Whether an AZ is up.
    pub fn az_up(&self, az: u32) -> bool {
        !self.down_azs.contains(&az)
    }

    /// Whether one replica is actually serving (itself, its backend and its
    /// AZ are all up).
    pub fn replica_up(&self, backend: u32, index: usize) -> bool {
        !self.down_replicas.contains(&(backend, index))
            && !self.down_backends.contains(&backend)
            && self.az_of.get(&backend).is_none_or(|az| self.az_up(*az))
    }

    /// Whether a backend has at least one live replica (and is itself up,
    /// in an up AZ).
    pub fn backend_up(&self, backend: u32) -> bool {
        let n = self.replicas.get(&backend).copied().unwrap_or(0);
        (0..n).any(|r| self.replica_up(backend, r))
    }

    /// Live replica count of a backend.
    pub fn live_replicas(&self, backend: u32) -> usize {
        let n = self.replicas.get(&backend).copied().unwrap_or(0);
        (0..n).filter(|&r| self.replica_up(backend, r)).count()
    }

    /// Packet-loss probability on the (undirected) AZ link. A crashed link
    /// loses everything.
    pub fn link_loss(&self, a: u32, b: u32) -> f64 {
        match self.links.get(&link_key(a, b)) {
            Some(st) if st.crashed => 1.0,
            Some(st) => st.loss,
            None => 0.0,
        }
    }

    /// Added latency on the (undirected) AZ link.
    pub fn link_extra(&self, a: u32, b: u32) -> SimDuration {
        self.links.get(&link_key(a, b)).map(|s| s.extra).unwrap_or_default()
    }

    /// Packet-loss probability for traffic `from → to`: the worse of the
    /// undirected link state and any directed degradation of exactly this
    /// direction. `directed_link_loss(a, b)` and `directed_link_loss(b, a)`
    /// differ under an asymmetric partition — that asymmetry is the point.
    pub fn directed_link_loss(&self, from: u32, to: u32) -> f64 {
        let directed = match self.directed_links.get(&(from, to)) {
            Some(st) if st.crashed => 1.0,
            Some(st) => st.loss,
            None => 0.0,
        };
        self.link_loss(from, to).max(directed)
    }

    /// Added latency for traffic `from → to` (worse of undirected and
    /// directed state).
    pub fn directed_link_extra(&self, from: u32, to: u32) -> SimDuration {
        let directed = self
            .directed_links
            .get(&(from, to))
            .map(|s| s.extra)
            .unwrap_or_default();
        self.link_extra(from, to).max(directed)
    }

    /// Whether a gateway is gray-failing (real requests degraded while its
    /// health probes still succeed).
    pub fn gray_active(&self, gateway: u32) -> bool {
        self.gray.contains_key(&gateway)
    }

    /// Error probability a *real* request sees at a gray gateway (probes
    /// are unaffected by construction).
    pub fn gray_loss(&self, gateway: u32) -> f64 {
        self.gray.get(&gateway).map(|g| g.loss).unwrap_or(0.0)
    }

    /// Added latency a *real* request sees at a gray gateway.
    pub fn gray_extra(&self, gateway: u32) -> SimDuration {
        self.gray.get(&gateway).map(|g| g.extra).unwrap_or_default()
    }

    /// Whether a gateway is unreachable from the control plane (config
    /// pushes to it are dropped; its ACKs/NACKs never arrive).
    pub fn control_partitioned(&self, gateway: u32) -> bool {
        self.partitioned.contains(&gateway)
    }

    /// Whether the rollout controller process is currently down (crashed,
    /// waiting on the `control-crash` auto-restart). While down it emits
    /// no pushes and hears no ACKs; on recovery it must rebuild state from
    /// its journal (`RolloutController::recover`).
    pub fn controller_down(&self) -> bool {
        self.controller_down
    }

    /// Whether a stale controller incarnation is concurrently pushing with
    /// its pre-crash epoch. Every such push must be fenced (`StaleEpoch`
    /// NACK) by the data planes — zero applications is the invariant the
    /// failover drill gates on.
    pub fn zombie_active(&self) -> bool {
        self.zombie_active
    }

    /// The gateways currently partitioned from the control plane,
    /// ascending.
    pub fn partitioned_targets(&self) -> impl Iterator<Item = u32> + '_ {
        self.partitioned.iter().copied()
    }

    /// Whether config pushes are fully blocked.
    pub fn config_blocked(&self) -> bool {
        self.config_blocked
    }

    /// Whether the config pipeline is currently emitting semantically
    /// invalid configs (the §2.2 bad-config outage vector). The rollout
    /// controller and blast-radius experiments consult this one flag as
    /// their shared ground truth.
    pub fn config_poisoned(&self) -> bool {
        self.config_poisoned
    }

    /// Whether the policy pipeline is currently emitting semantically
    /// invalid specs — the policy-plane twin of [`config_poisoned`]
    /// (`ActivePolicy` NACKs these at the canary).
    ///
    /// [`config_poisoned`]: FaultState::config_poisoned
    pub fn policy_poisoned(&self) -> bool {
        self.policy_poisoned
    }

    /// Added config-push delay (zero when healthy).
    pub fn config_extra(&self) -> SimDuration {
        self.config_extra
    }

    /// Whether the key server is hard-down (fallback path takes over).
    pub fn key_server_down(&self) -> bool {
        self.key_server_down
    }

    /// Whether the cert-issuance clock is currently skewed (bundles cut
    /// now carry an invalid `not_after` and should be NACKed downstream).
    pub fn cert_skew_active(&self) -> bool {
        self.cert_skew_active
    }

    /// Magnitude of the issuance-clock skew (zero = hard-expired bundles).
    pub fn cert_skew(&self) -> SimDuration {
        self.cert_skew
    }

    /// Whether a tenant's current CA generation is compromised (mass
    /// revocation + forced re-issuance in flight).
    pub fn tenant_compromised(&self, tenant: u32) -> bool {
        self.compromised_tenants.contains(&tenant)
    }

    /// Whether an AZ is in a synchronized-restart window (all resumption
    /// state in the zone is lost; every new connection is a full
    /// handshake).
    pub fn az_mass_restarting(&self, az: u32) -> bool {
        self.mass_restart_azs.contains(&az)
    }

    /// Fold the ground-truth fault picture into a digest: the `az_of` /
    /// `replicas` topology view, every down set (`down_replicas`,
    /// `down_backends`, `down_azs`), the config pipeline flags
    /// (`config_blocked`, `config_extra`, `config_poisoned`,
    /// `policy_poisoned`), key-server
    /// state (`key_server_down`, `key_server_extra`), the cert-lifecycle
    /// picture (`cert_skew_active`, `cert_skew`, `compromised_tenants`,
    /// `mass_restart_azs`), per-link `links` degradation, directed
    /// `directed_links`, `gray` gateway degradation, the `partitioned`
    /// control-plane reachability set, and the controller-lifecycle flags
    /// (`controller_down`, `zombie_active`).
    pub fn fold_digest(&self, d: &mut Digest) {
        d.write_u64(self.az_of.len() as u64);
        for (&b, &az) in &self.az_of {
            d.write_u64(b as u64).write_u64(az as u64);
        }
        d.write_u64(self.replicas.len() as u64);
        for (&b, &n) in &self.replicas {
            d.write_u64(b as u64).write_u64(n as u64);
        }
        d.write_u64(self.down_replicas.len() as u64);
        for &(b, r) in &self.down_replicas {
            d.write_u64(b as u64).write_u64(r as u64);
        }
        d.write_u64(self.down_backends.len() as u64);
        for &b in &self.down_backends {
            d.write_u64(b as u64);
        }
        d.write_u64(self.down_azs.len() as u64);
        for &a in &self.down_azs {
            d.write_u64(a as u64);
        }
        d.write_u64(self.config_blocked as u64)
            .write_u64(self.config_extra.as_nanos())
            .write_u64(self.config_poisoned as u64)
            .write_u64(self.policy_poisoned as u64)
            .write_u64(self.key_server_down as u64)
            .write_u64(self.key_server_extra.as_nanos())
            .write_u64(self.cert_skew_active as u64)
            .write_u64(self.cert_skew.as_nanos());
        d.write_u64(self.compromised_tenants.len() as u64);
        for &t in &self.compromised_tenants {
            d.write_u64(t as u64);
        }
        d.write_u64(self.mass_restart_azs.len() as u64);
        for &a in &self.mass_restart_azs {
            d.write_u64(a as u64);
        }
        d.write_u64(self.links.len() as u64);
        for (&(a, b), st) in &self.links {
            d.write_u64(a as u64)
                .write_u64(b as u64)
                .write_u64(st.crashed as u64)
                .write_f64(st.loss)
                .write_u64(st.extra.as_nanos());
        }
        d.write_u64(self.directed_links.len() as u64);
        for (&(from, to), st) in &self.directed_links {
            d.write_u64(from as u64)
                .write_u64(to as u64)
                .write_u64(st.crashed as u64)
                .write_f64(st.loss)
                .write_u64(st.extra.as_nanos());
        }
        d.write_u64(self.gray.len() as u64);
        for (&g, st) in &self.gray {
            d.write_u64(g as u64)
                .write_f64(st.loss)
                .write_u64(st.extra.as_nanos());
        }
        d.write_u64(self.partitioned.len() as u64);
        for &g in &self.partitioned {
            d.write_u64(g as u64);
        }
        d.write_u64(self.controller_down as u64)
            .write_u64(self.zombie_active as u64);
    }

    /// Added key-server timeout per handshake (zero when healthy).
    pub fn key_server_extra(&self) -> SimDuration {
        self.key_server_extra
    }

    /// Whether any compute domain (replica/backend/AZ) is crashed.
    pub fn any_crash_active(&self) -> bool {
        !self.down_replicas.is_empty()
            || !self.down_backends.is_empty()
            || !self.down_azs.is_empty()
    }

    /// Whether anything at all is degraded or down.
    pub fn any_active(&self) -> bool {
        self.any_crash_active()
            || self.config_blocked
            || self.config_poisoned
            || self.policy_poisoned
            || self.config_extra > SimDuration::ZERO
            || self.key_server_down
            || self.key_server_extra > SimDuration::ZERO
            || self.cert_skew_active
            || !self.compromised_tenants.is_empty()
            || !self.mass_restart_azs.is_empty()
            || !self.links.is_empty()
            || !self.directed_links.is_empty()
            || !self.gray.is_empty()
            || !self.partitioned.is_empty()
            || self.controller_down
            || self.zombie_active
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> FaultTopology {
        FaultTopology {
            backends: vec![
                BackendSpec { id: 0, az: 0, replicas: 2 },
                BackendSpec { id: 1, az: 0, replicas: 2 },
                BackendSpec { id: 2, az: 1, replicas: 2 },
            ],
        }
    }

    #[test]
    fn dsl_round_trip_core_forms() {
        let plan = FaultPlan::parse(
            "# scripted Fig. 8 outage\n\
             at 10s fail replica 2/0\n\
             at 12s recover replica 2/0\n\
             at 30s fail az 1   # power loss\n\
             at 90s recover az 1\n\
             at 20s degrade link 0-1 loss 5% extra 2ms\n\
             at 25s recover link 0-1\n\
             at 50s degrade config-push extra 5s\n\
             at 60s degrade key-server extra 15ms\n\
             at 70s fail key-server\n",
        )
        .unwrap();
        assert_eq!(plan.len(), 9);
        // Sorted by time regardless of script order.
        let times: Vec<u64> = plan.events().iter().map(|e| e.at.as_nanos()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        let link = plan
            .events()
            .iter()
            .find(|e| matches!(e.target, FaultTarget::Link { .. }))
            .unwrap();
        assert_eq!(
            link.kind,
            FaultKind::Degrade {
                loss: 0.05,
                extra: SimDuration::from_millis(2)
            }
        );
    }

    #[test]
    fn dsl_lifecycle_targets_parse_and_apply() {
        let plan = FaultPlan::parse(
            "at 10s degrade cert-expiry-skew extra 90s\n\
             at 20s fail ca-compromise-revoke 3\n\
             at 30s fail az-mass-restart 1\n\
             at 40s recover cert-expiry-skew\n\
             at 50s recover ca-compromise-revoke 3\n\
             at 60s recover az-mass-restart 1\n",
        )
        .unwrap();
        assert_eq!(plan.len(), 6);
        let mut st = FaultState::new(&topo());
        st.apply(&plan.events()[0]);
        assert!(st.cert_skew_active());
        assert_eq!(st.cert_skew(), SimDuration::from_secs(90));
        st.apply(&plan.events()[1]);
        assert!(st.tenant_compromised(3) && !st.tenant_compromised(4));
        st.apply(&plan.events()[2]);
        assert!(st.az_mass_restarting(1) && !st.az_mass_restarting(0));
        assert!(st.any_active());
        for ev in &plan.events()[3..] {
            st.apply(ev);
        }
        assert!(!st.cert_skew_active());
        assert!(!st.tenant_compromised(3));
        assert!(!st.az_mass_restarting(1));
        assert!(!st.any_active());
        // Distinct lifecycle targets fold to distinct digests.
        let one = FaultPlan::parse("at 1s fail ca-compromise-revoke 3").unwrap();
        let two = FaultPlan::parse("at 1s fail az-mass-restart 3").unwrap();
        let (mut da, mut db) = (Digest::new(), Digest::new());
        one.fold_digest(&mut da);
        two.fold_digest(&mut db);
        assert_ne!(da.value(), db.value());
        // Missing ids are parse errors, not defaults.
        assert!(FaultPlan::parse("at 1s fail ca-compromise-revoke").is_err());
        assert!(FaultPlan::parse("at 1s fail az-mass-restart").is_err());
    }

    #[test]
    fn dsl_rejects_malformed_lines() {
        for (script, fragment) in [
            ("fail az 1", "must start with"),
            ("at xyz fail az 1", "bad time"),
            ("at 1s explode az 1", "unknown action"),
            ("at 1s fail moon 1", "unknown target"),
            ("at 1s fail replica 1", "bad replica spec"),
            ("at 1s degrade link 0-1", "degrade needs"),
            ("at 1s degrade link 0-1 loss 150%", "bad loss"),
            ("at 1s fail az 1 junk", "trailing tokens"),
        ] {
            let e = FaultPlan::parse(script).unwrap_err();
            assert!(
                e.msg.contains(fragment),
                "script `{script}`: got `{}`, wanted `{fragment}`",
                e.msg
            );
            assert_eq!(e.line, 1);
        }
    }

    #[test]
    fn duration_and_loss_parsers() {
        assert_eq!(parse_duration("1.5s"), Some(SimDuration::from_millis(1500)));
        assert_eq!(parse_duration("250ms"), Some(SimDuration::from_micros(250_000)));
        assert_eq!(parse_duration("10us"), Some(SimDuration::from_micros(10)));
        assert_eq!(parse_duration("7ns"), Some(SimDuration::from_nanos(7)));
        assert_eq!(parse_duration("7"), None);
        assert_eq!(parse_loss("5%"), Some(0.05));
        assert_eq!(parse_loss("0.25"), Some(0.25));
        assert_eq!(parse_loss("1.5"), None);
    }

    #[test]
    fn random_plan_is_seed_reproducible_and_well_formed() {
        let profile = RandomFaultProfile {
            backend: Some(FaultRates {
                mttf: SimDuration::from_secs(20),
                mttr: SimDuration::from_secs(5),
            }),
            ..Default::default()
        };
        let horizon = SimDuration::from_secs(300);
        let a = FaultPlan::random(&topo(), &profile, horizon, &mut SimRng::seed(7));
        let b = FaultPlan::random(&topo(), &profile, horizon, &mut SimRng::seed(7));
        let (mut da, mut db) = (Digest::new(), Digest::new());
        a.fold_digest(&mut da);
        b.fold_digest(&mut db);
        assert_eq!(da.value(), db.value(), "same seed, same plan");
        let c = FaultPlan::random(&topo(), &profile, horizon, &mut SimRng::seed(8));
        let mut dc = Digest::new();
        c.fold_digest(&mut dc);
        assert_ne!(da.value(), dc.value(), "different seed, different plan");
        // Every crash is paired with a later-or-equal recover of the same
        // target, and nothing exceeds the horizon.
        let mut down: BTreeSet<FaultTarget> = BTreeSet::new();
        for ev in a.events() {
            assert!(ev.at.as_nanos() <= horizon.as_nanos());
            match ev.kind {
                FaultKind::Crash => assert!(down.insert(ev.target), "double crash"),
                FaultKind::Recover => assert!(down.remove(&ev.target), "orphan recover"),
                FaultKind::Degrade { .. } => {}
            }
        }
        assert!(down.is_empty(), "every crash recovers by the horizon");
    }

    #[test]
    fn fault_state_tracks_hierarchy() {
        let mut st = FaultState::new(&topo());
        assert!(st.replica_up(0, 0) && st.backend_up(0));
        st.apply(&FaultEvent {
            at: SimTime::ZERO,
            target: FaultTarget::Replica { backend: 0, index: 0 },
            kind: FaultKind::Crash,
        });
        assert!(!st.replica_up(0, 0) && st.backend_up(0));
        assert_eq!(st.live_replicas(0), 1);
        st.apply(&FaultEvent {
            at: SimTime::ZERO,
            target: FaultTarget::Az(0),
            kind: FaultKind::Crash,
        });
        assert!(!st.backend_up(0) && !st.backend_up(1), "AZ takes both down");
        assert!(st.backend_up(2), "other AZ unaffected");
        assert!(st.any_crash_active());
        st.apply(&FaultEvent {
            at: SimTime::ZERO,
            target: FaultTarget::Az(0),
            kind: FaultKind::Recover,
        });
        // Backend recovery clears lingering replica crashes.
        st.apply(&FaultEvent {
            at: SimTime::ZERO,
            target: FaultTarget::Backend(0),
            kind: FaultKind::Recover,
        });
        assert_eq!(st.live_replicas(0), 2);
        assert!(!st.any_crash_active());
    }

    #[test]
    fn fault_state_tracks_degradations() {
        let mut st = FaultState::new(&topo());
        st.apply(&FaultEvent {
            at: SimTime::ZERO,
            target: FaultTarget::Link { a: 1, b: 0 },
            kind: FaultKind::Degrade {
                loss: 0.1,
                extra: SimDuration::from_millis(2),
            },
        });
        // Undirected: both orders answer.
        assert_eq!(st.link_loss(0, 1), 0.1);
        assert_eq!(st.link_extra(1, 0), SimDuration::from_millis(2));
        st.apply(&FaultEvent {
            at: SimTime::ZERO,
            target: FaultTarget::Link { a: 0, b: 1 },
            kind: FaultKind::Crash,
        });
        assert_eq!(st.link_loss(0, 1), 1.0, "crashed link loses all");
        st.apply(&FaultEvent {
            at: SimTime::ZERO,
            target: FaultTarget::Link { a: 0, b: 1 },
            kind: FaultKind::Recover,
        });
        assert_eq!(st.link_loss(0, 1), 0.0);
        st.apply(&FaultEvent {
            at: SimTime::ZERO,
            target: FaultTarget::KeyServer,
            kind: FaultKind::Degrade {
                loss: 0.0,
                extra: SimDuration::from_millis(15),
            },
        });
        assert_eq!(st.key_server_extra(), SimDuration::from_millis(15));
        assert!(st.any_active() && !st.any_crash_active());
        st.apply(&FaultEvent {
            at: SimTime::ZERO,
            target: FaultTarget::KeyServer,
            kind: FaultKind::Recover,
        });
        assert!(!st.any_active());
    }

    #[test]
    fn config_poison_parses_and_tracks() {
        let plan = FaultPlan::parse(
            "at 15s fail config-poison\n\
             at 45s recover config-poison\n",
        )
        .unwrap();
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.events()[0].target, FaultTarget::ConfigPoison);

        let mut st = FaultState::new(&topo());
        assert!(!st.config_poisoned());
        st.apply(&plan.events()[0]);
        assert!(st.config_poisoned());
        assert!(st.any_active() && !st.any_crash_active());
        // Degrade is a no-op: poison is binary.
        st.apply(&FaultEvent {
            at: SimTime::ZERO,
            target: FaultTarget::ConfigPoison,
            kind: FaultKind::Degrade {
                loss: 0.5,
                extra: SimDuration::from_millis(1),
            },
        });
        assert!(st.config_poisoned());
        st.apply(&plan.events()[1]);
        assert!(!st.config_poisoned());
        assert!(!st.any_active());
    }

    #[test]
    fn policy_poison_parses_and_tracks() {
        let plan = FaultPlan::parse(
            "at 15s fail policy-poison\n\
             at 45s recover policy-poison\n",
        )
        .unwrap();
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.events()[0].target, FaultTarget::PolicyPoison);

        let mut st = FaultState::new(&topo());
        assert!(!st.policy_poisoned());
        st.apply(&plan.events()[0]);
        assert!(st.policy_poisoned());
        assert!(!st.config_poisoned(), "policy poison is independent of config poison");
        assert!(st.any_active() && !st.any_crash_active());
        // Degrade is a no-op: poison is binary.
        st.apply(&FaultEvent {
            at: SimTime::ZERO,
            target: FaultTarget::PolicyPoison,
            kind: FaultKind::Degrade {
                loss: 0.5,
                extra: SimDuration::from_millis(1),
            },
        });
        assert!(st.policy_poisoned());
        st.apply(&plan.events()[1]);
        assert!(!st.policy_poisoned());
        assert!(!st.any_active());
    }

    #[test]
    fn directed_link_is_asymmetric() {
        let plan = FaultPlan::parse(
            "at 10s degrade link-directed 1>0 loss 80% extra 3ms\n\
             at 20s fail link-directed 0>1\n\
             at 30s recover link-directed 1>0\n\
             at 40s recover link-directed 0>1\n",
        )
        .unwrap();
        assert_eq!(plan.len(), 4);
        let mut st = FaultState::new(&topo());
        st.apply(&plan.events()[0]);
        // Degraded direction only; reverse is clean.
        assert_eq!(st.directed_link_loss(1, 0), 0.8);
        assert_eq!(st.directed_link_extra(1, 0), SimDuration::from_millis(3));
        assert_eq!(st.directed_link_loss(0, 1), 0.0);
        assert_eq!(st.directed_link_extra(0, 1), SimDuration::ZERO);
        // The undirected query is untouched by directed state.
        assert_eq!(st.link_loss(0, 1), 0.0);
        st.apply(&plan.events()[1]);
        assert_eq!(st.directed_link_loss(0, 1), 1.0, "crashed direction loses all");
        assert!(st.any_active() && !st.any_crash_active());
        st.apply(&plan.events()[2]);
        st.apply(&plan.events()[3]);
        assert_eq!(st.directed_link_loss(1, 0), 0.0);
        assert!(!st.any_active());
        // An undirected degradation floors both directed queries.
        st.apply(&FaultEvent {
            at: SimTime::ZERO,
            target: FaultTarget::Link { a: 0, b: 1 },
            kind: FaultKind::Degrade { loss: 0.3, extra: SimDuration::from_millis(1) },
        });
        st.apply(&FaultEvent {
            at: SimTime::ZERO,
            target: FaultTarget::LinkDirected { from: 0, to: 1 },
            kind: FaultKind::Degrade { loss: 0.1, extra: SimDuration::from_millis(5) },
        });
        assert_eq!(st.directed_link_loss(0, 1), 0.3, "worse of the two wins");
        assert_eq!(st.directed_link_extra(0, 1), SimDuration::from_millis(5));
        assert_eq!(st.directed_link_loss(1, 0), 0.3);
        // `1>0` and `0>1` digest differently.
        let one = FaultPlan::parse("at 1s fail link-directed 1>0").unwrap();
        let two = FaultPlan::parse("at 1s fail link-directed 0>1").unwrap();
        let (mut da, mut db) = (Digest::new(), Digest::new());
        one.fold_digest(&mut da);
        two.fold_digest(&mut db);
        assert_ne!(da.value(), db.value());
        assert!(FaultPlan::parse("at 1s fail link-directed 1-0").is_err());
    }

    #[test]
    fn gray_and_partition_parse_and_track() {
        let plan = FaultPlan::parse(
            "at 10s degrade gray 2 loss 60% extra 10ms\n\
             at 20s fail control-partition 3\n\
             at 30s fail gray 4\n\
             at 40s recover gray 2\n\
             at 50s recover control-partition 3\n\
             at 60s recover gray 4\n",
        )
        .unwrap();
        assert_eq!(plan.len(), 6);
        let mut st = FaultState::new(&topo());
        st.apply(&plan.events()[0]);
        assert!(st.gray_active(2) && !st.gray_active(4));
        assert_eq!(st.gray_loss(2), 0.6);
        assert_eq!(st.gray_extra(2), SimDuration::from_millis(10));
        // Gray failure is invisible to crash-oriented queries: nothing in
        // the compute hierarchy went down.
        assert!(st.any_active() && !st.any_crash_active());
        st.apply(&plan.events()[1]);
        assert!(st.control_partitioned(3) && !st.control_partitioned(2));
        assert_eq!(st.partitioned_targets().collect::<Vec<_>>(), vec![3]);
        st.apply(&plan.events()[2]);
        assert_eq!(st.gray_loss(4), 1.0, "hard gray fail errors every request");
        // Partition degrade is a no-op: reachable or not.
        st.apply(&FaultEvent {
            at: SimTime::ZERO,
            target: FaultTarget::ControlPartition(3),
            kind: FaultKind::Degrade { loss: 0.5, extra: SimDuration::from_millis(1) },
        });
        assert!(st.control_partitioned(3));
        for ev in &plan.events()[3..] {
            st.apply(ev);
        }
        assert!(!st.gray_active(2) && !st.gray_active(4));
        assert!(!st.control_partitioned(3));
        assert!(!st.any_active());
        // Gray and partition targets with the same id digest differently.
        let one = FaultPlan::parse("at 1s fail gray 3").unwrap();
        let two = FaultPlan::parse("at 1s fail control-partition 3").unwrap();
        let (mut da, mut db) = (Digest::new(), Digest::new());
        one.fold_digest(&mut da);
        two.fold_digest(&mut db);
        assert_ne!(da.value(), db.value());
        // Missing ids are parse errors.
        assert!(FaultPlan::parse("at 1s fail gray").is_err());
        assert!(FaultPlan::parse("at 1s fail control-partition").is_err());
    }

    #[test]
    fn control_crash_expands_into_crash_plus_restart() {
        // One script line yields the whole cycle: crash now, recover later.
        let plan = FaultPlan::parse("at 30s fail control-crash 20s").unwrap();
        assert_eq!(plan.len(), 2);
        assert_eq!(
            plan.events()[0],
            FaultEvent {
                at: SimTime::ZERO + SimDuration::from_secs(30),
                target: FaultTarget::ControlCrash,
                kind: FaultKind::Crash,
            }
        );
        assert_eq!(
            plan.events()[1],
            FaultEvent {
                at: SimTime::ZERO + SimDuration::from_secs(50),
                target: FaultTarget::ControlCrash,
                kind: FaultKind::Recover,
            }
        );
        let mut st = FaultState::new(&topo());
        assert!(!st.controller_down());
        st.apply(&plan.events()[0]);
        assert!(st.controller_down());
        assert!(st.any_active() && !st.any_crash_active());
        // Degrade is a no-op: a process is running or it is not.
        st.apply(&FaultEvent {
            at: SimTime::ZERO,
            target: FaultTarget::ControlCrash,
            kind: FaultKind::Degrade { loss: 0.5, extra: SimDuration::from_millis(1) },
        });
        assert!(st.controller_down());
        st.apply(&plan.events()[1]);
        assert!(!st.controller_down());
        assert!(!st.any_active());
        // The restart duration is mandatory on `fail`; manual `recover`
        // takes none.
        assert!(FaultPlan::parse("at 30s fail control-crash").is_err());
        assert!(FaultPlan::parse("at 30s fail control-crash nope").is_err());
        assert!(FaultPlan::parse("at 30s fail control-crash 20s junk").is_err());
        assert!(FaultPlan::parse("at 50s recover control-crash").is_ok());
    }

    #[test]
    fn control_zombie_parses_and_tracks() {
        let plan = FaultPlan::parse(
            "at 10s fail control-zombie\n\
             at 40s recover control-zombie\n",
        )
        .unwrap();
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.events()[0].target, FaultTarget::ControlZombie);
        let mut st = FaultState::new(&topo());
        assert!(!st.zombie_active());
        st.apply(&plan.events()[0]);
        assert!(st.zombie_active());
        assert!(!st.controller_down(), "zombie is independent of crash state");
        assert!(st.any_active() && !st.any_crash_active());
        st.apply(&plan.events()[1]);
        assert!(!st.zombie_active());
        assert!(!st.any_active());
        // Crash and zombie digest differently, in plans and in state.
        let one = FaultPlan::parse("at 1s fail control-crash 1s").unwrap();
        let two = FaultPlan::parse("at 1s fail control-zombie").unwrap();
        let (mut da, mut db) = (Digest::new(), Digest::new());
        one.fold_digest(&mut da);
        two.fold_digest(&mut db);
        assert_ne!(da.value(), db.value());
        let mut crashed = FaultState::new(&topo());
        crashed.apply(&one.events()[0]);
        let mut zombied = FaultState::new(&topo());
        zombied.apply(&two.events()[0]);
        let (mut dc, mut dz) = (Digest::new(), Digest::new());
        crashed.fold_digest(&mut dc);
        zombied.fold_digest(&mut dz);
        assert_ne!(dc.value(), dz.value());
    }

    #[test]
    fn dsl_target_catalogue_is_complete_and_parses() {
        // Every catalogued token parses (with a representative operand)...
        for &(token, _, _) in DSL_TARGETS {
            let line = match token {
                "replica" => "at 1s fail replica 0/0".to_string(),
                "link" => "at 1s fail link 0-1".to_string(),
                "link-directed" => "at 1s fail link-directed 0>1".to_string(),
                "control-crash" => "at 1s fail control-crash 5s".to_string(),
                "backend" | "az" | "ca-compromise-revoke" | "az-mass-restart" | "gray"
                | "control-partition" => format!("at 1s fail {token} 0"),
                _ => format!("at 1s fail {token}"),
            };
            assert!(
                FaultPlan::parse(&line).is_ok(),
                "catalogued target `{token}` failed to parse: `{line}`"
            );
        }
        // ...and the README's fault-target table documents every token, so
        // the catalogue, the parser and the docs cannot drift apart.
        let readme = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../README.md"
        ))
        .unwrap();
        for &(token, _, _) in DSL_TARGETS {
            assert!(
                readme.contains(&format!("| `{token}` |")),
                "README fault-target table is missing a row for `{token}`"
            );
        }
    }

    #[test]
    fn schedule_into_preserves_order() {
        use crate::engine::{Model, Scheduler};
        struct Recorder(Vec<usize>);
        impl Model for Recorder {
            type Event = usize;
            fn handle(&mut self, _now: SimTime, ev: usize, _s: &mut Scheduler<usize>) {
                self.0.push(ev);
            }
        }
        let plan = FaultPlan::parse(
            "at 30s fail az 1\nat 10s fail backend 0\nat 20s recover backend 0\n",
        )
        .unwrap();
        let mut sim = Simulation::new();
        plan.schedule_into(&mut sim, |i, _| i);
        let mut m = Recorder(Vec::new());
        sim.run(&mut m);
        // Plan indices are already time-ordered after parse.
        assert_eq!(m.0, vec![0, 1, 2]);
        assert_eq!(
            plan.events()[0].target,
            FaultTarget::Backend(0),
            "earliest event first after normalization"
        );
    }
}
