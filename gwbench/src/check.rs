//! Output checks, run with the clock stopped.
//!
//! Each output is compared with a source that does not share the code
//! under test:
//! - the parsed request with the generator's own fields;
//! - the policy verdict with `canal_policy::reference_l7_verdict` on the
//!   generator's fields;
//! - the route target with a first-match scan of `RouteTable::rules()`
//!   written here;
//! - every sealed record with the upstream receiver's `MtlsEndpoint::open`;
//! - every VXLAN frame through `tunnel::disaggregate`;
//! - the gateway's backend with the service's placement, and each
//!   connection's later requests with the replica its SYN landed on;
//! - every control update with the accept/NACK it was built to get.
//!
//! An outcome digest over verdict, target, backend, replica, record and
//! frame bytes of the first requests must repeat for a seed.

use crate::clock;
use crate::inputs::{Inputs, RequestSpec, L4_PAYLOAD_BYTES};
use crate::system::{replica_ip, router_ip, Event, Outcome, PushOutcome, TUNNEL_MTU};
use crate::workload::Workload;
use canal_crypto::MtlsEndpoint;
use canal_gateway::config::ConfigRejection;
use canal_gateway::policy::PolicyPushRejection;
use canal_gateway::tunnel::disaggregate;
use canal_http::{HeaderPredicate as RouteHeader, PathPredicate, RouteRule};
use canal_mesh::l7::RouteInstallError;
use canal_policy::{reference_l7_verdict, L4Ctx, L7Ctx, PolicyVerdict};
use canal_sim::Digest;
use std::collections::BTreeMap;

/// Deterministic tallies over the requests checked.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Policy lookups.
    pub policy_evals: u64,
    /// Requests the policy denied.
    pub denied: u64,
    /// Requests routed.
    pub routed: u64,
    /// Requests no route rule matched.
    pub route_misses: u64,
    /// Rules a first-match scan evaluates, summed.
    pub route_scan: u64,
    /// Parses.
    pub parses: u64,
    /// Bytes fed to the parser.
    pub parse_bytes: u64,
    /// Frames encoded.
    pub frames: u64,
    /// Encoded frame bytes.
    pub frame_bytes: u64,
    /// Plaintext payload bytes delivered.
    pub goodput_bytes: u64,
    /// Records opened by the receiver.
    pub opens: u64,
    /// Plaintext bytes of the records opened.
    pub open_bytes: u64,
    /// Time the receiver spent in `open`.
    pub open_ns: u64,
}

impl Tally {
    fn add(&mut self, o: &Tally) {
        self.policy_evals += o.policy_evals;
        self.denied += o.denied;
        self.routed += o.routed;
        self.route_misses += o.route_misses;
        self.route_scan += o.route_scan;
        self.parses += o.parses;
        self.parse_bytes += o.parse_bytes;
        self.frames += o.frames;
        self.frame_bytes += o.frame_bytes;
        self.goodput_bytes += o.goodput_bytes;
        self.opens += o.opens;
        self.open_bytes += o.open_bytes;
        self.open_ns += o.open_ns;
    }
}

/// What one checked epoch contributed.
#[derive(Debug, Default)]
pub struct EpochCheck {
    /// Tallies of the epoch.
    pub tally: Tally,
    /// Stage-to-commit time of each control update in the epoch.
    pub push_ns: Vec<u64>,
}

/// The checker of one phase.
pub struct Checker {
    receivers: BTreeMap<u64, MtlsEndpoint>,
    pinned: BTreeMap<u64, (u32, usize)>,
    placements: Vec<Vec<u32>>,
    replicas: usize,
    digest: Digest,
    digest_limit: u64,
    /// Tallies over requests with index below the digest limit.
    pub window: Tally,
    /// Tallies over everything checked.
    pub total: Tally,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
}

/// First-match route scan over the rules in order, on the generator's
/// fields. Returns the selected target name and how many rules it
/// evaluated.
fn route_oracle<'a>(rules: &'a [RouteRule], spec: &RequestSpec) -> (Option<&'a str>, u64) {
    let path = spec.path_only();
    let header = |name: &str| {
        spec.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    };
    let cookie = |key: &str| {
        spec.headers
            .iter()
            .filter(|(n, _)| n.eq_ignore_ascii_case("cookie"))
            .flat_map(|(_, v)| v.split(';'))
            .filter_map(|pair| pair.trim().split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    };
    for (j, rule) in rules.iter().enumerate() {
        let pred = &rule.predicate;
        let path_ok = match &pred.path {
            None => true,
            Some(PathPredicate::Exact(p)) => path == p,
            Some(PathPredicate::Prefix(p)) => path.starts_with(p.as_str()),
            Some(PathPredicate::Contains(p)) => path.contains(p.as_str()),
        };
        let method_ok = pred
            .method
            .as_deref()
            .is_none_or(|m| m == spec.method.as_str());
        let headers_ok = pred.headers.iter().all(|h| match h {
            RouteHeader::Exact { name, value } => header(name) == Some(value.as_str()),
            RouteHeader::Present { name } => header(name).is_some(),
            RouteHeader::Prefix { name, prefix } => {
                header(name).is_some_and(|v| v.starts_with(prefix.as_str()))
            }
            RouteHeader::Cookie { key, value } => cookie(key) == Some(value.as_str()),
        });
        if path_ok && method_ok && headers_ok {
            let total: u64 = rule.targets.iter().map(|t| t.weight as u64).sum();
            let mut ticket = (spec.draw.clamp(0.0, 0.999_999_999) * total as f64) as u64;
            let mut chosen = rule.targets.last().map(|t| t.name.as_str());
            for t in &rule.targets {
                if ticket < t.weight as u64 {
                    chosen = Some(t.name.as_str());
                    break;
                }
                ticket -= t.weight as u64;
            }
            return (chosen, j as u64 + 1);
        }
    }
    (None, rules.len() as u64)
}

fn verdict_tag(v: Option<PolicyVerdict>) -> u64 {
    match v {
        None => 0,
        Some(PolicyVerdict::Allow) => 1,
        Some(PolicyVerdict::Deny) => 2,
    }
}

impl Checker {
    /// A checker for a system whose services sit on `placements`, folding
    /// requests below `digest_limit` into the outcome digest. `receivers`
    /// are the set-up connections' receivers.
    pub fn new(
        inp: &Inputs,
        placements: Vec<Vec<u32>>,
        digest_limit: u64,
        receivers: Vec<Event>,
    ) -> Checker {
        let mut c = Checker {
            receivers: BTreeMap::new(),
            pinned: BTreeMap::new(),
            placements,
            replicas: inp.spec.gateway.replicas_per_backend,
            digest: Digest::new(),
            digest_limit,
            window: Tally::default(),
            total: Tally::default(),
            attempted: 0,
            failed: 0,
            first_failure: None,
        };
        let mut scratch = EpochCheck::default();
        for e in receivers {
            c.event(inp, e, &mut scratch);
        }
        c
    }

    /// The outcome digest so far.
    pub fn digest(&self) -> u64 {
        self.digest.value()
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(what);
        }
    }

    /// Check (and drain) one epoch's events.
    pub fn check_epoch(&mut self, inp: &Inputs, events: &mut Vec<Event>) -> EpochCheck {
        let mut epoch = EpochCheck::default();
        for e in events.drain(..) {
            self.event(inp, e, &mut epoch);
        }
        self.total.add(&epoch.tally);
        epoch
    }

    fn event(&mut self, inp: &Inputs, e: Event, epoch: &mut EpochCheck) {
        match e {
            Event::ConnOpen { serial, rx } => {
                self.receivers.insert(serial, *rx);
            }
            Event::ConnClose { serial } => {
                self.receivers.remove(&serial);
                self.pinned.remove(&serial);
            }
            Event::Push(p) => {
                self.attempted += 1;
                epoch.push_ns.push(p.ns);
                if let Err(why) = check_push(&p) {
                    self.fail(format!("update {}: {why}", p.update));
                }
                self.digest
                    .write_u64(p.update)
                    .write_u64(p.policy_after.unwrap_or(0))
                    .write_u64(p.config_after.unwrap_or(0));
            }
            Event::Request(o) => {
                self.attempted += 1;
                let in_window = o.idx < self.digest_limit;
                let mut t = Tally::default();
                let result = match inp.workload {
                    Workload::L4ConnChurn => self.check_l4(inp, &o, &mut t),
                    _ => self.check_l7(inp, &o, &mut t),
                };
                if let Err(why) = result {
                    self.fail(format!("request {}: {why}", o.idx));
                }
                if in_window {
                    self.window.add(&t);
                    self.fold(&o);
                }
                epoch.tally.add(&t);
            }
        }
    }

    fn fold(&mut self, o: &Outcome) {
        let d = &mut self.digest;
        d.write_u64(o.idx)
            .write_u64(verdict_tag(o.verdict))
            .write_u64(o.target.map_or(u64::MAX, u64::from));
        match &o.served {
            Some(s) => d
                .write_u64(s.backend as u64)
                .write_u64(s.replica as u64)
                .write_u64(s.redirect_hops as u64)
                .write_u64(s.finish.as_nanos()),
            None => d.write_u64(u64::MAX),
        };
        d.write_u64(o.record.as_ref().map_or(u64::MAX, |r| r.seq));
        for f in &o.frames {
            d.write_bytes(f);
        }
    }

    fn check_backend(&self, o: &Outcome) -> Result<(u32, usize), String> {
        let s = o.served.as_ref().ok_or("forwarded without a dispatch")?;
        let placed = self.placements.get(o.service).ok_or("unknown service")?;
        if !placed.contains(&s.backend) {
            return Err(format!(
                "backend {} is not one of the service's {placed:?}",
                s.backend
            ));
        }
        if s.replica >= self.replicas {
            return Err(format!("replica {} out of range", s.replica));
        }
        Ok((s.backend, s.replica))
    }

    /// The frames must decode, fit the tunnel MTU, address the replica on
    /// the tenant's VNI, and carry `inner` in order.
    fn check_frames(
        &self,
        inp: &Inputs,
        o: &Outcome,
        inner: &[u8],
        (b, r): (u32, usize),
        t: &mut Tally,
    ) -> Result<(), String> {
        if o.frames.is_empty() {
            return Err("no frame".into());
        }
        let tenant = &inp.tenants[inp.services[o.service].tenant];
        let mut at = 0;
        for bytes in &o.frames {
            t.frames += 1;
            t.frame_bytes += bytes.len() as u64;
            if bytes.len() > TUNNEL_MTU {
                return Err(format!(
                    "frame of {} bytes exceeds the {TUNNEL_MTU}-byte MTU",
                    bytes.len()
                ));
            }
            let f =
                disaggregate(bytes.clone()).map_err(|e| format!("frame does not decode: {e:?}"))?;
            let end = at + f.inner.len();
            if inner.get(at..end) != Some(f.inner.as_ref()) {
                return Err("frames carry other bytes than the request".into());
            }
            at = end;
            if f.vni != tenant.vni
                || f.outer_dst_ip != replica_ip(b, r)
                || f.outer_src_ip != router_ip()
            {
                return Err(format!(
                    "frame header: vni {} dst {:#x} src {:#x}",
                    f.vni, f.outer_dst_ip, f.outer_src_ip
                ));
            }
        }
        if at != inner.len() {
            return Err("frames carry fewer bytes than the request".into());
        }
        Ok(())
    }

    fn check_l4(&mut self, inp: &Inputs, o: &Outcome, t: &mut Tally) -> Result<(), String> {
        if let Some(e) = &o.error {
            return Err(e.clone());
        }
        let dest = self.check_backend(o)?;
        let payload = inp.l4_payloads.get(o.req).ok_or("unknown payload")?;
        self.check_frames(inp, o, payload, dest, t)?;
        t.goodput_bytes += L4_PAYLOAD_BYTES as u64;
        Ok(())
    }

    fn check_l7(&mut self, inp: &Inputs, o: &Outcome, t: &mut Tally) -> Result<(), String> {
        if let Some(e) = &o.error {
            return Err(e.clone());
        }
        let spec = inp.requests.get(o.req).ok_or("unknown request")?;
        let svc = &inp.services[spec.service];
        let tenant = &inp.tenants[svc.tenant];
        let conn_spec = if inp.workload == Workload::L7Api {
            o.conn as usize
        } else {
            (o.conn % inp.conns.len() as u64) as usize
        };
        let cs = inp.conns.get(conn_spec).ok_or("unknown connection")?;

        // Parse.
        let parsed = o.parsed.as_ref().ok_or("no parsed request")?;
        t.parses += 1;
        t.parse_bytes += spec.wire.len() as u64;
        let headers_match = parsed.headers.len() == spec.headers.len()
            && parsed
                .headers
                .iter()
                .zip(&spec.headers)
                .all(|((n, v), (en, ev))| n == en && v == ev);
        if parsed.method != spec.method
            || parsed.path != spec.path
            || !headers_match
            || parsed.body.as_ref() != spec.body()
        {
            return Err("parsed request differs from the bytes sent".into());
        }

        // Policy.
        let tp = inp
            .policies
            .get(o.policy_gen)
            .and_then(|p| p.tenants.get(svc.tenant))
            .ok_or("no policy variant")?;
        let l4 = L4Ctx {
            tenant: tenant.id,
            vpc: tenant.vpc,
            src_ip: cs.src.ip,
            dst_port: svc.vip.port,
            identity: cs.identity,
        };
        let headers: Vec<(&str, &str)> = spec
            .headers
            .iter()
            .map(|(n, v)| (n.as_str(), v.as_str()))
            .collect();
        let l7 = L7Ctx {
            method: spec.method.as_str(),
            path: spec.path_only(),
            sni: Some(svc.host.as_str()),
            headers: &headers,
        };
        let expected = reference_l7_verdict(tp, &l4, &l7);
        t.policy_evals += 1;
        if o.verdict != Some(expected) {
            return Err(format!("verdict {:?}, reference {expected:?}", o.verdict));
        }
        if expected == PolicyVerdict::Deny {
            t.denied += 1;
            if o.target.is_some()
                || o.served.is_some()
                || o.record.is_some()
                || !o.frames.is_empty()
            {
                return Err("denied request was forwarded".into());
            }
            return Ok(());
        }

        // Route.
        let rules = inp
            .routes
            .get(o.route_gen)
            .ok_or("no route variant")?
            .rules();
        let (name, scanned) = route_oracle(rules, spec);
        t.route_scan += scanned;
        let Some(name) = name else {
            t.route_misses += 1;
            return Err("no route rule matches".into());
        };
        t.routed += 1;
        let want = inp.targets.get(name).ok_or("oracle target unknown")?;
        if o.target != Some(want.id) {
            return Err(format!(
                "target {:?}, scan chose {} ({name})",
                o.target, want.id
            ));
        }
        if want.service != spec.service || o.service != spec.service {
            return Err("routed outside the connection's service".into());
        }

        // Gateway.
        let dest = self.check_backend(o)?;
        if o.syn {
            self.pinned.insert(o.conn, dest);
        } else if self.pinned.get(&o.conn) != Some(&dest) {
            return Err(format!(
                "established flow moved to {dest:?} from {:?}",
                self.pinned.get(&o.conn)
            ));
        }

        // Record.
        let record = o.record.as_ref().ok_or("no sealed record")?;
        let rx = self
            .receivers
            .get_mut(&o.conn)
            .ok_or("no receiver for the connection")?;
        let t0 = clock::now();
        let opened = rx.open(record);
        t.open_ns += clock::ns_between(t0, clock::now());
        let plain = opened.map_err(|e| format!("receiver cannot open the record: {e}"))?;
        t.opens += 1;
        t.open_bytes += plain.len() as u64;
        if plain != spec.wire.as_ref() {
            return Err("record opens to other bytes".into());
        }

        // Frame.
        self.check_frames(inp, o, &spec.wire, dest, t)?;
        t.goodput_bytes += spec.body_len as u64;
        Ok(())
    }
}

fn check_push(p: &PushOutcome) -> Result<(), String> {
    if p.invalid {
        if !matches!(p.policy, Err(PolicyPushRejection::StaleVersion { .. })) {
            return Err(format!("stale policy not NACKed: {:?}", p.policy));
        }
        if !matches!(p.routes, Err(RouteInstallError::UnknownTarget { .. })) {
            return Err(format!("unknown route target not NACKed: {:?}", p.routes));
        }
        if !matches!(
            p.config,
            Err(ConfigRejection::StaleVersion { .. }) | Err(ConfigRejection::UnknownService(_))
        ) {
            return Err(format!("bad config not NACKed: {:?}", p.config));
        }
        if p.policy_after != Some(p.policy_before) || p.config_after != Some(p.config_before) {
            return Err("a NACKed update changed the running config".into());
        }
    } else {
        if let Err(e) = &p.policy {
            return Err(format!("valid policy NACKed: {e}"));
        }
        if let Err(e) = &p.routes {
            return Err(format!("valid routes NACKed: {e}"));
        }
        if let Err(e) = &p.config {
            return Err(format!("valid config NACKed: {e}"));
        }
        if p.policy_after != Some(p.policy_before + 1)
            || p.config_after != Some(p.config_before + 1)
        {
            return Err("an accepted update did not advance the running version".into());
        }
    }
    Ok(())
}
