//! Seeded input generation.
//!
//! Everything a run feeds the gateway is built here from the `--seed`
//! argument before any clock starts: tuples, payloads, request bytes, body
//! sizes, split draws, connection key material, policy specs, route tables
//! and the invalid pushes. [`Inputs::checksum`] folds all of it, so two
//! commits can be shown to have run the same inputs.

use crate::workload::{Workload, WorkloadSpec, CHURN_VARIANTS, L7_CONNECTIONS, RULES_PER_TENANT};
use bytes::Bytes;
use canal_http::{
    HeaderPredicate as RouteHeader, Method, PathPredicate, RoutePredicate, RouteRule, RouteTable,
    WeightedTarget,
};
use canal_net::{Endpoint, GlobalServiceId, ServiceId, TenantId, VpcAddr, VpcId};
use canal_policy::{Cidr, PolicyRule, PolicySpec, SniMatch, TenantPolicy};
use canal_sim::{Digest, SimRng};
use std::collections::{BTreeMap, BTreeSet};

/// Distinct source addresses of `l4_conn_churn` flows.
const L4_ADDRS: usize = 4096;
/// Distinct source ports of `l4_conn_churn` flows.
const L4_PORTS: usize = 4096;
/// Distinct 64 B payloads of `l4_conn_churn`.
const L4_PAYLOADS: usize = 1024;
/// Payload size of `l4_conn_churn` requests.
pub const L4_PAYLOAD_BYTES: usize = 64;
/// Requests in the `l7_api` pool (cycled).
const L7_POOL: usize = 8192;
/// Requests per service in the `tenant_churn` pool (cycled).
const CHURN_PER_SERVICE: usize = 16;
/// Connection specs in the `tenant_churn` pool (cycled).
const CHURN_CONN_SPECS: usize = 256;
/// Filler route rules per tenant in `tenant_churn` tables (prefixes no
/// request uses), so a rebuilt table holds 128 rules.
const CHURN_ROUTE_FILLER_PER_TENANT: usize = 14;
/// The gateway's own identity on upstream mTLS sessions.
pub const GATEWAY_IDENTITY: u64 = 0x6a7e_0000_0000_0001;

/// One tenant.
#[derive(Debug, Clone)]
pub struct TenantIn {
    /// Tenant id.
    pub id: TenantId,
    /// Tenant VPC.
    pub vpc: VpcId,
    /// VXLAN network identifier of the tenant's tunnels.
    pub vni: u32,
    /// Client subnet (source CIDR of policy rules).
    pub subnet: Cidr,
    /// Verified client workload identities.
    pub identities: Vec<u64>,
}

/// One service.
#[derive(Debug, Clone)]
pub struct ServiceIn {
    /// Global service id registered at the gateway.
    pub id: GlobalServiceId,
    /// Owning tenant (index into [`Inputs::tenants`]).
    pub tenant: usize,
    /// Per-tenant service number.
    pub num: u32,
    /// Service VIP.
    pub vip: Endpoint,
    /// Host name (HTTP `host` header and TLS SNI).
    pub host: String,
}

/// One client connection's fixed material.
#[derive(Debug, Clone)]
pub struct ConnSpec {
    /// Service the connection talks to (index into [`Inputs::services`]).
    pub service: usize,
    /// Client source address.
    pub src: VpcAddr,
    /// Verified client identity the policy sees.
    pub identity: u64,
    /// Gateway-side DH private material.
    pub gw_key: u64,
    /// Upstream-side DH private material.
    pub up_key: u64,
    /// Upstream workload identity.
    pub up_identity: u64,
}

/// One generated HTTP request: the bytes the gateway is fed, plus the
/// ground truth the checks compare against.
#[derive(Debug, Clone)]
pub struct RequestSpec {
    /// Service (index into [`Inputs::services`]).
    pub service: usize,
    /// `l7_api` connection slot carrying the request.
    pub conn: usize,
    /// Method.
    pub method: Method,
    /// Request target, query included.
    pub path: String,
    /// Headers in wire order.
    pub headers: Vec<(String, String)>,
    /// Bytes of the request line and headers, blank line included.
    pub head_len: usize,
    /// Body bytes.
    pub body_len: usize,
    /// Uniform draw for the weighted split.
    pub draw: f64,
    /// The whole request as sent.
    pub wire: Bytes,
}

impl RequestSpec {
    /// The path without its query string.
    pub fn path_only(&self) -> &str {
        self.path.split('?').next().unwrap_or(&self.path)
    }

    /// The body bytes.
    pub fn body(&self) -> &[u8] {
        &self.wire[self.head_len..]
    }
}

/// A route target the gateway can resolve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetInfo {
    /// Dense target id (what outcomes record).
    pub id: u32,
    /// Service the target belongs to.
    pub service: usize,
}

/// All inputs of one run.
#[derive(Debug)]
pub struct Inputs {
    /// Workload.
    pub workload: Workload,
    /// Seed everything was drawn from.
    pub seed: u64,
    /// The workload's fixed parameters.
    pub spec: WorkloadSpec,
    /// Tenants.
    pub tenants: Vec<TenantIn>,
    /// Services.
    pub services: Vec<ServiceIn>,
    /// `l4_conn_churn` source addresses.
    pub l4_ips: Vec<u32>,
    /// `l4_conn_churn` source ports.
    pub l4_ports: Vec<u16>,
    /// `l4_conn_churn` payloads.
    pub l4_payloads: Vec<Bytes>,
    /// Connection specs (`l7_api` pool, or the cycled `tenant_churn` pool).
    pub conns: Vec<ConnSpec>,
    /// Request pool.
    pub requests: Vec<RequestSpec>,
    /// `tenant_churn` request indices per service.
    pub by_service: Vec<Vec<usize>>,
    /// Policy variants (one for `l7_api`).
    pub policies: Vec<PolicySpec>,
    /// Route-table variants (one for `l7_api`).
    pub routes: Vec<RouteTable>,
    /// A route table naming a target no hop can reach (must be NACKed).
    pub bad_routes: RouteTable,
    /// Route target name -> target.
    pub targets: BTreeMap<String, TargetInfo>,
    /// Names a route table may use (the install check's reachable set).
    pub known_targets: BTreeSet<String>,
    /// Checksum over every input above.
    pub checksum: u64,
}

fn ip(a: u8, b: u8, c: u8, d: u8) -> u32 {
    u32::from_be_bytes([a, b, c, d])
}

/// `n` sizes log-uniform on `[lo, hi]`, stratified (one draw from each
/// of `n` equal-probability slices, shuffled) so that every seed gets the
/// same size distribution and only the order and exact values change.
fn log_uniform_deck(rng: &mut SimRng, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let (a, b) = ((lo as f64).ln(), (hi as f64).ln());
    let mut deck: Vec<usize> = (0..n)
        .map(|k| {
            let u = (k as f64 + rng.f64()) / n as f64;
            ((a + u * (b - a)).exp() as usize).clamp(lo, hi)
        })
        .collect();
    rng.shuffle(&mut deck);
    deck
}

fn random_bytes(rng: &mut SimRng, n: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(n + 8);
    while out.len() < n {
        out.extend_from_slice(&rng.u64().to_le_bytes());
    }
    out.truncate(n);
    out
}

fn wire_of(
    method: Method,
    path: &str,
    headers: &[(String, String)],
    body: &[u8],
) -> (Bytes, usize) {
    let mut w = Vec::with_capacity(256 + body.len());
    w.extend_from_slice(method.as_str().as_bytes());
    w.push(b' ');
    w.extend_from_slice(path.as_bytes());
    w.extend_from_slice(b" HTTP/1.1\r\n");
    for (n, v) in headers {
        w.extend_from_slice(n.as_bytes());
        w.extend_from_slice(b": ");
        w.extend_from_slice(v.as_bytes());
        w.extend_from_slice(b"\r\n");
    }
    w.extend_from_slice(b"\r\n");
    let head_len = w.len();
    w.extend_from_slice(body);
    (Bytes::from(w), head_len)
}

fn target(name: &str, weight: u32) -> WeightedTarget {
    WeightedTarget::new(name, weight)
}

fn prefix_rule(
    name: &str,
    prefix: &str,
    method: Option<&str>,
    headers: Vec<RouteHeader>,
    targets: Vec<WeightedTarget>,
) -> RouteRule {
    RouteRule::new(
        name,
        RoutePredicate {
            path: Some(PathPredicate::Prefix(prefix.to_string())),
            method: method.map(str::to_string),
            headers,
        },
        targets,
    )
}

/// The nine route rules of one service. Target names are unique per rule
/// (`<rule>/<subset>`), so a target id also identifies the matched rule.
fn service_routes(s: &ServiceIn, t: u32, variant: usize) -> Vec<RouteRule> {
    let base = format!("/t{t}/s{}/", s.num);
    let r = |k: usize| format!("t{t}s{}r{k}", s.num);
    let canary_w = 10 + 5 * variant as u32;
    vec![
        prefix_rule(
            &r(0),
            &format!("{base}v2/"),
            None,
            vec![RouteHeader::Exact {
                name: "x-canary".into(),
                value: "1".into(),
            }],
            vec![target(&format!("{}/canary", r(0)), 100)],
        ),
        prefix_rule(
            &r(1),
            &format!("{base}v2/"),
            None,
            vec![RouteHeader::Prefix {
                name: "x-user-group".into(),
                prefix: "beta".into(),
            }],
            vec![
                target(&format!("{}/beta", r(1)), 50),
                target(&format!("{}/stable", r(1)), 50),
            ],
        ),
        prefix_rule(
            &r(2),
            &format!("{base}v2/"),
            None,
            vec![],
            vec![
                target(&format!("{}/v2", r(2)), 100 - canary_w),
                target(&format!("{}/v2-canary", r(2)), canary_w),
            ],
        ),
        prefix_rule(
            &r(3),
            &format!("{base}v1/"),
            Some("GET"),
            vec![],
            vec![target(&format!("{}/v1-read", r(3)), 100)],
        ),
        prefix_rule(
            &r(4),
            &format!("{base}v1/"),
            None,
            vec![],
            vec![
                target(&format!("{}/v1", r(4)), 80),
                target(&format!("{}/v1-b", r(4)), 20),
            ],
        ),
        prefix_rule(
            &r(5),
            &format!("{base}admin"),
            None,
            vec![],
            vec![target(&format!("{}/admin", r(5)), 100)],
        ),
        prefix_rule(
            &r(6),
            &format!("{base}v3/"),
            None,
            vec![RouteHeader::Present {
                name: "x-debug".into(),
            }],
            vec![target(&format!("{}/v3-debug", r(6)), 100)],
        ),
        prefix_rule(
            &r(7),
            &format!("{base}v3/"),
            None,
            vec![],
            vec![
                target(&format!("{}/v3", r(7)), 50 + variant as u32),
                target(&format!("{}/v3-b", r(7)), 50),
            ],
        ),
        prefix_rule(
            &r(8),
            &base,
            None,
            vec![],
            vec![target(&format!("{}/default", r(8)), 100)],
        ),
    ]
}

/// Filler route rules of a tenant: prefixes no request uses.
fn filler_routes(first_service: &ServiceIn, t: u32, n: usize) -> Vec<RouteRule> {
    (0..n)
        .map(|k| {
            let name = format!("t{t}legacy{k}");
            prefix_rule(
                &name,
                &format!("/t{t}/legacy{k}/"),
                None,
                vec![],
                vec![target(&format!("{name}/s{}", first_service.num), 100)],
            )
        })
        .collect()
}

/// One tenant's 64 policy rules for policy variant `variant`.
fn tenant_policy(
    rng: &mut SimRng,
    tenant: &TenantIn,
    t: u32,
    services: &[&ServiceIn],
    variant: usize,
) -> TenantPolicy {
    let mut core = Vec::new();
    for s in services {
        let base = format!("/t{t}/s{}/", s.num);
        core.push(PolicyRule::deny().with_path_prefix(&format!("{base}admin")));
        core.push(
            PolicyRule::deny()
                .with_method("DELETE")
                .with_path_prefix(&base),
        );
        core.push(
            PolicyRule::deny().with_path_prefix(&format!("{base}v{}/internal", 1 + variant % 3)),
        );
    }
    for s in services {
        let base = format!("/t{t}/s{}/", s.num);
        let port = s.vip.port;
        core.push(
            PolicyRule::allow()
                .with_method("GET")
                .with_method("HEAD")
                .with_path_prefix(&base)
                .with_source_cidr(tenant.subnet)
                .with_ports(port, port),
        );
        core.push(
            PolicyRule::allow()
                .with_method("POST")
                .with_method("PUT")
                .with_path_prefix(&base)
                .with_header("x-api-key", None)
                .with_identities(&tenant.identities),
        );
        core.push(
            PolicyRule::allow()
                .with_method("PATCH")
                .with_path_prefix(&format!("{base}v2/"))
                .with_header("x-api-key", None)
                .with_sni(SniMatch::Exact(s.host.clone())),
        );
    }
    // Filler: rules no generated request matches, spread between the
    // live ones so lookups see a full 64-rule tenant.
    let mut rules = core;
    let mut k = 0usize;
    while rules.len() < RULES_PER_TENANT {
        let prefix = format!("/t{t}/legacy{}/{k}", variant);
        let rule = match k % 4 {
            0 => PolicyRule::deny().with_path_prefix(&prefix),
            1 => PolicyRule::allow()
                .with_path_prefix(&prefix)
                .with_ports(9000 + k as u16, 9100 + k as u16),
            2 => PolicyRule::allow()
                .with_path_prefix(&prefix)
                .with_header("x-legacy", Some("1"))
                .with_sni(SniMatch::Suffix(".legacy.mesh.local".into())),
            _ => PolicyRule::deny()
                .with_method("POST")
                .with_path_prefix(&prefix)
                .with_source_cidr(Cidr::new(ip(192, 168, (k % 256) as u8, 0), 24)),
        };
        let at = rng.index(rules.len() + 1);
        rules.insert(at, rule);
        k += 1;
    }
    TenantPolicy {
        tenant: tenant.id,
        vpc: tenant.vpc,
        rules,
        default_action: canal_policy::PolicyVerdict::Deny,
    }
}

struct HeaderPlan {
    api_key: bool,
    canary: bool,
    group: bool,
    debug: bool,
}

fn request_headers(
    rng: &mut SimRng,
    s: &ServiceIn,
    content_type: &str,
    plan: &HeaderPlan,
    body_len: usize,
) -> Vec<(String, String)> {
    let mut h = vec![
        ("host".to_string(), s.host.clone()),
        (
            "user-agent".to_string(),
            format!("canal-client/{}.{}", rng.index(4), rng.index(10)),
        ),
        ("accept".to_string(), "application/json".to_string()),
        ("content-type".to_string(), content_type.to_string()),
    ];
    if plan.api_key {
        h.push(("x-api-key".to_string(), format!("k-{:016x}", rng.u64())));
    }
    if plan.canary {
        h.push(("x-canary".to_string(), "1".to_string()));
    }
    if plan.group {
        h.push(("x-user-group".to_string(), format!("beta-{}", rng.index(8))));
    }
    if plan.debug {
        h.push(("x-debug".to_string(), "trace".to_string()));
    }
    h.push((
        "x-request-id".to_string(),
        format!("{:016x}{:016x}", rng.u64(), rng.u64()),
    ));
    h.push((
        "traceparent".to_string(),
        format!(
            "00-{:016x}{:016x}-{:016x}-01",
            rng.u64(),
            rng.u64(),
            rng.u64()
        ),
    ));
    h.push(("content-length".to_string(), body_len.to_string()));
    h
}

/// One `l7_api` request on connection `conn`.
fn l7_request(rng: &mut SimRng, inp: &Inputs, conn: usize, body_len: usize) -> RequestSpec {
    let service = inp.conns[conn].service;
    let s = &inp.services[service];
    let t = inp.tenants[s.tenant].id.0;
    let base = format!("/t{t}/s{}/", s.num);
    let id = rng.int_range(1, 1_000_000);
    let version = 1 + rng.index(3);
    let kind = rng.f64();
    let mut plan = HeaderPlan {
        api_key: true,
        canary: rng.chance(0.05),
        group: rng.chance(0.10),
        debug: rng.chance(0.03),
    };
    // About 10% of calls are denied by design: admin paths, deletes,
    // writes without an API key, and one internal path per policy variant.
    let (method, path) = if kind < 0.05 {
        (Method::Get, format!("{base}admin/users/{id}"))
    } else if kind < 0.08 {
        (Method::Delete, format!("{base}v1/items/{id}"))
    } else if kind < 0.10 {
        plan.api_key = false;
        (Method::Post, format!("{base}v2/items"))
    } else if kind < 0.12 {
        (Method::Get, format!("{base}v{version}/internal/metrics"))
    } else {
        let m = rng.f64();
        if m < 0.5 {
            let q = if rng.chance(0.3) {
                format!("?page={}", rng.index(50))
            } else {
                String::new()
            };
            (Method::Get, format!("{base}v{version}/items/{id}{q}"))
        } else if m < 0.75 {
            (Method::Post, format!("{base}v{version}/items"))
        } else if m < 0.9 {
            (Method::Put, format!("{base}v{version}/items/{id}"))
        } else {
            (Method::Patch, format!("{base}v2/items/{id}"))
        }
    };
    let body = random_bytes(rng, body_len);
    let headers = request_headers(rng, s, "application/json", &plan, body_len);
    let (wire, head_len) = wire_of(method, &path, &headers, &body);
    RequestSpec {
        service,
        conn,
        method,
        path,
        headers,
        head_len,
        body_len,
        draw: rng.f64(),
        wire,
    }
}

/// One `tenant_churn` bulk transfer to `service`.
fn churn_request(
    rng: &mut SimRng,
    inp: &Inputs,
    service: usize,
    internal: bool,
    body_len: usize,
) -> RequestSpec {
    let s = &inp.services[service];
    let t = inp.tenants[s.tenant].id.0;
    let base = format!("/t{t}/s{}/", s.num);
    let version = 1 + rng.index(3);
    let id = rng.int_range(1, 1_000_000);
    let path = if internal {
        format!("{base}v{version}/internal/blobs/{id}")
    } else {
        format!("{base}v{version}/blobs/{id}")
    };
    let method = if rng.chance(0.5) {
        Method::Put
    } else {
        Method::Post
    };
    let plan = HeaderPlan {
        api_key: true,
        canary: rng.chance(0.05),
        group: rng.chance(0.1),
        debug: false,
    };
    let body = random_bytes(rng, body_len);
    let headers = request_headers(rng, s, "application/octet-stream", &plan, body_len);
    let (wire, head_len) = wire_of(method, &path, &headers, &body);
    RequestSpec {
        service,
        conn: 0,
        method,
        path,
        headers,
        head_len,
        body_len,
        draw: rng.f64(),
        wire,
    }
}

impl Inputs {
    /// Generate every input of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let spec = workload.spec();
        let mut root = SimRng::seed(seed ^ 0x6777_6265_6e63_6800);
        let mut rng = root.fork(1);
        let mut inp = Inputs {
            workload,
            seed,
            spec,
            tenants: Vec::new(),
            services: Vec::new(),
            l4_ips: Vec::new(),
            l4_ports: Vec::new(),
            l4_payloads: Vec::new(),
            conns: Vec::new(),
            requests: Vec::new(),
            by_service: Vec::new(),
            policies: Vec::new(),
            routes: Vec::new(),
            bad_routes: RouteTable::new(),
            targets: BTreeMap::new(),
            known_targets: BTreeSet::new(),
            checksum: 0,
        };
        let l4 = workload == Workload::L4ConnChurn;
        for t in 0..spec.tenants {
            let n = t as u32 + 1;
            let tenant = TenantIn {
                id: TenantId(n),
                vpc: VpcId(n),
                vni: 5000 + n,
                subnet: Cidr::new(ip(10, n as u8, 0, 0), 16),
                identities: (0..8).map(|_| rng.u64() | 1).collect(),
            };
            for k in 0..spec.services_per_tenant {
                let num = k as u32 + 1;
                inp.services.push(ServiceIn {
                    id: GlobalServiceId::compose(tenant.id, ServiceId(num)),
                    tenant: t,
                    num,
                    vip: Endpoint::new(
                        VpcAddr::new(tenant.vpc, 172, 16, n as u8, num as u8),
                        if l4 { 8000 + num as u16 } else { 443 },
                    ),
                    host: format!("svc-{num}.t{n}.mesh.local"),
                });
            }
            inp.tenants.push(tenant);
        }
        match workload {
            Workload::L4ConnChurn => {
                // Distinct addresses and ports, so flow i is new for the
                // first L4_ADDRS * L4_PORTS requests.
                let mut ips: Vec<u32> = (0..(1u32 << 16))
                    .map(|k| ip(10, 100, (k >> 8) as u8, k as u8))
                    .collect();
                rng.shuffle(&mut ips);
                ips.truncate(L4_ADDRS);
                let mut ports: Vec<u16> = (1024..u16::MAX).collect();
                rng.shuffle(&mut ports);
                ports.truncate(L4_PORTS);
                inp.l4_ips = ips;
                inp.l4_ports = ports;
                inp.l4_payloads = (0..L4_PAYLOADS)
                    .map(|_| Bytes::from(random_bytes(&mut rng, L4_PAYLOAD_BYTES)))
                    .collect();
            }
            Workload::L7Api | Workload::TenantChurn => {
                let churn = workload == Workload::TenantChurn;
                let n_conns = if churn {
                    CHURN_CONN_SPECS
                } else {
                    L7_CONNECTIONS
                };
                for c in 0..n_conns {
                    let service = c % inp.services.len();
                    let tenant = &inp.tenants[inp.services[service].tenant];
                    let n = tenant.id.0 as u8;
                    inp.conns.push(ConnSpec {
                        service,
                        src: VpcAddr::new(
                            tenant.vpc,
                            10,
                            n,
                            rng.index(256) as u8,
                            1 + rng.index(254) as u8,
                        ),
                        identity: tenant.identities[rng.index(tenant.identities.len())],
                        gw_key: rng.u64() | 1,
                        up_key: rng.u64() | 1,
                        up_identity: rng.u64() | 1,
                    });
                }
                let variants = if churn { CHURN_VARIANTS } else { 1 };
                let mut order: Vec<usize> = (0..inp.services.len()).collect();
                rng.shuffle(&mut order);
                let mut named: Vec<(String, usize)> = Vec::new();
                for v in 0..variants {
                    let mut prng = root.fork(100 + v as u64);
                    let tenants = inp
                        .tenants
                        .iter()
                        .enumerate()
                        .map(|(t, tenant)| {
                            let svcs: Vec<&ServiceIn> =
                                inp.services.iter().filter(|s| s.tenant == t).collect();
                            tenant_policy(&mut prng, tenant, tenant.id.0, &svcs, v)
                        })
                        .collect();
                    inp.policies.push(PolicySpec {
                        version: 0,
                        tenants,
                    });
                    // Each rule with the service its targets belong to.
                    let mut rules: Vec<(RouteRule, usize)> = Vec::new();
                    for &si in &order {
                        let s = &inp.services[si];
                        let t = inp.tenants[s.tenant].id.0;
                        rules.extend(service_routes(s, t, v).into_iter().map(|r| (r, si)));
                    }
                    if churn {
                        for (t, tenant) in inp.tenants.iter().enumerate() {
                            if let Some(first) = inp.services.iter().position(|s| s.tenant == t) {
                                let filler = filler_routes(
                                    &inp.services[first],
                                    tenant.id.0,
                                    CHURN_ROUTE_FILLER_PER_TENANT,
                                );
                                rules.extend(filler.into_iter().map(|r| (r, first)));
                            }
                        }
                    }
                    if v == 0 {
                        named = rules
                            .iter()
                            .flat_map(|(r, si)| {
                                r.targets.iter().map(move |t| (t.name.clone(), *si))
                            })
                            .collect();
                    }
                    let mut table = RouteTable::new();
                    for (rule, _) in rules {
                        table.push(rule);
                    }
                    inp.routes.push(table);
                }
                // Target ids in first-seen order of variant 0; every
                // variant uses the same names.
                if let Some(table) = inp.routes.first() {
                    let mut bad = table.clone();
                    bad.push(prefix_rule(
                        "rogue",
                        "/rogue/",
                        None,
                        vec![],
                        vec![target("rogue/unreachable", 100)],
                    ));
                    inp.bad_routes = bad;
                    for (name, service) in named {
                        let id = inp.targets.len() as u32;
                        inp.known_targets.insert(name.clone());
                        inp.targets.insert(name, TargetInfo { id, service });
                    }
                }
                if churn {
                    inp.by_service = vec![Vec::new(); inp.services.len()];
                    let deck = log_uniform_deck(
                        &mut rng,
                        inp.services.len() * CHURN_PER_SERVICE,
                        8 * 1024,
                        64 * 1024,
                    );
                    for service in 0..inp.services.len() {
                        for k in 0..CHURN_PER_SERVICE {
                            // One transfer in 16 goes to an internal path, which
                            // one policy variant in three denies.
                            let size = deck[service * CHURN_PER_SERVICE + k];
                            let r = churn_request(&mut rng, &inp, service, k == 0, size);
                            inp.by_service[service].push(inp.requests.len());
                            inp.requests.push(r);
                        }
                    }
                } else {
                    let deck = log_uniform_deck(&mut rng, L7_POOL, 64, 1024);
                    for size in deck {
                        let conn = rng.index(inp.conns.len());
                        let r = l7_request(&mut rng, &inp, conn, size);
                        inp.requests.push(r);
                    }
                }
            }
        }
        inp.checksum = inp.fold_checksum();
        inp
    }

    fn fold_checksum(&self) -> u64 {
        let mut d = Digest::new();
        d.write_str(self.workload.name()).write_u64(self.seed);
        for t in &self.tenants {
            d.write_u64(t.id.0 as u64)
                .write_u64(t.vni as u64)
                .write_u64(t.subnet.base as u64);
            for &i in &t.identities {
                d.write_u64(i);
            }
        }
        for s in &self.services {
            d.write_u64(s.id.0)
                .write_u64(s.vip.addr.ip as u64)
                .write_u64(s.vip.port as u64)
                .write_str(&s.host);
        }
        for &i in &self.l4_ips {
            d.write_u64(i as u64);
        }
        for &p in &self.l4_ports {
            d.write_u64(p as u64);
        }
        for p in &self.l4_payloads {
            d.write_bytes(p);
        }
        for c in &self.conns {
            d.write_u64(c.service as u64)
                .write_u64(c.src.ip as u64)
                .write_u64(c.identity)
                .write_u64(c.gw_key)
                .write_u64(c.up_key)
                .write_u64(c.up_identity);
        }
        for r in &self.requests {
            d.write_u64(r.conn as u64)
                .write_f64(r.draw)
                .write_bytes(&r.wire);
        }
        for p in &self.policies {
            p.fold_digest(&mut d);
        }
        for table in self.routes.iter().chain(std::iter::once(&self.bad_routes)) {
            d.write_str(&format!("{:?}", table.rules()));
        }
        d.value()
    }
}
