//! Differential and isolation property tests for the compiled matcher.
//!
//! Three tenants share the same deliberately overlapping `10.0.0.0/16`
//! address space (each in its own VPC — the exact scenario §4.2's global
//! service id exists for). Over randomized rule sets and packets:
//!
//! * **differential** — the compiled matcher and the naive scan-all-rules
//!   reference return identical verdicts (L4 and L7), and the verdict
//!   stream digests are stable across a second generation from the same
//!   seed;
//! * **isolation** — removing every *other* tenant from the spec changes
//!   no verdict: no packet or request from tenant A ever matches tenant
//!   B's policy, overlapping addresses notwithstanding.

// The shared generators/drivers are test code even though they are not
// themselves `#[test]` fns, so clippy's allow-panic-in-tests does not
// reach them.
#![allow(clippy::panic)]

use canal_net::{TenantId, VpcId};
use canal_policy::{
    reference_l4_verdict, reference_l7_match, reference_l7_verdict, Cidr, CompiledPolicySet,
    CompiledTenant, L4Ctx, L7Ctx, PolicyRule, PolicySpec, PolicyVerdict, SniMatch, TenantPolicy,
};
use canal_sim::{Digest, SimRng};

const TENANTS: u32 = 3;
const RULES_PER_TENANT: usize = 48;
const PACKETS: usize = 2000;

const METHODS: &[&str] = &["GET", "POST", "PUT", "DELETE", "PATCH"];
const PATHS: &[&str] = &["/", "/api", "/api/v1", "/api/v1/users", "/admin", "/admin/keys", "/health"];
const SNIS: &[&str] = &["svc.example.com", "a.svc.example.com", "example.com", "other.net"];
const HEADERS: &[(&str, &str)] = &[
    ("x-team", "infra"),
    ("x-team", "payments"),
    ("x-trace", "1"),
    ("authorization", "bearer"),
];

/// One random rule; every dimension independently constrained or wildcard.
fn random_rule(rng: &mut SimRng) -> PolicyRule {
    let mut r = if rng.chance(0.5) { PolicyRule::allow() } else { PolicyRule::deny() };
    if rng.chance(0.6) {
        // Sub-blocks of the shared 10.0.0.0/16, various widths.
        let prefix_len = 18 + rng.index(13) as u8; // /18..=/30
        let mask = u32::MAX << (32 - prefix_len);
        let base = (0x0A00_0000 | (rng.u64() as u32 & 0x0000_FFFF)) & mask;
        r = r.with_source_cidr(Cidr::new(base, prefix_len));
    }
    if rng.chance(0.5) {
        let lo = rng.int_range(1, 9000) as u16;
        let hi = lo + rng.int_range(0, 1000) as u16;
        r = r.with_ports(lo, hi);
    }
    if rng.chance(0.3) {
        let ids: Vec<u64> = (0..1 + rng.index(3)).map(|_| rng.int_range(100, 110)).collect();
        r = r.with_identities(&ids);
    }
    if rng.chance(0.3) {
        r = r.with_method(METHODS[rng.index(METHODS.len())]);
    }
    if rng.chance(0.4) {
        r = r.with_path_prefix(PATHS[rng.index(PATHS.len())]);
    }
    if rng.chance(0.2) {
        r = if rng.chance(0.5) {
            r.with_sni(SniMatch::Exact(SNIS[rng.index(SNIS.len())].to_string()))
        } else {
            r.with_sni(SniMatch::Suffix(".example.com".to_string()))
        };
    }
    while rng.chance(0.25) && r.headers.len() < 3 {
        let (name, value) = HEADERS[rng.index(HEADERS.len())];
        let value = if rng.chance(0.5) { Some(value) } else { None };
        r = r.with_header(name, value);
    }
    r
}

/// A multi-tenant spec over the shared /16, from one seed.
fn random_spec(rng: &mut SimRng) -> PolicySpec {
    let tenants = (1..=TENANTS)
        .map(|t| TenantPolicy {
            tenant: TenantId(t),
            vpc: VpcId(t),
            rules: (0..RULES_PER_TENANT).map(|_| random_rule(rng)).collect(),
            default_action: if rng.chance(0.5) { PolicyVerdict::Allow } else { PolicyVerdict::Deny },
        })
        .collect();
    PolicySpec { version: 1, tenants }
}

/// One random packet/request context, biased into the shared /16 so
/// tenant CIDRs genuinely collide.
fn random_ctx(rng: &mut SimRng) -> (L4Ctx, &'static str, &'static str, Option<&'static str>, usize) {
    let tenant = 1 + rng.index(TENANTS as usize) as u32;
    let src_ip = if rng.chance(0.9) {
        0x0A00_0000 | (rng.u64() as u32 & 0x0000_FFFF)
    } else {
        rng.u64() as u32
    };
    let l4 = L4Ctx {
        tenant: TenantId(tenant),
        vpc: VpcId(tenant),
        src_ip,
        dst_port: rng.int_range(1, 10000) as u16,
        identity: rng.int_range(98, 112),
    };
    let method = METHODS[rng.index(METHODS.len())];
    let path = PATHS[rng.index(PATHS.len())];
    let sni = if rng.chance(0.6) { Some(SNIS[rng.index(SNIS.len())]) } else { None };
    let headers = rng.index(HEADERS.len() + 1);
    (l4, method, path, sni, headers)
}

/// Run the verdict stream for one seed, folding everything into a digest.
fn verdict_stream_digest(seed: u64) -> u64 {
    let mut rng = SimRng::seed(seed);
    let spec = random_spec(&mut rng);
    let compiled = match CompiledPolicySet::compile(&spec) {
        Ok(c) => c,
        Err(e) => panic!("random spec must validate: {e}"),
    };
    let mut d = Digest::new();
    compiled.fold_digest(&mut d);
    for _ in 0..PACKETS {
        let (l4, method, path, sni, hdrs) = random_ctx(&mut rng);
        let l7 = L7Ctx { method, path, sni, headers: &HEADERS[..hdrs] };
        let tp = spec
            .tenants
            .iter()
            .find(|tp| tp.tenant == l4.tenant)
            .unwrap_or_else(|| panic!("tenant missing"));

        let want_l4 = reference_l4_verdict(tp, &l4);
        let got_l4 = compiled.l4_verdict(&l4);
        assert_eq!(got_l4, want_l4, "L4 divergence at {l4:?}");

        let want = reference_l7_match(tp, &l4, &l7);
        let got = compiled.l7_match(&l4, &l7);
        assert_eq!(got, want, "L7 match divergence at {l4:?} {method} {path} {sni:?}");
        assert_eq!(
            compiled.l7_verdict(&l4, &l7),
            reference_l7_verdict(tp, &l4, &l7)
        );

        d.write_u64(match got_l4 {
            canal_policy::L4Verdict::Allow => 1,
            canal_policy::L4Verdict::Deny => 2,
            canal_policy::L4Verdict::NeedsL7 => 3,
        });
        d.write_u64(got.map_or(u64::MAX, |i| i as u64));
    }
    d.value()
}

#[test]
fn compiled_matches_reference_and_is_digest_stable() {
    for seed in [11, 42, 1007] {
        let a = verdict_stream_digest(seed);
        let b = verdict_stream_digest(seed);
        assert_eq!(a, b, "verdict stream not digest-stable for seed {seed}");
    }
}

#[test]
fn no_cross_tenant_match_over_overlapping_vpc_spaces() {
    for seed in [7, 99, 2024] {
        let mut rng = SimRng::seed(seed);
        let spec = random_spec(&mut rng);
        let full = match CompiledPolicySet::compile(&spec) {
            Ok(c) => c,
            Err(e) => panic!("random spec must validate: {e}"),
        };
        // Each tenant compiled alone: if any packet's verdict differs from
        // the full multi-tenant compile, another tenant's rules leaked in.
        let alone: Vec<CompiledTenant> = spec
            .tenants
            .iter()
            .map(|tp| match CompiledTenant::compile(tp) {
                Ok(c) => c,
                Err(e) => panic!("tenant must compile: {e}"),
            })
            .collect();
        let mut cross_matches = 0u64;
        for _ in 0..PACKETS {
            let (l4, method, path, sni, hdrs) = random_ctx(&mut rng);
            let l7 = L7Ctx { method, path, sni, headers: &HEADERS[..hdrs] };
            let solo = &alone[(l4.tenant.0 - 1) as usize];
            if full.l4_verdict(&l4) != solo.l4_verdict(&l4)
                || full.l7_match(&l4, &l7) != solo.l7_match(&l4, &l7)
                || full.l7_verdict(&l4, &l7) != solo.l7_verdict(&l4, &l7)
            {
                cross_matches += 1;
            }
        }
        assert_eq!(cross_matches, 0, "cross-tenant policy leakage for seed {seed}");
    }
}

#[test]
fn unknown_tenant_never_reaches_any_rule() {
    let mut rng = SimRng::seed(5);
    let spec = random_spec(&mut rng);
    let full = match CompiledPolicySet::compile(&spec) {
        Ok(c) => c,
        Err(e) => panic!("random spec must validate: {e}"),
    };
    for _ in 0..200 {
        let (mut l4, method, path, sni, hdrs) = random_ctx(&mut rng);
        l4.tenant = TenantId(999);
        let l7 = L7Ctx { method, path, sni, headers: &HEADERS[..hdrs] };
        assert_eq!(full.l4_verdict(&l4), canal_policy::L4Verdict::Deny);
        assert_eq!(full.l7_match(&l4, &l7), None);
        assert_eq!(full.l7_verdict(&l4, &l7), PolicyVerdict::Deny);
    }
}

/// Few enough rules that first-match-wins does not shadow the deep ones.
const HEADER_RULES: usize = 16;
const CASED_NAMES: &[&str] = &["x-team", "x-trace", "authorization", "x-env"];
const CASED_VALUES: &[&str] = &["infra", "payments", "1", "prod", "Prod"];

/// `name` with every letter's case drawn at random.
fn random_case(rng: &mut SimRng, name: &str) -> String {
    name.chars()
        .map(|c| if rng.chance(0.5) { c.to_ascii_uppercase() } else { c })
        .collect()
}

/// A rule with at least one header predicate; two in five put a
/// present-only and an exact-value predicate on the same (randomly cased)
/// name.
fn random_header_rule(rng: &mut SimRng) -> PolicyRule {
    let mut r = if rng.chance(0.5) { PolicyRule::allow() } else { PolicyRule::deny() };
    if rng.chance(0.2) {
        r = r.with_method(METHODS[rng.index(METHODS.len())]);
    }
    if rng.chance(0.4) {
        let name = CASED_NAMES[rng.index(CASED_NAMES.len())];
        let value = CASED_VALUES[rng.index(CASED_VALUES.len())];
        r = r
            .with_header(&random_case(rng, name), None)
            .with_header(&random_case(rng, name), Some(value));
    }
    while r.headers.is_empty()
        || (r.headers.len() < canal_policy::MAX_HEADER_PREDICATES && rng.chance(0.4))
    {
        let base = CASED_NAMES[rng.index(CASED_NAMES.len())];
        let name = random_case(rng, base);
        let value = rng
            .chance(0.7)
            .then(|| CASED_VALUES[rng.index(CASED_VALUES.len())]);
        r = r.with_header(&name, value);
    }
    r
}

/// Mixed-case and duplicated request header names against rules with a
/// present-only and an exact-value predicate on one name: the cases the
/// compiled matcher's lowercase-once header path has to get right.
#[test]
fn mixed_case_and_duplicate_headers_match_reference() {
    for seed in [3, 31, 313] {
        let mut rng = SimRng::seed(seed);
        let tp = TenantPolicy {
            tenant: TenantId(1),
            vpc: VpcId(1),
            rules: (0..HEADER_RULES).map(|_| random_header_rule(&mut rng)).collect(),
            default_action: PolicyVerdict::Deny,
        };
        let compiled = match CompiledTenant::compile(&tp) {
            Ok(c) => c,
            Err(e) => panic!("header rules must validate: {e}"),
        };
        let l4 = L4Ctx {
            tenant: TenantId(1),
            vpc: VpcId(1),
            src_ip: 0x0A00_0001,
            dst_port: 80,
            identity: 0,
        };
        let (mut mixed_case, mut duplicated, mut dual_matches) = (0, 0, 0);
        for _ in 0..PACKETS {
            let owned: Vec<(String, &str)> = (0..rng.index(7))
                .map(|_| {
                    let name = CASED_NAMES[rng.index(CASED_NAMES.len())];
                    (random_case(&mut rng, name), CASED_VALUES[rng.index(CASED_VALUES.len())])
                })
                .collect();
            let headers: Vec<(&str, &str)> = owned.iter().map(|(n, v)| (n.as_str(), *v)).collect();
            let method = METHODS[rng.index(METHODS.len())];
            let l7 = L7Ctx { method, path: "/", sni: None, headers: &headers };

            let want = reference_l7_match(&tp, &l4, &l7);
            assert_eq!(compiled.l7_match(&l4, &l7), want, "seed {seed}: {method} {headers:?}");
            assert_eq!(compiled.l7_verdict(&l4, &l7), reference_l7_verdict(&tp, &l4, &l7));

            let lower: Vec<String> = headers.iter().map(|(n, _)| n.to_ascii_lowercase()).collect();
            mixed_case += u64::from(headers.iter().zip(&lower).any(|((n, _), l)| n != l));
            duplicated += u64::from((1..lower.len()).any(|i| lower[..i].contains(&lower[i])));
            let dual = want.is_some_and(|i| {
                let hs = &tp.rules[i].headers;
                hs.iter().any(|a| {
                    a.value.is_none()
                        && hs.iter().any(|b| {
                            b.value.is_some() && b.name.eq_ignore_ascii_case(&a.name)
                        })
                })
            });
            dual_matches += u64::from(dual);
        }
        // The generator must actually reach the cases this test is for.
        assert!(mixed_case > PACKETS as u64 / 2, "seed {seed}: {mixed_case} mixed-case requests");
        assert!(duplicated > PACKETS as u64 / 10, "seed {seed}: {duplicated} duplicated names");
        assert!(dual_matches > 10, "seed {seed}: {dual_matches} dual-predicate matches");
    }
}
