//! Smoke sizes of every workload: each run must check out, and two runs of
//! one seed must produce the same inputs, outcome digest and exact counts.

use canal_gwbench::{run, to_json, RunConfig, Sizes, Workload};

fn smoke(workload: Workload, seed: u64, trace: bool) -> canal_gwbench::Report {
    let sizes = match workload {
        Workload::L4ConnChurn => Sizes {
            epoch: 4096,
            warmup: 4096,
            count_window: 8192,
        },
        Workload::L7Api => Sizes {
            epoch: 512,
            warmup: 512,
            count_window: 1024,
        },
        Workload::TenantChurn => Sizes {
            epoch: 35,
            warmup: 35,
            count_window: 70,
        },
    };
    let cfg = RunConfig {
        workload,
        seed,
        seconds: 0.02,
        trace,
        sizes: Some(sizes),
        span_file: None,
    };
    let report = run(&cfg).expect("run");
    assert!(
        report.correct,
        "{}: {:?}",
        workload.name(),
        report.first_failure
    );
    assert_eq!(report.failed, 0);
    report
}

fn metric(r: &canal_gwbench::Report, name: &str) -> f64 {
    r.metrics
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.value)
        .unwrap_or_else(|| panic!("no metric {name}"))
}

#[test]
fn every_workload_checks_out_and_repeats() {
    for w in Workload::ALL {
        let a = smoke(w, 7, false);
        let b = smoke(w, 7, true);
        assert_eq!(
            a.digest,
            b.digest,
            "{}: digest differs between trace modes",
            w.name()
        );
        assert_eq!(a.counters, b.counters, "{}", w.name());
        assert_eq!(a.live_sessions, b.live_sessions, "{}", w.name());
        let checksum = |r: &canal_gwbench::Report| {
            r.info
                .iter()
                .find(|l| l.starts_with("inputs_checksum="))
                .cloned()
        };
        assert_eq!(checksum(&a), checksum(&b));
        assert!(metric(&a, "requests_per_s") > 0.0);
        assert!(metric(&a, "setup_s") > 0.0);
        assert!(a.info.iter().any(|l| l == "failed_ratio=0"));
        assert!(metric(&b, "gateway.handle_request_ns") > 0.0);
        let json = to_json(&a);
        assert!(
            json.starts_with("{\"correct\": true") && json.ends_with("}}"),
            "{json}"
        );
    }
}

#[test]
fn seeds_change_inputs() {
    let a = smoke(Workload::L7Api, 1, false);
    let b = smoke(Workload::L7Api, 2, false);
    assert_ne!(a.digest, b.digest);
}

#[test]
fn churn_nacks_every_invalid_update() {
    let r = smoke(Workload::TenantChurn, 3, false);
    // 70 requests, one update every 7: updates 0..=9, of which 4 and 9 are
    // invalid, three NACKs each.
    assert_eq!(r.counters.nacks, 6);
    assert!(r.counters.lookup_ops > 0);
}

#[test]
fn l4_tables_fill_and_age_out_without_refusals() {
    let r = smoke(Workload::L4ConnChurn, 5, true);
    assert!(r.live_sessions > 0);
    assert!(metric(&r, "gateway.stall_count") >= 0.0);
    assert_eq!(metric(&r, "policy.l7_verdict_ns"), 0.0);
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let start = text.find(&format!("\"{section}\"")).expect("section");
    let body = &text[start..];
    let end = body.find(']').expect("list end");
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\": \"")).expect("field") + key.len() + 5;
        entry[at..].split('"').next().expect("value").to_string()
    };
    body[..end]
        .split('{')
        .skip(1)
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

#[test]
fn reported_metrics_match_the_declared_lists() {
    let untraced = smoke(Workload::L7Api, 9, false);
    let traced = smoke(Workload::L7Api, 9, true);
    let names = |r: &canal_gwbench::Report| -> Vec<(String, String)> {
        r.metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    };
    assert_eq!(names(&untraced), declared("end_to_end"));
    assert_eq!(names(&traced), declared("per_layer"));
}
