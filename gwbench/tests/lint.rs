//! canal-lint over the benchmark's sources. Library files are linted as
//! `canal_bench` library code, the closest node of the workspace's layering
//! DAG: wall-clock reads need a `lint:allow(wallclock)` with a reason, and
//! panics are not allowed. `main.rs` and the smoke test are linted as this
//! package's own binary and test, whose only crate is the benchmark itself.
//! This file drives the linter and depends on canal-lint by design, so it is
//! the one file not scanned.

use canal_lint::rules::TargetKind;
use canal_lint::{scan_source, Report};
use std::path::Path;

fn scan(path: &Path, ident: &str, kind: TargetKind, report: &mut Report) {
    let source = std::fs::read_to_string(path).expect("read source");
    scan_source(&path.display().to_string(), &source, ident, kind, report);
}

#[test]
fn benchmark_sources_are_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut report = Report::default();
    let mut lib: Vec<_> = std::fs::read_dir(root.join("src"))
        .expect("read src")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("rs"))
        .collect();
    lib.sort();
    for path in &lib {
        if path.ends_with("main.rs") {
            scan(path, "canal_gwbench", TargetKind::Bin, &mut report);
        } else {
            scan(path, "canal_bench", TargetKind::Lib, &mut report);
        }
    }
    scan(
        &root.join("tests/smoke.rs"),
        "canal_gwbench",
        TargetKind::Test,
        &mut report,
    );
    assert!(lib.len() >= 9, "sources not found");
    assert!(report.clean(), "{}", report.render());
}
