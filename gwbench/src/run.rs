//! One benchmark run: inputs, timed set-ups, the closed- and open-loop
//! phases, and the metrics they yield.
//!
//! Untraced run (`--trace 0`), end-to-end metrics:
//! 1. set-up, repeated [`SETUP_REPS`] times (median is `setup_s`);
//! 2. closed loop, one caller, for the whole run: `requests_per_s` and
//!    `goodput_mib_per_s` are totals over timed epochs; the outcome
//!    digest and exact counters cover the first `count_window` requests.
//!
//! Traced run (`--trace 1`), per-layer metrics: a quarter of the run
//! untraced closed loop (exact counts, push apply times), a quarter traced
//! closed loop (the spans), and half open loop at the workload's fixed rate,
//! each request timed from when it was due (latency, generator lag).
//!
//! Every timing is divided by the host slowness read next to it
//! ([`Reference`]), so reported times are at reference speed.

use crate::check::{Checker, Tally};
use crate::clock::{self, Reference};
use crate::inputs::Inputs;
use crate::stats::{median, quantile_sorted, ratio};
use crate::system::{Counters, Event, System};
use crate::trace::{Layer, NoProbe, Probe, Root, Tracer, LAYERS};
use crate::workload::Workload;
use std::fmt::Write as _;

/// Set-ups timed per run.
pub const SETUP_REPS: usize = 9;
/// Keep every span of one request in this many.
pub const SPAN_SAMPLE_EVERY: u64 = 256;
/// Calls slower than this many medians count as stalls.
pub const STALL_FACTOR: u64 = 20;
/// Consecutive control updates per percentile window.
const PUSH_WINDOW: usize = 1000;

/// A percentile robust to bursts of host noise: `q` of each full window of
/// `window` consecutive samples, and the median over windows (`q` of all
/// samples when there is no full window).
fn windowed_quantile(samples: &[u64], window: usize, q: f64) -> f64 {
    let per_window: Vec<f64> = samples
        .chunks(window.max(1))
        .filter(|c| c.len() == window)
        .map(|c| quantile_sorted(&sorted(c.to_vec()), q) as f64)
        .collect();
    if per_window.is_empty() {
        quantile_sorted(&sorted(samples.to_vec()), q) as f64
    } else {
        median(&per_window)
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Override of warm-up, count window and epoch (smoke sizes).
    pub sizes: Option<Sizes>,
    /// Where to write the kept spans (traced run only).
    pub span_file: Option<std::path::PathBuf>,
}

/// Run sizes, in requests.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Requests per check epoch.
    pub epoch: u64,
    /// Untimed requests at the start of every phase.
    pub warmup: u64,
    /// Requests covered by the digest and the exact counters.
    pub count_window: u64,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of a run.
#[derive(Debug)]
pub struct Report {
    /// Every output checked out and nothing failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed or wrong.
    pub failed: u64,
    /// Metrics.
    pub metrics: Vec<Metric>,
    /// `key=value` lines describing the run (checksums, exact counts).
    pub info: Vec<String>,
    /// The first failure.
    pub first_failure: Option<String>,
    /// Outcome digest of the count window.
    pub digest: u64,
    /// Exact counters of the count window.
    pub counters: Counters,
    /// Live sessions at the end of the count window.
    pub live_sessions: u64,
    /// Human-readable layer table (traced run).
    pub layer_table: String,
}

struct Closed {
    /// Requests in timed epochs.
    requests: u64,
    /// Payload bytes delivered in timed epochs.
    bytes: u64,
    /// Timed seconds at reference speed.
    secs: f64,
    /// Timed seconds as measured.
    raw_secs: f64,
    /// Per-epoch host slowness factors.
    factors: Vec<f64>,
    /// Control updates' stage-to-commit times at reference speed.
    push_ns: Vec<f64>,
    /// The count window's results, once it is complete.
    window: Option<Window>,
}

/// What the first `count_window` requests of a closed loop produced.
#[derive(Debug, Clone, Copy)]
struct Window {
    digest: u64,
    counters: Counters,
    live_sessions: u64,
    tally: Tally,
}

impl Closed {
    /// Requests per second at reference speed over the timed epochs.
    fn rate(&self) -> f64 {
        ratio(self.requests as f64, self.secs)
    }
}

struct Open {
    /// Latency of each request at reference speed.
    lat_ns: Vec<u64>,
    /// How late the generator sent each request, at reference speed.
    lag_ns: Vec<u64>,
}

fn sizes(cfg: &RunConfig, inp: &Inputs) -> Sizes {
    cfg.sizes.unwrap_or(Sizes {
        epoch: inp.spec.epoch,
        warmup: inp.spec.warmup,
        count_window: inp.spec.count_window,
    })
}

fn placements(inp: &Inputs, sys: &System) -> Vec<Vec<u32>> {
    inp.services.iter().map(|s| sys.backends_of(s.id)).collect()
}

/// Closed loop: one caller, next request as soon as the last returns.
/// Runs whole epochs until `budget_ns` of timed work is done and, when
/// `window` is set, the count window is complete. Each epoch's time is
/// divided by the host slowness measured just before and after it.
#[allow(clippy::too_many_arguments)]
fn closed<P: Probe>(
    inp: &Inputs,
    sys: &mut System,
    chk: &mut Checker,
    sz: Sizes,
    budget_ns: u64,
    window: bool,
    p: &mut P,
    rf: &mut Reference,
) -> Closed {
    let mut out = Closed {
        requests: 0,
        bytes: 0,
        secs: 0.0,
        raw_secs: 0.0,
        factors: Vec::new(),
        push_ns: Vec::new(),
        window: None,
    };
    let mut events = Vec::with_capacity(2 * sz.epoch as usize);
    let mut i = 0u64;
    let mut timed_ns = 0u64;
    loop {
        let before = rf.factor();
        let t0 = clock::now();
        for _ in 0..sz.epoch {
            sys.step(inp, i, p, &mut events);
            i += 1;
        }
        let ns = clock::ns_between(t0, clock::now()).max(1);
        let f = (before + rf.factor()) / 2.0;
        let epoch = chk.check_epoch(inp, &mut events);
        if i > sz.warmup {
            timed_ns += ns;
            let secs = ns as f64 / 1e9;
            out.requests += sz.epoch;
            out.bytes += epoch.tally.goodput_bytes;
            out.secs += secs / f;
            out.raw_secs += secs;
            out.push_ns
                .extend(epoch.push_ns.iter().map(|&n| n as f64 / f));
            out.factors.push(f);
        }
        if window && i == sz.count_window {
            out.window = Some(Window {
                digest: chk.digest(),
                counters: sys.counters,
                live_sessions: sys.live_sessions(),
                tally: chk.window,
            });
        }
        let window_done = !window || i >= sz.count_window;
        if timed_ns >= budget_ns && window_done && i > sz.warmup {
            return out;
        }
    }
}

/// Open loop, each request timed from when it was due, at `rate` requests
/// per second of reference speed, in windows of `window` requests. Every
/// `sz.epoch` requests the clock stops for the check; the schedule pauses
/// and resumes where it stopped. At each window start and each pause the
/// host slowness is read again: the interval to the next due time is
/// stretched by it, so the load stays at the same share of what the host
/// can do at that moment, and latencies are divided by it. A few untimed
/// requests then warm the caches the check and the reading disturbed.
#[allow(clippy::too_many_arguments)]
fn open(
    inp: &Inputs,
    sys: &mut System,
    chk: &mut Checker,
    sz: Sizes,
    budget_ns: u64,
    rate: f64,
    window: u64,
    rf: &mut Reference,
) -> Open {
    let mut events = Vec::with_capacity(2 * sz.epoch as usize);
    let mut i = 0u64;
    while i < sz.warmup {
        for _ in 0..sz.epoch {
            sys.step(inp, i, &mut NoProbe, &mut events);
            i += 1;
        }
        chk.check_epoch(inp, &mut events);
    }
    let interval = 1e9 / rate;
    let window = window.max(1);
    let rewarm = (sz.epoch / 64).max(1);
    let total = ((budget_ns as f64 / interval).ceil() as u64).max(1);
    let windows = total.div_ceil(window);
    let n = (windows * window) as usize;
    let mut out = Open {
        lat_ns: Vec::with_capacity(n),
        lag_ns: Vec::with_capacity(n),
    };
    let mut since_check = 0u64;
    let resync = |sys: &mut System, i: &mut u64, events: &mut Vec<Event>, rf: &mut Reference| {
        let f = rf.factor();
        for _ in 0..rewarm {
            sys.step(inp, *i, &mut NoProbe, events);
            *i += 1;
        }
        f
    };
    for _ in 0..windows {
        let mut f = resync(sys, &mut i, &mut events, rf);
        let mut due = clock::now();
        let mut prev_end = due;
        for _ in 0..window {
            let lag = if prev_end < due {
                clock::ns_between(due, clock::spin_until(due))
            } else {
                0
            };
            sys.step(inp, i, &mut NoProbe, &mut events);
            i += 1;
            let end = clock::now();
            out.lat_ns
                .push((clock::ns_between(due, end) as f64 / f) as u64);
            out.lag_ns.push((lag as f64 / f) as u64);
            prev_end = end;
            due = clock::add_ns(due, (interval * f) as u64);
            since_check += 1;
            if since_check >= sz.epoch {
                since_check = 0;
                let paused = clock::now();
                chk.check_epoch(inp, &mut events);
                f = resync(sys, &mut i, &mut events, rf);
                let pause = clock::ns_between(paused, clock::now());
                due = clock::add_ns(due, pause);
                prev_end = clock::add_ns(prev_end, pause);
            }
        }
    }
    chk.check_epoch(inp, &mut events);
    out
}

/// Time `reps` set-ups at reference speed; keep the first `keep` systems
/// (the rest are dropped).
type Built = (System, Vec<Event>);
fn setups(
    inp: &Inputs,
    reps: usize,
    keep: usize,
    rf: &mut Reference,
) -> Result<(Vec<Built>, Vec<f64>), String> {
    let mut kept = Vec::new();
    let mut secs = Vec::new();
    for r in 0..reps.max(keep) {
        let before = rf.factor();
        let t0 = clock::now();
        let built = System::build(inp, false)?;
        let ns = clock::ns_between(t0, clock::now());
        let f = (before + rf.factor()) / 2.0;
        secs.push(ns as f64 / 1e9 / f);
        if r < keep {
            kept.push(built);
        }
    }
    Ok((kept, secs))
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// Run one benchmark configuration.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let inp = Inputs::generate(cfg.workload, cfg.seed);
    let sz = sizes(cfg, &inp);
    if sz.epoch == 0
        || !sz.warmup.is_multiple_of(sz.epoch)
        || !sz.count_window.is_multiple_of(sz.epoch)
        || sz.count_window < sz.warmup.max(sz.epoch)
    {
        return Err(
            "sizes: warm-up and count window must be whole epochs, window >= warm-up".into(),
        );
    }
    let budget = (cfg.seconds.max(0.0) * 1e9) as u64;
    let mut info = vec![
        format!("workload={}", inp.workload.name()),
        format!("seed={}", inp.seed),
        format!("inputs_checksum={:#018x}", inp.checksum),
    ];
    let mut metrics = Vec::new();
    let mut checkers = Vec::new();

    let mut rf = Reference::new();
    let (report_window, layer_table);
    if !cfg.trace {
        let (mut systems, setup_secs) = setups(&inp, SETUP_REPS, 1, &mut rf)?;
        let (mut sys_c, ev_c) = systems.pop().ok_or("no system")?;
        let mut chk_c = Checker::new(&inp, placements(&inp, &sys_c), sz.count_window, ev_c);
        let c = closed(
            &inp,
            &mut sys_c,
            &mut chk_c,
            sz,
            budget,
            true,
            &mut NoProbe,
            &mut rf,
        );
        metrics.extend([
            Metric {
                name: "requests_per_s",
                value: c.rate(),
                unit: "1/s",
            },
            Metric {
                name: "goodput_mib_per_s",
                value: ratio(c.bytes as f64, c.secs) / (1024.0 * 1024.0),
                unit: "MiB/s",
            },
            Metric {
                name: "setup_s",
                value: median(&setup_secs),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb(),
                unit: "MB",
            },
        ]);
        info.push(format!(
            "host_slowness median={:.4} min={:.4} max={:.4}",
            median(&c.factors),
            c.factors.iter().copied().fold(f64::MAX, f64::min),
            c.factors.iter().copied().fold(0.0, f64::max)
        ));
        info.push(format!(
            "requests_per_s_as_measured={:.1}",
            ratio(c.requests as f64, c.raw_secs)
        ));
        report_window = c.window;
        layer_table = String::new();
        checkers.push(chk_c);
    } else {
        let (mut systems, _) = setups(&inp, 2, 2, &mut rf)?;
        let (mut sys_o, ev_o) = systems.pop().ok_or("no system")?;
        let (mut sys_c, ev_c) = systems.pop().ok_or("no system")?;
        let (mut sys_t, ev_t) = System::build(&inp, true)?;
        let mut chk_c = Checker::new(&inp, placements(&inp, &sys_c), sz.count_window, ev_c);
        let c = closed(
            &inp,
            &mut sys_c,
            &mut chk_c,
            sz,
            budget / 4,
            true,
            &mut NoProbe,
            &mut rf,
        );
        let mut tracer = Tracer::new(SPAN_SAMPLE_EVERY);
        let mut chk_t = Checker::new(&inp, placements(&inp, &sys_t), 0, ev_t);
        let t = closed(
            &inp,
            &mut sys_t,
            &mut chk_t,
            sz,
            budget / 4,
            false,
            &mut tracer,
            &mut rf,
        );
        let mut chk_o = Checker::new(&inp, placements(&inp, &sys_o), 0, ev_o);
        let o = open(
            &inp,
            &mut sys_o,
            &mut chk_o,
            sz,
            budget / 2,
            inp.spec.open_rate,
            inp.spec.latency_window,
            &mut rf,
        );
        let read_ns = clock::read_cost_ns();
        let slowness = median(&t.factors);
        info.push(format!(
            "clock_read_ns={read_ns:.2} traced_host_slowness={slowness:.4}"
        ));
        let handshake_us = match inp.workload {
            Workload::L7Api => median(
                &sys_c
                    .setup_handshake_ns
                    .iter()
                    .map(|&n| n as f64 / 1e3)
                    .collect::<Vec<_>>(),
            ),
            _ => 0.0,
        };
        let window = c.window.ok_or("count window not reached")?;
        let (per_layer, table, adds_up) = layer_metrics(
            &tracer,
            read_ns,
            &LayerInputs {
                slowness,
                untraced_rps: c.rate(),
                traced_rps: t.rate(),
                window,
                traced: chk_t.total,
                reduction: sys_t.tunnel_reduction_factor(),
                lag_p99_us: quantile_sorted(&sorted(o.lag_ns), 0.99) as f64 / 1e3,
                latency_p50_us: quantile_sorted(&sorted(o.lat_ns.clone()), 0.50) as f64 / 1e3,
                latency_p99_us: windowed_quantile(
                    &o.lat_ns,
                    inp.spec.latency_window as usize,
                    0.99,
                ) / 1e3,
                push_ns: c.push_ns.iter().map(|&n| n as u64).collect(),
                handshake_setup_us: handshake_us,
            },
        );
        if !adds_up {
            chk_t.failed += 1;
            chk_t.first_failure.get_or_insert_with(|| {
                "traced self-times do not add up to the traced request time".into()
            });
        }
        metrics.extend(per_layer);
        if let Some(path) = &cfg.span_file {
            if let Err(e) = write_spans(path, &inp, &tracer, read_ns) {
                info.push(format!("span_file_error={e}"));
            } else {
                info.push(format!("span_file={}", path.display()));
            }
        }
        report_window = c.window;
        layer_table = table;
        checkers.push(chk_c);
        checkers.push(chk_t);
        checkers.push(chk_o);
    }
    let Window {
        digest,
        counters,
        live_sessions: live,
        ..
    } = report_window.ok_or("count window not reached")?;
    info.push(format!("outcome_digest={digest:#018x}"));
    info.push(format!(
        "exact_counts policy.lookup_ops={} gateway.redirect_hops={} control.nacks={} net.session.live={}",
        counters.lookup_ops, counters.redirect_hops, counters.nacks, live
    ));
    let attempted: u64 = checkers.iter().map(|c| c.attempted).sum();
    let failed: u64 = checkers.iter().map(|c| c.failed).sum();
    let first_failure = checkers.iter().find_map(|c| c.first_failure.clone());
    info.push(format!(
        "failed_ratio={}",
        ratio(failed as f64, attempted as f64)
    ));
    Ok(Report {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics,
        info,
        first_failure,
        digest,
        counters,
        live_sessions: live,
        layer_table,
    })
}

/// Inputs of the per-layer metrics besides the spans.
struct LayerInputs {
    slowness: f64,
    untraced_rps: f64,
    traced_rps: f64,
    /// The count window of the untraced closed loop.
    window: Window,
    /// Tallies of the traced closed loop.
    traced: Tally,
    reduction: f64,
    lag_p99_us: f64,
    latency_p50_us: f64,
    latency_p99_us: f64,
    handshake_setup_us: f64,
    push_ns: Vec<u64>,
}

/// Per-layer metrics from the traced run. Returns the metrics, a layer
/// table, and whether the self-times add up to the traced busy time.
fn layer_metrics(tr: &Tracer, read_ns: f64, li: &LayerInputs) -> (Vec<Metric>, String, bool) {
    // Times at reference speed: raw span time less its clock reads, over
    // the traced phase's median host slowness.
    let f = if li.slowness > 0.0 { li.slowness } else { 1.0 };
    let adj = |l: Layer| (tr.layer(l).ns as f64 - tr.layer(l).calls as f64 * read_ns) / f;
    let mean = |l: Layer| ratio(adj(l), tr.layer(l).calls as f64);
    let handles = tr.layer(Layer::Handle).calls as f64;
    let parts: f64 = LAYERS
        .iter()
        .filter(|l| l.is_gateway_part())
        .map(|&l| adj(l))
        .sum();
    let busy_raw: u64 = [Root::Request, Root::ConnOpen, Root::Push]
        .iter()
        .map(|&r| tr.root(r).ns)
        .sum();
    let busy = busy_raw as f64 / f;
    let requests = tr.root(Root::Request).calls as f64;
    let top: Vec<Layer> = LAYERS
        .iter()
        .copied()
        .filter(|l| !l.is_gateway_part())
        .collect();
    let laps: u64 = top.iter().map(|&l| tr.layer(l).ns).sum();
    let reads: f64 = top.iter().map(|&l| tr.layer(l).calls as f64).sum::<f64>() * read_ns / f;
    // Own time of the benchmark: its code between calls plus every clock read.
    let bench_self = adj(Layer::Bench) + reads;
    let share = |ls: &[Layer]| ratio(ls.iter().map(|&l| adj(l)).sum::<f64>(), busy) * 100.0;
    let handle_sorted = sorted(tr.handle_ns.iter().map(|&n| n as u64).collect());
    let handle_median = quantile_sorted(&handle_sorted, 0.5);
    let stalls = handle_sorted
        .iter()
        .filter(|&&n| n > STALL_FACTOR * handle_median)
        .count() as f64;
    let w = &li.window.tally;
    let counters = li.window.counters;
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let metrics = vec![
        m("gateway.handle_request_ns", mean(Layer::Handle), "ns"),
        m(
            "gateway.glue_ns",
            ratio(adj(Layer::Handle) - parts, handles),
            "ns",
        ),
        m(
            "gateway.redirect_hops",
            counters.redirect_hops as f64,
            "count",
        ),
        m("gateway.stall_count", stalls, "count"),
        m("gateway.stall_ratio", ratio(stalls, handles), "ratio"),
        m("gateway.sandbox.admit_ns", mean(Layer::Admit), "ns"),
        m(
            "gateway.placement_ns",
            ratio(adj(Layer::Placement), handles),
            "ns",
        ),
        m("net.ecmp_select_ns", mean(Layer::Ecmp), "ns"),
        m(
            "gateway.redirector.dispatch_ns",
            mean(Layer::Dispatch),
            "ns",
        ),
        m("net.session.establish_ns", mean(Layer::Establish), "ns"),
        m("net.session.touch_ns", mean(Layer::Touch), "ns"),
        m("sim.cpu_submit_ns", mean(Layer::Submit), "ns"),
        m("net.session.live", li.window.live_sessions as f64, "count"),
        m("http.parse_ns", mean(Layer::Parse), "ns"),
        m(
            "http.parse_bytes",
            ratio(w.parse_bytes as f64, w.parses as f64),
            "bytes",
        ),
        m("http.route_ns", mean(Layer::Route), "ns"),
        m(
            "http.route_miss_ratio",
            ratio(w.route_misses as f64, (w.routed + w.route_misses) as f64),
            "ratio",
        ),
        m(
            "http.route_scan_depth",
            ratio(w.route_scan as f64, (w.routed + w.route_misses) as f64),
            "rules",
        ),
        m("policy.l7_verdict_ns", mean(Layer::Policy), "ns"),
        m("policy.lookup_ops", counters.lookup_ops as f64, "count"),
        m(
            "policy.deny_ratio",
            ratio(w.denied as f64, w.policy_evals as f64),
            "ratio",
        ),
        m("crypto.seal_ns", mean(Layer::Seal), "ns"),
        m(
            "crypto.open_ns",
            ratio(li.traced.open_ns as f64 / f, li.traced.opens as f64),
            "ns",
        ),
        m(
            "crypto.seal_mib_per_s",
            ratio(
                li.traced.open_bytes as f64 / (1024.0 * 1024.0),
                adj(Layer::Seal) / 1e9,
            ),
            "MiB/s",
        ),
        m(
            "crypto.handshake_us",
            if tr.layer(Layer::Handshake).calls > 0 {
                mean(Layer::Handshake) / 1e3
            } else {
                li.handshake_setup_us / f
            },
            "us",
        ),
        m("tunnel.encapsulate_ns", mean(Layer::Encap), "ns"),
        m("tunnel.session_close_ns", mean(Layer::Close), "ns"),
        m("vxlan.encode_ns", mean(Layer::Encode), "ns"),
        m(
            "tunnel.frame_bytes",
            ratio(w.frame_bytes as f64, w.frames as f64),
            "bytes",
        ),
        m("tunnel.reduction_factor", li.reduction, "ratio"),
        m(
            "control.policy_commit_us",
            mean(Layer::PolicyCommit) / 1e3,
            "us",
        ),
        m(
            "control.route_install_us",
            mean(Layer::RouteInstall) / 1e3,
            "us",
        ),
        m(
            "control.config_commit_us",
            mean(Layer::ConfigCommit) / 1e3,
            "us",
        ),
        m("control.nacks", counters.nacks as f64, "count"),
        m(
            "control.push_apply_p50_us",
            windowed_quantile(&li.push_ns, PUSH_WINDOW, 0.5) / 1e3,
            "us",
        ),
        m(
            "control.push_apply_p99_us",
            windowed_quantile(&li.push_ns, PUSH_WINDOW, 0.99) / 1e3,
            "us",
        ),
        m("latency_p50_us", li.latency_p50_us, "us"),
        m("latency_p99_us", li.latency_p99_us, "us"),
        m("bench.generator_lag_p99_us", li.lag_p99_us, "us"),
        m(
            "bench.trace_overhead_pct",
            ratio(li.untraced_rps - li.traced_rps, li.untraced_rps) * 100.0,
            "%",
        ),
        m(
            "bench.traced_busy_ns_per_request",
            ratio(busy, requests),
            "ns",
        ),
        m(
            "bench.self_ns_per_request",
            ratio(bench_self, requests),
            "ns",
        ),
    ];

    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<32} {:>12} {:>14} {:>8}",
        "span (self time)", "calls", "ns/call", "share%"
    );
    for &l in &LAYERS {
        let a = tr.layer(l);
        if a.calls == 0 {
            continue;
        }
        let own = if l == Layer::Handle {
            adj(l) - parts
        } else if l == Layer::Bench {
            bench_self
        } else {
            adj(l)
        };
        let name = if l.is_gateway_part() {
            format!("  {}", l.name())
        } else {
            l.name().to_string()
        };
        let _ = writeln!(
            table,
            "{:<32} {:>12} {:>14.1} {:>8.2}",
            name,
            a.calls,
            ratio(own, a.calls as f64),
            ratio(own, busy) * 100.0
        );
    }
    let _ = writeln!(
        table,
        "{:<32} {:>12} {:>14.1}",
        "busy (all root spans)",
        tr.root(Root::Request).calls,
        ratio(busy, requests)
    );
    let _ = writeln!(
        table,
        "shares of busy: gateway.handle_request {:.1}% | parse+route+policy {:.1}% | seal+handshake+control {:.1}% (control {:.1}%) | tunnel {:.1}% | bench {:.1}%",
        share(&[Layer::Handle]),
        share(&[Layer::Parse, Layer::Route, Layer::Policy]),
        share(&[Layer::Seal, Layer::Handshake, Layer::PolicyCommit, Layer::RouteInstall, Layer::ConfigCommit]),
        share(&[Layer::PolicyCommit, Layer::RouteInstall, Layer::ConfigCommit]),
        share(&[Layer::Encap, Layer::Encode, Layer::Close]),
        ratio(bench_self, busy) * 100.0
    );
    (metrics, table, laps == busy_raw)
}

fn write_spans(
    path: &std::path::Path,
    inp: &Inputs,
    tr: &Tracer,
    read_ns: f64,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{{\"workload\":\"{}\",\"seed\":{},\"clock_read_ns\":{read_ns},\"sample_every\":{SPAN_SAMPLE_EVERY}}}",
        inp.workload.name(),
        inp.seed
    );
    for rec in &tr.spans {
        let (name, parent) = match rec.layer {
            None => (rec.root.name(), "none"),
            Some(l) if l.is_gateway_part() => (l.name(), Layer::Handle.name()),
            Some(l) => (l.name(), rec.root.name()),
        };
        let _ = writeln!(
            s,
            "{{\"id\":{},\"root\":\"{}\",\"span\":\"{name}\",\"parent\":\"{parent}\",\"ns\":{}}}",
            rec.id,
            rec.root.name(),
            rec.ns
        );
    }
    std::fs::write(path, s)
}

/// The report as the one-line JSON object the benchmark prints last.
pub fn to_json(r: &Report) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct, r.attempted, r.failed
    );
    for (k, m) in r.metrics.iter().enumerate() {
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            if k > 0 { ", " } else { "" },
            m.name,
            m.unit
        );
    }
    s.push_str("}}");
    s
}
