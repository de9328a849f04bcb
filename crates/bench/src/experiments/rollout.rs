//! Config-rollout blast-radius experiment: one poisoned config change,
//! three distribution strategies.
//!
//! §2.2 names configuration as the mesh's primary outage vector. This
//! experiment scripts a *single* bad config change (a route table whose
//! entry points at a service no data plane knows — `at 20s fail
//! config-poison` in the shared [`FaultPlan`] DSL) and pushes it through
//! three arms under identical client arrivals:
//!
//! * **istio-full-push** — the change reaches every sidecar in one
//!   southbound push and each sidecar applies it blindly. Detection is
//!   human-scale (dashboards, pages): the whole fleet serves errors until
//!   an operator notices and re-pushes the old config.
//! * **ambient-waypoint** — per-waypoint sequential pushes, still applied
//!   blindly. The operator halts the push mid-flight, so exposure is
//!   partial but every already-pushed waypoint burned error budget.
//! * **canal** — the [`RolloutController`] canaries the change to a small
//!   wave of gateways whose [`ActiveConfig`] *validates before committing*:
//!   the poisoned spec is NACKed, serving continues from the running config
//!   (fail-static), and the controller rolls back automatically. The bad
//!   version is never committed anywhere.
//!
//! The canal arm additionally exercises the rest of the safe-rollout
//! machinery on the same timeline: a healthy rollout that converges in
//! exponential waves, a push attempted inside a scripted `config-push`
//! blackout (ack-timeout rollback; gateways keep serving — availability
//! stays 100%), and a *valid but degrading* change the health gate catches
//! during canary bake (blast radius bounded by the canary wave).
//!
//! Measured per arm: the fraction of the fleet that ever ran the bad
//! config, errors and 99.9%-SLO budget burned, availability, and
//! time-to-rollback. Everything is seeded; double runs are bit-identical
//! ([`BlastOutcome::digest`], asserted in `crates/bench/tests/rollout.rs`).
//!
//! [`RolloutController`]: canal_control::RolloutController
//! [`ActiveConfig`]: canal_gateway::ActiveConfig
//! [`FaultPlan`]: canal_sim::faults::FaultPlan

use crate::harness::{Check, ExperimentReport};
use canal_control::configure::ConfigPlane;
use canal_control::{
    AlertKind, HealthSample, RollbackReason, RolloutAction, RolloutConfig, RolloutController,
    RolloutResult, WaterLevelMonitor,
};
use canal_gateway::{ActiveConfig, ConfigSpec, RouteSpec};
use canal_mesh::arch::{Architecture, ClusterShape};
use canal_net::GlobalServiceId;
use canal_sim::faults::{FaultKind, FaultPlan, FaultState, FaultTarget, FaultTopology};
use canal_sim::output::{num, pct, Table};
use canal_sim::{Digest, SimDuration, SimRng, SimTime};
use std::collections::BTreeSet;

/// The one service every gateway has placed.
const SVC: GlobalServiceId = GlobalServiceId(7);
/// The service the poisoned route table points at — placed nowhere.
const BAD_SVC: GlobalServiceId = GlobalServiceId(404);
/// Operator detection delay for the blind-push arms (monitoring pipeline +
/// a human noticing), scaled by `time_scale`.
const DETECT_SECS: f64 = 15.0;
/// Ambient's per-waypoint push pacing (a policy constant, deliberately not
/// time-compressed so fast mode still shows partial exposure).
const AMBIENT_GAP_SECS: f64 = 1.0;
/// Probability an arrival served under the degrading config errors.
const DEGRADE_FAIL: f64 = 0.9;
/// The availability SLO the budget-burn metric is charged against (99.9%).
const SLO_ERROR_BUDGET: f64 = 0.001;
/// Steady tail latency fed to the health gate (content never changes it
/// here; the gate trips on error rate).
const STEADY_P99: SimDuration = SimDuration::from_millis(5);

/// Rollout run parameters.
#[derive(Debug, Clone, Copy)]
pub struct RolloutParams {
    /// Time compression: scripted fault times, detection delays, bake and
    /// ack windows are all multiplied by this.
    pub time_scale: f64,
    /// Offered load (requests/s).
    pub rps: f64,
    /// Data-plane fleet size (gateways / waypoints / sidecar'd pods).
    pub fleet: usize,
}

impl RolloutParams {
    /// The full run: a 90 s timeline, 24 proxies, 200 rps.
    pub fn full() -> Self {
        RolloutParams {
            time_scale: 1.0,
            rps: 200.0,
            fleet: 24,
        }
    }

    /// CI smoke mode: the same scenario compressed 4× on a smaller fleet.
    pub fn fast() -> Self {
        RolloutParams {
            time_scale: 0.25,
            rps: 120.0,
            fleet: 12,
        }
    }

    /// Scenario horizon (scaled).
    pub fn horizon(&self) -> SimDuration {
        SimDuration::from_secs(90).scale(self.time_scale)
    }

    /// Controller tick period (scaled).
    fn tick(&self) -> SimDuration {
        SimDuration::from_millis(500).scale(self.time_scale)
    }

    /// The canal arm's wave sizing and gates (scaled).
    fn rollout_cfg(&self) -> RolloutConfig {
        RolloutConfig {
            canary_size: 2,
            wave_growth: 4,
            bake_time: SimDuration::from_secs(5).scale(self.time_scale),
            ack_timeout: SimDuration::from_secs(4).scale(self.time_scale),
            max_error_delta: 0.01,
            max_p99_inflation: 1.5,
            ..RolloutConfig::default()
        }
    }
}

/// The scripted scenario, shared ground truth for all three arms. The
/// `config-poison` window covers the operator shipping the bad route table;
/// the `config-push` blackout covers a southbound channel outage a later
/// (valid) rollout runs into.
fn scripted_plan(scale: f64) -> FaultPlan {
    let s = |t: f64| format!("{}ms", (t * 1000.0 * scale) as u64);
    let script = format!(
        "# one bad config change, one push blackout (times x{scale})\n\
         at {t20} fail config-poison      # operator ships the bad route table\n\
         at {t30} recover config-poison   # source fixed upstream\n\
         at {t40} fail config-push        # southbound channel outage\n\
         at {t50} recover config-push\n",
        t20 = s(20.0),
        t30 = s(30.0),
        t40 = s(40.0),
        t50 = s(50.0),
    );
    FaultPlan::parse(&script).unwrap_or_default()
}

/// One precomputed client arrival.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    at: SimTime,
    gw: usize,
    /// Pre-drawn verdict should this arrival land on a degrading config.
    fail_draw: bool,
}

/// One deterministic Poisson stream, spread uniformly over the fleet.
fn arrivals(seed: u64, params: &RolloutParams) -> Vec<Arrival> {
    let horizon_s = params.horizon().as_secs_f64();
    let mut rng = SimRng::seed(seed ^ 0x0110_07CA_11A5_0B5E);
    let mut all = Vec::new();
    let mut t = 0.0;
    loop {
        t += rng.exponential(1.0 / params.rps);
        if t > horizon_s {
            break;
        }
        all.push(Arrival {
            at: SimTime::from_nanos((t * 1e9) as u64),
            gw: rng.index(params.fleet),
            fail_draw: rng.chance(DEGRADE_FAIL),
        });
    }
    all
}

/// One arm's blast-radius measurements for the poisoned change.
#[derive(Debug, Clone)]
pub struct ArmOutcome {
    /// Arm name (`canal`, `ambient-waypoint`, `istio-full-push`).
    pub name: &'static str,
    /// Fleet size.
    pub fleet: usize,
    /// Proxies that ever *ran* (committed) the bad config.
    pub exposed: usize,
    /// Requests offered over the horizon.
    pub offered: u64,
    /// Requests that errored because their proxy ran the bad config.
    pub errors: u64,
    /// Seconds from the bad push starting to the last proxy back on good
    /// config (for canal: to the automatic rollback completing).
    pub ttr_s: f64,
}

impl ArmOutcome {
    /// Fraction of the fleet that ever ran the bad config.
    pub fn exposed_fraction(&self) -> f64 {
        if self.fleet == 0 {
            return 0.0;
        }
        self.exposed as f64 / self.fleet as f64
    }

    /// 1 − errors/offered.
    pub fn availability(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        1.0 - self.errors as f64 / self.offered as f64
    }

    /// Error budget burned: errors over the 99.9%-SLO allowance for the
    /// horizon (1.0 = the whole budget, >1 = blown).
    pub fn budget_burned(&self) -> f64 {
        let budget = (self.offered as f64 * SLO_ERROR_BUDGET).max(1.0);
        self.errors as f64 / budget
    }

    fn fold_digest(&self, d: &mut Digest) {
        d.write_str(self.name)
            .write_u64(self.fleet as u64)
            .write_u64(self.exposed as u64)
            .write_u64(self.offered)
            .write_u64(self.errors)
            .write_f64(self.ttr_s);
    }
}

/// One audit-log row from the canal controller, pre-rendered for the
/// report table.
#[derive(Debug, Clone)]
pub struct AuditRow {
    /// Version driven.
    pub version: u64,
    /// Terminal result label.
    pub result: String,
    /// Waves pushed (canary counts as one).
    pub waves: usize,
    /// Targets the version was pushed to.
    pub exposed: usize,
    /// Begin → terminal, seconds.
    pub duration_s: f64,
}

/// The whole experiment's outcome.
#[derive(Debug, Clone)]
pub struct BlastOutcome {
    /// Per-arm results, in canal / ambient / istio order.
    pub arms: Vec<ArmOutcome>,
    /// Fleet size shared by every arm.
    pub fleet: usize,
    /// Canal's canary wave size.
    pub canary_size: usize,
    /// NACKs the canal gateways sent for the poisoned version.
    pub nacks: u64,
    /// Automatic rollbacks the controller performed.
    pub rollbacks: u64,
    /// Gateways that committed the valid-but-degrading version before the
    /// health gate rolled it back (must be ≤ canary).
    pub degrade_exposed: usize,
    /// Errors burned by the degrading canary before rollback.
    pub degrade_errors: u64,
    /// Availability inside the `config-push` blackout window (fail-static:
    /// must be 100%).
    pub blocked_availability: f64,
    /// Whether the rollout begun inside the blackout ended in an
    /// ack-timeout rollback (it could not have converged).
    pub blocked_timeout_rollback: bool,
    /// Whether the initial healthy rollout converged fleet-wide.
    pub healthy_converged: bool,
    /// Waves the healthy rollout used.
    pub healthy_waves: usize,
    /// Targets the healthy rollout reached (must equal the fleet).
    pub healthy_exposed: usize,
    /// `ConfigRollout` alerts the water-level monitor raised.
    pub rollout_alerts: u64,
    /// Southbound pushes dropped by the scripted blackout.
    pub dropped_pushes: u64,
    /// Whether every `Rollback` the controller emitted targeted a version
    /// the fleet had actually converged on (or 0), never a poisoned or
    /// never-committed one.
    pub rollback_targets_good: bool,
    /// Controller + gateway state digest from the canal arm.
    pub canal_state_digest: u64,
    /// The canal controller's per-version audit log.
    pub audit: Vec<AuditRow>,
}

impl BlastOutcome {
    /// The outcome for one arm.
    pub fn arm(&self, name: &str) -> Option<&ArmOutcome> {
        self.arms.iter().find(|a| a.name == name)
    }

    /// Fold the complete outcome into one value: equal seeds must produce
    /// equal digests, bit for bit.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        for a in &self.arms {
            a.fold_digest(&mut d);
        }
        d.write_u64(self.fleet as u64)
            .write_u64(self.canary_size as u64)
            .write_u64(self.nacks)
            .write_u64(self.rollbacks)
            .write_u64(self.degrade_exposed as u64)
            .write_u64(self.degrade_errors)
            .write_f64(self.blocked_availability)
            .write_u64(u64::from(self.blocked_timeout_rollback))
            .write_u64(u64::from(self.healthy_converged))
            .write_u64(self.healthy_waves as u64)
            .write_u64(self.healthy_exposed as u64)
            .write_u64(self.rollout_alerts)
            .write_u64(self.dropped_pushes)
            .write_u64(u64::from(self.rollback_targets_good))
            .write_u64(self.canal_state_digest);
        d.value()
    }

    /// The safe-rollout invariant the `rollout` binary gates on: the
    /// poisoned version is never committed anywhere under canal (blast
    /// radius 0, availability 100% — fail-static), rollback is automatic
    /// and far faster than operator-detection arms, the degrading change is
    /// contained to the canary wave, the blackout never degrades serving,
    /// and the healthy rollout still converges fleet-wide.
    pub fn rollout_ok(&self) -> bool {
        let (Some(canal), Some(ambient), Some(istio)) = (
            self.arm("canal"),
            self.arm("ambient-waypoint"),
            self.arm("istio-full-push"),
        ) else {
            return false;
        };
        canal.exposed == 0
            && canal.errors == 0
            && self.nacks > 0
            && self.rollbacks >= 2
            && self.degrade_exposed >= 1
            && self.degrade_exposed <= self.canary_size
            && self.blocked_availability == 1.0
            && self.blocked_timeout_rollback
            && self.rollback_targets_good
            && self.healthy_converged
            && self.healthy_exposed == self.fleet
            && canal.ttr_s < istio.ttr_s
            && ambient.exposed > canal.exposed
            && ambient.exposed < istio.exposed
            && istio.exposed == self.fleet
    }
}

/// Scripted timeline helpers derived from the plan.
struct Timeline {
    /// When the poisoned change ships.
    t_bad: SimTime,
    /// `config-push` blackout window.
    blocked_from: SimTime,
    blocked_to: SimTime,
}

fn timeline(plan: &FaultPlan) -> Timeline {
    let find = |target: FaultTarget, kind: FaultKind| {
        plan.events()
            .iter()
            .find(|e| e.target == target && e.kind == kind)
            .map(|e| e.at)
            .unwrap_or(SimTime::MAX)
    };
    Timeline {
        t_bad: find(FaultTarget::ConfigPoison, FaultKind::Crash),
        blocked_from: find(FaultTarget::ConfigPush, FaultKind::Crash),
        blocked_to: find(FaultTarget::ConfigPush, FaultKind::Recover),
    }
}

/// The route table content for `version`: good unless the config source was
/// poisoned when the version was cut.
fn spec_for(version: u64, poisoned: bool) -> ConfigSpec {
    let routes = if poisoned {
        vec![RouteSpec {
            service: BAD_SVC,
            backends: vec![0],
        }]
    } else {
        vec![RouteSpec {
            service: SVC,
            backends: vec![0, 1],
        }]
    };
    ConfigSpec { version, routes }
}

/// Everything the canal arm produces beyond its [`ArmOutcome`].
struct CanalRun {
    arm: ArmOutcome,
    nacks: u64,
    rollbacks: u64,
    degrade_exposed: usize,
    degrade_errors: u64,
    blocked_offered: u64,
    blocked_errors: u64,
    blocked_timeout_rollback: bool,
    healthy_converged: bool,
    healthy_waves: usize,
    healthy_exposed: usize,
    rollout_alerts: u64,
    dropped_pushes: u64,
    rollback_targets_good: bool,
    state_digest: u64,
    audit: Vec<AuditRow>,
}

/// Drive the canal arm: controller ticks, fail-static gateways, the
/// scripted faults, and the four scheduled config changes (healthy,
/// poisoned, blackout-stalled, degrading).
fn run_canal(seed: u64, params: &RolloutParams, plan: &FaultPlan, stream: &[Arrival]) -> CanalRun {
    let ts = params.time_scale;
    let tl = timeline(plan);
    let tick = params.tick();
    let ticks = params.horizon().as_nanos() / tick.as_nanos();
    let baseline = HealthSample {
        error_rate: 0.0,
        p99: STEADY_P99,
    };

    let mut ctl = RolloutController::new(params.rollout_cfg(), SimDuration::ZERO);
    for t in 0..params.fleet as u32 {
        ctl.add_target(t);
    }
    let mut gws: Vec<ActiveConfig> =
        (0..params.fleet).map(|_| ActiveConfig::with_ctx(BTreeSet::from([SVC]))).collect();
    let mut committed: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); params.fleet];
    let mut running: Vec<u64> = vec![0; params.fleet];

    let mut state = FaultState::new(&FaultTopology {
        backends: Vec::new(),
    });
    let mut monitor = WaterLevelMonitor::new();
    let mut rng = SimRng::seed(seed ^ 0xCA11_0077_5AFE_0001);

    // The four scheduled changes (seconds, then scaled): a healthy rollout,
    // the poisoned one (content keyed off the scripted fault state), one
    // that lands inside the push blackout, and a valid-but-degrading one.
    let begin_at = |secs: f64| SimTime::from_nanos((secs * ts * 1e9) as u64);
    let schedule = [
        (begin_at(0.0), false),
        (tl.t_bad, false),
        (begin_at(42.0), false),
        (begin_at(60.0), true),
    ];
    let mut next_begin = 0usize;

    let mut poisoned_versions: BTreeSet<u64> = BTreeSet::new();
    let mut degrading_version: Option<u64> = None;

    let mut ev_idx = 0usize;
    let mut ar_idx = 0usize;
    let mut window_offered = 0u64;
    let mut window_errors = 0u64;
    let mut errors_poison = 0u64;
    let mut degrade_errors = 0u64;
    let mut blocked_offered = 0u64;
    let mut blocked_errors = 0u64;
    let mut nacks = 0u64;
    let mut dropped_pushes = 0u64;
    let mut bad_rollback_targets = 0u64;

    for step in 0..=ticks {
        let now = SimTime::from_nanos(tick.as_nanos() * step);

        // 1. Scripted ground truth advances.
        while ev_idx < plan.events().len() && plan.events()[ev_idx].at <= now {
            state.apply(&plan.events()[ev_idx]);
            ev_idx += 1;
        }

        // 2. Arrivals since the last tick, served from each gateway's
        //    *running* (last committed) config — fail-static by
        //    construction.
        while ar_idx < stream.len() && stream[ar_idx].at <= now {
            let a = stream[ar_idx];
            ar_idx += 1;
            window_offered += 1;
            let rv = running[a.gw];
            let mut err = false;
            if rv > 0 && poisoned_versions.contains(&rv) {
                errors_poison += 1;
                err = true;
            } else if degrading_version == Some(rv) && a.fail_draw {
                degrade_errors += 1;
                err = true;
            }
            if err {
                window_errors += 1;
            }
            if a.at >= tl.blocked_from && a.at < tl.blocked_to {
                blocked_offered += 1;
                if err {
                    blocked_errors += 1;
                }
            }
        }

        // 3. Health over the last tick window (none when idle traffic-wise).
        let health = if window_offered > 0 {
            Some(HealthSample {
                error_rate: window_errors as f64 / window_offered as f64,
                p99: STEADY_P99,
            })
        } else {
            None
        };
        window_offered = 0;
        window_errors = 0;

        // 4. Scheduled changes + the controller's own state machine.
        let mut actions: Vec<RolloutAction> = Vec::new();
        if next_begin < schedule.len() && now >= schedule[next_begin].0 && !ctl.in_flight() {
            let degrading = schedule[next_begin].1;
            next_begin += 1;
            actions.extend(ctl.begin(now, true, baseline, &mut rng));
            let version = ctl.store().version();
            if state.config_poisoned() {
                poisoned_versions.insert(version);
            }
            if degrading {
                degrading_version = Some(version);
            }
        }
        actions.extend(ctl.tick(now, health));

        // 5. Apply actions to the data plane. A blocked southbound channel
        //    drops the push entirely; gateways keep serving their running
        //    config and the controller's ack timeout cleans up.
        for action in actions {
            match action {
                RolloutAction::Push { version, targets, .. } => {
                    if state.config_blocked() {
                        dropped_pushes += 1;
                        continue;
                    }
                    let poisoned = poisoned_versions.contains(&version);
                    for t in targets {
                        let gw = &mut gws[t as usize];
                        gw.stage(spec_for(version, poisoned));
                        match gw.commit_staged(now) {
                            Ok(v) => {
                                running[t as usize] = v;
                                committed[t as usize].insert(v);
                                ctl.ack(t, v, now);
                            }
                            Err(_rejection) => {
                                nacks += 1;
                                ctl.nack(t, version);
                            }
                        }
                    }
                }
                RolloutAction::Rollback { to, targets, .. } => {
                    // A rollback may only restore a version the fleet
                    // actually converged on (or 0 = nothing ever
                    // committed), and never a poisoned one. Count
                    // violations so the blast-radius gate fails if the
                    // controller ever "restores" a rejected or
                    // never-committed version.
                    let target_good = to == 0
                        || (!poisoned_versions.contains(&to)
                            && ctl.outcomes().iter().any(|o| {
                                o.version == to && o.result == RolloutResult::Converged
                            }));
                    if !target_good {
                        bad_rollback_targets += 1;
                    }
                    if state.config_blocked() {
                        dropped_pushes += 1;
                        continue;
                    }
                    if to == 0 {
                        continue; // nothing ever committed; fail-static holds
                    }
                    // Materialize the target's real content — poisoned if
                    // that version was cut from a poisoned source — so a
                    // bad rollback target is validated (and exposed) like
                    // any other push, not silently laundered into a good
                    // config.
                    let poisoned = poisoned_versions.contains(&to);
                    for t in targets {
                        if gws[t as usize]
                            .roll_back_to(now, spec_for(to, poisoned))
                            .is_ok()
                        {
                            running[t as usize] = to;
                            committed[t as usize].insert(to);
                        }
                    }
                }
            }
        }

        // 6. The control plane's monitor sees the rollout dimension.
        monitor.ingest_rollout(now, ctl.in_flight(), ctl.rollbacks());
    }

    // Post-run bookkeeping from the controller's audit log.
    let outcomes = ctl.outcomes();
    let healthy = outcomes.front();
    let blocked_outcome = outcomes
        .iter()
        .find(|o| o.result == RolloutResult::RolledBack(RollbackReason::AckTimeout));
    let poison_outcome = outcomes
        .iter()
        .find(|o| poisoned_versions.contains(&o.version));
    let committed_poison = committed
        .iter()
        .filter(|set| set.iter().any(|v| poisoned_versions.contains(v)))
        .count();
    let degrade_exposed = degrading_version
        .map(|dv| committed.iter().filter(|set| set.contains(&dv)).count())
        .unwrap_or(0);
    let rollout_alerts = monitor
        .alerts()
        .iter()
        .filter(|(_, k)| *k == AlertKind::ConfigRollout)
        .count() as u64;

    let mut d = Digest::new();
    ctl.fold_digest(&mut d);
    for gw in &gws {
        gw.fold_digest(&mut d);
    }
    d.write_u64(nacks)
        .write_u64(dropped_pushes)
        .write_u64(bad_rollback_targets);

    CanalRun {
        arm: ArmOutcome {
            name: "canal",
            fleet: params.fleet,
            exposed: committed_poison,
            offered: stream.len() as u64,
            errors: errors_poison,
            ttr_s: poison_outcome
                .map(|o| o.ended_at.since(o.started_at).as_secs_f64())
                .unwrap_or(f64::INFINITY),
        },
        nacks,
        rollbacks: ctl.rollbacks(),
        degrade_exposed,
        degrade_errors,
        blocked_offered,
        blocked_errors,
        blocked_timeout_rollback: blocked_outcome.is_some(),
        healthy_converged: healthy.is_some_and(|o| o.result == RolloutResult::Converged),
        healthy_waves: healthy.map(|o| o.waves_pushed).unwrap_or(0),
        healthy_exposed: healthy.map(|o| o.exposed_targets).unwrap_or(0),
        rollout_alerts,
        dropped_pushes,
        rollback_targets_good: bad_rollback_targets == 0,
        state_digest: d.value(),
        audit: outcomes
            .iter()
            .map(|o| AuditRow {
                version: o.version,
                result: match o.result {
                    RolloutResult::Converged => "converged".to_string(),
                    RolloutResult::FailedValidation => "failed validation".to_string(),
                    RolloutResult::RolledBack(RollbackReason::Nack { target }) => {
                        format!("rolled back (NACK from gw {target})")
                    }
                    RolloutResult::RolledBack(RollbackReason::HealthRegression) => {
                        "rolled back (health regression)".to_string()
                    }
                    RolloutResult::RolledBack(RollbackReason::AckTimeout) => {
                        "rolled back (ack timeout)".to_string()
                    }
                },
                waves: o.waves_pushed,
                exposed: o.exposed_targets,
                duration_s: o.ended_at.since(o.started_at).as_secs_f64(),
            })
            .collect(),
    }
}

/// The istio arm: one full southbound push, blind apply, operator-scale
/// detection, one full rollback push.
fn run_istio(params: &RolloutParams, plan: &FaultPlan, stream: &[Arrival]) -> ArmOutcome {
    let tl = timeline(plan);
    let push = ConfigPlane::new(Architecture::Sidecar)
        .push_update(&ClusterShape::production(params.fleet))
        .push_time
        .scale(params.time_scale);
    let detect = SimDuration::from_secs_f64(DETECT_SECS).scale(params.time_scale);
    let applied = tl.t_bad + push;
    let restored = tl.t_bad + detect + push;
    let errors = stream
        .iter()
        .filter(|a| a.at >= applied && a.at < restored)
        .count() as u64;
    ArmOutcome {
        name: "istio-full-push",
        fleet: params.fleet,
        exposed: params.fleet,
        offered: stream.len() as u64,
        errors,
        ttr_s: (detect + push).as_secs_f64(),
    }
}

/// The ambient arm: per-waypoint sequential pushes, blind apply, halted
/// mid-flight at operator detection, sequential rollback at the same pace.
fn run_ambient(params: &RolloutParams, plan: &FaultPlan, stream: &[Arrival]) -> ArmOutcome {
    let tl = timeline(plan);
    let gap = SimDuration::from_secs_f64(AMBIENT_GAP_SECS);
    let detect = SimDuration::from_secs_f64(DETECT_SECS).scale(params.time_scale);
    let exposed = ((detect.as_nanos() / gap.as_nanos()) as usize + 1).min(params.fleet);
    let halt = tl.t_bad + detect;
    let errors = stream
        .iter()
        .filter(|a| {
            if a.gw >= exposed {
                return false;
            }
            let applied = tl.t_bad + gap.times(a.gw as u64);
            let restored = halt + gap.times(a.gw as u64 + 1);
            a.at >= applied && a.at < restored
        })
        .count() as u64;
    ArmOutcome {
        name: "ambient-waypoint",
        fleet: params.fleet,
        exposed,
        offered: stream.len() as u64,
        errors,
        ttr_s: (detect + gap.times(exposed as u64)).as_secs_f64(),
    }
}

/// Run the whole blast-radius scenario. Fully deterministic in `seed`.
pub fn run_rollout(seed: u64, params: &RolloutParams) -> BlastOutcome {
    let plan = scripted_plan(params.time_scale);
    let stream = arrivals(seed, params);
    let canal = run_canal(seed, params, &plan, &stream);
    let ambient = run_ambient(params, &plan, &stream);
    let istio = run_istio(params, &plan, &stream);
    let blocked_availability = if canal.blocked_offered == 0 {
        1.0
    } else {
        1.0 - canal.blocked_errors as f64 / canal.blocked_offered as f64
    };
    BlastOutcome {
        arms: vec![canal.arm.clone(), ambient, istio],
        fleet: params.fleet,
        canary_size: params.rollout_cfg().canary_size,
        nacks: canal.nacks,
        rollbacks: canal.rollbacks,
        degrade_exposed: canal.degrade_exposed,
        degrade_errors: canal.degrade_errors,
        blocked_availability,
        blocked_timeout_rollback: canal.blocked_timeout_rollback,
        healthy_converged: canal.healthy_converged,
        healthy_waves: canal.healthy_waves,
        healthy_exposed: canal.healthy_exposed,
        rollout_alerts: canal.rollout_alerts,
        dropped_pushes: canal.dropped_pushes,
        rollback_targets_good: canal.rollback_targets_good,
        canal_state_digest: canal.state_digest,
        audit: canal.audit,
    }
}

/// The `rollout` experiment (full-scale run).
pub fn rollout(seed: u64) -> ExperimentReport {
    report_for(seed, &RolloutParams::full())
}

/// Build the report for the given parameters (the `rollout` binary's
/// `--fast` smoke mode reuses this with [`RolloutParams::fast`]).
pub fn report_for(seed: u64, params: &RolloutParams) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "rollout",
        "safe config rollout: blast radius of one poisoned change across push strategies",
    );
    let outcome = run_rollout(seed, params);

    let mut blast = Table::new(
        "blast radius of the poisoned change",
        &[
            "arm",
            "exposed",
            "fleet",
            "exposed %",
            "errors",
            "availability",
            "budget burned",
            "ttr s",
        ],
    );
    for a in &outcome.arms {
        blast.row(&[
            a.name.to_string(),
            a.exposed.to_string(),
            a.fleet.to_string(),
            pct(a.exposed_fraction()),
            a.errors.to_string(),
            pct(a.availability()),
            num(a.budget_burned()),
            num(a.ttr_s),
        ]);
    }
    report.tables.push(blast);

    let mut audit = Table::new(
        "canal rollout audit log",
        &["version", "result", "waves", "exposed", "duration s"],
    );
    for row in &outcome.audit {
        audit.row(&[
            row.version.to_string(),
            row.result.clone(),
            row.waves.to_string(),
            row.exposed.to_string(),
            num(row.duration_s),
        ]);
    }
    report.tables.push(audit);

    // Paper-scale southbound cost of the push strategies (Fig. 14/15
    // dimensions applied to the rollout): even a canaried per-pod push pays
    // per-pod bytes, while canal reconfigures one logical target.
    let shape = ClusterShape::production(15_000);
    let sidecar_plane = ConfigPlane::new(Architecture::Sidecar);
    let ambient_plane = ConfigPlane::new(Architecture::Ambient);
    let canal_plane = ConfigPlane::new(Architecture::Canal);
    let istio_full = sidecar_plane.push_update(&shape);
    let istio_canary = sidecar_plane.push_wave(&shape, outcome.canary_size);
    let ambient_full = ambient_plane.push_update(&shape);
    let canal_full = canal_plane.push_update(&shape);
    let mut south = Table::new(
        "southbound push cost at paper scale (15k pods)",
        &["push", "targets", "bytes", "push time s"],
    );
    for (label, r) in [
        ("istio full", &istio_full),
        ("istio canary wave", &istio_canary),
        ("ambient full", &ambient_full),
        ("canal full", &canal_full),
    ] {
        south.row(&[
            label.to_string(),
            r.targets.to_string(),
            r.southbound_bytes.to_string(),
            num(r.push_time.as_secs_f64()),
        ]);
    }
    report.tables.push(south);

    let canal = outcome.arm("canal");
    let ambient = outcome.arm("ambient-waypoint");
    let istio = outcome.arm("istio-full-push");
    if let (Some(canal), Some(ambient), Some(istio)) = (canal, ambient, istio) {
        report.checks.push(Check::cond(
            "canal never commits the poisoned version",
            "semantic validation NACKs at the canary; blast radius 0",
            &format!("{} of {} gateways, {} NACKs", canal.exposed, canal.fleet, outcome.nacks),
            canal.exposed == 0 && outcome.nacks > 0,
        ));
        report.checks.push(Check::cond(
            "fail-static serving keeps availability at 100%",
            "rejected pushes never degrade the data plane",
            &pct(canal.availability()),
            canal.errors == 0,
        ));
        report.checks.push(Check::cond(
            "rollback is automatic",
            "NACK, ack-timeout and health-gate rollbacks, no operator",
            &format!("{} rollbacks", outcome.rollbacks),
            outcome.rollbacks >= 2,
        ));
        report.checks.push(Check::cond(
            "rollbacks restore only converged versions",
            "last-known-good is the last converged version, never a poisoned or never-committed one",
            &format!("all targets good: {}", outcome.rollback_targets_good),
            outcome.rollback_targets_good,
        ));
        report.checks.push(Check::cond(
            "degrading change contained to the canary wave",
            "health gate trips during bake, before wave 2",
            &format!(
                "{} of {} gateways (canary {})",
                outcome.degrade_exposed, outcome.fleet, outcome.canary_size
            ),
            outcome.degrade_exposed >= 1 && outcome.degrade_exposed <= outcome.canary_size,
        ));
        report.checks.push(Check::cond(
            "blocked push fails static",
            "blackout window serves at 100%; stalled rollout times out and rolls back",
            &format!(
                "{} availability, timeout rollback {}",
                pct(outcome.blocked_availability),
                outcome.blocked_timeout_rollback
            ),
            outcome.blocked_availability == 1.0 && outcome.blocked_timeout_rollback,
        ));
        report.checks.push(Check::cond(
            "healthy rollout converges in exponential waves",
            "canary then growing waves reach the whole fleet",
            &format!(
                "{} waves over {} targets",
                outcome.healthy_waves, outcome.healthy_exposed
            ),
            outcome.healthy_converged
                && outcome.healthy_exposed == outcome.fleet
                && outcome.healthy_waves >= 3,
        ));
        report.checks.push(Check::cond(
            "blind pushes burn the fleet",
            "istio exposes 100%; ambient halts mid-push (partial)",
            &format!(
                "istio {} / ambient {} / canal {}",
                istio.exposed, ambient.exposed, canal.exposed
            ),
            istio.exposed == outcome.fleet
                && ambient.exposed < istio.exposed
                && ambient.exposed > canal.exposed,
        ));
        report.checks.push(Check::band(
            "canal time-to-rollback vs istio",
            "automatic NACK rollback ≪ operator detection",
            canal.ttr_s / istio.ttr_s.max(1e-9),
            0.0,
            0.1,
        ));
        report.checks.push(Check::cond(
            "rollout surfaces as a monitor dimension",
            "ConfigRollout alerts on flight starts and rollbacks",
            &format!("{} alerts", outcome.rollout_alerts),
            outcome.rollout_alerts >= 4,
        ));
        report.checks.push(Check::band(
            "paper-scale southbound blow-up, istio full vs canal",
            "O(100x)+ more bytes for a fleet-wide sidecar push",
            istio_full.southbound_bytes as f64 / canal_full.southbound_bytes.max(1) as f64,
            100.0,
            f64::INFINITY,
        ));
    }
    report
}
