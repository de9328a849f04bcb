//! The three traffic mixes and the fixed parameters each one runs with.
//!
//! Every number here is part of the benchmark definition: changing one
//! changes what the benchmark measures, so it is a benchmark change, not a
//! program change.

use canal_gateway::GatewayConfig;
use canal_sim::SimDuration;

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every request is a new L4 flow carrying 64 B.
    L4ConnChurn,
    /// HTTP/1.1 API calls over a fixed pool of keep-alive mTLS connections.
    L7Api,
    /// Bulk transfers over short-lived connections, with control pushes.
    TenantChurn,
}

/// Fixed parameters of one workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Offered rate of the open-loop phase, requests per second at
    /// reference speed: about a third of the closed-loop capacity measured
    /// on the commit that defined the benchmark (release build, 2 cores).
    /// At half, host noise the reference speed does not capture pushed the
    /// load near saturation often enough to make p99 unrepeatable.
    pub open_rate: f64,
    /// Requests per check epoch: outputs of one epoch are kept, then
    /// checked with the clock stopped.
    pub epoch: u64,
    /// Untimed requests at the start of every phase (whole epochs).
    pub warmup: u64,
    /// Requests, from the start of the closed-loop phase, over which the
    /// outcome digest and the exact counters are taken (whole epochs).
    pub count_window: u64,
    /// Consecutive open-loop requests per latency window (and open-loop
    /// epoch): the reported percentiles are medians over windows.
    pub latency_window: u64,
    /// Simulated time between consecutive requests.
    pub sim_step: SimDuration,
    /// Tenants, and services per tenant.
    pub tenants: usize,
    /// Services per tenant.
    pub services_per_tenant: usize,
    /// Gateway shape.
    pub gateway: GatewayConfig,
}

/// The fig20 gateway shape: 2 AZ x 6 backends x 3 replicas.
fn fig20_gateway(sessions_per_replica: usize, idle: SimDuration) -> GatewayConfig {
    GatewayConfig {
        azs: 2,
        backends_per_az: 6,
        replicas_per_backend: 3,
        sessions_per_replica,
        session_idle_timeout: idle,
        ..GatewayConfig::default()
    }
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::L4ConnChurn,
        Workload::L7Api,
        Workload::TenantChurn,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::L4ConnChurn => "l4_conn_churn",
            Workload::L7Api => "l7_api",
            Workload::TenantChurn => "tenant_churn",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's fixed parameters.
    pub fn spec(self) -> WorkloadSpec {
        match self {
            // Sessions: 36 replicas of 1024 sessions. With 1 us of simulated
            // time per request and a 10 ms idle timeout, a replica sees
            // about 280 new flows per timeout, so each table fills, its next
            // SYN runs one expire_idle scan that ages out about three
            // quarters of it, and no SYN is refused.
            Workload::L4ConnChurn => WorkloadSpec {
                open_rate: 170_000.0,
                epoch: 4096,
                warmup: 4096 * 28,
                count_window: 4096 * 32,
                latency_window: 4096,
                sim_step: SimDuration::from_micros(1),
                tenants: 3,
                services_per_tenant: 4,
                gateway: fig20_gateway(1024, SimDuration::from_millis(10)),
            },
            Workload::L7Api => WorkloadSpec {
                open_rate: 33_000.0,
                epoch: 4096,
                warmup: 4096 * 2,
                count_window: 4096 * 8,
                latency_window: 4096,
                sim_step: SimDuration::from_micros(20),
                tenants: 3,
                services_per_tenant: 4,
                gateway: fig20_gateway(100_000, SimDuration::from_secs(300)),
            },
            Workload::TenantChurn => WorkloadSpec {
                open_rate: 1_800.0,
                epoch: 128,
                warmup: 128 * 4,
                count_window: 128 * 16,
                latency_window: 1024,
                sim_step: SimDuration::from_micros(200),
                tenants: 4,
                services_per_tenant: 2,
                gateway: fig20_gateway(100_000, SimDuration::from_secs(300)),
            },
        }
    }
}

/// Keep-alive connections in the `l7_api` pool.
pub const L7_CONNECTIONS: usize = 64;
/// Requests a `tenant_churn` connection carries before it closes (K).
pub const CHURN_REQUESTS_PER_CONN: u64 = 8;
/// Requests between two `tenant_churn` control pushes (M).
pub const CHURN_REQUESTS_PER_PUSH: u64 = 7;
/// One in this many `tenant_churn` pushes is invalid and must be NACKed.
pub const CHURN_INVALID_EVERY: u64 = 5;
/// Policy and route variants the `tenant_churn` pushes cycle through.
pub const CHURN_VARIANTS: usize = 8;
/// Policy rules per tenant.
pub const RULES_PER_TENANT: usize = 64;
/// `l4_conn_churn` flows stay open in the tunnel aggregator for this many
/// later flows before they are closed.
pub const L4_FLOW_LIFETIME: u64 = 4096;
