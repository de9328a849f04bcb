//! Version-skew-safe gateway configuration: the route-config artifact.
//!
//! [`ActiveConfig`] is the gateway's [`FailStatic`] pair over
//! [`ConfigSpec`]; the stage → fence → validate → commit-or-NACK cycle
//! and its fail-static guarantee live in [`crate::failstatic`]. This module
//! holds what is particular to configs: the spec, its digest, and the
//! content checks — a route to a service the gateway does not know, an
//! empty backend set, a duplicate route — that a commit NACKs with a
//! [`ConfigRejection`].

use crate::failstatic::{Artifact, FailStatic, Lifecycle};
use crate::gateway::BackendId;
use canal_net::GlobalServiceId;
use canal_sim::{Digest, SimTime};
use std::collections::BTreeSet;

/// One route entry in a pushed config: a service and the backend set its
/// traffic may use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteSpec {
    /// The routed service.
    pub service: GlobalServiceId,
    /// Backends the route may send to. Empty is semantically invalid.
    pub backends: Vec<BackendId>,
}

/// A versioned config push: the unit the control plane distributes and the
/// rollout controller canaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigSpec {
    /// Monotone version from `VersionedConfigStore`.
    pub version: u64,
    /// Route table content.
    pub routes: Vec<RouteSpec>,
}

/// Why a staged config was rejected instead of committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigRejection {
    /// A route references a service this gateway has never had placed.
    UnknownService(GlobalServiceId),
    /// A route carries an empty backend set — committing it would blackhole
    /// the service.
    EmptyBackendSet(GlobalServiceId),
    /// Two routes name the same service; which one wins would be ambiguous.
    DuplicateRoute(GlobalServiceId),
    /// [`Lifecycle::StaleVersion`].
    StaleVersion {
        /// Version of the staged config.
        staged: u64,
        /// Version currently running.
        running: u64,
    },
    /// [`Lifecycle::NothingStaged`].
    NothingStaged,
    /// [`Lifecycle::StaleEpoch`].
    StaleEpoch {
        /// Epoch the push carried.
        pushed: u64,
        /// Highest controller epoch this gateway has observed.
        floor: u64,
    },
}

impl std::fmt::Display for ConfigRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigRejection::UnknownService(s) => write!(f, "route to unknown service {s}"),
            ConfigRejection::EmptyBackendSet(s) => write!(f, "empty backend set for {s}"),
            ConfigRejection::DuplicateRoute(s) => write!(f, "duplicate route for {s}"),
            ConfigRejection::StaleVersion { staged, running } => {
                write!(f, "stale version {staged} (running {running})")
            }
            ConfigRejection::NothingStaged => write!(f, "nothing staged"),
            ConfigRejection::StaleEpoch { pushed, floor } => {
                write!(f, "fenced push from stale controller epoch {pushed} (floor {floor})")
            }
        }
    }
}

impl From<Lifecycle> for ConfigRejection {
    fn from(l: Lifecycle) -> Self {
        match l {
            Lifecycle::StaleVersion { staged, running } => Self::StaleVersion { staged, running },
            Lifecycle::NothingStaged => Self::NothingStaged,
            Lifecycle::StaleEpoch { pushed, floor } => Self::StaleEpoch { pushed, floor },
        }
    }
}

/// The `{running, staged}` config pair a gateway serves from, validating
/// routes against the services it knows (its context).
pub type ActiveConfig = FailStatic<ConfigSpec>;

impl Artifact for ConfigSpec {
    type Ctx = BTreeSet<GlobalServiceId>;
    type Compiled = ();
    type Reject = ConfigRejection;

    fn version(&self) -> u64 {
        self.version
    }

    /// Every route names a known service, exactly once, with a non-empty
    /// backend set.
    fn validate(
        &self,
        known_services: &BTreeSet<GlobalServiceId>,
        _now: SimTime,
        _running: Option<&Self>,
    ) -> Result<(), ConfigRejection> {
        let mut seen = BTreeSet::new();
        for r in &self.routes {
            if !seen.insert(r.service) {
                return Err(ConfigRejection::DuplicateRoute(r.service));
            }
            if !known_services.contains(&r.service) {
                return Err(ConfigRejection::UnknownService(r.service));
            }
            if r.backends.is_empty() {
                return Err(ConfigRejection::EmptyBackendSet(r.service));
            }
        }
        Ok(())
    }

    fn fold_digest(&self, d: &mut Digest) {
        d.write_u64(self.version);
        d.write_u64(self.routes.len() as u64);
        for r in &self.routes {
            d.write_u64(r.service.0);
            d.write_u64(r.backends.len() as u64);
            for &b in &r.backends {
                d.write_u64(b as u64);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn known(ids: &[u64]) -> BTreeSet<GlobalServiceId> {
        ids.iter().map(|&i| GlobalServiceId(i)).collect()
    }

    pub(crate) fn spec(version: u64, routes: &[(u64, &[BackendId])]) -> ConfigSpec {
        ConfigSpec {
            version,
            routes: routes
                .iter()
                .map(|&(s, b)| RouteSpec {
                    service: GlobalServiceId(s),
                    backends: b.to_vec(),
                })
                .collect(),
        }
    }

    #[test]
    fn poisoned_config_rejected_fail_static() {
        let mut ac = ActiveConfig::with_ctx(known(&[7]));
        ac.stage(spec(1, &[(7, &[0])]));
        ac.commit_staged(SimTime::ZERO).ok();
        // Route to unknown service 9: NACK, keep serving v1.
        ac.stage(spec(2, &[(9, &[0])]));
        let r = ac.commit_staged(SimTime::from_secs(5));
        assert_eq!(r, Err(ConfigRejection::UnknownService(GlobalServiceId(9))));
        assert_eq!(ac.running_version(), Some(1), "fail-static: v1 still serving");
        // Empty backend set likewise.
        ac.stage(spec(3, &[(7, &[])]));
        let r = ac.commit_staged(SimTime::from_secs(6));
        assert_eq!(r, Err(ConfigRejection::EmptyBackendSet(GlobalServiceId(7))));
        // And a duplicate route.
        ac.stage(spec(4, &[(7, &[0]), (7, &[1])]));
        let r = ac.commit_staged(SimTime::from_secs(7));
        assert_eq!(r, Err(ConfigRejection::DuplicateRoute(GlobalServiceId(7))));
        assert_eq!(ac.running_version(), Some(1));
    }

    #[test]
    fn golden_digest_pins_history() {
        let mut ac = ActiveConfig::with_ctx(known(&[7]));
        ac.fence(1).unwrap().stage(spec(1, &[(7, &[0, 1])]));
        ac.commit_staged(SimTime::from_secs(1)).unwrap();
        ac.stage(spec(2, &[(9, &[0])]));
        assert!(ac.commit_staged(SimTime::from_secs(2)).is_err(), "poisoned NACK");
        ac.stage(spec(1, &[(7, &[1])]));
        assert!(ac.commit_staged(SimTime::from_secs(3)).is_err(), "stale version");
        ac.observe_epoch(3);
        let stage = ac.fence(2).map(|ac| ac.stage(spec(4, &[(7, &[0])])));
        assert!(stage.is_err(), "fenced stage");
        let rb = ac.fence(2).and_then(|ac| ac.roll_back_to(SimTime::from_secs(4), spec(1, &[(7, &[0])])));
        assert!(rb.is_err(), "fenced rollback");
        ac.fence(3).unwrap().roll_back_to(SimTime::from_secs(5), spec(1, &[(7, &[0])])).unwrap();
        ac.fence(3).unwrap().stage(spec(5, &[(7, &[0, 1, 2])]));
        let mut d = Digest::new();
        ac.fold_digest(&mut d);
        assert_eq!(d.value(), 0x5024f4e09a9bd879);
    }
}
