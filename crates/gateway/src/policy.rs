//! Fail-static network-policy state at the gateway: the policy artifact.
//!
//! [`ActivePolicy`] is the gateway's [`FailStatic`] pair over a
//! [`PolicySpec`], the same machine that serves configs and cert bundles
//! ([`crate::failstatic`]). What is particular to policy: a commit runs
//! semantic validation *and compilation* atomically, and serves the
//! [`CompiledPolicySet`] alongside the spec. A spec that fails either is
//! rejected with a [`PolicyPushRejection`] (NACKed upstream by the data
//! plane) and the gateway keeps enforcing the last committed compiled set
//! unchanged. A poisoned policy push can therefore never widen or narrow
//! enforcement beyond the canary that NACKed it.

use crate::failstatic::{Artifact, FailStatic, Lifecycle};
use canal_policy::{CompiledPolicySet, PolicyRejection, PolicySpec};
use canal_sim::{Digest, SimTime};

/// Why a staged policy push was rejected instead of committed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyPushRejection {
    /// Semantic validation / compilation failed.
    Spec(PolicyRejection),
    /// [`Lifecycle::StaleVersion`].
    StaleVersion {
        /// Version of the staged spec.
        staged: u64,
        /// Version currently enforced.
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

impl std::fmt::Display for PolicyPushRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyPushRejection::Spec(r) => write!(f, "invalid policy: {r}"),
            PolicyPushRejection::StaleVersion { staged, running } => {
                write!(f, "stale policy version {staged} (running {running})")
            }
            PolicyPushRejection::NothingStaged => write!(f, "nothing staged"),
            PolicyPushRejection::StaleEpoch { pushed, floor } => {
                write!(f, "fenced policy push from stale controller epoch {pushed} (floor {floor})")
            }
        }
    }
}

impl From<Lifecycle> for PolicyPushRejection {
    fn from(l: Lifecycle) -> Self {
        match l {
            Lifecycle::StaleVersion { staged, running } => Self::StaleVersion { staged, running },
            Lifecycle::NothingStaged => Self::NothingStaged,
            Lifecycle::StaleEpoch { pushed, floor } => Self::StaleEpoch { pushed, floor },
        }
    }
}

/// The `{running, staged}` policy pair a gateway enforces from. The
/// served spec and its compiled tables commit together, so they never
/// diverge. With no committed policy there is no compiled set, which
/// denies every tenant (zero trust) — gate enforcement on
/// `running_version().is_some()` if open-until-first-policy is wanted.
pub type ActivePolicy = FailStatic<PolicySpec>;

impl Artifact for PolicySpec {
    type Ctx = ();
    type Compiled = CompiledPolicySet;
    type Reject = PolicyPushRejection;

    fn version(&self) -> u64 {
        self.version
    }

    /// Semantic validation and compilation, in one step.
    fn validate(
        &self,
        _ctx: &(),
        _now: SimTime,
        _running: Option<&Self>,
    ) -> Result<CompiledPolicySet, PolicyPushRejection> {
        CompiledPolicySet::compile(self).map_err(PolicyPushRejection::Spec)
    }

    fn fold_digest(&self, d: &mut Digest) {
        PolicySpec::fold_digest(self, d);
    }

    fn fold_compiled(compiled: &CompiledPolicySet, d: &mut Digest) {
        compiled.fold_digest(d);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use canal_net::{TenantId, VpcId};
    use canal_policy::{L4Ctx, L4Verdict, PolicyRule, TenantPolicy};

    pub(crate) fn spec(version: u64, rules: Vec<PolicyRule>) -> PolicySpec {
        PolicySpec {
            version,
            tenants: vec![TenantPolicy {
                tenant: TenantId(1),
                vpc: VpcId(1),
                rules,
                default_action: canal_policy::PolicyVerdict::Deny,
            }],
        }
    }

    fn ctx() -> L4Ctx {
        L4Ctx { tenant: TenantId(1), vpc: VpcId(1), src_ip: 1, dst_port: 80, identity: 0 }
    }

    #[test]
    fn poisoned_policy_rejected_fail_static() {
        let mut ap = ActivePolicy::new();
        ap.stage(spec(1, vec![PolicyRule::allow()]));
        ap.commit_staged(SimTime::ZERO).ok();
        assert_eq!(ap.compiled().unwrap().l4_verdict(&ctx()), L4Verdict::Allow);
        // Inverted port range: semantically invalid → NACK, keep enforcing v1.
        ap.stage(spec(2, vec![PolicyRule::deny().with_ports(443, 80)]));
        let r = ap.commit_staged(SimTime::from_secs(5));
        assert!(matches!(r, Err(PolicyPushRejection::Spec(_))));
        assert_eq!(ap.running_version(), Some(1), "fail-static: v1 still enforced");
        assert_eq!(ap.compiled().unwrap().l4_verdict(&ctx()), L4Verdict::Allow);
    }

    #[test]
    fn golden_digest_pins_history() {
        let mut ap = ActivePolicy::new();
        ap.fence(1).unwrap().stage(spec(1, vec![PolicyRule::allow()]));
        ap.commit_staged(SimTime::from_secs(1)).unwrap();
        ap.stage(spec(2, vec![PolicyRule::deny().with_ports(443, 80)]));
        assert!(ap.commit_staged(SimTime::from_secs(2)).is_err(), "poisoned NACK");
        ap.stage(spec(1, vec![PolicyRule::deny()]));
        assert!(ap.commit_staged(SimTime::from_secs(3)).is_err(), "stale version");
        ap.observe_epoch(3);
        let stage = ap.fence(2).map(|ap| ap.stage(spec(4, vec![PolicyRule::deny()])));
        assert!(stage.is_err(), "fenced stage");
        let rb = ap.fence(2).and_then(|ap| ap.roll_back_to(SimTime::from_secs(4), spec(1, vec![PolicyRule::allow()])));
        assert!(rb.is_err(), "fenced rollback");
        ap.fence(3).unwrap().roll_back_to(SimTime::from_secs(5), spec(1, vec![PolicyRule::allow()])).unwrap();
        ap.fence(3).unwrap().stage(spec(5, vec![PolicyRule::deny().with_ports(80, 80)]));
        let mut d = Digest::new();
        ap.fold_digest(&mut d);
        assert_eq!(d.value(), 0x41c9f97eba718644);
    }
}
