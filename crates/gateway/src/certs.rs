//! Fail-static certificate-bundle serving: the cert-bundle artifact.
//!
//! A gateway terminates mTLS for every pod behind it (§4.1.3), so the
//! trust state it validates peer certs against — CA generation, revocation
//! floor, expiry horizon — is distributed control-plane state with the same
//! outage potential as a route table (§2.2). [`ActiveCertBundle`] is
//! therefore the same [`FailStatic`] pair that serves configs and policy
//! ([`crate::failstatic`]): a pushed [`CertBundleSpec`] is staged,
//! handshakes keep validating against the last committed bundle, and a
//! bundle that fails its checks is NACKed with a [`BundleRejection`] while
//! `running` keeps serving. What is particular to bundles are the content
//! checks: a mismatched tenant, a CA generation of zero or one that
//! regressed, and a clock-skewed `not_after` (already expired on arrival,
//! or not after its own issuance instant).
//!
//! The rotation controller (`canal_control::certrotation`) drives waves of
//! these commits through the rollout controller and rolls the fleet back
//! to the last converged bundle when any gateway NACKs.
//!
//! [`CertFault`] is the typed bridge from [`MtlsError`] into the
//! resilience layer: expiry is retryable-after-refresh, revocation is
//! terminal (not retry fuel for the retry budget).

use crate::failstatic::{Artifact, FailStatic, Lifecycle};
use canal_crypto::mtls::MtlsError;
use canal_sim::{Digest, SimTime};

// Re-exported so upstream crates (the rotation controller in
// `canal_control`) can build bundles through the gateway's cert surface
// without taking a direct `canal_crypto` dependency — the layering DAG
// keeps crypto below the gateway only.
pub use canal_crypto::lifecycle::TrustBundle;

/// A versioned, distributable cert bundle: the trust view gateways should
/// validate a tenant's handshakes against, plus the issuance metadata the
/// commit-time sanity checks need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertBundleSpec {
    /// The validation view (carries `version`, tenant, generation,
    /// revocation floor, individual revocations).
    pub trust: TrustBundle,
    /// When the controller cut the bundle.
    pub issued_at: SimTime,
    /// Expiry horizon of certs issued under this bundle; the commit check
    /// rejects horizons at or before `issued_at` (and at or before the
    /// committing gateway's clock) as issuance-clock skew.
    pub not_after: SimTime,
}

impl CertBundleSpec {
    /// Content checks, independent of any gateway state. Pure: used by
    /// commits and by controllers pre-validating before a push.
    /// `running_generation` is 0 when nothing runs yet and for a rollback,
    /// which deliberately re-runs the previous generation.
    pub fn check(
        &self,
        now: SimTime,
        serving_tenant: u64,
        running_generation: u64,
    ) -> Result<(), BundleRejection> {
        if self.trust.tenant != serving_tenant {
            return Err(BundleRejection::MismatchedTenant {
                bundle: self.trust.tenant,
                serving: serving_tenant,
            });
        }
        if self.trust.generation == 0 || self.trust.generation < running_generation {
            return Err(BundleRejection::BadCaGeneration {
                staged: self.trust.generation,
                running: running_generation,
            });
        }
        if self.not_after <= self.issued_at || self.not_after <= now {
            return Err(BundleRejection::ClockSkewedNotAfter);
        }
        Ok(())
    }
}

/// Why a staged cert bundle was rejected instead of committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BundleRejection {
    /// The bundle is for a different tenant than this serving slot.
    MismatchedTenant {
        /// Tenant named in the bundle.
        bundle: u64,
        /// Tenant this slot serves.
        serving: u64,
    },
    /// The CA generation is zero (never valid) or regressed below the
    /// running bundle's — committing it would resurrect revoked certs.
    BadCaGeneration {
        /// Generation in the staged bundle.
        staged: u64,
        /// Generation currently running (0 when nothing runs yet).
        running: u64,
    },
    /// The bundle's validity horizon is behind its own issuance instant or
    /// behind the committing gateway's clock — the issuance clock is
    /// skewed, and committing would instantly expire the tenant's fleet.
    ClockSkewedNotAfter,
    /// [`Lifecycle::StaleVersion`].
    StaleVersion {
        /// Version of the staged bundle.
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

impl std::fmt::Display for BundleRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BundleRejection::MismatchedTenant { bundle, serving } => {
                write!(f, "bundle for tenant {bundle} pushed to tenant {serving}")
            }
            BundleRejection::BadCaGeneration { staged, running } => {
                write!(f, "bad CA generation {staged} (running {running})")
            }
            BundleRejection::ClockSkewedNotAfter => write!(f, "clock-skewed not_after"),
            BundleRejection::StaleVersion { staged, running } => {
                write!(f, "stale bundle version {staged} (running {running})")
            }
            BundleRejection::NothingStaged => write!(f, "nothing staged"),
            BundleRejection::StaleEpoch { pushed, floor } => {
                write!(f, "fenced bundle push from stale controller epoch {pushed} (floor {floor})")
            }
        }
    }
}

impl From<Lifecycle> for BundleRejection {
    fn from(l: Lifecycle) -> Self {
        match l {
            Lifecycle::StaleVersion { staged, running } => Self::StaleVersion { staged, running },
            Lifecycle::NothingStaged => Self::NothingStaged,
            Lifecycle::StaleEpoch { pushed, floor } => Self::StaleEpoch { pushed, floor },
        }
    }
}

/// The `{running, staged}` cert-bundle pair a gateway validates one
/// tenant's handshakes from; its context is the serving tenant.
pub type ActiveCertBundle = FailStatic<CertBundleSpec>;

impl Artifact for CertBundleSpec {
    type Ctx = u64;
    type Compiled = ();
    type Reject = BundleRejection;

    /// Distribution version (from the rotation controller's store).
    fn version(&self) -> u64 {
        self.trust.version
    }

    /// [`CertBundleSpec::check`] against the running bundle's generation.
    fn validate(
        &self,
        serving_tenant: &u64,
        now: SimTime,
        running: Option<&Self>,
    ) -> Result<(), BundleRejection> {
        self.check(now, *serving_tenant, running.map_or(0, |r| r.trust.generation))
    }

    fn fold_digest(&self, d: &mut Digest) {
        self.trust.fold_digest(d);
        d.write_u64(self.issued_at.as_nanos())
            .write_u64(self.not_after.as_nanos());
    }
}

/// A certificate-lifecycle handshake failure, typed for the resilience
/// layer: the two [`MtlsError`] variants whose retry semantics differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertFault {
    /// The presented cert was past `not_after`. Retryable-after-refresh:
    /// one retry is allowed, representing the workload fetching a
    /// re-issued cert; if that also expires, the CA is broken and the
    /// request fails.
    Expired,
    /// The presented serial is revoked. Terminal: retrying cannot succeed
    /// until re-issuance, so the failure is not retry fuel.
    Revoked,
}

impl TryFrom<MtlsError> for CertFault {
    type Error = MtlsError;

    /// Typed conversion from the handshake layer: lifecycle failures map
    /// to a [`CertFault`]; every other [`MtlsError`] passes through as the
    /// error (callers treat those as ordinary backend failures).
    fn try_from(e: MtlsError) -> Result<Self, MtlsError> {
        match e {
            MtlsError::CertificateExpired => Ok(CertFault::Expired),
            MtlsError::CertificateRevoked => Ok(CertFault::Revoked),
            other => Err(other),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn bundle(version: u64, tenant: u64, generation: u64, issued: u64, ttl: u64) -> CertBundleSpec {
        CertBundleSpec {
            trust: TrustBundle {
                version,
                tenant,
                generation,
                revocation_floor: generation << 32,
                revoked: Vec::new(),
            },
            issued_at: SimTime::from_secs(issued),
            not_after: SimTime::from_secs(issued + ttl),
        }
    }

    #[test]
    fn poisoned_bundles_rejected_fail_static() {
        let now = SimTime::from_secs(10);
        let mut ac = ActiveCertBundle::with_ctx(7);
        ac.stage(bundle(1, 7, 1, 0, 3600));
        ac.commit_staged(now).ok();

        // Mismatched tenant.
        ac.stage(bundle(2, 9, 2, 10, 3600));
        assert_eq!(
            ac.commit_staged(now),
            Err(BundleRejection::MismatchedTenant { bundle: 9, serving: 7 })
        );
        // Clock-skewed not_after: already expired on arrival.
        let mut skewed = bundle(3, 7, 2, 10, 3600);
        skewed.not_after = SimTime::from_secs(5);
        ac.stage(skewed);
        assert_eq!(ac.commit_staged(now), Err(BundleRejection::ClockSkewedNotAfter));
        // Bad CA generation: zero, then regression.
        ac.stage(bundle(4, 7, 0, 10, 3600));
        assert_eq!(
            ac.commit_staged(now),
            Err(BundleRejection::BadCaGeneration { staged: 0, running: 1 })
        );
        ac.stage(bundle(5, 7, 5, 10, 3600));
        ac.commit_staged(now).unwrap();
        ac.stage(bundle(6, 7, 4, 10, 3600));
        assert_eq!(
            ac.commit_staged(now),
            Err(BundleRejection::BadCaGeneration { staged: 4, running: 5 })
        );
        // Fail-static throughout: the last good bundle kept serving.
        assert_eq!(ac.running_version(), Some(5));
    }

    #[test]
    fn cert_fault_conversion_is_typed() {
        assert_eq!(CertFault::try_from(MtlsError::CertificateExpired), Ok(CertFault::Expired));
        assert_eq!(CertFault::try_from(MtlsError::CertificateRevoked), Ok(CertFault::Revoked));
        assert_eq!(CertFault::try_from(MtlsError::BadRecord), Err(MtlsError::BadRecord));
        assert_eq!(CertFault::try_from(MtlsError::BadState), Err(MtlsError::BadState));
    }

    #[test]
    fn golden_digest_pins_history() {
        let mut ab = ActiveCertBundle::with_ctx(7);
        ab.fence(1).unwrap().stage(bundle(1, 7, 2, 0, 100));
        ab.commit_staged(SimTime::from_secs(1)).unwrap();
        ab.stage(bundle(2, 7, 0, 1, 100));
        assert!(ab.commit_staged(SimTime::from_secs(2)).is_err(), "poisoned NACK");
        ab.stage(bundle(1, 7, 2, 1, 100));
        assert!(ab.commit_staged(SimTime::from_secs(3)).is_err(), "stale version");
        ab.observe_epoch(3);
        let stage = ab.fence(2).map(|ab| ab.stage(bundle(4, 7, 2, 3, 100)));
        assert!(stage.is_err(), "fenced stage");
        let rb = ab.fence(2).and_then(|ab| ab.roll_back_to(SimTime::from_secs(4), bundle(1, 7, 1, 0, 100)));
        assert!(rb.is_err(), "fenced rollback");
        ab.fence(3).unwrap().roll_back_to(SimTime::from_secs(5), bundle(1, 7, 1, 0, 100)).unwrap();
        ab.fence(3).unwrap().stage(bundle(5, 7, 2, 4, 100));
        let mut d = Digest::new();
        ab.fold_digest(&mut d);
        assert_eq!(d.value(), 0x50548d23a0ec20f0);
    }
}
