//! The fail-static `{running, staged}` state machine, written once for
//! every artifact a gateway serves from.
//!
//! §2.2 names configuration as the mesh's primary outage vector: a proxy
//! that *applies* a bad push is an instant fleet-wide incident. Route
//! configs ([`crate::config`]), network policy ([`crate::policy`]) and
//! cert bundles ([`crate::certs`]) therefore share one cycle in a
//! [`FailStatic`]: a push is **staged**, **fenced** by controller epoch,
//! checked for version monotonicity and then by the kind's content checks
//! ([`Artifact::validate`]), and either **committed** atomically or
//! rejected. A rejection is discarded and NACKed upstream
//! (`canal_control::VersionedConfigStore::nack`) while the gateway keeps
//! serving its last committed artifact — **fail-static**: blocked or
//! poisoned pushes never degrade the data plane below its last good state.
//! `roll_back_to` reinstates an explicit last-known-good artifact,
//! bypassing version monotonicity but not the content checks.
//!
//! The rollout controller (`canal_control::rollout`) drives waves of these
//! commits and rolls the fleet back to last-known-good when any gateway
//! NACKs or the canary's health regresses.

use canal_sim::{Digest, SimTime};

/// One kind of pushed artifact: what differs between config, policy and
/// cert bundles. Everything else — staging, fencing, monotonicity,
/// commit-or-NACK, rollback, counters and the digest — is [`FailStatic`]'s.
pub trait Artifact: Sized {
    /// What the content checks need from the serving gateway. The machine
    /// holds it, so commits take no context argument.
    type Ctx;
    /// What a commit derives from the spec and serves alongside it.
    type Compiled;
    /// Why a push was rejected: the kind's content failures plus every
    /// [`Lifecycle`] case.
    type Reject: From<Lifecycle>;

    /// Distribution version; strictly monotone across commits.
    fn version(&self) -> u64;

    /// Content checks, and compilation where the kind has one. `running`
    /// is the artifact being replaced, or `None` for a rollback (which
    /// deliberately re-runs an older artifact) and for the first commit.
    fn validate(
        &self,
        ctx: &Self::Ctx,
        now: SimTime,
        running: Option<&Self>,
    ) -> Result<Self::Compiled, Self::Reject>;

    /// Fold the spec into a digest (content-sensitive, order-sensitive).
    fn fold_digest(&self, d: &mut Digest);

    /// Fold the compiled form that commits alongside the spec.
    fn fold_compiled(_compiled: &Self::Compiled, _d: &mut Digest) {}
}

/// The rejections every artifact kind shares: the machine's own verdicts,
/// raised before any content check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifecycle {
    /// The staged version is not newer than the running one. Re-pushes of
    /// the current version are idempotent no-ops upstream; anything older
    /// is a replay and must not regress the data plane.
    StaleVersion {
        /// Version of the staged artifact.
        staged: u64,
        /// Version currently running.
        running: u64,
    },
    /// Nothing is staged.
    NothingStaged,
    /// The push carries a controller epoch below the highest this gateway
    /// has observed: it came from a zombie incarnation that lost the
    /// fleet. Fenced regardless of version — a zombie's rollback push
    /// could otherwise legally regress the data plane.
    StaleEpoch {
        /// Epoch the push carried.
        pushed: u64,
        /// Highest controller epoch this gateway has observed.
        floor: u64,
    },
}

/// The `{running, staged}` pair a gateway serves one artifact kind from.
///
/// Invariants (DESIGN.md §11):
/// * `running` only ever advances to a staged artifact that passed
///   [`Artifact::validate`], atomically with its compiled form.
/// * Rejection leaves `running` untouched and clears `staged` (fail-static).
/// * The running version is strictly monotone across commits
///   ([`Self::roll_back_to`] deliberately excepted, content checks intact).
/// * No push below the observed epoch floor is staged or rolled back to.
#[derive(Debug, Clone)]
pub struct FailStatic<A: Artifact> {
    ctx: A::Ctx,
    running: Option<(A, A::Compiled)>,
    staged: Option<A>,
    committed_at: Option<SimTime>,
    commits: u64,
    rejections: u64,
    /// Highest controller epoch observed on any push or probe. Pushes
    /// carrying a lower epoch are fenced ([`Lifecycle::StaleEpoch`]).
    epoch_floor: u64,
    /// Pushes fenced for carrying a stale epoch.
    fenced_pushes: u64,
}

impl<A: Artifact> Default for FailStatic<A>
where
    A::Ctx: Default,
{
    fn default() -> Self {
        Self::with_ctx(A::Ctx::default())
    }
}

impl<A: Artifact> FailStatic<A> {
    /// Empty pair over a default context: nothing running, nothing staged.
    pub fn new() -> Self
    where
        A::Ctx: Default,
    {
        Self::default()
    }

    /// Empty pair validating against `ctx`: nothing running, nothing staged.
    pub fn with_ctx(ctx: A::Ctx) -> Self {
        FailStatic {
            ctx,
            running: None,
            staged: None,
            committed_at: None,
            commits: 0,
            rejections: 0,
            epoch_floor: 0,
            fenced_pushes: 0,
        }
    }

    /// The validation context.
    pub fn ctx(&self) -> &A::Ctx {
        &self.ctx
    }

    /// Mutable validation context (the gateway registers services here).
    pub fn ctx_mut(&mut self) -> &mut A::Ctx {
        &mut self.ctx
    }

    /// Stage a push without applying it. Serving is unaffected until
    /// [`Self::commit_staged`] validates and swaps it in. Staging twice
    /// replaces the previous staged artifact (last push wins).
    pub fn stage(&mut self, spec: A) {
        self.staged = Some(spec);
    }

    /// Observe a controller incarnation's epoch (carried on probes and
    /// pushes). The floor is monotone. A new controller announces itself
    /// this way, fencing any zombie predecessor's in-flight pushes.
    pub fn observe_epoch(&mut self, epoch: u64) {
        self.epoch_floor = self.epoch_floor.max(epoch);
    }

    /// The epoch fence, for a push about to be staged or rolled back to:
    /// refuse it if it carries an epoch below the observed floor, else
    /// raise the floor and hand the pair back for the push. The fence runs
    /// *before* any version or content check — a zombie's rollback push is
    /// version-legal (a rollback deliberately bypasses monotonicity) but
    /// must still die here.
    pub fn fence(&mut self, epoch: u64) -> Result<&mut Self, A::Reject> {
        if epoch < self.epoch_floor {
            self.fenced_pushes += 1;
            return Err(Lifecycle::StaleEpoch { pushed: epoch, floor: self.epoch_floor }.into());
        }
        self.observe_epoch(epoch);
        Ok(self)
    }

    /// Atomically commit the staged artifact if it validates, else reject
    /// it and keep serving the running one. Either way `staged` is
    /// cleared. Returns the committed version, or the rejection the data
    /// plane should NACK with.
    pub fn commit_staged(&mut self, now: SimTime) -> Result<u64, A::Reject> {
        let Some(spec) = self.staged.take() else {
            return Err(Lifecycle::NothingStaged.into());
        };
        let checked = match self.running_version() {
            Some(running) if spec.version() <= running => {
                Err(Lifecycle::StaleVersion { staged: spec.version(), running }.into())
            }
            _ => spec.validate(&self.ctx, now, self.running()),
        };
        let compiled = checked.inspect_err(|_| self.rejections += 1)?;
        Ok(self.install(now, spec, compiled))
    }

    /// Roll back to an explicit last-known-good artifact, bypassing the
    /// version-monotonicity check (a rollback deliberately re-runs an
    /// older version). Content checks still apply, with no running
    /// artifact to compare against: a rollback target that no longer
    /// validates is refused, keeping fail-static intact.
    pub fn roll_back_to(&mut self, now: SimTime, spec: A) -> Result<u64, A::Reject> {
        let compiled = spec.validate(&self.ctx, now, None)?;
        self.staged = None;
        Ok(self.install(now, spec, compiled))
    }

    fn install(&mut self, now: SimTime, spec: A, compiled: A::Compiled) -> u64 {
        let v = spec.version();
        self.running = Some((spec, compiled));
        self.committed_at = Some(now);
        self.commits += 1;
        v
    }

    /// The artifact currently being served (last committed), if any.
    pub fn running(&self) -> Option<&A> {
        self.running.as_ref().map(|(s, _)| s)
    }

    /// The compiled form the datapath evaluates, if anything has ever
    /// committed.
    pub fn compiled(&self) -> Option<&A::Compiled> {
        self.running.as_ref().map(|(_, c)| c)
    }

    /// Version being served, if anything has ever committed.
    pub fn running_version(&self) -> Option<u64> {
        self.running().map(A::version)
    }

    /// Fold the whole pair into a digest: the running version, the
    /// commit/rejection counts, the running spec and its compiled form,
    /// the uncommitted `staged` spec, `committed_at`, and the fencing
    /// state. A gateway with a different staged artifact (or a different
    /// commit instant) is in a different state even while serving the same
    /// running version.
    pub fn fold_digest(&self, d: &mut Digest) {
        // Exhaustive so a new field cannot be left out. `ctx` is folded by
        // whoever mutates it (the gateway writes its known-service set just
        // before this pair); a context fixed at construction is an input,
        // not state.
        let FailStatic {
            ctx: _,
            running,
            staged,
            committed_at,
            commits,
            rejections,
            epoch_floor,
            fenced_pushes,
        } = self;
        d.write_u64(self.running_version().unwrap_or(0));
        d.write_u64(*commits);
        d.write_u64(*rejections);
        if let Some((spec, compiled)) = running {
            spec.fold_digest(d);
            A::fold_compiled(compiled, d);
        }
        match staged {
            None => {
                d.write_u64(0);
            }
            Some(s) => {
                d.write_u64(1);
                s.fold_digest(d);
            }
        }
        d.write_u64(committed_at.map_or(u64::MAX, |t| t.as_nanos()));
        d.write_u64(*epoch_floor);
        d.write_u64(*fenced_pushes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certs::{tests::bundle, CertBundleSpec};
    use crate::config::{tests::known, tests::spec as config, ConfigSpec};
    use crate::policy::tests::spec as policy;
    use canal_policy::{PolicyRule, PolicySpec};
    use std::fmt::Debug;

    /// One artifact kind under the shared contract: a fresh pair, a push
    /// that passes the content checks at any version, and one that fails.
    trait Kind: Artifact {
        fn pair() -> FailStatic<Self>;
        fn good(version: u64) -> Self;
        fn poisoned(version: u64) -> Self;
    }

    impl Kind for ConfigSpec {
        fn pair() -> FailStatic<Self> {
            FailStatic::with_ctx(known(&[7]))
        }
        fn good(version: u64) -> Self {
            config(version, &[(7, &[0, version as u32])])
        }
        fn poisoned(version: u64) -> Self {
            config(version, &[(9, &[0])])
        }
    }

    impl Kind for PolicySpec {
        fn pair() -> FailStatic<Self> {
            FailStatic::new()
        }
        fn good(version: u64) -> Self {
            policy(version, vec![PolicyRule::allow().with_ports(80, 80 + version as u16)])
        }
        fn poisoned(version: u64) -> Self {
            policy(version, vec![PolicyRule::deny().with_ports(443, 80)])
        }
    }

    impl Kind for CertBundleSpec {
        fn pair() -> FailStatic<Self> {
            FailStatic::with_ctx(7)
        }
        /// The generation tracks the version, so rolling back regresses it.
        fn good(version: u64) -> Self {
            bundle(version, 7, version, 0, 3600)
        }
        fn poisoned(version: u64) -> Self {
            bundle(version, 9, version, 0, 3600)
        }
    }

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn contract<K: Kind>()
    where
        K::Reject: Debug + PartialEq,
    {
        let reject = |l: Lifecycle| -> K::Reject { l.into() };

        // Staging does not serve; a commit swaps atomically.
        let mut p = K::pair();
        p.stage(K::good(1));
        assert!(p.running().is_none(), "staging does not serve");
        assert_eq!(p.commit_staged(secs(1)), Ok(1));
        assert_eq!(p.running_version(), Some(1));
        assert!(p.compiled().is_some() && p.staged.is_none());
        assert_eq!(p.committed_at, Some(secs(1)));

        // A poisoned push is NACKed and discarded; v1 keeps serving.
        p.stage(K::poisoned(2));
        assert!(p.commit_staged(secs(2)).is_err());
        assert_eq!(p.running_version(), Some(1), "fail-static");
        assert!(p.staged.is_none(), "poisoned push discarded");

        // A replayed version is stale; with nothing staged there is no
        // rejection to count.
        p.stage(K::good(1));
        let stale = Lifecycle::StaleVersion { staged: 1, running: 1 };
        assert_eq!(p.commit_staged(secs(3)), Err(reject(stale)));
        assert_eq!(p.commit_staged(secs(3)), Err(reject(Lifecycle::NothingStaged)));
        assert_eq!((p.commits, p.rejections), (1, 2));

        // Rollback re-runs an older version but not a poisoned one, and
        // clears whatever was staged.
        p.stage(K::good(3));
        assert_eq!(p.commit_staged(secs(4)), Ok(3));
        p.stage(K::good(4));
        assert_eq!(p.roll_back_to(secs(5), K::good(1)), Ok(1));
        assert!(p.staged.is_none(), "rollback clears staged");
        assert!(p.roll_back_to(secs(6), K::poisoned(0)).is_err());
        assert_eq!(p.running_version(), Some(1));
        assert_eq!(p.committed_at, Some(secs(5)));

        // A new controller fences its zombie predecessor's pushes, before
        // any other check.
        p.fence(1).unwrap().stage(K::good(5));
        p.observe_epoch(2);
        p.observe_epoch(1);
        assert_eq!(p.epoch_floor, 2, "floor is monotone");
        p.commit_staged(secs(7)).ok();
        let fenced = Lifecycle::StaleEpoch { pushed: 1, floor: 2 };
        assert_eq!(p.fence(1).err(), Some(reject(fenced)));
        assert_eq!(p.running_version(), Some(5), "fail-static under fencing");
        assert_eq!((p.fenced_pushes, p.epoch_floor), (1, 2));
        p.fence(2).unwrap().stage(K::good(6));
        assert_eq!(p.commit_staged(secs(9)), Ok(6));

        // The digest covers the whole pair: equal histories agree, and the
        // staged spec and the epoch floor each change it.
        let replay = |staged: Option<K>, epoch: u64| {
            let mut q = K::pair();
            q.stage(K::good(1));
            q.commit_staged(secs(1)).ok();
            q.observe_epoch(epoch);
            if let Some(s) = staged {
                q.stage(s);
            }
            let mut d = Digest::new();
            q.fold_digest(&mut d);
            d.value()
        };
        assert_eq!(replay(None, 0), replay(None, 0));
        assert_ne!(replay(None, 0), replay(Some(K::good(2)), 0), "staged spec is digested");
        assert_ne!(replay(None, 0), replay(None, 3), "epoch floor is digested");
    }

    #[test]
    fn config_meets_the_contract() {
        contract::<ConfigSpec>();
    }

    #[test]
    fn policy_meets_the_contract() {
        contract::<PolicySpec>();
    }

    #[test]
    fn cert_bundle_meets_the_contract() {
        contract::<CertBundleSpec>();
    }
}
