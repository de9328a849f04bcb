//! The multi-tenant key server (§4.1.3) and its keyless variant (App. B).
//!
//! The key server holds tenants' private keys (encrypted in memory, see
//! [`crate::keystore`]) and performs the asymmetric half of mTLS on behalf of
//! on-node proxies and gateway backends. Requests arrive over
//! *pre-established shared channels* (one per verified requester) so no
//! per-request TLS handshake is needed; responses carry the derived
//! symmetric key sealed under the channel key with the same
//! ChaCha20-Poly1305 AEAD as mTLS records ([`crate::aead`]).
//!
//! Because the server aggregates new-session arrivals from *all* tenants,
//! its accelerator batches are effectively always full: completion is a flat
//! RTT + batch cost (≈1.7 ms intra-AZ, Fig. 23), immune to the Fig. 25
//! low-concurrency bubble.

use crate::accel::{AccelConfig, AsymmetricBackend};
use crate::aead::{self, TAG_LEN};
use crate::chacha20::ChaCha20;
use crate::dh::{DhKeyPair, DhParams, SharedSecret};
use crate::keystore::KeyStore;
use canal_net::TenantId;
use canal_sim::SimDuration;
use std::collections::BTreeMap;

/// Where the key server runs relative to the requester.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyServerPlacement {
    /// Same AZ as the requester (the preferred deployment).
    LocalAz,
    /// A neighbouring AZ (fallback when the local AZ lacks QAT/AVX CPUs).
    RemoteAz,
    /// The customer's own premises — the *keyless* mode of Appendix B, where
    /// private keys never touch the cloud.
    OnPremKeyless,
}

impl KeyServerPlacement {
    /// Round-trip time from the requester to the key server.
    pub fn rtt(self) -> SimDuration {
        match self {
            KeyServerPlacement::LocalAz => SimDuration::from_micros(700),
            KeyServerPlacement::RemoteAz => SimDuration::from_millis(2),
            KeyServerPlacement::OnPremKeyless => SimDuration::from_millis(8),
        }
    }
}

/// Key server configuration.
#[derive(Debug, Clone, Copy)]
pub struct KeyServerConfig {
    /// Deployment placement (decides RTT).
    pub placement: KeyServerPlacement,
    /// Accelerator batch parameters.
    pub accel: AccelConfig,
    /// Whether this AZ's hardware supports QAT/AVX-512 (<5% do not; they
    /// fall back to software asymmetric crypto, §4.1.3).
    pub has_accel_hardware: bool,
}

impl Default for KeyServerConfig {
    fn default() -> Self {
        KeyServerConfig {
            placement: KeyServerPlacement::LocalAz,
            accel: AccelConfig::default(),
            has_accel_hardware: true,
        }
    }
}

/// Errors from key server requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyServerError {
    /// The requester never established a channel (verification failed).
    UnverifiedRequester,
    /// No private key stored for the tenant.
    UnknownTenant,
    /// Response ciphertext failed channel authentication on the requester
    /// side (tampering or wrong channel key).
    ChannelMismatch,
}

impl std::fmt::Display for KeyServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for KeyServerError {}

/// Identifier of a verified requester (an on-node proxy or gateway backend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequesterId(pub u64);

/// An encrypted key-server response: the derived symmetric key sealed under
/// the requester's channel key. The nonce is the server's response counter,
/// which is also the additional data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedKeyResponse {
    nonce: [u8; 12],
    ciphertext: [u8; 8],
    tag: [u8; TAG_LEN],
}

/// The multi-tenant key server.
pub struct KeyServer {
    cfg: KeyServerConfig,
    store: KeyStore,
    channels: BTreeMap<RequesterId, u64>,
    params: DhParams,
    nonce_counter: u64,
    requests_served: u64,
    requests_rejected: u64,
}

impl KeyServer {
    /// Create a key server sealed under master-key material.
    pub fn new(cfg: KeyServerConfig, master_key_material: u64) -> Self {
        KeyServer {
            cfg,
            store: KeyStore::new(master_key_material),
            channels: BTreeMap::new(),
            params: DhParams::DEFAULT,
            nonce_counter: 0,
            requests_served: 0,
            requests_rejected: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> KeyServerConfig {
        self.cfg
    }

    /// Entrust a tenant's private-key material to the server (skipped by
    /// keyless customers, who run their own server with the same API).
    pub fn store_tenant_key(&mut self, tenant: TenantId, private_material: u64) {
        self.store.store(tenant, private_material);
    }

    /// Establish the pre-shared secure channel for a requester.
    pub fn register_requester(&mut self, requester: RequesterId, channel_secret: u64) {
        self.channels.insert(requester, channel_secret);
    }

    /// Handle one asymmetric-crypto request: verify the requester, derive
    /// the DH shared secret with the tenant's private key (decrypted
    /// transiently), and return the symmetric key sealed under the channel.
    pub fn handle_request(
        &mut self,
        requester: RequesterId,
        tenant: TenantId,
        peer_public: u64,
    ) -> Result<SealedKeyResponse, KeyServerError> {
        let &channel_secret = self.channels.get(&requester).ok_or_else(|| {
            self.requests_rejected += 1;
            KeyServerError::UnverifiedRequester
        })?;
        let params = self.params;
        let secret = self
            .store
            .with_key(tenant, |material| {
                let pair = DhKeyPair::generate(params, material);
                pair.agree(peer_public)
            })
            .ok_or_else(|| {
                self.requests_rejected += 1;
                KeyServerError::UnknownTenant
            })?;
        self.requests_served += 1;
        self.nonce_counter += 1;
        let mut nonce = [0u8; 12];
        nonce[..8].copy_from_slice(&self.nonce_counter.to_le_bytes());
        let channel = ChaCha20::from_shared_secret(channel_secret);
        let mut ciphertext = secret.0.to_le_bytes();
        let tag = aead::seal_in_place(&channel, &nonce, &nonce[..8], &mut ciphertext);
        Ok(SealedKeyResponse {
            nonce,
            ciphertext,
            tag,
        })
    }

    /// The tenant's *public* DH value, computed transiently (the server can
    /// hand this out — it is public by construction).
    pub fn tenant_public(&self, tenant: TenantId) -> Option<u64> {
        let params = self.params;
        self.store
            .with_key(tenant, |material| DhKeyPair::generate(params, material).public)
    }

    /// Lifetime counters: `(served, rejected)`.
    pub fn stats(&self) -> (u64, u64) {
        (self.requests_served, self.requests_rejected)
    }
}

impl SealedKeyResponse {
    /// Requester side: verify the tag and unseal the symmetric key.
    pub fn unseal(&self, channel_secret: u64) -> Result<SharedSecret, KeyServerError> {
        let channel = ChaCha20::from_shared_secret(channel_secret);
        let mut key = self.ciphertext;
        if !aead::open_in_place(&channel, &self.nonce, &self.nonce[..8], &mut key, &self.tag) {
            return Err(KeyServerError::ChannelMismatch);
        }
        Ok(SharedSecret(u64::from_le_bytes(key)))
    }
}

/// The [`AsymmetricBackend`] view of a remote key server: flat completion
/// (server batches are always full) plus the placement RTT.
#[derive(Debug, Clone, Copy)]
pub struct RemoteKeyServerBackend {
    /// The server configuration (placement decides RTT).
    pub cfg: KeyServerConfig,
    /// Node CPU per op: marshalling the RPC only.
    pub node_cpu: SimDuration,
    /// Fault-injected extra wait per op (a degraded-but-alive key server:
    /// every handshake eats a timeout before the answer lands). `None` when
    /// healthy; set by chaos runs via [`RemoteKeyServerBackend::inject_timeout`].
    pub injected_timeout: Option<SimDuration>,
}

impl RemoteKeyServerBackend {
    /// Backend for a server in the given placement.
    pub fn new(placement: KeyServerPlacement) -> Self {
        RemoteKeyServerBackend {
            cfg: KeyServerConfig {
                placement,
                ..Default::default()
            },
            node_cpu: SimDuration::from_micros(150),
            injected_timeout: None,
        }
    }

    /// Inject (or with `None`, clear) a per-op timeout — the fault hook
    /// chaos plans drive for `key-server degrade` events.
    pub fn inject_timeout(&mut self, timeout: Option<SimDuration>) {
        self.injected_timeout = timeout;
    }
}

impl AsymmetricBackend for RemoteKeyServerBackend {
    fn completion(&self, _concurrency: usize) -> SimDuration {
        let injected = self.injected_timeout.unwrap_or(SimDuration::ZERO);
        if self.cfg.has_accel_hardware {
            // Multi-tenant aggregation keeps batches full: no flush bubble.
            self.cfg.placement.rtt() + self.cfg.accel.per_batch_cost + injected
        } else {
            // <5% of AZs: software fallback on the server.
            self.cfg.placement.rtt() + SimDuration::from_millis(2) + injected
        }
    }

    fn node_cpu_cost(&self) -> SimDuration {
        self.node_cpu
    }

    fn name(&self) -> &'static str {
        match self.cfg.placement {
            KeyServerPlacement::LocalAz => "keyserver-local-az",
            KeyServerPlacement::RemoteAz => "keyserver-remote-az",
            KeyServerPlacement::OnPremKeyless => "keyserver-keyless",
        }
    }
}

/// App. A resilience: a primary backend (normally the remote key server)
/// with a local fallback used while the primary is marked down. Keeps the
/// blast radius of a key-server outage at "slower handshakes", not "no
/// handshakes".
pub struct FallbackBackend<P, F> {
    /// Primary backend (e.g. [`RemoteKeyServerBackend`]).
    pub primary: P,
    /// Fallback (e.g. local software/AVX crypto).
    pub fallback: F,
    primary_healthy: bool,
    fallback_served: u64,
}

impl<P: AsymmetricBackend, F: AsymmetricBackend> FallbackBackend<P, F> {
    /// Compose a primary with its fallback; primary starts healthy.
    pub fn new(primary: P, fallback: F) -> Self {
        FallbackBackend {
            primary,
            fallback,
            primary_healthy: true,
            fallback_served: 0,
        }
    }

    /// Mark the primary down (key-server failure detected) or recovered.
    pub fn set_primary_health(&mut self, healthy: bool) {
        self.primary_healthy = healthy;
    }

    /// Whether the primary is serving.
    pub fn primary_healthy(&self) -> bool {
        self.primary_healthy
    }

    /// Operations served by the fallback so far.
    pub fn fallback_served(&self) -> u64 {
        self.fallback_served
    }
}

impl<P: AsymmetricBackend, F: AsymmetricBackend> AsymmetricBackend for FallbackBackend<P, F> {
    fn completion(&self, concurrency: usize) -> SimDuration {
        if self.primary_healthy {
            self.primary.completion(concurrency)
        } else {
            self.fallback.completion(concurrency)
        }
    }

    fn node_cpu_cost(&self) -> SimDuration {
        if self.primary_healthy {
            self.primary.node_cpu_cost()
        } else {
            self.fallback.node_cpu_cost()
        }
    }

    fn name(&self) -> &'static str {
        if self.primary_healthy {
            self.primary.name()
        } else {
            self.fallback.name()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::SoftwareBackend;
    use crate::dh::DhKeyPair;

    fn server_with_tenant() -> (KeyServer, TenantId, RequesterId, u64) {
        let mut ks = KeyServer::new(KeyServerConfig::default(), 0x5EED);
        let tenant = TenantId(1);
        ks.store_tenant_key(tenant, 0x1234_5678_9ABC_DEF0);
        let requester = RequesterId(7);
        let channel = 0xCAFE_F00D_BEEF_1234;
        ks.register_requester(requester, channel);
        (ks, tenant, requester, channel)
    }

    #[test]
    fn full_handshake_both_sides_agree() {
        let (mut ks, tenant, requester, channel) = server_with_tenant();
        // The client (peer) generates its own pair and sends its public.
        let client = DhKeyPair::generate(DhParams::DEFAULT, 0x00C1_1E17);
        let sealed = ks.handle_request(requester, tenant, client.public).unwrap();
        let server_side = sealed.unseal(channel).unwrap();
        // Client derives the same secret from the tenant's public value.
        let tenant_public = ks.tenant_public(tenant).unwrap();
        let client_side = client.agree(tenant_public);
        assert_eq!(server_side, client_side);
    }

    #[test]
    fn unverified_requester_rejected() {
        let (mut ks, tenant, _, _) = server_with_tenant();
        let err = ks
            .handle_request(RequesterId(999), tenant, 12345)
            .unwrap_err();
        assert_eq!(err, KeyServerError::UnverifiedRequester);
        assert_eq!(ks.stats(), (0, 1));
    }

    #[test]
    fn unknown_tenant_rejected() {
        let (mut ks, _, requester, _) = server_with_tenant();
        let err = ks
            .handle_request(requester, TenantId(42), 12345)
            .unwrap_err();
        assert_eq!(err, KeyServerError::UnknownTenant);
    }

    #[test]
    fn tampered_response_detected() {
        let (mut ks, tenant, requester, channel) = server_with_tenant();
        let client = DhKeyPair::generate(DhParams::DEFAULT, 0x00C1_1E17);
        let mut sealed = ks.handle_request(requester, tenant, client.public).unwrap();
        sealed.ciphertext[0] ^= 0xFF;
        assert_eq!(sealed.unseal(channel), Err(KeyServerError::ChannelMismatch));
        // Wrong channel secret also fails.
        let sealed2 = ks.handle_request(requester, tenant, client.public).unwrap();
        assert_eq!(
            sealed2.unseal(channel ^ 1),
            Err(KeyServerError::ChannelMismatch)
        );
    }

    #[test]
    fn any_tampered_byte_fails_to_unseal() {
        let (mut ks, tenant, requester, channel) = server_with_tenant();
        let client = DhKeyPair::generate(DhParams::DEFAULT, 0x00C1_1E17);
        let sealed = ks.handle_request(requester, tenant, client.public).unwrap();
        assert!(sealed.unseal(channel).is_ok());
        for i in 0..TAG_LEN {
            let mut bad = sealed.clone();
            bad.tag[i] ^= 0x01;
            assert_eq!(bad.unseal(channel), Err(KeyServerError::ChannelMismatch), "tag {i}");
        }
        for i in 0..sealed.ciphertext.len() {
            let mut bad = sealed.clone();
            bad.ciphertext[i] ^= 0x01;
            assert_eq!(bad.unseal(channel), Err(KeyServerError::ChannelMismatch), "ct {i}");
        }
        for i in 0..sealed.nonce.len() {
            let mut bad = sealed.clone();
            bad.nonce[i] ^= 0x01;
            assert_eq!(bad.unseal(channel), Err(KeyServerError::ChannelMismatch), "nonce {i}");
        }
    }

    #[test]
    fn remote_backend_is_flat_across_concurrency() {
        let be = RemoteKeyServerBackend::new(KeyServerPlacement::LocalAz);
        let c1 = be.completion(1);
        let c100 = be.completion(100);
        assert_eq!(c1, c100);
        // Fig. 23: ≈1.7ms intra-AZ.
        assert_eq!(c1, SimDuration::from_micros(1700));
    }

    #[test]
    fn remote_beats_software_even_for_lone_connections() {
        // Fig. 23: remote (1.7ms) < no offloading (2ms) — "the added RTT is
        // outweighed by the time saved through offloading".
        let remote = RemoteKeyServerBackend::new(KeyServerPlacement::LocalAz);
        let sw = SoftwareBackend::default();
        assert!(remote.completion(1) < sw.completion(1));
    }

    #[test]
    fn no_accel_hardware_falls_back_to_software_cost() {
        let mut be = RemoteKeyServerBackend::new(KeyServerPlacement::LocalAz);
        be.cfg.has_accel_hardware = false;
        assert!(be.completion(8) > RemoteKeyServerBackend::new(KeyServerPlacement::LocalAz).completion(8));
    }

    #[test]
    fn fallback_takes_over_and_releases() {
        use crate::accel::SoftwareBackend;
        let mut be = FallbackBackend::new(
            RemoteKeyServerBackend::new(KeyServerPlacement::LocalAz),
            SoftwareBackend::default(),
        );
        assert_eq!(be.completion(8), SimDuration::from_micros(1700));
        assert_eq!(be.name(), "keyserver-local-az");
        // Key server down: local software serves (slower, but alive).
        be.set_primary_health(false);
        assert_eq!(be.completion(8), SimDuration::from_millis(2));
        assert_eq!(be.name(), "software");
        assert!(!be.primary_healthy());
        // Recovery restores the fast path.
        be.set_primary_health(true);
        assert_eq!(be.completion(8), SimDuration::from_micros(1700));
    }

    #[test]
    fn injected_timeout_inflates_completion_until_cleared() {
        let mut be = RemoteKeyServerBackend::new(KeyServerPlacement::LocalAz);
        let healthy = be.completion(8);
        be.inject_timeout(Some(SimDuration::from_millis(15)));
        assert_eq!(be.completion(8), healthy + SimDuration::from_millis(15));
        be.inject_timeout(None);
        assert_eq!(be.completion(8), healthy);
    }

    #[test]
    fn keyless_mode_pays_on_prem_rtt() {
        let keyless = RemoteKeyServerBackend::new(KeyServerPlacement::OnPremKeyless);
        let local = RemoteKeyServerBackend::new(KeyServerPlacement::LocalAz);
        assert!(keyless.completion(8) > local.completion(8));
        assert_eq!(keyless.name(), "keyserver-keyless");
    }
}
