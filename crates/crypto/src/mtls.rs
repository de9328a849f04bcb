//! The mTLS handshake state machine and record layer.
//!
//! A deliberately small TLS: one DH round trip establishes a shared secret,
//! from which both sides derive a ChaCha20 session key. The state machine
//! is explicit (wrong-order calls are errors, not panics).
//!
//! Records are sealed with the RFC 8439 ChaCha20-Poly1305 AEAD
//! ([`crate::aead`]). The record's sequence number is both the nonce (its
//! little-endian bytes, zero-padded to 12) and the additional data, and
//! the 16-byte tag is compared in constant time, so a tampered, replayed
//! or reordered record is rejected rather than decrypted. The session key
//! still comes from the splitmix stand-in for HKDF
//! ([`ChaCha20::from_shared_secret`]).
//!
//! Since the lifecycle layer ([`crate::lifecycle`]) a hello carries a full
//! [`Cert`] — identity, tenant, serial, expiry — not a bare integer, and
//! every handshake step takes the caller's clock so expiry and revocation
//! are checked *at handshake time* against the endpoint's installed
//! [`TrustBundle`]. Established sessions can also be **resumed** from a
//! [`SessionTicket`]: resumption re-installs the session secret without the
//! asymmetric step, which is why only full handshakes pay the accelerator
//! batch / key-server RTT cost at the call site.
//!
//! Time/cost of the *asymmetric* step is priced by an
//! [`crate::accel::AsymmetricBackend`] at the call site (the mesh data
//! path); this module is the functional half.

use crate::aead::{self, TAG_LEN};
use crate::chacha20::ChaCha20;
use crate::dh::{DhKeyPair, DhParams, SharedSecret};
use crate::lifecycle::{Cert, SessionTicket, TrustBundle};
use canal_sim::SimTime;

/// Handshake protocol state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MtlsState {
    /// Nothing sent yet.
    Idle,
    /// Client: hello sent, awaiting server hello.
    HelloSent,
    /// Secret derived; record layer active.
    Established,
    /// Handshake failed; endpoint unusable.
    Failed,
}

/// Errors from the handshake or record layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MtlsError {
    /// API called in the wrong state.
    BadState,
    /// Peer certificate identity did not match the expected identity, or
    /// the peer presented a cert for the wrong tenant.
    AuthenticationFailed,
    /// Record failed integrity verification.
    BadRecord,
    /// A certificate (own or peer's) was past `not_after` at handshake
    /// time. Retryable-after-refresh: a re-issued cert clears it.
    CertificateExpired,
    /// The peer's certificate serial is revoked by the installed trust
    /// bundle. Terminal: no retry can succeed until re-issuance under a
    /// non-revoked serial.
    CertificateRevoked,
}

impl std::fmt::Display for MtlsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for MtlsError {}

/// A hello message: the sender's public DH value plus its certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// The sender's workload certificate (identity, tenant, serial,
    /// expiry) — what used to be a bare `u64` identity.
    pub cert: Cert,
    /// Sender's public DH value.
    pub public: u64,
}

/// Completed-handshake summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandshakeOutcome {
    /// The agreed secret (both sides hold the same value).
    pub secret: SharedSecret,
    /// The peer's verified identity.
    pub peer_identity: u64,
}

/// A sealed record: sequence number + ciphertext + AEAD tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Sender-side sequence number (the nonce and the additional data).
    pub seq: u64,
    ciphertext: Vec<u8>,
    tag: [u8; TAG_LEN],
}

fn seq_nonce(seq: u64) -> [u8; 12] {
    let mut n = [0u8; 12];
    n[..8].copy_from_slice(&seq.to_le_bytes());
    n
}

/// One side of an mTLS connection.
pub struct MtlsEndpoint {
    state: MtlsState,
    keys: DhKeyPair,
    cert: Cert,
    /// Identity we require of the peer (mutual auth); `None` accepts any.
    expected_peer: Option<u64>,
    /// Validation view for the peer's cert; `None` skips revocation and
    /// tenant checks (expiry on the cert itself is always enforced).
    trust: Option<TrustBundle>,
    session: Option<ChaCha20>,
    send_seq: u64,
    recv_seq: u64,
    peer_identity: Option<u64>,
    /// Whether the session came from a resumption ticket (no asymmetric
    /// step was performed).
    resumed: bool,
}

impl MtlsEndpoint {
    /// Create an endpoint with a bare identity and private-key material —
    /// the pre-lifecycle API, equivalent to a never-expiring tenant-0 cert.
    pub fn new(identity: u64, private_material: u64) -> Self {
        Self::with_cert(Cert::eternal(identity), private_material)
    }

    /// Create an endpoint presenting `cert`.
    pub fn with_cert(cert: Cert, private_material: u64) -> Self {
        MtlsEndpoint {
            state: MtlsState::Idle,
            keys: DhKeyPair::generate(DhParams::DEFAULT, private_material),
            cert,
            expected_peer: None,
            trust: None,
            session: None,
            send_seq: 0,
            recv_seq: 0,
            peer_identity: None,
            resumed: false,
        }
    }

    /// Require the peer to present this identity (mutual authentication).
    pub fn expect_peer(mut self, identity: u64) -> Self {
        self.expected_peer = Some(identity);
        self
    }

    /// Install the trust bundle peer certs are validated against
    /// (tenant match + revocation; expiry is always checked).
    pub fn with_trust(mut self, bundle: TrustBundle) -> Self {
        self.trust = Some(bundle);
        self
    }

    /// Replace the endpoint's own certificate (rotation refresh). Only
    /// meaningful before establishment.
    pub fn refresh_cert(&mut self, cert: Cert) -> Result<(), MtlsError> {
        if self.state == MtlsState::Established {
            return Err(MtlsError::BadState);
        }
        self.cert = cert;
        if self.state == MtlsState::Failed {
            self.state = MtlsState::Idle;
        }
        Ok(())
    }

    /// Current protocol state.
    pub fn state(&self) -> MtlsState {
        self.state
    }

    /// The endpoint's own certificate.
    pub fn cert(&self) -> &Cert {
        &self.cert
    }

    /// Whether the established session was resumed from a ticket.
    pub fn resumed(&self) -> bool {
        self.resumed
    }

    /// Client step 1: emit our hello. Fails `CertificateExpired` if our own
    /// cert is no longer valid at `now` — an expired workload must refresh
    /// before it can even open.
    pub fn client_hello(&mut self, now: SimTime) -> Result<Hello, MtlsError> {
        if self.state != MtlsState::Idle {
            return Err(MtlsError::BadState);
        }
        if !self.cert.valid_at(now) {
            self.state = MtlsState::Failed;
            return Err(MtlsError::CertificateExpired);
        }
        self.state = MtlsState::HelloSent;
        Ok(Hello {
            cert: self.cert,
            public: self.keys.public,
        })
    }

    fn verify_peer(&mut self, hello: &Hello, now: SimTime) -> Result<(), MtlsError> {
        let verdict = (|| {
            if let Some(expected) = self.expected_peer {
                if hello.cert.identity != expected {
                    return Err(MtlsError::AuthenticationFailed);
                }
            }
            match &self.trust {
                Some(bundle) => bundle.permits(&hello.cert, now),
                None if !hello.cert.valid_at(now) => Err(MtlsError::CertificateExpired),
                None => Ok(()),
            }
        })();
        if let Err(e) = verdict {
            self.state = MtlsState::Failed;
            return Err(e);
        }
        Ok(())
    }

    fn establish(&mut self, peer: &Hello) -> HandshakeOutcome {
        let secret = self.keys.agree(peer.public);
        self.session = Some(ChaCha20::from_shared_secret(secret.0));
        self.state = MtlsState::Established;
        self.peer_identity = Some(peer.cert.identity);
        HandshakeOutcome {
            secret,
            peer_identity: peer.cert.identity,
        }
    }

    /// Server step: consume the client hello, emit ours, and establish.
    pub fn server_respond(
        &mut self,
        client: &Hello,
        now: SimTime,
    ) -> Result<(Hello, HandshakeOutcome), MtlsError> {
        if self.state != MtlsState::Idle {
            return Err(MtlsError::BadState);
        }
        if !self.cert.valid_at(now) {
            self.state = MtlsState::Failed;
            return Err(MtlsError::CertificateExpired);
        }
        self.verify_peer(client, now)?;
        let my_hello = Hello {
            cert: self.cert,
            public: self.keys.public,
        };
        let outcome = self.establish(client);
        Ok((my_hello, outcome))
    }

    /// Client step 2: consume the server hello and establish.
    pub fn client_finish(
        &mut self,
        server: &Hello,
        now: SimTime,
    ) -> Result<HandshakeOutcome, MtlsError> {
        if self.state != MtlsState::HelloSent {
            return Err(MtlsError::BadState);
        }
        self.verify_peer(server, now)?;
        Ok(self.establish(server))
    }

    /// Install an externally derived secret (the key-server flow: the node
    /// never held the tenant private key; the symmetric key arrived sealed
    /// over the requester channel).
    pub fn install_secret(
        &mut self,
        secret: SharedSecret,
        peer_identity: u64,
    ) -> Result<(), MtlsError> {
        if self.state == MtlsState::Established || self.state == MtlsState::Failed {
            return Err(MtlsError::BadState);
        }
        self.session = Some(ChaCha20::from_shared_secret(secret.0));
        self.peer_identity = Some(peer_identity);
        self.state = MtlsState::Established;
        Ok(())
    }

    /// Resume a session from a ticket: re-installs the session secret
    /// without any asymmetric step (no DH, no key-server round trip — the
    /// call site charges no accelerator cost). The ticket must still be
    /// live at `now`; a dead ticket means the caller falls back to a full
    /// handshake.
    pub fn resume(&mut self, ticket: &SessionTicket, now: SimTime) -> Result<(), MtlsError> {
        if self.state != MtlsState::Idle {
            return Err(MtlsError::BadState);
        }
        if now >= ticket.expires {
            return Err(MtlsError::CertificateExpired);
        }
        if let Some(expected) = self.expected_peer {
            if ticket.peer_identity != expected {
                return Err(MtlsError::AuthenticationFailed);
            }
        }
        if let Some(bundle) = &self.trust {
            if ticket.tenant == bundle.tenant
                && (ticket.cert_serial < bundle.revocation_floor
                    || bundle.revoked.binary_search(&ticket.cert_serial).is_ok())
            {
                return Err(MtlsError::CertificateRevoked);
            }
        }
        self.session = Some(ChaCha20::from_shared_secret(ticket.secret.0));
        self.peer_identity = Some(ticket.peer_identity);
        self.state = MtlsState::Established;
        self.resumed = true;
        Ok(())
    }

    /// The verified peer identity (after establishment).
    pub fn peer_identity(&self) -> Option<u64> {
        self.peer_identity
    }

    /// Seal application bytes into the next record.
    pub fn seal(&mut self, plaintext: &[u8]) -> Result<Record, MtlsError> {
        let cipher = self.session.as_ref().ok_or(MtlsError::BadState)?;
        let seq = self.send_seq;
        self.send_seq += 1;
        let mut ciphertext = plaintext.to_vec();
        let aad = seq.to_le_bytes();
        let tag = aead::seal_in_place(cipher, &seq_nonce(seq), &aad, &mut ciphertext);
        Ok(Record {
            seq,
            ciphertext,
            tag,
        })
    }

    /// Open the next in-order record.
    pub fn open(&mut self, record: &Record) -> Result<Vec<u8>, MtlsError> {
        let cipher = self.session.as_ref().ok_or(MtlsError::BadState)?;
        if record.seq != self.recv_seq {
            return Err(MtlsError::BadRecord);
        }
        let mut plaintext = record.ciphertext.clone();
        let (nonce, aad) = (seq_nonce(record.seq), record.seq.to_le_bytes());
        if !aead::open_in_place(cipher, &nonce, &aad, &mut plaintext, &record.tag) {
            return Err(MtlsError::BadRecord);
        }
        self.recv_seq += 1;
        Ok(plaintext)
    }
}

impl std::fmt::Debug for MtlsEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MtlsEndpoint {{ identity: {}, tenant: {}, state: {:?} }}",
            self.cert.identity, self.cert.tenant, self.state
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::{TenantCa, TicketCache};
    use canal_sim::SimDuration;

    const NOW: SimTime = SimTime::ZERO;

    fn pair() -> (MtlsEndpoint, MtlsEndpoint) {
        (
            MtlsEndpoint::new(100, 0xAAAA).expect_peer(200),
            MtlsEndpoint::new(200, 0xBBBB).expect_peer(100),
        )
    }

    #[test]
    fn handshake_establishes_matching_secrets() {
        let (mut client, mut server) = pair();
        let ch = client.client_hello(NOW).unwrap();
        let (sh, server_out) = server.server_respond(&ch, NOW).unwrap();
        let client_out = client.client_finish(&sh, NOW).unwrap();
        assert_eq!(client_out.secret, server_out.secret);
        assert_eq!(client.state(), MtlsState::Established);
        assert_eq!(server.state(), MtlsState::Established);
        assert_eq!(client.peer_identity(), Some(200));
        assert_eq!(server.peer_identity(), Some(100));
        assert!(!client.resumed() && !server.resumed());
    }

    #[test]
    fn records_flow_both_ways() {
        let (mut client, mut server) = pair();
        let ch = client.client_hello(NOW).unwrap();
        let (sh, _) = server.server_respond(&ch, NOW).unwrap();
        client.client_finish(&sh, NOW).unwrap();

        let r1 = client.seal(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(server.open(&r1).unwrap(), b"GET / HTTP/1.1\r\n\r\n");
        let r2 = server.seal(b"HTTP/1.1 200 OK\r\n\r\n").unwrap();
        assert_eq!(client.open(&r2).unwrap(), b"HTTP/1.1 200 OK\r\n\r\n");
    }

    #[test]
    fn wrong_identity_fails_authentication() {
        let mut client = MtlsEndpoint::new(100, 1).expect_peer(200);
        let mut imposter = MtlsEndpoint::new(666, 2); // claims 666, not 200
        let ch = client.client_hello(NOW).unwrap();
        let (sh, _) = imposter.server_respond(&ch, NOW).unwrap();
        assert_eq!(
            client.client_finish(&sh, NOW),
            Err(MtlsError::AuthenticationFailed)
        );
        assert_eq!(client.state(), MtlsState::Failed);
    }

    #[test]
    fn server_rejects_wrong_client() {
        let mut bad_client = MtlsEndpoint::new(31337, 1);
        let mut server = MtlsEndpoint::new(200, 2).expect_peer(100);
        let ch = bad_client.client_hello(NOW).unwrap();
        assert_eq!(
            server.server_respond(&ch, NOW).unwrap_err(),
            MtlsError::AuthenticationFailed
        );
    }

    #[test]
    fn out_of_order_api_calls_error() {
        let (mut client, mut server) = pair();
        assert_eq!(client.seal(b"x").unwrap_err(), MtlsError::BadState);
        let ch = client.client_hello(NOW).unwrap();
        assert_eq!(client.client_hello(NOW).unwrap_err(), MtlsError::BadState);
        let (sh, _) = server.server_respond(&ch, NOW).unwrap();
        assert_eq!(server.server_respond(&ch, NOW).unwrap_err(), MtlsError::BadState);
        client.client_finish(&sh, NOW).unwrap();
        assert_eq!(client.client_finish(&sh, NOW).unwrap_err(), MtlsError::BadState);
    }

    #[test]
    fn tampered_and_replayed_records_rejected() {
        let (mut client, mut server) = pair();
        let ch = client.client_hello(NOW).unwrap();
        let (sh, _) = server.server_respond(&ch, NOW).unwrap();
        client.client_finish(&sh, NOW).unwrap();

        let mut r = client.seal(b"secret payload").unwrap();
        let good = r.clone();
        r.ciphertext[3] ^= 0x01;
        assert_eq!(server.open(&r), Err(MtlsError::BadRecord));
        // The untampered record still opens...
        assert!(server.open(&good).is_ok());
        // ...but replaying it is rejected (stale sequence).
        assert_eq!(server.open(&good), Err(MtlsError::BadRecord));
    }

    #[test]
    fn any_flipped_tag_or_ciphertext_byte_or_sequence_is_rejected() {
        let (mut client, mut server) = pair();
        let ch = client.client_hello(NOW).unwrap();
        let (sh, _) = server.server_respond(&ch, NOW).unwrap();
        client.client_finish(&sh, NOW).unwrap();

        let good = client.seal(b"GET /api/v1/orders HTTP/1.1\r\n\r\n").unwrap();
        for i in 0..TAG_LEN {
            let mut r = good.clone();
            r.tag[i] ^= 0x01;
            assert_eq!(server.open(&r), Err(MtlsError::BadRecord), "tag byte {i}");
        }
        for i in 0..good.ciphertext.len() {
            let mut r = good.clone();
            r.ciphertext[i] ^= 0x01;
            assert_eq!(server.open(&r), Err(MtlsError::BadRecord), "ciphertext byte {i}");
        }
        let mut r = good.clone();
        r.seq ^= 1;
        assert_eq!(server.open(&r), Err(MtlsError::BadRecord), "sequence number");
        // None of the rejections advanced the receiver.
        assert!(server.open(&good).is_ok());

        // A record replayed under the next sequence number still fails:
        // the tag covers the sequence through the nonce and the AAD.
        let next = client.seal(b"second").unwrap();
        let mut moved = good.clone();
        moved.seq = next.seq;
        assert_eq!(server.open(&moved), Err(MtlsError::BadRecord));
        assert_eq!(server.open(&next).unwrap(), b"second");
    }

    #[test]
    fn key_server_flow_installs_external_secret() {
        // Neither side runs the DH locally; the symmetric key arrives from
        // the key server (tested end-to-end in keyserver.rs). Both install.
        let secret = SharedSecret(0x1122_3344_5566_7788);
        let mut a = MtlsEndpoint::new(1, 11);
        let mut b = MtlsEndpoint::new(2, 22);
        a.install_secret(secret, 2).unwrap();
        b.install_secret(secret, 1).unwrap();
        let r = a.seal(b"via key server").unwrap();
        assert_eq!(b.open(&r).unwrap(), b"via key server");
        // Installing twice is a state error.
        assert_eq!(a.install_secret(secret, 2), Err(MtlsError::BadState));
    }

    #[test]
    fn expired_own_cert_refuses_to_open() {
        let mut ca = TenantCa::new(1);
        let cert = ca.issue(100, SimTime::ZERO, SimDuration::from_secs(10));
        let mut client = MtlsEndpoint::with_cert(cert, 1);
        let late = SimTime::from_secs(10);
        assert_eq!(client.client_hello(late), Err(MtlsError::CertificateExpired));
        assert_eq!(client.state(), MtlsState::Failed);
        // A refreshed cert recovers the endpoint (retryable-after-refresh).
        let fresh = ca.issue(100, late, SimDuration::from_secs(10));
        client.refresh_cert(fresh).unwrap();
        assert!(client.client_hello(late).is_ok());
    }

    #[test]
    fn expired_peer_cert_rejected_at_handshake_time() {
        let mut ca = TenantCa::new(1);
        let client_cert = ca.issue(100, SimTime::ZERO, SimDuration::from_secs(5));
        let server_cert = ca.issue(200, SimTime::ZERO, SimDuration::from_secs(3600));
        let mut client = MtlsEndpoint::with_cert(client_cert, 1);
        let mut server = MtlsEndpoint::with_cert(server_cert, 2);
        let ch = client.client_hello(SimTime::from_secs(4)).unwrap();
        // The hello is in flight while the cert expires.
        assert_eq!(
            server.server_respond(&ch, SimTime::from_secs(6)),
            Err(MtlsError::CertificateExpired)
        );
        assert_eq!(server.state(), MtlsState::Failed);
    }

    #[test]
    fn revoked_peer_rejected_via_trust_bundle() {
        let mut ca = TenantCa::new(7);
        let now = SimTime::from_secs(1);
        let client_cert = ca.issue(100, now, SimDuration::from_secs(3600));
        let server_cert = ca.issue(200, now, SimDuration::from_secs(3600));
        ca.revoke(client_cert.serial, now);
        let bundle = ca.trust_bundle(1);
        let mut client = MtlsEndpoint::with_cert(client_cert, 1);
        let mut server = MtlsEndpoint::with_cert(server_cert, 2).with_trust(bundle);
        let ch = client.client_hello(now).unwrap();
        assert_eq!(
            server.server_respond(&ch, now),
            Err(MtlsError::CertificateRevoked)
        );
    }

    #[test]
    fn wrong_tenant_rejected_via_trust_bundle() {
        let mut ca7 = TenantCa::new(7);
        let mut ca9 = TenantCa::new(9);
        let now = SimTime::from_secs(1);
        let intruder_cert = ca9.issue(100, now, SimDuration::from_secs(3600));
        let server_cert = ca7.issue(200, now, SimDuration::from_secs(3600));
        let mut intruder = MtlsEndpoint::with_cert(intruder_cert, 1);
        let mut server = MtlsEndpoint::with_cert(server_cert, 2).with_trust(ca7.trust_bundle(1));
        let ch = intruder.client_hello(now).unwrap();
        assert_eq!(
            server.server_respond(&ch, now),
            Err(MtlsError::AuthenticationFailed)
        );
    }

    #[test]
    fn resumption_skips_asymmetric_step_and_matches_full_session() {
        let mut ca = TenantCa::new(3);
        let now = SimTime::from_secs(1);
        let client_cert = ca.issue(100, now, SimDuration::from_secs(3600));
        let server_cert = ca.issue(200, now, SimDuration::from_secs(3600));

        // Full handshake first.
        let mut client = MtlsEndpoint::with_cert(client_cert, 0xAAAA);
        let mut server = MtlsEndpoint::with_cert(server_cert, 0xBBBB);
        let ch = client.client_hello(now).unwrap();
        let (sh, out) = server.server_respond(&ch, now).unwrap();
        client.client_finish(&sh, now).unwrap();

        // Mint a ticket from the outcome; resume fresh endpoints from it.
        let mut cache = TicketCache::new();
        let t = cache.mint(&client_cert, 200, out.secret, now, SimDuration::from_secs(600));
        let later = now + SimDuration::from_secs(60);
        let ticket = cache.redeem(t.id, later).unwrap();
        let mut rc = MtlsEndpoint::with_cert(client_cert, 0xAAAA);
        let mut rs = MtlsEndpoint::with_cert(server_cert, 0xBBBB);
        rc.resume(&ticket, later).unwrap();
        rs.resume(
            &SessionTicket { peer_identity: 100, ..ticket },
            later,
        )
        .unwrap();
        assert!(rc.resumed() && rs.resumed());

        // The resumed pair interoperates with itself AND derives the same
        // cipher stream the full-handshake pair would: cross-open works.
        let r = rc.seal(b"resumed").unwrap();
        assert_eq!(rs.open(&r).unwrap(), b"resumed");
        let full = client.seal(b"resumed").unwrap();
        let res = rc.seal(b"resumed").unwrap();
        // seq 0 was consumed above on rc; compare the full pair's record
        // against a fresh resumed endpoint at the same seq instead.
        let mut rc2 = MtlsEndpoint::with_cert(client_cert, 0);
        rc2.resume(&ticket, later).unwrap();
        let res0 = rc2.seal(b"resumed").unwrap();
        assert_eq!(full, res0, "resume derives the identical session cipher");
        let _ = res;
    }

    #[test]
    fn dead_ticket_rejected_at_resume() {
        let mut ca = TenantCa::new(3);
        let now = SimTime::from_secs(1);
        let cert = ca.issue(100, now, SimDuration::from_secs(30));
        let mut cache = TicketCache::new();
        let t = cache.mint(&cert, 200, SharedSecret(0x55), now, SimDuration::from_secs(600));
        // Ticket clamped to cert.not_after; at that instant resume fails.
        let mut ep = MtlsEndpoint::with_cert(cert, 1);
        assert_eq!(
            ep.resume(&t, cert.not_after),
            Err(MtlsError::CertificateExpired)
        );
        // A bundle that revokes the generation kills resumption too.
        ca.rotate();
        ca.revoke_generation();
        let mut ep2 =
            MtlsEndpoint::with_cert(cert, 1).with_trust(ca.trust_bundle(2));
        assert_eq!(
            ep2.resume(&t, now + SimDuration::from_secs(1)),
            Err(MtlsError::CertificateRevoked)
        );
    }
}
