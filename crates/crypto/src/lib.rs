//! # canal-crypto
//!
//! The mTLS substrate of the Canal Mesh reproduction (§4.1.3, App. C):
//!
//! * [`chacha20`] — a real RFC 8439 ChaCha20 stream cipher used for all
//!   symmetric ("local") crypto, validated against the RFC test vectors.
//!   The keystream is scalar on purpose (no `unsafe`, so no intrinsics).
//! * [`poly1305`] — the RFC 8439 Poly1305 one-time authenticator, in
//!   64-bit limbs.
//! * [`aead`] — RFC 8439 ChaCha20-Poly1305: mTLS records (nonce and AAD
//!   are the record sequence number) and key-server responses are sealed
//!   with it, under a 16-byte tag compared in constant time. Session keys
//!   still come from a splitmix stand-in for HKDF
//!   ([`ChaCha20::from_shared_secret`]).
//! * [`dh`] — Diffie-Hellman key agreement over a 64-bit safe prime. The
//!   modular exponentiation is the *asymmetric workload* whose cost the
//!   accelerators batch; cryptographic strength is not the point of the
//!   reproduction (documented in DESIGN.md).
//! * [`accel`] — the asymmetric-crypto backends: plain software (old CPUs),
//!   the local AVX-512-style batch accelerator with its 8-wide buffer and
//!   1 ms flush timeout (reproducing the Fig. 25 degradation), and the remote
//!   key server call (flat ≈1.7 ms completion, Fig. 23).
//! * [`keystore`] — encrypted in-memory private-key storage: keys are held
//!   encrypted, decrypted transiently per request, never written to disk.
//! * [`keyserver`] — the multi-tenant key server: verified requesters,
//!   pre-established secure channels, shared batching across tenants, and
//!   the keyless mode of Appendix B (user-premises key server).
//! * [`mtls`] — the handshake state machine gluing it together: asymmetric
//!   negotiation through a backend, then ChaCha20-Poly1305 records.
//! * [`lifecycle`] — certificate lifecycle: per-tenant CAs issuing certs
//!   with expiry, generation-based rotation and revocation, distributable
//!   trust bundles, and session-ticket resumption (resumed handshakes skip
//!   the asymmetric step entirely).

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod accel;
pub mod aead;
pub mod chacha20;
pub mod dh;
pub mod keyserver;
pub mod keystore;
pub mod lifecycle;
pub mod mtls;
pub mod poly1305;

pub use accel::{AccelConfig, AsymmetricBackend, BatchAccelerator, SoftwareBackend};
pub use chacha20::ChaCha20;
pub use dh::{DhKeyPair, DhParams, SharedSecret};
pub use keyserver::{KeyServer, KeyServerConfig, KeyServerPlacement};
pub use keystore::KeyStore;
pub use lifecycle::{Cert, SessionTicket, TenantCa, TicketCache, TicketMiss, TrustBundle};
pub use mtls::{HandshakeOutcome, MtlsEndpoint, MtlsError, MtlsState};
