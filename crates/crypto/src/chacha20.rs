//! ChaCha20 stream cipher (RFC 8439).
//!
//! Used for all symmetric crypto in the reproduction: mTLS record
//! protection and the pre-established secure channel to the key server
//! (both as the cipher half of [`crate::aead`]), and the at-rest
//! encryption of stored private keys. Implemented from the RFC and
//! validated against its test vectors.
//!
//! The keystream is scalar on purpose: the crate forbids `unsafe`, so SIMD
//! intrinsics are out, and the baseline x86-64 target does not
//! auto-vectorize the rotates. [`ChaCha20::apply`] XORs one `u32` word at a
//! time; a byte-at-a-time reference kept in the tests checks it.

/// ChaCha20 cipher instance bound to a key.
#[derive(Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
}

const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha20 {
    /// Create a cipher from a 256-bit key.
    pub fn new(key: &[u8; 32]) -> Self {
        let mut k = [0u32; 8];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            k[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        ChaCha20 { key: k }
    }

    /// Derive a key from a 64-bit shared secret (the DH output) by
    /// repeating-and-mixing — a stand-in for HKDF adequate for the
    /// simulation's purposes. The splitmix64 finalizer is a bijection, so
    /// distinct secrets give distinct keys.
    pub fn from_shared_secret(secret: u64) -> Self {
        let mut key = [0u8; 32];
        let mut x = secret;
        for chunk in key.chunks_exact_mut(8) {
            // splitmix64 expansion
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            chunk.copy_from_slice(&z.to_le_bytes());
        }
        Self::new(&key)
    }

    /// The block-function input for `nonce`, with the counter word zero.
    pub(crate) fn initial_state(&self, nonce: &[u8; 12]) -> [u32; 16] {
        let mut state = [0u32; 16];
        state[0..4].copy_from_slice(&SIGMA);
        state[4..12].copy_from_slice(&self.key);
        for (i, chunk) in nonce.chunks_exact(4).enumerate() {
            state[13 + i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        state
    }

    /// The ChaCha20 block function: 64 bytes of keystream for
    /// (counter, nonce).
    pub fn block(&self, counter: u32, nonce: &[u8; 12]) -> [u8; 64] {
        let words = keystream(&self.initial_state(nonce), counter);
        let mut out = [0u8; 64];
        for (o, w) in out.chunks_exact_mut(4).zip(words) {
            o.copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// XOR `data` with the keystream starting at block `initial_counter`.
    /// Encryption and decryption are the same operation.
    pub fn apply(&self, initial_counter: u32, nonce: &[u8; 12], data: &mut [u8]) {
        let init = self.initial_state(nonce);
        for (block_idx, chunk) in data.chunks_mut(64).enumerate() {
            xor_block(&init, initial_counter.wrapping_add(block_idx as u32), chunk);
        }
    }

    /// Convenience: encrypt a copy of `data`.
    pub fn encrypt(&self, counter: u32, nonce: &[u8; 12], data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        self.apply(counter, nonce, &mut out);
        out
    }
}

/// The 16 keystream words of block `counter` for an
/// [`ChaCha20::initial_state`].
fn keystream(init: &[u32; 16], counter: u32) -> [u32; 16] {
    let mut state = *init;
    state[12] = counter;
    let initial = state;
    for _ in 0..10 {
        // column rounds
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        // diagonal rounds
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }
    for (s, i) in state.iter_mut().zip(initial) {
        *s = s.wrapping_add(i);
    }
    state
}

/// XOR one chunk of at most 64 bytes with keystream block `counter`, one
/// little-endian `u32` word at a time (the tail of a short chunk byte-wise).
pub(crate) fn xor_block(init: &[u32; 16], counter: u32, chunk: &mut [u8]) {
    let ks = keystream(init, counter);
    let full_words = chunk.len() / 4;
    let mut words = chunk.chunks_exact_mut(4);
    for (c, k) in (&mut words).zip(ks) {
        let v = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ k;
        c.copy_from_slice(&v.to_le_bytes());
    }
    if let Some(k) = ks.get(full_words) {
        for (b, k) in words.into_remainder().iter_mut().zip(k.to_le_bytes()) {
            *b ^= k;
        }
    }
}

impl std::fmt::Debug for ChaCha20 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("ChaCha20 {{ key: <redacted> }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 8439 §2.3.2 test vector.
    #[test]
    fn rfc8439_block_vector() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let block = ChaCha20::new(&key).block(1, &nonce);
        let expected: [u8; 64] = [
            0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
            0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0, 0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a,
            0xc3, 0xd4, 0x6c, 0x4e, 0xd2, 0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2,
            0xd7, 0x05, 0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9,
            0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e,
        ];
        assert_eq!(block, expected);
    }

    /// RFC 8439 §2.4.2 encryption vector (first 16 bytes checked).
    #[test]
    fn rfc8439_encrypt_vector_prefix() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let ct = ChaCha20::new(&key).encrypt(1, &nonce, plaintext);
        let expected_prefix: [u8; 16] = [
            0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba, 0x07, 0x28, 0xdd, 0x0d,
            0x69, 0x81,
        ];
        assert_eq!(&ct[..16], &expected_prefix);
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let cipher = ChaCha20::from_shared_secret(0xDEAD_BEEF_1234_5678);
        let nonce = [7u8; 12];
        let msg = b"the private key never leaves the key server".to_vec();
        let ct = cipher.encrypt(0, &nonce, &msg);
        assert_ne!(ct, msg);
        let pt = cipher.encrypt(0, &nonce, &ct); // XOR is its own inverse
        assert_eq!(pt, msg);
    }

    #[test]
    fn different_secrets_different_keystreams() {
        let a = ChaCha20::from_shared_secret(1);
        let b = ChaCha20::from_shared_secret(2);
        let nonce = [0u8; 12];
        assert_ne!(a.block(0, &nonce), b.block(0, &nonce));
    }

    #[test]
    fn secrets_differing_only_in_the_low_bit_derive_different_keys() {
        let nonce = [0u8; 12];
        for s in [0u64, 2, 0xCAFE_F00D_BEEF_1234] {
            assert_ne!(
                ChaCha20::from_shared_secret(s).block(0, &nonce),
                ChaCha20::from_shared_secret(s ^ 1).block(0, &nonce),
                "secret {s:#x}"
            );
        }
    }

    #[test]
    fn multiblock_messages() {
        let cipher = ChaCha20::from_shared_secret(42);
        let nonce = [1u8; 12];
        let msg = vec![0xA5u8; 1000]; // spans 16 blocks
        let ct = cipher.encrypt(5, &nonce, &msg);
        let rt = cipher.encrypt(5, &nonce, &ct);
        assert_eq!(rt, msg);
        // Wrong starting counter fails to decrypt.
        let bad = cipher.encrypt(6, &nonce, &ct);
        assert_ne!(bad, msg);
    }

    /// The byte-at-a-time `apply` the word-wise one replaced: the
    /// reference it is checked against.
    fn reference_apply(c: &ChaCha20, initial_counter: u32, nonce: &[u8; 12], data: &mut [u8]) {
        for (block_idx, chunk) in data.chunks_mut(64).enumerate() {
            let ks = c.block(initial_counter.wrapping_add(block_idx as u32), nonce);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
    }

    #[test]
    fn word_wise_apply_matches_byte_reference() {
        let mut rng = canal_sim::SimRng::seed(0xC4AC_4A20);
        for len in 0..=1100usize {
            let cipher = ChaCha20::from_shared_secret(rng.u64());
            let mut nonce = [0u8; 12];
            for b in &mut nonce {
                *b = rng.u64() as u8;
            }
            // Every third case starts within 20 blocks of the counter wrap.
            let counter = if len % 3 == 0 {
                u32::MAX - rng.index(20) as u32
            } else {
                rng.u64() as u32
            };
            let msg: Vec<u8> = (0..len).map(|_| rng.u64() as u8).collect();
            let mut fast = msg.clone();
            cipher.apply(counter, &nonce, &mut fast);
            let mut slow = msg;
            reference_apply(&cipher, counter, &nonce, &mut slow);
            assert_eq!(fast, slow, "len {len}, counter {counter:#x}");
        }
    }

    #[test]
    fn debug_redacts_key() {
        let c = ChaCha20::from_shared_secret(1);
        assert!(format!("{c:?}").contains("redacted"));
    }
}
