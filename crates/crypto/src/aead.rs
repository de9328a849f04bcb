//! ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).
//!
//! The Poly1305 one-time key is the first 32 bytes of keystream block 0;
//! the data is encrypted from counter 1. The MAC runs over
//! `aad ‖ pad16 ‖ ciphertext ‖ pad16 ‖ le64(|aad|) ‖ le64(|ciphertext|)`.
//! Both directions make one pass over the data: each 64-byte keystream
//! block is XORed in and the ciphertext it produced (or consumed) is
//! absorbed by the MAC while it is still in cache. Tags are compared in
//! constant time.

use crate::chacha20::{xor_block, ChaCha20};
use crate::poly1305::Poly1305;

/// Tag length in bytes.
pub const TAG_LEN: usize = 16;

/// The Poly1305 key for `nonce`: keystream block 0 (RFC 8439 §2.6).
fn one_time_key(init: &[u32; 16]) -> [u8; 32] {
    let mut otk = [0u8; 32];
    xor_block(init, 0, &mut otk);
    otk
}

fn mac_lengths(mac: &mut Poly1305, aad_len: usize, ct_len: usize) {
    mac.pad16();
    let mut lens = [0u8; 16];
    lens[..8].copy_from_slice(&(aad_len as u64).to_le_bytes());
    lens[8..].copy_from_slice(&(ct_len as u64).to_le_bytes());
    mac.update(&lens);
}

/// Encrypt `data` in place and return its tag.
pub fn seal_in_place(
    cipher: &ChaCha20,
    nonce: &[u8; 12],
    aad: &[u8],
    data: &mut [u8],
) -> [u8; TAG_LEN] {
    let init = cipher.initial_state(nonce);
    let mut mac = Poly1305::new(&one_time_key(&init));
    mac.update(aad);
    mac.pad16();
    for (i, chunk) in data.chunks_mut(64).enumerate() {
        xor_block(&init, (i as u32).wrapping_add(1), chunk);
        mac.update(chunk);
    }
    mac_lengths(&mut mac, aad.len(), data.len());
    mac.finish()
}

/// Verify `tag` over the ciphertext in `data` and decrypt it in place.
/// Returns `false` on a tag mismatch; `data` then holds no plaintext the
/// caller may use.
#[must_use]
pub fn open_in_place(
    cipher: &ChaCha20,
    nonce: &[u8; 12],
    aad: &[u8],
    data: &mut [u8],
    tag: &[u8; TAG_LEN],
) -> bool {
    let init = cipher.initial_state(nonce);
    let mut mac = Poly1305::new(&one_time_key(&init));
    mac.update(aad);
    mac.pad16();
    for (i, chunk) in data.chunks_mut(64).enumerate() {
        mac.update(chunk);
        xor_block(&init, (i as u32).wrapping_add(1), chunk);
    }
    mac_lengths(&mut mac, aad.len(), data.len());
    tags_equal(&mac.finish(), tag)
}

/// Tag equality without an early exit on the first differing byte.
fn tags_equal(a: &[u8; TAG_LEN], b: &[u8; TAG_LEN]) -> bool {
    let diff = a.iter().zip(b).fold(0u8, |d, (x, y)| d | (x ^ y));
    std::hint::black_box(diff) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUNSCREEN: &[u8] = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";

    fn key_80_9f() -> [u8; 32] {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = 0x80 + i as u8;
        }
        key
    }

    /// RFC 8439 §2.6.2 test vector: Poly1305 key generation.
    #[test]
    fn rfc8439_one_time_key_vector() {
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7];
        let init = ChaCha20::new(&key_80_9f()).initial_state(&nonce);
        let expected: [u8; 32] = [
            0x8a, 0xd5, 0xa0, 0x8b, 0x90, 0x5f, 0x81, 0xcc, 0x81, 0x50, 0x40, 0x27, 0x4a, 0xb2,
            0x94, 0x71, 0xa8, 0x33, 0xb6, 0x37, 0xe3, 0xfd, 0x0d, 0xa5, 0x08, 0xdb, 0xb8, 0xe2,
            0xfd, 0xd1, 0xa6, 0x46,
        ];
        assert_eq!(one_time_key(&init), expected);
    }

    /// RFC 8439 §2.8.2 test vector: the full AEAD, ciphertext and tag.
    #[test]
    fn rfc8439_aead_vector() {
        let cipher = ChaCha20::new(&key_80_9f());
        let nonce: [u8; 12] = [7, 0, 0, 0, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47];
        let aad = [
            0x50, 0x51, 0x52, 0x53, 0xc0, 0xc1, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7,
        ];
        let mut data = SUNSCREEN.to_vec();
        let tag = seal_in_place(&cipher, &nonce, &aad, &mut data);
        let expected_ct: [u8; 114] = [
            0xd3, 0x1a, 0x8d, 0x34, 0x64, 0x8e, 0x60, 0xdb, 0x7b, 0x86, 0xaf, 0xbc, 0x53, 0xef,
            0x7e, 0xc2, 0xa4, 0xad, 0xed, 0x51, 0x29, 0x6e, 0x08, 0xfe, 0xa9, 0xe2, 0xb5, 0xa7,
            0x36, 0xee, 0x62, 0xd6, 0x3d, 0xbe, 0xa4, 0x5e, 0x8c, 0xa9, 0x67, 0x12, 0x82, 0xfa,
            0xfb, 0x69, 0xda, 0x92, 0x72, 0x8b, 0x1a, 0x71, 0xde, 0x0a, 0x9e, 0x06, 0x0b, 0x29,
            0x05, 0xd6, 0xa5, 0xb6, 0x7e, 0xcd, 0x3b, 0x36, 0x92, 0xdd, 0xbd, 0x7f, 0x2d, 0x77,
            0x8b, 0x8c, 0x98, 0x03, 0xae, 0xe3, 0x28, 0x09, 0x1b, 0x58, 0xfa, 0xb3, 0x24, 0xe4,
            0xfa, 0xd6, 0x75, 0x94, 0x55, 0x85, 0x80, 0x8b, 0x48, 0x31, 0xd7, 0xbc, 0x3f, 0xf4,
            0xde, 0xf0, 0x8e, 0x4b, 0x7a, 0x9d, 0xe5, 0x76, 0xd2, 0x65, 0x86, 0xce, 0xc6, 0x4b,
            0x61, 0x16,
        ];
        let expected_tag: [u8; 16] = [
            0x1a, 0xe1, 0x0b, 0x59, 0x4f, 0x09, 0xe2, 0x6a, 0x7e, 0x90, 0x2e, 0xcb, 0xd0, 0x60,
            0x06, 0x91,
        ];
        assert_eq!(data, expected_ct);
        assert_eq!(tag, expected_tag);
        assert!(open_in_place(&cipher, &nonce, &aad, &mut data, &tag));
        assert_eq!(data, SUNSCREEN);
    }

    #[test]
    fn any_flipped_bit_of_tag_data_aad_or_nonce_fails_to_open() {
        let cipher = ChaCha20::from_shared_secret(0x000A_11CE_5EED);
        let nonce = [3u8; 12];
        let aad = 9u64.to_le_bytes();
        let mut ct = SUNSCREEN.to_vec();
        let tag = seal_in_place(&cipher, &nonce, &aad, &mut ct);
        let opens = |nonce: &[u8; 12], aad: &[u8], ct: &[u8], tag: &[u8; 16]| {
            let mut buf = ct.to_vec();
            open_in_place(&cipher, nonce, aad, &mut buf, tag)
        };
        assert!(opens(&nonce, &aad, &ct, &tag));
        for i in 0..TAG_LEN {
            let mut bad = tag;
            bad[i] ^= 0x01;
            assert!(!opens(&nonce, &aad, &ct, &bad), "tag byte {i}");
        }
        for i in 0..ct.len() {
            let mut bad = ct.clone();
            bad[i] ^= 0x80;
            assert!(!opens(&nonce, &aad, &bad, &tag), "ciphertext byte {i}");
        }
        let mut bad_aad = aad;
        bad_aad[0] ^= 1;
        assert!(!opens(&nonce, &bad_aad, &ct, &tag), "aad");
        let mut bad_nonce = nonce;
        bad_nonce[11] ^= 1;
        assert!(!opens(&bad_nonce, &aad, &ct, &tag), "nonce");
        assert!(!opens(&nonce, &aad, &ct[..ct.len() - 1], &tag), "truncated");
    }

    #[test]
    fn round_trips_every_length_around_block_edges() {
        let cipher = ChaCha20::from_shared_secret(77);
        for len in [0, 1, 15, 16, 17, 63, 64, 65, 127, 128, 129, 1000] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let mut data = msg.clone();
            let tag = seal_in_place(&cipher, &[5; 12], b"", &mut data);
            assert!(
                open_in_place(&cipher, &[5; 12], b"", &mut data, &tag),
                "len {len}"
            );
            assert_eq!(data, msg, "len {len}");
        }
    }
}
