//! Poly1305 one-time authenticator (RFC 8439 §2.5).
//!
//! The accumulator and `r` live in three 64-bit limbs of 44, 44 and 42
//! bits. Blocks are absorbed two at a time as `(h + m₁)·r² + m₂·r`, so the
//! two products are independent and share one carry chain. The final
//! reduction and the tag comparison in [`crate::aead`] are branch-free in
//! the secret values.

/// Low 44 bits.
const MASK44: u64 = (1 << 44) - 1;
/// Low 42 bits.
const MASK42: u64 = (1 << 42) - 1;
/// The 2^128 bit every full message block carries (bit 40 of limb 2).
const HIBIT: u64 = 1 << 40;

/// A number mod 2^130 - 5 in 44/44/42-bit limbs (partially reduced).
type Limbs = [u64; 3];

/// Poly1305 state for one message under one 32-byte one-time key.
#[derive(Clone)]
pub struct Poly1305 {
    /// Clamped `r`.
    r: Limbs,
    /// `r²`, for absorbing two blocks per step.
    rr: Limbs,
    /// The accumulator `h`.
    h: Limbs,
    /// The key's second half, added after the final reduction.
    pad: [u64; 2],
    /// Bytes of a partial block not yet absorbed.
    buf: [u8; 16],
    leftover: usize,
}

fn le64(b: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&b[..8]);
    u64::from_le_bytes(w)
}

/// One 16-byte block as limbs, plus `hibit` (the 2^128 marker or 0).
fn block_limbs(m: &[u8], hibit: u64) -> Limbs {
    let t0 = le64(&m[0..8]);
    let t1 = le64(&m[8..16]);
    [
        t0 & MASK44,
        ((t0 >> 44) | (t1 << 20)) & MASK44,
        ((t1 >> 24) & MASK42) | hibit,
    ]
}

fn add(a: Limbs, b: Limbs) -> Limbs {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
}

/// The column sums of `a·b`; the limbs that pass 2^130 come back in times
/// 5 (times 20 here, as they land 2 bits above a limb boundary).
fn mul(a: Limbs, b: Limbs) -> [u128; 3] {
    let m = |x: u64, y: u64| u128::from(x) * u128::from(y);
    let (s1, s2) = (b[1] * 20, b[2] * 20);
    [
        m(a[0], b[0]) + m(a[1], s2) + m(a[2], s1),
        m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], s2),
        m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]),
    ]
}

/// Carry column sums back into partially reduced limbs.
fn carry(d: [u128; 3]) -> Limbs {
    let [d0, mut d1, mut d2] = d;
    let mut c = (d0 >> 44) as u64;
    let mut h0 = d0 as u64 & MASK44;
    d1 += u128::from(c);
    c = (d1 >> 44) as u64;
    let h1 = d1 as u64 & MASK44;
    d2 += u128::from(c);
    c = (d2 >> 42) as u64;
    let h2 = d2 as u64 & MASK42;
    h0 += c * 5;
    c = h0 >> 44;
    h0 &= MASK44;
    [h0, h1 + c, h2]
}

impl Poly1305 {
    /// Start a MAC under `key` (`r` ‖ `s`, RFC 8439 §2.5).
    pub fn new(key: &[u8; 32]) -> Self {
        let t0 = le64(&key[0..8]);
        let t1 = le64(&key[8..16]);
        let r = [
            t0 & 0x0ffc_0fff_ffff,
            ((t0 >> 44) | (t1 << 20)) & 0x0fff_ffc0_ffff,
            (t1 >> 24) & 0x000f_ffff_fc0f,
        ];
        Poly1305 {
            r,
            rr: carry(mul(r, r)),
            h: [0; 3],
            pad: [le64(&key[16..24]), le64(&key[24..32])],
            buf: [0; 16],
            leftover: 0,
        }
    }

    /// Absorb whole 16-byte blocks, each `h = (h + block)·r mod 2^130 - 5`.
    fn blocks(&mut self, m: &[u8], hibit: u64) {
        let (r, rr) = (self.r, self.rr);
        let mut h = self.h;
        let mut pairs = m.chunks_exact(32);
        for pair in &mut pairs {
            let (a, b) = pair.split_at(16);
            let [x0, x1, x2] = mul(add(h, block_limbs(a, hibit)), rr);
            let [y0, y1, y2] = mul(block_limbs(b, hibit), r);
            h = carry([x0 + y0, x1 + y1, x2 + y2]);
        }
        let rest = pairs.remainder();
        if !rest.is_empty() {
            h = carry(mul(add(h, block_limbs(rest, hibit)), r));
        }
        self.h = h;
    }

    /// Absorb message bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.leftover > 0 {
            let take = (16 - self.leftover).min(data.len());
            self.buf[self.leftover..self.leftover + take].copy_from_slice(&data[..take]);
            self.leftover += take;
            data = &data[take..];
            if self.leftover < 16 {
                return;
            }
            let b = self.buf;
            self.blocks(&b, HIBIT);
            self.leftover = 0;
        }
        let (whole, rest) = data.split_at(data.len() & !15);
        self.blocks(whole, HIBIT);
        self.buf[..rest.len()].copy_from_slice(rest);
        self.leftover = rest.len();
    }

    /// Zero-fill a partial block (RFC 8439 §2.8's `pad16`).
    pub fn pad16(&mut self) {
        if self.leftover > 0 {
            self.buf[self.leftover..].fill(0);
            let b = self.buf;
            self.blocks(&b, HIBIT);
            self.leftover = 0;
        }
    }

    /// The 16-byte tag.
    pub fn finish(mut self) -> [u8; 16] {
        if self.leftover > 0 {
            // A short final block carries its own 0x01 marker instead of
            // the 2^128 bit.
            self.buf[self.leftover] = 1;
            self.buf[self.leftover + 1..].fill(0);
            let b = self.buf;
            self.blocks(&b, 0);
        }
        let [mut h0, mut h1, mut h2] = self.h;
        // Fully carry h.
        let mut c = h1 >> 44;
        h1 &= MASK44;
        h2 += c;
        c = h2 >> 42;
        h2 &= MASK42;
        h0 += c * 5;
        c = h0 >> 44;
        h0 &= MASK44;
        h1 += c;
        c = h1 >> 44;
        h1 &= MASK44;
        h2 += c;
        c = h2 >> 42;
        h2 &= MASK42;
        h0 += c * 5;
        c = h0 >> 44;
        h0 &= MASK44;
        h1 += c;

        // g = h + 5 - 2^130; keep h if that went negative, else take g.
        let mut g0 = h0 + 5;
        c = g0 >> 44;
        g0 &= MASK44;
        let mut g1 = h1 + c;
        c = g1 >> 44;
        g1 &= MASK44;
        let mut g2 = (h2 + c).wrapping_sub(1 << 42);
        let take_g = (g2 >> 63).wrapping_sub(1);
        g0 &= take_g;
        g1 &= take_g;
        g2 &= take_g;
        let keep_h = !take_g;
        h0 = (h0 & keep_h) | g0;
        h1 = (h1 & keep_h) | g1;
        h2 = (h2 & keep_h) | g2;

        // h + s mod 2^128.
        let [t0, t1] = self.pad;
        h0 += t0 & MASK44;
        c = h0 >> 44;
        h0 &= MASK44;
        h1 += (((t0 >> 44) | (t1 << 20)) & MASK44) + c;
        c = h1 >> 44;
        h1 &= MASK44;
        h2 += ((t1 >> 24) & MASK42) + c;
        h2 &= MASK42;

        let lo = h0 | (h1 << 44);
        let hi = (h1 >> 20) | (h2 << 24);
        let mut tag = [0u8; 16];
        tag[..8].copy_from_slice(&lo.to_le_bytes());
        tag[8..].copy_from_slice(&hi.to_le_bytes());
        tag
    }

    /// One-shot MAC of `msg` under `key`.
    pub fn mac(key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
        let mut p = Poly1305::new(key);
        p.update(msg);
        p.finish()
    }
}

impl std::fmt::Debug for Poly1305 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("Poly1305 { key: <redacted> }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 8439 §2.5.2 test vector.
    #[test]
    fn rfc8439_poly1305_vector() {
        let key: [u8; 32] = [
            0x85, 0xd6, 0xbe, 0x78, 0x57, 0x55, 0x6d, 0x33, 0x7f, 0x44, 0x52, 0xfe, 0x42, 0xd5,
            0x06, 0xa8, 0x01, 0x03, 0x80, 0x8a, 0xfb, 0x0d, 0xb2, 0xfd, 0x4a, 0xbf, 0xf6, 0xaf,
            0x41, 0x49, 0xf5, 0x1b,
        ];
        let expected: [u8; 16] = [
            0xa8, 0x06, 0x1d, 0xc1, 0x30, 0x51, 0x36, 0xc6, 0xc2, 0x2b, 0x8b, 0xaf, 0x0c, 0x01,
            0x27, 0xa9,
        ];
        assert_eq!(
            Poly1305::mac(&key, b"Cryptographic Forum Research Group"),
            expected
        );
    }

    #[test]
    fn split_updates_match_one_shot() {
        let key = [0x5au8; 32];
        let msg: Vec<u8> = (0..200u32).map(|i| (i * 7) as u8).collect();
        let whole = Poly1305::mac(&key, &msg);
        for cut in [0, 1, 15, 16, 17, 100, 199, 200] {
            let mut p = Poly1305::new(&key);
            p.update(&msg[..cut]);
            p.update(&msg[cut..]);
            assert_eq!(p.finish(), whole, "cut at {cut}");
        }
    }

    /// Edge cases around the final reduction: `s` wraps mod 2^128, and an
    /// accumulator in `[p, 2^130)` reduces by `p = 2^130 - 5`.
    #[test]
    fn reduction_edge_cases() {
        // r = 0, s = 2^128 - 1: h stays 0, so the tag is s.
        let mut key = [0u8; 32];
        key[16..].fill(0xff);
        assert_eq!(Poly1305::mac(&key, &[0xff; 16]), [0xff; 16]);
        // r = 1, s = 0: one all-ones block is h = 2^129 - 1 < p, so the
        // tag is its low 128 bits.
        let mut r1 = [0u8; 32];
        r1[0] = 1;
        assert_eq!(Poly1305::mac(&r1, &[0xff; 16]), [0xff; 16]);
        // Two such blocks: h = 2^130 - 2 = p + 3, which reduces to 3.
        let mut three = [0u8; 16];
        three[0] = 3;
        assert_eq!(Poly1305::mac(&r1, &[0xff; 32]), three);
    }

    #[test]
    fn debug_redacts_key() {
        let p = Poly1305::new(&[1; 32]);
        assert!(format!("{p:?}").contains("redacted"));
    }
}
