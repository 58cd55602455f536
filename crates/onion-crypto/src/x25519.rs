//! X25519 Diffie–Hellman over Curve25519 (RFC 7748).
//!
//! The ntor-style circuit handshake needs an actual DH exchange so that
//! every CREATE2/EXTEND2 derives fresh per-hop keys, and those scalar
//! multiplications are most of a scan's wall time, so this module is
//! written for speed: radix-2⁵¹ field arithmetic with lazily reduced
//! limbs, and two scalar-multiplication algorithms chosen by the input,
//! not by an option:
//!
//! * [`x25519`] takes any point and runs the RFC 7748 Montgomery ladder;
//! * [`x25519_base`] multiplies the generator, a point known in advance,
//!   so it walks a precomputed radix-16 table of the base point on the
//!   birationally equivalent Edwards curve (64 table additions and 4
//!   doublings instead of 255 ladder steps) and maps the result back.
//!
//! Both return the same bytes; the ladder is the oracle the table is
//! tested against. Validated against the RFC 7748 test vectors, the
//! Alice/Bob DH example from §6.1 and a straightforward reference field
//! implementation kept in the tests.

use std::sync::OnceLock;

/// A field element in GF(2²⁵⁵ − 19), five 51-bit limbs, little-endian.
///
/// Limbs are reduced lazily. Two bounds matter:
///
/// * **carried** — every limb < 2⁵¹ + 2¹³. [`Fe::from_bytes`], [`Fe::mul`],
///   [`Fe::square`], [`Fe::mul_small`] and [`Fe::carry`] return this.
/// * **loose** — every limb < 2⁵⁴. [`Fe::mul`], [`Fe::square`],
///   [`Fe::mul_small`] and [`Fe::carry`] accept this.
///
/// [`Fe::add`] and [`Fe::sub`] do not carry: the sum of two carried
/// values, and a carried value minus a sum of two carried values, are
/// loose. Anything deeper needs an explicit [`Fe::carry`].
#[derive(Debug, Clone, Copy)]
struct Fe([u64; 5]);

const MASK51: u64 = (1 << 51) - 1;

/// 4p in limb form, the bias [`Fe::sub`] adds so that no limb underflows.
const FOUR_P: [u64; 5] = [
    4 * (MASK51 - 18),
    4 * MASK51,
    4 * MASK51,
    4 * MASK51,
    4 * MASK51,
];

impl Fe {
    const ZERO: Fe = Fe([0; 5]);
    const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    fn is_carried(self) -> bool {
        self.0.iter().all(|&l| l < (1 << 51) + (1 << 13))
    }

    fn is_loose(self) -> bool {
        self.0.iter().all(|&l| l < 1 << 54)
    }

    /// Decodes 32 little-endian bytes, ignoring the top bit per RFC 7748.
    /// Every limb of the result is < 2⁵¹.
    fn from_bytes(b: &[u8; 32]) -> Fe {
        let load = |i: usize| -> u64 {
            let mut v = [0u8; 8];
            v.copy_from_slice(&b[i..i + 8]);
            u64::from_le_bytes(v)
        };
        Fe([
            load(0) & MASK51,
            (load(6) >> 3) & MASK51,
            (load(12) >> 6) & MASK51,
            (load(19) >> 1) & MASK51,
            (load(24) >> 12) & MASK51,
        ])
    }

    /// Encodes a loose value to 32 bytes with full reduction mod p.
    fn to_bytes(self) -> [u8; 32] {
        // Carried limbs put the value below 2p, so at most one p comes off.
        let mut l = self.carry().0;
        // q = 1 iff the value is ≥ p: compute value + 19 and see whether
        // that carries past 2^255.
        let mut q = (l[0] + 19) >> 51;
        for limb in &l[1..] {
            q = (limb + q) >> 51;
        }
        // Subtract q·p by adding 19·q and dropping bit 255.
        l[0] += 19 * q;
        for i in 0..4 {
            l[i + 1] += l[i] >> 51;
            l[i] &= MASK51;
        }
        l[4] &= MASK51;

        // 5 × 51 bits are 255 bits: four 64-bit words.
        let words = [
            l[0] | l[1] << 51,
            l[1] >> 13 | l[2] << 38,
            l[2] >> 26 | l[3] << 25,
            l[3] >> 39 | l[4] << 12,
        ];
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(8).zip(words) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Loose in, carried out: each limb's overflow moves one limb up, the
    /// top one wrapping around as ×19.
    fn carry(self) -> Fe {
        debug_assert!(self.is_loose());
        let l = self.0;
        Fe([
            (l[0] & MASK51) + 19 * (l[4] >> 51),
            (l[1] & MASK51) + (l[0] >> 51),
            (l[2] & MASK51) + (l[1] >> 51),
            (l[3] & MASK51) + (l[2] >> 51),
            (l[4] & MASK51) + (l[3] >> 51),
        ])
    }

    /// Limb-wise sum, no carry: the bounds of the operands add.
    fn add(self, rhs: Fe) -> Fe {
        let (a, b) = (self.0, rhs.0);
        Fe([
            a[0] + b[0],
            a[1] + b[1],
            a[2] + b[2],
            a[3] + b[3],
            a[4] + b[4],
        ])
    }

    /// `self + 4p − rhs`, no carry. `rhs` must not exceed the 4p limbs
    /// (two carried values summed still fit); the result is loose when
    /// `self` is < 2⁵³.
    fn sub(self, rhs: Fe) -> Fe {
        debug_assert!(rhs.0.iter().zip(FOUR_P).all(|(&l, bias)| l <= bias));
        let (a, b) = (self.0, rhs.0);
        Fe([
            a[0] + FOUR_P[0] - b[0],
            a[1] + FOUR_P[1] - b[1],
            a[2] + FOUR_P[2] - b[2],
            a[3] + FOUR_P[3] - b[3],
            a[4] + FOUR_P[4] - b[4],
        ])
    }

    /// One carry pass over the five 128-bit column sums of a product.
    /// Needs `t[4]` < 2¹¹⁰ so that the carry out of the top, times 19,
    /// stays in a `u64`; loose factors give 5·2¹⁰⁸.
    fn carry_wide(mut t: [u128; 5]) -> Fe {
        t[1] += t[0] >> 51;
        t[2] += t[1] >> 51;
        t[3] += t[2] >> 51;
        t[4] += t[3] >> 51;
        let mut l = t.map(|column| column as u64 & MASK51);
        l[0] += 19 * (t[4] >> 51) as u64;
        l[1] += l[0] >> 51;
        l[0] &= MASK51;
        let out = Fe(l);
        debug_assert!(out.is_carried());
        out
    }

    /// Loose in, carried out.
    fn mul(self, rhs: Fe) -> Fe {
        debug_assert!(self.is_loose() && rhs.is_loose());
        let a = self.0;
        let b = rhs.0;
        let m = |x: u64, y: u64| x as u128 * y as u128;
        // Schoolbook with the 2^255 ≡ 19 folding. The ×19 goes onto the
        // 64-bit operand (19·2⁵⁴ < 2⁵⁹), not onto the 128-bit products.
        let b1_19 = 19 * b[1];
        let b2_19 = 19 * b[2];
        let b3_19 = 19 * b[3];
        let b4_19 = 19 * b[4];
        Fe::carry_wide([
            m(a[0], b[0]) + m(a[4], b1_19) + m(a[3], b2_19) + m(a[2], b3_19) + m(a[1], b4_19),
            m(a[1], b[0]) + m(a[0], b[1]) + m(a[4], b2_19) + m(a[3], b3_19) + m(a[2], b4_19),
            m(a[2], b[0]) + m(a[1], b[1]) + m(a[0], b[2]) + m(a[4], b3_19) + m(a[3], b4_19),
            m(a[3], b[0]) + m(a[2], b[1]) + m(a[1], b[2]) + m(a[0], b[3]) + m(a[4], b4_19),
            m(a[4], b[0]) + m(a[3], b[1]) + m(a[2], b[2]) + m(a[1], b[3]) + m(a[0], b[4]),
        ])
    }

    /// Loose in, carried out. The symmetric products are taken once and
    /// doubled: 15 multiplications against `mul`'s 25.
    fn square(self) -> Fe {
        debug_assert!(self.is_loose());
        let a = self.0;
        let m = |x: u64, y: u64| x as u128 * y as u128;
        let a3_19 = 19 * a[3];
        let a4_19 = 19 * a[4];
        Fe::carry_wide([
            m(a[0], a[0]) + 2 * (m(a[1], a4_19) + m(a[2], a3_19)),
            m(a[3], a3_19) + 2 * (m(a[0], a[1]) + m(a[2], a4_19)),
            m(a[1], a[1]) + 2 * (m(a[0], a[2]) + m(a[4], a3_19)),
            m(a[4], a4_19) + 2 * (m(a[0], a[3]) + m(a[1], a[2])),
            m(a[2], a[2]) + 2 * (m(a[0], a[4]) + m(a[1], a[3])),
        ])
    }

    /// `self` squared `n` times: self^(2ⁿ).
    fn square_n(self, n: u32) -> Fe {
        (0..n).fold(self, |x, _| x.square())
    }

    /// Multiplies by a small constant (the curve's (A−2)/4 = 121665).
    /// Loose in, carried out.
    fn mul_small(self, k: u32) -> Fe {
        debug_assert!(self.is_loose());
        Fe::carry_wide(self.0.map(|limb| limb as u128 * k as u128))
    }

    /// Inversion via Fermat, x^(p−2) with p − 2 = 2²⁵⁵ − 21, by the
    /// standard addition chain: 254 squarings and 11 multiplications.
    /// Zero maps to zero.
    fn invert(self) -> Fe {
        // x_a_b below is self^(2^a − 2^b).
        let x2 = self.square();
        let x9 = x2.square_n(2).mul(self);
        let x11 = x9.mul(x2);
        let x_5_0 = x11.square().mul(x9);
        let x_10_0 = x_5_0.square_n(5).mul(x_5_0);
        let x_20_0 = x_10_0.square_n(10).mul(x_10_0);
        let x_40_0 = x_20_0.square_n(20).mul(x_20_0);
        let x_50_0 = x_40_0.square_n(10).mul(x_10_0);
        let x_100_0 = x_50_0.square_n(50).mul(x_50_0);
        let x_200_0 = x_100_0.square_n(100).mul(x_100_0);
        let x_250_0 = x_200_0.square_n(50).mul(x_50_0);
        // 2^255 − 2^5 + 11 = 2^255 − 21.
        x_250_0.square_n(5).mul(x11)
    }

    /// Constant-structure conditional swap.
    fn cswap(a: &mut Fe, b: &mut Fe, swap: u64) {
        let mask = 0u64.wrapping_sub(swap); // 0 or all-ones
        for i in 0..5 {
            let t = mask & (a.0[i] ^ b.0[i]);
            a.0[i] ^= t;
            b.0[i] ^= t;
        }
    }
}

/// A clamped X25519 secret key (32 bytes).
pub(crate) type SecretKey = [u8; 32];
/// An X25519 public key / curve point u-coordinate (32 bytes).
pub type PublicKey = [u8; 32];

/// An X25519 keypair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyPair {
    pub secret: SecretKey,
    pub public: PublicKey,
}

impl KeyPair {
    /// Derives the keypair for `secret` (clamping is applied during
    /// scalar multiplication, so any 32 bytes are a valid secret).
    pub fn from_secret(secret: SecretKey) -> KeyPair {
        KeyPair {
            secret,
            public: x25519_base(&secret),
        }
    }
}

/// RFC 7748 scalar clamping.
fn clamp(scalar: &[u8; 32]) -> [u8; 32] {
    let mut s = *scalar;
    s[0] &= 248;
    s[31] &= 127;
    s[31] |= 64;
    s
}

/// Scalar multiplication: `scalar · point` on Curve25519 (the X25519
/// function of RFC 7748).
pub fn x25519(scalar: &SecretKey, point: &PublicKey) -> [u8; 32] {
    let k = clamp(scalar);
    let x1 = Fe::from_bytes(point);

    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let mut swap = 0u64;

    for t in (0..255).rev() {
        let k_t = ((k[t >> 3] >> (t & 7)) & 1) as u64;
        swap ^= k_t;
        Fe::cswap(&mut x2, &mut x3, swap);
        Fe::cswap(&mut z2, &mut z3, swap);
        swap = k_t;

        // RFC 7748 ladder step.
        let a = x2.add(z2);
        let aa = a.square();
        let b = x2.sub(z2);
        let bb = b.square();
        let e = aa.sub(bb);
        let c = x3.add(z3);
        let d = x3.sub(z3);
        let da = d.mul(a);
        let cb = c.mul(b);
        x3 = da.add(cb).square();
        z3 = x1.mul(da.sub(cb).square());
        x2 = aa.mul(bb);
        z2 = e.mul(aa.add(e.mul_small(121665)));
    }
    Fe::cswap(&mut x2, &mut x3, swap);
    Fe::cswap(&mut z2, &mut z3, swap);

    x2.mul(z2.invert()).to_bytes()
}

/// 2d for the Edwards curve −x² + y² = 1 + d·x²y², d = −121665/121666.
const EDWARDS_2D: Fe = Fe([
    1859910466990425,
    932731440258426,
    1072319116312658,
    1815898335770999,
    633789495995903,
]);

/// The Ed25519 base point: y = 4/5 and the even x on the curve. The map
/// u = (1 + y)/(1 − y) sends it to the X25519 base point u = 9.
const BASE_X: Fe = Fe([
    1738742601995546,
    1146398526822698,
    2070867633025821,
    562264141797630,
    587772402128613,
]);
const BASE_Y: Fe = Fe([
    1801439850948184,
    1351079888211148,
    450359962737049,
    900719925474099,
    1801439850948198,
]);

/// A point on the Edwards curve in extended coordinates: x = X/Z,
/// y = Y/Z, xy = T/Z. Every coordinate is carried.
#[derive(Clone, Copy)]
struct EdPoint {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// An affine point precomputed for [`EdPoint::add_niels`]:
/// (y + x, y − x, 2d·xy). The first two are loose, the product carried.
#[derive(Clone, Copy)]
struct Niels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

impl Niels {
    fn neg(self) -> Niels {
        Niels {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            xy2d: Fe::ZERO.sub(self.xy2d),
        }
    }
}

impl EdPoint {
    const IDENTITY: EdPoint = EdPoint {
        x: Fe::ZERO,
        y: Fe::ONE,
        z: Fe::ONE,
        t: Fe::ZERO,
    };

    /// The addition and doubling formulas below produce a point as
    /// (X/Z, Y/T), four loose values; this brings it back to extended form.
    fn from_completed(x: Fe, y: Fe, z: Fe, t: Fe) -> EdPoint {
        EdPoint {
            x: x.mul(t),
            y: y.mul(z),
            z: z.mul(t),
            t: x.mul(y),
        }
    }

    /// Mixed addition (Hisil–Wong–Carter–Dawson, a = −1); complete, so
    /// the identity and equal points need no special case.
    fn add_niels(self, n: &Niels) -> EdPoint {
        let pp = self.y.add(self.x).mul(n.y_plus_x);
        let mm = self.y.sub(self.x).mul(n.y_minus_x);
        let txy2d = self.t.mul(n.xy2d);
        let z2 = self.z.add(self.z);
        EdPoint::from_completed(pp.sub(mm), pp.add(mm), z2.add(txy2d), z2.sub(txy2d))
    }

    fn double(self) -> EdPoint {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let zz2 = zz.add(zz);
        let yy_plus_xx = yy.add(xx);
        // This difference is subtracted again below, and a difference of
        // carried values can exceed the 4p limbs `sub` allows: carry it.
        let yy_minus_xx = yy.sub(xx).carry();
        EdPoint::from_completed(
            self.x.add(self.y).square().sub(yy_plus_xx),
            yy_plus_xx,
            yy_minus_xx,
            zz2.sub(yy_minus_xx),
        )
    }

    /// One inversion: only the table build calls this.
    fn to_niels(self) -> Niels {
        let z_inv = self.z.invert();
        let x = self.x.mul(z_inv);
        let y = self.y.mul(z_inv);
        Niels {
            y_plus_x: y.add(x),
            y_minus_x: y.sub(x),
            xy2d: x.mul(y).mul(EDWARDS_2D),
        }
    }
}

/// `table[i][j]` = (j + 1)·16²ⁱ·B for the base point B: 32 × 8 entries
/// of 120 bytes, built on first use (256 inversions, about a millisecond).
fn base_table() -> &'static [[Niels; 8]; 32] {
    static TABLE: OnceLock<[[Niels; 8]; 32]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut p = EdPoint {
            x: BASE_X,
            y: BASE_Y,
            z: Fe::ONE,
            t: BASE_X.mul(BASE_Y),
        };
        // `from_fn` walks forward through the array, so `p` is 16²ⁱ·B
        // when row i is built.
        std::array::from_fn(|_| {
            let step = p.to_niels();
            let mut multiple = p;
            let row = std::array::from_fn(|j| {
                if j > 0 {
                    multiple = multiple.add_niels(&step);
                }
                multiple.to_niels()
            });
            for _ in 0..8 {
                p = p.double();
            }
            row
        })
    })
}

/// Scalar multiplication by the standard base point (u = 9): the same
/// bytes as `x25519(scalar, 9)`, from a table instead of the ladder.
///
/// The table row is indexed by a digit of the secret scalar, and zero
/// digits skip their addition; like the rest of this crate, this is not
/// hardened against side channels.
pub fn x25519_base(scalar: &SecretKey) -> PublicKey {
    let k = clamp(scalar);
    // Signed radix-16 digits, k = Σ dᵢ·16ⁱ with dᵢ in −8..8 (the top
    // one in 0..=8: clamping clears bit 255).
    let mut digits = [0i8; 64];
    for (i, byte) in k.iter().enumerate() {
        digits[2 * i] = (byte & 15) as i8;
        digits[2 * i + 1] = (byte >> 4) as i8;
    }
    for i in 0..63 {
        let carry = (digits[i] + 8) >> 4;
        digits[i] -= carry << 4;
        digits[i + 1] += carry;
    }

    let table = base_table();
    let add_digits = |mut p: EdPoint, first: usize| {
        for i in (first..64).step_by(2) {
            let entry = |d: i8| &table[i / 2][d as usize - 1];
            p = match digits[i] {
                0 => p,
                d if d > 0 => p.add_niels(entry(d)),
                d => p.add_niels(&entry(-d).neg()),
            };
        }
        p
    };
    // k·B = 16·Σ d₂ᵢ₊₁·16²ⁱ·B + Σ d₂ᵢ·16²ⁱ·B: the odd digits share the
    // even digits' rows at the price of four doublings.
    let mut p = add_digits(EdPoint::IDENTITY, 1);
    for _ in 0..4 {
        p = p.double();
    }
    let p = add_digits(p, 0);

    // Back to the Montgomery curve: u = (1 + y)/(1 − y) = (Z + Y)/(Z − Y).
    p.z.add(p.y).mul(p.z.sub(p.y).invert()).to_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::hex;
    use proptest::prelude::*;

    /// The field arithmetic this module had before it was rewritten for
    /// speed: schoolbook `mul` with the ×19 folds in `u128` and a full
    /// carry chain, every operation ending in `reduce_weak`,
    /// square-and-multiply inversion, bit-by-bit packing. Nothing is lazy,
    /// so operands are brought to 51 bits per limb first. The property
    /// tests below hold the fast code to it.
    mod reference {
        use super::MASK51;

        pub fn reduce_weak(mut l: [u64; 5]) -> [u64; 5] {
            for _ in 0..2 {
                for i in 0..4 {
                    l[i + 1] += l[i] >> 51;
                    l[i] &= MASK51;
                }
                l[0] += 19 * (l[4] >> 51);
                l[4] &= MASK51;
            }
            l
        }

        pub fn add(a: [u64; 5], b: [u64; 5]) -> [u64; 5] {
            let (a, b) = (reduce_weak(a), reduce_weak(b));
            reduce_weak(std::array::from_fn(|i| a[i] + b[i]))
        }

        pub fn sub(a: [u64; 5], b: [u64; 5]) -> [u64; 5] {
            const TWO_P: [u64; 5] = [
                0xfffffffffffda,
                0xffffffffffffe,
                0xffffffffffffe,
                0xffffffffffffe,
                0xffffffffffffe,
            ];
            let (a, b) = (reduce_weak(a), reduce_weak(b));
            reduce_weak(std::array::from_fn(|i| a[i] + TWO_P[i] - b[i]))
        }

        pub fn mul(a: [u64; 5], b: [u64; 5]) -> [u64; 5] {
            let (a, b) = (reduce_weak(a), reduce_weak(b));
            let m = |x: u64, y: u64| x as u128 * y as u128;
            let t = [
                m(a[0], b[0])
                    + 19 * (m(a[1], b[4]) + m(a[2], b[3]) + m(a[3], b[2]) + m(a[4], b[1])),
                m(a[0], b[1])
                    + m(a[1], b[0])
                    + 19 * (m(a[2], b[4]) + m(a[3], b[3]) + m(a[4], b[2])),
                m(a[0], b[2])
                    + m(a[1], b[1])
                    + m(a[2], b[0])
                    + 19 * (m(a[3], b[4]) + m(a[4], b[3])),
                m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + 19 * m(a[4], b[4]),
                m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]),
            ];
            let mut l = [0u64; 5];
            let mut c = 0u128;
            for i in 0..5 {
                let v = t[i] + c;
                l[i] = v as u64 & MASK51;
                c = v >> 51;
            }
            let v = l[0] as u128 + 19 * c;
            l[0] = v as u64 & MASK51;
            l[1] += (v >> 51) as u64;
            reduce_weak(l)
        }

        /// x^(p − 2), one bit of the exponent at a time.
        pub fn invert(x: [u64; 5]) -> [u64; 5] {
            let mut result = [1, 0, 0, 0, 0];
            for i in (0..255).rev() {
                result = mul(result, result);
                // p − 2 = 2^255 − 21: bits 5..=254 are set, the low five are 01011.
                if i >= 5 || (0b01011 >> i) & 1 == 1 {
                    result = mul(result, x);
                }
            }
            result
        }

        pub fn to_bytes(l: [u64; 5]) -> [u8; 32] {
            let mut l = reduce_weak(l);
            let mut carry = (l[0] + 19) >> 51;
            for limb in &l[1..] {
                carry = (limb + carry) >> 51;
            }
            l[0] += 19 * carry;
            for i in 0..4 {
                l[i + 1] += l[i] >> 51;
                l[i] &= MASK51;
            }
            l[4] &= MASK51;
            let mut out = [0u8; 32];
            for bit in 0..255 {
                out[bit / 8] |= ((l[bit / 51] >> (bit % 51) & 1) as u8) << (bit % 8);
            }
            out
        }
    }

    /// Field elements with every limb at most its `max`, a quarter of
    /// the limbs exactly at it and a quarter zero, so products see the
    /// largest columns the documented bounds allow.
    fn fe_up_to(max: [u64; 5]) -> impl Strategy<Value = Fe> {
        any::<[u8; 45]>().prop_map(move |b| {
            Fe(std::array::from_fn(|i| {
                let mut raw = [0u8; 8];
                raw.copy_from_slice(&b[9 * i..9 * i + 8]);
                match b[9 * i + 8] % 4 {
                    0 => max[i],
                    1 => 0,
                    _ => u64::from_le_bytes(raw) % (max[i] + 1),
                }
            }))
        })
    }

    fn loose() -> impl Strategy<Value = Fe> {
        fe_up_to([(1 << 54) - 1; 5])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn mul_matches_reference(a in loose(), b in loose()) {
            prop_assert_eq!(a.mul(b).to_bytes(), reference::to_bytes(reference::mul(a.0, b.0)));
        }

        #[test]
        fn square_matches_reference(a in loose()) {
            prop_assert_eq!(a.square().to_bytes(), reference::to_bytes(reference::mul(a.0, a.0)));
        }

        #[test]
        fn mul_small_matches_reference(a in loose(), k in any::<u32>()) {
            let k_fe = [k as u64, 0, 0, 0, 0];
            prop_assert_eq!(a.mul_small(k).to_bytes(), reference::to_bytes(reference::mul(a.0, k_fe)));
        }

        #[test]
        fn add_matches_reference(a in fe_up_to([(1 << 53) - 1; 5]), b in fe_up_to([(1 << 53) - 1; 5])) {
            prop_assert_eq!(a.add(b).to_bytes(), reference::to_bytes(reference::add(a.0, b.0)));
        }

        #[test]
        fn sub_matches_reference(a in fe_up_to([(1 << 53) - 1; 5]), b in fe_up_to(FOUR_P)) {
            prop_assert_eq!(a.sub(b).to_bytes(), reference::to_bytes(reference::sub(a.0, b.0)));
        }

        #[test]
        fn carry_and_encoding_match_reference(a in loose()) {
            prop_assert!(a.carry().is_carried());
            prop_assert_eq!(a.carry().to_bytes(), reference::to_bytes(a.0));
            prop_assert_eq!(a.to_bytes(), reference::to_bytes(a.0));
        }
    }

    // The reference inversion is ~500 reference multiplications: the
    // default 32 cases.
    proptest! {
        #[test]
        fn invert_matches_reference(a in loose()) {
            prop_assert_eq!(a.invert().to_bytes(), reference::to_bytes(reference::invert(a.0)));
        }
    }

    #[test]
    fn products_at_the_loose_bound_stay_carried() {
        // Every limb at 2^54 − 1 is the largest column sum `carry_wide`
        // is specified for; its own debug_assert checks the output bound.
        let top = Fe([(1 << 54) - 1; 5]);
        assert_eq!(
            top.mul(top).to_bytes(),
            reference::to_bytes(reference::mul(top.0, top.0))
        );
        assert_eq!(top.square().to_bytes(), top.mul(top).to_bytes());
        assert_eq!(
            top.mul_small(u32::MAX).to_bytes(),
            reference::to_bytes(reference::mul(top.0, [u32::MAX as u64, 0, 0, 0, 0]))
        );
    }

    /// What the lazy `sub` must not be fed: a difference of two carried
    /// values can exceed the 4p bias, and subtracting it again would
    /// wrap in release builds.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn chained_sub_without_carry_is_caught() {
        let carried_max = Fe([(1 << 51) + (1 << 13) - 1; 5]);
        let difference = carried_max.sub(Fe::ZERO);
        let _ = Fe::ZERO.sub(difference);
    }

    #[test]
    fn edwards_constants_satisfy_their_definitions() {
        let eq = |a: Fe, b: Fe| assert_eq!(a.to_bytes(), b.to_bytes());
        let small = |k: u32| Fe::ONE.mul_small(k);
        // 2d = −2·121665/121666.
        eq(
            EDWARDS_2D.mul(small(121666)),
            Fe::ZERO.sub(small(2 * 121665)),
        );
        // y = 4/5, x even, and (x, y) on −x² + y² = 1 + d·x²y².
        eq(BASE_Y.mul(small(5)), small(4));
        assert_eq!(BASE_X.to_bytes()[0] & 1, 0);
        let (xx, yy) = (BASE_X.square(), BASE_Y.square());
        let lhs = yy.sub(xx).carry();
        eq(lhs.add(lhs), small(2).add(EDWARDS_2D.mul(xx).mul(yy)));
        // Its Montgomery image is u = 9.
        eq(
            Fe::ONE.add(BASE_Y).mul(Fe::ONE.sub(BASE_Y).invert()),
            small(9),
        );
    }

    fn unhex(s: &str) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..32 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    #[test]
    fn rfc7748_vector_1() {
        let scalar = unhex("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
        let point = unhex("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
        assert_eq!(
            hex(&x25519(&scalar, &point)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        );
    }

    #[test]
    fn rfc7748_vector_2() {
        // The u-coordinate has its top bit set; RFC 7748 says to mask it.
        let scalar = unhex("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
        let point = unhex("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
        assert_eq!(
            hex(&x25519(&scalar, &point)),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"
        );
    }

    #[test]
    fn rfc7748_iterated_vector() {
        // §5.2: k = u = 9, then (k, u) ← (X25519(k, u), k), repeated.
        let mut k = unhex("0900000000000000000000000000000000000000000000000000000000000000");
        let mut u = k;
        for round in 1..=1000 {
            (k, u) = (x25519(&k, &u), k);
            if round == 1 {
                assert_eq!(
                    hex(&k),
                    "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
                );
            }
        }
        assert_eq!(
            hex(&k),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
        );
    }

    #[test]
    fn edge_points_keep_their_outputs() {
        // Outputs of the previous implementation (scalar of RFC vector 1)
        // on the u-coordinates where reduction and masking can go wrong.
        const ZERO: &str = "0000000000000000000000000000000000000000000000000000000000000000";
        const TIMES_2: &str = "71cacba0b65daf53ddf9c21fb434bc58ee5cfa3954d1b642fc5155048f03466f";
        const TIMES_18: &str = "76b00406ce7e87774c0038dd8d89b188047977f8828ca1dcb8f98bb5d5d0cf48";
        let scalar = unhex("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
        #[rustfmt::skip]
        let cases = [
            // Small-order points: a clamped scalar is a multiple of 8.
            ("0", ZERO, ZERO),
            ("1", "0100000000000000000000000000000000000000000000000000000000000000", ZERO),
            ("p-1", "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f", ZERO),
            ("p", "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f", ZERO),
            ("p+1", "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f", ZERO),
            ("order 8", "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800", ZERO),
            ("order 8'", "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157", ZERO),
            ("order 8, top bit", "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b880", ZERO),
            // Non-canonical and top-bit-set encodings of 2 and 18.
            ("2", "0200000000000000000000000000000000000000000000000000000000000000", TIMES_2),
            ("2, top bit", "0200000000000000000000000000000000000000000000000000000000000080", TIMES_2),
            ("p+2", "efffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f", TIMES_2),
            ("2^255-1", "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f", TIMES_18),
            ("2^256-1", "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff", TIMES_18),
        ];
        for (name, u, expect) in cases {
            assert_eq!(hex(&x25519(&scalar, &unhex(u))), expect, "u = {name}");
        }
    }

    #[test]
    fn rfc7748_dh_alice_bob() {
        let alice_sk = unhex("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
        let bob_sk = unhex("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
        let alice_pk = x25519_base(&alice_sk);
        let bob_pk = x25519_base(&bob_sk);
        assert_eq!(
            hex(&alice_pk),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
        );
        assert_eq!(
            hex(&bob_pk),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
        );
        let s1 = x25519(&alice_sk, &bob_pk);
        let s2 = x25519(&bob_sk, &alice_pk);
        assert_eq!(s1, s2);
        assert_eq!(
            hex(&s1),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
        );
    }

    #[test]
    fn dh_commutes_for_arbitrary_secrets() {
        for seed in 0u8..8 {
            let a = [seed.wrapping_mul(37).wrapping_add(1); 32];
            let b = [seed.wrapping_mul(91).wrapping_add(5); 32];
            let pa = x25519_base(&a);
            let pb = x25519_base(&b);
            assert_eq!(x25519(&a, &pb), x25519(&b, &pa), "seed {seed}");
        }
    }

    #[test]
    fn clamping_fixes_bits() {
        let c = clamp(&[0xffu8; 32]);
        assert_eq!(c[0] & 7, 0);
        assert_eq!(c[31] & 0x80, 0);
        assert_eq!(c[31] & 0x40, 0x40);
    }

    #[test]
    fn field_roundtrip_encode_decode() {
        // Values below p roundtrip through byte encoding.
        for fill in [0u8, 1, 0x7f, 0x55] {
            let mut bytes = [fill; 32];
            bytes[31] &= 0x7f; // keep below 2^255
            let fe = Fe::from_bytes(&bytes);
            // Canonical values < p re-encode to themselves; 0x7f-fill is
            // below p (p ends in 0xed at byte 0... actually p is
            // 2^255-19 so only values >= p change). All fills here < p.
            assert_eq!(fe.to_bytes(), bytes, "fill {fill:#x}");
        }
    }

    #[test]
    fn non_canonical_encoding_reduces() {
        // p itself must encode to zero.
        let mut p_bytes = [0xffu8; 32];
        p_bytes[0] = 0xed;
        p_bytes[31] = 0x7f;
        let fe = Fe::from_bytes(&p_bytes);
        assert_eq!(fe.to_bytes(), [0u8; 32]);
    }

    #[test]
    fn invert_is_inverse() {
        let mut bytes = [3u8; 32];
        bytes[31] = 0x12;
        let x = Fe::from_bytes(&bytes);
        let one = x.mul(x.invert());
        assert_eq!(one.to_bytes(), Fe::ONE.to_bytes());
    }

    #[test]
    fn keypair_is_deterministic() {
        let kp1 = KeyPair::from_secret([7u8; 32]);
        let kp2 = KeyPair::from_secret([7u8; 32]);
        assert_eq!(kp1, kp2);
        assert_ne!(kp1.public, KeyPair::from_secret([8u8; 32]).public);
    }
}
