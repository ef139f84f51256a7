//! GF(2⁸) arithmetic for Reed–Solomon coding.
//!
//! The field is GF(2)\[x\]/(x⁸+x⁴+x³+x²+1) (polynomial 0x11d, the classic
//! RS/QR-code field). Multiplication and division go through log/exp
//! tables built at compile time, so the hot path is two lookups and an
//! addition.

/// The reduction polynomial (x⁸ + x⁴ + x³ + x² + 1).
const POLY: u16 = 0x11d;

/// exp[i] = α^i for generator α = 2 (doubled to avoid the mod-255 branch).
const EXP: [u8; 512] = build_exp();
/// log[a] = i such that α^i = a (log[0] is unused).
const LOG: [u8; 256] = build_log();

const fn build_exp() -> [u8; 512] {
    let mut exp = [0u8; 512];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        exp[i + 255] = x as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    // Positions 510..512 are never reached (max index is 254+254).
    exp[510] = exp[0];
    exp[511] = exp[1];
    exp
}

const fn build_log() -> [u8; 256] {
    let exp = build_exp();
    let mut log = [0u8; 256];
    let mut i = 0;
    while i < 255 {
        log[exp[i] as usize] = i as u8;
        i += 1;
    }
    log
}

/// Field addition (= subtraction = XOR).
#[inline]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Field multiplication.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// Multiplicative inverse (panics on 0).
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "division by zero in GF(256)");
    EXP[255 - LOG[a as usize] as usize]
}

/// Field division `a / b` (panics when `b == 0`).
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    if a == 0 {
        0
    } else {
        mul(a, inv(b))
    }
}

/// `α^e` for the generator α = 2 (e taken mod 255).
#[inline]
pub fn exp(e: usize) -> u8 {
    EXP[e % 255]
}

/// Multiply-accumulate a byte slice: `dst[i] ^= c · src[i]`.
/// The workhorse of RS encode/decode — runs on the word-wide
/// nibble-table kernel in [`crate::kernels`].
pub fn mul_acc(dst: &mut [u8], src: &[u8], c: u8) {
    debug_assert_eq!(dst.len(), src.len());
    crate::kernels::mul_acc(dst, src, c);
}

/// Scale a byte slice in place: `buf[i] = c · buf[i]` (nibble-table
/// kernel; see [`crate::kernels`]).
pub fn scale(buf: &mut [u8], c: u8) {
    crate::kernels::scale(buf, c);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn tables_are_consistent() {
        for a in 1..=255u8 {
            assert_eq!(exp(LOG[a as usize] as usize), a);
        }
        assert_eq!(exp(0), 1);
        assert_eq!(exp(255), 1, "α^255 = 1 (multiplicative order)");
    }

    #[test]
    fn known_products() {
        // In GF(256)/0x11d: 2·128 = 0x100 ⊕ 0x11d = 0x1d.
        assert_eq!(mul(2, 128), 0x1d);
        // α² = 4, α·α² = α³ = 8 while below the reduction threshold.
        assert_eq!(mul(2, 4), 8);
        assert_eq!(mul(0x53, inv(0x53)), 1);
    }

    proptest! {
        #[test]
        fn field_axioms(a in 0u8..=255, b in 0u8..=255, c in 0u8..=255) {
            // Commutativity & associativity of mul.
            prop_assert_eq!(mul(a, b), mul(b, a));
            prop_assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
            // Distributivity over add (xor).
            prop_assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
            // Identity and zero.
            prop_assert_eq!(mul(a, 1), a);
            prop_assert_eq!(mul(a, 0), 0);
        }

        #[test]
        fn inverses(a in 1u8..=255) {
            prop_assert_eq!(mul(a, inv(a)), 1);
            prop_assert_eq!(div(a, a), 1);
            prop_assert_eq!(div(mul(a, 7), 7), a);
        }

        #[test]
        fn mul_acc_matches_scalar(c in 0u8..=255, src in proptest::collection::vec(any::<u8>(), 1..64)) {
            let mut dst = vec![0u8; src.len()];
            mul_acc(&mut dst, &src, c);
            for (d, s) in dst.iter().zip(&src) {
                prop_assert_eq!(*d, mul(c, *s));
            }
            // Accumulating twice cancels (characteristic 2).
            let mut dst2 = dst.clone();
            mul_acc(&mut dst2, &src, c);
            prop_assert!(dst2.iter().all(|&x| x == 0));
        }

        #[test]
        fn scale_matches_mul(c in 0u8..=255, mut buf in proptest::collection::vec(any::<u8>(), 1..64)) {
            let orig = buf.clone();
            scale(&mut buf, c);
            for (b, o) in buf.iter().zip(&orig) {
                prop_assert_eq!(*b, mul(c, *o));
            }
        }

        #[test]
        fn exponents_are_cyclic(e in 0usize..1000) {
            prop_assert_eq!(exp(e), exp(e + 255));
        }
    }
}
