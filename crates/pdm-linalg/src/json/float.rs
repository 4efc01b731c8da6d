//! Shortest round-trip decimal text for `f64`, byte for byte what
//! `Display` writes.
//!
//! [`write_f64`] finds the digits with Ryū (Adams, "Ryū: fast
//! float-to-string conversion", PLDI 2018): the double and the two ends of
//! its rounding interval are scaled by a power of ten through one
//! 64×128-bit product each with the tables of [`super::pow5`], and digits
//! are dropped while the interval still holds a shorter decimal.  Two
//! details follow `Display` rather than the paper:
//!
//! * an exact tie between the two nearest shortest candidates rounds up,
//!   where textbook Ryū rounds to even (bits `0x43179085685d83c9` are
//!   exactly `1658206780088562.25` and print as `1658206780088562.3`);
//! * the layout is plain decimal, never an exponent: `1e21` prints 22
//!   digits, `5e-324` prints `0.`, 323 zeros and a `5`, and negative zero
//!   prints `-0`.

use std::fmt::Write as _;

use super::pow5::{POW5, POW5_INV};

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i64 = 1023;
/// The width every table entry is scaled to.
const POW5_BITS: i64 = 125;

/// `"00"` through `"99"`, two ASCII digits per entry.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends `x` exactly as `format!("{x}")` would: the shortest decimal
/// that parses back to the same bits, in plain (never exponent) notation.
/// Non-finite values, which JSON cannot carry, go through `Display`
/// itself.
pub fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        let _ = write!(out, "{x}");
        return;
    }
    if x.is_sign_negative() {
        out.push('-');
    }
    let bits = x.to_bits();
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) & 0x7ff;
    if ieee_exponent == 0 && ieee_mantissa == 0 {
        out.push('0');
        return;
    }
    let (digits, exponent) = shortest(ieee_mantissa, ieee_exponent);
    write_decimal(out, digits, exponent);
}

/// The shortest `digits · 10^exponent` inside the rounding interval of the
/// finite, non-zero double with these IEEE fields; of several, the one
/// nearest the double, and of two equally near, the larger.
fn shortest(ieee_mantissa: u64, ieee_exponent: u64) -> (u64, i64) {
    // The double is m2 · 2^e2, with two extra bits of room for the interval
    // ends below.
    let (m2, e2) = if ieee_exponent == 0 {
        (
            ieee_mantissa,
            1 - EXPONENT_BIAS - i64::from(MANTISSA_BITS) - 2,
        )
    } else {
        (
            ieee_mantissa | 1 << MANTISSA_BITS,
            // 11 bits: the conversion is exact.
            ieee_exponent as i64 - EXPONENT_BIAS - i64::from(MANTISSA_BITS) - 2,
        )
    };
    // Round-half-even parsing reads an interval end back as this double
    // only when its mantissa is even.
    let accept_bounds = m2 & 1 == 0;
    // The double is mv / 4 · 2^e2; the interval is (mm, mp) in the same
    // units.  At a power of two the neighbour below is half as far as the
    // one above.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let mp = mv + 2;
    let mm = mv - 1 - mm_shift;

    // Scale all three by 2^e2 / 10^e10, truncating to vr, vp and vm.
    let (q, e10, mul, shift) = if e2 >= 0 {
        let q = log10_pow2(e2) - i64::from(e2 > 3);
        (
            q,
            q,
            POW5_INV[q as usize],
            -e2 + q + POW5_BITS + pow5_bits(q) - 1,
        )
    } else {
        let q = log10_pow5(-e2) - i64::from(-e2 > 1);
        let i = -e2 - q;
        (q, q + e2, POW5[i as usize], q - pow5_bits(i) + POW5_BITS)
    };
    // m scales to an integer when 5^q divides it (for e2 ≥ 0, as e2 ≥ q
    // covers the twos) or 2^q does (for e2 < 0, as it is m · 5^(−e2−q) / 2^q).
    let exact = |m: u64| {
        if e2 >= 0 {
            multiple_of_pow5(m, q)
        } else {
            i64::from(m.trailing_zeros()) >= q
        }
    };
    let mut vr = mul_shift(mv, mul, shift);
    // An upper end that scales exactly is outside the open interval.
    let mut vp = mul_shift(mp, mul, shift) - u64::from(!accept_bounds && exact(mp));
    let mut vm = mul_shift(mm, mul, shift);
    // Only a closed interval can output an exact lower end.
    let mut vm_exact = accept_bounds && exact(mm);

    // Drop digits while the interval still holds a shorter decimal.  The
    // first dropped digit of vr alone decides the rounding, ties going up.
    let mut removed = 0;
    let output = if vm_exact {
        // Rare: an exact lower end may itself be the shortest candidate, so
        // keep dropping while its dropped digits are zero.
        let mut last_removed = 0;
        while vp / 10 > vm / 10 {
            vm_exact &= vm.is_multiple_of(10);
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        if vm_exact {
            while vm.is_multiple_of(10) {
                last_removed = vr % 10;
                (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
                removed += 1;
            }
        }
        // vr = vm lies in the interval only if the lower end is exact.
        vr + u64::from((vr == vm && !vm_exact) || last_removed >= 5)
    } else {
        let mut round_up = false;
        // Most doubles drop two or more digits: take the first two at once.
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// Appends `digits · 10^exponent` as `Display` lays it out: the digits with
/// a decimal point among them, after `0.` and leading zeros, or before
/// trailing zeros.
fn write_decimal(out: &mut String, digits: u64, exponent: i64) {
    let mut buf = [0u8; 21];
    let start = write_digits(&mut buf, digits);
    let len = (buf.len() - start) as i64;
    // The decimal point sits `point` digits into the text.
    let point = len + exponent;
    if point <= 0 {
        out.push_str("0.");
        push_zeros(out, -point);
        push_ascii(out, &buf[start..]);
    } else if point < len {
        let point = point as usize;
        buf.copy_within(start..start + point, start - 1);
        buf[start - 1 + point] = b'.';
        push_ascii(out, &buf[start - 1..]);
    } else {
        push_ascii(out, &buf[start..]);
        push_zeros(out, point - len);
    }
}

/// Writes the decimal digits of `v` right-aligned in `buf` and returns the
/// index of the first.  `buf` has room for every `u64` and one byte more.
fn write_digits(buf: &mut [u8; 21], mut v: u64) -> usize {
    let mut at = buf.len();
    while v >= 100 {
        let pair = 2 * (v % 100) as usize;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    let pair = 2 * v as usize;
    if v >= 10 {
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = DIGIT_PAIRS[pair + 1];
    }
    at
}

/// Appends the digits and point `write_decimal` laid out, all ASCII.
fn push_ascii(out: &mut String, bytes: &[u8]) {
    match std::str::from_utf8(bytes) {
        Ok(text) => out.push_str(text),
        Err(_) => unreachable!("decimal text is ASCII digits and `.`"),
    }
}

/// Appends `count` zeros, up to 64 per copy: `5e-324` needs 323.
fn push_zeros(out: &mut String, count: i64) {
    const ZEROS: &str = "0000000000000000000000000000000000000000000000000000000000000000";
    let mut count = count as usize;
    while count > ZEROS.len() {
        out.push_str(ZEROS);
        count -= ZEROS.len();
    }
    out.push_str(&ZEROS[..count]);
}

/// `(m · mul) >> shift` for a `shift` of at least 64, from two 64×64-bit
/// products so nothing is lost to 128-bit overflow.
fn mul_shift(m: u64, mul: u128, shift: i64) -> u64 {
    let low = u128::from(m) * (mul & u128::from(u64::MAX));
    let high = u128::from(m) * (mul >> 64);
    // Every scale is below 100, so the result fits 62 bits and the
    // narrowing keeps them all.
    (((low >> 64) + high) >> (shift - 64)) as u64
}

/// `⌊log10(2^e)⌋` for 0 ≤ e ≤ 1650.
fn log10_pow2(e: i64) -> i64 {
    (e * 78_913) >> 18
}

/// `⌊log10(5^e)⌋` for 0 ≤ e ≤ 2620.
fn log10_pow5(e: i64) -> i64 {
    (e * 732_923) >> 20
}

/// The bit length of `5^e` for 0 ≤ e ≤ 3528.
fn pow5_bits(e: i64) -> i64 {
    ((e * 1_217_359) >> 19) + 1
}

/// Whether `5^p` divides `v`.
fn multiple_of_pow5(mut v: u64, p: i64) -> bool {
    for _ in 0..p {
        if !v.is_multiple_of(5) {
            return false;
        }
        v /= 5;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A little-endian bignum in 64-bit limbs, enough to check the tables.
    #[derive(Debug, PartialEq)]
    struct Big(Vec<u64>);

    impl Big {
        fn from_u128(v: u128) -> Big {
            Big(vec![v as u64, (v >> 64) as u64]).trimmed()
        }

        fn pow2(e: usize) -> Big {
            let mut limbs = vec![0; e / 64 + 1];
            limbs[e / 64] = 1 << (e % 64);
            Big(limbs)
        }

        fn trimmed(mut self) -> Big {
            while self.0.len() > 1 && self.0.last() == Some(&0) {
                self.0.pop();
            }
            self
        }

        fn mul(&self, other: &Big) -> Big {
            let mut out = vec![0u64; self.0.len() + other.0.len()];
            for (i, &a) in self.0.iter().enumerate() {
                let mut carry = 0u128;
                for (j, &b) in other.0.iter().enumerate() {
                    let t = u128::from(a) * u128::from(b) + u128::from(out[i + j]) + carry;
                    out[i + j] = t as u64;
                    carry = t >> 64;
                }
                out[i + other.0.len()] = carry as u64;
            }
            Big(out).trimmed()
        }

        fn bits(&self) -> usize {
            let top = self.0.len() - 1;
            64 * top + 64 - self.0[top].leading_zeros() as usize
        }

        /// Compares by value (limb vectors are trimmed, so length first).
        fn cmp_value(&self, other: &Big) -> std::cmp::Ordering {
            self.0
                .len()
                .cmp(&other.0.len())
                .then_with(|| self.0.iter().rev().cmp(other.0.iter().rev()))
        }
    }

    #[test]
    fn every_table_entry_matches_exact_multiplication() {
        use std::cmp::Ordering::{Greater, Less};
        let five = Big::from_u128(5);
        let mut pow5 = Big::from_u128(1);
        // POW5 is the longer table, so this visits every entry of both.
        for (q, &top) in POW5.iter().enumerate() {
            let bits = pow5.bits();
            if let Some(&inv) = POW5_INV.get(q) {
                // (inv − 1) · 5^q ≤ 2^j < inv · 5^q
                let two_j = Big::pow2(bits - 1 + 125);
                let below = Big::from_u128(inv - 1).mul(&pow5);
                let above = Big::from_u128(inv).mul(&pow5);
                assert_ne!(below.cmp_value(&two_j), Greater, "POW5_INV[{q}] too large");
                assert_eq!(two_j.cmp_value(&above), Less, "POW5_INV[{q}] too small");
            }
            // top · 2^s ≤ 5^q < (top + 1) · 2^s for the s that leaves 125
            // bits, or top = 5^q · 2^−s while 5^q is shorter.
            if bits >= 125 {
                let scale = Big::pow2(bits - 125);
                let floor = Big::from_u128(top).mul(&scale);
                let next = Big::from_u128(top + 1).mul(&scale);
                assert_ne!(floor.cmp_value(&pow5), Greater, "POW5[{q}] too large");
                assert_eq!(pow5.cmp_value(&next), Less, "POW5[{q}] too small");
            } else {
                assert_eq!(
                    Big::from_u128(top),
                    pow5.mul(&Big::pow2(125 - bits)),
                    "POW5[{q}]"
                );
            }
            pow5 = pow5.mul(&five);
        }
    }

    #[test]
    fn tables_end_at_the_last_index_a_double_reaches() {
        // The indices `shortest` takes for e2 ≥ 0 and e2 < 0.  e2 runs from
        // −1076 (the subnormals) to 969 (f64::MAX).
        let q = |e2: i64| log10_pow2(e2) - i64::from(e2 > 3);
        let i = |e2: i64| -e2 - (log10_pow5(-e2) - i64::from(-e2 > 1));
        assert_eq!((q(0), q(969)), (0, POW5_INV.len() as i64 - 1));
        assert_eq!((i(-1), i(-1076)), (1, POW5.len() as i64 - 1));
        assert!((0..=969).map(q).is_sorted());
        assert!((-1076..=-1).rev().map(i).is_sorted());
    }

    #[test]
    fn table_ends_and_layouts_match_display() {
        let cases = [
            2f64.powi(54),                         // e2 = 0: POW5_INV[0]
            2f64.powi(54) + 4.0,                   // odd mantissa, open interval
            f64::MAX,                              // POW5_INV[290]
            f64::MIN,                              // and negative
            2f64.powi(53),                         // e2 = −1: POW5[1]
            9_007_199_254_740_994.0,               // 2^53 + 2
            5e-324,                                // POW5[325]: `0.`, 323 zeros, `5`
            f64::MIN_POSITIVE,                     // smallest normal
            1e21,                                  // 22 digits, no exponent
            1e15 + 0.3,                            // point inside the digits
            123.456,                               // point inside the digits
            0.001,                                 // `0.` and leading zeros
            0.5,                                   // `0.` alone
            1.0,                                   // a single digit
            -0.0,                                  // `-0`
            0.0,                                   // `0`
            f64::from_bits(0x4317_9085_685d_83c9), // exact tie, rounded up
            f64::NAN,                              // non-finite: `Display` itself
            f64::NEG_INFINITY,
        ];
        for x in cases {
            let mut out = String::new();
            write_f64(&mut out, x);
            assert_eq!(out, format!("{x}"), "bits {:#018x}", x.to_bits());
        }
        let mut tie = String::new();
        write_f64(&mut tie, f64::from_bits(0x4317_9085_685d_83c9));
        assert_eq!(tie, "1658206780088562.3");
    }
}
