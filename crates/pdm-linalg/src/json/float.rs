//! Shortest round-trip decimal text for `f64`, byte for byte what
//! `Display` writes.
//!
//! [`push_f64`] is the one number writer: it lays a number's text out in a
//! stack buffer and appends it to a byte buffer with a single
//! `extend_from_slice`.  [`write_f64`] is the same writer appending to a
//! `String`.  The digits come from one of two places:
//!
//! * an integral value below 2^53 in magnitude is its own shortest decimal
//!   (Ryū's small-integer path): its ulp is at most 1, so no other decimal
//!   with as few digits lies within half an ulp of it, and its integer
//!   digits are printed as they are;
//! * every other double goes through Ryū (Adams, "Ryū: fast float-to-string
//!   conversion", PLDI 2018): the double and the two ends of its rounding
//!   interval are scaled by a power of ten through one 64×128-bit product
//!   each with the tables of [`super::pow5`], and digits are dropped while
//!   the interval still holds a shorter decimal.
//!
//! The digits go into the buffer as a fixed window of 17, zero-padded: the
//! leading digit, then two 8-digit chunks of four `DIGIT_PAIRS` entries
//! each, so no branch depends on the digit count.  The buffer starts out
//! as ASCII zeros, so the window's padding and a zero run before or after
//! the digits cost nothing; only a run that outgrows the buffer (below
//! 1e-44 or from 1e63 up) is appended in pieces.  Two details follow
//! `Display` rather than the paper:
//!
//! * an exact tie between the two nearest shortest candidates rounds up,
//!   where textbook Ryū rounds to even (bits `0x43179085685d83c9` are
//!   exactly `1658206780088562.25` and print as `1658206780088562.3`);
//! * the layout is plain decimal, never an exponent: `1e21` prints 22
//!   digits, `5e-324` prints `0.`, 323 zeros and a `5`, and negative zero
//!   prints `-0`.

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

/// The most digits a shortest decimal of a double has.
const MAX_DIGITS: usize = 17;

/// The stack buffer a number's text is laid out in: a sign, `0.`, 17
/// digits and a zero run of 44 fit, which covers every double from 1e-44
/// up to below 1e63.
const TEXT_LEN: usize = 64;

/// Appends `x` exactly as `format!("{x}")` would: the shortest decimal
/// that parses back to the same bits, in plain (never exponent) notation,
/// and `NaN`, `inf` or `-inf` for a non-finite value.  The JSON renderer
/// appends the same text to its byte buffer through the same writer.
pub fn write_f64(out: &mut String, x: f64) {
    lay_out(x, |text| match std::str::from_utf8(text) {
        Ok(text) => out.push_str(text),
        Err(_) => unreachable!("decimal text is ASCII digits, `-` and `.`"),
    });
}

/// Appends `x` to a byte buffer as [`write_f64`] appends it to a `String`.
pub(crate) fn push_f64(out: &mut Vec<u8>, x: f64) {
    lay_out(x, |text| out.extend_from_slice(text));
}

/// Lays `x` out as `Display` does and hands the text to `append`: in one
/// piece, unless a zero run outgrows the stack buffer.
fn lay_out(x: f64, mut append: impl FnMut(&[u8])) {
    if !x.is_finite() {
        append(if x.is_nan() {
            b"NaN"
        } else if x > 0.0 {
            b"inf"
        } else {
            b"-inf"
        });
        return;
    }
    let bits = x.to_bits();
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) & 0x7ff;
    let (digits, exponent) = match small_integer(ieee_mantissa, ieee_exponent) {
        Some(integer) => (integer, 0),
        None => shortest(ieee_mantissa, ieee_exponent),
    };
    let len = digits.checked_ilog10().map_or(1, |log| log as usize + 1);
    // The decimal point sits `point` digits into the digits.
    let point = len as i64 + exponent;
    let negative = x.is_sign_negative();
    let sign = usize::from(negative);
    // Where the last digit ends and where the text ends.
    let (digits_end, end) = if point <= 0 {
        // `0.`, the zeros after the point, the digits.
        let end = sign + 2 + (-point) as usize + len;
        (end, end)
    } else if point < len as i64 {
        // The digits with the point among them.
        (sign + len, sign + len + 1)
    } else {
        // The digits, then the zeros up to the point.
        (sign + len, sign + point as usize)
    };
    if end > TEXT_LEN {
        lay_out_long(negative, digits, len, point, append);
        return;
    }
    // The digit window's zero padding lands on the text's own zeros, or
    // in the room before the text: the window ends at least one byte into
    // the text, so it reaches at most 16 bytes before it.  The sign and
    // the point go in after the digits.
    const ROOM: usize = MAX_DIGITS - 1;
    let mut buf = [b'0'; ROOM + TEXT_LEN];
    write_digits(&mut buf, ROOM + digits_end, digits);
    let text = &mut buf[ROOM..];
    if point <= 0 {
        text[sign + 1] = b'.';
    } else if point < len as i64 {
        // Move the fraction's digits, at most 16, one place to the right.
        let at = sign + point as usize;
        text.copy_within(at..at + MAX_DIGITS - 1, at + 1);
        text[at] = b'.';
    }
    if negative {
        text[0] = b'-';
    }
    append(&text[..end]);
}

/// The text of a double below 1e-44 or from 1e63 up, whose zero run
/// outgrows the stack buffer, in pieces: `0.`, the zeros and the digits,
/// or the digits and the zeros, after the sign.
fn lay_out_long(
    negative: bool,
    digits: u64,
    len: usize,
    point: i64,
    mut append: impl FnMut(&[u8]),
) {
    let mut buf = [b'0'; MAX_DIGITS];
    write_digits(&mut buf, MAX_DIGITS, digits);
    let digits = &buf[MAX_DIGITS - len..];
    if negative {
        append(b"-");
    }
    if point <= 0 {
        append(b"0.");
        append_zeros(&mut append, (-point) as usize);
        append(digits);
    } else {
        append(digits);
        append_zeros(&mut append, point as usize - len);
    }
}

/// The magnitude of a double that is an integer below 2^53, zero
/// included, or `None`.
fn small_integer(ieee_mantissa: u64, ieee_exponent: u64) -> Option<u64> {
    if ieee_exponent == 0 {
        // Zero, or a subnormal, which is below 1.
        return (ieee_mantissa == 0).then_some(0);
    }
    // The magnitude is m2 / 2^shift with 2^52 ≤ m2 < 2^53, so it is below
    // 2^53 exactly when the shift is not negative, and below 1 when it
    // passes 52.  11 bits: the conversion is exact.
    let shift = EXPONENT_BIAS + i64::from(MANTISSA_BITS) - ieee_exponent as i64;
    if !(0..=i64::from(MANTISSA_BITS)).contains(&shift) {
        return None;
    }
    let m2 = ieee_mantissa | 1 << MANTISSA_BITS;
    (m2 & ((1 << shift) - 1) == 0).then_some(m2 >> shift)
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

/// Writes `v`, which has at most [`MAX_DIGITS`] digits, as exactly that
/// many, zero-padded, ending just before `buf[end]`: its leading digit,
/// then two 8-digit chunks of four `DIGIT_PAIRS` entries each.  A fixed
/// count keeps the digit count from steering any branch.
fn write_digits(buf: &mut [u8], end: usize, v: u64) {
    debug_assert!(v < 100_000_000_000_000_000, "{v} has more than 17 digits");
    let (high, low) = (v / 100_000_000, v % 100_000_000);
    let at = end - MAX_DIGITS;
    buf[at] = digit_pair(high / 100_000_000)[1];
    write_chunk(&mut buf[at + 1..at + 9], high % 100_000_000);
    write_chunk(&mut buf[at + 9..end], low);
}

/// Writes `v < 10^8` as the eight digits of `chunk`.
fn write_chunk(chunk: &mut [u8], v: u64) {
    let (high, low) = (v / 10_000, v % 10_000);
    chunk[..2].copy_from_slice(digit_pair(high / 100));
    chunk[2..4].copy_from_slice(digit_pair(high % 100));
    chunk[4..6].copy_from_slice(digit_pair(low / 100));
    chunk[6..].copy_from_slice(digit_pair(low % 100));
}

/// The two ASCII digits of `v < 100`.
fn digit_pair(v: u64) -> &'static [u8] {
    let at = 2 * v as usize;
    &DIGIT_PAIRS[at..at + 2]
}

/// Appends `count` zeros, a buffer's worth per piece: `5e-324` needs 323.
fn append_zeros(append: &mut impl FnMut(&[u8]), mut count: usize) {
    const ZEROS: [u8; TEXT_LEN] = [b'0'; TEXT_LEN];
    while count > TEXT_LEN {
        append(&ZEROS);
        count -= TEXT_LEN;
    }
    append(&ZEROS[..count]);
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

    /// `write_f64` and `push_f64` against `Display` for `x` and `-x`.
    fn check_both_signs(x: f64) {
        for x in [x, -x] {
            let (mut text, mut bytes) = (String::new(), Vec::new());
            write_f64(&mut text, x);
            push_f64(&mut bytes, x);
            let display = format!("{x}");
            assert_eq!(text, display, "bits {:#018x}", x.to_bits());
            assert_eq!(bytes, display.as_bytes(), "bits {:#018x}", x.to_bits());
        }
    }

    /// Significant digits of `Display`'s text: what `lay_out` wrote with
    /// `write_digits`, less an integer's trailing zeros.
    fn digit_count(x: f64) -> usize {
        let text = format!("{x}");
        let digits = text.trim_start_matches(['-', '0', '.']).replace('.', "");
        digits.trim_end_matches('0').len()
    }

    #[test]
    fn every_digit_count_and_layout_matches_display() {
        // Every digit count puts the first digit at another place of the
        // 17-digit window: the leading digit, or a pair of either chunk.
        const DIGITS: &str = "12345678912345675";
        for count in 1..=DIGITS.len() {
            let digits = &DIGITS[..count];
            let (head, tail) = digits.split_at(1);
            let mut cases = vec![
                // Ryū: `0.` and zeros, in the buffer and past it.
                format!("0.000{digits}"),
                format!("{head}.{tail}e-70"),
                // Ryū: trailing zeros, in the buffer and past it.
                format!("{head}.{tail}e20"),
                format!("{head}.{tail}e70"),
            ];
            if count > 1 {
                // Ryū: the point among the digits.
                cases.push(format!("{head}.{tail}"));
            }
            if count < 17 {
                // The small-integer path.
                cases.push(digits.to_owned());
            }
            for case in cases {
                let x: f64 = case.parse().unwrap();
                assert_eq!(digit_count(x), count, "{case} reads back as {x}");
                check_both_signs(x);
            }
        }
        // The last zero run that fits the buffer, and the first that does
        // not, on both sides of the point and with either sign.
        for x in [1e-62, 1e-63, 1e63, 1e64, 1.5e-61, 1.5e62] {
            check_both_signs(x);
        }
        // Zero runs of several buffers: 323 zeros after the point, 292
        // before it.  Then the zeros and the values with no digits.
        for x in [5e-324, f64::MAX, 0.0, f64::NAN, f64::INFINITY] {
            check_both_signs(x);
        }
    }

    #[test]
    fn small_integers_take_the_integer_path_and_nothing_else_does() {
        let integer = |x: f64| {
            let bits = x.to_bits();
            small_integer(
                bits & ((1 << MANTISSA_BITS) - 1),
                (bits >> MANTISSA_BITS) & 0x7ff,
            )
        };
        let two_53 = 9_007_199_254_740_992.0;
        for (x, expected) in [
            (0.0, Some(0)),
            (-0.0, Some(0)),
            (1.0, Some(1)),
            (-7.0, Some(7)),
            (1e15, Some(1_000_000_000_000_000)),
            (two_53 - 1.0, Some(9_007_199_254_740_991)),
            (two_53, None),
            (two_53 + 2.0, None),
            (0.5, None),
            (1.5, None),
            (two_53 / 2.0 - 0.5, None),
            (5e-324, None),
            (f64::MIN_POSITIVE, None),
        ] {
            assert_eq!(integer(x), expected, "{x}");
        }
    }
}
