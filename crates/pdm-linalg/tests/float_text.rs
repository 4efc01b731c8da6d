//! `write_f64` against `Display`, byte for byte, over the doubles whose
//! digits are hardest to get right: random bit patterns, powers of two and
//! their neighbours, subnormals, integers, round decimals and the extremes.
//! Sized to stay within a few seconds in a debug build.

use std::io::Write as _;

use pdm_linalg::json::write_f64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reusable buffers, so the sweep spends its time formatting.
#[derive(Default)]
struct Checker {
    ours: Vec<u8>,
    display: Vec<u8>,
}

impl Checker {
    fn check(&mut self, x: f64) {
        self.ours.clear();
        write_f64(&mut self.ours, x);
        self.display.clear();
        let _ = write!(self.display, "{x}");
        assert!(
            self.ours == self.display,
            "bits {:#018x}: write_f64 {:?}, Display {:?}",
            x.to_bits(),
            String::from_utf8_lossy(&self.ours),
            String::from_utf8_lossy(&self.display)
        );
    }

    fn check_both_signs(&mut self, x: f64) {
        self.check(x);
        self.check(-x);
    }
}

#[test]
fn random_bit_patterns_match_display() {
    let mut checker = Checker::default();
    for seed in [1, 2, 3, 4] {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..100_000 {
            let x = f64::from_bits(rng.gen());
            if x.is_finite() {
                checker.check(x);
            }
        }
    }
}

/// `2^e` for every `e` a double reaches, subnormal or normal.
fn pow2(e: i32) -> f64 {
    let bits = if e < -1022 {
        1 << (e + 1074)
    } else {
        u64::try_from(e + 1023).expect("normal exponent") << 52
    };
    f64::from_bits(bits)
}

#[test]
fn powers_of_two_and_their_neighbours_match_display() {
    let mut checker = Checker::default();
    for e in -1074..=1023 {
        let x = pow2(e);
        checker.check_both_signs(x);
        checker.check_both_signs(f64::from_bits(x.to_bits() + 1));
        checker.check_both_signs(f64::from_bits(x.to_bits() - 1));
        if e < 1023 {
            checker.check_both_signs(3.0 * x);
        }
    }
}

#[test]
fn the_first_million_subnormals_match_display() {
    let mut checker = Checker::default();
    for bits in 1..=1_000_000u64 {
        checker.check(f64::from_bits(bits));
    }
}

#[test]
fn integers_and_their_scalings_match_display() {
    let mut checker = Checker::default();
    for n in 0..=2_000_000u32 {
        checker.check(f64::from(n));
    }
    // Every 199th integer, moved by powers of ten in both directions.
    for n in (1..=2_000_000u32).step_by(199) {
        let x = f64::from(n);
        for scale in [1e-300, 1e-20, 1e-7, 1e-3, 1e3, 1e11, 1e17, 1e22, 1e300] {
            checker.check_both_signs(x * scale);
            checker.check_both_signs(x / scale);
        }
    }
}

#[test]
fn round_decimals_match_display() {
    let mut checker = Checker::default();
    for m in 1..200u32 {
        for p in -325..=308 {
            // The double nearest m · 10^p, as the parser rounds it.
            let x: f64 = format!("{m}e{p}").parse().expect("decimal literal");
            checker.check_both_signs(x);
        }
    }
}

#[test]
fn zeros_and_extremes_match_display() {
    let mut checker = Checker::default();
    for x in [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
    ] {
        checker.check(x);
    }
    let mut text = Vec::new();
    write_f64(&mut text, 5e-324);
    assert_eq!(text, format!("0.{}5", "0".repeat(323)).as_bytes());
    text.clear();
    write_f64(&mut text, 1e21);
    assert_eq!(text, format!("1{}", "0".repeat(21)).as_bytes());
    text.clear();
    write_f64(&mut text, -0.0);
    assert_eq!(text, b"-0");
}

/// Integral values below 2^53 print their integer digits without a digit
/// search; the edges of that path, on both sides, print as `Display` does.
#[test]
fn the_integer_path_edges_match_display() {
    let two_53 = 9_007_199_254_740_992.0;
    let mut checker = Checker::default();
    for x in [
        0.0,
        1.0,
        two_53 - 1.0,
        two_53,
        two_53 + 2.0,
        1e15,
        1e16,
        1e21,
        1e22,
        // Below 1 and not integral: the largest subnormal, the smallest
        // normal and the integers' neighbours.
        f64::from_bits((1 << 52) - 1),
        f64::MIN_POSITIVE,
        5e-324,
        0.5,
        1.0 - f64::EPSILON / 2.0,
        1.0 + f64::EPSILON,
        two_53 / 2.0 - 0.5,
        two_53 / 2.0 + 0.5,
    ] {
        checker.check_both_signs(x);
    }
    for (x, text) in [
        (-0.0, "-0"),
        (two_53 - 1.0, "9007199254740991"),
        (two_53, "9007199254740992"),
        (two_53 + 2.0, "9007199254740994"),
        (1e16, "10000000000000000"),
        (1e22, "10000000000000000000000"),
    ] {
        let mut written = Vec::new();
        write_f64(&mut written, x);
        assert_eq!(written, text.as_bytes());
    }
    // Every integer in a window at each end of the path, and every
    // representable value in the window above 2^53.
    for n in 0..=1_000u32 {
        let n = f64::from(n);
        checker.check_both_signs(two_53 - 1.0 - n);
        checker.check_both_signs(two_53 + 2.0 * n);
    }
}

/// Exact ties between the two nearest shortest decimals round up, as
/// `Display` does, where textbook Ryū rounds to even.
#[test]
fn exact_ties_round_up() {
    let tie = f64::from_bits(0x4317_9085_685d_83c9);
    // Exactly 1658206780088562.25, halfway between ….2 and ….3.
    assert_eq!((tie.trunc(), tie.fract()), (1_658_206_780_088_562.0, 0.25));
    let mut text = Vec::new();
    write_f64(&mut text, tie);
    assert_eq!(text, b"1658206780088562.3");
    // Every double in [2^50, 2^51) ending in .25 or .75 is such a tie: the
    // interval holds two one-decimal candidates at equal distance.
    let mut checker = Checker::default();
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..20_000 {
        let whole = f64::from(rng.gen_range(0..1u32 << 30)) * 1024.0 + 2f64.powi(50);
        for frac in [0.25, 0.75] {
            let x = whole + frac;
            checker.check_both_signs(x);
        }
    }
}
