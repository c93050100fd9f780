//! Minimal IEEE 754 binary16 (half-precision) conversion, used by the
//! [`crate::CacheTier::F16`] cache tier to store publish-time embeddings
//! and projections at half the footprint. No external crates: the two
//! conversions below are all the cache needs.
//!
//! `f32_to_f16` rounds to nearest, ties to even — the IEEE default — so the
//! quantisation error of a normal value is bounded by half a ulp:
//! `|x - dec(enc(x))| ≤ 2^-11 · |x|`. The round-trip bound is pinned by the
//! tests at the bottom and by the f16 tier's serving budget
//! ([`crate::CacheTier::within_budget`]).

/// Encode an `f32` as binary16 bits (round to nearest, ties to even).
/// Overflow saturates to ±infinity; NaN payloads keep a quiet bit.
///
/// Branch-free except for the never-taken non-finite guard: publish-time
/// cache encoding runs this over every lane of every node, and ReLU-gated
/// embeddings are ~half exact zeros, so a "is this subnormal?" branch
/// mispredicts constantly — selects keep the pipeline full and let the
/// encode loop vectorise. The subnormal/zero case rounds by adding 0.5
/// (`2^-1`): f32 addition is itself round-to-nearest-even, and at that
/// magnitude its rounding granularity (`2^-24`) is exactly one
/// half-subnormal ulp, so the sum's low mantissa bits *are* the correctly
/// rounded half-subnormal — one float add replaces the shift/mask/
/// tie-break cascade. The normal case is the classic integer re-bias with
/// `0xFFF + mantissa-odd` as the ties-to-even bias; a mantissa carry
/// overflows into the exponent (and on past 65504 into ±inf), exactly the
/// IEEE behaviour. Equivalence with the branchy reference is pinned
/// exhaustively over every half bit pattern and differentially over a
/// structured f32 sweep below.
pub fn f32_to_f16(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let abs = bits & 0x7FFF_FFFF;
    if abs >= 0x7F80_0000 {
        // ±inf or NaN; force a mantissa bit for NaN so it stays NaN.
        let nan = if abs > 0x7F80_0000 { 0x0200 } else { 0 };
        return sign | 0x7C00 | nan | ((abs & 0x007F_FFFF) >> 13) as u16;
    }
    // Finite overflow (≥ 65536 pre-rounding): the re-bias below would wrap
    // the exponent, so saturate by clamping the input to the largest value
    // that rounds to ±inf without wrapping.
    let abs = abs.min(0x4780_0000);
    // Half-subnormal or zero (|x| < 2^-14): float-rescale rounding.
    const MAGIC: f32 = 0.5; // bits 126 << 23
    let sub = (f32::from_bits(abs) + MAGIC).to_bits().wrapping_sub(MAGIC.to_bits()) as u16;
    // Normal: integer exponent re-bias with an RTNE rounding bias.
    let mant_odd = (abs >> 13) & 1;
    let norm = (abs.wrapping_add(0xC800_0FFF).wrapping_add(mant_odd) >> 13) as u16;
    sign | if abs < 113 << 23 { sub } else { norm }
}

/// Decode binary16 bits back to `f32` (exact — every half value is
/// representable in single precision).
pub fn f16_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let mant = (h & 0x03FF) as u32;
    let bits = if exp == 0 {
        if mant == 0 {
            sign // ±0
        } else {
            // Subnormal: renormalise into the f32 exponent range.
            let mut exp = 127 - 15 + 1;
            let mut mant = mant;
            while mant & 0x0400 == 0 {
                mant <<= 1;
                exp -= 1;
            }
            sign | ((exp as u32) << 23) | ((mant & 0x03FF) << 13)
        }
    } else if exp == 0x1F {
        sign | 0x7F80_0000 | (mant << 13) // ±inf / NaN
    } else {
        sign | ((exp + 112) << 23) | (mant << 13)
    };
    f32::from_bits(bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The branchy reference encoder the branch-free one replaced — kept
    /// verbatim so the differential test below pins the rewrite.
    fn f32_to_f16_reference(value: f32) -> u16 {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let mant = bits & 0x007F_FFFF;
        if exp == 0xFF {
            let nan = if mant != 0 { 0x0200 } else { 0 };
            return sign | 0x7C00 | nan | ((mant >> 13) as u16);
        }
        let new_exp = exp - 127 + 15;
        if new_exp >= 0x1F {
            return sign | 0x7C00;
        }
        if new_exp <= 0 {
            if new_exp < -10 {
                return sign;
            }
            let mant = mant | 0x0080_0000;
            let shift = (14 - new_exp) as u32;
            let q = mant >> shift;
            let rem = mant & ((1u32 << shift) - 1);
            let halfway = 1u32 << (shift - 1);
            let round_up = rem > halfway || (rem == halfway && (q & 1) == 1);
            return sign | (q as u16 + round_up as u16);
        }
        let h = sign | ((new_exp as u16) << 10) | ((mant >> 13) as u16);
        let rem = mant & 0x1FFF;
        let round_up = rem > 0x1000 || (rem == 0x1000 && (h & 1) == 1);
        h + round_up as u16
    }

    /// The branch-free encoder must agree with the branchy reference on a
    /// structured sweep of the f32 bit space: every upper-16-bit pattern
    /// (all signs × exponents × top mantissa bits — this alone covers
    /// every rounding regime boundary) crossed with lower-bit patterns
    /// chosen to sit just below / at / just above every tie threshold.
    /// NaNs are compared exactly too: the rewrite preserves payload bits.
    #[test]
    fn branch_free_encoder_matches_reference() {
        for hi in 0..=u16::MAX {
            for lo in [0u32, 1, 0x0FFF, 0x1000, 0x1001, 0x1FFF, 0x2000, 0x5A5A, 0xFFFF] {
                let bits = ((hi as u32) << 16) | lo;
                let x = f32::from_bits(bits);
                assert_eq!(f32_to_f16(x), f32_to_f16_reference(x), "bits {bits:#010x} ({x})");
            }
        }
    }

    /// Decode → encode must be the identity on every non-NaN bit pattern:
    /// half values are exactly representable in f32, so re-encoding them
    /// cannot round.
    #[test]
    fn decode_encode_roundtrips_every_half_value() {
        for h in 0..=u16::MAX {
            let x = f16_to_f32(h);
            if x.is_nan() {
                assert!(f16_to_f32(f32_to_f16(x)).is_nan(), "NaN lost at {h:#06x}");
                continue;
            }
            assert_eq!(f32_to_f16(x), h, "bits {h:#06x} -> {x} -> {:#06x}", f32_to_f16(x));
        }
    }

    /// Round-to-nearest: the quantisation error of a normal-range value is
    /// at most `2^-11` relative — the bound the f16 cache tier's serving
    /// budget is built on.
    #[test]
    fn roundtrip_relative_error_bound_on_normals() {
        let mut x = 6.2e-5f32; // just above the smallest normal half
        while x < 4.0e4 {
            // (the ×√2 probe below stays under half's 65504 max finite)
            for v in [x, -x, x * 1.0001, x * std::f32::consts::SQRT_2] {
                let back = f16_to_f32(f32_to_f16(v));
                let rel = ((back - v) / v).abs();
                assert!(rel <= 1.0 / 2048.0 + 1e-9, "{v} -> {back} rel {rel}");
            }
            x *= 1.37;
        }
    }

    #[test]
    fn specials_and_saturation() {
        assert_eq!(f32_to_f16(0.0), 0x0000);
        assert_eq!(f32_to_f16(-0.0), 0x8000);
        assert_eq!(f32_to_f16(1.0), 0x3C00);
        assert_eq!(f32_to_f16(-2.0), 0xC000);
        assert_eq!(f32_to_f16(65504.0), 0x7BFF); // largest finite half
        assert_eq!(f32_to_f16(1e6), 0x7C00); // overflow → +inf
        assert_eq!(f32_to_f16(f32::NEG_INFINITY), 0xFC00);
        assert!(f16_to_f32(f32_to_f16(f32::NAN)).is_nan());
        // Ties to even: 2049 is halfway between 2048 and 2050 → 2048.
        assert_eq!(f16_to_f32(f32_to_f16(2049.0)), 2048.0);
        assert_eq!(f16_to_f32(f32_to_f16(2051.0)), 2052.0);
        // Subnormal halves survive.
        let tiny = f16_to_f32(0x0001);
        assert!(tiny > 0.0 && f32_to_f16(tiny) == 0x0001);
    }
}
