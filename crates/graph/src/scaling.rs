//! Exact rescaling of rational weights to plain `i64`, shared by the
//! scaled front ends of the closure ([`crate::scaled_weights`]), Karp
//! ([`crate::try_scaled_karp`]) and the SHIFTS corrections pass
//! ([`crate::try_scaled_corrections`]).
//!
//! Multiplying every weight by one positive common denominator `S`
//! multiplies every walk weight by `S`, so each comparison a kernel makes
//! is preserved exactly and dividing its answer by `S` recovers the
//! rational answer bit for bit ([`Ratio`] is canonical). Each front end
//! keeps its own sentinel and magnitude limit, since both depend on how
//! many terms its kernel adds.

use clocksync_time::{Ext, Ratio};

use crate::SquareMatrix;

/// Largest common denominator a scaling pass will build. Estimate
/// matrices produced from integer-nanosecond observations have
/// denominators 1 or 2 (the round-trip estimator halves an RTT), so this
/// is generous; it exists to bail out before `lcm` or the scaled
/// magnitudes overflow.
pub(crate) const MAX_SCALE: i128 = 1 << 40;

fn gcd(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.abs()
}

/// The least common denominator of `values`, or `None` once it would
/// exceed [`MAX_SCALE`].
pub(crate) fn common_denominator(values: impl IntoIterator<Item = Ratio>) -> Option<i128> {
    let mut scale: i128 = 1;
    for r in values {
        let den = r.denominator();
        // Skips the i128 divisions on the common case (estimates have
        // denominators 1 or 2).
        if den == 1 || den == scale {
            continue;
        }
        scale = scale.checked_mul(den / gcd(scale, den))?;
        if scale > MAX_SCALE {
            return None;
        }
    }
    Some(scale)
}

/// `r · scale` exactly, or `None` if it does not fit an `i64`. `scale`
/// must be a multiple of `r`'s denominator (a [`common_denominator`]).
pub(crate) fn scale_exact(r: Ratio, scale: i128) -> Option<i64> {
    let factor = match r.denominator() {
        1 => scale,
        den if den == scale => 1,
        den => scale / den,
    };
    // `factor ≥ 1`, so a numerator outside `i64` gives a product outside
    // it too; the multiply itself stays in `i64`.
    let num = i64::try_from(r.numerator()).ok()?;
    num.checked_mul(i64::try_from(factor).ok()?)
}

/// The largest weight magnitude for which any sum of `n + 1` weights
/// stays within `i64::MAX / 4` — the bound of the Karp and corrections
/// kernels, whose walks have at most `n` edges plus one relaxation.
pub(crate) fn walk_limit(n: usize) -> i64 {
    (i64::MAX / 4) / (n as i64 + 1)
}

/// Rescales every finite entry of `m` by `scale` and writes `absent` for
/// every other entry. `None` if a scaled entry's magnitude exceeds
/// `limit`.
pub(crate) fn scale_matrix(
    m: &SquareMatrix<Ext<Ratio>>,
    scale: i128,
    limit: i64,
    absent: i64,
) -> Option<SquareMatrix<i64>> {
    let mut out = SquareMatrix::filled(m.n(), absent);
    for (i, j, &w) in m.iter() {
        if let Ext::Finite(r) = w {
            out[(i, j)] = scale_exact(r, scale).filter(|v| (-limit..=limit).contains(v))?;
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_denominator_is_the_lcm_up_to_the_cap() {
        let rs = [Ratio::new(1, 2), Ratio::new(1, 3), Ratio::from_int(7)];
        assert_eq!(common_denominator(rs), Some(6));
        assert_eq!(common_denominator([]), Some(1));
        assert_eq!(
            common_denominator([Ratio::new(1, MAX_SCALE)]),
            Some(MAX_SCALE)
        );
        assert_eq!(common_denominator([Ratio::new(1, MAX_SCALE * 2)]), None);
        // Two coprime denominators, each below the cap, whose LCM is not.
        let (p, q) = ((1i128 << 21) - 9, (1i128 << 21) - 21);
        assert_eq!(
            common_denominator([Ratio::new(1, p), Ratio::new(1, q)]),
            None
        );
    }

    #[test]
    fn scale_exact_rejects_what_an_i64_cannot_hold() {
        assert_eq!(scale_exact(Ratio::new(-3, 2), 4), Some(-6));
        assert_eq!(
            scale_exact(Ratio::from_int(i64::MAX as i128), 1),
            Some(i64::MAX)
        );
        assert_eq!(scale_exact(Ratio::from_int(i64::MAX as i128), 2), None);
    }

    #[test]
    fn scale_matrix_applies_the_limit_and_the_sentinel() {
        let mut m = SquareMatrix::filled(2, Ext::PosInf);
        m[(0, 1)] = Ext::Finite(Ratio::new(5, 2));
        let out = scale_matrix(&m, 2, 5, -1).expect("within the limit");
        assert_eq!(out.as_slice(), &[-1, 5, -1, -1]);
        assert!(scale_matrix(&m, 2, 4, -1).is_none());
    }
}
