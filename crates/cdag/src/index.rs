//! Mixed-radix index arithmetic for the recursive coordinates of `G_r`.
//!
//! Every vertex of `G_r` is addressed by a *multiplication prefix*
//! `(t₁,…,t_ℓ) ∈ [b]^ℓ` (which subproblem chain it belongs to, coarsest
//! level first) and an *entry suffix* `(x_{ℓ+1},…,x_r) ∈ [a]^{r-ℓ}` (which
//! block entry it is, again coarsest first). Both are packed into `u64`s
//! most-significant-digit-first, so that all vertices sharing a prefix form
//! a contiguous range — which is exactly what Fact 1 extraction needs.

/// Packs digits (most significant first) in base `radix`.
pub fn pack(digits: &[usize], radix: usize) -> u64 {
    digits
        .iter()
        .fold(0u64, |acc, &d| acc * radix as u64 + d as u64)
}

/// Unpacks `value` into `len` digits (most significant first) in base `radix`.
pub fn unpack(value: u64, radix: usize, len: usize) -> Vec<usize> {
    let mut digits = vec![0usize; len];
    unpack_into(value, radix, &mut digits);
    digits
}

/// Allocation-free [`unpack`]: fills `digits` (most significant first) from
/// `value` in base `radix`. Routing hot paths decode millions of digit
/// vectors; reusing one scratch slice keeps them off the allocator.
pub fn unpack_into(value: u64, radix: usize, digits: &mut [usize]) {
    let mut v = value;
    for d in digits.iter_mut().rev() {
        *d = (v % radix as u64) as usize;
        v /= radix as u64;
    }
    debug_assert_eq!(
        v,
        0,
        "value does not fit in {} base-{radix} digits",
        digits.len()
    );
}

/// `radix^exp` as `u64`, panicking on overflow (graph sizes must fit).
pub fn pow(radix: usize, exp: u32) -> u64 {
    (radix as u64)
        .checked_pow(exp)
        .expect("index space overflow: graph too large")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        for radix in [2usize, 4, 7] {
            for v in 0..(radix as u64).pow(3) {
                let d = unpack(v, radix, 3);
                assert_eq!(pack(&d, radix), v);
            }
        }
    }

    #[test]
    fn msd_first() {
        // digits (1, 2, 3) base 7 = 1·49 + 2·7 + 3.
        assert_eq!(pack(&[1, 2, 3], 7), 66);
        assert_eq!(unpack(66, 7, 3), vec![1, 2, 3]);
    }

    #[test]
    fn pow_works() {
        assert_eq!(pow(7, 0), 1);
        assert_eq!(pow(4, 5), 1024);
    }

    #[test]
    fn unpack_into_matches_unpack() {
        let mut buf = [0usize; 4];
        for v in 0..7u64.pow(4) {
            unpack_into(v, 7, &mut buf);
            assert_eq!(buf.to_vec(), unpack(v, 7, 4));
        }
    }

    #[test]
    #[should_panic(expected = "index space overflow")]
    fn pow_overflow_panics() {
        let _ = pow(7, 64);
    }
}
