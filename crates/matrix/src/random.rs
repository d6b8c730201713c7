//! Random matrix generation for tests and workload generators.

use crate::dense::Matrix;
use rand::Rng;

/// Random `rows × cols` matrix with small integer entries in `[-9, 9]`.
///
/// Small entries keep exact integer arithmetic overflow-free even through
/// several Strassen recursion levels.
pub fn random_i64_matrix<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Matrix<i64> {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-9i64..=9))
}

/// Random `rows × cols` matrix with `f64` entries in `[-1, 1)`.
#[cfg(test)]
pub fn random_f64_matrix<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shapes_and_ranges() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = random_i64_matrix(3, 4, &mut rng);
        assert_eq!((m.rows(), m.cols()), (3, 4));
        assert!(m.as_slice().iter().all(|&x| (-9..=9).contains(&x)));

        let f = random_f64_matrix(2, 2, &mut rng);
        assert!(f.as_slice().iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let ma = random_i64_matrix(4, 4, &mut a);
        let mb = random_i64_matrix(4, 4, &mut b);
        assert!(ma.exactly_equals(&mb));
    }
}
