//! A real multi-threaded distributed executor: one BFS step of a
//! Strassen-like algorithm with one OS thread per simulated processor,
//! every word crossing a channel counted.
//!
//! This is the workspace's end-to-end demonstration that the bandwidth
//! accounting corresponds to an actual parallel execution: the master
//! encodes the `b` sub-operand pairs, ships each to a worker, workers
//! multiply sequentially (any cutoff), ship products back, and the master
//! decodes. The measured traffic is exactly `3·b·(n/n₀)²` words — the
//! `step_words` of the CAPS simulator at `p = b`.

use mmio_algos::Executor;
use mmio_cdag::base::Side;
use mmio_cdag::BaseGraph;
use mmio_matrix::block::{join_blocks, split_blocks};
use mmio_matrix::{Matrix, Scalar};
use std::sync::{mpsc, Mutex};

/// Traffic counters of one parallel run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Words sent master → workers (operands).
    pub words_out: u64,
    /// Words sent workers → master (products).
    pub words_in: u64,
}

impl Traffic {
    /// Total words moved.
    pub fn total(&self) -> u64 {
        self.words_out + self.words_in
    }
}

/// Multiplies `a·b` with one BFS step of `base` over `b` worker threads,
/// counting channel traffic. Falls back to plain sequential execution for
/// 1×1 blocks.
///
/// # Panics
/// Panics if the operands are not square of equal side divisible by `n₀`.
pub fn multiply_parallel<T: Scalar>(
    base: &BaseGraph,
    a: &Matrix<T>,
    b: &Matrix<T>,
    cutoff: usize,
) -> (Matrix<T>, Traffic) {
    let n = a.rows();
    assert!(
        a.is_square() && b.is_square() && b.rows() == n,
        "operands must be square of equal side"
    );
    let n0 = base.n0();
    assert_eq!(n % n0, 0, "side must be divisible by n0");
    let s = n / n0;

    let blocks_a = split_blocks(a, n0);
    let blocks_b = split_blocks(b, n0);

    // Encode the b sub-operand pairs (master-side work, no communication).
    let encode = |enc: &Matrix<mmio_matrix::Rational>, blocks: &[Matrix<T>], m: usize| {
        let mut acc = Matrix::zeros(s, s);
        for x in 0..base.a() {
            let c = enc[(m, x)];
            if c.is_zero() {
                continue;
            }
            let term = if c.is_one() {
                blocks[x].clone()
            } else {
                blocks[x].scale(T::from_rational(c))
            };
            acc = acc.add_ref(&term);
        }
        acc
    };

    let traffic = Mutex::new(Traffic::default());
    let exec = Executor::new(base.clone(), cutoff.max(1));
    let mut products: Vec<Option<Matrix<T>>> = vec![None; base.b()];

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(base.b());
        for m in 0..base.b() {
            let sa = encode(base.enc(Side::A), &blocks_a, m);
            let sb = encode(base.enc(Side::B), &blocks_b, m);
            let (traffic, exec) = (&traffic, &exec);
            // Channel per worker; sending the operands counts words.
            let (tx, rx) = mpsc::sync_channel::<(Matrix<T>, Matrix<T>)>(1);
            traffic.lock().expect("traffic lock").words_out += 2 * (s * s) as u64;
            tx.send((sa, sb)).expect("worker channel open");
            handles.push(scope.spawn(move || {
                let (sa, sb) = rx.recv().expect("operands arrive");
                let p = exec.multiply(&sa, &sb);
                traffic.lock().expect("traffic lock").words_in += (s * s) as u64;
                p
            }));
        }
        for (m, h) in handles.into_iter().enumerate() {
            products[m] = Some(h.join().expect("worker thread"));
        }
    });

    // Decode (master-side).
    let dec = base.dec();
    let mut out_blocks = Vec::with_capacity(base.a());
    for y in 0..base.a() {
        let mut acc = Matrix::zeros(s, s);
        for (m, p) in products.iter().enumerate() {
            let c = dec[(y, m)];
            if c.is_zero() {
                continue;
            }
            let p = p.as_ref().expect("product present");
            let term = if c.is_one() {
                p.clone()
            } else {
                p.scale(T::from_rational(c))
            };
            acc = acc.add_ref(&term);
        }
        out_blocks.push(acc);
    }
    let result = join_blocks(&out_blocks, n0);
    (result, traffic.into_inner().expect("traffic lock"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmio_algos::strassen::strassen;
    use mmio_matrix::classical::multiply_naive;
    use mmio_matrix::random::random_i64_matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parallel_result_matches_classical() {
        let base = strassen();
        let mut rng = StdRng::seed_from_u64(1);
        for n in [2usize, 4, 8, 16] {
            let a = random_i64_matrix(n, n, &mut rng);
            let b = random_i64_matrix(n, n, &mut rng);
            let (c, _) = multiply_parallel(&base, &a, &b, 1);
            assert!(c.exactly_equals(&multiply_naive(&a, &b)), "n={n}");
        }
    }

    #[test]
    fn traffic_matches_caps_step_formula() {
        let base = strassen();
        let mut rng = StdRng::seed_from_u64(2);
        let n = 16usize;
        let a = random_i64_matrix(n, n, &mut rng);
        let b = random_i64_matrix(n, n, &mut rng);
        let (_, t) = multiply_parallel(&base, &a, &b, 1);
        let s = n / 2;
        assert_eq!(t.words_out, 2 * 7 * (s * s) as u64);
        assert_eq!(t.words_in, 7 * (s * s) as u64);
        // = 3·b·n²/a, the CAPS step volume at p = b (summed over procs).
        assert_eq!(t.total(), 3 * 7 * (n * n / 4) as u64);
    }

    #[test]
    fn works_for_laderman() {
        let base = mmio_algos::laderman::laderman();
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_i64_matrix(9, 9, &mut rng);
        let b = random_i64_matrix(9, 9, &mut rng);
        let (c, t) = multiply_parallel(&base, &a, &b, 1);
        assert!(c.exactly_equals(&multiply_naive(&a, &b)));
        assert_eq!(t.total(), 3 * 23 * 9);
    }
}
