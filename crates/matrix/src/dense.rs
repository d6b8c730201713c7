//! Dense, row-major matrices generic over a [`Scalar`].

use crate::scalar::Scalar;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense `rows × cols` matrix stored row-major.
#[derive(Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Matrix<T> {
        Matrix {
            rows,
            cols,
            data: vec![T::zero(); rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Matrix<T> {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::one();
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Matrix<T> {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` for each entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Matrix<T> {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major data.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Borrow row `i` as a slice.
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterator over `(row, col, value)` of all nonzero entries.
    pub fn nonzeros(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.rows).flat_map(move |i| {
            (0..self.cols).filter_map(move |j| {
                let v = self[(i, j)];
                (v != T::zero()).then_some((i, j, v))
            })
        })
    }

    /// Number of nonzero entries.
    pub fn nnz(&self) -> usize {
        self.nonzeros().count()
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix<T> {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Applies `f` entrywise, producing a possibly differently-typed matrix.
    pub fn map<U: Scalar>(&self, mut f: impl FnMut(T) -> U) -> Matrix<U> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Scales every entry by `s`.
    pub fn scale(&self, s: T) -> Matrix<T> {
        self.map(|x| x * s)
    }

    /// Copies the `h × w` block with top-left corner `(r0, c0)` out of `self`.
    ///
    /// # Panics
    /// Panics if the block exceeds the matrix bounds.
    pub fn block(&self, r0: usize, c0: usize, h: usize, w: usize) -> Matrix<T> {
        assert!(
            r0 + h <= self.rows && c0 + w <= self.cols,
            "block out of bounds"
        );
        Matrix::from_fn(h, w, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Writes `src` into `self` with top-left corner `(r0, c0)`.
    ///
    /// # Panics
    /// Panics if the block exceeds the matrix bounds.
    pub fn set_block(&mut self, r0: usize, c0: usize, src: &Matrix<T>) {
        assert!(
            r0 + src.rows <= self.rows && c0 + src.cols <= self.cols,
            "block out of bounds"
        );
        for i in 0..src.rows {
            for j in 0..src.cols {
                self[(r0 + i, c0 + j)] = src[(i, j)];
            }
        }
    }

    /// `self + other` without consuming either operand.
    pub fn add_ref(&self, other: &Matrix<T>) -> Matrix<T> {
        self.zip_with(other, |a, b| a + b)
    }

    /// `self - other` without consuming either operand.
    pub fn sub_ref(&self, other: &Matrix<T>) -> Matrix<T> {
        self.zip_with(other, |a, b| a - b)
    }

    fn zip_with(&self, other: &Matrix<T>, f: impl Fn(T, T) -> T) -> Matrix<T> {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Frobenius-style check that all entries are exactly equal.
    pub fn exactly_equals(&self, other: &Matrix<T>) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.data == other.data
    }
}

impl Matrix<f64> {
    /// Maximum absolute entrywise difference, for float comparisons.
    pub fn max_abs_diff(&self, other: &Matrix<f64>) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl<T: Scalar> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Matrix<T> {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl<T: Scalar> Add for &Matrix<T> {
    type Output = Matrix<T>;
    fn add(self, rhs: &Matrix<T>) -> Matrix<T> {
        self.add_ref(rhs)
    }
}

impl<T: Scalar> Sub for &Matrix<T> {
    type Output = Matrix<T>;
    fn sub(self, rhs: &Matrix<T>) -> Matrix<T> {
        self.sub_ref(rhs)
    }
}

impl<T: Scalar> Neg for &Matrix<T> {
    type Output = Matrix<T>;
    fn neg(self) -> Matrix<T> {
        self.map(|x| -x)
    }
}

impl<T: Scalar> Mul for &Matrix<T> {
    type Output = Matrix<T>;
    /// Classical (naive) multiplication; see [`crate::classical`] for faster
    /// loop orders. Provided as an operator for convenience in tests.
    fn mul(self, rhs: &Matrix<T>) -> Matrix<T> {
        crate::classical::multiply_naive(self, rhs)
    }
}

impl<T: fmt::Debug> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{:?} ", self.data[i * self.cols + j])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::Rational;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as i64);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(1, 2)], 5);
        assert_eq!(m.row(1), &[3, 4, 5]);
    }

    #[test]
    fn identity_and_zeros() {
        let id: Matrix<i64> = Matrix::identity(3);
        let z: Matrix<i64> = Matrix::zeros(3, 3);
        assert_eq!(id.nnz(), 3);
        assert_eq!(z.nnz(), 0);
        assert!((&id + &z).exactly_equals(&id));
    }

    #[test]
    fn add_sub_neg_scale() {
        let a = Matrix::from_vec(2, 2, vec![1i64, 2, 3, 4]);
        let b = Matrix::from_vec(2, 2, vec![4i64, 3, 2, 1]);
        assert_eq!((&a + &b).as_slice(), &[5, 5, 5, 5]);
        assert_eq!((&a - &b).as_slice(), &[-3, -1, 1, 3]);
        assert_eq!((-&a).as_slice(), &[-1, -2, -3, -4]);
        assert_eq!(a.scale(2).as_slice(), &[2, 4, 6, 8]);
    }

    #[test]
    fn transpose() {
        let m = Matrix::from_vec(2, 3, vec![1i64, 2, 3, 4, 5, 6]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.as_slice(), &[1, 4, 2, 5, 3, 6]);
        assert!(t.transpose().exactly_equals(&m));
    }

    #[test]
    fn blocks_roundtrip() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as i64);
        let b = m.block(2, 2, 2, 2);
        assert_eq!(b.as_slice(), &[10, 11, 14, 15]);
        let mut z: Matrix<i64> = Matrix::zeros(4, 4);
        z.set_block(2, 2, &b);
        assert_eq!(z[(3, 3)], 15);
        assert_eq!(z[(0, 0)], 0);
    }

    #[test]
    #[should_panic(expected = "block out of bounds")]
    fn block_out_of_bounds() {
        let m: Matrix<i64> = Matrix::zeros(2, 2);
        let _ = m.block(1, 1, 2, 2);
    }

    #[test]
    fn map_changes_type() {
        let m = Matrix::from_vec(1, 2, vec![1i64, -2]);
        let r = m.map(Rational::integer);
        assert_eq!(r[(0, 1)], Rational::integer(-2));
    }

    #[test]
    fn nonzeros() {
        let m = Matrix::from_vec(2, 2, vec![0i64, 5, 0, -1]);
        let nz: Vec<_> = m.nonzeros().collect();
        assert_eq!(nz, vec![(0, 1, 5), (1, 1, -1)]);
    }

    #[test]
    fn mul_operator_matches_identity() {
        let m = Matrix::from_fn(3, 3, |i, j| (i + 2 * j) as i64);
        let id = Matrix::identity(3);
        assert!((&m * &id).exactly_equals(&m));
        assert!((&id * &m).exactly_equals(&m));
    }

    #[test]
    fn max_abs_diff() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(1, 2, vec![1.5, 2.0]);
        assert_eq!(a.max_abs_diff(&b), 0.5);
    }
}

impl<T: serde::Serialize> serde::Serialize for Matrix<T> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("rows".to_string(), self.rows.to_value()),
            ("cols".to_string(), self.cols.to_value()),
            ("data".to_string(), self.data.to_value()),
        ])
    }
}

impl<T: serde::Deserialize> serde::Deserialize for Matrix<T> {
    fn from_value(v: &serde::Value) -> Result<Self, serde::de::Error> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde::de::Error::custom(format!("missing field `{name}`")))
        };
        let rows = usize::from_value(field("rows")?)?;
        let cols = usize::from_value(field("cols")?)?;
        let data = Vec::<T>::from_value(field("data")?)?;
        // checked_mul: rows/cols are untrusted, and rows*cols may overflow.
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(serde::de::Error::custom("matrix shape/data mismatch"));
        }
        Ok(Matrix { rows, cols, data })
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;
    use crate::rational::Rational;

    #[test]
    fn matrix_roundtrip() {
        let m = Matrix::from_fn(2, 3, |i, j| Rational::new(i as i64 + 1, j as i64 + 1));
        let json = serde_json::to_string(&m).unwrap();
        let back: Matrix<Rational> = serde_json::from_str(&json).unwrap();
        assert!(back.exactly_equals(&m));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let bad = r#"{"rows":2,"cols":2,"data":["1","2","3"]}"#;
        assert!(serde_json::from_str::<Matrix<Rational>>(bad).is_err());
    }
}
