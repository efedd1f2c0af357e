//! Minimal dense matrix support for the low-rank baseline.

use rayon::prelude::*;

/// A row-major dense matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseMatrix {
    pub rows: usize,
    pub cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Builds from a row-major data vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Self { rows, cols, data }
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Row slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * other` (parallel over rows).
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        out.data.par_chunks_mut(other.cols).enumerate().for_each(|(i, out_row)| {
            for k in 0..self.cols {
                let aik = self.get(i, k);
                if aik != 0.0 {
                    let brow = other.row(k);
                    for (o, &b) in out_row.iter_mut().zip(brow) {
                        *o += aik * b;
                    }
                }
            }
        });
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// In-place modified Gram–Schmidt on the columns; returns the column
    /// norms before normalization (R's diagonal). Columns that collapse to
    /// ~0 are re-seeded as zero vectors.
    pub fn orthonormalize_columns(&mut self) -> Vec<f64> {
        let (n, k) = (self.rows, self.cols);
        let mut norms = Vec::with_capacity(k);
        for j in 0..k {
            // Subtract projections onto previous columns.
            for p in 0..j {
                let mut dot = 0.0;
                for r in 0..n {
                    dot += self.get(r, j) * self.get(r, p);
                }
                for r in 0..n {
                    let v = self.get(r, j) - dot * self.get(r, p);
                    self.set(r, j, v);
                }
            }
            let mut norm = 0.0;
            for r in 0..n {
                norm += self.get(r, j) * self.get(r, j);
            }
            norm = norm.sqrt();
            norms.push(norm);
            if norm > 1e-12 {
                for r in 0..n {
                    self.set(r, j, self.get(r, j) / norm);
                }
            } else {
                for r in 0..n {
                    self.set(r, j, 0.0);
                }
            }
        }
        norms
    }

    /// Bytes of storage used by the data (for Table 2 storage accounting).
    pub fn storage_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let mut i2 = DenseMatrix::zeros(2, 2);
        i2.set(0, 0, 1.0);
        i2.set(1, 1, 1.0);
        let a = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.matmul(&i2), a);
    }

    #[test]
    fn matmul_known() {
        let a = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = DenseMatrix::from_vec(3, 1, vec![1.0, 1.0, 1.0]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[6.0]);
        assert_eq!(c.row(1), &[15.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn gram_schmidt_orthonormalizes() {
        let mut a = DenseMatrix::from_vec(3, 2, vec![1.0, 1.0, 0.0, 1.0, 0.0, 0.0]);
        a.orthonormalize_columns();
        // Columns must be unit and orthogonal.
        let mut dot = 0.0;
        let mut n0 = 0.0;
        let mut n1 = 0.0;
        for r in 0..3 {
            dot += a.get(r, 0) * a.get(r, 1);
            n0 += a.get(r, 0) * a.get(r, 0);
            n1 += a.get(r, 1) * a.get(r, 1);
        }
        assert!(dot.abs() < 1e-10);
        assert!((n0 - 1.0).abs() < 1e-10);
        assert!((n1 - 1.0).abs() < 1e-10);
    }
}
