//! Dense bit-packed Boolean matrices.

// panda-lint: allow-file(P1) -- dense matrix kernel: `(i, j)` accesses
// are bounded by the `rows`/`cols` dimensions every constructor checks.

/// A dense Boolean matrix stored as bit-packed rows (64 columns per word).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoolMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl BoolMatrix {
    /// Creates an all-zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(64);
        BoolMatrix { rows, cols, words_per_row, bits: vec![0; rows * words_per_row] }
    }

    /// The number of rows.
    #[cfg(test)]
    fn rows(&self) -> usize {
        self.rows
    }

    /// The number of columns.
    #[cfg(test)]
    fn cols(&self) -> usize {
        self.cols
    }

    /// Sets an entry to `true`.
    pub fn set(&mut self, row: usize, col: usize) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.bits[row * self.words_per_row + col / 64] |= 1 << (col % 64);
    }

    /// Reads an entry.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> bool {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.bits[row * self.words_per_row + col / 64] & (1 << (col % 64)) != 0
    }

    /// The number of `true` entries.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Boolean matrix product `self · other` using word-parallel row
    /// OR-accumulation: for every `true` entry `(i,k)` of `self`, row `k` of
    /// `other` is OR-ed into row `i` of the result.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not match.
    #[must_use]
    pub fn multiply(&self, other: &BoolMatrix) -> BoolMatrix {
        assert_eq!(self.cols, other.rows, "dimension mismatch in Boolean matrix product");
        let mut out = BoolMatrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let out_row = i * out.words_per_row;
            for k in 0..self.cols {
                if self.get(i, k) {
                    let other_row = k * other.words_per_row;
                    for w in 0..other.words_per_row {
                        out.bits[out_row + w] |= other.bits[other_row + w];
                    }
                }
            }
        }
        out
    }

    /// The transpose.
    #[must_use]
    pub fn transpose(&self) -> BoolMatrix {
        let mut out = BoolMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                if self.get(i, j) {
                    out.set(j, i);
                }
            }
        }
        out
    }

    /// `true` iff `self` and `other` (of the same shape) share a `true`
    /// entry — used to finish cycle detection without materialising the
    /// intersection.
    #[must_use]
    pub fn intersects(&self, other: &BoolMatrix) -> bool {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        self.bits.iter().zip(&other.bits).any(|(a, b)| a & b != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn bool_matrix_basics() {
        let mut m = BoolMatrix::zeros(3, 70);
        assert_eq!(m.count_ones(), 0);
        m.set(0, 0);
        m.set(2, 69);
        assert!(m.get(0, 0));
        assert!(m.get(2, 69));
        assert!(!m.get(1, 5));
        assert_eq!(m.count_ones(), 2);
        let t = m.transpose();
        assert!(t.get(69, 2));
        assert_eq!(t.rows(), 70);
        assert_eq!(t.cols(), 3);
    }

    #[test]
    fn bool_product_matches_definition() {
        let mut rng = StdRng::seed_from_u64(1);
        let (n, m, p) = (17, 23, 31);
        let mut a = BoolMatrix::zeros(n, m);
        let mut b = BoolMatrix::zeros(m, p);
        for i in 0..n {
            for j in 0..m {
                if rng.gen_bool(0.2) {
                    a.set(i, j);
                }
            }
        }
        for i in 0..m {
            for j in 0..p {
                if rng.gen_bool(0.2) {
                    b.set(i, j);
                }
            }
        }
        let c = a.multiply(&b);
        for i in 0..n {
            for j in 0..p {
                let expected = (0..m).any(|k| a.get(i, k) && b.get(k, j));
                assert_eq!(c.get(i, j), expected, "({i},{j})");
            }
        }
    }

    #[test]
    fn intersects_detects_overlap() {
        let mut a = BoolMatrix::zeros(4, 4);
        let mut b = BoolMatrix::zeros(4, 4);
        a.set(1, 2);
        b.set(2, 1);
        assert!(!a.intersects(&b));
        b.set(1, 2);
        assert!(a.intersects(&b));
    }
}
