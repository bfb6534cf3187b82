//! The dense row-major `f32` tensor and its elementwise algebra.

use crate::shape::Shape;
use rand::Rng;
use std::fmt;

/// A dense, row-major, heap-allocated `f32` tensor.
///
/// `Tensor` is the value type threaded through the whole TimeCSL stack:
/// datasets hand series to the shapelet transformer as tensors, the autodiff
/// graph stores node values and gradients as tensors, and analyzers consume
/// feature matrices as rank-2 tensors.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    // ---------------------------------------------------------------- ctors

    /// Builds a tensor from a flat row-major buffer. Panics if the buffer
    /// length does not equal `shape.numel()`.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "buffer of length {} cannot be viewed as shape {}",
            data.len(),
            shape
        );
        Tensor { data, shape }
    }

    /// A scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            data: vec![value],
            shape: Shape::scalar(),
        }
    }

    /// All-zeros tensor of the given shape.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Tensor {
            data: vec![0.0; shape.numel()],
            shape,
        }
    }

    /// All-ones tensor of the given shape.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Constant-filled tensor of the given shape.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        Tensor {
            data: vec![value; shape.numel()],
            shape,
        }
    }

    /// Identity matrix of side `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros([n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Tensor whose flat elements are produced by `f(flat_index)`.
    pub fn from_fn(shape: impl Into<Shape>, mut f: impl FnMut(usize) -> f32) -> Self {
        let shape = shape.into();
        let data = (0..shape.numel()).map(&mut f).collect();
        Tensor { data, shape }
    }

    /// Standard-normal random tensor.
    pub fn randn(shape: impl Into<Shape>, rng: &mut impl Rng) -> Self {
        let shape = shape.into();
        let data = (0..shape.numel()).map(|_| crate::rng::gauss(rng)).collect();
        Tensor { data, shape }
    }

    /// Uniform random tensor on `[lo, hi)`.
    pub fn rand_uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut impl Rng) -> Self {
        let shape = shape.into();
        let data = (0..shape.numel()).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor { data, shape }
    }

    /// Evenly spaced values `start, start+step, ...` of length `n` as a vector.
    pub fn arange(start: f32, step: f32, n: usize) -> Self {
        let data = (0..n).map(|i| start + step * i as f32).collect();
        Tensor {
            data,
            shape: Shape::from([n]),
        }
    }

    // ------------------------------------------------------------ accessors

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Rank (number of axes).
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Extent along `axis`.
    pub fn dim(&self, axis: usize) -> usize {
        self.shape.dim(axis)
    }

    /// Number of rows of a rank-2 tensor.
    pub fn rows(&self) -> usize {
        assert_eq!(
            self.rank(),
            2,
            "rows() requires a rank-2 tensor, got {}",
            self.shape
        );
        self.shape.dim(0)
    }

    /// Number of columns of a rank-2 tensor.
    pub fn cols(&self) -> usize {
        assert_eq!(
            self.rank(),
            2,
            "cols() requires a rank-2 tensor, got {}",
            self.shape
        );
        self.shape.dim(1)
    }

    /// Flat immutable view of the buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable view of the buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-index.
    pub fn get(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Sets the element at a multi-index.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    /// Element `(i, j)` of a rank-2 tensor (bounds-checked via shape).
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.rank(), 2);
        self.data[i * self.shape.dim(1) + j]
    }

    /// The single value of a scalar or one-element tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.numel(),
            1,
            "item() requires exactly one element, shape is {}",
            self.shape
        );
        self.data[0]
    }

    /// Immutable view of row `i` of a rank-2 tensor.
    pub fn row(&self, i: usize) -> &[f32] {
        let c = self.cols();
        &self.data[i * c..(i + 1) * c]
    }

    /// Mutable view of row `i` of a rank-2 tensor.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        let c = self.cols();
        &mut self.data[i * c..(i + 1) * c]
    }

    // ------------------------------------------------------------- reshapes

    /// Reinterprets the buffer under a new shape with the same element count.
    pub fn reshape(mut self, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            self.numel(),
            shape.numel(),
            "cannot reshape {} ({} elements) to {} ({} elements)",
            self.shape,
            self.numel(),
            shape,
            shape.numel()
        );
        self.shape = shape;
        self
    }

    /// Transpose of a rank-2 tensor (copies).
    pub fn transpose2(&self) -> Self {
        let (r, c) = (self.rows(), self.cols());
        let mut out = Tensor::zeros([c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        out
    }

    /// Stacks rank-1 tensors of equal length into a rank-2 tensor (one row
    /// per input).
    pub fn stack_rows(rows: &[Tensor]) -> Self {
        assert!(!rows.is_empty(), "stack_rows needs at least one row");
        let width = rows[0].numel();
        let mut data = Vec::with_capacity(rows.len() * width);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.numel(),
                width,
                "row {i} has {} elements, expected {width}",
                r.numel()
            );
            data.extend_from_slice(r.as_slice());
        }
        Tensor::from_vec(data, [rows.len(), width])
    }

    /// Concatenates rank-2 tensors with equal column counts along axis 0.
    pub fn concat_rows(parts: &[&Tensor]) -> Self {
        assert!(!parts.is_empty());
        let cols = parts[0].cols();
        let rows: usize = parts.iter().map(|p| p.rows()).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols(), cols, "column mismatch in concat_rows");
            data.extend_from_slice(p.as_slice());
        }
        Tensor::from_vec(data, [rows, cols])
    }

    /// Concatenates rank-2 tensors with equal row counts along axis 1.
    pub fn concat_cols(parts: &[&Tensor]) -> Self {
        assert!(!parts.is_empty());
        let rows = parts[0].rows();
        let cols: usize = parts.iter().map(|p| p.cols()).sum();
        let mut out = Tensor::zeros([rows, cols]);
        let mut col_off = 0;
        for p in parts {
            assert_eq!(p.rows(), rows, "row mismatch in concat_cols");
            let pc = p.cols();
            for i in 0..rows {
                out.data[i * cols + col_off..i * cols + col_off + pc].copy_from_slice(p.row(i));
            }
            col_off += pc;
        }
        out
    }

    /// Gathers columns of a rank-2 tensor: column `j` of the result is
    /// column `columns[j]` of `self`. Columns may repeat and come in any
    /// order. Panics on an out-of-range column.
    pub fn select_cols(&self, columns: &[usize]) -> Self {
        let (rows, cols) = (self.rows(), self.cols());
        if let Some(&bad) = columns.iter().find(|&&c| c >= cols) {
            panic!("column {bad} out of range for {}", self.shape);
        }
        let mut data = Vec::with_capacity(rows * columns.len());
        for i in 0..rows {
            let row = &self.data[i * cols..(i + 1) * cols];
            data.extend(columns.iter().map(|&c| row[c]));
        }
        Tensor::from_vec(data, [rows, columns.len()])
    }

    // ----------------------------------------------------------- elementwise

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shape tensors elementwise.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Self {
        assert!(
            self.shape.same_as(&other.shape),
            "shape mismatch: {} vs {}",
            self.shape,
            other.shape
        );
        Tensor {
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        }
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Tensor) -> Self {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Tensor) -> Self {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise product.
    pub fn mul(&self, other: &Tensor) -> Self {
        self.zip_map(other, |a, b| a * b)
    }

    /// Elementwise quotient.
    pub fn div(&self, other: &Tensor) -> Self {
        self.zip_map(other, |a, b| a / b)
    }

    /// `self + alpha * other`, in place (the axpy of BLAS).
    pub fn add_scaled_inplace(&mut self, other: &Tensor, alpha: f32) {
        assert!(
            self.shape.same_as(&other.shape),
            "shape mismatch in add_scaled_inplace"
        );
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Self {
        self.map(|x| x + s)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|x| x * s)
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Self {
        self.map(|x| -x)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Self {
        self.map(f32::sqrt)
    }

    /// Elementwise natural exponential.
    pub fn exp(&self) -> Self {
        self.map(f32::exp)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Self {
        self.map(f32::ln)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Self {
        self.map(f32::abs)
    }

    /// Elementwise square.
    pub fn square(&self) -> Self {
        self.map(|x| x * x)
    }

    /// Clamps every element to `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Self {
        self.map(|x| x.clamp(lo, hi))
    }

    /// Adds a length-`cols` vector to every row of a rank-2 tensor.
    pub fn add_row_vector(&self, v: &Tensor) -> Self {
        let (r, c) = (self.rows(), self.cols());
        assert_eq!(
            v.numel(),
            c,
            "row vector length {} != cols {}",
            v.numel(),
            c
        );
        let mut out = self.clone();
        for i in 0..r {
            for j in 0..c {
                out.data[i * c + j] += v.data[j];
            }
        }
        out
    }

    /// Adds a length-`rows` vector to every column of a rank-2 tensor.
    pub fn add_col_vector(&self, v: &Tensor) -> Self {
        let (r, c) = (self.rows(), self.cols());
        assert_eq!(
            v.numel(),
            r,
            "col vector length {} != rows {}",
            v.numel(),
            r
        );
        let mut out = self.clone();
        for i in 0..r {
            for j in 0..c {
                out.data[i * c + j] += v.data[i];
            }
        }
        out
    }

    /// Squared L2 norm of the whole buffer.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// L2 norm of the whole buffer.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Dot product of two same-shape tensors viewed as flat vectors.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert!(self.shape.same_as(&other.shape), "shape mismatch in dot");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// True iff every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute difference against another same-shape tensor.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert!(
            self.shape.same_as(&other.shape),
            "shape mismatch in max_abs_diff"
        );
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={}, ", self.shape)?;
        if self.numel() <= 8 {
            write!(f, "data={:?})", self.data)
        } else {
            write!(
                f,
                "data=[{}, {}, ... {} elements])",
                self.data[0],
                self.data[1],
                self.numel()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.get(&[1, 2]), 6.0);
        assert_eq!(t.at2(0, 1), 2.0);
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "cannot be viewed")]
    fn from_vec_bad_shape_panics() {
        Tensor::from_vec(vec![1.0; 5], [2, 3]);
    }

    #[test]
    fn eye_and_arange() {
        let i = Tensor::eye(3);
        assert_eq!(i.at2(0, 0), 1.0);
        assert_eq!(i.at2(0, 1), 0.0);
        let a = Tensor::arange(0.0, 0.5, 4);
        assert_eq!(a.as_slice(), &[0.0, 0.5, 1.0, 1.5]);
    }

    #[test]
    fn elementwise_algebra() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], [2]);
        assert_eq!(a.add(&b).as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).as_slice(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).as_slice(), &[3.0, 10.0]);
        assert_eq!(b.div(&a).as_slice(), &[3.0, 2.5]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!(a.square().as_slice(), &[1.0, 4.0]);
        assert_eq!(a.dot(&b), 13.0);
    }

    #[test]
    fn add_scaled_inplace_is_axpy() {
        let mut a = Tensor::from_vec(vec![1.0, 1.0], [2]);
        let b = Tensor::from_vec(vec![2.0, 4.0], [2]);
        a.add_scaled_inplace(&b, 0.5);
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), [2, 3]);
        let tt = t.transpose2();
        assert_eq!(tt.shape().dims(), &[3, 2]);
        assert_eq!(tt.at2(2, 1), t.at2(1, 2));
        assert_eq!(tt.transpose2(), t);
    }

    #[test]
    fn stack_and_concat() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], [2]);
        let m = Tensor::stack_rows(&[a, b]);
        assert_eq!(m.shape().dims(), &[2, 2]);

        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let y = Tensor::from_vec(vec![5.0, 6.0], [1, 2]);
        let cat = Tensor::concat_rows(&[&x, &y]);
        assert_eq!(cat.shape().dims(), &[3, 2]);
        assert_eq!(cat.row(2), &[5.0, 6.0]);

        let z = Tensor::from_vec(vec![9.0, 8.0], [2, 1]);
        let side = Tensor::concat_cols(&[&x, &z]);
        assert_eq!(side.shape().dims(), &[2, 3]);
        assert_eq!(side.row(0), &[1.0, 2.0, 9.0]);
        assert_eq!(side.row(1), &[3.0, 4.0, 8.0]);
    }

    #[test]
    fn select_cols_gathers_in_the_given_order() {
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), [2, 4]);
        let g = x.select_cols(&[3, 0, 3]);
        assert_eq!(g.shape().dims(), &[2, 3]);
        assert_eq!(g.row(0), &[3.0, 0.0, 3.0]);
        assert_eq!(g.row(1), &[7.0, 4.0, 7.0]);
        assert_eq!(x.select_cols(&[0, 1, 2, 3]), x);
        assert_eq!(x.select_cols(&[]).shape().dims(), &[2, 0]);
    }

    #[test]
    #[should_panic(expected = "column 4 out of range")]
    fn select_cols_rejects_a_missing_column() {
        Tensor::from_vec(vec![0.0; 8], [2, 4]).select_cols(&[1, 4]);
    }

    #[test]
    fn row_col_vector_broadcast() {
        let m = Tensor::zeros([2, 3]);
        let rv = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]);
        let out = m.add_row_vector(&rv);
        assert_eq!(out.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(out.row(1), &[1.0, 2.0, 3.0]);

        let cv = Tensor::from_vec(vec![10.0, 20.0], [2]);
        let out = m.add_col_vector(&cv);
        assert_eq!(out.row(0), &[10.0, 10.0, 10.0]);
        assert_eq!(out.row(1), &[20.0, 20.0, 20.0]);
    }

    #[test]
    fn random_tensors_are_seedable() {
        let mut r1 = rand::rngs::StdRng::seed_from_u64(7);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(7);
        let a = Tensor::randn([4, 4], &mut r1);
        let b = Tensor::randn([4, 4], &mut r2);
        assert_eq!(a, b);
        assert!(a.all_finite());
    }

    #[test]
    fn norms() {
        let t = Tensor::from_vec(vec![3.0, 4.0], [2]);
        assert_eq!(t.norm_sq(), 25.0);
        assert_eq!(t.norm(), 5.0);
    }
}
