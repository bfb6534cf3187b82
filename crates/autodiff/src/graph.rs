//! The computation graph: eager forward evaluation plus a recorded tape that
//! [`Graph::backward`] replays in reverse.
//!
//! Each builder method appends one node, computes its value immediately, and
//! returns a [`VarId`] handle. `backward` walks the tape from the loss node
//! toward the leaves, accumulating adjoints. The forward/backward rule for
//! every operator lives side by side in this file so each pair can be audited
//! together (and is cross-checked by `gradcheck`).

use std::sync::Arc;

use tcsl_tensor::matmul::{matmul, matmul_transa, matmul_transb};
use tcsl_tensor::reduce::{self, Axis};
use tcsl_tensor::window::{unfold_dilated, unfold_dilated_backward};
use tcsl_tensor::{Shape, Tensor};

/// Handle to a node in a [`Graph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) usize);

/// A user-defined operator: a fused forward pass paired with its analytic
/// backward, registered on the tape via [`Graph::custom`] without growing
/// the closed internal `Op` enum.
///
/// The contract mirrors the built-in rules:
///
/// * `forward` computes the node value from the input values. It runs
///   eagerly at insertion time, exactly once per node.
/// * `backward` receives the adjoint of the output (`grad_out`), the input
///   values and the forward output, and returns one `Option<Tensor>` per
///   input — `Some(∂loss/∂input_i)` shaped like that input, or `None` for
///   inputs the op is not differentiable in (their gradient contribution is
///   zero). `backward` is invoked during [`Graph::backward`]'s reverse
///   topological walk, so every adjoint it sees is already fully
///   accumulated.
///
/// Implementations must be `Send + Sync`: graphs cross thread boundaries in
/// data-parallel training, and one op instance may be shared (via `Arc`)
/// between the clones a worker makes. State `backward` needs (e.g. argmin
/// indices) is therefore best computed before the node is inserted and
/// held immutably by the op — see `ShapeletDistanceOp` in `tcsl-shapelet`,
/// built from a finished pooling.
pub trait CustomOp: Send + Sync + std::fmt::Debug {
    /// Computes the output value from the input values.
    fn forward(&self, inputs: &[&Tensor]) -> Tensor;

    /// Computes per-input gradients given the output adjoint, the input
    /// values and the forward output. Must return exactly one entry per
    /// input.
    fn backward(
        &self,
        grad_out: &Tensor,
        inputs: &[&Tensor],
        output: &Tensor,
    ) -> Vec<Option<Tensor>>;
}

/// Recorded operator of a node, with whatever forward byproducts the
/// backward pass needs (arg indices, saved norms, ...).
#[derive(Debug, Clone)]
enum Op {
    Leaf,
    Add(VarId, VarId),
    Sub(VarId, VarId),
    Mul(VarId, VarId),
    Div(VarId, VarId),
    Neg(VarId),
    AddScalar(VarId),
    MulScalar(VarId, f32),
    SqrtEps(VarId),
    Exp(VarId),
    LnEps(VarId, f32),
    Square(VarId),
    Relu(VarId),
    Tanh(VarId),
    Sigmoid(VarId),
    MatMul(VarId, VarId),
    MatMulTransB(VarId, VarId),
    Transpose(VarId),
    SumAll(VarId),
    MeanAll(VarId),
    SumAxis(VarId, Axis),
    MeanAxis(VarId, Axis),
    MinAxis(VarId, Axis, Vec<usize>),
    MaxAxis(VarId, Axis, Vec<usize>),
    AddRowVec(VarId, VarId),
    AddColVec(VarId, VarId),
    Reshape(VarId, Shape),
    ConcatRows(Vec<VarId>),
    ConcatCols(Vec<VarId>),
    SliceCols(VarId, usize, usize),
    Unfold {
        input: VarId,
        len: usize,
        stride: usize,
        dilation: usize,
    },
    PadCols(VarId, usize, usize),
    RowNormalize(VarId, Vec<f32>),
    MaskDiagonal(VarId),
    LogSumExpRows(VarId),
    CrossEntropyLogits {
        logits: VarId,
        targets: Vec<usize>,
    },
    /// A user-defined fused operator ([`CustomOp`]). Held behind `Arc` so
    /// the tape stays `Clone` and `Send` — the op itself carries no
    /// per-node tape state.
    Custom {
        op: Arc<dyn CustomOp>,
        inputs: Vec<VarId>,
    },
}

struct Node {
    value: Tensor,
    op: Op,
    requires_grad: bool,
}

/// Gradients produced by [`Graph::backward`], indexed by [`VarId`].
pub struct Grads {
    grads: Vec<Option<Tensor>>,
}

impl Grads {
    /// Gradient of the loss with respect to `id`, if that node required one.
    pub fn get(&self, id: VarId) -> Option<&Tensor> {
        self.grads.get(id.0).and_then(Option::as_ref)
    }

    /// Takes ownership of the gradient for `id`.
    pub fn take(&mut self, id: VarId) -> Option<Tensor> {
        self.grads.get_mut(id.0).and_then(Option::take)
    }
}

/// A single-use computation tape. Build one per training step.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    /// Empty graph.
    pub fn new() -> Self {
        Graph { nodes: Vec::new() }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current value of a node.
    pub fn value(&self, id: VarId) -> &Tensor {
        &self.nodes[id.0].value
    }

    fn push(&mut self, value: Tensor, op: Op, requires_grad: bool) -> VarId {
        debug_assert!(value.all_finite(), "non-finite value produced by {op:?}");
        self.nodes.push(Node {
            value,
            op,
            requires_grad,
        });
        VarId(self.nodes.len() - 1)
    }

    fn rg(&self, id: VarId) -> bool {
        self.nodes[id.0].requires_grad
    }

    // ------------------------------------------------------------- leaves

    /// Inserts a constant input (no gradient tracked).
    pub fn leaf(&mut self, value: Tensor) -> VarId {
        self.push(value, Op::Leaf, false)
    }

    /// Inserts a trainable input (gradient tracked).
    pub fn param(&mut self, value: Tensor) -> VarId {
        self.push(value, Op::Leaf, true)
    }

    // -------------------------------------------------------- elementwise

    /// Elementwise `a + b`.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.value(a).add(self.value(b));
        let r = self.rg(a) || self.rg(b);
        self.push(v, Op::Add(a, b), r)
    }

    /// Elementwise `a − b`.
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.value(a).sub(self.value(b));
        let r = self.rg(a) || self.rg(b);
        self.push(v, Op::Sub(a, b), r)
    }

    /// Elementwise `a ⊙ b`.
    pub fn mul(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.value(a).mul(self.value(b));
        let r = self.rg(a) || self.rg(b);
        self.push(v, Op::Mul(a, b), r)
    }

    /// Elementwise `a / b`.
    pub fn div(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.value(a).div(self.value(b));
        let r = self.rg(a) || self.rg(b);
        self.push(v, Op::Div(a, b), r)
    }

    /// Elementwise negation.
    pub fn neg(&mut self, a: VarId) -> VarId {
        let v = self.value(a).neg();
        let r = self.rg(a);
        self.push(v, Op::Neg(a), r)
    }

    /// Adds a scalar constant to every element.
    pub fn add_scalar(&mut self, a: VarId, s: f32) -> VarId {
        let v = self.value(a).add_scalar(s);
        let r = self.rg(a);
        self.push(v, Op::AddScalar(a), r)
    }

    /// Multiplies every element by a scalar constant.
    pub fn mul_scalar(&mut self, a: VarId, s: f32) -> VarId {
        let v = self.value(a).scale(s);
        let r = self.rg(a);
        self.push(v, Op::MulScalar(a, s), r)
    }

    /// `sqrt(a + eps)` — the epsilon keeps the gradient finite at zero,
    /// which matters because shapelet distances can hit an exact match.
    pub fn sqrt_eps(&mut self, a: VarId, eps: f32) -> VarId {
        let v = self.value(a).add_scalar(eps).sqrt();
        let r = self.rg(a);
        self.push(v, Op::SqrtEps(a), r)
    }

    /// Elementwise `exp`.
    pub fn exp(&mut self, a: VarId) -> VarId {
        let v = self.value(a).exp();
        let r = self.rg(a);
        self.push(v, Op::Exp(a), r)
    }

    /// `ln(a + eps)`.
    pub fn ln_eps(&mut self, a: VarId, eps: f32) -> VarId {
        let v = self.value(a).add_scalar(eps).ln();
        let r = self.rg(a);
        self.push(v, Op::LnEps(a, eps), r)
    }

    /// Elementwise square.
    pub fn square(&mut self, a: VarId) -> VarId {
        let v = self.value(a).square();
        let r = self.rg(a);
        self.push(v, Op::Square(a), r)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: VarId) -> VarId {
        let v = self.value(a).map(|x| x.max(0.0));
        let r = self.rg(a);
        self.push(v, Op::Relu(a), r)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: VarId) -> VarId {
        let v = self.value(a).map(f32::tanh);
        let r = self.rg(a);
        self.push(v, Op::Tanh(a), r)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: VarId) -> VarId {
        let v = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        let r = self.rg(a);
        self.push(v, Op::Sigmoid(a), r)
    }

    // ------------------------------------------------------------- linear

    /// Matrix product `a (m×k) · b (k×n)`.
    pub fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        let v = matmul(self.value(a), self.value(b));
        let r = self.rg(a) || self.rg(b);
        self.push(v, Op::MatMul(a, b), r)
    }

    /// Matrix product against a transposed right factor: `a (m×k) · bᵀ`
    /// with `b (n×k)`.
    pub fn matmul_transb(&mut self, a: VarId, b: VarId) -> VarId {
        let v = matmul_transb(self.value(a), self.value(b));
        let r = self.rg(a) || self.rg(b);
        self.push(v, Op::MatMulTransB(a, b), r)
    }

    /// Matrix transpose.
    pub fn transpose(&mut self, a: VarId) -> VarId {
        let v = self.value(a).transpose2();
        let r = self.rg(a);
        self.push(v, Op::Transpose(a), r)
    }

    /// Adds a length-`cols` vector to every row of a matrix.
    pub fn add_row_vec(&mut self, a: VarId, v: VarId) -> VarId {
        let out = self.value(a).add_row_vector(self.value(v));
        let r = self.rg(a) || self.rg(v);
        self.push(out, Op::AddRowVec(a, v), r)
    }

    /// Adds a length-`rows` vector to every column of a matrix.
    pub fn add_col_vec(&mut self, a: VarId, v: VarId) -> VarId {
        let out = self.value(a).add_col_vector(self.value(v));
        let r = self.rg(a) || self.rg(v);
        self.push(out, Op::AddColVec(a, v), r)
    }

    // --------------------------------------------------------- reductions

    /// Sum of all elements → scalar.
    pub fn sum_all(&mut self, a: VarId) -> VarId {
        let v = Tensor::scalar(reduce::sum(self.value(a)));
        let r = self.rg(a);
        self.push(v, Op::SumAll(a), r)
    }

    /// Mean of all elements → scalar.
    pub fn mean_all(&mut self, a: VarId) -> VarId {
        let v = Tensor::scalar(reduce::mean(self.value(a)));
        let r = self.rg(a);
        self.push(v, Op::MeanAll(a), r)
    }

    /// Per-axis sum of a matrix.
    pub fn sum_axis(&mut self, a: VarId, axis: Axis) -> VarId {
        let v = reduce::sum_axis(self.value(a), axis);
        let r = self.rg(a);
        self.push(v, Op::SumAxis(a, axis), r)
    }

    /// Per-axis mean of a matrix.
    pub fn mean_axis(&mut self, a: VarId, axis: Axis) -> VarId {
        let v = reduce::mean_axis(self.value(a), axis);
        let r = self.rg(a);
        self.push(v, Op::MeanAxis(a, axis), r)
    }

    /// Per-axis minimum; the backward pass routes gradient only to the
    /// minimizing element (min-pooling subgradient).
    pub fn min_axis(&mut self, a: VarId, axis: Axis) -> VarId {
        let (v, args) = reduce::min_axis(self.value(a), axis);
        let r = self.rg(a);
        self.push(v, Op::MinAxis(a, axis, args), r)
    }

    /// Per-axis maximum with arg-routed backward (max-pooling subgradient).
    pub fn max_axis(&mut self, a: VarId, axis: Axis) -> VarId {
        let (v, args) = reduce::max_axis(self.value(a), axis);
        let r = self.rg(a);
        self.push(v, Op::MaxAxis(a, axis, args), r)
    }

    // -------------------------------------------------------------- shape

    /// Reinterprets the buffer under a new shape.
    pub fn reshape(&mut self, a: VarId, shape: impl Into<Shape>) -> VarId {
        let old = self.value(a).shape().clone();
        let v = self.value(a).clone().reshape(shape);
        let r = self.rg(a);
        self.push(v, Op::Reshape(a, old), r)
    }

    /// Vertically concatenates matrices with equal column counts.
    pub fn concat_rows(&mut self, parts: &[VarId]) -> VarId {
        let tensors: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let v = Tensor::concat_rows(&tensors);
        let r = parts.iter().any(|&p| self.rg(p));
        self.push(v, Op::ConcatRows(parts.to_vec()), r)
    }

    /// Horizontally concatenates matrices with equal row counts.
    pub fn concat_cols(&mut self, parts: &[VarId]) -> VarId {
        let tensors: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let v = Tensor::concat_cols(&tensors);
        let r = parts.iter().any(|&p| self.rg(p));
        self.push(v, Op::ConcatCols(parts.to_vec()), r)
    }

    /// Column slice `a[:, start..end]`.
    pub fn slice_cols(&mut self, a: VarId, start: usize, end: usize) -> VarId {
        let src = self.value(a);
        let (rows, cols) = (src.rows(), src.cols());
        assert!(
            start < end && end <= cols,
            "bad column slice {start}..{end} of {cols}"
        );
        let mut out = Tensor::zeros([rows, end - start]);
        for i in 0..rows {
            out.row_mut(i).copy_from_slice(&src.row(i)[start..end]);
        }
        let r = self.rg(a);
        self.push(out, Op::SliceCols(a, start, end), r)
    }

    /// Sliding-window unfold of a `(D, T)` series into `(N_w, D·len)`
    /// windows (see [`tcsl_tensor::window::unfold_dilated`]).
    pub fn unfold(&mut self, a: VarId, len: usize, stride: usize, dilation: usize) -> VarId {
        let v = unfold_dilated(self.value(a), len, stride, dilation);
        let r = self.rg(a);
        self.push(
            v,
            Op::Unfold {
                input: a,
                len,
                stride,
                dilation,
            },
            r,
        )
    }

    /// Zero-pads the columns (time axis) of a matrix: `left` zeros before,
    /// `right` after. Used for causal convolution.
    pub fn pad_cols(&mut self, a: VarId, left: usize, right: usize) -> VarId {
        let src = self.value(a);
        let (rows, cols) = (src.rows(), src.cols());
        let mut out = Tensor::zeros([rows, left + cols + right]);
        for i in 0..rows {
            out.row_mut(i)[left..left + cols].copy_from_slice(src.row(i));
        }
        let r = self.rg(a);
        self.push(out, Op::PadCols(a, left, right), r)
    }

    // ----------------------------------------------------- normalization &
    // ----------------------------------------------------------- losses

    /// L2-normalizes each row: `y_i = x_i / sqrt(‖x_i‖² + eps)`.
    pub fn row_normalize(&mut self, a: VarId, eps: f32) -> VarId {
        let src = self.value(a);
        let (rows, cols) = (src.rows(), src.cols());
        let mut out = Tensor::zeros([rows, cols]);
        let mut norms = Vec::with_capacity(rows);
        for i in 0..rows {
            let row = src.row(i);
            let n = (row.iter().map(|&x| x * x).sum::<f32>() + eps).sqrt();
            norms.push(n);
            for (o, &x) in out.row_mut(i).iter_mut().zip(row.iter()) {
                *o = x / n;
            }
        }
        let r = self.rg(a);
        self.push(out, Op::RowNormalize(a, norms), r)
    }

    /// Replaces the diagonal of a square matrix with a large negative value
    /// so softmax ignores self-similarities (NT-Xent masking). Gradient to
    /// the diagonal is zero.
    pub fn mask_diagonal(&mut self, a: VarId) -> VarId {
        let src = self.value(a);
        assert_eq!(
            src.rows(),
            src.cols(),
            "mask_diagonal requires a square matrix"
        );
        let n = src.rows();
        let mut out = src.clone();
        for i in 0..n {
            out.set(&[i, i], -1e9);
        }
        let r = self.rg(a);
        self.push(out, Op::MaskDiagonal(a), r)
    }

    /// Per-row log-sum-exp of a matrix → vector.
    pub fn logsumexp_rows(&mut self, a: VarId) -> VarId {
        let src = self.value(a);
        let rows = src.rows();
        let mut out = Tensor::zeros([rows]);
        for i in 0..rows {
            out.as_mut_slice()[i] = lse(src.row(i));
        }
        let r = self.rg(a);
        self.push(out, Op::LogSumExpRows(a), r)
    }

    /// Mean softmax cross-entropy of `logits (B×C)` against integer
    /// `targets` → scalar. This is both the classification loss of the
    /// fine-tuning mode and the core of NT-Xent.
    pub fn cross_entropy_logits(&mut self, logits: VarId, targets: &[usize]) -> VarId {
        let src = self.value(logits);
        let (rows, cols) = (src.rows(), src.cols());
        assert_eq!(rows, targets.len(), "one target per logits row required");
        let mut total = 0.0f64;
        for (i, &t) in targets.iter().enumerate() {
            assert!(t < cols, "target {t} out of range for {cols} classes");
            let row = src.row(i);
            total += (lse(row) - row[t]) as f64;
        }
        let v = Tensor::scalar((total / rows as f64) as f32);
        let r = self.rg(logits);
        self.push(
            v,
            Op::CrossEntropyLogits {
                logits,
                targets: targets.to_vec(),
            },
            r,
        )
    }

    // --------------------------------------------------------- custom ops

    /// Records a [`CustomOp`] node: runs the op's fused forward eagerly
    /// over the current input values and registers its analytic backward
    /// on the tape. Gradient tracking follows the usual rule — the node
    /// requires a gradient iff any input does.
    pub fn custom(&mut self, op: Arc<dyn CustomOp>, inputs: &[VarId]) -> VarId {
        let vals: Vec<&Tensor> = inputs.iter().map(|&i| self.value(i)).collect();
        let v = op.forward(&vals);
        let r = inputs.iter().any(|&i| self.rg(i));
        self.push(
            v,
            Op::Custom {
                op,
                inputs: inputs.to_vec(),
            },
            r,
        )
    }

    // ------------------------------------------------------ composed utils

    /// Mean squared error between two same-shape tensors → scalar.
    pub fn mse(&mut self, a: VarId, b: VarId) -> VarId {
        let d = self.sub(a, b);
        let s = self.square(d);
        self.mean_all(s)
    }

    // ----------------------------------------------------------- backward

    /// Reverse-mode sweep from the scalar node `loss`; returns per-node
    /// gradients for every node on a differentiable path.
    pub fn backward(&self, loss: VarId) -> Grads {
        assert_eq!(
            self.value(loss).numel(),
            1,
            "backward must start from a scalar, got shape {}",
            self.value(loss).shape()
        );
        let mut grads: Vec<Option<Tensor>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[loss.0] = Some(Tensor::full(self.value(loss).shape().clone(), 1.0));

        for idx in (0..=loss.0).rev() {
            if !self.nodes[idx].requires_grad {
                continue;
            }
            let g = match grads[idx].take() {
                Some(g) => g,
                None => continue,
            };
            self.accumulate(idx, &g, &mut grads);
            grads[idx] = Some(g);
        }
        Grads { grads }
    }

    fn accumulate(&self, idx: usize, g: &Tensor, grads: &mut [Option<Tensor>]) {
        // The delta expression is only evaluated when the input tracks
        // gradients — constant leaves (window matrices, targets, masks)
        // skip their whole backward computation, which roughly halves the
        // cost of training the shapelet transform.
        macro_rules! add_to {
            ($grads:expr, $id:expr, $delta:expr) => {{
                let id: VarId = $id;
                if self.rg(id) {
                    let delta: Tensor = $delta;
                    match &mut $grads[id.0] {
                        Some(acc) => acc.add_scaled_inplace(&delta, 1.0),
                        slot @ None => *slot = Some(delta),
                    }
                }
            }};
        }

        match &self.nodes[idx].op {
            Op::Leaf => {}
            Op::Add(a, b) => {
                add_to!(grads, *a, g.clone());
                add_to!(grads, *b, g.clone());
            }
            Op::Sub(a, b) => {
                add_to!(grads, *a, g.clone());
                add_to!(grads, *b, g.neg());
            }
            Op::Mul(a, b) => {
                add_to!(grads, *a, g.mul(self.value(*b)));
                add_to!(grads, *b, g.mul(self.value(*a)));
            }
            Op::Div(a, b) => {
                let vb = self.value(*b);
                add_to!(grads, *a, g.div(vb));
                let va = self.value(*a);
                let gb = g.mul(va).div(&vb.mul(vb)).neg();
                add_to!(grads, *b, gb);
            }
            Op::Neg(a) => add_to!(grads, *a, g.neg()),
            Op::AddScalar(a) => add_to!(grads, *a, g.clone()),
            Op::MulScalar(a, s) => add_to!(grads, *a, g.scale(*s)),
            Op::SqrtEps(a) => {
                // y = sqrt(x+eps) → dy/dx = 1/(2y); y is this node's value.
                let y = &self.nodes[idx].value;
                add_to!(grads, *a, g.zip_map(y, |gv, yv| gv * 0.5 / yv));
            }
            Op::Exp(a) => add_to!(grads, *a, g.mul(&self.nodes[idx].value)),
            Op::LnEps(a, eps) => {
                let va = self.value(*a);
                add_to!(grads, *a, g.zip_map(va, |gv, xv| gv / (xv + eps)));
            }
            Op::Square(a) => {
                let va = self.value(*a);
                add_to!(grads, *a, g.zip_map(va, |gv, xv| 2.0 * gv * xv));
            }
            Op::Relu(a) => {
                let va = self.value(*a);
                add_to!(
                    grads,
                    *a,
                    g.zip_map(va, |gv, xv| if xv > 0.0 { gv } else { 0.0 })
                );
            }
            Op::Tanh(a) => {
                let y = &self.nodes[idx].value;
                add_to!(grads, *a, g.zip_map(y, |gv, yv| gv * (1.0 - yv * yv)));
            }
            Op::Sigmoid(a) => {
                let y = &self.nodes[idx].value;
                add_to!(grads, *a, g.zip_map(y, |gv, yv| gv * yv * (1.0 - yv)));
            }
            Op::MatMul(a, b) => {
                add_to!(grads, *a, matmul_transb(g, self.value(*b)));
                add_to!(grads, *b, matmul_transa(self.value(*a), g));
            }
            Op::MatMulTransB(a, b) => {
                // y = a·bᵀ → ∂a = g·b, ∂b = gᵀ·a.
                add_to!(grads, *a, matmul(g, self.value(*b)));
                add_to!(grads, *b, matmul_transa(g, self.value(*a)));
            }
            Op::Transpose(a) => add_to!(grads, *a, g.transpose2()),
            Op::SumAll(a) => {
                let shape = self.value(*a).shape().clone();
                add_to!(grads, *a, Tensor::full(shape, g.item()));
            }
            Op::MeanAll(a) => {
                let va = self.value(*a);
                let scale = g.item() / va.numel() as f32;
                add_to!(grads, *a, Tensor::full(va.shape().clone(), scale));
            }
            Op::SumAxis(a, axis) => {
                add_to!(grads, *a, broadcast_axis(self.value(*a), g, *axis, 1.0));
            }
            Op::MeanAxis(a, axis) => {
                let va = self.value(*a);
                let n = match axis {
                    Axis::Rows => va.rows(),
                    Axis::Cols => va.cols(),
                } as f32;
                add_to!(grads, *a, broadcast_axis(va, g, *axis, 1.0 / n));
            }
            Op::MinAxis(a, axis, args) | Op::MaxAxis(a, axis, args) => {
                let va = self.value(*a);
                let mut delta = Tensor::zeros(va.shape().clone());
                let cols = va.cols();
                match axis {
                    Axis::Rows => {
                        // One output per column j; gradient goes to (args[j], j).
                        for (j, (&arg, &gv)) in args.iter().zip(g.as_slice()).enumerate() {
                            delta.as_mut_slice()[arg * cols + j] += gv;
                        }
                    }
                    Axis::Cols => {
                        // One output per row i; gradient goes to (i, args[i]).
                        for (i, (&arg, &gv)) in args.iter().zip(g.as_slice()).enumerate() {
                            delta.as_mut_slice()[i * cols + arg] += gv;
                        }
                    }
                }
                add_to!(grads, *a, delta);
            }
            Op::AddRowVec(a, v) => {
                add_to!(grads, *a, g.clone());
                add_to!(grads, *v, reduce::sum_axis(g, Axis::Rows));
            }
            Op::AddColVec(a, v) => {
                add_to!(grads, *a, g.clone());
                add_to!(grads, *v, reduce::sum_axis(g, Axis::Cols));
            }
            Op::Reshape(a, old_shape) => {
                add_to!(grads, *a, g.clone().reshape(old_shape.clone()));
            }
            Op::ConcatRows(parts) => {
                let mut row_off = 0;
                for &p in parts {
                    let pr = self.value(p).rows();
                    let cols = self.value(p).cols();
                    let mut part = Tensor::zeros([pr, cols]);
                    for i in 0..pr {
                        part.row_mut(i).copy_from_slice(g.row(row_off + i));
                    }
                    row_off += pr;
                    add_to!(grads, p, part);
                }
            }
            Op::ConcatCols(parts) => {
                let mut col_off = 0;
                for &p in parts {
                    let (pr, pc) = (self.value(p).rows(), self.value(p).cols());
                    let mut part = Tensor::zeros([pr, pc]);
                    for i in 0..pr {
                        part.row_mut(i)
                            .copy_from_slice(&g.row(i)[col_off..col_off + pc]);
                    }
                    col_off += pc;
                    add_to!(grads, p, part);
                }
            }
            Op::SliceCols(a, start, end) => {
                let va = self.value(*a);
                let mut delta = Tensor::zeros(va.shape().clone());
                for i in 0..va.rows() {
                    delta.row_mut(i)[*start..*end].copy_from_slice(g.row(i));
                }
                add_to!(grads, *a, delta);
            }
            Op::Unfold {
                input,
                len,
                stride,
                dilation,
            } => {
                let va = self.value(*input);
                let (d, t) = (va.rows(), va.cols());
                add_to!(
                    grads,
                    *input,
                    unfold_dilated_backward(g, d, t, *len, *stride, *dilation)
                );
            }
            Op::PadCols(a, left, _right) => {
                let va = self.value(*a);
                let (rows, cols) = (va.rows(), va.cols());
                let mut delta = Tensor::zeros([rows, cols]);
                for i in 0..rows {
                    delta
                        .row_mut(i)
                        .copy_from_slice(&g.row(i)[*left..*left + cols]);
                }
                add_to!(grads, *a, delta);
            }
            Op::RowNormalize(a, norms) => {
                // y = x/n → ∂x = (g − y·(g·y)) / n per row.
                let y = &self.nodes[idx].value;
                let (rows, cols) = (y.rows(), y.cols());
                let mut delta = Tensor::zeros([rows, cols]);
                for i in 0..rows {
                    let yr = y.row(i);
                    let gr = g.row(i);
                    let dot: f32 = yr.iter().zip(gr.iter()).map(|(&a, &b)| a * b).sum();
                    let n = norms[i];
                    for ((d, &gv), &yv) in delta.row_mut(i).iter_mut().zip(gr.iter()).zip(yr.iter())
                    {
                        *d = (gv - yv * dot) / n;
                    }
                }
                add_to!(grads, *a, delta);
            }
            Op::MaskDiagonal(a) => {
                let n = g.rows();
                let mut delta = g.clone();
                for i in 0..n {
                    delta.set(&[i, i], 0.0);
                }
                add_to!(grads, *a, delta);
            }
            Op::LogSumExpRows(a) => {
                let va = self.value(*a);
                let (rows, cols) = (va.rows(), va.cols());
                let mut delta = Tensor::zeros([rows, cols]);
                for i in 0..rows {
                    let sm = softmax_row(va.row(i));
                    let gv = g.as_slice()[i];
                    for (d, p) in delta.row_mut(i).iter_mut().zip(sm) {
                        *d = gv * p;
                    }
                }
                add_to!(grads, *a, delta);
            }
            Op::CrossEntropyLogits { logits, targets } => {
                let va = self.value(*logits);
                let (rows, cols) = (va.rows(), va.cols());
                let scale = g.item() / rows as f32;
                let mut delta = Tensor::zeros([rows, cols]);
                for (i, &t) in targets.iter().enumerate() {
                    let sm = softmax_row(va.row(i));
                    let dr = delta.row_mut(i);
                    for (j, p) in sm.into_iter().enumerate() {
                        dr[j] = scale * (p - if j == t { 1.0 } else { 0.0 });
                    }
                }
                add_to!(grads, *logits, delta);
            }
            Op::Custom { op, inputs } => {
                let vals: Vec<&Tensor> = inputs.iter().map(|&i| self.value(i)).collect();
                let deltas = op.backward(g, &vals, &self.nodes[idx].value);
                assert_eq!(
                    deltas.len(),
                    inputs.len(),
                    "custom op {op:?} returned {} gradients for {} inputs",
                    deltas.len(),
                    inputs.len()
                );
                for (&input, delta) in inputs.iter().zip(deltas) {
                    if let Some(d) = delta {
                        debug_assert!(
                            d.shape().same_as(self.value(input).shape()),
                            "custom op {op:?} gradient shape {} != input shape {}",
                            d.shape(),
                            self.value(input).shape()
                        );
                        add_to!(grads, input, d);
                    }
                }
            }
        }
    }
}

/// Numerically stable log-sum-exp of a slice.
fn lse(row: &[f32]) -> f32 {
    let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if !m.is_finite() {
        return m;
    }
    let s: f32 = row.iter().map(|&x| (x - m).exp()).sum();
    m + s.ln()
}

fn softmax_row(row: &[f32]) -> Vec<f32> {
    let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = row.iter().map(|&x| (x - m).exp()).collect();
    let total: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / total).collect()
}

/// Expands a per-axis gradient back to the full matrix shape, scaled.
fn broadcast_axis(like: &Tensor, g: &Tensor, axis: Axis, scale: f32) -> Tensor {
    let (rows, cols) = (like.rows(), like.cols());
    let mut out = Tensor::zeros([rows, cols]);
    match axis {
        Axis::Rows => {
            for i in 0..rows {
                for (o, &gv) in out.row_mut(i).iter_mut().zip(g.as_slice()) {
                    *o = gv * scale;
                }
            }
        }
        Axis::Cols => {
            for i in 0..rows {
                let gv = g.as_slice()[i] * scale;
                for o in out.row_mut(i).iter_mut() {
                    *o = gv;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_chain_gradient() {
        // loss = sum((w * x + 2)^2), w = [1, -1], x = [3, 5]
        let mut g = Graph::new();
        let w = g.param(Tensor::from_vec(vec![1.0, -1.0], [2]));
        let x = g.leaf(Tensor::from_vec(vec![3.0, 5.0], [2]));
        let wx = g.mul(w, x);
        let shifted = g.add_scalar(wx, 2.0);
        let sq = g.square(shifted);
        let loss = g.sum_all(sq);
        // values: (3+2)^2 + (-5+2)^2 = 25 + 9 = 34
        assert_eq!(g.value(loss).item(), 34.0);
        let grads = g.backward(loss);
        // d/dw_i = 2(w_i x_i + 2) x_i → [2*5*3, 2*(-3)*5] = [30, -30]
        assert_eq!(grads.get(w).unwrap().as_slice(), &[30.0, -30.0]);
        // x is a leaf without grad
        assert!(grads.get(x).is_none());
    }

    #[test]
    fn matmul_gradients_match_known() {
        // loss = sum(A·B); dA = ones·Bᵀ, dB = Aᵀ·ones.
        let mut g = Graph::new();
        let a = g.param(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]));
        let b = g.param(Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], [2, 2]));
        let c = g.matmul(a, b);
        let loss = g.sum_all(c);
        let grads = g.backward(loss);
        assert_eq!(grads.get(a).unwrap().as_slice(), &[11.0, 15.0, 11.0, 15.0]);
        assert_eq!(grads.get(b).unwrap().as_slice(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn min_axis_routes_gradient_to_argmin() {
        let mut g = Graph::new();
        let a = g.param(Tensor::from_vec(vec![3.0, 1.0, 2.0, 0.5, 9.0, 4.0], [2, 3]));
        let m = g.min_axis(a, Axis::Cols);
        assert_eq!(g.value(m).as_slice(), &[1.0, 0.5]);
        let loss = g.sum_all(m);
        let grads = g.backward(loss);
        assert_eq!(
            grads.get(a).unwrap().as_slice(),
            &[0.0, 1.0, 0.0, 1.0, 0.0, 0.0]
        );
    }

    #[test]
    fn cross_entropy_matches_manual() {
        let mut g = Graph::new();
        let logits = g.param(Tensor::from_vec(vec![2.0, 0.0, 0.0, 3.0], [2, 2]));
        let loss = g.cross_entropy_logits(logits, &[0, 1]);
        // CE_row0 = ln(e^2+e^0) - 2; CE_row1 = ln(e^0+e^3) - 3
        let want = (((2f32.exp() + 1.0).ln() - 2.0) + ((1.0 + 3f32.exp()).ln() - 3.0)) / 2.0;
        assert!((g.value(loss).item() - want).abs() < 1e-5);
        let grads = g.backward(loss);
        let gl = grads.get(logits).unwrap();
        // row sums of softmax-minus-onehot are 0
        assert!((gl.row(0)[0] + gl.row(0)[1]).abs() < 1e-6);
    }

    #[test]
    fn row_normalize_produces_unit_rows_and_tangent_grad() {
        let mut g = Graph::new();
        let a = g.param(Tensor::from_vec(vec![3.0, 4.0, 0.0, 2.0], [2, 2]));
        let n = g.row_normalize(a, 1e-12);
        let v = g.value(n);
        assert!((v.row(0)[0] - 0.6).abs() < 1e-5);
        assert!((v.row(0)[1] - 0.8).abs() < 1e-5);
        // Gradient of sum(y) is orthogonal to y per row: (g - y (g·y))/n.
        let loss = g.sum_all(n);
        let grads = g.backward(loss);
        let ga = grads.get(a).unwrap();
        // check row0: g=(1,1), y=(0.6,0.8), g·y=1.4, n=5 → ((1-0.84)/5,(1-1.12)/5)
        assert!((ga.row(0)[0] - 0.032).abs() < 1e-5);
        assert!((ga.row(0)[1] + 0.024).abs() < 1e-5);
    }

    #[test]
    fn mask_diagonal_blocks_gradient() {
        let mut g = Graph::new();
        let a = g.param(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]));
        let m = g.mask_diagonal(a);
        assert_eq!(g.value(m).at2(0, 0), -1e9);
        assert_eq!(g.value(m).at2(0, 1), 2.0);
        let loss = g.sum_all(m);
        let grads = g.backward(loss);
        assert_eq!(grads.get(a).unwrap().as_slice(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn concat_and_slice_round_trip_gradients() {
        let mut g = Graph::new();
        let a = g.param(Tensor::from_vec(vec![1.0, 2.0], [1, 2]));
        let b = g.param(Tensor::from_vec(vec![3.0, 4.0, 5.0], [1, 3]));
        let cat = g.concat_cols(&[a, b]);
        let sl = g.slice_cols(cat, 1, 4); // elements 2,3,4
        let loss = g.sum_all(sl);
        let grads = g.backward(loss);
        assert_eq!(grads.get(a).unwrap().as_slice(), &[0.0, 1.0]);
        assert_eq!(grads.get(b).unwrap().as_slice(), &[1.0, 1.0, 0.0]);
    }

    #[test]
    fn unfold_gradient_counts_window_coverage() {
        let mut g = Graph::new();
        let a = g.param(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 4]));
        let w = g.unfold(a, 2, 1, 1);
        let loss = g.sum_all(w);
        let grads = g.backward(loss);
        assert_eq!(grads.get(a).unwrap().as_slice(), &[1.0, 2.0, 2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_from_non_scalar_panics() {
        let mut g = Graph::new();
        let a = g.param(Tensor::ones([2, 2]));
        g.backward(a);
    }

    #[test]
    fn graph_and_grads_are_send() {
        // Data-parallel training builds one Graph per worker thread and
        // ships Grads back to the reducer; keep both thread-transferable.
        fn assert_send<T: Send>() {}
        assert_send::<Graph>();
        assert_send::<Grads>();
        assert_send::<VarId>();
    }

    /// Toy custom op for the tests: `y = (a ⊙ a) · s`, gradient `2·s·a·g`.
    #[derive(Debug)]
    struct SquareScale(f32);

    impl CustomOp for SquareScale {
        fn forward(&self, inputs: &[&Tensor]) -> Tensor {
            inputs[0].square().scale(self.0)
        }

        fn backward(
            &self,
            grad_out: &Tensor,
            inputs: &[&Tensor],
            _output: &Tensor,
        ) -> Vec<Option<Tensor>> {
            vec![Some(
                grad_out.zip_map(inputs[0], |g, x| 2.0 * self.0 * x * g),
            )]
        }
    }

    /// Two-input custom op returning `a − b` but declaring itself
    /// non-differentiable in `b` (`None` gradient slot).
    #[derive(Debug)]
    struct SubDetachB;

    impl CustomOp for SubDetachB {
        fn forward(&self, inputs: &[&Tensor]) -> Tensor {
            inputs[0].sub(inputs[1])
        }

        fn backward(
            &self,
            grad_out: &Tensor,
            _inputs: &[&Tensor],
            _output: &Tensor,
        ) -> Vec<Option<Tensor>> {
            vec![Some(grad_out.clone()), None]
        }
    }

    #[test]
    fn custom_op_forward_and_backward() {
        let mut g = Graph::new();
        let a = g.param(Tensor::from_vec(vec![1.0, -2.0, 3.0], [1, 3]));
        let y = g.custom(Arc::new(SquareScale(0.5)), &[a]);
        assert_eq!(g.value(y).as_slice(), &[0.5, 2.0, 4.5]);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        // d/da_i = 2 * 0.5 * a_i = a_i.
        assert_eq!(grads.get(a).unwrap().as_slice(), &[1.0, -2.0, 3.0]);
    }

    #[test]
    fn custom_op_composes_with_builtin_ops() {
        // Same computation built twice: custom square-scale vs the built-in
        // ops, downstream of a matmul and upstream of a reduction. The
        // reverse walk must produce identical gradients.
        let run = |use_custom: bool| {
            let mut g = Graph::new();
            let a = g.param(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]));
            let b = g.leaf(Tensor::from_vec(vec![0.5, -1.0, 1.5, 0.25], [2, 2]));
            let m = g.matmul(a, b);
            let sq = if use_custom {
                g.custom(Arc::new(SquareScale(2.0)), &[m])
            } else {
                let s = g.square(m);
                g.mul_scalar(s, 2.0)
            };
            let loss = g.mean_all(sq);
            let grads = g.backward(loss);
            (g.value(loss).item(), grads.get(a).unwrap().clone())
        };
        let (v1, g1) = run(true);
        let (v2, g2) = run(false);
        assert_eq!(v1, v2);
        assert_eq!(g1.as_slice(), g2.as_slice());
    }

    #[test]
    fn custom_op_none_gradient_slot_is_skipped() {
        let mut g = Graph::new();
        let a = g.param(Tensor::from_vec(vec![5.0, 6.0], [1, 2]));
        let b = g.param(Tensor::from_vec(vec![1.0, 2.0], [1, 2]));
        let y = g.custom(Arc::new(SubDetachB), &[a, b]);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert_eq!(grads.get(a).unwrap().as_slice(), &[1.0, 1.0]);
        // `b` tracks gradients but the op declared ∂/∂b = None.
        assert!(grads.get(b).is_none());
    }

    #[test]
    fn custom_op_on_constant_inputs_tracks_no_gradient() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::ones([2, 2]));
        let y = g.custom(Arc::new(SquareScale(1.0)), &[a]);
        let p = g.param(Tensor::ones([2, 2]));
        let z = g.mul(y, p);
        let loss = g.sum_all(z);
        let grads = g.backward(loss);
        assert!(grads.get(y).is_none(), "constant subgraph got a gradient");
        assert_eq!(grads.get(p).unwrap().as_slice(), &[1.0; 4]);
    }

    #[test]
    fn graph_with_custom_op_is_send() {
        // The Arc<dyn CustomOp> inside Op::Custom must not break the
        // worker-thread contract checked by `graph_and_grads_are_send`.
        let mut g = Graph::new();
        let a = g.param(Tensor::ones([1, 2]));
        g.custom(Arc::new(SquareScale(1.0)), &[a]);
        fn assert_send<T: Send>(_: &T) {}
        assert_send(&g);
    }

    #[test]
    fn grad_skipped_for_untracked_subgraph() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::ones([2, 2]));
        let b = g.leaf(Tensor::ones([2, 2]));
        let c = g.add(a, b);
        let p = g.param(Tensor::ones([2, 2]));
        let d = g.mul(c, p);
        let loss = g.sum_all(d);
        let grads = g.backward(loss);
        assert!(grads.get(c).is_none());
        assert_eq!(grads.get(p).unwrap().as_slice(), &[2.0; 4]);
    }
}
