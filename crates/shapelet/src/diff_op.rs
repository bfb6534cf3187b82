//! `ShapeletDistanceOp` — the fused shapelet-transform kernel as a custom
//! autodiff operator, so training differentiates the *same* streaming code
//! path inference runs (one kernel, two modes).
//!
//! The eager-graph formulation (kept as
//! [`crate::diff_transform::oracle`]) inserts an `(N_w × D·len)` unfolded
//! window matrix as a constant leaf per scale, per series, per worker
//! graph, per batch — the exact materialization the fused inference kernel
//! eliminated. This op instead is built from a **finished pooling** of one
//! (scale, measure) group over one series or crop — [`pool_measure`], or
//! [`pool_crops`](crate::fused::pool_crops) when the trainer pools all
//! crops of a series in one pass — and keeps only what its two passes
//! read:
//!
//! * **forward** — returns the pooled values, recorded when the op was
//!   built;
//! * **backward** — routes the adjoint of each pooled feature to its best
//!   window only (the min/max-pooling subgradient) and applies the
//!   per-measure analytic rule against that one window, read straight out
//!   of the shared time-major series buffer and written channel-major, the
//!   parameters' layout, into one `D·len` scratch row — never
//!   `N_w × D·len`.
//!
//! The numerics match the oracle graph exactly, epsilon for epsilon:
//! Euclidean applies the oracle's `sqrt(· + 1e-8)` softening on top of the
//! fused kernel's `sqrt(·)` pooled value (argmin is invariant under the
//! monotone map `p ↦ √(p²+ε)`, so the recorded best window is the oracle's
//! too), cosine uses the shared `1e-12` norm floors on both sides.
//! Gradients are finite-difference checked per measure × stride and
//! property-pinned to the oracle graph's gradients in `crate::proptests`.

// Exempt from the error wall (clippy.toml) — autodiff op internals: width
// invariants are construction-time guarantees, not request input.
#![allow(clippy::disallowed_methods, clippy::disallowed_macros)]

use std::fmt;
use std::sync::Arc;

use crate::bank::GroupPrecomp;
use crate::fused::{pool_measure, ScaleWindows};
use crate::measure::Measure;
use tcsl_autodiff::CustomOp;
use tcsl_tensor::Tensor;

/// The epsilon of the oracle graph's `sqrt_eps` on the Euclidean branch —
/// keeps the distance gradient finite at exact matches.
pub const EUCLIDEAN_SQRT_EPS: f32 = 1e-8;

/// One (scale, measure) group's pooled shapelet distances as a single tape
/// node: input `(K, D·len)` shapelets, output `(1, K)` pooled features.
///
/// Built from a finished pooling of the input's values, so one op backs one
/// graph node whose input holds those values. It keeps each shapelet's
/// pooled feature, best window and that window's inverse norm, and the
/// buffer the windows are read from: the crop's series, time-major and
/// shared by every op of that series, with the offset where the crop starts
/// in it.
pub struct ShapeletDistanceOp {
    measure: Measure,
    len: usize,
    stride: usize,
    /// The series the crop lies in, time-major `(T, D)`.
    buffer: Arc<Tensor>,
    offset: usize,
    /// The crop's length; its windows read zeros past it, as a crop
    /// shorter than the scale is zero-padded.
    cols: usize,
    best: Box<[Best]>,
}

/// One shapelet's pooled feature and the window it came from.
struct Best {
    value: f32,
    window: u32,
    /// `1 / √(‖w‖² + 1e-12)` of the window (cosine's backward reads it).
    inv_norm: f32,
}

impl ShapeletDistanceOp {
    /// Builds the op from the finished pooling `(pooled, args)` of window
    /// state `sw`, whose crop's `sw.cols` steps start at step `offset` of
    /// the time-major `buffer`. Euclidean applies the oracle path's
    /// `sqrt_eps` softening to the pooled values (the argmin is unaffected —
    /// see the module docs).
    pub fn new(
        measure: Measure,
        sw: &ScaleWindows,
        buffer: Arc<Tensor>,
        offset: usize,
        (values, args): (Vec<f32>, Vec<usize>),
    ) -> Self {
        debug_assert!(buffer.cols() == sw.d() && offset + sw.cols <= buffer.rows());
        let best = values
            .into_iter()
            .zip(args)
            .map(|(p, w)| Best {
                value: match measure {
                    Measure::Euclidean => (p * p + EUCLIDEAN_SQRT_EPS).sqrt(),
                    _ => p,
                },
                window: u32::try_from(w).expect("window index fits in u32"),
                inv_norm: sw.inv_norms[w],
            })
            .collect();
        ShapeletDistanceOp {
            measure,
            len: sw.len,
            stride: sw.stride,
            buffer,
            offset,
            cols: sw.cols,
            best,
        }
    }

    /// Pools `pre`'s shapelets over every window of `sw` and builds the op
    /// on `sw`'s own buffer.
    pub fn pool(measure: Measure, sw: &ScaleWindows, pre: &GroupPrecomp) -> Self {
        let pooled = pool_measure(sw, measure, pre);
        Self::new(measure, sw, Arc::clone(&sw.series), sw.start, pooled)
    }

    /// Writes window `w` of the crop channel-major (the parameters' layout)
    /// into `dst`: each variable's steps of the crop, then zeros past its
    /// end.
    fn window_into(&self, w: usize, dst: &mut [f32]) {
        let d = self.buffer.cols();
        let start = w * self.stride;
        let real = self.len.min(self.cols - start);
        let from = (self.offset + start) * d;
        let steps = &self.buffer.as_slice()[from..from + real * d];
        for (v, row) in dst.chunks_exact_mut(self.len).enumerate() {
            for (x, step) in row.iter_mut().zip(steps.chunks_exact(d)) {
                *x = step[v];
            }
            row[real..].fill(0.0);
        }
    }
}

impl fmt::Debug for ShapeletDistanceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ShapeletDistanceOp({:?}, len={}, stride={}, offset={})",
            self.measure, self.len, self.stride, self.offset
        )
    }
}

impl CustomOp for ShapeletDistanceOp {
    fn forward(&self, inputs: &[&Tensor]) -> Tensor {
        assert_eq!(inputs.len(), 1, "ShapeletDistanceOp takes one input");
        let shapelets = inputs[0];
        assert_eq!(
            shapelets.cols(),
            self.buffer.cols() * self.len,
            "shapelet width must be D·len"
        );
        assert_eq!(
            shapelets.rows(),
            self.best.len(),
            "one feature per shapelet"
        );
        let values = self.best.iter().map(|b| b.value).collect();
        Tensor::from_vec(values, [1, self.best.len()])
    }

    fn backward(
        &self,
        grad_out: &Tensor,
        inputs: &[&Tensor],
        output: &Tensor,
    ) -> Vec<Option<Tensor>> {
        let shapelets = inputs[0];
        let k = shapelets.rows();
        let row_w = shapelets.cols();
        let width = row_w as f32;
        let g = grad_out.as_slice();
        let out = output.as_slice();
        let mut grad = Tensor::zeros([k, row_w]);
        // Best-window scratch row, reused across shapelets.
        let mut wrow = vec![0.0f32; row_w];
        for kk in 0..k {
            let gk = g[kk];
            if gk == 0.0 {
                continue;
            }
            let best = &self.best[kk];
            self.window_into(best.window as usize, &mut wrow);
            let srow = shapelets.row(kk);
            let drow = grad.row_mut(kk);
            match self.measure {
                Measure::Euclidean => {
                    // f = √(max(d², 0)/width + ε), d² = ‖w* − s‖².
                    // ∂f/∂s = (s − w*) / (width·f), gated on d² > 0 (the
                    // oracle's relu subgradient); d² > 0 ⟺ f² > ε.
                    let f = out[kk];
                    if f * f > EUCLIDEAN_SQRT_EPS {
                        let scale = gk / (width * f);
                        for (d, (&s, &w)) in drow.iter_mut().zip(srow.iter().zip(wrow.iter())) {
                            *d = scale * (s - w);
                        }
                    }
                }
                Measure::Cosine => {
                    // f = ŵ*·ŝ with ŵ = w/√(‖w‖²+1e-12), ŝ = s/n,
                    // n = √(‖s‖²+1e-12). ∂f/∂s = (ŵ* − ŝ·f)/n — the
                    // tangent-space gradient of the oracle's row_normalize.
                    let inv_w = best.inv_norm;
                    let s_sq: f32 = srow.iter().map(|&x| x * x).sum();
                    let n = (s_sq + 1e-12).sqrt();
                    let f = out[kk];
                    let scale = gk / n;
                    for (d, (&s, &w)) in drow.iter_mut().zip(srow.iter().zip(wrow.iter())) {
                        *d = scale * (w * inv_w - (s / n) * f);
                    }
                }
                Measure::CrossCorrelation => {
                    // f = (w*·s)/width → ∂f/∂s = w*/width.
                    let scale = gk / width;
                    for (d, &w) in drow.iter_mut().zip(wrow.iter()) {
                        *d = scale * w;
                    }
                }
            }
        }
        vec![Some(grad)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcsl_autodiff::gradcheck::gradcheck;
    use tcsl_autodiff::Graph;
    use tcsl_tensor::rng::seeded;

    /// The op for `shapelets` pooled over `sw`.
    fn op(measure: Measure, sw: &ScaleWindows, shapelets: &Tensor) -> Arc<ShapeletDistanceOp> {
        let pre = GroupPrecomp::of(shapelets, sw.d());
        Arc::new(ShapeletDistanceOp::pool(measure, sw, &pre))
    }

    /// Finite-difference check of the analytic backward, one measure and
    /// stride at a time, through a square + mean head (so every feature
    /// contributes a distinct adjoint).
    fn check_measure_stride(measure: Measure, stride: usize, seed: u64) {
        let mut rng = seeded(seed);
        let d = 1 + (seed as usize) % 2;
        let len = 4;
        let series = Tensor::randn([d, 19], &mut rng);
        let shapelets = Tensor::randn([3, d * len], &mut rng).scale(0.6);
        let sw = ScaleWindows::new(&series, len, stride);
        let report = gradcheck(&[shapelets], 1e-3, |g, xs| {
            let s = g.param(xs[0].clone());
            let feats = g.custom(op(measure, &sw, &xs[0]), &[s]);
            let sq = g.square(feats);
            let loss = g.mean_all(sq);
            (vec![s], loss)
        });
        assert!(
            report.passes(3e-2),
            "{measure:?} stride {stride}: gradcheck failed abs={} rel={}",
            report.max_abs_err,
            report.max_rel_err
        );
    }

    #[test]
    fn gradcheck_every_measure_and_stride() {
        for (i, &measure) in Measure::ALL.iter().enumerate() {
            for stride in 1..=3 {
                check_measure_stride(measure, stride, 40 + (i * 3 + stride) as u64);
            }
        }
    }

    #[test]
    fn gradcheck_on_padded_short_series() {
        // Series shorter than the scale: one zero-padded window, so the
        // arg-routing is trivial but the padding path must still have the
        // right gradient.
        for &measure in Measure::ALL.iter() {
            let mut rng = seeded(60);
            let series = Tensor::randn([1, 3], &mut rng);
            let shapelets = Tensor::randn([2, 6], &mut rng).scale(0.5);
            let sw = ScaleWindows::new(&series, 6, 1);
            let report = gradcheck(&[shapelets], 1e-3, |g, xs| {
                let s = g.param(xs[0].clone());
                let feats = g.custom(op(measure, &sw, &xs[0]), &[s]);
                let sq = g.square(feats);
                let loss = g.mean_all(sq);
                (vec![s], loss)
            });
            assert!(
                report.passes(3e-2),
                "{measure:?} padded: abs={} rel={}",
                report.max_abs_err,
                report.max_rel_err
            );
        }
    }

    #[test]
    fn forward_output_is_one_row_per_group() {
        let mut rng = seeded(61);
        let series = Tensor::randn([2, 30], &mut rng);
        let shapelets = Tensor::randn([5, 2 * 4], &mut rng);
        let sw = ScaleWindows::new(&series, 4, 1);
        let mut g = Graph::new();
        let feats_op = op(Measure::Euclidean, &sw, &shapelets);
        let s = g.param(shapelets);
        let feats = g.custom(feats_op, &[s]);
        let v = g.value(feats);
        assert_eq!(v.shape().dims(), &[1, 5]);
        assert!(v.as_slice().iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn second_backward_sweep_gives_equal_gradients() {
        // The op keeps its pooling for its lifetime, so a second sweep over
        // the same tape reads the same best windows and produces identical
        // gradients.
        let mut rng = seeded(62);
        let series = Tensor::randn([1, 25], &mut rng);
        let shapelets = Tensor::randn([3, 5], &mut rng);
        let sw = ScaleWindows::new(&series, 5, 2);
        let mut g = Graph::new();
        let feats_op = op(Measure::Cosine, &sw, &shapelets);
        let s = g.param(shapelets);
        let feats = g.custom(feats_op, &[s]);
        let sq = g.square(feats);
        let loss = g.mean_all(sq);
        let g1 = g.backward(loss);
        let g2 = g.backward(loss);
        assert_eq!(
            g1.get(s).unwrap().as_slice(),
            g2.get(s).unwrap().as_slice(),
            "a second backward sweep changed the gradients"
        );
    }
}
