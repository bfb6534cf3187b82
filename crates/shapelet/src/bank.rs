//! The bank of learnable shapelets: groups of `K` shapelets per
//! (scale, measure), a stable feature layout, and text serialization.

use crate::config::ShapeletConfig;
use crate::measure::Measure;
use crate::quant::BankPrecision;
use std::fmt::Write as _;
use std::ops::Range;
use std::sync::OnceLock;
use tcsl_error::{TcslError, TcslResult};
use tcsl_tensor::dot::{TapElem, SIMD_MIN_LEN};
use tcsl_tensor::quant::{f16_to_f32, f32_to_f16, QuantScheme, F16_MAX};
use tcsl_tensor::Tensor;

/// One (scale, measure) group of `K` shapelets, stored flattened as a
/// `(K, D·len)` matrix (channel-major, matching window layout).
#[derive(Clone, Debug)]
pub struct ShapeletGroup {
    /// Shapelet length in time steps.
    pub len: usize,
    /// Window stride used when sliding.
    pub stride: usize,
    /// The (dis)similarity measure of this group.
    pub measure: Measure,
    /// `(K, D·len)` shapelet matrix.
    pub shapelets: Tensor,
}

/// Shapelet-side values the transform needs for **every** series, hoisted
/// out of the per-series hot path and computed once per bank (lazily, on
/// first transform; invalidated whenever the shapelets change). This is the
/// bank-side half of the fused transform kernel's contract: per-window
/// quantities come from the series-side prefix-sum pass, per-shapelet
/// quantities come from here, and the kernel combines the two per
/// (window, shapelet) pair in O(1) on top of the raw dot product.
#[derive(Clone, Debug)]
pub struct GroupPrecomp {
    /// Squared Euclidean norm `‖s_k‖²` of every shapelet row.
    pub sq_norms: Vec<f32>,
    /// `1 / √(‖s_k‖² + 1e-12)` per row — the L2 normalization of the
    /// cosine measure, folded into a scale factor instead of a normalized
    /// matrix copy.
    pub inv_norms: Vec<f32>,
    /// The tap rows, at the element width the group runs at.
    pub(crate) taps: GroupTaps,
}

/// A group's repacked tap rows at the width the fused engine streams them.
#[derive(Clone, Debug)]
pub(crate) enum GroupTaps {
    /// Full-precision rows.
    F32(TapRows<f32>),
    /// IEEE 754 binary16 rows.
    F16(TapRows<u16>),
}

/// The shapelet rows repacked with a padded row stride. The `(K, D·len)`
/// matrix stores rows back-to-back, which puts the four tap streams of the
/// blocked dot kernel at cache-hostile relative offsets; spacing rows out to
/// a padded stride measurably improves streaming bandwidth (~1.5× on long
/// scales). `f32` rows are bit-identical copies of the matrix rows.
#[derive(Clone, Debug)]
pub(crate) struct TapRows<T> {
    data: Vec<T>,
    /// Row stride (in elements) of `data`.
    stride: usize,
    /// Row length `D·len` (the unpadded prefix of each stride).
    pub(crate) row_len: usize,
}

impl<T: TapElem> TapRows<T> {
    fn pack(shapelets: &Tensor) -> TapRows<T> {
        let row_len = shapelets.cols();
        // Long rows get a page-multiple stride (best for the L2 streamer);
        // short rows just round up to a cache line to bound the waste.
        let stride = if row_len >= 1024 {
            row_len.div_ceil(1024) * 1024
        } else {
            row_len.div_ceil(16) * 16
        };
        let mut data = vec![T::default(); shapelets.rows() * stride];
        for (k, dst) in data.chunks_exact_mut(stride).enumerate() {
            for (d, &x) in dst.iter_mut().zip(shapelets.row(k)) {
                *d = T::from_f32(x);
            }
        }
        TapRows {
            data,
            stride,
            row_len,
        }
    }

    /// Tap row `k` (length `D·len`).
    pub(crate) fn row(&self, k: usize) -> &[T] {
        &self.data[k * self.stride..k * self.stride + self.row_len]
    }
}

impl GroupPrecomp {
    /// Computes the precomputation for one group's `(K, D·len)` matrix, with
    /// full-precision taps.
    pub fn of(shapelets: &Tensor) -> GroupPrecomp {
        Self::with_taps(shapelets, GroupTaps::F32(TapRows::pack(shapelets)))
    }

    /// [`Self::of`] with binary16 taps. The values must already be
    /// f16-representable (a quantized bank's dequantized view), so the taps
    /// hold exactly the values the norms are computed from.
    pub(crate) fn of_f16(shapelets: &Tensor) -> GroupPrecomp {
        Self::with_taps(shapelets, GroupTaps::F16(TapRows::pack(shapelets)))
    }

    fn with_taps(shapelets: &Tensor, taps: GroupTaps) -> GroupPrecomp {
        let sq_norms: Vec<f32> = (0..shapelets.rows())
            .map(|k| shapelets.row(k).iter().map(|&x| x * x).sum())
            .collect();
        let inv_norms = sq_norms.iter().map(|&n| 1.0 / (n + 1e-12).sqrt()).collect();
        GroupPrecomp {
            sq_norms,
            inv_norms,
            taps,
        }
    }

    /// Number of shapelets in the group.
    pub(crate) fn k(&self) -> usize {
        self.sq_norms.len()
    }

    /// Bytes each stored tap occupies: 4 for f32 taps, 2 for binary16 —
    /// the width [`ShapeletBank::precomputed`] chose for the group.
    pub fn bytes_per_tap(&self) -> usize {
        match self.taps {
            GroupTaps::F32(_) => 4,
            GroupTaps::F16(_) => 2,
        }
    }
}

impl ShapeletGroup {
    /// Number of shapelets in the group.
    pub fn k(&self) -> usize {
        self.shapelets.rows()
    }

    /// One shapelet reshaped back to `(D, len)`.
    pub fn shapelet(&self, k: usize, d: usize) -> Tensor {
        assert_eq!(self.shapelets.cols(), d * self.len, "D mismatch");
        Tensor::from_vec(self.shapelets.row(k).to_vec(), [d, self.len])
    }
}

/// A full Shapelet Transformer: all groups, ordered scale-major then
/// measure — so the feature columns of one scale are contiguous, which the
/// Multi-Scale Alignment loss and the exploration UI rely on.
#[derive(Clone, Debug)]
pub struct ShapeletBank {
    /// Number of variables the bank was built for.
    pub d: usize,
    groups: Vec<ShapeletGroup>,
    /// Lazily computed shapelet-side precomputation, one entry per group.
    /// Reset by every mutable access to the groups so it can never go
    /// stale; shared by all series of a batch transform.
    precomp: OnceLock<Vec<GroupPrecomp>>,
    /// Inference precision; [`BankPrecision::Full`] unless quantized. A
    /// quantized bank's `groups[..].shapelets` hold the **dequantized**
    /// values, so every f32 consumer (oracle, localization, serialization)
    /// sees exactly what the half-width kernels compute with. Reset by any
    /// mutable access to the groups.
    precision: BankPrecision,
}

impl ShapeletBank {
    /// Builds a zero-initialized bank for `d`-variate series. Use
    /// [`crate::init::init_from_data`] (or [`Self::randomize`]) before
    /// training.
    pub fn new(config: &ShapeletConfig, d: usize) -> Self {
        config.validate();
        assert!(d >= 1, "need at least one variable");
        let mut groups = Vec::with_capacity(config.n_groups());
        for &len in &config.lengths {
            for &measure in &config.measures {
                groups.push(ShapeletGroup {
                    len,
                    stride: config.stride,
                    measure,
                    shapelets: Tensor::zeros([config.k_per_group, d * len]),
                });
            }
        }
        ShapeletBank {
            d,
            groups,
            precomp: OnceLock::new(),
            precision: BankPrecision::Full,
        }
    }

    /// Fills every shapelet with standard-normal noise (scaled down).
    pub fn randomize(&mut self, rng: &mut impl rand::Rng) {
        self.precomp = OnceLock::new();
        self.precision = BankPrecision::Full;
        for g in &mut self.groups {
            g.shapelets = Tensor::randn(g.shapelets.shape().clone(), rng).scale(0.5);
        }
    }

    /// The groups, in feature order.
    pub fn groups(&self) -> &[ShapeletGroup] {
        &self.groups
    }

    /// Mutable access to the groups (used by training to write back learned
    /// shapelets). Invalidates the cached precomputation — the only way to
    /// mutate shapelets is through `&mut self`, so [`Self::precomputed`]
    /// can never observe stale norms. Also drops the quantization: a
    /// mutated bank is a full-precision bank until re-quantized.
    pub fn groups_mut(&mut self) -> &mut [ShapeletGroup] {
        self.precomp = OnceLock::new();
        self.precision = BankPrecision::Full;
        &mut self.groups
    }

    /// The per-group shapelet-side precomputation (row squared norms,
    /// inverse L2 norms, repacked taps), computed once per bank on first use
    /// and shared by every series transformed against it.
    ///
    /// This is where each group's tap width is decided, and only here: an
    /// f16 bank streams binary16 taps for groups whose per-variable span is
    /// at least [`SIMD_MIN_LEN`] — the span from which the kernels run a SIMD
    /// tier — and f32 taps of its dequantized rows below it, where
    /// half-width storage saves no traffic and only the software-conversion
    /// scalar tier would run. Both give the values of the f32 engine on the
    /// dequantized bank; below the threshold bit for bit.
    pub fn precomputed(&self) -> &[GroupPrecomp] {
        self.precomp.get_or_init(|| {
            self.groups
                .iter()
                .map(|g| {
                    if self.precision == BankPrecision::F16 && g.len >= SIMD_MIN_LEN {
                        GroupPrecomp::of_f16(&g.shapelets)
                    } else {
                        GroupPrecomp::of(&g.shapelets)
                    }
                })
                .collect()
        })
    }

    /// The bank's inference precision ([`BankPrecision::Full`] unless
    /// [`Self::quantize`]d).
    pub fn precision(&self) -> BankPrecision {
        self.precision
    }

    /// Quantizes the bank in place for inference — an explicit post-training
    /// step. Every tap is rounded to the half-width `scheme` and the f32
    /// shapelet tensors hold the **dequantized** values, so every consumer
    /// of the f32 view (oracle transform, localization, serialization,
    /// norms) is consistent with what the half-width kernels compute.
    /// Idempotent: re-quantizing dequantized values is exact, so a second
    /// quantization changes nothing.
    ///
    /// Fails with [`TcslError::NonFiniteInput`](tcsl_error::ErrorClass) on
    /// NaN/infinite taps, and with a config error for finite f16 overflow
    /// (|tap| > 65504).
    pub fn quantize(&mut self, scheme: QuantScheme) -> TcslResult<()> {
        let QuantScheme::F16 = scheme; // binary16 is the only scheme
        for (gi, g) in self.groups.iter().enumerate() {
            for k in 0..g.k() {
                let row = g.shapelets.row(k);
                if !row.iter().all(|x| x.is_finite()) {
                    return Err(TcslError::non_finite(format!(
                        "shapelet taps (group {gi}, shapelet {k})"
                    )));
                }
                if let Some(&big) = row.iter().find(|x| x.abs() > F16_MAX) {
                    return Err(TcslError::config(format!(
                        "tap {big} in group {gi} shapelet {k} exceeds the f16 range \
                         (±{F16_MAX}); keep this model at f32"
                    )));
                }
            }
        }
        for g in &mut self.groups {
            for x in g.shapelets.as_mut_slice() {
                *x = f16_to_f32(f32_to_f16(*x));
            }
        }
        self.precomp = OnceLock::new();
        self.precision = BankPrecision::F16;
        Ok(())
    }

    /// Total representation dimensionality.
    pub fn repr_dim(&self) -> usize {
        self.groups.iter().map(ShapeletGroup::k).sum()
    }

    /// Distinct scales (ascending).
    pub fn scales(&self) -> Vec<usize> {
        let mut ls: Vec<usize> = self.groups.iter().map(|g| g.len).collect();
        ls.sort_unstable();
        ls.dedup();
        ls
    }

    /// Feature-column range of group `g`.
    pub fn group_columns(&self, g: usize) -> Range<usize> {
        let start: usize = self.groups[..g].iter().map(ShapeletGroup::k).sum();
        start..start + self.groups[g].k()
    }

    /// Feature-column range of each scale: `(len, start..end)`, contiguous
    /// by construction.
    pub fn scale_columns(&self) -> Vec<(usize, Range<usize>)> {
        let mut out = Vec::new();
        let mut col = 0;
        let mut i = 0;
        while i < self.groups.len() {
            let len = self.groups[i].len;
            let start = col;
            while i < self.groups.len() && self.groups[i].len == len {
                col += self.groups[i].k();
                i += 1;
            }
            out.push((len, start..col));
        }
        out
    }

    /// Stable, human-readable name of every feature column:
    /// `"L{len}:{measure}:{k}"`.
    pub fn feature_names(&self) -> Vec<String> {
        let mut names = Vec::with_capacity(self.repr_dim());
        for g in &self.groups {
            for k in 0..g.k() {
                names.push(format!("L{}:{}:{}", g.len, g.measure.name(), k));
            }
        }
        names
    }

    /// Resolves a feature column back to `(group index, shapelet index)`,
    /// or a [`TcslError::Config`] when the column does not exist — columns
    /// come from user selections in the exploration UI.
    pub fn feature_to_shapelet(&self, column: usize) -> TcslResult<(usize, usize)> {
        let mut col = column;
        for (gi, g) in self.groups.iter().enumerate() {
            if col < g.k() {
                return Ok((gi, col));
            }
            col -= g.k();
        }
        Err(TcslError::config(format!(
            "feature column {column} out of range (bank has {} features)",
            self.repr_dim()
        )))
    }

    /// Builds a sub-bank containing only the shapelets behind the given
    /// feature columns — the demo's "redo the analysis with the selected
    /// shapelets" interaction (§3, step 4). Group order is preserved; empty
    /// groups are dropped. On any series, the sub-bank's features are the
    /// selected columns of this bank's features, bit for bit.
    pub fn subset_columns(&self, columns: &[usize]) -> TcslResult<ShapeletBank> {
        if columns.is_empty() {
            return Err(TcslError::empty("feature column selection"));
        }
        let mut per_group: Vec<Vec<usize>> = vec![Vec::new(); self.groups.len()];
        for &c in columns {
            let (g, k) = self.feature_to_shapelet(c)?;
            per_group[g].push(k);
        }
        let mut groups = Vec::new();
        for (gi, ks) in per_group.into_iter().enumerate() {
            if ks.is_empty() {
                continue;
            }
            let src = &self.groups[gi];
            let width = src.shapelets.cols();
            let mut data = Vec::with_capacity(ks.len() * width);
            for &k in &ks {
                data.extend_from_slice(src.shapelets.row(k));
            }
            groups.push(ShapeletGroup {
                len: src.len,
                stride: src.stride,
                measure: src.measure,
                shapelets: Tensor::from_vec(data, [ks.len(), width]),
            });
        }
        Ok(ShapeletBank {
            d: self.d,
            groups,
            precomp: OnceLock::new(),
            precision: self.precision,
        })
    }

    /// Prunes near-duplicate shapelets: within each group, a shapelet whose
    /// cosine similarity to an earlier-kept one exceeds `max_cosine` is
    /// dropped. Returns the pruned bank and the surviving feature columns
    /// (in original column order); those columns of an existing feature
    /// matrix are the pruned bank's features, bit for bit. Contrastive
    /// training can converge several shapelets onto the same pattern;
    /// pruning keeps the representation interpretable without retraining.
    pub fn prune_redundant(&self, max_cosine: f32) -> TcslResult<(ShapeletBank, Vec<usize>)> {
        if !(0.0..=1.0).contains(&max_cosine) {
            return Err(TcslError::config(format!(
                "max_cosine must be in [0, 1], got {max_cosine}"
            )));
        }
        let mut kept_columns = Vec::new();
        let mut groups = Vec::new();
        let mut col_base = 0usize;
        for src in &self.groups {
            let width = src.shapelets.cols();
            let mut kept_rows: Vec<usize> = Vec::new();
            for k in 0..src.k() {
                let row = src.shapelets.row(k);
                let norm_k = (row.iter().map(|&x| x * x).sum::<f32>()).sqrt().max(1e-12);
                let duplicate = kept_rows.iter().any(|&j| {
                    let other = src.shapelets.row(j);
                    let norm_j = (other.iter().map(|&x| x * x).sum::<f32>())
                        .sqrt()
                        .max(1e-12);
                    let dot: f32 = row.iter().zip(other).map(|(&a, &b)| a * b).sum();
                    dot / (norm_k * norm_j) > max_cosine
                });
                if !duplicate {
                    kept_rows.push(k);
                    kept_columns.push(col_base + k);
                }
            }
            if !kept_rows.is_empty() {
                let mut data = Vec::with_capacity(kept_rows.len() * width);
                for &k in &kept_rows {
                    data.extend_from_slice(src.shapelets.row(k));
                }
                groups.push(ShapeletGroup {
                    len: src.len,
                    stride: src.stride,
                    measure: src.measure,
                    shapelets: Tensor::from_vec(data, [kept_rows.len(), width]),
                });
            }
            col_base += src.k();
        }
        if groups.is_empty() {
            return Err(TcslError::config(format!(
                "pruning at max_cosine={max_cosine} removed every shapelet"
            )));
        }
        Ok((
            ShapeletBank {
                d: self.d,
                groups,
                precomp: OnceLock::new(),
                precision: self.precision,
            },
            kept_columns,
        ))
    }

    /// Builds a sub-bank with every shapelet of one scale (length).
    pub fn subset_scale(&self, len: usize) -> TcslResult<ShapeletBank> {
        let groups: Vec<ShapeletGroup> = self
            .groups
            .iter()
            .filter(|g| g.len == len)
            .cloned()
            .collect();
        if groups.is_empty() {
            let scales: Vec<String> = self.scales().iter().map(|l| l.to_string()).collect();
            return Err(TcslError::config(format!(
                "no shapelets of length {len} in the bank; available scales: {}",
                scales.join(", ")
            )));
        }
        Ok(ShapeletBank {
            d: self.d,
            groups,
            precomp: OnceLock::new(),
            precision: self.precision,
        })
    }

    // ------------------------------------------------------- serialization

    /// Serializes the bank to a plain text format (versioned header, one
    /// line per shapelet).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "tcsl-bank v1 d={} groups={}",
            self.d,
            self.groups.len()
        );
        for g in &self.groups {
            let _ = writeln!(
                out,
                "group len={} stride={} measure={} k={}",
                g.len,
                g.stride,
                g.measure.name(),
                g.k()
            );
            for k in 0..g.k() {
                let row: Vec<String> = g.shapelets.row(k).iter().map(|x| x.to_string()).collect();
                let _ = writeln!(out, "{}", row.join(" "));
            }
        }
        out
    }

    /// Parses the text format produced by [`Self::to_text`].
    ///
    /// Structural damage (missing/unsupported header, truncated sections,
    /// wrong value counts) surfaces as [`TcslError::ModelFormat`];
    /// non-numeric fields surface as [`TcslError::Parse`] with the 1-based
    /// line inside the bank section.
    pub fn from_text(text: &str) -> TcslResult<Self> {
        let mut lines = text.lines();
        let mut lineno = 0usize; // 1-based once the first line is consumed
        let mut next_line = |what: &str| {
            lineno += 1;
            lines.next().map(|l| (lineno, l)).ok_or_else(|| {
                TcslError::model_format(what, format!("end of file after line {}", lineno - 1))
            })
        };
        let (hline, header) = next_line("tcsl-bank v1 header")
            .map_err(|_| TcslError::model_format("tcsl-bank v1 header", "empty bank file"))?;
        if !header.starts_with("tcsl-bank v1") {
            return Err(TcslError::model_format("tcsl-bank v1 header", header));
        }
        let mut d = None;
        let mut n_groups = None;
        for tok in header.split_whitespace() {
            if let Some(v) = tok.strip_prefix("d=") {
                d = Some(v.parse::<usize>().map_err(|e| {
                    TcslError::parse("tcsl-bank", hline, format!("bad d={v}: {e}"))
                })?);
            } else if let Some(v) = tok.strip_prefix("groups=") {
                n_groups = Some(v.parse::<usize>().map_err(|e| {
                    TcslError::parse("tcsl-bank", hline, format!("bad groups={v}: {e}"))
                })?);
            }
        }
        let d = d.ok_or_else(|| TcslError::model_format("d=<vars> in bank header", header))?;
        let n_groups =
            n_groups.ok_or_else(|| TcslError::model_format("groups=<n> in bank header", header))?;
        let mut groups = Vec::with_capacity(n_groups);
        for _ in 0..n_groups {
            let (gline, gh) = next_line("group header")?;
            if !gh.starts_with("group ") {
                return Err(TcslError::model_format("group header", gh));
            }
            let mut len = None;
            let mut stride = None;
            let mut measure = None;
            let mut k = None;
            for tok in gh.split_whitespace() {
                if let Some(v) = tok.strip_prefix("len=") {
                    len = Some(v.parse::<usize>().map_err(|e| {
                        TcslError::parse("tcsl-bank", gline, format!("bad len={v}: {e}"))
                    })?);
                } else if let Some(v) = tok.strip_prefix("stride=") {
                    stride = Some(v.parse::<usize>().map_err(|e| {
                        TcslError::parse("tcsl-bank", gline, format!("bad stride={v}: {e}"))
                    })?);
                } else if let Some(v) = tok.strip_prefix("measure=") {
                    measure = Some(
                        Measure::parse(v)
                            .ok_or_else(|| TcslError::model_format("a known measure name", v))?,
                    );
                } else if let Some(v) = tok.strip_prefix("k=") {
                    k = Some(v.parse::<usize>().map_err(|e| {
                        TcslError::parse("tcsl-bank", gline, format!("bad k={v}: {e}"))
                    })?);
                }
            }
            let (len, stride, measure, k) = (
                len.ok_or_else(|| TcslError::model_format("len= in group header", gh))?,
                stride.ok_or_else(|| TcslError::model_format("stride= in group header", gh))?,
                measure.ok_or_else(|| TcslError::model_format("measure= in group header", gh))?,
                k.ok_or_else(|| TcslError::model_format("k= in group header", gh))?,
            );
            let mut data = Vec::with_capacity(k * d * len);
            for _ in 0..k {
                let (rline, line) = next_line("shapelet row")?;
                for tok in line.split_whitespace() {
                    let w = tok.parse::<f32>().map_err(|e| {
                        TcslError::parse("tcsl-bank", rline, format!("bad weight '{tok}': {e}"))
                    })?;
                    // Rust's f32 parser accepts "inf"/"NaN"; a bank with
                    // non-finite taps poisons every transform (and can't be
                    // quantized), so reject it at the door.
                    if !w.is_finite() {
                        return Err(TcslError::non_finite(format!(
                            "shapelet weight '{tok}' on line {rline}"
                        )));
                    }
                    data.push(w);
                }
            }
            if data.len() != k * d * len {
                return Err(TcslError::model_format(
                    format!("{} values for group len={len}", k * d * len),
                    format!("{}", data.len()),
                ));
            }
            groups.push(ShapeletGroup {
                len,
                stride,
                measure,
                shapelets: Tensor::from_vec(data, [k, d * len]),
            });
        }
        Ok(ShapeletBank {
            d,
            groups,
            precomp: OnceLock::new(),
            precision: BankPrecision::Full,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcsl_tensor::rng::seeded;

    fn bank() -> ShapeletBank {
        let cfg = ShapeletConfig {
            lengths: vec![4, 8],
            k_per_group: 3,
            measures: Measure::ALL.to_vec(),
            stride: 1,
        };
        ShapeletBank::new(&cfg, 2)
    }

    #[test]
    fn layout_is_scale_major() {
        let b = bank();
        assert_eq!(b.groups().len(), 6);
        assert_eq!(b.repr_dim(), 18);
        assert_eq!(b.groups()[0].len, 4);
        assert_eq!(b.groups()[3].len, 8);
        assert_eq!(b.scales(), vec![4, 8]);
        let sc = b.scale_columns();
        assert_eq!(sc, vec![(4, 0..9), (8, 9..18)]);
    }

    #[test]
    fn group_columns_are_contiguous() {
        let b = bank();
        assert_eq!(b.group_columns(0), 0..3);
        assert_eq!(b.group_columns(4), 12..15);
    }

    #[test]
    fn feature_names_and_inverse() {
        let b = bank();
        let names = b.feature_names();
        assert_eq!(names.len(), 18);
        assert_eq!(names[0], "L4:euc:0");
        assert_eq!(names[17], "L8:xcorr:2");
        assert_eq!(b.feature_to_shapelet(0).unwrap(), (0, 0));
        assert_eq!(b.feature_to_shapelet(17).unwrap(), (5, 2));
    }

    #[test]
    fn bad_feature_column_is_a_config_error() {
        let err = bank().feature_to_shapelet(18).unwrap_err();
        assert_eq!(err.class(), tcsl_error::ErrorClass::Config);
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn shapelet_reshape() {
        let mut b = bank();
        b.randomize(&mut seeded(1));
        let s = b.groups()[0].shapelet(1, 2);
        assert_eq!(s.shape().dims(), &[2, 4]);
        assert_eq!(s.as_slice(), b.groups()[0].shapelets.row(1));
    }

    #[test]
    fn subset_columns_keeps_selected_shapelets() {
        let mut b = bank();
        b.randomize(&mut seeded(4));
        // Columns 0..3 = group 0 entirely, column 4 = group 1 shapelet 1.
        let sub = b.subset_columns(&[0, 1, 2, 4]).unwrap();
        assert_eq!(sub.repr_dim(), 4);
        assert_eq!(sub.groups().len(), 2);
        assert_eq!(sub.groups()[0].shapelets, b.groups()[0].shapelets);
        assert_eq!(
            sub.groups()[1].shapelets.row(0),
            b.groups()[1].shapelets.row(1)
        );
    }

    #[test]
    fn subset_scale_selects_all_measures_of_that_length() {
        let mut b = bank();
        b.randomize(&mut seeded(5));
        let sub = b.subset_scale(8).unwrap();
        assert_eq!(sub.groups().len(), 3);
        assert!(sub.groups().iter().all(|g| g.len == 8));
        assert_eq!(sub.repr_dim(), 9);
    }

    #[test]
    fn subset_missing_scale_lists_available_scales() {
        let err = bank().subset_scale(99).unwrap_err();
        assert_eq!(err.class(), tcsl_error::ErrorClass::Config);
        let msg = err.to_string();
        assert!(msg.contains("no shapelets of length 99"), "{msg}");
        assert!(msg.contains("4, 8"), "available scales listed: {msg}");
    }

    #[test]
    fn empty_subset_selection_is_an_empty_input_error() {
        let err = bank().subset_columns(&[]).unwrap_err();
        assert_eq!(err.class(), tcsl_error::ErrorClass::EmptyInput);
    }

    #[test]
    fn prune_drops_near_duplicates_only() {
        let mut b = bank();
        b.randomize(&mut seeded(6));
        // Make shapelet 1 of group 0 a scaled copy of shapelet 0 (cosine 1).
        let copy: Vec<f32> = b.groups()[0]
            .shapelets
            .row(0)
            .iter()
            .map(|&x| 2.0 * x)
            .collect();
        b.groups_mut()[0]
            .shapelets
            .row_mut(1)
            .copy_from_slice(&copy);
        let before = b.repr_dim();
        let (pruned, kept) = b.prune_redundant(0.99).unwrap();
        assert_eq!(
            pruned.repr_dim(),
            before - 1,
            "exactly the duplicate should go"
        );
        assert_eq!(kept.len(), before - 1);
        assert!(!kept.contains(&1), "column 1 was the duplicate");
        assert!(kept.contains(&0));
        // Surviving columns map back to identical shapelet content.
        let (gi, k) = pruned.feature_to_shapelet(0).unwrap();
        assert_eq!(
            pruned.groups()[gi].shapelets.row(k),
            b.groups()[0].shapelets.row(0)
        );
    }

    #[test]
    fn prune_with_loose_threshold_keeps_everything() {
        let mut b = bank();
        b.randomize(&mut seeded(7));
        let (pruned, kept) = b.prune_redundant(1.0).unwrap();
        assert_eq!(pruned.repr_dim(), b.repr_dim());
        assert_eq!(kept, (0..b.repr_dim()).collect::<Vec<_>>());
    }

    #[test]
    fn precomputed_norms_are_cached_and_invalidated() {
        let mut b = bank();
        b.randomize(&mut seeded(9));
        let direct: f32 = b.groups()[0].shapelets.row(0).iter().map(|&x| x * x).sum();
        assert!((b.precomputed()[0].sq_norms[0] - direct).abs() < 1e-6);
        let inv = b.precomputed()[0].inv_norms[0];
        assert!((inv - 1.0 / (direct + 1e-12).sqrt()).abs() < 1e-6);
        // Mutating through groups_mut must reset the cache.
        for x in b.groups_mut()[0].shapelets.row_mut(0) {
            *x = 0.0;
        }
        assert_eq!(b.precomputed()[0].sq_norms[0], 0.0);
    }

    #[test]
    fn text_round_trip() {
        let mut b = bank();
        b.randomize(&mut seeded(2));
        let text = b.to_text();
        let back = ShapeletBank::from_text(&text).unwrap();
        assert_eq!(back.d, b.d);
        assert_eq!(back.groups().len(), b.groups().len());
        for (g1, g2) in b.groups().iter().zip(back.groups()) {
            assert_eq!(g1.len, g2.len);
            assert_eq!(g1.measure, g2.measure);
            assert!(g1.shapelets.max_abs_diff(&g2.shapelets) < 1e-5);
        }
    }

    #[test]
    fn from_text_rejects_non_finite_weights() {
        use tcsl_error::ErrorClass;
        // Rust's f32 parser happily accepts these spellings; the loader
        // must not.
        for bad in ["inf", "-inf", "infinity", "NaN", "nan"] {
            let err = ShapeletBank::from_text(&format!(
                "tcsl-bank v1 d=1 groups=1\ngroup len=2 stride=1 measure=euc k=1\n0.5 {bad}\n"
            ))
            .unwrap_err();
            assert_eq!(err.class(), ErrorClass::NonFiniteInput, "{bad}: {err}");
            assert!(err.to_string().contains("line 3"), "{bad}: {err}");
        }
    }

    /// Whether group `gi` of the bank's precomputation streams binary16 taps.
    fn f16_taps(b: &ShapeletBank, gi: usize) -> bool {
        matches!(b.precomputed()[gi].taps, GroupTaps::F16(_))
    }

    #[test]
    fn quantize_sets_precision_and_picks_tap_width_per_group() {
        // One group below the f16 kernels' span threshold, one at it: the
        // bank streams f32 taps for the first and binary16 for the second.
        let cfg = ShapeletConfig {
            lengths: vec![SIMD_MIN_LEN - 1, SIMD_MIN_LEN],
            k_per_group: 3,
            measures: vec![Measure::Euclidean],
            stride: 1,
        };
        let mut b = ShapeletBank::new(&cfg, 2);
        b.randomize(&mut seeded(41));
        assert_eq!(b.precision(), BankPrecision::Full);
        assert!(!f16_taps(&b, 0) && !f16_taps(&b, 1));
        b.quantize(QuantScheme::F16).unwrap();
        assert_eq!(b.precision(), BankPrecision::F16);
        assert!(!f16_taps(&b, 0), "short span stays at f32");
        assert!(f16_taps(&b, 1), "long span streams binary16");
        // f32 view == dequantized view, so a second quantization is a
        // no-op on the values.
        let before: Vec<Tensor> = b.groups().iter().map(|g| g.shapelets.clone()).collect();
        b.quantize(QuantScheme::F16).unwrap();
        for (g, want) in b.groups().iter().zip(&before) {
            assert_eq!(&g.shapelets, want, "idempotence");
        }
    }

    #[test]
    fn mutation_drops_quantization() {
        let mut b = bank();
        b.randomize(&mut seeded(42));
        b.quantize(QuantScheme::F16).unwrap();
        let _ = b.groups_mut();
        assert_eq!(b.precision(), BankPrecision::Full);
        b.quantize(QuantScheme::F16).unwrap();
        b.randomize(&mut seeded(43));
        assert_eq!(b.precision(), BankPrecision::Full);
    }

    #[test]
    fn quantize_rejects_non_finite_and_f16_overflow() {
        let mut b = bank();
        b.randomize(&mut seeded(44));
        b.groups_mut()[1].shapelets.row_mut(0)[2] = f32::NAN;
        let err = b.quantize(QuantScheme::F16).unwrap_err();
        assert_eq!(err.class(), tcsl_error::ErrorClass::NonFiniteInput);
        assert!(err.to_string().contains("group 1"), "{err}");

        let mut b = bank();
        b.randomize(&mut seeded(45));
        b.groups_mut()[0].shapelets.row_mut(1)[0] = 1.0e6; // finite, > f16 max
        let err = b.quantize(QuantScheme::F16).unwrap_err();
        assert_eq!(err.class(), tcsl_error::ErrorClass::Config);
        let msg = err.to_string();
        assert!(msg.contains("f16 range"), "{msg}");
        assert!(!msg.contains("i16"), "suggests a retired scheme: {msg}");
        assert_eq!(
            b.precision(),
            BankPrecision::Full,
            "failed quantize is a no-op"
        );
    }

    #[test]
    fn subsetting_carries_quantized_taps() {
        let mut b = bank();
        b.randomize(&mut seeded(46));
        b.quantize(QuantScheme::F16).unwrap();
        let sub = b.subset_columns(&[0, 1, 2, 4]).unwrap();
        assert_eq!(sub.precision(), BankPrecision::F16);
        assert_eq!(sub.groups()[0].shapelets, b.groups()[0].shapelets);
        assert_eq!(
            sub.groups()[1].shapelets.row(0),
            b.groups()[1].shapelets.row(1)
        );
        assert_eq!(b.subset_scale(8).unwrap().precision(), BankPrecision::F16);
        let (pruned, _) = b.prune_redundant(1.0).unwrap();
        assert_eq!(pruned.precision(), BankPrecision::F16);
    }

    #[test]
    fn from_text_rejects_garbage_with_typed_variants() {
        use tcsl_error::ErrorClass;
        let class = |t: &str| ShapeletBank::from_text(t).unwrap_err().class();
        assert_eq!(class(""), ErrorClass::ModelFormat);
        assert_eq!(class("bogus header"), ErrorClass::ModelFormat);
        // Truncated: group header promised but missing.
        assert_eq!(
            class("tcsl-bank v1 d=1 groups=1\n"),
            ErrorClass::ModelFormat
        );
        // Non-numeric weight is a parse error carrying the line number.
        let err = ShapeletBank::from_text(
            "tcsl-bank v1 d=1 groups=1\ngroup len=2 stride=1 measure=euc k=1\n0.5 nope\n",
        )
        .unwrap_err();
        assert_eq!(err.class(), ErrorClass::Parse);
        assert!(err.to_string().contains("line 3"), "{err}");
    }
}
