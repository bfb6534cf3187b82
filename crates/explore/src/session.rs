//! The exploration session: the demo's step-4 interaction loop as an API.
//!
//! An [`ExploreSession`] wraps a pre-trained [`TimeCsl`] model and a
//! dataset, caches the representation, and exposes every GUI operation:
//! view a series or shapelet, "Match" a shapelet against a series, "Show in
//! Tabular", "Show in t-SNE", and derive a reduced model from a shapelet
//! selection to redo the analysis.
//!
//! Every entry point that depends on request data — series/column indices,
//! dataset size — is fallible and returns a typed [`TcslError`] instead of
//! panicking (DESIGN.md, "Error taxonomy & panic policy").

use crate::svg;
use crate::tabular::FeatureTable;
use crate::tsne::{tsne, TsneConfig};
use tcsl_core::TimeCsl;
use tcsl_data::normalize::normalize_series;
use tcsl_data::Dataset;
use tcsl_error::{TcslError, TcslResult};
use tcsl_shapelet::matching::{best_match_for_feature, ShapeletMatch};
use tcsl_tensor::Tensor;

/// An interactive exploration session over one dataset.
#[derive(Debug)]
pub struct ExploreSession {
    model: TimeCsl,
    dataset: Dataset,
    features: Tensor,
}

impl ExploreSession {
    /// Builds a session, computing (and caching) the representation.
    /// Empty datasets are an [`EmptyInput`](tcsl_error::ErrorClass) error.
    pub fn new(model: TimeCsl, dataset: Dataset) -> TcslResult<Self> {
        let features = model.transform(&dataset)?;
        Ok(ExploreSession {
            model,
            dataset,
            features,
        })
    }

    /// The wrapped model.
    pub fn model(&self) -> &TimeCsl {
        &self.model
    }

    /// The explored dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The cached `(N, D_repr)` representation.
    pub fn features(&self) -> &Tensor {
        &self.features
    }

    /// Out-of-range series index → `Config` (request error).
    fn check_series(&self, i: usize) -> TcslResult<()> {
        if i >= self.dataset.len() {
            return Err(TcslError::config(format!(
                "series index {i} out of range: dataset {} has {} series",
                self.dataset.name,
                self.dataset.len()
            )));
        }
        Ok(())
    }

    /// Out-of-range feature columns → `Config` (request error).
    fn check_columns(&self, columns: &[usize]) -> TcslResult<()> {
        if columns.is_empty() {
            return Err(TcslError::config("select at least one feature column"));
        }
        let width = self.features.cols();
        if let Some(&bad) = columns.iter().find(|&&c| c >= width) {
            return Err(TcslError::config(format!(
                "feature column {bad} out of range: representation has {width} columns"
            )));
        }
        Ok(())
    }

    /// Fig. 3a: renders series `i` as SVG.
    pub fn render_series(&self, i: usize) -> TcslResult<String> {
        self.check_series(i)?;
        Ok(svg::series_chart(
            self.dataset.series(i),
            &format!("{} — series {i}", self.dataset.name),
        ))
    }

    /// Fig. 3c: renders the shapelet behind feature column `col` as SVG.
    pub fn render_shapelet(&self, col: usize) -> TcslResult<String> {
        let (gi, k) = self.model.bank().feature_to_shapelet(col)?;
        let grp = &self.model.bank().groups()[gi];
        let shapelet = grp.shapelet(k, self.model.bank().d);
        let pseudo = tcsl_data::TimeSeries::new(shapelet);
        Ok(svg::series_chart(
            &pseudo,
            &format!("shapelet {} (len {}, {})", col, grp.len, grp.measure.name()),
        ))
    }

    /// The demo's "Match" button: locates the best-matching subsequence of
    /// shapelet `col` in series `i`.
    pub fn match_shapelet(&self, i: usize, col: usize) -> TcslResult<ShapeletMatch> {
        self.check_series(i)?;
        // Matching runs on the series under the model's normalization —
        // the space the features live in.
        let normed = normalize_series(self.dataset.series(i), self.model.normalization());
        best_match_for_feature(self.model.bank(), col, &normed)
    }

    /// Fig. 3b: renders the match of shapelet `col` in series `i` as SVG.
    pub fn render_match(&self, i: usize, col: usize) -> TcslResult<String> {
        self.check_series(i)?;
        let normed = normalize_series(self.dataset.series(i), self.model.normalization());
        let m = best_match_for_feature(self.model.bank(), col, &normed)?;
        let (gi, k) = self.model.bank().feature_to_shapelet(col)?;
        let shapelet = self.model.bank().groups()[gi].shapelet(k, self.model.bank().d);
        Ok(svg::match_chart(
            &normed,
            &shapelet,
            m.start,
            m.score,
            &format!("series {i} × shapelet {col}"),
        ))
    }

    /// Fig. 3d: the tabular feature view over selected columns (all when
    /// `None`).
    pub fn tabular(&self, columns: Option<&[usize]>) -> TcslResult<FeatureTable> {
        let full = FeatureTable::new(self.model.feature_names(), self.features.clone());
        match columns {
            Some(cols) => {
                self.check_columns(cols)?;
                Ok(full.select_columns(cols))
            }
            None => Ok(full),
        }
    }

    /// Fig. 3e: t-SNE of the representation restricted to selected columns
    /// (all when `None`). Returns the `(N, 2)` layout.
    pub fn tsne_embedding(
        &self,
        columns: Option<&[usize]>,
        cfg: &TsneConfig,
    ) -> TcslResult<Tensor> {
        if self.dataset.len() < 4 {
            return Err(TcslError::config(format!(
                "t-SNE needs at least 4 series; dataset {} has {}",
                self.dataset.name,
                self.dataset.len()
            )));
        }
        let feats = match columns {
            Some(cols) => self.tabular(Some(cols))?.matrix().clone(),
            None => self.features.clone(),
        };
        Ok(tsne(&feats, cfg))
    }

    /// Fig. 3e rendered: t-SNE scatter coloured by labels when present.
    pub fn render_tsne(&self, columns: Option<&[usize]>, cfg: &TsneConfig) -> TcslResult<String> {
        let layout = self.tsne_embedding(columns, cfg)?;
        Ok(svg::scatter_chart(
            &layout,
            self.dataset.labels(),
            &format!("{} — t-SNE of shapelet features", self.dataset.name),
        ))
    }

    /// Suggests the `k` most "interesting" shapelets to explore: ANOVA-F
    /// against labels when the dataset is labeled, feature variance
    /// otherwise. Best first.
    pub fn suggest_shapelets(&self, k: usize) -> Vec<usize> {
        let scores = match self.dataset.labels() {
            Some(labels) if self.dataset.n_classes() >= 2 => {
                crate::importance::anova_f_scores(&self.features, labels)
            }
            _ => crate::importance::variance_scores(&self.features),
        };
        crate::importance::top_k(&scores, k)
    }

    /// Derives a reduced session using only the selected feature columns —
    /// the "redo Step 3 with the shapelets of interest" loop. The analysis
    /// can then be re-run on `reduced.features()`.
    pub fn with_selected(&self, columns: &[usize]) -> TcslResult<ExploreSession> {
        let model = self.model.with_selected_features(columns)?;
        ExploreSession::new(model, self.dataset.clone())
    }

    /// Derives a reduced session keeping one scale only (§3: "restart Step 3
    /// using the learned shapelets of length L").
    pub fn with_scale(&self, len: usize) -> TcslResult<ExploreSession> {
        let model = self.model.with_scale(len)?;
        ExploreSession::new(model, self.dataset.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcsl_core::CslConfig;
    use tcsl_data::archive;
    use tcsl_error::ErrorClass;
    use tcsl_shapelet::{Measure, ShapeletConfig};

    fn session() -> ExploreSession {
        let entry = archive::by_name("MotifEasy").unwrap();
        let (train, test) = archive::generate_split(&entry, 61);
        let scfg = ShapeletConfig {
            lengths: vec![8, 16],
            k_per_group: 3,
            measures: vec![Measure::Euclidean, Measure::Cosine],
            stride: 1,
        };
        let ccfg = CslConfig {
            epochs: 2,
            batch_size: 8,
            grains: vec![1.0],
            seed: 3,
            ..Default::default()
        };
        let (model, _) = TimeCsl::pretrain(&train, Some(scfg), &ccfg);
        ExploreSession::new(model, test).unwrap()
    }

    #[test]
    fn session_caches_features() {
        let s = session();
        assert_eq!(s.features().rows(), s.dataset().len());
        assert_eq!(s.features().cols(), s.model().repr_dim());
    }

    #[test]
    fn match_score_equals_cached_feature() {
        let s = session();
        for col in [0usize, 5, 11] {
            let m = s.match_shapelet(2, col).unwrap();
            assert!(
                (m.score - s.features().at2(2, col)).abs() < 1e-4,
                "column {col}: {} vs {}",
                m.score,
                s.features().at2(2, col)
            );
        }
    }

    #[test]
    fn match_score_is_the_cached_feature_under_every_normalization() {
        // Localization must read the series in the space the features were
        // computed in: the model's normalization, not a fixed z-score.
        use tcsl_data::normalize::Normalization;
        let base = session();
        for norm in [Normalization::MinMax, Normalization::None] {
            let model = TimeCsl::from_bank_normalized(base.model().bank().clone(), norm);
            let s = ExploreSession::new(model, base.dataset().clone()).unwrap();
            for i in [0usize, 2] {
                for col in 0..s.features().cols() {
                    let m = s.match_shapelet(i, col).unwrap();
                    assert_eq!(
                        m.score.to_bits(),
                        s.features().at2(i, col).to_bits(),
                        "{norm:?} series {i} column {col}: {} vs {}",
                        m.score,
                        s.features().at2(i, col)
                    );
                }
            }
        }
    }

    #[test]
    fn svg_panels_render() {
        let s = session();
        assert!(s.render_series(0).unwrap().starts_with("<svg"));
        assert!(s.render_shapelet(3).unwrap().contains("shapelet 3"));
        let m = s.render_match(1, 0).unwrap();
        assert!(m.contains("stroke-dasharray"));
        let t = s
            .render_tsne(
                None,
                &TsneConfig {
                    iterations: 30,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(t.matches("<circle").count() == s.dataset().len());
    }

    #[test]
    fn tabular_sorting_round_trip() {
        let s = session();
        let table = s.tabular(Some(&[0, 1])).unwrap();
        assert_eq!(table.column_names().len(), 2);
        let order = table.sort_by(0, true);
        assert_eq!(order.len(), s.dataset().len());
        // Ascending order by euclidean distance: first entry has the
        // smallest feature value.
        let first = table.value(order[0], 0);
        let last = table.value(*order.last().unwrap(), 0);
        assert!(first <= last);
    }

    #[test]
    fn suggested_shapelets_separate_classes_better_than_random() {
        let s = session();
        let suggested = s.suggest_shapelets(4);
        assert_eq!(suggested.len(), 4);
        // The top suggestion's F score must beat the median column's.
        let scores = crate::importance::anova_f_scores(s.features(), s.dataset().labels().unwrap());
        let mut sorted = scores.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        assert!(scores[suggested[0]] >= median);
    }

    #[test]
    fn selection_reduces_dimensions_consistently() {
        let s = session();
        let reduced = s.with_selected(&[0, 2, 7]).unwrap();
        assert_eq!(reduced.features().cols(), 3);
        // Selected columns carry the same bits as in the full session.
        for i in 0..s.dataset().len() {
            for (j, c) in [0, 2, 7].into_iter().enumerate() {
                let (got, want) = (reduced.features().at2(i, j), s.features().at2(i, c));
                assert_eq!(got.to_bits(), want.to_bits(), "series {i} column {c}");
            }
        }
        let by_scale = s.with_scale(16).unwrap();
        assert_eq!(by_scale.features().cols(), 6);
    }

    #[test]
    fn bad_requests_are_typed_errors_not_panics() {
        let s = session();
        let n = s.dataset().len();
        let width = s.features().cols();

        // Out-of-range series index → Config, names the dataset.
        let err = s.render_series(n + 3).unwrap_err();
        assert_eq!(err.class(), ErrorClass::Config);
        assert!(err.to_string().contains("out of range"), "{err}");
        assert_eq!(
            s.match_shapelet(n, 0).unwrap_err().class(),
            ErrorClass::Config
        );
        assert_eq!(
            s.render_match(n, 0).unwrap_err().class(),
            ErrorClass::Config
        );

        // Out-of-range feature column → typed error from the bank / session.
        assert!(s.render_shapelet(width + 10).is_err());
        assert!(s.match_shapelet(0, width + 10).is_err());
        assert_eq!(
            s.tabular(Some(&[width])).unwrap_err().class(),
            ErrorClass::Config
        );
        assert_eq!(
            s.tabular(Some(&[])).unwrap_err().class(),
            ErrorClass::Config
        );
        assert_eq!(
            s.with_selected(&[width + 1]).unwrap_err().class(),
            ErrorClass::Config
        );

        // A scale the model never learned → typed error, not a panic.
        assert!(s.with_scale(9999).is_err());
    }

    #[test]
    fn empty_dataset_is_a_typed_error() {
        let s = session();
        let empty = Dataset::unlabeled("empty", Vec::new());
        let err = ExploreSession::new(s.model().clone(), empty).unwrap_err();
        assert_eq!(err.class(), ErrorClass::EmptyInput);
    }

    #[test]
    fn tiny_dataset_tsne_is_a_config_error() {
        let s = session();
        let tiny = Dataset::unlabeled(
            "tiny",
            (0..3).map(|i| s.dataset().series(i).clone()).collect(),
        );
        let small = ExploreSession::new(s.model().clone(), tiny).unwrap();
        let err = small.render_tsne(None, &TsneConfig::default()).unwrap_err();
        assert_eq!(err.class(), ErrorClass::Config);
        assert!(err.to_string().contains("at least 4"), "{err}");
    }
}
