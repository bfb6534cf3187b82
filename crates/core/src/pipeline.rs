//! The TimeCSL unified pipeline (paper Figure 2).
//!
//! One pre-trained Shapelet Transformer serves every downstream task: the
//! pipeline z-normalizes incoming series, transforms them into the
//! shapelet-based representation, and hands the features to any analyzer
//! (freezing mode) or fine-tunes jointly with a linear head (fine-tuning
//! mode). It also exposes the shapelet-subset operations behind the demo's
//! "redo the analysis with the selected shapelets" exploration step.

use crate::config::CslConfig;
use crate::finetune::{fine_tune, FineTuneConfig, FineTuneReport, LinearHead};
use crate::trainer::{pretrain, TrainingReport};
use tcsl_data::normalize::{normalize_dataset, normalize_series, Normalization};
use tcsl_data::{Dataset, TimeSeries};
use tcsl_error::{TcslError, TcslResult};
use tcsl_shapelet::init::init_from_data;
use tcsl_shapelet::transform::{transform_dataset, transform_series};
use tcsl_shapelet::{BankPrecision, ShapeletBank, ShapeletConfig};
use tcsl_tensor::quant::QuantScheme;
use tcsl_tensor::rng::seeded;
use tcsl_tensor::Tensor;

/// A pre-trained TimeCSL model: the learned Shapelet Transformer plus the
/// input normalization it was trained under.
#[derive(Clone, Debug)]
pub struct TimeCsl {
    bank: ShapeletBank,
    normalization: Normalization,
}

impl TimeCsl {
    /// Step 1 + 2 of the demo: configure the Shapelet Transformer (or pass
    /// `None` for the recommended adaptive configuration, §4.2-style) and
    /// run unsupervised contrastive learning on `train`.
    ///
    /// Labels on `train`, if any, are ignored — pre-training is fully
    /// unsupervised.
    pub fn pretrain(
        train: &Dataset,
        shapelet_cfg: Option<ShapeletConfig>,
        csl_cfg: &CslConfig,
    ) -> (TimeCsl, TrainingReport) {
        Self::pretrain_normalized(train, shapelet_cfg, csl_cfg, Normalization::ZScore)
    }

    /// [`Self::pretrain`] under an explicit input normalization. The chosen
    /// normalization becomes part of the model (applied to every later
    /// transform/fine-tune input and persisted by [`Self::save`]).
    pub fn pretrain_normalized(
        train: &Dataset,
        shapelet_cfg: Option<ShapeletConfig>,
        csl_cfg: &CslConfig,
        normalization: Normalization,
    ) -> (TimeCsl, TrainingReport) {
        assert!(!train.is_empty(), "cannot pre-train on an empty dataset");
        let normed = normalize_dataset(&train.without_labels(), normalization);
        let cfg = shapelet_cfg.unwrap_or_else(|| ShapeletConfig::adaptive(normed.max_len()));
        let mut bank = ShapeletBank::new(&cfg, normed.n_vars());
        let mut rng = seeded(csl_cfg.seed ^ 0x5113);
        init_from_data(&mut bank, &normed, csl_cfg.init_oversample, &mut rng);
        let report = pretrain(&mut bank, &normed, csl_cfg);
        if let Some(scheme) = csl_cfg.bank_precision.scheme() {
            // Freshly trained taps are finite (the trainer optimizes a
            // finite loss under a validated config), so the only quantize
            // failure reachable from here would be an f16 overflow from
            // wildly diverged training — a trainer bug, not a request error.
            #[allow(clippy::disallowed_methods)]
            bank.quantize(scheme)
                .expect("post-training quantization of freshly trained taps");
        }
        (
            TimeCsl {
                bank,
                normalization,
            },
            report,
        )
    }

    /// Wraps an externally constructed bank (e.g. loaded from disk),
    /// assuming the default z-score input normalization.
    pub fn from_bank(bank: ShapeletBank) -> TimeCsl {
        Self::from_bank_normalized(bank, Normalization::ZScore)
    }

    /// Wraps an externally constructed bank together with the input
    /// normalization it was trained under.
    pub fn from_bank_normalized(bank: ShapeletBank, normalization: Normalization) -> TimeCsl {
        TimeCsl {
            bank,
            normalization,
        }
    }

    /// The learned Shapelet Transformer.
    pub fn bank(&self) -> &ShapeletBank {
        &self.bank
    }

    /// The input normalization applied before every transform.
    pub fn normalization(&self) -> Normalization {
        self.normalization
    }

    /// The model's inference precision ([`BankPrecision::Full`] unless
    /// quantized).
    pub fn precision(&self) -> BankPrecision {
        self.bank.precision()
    }

    /// Quantizes the model's bank in place for inference — the explicit
    /// post-training step behind `timecsl quantize`. See
    /// [`ShapeletBank::quantize`] for the precision contract; non-finite
    /// taps and f16 range overflow are typed request errors.
    pub fn quantize(&mut self, scheme: QuantScheme) -> TcslResult<()> {
        self.bank.quantize(scheme)
    }

    /// Representation dimensionality `D_repr`.
    pub fn repr_dim(&self) -> usize {
        self.bank.repr_dim()
    }

    /// Stable names of the feature columns.
    pub fn feature_names(&self) -> Vec<String> {
        self.bank.feature_names()
    }

    /// Transforms a dataset into its `(N, D_repr)` representation
    /// (normalizing each series the way training did).
    ///
    /// Empty datasets, dimension mismatches and non-finite samples are
    /// request errors ([`TcslError`]), not panics.
    pub fn transform(&self, ds: &Dataset) -> TcslResult<Tensor> {
        let normed = normalize_dataset(ds, self.normalization);
        transform_dataset(&self.bank, &normed)
    }

    /// Transforms one series.
    pub fn transform_one(&self, s: &TimeSeries) -> TcslResult<Vec<f32>> {
        let normed = normalize_series(s, self.normalization);
        transform_series(&self.bank, &normed)
    }

    /// Fine-tuning mode: trains a linear head (and, unless frozen, the
    /// shapelets) on labeled data. The model's bank is updated in place.
    pub fn fine_tune(
        &mut self,
        labeled: &Dataset,
        cfg: &FineTuneConfig,
    ) -> (LinearHead, FineTuneReport) {
        let normed = normalize_dataset(labeled, self.normalization);
        fine_tune(&mut self.bank, &normed, cfg)
    }

    /// Restricts the model to the shapelets behind the given feature
    /// columns — the demo's iterative re-analysis with a shapelet subset.
    /// Unknown or empty column selections are request errors.
    pub fn with_selected_features(&self, columns: &[usize]) -> TcslResult<TimeCsl> {
        Ok(TimeCsl {
            bank: self.bank.subset_columns(columns)?,
            normalization: self.normalization,
        })
    }

    /// Restricts the model to all shapelets of one length (the §3
    /// walkthrough: "redo Step 3 using the learned shapelets of length L").
    /// A length the bank does not carry is a request error listing the
    /// available scales.
    pub fn with_scale(&self, len: usize) -> TcslResult<TimeCsl> {
        Ok(TimeCsl {
            bank: self.bank.subset_scale(len)?,
            normalization: self.normalization,
        })
    }

    /// Serializes the model to a versioned text format: a `tcsl-model v3`
    /// header carrying the input normalization and the bank precision,
    /// followed by the bank text (always the f32 view — for a quantized
    /// bank that is the *dequantized* view, so the stored weights are
    /// exactly what the kernels compute with). Re-loading therefore
    /// reconstructs the identical half-width taps, and transforms
    /// round-trip bit-identically at every precision.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> TcslResult<()> {
        tcsl_error::write_file(path, self.to_text())
    }

    /// The versioned model text format written by [`Self::save`].
    pub fn to_text(&self) -> String {
        format!(
            "tcsl-model v3 normalization={} precision={}\n{}",
            self.normalization.name(),
            self.bank.precision().name(),
            self.bank.to_text()
        )
    }

    /// Loads a model saved by [`Self::save`]. Accepts the current
    /// `tcsl-model v3` format, v2 files (no precision token — they load as
    /// f32) and PR-1-era bare-bank files (which carry no normalization and
    /// load under the z-score default they were written with). A v3 file
    /// saved at the retired `precision=i16` loads as an f32 model of its
    /// stored weights, which are already the dequantized i16 values; its
    /// trailing `scales` section is ignored.
    pub fn load(path: impl AsRef<std::path::Path>) -> TcslResult<TimeCsl> {
        use tcsl_error::ResultExt as _;
        let text = tcsl_error::read_to_string(&path)?;
        Self::from_text(&text).with_context(|| format!("loading model {}", path.as_ref().display()))
    }

    /// Parses the model text format (see [`Self::load`] for accepted
    /// versions).
    ///
    /// Structural damage (wrong magic, unsupported version, missing
    /// sections, bad normalization tag) is [`TcslError::ModelFormat`];
    /// non-numeric fields inside the bank are [`TcslError::Parse`].
    pub fn from_text(text: &str) -> TcslResult<TimeCsl> {
        let first = text
            .lines()
            .next()
            .ok_or_else(|| TcslError::model_format("tcsl-model header", "empty model file"))?;
        if !first.starts_with("tcsl-model") {
            // Backward compatibility: a bare bank file (PR-1 era).
            let bank = ShapeletBank::from_text(text)?;
            return Ok(TimeCsl::from_bank(bank));
        }
        let mut version = None;
        let mut normalization = None;
        let mut precision = None;
        for tok in first.split_whitespace().skip(1) {
            if let Some(v) = tok.strip_prefix('v') {
                if version.is_none() && v.chars().all(|c| c.is_ascii_digit()) {
                    version = Some(v.to_string());
                }
            }
            if let Some(v) = tok.strip_prefix("normalization=") {
                normalization = Some(Normalization::parse(v).ok_or_else(|| {
                    TcslError::model_format("normalization in {zscore, minmax, none}", v)
                })?);
            }
            if let Some(v) = tok.strip_prefix("precision=") {
                precision = Some(match v {
                    // The retired i16 scheme saved its dequantized weights,
                    // so such a file serves them at f32.
                    "i16" => BankPrecision::Full,
                    _ => BankPrecision::parse(v)
                        .ok_or_else(|| TcslError::model_format("precision in {f32, f16}", v))?,
                });
            }
        }
        let precision = match version.as_deref() {
            // v2 predates quantization: always full precision.
            Some("2") => BankPrecision::Full,
            Some("3") => precision
                .ok_or_else(|| TcslError::model_format("precision= in model header", first))?,
            _ => return Err(TcslError::model_format("tcsl-model v2/v3 header", first)),
        };
        let normalization = normalization
            .ok_or_else(|| TcslError::model_format("normalization= in model header", first))?;
        let rest = match text.split_once('\n') {
            Some((_, rest)) => rest,
            None => {
                return Err(TcslError::model_format(
                    "bank section after model header",
                    "end of file",
                ))
            }
        };
        // The bank parser reads exactly its own section, so an i16 file's
        // trailing scales section passes through untouched.
        let mut bank = ShapeletBank::from_text(rest)?;
        // The stored weights are the dequantized view; re-quantizing
        // dequantized values is exact, so this reconstructs the identical
        // half-width taps.
        if let Some(scheme) = precision.scheme() {
            bank.quantize(scheme)?;
        }
        Ok(TimeCsl::from_bank_normalized(bank, normalization))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcsl_data::archive;
    use tcsl_shapelet::Measure;

    fn quick_cfg() -> (ShapeletConfig, CslConfig) {
        (
            ShapeletConfig {
                lengths: vec![8, 16],
                k_per_group: 4,
                measures: vec![Measure::Euclidean, Measure::Cosine],
                stride: 1,
            },
            CslConfig {
                epochs: 3,
                batch_size: 8,
                grains: vec![0.7, 1.0],
                seed: 1,
                ..Default::default()
            },
        )
    }

    #[test]
    fn end_to_end_pretrain_and_transform() {
        let entry = archive::by_name("MotifEasy").unwrap();
        let (train, test) = archive::generate_split(&entry, 21);
        let (scfg, ccfg) = quick_cfg();
        let (model, report) = TimeCsl::pretrain(&train, Some(scfg), &ccfg);
        assert_eq!(report.epoch_total.len(), 3);
        let feats = model.transform(&test).unwrap();
        assert_eq!(feats.rows(), test.len());
        assert_eq!(feats.cols(), model.repr_dim());
        assert!(feats.all_finite());
        // Single-series path agrees with the batch path.
        let one = model.transform_one(test.series(0)).unwrap();
        for (a, b) in one.iter().zip(feats.row(0)) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn adaptive_config_is_used_when_none_given() {
        let entry = archive::by_name("MotifEasy").unwrap();
        let (train, _) = archive::generate_split(&entry, 22);
        let small = train.subset(&(0..8).collect::<Vec<_>>(), "small");
        let ccfg = CslConfig {
            epochs: 1,
            batch_size: 4,
            grains: vec![1.0],
            seed: 2,
            ..Default::default()
        };
        let (model, _) = TimeCsl::pretrain(&small, None, &ccfg);
        // Adaptive lengths for T=128: 13, 26, 52, 103.
        assert_eq!(model.bank().scales(), vec![13, 26, 52, 103]);
        assert_eq!(model.repr_dim(), 4 * 3 * 10);
    }

    #[test]
    fn subset_models_transform_fewer_columns() {
        let entry = archive::by_name("MotifEasy").unwrap();
        let (train, test) = archive::generate_split(&entry, 23);
        let (scfg, ccfg) = quick_cfg();
        let (model, _) = TimeCsl::pretrain(&train, Some(scfg), &ccfg);
        let by_scale = model.with_scale(16).unwrap();
        assert_eq!(by_scale.repr_dim(), 8);
        let feats = by_scale.transform(&test).unwrap();
        assert_eq!(feats.cols(), 8);

        let by_cols = model.with_selected_features(&[0, 5, 9]).unwrap();
        assert_eq!(by_cols.repr_dim(), 3);
    }

    #[test]
    fn save_load_round_trip() {
        let entry = archive::by_name("MotifEasy").unwrap();
        let (train, test) = archive::generate_split(&entry, 24);
        let (scfg, ccfg) = quick_cfg();
        let (model, _) = TimeCsl::pretrain(&train, Some(scfg), &ccfg);
        let dir = std::env::temp_dir().join("tcsl_pipeline_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.tcsl");
        model.save(&path).unwrap();
        let loaded = TimeCsl::load(&path).unwrap();
        let a = model.transform(&test).unwrap();
        let b = loaded.transform(&test).unwrap();
        assert!(a.max_abs_diff(&b) < 1e-5);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn save_load_preserves_every_normalization() {
        // Regression: save() used to persist only the bank and load()
        // hard-coded ZScore, so a MinMax/None model round-tripped to wrong
        // features.
        let entry = archive::by_name("MotifEasy").unwrap();
        let (train, test) = archive::generate_split(&entry, 25);
        let (scfg, ccfg) = quick_cfg();
        for norm in Normalization::ALL {
            let (model, _) = TimeCsl::pretrain_normalized(&train, Some(scfg.clone()), &ccfg, norm);
            assert_eq!(model.normalization(), norm);
            let loaded = TimeCsl::from_text(&model.to_text()).unwrap();
            assert_eq!(loaded.normalization(), norm);
            let a = model.transform(&test).unwrap();
            let b = loaded.transform(&test).unwrap();
            assert!(a.max_abs_diff(&b) < 1e-5, "features changed under {norm:?}");
        }
        // Distinct normalizations must actually produce distinct features
        // (otherwise this test would be vacuous).
        let (m1, _) =
            TimeCsl::pretrain_normalized(&train, Some(scfg.clone()), &ccfg, Normalization::ZScore);
        let wrong = TimeCsl::from_bank_normalized(m1.bank().clone(), Normalization::None);
        assert!(
            m1.transform(&test)
                .unwrap()
                .max_abs_diff(&wrong.transform(&test).unwrap())
                > 1e-3
        );
    }

    #[test]
    fn legacy_bare_bank_files_still_load() {
        let entry = archive::by_name("MotifEasy").unwrap();
        let (train, test) = archive::generate_split(&entry, 26);
        let (scfg, ccfg) = quick_cfg();
        let (model, _) = TimeCsl::pretrain(&train, Some(scfg), &ccfg);
        // A PR-1-era file is exactly the bank text, no model header.
        let legacy = model.bank().to_text();
        let loaded = TimeCsl::from_text(&legacy).unwrap();
        assert_eq!(loaded.normalization(), Normalization::ZScore);
        assert!(
            model
                .transform(&test)
                .unwrap()
                .max_abs_diff(&loaded.transform(&test).unwrap())
                < 1e-5
        );
    }

    #[test]
    fn model_text_rejects_garbage() {
        use tcsl_error::ErrorClass;
        let class = |t: &str| TimeCsl::from_text(t).unwrap_err().class();
        assert_eq!(class(""), ErrorClass::ModelFormat);
        assert_eq!(
            class("tcsl-model v99 normalization=zscore\n"),
            ErrorClass::ModelFormat
        );
        assert_eq!(
            class("tcsl-model v2 normalization=sigma\n"),
            ErrorClass::ModelFormat
        );
        assert_eq!(class("tcsl-model v2\n"), ErrorClass::ModelFormat);
        assert_eq!(
            class("tcsl-model v2 normalization=zscore"),
            ErrorClass::ModelFormat
        );
        // v3 structural damage: missing/unknown precision.
        assert_eq!(
            class("tcsl-model v3 normalization=zscore\ntcsl-bank v1 d=1 groups=0\n"),
            ErrorClass::ModelFormat
        );
        assert_eq!(
            class("tcsl-model v3 normalization=zscore precision=f8\n"),
            ErrorClass::ModelFormat
        );
    }

    #[test]
    fn legacy_i16_models_load_as_f32_models_of_their_weights() {
        // A model saved at the retired i16 precision: the bank section holds
        // the dequantized weights (q · scale per shapelet row), followed by
        // the per-shapelet scales section.
        let bank = "tcsl-bank v1 d=1 groups=2\n\
            group len=4 stride=1 measure=euc k=2\n\
            0.500015259 -0.250007629 0.125003815 -1\n\
            0.309999704 0.720000029 -0.20000124 0.0499893203\n\
            group len=4 stride=1 measure=cos k=2\n\
            -0.899999976 0.399996936 0.330011904 0.100006104\n\
            0.600003064 -0.610000014 0.0199938957 -0.300001532\n";
        let legacy = format!(
            "tcsl-model v3 normalization=minmax precision=i16\n{bank}scales groups=2\n\
             3.0518509e-5 2.1973328e-5\n2.7466658e-5 1.8616291e-5\n"
        );
        let loaded = TimeCsl::from_text(&legacy).unwrap();
        assert_eq!(loaded.precision(), BankPrecision::Full);
        assert_eq!(loaded.normalization(), Normalization::MinMax);
        let f32_model = TimeCsl::from_text(&format!(
            "tcsl-model v3 normalization=minmax precision=f32\n{bank}"
        ))
        .unwrap();
        let series = (0..6)
            .map(|i| {
                TimeSeries::univariate(
                    (0..30)
                        .map(|t| ((t * (i + 1)) as f32 * 0.21).sin())
                        .collect(),
                )
            })
            .collect();
        let ds = Dataset::unlabeled("legacy-i16", series);
        let a = loaded.transform(&ds).unwrap();
        let b = f32_model.transform(&ds).unwrap();
        let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&a),
            bits(&b),
            "i16 file must serve its stored weights exactly"
        );
        // Re-saving writes a plain f32 model; the scales section is gone.
        assert_eq!(loaded.to_text(), f32_model.to_text());
    }

    #[test]
    fn quantized_models_round_trip_bit_identically() {
        use tcsl_shapelet::BankPrecision;
        use tcsl_tensor::quant::QuantScheme;
        let entry = archive::by_name("MotifEasy").unwrap();
        let (train, test) = archive::generate_split(&entry, 27);
        let (scfg, ccfg) = quick_cfg();
        let (mut model, _) = TimeCsl::pretrain(&train, Some(scfg), &ccfg);
        model.quantize(QuantScheme::F16).unwrap();
        assert_eq!(model.precision(), BankPrecision::F16);
        let text = model.to_text();
        assert!(text.starts_with("tcsl-model v3 normalization=zscore precision=f16"));
        let loaded = TimeCsl::from_text(&text).unwrap();
        assert_eq!(loaded.precision(), BankPrecision::F16);
        let a = model.transform(&test).unwrap();
        let b = loaded.transform(&test).unwrap();
        // Save → load reconstructs the identical half-width taps, so
        // features are bit-identical, not merely close.
        assert_eq!(a.max_abs_diff(&b), 0.0, "round trip must be exact");
        // And a second round trip is a fixed point of the format.
        assert_eq!(loaded.to_text(), text);
    }

    #[test]
    fn pretrain_quantizes_when_config_asks() {
        use tcsl_shapelet::BankPrecision;
        let entry = archive::by_name("MotifEasy").unwrap();
        let (train, test) = archive::generate_split(&entry, 28);
        let (scfg, mut ccfg) = quick_cfg();
        ccfg.bank_precision = BankPrecision::F16;
        let (model, _) = TimeCsl::pretrain(&train, Some(scfg.clone()), &ccfg);
        assert_eq!(model.precision(), BankPrecision::F16);
        // The quantized model stays close to the full-precision one.
        ccfg.bank_precision = BankPrecision::Full;
        let (full, _) = TimeCsl::pretrain(&train, Some(scfg), &ccfg);
        let a = model.transform(&test).unwrap();
        let b = full.transform(&test).unwrap();
        assert!(a.max_abs_diff(&b) < 0.05, "{}", a.max_abs_diff(&b));
    }

    #[test]
    fn quantized_feature_parity_with_full_precision() {
        use tcsl_tensor::quant::QuantScheme;
        let entry = archive::by_name("MotifEasy").unwrap();
        let (train, test) = archive::generate_split(&entry, 29);
        let (scfg, ccfg) = quick_cfg();
        let (model, _) = TimeCsl::pretrain(&train, Some(scfg), &ccfg);
        let full = model.transform(&test).unwrap();
        let mut q = model.clone();
        q.quantize(QuantScheme::F16).unwrap();
        let feats = q.transform(&test).unwrap();
        assert!(feats.all_finite());
        assert!(
            full.max_abs_diff(&feats) < 0.05,
            "{}",
            full.max_abs_diff(&feats)
        );
    }
}
