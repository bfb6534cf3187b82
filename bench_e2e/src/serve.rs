//! `serve`: freezing-mode batch analysis through an f16-quantized model, as
//! `timecsl quantize`, then `classify`, then `cluster` run it.
//!
//! CSV parsing, model parsing and the half-width kernels
//! (`shapelet::quant`, `tensor::quant`) do the work; autodiff and the f32
//! kernels sit idle. At D = 3, the 32- and 63-step scales call the f16 dot
//! products on rows shorter than `QUANT_MIN_LEN`, which take the scalar
//! software-conversion tier (`tensor.quant.f16_scalar_share`).

use crate::common::{self, computed_bytes_per_series, derive, gestures, Quality, N_CLASSES};
use crate::harness::{OpTrace, RunArgs, Workload};
use crate::reference;
use crate::timing::Recorder;
use tcsl_core::{CslConfig, TimeCsl};
use tcsl_data::{io, Dataset};
use tcsl_shapelet::{BankPrecision, ShapeletBank};
use tcsl_tensor::quant::QuantScheme;
use tcsl_tensor::Tensor;

struct Sizes {
    /// Labeled training gestures per class (the `classify` train file).
    train_per_class: usize,
    /// Test gestures per class (the `classify` test and `cluster` file).
    test_per_class: usize,
    /// Gestures per class the set-up pre-trains on, one epoch.
    pretrain_per_class: usize,
    /// Feature cells checked against the f64 reference per operation.
    cells: usize,
}

const FULL: Sizes = Sizes {
    train_per_class: 12,
    test_per_class: 12,
    pretrain_per_class: 8,
    cells: 48,
};

const SMOKE: Sizes = Sizes {
    train_per_class: 2,
    test_per_class: 2,
    pretrain_per_class: 2,
    cells: 8,
};

pub struct Serve {
    sizes: &'static Sizes,
    train: Dataset,
    test: Dataset,
    train_csv: String,
    test_csv: String,
    model: TimeCsl,
    model_text: String,
    /// The same bank at f32 (its dequantized taps), for the traced run's
    /// f16-versus-f32 comparison at this shape.
    f32_model: Option<TimeCsl>,
    /// The first operation's predictions and cluster assignments.
    first: Option<(Vec<usize>, Vec<usize>)>,
    quality: Option<Quality>,
}

pub struct Out {
    train: Dataset,
    test: Dataset,
    model: TimeCsl,
    train_features: Tensor,
    test_features: Tensor,
    pred: Vec<usize>,
    assign: Vec<usize>,
}

impl Workload for Serve {
    type Out = Out;

    fn setup(args: &RunArgs) -> Result<Self, String> {
        let sizes = if args.smoke { &SMOKE } else { &FULL };
        let train = gestures(derive(args.seed, 11), sizes.train_per_class);
        let test = gestures(derive(args.seed, 12), sizes.test_per_class);
        let pretrain_set = gestures(derive(args.seed, 13), sizes.pretrain_per_class);
        let cfg = CslConfig {
            epochs: 1,
            seed: derive(args.seed, 14),
            ..Default::default()
        };
        let (mut model, _) = TimeCsl::pretrain(&pretrain_set, None, &cfg);
        model
            .quantize(QuantScheme::F16)
            .map_err(|e| e.to_string())?;
        Ok(Serve {
            sizes,
            train_csv: io::to_csv(&train),
            test_csv: io::to_csv(&test),
            model_text: model.to_text(),
            train,
            test,
            model,
            f32_model: None,
            first: None,
            quality: None,
        })
    }

    fn run_op(&mut self, _i: usize, rec: &mut Recorder) -> Result<Out, String> {
        let train = rec
            .time("data.io.parse", || io::from_csv("train", &self.train_csv))
            .map_err(|e| e.to_string())?;
        let test = rec
            .time("data.io.parse", || io::from_csv("test", &self.test_csv))
            .map_err(|e| e.to_string())?;
        let model = rec
            .time("core.pipeline.model_parse", || {
                TimeCsl::from_text(&self.model_text)
            })
            .map_err(|e| e.to_string())?;
        let train_features = rec
            .time("shapelet.quant.transform", || model.transform(&train))
            .map_err(|e| e.to_string())?;
        let test_features = rec
            .time("shapelet.quant.transform", || model.transform(&test))
            .map_err(|e| e.to_string())?;
        let ytr = train.labels().ok_or("train CSV lost its labels")?;
        let pred = rec.time("analyzers.classify.svm", || {
            common::svm_predict(&train_features, ytr, &test_features)
        });
        let assign = rec.time("analyzers.cluster.kmeans", || {
            common::kmeans(&test_features, N_CLASSES)
        });
        Ok(Out {
            train,
            test,
            model,
            train_features,
            test_features,
            pred,
            assign,
        })
    }

    fn check(&mut self, i: usize, out: Out) -> Result<(), String> {
        if !common::same_dataset(&out.train, &self.train)
            || !common::same_dataset(&out.test, &self.test)
        {
            return Err("parsed CSV differs from the generated series".into());
        }
        if out.model.precision() != BankPrecision::F16
            || !common::same_bank(out.model.bank(), self.model.bank())
            || out.model.normalization() != self.model.normalization()
        {
            return Err("parsed f16 model differs from the quantized model".into());
        }
        let how = out.model.normalization();
        for (ds, feats) in [
            (&out.train, &out.train_features),
            (&out.test, &out.test_features),
        ] {
            let cells = reference::sample_cells(ds.len(), feats.cols(), self.sizes.cells / 2, i);
            reference::check_cells(out.model.bank(), how, ds.all_series(), &cells, |r, c| {
                feats.at2(r, c)
            })?;
        }
        let yte = out.test.labels().ok_or("test CSV lost its labels")?;
        let q = common::quality(&out.pred, &out.assign, yte);
        q.check("serve")?;
        match &self.first {
            None => {
                self.first = Some((out.pred, out.assign));
                self.quality = Some(q);
                Ok(())
            }
            Some((p, a)) if *p == out.pred && *a == out.assign => Ok(()),
            Some(_) => Err("the same inputs gave different predictions or clusters".into()),
        }
    }

    fn after_traced_op(&mut self, _i: usize, rec: &mut Recorder) -> Result<(), String> {
        if self.f32_model.is_none() {
            let bank =
                ShapeletBank::from_text(&self.model.bank().to_text()).map_err(|e| e.to_string())?;
            self.f32_model = Some(TimeCsl::from_bank_normalized(
                bank,
                self.model.normalization(),
            ));
        }
        let model = self.f32_model.as_ref().expect("built above");
        for ds in [&self.train, &self.test] {
            rec.time("shapelet.fused.transform_f32_reference", || {
                model.transform(ds)
            })
            .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    fn finish(&mut self, errors: &mut Vec<String>) -> Quality {
        // One transform with the program's counters on names the f16
        // dispatch tiers in the host record.
        if let Err(e) = self.model.transform(&self.test) {
            errors.push(format!("f16 transform failed: {e}"));
        }
        self.quality.unwrap_or(Quality {
            accuracy: 0.0,
            nmi: 0.0,
        })
    }

    fn layer_metrics(&self, rec: &Recorder, _ops: &[OpTrace]) -> Vec<(&'static str, f64)> {
        let parse_ms = rec.median_ms("data.io.parse");
        let csv_mb = (self.train_csv.len() + self.test_csv.len()) as f64 * 1e-6;
        let transform_ms = rec.median_ms("shapelet.quant.transform");
        let n = (self.train.len() + self.test.len()) as f64;
        let bytes = n * computed_bytes_per_series(self.model.bank(), self.train.max_len());
        vec![
            ("data.io.parse_ms", parse_ms),
            ("data.io.parse_mb_per_s", csv_mb / (parse_ms * 1e-3)),
            (
                "core.pipeline.model_parse_ms",
                rec.median_ms("core.pipeline.model_parse"),
            ),
            (
                "core.pipeline.model_kib",
                self.model_text.len() as f64 / 1024.0,
            ),
            ("shapelet.quant.transform_ms", transform_ms),
            ("shapelet.quant.series_per_s", n / (transform_ms * 1e-3)),
            (
                "shapelet.quant.gb_per_s",
                bytes / (transform_ms * 1e-3) * 1e-9,
            ),
            (
                "analyzers.classify.svm_ms",
                rec.median_ms("analyzers.classify.svm"),
            ),
            (
                "analyzers.cluster.kmeans_ms",
                rec.median_ms("analyzers.cluster.kmeans"),
            ),
        ]
    }

    fn describe(&self) -> Vec<(&'static str, String)> {
        let s = self.sizes;
        vec![
            ("family", "UWave-style gestures".into()),
            ("classes", N_CLASSES.to_string()),
            ("d", "3".into()),
            ("t", "315".into()),
            ("train_series", self.train.len().to_string()),
            ("test_series", self.test.len().to_string()),
            (
                "csv_bytes",
                (self.train_csv.len() + self.test_csv.len()).to_string(),
            ),
            ("model_bytes", self.model_text.len().to_string()),
            (
                "bank",
                "adaptive: 4 scales x 3 measures x 10 shapelets, f16".into(),
            ),
            (
                "setup_pretrain",
                format!("1 epoch on {} series", s.pretrain_per_class * N_CLASSES),
            ),
            ("checked_cells_per_op", s.cells.to_string()),
        ]
    }
}
