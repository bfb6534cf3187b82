//! `explore`: the paper's §3 walkthrough as one interactive session.
//!
//! The f32 fused transform, best-match localization, SVG rendering, t-SNE
//! over `pairdist`, and session re-analysis do the work; parsing, the
//! quantized kernels and autodiff sit idle.
//!
//! Every round is three sessions over the seed's gesture set with the
//! z-score model and one over a fixed gesture set with a MinMax-normalized
//! copy of the same bank. `ExploreSession::match_shapelet` and
//! `render_match` normalize with a hard-coded z-score, so on a MinMax model
//! the match no longer explains the cached feature and that session's
//! match check fails. Its inputs do not depend on the seed, so it fails in
//! every run, and whole rounds keep the failed share at exactly 1/4.

use crate::common::{self, computed_bytes_per_series, derive, gestures, Quality, N_CLASSES};
use crate::harness::{OpTrace, RunArgs, Workload};
use crate::reference;
use crate::timing::{median, quantile, Recorder};
use std::hint::black_box;
use tcsl_core::{CslConfig, TimeCsl};
use tcsl_data::normalize::Normalization;
use tcsl_data::Dataset;
use tcsl_explore::{ExploreSession, TsneConfig};
use tcsl_shapelet::matching::ShapeletMatch;
use tcsl_tensor::Tensor;

struct Sizes {
    /// Gestures per class in the explored set.
    per_class: usize,
    /// Gestures per class the set-up pre-trains on, one epoch.
    pretrain_per_class: usize,
    /// Series clicked per session (each against one shapelet per group).
    click_series: usize,
    /// Feature cells checked against the f64 reference per session.
    cells: usize,
    /// Shapelets `suggest_shapelets` proposes.
    suggest: usize,
}

const FULL: Sizes = Sizes {
    per_class: 36,
    pretrain_per_class: 4,
    click_series: 8,
    cells: 32,
    suggest: 8,
};

const SMOKE: Sizes = Sizes {
    per_class: 2,
    pretrain_per_class: 2,
    click_series: 2,
    cells: 8,
    suggest: 4,
};

/// Seed of the set-up's pre-training and of the MinMax sessions' gesture
/// set: fixed, so that the failing sessions never depend on the run's seed.
const FIXED_SEED: u64 = 0x7E57_5E55_1011;

/// Sessions per round; the last one of each round runs the MinMax model.
const ROUND: usize = 4;

fn is_minmax(i: usize) -> bool {
    i % ROUND == ROUND - 1
}

pub struct Explore {
    sizes: &'static Sizes,
    model: TimeCsl,
    minmax: TimeCsl,
    /// The seed's gesture set, explored by the z-score sessions.
    data: Dataset,
    /// A fixed gesture set, explored by the MinMax sessions.
    fixed: Dataset,
    /// Rows that train the SVM; the rest test it.
    train_rows: Vec<usize>,
    test_rows: Vec<usize>,
    /// `(series, feature column)` of every click.
    clicks: Vec<(usize, usize)>,
    /// The first z-score and MinMax sessions' cached features.
    first: [Option<Tensor>; 2],
    quality: Option<Quality>,
    /// Shapelets the last traced session suggested, for its replay.
    last_suggested: Vec<usize>,
}

/// What a session produced, for checking.
pub struct Out {
    minmax: bool,
    features: Tensor,
    suggested: Vec<usize>,
    clicks: Vec<(ShapeletMatch, bool)>,
    table: Tensor,
    layout: Tensor,
    /// `(scale length, features)` of every `with_scale` session.
    scales: Vec<(usize, Tensor)>,
    selected: Tensor,
    /// Quality of the full representation.
    quality: Quality,
}

impl Explore {
    fn session_inputs(&self, i: usize) -> (&TimeCsl, &Dataset) {
        if is_minmax(i) {
            (&self.minmax, &self.fixed)
        } else {
            (&self.model, &self.data)
        }
    }

    /// SVM on the train/test split and KMeans on every row.
    fn score(&self, rec: &mut Recorder, features: &Tensor, labels: &[usize]) -> Quality {
        let (xtr, xte) = (
            common::take_rows(features, &self.train_rows),
            common::take_rows(features, &self.test_rows),
        );
        let ytr: Vec<usize> = self.train_rows.iter().map(|&r| labels[r]).collect();
        let yte: Vec<usize> = self.test_rows.iter().map(|&r| labels[r]).collect();
        let pred = rec.time("analyzers.classify.svm", || {
            common::svm_predict(&xtr, &ytr, &xte)
        });
        let assign = rec.time("analyzers.cluster.kmeans", || {
            common::kmeans(features, N_CLASSES)
        });
        Quality {
            accuracy: tcsl_eval::metrics::classification::accuracy(&pred, &yte),
            nmi: tcsl_eval::metrics::clustering::nmi(&assign, labels),
        }
    }
}

impl Workload for Explore {
    type Out = Out;

    fn setup(args: &RunArgs) -> Result<Self, String> {
        let sizes = if args.smoke { &SMOKE } else { &FULL };
        let cfg = CslConfig {
            epochs: 1,
            seed: FIXED_SEED,
            ..Default::default()
        };
        let pretrain_set = gestures(derive(FIXED_SEED, 1), sizes.pretrain_per_class);
        let (model, _) = TimeCsl::pretrain(&pretrain_set, None, &cfg);
        let minmax = TimeCsl::from_bank_normalized(model.bank().clone(), Normalization::MinMax);
        // Both explored sets reach the session through the long-CSV
        // format, as `timecsl match` and `report` load them.
        let data = common::via_csv(&gestures(derive(args.seed, 21), sizes.per_class))?;
        let fixed = common::via_csv(&gestures(derive(FIXED_SEED, 2), sizes.per_class))?;
        let (train_rows, test_rows): (Vec<usize>, Vec<usize>) =
            (0..data.len()).partition(|r| r % 2 == 0);
        // One click per (series, group): every scale and measure is
        // localized and rendered.
        let k = model.bank().groups()[0].k();
        let n_groups = model.bank().groups().len();
        let clicks = (0..sizes.click_series)
            .flat_map(|s| {
                let series = s * data.len() / sizes.click_series;
                (0..n_groups).map(move |g| (series, g * k + (s + g) % k))
            })
            .collect();
        Ok(Explore {
            sizes,
            model,
            minmax,
            data,
            fixed,
            train_rows,
            test_rows,
            clicks,
            first: [None, None],
            quality: None,
            last_suggested: Vec::new(),
        })
    }

    fn round_len(&self) -> usize {
        ROUND
    }

    fn run_op(&mut self, i: usize, rec: &mut Recorder) -> Result<Out, String> {
        let (model, data) = self.session_inputs(i);
        let labels = data
            .labels()
            .ok_or("explored set lost its labels")?
            .to_vec();
        let session = rec
            .time("explore.session.open", || {
                ExploreSession::new(model.clone(), data.clone())
            })
            .map_err(|e| e.to_string())?;
        let suggested = rec.time("explore.importance.suggest", || {
            session.suggest_shapelets(self.sizes.suggest)
        });
        let mut clicks = Vec::with_capacity(self.clicks.len());
        for &(s, c) in &self.clicks {
            let m = rec
                .time("shapelet.matching.match", || session.match_shapelet(s, c))
                .map_err(|e| e.to_string())?;
            let svg = rec
                .time("explore.svg.render", || session.render_match(s, c))
                .map_err(|e| e.to_string())?;
            clicks.push((m, svg.starts_with("<svg") && svg.ends_with("</svg>\n")));
        }
        let table = rec
            .time("explore.tabular", || session.tabular(Some(&suggested)))
            .map_err(|e| e.to_string())?
            .matrix()
            .clone();
        let layout = rec
            .time("explore.tsne", || {
                session.tsne_embedding(None, &TsneConfig::default())
            })
            .map_err(|e| e.to_string())?;
        let quality = self.score(rec, session.features(), &labels);
        let mut scales = Vec::new();
        for len in session.model().bank().scales() {
            let reduced = rec
                .time("explore.session.with_scale", || session.with_scale(len))
                .map_err(|e| e.to_string())?;
            black_box(self.score(rec, reduced.features(), &labels));
            scales.push((len, reduced.features().clone()));
        }
        let reduced = rec
            .time("explore.session.with_selected", || {
                session.with_selected(&suggested)
            })
            .map_err(|e| e.to_string())?;
        black_box(self.score(rec, reduced.features(), &labels));
        let selected = reduced.features().clone();
        Ok(Out {
            minmax: is_minmax(i),
            features: session.features().clone(),
            suggested,
            clicks,
            table,
            layout,
            scales,
            selected,
            quality,
        })
    }

    fn check(&mut self, i: usize, out: Out) -> Result<(), String> {
        self.last_suggested.clone_from(&out.suggested);
        let (model, data) = self.session_inputs(i);
        let how = model.normalization();
        let bank = model.bank();
        let feats = &out.features;
        let cells = reference::sample_cells(feats.rows(), feats.cols(), self.sizes.cells, i);
        reference::check_cells(bank, how, data.all_series(), &cells, |r, c| feats.at2(r, c))?;

        // Every click localizes a true best window under the reference,
        // and its score is the cached feature it explains, bit for bit.
        for (&(s, c), (m, svg_ok)) in self.clicks.iter().zip(&out.clicks) {
            if !svg_ok {
                return Err(format!("render_match({s}, {c}) is not a complete SVG"));
            }
            if m.score.to_bits() != feats.at2(s, c).to_bits() {
                return Err(format!(
                    "match of feature {c} in series {s} scores {} but the cached feature is {} \
                     ({} model)",
                    m.score,
                    feats.at2(s, c),
                    how.name()
                ));
            }
            let x = reference::normalize(data.series(s), how);
            let scores = reference::window_scores(bank, c, &x);
            let best = reference::best(bank, c, &scores);
            let stride = bank.groups()[m.group].stride;
            let at = scores.get(m.start / stride).copied().unwrap_or(f64::NAN);
            if !reference::close(at, best) {
                return Err(format!(
                    "match of feature {c} in series {s} at t={} scores {at} under the f64 \
                     reference, but the best window scores {best} ({} model)",
                    m.start,
                    how.name()
                ));
            }
        }

        // Tabular view and t-SNE layout.
        let want_table = select_columns(feats, &out.suggested);
        if !common::same_bits(&out.table, &want_table) {
            return Err("tabular view differs from the cached columns".into());
        }
        if out.layout.rows() != feats.rows()
            || out.layout.cols() != 2
            || !out.layout.as_slice().iter().all(|v| v.is_finite())
        {
            return Err("t-SNE layout is not a finite (N, 2) matrix".into());
        }

        // Re-analysis: one scale re-derives its cached columns bit for bit;
        // a shapelet selection agrees within rounding.
        for (len, scale_feats) in &out.scales {
            let range = bank
                .scale_columns()
                .into_iter()
                .find(|(l, _)| l == len)
                .map(|(_, r)| r)
                .ok_or_else(|| format!("scale {len} missing from the bank"))?;
            let cols: Vec<usize> = range.collect();
            if !common::same_bits(scale_feats, &select_columns(feats, &cols)) {
                return Err(format!(
                    "with_scale({len}) features differ from the cached columns"
                ));
            }
        }
        // `subset_columns` keeps group order, and selection order within a
        // group.
        let mut order = out.suggested.clone();
        order.sort_by_key(|&c| bank.feature_to_shapelet(c).map_or(usize::MAX, |(g, _)| g));
        let want = select_columns(feats, &order);
        let close = out.selected.as_slice().len() == want.as_slice().len()
            && out
                .selected
                .as_slice()
                .iter()
                .zip(want.as_slice())
                .all(|(&a, &b)| (a - b).abs() <= 1e-5 * (1.0 + b.abs()));
        if !close {
            return Err("with_selected features differ from the cached columns".into());
        }

        // The trained (z-score) model's full representation sits far above
        // chance. A reduced one need not: a single short scale is ambiguous
        // on gestures, where single strokes recur across classes. Nor need
        // the MinMax copy, which reuses a bank trained on z-scored series.
        if !out.minmax {
            out.quality.check("explore")?;
        }
        let slot = usize::from(out.minmax);
        match &self.first[slot] {
            None => {
                if !out.minmax {
                    self.quality = Some(out.quality);
                }
                self.first[slot] = Some(out.features);
                Ok(())
            }
            Some(f) if common::same_bits(f, &out.features) => Ok(()),
            Some(_) => Err("the same session inputs gave different features".into()),
        }
    }

    fn after_traced_op(&mut self, i: usize, rec: &mut Recorder) -> Result<(), String> {
        // The fused transforms the session ran internally, replayed from
        // outside: the full model, every scale, and the selection.
        let (model, data) = self.session_inputs(i);
        let mut models = vec![model.clone()];
        for len in model.bank().scales() {
            models.push(model.with_scale(len).map_err(|e| e.to_string())?);
        }
        models.push(
            model
                .with_selected_features(&self.last_suggested)
                .map_err(|e| e.to_string())?,
        );
        for m in &models {
            rec.time("shapelet.fused.transform", || m.transform(data))
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    fn finish(&mut self, errors: &mut Vec<String>) -> Quality {
        // One transform with the program's counters on names the f32
        // dispatch tiers in the host record.
        if let Err(e) = self.model.transform(&self.data) {
            errors.push(format!("f32 transform failed: {e}"));
        }
        self.quality.unwrap_or(Quality {
            accuracy: 0.0,
            nmi: 0.0,
        })
    }

    fn layer_metrics(&self, rec: &Recorder, _ops: &[OpTrace]) -> Vec<(&'static str, f64)> {
        let transform_ms = rec.median_ms("shapelet.fused.transform");
        let n = self.data.len() as f64;
        let t = self.data.max_len();
        // Per session: the full bank, each scale, and the selection.
        let bank = self.model.bank();
        let mut bytes = computed_bytes_per_series(bank, t);
        for len in bank.scales() {
            let scale = self
                .model
                .with_scale(len)
                .expect("the bank carries its own scales");
            bytes += computed_bytes_per_series(scale.bank(), t);
        }
        let sel = self.model.with_selected_features(&self.last_suggested);
        let n_models = bank.scales().len() + 2;
        if let Ok(sel) = sel {
            bytes += computed_bytes_per_series(sel.bank(), t);
        }
        let matches = rec.calls_us("shapelet.matching.match");
        let reanalysis: Vec<f64> = rec
            .per_op_ms("explore.session.with_scale")
            .iter()
            .zip(rec.per_op_ms("explore.session.with_selected"))
            .map(|(a, b)| a + b)
            .collect();
        vec![
            (
                "explore.session.open_ms",
                rec.median_ms("explore.session.open"),
            ),
            ("shapelet.fused.transform_ms", transform_ms),
            (
                "shapelet.fused.series_per_s",
                n * n_models as f64 / (transform_ms * 1e-3),
            ),
            (
                "shapelet.fused.gb_per_s",
                n * bytes / (transform_ms * 1e-3) * 1e-9,
            ),
            ("shapelet.matching.match_p50_us", median(&matches)),
            ("shapelet.matching.match_p90_us", quantile(&matches, 0.9)),
            (
                "explore.svg.render_p50_us",
                median(&rec.calls_us("explore.svg.render")),
            ),
            ("explore.tsne_ms", rec.median_ms("explore.tsne")),
            ("explore.session.reanalysis_ms", median(&reanalysis)),
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
            ("explored_series", self.data.len().to_string()),
            (
                "svm_split",
                format!("{} / {}", self.train_rows.len(), self.test_rows.len()),
            ),
            (
                "bank",
                "adaptive: 4 scales x 3 measures x 10 shapelets, f32".into(),
            ),
            (
                "setup_pretrain",
                format!(
                    "1 epoch on {} fixed series",
                    s.pretrain_per_class * N_CLASSES
                ),
            ),
            ("clicks_per_session", self.clicks.len().to_string()),
            ("sessions_per_round", "3 z-score + 1 MinMax".into()),
            ("checked_cells_per_session", s.cells.to_string()),
        ]
    }
}

/// Columns `cols` of `x`, in order.
fn select_columns(x: &Tensor, cols: &[usize]) -> Tensor {
    let mut out = Vec::with_capacity(x.rows() * cols.len());
    for r in 0..x.rows() {
        out.extend(cols.iter().map(|&c| x.at2(r, c)));
    }
    Tensor::from_vec(out, [x.rows(), cols.len()])
}
