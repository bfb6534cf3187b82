//! Property tests: fused-kernel/oracle agreement, fast-path/diff-path
//! agreement, measure axioms, and the quantized-bank error budget.

use crate::bank::ShapeletBank;
use crate::config::ShapeletConfig;
use crate::diff_transform::oracle::diff_features_oracle;
use crate::diff_transform::tests::{bind, features};
use crate::fused::{pool_crops_in, pool_measure, ScaleWindows};
use crate::measure::Measure;
use crate::transform::{transform_dataset, transform_series, transform_series_oracle, windows_for};
use proptest::prelude::*;
use tcsl_autodiff::Graph;
use tcsl_data::{Dataset, TimeSeries};
use tcsl_tensor::quant::QuantScheme;
use tcsl_tensor::rng::seeded;
use tcsl_tensor::Tensor;

fn arb_setup() -> impl Strategy<Value = (ShapeletBank, TimeSeries)> {
    (1usize..3, 8usize..24, 0u64..1000).prop_map(|(d, t, seed)| {
        let mut rng = seeded(seed);
        let cfg = ShapeletConfig {
            lengths: vec![3, 5],
            k_per_group: 2,
            measures: Measure::ALL.to_vec(),
            stride: 1,
        };
        let mut bank = ShapeletBank::new(&cfg, d);
        bank.randomize(&mut rng);
        let series = TimeSeries::new(Tensor::randn([d, t], &mut rng));
        (bank, series)
    })
}

/// Wider shape coverage for the fused-kernel properties: random variable
/// count, series length (including series *shorter* than the shapelets, the
/// padding edge case), shapelet length and stride, all measures.
fn arb_fused_setup() -> impl Strategy<Value = (ShapeletBank, TimeSeries)> {
    (1usize..4, 2usize..48, 2usize..10, 1usize..4, 0u64..1000).prop_map(
        |(d, t, len, stride, seed)| {
            let mut rng = seeded(seed);
            let cfg = ShapeletConfig {
                lengths: vec![len],
                k_per_group: 3,
                measures: Measure::ALL.to_vec(),
                stride,
            };
            let mut bank = ShapeletBank::new(&cfg, d);
            bank.randomize(&mut rng);
            let series = TimeSeries::new(Tensor::randn([d, t], &mut rng));
            (bank, series)
        },
    )
}

/// Banks for the feature-independence contract: a scale on each side of
/// the 64-step SIMD threshold, `K` not a multiple of 4 (so every group ends
/// in a leftover block), strides 1–3, at f32 or binary16 taps.
fn arb_subset_setup() -> impl Strategy<Value = (ShapeletBank, TimeSeries)> {
    (
        (1usize..4, 3usize..64, 64usize..140),
        (0usize..6, 1usize..4, 20usize..220),
        (0usize..2, 0u64..1000),
    )
        .prop_map(|((d, short, long), (ki, stride, t), (half, seed))| {
            let mut rng = seeded(seed);
            let cfg = ShapeletConfig {
                lengths: vec![short, long],
                k_per_group: [1, 2, 3, 5, 6, 7][ki],
                measures: Measure::ALL.to_vec(),
                stride,
            };
            let mut bank = ShapeletBank::new(&cfg, d);
            bank.randomize(&mut rng);
            if half == 1 {
                bank.quantize(QuantScheme::F16).unwrap();
            }
            let series = TimeSeries::new(Tensor::randn([d, t], &mut rng));
            (bank, series)
        })
}

/// Crops of a `t`-step series for the one-pass pooling contract, from
/// `(kind, a, b)` draws: a random crop, a copy of the previous crop, a crop
/// shorter than `short_len` (zero-padded at that scale), the whole series,
/// or a short crop in the last quarter (disjoint from most others). Random
/// starts fall off a stride > 1 grid as often as on it.
fn crops_of(t: usize, short_len: usize, draws: &[(usize, usize, usize)]) -> Vec<(usize, usize)> {
    let mut crops: Vec<(usize, usize)> = Vec::new();
    for &(kind, a, b) in draws {
        let crop = match (kind, crops.last()) {
            (1, Some(&prev)) => prev,
            (2, _) => {
                let len = 1 + a % short_len.min(t);
                (b % (t - len + 1), len)
            }
            (3, _) => (0, t),
            (4, _) => {
                let len = 1 + a % (t / 4).max(1);
                (t - len - b % (t / 4 - len + 1).max(1), len)
            }
            _ => {
                let len = 1 + a % t;
                (b % (t - len + 1), len)
            }
        };
        crops.push(crop);
    }
    crops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pooling_crops_in_one_pass_matches_each_crop_alone(
        (bank, series) in arb_subset_setup(),
        draws in collection::vec((0usize..5, 0usize..10_000, 0usize..10_000), 1..7)
    ) {
        // Training takes each crop's window state from its place in the
        // series' time-major buffer and pools every crop from one scan of
        // the series' windows; each crop must get exactly the window norms,
        // pooled bits and best windows it gets pooled alone over its own
        // copy.
        let t = series.len();
        let short_len = bank.groups().iter().map(|g| g.len).min().unwrap();
        let crops = crops_of(t, short_len, &draws);
        let values: Vec<Tensor> = crops
            .iter()
            .map(|&(start, len)| tcsl_tensor::window::window_at(series.values(), start, len))
            .collect();
        let pre = bank.precomputed();
        let buffer = std::sync::Arc::new(tcsl_tensor::window::time_major(series.values(), 0));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (gi, g) in bank.groups().iter().enumerate() {
            let placed: Vec<ScaleWindows> = crops
                .iter()
                .map(|&(start, len)| ScaleWindows::crop(&buffer, start, len, g.len, g.stride))
                .collect();
            let views: Vec<(usize, &ScaleWindows)> =
                crops.iter().zip(&placed).map(|(&(start, _), sw)| (start, sw)).collect();
            let shared = pool_crops_in(&buffer, &views, g.measure, &pre[gi]);
            prop_assert_eq!(shared.len(), crops.len());
            for (c, ((pooled, args), v)) in shared.iter().zip(&values).enumerate() {
                let alone = ScaleWindows::new(v, g.len, g.stride);
                prop_assert_eq!(bits(&placed[c].sq_norms), bits(&alone.sq_norms), "crop {:?}", crops[c]);
                prop_assert_eq!(bits(&placed[c].inv_norms), bits(&alone.inv_norms), "crop {:?}", crops[c]);
                let (want, want_args) = pool_measure(&alone, g.measure, &pre[gi]);
                prop_assert_eq!(bits(pooled), bits(&want), "group {} crop {:?}", gi, crops[c]);
                prop_assert_eq!(args, &want_args, "group {} crop {:?} best windows", gi, crops[c]);
            }
        }
    }

    #[test]
    fn features_depend_on_their_shapelet_alone(
        (bank, series) in arb_subset_setup(), mask in 0u64..u64::MAX
    ) {
        // A feature is its shapelet's best match, whichever rows share its
        // kernel block: every subset of the bank reproduces the gathered
        // columns and every localization reproduces its feature, bit for
        // bit, at both tap widths.
        let feats = transform_series(&bank, &series).unwrap();
        let masked: Vec<usize> = (0..feats.len()).filter(|c| mask >> (c % 64) & 1 == 1).collect();
        let mut subsets: Vec<Vec<usize>> = (0..feats.len()).map(|c| vec![c]).collect();
        if !masked.is_empty() {
            subsets.push(masked);
        }
        for cols in &subsets {
            let sub = transform_series(&bank.subset_columns(cols).unwrap(), &series).unwrap();
            for (&c, &f) in cols.iter().zip(&sub) {
                prop_assert_eq!(f.to_bits(), feats[c].to_bits(), "column {} of subset {:?}", c, cols);
            }
        }
        for (c, &f) in feats.iter().enumerate() {
            let m = crate::matching::best_match_for_feature(&bank, c, &series).unwrap();
            prop_assert_eq!(m.score.to_bits(), f.to_bits(), "column {} localization", c);
        }
    }

    #[test]
    fn fast_and_diff_paths_agree((bank, series) in arb_setup()) {
        let fast = transform_series(&bank, &series).unwrap();
        let mut g = Graph::new();
        let bound = bind(&mut g, &bank);
        let feats = features(&mut g, &bank, &bound, series.values());
        let slow = g.value(feats);
        for (i, (&f, &s)) in fast.iter().zip(slow.as_slice()).enumerate() {
            prop_assert!((f - s).abs() < 1e-3, "feature {}: {} vs {}", i, f, s);
        }
    }

    #[test]
    fn euclidean_features_are_nonnegative((bank, series) in arb_setup()) {
        let feats = transform_series(&bank, &series).unwrap();
        for (col, &f) in feats.iter().enumerate() {
            let (gi, _) = bank.feature_to_shapelet(col).unwrap();
            if bank.groups()[gi].measure == Measure::Euclidean {
                prop_assert!(f >= 0.0, "negative euclidean feature {}", f);
            }
            if bank.groups()[gi].measure == Measure::Cosine {
                prop_assert!((-1.0001..=1.0001).contains(&f), "cosine out of range {}", f);
            }
        }
    }

    #[test]
    fn transform_is_deterministic((bank, series) in arb_setup()) {
        let a = transform_series(&bank, &series).unwrap();
        let b = transform_series(&bank, &series).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn match_scores_equal_features((bank, series) in arb_setup()) {
        let feats = transform_series(&bank, &series).unwrap();
        for col in (0..bank.repr_dim()).step_by(5) {
            let m = crate::matching::best_match_for_feature(&bank, col, &series).unwrap();
            prop_assert!((m.score - feats[col]).abs() < 1e-4);
        }
    }

    #[test]
    fn fused_transform_agrees_with_oracle((bank, series) in arb_fused_setup()) {
        let fast = transform_series(&bank, &series).unwrap();
        let slow = transform_series_oracle(&bank, &series);
        prop_assert_eq!(fast.len(), slow.len());
        for (i, (&f, &s)) in fast.iter().zip(&slow).enumerate() {
            prop_assert!((f - s).abs() < 1e-4, "feature {}: fused {} vs oracle {}", i, f, s);
        }
    }

    #[test]
    fn fused_engines_agree_with_oracle_pooling((bank, series) in arb_fused_setup()) {
        // The streaming engine must reproduce the oracle's pooled score
        // (≤1e-4) and its exact best-window index, for every measure.
        let pre = bank.precomputed();
        for (gi, g) in bank.groups().iter().enumerate() {
            let sw = ScaleWindows::new(series.values(), g.len, g.stride);
            let windows = windows_for(series.values(), g.len, g.stride);
            let scores = g.measure.score_matrix(&windows, &g.shapelets);
            let (opooled, oargs) = g.measure.pool(&scores);
            let (pooled, args) = pool_measure(&sw, g.measure, &pre[gi]);
            for k in 0..g.k() {
                prop_assert!(
                    (pooled[k] - opooled.as_slice()[k]).abs() < 1e-4,
                    "{:?} k={}: {} vs oracle {}", g.measure, k, pooled[k], opooled.as_slice()[k]
                );
                prop_assert_eq!(args[k], oargs[k], "{:?} k={} argmin", g.measure, k);
            }
        }
    }

    #[test]
    fn fused_diff_grads_match_oracle_grads((bank, series) in arb_fused_setup()) {
        // The custom op's analytic backward must reproduce the gradients
        // defined by the oracle graph's composed backward rules, for any
        // shape, stride and measure — same loss, same parameters.
        let grads_of = |use_oracle: bool| {
            let mut g = Graph::new();
            let bound = bind(&mut g, &bank);
            let feats = if use_oracle {
                diff_features_oracle(&mut g, &bank, &bound, series.values())
            } else {
                features(&mut g, &bank, &bound, series.values())
            };
            let sq = g.square(feats);
            let loss = g.mean_all(sq);
            let grads = g.backward(loss);
            bound
                .group_vars
                .iter()
                .map(|&id| grads.get(id).cloned())
                .collect::<Vec<_>>()
        };
        let fused = grads_of(false);
        let oracle = grads_of(true);
        for (gi, (f, o)) in fused.iter().zip(&oracle).enumerate() {
            let (f, o) = (f.as_ref().unwrap(), o.as_ref().unwrap());
            for (i, (&fv, &ov)) in f.as_slice().iter().zip(o.as_slice()).enumerate() {
                prop_assert!(
                    (fv - ov).abs() < 1e-3,
                    "group {} grad {}: fused {} vs oracle {}", gi, i, fv, ov
                );
            }
        }
    }

    #[test]
    fn quantized_transform_stays_within_error_budget((bank, series) in arb_fused_setup()) {
        // The quantized transform must stay within an *analytically derived*
        // tolerance of the full-precision transform on the original bank.
        // Per shapelet row, ε = max measured tap perturbation; per window,
        // |Δ(w·s)| ≤ ‖w‖₁·ε ≤ width·M·ε with M = max |series value|, and
        // min/max pooling contracts: |pool f − pool g| ≤ max |f − g|.
        let full = transform_series(&bank, &series).unwrap();
        let m_series = series
            .values()
            .as_slice()
            .iter()
            .fold(0f32, |a, &x| a.max(x.abs()));
        let mut qb = bank.clone();
        qb.quantize(QuantScheme::F16).unwrap();
        let qfeats = transform_series(&qb, &series).unwrap();
        for (col, (&f, &q)) in full.iter().zip(&qfeats).enumerate() {
            let (gi, k) = bank.feature_to_shapelet(col).unwrap();
            let g = &bank.groups()[gi];
            let orig = g.shapelets.row(k);
            let deq = qb.groups()[gi].shapelets.row(k);
            let eps = orig
                .iter()
                .zip(deq)
                .map(|(&a, &b)| (a - b).abs())
                .fold(0f32, f32::max);
            let a_max = orig.iter().fold(0f32, |a, &x| a.max(x.abs()));
            let s_norm = orig.iter().map(|&x| x * x).sum::<f32>().sqrt();
            let width = (bank.d * g.len) as f32;
            // Additive slack for f32 kernel rounding (both paths
            // accumulate in f32 with different association).
            let slack = 1e-4 * (1.0 + f.abs());
            let tol = match g.measure {
                // |√a − √b| ≤ √|a − b|; the inner /width cancels one
                // width factor of the Δ bounds.
                Measure::Euclidean => {
                    (2.0 * m_series * eps + 2.0 * a_max * eps + eps * eps).sqrt() + slack
                }
                // |cos(w, s_q) − cos(w, s)| ≤ 2·‖Δs‖ / ‖s‖.
                Measure::Cosine => {
                    2.0 * width.sqrt() * eps / s_norm.max(1e-6) + slack
                }
                Measure::CrossCorrelation => m_series * eps + slack,
            };
            prop_assert!(
                (f - q).abs() <= tol,
                "col {col} ({:?}): quant {q} vs full {f}, |Δ|={} > tol {tol}",
                g.measure, (f - q).abs()
            );
        }
    }

    #[test]
    fn quantized_transform_localizes_planted_motifs(
        (len, t, seed) in (4usize..10, 40usize..80, 0u64..1000)
    ) {
        // Argmin agreement on data with a planted ground truth: the exact
        // copy of a shapelet buried in a hostile background must be located
        // at the same window by the f32 and the quantized bank.
        let mut rng = seeded(seed);
        let cfg = ShapeletConfig {
            lengths: vec![len],
            k_per_group: 1,
            measures: vec![Measure::Euclidean],
            stride: 1,
        };
        let mut bank = ShapeletBank::new(&cfg, 1);
        bank.randomize(&mut rng);
        let pos = (seed as usize) % (t - len);
        let planted: Vec<f32> = bank.groups()[0].shapelets.row(0).to_vec();
        let mut vals = vec![9.0f32; t];
        vals[pos..pos + len].copy_from_slice(&planted);
        let series = TimeSeries::univariate(vals);
        let full = crate::matching::best_match(&bank, 0, 0, &series);
        prop_assert_eq!(full.start, pos);
        let mut qb = bank.clone();
        qb.quantize(QuantScheme::F16).unwrap();
        let m = crate::matching::best_match(&qb, 0, 0, &series);
        prop_assert_eq!(m.start, pos, "seed {}", seed);
        prop_assert!(m.score < 1e-2, "planted match score {}", m.score);
    }

    #[test]
    fn quantized_batch_transform_matches_single_series(
        (bank, series) in arb_fused_setup(), n in 2usize..5
    ) {
        // Per-series independence at every precision: the (worker-pool)
        // batch transform must be bit-identical to transforming each series
        // alone, so features cannot depend on TCSL_THREADS or batch
        // composition.
        let all: Vec<TimeSeries> = (0..n)
            .map(|i| {
                let mut rng = seeded(i as u64 ^ 0xD15);
                TimeSeries::new(Tensor::randn(series.values().shape().clone(), &mut rng))
            })
            .collect();
        let ds = Dataset::unlabeled("quant-batch", all.clone());
        let mut qb = bank.clone();
        qb.quantize(QuantScheme::F16).unwrap();
        let batch = transform_dataset(&qb, &ds).unwrap();
        for (i, s) in all.iter().enumerate() {
            let one = transform_series(&qb, s).unwrap();
            prop_assert_eq!(
                batch.row(i), one.as_slice(),
                "series {} batch/single mismatch", i
            );
        }
    }

    #[test]
    fn best_match_is_the_pooled_window((bank, series) in arb_fused_setup()) {
        // Localization must point at exactly the window whose score the
        // transform reported — same index, bit-identical score.
        let pre = bank.precomputed();
        for (gi, g) in bank.groups().iter().enumerate() {
            let sw = ScaleWindows::new(series.values(), g.len, g.stride);
            let (pooled, args) = pool_measure(&sw, g.measure, &pre[gi]);
            for k in 0..g.k() {
                let m = crate::matching::best_match(&bank, gi, k, &series);
                prop_assert_eq!(m.start, args[k] * g.stride);
                prop_assert_eq!(m.score, pooled[k]);
            }
        }
    }
}
