//! Property tests for the data-parallel trainer's reduction contract (the
//! gradient of a batch loss computed as one monolithic graph over all view
//! pairs must agree with per-pair subgraphs reduced in fixed pair order —
//! the worker/reducer split of `pretrain`; agreement is up to f32
//! round-off, as the two paths sum the same per-pair contributions in
//! different association orders), for its two fan-outs (crops pooled per
//! series, then graphs per pair, give each pair the per-view path's
//! gradients bit for bit), and for the model format's cross-version
//! compatibility: v2 and legacy bare-bank files load as f32, re-save as v3
//! and keep transforms bit-identical.

use crate::config::CslConfig;
use crate::trainer::batch_pair_grads;
use crate::views::sample_views;
use proptest::prelude::*;
use tcsl_autodiff::{Graph, ParamStore, VarId};
use tcsl_data::{Dataset, TimeSeries};
use tcsl_shapelet::diff_transform::{diff_features_batch_via, BoundBank, DiffPath, WindowCache};
use tcsl_shapelet::{Measure, ShapeletBank, ShapeletConfig};
use tcsl_tensor::parallel::parallel_map;
use tcsl_tensor::rng::seeded;
use tcsl_tensor::Tensor;

use crate::loss::{multi_scale_alignment, nt_xent};

fn arb_setup() -> impl Strategy<Value = (ShapeletBank, Dataset, Vec<f32>, f32, u64)> {
    (2usize..5, 10usize..26, 0u64..1000, 0usize..3).prop_map(|(n, t, seed, align_case)| {
        let mut rng = seeded(seed);
        let cfg = ShapeletConfig {
            lengths: vec![3, 5],
            k_per_group: 2,
            measures: Measure::ALL.to_vec(),
            stride: 1,
        };
        let mut bank = ShapeletBank::new(&cfg, 1);
        bank.randomize(&mut rng);
        let series = (0..n)
            .map(|_| TimeSeries::new(Tensor::randn([1, t], &mut rng)))
            .collect();
        let ds = Dataset::unlabeled("prop", series);
        let grains = vec![0.6, 1.0];
        let weight = [0.0f32, 0.5, 1.0][align_case];
        (bank, ds, grains, weight, seed)
    })
}

/// Banks and series for the two-fan-out contract: D from 1 to 3, a scale
/// longer than every grain-0.3 crop (so those crops are zero-padded),
/// strides 1–3 (so crop starts fall off the stride grid).
fn arb_fan_out_setup() -> impl Strategy<Value = (ShapeletBank, Dataset, f32, u64)> {
    (
        1usize..4,
        2usize..5,
        12usize..30,
        1usize..4,
        0u64..1000,
        0usize..2,
    )
        .prop_map(|(d, n, t, stride, seed, align_case)| {
            let mut rng = seeded(seed);
            let cfg = ShapeletConfig {
                lengths: vec![3, 10],
                k_per_group: [2, 3][align_case],
                measures: Measure::ALL.to_vec(),
                stride,
            };
            let mut bank = ShapeletBank::new(&cfg, d);
            bank.randomize(&mut rng);
            let series = (0..n)
                .map(|_| TimeSeries::new(Tensor::randn([d, t], &mut rng)))
                .collect();
            let weight = [0.0f32, 0.5][align_case];
            (bank, Dataset::unlabeled("prop", series), weight, seed)
        })
}

/// The per-view fused features of a batch: each view pooled as one
/// whole-series crop.
fn per_view(g: &mut Graph, bank: &ShapeletBank, bound: &BoundBank, views: &[Tensor]) -> VarId {
    diff_features_batch_via(
        DiffPath::Fused,
        g,
        bank,
        bound,
        views,
        &mut WindowCache::new(),
    )
}

fn mean_nodes(g: &mut Graph, nodes: &[VarId]) -> VarId {
    let mut acc = nodes[0];
    for &n in &nodes[1..] {
        acc = g.add(acc, n);
    }
    g.mul_scalar(acc, 1.0 / nodes.len() as f32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_and_monolithic_gradients_agree(
        (bank, ds, grains, weight, seed) in arb_setup()
    ) {
        let indices: Vec<usize> = (0..ds.len()).collect();
        let temperature = 0.2f32;
        let snapshot: Vec<Tensor> =
            bank.groups().iter().map(|g| g.shapelets.clone()).collect();
        let mut ps = ParamStore::new();
        for (i, v) in snapshot.iter().enumerate() {
            ps.register(format!("group{i}"), v.clone());
        }

        // Identical view pairs for both paths (fixed RNG stream).
        let pairs = {
            let mut rng = seeded(seed ^ 0xBEEF);
            sample_views(&ds, &indices, &grains, 4, &mut rng)
        };

        // (a) Monolithic: every pair on one tape, loss = mean(contrast)
        //     + weight * mean(align), a single backward sweep.
        let mono = {
            let mut g = Graph::new();
            let bound = BoundBank {
                group_vars: snapshot.iter().map(|v| g.param(v.clone())).collect(),
            };
            let mut contrast_terms = Vec::new();
            let mut align_terms = Vec::new();
            for pair in &pairs {
                let za = per_view(&mut g, &bank, &bound, &pair.views_a);
                let zb = per_view(&mut g, &bank, &bound, &pair.views_b);
                contrast_terms.push(nt_xent(&mut g, za, zb, temperature));
                if weight > 0.0 {
                    align_terms.push(multi_scale_alignment(&mut g, &bank, za));
                }
            }
            let contrast = mean_nodes(&mut g, &contrast_terms);
            let loss = if align_terms.is_empty() {
                contrast
            } else {
                let align = mean_nodes(&mut g, &align_terms);
                let weighted = g.mul_scalar(align, weight);
                g.add(contrast, weighted)
            };
            let mut grads = g.backward(loss);
            ps.collect_grads(&mut grads, &bound.group_vars)
        };

        // (b) Data-parallel: one subgraph per pair on worker threads,
        //     per-pair loss = contrast + weight * align, gradients reduced
        //     as the mean in fixed pair order.
        let reduced = {
            let per_pair = parallel_map(pairs.len(), |p| {
                let pair = &pairs[p];
                let mut g = Graph::new();
                let bound = BoundBank { group_vars: ps.bind(&mut g) };
                let za = per_view(&mut g, &bank, &bound, &pair.views_a);
                let zb = per_view(&mut g, &bank, &bound, &pair.views_b);
                let contrast = nt_xent(&mut g, za, zb, temperature);
                let loss = if weight > 0.0 {
                    let align = multi_scale_alignment(&mut g, &bank, za);
                    let weighted = g.mul_scalar(align, weight);
                    g.add(contrast, weighted)
                } else {
                    contrast
                };
                let mut grads = g.backward(loss);
                ps.collect_grads(&mut grads, &bound.group_vars)
            });
            let mut acc = ps.grad_accumulator();
            for grads in &per_pair {
                acc.accumulate(grads);
            }
            acc.into_mean()
        };

        prop_assert_eq!(mono.len(), reduced.len());
        for (gi, (a, b)) in mono.iter().zip(&reduced).enumerate() {
            let diff = a.max_abs_diff(b);
            prop_assert!(
                diff < 1e-4,
                "group {} gradients diverge by {} (monolithic vs reduced)",
                gi,
                diff
            );
        }
    }

    #[test]
    fn two_fan_outs_match_per_view_gradients(
        (bank, ds, weight, seed) in arb_fan_out_setup()
    ) {
        // The trainer pools every crop of a series in one pass per group,
        // then builds each pair's graph from those poolings. Each pair's
        // losses and gradients must be the per-view path's, bit for bit.
        let cfg = CslConfig {
            grains: vec![0.3, 0.7, 1.0],
            min_crop: 2,
            alignment_weight: weight,
            ..CslConfig::default()
        };
        let indices: Vec<usize> = (0..ds.len()).collect();
        let mut ps = ParamStore::new();
        for (i, g) in bank.groups().iter().enumerate() {
            ps.register(format!("group{i}"), g.shapelets.clone());
        }
        let pairs = {
            let mut rng = seeded(seed ^ 0xF00D);
            sample_views(&ds, &indices, &cfg.grains, cfg.min_crop, &mut rng)
        };
        let fanned = batch_pair_grads(&ps, &bank, &cfg, &ds, &indices, &pairs);
        prop_assert_eq!(fanned.len(), pairs.len());
        for (p, (pair, got)) in pairs.iter().zip(&fanned).enumerate() {
            let mut g = Graph::new();
            let bound = BoundBank { group_vars: ps.bind(&mut g) };
            let za = per_view(&mut g, &bank, &bound, &pair.views_a);
            let zb = per_view(&mut g, &bank, &bound, &pair.views_b);
            let contrast = nt_xent(&mut g, za, zb, cfg.temperature);
            let (align, loss) = if weight > 0.0 {
                let align = multi_scale_alignment(&mut g, &bank, za);
                let weighted = g.mul_scalar(align, weight);
                (g.value(align).item(), g.add(contrast, weighted))
            } else {
                (0.0, contrast)
            };
            prop_assert_eq!(got.contrast.to_bits(), g.value(contrast).item().to_bits(), "pair {}", p);
            prop_assert_eq!(got.align.to_bits(), align.to_bits(), "pair {}", p);
            let mut grads = g.backward(loss);
            let want = ps.collect_grads(&mut grads, &bound.group_vars);
            for (gi, (a, b)) in got.grads.iter().zip(&want).enumerate() {
                let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(a), bits(b), "pair {} group {} gradients", p, gi);
            }
        }
    }

    #[test]
    fn old_model_files_resave_as_v3_bit_identically(
        (d, t, seed) in (1usize..3, 12usize..30, 0u64..1000)
    ) {
        // Cross-version contract of the model format: a v2 file and a
        // PR-1-era bare-bank file both load as full-precision f32, re-save
        // under the current v3 header, and the re-saved model transforms
        // bit-identically to (a) the loaded one and (b) a model wrapping
        // the original in-memory bank. f32 weights survive the text round
        // trip exactly (shortest round-trip formatting), so this is
        // equality, not a tolerance.
        use crate::pipeline::TimeCsl;
        use tcsl_data::normalize::Normalization;
        use tcsl_shapelet::BankPrecision;

        let mut rng = seeded(seed);
        let cfg = ShapeletConfig {
            lengths: vec![3, 6],
            k_per_group: 2,
            measures: Measure::ALL.to_vec(),
            stride: 1,
        };
        let mut bank = ShapeletBank::new(&cfg, d);
        bank.randomize(&mut rng);
        let series = TimeSeries::new(Tensor::randn([d, t], &mut rng));

        let norm = [Normalization::ZScore, Normalization::MinMax, Normalization::None]
            [(seed % 3) as usize];
        let legacy = bank.to_text();
        let v2 = format!("tcsl-model v2 normalization={}\n{}", norm.name(), legacy);
        for text in [legacy, v2] {
            let loaded = TimeCsl::from_text(&text).unwrap();
            prop_assert_eq!(loaded.precision(), BankPrecision::Full);
            let original =
                TimeCsl::from_bank_normalized(bank.clone(), loaded.normalization());
            let resaved = loaded.to_text();
            prop_assert!(resaved.starts_with("tcsl-model v3 normalization="));
            prop_assert!(resaved.contains("precision=f32"));
            let reloaded = TimeCsl::from_text(&resaved).unwrap();
            prop_assert_eq!(reloaded.precision(), BankPrecision::Full);
            prop_assert_eq!(reloaded.normalization(), loaded.normalization());
            let a = original.transform_one(&series).unwrap();
            let b = loaded.transform_one(&series).unwrap();
            let c = reloaded.transform_one(&series).unwrap();
            prop_assert_eq!(&a, &b, "load changed features");
            prop_assert_eq!(&b, &c, "v3 re-save changed features");
        }
    }
}
