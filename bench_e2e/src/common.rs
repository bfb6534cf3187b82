//! Inputs, scoring and output checks shared by the workloads.

use tcsl_analyzers::classify::LinearSvm;
use tcsl_analyzers::cluster::KMeans;
use tcsl_analyzers::{Classifier, Clusterer};
use tcsl_data::synth::gesture::{self, GestureConfig};
use tcsl_data::{io, Dataset};
use tcsl_shapelet::ShapeletBank;
use tcsl_tensor::rng::seeded;
use tcsl_tensor::Tensor;

/// Classes of the UWave-style gesture family.
pub const N_CLASSES: usize = 8;

/// Derives an independent stream seed for one input of a workload
/// (SplitMix64 of the workload seed and a per-input tag).
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `per_class` UWave-style gestures per class (D = 3, T = 315).
pub fn gestures(seed: u64, per_class: usize) -> Dataset {
    gesture::generate(&GestureConfig::default(), per_class, &mut seeded(seed))
}

/// Bitwise equality of two datasets: series shapes, every sample's bits,
/// and labels.
pub fn same_dataset(a: &Dataset, b: &Dataset) -> bool {
    a.len() == b.len()
        && a.labels() == b.labels()
        && a.all_series().iter().zip(b.all_series()).all(|(x, y)| {
            x.values().shape() == y.values().shape() && same_bits(x.values(), y.values())
        })
}

/// Bitwise equality of two tensors' values.
pub fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.as_slice().len() == b.as_slice().len()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Bitwise equality of two banks' taps, group by group.
pub fn same_bank(a: &ShapeletBank, b: &ShapeletBank) -> bool {
    a.d == b.d
        && a.groups().len() == b.groups().len()
        && a.groups().iter().zip(b.groups()).all(|(x, y)| {
            x.len == y.len && x.measure == y.measure && same_bits(&x.shapelets, &y.shapelets)
        })
}

/// Round-trips a dataset through the long-CSV format, as a user's file
/// would reach the program, and checks that parsing gives back the
/// generated series.
pub fn via_csv(ds: &Dataset) -> Result<Dataset, String> {
    let parsed = io::from_csv(&ds.name, &io::to_csv(ds)).map_err(|e| e.to_string())?;
    if !same_dataset(&parsed, ds) {
        return Err(format!(
            "parsed CSV of {} differs from the generated series",
            ds.name
        ));
    }
    Ok(parsed)
}

/// Held-out quality of a representation: freeze-mode `LinearSvm`
/// accuracy and `KMeans` NMI.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quality {
    /// Accuracy of a `LinearSvm` fit on the training rows, on the test rows.
    pub accuracy: f64,
    /// NMI of `KMeans` (k = number of classes) on the clustered rows.
    pub nmi: f64,
}

impl Quality {
    /// Chance accuracy of the gesture family is 1/8 and chance NMI is 0;
    /// a working pipeline sits far above both.
    pub fn check(&self, what: &str) -> Result<(), String> {
        let chance = 1.0 / N_CLASSES as f64;
        if self.accuracy >= 3.0 * chance && self.nmi >= 0.25 {
            Ok(())
        } else {
            Err(format!(
                "{what}: accuracy {:.3} / NMI {:.3} is not far above chance ({chance:.3} / 0)",
                self.accuracy, self.nmi
            ))
        }
    }
}

/// Freeze-mode `LinearSvm`: fit on `(x_train, y_train)`, predict `x_test`.
pub fn svm_predict(x_train: &Tensor, y_train: &[usize], x_test: &Tensor) -> Vec<usize> {
    let mut svm = LinearSvm::new();
    svm.fit(x_train, y_train)
        .expect("benchmark features are finite and labeled");
    svm.predict(x_test)
        .expect("benchmark features are finite and labeled")
}

/// `KMeans` assignments of `x` into `k` clusters.
pub fn kmeans(x: &Tensor, k: usize) -> Vec<usize> {
    KMeans::new(k)
        .fit_predict(x)
        .expect("benchmark features are finite")
}

/// Scores predictions and assignments against the truth.
pub fn quality(pred: &[usize], assign: &[usize], truth: &[usize]) -> Quality {
    Quality {
        accuracy: tcsl_eval::metrics::classification::accuracy(pred, truth),
        nmi: tcsl_eval::metrics::clustering::nmi(assign, truth),
    }
}

/// Rows of `x` at `rows`, in order.
pub fn take_rows(x: &Tensor, rows: &[usize]) -> Tensor {
    let mut out = Vec::with_capacity(rows.len() * x.cols());
    for &r in rows {
        out.extend_from_slice(x.row(r));
    }
    Tensor::from_vec(out, [rows.len(), x.cols()])
}

/// Modeled bytes of tap and window traffic of one fused transform call on
/// a series of `t` steps: every window reads all `K` tap rows at the
/// bank's tap width, and is itself read once per 4-shapelet block. This is
/// the same model `bench_quant` and `bench_transform` report as
/// `bytes_streamed_per_series`; rates built on it are computed, not
/// measured, traffic.
pub fn computed_bytes_per_series(bank: &ShapeletBank, t: usize) -> f64 {
    let tap_bytes = bank
        .precision()
        .scheme()
        .map_or(4, tcsl_tensor::quant::QuantScheme::bytes_per_tap);
    bank.groups()
        .iter()
        .map(|g| {
            let width = bank.d * g.len;
            let n = tcsl_tensor::window::count_windows(t.max(g.len), g.len, g.stride);
            (n * g.k() * width * tap_bytes + n * g.k().div_ceil(4) * width * 4) as f64
        })
        .sum()
}
