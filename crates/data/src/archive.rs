//! The prepared dataset archive.
//!
//! The TimeCSL demo ships the 30-dataset UEA archive for the audience to
//! play with; this module is its synthetic stand-in (see DESIGN.md). Each
//! entry names a generator configuration plus train/test sizes, grouped into
//! the three suites the experiments sweep: classification/clustering,
//! segment-level anomaly detection, and long-series representation.

use crate::dataset::Dataset;
use crate::synth::{anomaly, gesture, leadlag, motif, periodic, trend};
use tcsl_tensor::rng::seeded;

/// Which evaluation suite an entry belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Task {
    /// Classification and clustering (E1a, E1b).
    Classification,
    /// Segment-level anomaly detection (E1c).
    AnomalyDetection,
    /// Long-series representation (E1d).
    LongSeries,
}

/// Generator family + configuration.
#[derive(Clone, Debug)]
pub enum Family {
    /// UWave-style gestures.
    Gesture(gesture::GestureConfig),
    /// Embedded motifs.
    Motif(motif::MotifConfig),
    /// Periodic waveforms.
    Periodic(periodic::PeriodicConfig),
    /// Global trends.
    Trend(trend::TrendConfig),
    /// Anomalous segments.
    Anomaly(anomaly::AnomalyConfig),
    /// Cross-variable lead-lag orderings.
    LeadLag(leadlag::LeadLagConfig),
}

/// One named archive dataset.
#[derive(Clone, Debug)]
pub struct ArchiveEntry {
    /// Unique dataset name.
    pub name: &'static str,
    /// Generator family and configuration.
    pub family: Family,
    /// Training series per class (total for anomaly entries).
    pub n_train: usize,
    /// Test series per class (total for anomaly entries).
    pub n_test: usize,
    /// Which suite the entry belongs to.
    pub task: Task,
}

/// All archive entries.
pub fn all_entries() -> Vec<ArchiveEntry> {
    use Family::*;
    use Task::*;
    let mut v = vec![
        ArchiveEntry {
            name: "GestureFull",
            family: Gesture(gesture::GestureConfig {
                n_classes: 8,
                t: 315,
                noise: 0.35,
            }),
            n_train: 10,
            n_test: 10,
            task: Classification,
        },
        ArchiveEntry {
            name: "GestureSmall",
            family: Gesture(gesture::GestureConfig {
                n_classes: 4,
                t: 160,
                noise: 0.3,
            }),
            n_train: 15,
            n_test: 15,
            task: Classification,
        },
        ArchiveEntry {
            name: "MotifEasy",
            family: Motif(motif::MotifConfig {
                n_classes: 2,
                d: 1,
                t: 128,
                motif_len: 24,
                snr: 2.5,
                background: motif::Background::WhiteNoise,
                occurrences: 1,
            }),
            n_train: 20,
            n_test: 20,
            task: Classification,
        },
        ArchiveEntry {
            name: "MotifMulti",
            family: Motif(motif::MotifConfig {
                n_classes: 5,
                d: 2,
                t: 160,
                motif_len: 28,
                snr: 2.0,
                background: motif::Background::WhiteNoise,
                occurrences: 1,
            }),
            n_train: 12,
            n_test: 12,
            task: Classification,
        },
        ArchiveEntry {
            name: "MotifHard",
            family: Motif(motif::MotifConfig {
                n_classes: 3,
                d: 1,
                t: 128,
                motif_len: 20,
                snr: 1.2,
                background: motif::Background::RandomWalk,
                occurrences: 1,
            }),
            n_train: 20,
            n_test: 20,
            task: Classification,
        },
        ArchiveEntry {
            name: "MotifRepeat",
            family: Motif(motif::MotifConfig {
                n_classes: 3,
                d: 1,
                t: 192,
                motif_len: 24,
                snr: 2.0,
                background: motif::Background::WhiteNoise,
                occurrences: 2,
            }),
            n_train: 15,
            n_test: 15,
            task: Classification,
        },
        ArchiveEntry {
            name: "PeriodicWave",
            family: Periodic(periodic::PeriodicConfig {
                n_classes: 4,
                d: 1,
                t: 256,
                period: 64,
                noise: 0.3,
            }),
            n_train: 15,
            n_test: 15,
            task: Classification,
        },
        ArchiveEntry {
            name: "PeriodicMulti",
            family: Periodic(periodic::PeriodicConfig {
                n_classes: 3,
                d: 3,
                t: 128,
                period: 32,
                noise: 0.4,
            }),
            n_train: 15,
            n_test: 15,
            task: Classification,
        },
        ArchiveEntry {
            name: "TrendShapes",
            family: Trend(trend::TrendConfig {
                n_classes: 4,
                d: 1,
                t: 160,
                noise: 0.4,
            }),
            n_train: 15,
            n_test: 15,
            task: Classification,
        },
        ArchiveEntry {
            name: "TrendNoisy",
            family: Trend(trend::TrendConfig {
                n_classes: 3,
                d: 1,
                t: 160,
                noise: 0.8,
            }),
            n_train: 20,
            n_test: 20,
            task: Classification,
        },
        ArchiveEntry {
            name: "LeadLag3",
            family: LeadLag(leadlag::LeadLagConfig::default()),
            n_train: 15,
            n_test: 15,
            task: Classification,
        },
        ArchiveEntry {
            name: "AnomMixed",
            family: Anomaly(anomaly::AnomalyConfig {
                severity: 0.45,
                noise: 0.3,
                ..Default::default()
            }),
            n_train: 150,
            n_test: 150,
            task: AnomalyDetection,
        },
        ArchiveEntry {
            name: "AnomSpike",
            family: Anomaly(anomaly::AnomalyConfig {
                kinds: vec![anomaly::AnomalyKind::SpikeBurst],
                severity: 0.35,
                noise: 0.35,
                ..Default::default()
            }),
            n_train: 120,
            n_test: 120,
            task: AnomalyDetection,
        },
        ArchiveEntry {
            name: "AnomFreq",
            family: Anomaly(anomaly::AnomalyConfig {
                kinds: vec![anomaly::AnomalyKind::FrequencyShift],
                anomaly_frac: 0.2,
                severity: 0.5,
                noise: 0.3,
                ..Default::default()
            }),
            n_train: 120,
            n_test: 120,
            task: AnomalyDetection,
        },
    ];
    for (name, t, motif_len, n) in [
        ("LongMotif1k", 1024usize, 64usize, 8usize),
        ("LongMotif2k", 2048, 96, 8),
        ("LongMotif4k", 4096, 128, 6),
    ] {
        v.push(ArchiveEntry {
            name,
            family: Motif(motif::MotifConfig {
                n_classes: 2,
                d: 1,
                t,
                motif_len,
                snr: 2.0,
                background: motif::Background::WhiteNoise,
                occurrences: 2,
            }),
            n_train: n,
            n_test: n,
            task: LongSeries,
        });
    }
    v
}

/// Entries in the classification/clustering suite.
pub fn classification_suite() -> Vec<ArchiveEntry> {
    all_entries()
        .into_iter()
        .filter(|e| e.task == Task::Classification)
        .collect()
}

/// Entries in the anomaly-detection suite.
pub fn anomaly_suite() -> Vec<ArchiveEntry> {
    all_entries()
        .into_iter()
        .filter(|e| e.task == Task::AnomalyDetection)
        .collect()
}

/// Entries in the long-series suite.
pub fn long_suite() -> Vec<ArchiveEntry> {
    all_entries()
        .into_iter()
        .filter(|e| e.task == Task::LongSeries)
        .collect()
}

/// Looks an entry up by name.
pub fn by_name(name: &str) -> Option<ArchiveEntry> {
    all_entries().into_iter().find(|e| e.name == name)
}

/// Looks an entry up by name, or returns a
/// [`TcslError::Config`](tcsl_error::TcslError::Config) that lists every
/// available dataset — the error the CLI shows for a typo'd dataset name.
pub fn require(name: &str) -> tcsl_error::TcslResult<ArchiveEntry> {
    by_name(name).ok_or_else(|| {
        let names: Vec<&str> = all_entries().iter().map(|e| e.name).collect();
        tcsl_error::TcslError::config(format!(
            "unknown dataset '{name}'; available: {}",
            names.join(", ")
        ))
    })
}

/// Generates the `(train, test)` split of an entry, deterministically in
/// `seed`. Class-structured families share their class prototypes (e.g.
/// motifs) between the splits, as a real archive would.
pub fn generate_split(entry: &ArchiveEntry, seed: u64) -> (Dataset, Dataset) {
    let mut rng = seeded(seed);
    match &entry.family {
        Family::Anomaly(cfg) => {
            let total = anomaly::generate(cfg, entry.n_train + entry.n_test, &mut rng);
            let train_idx: Vec<usize> = (0..entry.n_train).collect();
            let test_idx: Vec<usize> = (entry.n_train..total.len()).collect();
            (
                total.subset(&train_idx, format!("{}-train", entry.name)),
                total.subset(&test_idx, format!("{}-test", entry.name)),
            )
        }
        family => {
            let per_class = entry.n_train + entry.n_test;
            let total = match family {
                Family::Gesture(cfg) => gesture::generate(cfg, per_class, &mut rng),
                Family::Motif(cfg) => motif::generate(cfg, per_class, &mut rng),
                Family::Periodic(cfg) => periodic::generate(cfg, per_class, &mut rng),
                Family::Trend(cfg) => trend::generate(cfg, per_class, &mut rng),
                Family::LeadLag(cfg) => leadlag::generate(cfg, per_class, &mut rng),
                // Invariant: the anomaly family took the branch above.
                #[allow(clippy::disallowed_macros)]
                Family::Anomaly(_) => unreachable!("handled above"),
            };
            // Generators emit class blocks of `per_class` consecutive series;
            // the first `n_train` of each block form the training split.
            let n_classes = total.n_classes();
            let mut train_idx = Vec::with_capacity(n_classes * entry.n_train);
            let mut test_idx = Vec::with_capacity(n_classes * entry.n_test);
            for c in 0..n_classes {
                let base = c * per_class;
                train_idx.extend(base..base + entry.n_train);
                test_idx.extend(base + entry.n_train..base + per_class);
            }
            (
                total.subset(&train_idx, format!("{}-train", entry.name)),
                total.subset(&test_idx, format!("{}-test", entry.name)),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_consistent() {
        let entries = all_entries();
        assert!(entries.len() >= 15);
        // Unique names.
        let mut names: Vec<&str> = entries.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), entries.len(), "duplicate archive names");
        assert!(classification_suite().len() >= 11);
        assert_eq!(anomaly_suite().len(), 3);
        assert_eq!(long_suite().len(), 3);
    }

    #[test]
    fn by_name_round_trip() {
        assert!(by_name("GestureFull").is_some());
        assert!(by_name("NoSuchDataset").is_none());
    }

    #[test]
    fn require_lists_available_names_on_unknown() {
        assert!(require("MotifEasy").is_ok());
        let err = require("NoSuchDataset").unwrap_err();
        assert_eq!(err.class(), tcsl_error::ErrorClass::Config);
        let msg = err.to_string();
        assert!(msg.contains("NoSuchDataset"), "{msg}");
        assert!(msg.contains("GestureFull"), "names listed: {msg}");
        assert!(msg.contains("MotifEasy"), "names listed: {msg}");
    }

    #[test]
    fn split_sizes_match_entry() {
        let entry = by_name("MotifEasy").unwrap();
        let (train, test) = generate_split(&entry, 42);
        assert_eq!(train.len(), 2 * entry.n_train);
        assert_eq!(test.len(), 2 * entry.n_test);
        assert_eq!(train.n_classes(), 2);
        assert_eq!(test.n_classes(), 2);
    }

    #[test]
    fn split_is_deterministic_and_disjoint_across_seeds() {
        let entry = by_name("PeriodicWave").unwrap();
        let (a_train, _) = generate_split(&entry, 7);
        let (b_train, _) = generate_split(&entry, 7);
        assert_eq!(a_train.series(0), b_train.series(0));
        let (c_train, _) = generate_split(&entry, 8);
        assert_ne!(a_train.series(0), c_train.series(0));
    }

    #[test]
    fn anomaly_split_total_counts() {
        let entry = by_name("AnomSpike").unwrap();
        let (train, test) = generate_split(&entry, 1);
        assert_eq!(train.len(), 120);
        assert_eq!(test.len(), 120);
        // Both halves should contain anomalies.
        assert!(test.labels().unwrap().contains(&1));
    }

    #[test]
    fn long_entries_have_long_series() {
        let entry = by_name("LongMotif2k").unwrap();
        let (train, _) = generate_split(&entry, 1);
        assert_eq!(train.series(0).len(), 2048);
    }
}
