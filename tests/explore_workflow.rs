//! Integration: the §3 step-4 exploration loop — match, tabular, t-SNE,
//! and iterative re-analysis with selected shapelets.

use timecsl::data::archive;
use timecsl::eval::metrics::classification::accuracy;
use timecsl::prelude::*;

fn session() -> (ExploreSession, Dataset, Dataset) {
    let entry = archive::by_name("GestureSmall").unwrap();
    let (train, test) = archive::generate_split(&entry, 300);
    let csl = CslConfig {
        epochs: 5,
        batch_size: 12,
        seed: 5,
        ..Default::default()
    };
    let (model, _) = TimeCsl::pretrain(&train, None, &csl);
    (
        ExploreSession::new(model, test.clone()).unwrap(),
        train,
        test,
    )
}

#[test]
fn matches_localize_and_agree_with_features() {
    let (session, _, test) = session();
    for col in [0usize, 7, 20] {
        for i in [0usize, 3] {
            let m = session.match_shapelet(i, col).unwrap();
            assert!(m.start + m.len <= test.series(i).len().max(m.len));
            assert!(
                (m.score - session.features().at2(i, col)).abs() < 1e-4,
                "match score and cached feature diverge at series {i}, column {col}"
            );
        }
    }
}

#[test]
fn figure3_panels_render_as_svg() {
    let (session, _, test) = session();
    for svg in [
        session.render_series(0).unwrap(),
        session.render_shapelet(0).unwrap(),
        session.render_match(0, 0).unwrap(),
    ] {
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(!svg.contains("NaN"));
    }
    let tsne = session
        .render_tsne(
            None,
            &TsneConfig {
                iterations: 50,
                ..Default::default()
            },
        )
        .unwrap();
    assert_eq!(tsne.matches("<circle").count(), test.len());
}

#[test]
fn tabular_sorting_ranks_best_matches_first() {
    let (session, _, _) = session();
    // Column 0 is a euclidean feature: ascending sort = best matches first.
    let table = session.tabular(None).unwrap();
    let order = table.sort_by(0, true);
    for w in order.windows(2) {
        assert!(table.value(w[0], 0) <= table.value(w[1], 0));
    }
}

#[test]
fn redo_analysis_with_subset_still_classifies() {
    let (session, train, test) = session();
    // Keep the longest scale only (the demo's exploration insight).
    let scales = session.model().bank().scales();
    let reduced = session.with_scale(*scales.last().unwrap()).unwrap();
    assert!(reduced.features().cols() < session.features().cols());

    let mut svm = LinearSvm::new();
    let ztr = reduced.model().transform(&train).unwrap();
    svm.fit(&ztr, train.labels().unwrap()).unwrap();
    let pred = svm.predict(reduced.features()).unwrap();
    let acc = accuracy(&pred, test.labels().unwrap());
    assert!(acc > 0.5, "subset accuracy only {acc}");
}

#[test]
fn feature_subsets_match_full_model_columns() {
    let (session, _, _) = session();
    // Unsorted and across groups: the reduced bank lays its features out in
    // group order, then in the selection's order within a group.
    let cols = [21usize, 4, 13, 1, 9];
    let bank = session.model().bank();
    let mut order = cols.to_vec();
    order.sort_by_key(|&c| bank.feature_to_shapelet(c).unwrap().0);
    assert_ne!(order, cols, "the selection must leave group order");
    let reduced = session.with_selected(&cols).unwrap();
    assert_eq!(reduced.features().cols(), cols.len());
    for i in 0..session.dataset().len() {
        for (k, &c) in order.iter().enumerate() {
            assert_eq!(
                reduced.features().at2(i, k).to_bits(),
                session.features().at2(i, c).to_bits(),
                "series {i} column {c}"
            );
        }
    }
}
