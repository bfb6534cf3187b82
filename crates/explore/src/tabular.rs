//! The tabular feature view (Fig. 3d): shapelet-based features of a dataset
//! with per-column sorting — "sort the time series according to each of the
//! shapelets".

use tcsl_tensor::Tensor;

/// A feature table: named columns over series rows.
#[derive(Clone, Debug)]
pub struct FeatureTable {
    column_names: Vec<String>,
    features: Tensor,
}

impl FeatureTable {
    /// Builds a table from a feature matrix and its column names.
    pub fn new(column_names: Vec<String>, features: Tensor) -> Self {
        assert_eq!(
            column_names.len(),
            features.cols(),
            "one name per feature column required"
        );
        FeatureTable {
            column_names,
            features,
        }
    }

    /// Column names.
    pub fn column_names(&self) -> &[String] {
        &self.column_names
    }

    /// Number of series rows.
    pub fn n_rows(&self) -> usize {
        self.features.rows()
    }

    /// Restricts to a subset of columns.
    pub fn select_columns(&self, columns: &[usize]) -> FeatureTable {
        assert!(!columns.is_empty(), "select at least one column");
        FeatureTable {
            column_names: columns
                .iter()
                .map(|&c| self.column_names[c].clone())
                .collect(),
            features: self.features.select_cols(columns),
        }
    }

    /// Row order sorted by one column (ascending or descending) — the
    /// demo's per-shapelet sort. Returns series indices.
    pub fn sort_by(&self, column: usize, ascending: bool) -> Vec<usize> {
        assert!(
            column < self.features.cols(),
            "column {column} out of range"
        );
        let mut order: Vec<usize> = (0..self.features.rows()).collect();
        #[allow(clippy::disallowed_methods)] // features come from a validated transform
        order.sort_by(|&a, &b| {
            let cmp = self
                .features
                .at2(a, column)
                .partial_cmp(&self.features.at2(b, column))
                .expect("finite features");
            if ascending {
                cmp
            } else {
                cmp.reverse()
            }
        });
        order
    }

    /// Value at `(row, column)`.
    pub fn value(&self, row: usize, column: usize) -> f32 {
        self.features.at2(row, column)
    }

    /// The raw feature matrix.
    pub fn matrix(&self) -> &Tensor {
        &self.features
    }

    /// Renders the table (optionally reordered) as aligned plain text with
    /// a `series` id column.
    pub fn render(&self, order: Option<&[usize]>) -> String {
        let default_order: Vec<usize> = (0..self.n_rows()).collect();
        let order = order.unwrap_or(&default_order);
        let mut headers = vec!["series".to_string()];
        headers.extend(self.column_names.iter().cloned());
        let widths: Vec<usize> = headers.iter().map(|h| h.len().max(9)).collect();
        let mut out = String::new();
        for (h, w) in headers.iter().zip(&widths) {
            out.push_str(&format!("{h:>w$}  ", w = w));
        }
        out.push('\n');
        for &i in order {
            out.push_str(&format!("{i:>w$}  ", w = widths[0]));
            for (c, w) in (0..self.features.cols()).zip(&widths[1..]) {
                out.push_str(&format!("{v:>w$.4}  ", v = self.features.at2(i, c), w = w));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> FeatureTable {
        FeatureTable::new(
            vec!["a".into(), "b".into()],
            Tensor::from_vec(vec![0.5, 9.0, 0.1, 5.0, 0.9, 7.0], [3, 2]),
        )
    }

    #[test]
    fn sorting_orders_series() {
        let t = table();
        assert_eq!(t.sort_by(0, true), vec![1, 0, 2]);
        assert_eq!(t.sort_by(0, false), vec![2, 0, 1]);
        assert_eq!(t.sort_by(1, true), vec![1, 2, 0]);
    }

    #[test]
    fn column_selection() {
        let t = table();
        let sub = t.select_columns(&[1]);
        assert_eq!(sub.column_names(), &["b".to_string()]);
        assert_eq!(sub.value(0, 0), 9.0);
    }

    #[test]
    fn render_contains_ordered_rows() {
        let t = table();
        let order = t.sort_by(0, true);
        let text = t.render(Some(&order));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].trim_start().starts_with('1'));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_sort_column_panics() {
        table().sort_by(5, true);
    }
}
