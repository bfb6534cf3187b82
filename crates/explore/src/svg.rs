//! Minimal SVG rendering of the demo's Figure 3 panels: line charts of
//! series and shapelets, match overlays, and t-SNE scatter plots. No
//! dependencies — each document is written into one pre-sized string, with
//! no allocation per point.

use std::fmt::Write as _;
use tcsl_data::TimeSeries;
use tcsl_tensor::Tensor;

/// Categorical palette (colour per variable / class).
const PALETTE: [&str; 8] = [
    "#4269d0", "#efb118", "#ff725c", "#6cc5b0", "#3ca951", "#ff8ab7", "#a463f2", "#97bbf5",
];

fn color(i: usize) -> &'static str {
    PALETTE[i % PALETTE.len()]
}

struct Frame {
    width: f32,
    height: f32,
    margin: f32,
    x_range: (f32, f32),
    y_range: (f32, f32),
}

impl Frame {
    fn map(&self, x: f32, y: f32) -> (f32, f32) {
        let (x0, x1) = self.x_range;
        let (y0, y1) = self.y_range;
        let sx = self.margin + (x - x0) / (x1 - x0).max(1e-9) * (self.width - 2.0 * self.margin);
        let sy = self.height
            - self.margin
            - (y - y0) / (y1 - y0).max(1e-9) * (self.height - 2.0 * self.margin);
        (sx, sy)
    }
}

/// Bytes reserved per drawn point: `"xxx.x,yyy.y "` is 12 in the frame.
const POINT_BYTES: usize = 12;
/// Bytes reserved per element (tag and attributes), and for the document's
/// header and title.
const ELEMENT_BYTES: usize = 128;
/// Bytes reserved per `<circle>` of a scatter plot or learning curve.
const CIRCLE_BYTES: usize = 80;

/// Opens a document of the frame's size with room for `body_bytes` of
/// elements; [`close`] ends it. Writing into a `String` cannot fail, so the
/// `fmt::Result`s of `write!` are discarded here and below.
fn open(frame: &Frame, title: &str, body_bytes: usize) -> String {
    let mut out = String::with_capacity(2 * ELEMENT_BYTES + title.len() + body_bytes);
    let _ = write!(
        out,
        concat!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h}\" ",
            "viewBox=\"0 0 {w} {h}\">\n",
            "<rect width=\"{w}\" height=\"{h}\" fill=\"white\"/>\n",
            "<text x=\"{tx}\" y=\"16\" font-family=\"sans-serif\" font-size=\"13\" ",
            "text-anchor=\"middle\">{title}</text>\n"
        ),
        w = frame.width,
        h = frame.height,
        tx = frame.width / 2.0,
        title = title,
    );
    out
}

fn close(mut out: String) -> String {
    out.push_str("</svg>\n");
    out
}

/// Appends a polyline through `points`.
fn polyline(
    out: &mut String,
    points: impl Iterator<Item = (f32, f32)>,
    stroke: &str,
    width: f32,
    dashed: bool,
) {
    out.push_str("<polyline points=\"");
    for (i, (x, y)) in points.enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(out, "{x:.1},{y:.1}");
    }
    let dash = if dashed {
        " stroke-dasharray=\"4 3\""
    } else {
        ""
    };
    let _ = writeln!(
        out,
        "\" fill=\"none\" stroke=\"{stroke}\" stroke-width=\"{width}\"{dash}/>"
    );
}

fn value_range(values: impl Iterator<Item = f32>) -> (f32, f32) {
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if !lo.is_finite() || !hi.is_finite() {
        return (0.0, 1.0);
    }
    if hi - lo < 1e-9 {
        (lo - 1.0, hi + 1.0)
    } else {
        let pad = 0.05 * (hi - lo);
        (lo - pad, hi + pad)
    }
}

/// Renders a multivariate series as one polyline per variable (Fig. 3a/3c).
pub fn series_chart(s: &TimeSeries, title: &str) -> String {
    let frame = Frame {
        width: 480.0,
        height: 200.0,
        margin: 24.0,
        x_range: (0.0, s.len() as f32 - 1.0),
        y_range: value_range(s.values().as_slice().iter().copied()),
    };
    let body_bytes = s.n_vars() * (s.len() * POINT_BYTES + ELEMENT_BYTES);
    let mut out = open(&frame, title, body_bytes);
    for v in 0..s.n_vars() {
        let pts = s.variable(v).iter().enumerate();
        let pts = pts.map(|(t, &x)| frame.map(t as f32, x));
        polyline(&mut out, pts, color(v), 1.5, false);
    }
    close(out)
}

/// Renders a series with a shapelet overlaid at its best-match position
/// (Fig. 3b): series in colour, shapelet dashed black, match window shaded.
pub fn match_chart(
    s: &TimeSeries,
    shapelet: &Tensor, // (D, len)
    start: usize,
    score: f32,
    title: &str,
) -> String {
    let frame = Frame {
        width: 480.0,
        height: 200.0,
        margin: 24.0,
        x_range: (0.0, s.len() as f32 - 1.0),
        y_range: value_range(
            s.values()
                .as_slice()
                .iter()
                .copied()
                .chain(shapelet.as_slice().iter().copied()),
        ),
    };
    let len = shapelet.cols();
    // Two polylines per variable, and room for the window and the score.
    let body_bytes = (s.n_vars() + 1) * ((s.len() + len) * POINT_BYTES + 2 * ELEMENT_BYTES);
    let mut out = open(&frame, title, body_bytes);
    // Shaded match window.
    let (x0, _) = frame.map(start as f32, 0.0);
    let (x1, _) = frame.map((start + len - 1) as f32, 0.0);
    let _ = writeln!(
        out,
        "<rect x=\"{x0:.1}\" y=\"{m}\" width=\"{w:.1}\" height=\"{h}\" fill=\"#fde68a\" opacity=\"0.5\"/>",
        m = frame.margin,
        w = x1 - x0,
        h = frame.height - 2.0 * frame.margin
    );
    for v in 0..s.n_vars() {
        let pts = s.variable(v).iter().enumerate();
        let pts = pts.map(|(t, &x)| frame.map(t as f32, x));
        polyline(&mut out, pts, color(v), 1.5, false);
        let spts = shapelet.row(v).iter().enumerate();
        let spts = spts.map(|(t, &x)| frame.map((start + t) as f32, x));
        polyline(&mut out, spts, "#111111", 2.0, true);
    }
    let _ = writeln!(
        out,
        "<text x=\"{x}\" y=\"32\" font-family=\"sans-serif\" font-size=\"11\">score = {score:.4}</text>",
        x = frame.margin
    );
    close(out)
}

/// Renders 2-D points as a scatter plot, coloured by optional labels
/// (Fig. 3e, the t-SNE view).
pub fn scatter_chart(points: &Tensor, labels: Option<&[usize]>, title: &str) -> String {
    assert_eq!(points.cols(), 2, "scatter needs (N, 2) points");
    let frame = Frame {
        width: 360.0,
        height: 320.0,
        margin: 24.0,
        x_range: value_range((0..points.rows()).map(|i| points.at2(i, 0))),
        y_range: value_range((0..points.rows()).map(|i| points.at2(i, 1))),
    };
    let mut out = open(&frame, title, points.rows() * CIRCLE_BYTES);
    for i in 0..points.rows() {
        let (x, y) = frame.map(points.at2(i, 0), points.at2(i, 1));
        let c = labels.map_or(color(0), |ls| color(ls[i]));
        let _ = writeln!(
            out,
            "<circle cx=\"{x:.1}\" cy=\"{y:.1}\" r=\"3.5\" fill=\"{c}\" opacity=\"0.85\"/>"
        );
    }
    close(out)
}

/// Renders a learning curve (loss per epoch) — the demo's training
/// diagnostic plot (§3, step 2).
pub fn learning_curve_chart(losses: &[f32], title: &str) -> String {
    assert!(!losses.is_empty(), "empty learning curve");
    let frame = Frame {
        width: 360.0,
        height: 200.0,
        margin: 28.0,
        x_range: (0.0, losses.len() as f32 - 1.0),
        y_range: value_range(losses.iter().copied()),
    };
    let body_bytes = losses.len() * (POINT_BYTES + CIRCLE_BYTES) + ELEMENT_BYTES;
    let mut out = open(&frame, title, body_bytes);
    let pts = || {
        losses
            .iter()
            .enumerate()
            .map(|(e, &l)| frame.map(e as f32, l))
    };
    polyline(&mut out, pts(), color(0), 2.0, false);
    for (x, y) in pts() {
        let _ = writeln!(
            out,
            "<circle cx=\"{x:.1}\" cy=\"{y:.1}\" r=\"2.5\" fill=\"{}\"/>",
            color(0)
        );
    }
    close(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(svg: &str) {
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // Balanced: every <polyline ends with /> (self-closing) and the
        // document contains exactly one closing tag.
        assert_eq!(svg.matches("</svg>").count(), 1);
        assert!(!svg.contains("NaN"));
        assert!(!svg.contains("inf"));
    }

    #[test]
    fn series_chart_renders_all_variables() {
        let s = TimeSeries::multivariate(vec![vec![0.0, 1.0, 0.5], vec![1.0, -1.0, 0.0]]);
        let svg = series_chart(&s, "demo");
        well_formed(&svg);
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains("demo"));
    }

    #[test]
    fn match_chart_has_window_and_dashes() {
        let s = TimeSeries::univariate(vec![0.0, 1.0, 2.0, 1.0, 0.0, -1.0]);
        let shapelet = Tensor::from_vec(vec![1.0, 2.0, 1.0], [1, 3]);
        let svg = match_chart(&s, &shapelet, 1, 0.05, "match");
        well_formed(&svg);
        assert!(svg.contains("stroke-dasharray"));
        assert!(svg.contains("score = 0.05"));
        assert!(svg.contains("<rect"));
    }

    #[test]
    fn scatter_colors_by_label() {
        let pts = Tensor::from_vec(vec![0.0, 0.0, 1.0, 1.0, 2.0, 0.5], [3, 2]);
        let svg = scatter_chart(&pts, Some(&[0, 1, 1]), "tsne");
        well_formed(&svg);
        assert_eq!(svg.matches("<circle").count(), 3);
        assert!(svg.contains(PALETTE[1]));
    }

    #[test]
    fn learning_curve_has_one_point_per_epoch() {
        let svg = learning_curve_chart(&[2.0, 1.0, 0.5], "loss");
        well_formed(&svg);
        assert_eq!(svg.matches("<circle").count(), 3);
    }

    /// The formatting these charts had when each point was its own
    /// `format!` string, joined afterwards: the byte-for-byte reference.
    mod joined {
        use super::super::{color, value_range, Frame};
        use tcsl_data::TimeSeries;
        use tcsl_tensor::Tensor;

        fn document(width: f32, height: f32, title: &str, body: &str) -> String {
            format!(
                concat!(
                    "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h}\" ",
                    "viewBox=\"0 0 {w} {h}\">\n",
                    "<rect width=\"{w}\" height=\"{h}\" fill=\"white\"/>\n",
                    "<text x=\"{tx}\" y=\"16\" font-family=\"sans-serif\" font-size=\"13\" ",
                    "text-anchor=\"middle\">{title}</text>\n{body}</svg>\n"
                ),
                w = width,
                h = height,
                tx = width / 2.0,
                title = title,
                body = body
            )
        }

        pub fn polyline(points: &[(f32, f32)], stroke: &str, width: f32, dashed: bool) -> String {
            let pts: Vec<String> = points
                .iter()
                .map(|(x, y)| format!("{x:.1},{y:.1}"))
                .collect();
            let dash = if dashed {
                " stroke-dasharray=\"4 3\""
            } else {
                ""
            };
            format!(
                "<polyline points=\"{}\" fill=\"none\" stroke=\"{stroke}\" stroke-width=\"{width}\"{dash}/>\n",
                pts.join(" ")
            )
        }

        pub fn series_chart(s: &TimeSeries, title: &str) -> String {
            let frame = Frame {
                width: 480.0,
                height: 200.0,
                margin: 24.0,
                x_range: (0.0, s.len() as f32 - 1.0),
                y_range: value_range(s.values().as_slice().iter().copied()),
            };
            let mut body = String::new();
            for v in 0..s.n_vars() {
                let pts: Vec<(f32, f32)> = s
                    .variable(v)
                    .iter()
                    .enumerate()
                    .map(|(t, &x)| frame.map(t as f32, x))
                    .collect();
                body.push_str(&polyline(&pts, color(v), 1.5, false));
            }
            document(frame.width, frame.height, title, &body)
        }

        pub fn match_chart(
            s: &TimeSeries,
            shapelet: &Tensor,
            start: usize,
            score: f32,
            title: &str,
        ) -> String {
            let frame = Frame {
                width: 480.0,
                height: 200.0,
                margin: 24.0,
                x_range: (0.0, s.len() as f32 - 1.0),
                y_range: value_range(
                    s.values()
                        .as_slice()
                        .iter()
                        .copied()
                        .chain(shapelet.as_slice().iter().copied()),
                ),
            };
            let len = shapelet.cols();
            let mut body = String::new();
            let (x0, _) = frame.map(start as f32, 0.0);
            let (x1, _) = frame.map((start + len - 1) as f32, 0.0);
            body.push_str(&format!(
                "<rect x=\"{x0:.1}\" y=\"{m}\" width=\"{w:.1}\" height=\"{h}\" fill=\"#fde68a\" opacity=\"0.5\"/>\n",
                m = frame.margin,
                w = x1 - x0,
                h = frame.height - 2.0 * frame.margin
            ));
            for v in 0..s.n_vars() {
                let pts: Vec<(f32, f32)> = s
                    .variable(v)
                    .iter()
                    .enumerate()
                    .map(|(t, &x)| frame.map(t as f32, x))
                    .collect();
                body.push_str(&polyline(&pts, color(v), 1.5, false));
                let spts: Vec<(f32, f32)> = shapelet
                    .row(v)
                    .iter()
                    .enumerate()
                    .map(|(t, &x)| frame.map((start + t) as f32, x))
                    .collect();
                body.push_str(&polyline(&spts, "#111111", 2.0, true));
            }
            body.push_str(&format!(
                "<text x=\"{x}\" y=\"32\" font-family=\"sans-serif\" font-size=\"11\">score = {score:.4}</text>\n",
                x = frame.margin
            ));
            document(frame.width, frame.height, title, &body)
        }

        pub fn scatter_chart(points: &Tensor, labels: Option<&[usize]>, title: &str) -> String {
            let frame = Frame {
                width: 360.0,
                height: 320.0,
                margin: 24.0,
                x_range: value_range((0..points.rows()).map(|i| points.at2(i, 0))),
                y_range: value_range((0..points.rows()).map(|i| points.at2(i, 1))),
            };
            let mut body = String::new();
            for i in 0..points.rows() {
                let (x, y) = frame.map(points.at2(i, 0), points.at2(i, 1));
                let c = labels.map_or(color(0), |ls| color(ls[i]));
                body.push_str(&format!(
                    "<circle cx=\"{x:.1}\" cy=\"{y:.1}\" r=\"3.5\" fill=\"{c}\" opacity=\"0.85\"/>\n"
                ));
            }
            document(frame.width, frame.height, title, &body)
        }

        pub fn learning_curve_chart(losses: &[f32], title: &str) -> String {
            let frame = Frame {
                width: 360.0,
                height: 200.0,
                margin: 28.0,
                x_range: (0.0, losses.len() as f32 - 1.0),
                y_range: value_range(losses.iter().copied()),
            };
            let pts: Vec<(f32, f32)> = losses
                .iter()
                .enumerate()
                .map(|(e, &l)| frame.map(e as f32, l))
                .collect();
            let mut body = polyline(&pts, color(0), 2.0, false);
            for &(x, y) in &pts {
                body.push_str(&format!(
                    "<circle cx=\"{x:.1}\" cy=\"{y:.1}\" r=\"2.5\" fill=\"{}\"/>\n",
                    color(0)
                ));
            }
            document(frame.width, frame.height, title, &body)
        }
    }

    #[test]
    fn charts_are_byte_identical_to_joined_point_strings() {
        // Values straddle zero, so data and scatter coordinates are
        // negative; 315 is the gesture length the explore session renders.
        // A series has at least one step, so 0 points reach the scatter plot
        // and a bare polyline only.
        let wave = |n: usize, phase: f32| -> Vec<f32> {
            (0..n)
                .map(|t| 3.0 * (t as f32 * 0.37 + phase).sin() - 1.25)
                .collect()
        };
        for n in [0usize, 1, 2, 315] {
            let pts = Tensor::from_vec([wave(n, 0.5), wave(n, 4.0)].concat(), [2, n]).transpose2();
            let labels: Vec<usize> = (0..n).map(|i| i % 11).collect();
            for labels in [None, Some(&labels[..])] {
                assert_eq!(
                    scatter_chart(&pts, labels, "t"),
                    joined::scatter_chart(&pts, labels, "t"),
                    "{n}"
                );
            }

            // Raw negative coordinates, both line styles.
            let raw: Vec<(f32, f32)> = wave(n, 0.0).into_iter().zip(wave(n, 6.0)).collect();
            for dashed in [false, true] {
                let mut out = String::new();
                polyline(&mut out, raw.iter().copied(), "#111111", 2.0, dashed);
                assert_eq!(out, joined::polyline(&raw, "#111111", 2.0, dashed), "{n}");
            }
            if n == 0 {
                continue;
            }

            let s = TimeSeries::multivariate(vec![wave(n, 0.0), wave(n, 1.0)]);
            assert_eq!(series_chart(&s, "s"), joined::series_chart(&s, "s"), "{n}");

            // Solid series lines under a dashed shapelet, which runs past the
            // series' end when it is the longer of the two.
            for len in [1, n.min(32), 3] {
                let shapelet =
                    Tensor::from_vec([wave(len, 2.0), wave(len, 3.0)].concat(), [2, len]);
                let start = n.saturating_sub(len) / 2;
                assert_eq!(
                    match_chart(&s, &shapelet, start, -0.0625, "m"),
                    joined::match_chart(&s, &shapelet, start, -0.0625, "m"),
                    "{n} × {len}"
                );
            }

            let losses = wave(n, 5.0);
            assert_eq!(
                learning_curve_chart(&losses, "l"),
                joined::learning_curve_chart(&losses, "l"),
                "{n}"
            );
        }
    }

    #[test]
    fn constant_series_does_not_divide_by_zero() {
        let s = TimeSeries::univariate(vec![5.0; 10]);
        well_formed(&series_chart(&s, "flat"));
    }
}
