//! # tcsl-bench
//!
//! The experiment harnesses that regenerate every quantitative artefact of
//! the TimeCSL paper (see DESIGN.md's experiment index), plus the
//! `bench_*` binaries that write the `BENCH_*.json` reports.
//!
//! Binaries (run with `cargo run -p tcsl-bench --release --bin <name>`):
//!
//! | binary | paper artefact |
//! |---|---|
//! | `exp_fig1` | Figure 1 — avg-rank comparison on classification, clustering, anomaly detection, long series, training efficiency |
//! | `exp_demo_uwave` | §3 walkthrough — accuracy vs shapelet length |
//! | `exp_semisup` | §2.2 — fine-tuned CSL vs supervised CNN vs label fraction |
//! | `exp_pipeline` | Figure 2 — the unified pipeline on three tasks |
//! | `exp_explore_render` | Figure 3 — the exploration panels as SVG |

pub use tcsl_obs::alloc_track;

pub mod contract;
pub mod harness;
pub mod methods;
