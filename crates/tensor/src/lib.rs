#![warn(missing_docs)]

//! # tcsl-tensor
//!
//! Dense `f32` tensor substrate for the TimeCSL workspace.
//!
//! This crate provides the numeric foundation that every other TimeCSL crate
//! builds on: an n-dimensional row-major [`Tensor`], shape/stride arithmetic,
//! one dot-kernel family for f32 and binary16 taps ([`dot`]),
//! cache-friendly matrix multiplication, axis reductions with argument
//! tracking (needed by the min/max-pooling backward pass of the autodiff
//! crate), sliding-window unfolding for time series, descriptive statistics,
//! a blocked pairwise-distance engine for the representation space, and a
//! small data-parallel map running on a persistent process-wide worker
//! pool (`parallel`).
//!
//! Design notes:
//!
//! * Values are `f32` — the same precision the paper's PyTorch stack trains
//!   in. Metrics and evaluation code upcast to `f64` where it matters.
//! * Shape mismatches are programmer errors and panic with a descriptive
//!   message (the convention of `ndarray` and friends); fallible APIs are
//!   reserved for I/O-facing layers.
//! * All randomness is injected via `rand::Rng` so experiments are seedable.

pub mod dot;
pub mod matmul;
pub mod pairdist;
pub mod parallel;
mod pool;
pub mod quant;
pub mod reduce;
pub mod rng;
pub mod shape;
pub mod stats;
pub mod tensor;
pub mod window;

pub use shape::Shape;
pub use tensor::Tensor;

#[cfg(test)]
mod proptests;
