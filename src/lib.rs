//! # pdn-wnv — worst-case dynamic PDN noise prediction
//!
//! A complete Rust reproduction of *"Worst-Case Dynamic Power Distribution
//! Network Noise Prediction Using Convolutional Neural Network"* (Dong,
//! Chen, Yin, Zhuo — DAC 2022), including every substrate the paper depends
//! on:
//!
//! | crate | role |
//! |---|---|
//! | [`core`] (`pdn-core`) | typed units, layout geometry, tile maps |
//! | [`sparse`] (`pdn-sparse`) | CSR matrices, Cholesky/MIC(0), CG |
//! | [`grid`] (`pdn-grid`) | synthetic on-die PDN generator, D1–D4 presets |
//! | [`sim`] (`pdn-sim`) | transient + static simulator (the ground truth) |
//! | [`vectors`] (`pdn-vectors`) | switching-current test-vector generation |
//! | [`compress`] (`pdn-compress`) | Algorithm 1 + spatial tiling |
//! | [`features`] (`pdn-features`) | distance/current features, datasets |
//! | [`nn`] (`pdn-nn`) | from-scratch CNN framework |
//! | [`model`] (`pdn-model`) | the three-subnet predictor + trainer |
//! | [`powernet`] (`pdn-powernet`) | the PowerNet baseline |
//! | [`eval`] (`pdn-eval`) | metrics + every table/figure driver |
//!
//! # Quickstart
//!
//! ```
//! use pdn_wnv::grid::design::{DesignPreset, DesignScale};
//! use pdn_wnv::sim::wnv::WnvRunner;
//! use pdn_wnv::vectors::scenario::Scenario;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build a miniature D1, stress it with an idle→burst vector, and read
//! // the worst-case noise map the paper's CNN learns to predict.
//! let grid = DesignPreset::D1.spec(DesignScale::Tiny).build(42)?;
//! let runner = WnvRunner::new(&grid)?;
//! let report = runner.run(&Scenario::IdleThenBurst.render(&grid, 60))?;
//! assert!(report.max_noise.to_millivolts() > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for end-to-end flows (training, sign-off sweeps,
//! compression studies) and `crates/eval` for the experiment harness that
//! regenerates the paper's Tables 1–3 and Figures 4–6.

pub use pdn_compress as compress;
pub use pdn_core as core;
pub use pdn_eval as eval;
pub use pdn_features as features;
pub use pdn_grid as grid;
pub use pdn_model as model;
pub use pdn_nn as nn;
pub use pdn_powernet as powernet;
pub use pdn_sim as sim;
pub use pdn_sparse as sparse;
pub use pdn_vectors as vectors;
