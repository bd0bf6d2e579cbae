//! ReRAM crossbar substrate for the AutoHet reproduction.
//!
//! This crate is the MNSIM-equivalent behavior-level model the paper builds
//! on (§4.1 "We implement AutoHet based on a ReRAM simulator, MNSIM"),
//! rebuilt from scratch in Rust:
//!
//! - [`geometry`]: crossbar shapes — the paper's square candidates
//!   (32²…512²) and rectangle candidates with heights that are multiples of
//!   9 (36×32 … 576×512, §3.3).
//! - [`utilization`]: the paper's Eq. 4 — exact floor/ceil counting of how a
//!   layer's unfolded weight matrix tiles onto an `r × c` crossbar array
//!   under the kernel-per-column mapping of Fig. 7.
//! - [`cost`], [`energy`], [`area`], [`latency`]: behavior-level component
//!   cost models (ADC/DAC/cell/shift-add/buffer/leakage), ISAAC/MNSIM-style
//!   counting; constants documented in DESIGN.md §4.
//! - [`crossbar`] (+ [`adc`], [`dac`]): a *functional* analog crossbar that
//!   really computes: 8-bit weights bit-sliced onto eight 1-bit cell planes
//!   (§4.1 "we group eight crossbars in each PE to represent one weight"),
//!   bit-serial 1-bit-DAC inputs, 10-bit ADC sampling, shift-and-add
//!   recombination, offset-encoded signed weights. It reproduces the exact
//!   integer MVM whenever bitline sums stay inside ADC range.
//! - [`variation`]: stochastic lognormal Ron/Roff device variation with
//!   operation-unit readout and a packed fast path (DESIGN.md §11) — the
//!   one device-noise model, behind the accuracy-under-noise objective,
//!   NSGA-II and the lifetime campaign.
//! - [`fault`]: beyond-paper component-level hard faults (dead crossbars,
//!   degraded ADCs, spare crossbars) — the seeded [`fault::FaultMap`] the
//!   accel crate's repair machinery consumes.
//! - [`drift`]: temporal conductance drift (DESIGN.md §12) — a seeded
//!   [`drift::DriftModel`] turning variation + hard faults into a
//!   trajectory over simulated hours, with nested-in-time fault
//!   snapshots and per-epoch variation models for recalibration.

pub mod adc;
pub mod area;
pub mod cost;
pub mod crossbar;
pub mod dac;
pub mod drift;
pub mod energy;
pub mod fault;
pub mod geometry;
pub mod kernels;
pub mod latency;
pub mod utilization;
pub mod variation;

pub use adc::Adc;
pub use cost::CostParams;
pub use crossbar::Crossbar;
pub use drift::DriftModel;
pub use energy::LayerEnergy;
pub use fault::{ComponentHealth, FaultMap, FaultRates};
pub use geometry::XbarShape;
pub use kernels::{PackedInput, PackedWeights};
pub use utilization::Footprint;
pub use variation::{VariationModel, VariedCrossbar};
