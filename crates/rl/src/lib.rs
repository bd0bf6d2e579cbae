//! From-scratch deep reinforcement learning substrate.
//!
//! The paper's RL agent is DDPG (§3.2): paired actor/critic MLPs with
//! target networks, an experience pool, and exploration noise, searching
//! the per-layer crossbar configuration space. No ML framework is
//! available offline, so this crate implements the whole stack:
//!
//! - [`matrix`]: a minimal dense matrix.
//! - [`nn`]: dense layers with manual backpropagation and Adam — gradient
//!   checked against finite differences in the test suite.
//! - [`replay`]: the experience pool (paper Eq. 3 tuples).
//! - [`noise`]: Ornstein–Uhlenbeck exploration noise with decay.
//! - [`ddpg`]: the agent — actor `μ(s)`, critic `Q(s,a)`, target copies,
//!   soft updates, TD-target critic regression and deterministic policy
//!   gradient actor updates.
//!
//! The unit tests also drive the agent end to end through a toy
//! delayed-reward chain environment, which is compiled for tests only.

pub mod ddpg;
pub mod dqn;
pub mod matrix;
pub mod nn;
pub mod noise;
pub mod replay;

pub use ddpg::{Ddpg, DdpgConfig, TrainProfile};
pub use dqn::{DiscreteExperience, Dqn, DqnConfig};
pub use matrix::Matrix;
pub use nn::{Activation, Adam, Mlp};
pub use noise::OuNoise;
pub use replay::{Experience, ReplayBuffer};

#[cfg(test)]
mod env;
