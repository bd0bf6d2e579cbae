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
//! - [`env`]: a tiny environment trait plus toy environments used to
//!   verify the agent end-to-end.

pub mod ddpg;
pub mod dqn;
pub mod env;
pub mod matrix;
pub mod nn;
pub mod noise;
pub mod replay;

pub use ddpg::{Ddpg, DdpgConfig};
pub use dqn::{DiscreteExperience, Dqn, DqnConfig};
pub use matrix::Matrix;
pub use nn::{Activation, Adam, Mlp};
pub use noise::OuNoise;
pub use replay::{Experience, ReplayBuffer};
