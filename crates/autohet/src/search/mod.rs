//! Strategy search drivers.
//!
//! [`rl`] is the paper's DDPG search; [`greedy`] reproduces the
//! utilization-greedy comparator of Zhu et al. (related work \[29\]);
//! [`random`] is the sanity baseline and [`exhaustive`] the oracle for
//! models small enough to enumerate. Every comparator takes the
//! [`EvalEngine`](autohet_accel::EvalEngine) it evaluates on.

pub mod annealing;
pub mod dqn;
pub mod exhaustive;
pub mod greedy;
pub mod random;
pub mod rl;
