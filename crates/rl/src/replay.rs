//! The experience pool (paper §3.2, Eq. 3).
//!
//! After each episode (one full pass assigning crossbars to every layer)
//! the pool collects `(S_k, S_{k+1}, a_k, R)` tuples; the agent samples
//! minibatches to update the actor-critic pair. Bounded ring buffer:
//! oldest experiences are evicted first. The pool is generic over its
//! transition type, so the DQN comparator keeps its discrete transitions
//! in one too.

use rand::Rng;

/// One transition (paper Eq. 3). The action is the raw continuous actor
/// output; `reward` is the episode reward shared by all of the episode's
/// steps; `done` marks the final layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Experience {
    pub state: Vec<f64>,
    pub next_state: Vec<f64>,
    pub action: f64,
    pub reward: f64,
    pub done: bool,
}

/// Bounded FIFO pool of transitions `E` (DDPG [`Experience`]s by
/// default) with uniform sampling.
#[derive(Debug, Clone)]
pub struct ReplayBuffer<E = Experience> {
    capacity: usize,
    items: Vec<E>,
    next: usize,
}

impl<E> ReplayBuffer<E> {
    /// Pool with the given capacity (≥ 1).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1);
        ReplayBuffer {
            capacity,
            items: Vec::with_capacity(capacity.min(4096)),
            next: 0,
        }
    }

    /// Stored experience count.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Insert, evicting the oldest experience when full.
    pub fn push(&mut self, e: E) {
        if self.items.len() < self.capacity {
            self.items.push(e);
        } else {
            self.items[self.next] = e;
            self.next = (self.next + 1) % self.capacity;
        }
    }

    /// Sample `n` experiences uniformly with replacement.
    pub fn sample<R: Rng>(&self, n: usize, rng: &mut R) -> Vec<&E> {
        assert!(!self.items.is_empty(), "sampling an empty pool");
        (0..n)
            .map(|_| &self.items[rng.gen_range(0..self.items.len())])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn exp(tag: f64) -> Experience {
        Experience {
            state: vec![tag],
            next_state: vec![tag + 1.0],
            action: tag,
            reward: tag,
            done: false,
        }
    }

    #[test]
    fn fills_then_evicts_oldest() {
        let mut b = ReplayBuffer::new(3);
        for i in 0..5 {
            b.push(exp(i as f64));
        }
        assert_eq!(b.len(), 3);
        let tags: Vec<f64> = b.items.iter().map(|e| e.action).collect();
        // 0 and 1 were evicted (ring overwrote slots 0 and 1).
        assert!(tags.contains(&2.0) && tags.contains(&3.0) && tags.contains(&4.0));
    }

    #[test]
    fn sample_returns_requested_count() {
        let mut b = ReplayBuffer::new(10);
        for i in 0..4 {
            b.push(exp(i as f64));
        }
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(b.sample(16, &mut rng).len(), 16);
    }

    #[test]
    fn sampling_covers_the_pool() {
        let mut b = ReplayBuffer::new(8);
        for i in 0..8 {
            b.push(exp(i as f64));
        }
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for e in b.sample(256, &mut rng) {
            seen.insert(e.action as i64);
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    #[should_panic]
    fn sampling_empty_pool_panics() {
        let b = ReplayBuffer::<Experience>::new(4);
        let mut rng = SmallRng::seed_from_u64(2);
        let _ = b.sample(1, &mut rng);
    }
}
