//! Deficit round-robin (DRR) weighted fair queueing across tenants.
//!
//! The serving engine's only tenant-selection policy, run inside each
//! shard; for a single tenant it picks exactly the batch oldest-head-first
//! FIFO would. Backlogged tenants sit on a ring, each carries a deficit
//! counter, and a tenant may dispatch only when its deficit covers the
//! batch cost (cost = requests drained).
//! Passing the turn to a ready tenant tops its deficit up by its weight
//! (the DRR quantum), so over any busy interval the requests served per
//! tenant are proportional to its [`TenantSpec::weight`] — the classic
//! Shreedhar & Varghese guarantee, adapted in two ways to the serving
//! recurrence:
//!
//! - **One dispatch per call.** The scheduler asks for exactly one batch
//!   at a time (a replica just freed). A tenant whose deficit still
//!   covers another batch keeps the turn — the ring does not rotate —
//!   so consecutive calls continue its service quantum exactly where a
//!   textbook DRR loop would.
//! - **Time gating.** A tenant on the ring whose batch is not yet
//!   dispatchable at the decision instant (window not expired, batch not
//!   full) is rotated past *without* a top-up; it keeps its deficit and
//!   its round position ends, which is fair: it could not have used the
//!   turn.
//!
//! Everything is integer arithmetic on a deterministic walk, so both
//! the linear-scan reference and the heap-mode scheduler evolve the ring
//! identically.
//!
//! [`TenantSpec::weight`]: crate::workload::TenantSpec::weight

use std::collections::VecDeque;

/// The per-tenant quantities [`DrrRing::select`] needs, abstracted so
/// the shard scheduler can back them with its own tenant state (and
/// tests with a toy harness).
pub trait DrrAccess {
    /// Earliest instant the tenant's head batch may dispatch.
    fn ready_ns(&self, gid: usize) -> u64;
    /// Requests the tenant's next batch would drain (≥ 1 while
    /// backlogged).
    fn cost(&self, gid: usize) -> u64;
    /// The tenant's fair-share weight (≥ 1).
    fn weight(&self, gid: usize) -> u64;
    /// Current deficit counter.
    fn deficit(&self, gid: usize) -> u64;
    /// Overwrite the deficit counter.
    fn set_deficit(&mut self, gid: usize, v: u64);
}

/// The ring of backlogged tenants plus the turn marker. Ring order is
/// scheduler state: it evolves deterministically with the selection
/// sequence and is part of what the bit-identity tests pin down.
#[derive(Debug, Clone, Default)]
pub struct DrrRing {
    ring: VecDeque<usize>,
    /// The tenant currently holding the service turn (it sits at the
    /// ring front and has already received this round's top-up).
    turn: Option<usize>,
    /// Turns passed by [`select`](Self::select) walks so far.
    rotations: u64,
}

impl DrrRing {
    pub fn new() -> Self {
        DrrRing::default()
    }

    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Turns the [`select`](Self::select) walks have passed so far: a
    /// scheduler counter, the same in every driver.
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// Ring order, front to back (the front tenant serves next).
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.ring.iter().copied()
    }

    /// A tenant became backlogged: join at the back of the ring.
    pub fn push(&mut self, gid: usize) {
        debug_assert!(!self.ring.contains(&gid));
        self.ring.push_back(gid);
    }

    /// Remove a tenant wherever it sits (migration / drained elsewhere).
    /// Returns whether it was present.
    pub fn remove(&mut self, gid: usize) -> bool {
        if let Some(pos) = self.ring.iter().position(|&g| g == gid) {
            self.ring.remove(pos);
            if self.turn == Some(gid) {
                self.turn = None;
            }
            true
        } else {
            false
        }
    }

    /// Pick the tenant to dispatch at instant `at` and charge its
    /// deficit for the batch ([`DrrAccess::cost`] requests). At least
    /// one ring tenant must be ready at `at` (the scheduler only calls
    /// this at a dispatchable instant). Returns the selected tenant,
    /// which is left at the ring front holding the turn; follow up with
    /// [`served`](Self::served) after draining its queue.
    pub fn select<A: DrrAccess>(&mut self, a: &mut A, at: u64) -> usize {
        debug_assert!(
            self.ring.iter().any(|&g| a.ready_ns(g) <= at),
            "DRR select at a non-dispatchable instant"
        );
        let mut steps = 0usize;
        let mut bound = usize::MAX;
        loop {
            let gid = *self.ring.front().expect("DRR select on an empty ring");
            if a.ready_ns(gid) <= at {
                if self.turn != Some(gid) {
                    // Turn starts: top up once.
                    self.turn = Some(gid);
                    let w = a.weight(gid).max(1);
                    a.set_deficit(gid, a.deficit(gid).saturating_add(w));
                }
                let cost = a.cost(gid);
                if a.deficit(gid) >= cost {
                    a.set_deficit(gid, a.deficit(gid) - cost);
                    return gid;
                }
            }
            // Not ready, or deficit spent: the turn passes.
            self.turn = None;
            let g = self.ring.pop_front().expect("DRR ring emptied mid-walk");
            self.ring.push_back(g);
            self.rotations += 1;
            steps += 1;
            if steps == self.ring.len() {
                bound = self.convergence_bound(a, at);
            }
            assert!(steps <= bound, "DRR walk failed to converge");
        }
    }

    /// Walk-length guard of [`select`](Self::select): a ready tenant gains
    /// ≥ 1 deficit (its weight) per full cycle and needs at most `cost` of
    /// it, so the walk terminates within (max ready cost) cycles; the
    /// guard trips on contract bugs rather than hanging the simulation.
    /// The bound exceeds the ring length and a walk changes no ring
    /// tenant's ready instant or cost, so `select` computes it only once
    /// a walk has passed the whole ring, and gets the value it would
    /// have had at the start.
    fn convergence_bound<A: DrrAccess>(&self, a: &A, at: u64) -> usize {
        let max_cost = self
            .ring
            .iter()
            .filter(|&&g| a.ready_ns(g) <= at)
            .map(|&g| a.cost(g))
            .max()
            .unwrap_or(1);
        self.ring.len() * (max_cost as usize + 2) + 2
    }

    /// Bookkeeping after the selected tenant's queue was drained:
    /// `emptied` tenants leave the ring (deficit resets — carrying
    /// credit across idle periods would let a tenant burst past its
    /// share); a still-backlogged tenant keeps the front slot and the
    /// turn while its deficit lasts.
    pub fn served<A: DrrAccess>(&mut self, a: &mut A, gid: usize, emptied: bool) {
        debug_assert_eq!(self.ring.front(), Some(&gid));
        if emptied {
            self.ring.pop_front();
            self.turn = None;
            a.set_deficit(gid, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy backlog: each lane has a queue length, a ready time, and a
    /// weight; every dispatch drains up to `max_batch` requests.
    struct Toy {
        queue: Vec<u64>,
        ready: Vec<u64>,
        weight: Vec<u64>,
        deficit: Vec<u64>,
        max_batch: u64,
    }

    impl Toy {
        fn new(queues: &[u64], weights: &[u64], max_batch: u64) -> Self {
            Toy {
                queue: queues.to_vec(),
                ready: vec![0; queues.len()],
                weight: weights.to_vec(),
                deficit: vec![0; queues.len()],
                max_batch,
            }
        }
    }

    impl DrrAccess for Toy {
        fn ready_ns(&self, g: usize) -> u64 {
            self.ready[g]
        }
        fn cost(&self, g: usize) -> u64 {
            self.queue[g].min(self.max_batch)
        }
        fn weight(&self, g: usize) -> u64 {
            self.weight[g]
        }
        fn deficit(&self, g: usize) -> u64 {
            self.deficit[g]
        }
        fn set_deficit(&mut self, g: usize, v: u64) {
            self.deficit[g] = v;
        }
    }

    /// Run `n` dispatches against an endless backlog and count requests
    /// served per lane.
    fn serve_n(toy: &mut Toy, ring: &mut DrrRing, n: usize) -> Vec<u64> {
        let mut served = vec![0u64; toy.queue.len()];
        for _ in 0..n {
            let g = ring.select(toy, 0);
            let cost = toy.cost(g);
            served[g] += cost;
            toy.queue[g] -= cost;
            let emptied = toy.queue[g] == 0;
            ring.served(toy, g, emptied);
            if emptied {
                break;
            }
        }
        served
    }

    #[test]
    fn equal_weights_serve_equally() {
        let mut toy = Toy::new(&[1_000_000, 1_000_000], &[1, 1], 8);
        let mut ring = DrrRing::new();
        ring.push(0);
        ring.push(1);
        let served = serve_n(&mut toy, &mut ring, 400);
        let (a, b) = (served[0] as f64, served[1] as f64);
        assert!((a / b - 1.0).abs() < 0.02, "{a} vs {b}");
    }

    #[test]
    fn service_tracks_weights() {
        let mut toy = Toy::new(&[1_000_000; 3], &[1, 3, 6], 8);
        let mut ring = DrrRing::new();
        for g in 0..3 {
            ring.push(g);
        }
        let served = serve_n(&mut toy, &mut ring, 3000);
        let total: u64 = served.iter().sum();
        for (g, &s) in served.iter().enumerate() {
            let expected = total as f64 * toy.weight[g] as f64 / 10.0;
            let got = s as f64;
            assert!(
                (got - expected).abs() < 0.05 * expected,
                "lane {g}: served {got}, expected ≈{expected}"
            );
        }
    }

    #[test]
    fn no_backlogged_lane_starves() {
        // A heavyweight against three lightweights: every lane must be
        // selected within one full weighted round.
        let mut toy = Toy::new(&[1_000_000; 4], &[50, 1, 1, 1], 8);
        let mut ring = DrrRing::new();
        for g in 0..4 {
            ring.push(g);
        }
        let served = serve_n(&mut toy, &mut ring, 5000);
        for (g, &s) in served.iter().enumerate() {
            assert!(s > 0, "lane {g} starved: {served:?}");
        }
    }

    #[test]
    fn not_ready_lanes_are_passed_over_without_topup() {
        let mut toy = Toy::new(&[100, 100], &[1, 1], 8);
        toy.ready[0] = 1_000; // lane 0 not dispatchable yet
        let mut ring = DrrRing::new();
        ring.push(0);
        ring.push(1);
        let g = ring.select(&mut toy, 0);
        assert_eq!(g, 1, "only the ready lane may serve");
        // Lane 0 kept its (zero) deficit: no top-up while unready.
        assert_eq!(toy.deficit[0], 0);
        // Once ready, lane 0 serves.
        toy.queue[1] -= toy.cost(1);
        ring.served(&mut toy, 1, false);
        let g = ring.select(&mut toy, 1_000);
        assert!(g == 0 || g == 1);
    }

    #[test]
    fn rotations_count_the_turns_a_walk_passed() {
        let mut toy = Toy::new(&[100, 100, 100], &[16, 16, 16], 8);
        toy.ready[0] = 1_000;
        toy.ready[1] = 1_000;
        let mut ring = DrrRing::new();
        for g in 0..3 {
            ring.push(g);
        }
        // Lanes 0 and 1 are not ready: the walk passes two turns.
        assert_eq!(ring.select(&mut toy, 0), 2);
        assert_eq!(ring.rotations(), 2);
        // Lane 2 keeps the turn while its deficit lasts: no rotation.
        toy.queue[2] -= 8;
        ring.served(&mut toy, 2, false);
        assert_eq!(ring.select(&mut toy, 0), 2);
        assert_eq!(ring.rotations(), 2);
    }

    #[test]
    fn emptied_lane_leaves_and_rejoins_at_the_back() {
        let mut toy = Toy::new(&[3, 1_000], &[8, 8], 8);
        let mut ring = DrrRing::new();
        ring.push(0);
        ring.push(1);
        // Lane 0 drains in one batch and leaves.
        let g = ring.select(&mut toy, 0);
        assert_eq!(g, 0);
        toy.queue[0] = 0;
        ring.served(&mut toy, 0, true);
        assert_eq!(ring.len(), 1);
        assert_eq!(toy.deficit[0], 0, "deficit resets on leaving the ring");
        // It refills and rejoins behind lane 1.
        toy.queue[0] = 5;
        ring.push(0);
        let order: Vec<usize> = ring.iter().collect();
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn a_lane_with_leftover_deficit_keeps_the_turn() {
        // Weight large enough for two max batches: the front lane must
        // serve twice before the turn passes.
        let mut toy = Toy::new(&[1_000, 1_000], &[8, 8], 4);
        let mut ring = DrrRing::new();
        ring.push(0);
        ring.push(1);
        let first = ring.select(&mut toy, 0);
        assert_eq!(first, 0);
        toy.queue[0] -= 4;
        ring.served(&mut toy, 0, false);
        let second = ring.select(&mut toy, 0);
        assert_eq!(second, 0, "deficit 8−4 = 4 still covers a batch");
        toy.queue[0] -= 4;
        ring.served(&mut toy, 0, false);
        let third = ring.select(&mut toy, 0);
        assert_eq!(third, 1, "deficit spent: the turn passes");
    }

    #[test]
    fn remove_fixes_the_turn_marker() {
        let mut toy = Toy::new(&[100, 100], &[1, 1], 8);
        let mut ring = DrrRing::new();
        ring.push(0);
        ring.push(1);
        let g = ring.select(&mut toy, 0);
        assert_eq!(g, 0);
        assert!(ring.remove(0));
        assert!(!ring.remove(0));
        // With the turn cleared, lane 1 gets a fresh top-up and serves.
        let g = ring.select(&mut toy, 0);
        assert_eq!(g, 1);
    }
}
