//! Per-node virtual clocks.
//!
//! Each simulated node carries its own clock; a *barrier* advances every
//! participating clock to the maximum — the paper's "the overall time of a
//! phase is determined by the node that has the highest load". Subsets of
//! nodes (the Fx node subgroups used for task parallelism) barrier
//! independently, which is what lets pipelined stages overlap in virtual
//! time.

use std::borrow::Borrow;

/// Virtual clocks for `p` nodes, in seconds.
#[derive(Debug, Clone)]
pub struct NodeClocks {
    t: Vec<f64>,
}

impl NodeClocks {
    pub fn new(p: usize) -> NodeClocks {
        assert!(p > 0, "need at least one node");
        NodeClocks { t: vec![0.0; p] }
    }

    pub fn p(&self) -> usize {
        self.t.len()
    }

    /// Current time of one node.
    pub fn time(&self, node: usize) -> f64 {
        self.t[node]
    }

    /// Advance one node's clock by `dt` seconds (must be non-negative).
    pub fn advance(&mut self, node: usize, dt: f64) {
        debug_assert!(dt >= 0.0, "time cannot run backwards ({dt})");
        self.t[node] += dt;
    }

    /// Set one node's clock forward to at least `t` (no-op if already
    /// past).
    pub fn advance_to(&mut self, node: usize, t: f64) {
        if self.t[node] < t {
            self.t[node] = t;
        }
    }

    /// Barrier over all nodes: every clock jumps to the global maximum,
    /// which is returned.
    pub fn barrier(&mut self) -> f64 {
        let m = self.max();
        for t in &mut self.t {
            *t = m;
        }
        m
    }

    /// Barrier over a subgroup of nodes (a slice of ids, or a range such
    /// as `0..p`); returns the subgroup maximum.
    pub fn barrier_group<G>(&mut self, group: G) -> f64
    where
        G: IntoIterator + Clone,
        G::Item: Borrow<usize>,
    {
        let m = group
            .clone()
            .into_iter()
            .map(|n| self.t[*n.borrow()])
            .fold(f64::NEG_INFINITY, f64::max);
        for n in group {
            self.t[*n.borrow()] = m;
        }
        m
    }

    /// Maximum clock over all nodes (the machine's elapsed virtual time).
    pub fn max(&self) -> f64 {
        self.t.iter().cloned().fold(0.0, f64::max)
    }

    /// Minimum clock (useful for idle-time diagnostics).
    pub fn min(&self) -> f64 {
        self.t.iter().cloned().fold(f64::INFINITY, f64::min)
    }

    /// Sum of idle time that a full barrier would introduce right now.
    pub fn imbalance(&self) -> f64 {
        let m = self.max();
        self.t.iter().map(|t| m - t).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_and_barrier() {
        let mut c = NodeClocks::new(4);
        c.advance(0, 1.0);
        c.advance(1, 3.0);
        c.advance(2, 2.0);
        assert_eq!(c.max(), 3.0);
        assert_eq!(c.min(), 0.0);
        let m = c.barrier();
        assert_eq!(m, 3.0);
        for n in 0..4 {
            assert_eq!(c.time(n), 3.0);
        }
    }

    #[test]
    fn group_barrier_leaves_others_alone() {
        let mut c = NodeClocks::new(4);
        c.advance(0, 5.0);
        c.advance(2, 1.0);
        let m = c.barrier_group(&[0, 1]);
        assert_eq!(m, 5.0);
        assert_eq!(c.time(1), 5.0);
        assert_eq!(c.time(2), 1.0, "node outside group untouched");
        assert_eq!(c.time(3), 0.0);
    }

    #[test]
    fn advance_to_is_monotone() {
        let mut c = NodeClocks::new(2);
        c.advance_to(0, 4.0);
        assert_eq!(c.time(0), 4.0);
        c.advance_to(0, 2.0);
        assert_eq!(c.time(0), 4.0, "never moves backwards");
    }

    #[test]
    fn imbalance_measures_idle() {
        let mut c = NodeClocks::new(3);
        c.advance(0, 6.0);
        assert_eq!(c.imbalance(), 12.0);
        c.barrier();
        assert_eq!(c.imbalance(), 0.0);
    }
}
