//! The naive readiness rescan, kept as the oracle for
//! [`ReadyFrontier`](kplock::model::ReadyFrontier).
//!
//! This is how both runners used to find runnable steps: after every
//! completion, scan the whole transaction for steps not yet handed out
//! whose direct predecessors have all finished. O(steps + edges) per
//! completion, and obviously right.

use kplock::model::{StepId, Transaction};

/// Readiness by full rescan of one transaction.
pub struct NaiveReadiness<'t> {
    txn: &'t Transaction,
    done: Vec<bool>,
    /// Steps already reported ready this epoch.
    handed_out: Vec<bool>,
}

impl<'t> NaiveReadiness<'t> {
    /// Nothing finished and nothing handed out yet.
    pub fn new(txn: &'t Transaction) -> Self {
        NaiveReadiness {
            txn,
            done: vec![false; txn.len()],
            handed_out: vec![false; txn.len()],
        }
    }

    /// Every step whose predecessors have all finished and that was not
    /// reported before, ascending; each is reported once per epoch.
    pub fn rescan(&mut self) -> Vec<StepId> {
        let g = self.txn.edge_graph();
        let ready: Vec<StepId> = (0..self.txn.len())
            .filter(|&v| !self.handed_out[v] && g.predecessors(v).iter().all(|&p| self.done[p]))
            .map(StepId::from_idx)
            .collect();
        for v in &ready {
            self.handed_out[v.idx()] = true;
        }
        ready
    }

    /// Marks `v` finished and rescans.
    pub fn complete(&mut self, v: StepId) -> Vec<StepId> {
        assert!(self.handed_out[v.idx()], "{v:?} was never ready");
        assert!(!self.done[v.idx()], "{v:?} finished twice");
        self.done[v.idx()] = true;
        self.rescan()
    }

    /// Steps not finished yet.
    pub fn remaining(&self) -> usize {
        self.done.iter().filter(|&&d| !d).count()
    }

    /// A new epoch: nothing finished, nothing handed out.
    pub fn reset(&mut self) {
        self.done.fill(false);
        self.handed_out.fill(false);
    }
}
