//! Hash-sharded lock tables.
//!
//! A single mutex-guarded lock table serializes *every* request, even for
//! unrelated entities; under multi-core load the mutex, not the lock logic,
//! becomes the bottleneck. [`ShardedTable`] hash-partitions the entity
//! space into `n` independent [`QueueTable`]s, each behind its own
//! `parking_lot::Mutex`, so requests for entities in different shards never
//! contend.

use crate::error::LockError;
use crate::prevent::{PreventionOutcome, PreventionScheme, Priority};
use crate::queue_table::QueueTable;
use crate::table::{Acquire, CancelOutcome, EntityGrants, Grants};
use kplock_model::{EntityId, LockMode};
use parking_lot::{Mutex, MutexGuard};
use std::hash::Hash;

/// A sharded reader–writer lock table: `shards` independent
/// [`QueueTable`]s, each guarded by its own mutex.
#[derive(Debug)]
pub struct ShardedTable<O> {
    shards: Vec<Mutex<QueueTable<O>>>,
}

impl<O: Copy + Eq + Ord + Hash> ShardedTable<O> {
    /// Creates a table with `shards` partitions (at least 1) of
    /// strict-FIFO tables.
    pub fn new(shards: usize) -> Self {
        Self::with_tables(shards, QueueTable::new)
    }

    /// Creates a table with `shards` partitions (at least 1), building
    /// each shard's table with `factory` — how a configured bias or
    /// topology is installed per shard.
    pub fn with_tables(shards: usize, mut factory: impl FnMut() -> QueueTable<O>) -> Self {
        let n = shards.max(1);
        ShardedTable {
            shards: (0..n).map(|_| Mutex::new(factory())).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard an entity maps to (Fibonacci multiplicative hash — entity
    /// ids are dense small integers, so modulo alone would put consecutive
    /// entities in consecutive shards and correlated workloads in one).
    pub fn shard_index(&self, e: EntityId) -> usize {
        let h = (e.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        (h as usize) % self.shards.len()
    }

    /// Locks the shard owning `e` and returns the guard. For callers (like
    /// the real-thread runner) that must compose several table calls with
    /// external bookkeeping atomically.
    pub fn lock_shard(&self, e: EntityId) -> MutexGuard<'_, QueueTable<O>> {
        self.shards[self.shard_index(e)].lock()
    }

    /// Locks shard `idx` directly.
    pub fn lock_shard_index(&self, idx: usize) -> MutexGuard<'_, QueueTable<O>> {
        self.shards[idx].lock()
    }

    /// Requests `mode` on `e` for `o`. See [`QueueTable::request`].
    pub fn acquire(&self, e: EntityId, o: O, mode: LockMode) -> Result<Acquire, LockError> {
        self.lock_shard(e).request(e, o, mode)
    }

    /// Requests `mode` on `e` for `o` under a timestamp-ordering deadlock
    /// prevention scheme. See [`QueueTable::request_with_priority`]; only
    /// `e`'s shard is locked — prevention needs no cross-shard state.
    pub fn acquire_with_priority(
        &self,
        e: EntityId,
        o: O,
        mode: LockMode,
        scheme: PreventionScheme,
        prio: impl Fn(O) -> Priority,
    ) -> Result<PreventionOutcome<O>, LockError> {
        self.lock_shard(e)
            .request_with_priority(e, o, mode, scheme, prio)
    }

    /// Releases `o`'s lock on `e`; returns the grants this unblocked.
    /// See [`QueueTable::release`].
    pub fn release(&self, e: EntityId, o: O) -> Result<Grants<O>, LockError> {
        self.lock_shard(e).release(e, o)
    }

    /// Releases `o`'s lock on `e`, appending unblocked grants to `out` —
    /// the zero-allocation hot path (see [`QueueTable::release_into`]).
    pub fn release_into(&self, e: EntityId, o: O, out: &mut Grants<O>) -> Result<(), LockError> {
        self.lock_shard(e).release_into(e, o, out)
    }

    /// The mode `o` holds on `e`, if any.
    pub fn holds(&self, e: EntityId, o: O) -> Option<LockMode> {
        self.lock_shard(e).holds(e, o)
    }

    /// Current holders of `e` with their modes.
    pub fn holders(&self, e: EntityId) -> Vec<(O, LockMode)> {
        self.lock_shard(e).holders(e)
    }

    /// Entities held by `o` across all shards, ascending.
    pub fn held_by(&self, o: O) -> Vec<EntityId> {
        let mut v = Vec::new();
        for s in &self.shards {
            v.extend(s.lock().held_by(o));
        }
        v.sort();
        v
    }

    /// Cancels `o`'s waits across all shards; outcomes are merged in
    /// ascending entity order.
    pub fn cancel_waits(&self, o: O) -> CancelOutcome<O> {
        let mut out = CancelOutcome::default();
        for s in &self.shards {
            let co = s.lock().cancel_waits(o);
            out.cancelled.extend(co.cancelled);
            out.granted.extend(co.granted);
        }
        out.cancelled.sort();
        out.granted.sort_by_key(|&(e, _)| e);
        out
    }

    /// Releases everything `o` holds across all shards; `(entity, grants)`
    /// pairs ascending by entity.
    pub fn release_all(&self, o: O) -> EntityGrants<O> {
        let mut out = Vec::new();
        for s in &self.shards {
            out.extend(s.lock().release_all(o));
        }
        out.sort_by_key(|&(e, _)| e);
        out
    }

    /// The waits-for edges induced by entity `e`.
    pub fn entity_waits_for(&self, e: EntityId) -> Vec<(O, O)> {
        self.lock_shard(e).entity_waits_for(e)
    }

    /// All waits-for edges across all shards, ascending.
    ///
    /// Not an atomic snapshot: shards are read one at a time, so a
    /// concurrent release can be seen by one shard and not another. Fine
    /// for periodic detection (a stale edge only delays or repeats a
    /// finding); incremental [`crate::WaitForGraph`] updates under the
    /// entity's shard guard avoid the race.
    pub fn waits_for(&self) -> Vec<(O, O)> {
        let mut out = Vec::new();
        for s in &self.shards {
            out.extend(s.lock().waits_for());
        }
        out.sort();
        out
    }

    /// True when no shard holds or queues anything.
    pub fn is_idle(&self) -> bool {
        self.shards.iter().all(|s| s.lock().is_idle())
    }

    /// Checks every shard's structural invariants plus the sharding
    /// invariant (each entity's state lives in its hash shard only).
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, s) in self.shards.iter().enumerate() {
            let t = s.lock();
            t.check_invariants()?;
            for e in t.active_entities() {
                if self.shard_index(e) != i {
                    return Err(format!("{e} stored in shard {i}, hashes to {}", {
                        self.shard_index(e)
                    }));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> LockMode {
        LockMode::Exclusive
    }

    #[test]
    fn shard_routing_is_stable_and_total() {
        let t: ShardedTable<u32> = ShardedTable::new(16);
        for i in 0..1000 {
            let e = EntityId(i);
            let idx = t.shard_index(e);
            assert!(idx < 16);
            assert_eq!(idx, t.shard_index(e));
        }
        // Shard count 0 is clamped to 1.
        let t: ShardedTable<u32> = ShardedTable::new(0);
        assert_eq!(t.shard_count(), 1);
    }

    #[test]
    fn acquire_release_across_shards() {
        let t: ShardedTable<u32> = ShardedTable::new(4);
        for i in 0..64 {
            assert_eq!(t.acquire(EntityId(i), 0, x()).unwrap(), Acquire::Granted);
        }
        assert_eq!(t.held_by(0).len(), 64);
        t.check_invariants().unwrap();
        for (e, grants) in t.release_all(0) {
            assert!(grants.is_empty(), "{e} had no waiters");
        }
        assert!(t.is_idle());
    }

    #[test]
    fn cross_shard_waits_for_aggregates() {
        let t: ShardedTable<u32> = ShardedTable::new(4);
        for i in 0..8 {
            t.acquire(EntityId(i), 0, x()).unwrap();
            t.acquire(EntityId(i), 1, x()).unwrap();
        }
        assert_eq!(t.waits_for(), vec![(1, 0); 8]);
        let co = t.cancel_waits(1);
        assert_eq!(co.cancelled.len(), 8);
        assert!(t.waits_for().is_empty());
    }
}
