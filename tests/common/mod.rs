//! Naive reference implementations and the differential harnesses around them.
//!
//! [`Oracle`] implements the lock-table protocol the way it is written
//! down, with plain per-entity `Vec`s and linear scans: no arena, no
//! reverse index, no free lists, and its own copy of the IS/IX/S/SIX/X
//! compatibility matrix and mode lattice (it does not ask
//! `LockMode::compatible_with`). `tests/table_equivalence.rs` and
//! `tests/lattice_props.rs` drive it and `QueueTable` with the same
//! operation streams ([`apply`]) and require identical observations at
//! every step ([`assert_same`]).
//!
//! [`readiness`] holds the same kind of oracle for coordinator readiness:
//! the naive whole-transaction rescan that `ReadyFrontier` replaced.

#![allow(dead_code)] // each test binary uses a different subset

pub mod readiness;

use kplock::dlm::{
    Acquire, CancelOutcome, LockError, PreventionOutcome, PreventionScheme, QueueTable,
};
use kplock::model::{EntityId, LockMode};
use LockMode::{
    Exclusive as X, IntentionExclusive as IX, IntentionShared as IS, Shared as S,
    SharedIntentionExclusive as SIX,
};

/// The multi-granularity compatibility matrix, row by row.
fn compatible(a: LockMode, b: LockMode) -> bool {
    matches!(
        (a, b),
        (IS, IS | IX | S | SIX) | (IX, IS | IX) | (S, IS | S) | (SIX, IS)
    )
}

/// The lattice order `IS < IX, S < SIX < X`.
fn covers(a: LockMode, b: LockMode) -> bool {
    a == b || matches!((a, b), (X, _) | (SIX, IS | IX | S) | (S, IS) | (IX, IS))
}

/// Least upper bound; `IX` and `S` are the only incomparable pair.
fn join(a: LockMode, b: LockMode) -> LockMode {
    match (covers(a, b), covers(b, a)) {
        (true, _) => a,
        (_, true) => b,
        _ => SIX,
    }
}

type Grants = Vec<(u32, LockMode)>;

/// One entity: holders, pending upgrades (with their join targets) and
/// the FIFO wait queue.
#[derive(Clone, Debug)]
struct Entry {
    e: EntityId,
    holders: Grants,
    upgrades: Grants,
    queue: Grants,
}

impl Entry {
    fn waits(&self, o: u32) -> bool {
        self.queue.iter().chain(&self.upgrades).any(|w| w.0 == o)
    }

    /// `mode` is compatible with every holder other than `o`.
    fn admits(&self, o: u32, mode: LockMode) -> bool {
        self.holders
            .iter()
            .all(|&(h, m)| h == o || compatible(mode, m))
    }

    /// Grants admissible upgrades first, then the compatible FIFO prefix.
    fn promote(&mut self) -> Grants {
        let mut out = Vec::new();
        loop {
            if let Some(i) = self.upgrades.iter().position(|&(u, t)| self.admits(u, t)) {
                let (u, target) = self.upgrades.remove(i);
                self.holders
                    .iter_mut()
                    .filter(|h| h.0 == u)
                    .for_each(|h| h.1 = target);
                out.push((u, target));
            } else if self.upgrades.is_empty()
                && self.queue.first().is_some_and(|&(w, m)| self.admits(w, m))
            {
                let granted = self.queue.remove(0);
                self.holders.push(granted);
                out.push(granted);
            } else {
                return out;
            }
        }
    }
}

/// The reference table, keyed by `u32` owners; entries are kept in
/// ascending entity order and dropped when empty.
#[derive(Clone, Debug, Default)]
pub struct Oracle {
    entries: Vec<Entry>,
}

impl Oracle {
    fn get(&self, e: EntityId) -> Option<&Entry> {
        self.entries.iter().find(|en| en.e == e)
    }

    fn get_mut(&mut self, e: EntityId) -> &mut Entry {
        if self.get(e).is_none() {
            let (holders, upgrades, queue) = (Vec::new(), Vec::new(), Vec::new());
            self.entries.push(Entry {
                e,
                holders,
                upgrades,
                queue,
            });
            self.entries.sort_by_key(|en| en.e);
        }
        self.entries.iter_mut().find(|en| en.e == e).unwrap()
    }

    /// Drops empty entries (upgraders are holders, so two lists decide).
    fn prune(&mut self) {
        self.entries
            .retain(|en| !en.holders.is_empty() || !en.queue.is_empty());
    }

    /// `Ok(None)`: granted. `Ok(Some(upgrade))`: must wait, as a pending
    /// upgrade to the join target or (`None`) as a fresh request.
    fn admit(
        &mut self,
        e: EntityId,
        o: u32,
        mode: LockMode,
    ) -> Result<Option<Option<LockMode>>, LockError> {
        let en = self.get_mut(e);
        if en.waits(o) {
            return Err(LockError::AlreadyQueued { entity: e });
        }
        if let Some(i) = en.holders.iter().position(|h| h.0 == o) {
            let (held, target) = (en.holders[i].1, join(en.holders[i].1, mode));
            if covers(held, mode) || en.admits(o, target) {
                en.holders[i].1 = target;
                return Ok(None);
            }
            return Ok(Some(Some(target)));
        }
        if en.queue.is_empty() && en.upgrades.is_empty() && en.admits(o, mode) {
            en.holders.push((o, mode));
            return Ok(None);
        }
        Ok(Some(None))
    }

    fn enqueue(&mut self, e: EntityId, o: u32, mode: LockMode, upgrade: Option<LockMode>) {
        let en = self.get_mut(e);
        match upgrade {
            Some(target) => en.upgrades.push((o, target)),
            None => en.queue.push((o, mode)),
        }
    }

    pub fn request(&mut self, e: EntityId, o: u32, mode: LockMode) -> Result<Acquire, LockError> {
        let out = self.admit(e, o, mode).map(|waits| match waits {
            None => Acquire::Granted,
            Some(upgrade) => {
                self.enqueue(e, o, mode, upgrade);
                Acquire::Queued
            }
        });
        self.prune();
        out
    }

    /// Prevention admission: a waiting request is tested against the
    /// holders and upgraders, plus the queue for fresh requests.
    pub fn request_with_priority(
        &mut self,
        e: EntityId,
        o: u32,
        mode: LockMode,
        scheme: PreventionScheme,
        prio: impl Fn(u32) -> (u64, u64),
    ) -> Result<PreventionOutcome<u32>, LockError> {
        let Some(upgrade) = self.admit(e, o, mode)? else {
            return Ok(PreventionOutcome::Granted);
        };
        let en = self.get_mut(e);
        let mut obstacles: Vec<u32> = en.holders.iter().chain(&en.upgrades).map(|h| h.0).collect();
        if upgrade.is_none() {
            obstacles.extend(en.queue.iter().map(|w| w.0));
        }
        obstacles.retain(|&x| x != o);
        obstacles.sort();
        obstacles.dedup();
        let younger: Vec<u32> = obstacles
            .iter()
            .copied()
            .filter(|&x| prio(x) > prio(o))
            .collect();
        let outcome = match scheme {
            PreventionScheme::NoWait => return Ok(PreventionOutcome::Rejected),
            PreventionScheme::WaitDie if younger.len() < obstacles.len() => {
                return Ok(PreventionOutcome::Rejected)
            }
            PreventionScheme::WoundWait if !younger.is_empty() => {
                PreventionOutcome::Wounded(younger)
            }
            _ => PreventionOutcome::Queued,
        };
        self.enqueue(e, o, mode, upgrade);
        Ok(outcome)
    }

    pub fn release(&mut self, e: EntityId, o: u32) -> Result<Grants, LockError> {
        let en = self.entries.iter_mut().find(|en| en.e == e);
        let Some(en) = en.filter(|en| en.holders.iter().any(|h| h.0 == o)) else {
            return Err(LockError::NotHolder { entity: e });
        };
        en.holders.retain(|h| h.0 != o);
        en.upgrades.retain(|u| u.0 != o);
        let grants = en.promote();
        self.prune();
        Ok(grants)
    }

    pub fn release_idempotent(&mut self, e: EntityId, o: u32) -> Grants {
        self.release(e, o).unwrap_or_default()
    }

    pub fn cancel_waits(&mut self, o: u32) -> CancelOutcome<u32> {
        let mut out = CancelOutcome::default();
        for en in self.entries.iter_mut().filter(|en| en.waits(o)) {
            en.queue.retain(|w| w.0 != o);
            en.upgrades.retain(|u| u.0 != o);
            out.cancelled.push(en.e);
            let grants = en.promote();
            if !grants.is_empty() {
                out.granted.push((en.e, grants));
            }
        }
        self.prune();
        out
    }

    pub fn release_all(&mut self, o: u32) -> Vec<(EntityId, Grants)> {
        let held = self.held_by(o);
        held.into_iter()
            .map(|e| (e, self.release(e, o).unwrap()))
            .collect()
    }

    pub fn holds(&self, e: EntityId, o: u32) -> Option<LockMode> {
        self.get(e)?.holders.iter().find(|h| h.0 == o).map(|h| h.1)
    }

    pub fn holders(&self, e: EntityId) -> Grants {
        self.get(e).map(|en| en.holders.clone()).unwrap_or_default()
    }

    pub fn is_waiting(&self, e: EntityId, o: u32) -> bool {
        self.get(e).is_some_and(|en| en.waits(o))
    }

    pub fn held_by(&self, o: u32) -> Vec<EntityId> {
        let holding = self
            .entries
            .iter()
            .filter(|en| en.holders.iter().any(|h| h.0 == o));
        holding.map(|en| en.e).collect()
    }

    pub fn active_entities(&self) -> Vec<EntityId> {
        self.entries.iter().map(|en| en.e).collect()
    }

    /// Queued requests wait on every holder; upgraders on every other one.
    pub fn waits_for(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for en in &self.entries {
            for &(w, _) in en.queue.iter().chain(&en.upgrades) {
                out.extend(en.holders.iter().filter(|h| h.0 != w).map(|h| (w, h.0)));
            }
        }
        out.sort();
        out
    }

    pub fn waits_of(&self, o: u32) -> Vec<u32> {
        let edges = self.waits_for().into_iter().filter(|&(w, _)| w == o);
        let mut out: Vec<u32> = edges.map(|(_, h)| h).collect();
        out.dedup();
        out
    }

    pub fn is_idle(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One step of a differential operation stream.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// Plain FIFO request.
    Request { e: u32, o: u32, mode: LockMode },
    /// Prevention-admission request under one of the three schemes.
    RequestPrio {
        e: u32,
        o: u32,
        mode: LockMode,
        scheme: PreventionScheme,
    },
    /// Idempotent release (no-op when `o` holds nothing on `e`).
    Release { e: u32, o: u32 },
    /// Cancel all of `o`'s queued waits.
    Cancel { o: u32 },
    /// Release every lock `o` holds, everywhere.
    ReleaseAll { o: u32 },
}

/// Lower owner id = older transaction, like the runners' birth order.
pub fn prio(o: u32) -> (u64, u64) {
    (u64::from(o), 0)
}

/// Applies `op` to the oracle and the table; the results must match,
/// grant order included.
pub fn apply(r: &mut Oracle, q: &mut QueueTable<u32>, op: Op) {
    match op {
        Op::Request { e, o, mode } => {
            let want = r.request(EntityId(e), o, mode);
            assert_eq!(want, q.request(EntityId(e), o, mode), "{op:?}");
        }
        Op::RequestPrio { e, o, mode, scheme } => {
            let want = r.request_with_priority(EntityId(e), o, mode, scheme, prio);
            let got = q.request_with_priority(EntityId(e), o, mode, scheme, prio);
            assert_eq!(want, got, "{op:?}");
        }
        Op::Release { e, o } => {
            let want = r.release_idempotent(EntityId(e), o);
            assert_eq!(want, q.release_idempotent(EntityId(e), o), "{op:?}");
        }
        Op::Cancel { o } => assert_eq!(r.cancel_waits(o), q.cancel_waits(o), "{op:?}"),
        Op::ReleaseAll { o } => assert_eq!(r.release_all(o), q.release_all(o), "{op:?}"),
    }
}

/// Every observable of the table over `entities` × `owners` must match
/// the oracle, and the table must pass its own invariant check.
pub fn assert_same(r: &Oracle, q: &QueueTable<u32>, entities: u32, owners: u32, ctx: &str) {
    q.check_invariants()
        .unwrap_or_else(|e| panic!("table invariants after {ctx}: {e}"));
    assert_eq!(r.waits_for(), q.waits_for(), "waits_for after {ctx}");
    assert_eq!(
        r.active_entities(),
        q.active_entities(),
        "entities after {ctx}"
    );
    for o in 0..owners {
        assert_eq!(r.held_by(o), q.held_by(o), "held_by({o}) after {ctx}");
        assert_eq!(r.waits_of(o), q.waits_of(o), "waits_of({o}) after {ctx}");
    }
    for e in (0..entities).map(EntityId) {
        assert_eq!(r.holders(e), q.holders(e), "holders({e:?}) after {ctx}");
        for o in 0..owners {
            assert_eq!(r.holds(e, o), q.holds(e, o), "holds({e:?},{o}) after {ctx}");
            assert_eq!(
                r.is_waiting(e, o),
                q.is_waiting(e, o),
                "waiting({e:?},{o}) after {ctx}"
            );
        }
    }
}
