//! [`QueueTable`]: the reader–writer FIFO lock table over one partition
//! of the entity space.
//!
//! The table follows the MCS/CLH queue-lock design from *High-Performance
//! Distributed RMA Locks*: each request is an **intrusive queue node** in
//! a single arena, addressed by `u32` slot id and threaded through
//! doubly-linked `prev`/`next` ids, with freed nodes recycled through a
//! free list — so once the arenas are warm, the acquire → release → grant
//! hot path performs **zero heap allocations** (verified by the
//! counting-allocator test in `crates/dlm/tests/zero_alloc.rs`).
//!
//! Layout (one arena for nodes, one for entity states):
//!
//! ```text
//!  nodes: [ n0 | n1 | n2 | n3 | n4 | ... ]      free ──▶ n4 ──▶ ...
//!            ▲         ▲    │
//!            │prev/next│    │ (owner, mode, prev, next)
//!            ╰────═────╯    ▼
//!  estates: [ holders ⇄ … | queue ⇄ … | upgrades ⇄ … | streak ]
//!               ▲ per-entity state, slot id recycled via efree
//!  slots:  EntityId ─▶ estate id      owned: O ─▶ [EntityId] (held)
//! ```
//!
//! # Protocol
//!
//! * Co-held modes are pairwise compatible under the IS/IX/S/SIX/X matrix
//!   ([`LockMode::compatible_with`]): at most one `X` holder, never next
//!   to anyone else.
//! * The wait queue is FIFO: a queued request is granted only when it is
//!   at the front and compatible with the current holders; runs of
//!   adjacent compatible requests are granted together, and no request
//!   overtakes an earlier one, so writers never starve.
//! * A holder requesting a mode its held one does not cover starts an
//!   *upgrade* to the lattice join of the two. It takes priority over the
//!   queue but waits until the join is compatible with every other holder
//!   (for `S → X`: until it is the sole holder). Two concurrent upgraders
//!   deadlock by construction — that is the caller's problem to detect
//!   (see [`crate::WaitForGraph`]) and resolve by aborting one.
//! * Protocol violations return [`LockError`]; nothing panics.
//!
//! `tests/table_equivalence.rs` and `tests/lattice_props.rs` at the
//! workspace root drive the table and a naive `Vec`-based reference table
//! (`tests/common`) with the same operation streams and require identical
//! outputs at every step.
//!
//! Two *promotion-order* knobs change only which queued waiter a release
//! grants, never admission:
//!
//! * a reader/writer [`Bias`], and
//! * **topology-aware cohort handoff** ([`QueueTable::with_topology`]):
//!   owners are grouped into cohorts (e.g. by home site), and when a
//!   release frees the lock, the grant prefers a waiter from the
//!   *releasing owner's* cohort — bounded by a handoff cap so remote
//!   cohorts cannot starve — amortizing cross-site lock migration the way
//!   cohort locks amortize cross-NUMA-node handoff.
//!
//! Both knobs are off by default; a default-constructed `QueueTable` is
//! strict FIFO.

use crate::admission;
use crate::error::LockError;
use crate::lock_table::Bias;
use crate::prevent::{PreventionOutcome, PreventionScheme, Priority};
use crate::table::{Acquire, CancelOutcome, EntityGrants, Grants};
use kplock_model::{EntityId, LockMode};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;

/// Sentinel "null" slot id for intrusive links.
const NIL: u32 = u32::MAX;

/// Cohort topology: how many cohorts exist and how many consecutive
/// in-cohort handoffs are allowed before the grant must fall back to
/// strict FIFO (the anti-starvation bound).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Topology {
    cohorts: u32,
    handoff_cap: u32,
}

/// Default consecutive in-cohort handoffs before forced FIFO fallback.
const DEFAULT_HANDOFF_CAP: u32 = 8;

/// One arena-allocated request node: an (owner, mode) pair threaded into
/// exactly one of its entity's intrusive lists (holders, queue, or
/// upgrades) — or into the global free list via `next`.
#[derive(Clone, Copy, Debug)]
struct Node<O> {
    owner: O,
    mode: LockMode,
    prev: u32,
    next: u32,
}

/// An intrusive doubly-linked list: head/tail slot ids plus a length so
/// emptiness and count checks never walk the chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct List {
    head: u32,
    tail: u32,
    len: u32,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
        len: 0,
    };
}

/// Which of an entity's three lists an operation targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Part {
    Holders,
    Queue,
    Upgrades,
}

/// Per-entity state: three intrusive lists into the node arena plus the
/// cohort-handoff streak counter.
#[derive(Clone, Copy, Debug)]
struct EState {
    /// The entity this slot holds the state of (stale once recycled).
    entity: EntityId,
    holders: List,
    queue: List,
    upgrades: List,
    /// Consecutive in-cohort handoffs performed at this entity.
    streak: u32,
}

impl EState {
    fn new(entity: EntityId) -> EState {
        EState {
            entity,
            holders: List::EMPTY,
            queue: List::EMPTY,
            upgrades: List::EMPTY,
            streak: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.holders.len == 0 && self.queue.len == 0 && self.upgrades.len == 0
    }

    /// True when someone is queued or upgrade-pending here — the only
    /// entities that contribute wait-for edges.
    fn is_contended(&self) -> bool {
        self.queue.len > 0 || self.upgrades.len > 0
    }
}

/// The node ids of one intrusive list, head to tail.
#[derive(Clone)]
struct Ids<'a, O> {
    nodes: &'a [Node<O>],
    id: u32,
}

impl<O> Iterator for Ids<'_, O> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let id = self.id;
        if id == NIL {
            return None;
        }
        self.id = self.nodes[id as usize].next;
        Some(id)
    }
}

/// Arena-backed reader–writer FIFO lock table with free-list node reuse:
/// zero heap allocation on the steady-state acquire/release path.
///
/// `O` is the owner handle (a transaction instance, a session id, …); it
/// must be cheap to copy and totally ordered so every query can return
/// deterministic, sorted results. See the module docs for the protocol
/// and layout; construct via [`QueueTable::new`], then optionally
/// [`QueueTable::with_bias`] / [`QueueTable::with_topology`].
#[derive(Clone, Debug)]
pub struct QueueTable<O> {
    /// Request-node arena; freed nodes are chained through `next`.
    nodes: Vec<Node<O>>,
    /// Head of the node free list (`NIL` when empty).
    free: u32,
    /// Entity → estate slot.
    slots: HashMap<EntityId, u32>,
    /// Entity-state arena.
    estates: Vec<EState>,
    /// Recycled estate slots.
    efree: Vec<u32>,
    /// Per-owner reverse index: held entities, ascending. An owner's
    /// entry is removed when it empties — every abort-restart is a new
    /// owner, so kept entries would grow with the run's history.
    owned: HashMap<O, Vec<EntityId>>,
    /// Buffers of removed `owned` entries, reused by the next new owner so
    /// steady-state churn never reallocates them.
    owned_pool: Vec<Vec<EntityId>>,
    bias: Bias,
    topology: Option<Topology>,
    /// Maps an owner to its cohort in `0..cohorts`; meaningful only when
    /// `topology` is set. A plain `fn` pointer keeps the table cheap to
    /// clone and free of boxed closures.
    cohort_of: fn(O, u32) -> u32,
    /// Reusable obstacle buffer for the prevention admission path.
    scratch: Vec<O>,
}

fn cohort_unused<O>(_o: O, _n: u32) -> u32 {
    0
}

impl<O> Default for QueueTable<O> {
    fn default() -> Self {
        QueueTable {
            nodes: Vec::new(),
            free: NIL,
            slots: HashMap::new(),
            estates: Vec::new(),
            efree: Vec::new(),
            owned: HashMap::new(),
            owned_pool: Vec::new(),
            bias: Bias::Neutral,
            topology: None,
            cohort_of: cohort_unused::<O>,
            scratch: Vec::new(),
        }
    }
}

impl<O: Copy + Eq + Ord + Hash> QueueTable<O> {
    /// Creates an empty, neutral-bias, topology-free table — strict FIFO.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the reader/writer promotion bias (builder-style).
    pub fn with_bias(mut self, bias: Bias) -> Self {
        self.bias = bias;
        self
    }

    /// Enables cohort handoff: owners map to cohorts `0..cohorts` via
    /// `cohort_of`, and a release prefers granting a queued waiter from
    /// the releasing owner's cohort (up to a consecutive-handoff cap,
    /// after which strict FIFO resumes so no cohort starves). `cohorts ==
    /// 0` disables the feature.
    pub fn with_topology(mut self, cohorts: u32, cohort_of: fn(O, u32) -> u32) -> Self {
        self.topology = (cohorts > 0).then_some(Topology {
            cohorts,
            handoff_cap: DEFAULT_HANDOFF_CAP,
        });
        self.cohort_of = cohort_of;
        self
    }

    // ------------------------------------------------------------------
    // Arena plumbing.
    // ------------------------------------------------------------------

    fn alloc_node(&mut self, owner: O, mode: LockMode) -> u32 {
        if self.free != NIL {
            let id = self.free;
            let n = &mut self.nodes[id as usize];
            self.free = n.next;
            n.owner = owner;
            n.mode = mode;
            n.prev = NIL;
            n.next = NIL;
            id
        } else {
            self.nodes.push(Node {
                owner,
                mode,
                prev: NIL,
                next: NIL,
            });
            (self.nodes.len() - 1) as u32
        }
    }

    fn free_node(&mut self, id: u32) {
        let n = &mut self.nodes[id as usize];
        n.prev = NIL;
        n.next = self.free;
        self.free = id;
    }

    fn list(&self, si: u32, part: Part) -> List {
        let st = &self.estates[si as usize];
        match part {
            Part::Holders => st.holders,
            Part::Queue => st.queue,
            Part::Upgrades => st.upgrades,
        }
    }

    fn list_mut(&mut self, si: u32, part: Part) -> &mut List {
        let st = &mut self.estates[si as usize];
        match part {
            Part::Holders => &mut st.holders,
            Part::Queue => &mut st.queue,
            Part::Upgrades => &mut st.upgrades,
        }
    }

    /// Iterates `list`'s node ids in place.
    fn ids(&self, list: List) -> Ids<'_, O> {
        Ids {
            nodes: &self.nodes,
            id: list.head,
        }
    }

    /// Iterates `list`'s `(owner, mode)` pairs in place.
    fn walk(&self, list: List) -> impl Iterator<Item = (O, LockMode)> + Clone + '_ {
        self.ids(list).map(|id| {
            let n = &self.nodes[id as usize];
            (n.owner, n.mode)
        })
    }

    fn push_back(&mut self, si: u32, part: Part, id: u32) {
        let tail = self.list(si, part).tail;
        {
            let n = &mut self.nodes[id as usize];
            n.prev = tail;
            n.next = NIL;
        }
        if tail != NIL {
            self.nodes[tail as usize].next = id;
        }
        let list = self.list_mut(si, part);
        if list.head == NIL {
            list.head = id;
        }
        list.tail = id;
        list.len += 1;
    }

    fn unlink(&mut self, si: u32, part: Part, id: u32) {
        let (prev, next) = {
            let n = &self.nodes[id as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        }
        let list = self.list_mut(si, part);
        if list.head == id {
            list.head = next;
        }
        if list.tail == id {
            list.tail = prev;
        }
        list.len -= 1;
        let n = &mut self.nodes[id as usize];
        n.prev = NIL;
        n.next = NIL;
    }

    /// Finds the node in `list` owned by `o`, walking the chain.
    fn find_in(&self, list: List, o: O) -> Option<u32> {
        self.ids(list)
            .find(|&id| self.nodes[id as usize].owner == o)
    }

    fn slot_of(&self, e: EntityId) -> Option<u32> {
        self.slots.get(&e).copied()
    }

    fn slot_for(&mut self, e: EntityId) -> u32 {
        if let Some(&si) = self.slots.get(&e) {
            return si;
        }
        let si = if let Some(si) = self.efree.pop() {
            self.estates[si as usize] = EState::new(e);
            si
        } else {
            self.estates.push(EState::new(e));
            (self.estates.len() - 1) as u32
        };
        self.slots.insert(e, si);
        si
    }

    fn prune_if_empty(&mut self, e: EntityId, si: u32) {
        if self.estates[si as usize].is_empty() {
            self.slots.remove(&e);
            self.efree.push(si);
        }
    }

    /// Records `o` as holding `e` (idempotent — upgrade grants re-report
    /// an existing holder).
    fn owned_insert(&mut self, o: O, e: EntityId) {
        let pool = &mut self.owned_pool;
        let v = self
            .owned
            .entry(o)
            .or_insert_with(|| pool.pop().unwrap_or_default());
        if let Err(i) = v.binary_search(&e) {
            v.insert(i, e);
        }
    }

    /// Removes `e` from `o`'s entry, dropping the entry (and pooling its
    /// buffer) when it empties.
    fn owned_remove(&mut self, o: O, e: EntityId) {
        let Entry::Occupied(mut entry) = self.owned.entry(o) else {
            return;
        };
        let v = entry.get_mut();
        if let Ok(i) = v.binary_search(&e) {
            v.remove(i);
        }
        if v.is_empty() {
            self.owned_pool.push(entry.remove());
        }
    }

    /// True iff `mode` is compatible with every current holder.
    fn holders_compatible_with(&self, si: u32, mode: LockMode) -> bool {
        let holders = self.walk(self.estates[si as usize].holders);
        admission::compatible_with_all(mode, holders.map(|(_, m)| m))
    }

    /// True iff holder `owner` could be granted `target` right now: the
    /// join target is compatible with every *other* holder (for `S → X`:
    /// sole holder).
    fn upgrade_admissible(&self, si: u32, owner: O, target: LockMode) -> bool {
        let holders = self.walk(self.estates[si as usize].holders);
        admission::upgrade_admissible(owner, target, holders)
    }

    // ------------------------------------------------------------------
    // Admission.
    // ------------------------------------------------------------------

    /// The admission step shared by [`QueueTable::request`] and
    /// [`QueueTable::request_with_priority`], so the two paths can never
    /// diverge on what is grantable: rejects duplicates, grants covered
    /// re-requests, in-place upgrades and compatible fresh requests, and
    /// otherwise reports that the request must wait (without enqueueing
    /// it — whether and where it waits is the caller's policy).
    ///
    /// `Ok(None)` = granted; `Ok(Some(None))` = must wait as a fresh
    /// request; `Ok(Some(Some(target)))` = must wait as an upgrade to the
    /// lattice-join `target`.
    fn try_admit(
        &mut self,
        si: u32,
        e: EntityId,
        o: O,
        mode: LockMode,
    ) -> Result<Option<Option<LockMode>>, LockError> {
        let st = self.estates[si as usize];
        if self.find_in(st.queue, o).is_some() || self.find_in(st.upgrades, o).is_some() {
            return Err(LockError::AlreadyQueued { entity: e });
        }
        if let Some(hid) = self.find_in(st.holders, o) {
            let held = self.nodes[hid as usize].mode;
            if held.covers(mode) {
                return Ok(None);
            }
            // Upgrade to the lattice join, in place when the target is
            // compatible with every *other* holder (for `S → X`: sole
            // holder; for e.g. `IS → IX` next to `IS` co-holders: always).
            let target = held.join(mode);
            if self.upgrade_admissible(si, o, target) {
                self.nodes[hid as usize].mode = target;
                return Ok(None);
            }
            return Ok(Some(Some(target)));
        }
        let grantable = if st.holders.len == 0 {
            st.queue.len == 0
        } else {
            st.upgrades.len == 0 && st.queue.len == 0 && self.holders_compatible_with(si, mode)
        };
        if grantable {
            let id = self.alloc_node(o, mode);
            self.push_back(si, Part::Holders, id);
            self.owned_insert(o, e);
            Ok(None)
        } else {
            Ok(Some(None))
        }
    }

    // ------------------------------------------------------------------
    // Promotion.
    // ------------------------------------------------------------------

    /// Whether the queue node `id` could be granted *now* if it were at
    /// the front (the FIFO compatibility rule).
    fn compatible_now(&self, si: u32, id: u32) -> bool {
        let st = self.estates[si as usize];
        if st.holders.len == 0 {
            true
        } else {
            st.upgrades.len == 0 && self.holders_compatible_with(si, self.nodes[id as usize].mode)
        }
    }

    /// Picks the next queue node to grant, or `None` to stop promoting.
    /// Neutral bias + no topology reduces to "the front, iff compatible".
    fn pick_candidate(&mut self, si: u32, from_cohort: Option<u32>) -> Option<u32> {
        let st = self.estates[si as usize];
        let front = (st.queue.head != NIL).then_some(st.queue.head)?;

        // Cohort handoff: only when the lock is free (so any mode can be
        // granted) and the consecutive-handoff cap is not exhausted.
        if let (Some(topo), Some(from)) = (self.topology, from_cohort) {
            if st.holders.len == 0 {
                if st.streak < topo.handoff_cap {
                    let local = self.ids(st.queue).find(|&id| {
                        (self.cohort_of)(self.nodes[id as usize].owner, topo.cohorts) == from
                    });
                    if let Some(id) = local {
                        // Granting the front is a plain FIFO grant, not a
                        // handoff: only skips spend the budget.
                        let streak = if id == front { 0 } else { st.streak + 1 };
                        self.estates[si as usize].streak = streak;
                        return Some(id);
                    }
                }
                // No local candidate (or cap exhausted): the FIFO grant
                // below crosses cohorts, so the streak restarts.
                self.estates[si as usize].streak = 0;
            }
        }

        match self.bias {
            Bias::Neutral => self.compatible_now(si, front).then_some(front),
            Bias::WriterPreference => {
                // When the lock falls free, serve the first queued writer
                // even past earlier readers; otherwise strict FIFO.
                if st.holders.len == 0 && self.nodes[front as usize].mode != LockMode::Exclusive {
                    let writer = self
                        .ids(st.queue)
                        .find(|&id| self.nodes[id as usize].mode == LockMode::Exclusive);
                    Some(writer.unwrap_or(front)) // no writer queued: FIFO
                } else {
                    self.compatible_now(si, front).then_some(front)
                }
            }
            Bias::ReaderBatch => {
                if self.compatible_now(si, front) {
                    return Some(front);
                }
                // Front is blocked (a writer, typically): pull any later
                // compatible request forward while the holder set admits
                // it (for `S`/`X`: later readers past a queued writer).
                if st.upgrades.len > 0 || st.holders.len == 0 {
                    return None;
                }
                self.ids(st.queue)
                    .find(|&id| self.holders_compatible_with(si, self.nodes[id as usize].mode))
            }
        }
    }

    /// Grants whatever the state now admits: admissible pending upgrades
    /// first (an upgrade is grantable when its join target is compatible
    /// with every *other* holder — for `S → X`, when the upgrader is the
    /// sole holder), then queue candidates per bias/topology (by default
    /// the longest compatible prefix of the FIFO queue). Appends
    /// `(owner, mode)` grants to `out`.
    fn promote(&mut self, si: u32, e: EntityId, from_cohort: Option<u32>, out: &mut Grants<O>) {
        loop {
            let st = self.estates[si as usize];
            // Admissible upgrades are always served first, FIFO among
            // themselves; upgrade nodes carry their join target as mode.
            let ready = self.ids(st.upgrades).find(|&uid| {
                let n = &self.nodes[uid as usize];
                self.upgrade_admissible(si, n.owner, n.mode)
            });
            if let Some(uid) = ready {
                let Node {
                    owner,
                    mode: target,
                    ..
                } = self.nodes[uid as usize];
                if let Some(hid) = self.find_in(st.holders, owner) {
                    self.nodes[hid as usize].mode = target;
                }
                self.unlink(si, Part::Upgrades, uid);
                self.free_node(uid);
                out.push((owner, target));
                continue;
            }
            let Some(id) = self.pick_candidate(si, from_cohort) else {
                break;
            };
            let (owner, mode) = {
                let n = &self.nodes[id as usize];
                (n.owner, n.mode)
            };
            self.unlink(si, Part::Queue, id);
            self.push_back(si, Part::Holders, id);
            self.owned_insert(owner, e);
            out.push((owner, mode));
        }
    }

    /// The releasing owner's cohort, when topology is enabled.
    fn cohort_hint(&self, o: O) -> Option<u32> {
        self.topology.map(|t| (self.cohort_of)(o, t.cohorts))
    }

    /// Appends the waits-for edges of one entity state: queued requests
    /// wait on every holder, pending upgraders on every *other* holder.
    fn push_edges(&self, st: &EState, out: &mut Vec<(O, O)>) {
        for (w, _) in self.walk(st.queue).chain(self.walk(st.upgrades)) {
            let holders = self.walk(st.holders);
            out.extend(holders.filter(|&(h, _)| h != w).map(|(h, _)| (w, h)));
        }
    }

    // ------------------------------------------------------------------
    // Public protocol surface.
    // ------------------------------------------------------------------

    /// Requests `mode` on `e` for `o`.
    ///
    /// Re-requesting a mode already covered by the held one returns
    /// [`Acquire::Granted`] without changing state. A holder requesting a
    /// stronger mode starts an *upgrade* to the lattice join: granted
    /// immediately if the join is compatible with every other holder (for
    /// `S → X`: if it is the sole holder), otherwise pending until they
    /// release (reported as `Queued`).
    ///
    /// Returns [`LockError::AlreadyQueued`] if `o` is already queued or
    /// upgrade-pending on `e`.
    pub fn request(&mut self, e: EntityId, o: O, mode: LockMode) -> Result<Acquire, LockError> {
        let si = self.slot_for(e);
        let out = match self.try_admit(si, e, o, mode) {
            Err(err) => {
                self.prune_if_empty(e, si);
                return Err(err);
            }
            Ok(None) => Acquire::Granted,
            Ok(Some(Some(target))) => {
                // Upgrade nodes carry the join target being requested.
                let id = self.alloc_node(o, target);
                self.push_back(si, Part::Upgrades, id);
                Acquire::Queued
            }
            Ok(Some(None)) => {
                let id = self.alloc_node(o, mode);
                self.push_back(si, Part::Queue, id);
                Acquire::Queued
            }
        };
        Ok(out)
    }

    /// Requests `mode` on `e` for `o` under a timestamp-ordering deadlock
    /// *prevention* scheme (see [`crate::prevent`]). Behaves exactly like
    /// [`QueueTable::request`] when the lock is grantable; when the request
    /// would have to wait, the scheme decides from priorities alone:
    ///
    /// * [`PreventionScheme::NoWait`] — [`PreventionOutcome::Rejected`].
    /// * [`PreventionScheme::WaitDie`] — queued iff `o` is older than
    ///   every conflicting owner; otherwise rejected.
    /// * [`PreventionScheme::WoundWait`] — always queued; every younger
    ///   conflicting owner is returned as a wound victim the caller must
    ///   abort ([`PreventionOutcome::Wounded`]).
    ///
    /// The conflicting owners a fresh request is tested against are the
    /// current holders **and** the queued waiters and pending upgraders —
    /// the waiters are tomorrow's holders under FIFO retargeting, and
    /// admitting against all of them is what keeps the scheme's no-cycle
    /// invariant stable for the lifetime of the wait. A contended
    /// *upgrade* is tested against the other holders and upgraders only:
    /// [`QueueTable::release`]'s grant step serves a pending upgrade before
    /// any queue entry, so queued waiters can never become holders ahead
    /// of it and are not obstacles (treating them as such inflates
    /// restarts for waits that cannot exist).
    ///
    /// `prio` maps any owner at this entity to its [`Priority`] (smaller =
    /// older); priorities must be distinct per owner and stable across
    /// restarts. The table stores none of this — prevention is stateless
    /// local arithmetic, which is the entire point of the schemes.
    ///
    /// A grantable request (including an in-place upgrade) is granted
    /// without consulting `prio`.
    pub fn request_with_priority(
        &mut self,
        e: EntityId,
        o: O,
        mode: LockMode,
        scheme: PreventionScheme,
        prio: impl Fn(O) -> Priority,
    ) -> Result<PreventionOutcome<O>, LockError> {
        let si = self.slot_for(e);
        let upgrade = match self.try_admit(si, e, o, mode) {
            Err(err) => {
                self.prune_if_empty(e, si);
                return Err(err);
            }
            Ok(None) => return Ok(PreventionOutcome::Granted),
            Ok(Some(upgrade)) => upgrade,
        };
        let mut obstacles = std::mem::take(&mut self.scratch);
        obstacles.clear();
        let st = self.estates[si as usize];
        obstacles.extend(
            self.walk(st.holders)
                .chain(self.walk(st.upgrades))
                .map(|(x, _)| x),
        );
        if upgrade.is_none() {
            // An upgrader only ever waits on the other holders (and
            // competing upgraders — a genuine upgrade-vs-upgrade cycle);
            // the queue is served after it, so queued waiters are
            // obstacles for fresh requests only.
            obstacles.extend(self.walk(st.queue).map(|(x, _)| x));
        }
        obstacles.retain(|&x| x != o);
        obstacles.sort();
        obstacles.dedup();
        let mine = prio(o);
        let admit = |table: &mut Self| {
            if let Some(target) = upgrade {
                let id = table.alloc_node(o, target);
                table.push_back(si, Part::Upgrades, id);
            } else {
                let id = table.alloc_node(o, mode);
                table.push_back(si, Part::Queue, id);
            }
        };
        let outcome = match scheme {
            PreventionScheme::NoWait => PreventionOutcome::Rejected,
            PreventionScheme::WaitDie => {
                if obstacles.iter().all(|&x| mine < prio(x)) {
                    admit(self);
                    PreventionOutcome::Queued
                } else {
                    PreventionOutcome::Rejected
                }
            }
            PreventionScheme::WoundWait => {
                let victims: Vec<O> = obstacles
                    .iter()
                    .copied()
                    .filter(|&x| prio(x) > mine)
                    .collect();
                admit(self);
                if victims.is_empty() {
                    PreventionOutcome::Queued
                } else {
                    PreventionOutcome::Wounded(victims)
                }
            }
        };
        obstacles.clear();
        self.scratch = obstacles;
        self.prune_if_empty(e, si);
        Ok(outcome)
    }

    /// Releases `o`'s lock on `e`, appending the grants this unblocked to
    /// `out` in promotion order — the zero-allocation hot path when the
    /// caller reuses the buffer (`out` is *not* cleared first). A pending
    /// upgrade by `o` is cancelled alongside.
    ///
    /// Returns [`LockError::NotHolder`] if `o` holds no lock on `e`.
    pub fn release_into(
        &mut self,
        e: EntityId,
        o: O,
        out: &mut Grants<O>,
    ) -> Result<(), LockError> {
        let Some(si) = self.slot_of(e) else {
            return Err(LockError::NotHolder { entity: e });
        };
        let st = self.estates[si as usize];
        let Some(hid) = self.find_in(st.holders, o) else {
            return Err(LockError::NotHolder { entity: e });
        };
        self.unlink(si, Part::Holders, hid);
        self.free_node(hid);
        self.owned_remove(o, e);
        if let Some(uid) = self.find_in(self.estates[si as usize].upgrades, o) {
            self.unlink(si, Part::Upgrades, uid);
            self.free_node(uid);
        }
        let hint = self.cohort_hint(o);
        self.promote(si, e, hint, out);
        self.prune_if_empty(e, si);
        Ok(())
    }

    /// Releases `o`'s lock on `e`; returns the grants this unblocked.
    /// Allocating convenience over [`QueueTable::release_into`].
    pub fn release(&mut self, e: EntityId, o: O) -> Result<Grants<O>, LockError> {
        let mut out = Grants::new();
        self.release_into(e, o, &mut out)?;
        Ok(out)
    }

    /// Releases `o`'s lock on `e` if it holds one; a no-op (empty grant
    /// list) otherwise. The idempotent twin of [`QueueTable::release`] for
    /// callers whose release messages can be duplicated or retransmitted:
    /// the first copy releases, every later copy finds no hold and does
    /// nothing — in particular it can never release a *subsequent*
    /// holder's lock, because release is keyed by owner.
    pub fn release_idempotent(&mut self, e: EntityId, o: O) -> Grants<O> {
        self.release(e, o).unwrap_or_default()
    }

    /// Removes `o` from every wait queue and pending-upgrade slot. Grants
    /// unblocked by the cancellation are performed and reported.
    pub fn cancel_waits(&mut self, o: O) -> CancelOutcome<O> {
        // Only contended entities can hold a wait; recycled slots are empty.
        let mut waiting: Vec<(EntityId, u32)> = (0u32..)
            .zip(&self.estates)
            .filter(|&(_, st)| {
                st.is_contended()
                    && (self.find_in(st.queue, o).is_some()
                        || self.find_in(st.upgrades, o).is_some())
            })
            .map(|(si, st)| (st.entity, si))
            .collect();
        waiting.sort_unstable();
        let mut out = CancelOutcome::default();
        for (e, si) in waiting {
            if let Some(id) = self.find_in(self.estates[si as usize].queue, o) {
                self.unlink(si, Part::Queue, id);
                self.free_node(id);
            }
            if let Some(id) = self.find_in(self.estates[si as usize].upgrades, o) {
                self.unlink(si, Part::Upgrades, id);
                self.free_node(id);
            }
            out.cancelled.push(e);
            let mut grants = Grants::new();
            self.promote(si, e, None, &mut grants);
            if !grants.is_empty() {
                out.granted.push((e, grants));
            }
            self.prune_if_empty(e, si);
        }
        out
    }

    /// Releases everything `o` holds; returns `(entity, grants)` pairs in
    /// ascending entity order.
    pub fn release_all(&mut self, o: O) -> EntityGrants<O> {
        self.held_by(o)
            .into_iter()
            .map(|e| {
                let grants = self.release(e, o).expect("held_by listed the entity");
                (e, grants)
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Queries.
    // ------------------------------------------------------------------

    /// The mode `o` holds on `e`, if any.
    pub fn holds(&self, e: EntityId, o: O) -> Option<LockMode> {
        let si = self.slot_of(e)?;
        self.find_in(self.estates[si as usize].holders, o)
            .map(|id| self.nodes[id as usize].mode)
    }

    /// Current holders of `e` with their modes, in grant order.
    pub fn holders(&self, e: EntityId) -> Vec<(O, LockMode)> {
        self.slot_of(e)
            .map(|si| self.walk(self.estates[si as usize].holders).collect())
            .unwrap_or_default()
    }

    /// Sole exclusive holder of `e`, if the lock is held exclusively.
    pub fn exclusive_holder(&self, e: EntityId) -> Option<O> {
        let si = self.slot_of(e)?;
        let st = self.estates[si as usize];
        if st.holders.len == 1 {
            let n = &self.nodes[st.holders.head as usize];
            (n.mode == LockMode::Exclusive).then_some(n.owner)
        } else {
            None
        }
    }

    /// Entities currently held by `o`, ascending (O(held), from the
    /// reverse index).
    pub fn held_by(&self, o: O) -> Vec<EntityId> {
        self.owned.get(&o).cloned().unwrap_or_default()
    }

    /// The waits-for edges `(waiter, holder)` induced by `e` alone,
    /// ascending: queued requests wait on every holder; pending upgraders
    /// wait on every *other* holder.
    pub fn entity_waits_for(&self, e: EntityId) -> Vec<(O, O)> {
        let mut out = Vec::new();
        if let Some(si) = self.slot_of(e) {
            self.push_edges(&self.estates[si as usize], &mut out);
        }
        out.sort();
        out
    }

    /// All waits-for edges `(waiter, holder)` at this table, ascending.
    /// Visits only contended entities — entities without waiters
    /// contribute no edges.
    pub fn waits_for(&self) -> Vec<(O, O)> {
        let mut out = Vec::new();
        // Recycled estate slots are empty, hence uncontended.
        for st in self.estates.iter().filter(|st| st.is_contended()) {
            self.push_edges(st, &mut out);
        }
        out.sort();
        out
    }

    /// The holders `o` waits on at *this* table — `o`'s outgoing wait-for
    /// edges in the site-local view, ascending and deduplicated. This is
    /// what a distributed edge-chasing detector asks a site when a probe
    /// arrives: "is this owner blocked here, and on whom?" — answerable
    /// from local state alone, with no global wait-for graph.
    pub fn waits_of(&self, o: O) -> Vec<O> {
        let mut out = Vec::new();
        for st in self.estates.iter().filter(|st| st.is_contended()) {
            if self.find_in(st.queue, o).is_some() || self.find_in(st.upgrades, o).is_some() {
                let holders = self.walk(st.holders).map(|(h, _)| h);
                out.extend(holders.filter(|&h| h != o));
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// True when `o` is waiting at `e` — queued, or a holder with a
    /// pending upgrade. The duplicate-detection primitive a caller facing
    /// an unreliable network needs: a *retransmitted* lock request whose
    /// original is already queued must be recognized and dropped (the
    /// grant will come through the queue), where [`QueueTable::request`]
    /// would report it as a protocol error.
    pub fn is_waiting(&self, e: EntityId, o: O) -> bool {
        self.slot_of(e).is_some_and(|si| {
            let st = self.estates[si as usize];
            self.find_in(st.queue, o).is_some() || self.find_in(st.upgrades, o).is_some()
        })
    }

    /// The owners a re-submitted request by `o` on `e` would be admitted
    /// against under [`QueueTable::request_with_priority`], ascending and
    /// deduplicated: holders and pending upgraders always; queued waiters
    /// only when `o` is *not* itself a pending upgrader — an upgrade is
    /// served ahead of the queue, so queued waiters are never its
    /// obstacles (mirroring the admission path's obstacle set exactly).
    /// A caller re-delivering a wound-wait request whose original wound
    /// orders may have been lost re-derives its victim set from exactly
    /// this list — the table stays policy-free, the caller re-applies the
    /// priority filter.
    pub fn conflicts_of(&self, e: EntityId, o: O) -> Vec<O> {
        let Some(si) = self.slot_of(e) else {
            return Vec::new();
        };
        let st = self.estates[si as usize];
        let mut out: Vec<O> = self
            .walk(st.holders)
            .chain(self.walk(st.upgrades))
            .map(|(x, _)| x)
            .collect();
        if self.find_in(st.upgrades, o).is_none() {
            out.extend(self.walk(st.queue).map(|(x, _)| x));
        }
        out.retain(|&x| x != o);
        out.sort();
        out.dedup();
        out
    }

    /// Entities with any lock state (held or queued), ascending.
    pub fn active_entities(&self) -> Vec<EntityId> {
        let mut v: Vec<EntityId> = self.slots.keys().copied().collect();
        v.sort();
        v
    }

    /// True when nothing is held or queued anywhere.
    pub fn is_idle(&self) -> bool {
        self.slots.is_empty()
    }

    /// Checks the table's structural invariants (for tests and audits):
    /// pairwise mode compatibility of all co-held locks (the full
    /// IS/IX/S/SIX/X matrix — catches `S+IX` and `SIX+SIX` as well as
    /// `S+X` and double-`X`), upgraders are holders with strictly stronger
    /// targets, no holder-and-waiter owners, and arena integrity (list
    /// links consistent, lengths correct, freed nodes never reachable, the
    /// `owned` index exact, with no empty entries).
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut reachable = 0u32;
        let mut held = 0usize;
        for (&e, &si) in &self.slots {
            let st = self.estates[si as usize];
            if st.is_empty() {
                return Err(format!("{e}: empty state not pruned"));
            }
            if st.entity != e {
                return Err(format!("{e}: slot records {}", st.entity));
            }
            for part in [Part::Holders, Part::Queue, Part::Upgrades] {
                let list = self.list(si, part);
                let mut id = list.head;
                let mut prev = NIL;
                let mut count = 0u32;
                while id != NIL {
                    let n = &self.nodes[id as usize];
                    if n.prev != prev {
                        return Err(format!("{e}: broken prev link in {part:?}"));
                    }
                    prev = id;
                    id = n.next;
                    count += 1;
                    if count > self.nodes.len() as u32 {
                        return Err(format!("{e}: cycle in {part:?} list"));
                    }
                }
                if list.tail != prev {
                    return Err(format!("{e}: tail mismatch in {part:?}"));
                }
                if list.len != count {
                    return Err(format!("{e}: length mismatch in {part:?}"));
                }
                reachable += count;
            }
            let modes = self.walk(st.holders).map(|(_, m)| m);
            if let Some((a, b)) = admission::incompatible_pair(modes) {
                return Err(format!("{e}: incompatible co-held modes {a}+{b}"));
            }
            for (u, target) in self.walk(st.upgrades) {
                let Some(hid) = self.find_in(st.holders, u) else {
                    return Err(format!("{e}: upgrader is not a holder"));
                };
                let held = self.nodes[hid as usize].mode;
                if held.covers(target) {
                    return Err(format!(
                        "{e}: pending upgrade to {target} already covered by held {held}"
                    ));
                }
            }
            for (w, _) in self.walk(st.queue) {
                if self.find_in(st.holders, w).is_some() {
                    return Err(format!("{e}: owner both holds and waits"));
                }
            }
            for hid in self.ids(st.holders) {
                let h = self.nodes[hid as usize].owner;
                if self.find_in(st.holders, h) != Some(hid) {
                    return Err(format!("{e}: owner holds twice"));
                }
                let indexed = self
                    .owned
                    .get(&h)
                    .is_some_and(|v| v.binary_search(&e).is_ok());
                if !indexed {
                    return Err(format!("{e}: holder missing from owned index"));
                }
            }
            held += st.holders.len as usize;
        }
        // Free list + reachable nodes partition the arena exactly.
        let mut free_count = 0u32;
        let mut id = self.free;
        while id != NIL {
            free_count += 1;
            if free_count > self.nodes.len() as u32 {
                return Err("cycle in node free list".to_string());
            }
            id = self.nodes[id as usize].next;
        }
        if reachable + free_count != self.nodes.len() as u32 {
            return Err(format!(
                "arena leak: {} reachable + {} free != {} nodes",
                reachable,
                free_count,
                self.nodes.len()
            ));
        }
        // Every hold is indexed, no owner holds an entity twice and each
        // entry is strictly ascending, so the index has a stale entry iff it
        // lists more pairs than there are holds.
        let mut indexed = 0usize;
        for entities in self.owned.values() {
            if entities.is_empty() {
                return Err("empty owned index entry not pruned".to_string());
            }
            if !entities.windows(2).all(|w| w[0] < w[1]) {
                return Err("owned index entry not strictly ascending".to_string());
            }
            indexed += entities.len();
        }
        if indexed != held {
            return Err(format!(
                "stale owned index entry: {indexed} indexed, {held} held"
            ));
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
    fn s() -> LockMode {
        LockMode::Shared
    }

    #[test]
    fn exclusive_fifo_grant_queue_release() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        assert_eq!(t.request(e, 0, x()).unwrap(), Acquire::Granted);
        assert_eq!(t.request(e, 1, x()).unwrap(), Acquire::Queued);
        assert_eq!(t.request(e, 2, x()).unwrap(), Acquire::Queued);
        assert_eq!(t.holds(e, 0), Some(x()));
        assert_eq!(t.waits_for(), vec![(1, 0), (2, 0)]);
        assert_eq!(t.release(e, 0).unwrap(), vec![(1, x())]);
        assert_eq!(t.release(e, 1).unwrap(), vec![(2, x())]);
        assert_eq!(t.release(e, 2).unwrap(), vec![]);
        assert!(t.is_idle());
        t.check_invariants().unwrap();
    }

    #[test]
    fn nodes_are_recycled_not_grown() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        for round in 0..100 {
            t.request(e, 0, x()).unwrap();
            t.request(e, 1, x()).unwrap();
            assert_eq!(t.release(e, 0).unwrap(), vec![(1, x())]);
            assert_eq!(t.release(e, 1).unwrap(), vec![]);
            t.check_invariants()
                .unwrap_or_else(|err| panic!("round {round}: {err}"));
        }
        assert!(
            t.nodes.len() <= 2,
            "arena grew to {} nodes for a 2-owner workload",
            t.nodes.len()
        );
        assert!(t.estates.len() <= 1, "estate arena grew");
    }

    #[test]
    fn owned_index_holds_only_live_owners() {
        // Every abort-restart is a new owner key. Hand one entity down a
        // chain of 500 short-lived owners, each also taking a private
        // entity: the reverse index must end up holding the one live
        // owner, and recycle its buffers instead of pooling one per owner.
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        t.request(e, 0, x()).unwrap();
        for o in 0..500u32 {
            assert_eq!(t.request(e, o + 1, x()).unwrap(), Acquire::Queued);
            assert_eq!(
                t.request(EntityId(1 + o), o, s()).unwrap(),
                Acquire::Granted
            );
            assert_eq!(t.release(e, o).unwrap(), vec![(o + 1, x())]);
            assert_eq!(t.release_all(o), vec![(EntityId(1 + o), vec![])]);
            t.check_invariants()
                .unwrap_or_else(|err| panic!("owner {o}: {err}"));
        }
        assert_eq!(t.owned.len(), 1, "index kept dead owners");
        assert_eq!(t.held_by(500), vec![e]);
        assert!(
            t.owned_pool.len() <= 2,
            "pool grew to {}",
            t.owned_pool.len()
        );
    }

    #[test]
    fn check_invariants_catches_owned_index_corruption() {
        let mut t: QueueTable<u32> = QueueTable::new();
        t.request(EntityId(0), 0, x()).unwrap();
        t.check_invariants().unwrap();
        let corrupt = |f: fn(&mut QueueTable<u32>)| {
            let mut bad = t.clone();
            f(&mut bad);
            bad.check_invariants().unwrap_err()
        };
        let stale = corrupt(|b| b.owned.get_mut(&0).unwrap().push(EntityId(9)));
        assert!(stale.contains("stale owned index entry"), "{stale}");
        let empty = corrupt(|b| drop(b.owned.insert(7, Vec::new())));
        assert!(empty.contains("empty owned index entry"), "{empty}");
        let missing = corrupt(|b| drop(b.owned.remove(&0)));
        assert!(missing.contains("missing from owned index"), "{missing}");
    }

    #[test]
    fn shared_batch_and_upgrade_follow_fifo_rules() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        t.request(e, 0, x()).unwrap();
        t.request(e, 1, s()).unwrap();
        t.request(e, 2, s()).unwrap();
        t.request(e, 3, x()).unwrap();
        assert_eq!(t.release(e, 0).unwrap(), vec![(1, s()), (2, s())]);
        // Contended upgrade: 1 upgrades, waits on 2.
        assert_eq!(t.request(e, 1, x()).unwrap(), Acquire::Queued);
        assert_eq!(t.waits_for(), vec![(1, 2), (3, 1), (3, 2)]);
        assert_eq!(t.release(e, 2).unwrap(), vec![(1, x())]);
        assert_eq!(t.holds(e, 1), Some(x()));
        assert_eq!(t.release(e, 1).unwrap(), vec![(3, x())]);
        t.check_invariants().unwrap();
    }

    #[test]
    fn sole_holder_upgrade_in_place() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        t.request(e, 7, s()).unwrap();
        assert_eq!(t.request(e, 7, x()).unwrap(), Acquire::Granted);
        assert_eq!(t.exclusive_holder(e), Some(7));
        t.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_and_nonholder_errors_match_fifo() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        t.request(e, 0, x()).unwrap();
        t.request(e, 1, x()).unwrap();
        assert_eq!(
            t.request(e, 1, x()).unwrap_err(),
            LockError::AlreadyQueued { entity: e }
        );
        assert_eq!(
            t.release(e, 9).unwrap_err(),
            LockError::NotHolder { entity: e }
        );
        assert_eq!(
            t.release(EntityId(5), 0).unwrap_err(),
            LockError::NotHolder {
                entity: EntityId(5)
            }
        );
    }

    #[test]
    fn prevention_schemes_match_fifo_semantics() {
        let by_id = |o: u32| -> Priority { (o as u64, 0) };
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        t.request_with_priority(e, 5, x(), PreventionScheme::WaitDie, by_id)
            .unwrap();
        assert_eq!(
            t.request_with_priority(e, 3, x(), PreventionScheme::WaitDie, by_id)
                .unwrap(),
            PreventionOutcome::Queued
        );
        assert_eq!(
            t.request_with_priority(e, 9, x(), PreventionScheme::WaitDie, by_id)
                .unwrap(),
            PreventionOutcome::Rejected
        );
        assert_eq!(t.waits_for(), vec![(3, 5)]);
        t.check_invariants().unwrap();

        let mut t: QueueTable<u32> = QueueTable::new();
        t.request_with_priority(e, 2, s(), PreventionScheme::WoundWait, by_id)
            .unwrap();
        t.request_with_priority(e, 8, s(), PreventionScheme::WoundWait, by_id)
            .unwrap();
        t.request_with_priority(e, 9, x(), PreventionScheme::WoundWait, by_id)
            .unwrap();
        assert_eq!(
            t.request_with_priority(e, 5, x(), PreventionScheme::WoundWait, by_id)
                .unwrap(),
            PreventionOutcome::Wounded(vec![8, 9])
        );
        t.check_invariants().unwrap();
    }

    #[test]
    fn cancel_waits_unblocks_and_recycles() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let e = EntityId(0);
        t.request(e, 0, s()).unwrap();
        t.request(e, 1, x()).unwrap();
        t.request(e, 2, s()).unwrap();
        let out = t.cancel_waits(1);
        assert_eq!(out.cancelled, vec![e]);
        assert_eq!(out.granted, vec![(e, vec![(2, s())])]);
        t.check_invariants().unwrap();
    }

    #[test]
    fn release_all_and_held_by_use_the_reverse_index() {
        let mut t: QueueTable<u32> = QueueTable::new();
        let (a, b) = (EntityId(0), EntityId(1));
        t.request(a, 0, x()).unwrap();
        t.request(b, 0, x()).unwrap();
        t.request(a, 1, x()).unwrap();
        assert_eq!(t.held_by(0), vec![a, b]);
        let released = t.release_all(0);
        assert_eq!(released, vec![(a, vec![(1, x())]), (b, vec![])]);
        assert_eq!(t.held_by(0), Vec::<EntityId>::new());
        t.check_invariants().unwrap();
    }

    #[test]
    fn writer_preference_serves_first_writer_past_readers() {
        let mut t: QueueTable<u32> = QueueTable::new().with_bias(Bias::WriterPreference);
        let e = EntityId(0);
        t.request(e, 0, x()).unwrap();
        t.request(e, 1, s()).unwrap();
        t.request(e, 2, s()).unwrap();
        t.request(e, 3, x()).unwrap();
        // Lock falls free: the writer 3 overtakes readers 1 and 2.
        assert_eq!(t.release(e, 0).unwrap(), vec![(3, x())]);
        assert_eq!(t.release(e, 3).unwrap(), vec![(1, s()), (2, s())]);
        t.check_invariants().unwrap();
    }

    #[test]
    fn reader_batch_pulls_readers_past_a_blocked_writer() {
        let mut t: QueueTable<u32> = QueueTable::new().with_bias(Bias::ReaderBatch);
        let e = EntityId(0);
        t.request(e, 0, s()).unwrap();
        t.request(e, 1, s()).unwrap();
        t.request(e, 2, x()).unwrap();
        t.request(e, 3, s()).unwrap();
        // Releasing one reader leaves an all-shared holder set; neutral
        // FIFO would grant nothing (the writer blocks the front), but
        // reader batching pulls reader 3 forward.
        assert_eq!(t.release(e, 0).unwrap(), vec![(3, s())]);
        assert_eq!(t.release(e, 1).unwrap(), vec![]);
        assert_eq!(t.release(e, 3).unwrap(), vec![(2, x())]);
        t.check_invariants().unwrap();
    }

    #[test]
    fn cohort_handoff_prefers_the_releasers_cohort() {
        // Cohort = owner parity. Queue: [1 (odd), 2 (even), 3 (odd)].
        // Odd releaser 9 hands off within its cohort: 1 first (front,
        // also local), then — releasing 1 — 3 skips past 2.
        let mut t: QueueTable<u32> = QueueTable::new().with_topology(2, |o, n| o % n);
        let e = EntityId(0);
        t.request(e, 9, x()).unwrap();
        t.request(e, 1, x()).unwrap();
        t.request(e, 2, x()).unwrap();
        t.request(e, 3, x()).unwrap();
        assert_eq!(t.release(e, 9).unwrap(), vec![(1, x())]);
        assert_eq!(t.release(e, 1).unwrap(), vec![(3, x())]);
        // Only the remote waiter is left.
        assert_eq!(t.release(e, 3).unwrap(), vec![(2, x())]);
        assert_eq!(t.release(e, 2).unwrap(), vec![]);
        assert!(t.is_idle());
        t.check_invariants().unwrap();
    }

    #[test]
    fn cohort_handoff_cap_prevents_starvation() {
        // One even waiter behind a stream of odd handoffs: after
        // DEFAULT_HANDOFF_CAP consecutive skips the table must fall back
        // to FIFO and serve the front (even) waiter.
        let mut t: QueueTable<u64> =
            QueueTable::new().with_topology(2, |o, n| (o % n as u64) as u32);
        let e = EntityId(0);
        t.request(e, 1, x()).unwrap(); // odd holder
        t.request(e, 2, x()).unwrap(); // even waiter at the front
        let mut next_odd = 3u64;
        let mut served_even = false;
        for _ in 0..(DEFAULT_HANDOFF_CAP + 2) {
            // Keep one odd waiter behind the even front at all times.
            t.request(e, next_odd, x()).unwrap();
            let holder = t
                .holders(e)
                .first()
                .map(|&(h, _)| h)
                .expect("lock always held");
            let grants = t.release(e, holder).unwrap();
            assert_eq!(grants.len(), 1);
            if grants[0].0 == 2 {
                served_even = true;
                break;
            }
            next_odd += 2;
        }
        assert!(served_even, "handoff cap failed: even waiter starved");
        t.check_invariants().unwrap();
    }
}
