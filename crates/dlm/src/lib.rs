//! A sharded reader–writer distributed lock-manager service layer.
//!
//! The paper's model is one exclusive lock table per site with FIFO
//! queues. This crate generalizes it along the axes that dominate real
//! lock-manager throughput:
//!
//! * **Modes** ([`kplock_model::LockMode`]): the IS/IX/S/SIX/X lattice
//!   with FIFO fairness and in-place upgrade, in one arena-backed table,
//!   [`QueueTable`], whose steady-state acquire/release path allocates
//!   nothing;
//! * **Sharding** ([`ShardedTable`]): hash-partitioned tables, one mutex
//!   per shard, so independent entities never contend;
//!
//! and replaces the engine's periodic global deadlock scan with
//! **incremental wait-for-graph detection** ([`WaitForGraph`]) built on
//! `kplock-graph`'s cycle/SCC machinery: the graph is updated per entity
//! as requests block and checked exactly when a block occurs, so a
//! deadlock is reported the moment it forms.
//!
//! Detection's counterpart is timestamp-ordering **prevention**
//! ([`prevent`], [`QueueTable::request_with_priority`]): wound-wait,
//! wait-die and no-wait decide at request time — from birth-stamp
//! priorities, with no graph at all — whether a wait may exist, so no
//! cycle can ever form and there is nothing left to detect.
//!
//! A service that can *crash* also needs a recovery contract: [`lease`]
//! stamps every grant with a [`Lease`] and mirrors the holder set in a
//! [`LeaseTable`], so a recovering shard can rebuild exactly the grants
//! whose leases survived the outage — and the caller knows which holders
//! to fence or abort. The same module's [`DelegationLedger`] records
//! which grants have been handed to a remote cache as *delegated
//! ownership* (the DLM-side half of client-side lock caching: the hold
//! stays in the table, release authority moves to the delegate until a
//! conflicting request revokes it). [`QueueTable::is_waiting`] and
//! [`QueueTable::release_idempotent`] make duplicated or retransmitted
//! request/release messages safe, the table-side half of running over an
//! unreliable network.
//!
//! `kplock-sim`'s per-site table is a thin wrapper over [`QueueTable`];
//! protocol violations surface as typed [`LockError`]s at this API
//! boundary instead of panics.
//!
//! # Example
//!
//! Two readers share an entity; a writer queues behind them; releasing the
//! readers grants the writer; feeding the wait-for graph the entity that
//! just changed finds a deadlock the instant it forms:
//!
//! ```
//! use kplock_dlm::{Acquire, QueueTable, WaitForGraph};
//! use kplock_model::{EntityId, LockMode};
//!
//! let mut t: QueueTable<u32> = QueueTable::new();
//! let mut g: WaitForGraph<u32> = WaitForGraph::new();
//! let (a, b) = (EntityId(0), EntityId(1));
//! let x = LockMode::Exclusive;
//!
//! // Shared access coexists; exclusive queues FIFO behind it.
//! assert_eq!(t.request(a, 1, LockMode::Shared).unwrap(), Acquire::Granted);
//! assert_eq!(t.request(a, 2, LockMode::Shared).unwrap(), Acquire::Granted);
//! assert_eq!(t.request(a, 3, x).unwrap(), Acquire::Queued);
//! t.release(a, 1).unwrap();
//! assert_eq!(t.release(a, 2).unwrap(), vec![(3, x)]);
//!
//! // Deadlock: 3 holds a; 4 holds b; they request each other's entity.
//! assert_eq!(t.request(b, 4, x).unwrap(), Acquire::Granted);
//! for (e, o) in [(b, 3), (a, 4)] {
//!     assert_eq!(t.request(e, o, x).unwrap(), Acquire::Queued);
//!     g.update_entity(e, t.entity_waits_for(e));
//! }
//! let mut cycle = g.find_cycle().expect("found at block time, no scan");
//! cycle.sort();
//! assert_eq!(cycle, vec![3, 4]);
//!
//! // Abort the victim: its wait is cancelled, its hold released, and 3 is
//! // granted b.
//! t.cancel_waits(4);
//! assert_eq!(t.release_all(4), vec![(b, vec![(3, x)])]);
//! assert_eq!(t.holds(b, 3), Some(x));
//! ```

mod admission;
pub mod deadlock;
pub mod error;
pub mod lease;
pub mod lock_table;
pub mod prevent;
pub mod queue_table;
pub mod sharded;
pub mod table;

pub use deadlock::WaitForGraph;
pub use error::LockError;
pub use lease::{DelegationEntry, DelegationLedger, Lease, LeaseTable};
pub use lock_table::{Bias, TableSpec};
pub use prevent::{PreventionOutcome, PreventionScheme, Priority};
pub use queue_table::QueueTable;
pub use sharded::ShardedTable;
pub use table::{Acquire, CancelOutcome, EntityGrants, Grants};
