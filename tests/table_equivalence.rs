//! Differential proof that [`QueueTable`] implements the FIFO lock-table
//! protocol: with a neutral bias it must be *observationally identical*
//! to the naive reference table in `tests/common` — same acquire
//! outcomes, same grant order on release, same wait-for edges, same
//! holder sets — under arbitrary operation streams (proptest); and the
//! full simulator must run clean on it across all six resolution arms
//! under a lossy fault plan with the invariant audit on.
//!
//! The bias knobs are exercised for *liveness* only (every waiter is
//! eventually granted when the table drains); their reordering semantics
//! are pinned by `crates/dlm`'s own unit tests.

use kplock::dlm::{Bias, PreventionScheme, QueueTable};
use kplock::model::{EntityId, LockMode};
use kplock::sim::{run, DeadlockDetection, DeadlockResolution, FaultPlan, LatencyModel, SimConfig};
use kplock::workload::{random_system, WorkloadParams};
use kplock_core::policy::LockStrategy;
use proptest::prelude::*;

mod common;
use common::{apply, assert_same, Op, Oracle};

const ENTITIES: u32 = 4;
const OWNERS: u32 = 5;

const X: LockMode = LockMode::Exclusive;
const S: LockMode = LockMode::Shared;

/// Expands a proptest-drawn seed into a weighted op stream (the vendored
/// proptest shim has no combinator strategies, so composition happens
/// here with an explicitly seeded RNG — still fully reproducible from
/// the reported `seed`/`len`).
fn gen_ops(seed: u64, len: usize) -> Vec<Op> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let schemes = [
        PreventionScheme::WoundWait,
        PreventionScheme::WaitDie,
        PreventionScheme::NoWait,
    ];
    (0..len)
        .map(|_| {
            let e = rng.gen_range(0..ENTITIES);
            let o = rng.gen_range(0..OWNERS);
            let mode = if rng.gen_range(0u8..2) == 1 { X } else { S };
            match rng.gen_range(0u8..10) {
                0..=2 => Op::Request { e, o, mode },
                3..=4 => Op::RequestPrio {
                    e,
                    o,
                    mode,
                    scheme: schemes[rng.gen_range(0..3usize)],
                },
                5..=7 => Op::Release { e, o },
                8 => Op::Cancel { o },
                _ => Op::ReleaseAll { o },
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The core differential: arbitrary op streams leave the table and
    /// the oracle in indistinguishable states at *every* step, not just
    /// at the end.
    #[test]
    fn neutral_queue_table_is_observationally_fifo(seed in 0u64..u64::MAX, len in 1usize..60) {
        let ops = gen_ops(seed, len);
        let mut q: QueueTable<u32> = QueueTable::new();
        let mut r = Oracle::default();
        for (i, &op) in ops.iter().enumerate() {
            apply(&mut r, &mut q, op);
            assert_same(&r, &q, ENTITIES, OWNERS, &format!("op {i} = {op:?}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random seeds and a lossy fault plan on all six arms, with the
    /// per-event invariant audit armed: a structural violation fails at
    /// the offending tick, and the audited run must equal the unaudited
    /// one (the audit observes, it never steers).
    #[test]
    fn lossy_sim_equivalence_with_invariant_audit(
        wl_seed in 0u64..500,
        sim_seed in 0u64..500,
        arm in 0usize..6,
    ) {
        const ARMS: [DeadlockResolution; 6] = [
            DeadlockResolution::Detect(DeadlockDetection::Periodic),
            DeadlockResolution::Detect(DeadlockDetection::OnBlock),
            DeadlockResolution::Detect(DeadlockDetection::Probe),
            DeadlockResolution::Prevent(PreventionScheme::WoundWait),
            DeadlockResolution::Prevent(PreventionScheme::WaitDie),
            DeadlockResolution::Prevent(PreventionScheme::NoWait),
        ];
        let sys = random_system(&WorkloadParams {
            seed: wl_seed,
            sites: 2,
            entities_per_site: 2,
            transactions: 3,
            steps_per_txn: 5,
            strategy: LockStrategy::TwoPhaseSync,
            ..Default::default()
        });
        let mk = |invariant_audit| SimConfig {
            latency: LatencyModel::Uniform(1, 10),
            seed: sim_seed,
            resolution: ARMS[arm],
            faults: FaultPlan::lossy(sim_seed.wrapping_add(1), 0.05, 0.02, 0.10),
            invariant_audit,
            ..Default::default()
        };
        let audited = run(&sys, &mk(true)).unwrap();
        let plain = run(&sys, &mk(false)).unwrap();
        prop_assert_eq!(&audited.metrics, &plain.metrics, "metrics diverged under {:?}", ARMS[arm]);
        prop_assert_eq!(&audited.committed_epoch, &plain.committed_epoch);
        prop_assert_eq!(audited.outcome, plain.outcome);
    }
}

/// Liveness of the bias arms: whatever order a biased table picks, every
/// queued waiter must be granted by the time the table drains — no
/// waiter may be starved *forever* in a finite release sequence.
#[test]
fn biased_tables_grant_every_waiter_when_drained() {
    for bias in [Bias::ReaderBatch, Bias::WriterPreference] {
        let mut q: QueueTable<u32> = QueueTable::new().with_bias(bias);
        let e = EntityId(0);
        assert_eq!(q.request(e, 0, X).unwrap(), kplock::dlm::Acquire::Granted);
        // A mixed queue: readers on odd ids, writers on even.
        for o in 1..=6u32 {
            let m = if o % 2 == 1 { S } else { X };
            assert_eq!(q.request(e, o, m).unwrap(), kplock::dlm::Acquire::Queued);
        }
        let mut granted: Vec<u32> = Vec::new();
        let mut rounds = 0;
        while !q.is_idle() {
            rounds += 1;
            assert!(rounds < 100, "{bias:?}: table failed to drain");
            for (o, _) in q.holders(e) {
                for (newly, _) in q.release_idempotent(e, o) {
                    granted.push(newly);
                }
            }
        }
        granted.sort_unstable();
        assert_eq!(
            granted,
            vec![1, 2, 3, 4, 5, 6],
            "{bias:?}: some waiter was never granted"
        );
        q.check_invariants().unwrap();
    }
}

/// A scenario crafted so a biased table *would* deviate (readers queued
/// on both sides of a writer): neutral bias must reproduce the oracle's
/// FIFO grant order exactly, release by release.
#[test]
fn neutral_bias_preserves_exact_fifo_grant_order() {
    let mut r = Oracle::default();
    let mut q: QueueTable<u32> = QueueTable::new(); // Bias::Neutral
    let e = EntityId(0);
    // Holder 0 takes X; queue behind it: R1, W2, R3, R4 — ReaderBatch
    // would batch {1, 3, 4} and WriterPreference would serve 2 first;
    // FIFO grants 1, then 2, then the compatible prefix {3, 4} together.
    for (o, mode) in [(0, X), (1, S), (2, X), (3, S), (4, S)] {
        apply(&mut r, &mut q, Op::Request { e: 0, o, mode });
    }
    let seq = [
        (0, vec![(1, S)]),
        (1, vec![(2, X)]),
        (2, vec![(3, S), (4, S)]),
    ];
    for (o, want) in seq {
        assert_eq!(r.release(e, o).unwrap(), want, "oracle grant order");
        assert_eq!(
            q.release(e, o).unwrap(),
            want,
            "neutral bias must be FIFO exactly"
        );
    }
    assert_eq!(r.release_all(3), q.release_all(3));
    assert_eq!(r.release_all(4), q.release_all(4));
    assert!(r.is_idle() && q.is_idle());
}
