//! Algebraic laws of the multi-granularity mode lattice, and a
//! differential proof that the lock table agrees with the naive
//! reference table in `tests/common` on arbitrary seeded streams over
//! **all five** modes.
//!
//! The lattice (`IS < IX/S < SIX < X`, with `join` the least upper
//! bound) is small enough to check its laws exhaustively — every
//! property below quantifies over all 5, 25, or 125 mode combinations
//! rather than sampling. The table differential is the same
//! observational-equivalence harness as `tests/table_equivalence.rs`,
//! widened from S/X to the full mode alphabet so intention and `SIX`
//! traffic exercises the upgrade-via-join paths; the oracle carries its
//! own copy of the matrix and lattice.

use kplock::dlm::{PreventionScheme, QueueTable};
use kplock::model::{EntityId, LockMode};
use proptest::prelude::*;

mod common;
use common::{apply, assert_same, Op, Oracle};

const MODES: [LockMode; 5] = LockMode::ALL;

/// The compatibility matrix is symmetric: conflicts have no direction.
#[test]
fn compatibility_matrix_is_symmetric() {
    for a in MODES {
        for b in MODES {
            assert_eq!(
                a.compatible_with(b),
                b.compatible_with(a),
                "asymmetry at {a}/{b}"
            );
        }
    }
}

/// A stronger mode is compatible with *less*: if `a` covers `b`, then
/// anything `a` tolerates, `b` tolerates too. This is what makes
/// granting a covering lock instead of the requested one always safe.
#[test]
fn covers_implies_compatibility_subsumption() {
    for a in MODES {
        for b in MODES {
            if !a.covers(b) {
                continue;
            }
            for m in MODES {
                assert!(
                    !a.compatible_with(m) || b.compatible_with(m),
                    "{a} covers {b} but is compatible with {m} while {b} is not"
                );
            }
        }
    }
}

/// `join` is a semilattice operation: commutative, associative, and
/// idempotent, with `covers` as its induced partial order.
#[test]
fn join_is_a_semilattice() {
    for a in MODES {
        assert_eq!(a.join(a), a, "join not idempotent at {a}");
        for b in MODES {
            assert_eq!(a.join(b), b.join(a), "join not commutative at {a}/{b}");
            // Absorption: the join covers both arguments...
            let j = a.join(b);
            assert!(
                j.covers(a) && j.covers(b),
                "join({a},{b}) = {j} covers neither"
            );
            // ...and is the *least* such mode.
            for c in MODES {
                if c.covers(a) && c.covers(b) {
                    assert!(c.covers(j), "{c} covers {a},{b} but not join {j}");
                }
            }
            for c in MODES {
                assert_eq!(
                    a.join(b).join(c),
                    a.join(b.join(c)),
                    "join not associative at {a}/{b}/{c}"
                );
            }
        }
    }
}

/// `covers` is exactly the order induced by `join` — the definition the
/// lock tables rely on when deciding whether a held mode already
/// satisfies a new request.
#[test]
fn covers_agrees_with_join_order() {
    for a in MODES {
        for b in MODES {
            assert_eq!(
                a.covers(b),
                a.join(b) == a,
                "covers/join disagree at {a}/{b}"
            );
        }
    }
}

/// Upgrading via `join(held, requested)` never *skips* a conflict: the
/// upgrade target conflicts with everything either the held or the
/// requested mode conflicts with. A waiter that would have blocked the
/// plain request still blocks the upgrade, so admission through the
/// upgrade path can never admit a schedule the direct path would refuse.
#[test]
fn upgrade_via_join_never_skips_a_conflict() {
    for held in MODES {
        for req in MODES {
            let target = held.join(req);
            for other in MODES {
                if !req.compatible_with(other) || !held.compatible_with(other) {
                    assert!(
                        !target.compatible_with(other),
                        "join({held},{req}) = {target} dropped the conflict with {other}"
                    );
                }
            }
        }
    }
}

/// Shield strength is monotone in the lattice: a covering parent mode
/// shields at least the child accesses the covered one shields.
#[test]
fn shielding_is_monotone_under_covers() {
    for a in MODES {
        for b in MODES {
            if !a.covers(b) {
                continue;
            }
            for access in MODES {
                assert!(
                    !b.shields_child(access) || a.shields_child(access),
                    "{a} covers {b} but shields less ({access})"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Full-alphabet table differential.
// ---------------------------------------------------------------------

const ENTITIES: u32 = 3;
const OWNERS: u32 = 4;

/// Seeded op stream over the full five-mode alphabet; heavier on
/// requests than releases so upgrade queues actually form.
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
            let mode = MODES[rng.gen_range(0..5usize)];
            match rng.gen_range(0u8..10) {
                0..=3 => Op::Request { e, o, mode },
                4..=5 => Op::RequestPrio {
                    e,
                    o,
                    mode,
                    scheme: schemes[rng.gen_range(0..3usize)],
                },
                6..=7 => Op::Release { e, o },
                8 => Op::Cancel { o },
                _ => Op::ReleaseAll { o },
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The table and the oracle are observationally identical at every
    /// step of random streams drawn from the full IS/IX/S/SIX/X alphabet —
    /// including intention-mode pile-ups and SIX upgrades.
    #[test]
    fn tables_agree_on_full_mode_alphabet(seed in 0u64..u64::MAX, len in 1usize..70) {
        let ops = gen_ops(seed, len);
        let mut q: QueueTable<u32> = QueueTable::new();
        let mut r = Oracle::default();
        for (i, &op) in ops.iter().enumerate() {
            apply(&mut r, &mut q, op);
            assert_same(&r, &q, ENTITIES, OWNERS, &format!("op {i} = {op:?}"));
        }
    }
}

/// A hand-built upgrade ladder the table and the oracle must walk
/// identically: IS → S → SIX → X on one entity, with a concurrent IS
/// holder forcing the final step to queue until the reader leaves.
#[test]
fn upgrade_ladder_is_identical_on_both_tables() {
    use kplock::dlm::Acquire;
    use LockMode::*;
    let (mut r, mut q) = (Oracle::default(), QueueTable::<u32>::new());
    let e = EntityId(0);
    let ladder = [
        (1, IntentionShared),
        (2, IntentionShared),
        // 1 strengthens to S (compatible with 2's IS), then to SIX
        // (still compatible), then X must wait for 2.
        (1, Shared),
        (1, SharedIntentionExclusive),
    ];
    for (o, mode) in ladder {
        assert_eq!(r.request(e, o, mode).unwrap(), Acquire::Granted);
        assert_eq!(q.request(e, o, mode).unwrap(), Acquire::Granted);
    }
    assert_eq!(r.holds(e, 1), Some(SharedIntentionExclusive));
    assert_eq!(q.holds(e, 1), Some(SharedIntentionExclusive));
    assert_eq!(r.request(e, 1, Exclusive).unwrap(), Acquire::Queued);
    assert_eq!(q.request(e, 1, Exclusive).unwrap(), Acquire::Queued);
    assert_eq!(r.release(e, 2).unwrap(), vec![(1, Exclusive)]);
    assert_eq!(q.release(e, 2).unwrap(), vec![(1, Exclusive)]);
    assert_eq!(q.holds(e, 1), Some(Exclusive));
    assert_eq!(r.release_all(1), q.release_all(1));
    assert!(r.is_idle() && q.is_idle());
    q.check_invariants().unwrap();
}
