//! Differential proof that [`ReadyFrontier`] computes coordinator
//! readiness exactly like the whole-transaction rescan it replaced (the
//! oracle in `tests/common/readiness.rs`): over random dag-shaped
//! transactions, random completion orders and mid-run resets, both hand
//! out the same steps in the same order after every completion. Issue
//! order is what the simulator's latency draws follow, so "same order"
//! is what keeps every fixed-seed pin stable.

use kplock::model::{EntityId, ReadyFrontier, Step, StepId, Transaction};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::readiness::NaiveReadiness;

/// A random dag on `n` update steps. Edges are drawn between positions
/// of a random permutation, so successor lists come out in no
/// particular index order and the frontier's sorting is exercised.
fn random_dag(rng: &mut StdRng, n: usize, density: f64) -> Transaction {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(density) {
                edges.push((StepId::from_idx(perm[i]), StepId::from_idx(perm[j])));
            }
        }
    }
    // Shuffle the insertion order too: it fixes each successor list's order.
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.gen_range(0..=i));
    }
    let steps = (0..n).map(|i| Step::update(EntityId(i as u32))).collect();
    Transaction::new("T", steps, edges).expect("edges follow a permutation, so acyclic")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn frontier_matches_the_naive_rescan(seed in 0u64..u64::MAX, n in 1usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let density = [0.0, 0.05, 0.2, 0.6, 1.0][rng.gen_range(0..5usize)];
        let t = random_dag(&mut rng, n, density);
        let mut fast = ReadyFrontier::new(&t);
        let mut naive = NaiveReadiness::new(&t);
        // Three epochs per case; each may be cut short by a reset.
        for epoch in 0..3 {
            let mut pool = naive.rescan();
            prop_assert_eq!(fast.roots(), &pool[..], "roots, epoch {}", epoch);
            let cut = if rng.gen_bool(0.5) { rng.gen_range(0..=n) } else { n };
            for k in 0..cut {
                prop_assert!(!pool.is_empty(), "a dag always has a ready step");
                let v = pool.swap_remove(rng.gen_range(0..pool.len()));
                let expect = naive.complete(v);
                prop_assert_eq!(fast.complete(v), &expect[..], "completing {:?} ({}th)", v, k);
                pool.extend(expect);
                prop_assert_eq!(fast.remaining(), naive.remaining());
                prop_assert_eq!(fast.is_finished(), naive.remaining() == 0);
            }
            prop_assert_eq!(pool.is_empty(), fast.is_finished());
            fast.reset();
            naive.reset();
            prop_assert_eq!(fast.remaining(), n);
        }
    }
}
