//! Paper-conformance suite for the avoidance arm: the runtime must agree
//! with what Theorems 1–3 promise, arm against arm.
//!
//! Three contracts, each checked on deterministic workloads:
//!
//! * **certified ⇒ silent** — on a fully certified set every resolution
//!   arm commits the same transactions, but only avoidance does it with
//!   zero deadlock-handling work of any kind (no cycles resolved, no
//!   wounds, no probes);
//! * **uncertified ⇒ wound-wait** — with an *empty* certificate the
//!   avoidance arm is field-identical to `Prevent(WoundWait)` on the
//!   pinned regression workloads: same metrics (up to the avoid
//!   counters, which only label the arm), same per-transaction commit
//!   epochs;
//! * **faults don't breach the certificate** — across the fault-plan
//!   ladder the avoidance arm never resolves a deadlock and passes the
//!   lock-table invariant audit, like every other arm.

use kplock::core::policy::LockStrategy;
use kplock::model::TxnId;
use kplock::sim::{
    run, AvoidPlan, DeadlockDetection, DeadlockResolution, LatencyModel, PreventionScheme,
    RunOutcome, SimConfig,
};
use kplock::workload::{
    avoid_mix_sweep, certified_mix, fault_sweep, fig5, random_system, WorkloadParams,
    FAULT_ARMS_WITH_AVOID,
};

/// The seed-23 workload of `tests/sim_regression.rs`.
fn seed23() -> kplock::model::TxnSystem {
    random_system(&WorkloadParams {
        seed: 23,
        sites: 2,
        entities_per_site: 2,
        transactions: 4,
        steps_per_txn: 6,
        strategy: LockStrategy::TwoPhaseSync,
        ..Default::default()
    })
}

/// On a fully certified set, every arm commits everything — but only
/// avoidance is *silent*: detection resolves its cycles (none exist
/// here), probes pay messages when cycles form, wound-wait may restart;
/// avoidance must show zeroes across the board.
#[test]
fn all_arms_agree_on_certified_sets_but_only_avoidance_is_silent() {
    for sc in avoid_mix_sweep(5, 4, 2, &[4]) {
        assert!(sc.plan.fully_certified());
        let base = SimConfig {
            latency: LatencyModel::Fixed(5),
            ..Default::default()
        };
        let arms: [(&str, SimConfig); 4] = [
            (
                "periodic",
                SimConfig {
                    resolution: DeadlockDetection::Periodic.into(),
                    ..base.clone()
                },
            ),
            (
                "probe",
                SimConfig {
                    resolution: DeadlockDetection::Probe.into(),
                    ..base.clone()
                },
            ),
            (
                "wound-wait",
                SimConfig {
                    resolution: PreventionScheme::WoundWait.into(),
                    ..base.clone()
                },
            ),
            ("avoid", sc.config(5)),
        ];
        let mut committed = Vec::new();
        for (name, cfg) in arms {
            let r = run(&sc.system, &cfg).unwrap();
            assert_eq!(r.outcome, RunOutcome::Completed, "{name}");
            assert!(r.audit.serializable, "{name}");
            committed.push(r.metrics.committed);
            if name == "avoid" {
                assert_eq!(r.metrics.deadlocks_resolved, 0);
                assert_eq!(r.metrics.prevention_restarts, 0);
                assert_eq!(r.metrics.aborts, 0);
                assert_eq!(r.metrics.probe_messages, 0);
                assert_eq!(r.metrics.detection_latency_ticks, 0);
                assert_eq!(r.metrics.avoid_certified, sc.system.len());
                // First-try commits: no certified transaction restarts.
                assert!(r.committed_epoch.iter().all(|&e| e == Some(0)));
            }
        }
        assert!(
            committed.iter().all(|&c| c == sc.system.len()),
            "every arm commits the full set: {committed:?}"
        );
    }
}

/// With an empty certificate the avoidance arm *is* wound-wait: on the
/// pinned regression workloads the two runs agree field-for-field (the
/// avoid counters only label the arm) and transaction-for-transaction.
#[test]
fn empty_certificate_is_field_identical_to_wound_wait() {
    let cases: [(&str, kplock::model::TxnSystem, SimConfig); 3] = [
        (
            "seed23",
            seed23(),
            SimConfig {
                latency: LatencyModel::Fixed(5),
                ..Default::default()
            },
        ),
        (
            "fig5",
            fig5(),
            SimConfig {
                latency: LatencyModel::Uniform(1, 9),
                seed: 3,
                ..Default::default()
            },
        ),
        (
            "seed21",
            random_system(&WorkloadParams {
                seed: 21,
                sites: 3,
                entities_per_site: 2,
                transactions: 4,
                steps_per_txn: 6,
                strategy: LockStrategy::TwoPhaseSync,
                ..Default::default()
            }),
            SimConfig {
                latency: LatencyModel::Uniform(1, 20),
                seed: 7,
                ..Default::default()
            },
        ),
    ];
    for (name, sys, base) in cases {
        let empty = AvoidPlan::synthesize_restricted(&sys, &[]);
        assert_eq!(empty.certified_count(), 0);
        let avoid = run(
            &sys,
            &SimConfig {
                resolution: DeadlockResolution::Avoid,
                avoid: Some(empty),
                ..base.clone()
            },
        )
        .unwrap();
        let ww = run(
            &sys,
            &SimConfig {
                resolution: PreventionScheme::WoundWait.into(),
                ..base
            },
        )
        .unwrap();
        assert_eq!(avoid.outcome, ww.outcome, "{name}");
        assert_eq!(avoid.committed_epoch, ww.committed_epoch, "{name}");
        assert_eq!(avoid.audit.serializable, ww.audit.serializable, "{name}");
        // The avoid counters label the arm; everything else must match.
        let mut labelled = ww.metrics.clone();
        labelled.avoid_certified = avoid.metrics.avoid_certified;
        labelled.avoid_fallbacks = avoid.metrics.avoid_fallbacks;
        assert_eq!(avoid.metrics, labelled, "{name}");
        assert_eq!(avoid.metrics.avoid_certified, 0, "{name}");
        assert_eq!(avoid.metrics.avoid_fallbacks, sys.len(), "{name}");
    }
}

/// Mixed sets: the certificate shields exactly its members. Unrestricted
/// synthesis yields a plan that verifies at every certified fraction.
/// Certified transactions commit on their first attempt at every rung of
/// the certified-fraction sweep; fallback restarts are all wound-wait,
/// and no deadlock is ever *resolved* (none can form).
#[test]
fn the_certificate_shields_exactly_its_members() {
    for (certified, fallback) in [(6, 0), (3, 3), (0, 6)] {
        let sys = certified_mix(6, certified, fallback, 3);
        let verdict = AvoidPlan::synthesize(&sys).verify(&sys);
        assert!(verdict.is_ok(), "certified={certified}: {verdict:?}");
    }
    let sweep = avoid_mix_sweep(4, 4, 2, &[0, 1, 2, 3, 4])
        .into_iter()
        .chain(avoid_mix_sweep(6, 4, 3, &[0, 2, 4]));
    for sc in sweep {
        let r = run(&sc.system, &sc.config(5)).unwrap();
        assert_eq!(r.outcome, RunOutcome::Completed, "{}", sc.name);
        assert_eq!(r.metrics.deadlocks_resolved, 0, "{}", sc.name);
        assert_eq!(
            r.metrics.aborts, r.metrics.prevention_restarts,
            "{}",
            sc.name
        );
        assert!(r.audit.serializable, "{}", sc.name);
        for t in 0..sc.system.len() {
            if sc.plan.is_certified(TxnId::from_idx(t)) {
                assert_eq!(
                    r.committed_epoch[t],
                    Some(0),
                    "{}: certified T{} must commit first-try",
                    sc.name,
                    t + 1
                );
            }
        }
    }
}

/// The fault axis cannot breach the certificate: across the whole
/// fault-plan ladder (loss, duplication, reordering, crashes) the
/// avoidance arm still never resolves a deadlock, never stalls, and
/// passes the per-step lock-table invariant audit — while the companion
/// probe and wound-wait arms keep their own contracts on the same runs.
/// On the clean and crash rungs every arm must also complete, since
/// leases recover from the crashes. A larger system reruns the clean,
/// mixed and crash rungs.
#[test]
fn faults_do_not_breach_the_certificate() {
    let full_ladder = fault_sweep(4, 3, 2, &[0.15], &FAULT_ARMS_WITH_AVOID)
        .into_iter()
        .map(|sc| (sc, 400_000));
    let larger = fault_sweep(6, 4, 3, &[0.10], &FAULT_ARMS_WITH_AVOID)
        .into_iter()
        .filter(|sc| ["clean", "mixed=0.10", "crash"].contains(&sc.plan_name.as_str()))
        .map(|sc| (sc, 500_000));
    for (sc, max_time) in full_ladder.chain(larger) {
        let cfg = SimConfig {
            invariant_audit: true,
            max_time,
            ..sc.config(5)
        };
        let r = run(&sc.system, &cfg).unwrap();
        assert_ne!(r.outcome, RunOutcome::Stalled, "{}", sc.name);
        if sc.plan_name == "clean" || sc.plan_name == "crash" {
            assert_eq!(r.outcome, RunOutcome::Completed, "{}", sc.name);
        }
        if sc.resolution == DeadlockResolution::Avoid {
            assert_eq!(r.metrics.deadlocks_resolved, 0, "{}", sc.name);
            assert_eq!(r.metrics.probe_messages, 0, "{}", sc.name);
        }
        if r.outcome == RunOutcome::Completed {
            assert!(r.audit.serializable, "{}", sc.name);
        }
    }
}
