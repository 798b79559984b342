//! The `verdict` workload: the paper's question served as a query.
//!
//! A seeded corpus of exclusive-mode systems goes, one system at a time,
//! through the whole static pipeline: `analyze_pair` (2-site pairs only),
//! `check_safety`, `replay_violation` on any witness, `check_deadlock`,
//! `replay_deadlock` on any deadlock prefix, and `synthesize_optimal`.
//! Every answer is checked; a refused or wrong verdict counts as failed.

use crate::calibrate::RefClock;
use crate::stats::{median, percentile};
use crate::trace::{SpanId, Tracer};
use crate::{Phase, Rates, Report};
use kplock_core::policy::LockStrategy;
use kplock_core::{
    analyze_pair, check_deadlock, check_safety, synthesize_optimal, SafetyVerdict, SatSafety,
};
use kplock_model::TxnSystem;
use kplock_sim::{replay_deadlock, replay_violation};
use kplock_workload::{random_system, WorkloadParams};
use std::time::Instant;

/// Systems in the corpus. At least 1000, so the p99 verdict time has at
/// least ten samples beyond it in every pass.
pub const CORPUS: usize = 1800;

const STRATEGIES: [LockStrategy; 3] = [
    LockStrategy::Minimal,
    LockStrategy::TwoPhaseLoose,
    LockStrategy::TwoPhaseSync,
];

/// The three kinds of system the corpus mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Two transactions on two sites: the polynomial case (Theorem 2).
    TwoSitePair,
    /// Two transactions on three to five sites: the coNP case (Theorem 3).
    MultiSitePair,
    /// Three or four transactions.
    Multi,
}

/// One corpus entry.
pub struct Case {
    /// Which of the three kinds it is.
    pub kind: Kind,
    /// How its transactions were locked.
    pub strategy: LockStrategy,
    /// The generated system.
    pub sys: TxnSystem,
}

/// Generator parameters of corpus entry `i`: kinds and strategies cycle so
/// every (kind, strategy) cell holds the same number of systems.
fn params(seed: u64, i: usize) -> (Kind, WorkloadParams) {
    let kind = [Kind::TwoSitePair, Kind::MultiSitePair, Kind::Multi][i % 3];
    let strategy = STRATEGIES[(i / 3) % 3];
    let round = i / 9;
    let (sites, transactions) = match kind {
        Kind::TwoSitePair => (2, 2),
        Kind::MultiSitePair => (3 + round % 3, 2),
        Kind::Multi => (2 + round % 2, 3 + round % 2),
    };
    let p = WorkloadParams {
        seed: crate::mix(seed, i as u64),
        sites,
        entities_per_site: 3,
        transactions,
        steps_per_txn: 6,
        strategy,
        ..Default::default()
    };
    (kind, p)
}

/// Generates the corpus for `seed`.
pub fn corpus(seed: u64) -> Vec<Case> {
    (0..CORPUS)
        .map(|i| {
            let (kind, p) = params(seed, i);
            Case {
                kind,
                strategy: p.strategy,
                sys: random_system(&p),
            }
        })
        .collect()
}

/// SAT effort of one verdict, summed over its safety and deadlock encodings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SatCounts {
    pub vars: u64,
    pub clauses: u64,
    pub decisions: u64,
    pub propagations: u64,
}

impl SatCounts {
    fn add(&mut self, s: &kplock_core::EncodingStats) {
        self.vars += s.vars as u64;
        self.clauses += s.clauses as u64;
        self.decisions += s.decisions;
        self.propagations += s.propagations;
    }
}

/// Runs the pipeline on one system and checks every answer.
pub fn verdict(
    case: &Case,
    request: u64,
    t: &mut Tracer,
    parent: Option<SpanId>,
) -> Result<SatCounts, String> {
    let sys = &case.sys;
    let mut counts = SatCounts::default();
    let pair = (case.kind == Kind::TwoSitePair).then(|| {
        t.span("core.analyze_pair", parent, request, |_, _| {
            analyze_pair(sys)
        })
    });

    let safety = t
        .span("core.sat_check.safety", parent, request, |t, id| {
            let r = check_safety(sys);
            if let Ok(c) = &r {
                record_sat(t, id, &c.stats);
            }
            r
        })
        .map_err(|e| format!("check_safety refused: {e}"))?;
    counts.add(&safety.stats);
    if let SatSafety::Unsafe(witness) = &safety.verdict {
        t.span("sim.replay", parent, request, |_, _| {
            replay_violation(sys, witness)
        })
        .map_err(|e| format!("unsafety witness does not replay: {e}"))?;
    }
    if case.strategy == LockStrategy::TwoPhaseSync && !safety.verdict.is_safe() {
        return Err("a synchronized-2PL system was judged unsafe".into());
    }
    if let Some(pair) = pair {
        let pair_safe = match pair.verdict {
            SafetyVerdict::Safe(_) => true,
            SafetyVerdict::Unsafe(_) => false,
            SafetyVerdict::Unknown => {
                return Err("analyze_pair left a 2-site pair undecided".into())
            }
        };
        if pair_safe != safety.verdict.is_safe() {
            return Err(format!(
                "analyze_pair says safe={pair_safe} but check_safety says safe={}",
                safety.verdict.is_safe()
            ));
        }
    }

    let deadlock = t
        .span("core.sat_check.deadlock", parent, request, |t, id| {
            let r = check_deadlock(sys);
            if let Ok(c) = &r {
                record_sat(t, id, &c.stats);
            }
            r
        })
        .map_err(|e| format!("check_deadlock refused: {e}"))?;
    counts.add(&deadlock.stats);
    if let Some(prefix) = &deadlock.deadlock {
        t.span("sim.replay", parent, request, |_, _| {
            replay_deadlock(sys, prefix)
        })
        .map_err(|e| format!("deadlock prefix does not replay: {e}"))?;
    }

    let cert = t.span("core.synthesize_optimal", parent, request, |_, _| {
        synthesize_optimal(sys)
    });
    if cert.optimal_count < cert.greedy_count {
        return Err(format!(
            "synthesize_optimal certifies {} < greedy {}",
            cert.optimal_count, cert.greedy_count
        ));
    }
    cert.plan
        .verify(sys)
        .map_err(|e| format!("optimal plan fails AvoidPlan::verify: {e}"))?;
    Ok(counts)
}

fn record_sat(t: &mut Tracer, id: Option<SpanId>, s: &kplock_core::EncodingStats) {
    t.count(id, "sat.vars", s.vars as u64);
    t.count(id, "sat.clauses", s.clauses as u64);
    t.count(id, "sat.decisions", s.decisions);
    t.count(id, "sat.propagations", s.propagations);
}

/// Outcome of one measured phase over the corpus.
pub struct VerdictPhase {
    pub phase: Phase,
    /// SAT effort per corpus entry, from the first pass.
    pub sat: Vec<SatCounts>,
}

/// Verdicts timed between two reference-kernel runs.
const GROUP: usize = 16;

/// Verdicts the corpus in order, pass after pass, until `seconds` have
/// passed and at least one full pass is done.
///
/// A system's time is the median of its passes. The passes lie seconds
/// apart, and the machine's speed drifts over seconds, so the median keeps
/// a burst of interference out of the figures. Throughput is the corpus
/// size over the sum of those times.
pub fn measure(cases: &[Case], seconds: f64, t: &mut Tracer) -> VerdictPhase {
    let mut wall_ms = vec![Vec::new(); cases.len()];
    let mut ref_ms = vec![Vec::new(); cases.len()];
    let mut sat = vec![SatCounts::default(); cases.len()];
    let mut failed = 0u64;
    let mut clock = RefClock::new();
    let mut group = Vec::with_capacity(GROUP);
    let start = Instant::now();
    let mut i = 0usize;
    let mut more = !cases.is_empty();
    while more {
        let idx = i % cases.len();
        let request = i as u64;
        let t0 = Instant::now();
        let r = t.span("verdict", None, request, |t, id| {
            verdict(&cases[idx], request, t, id)
        });
        group.push((idx, t0.elapsed().as_secs_f64() * 1e3));
        match r {
            Ok(c) => {
                if i < cases.len() {
                    sat[idx] = c;
                }
            }
            Err(e) => {
                failed += 1;
                eprintln!("verdict: system {idx} failed: {e}");
            }
        }
        i += 1;
        more = i < cases.len() || start.elapsed().as_secs_f64() < seconds;
        if group.len() == GROUP || !more {
            let unit = clock.tick();
            for (idx, ms) in group.drain(..) {
                wall_ms[idx].push(ms);
                ref_ms[idx].push(ms / unit);
            }
        }
    }
    VerdictPhase {
        phase: Phase {
            attempted: i as u64,
            failed,
            wall: rates(&wall_ms),
            reference: rates(&ref_ms),
        },
        sat,
    }
}

/// Each system's median time, then the corpus size over their sum and
/// their percentiles.
fn rates(times_ms: &[Vec<f64>]) -> Rates {
    let ms: Vec<f64> = times_ms.iter().map(|v| median(v)).collect();
    Rates {
        ops_per_s: ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3),
        op_ms_p50: median(&ms),
        op_ms_p99: percentile(&ms, 99.0),
    }
}

/// Fills the verdict workload's per-layer metrics from a traced phase.
pub fn per_layer(report: &mut Report, t: &Tracer, sat: &[SatCounts]) {
    let n = sat.len() as f64;
    let sum = |f: fn(&SatCounts) -> u64| sat.iter().map(f).sum::<u64>() as f64 / n;
    report.layer("core.analyze_pair_ms", t.mean_ms("core.analyze_pair"));
    report.layer(
        "core.sat_check.safety_ms",
        t.mean_ms("core.sat_check.safety"),
    );
    report.layer(
        "core.sat_check.deadlock_ms",
        t.mean_ms("core.sat_check.deadlock"),
    );
    report.layer("sim.replay_ms", t.mean_ms("sim.replay"));
    report.layer(
        "core.synthesize_optimal_ms",
        t.mean_ms("core.synthesize_optimal"),
    );
    report.layer("sat.vars", sum(|c| c.vars));
    report.layer("sat.clauses", sum(|c| c.clauses));
    report.layer("sat.decisions", sum(|c| c.decisions));
    report.layer("sat.propagations", sum(|c| c.propagations));
}

/// Prints the verdict workload's named end-to-end metrics.
pub fn describe(phase: &Phase) -> Vec<(&'static str, f64, &'static str)> {
    let w = phase.wall;
    vec![
        ("verdicts_per_s", w.ops_per_s, "1/s"),
        ("verdict_ms_p50", w.op_ms_p50, "ms"),
        ("verdict_ms_p99", w.op_ms_p99, "ms"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sat_counts(seed: u64) -> Vec<SatCounts> {
        let cases: Vec<Case> = corpus(seed).into_iter().take(90).collect();
        let vp = measure(&cases, 0.0, &mut Tracer::new(false));
        assert_eq!(vp.phase.failed, 0, "seed {seed}");
        vp.sat
    }

    #[test]
    fn sat_counts_repeat_at_a_seed_and_move_with_it() {
        let a = sat_counts(7);
        assert_eq!(a, sat_counts(7));
        assert_ne!(a, sat_counts(8));
        assert!(a.iter().all(|c| c.vars > 0 && c.clauses > 0));
    }

    #[test]
    fn corpus_mixes_kinds_and_strategies_evenly() {
        let cases = corpus(1);
        assert!(cases.len() >= 1000);
        for kind in [Kind::TwoSitePair, Kind::MultiSitePair, Kind::Multi] {
            for strategy in STRATEGIES {
                let n = cases
                    .iter()
                    .filter(|c| c.kind == kind && c.strategy == strategy)
                    .count();
                assert_eq!(n, CORPUS / 9, "{kind:?} {strategy:?}");
            }
        }
        let sites = |k| {
            cases
                .iter()
                .filter(move |c| c.kind == k)
                .map(|c| c.sys.db().site_count())
        };
        assert!(sites(Kind::TwoSitePair).all(|s| s == 2));
        assert!(sites(Kind::MultiSitePair).all(|s| (3..=5).contains(&s)));
        assert!(cases
            .iter()
            .filter(|c| c.kind == Kind::Multi)
            .all(|c| (3..=4).contains(&c.sys.len())));
    }
}
