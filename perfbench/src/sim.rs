//! The simulated workloads: `oltp`, `scan` and `lossy_audited`.
//!
//! Every workload runs sync-2PL transactions through
//! `kplock_sim::run_with_arrivals` once per resolution arm, round after
//! round. A run fails unless it reaches `Completed` with every
//! transaction committed and a committed schedule that is legal and
//! serializable, re-checked here from the report's schedule.

use crate::calibrate::RefClock;
use crate::stats::{median, ratio};
use crate::trace::{SpanId, Tracer};
use crate::{Phase, Rates, Report};
use kplock_core::policy::LockStrategy;
use kplock_model::hierarchy::Granularity;
use kplock_model::{is_serializable, ActionKind, TxnSystem};
use kplock_sim::{
    draw_arrivals, run_with_arrivals, ArrivalConfig, DeadlockDetection, DeadlockResolution,
    Delegation, FaultPlan, Instance, Metrics, PreventionScheme, RunOutcome, SimConfig, SimReport,
    SiteTable,
};
use kplock_workload::{
    fault_plan_ladder, hierarchy_system, random_system, AccessProfile, HierarchyParams,
    WorkloadParams,
};
use std::time::Instant;

/// Which simulated workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop stream of short transactions, lossless, audit off.
    Oltp,
    /// A few flat scans that each hold about a thousand record locks.
    Scan,
    /// The `oltp` mix under loss, duplication, reordering and crashes,
    /// with the invariant audit on.
    LossyAudited,
}

/// One resolution arm.
#[derive(Clone, Copy, Debug)]
pub struct Arm {
    /// Metric suffix, e.g. `wound_wait_deleg`.
    pub name: &'static str,
    pub resolution: DeadlockResolution,
    pub delegation: Delegation,
}

const fn arm(name: &'static str, resolution: DeadlockResolution, delegation: Delegation) -> Arm {
    Arm {
        name,
        resolution,
        delegation,
    }
}

/// The detectors, the prevention schemes, and wound-wait with delegation.
pub const ARMS: [Arm; 7] = [
    arm(
        "periodic",
        DeadlockResolution::Detect(DeadlockDetection::Periodic),
        Delegation::Off,
    ),
    arm(
        "on_block",
        DeadlockResolution::Detect(DeadlockDetection::OnBlock),
        Delegation::Off,
    ),
    arm(
        "probe",
        DeadlockResolution::Detect(DeadlockDetection::Probe),
        Delegation::Off,
    ),
    arm(
        "wound_wait",
        DeadlockResolution::Prevent(PreventionScheme::WoundWait),
        Delegation::Off,
    ),
    arm(
        "wait_die",
        DeadlockResolution::Prevent(PreventionScheme::WaitDie),
        Delegation::Off,
    ),
    arm(
        "no_wait",
        DeadlockResolution::Prevent(PreventionScheme::NoWait),
        Delegation::Off,
    ),
    arm(
        "wound_wait_deleg",
        DeadlockResolution::Prevent(PreventionScheme::WoundWait),
        Delegation::On,
    ),
];

/// Mean open-loop arrival gap of the `oltp` mix, in ticks. At 20 ticks the
/// stream outruns the sites and the detectors thrash; 40 is past that knee
/// (see README.md).
pub const OLTP_GAP: u64 = 40;
/// Independent 1000-transaction `oltp` streams per round.
pub const OLTP_STREAMS: usize = 4;
/// Independent 10-scan `scan` streams per round. Restarts under
/// `wait_die` and `no_wait` make a stream's cost depend on its seed, and
/// three streams spread less across seeds than one stream over more rounds.
pub const SCAN_STREAMS: usize = 3;
/// Transactions per `lossy_audited` stream. Probe traffic under loss grows
/// super-linearly with the stream length; at this size no arm takes more
/// than half of the workload's time.
pub const LOSSY_TXNS: usize = 50;
/// Independent `lossy_audited` streams per round, so one seed's heavy
/// stream does not set the whole run's figures.
pub const LOSSY_STREAMS: usize = 24;

/// One generated input: a locked system and its open-loop arrival ticks.
pub struct Stream {
    pub sys: TxnSystem,
    pub arrivals: Vec<u64>,
}

/// Everything a workload runs, generated from the seed.
pub struct Inputs {
    pub streams: Vec<Stream>,
    pub arms: &'static [Arm],
    pub faults: FaultPlan,
    pub invariant_audit: bool,
    pub seed: u64,
}

fn oltp_stream(seed: u64, transactions: usize) -> Stream {
    let sys = random_system(&WorkloadParams {
        sites: 4,
        entities_per_site: 256,
        transactions,
        steps_per_txn: 8,
        read_percent: 70,
        zipf_theta: 0.8,
        strategy: LockStrategy::TwoPhaseSync,
        seed,
        ..Default::default()
    });
    let arrivals = draw_arrivals(
        transactions,
        &ArrivalConfig {
            mean_gap: OLTP_GAP,
            seed: crate::mix(seed, 1),
        },
    );
    Stream { sys, arrivals }
}

/// Generates the inputs of `w` for `seed`.
pub fn generate(w: Workload, seed: u64) -> Inputs {
    match w {
        Workload::Oltp => Inputs {
            streams: (0..OLTP_STREAMS)
                .map(|s| oltp_stream(crate::mix(seed, s as u64), 1000))
                .collect(),
            arms: &ARMS,
            faults: FaultPlan::none(),
            invariant_audit: false,
            seed,
        },
        Workload::Scan => {
            let scan = |seed| {
                let sc = hierarchy_system(
                    &HierarchyParams {
                        files: 20,
                        records_per_file: 1000,
                        sites: 4,
                        transactions: 10,
                        profile: AccessProfile::Scan,
                        seed,
                        ..Default::default()
                    },
                    Granularity::Flat,
                );
                Stream {
                    sys: sc.system,
                    arrivals: sc.arrivals,
                }
            };
            Inputs {
                streams: (0..SCAN_STREAMS)
                    .map(|s| scan(crate::mix(seed, s as u64)))
                    .collect(),
                arms: &ARMS[..6],
                faults: FaultPlan::none(),
                invariant_audit: false,
                seed,
            }
        }
        Workload::LossyAudited => {
            let (_, crash) = fault_plan_ladder(seed, &[], 0.0)
                .into_iter()
                .find(|(name, _)| name == "crash")
                .expect("the fault ladder has a crash rung");
            Inputs {
                streams: (0..LOSSY_STREAMS)
                    .map(|s| oltp_stream(crate::mix(seed, 100 + s as u64), LOSSY_TXNS))
                    .collect(),
                arms: &ARMS[..6],
                faults: FaultPlan {
                    crashes: crash.crashes,
                    lease_ttl: crash.lease_ttl,
                    ..FaultPlan::lossy(seed, 0.05, 0.02, 0.10)
                },
                invariant_audit: true,
                seed,
            }
        }
    }
}

impl Inputs {
    /// The configuration of stream `s` under `arm`.
    pub fn config(&self, s: usize, arm: &Arm) -> SimConfig {
        SimConfig {
            seed: crate::mix(self.seed, 200 + s as u64),
            resolution: arm.resolution,
            delegation: arm.delegation,
            faults: FaultPlan {
                seed: crate::mix(self.faults.seed, s as u64),
                ..self.faults.clone()
            },
            invariant_audit: self.invariant_audit,
            ..Default::default()
        }
    }
}

/// Checks a run's output: completed, everything committed, and a legal,
/// serializable committed schedule.
fn check(
    sys: &TxnSystem,
    r: &SimReport,
    t: &mut Tracer,
    parent: Option<SpanId>,
    request: u64,
) -> Result<(), String> {
    if r.outcome != RunOutcome::Completed {
        return Err(format!("outcome {:?}", r.outcome));
    }
    if r.metrics.committed != sys.len() {
        return Err(format!(
            "{} of {} committed",
            r.metrics.committed,
            sys.len()
        ));
    }
    let schedule = &r.audit.schedule;
    t.span("sim.history.audit", parent, request, |_, _| {
        schedule
            .validate_complete(sys)
            .map_err(|e| format!("illegal committed schedule: {e}"))?;
        if is_serializable(sys, schedule) {
            Ok(())
        } else {
            Err("non-serializable committed schedule".to_string())
        }
    })
}

/// Replays the committed lock/unlock stream through fresh site tables of
/// the run's table kind; returns the number of table operations.
fn replay_tables(sys: &TxnSystem, r: &SimReport, cfg: &SimConfig) -> Result<u64, String> {
    let mut tables: Vec<SiteTable> = (0..sys.db().site_count())
        .map(|_| SiteTable::new(cfg.table))
        .collect();
    let mut ops = 0u64;
    for ss in r.audit.schedule.steps() {
        let step = sys.txn(ss.txn).step(ss.step);
        let site = sys.db().site_of(step.entity).idx();
        let inst = Instance {
            txn: ss.txn,
            epoch: 0,
        };
        match step.kind {
            ActionKind::Lock => {
                if !tables[site].request(step.entity, inst, step.mode) {
                    return Err(format!(
                        "committed lock of {} by {} blocks on replay",
                        step.entity, ss.txn
                    ));
                }
                ops += 1;
            }
            ActionKind::Unlock => {
                tables[site].release(step.entity, inst);
                ops += 1;
            }
            ActionKind::Update => {}
        }
    }
    Ok(ops)
}

/// One run's counters, by arm.
pub struct Run {
    pub arm: usize,
    pub metrics: Metrics,
}

/// Outcome of one measured phase.
pub struct SimPhase {
    pub phase: Phase,
    /// The runs of the first round, in (stream, arm) order.
    pub first_round: Vec<Run>,
    /// Per arm, each stream's median engine wall time in ms.
    pub run_ms: Vec<Vec<f64>>,
}

/// Runs every (stream, arm) once per round. Only whole rounds run, so
/// every stream and arm weighs the same; the phase stops before a round
/// that would end past `seconds`, after at least one round.
///
/// A run's time is the median of its rounds. The rounds lie seconds
/// apart, and the machine's speed drifts over seconds, so the median keeps
/// a burst of interference out of the figures; medians over streams and
/// arms keep one heavy stream or arm of a seed from setting them.
pub fn measure(inp: &Inputs, seconds: f64, t: &mut Tracer) -> SimPhase {
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut first_round = Vec::new();
    let mut wall_ms = vec![vec![Vec::new(); inp.streams.len()]; inp.arms.len()];
    let mut ref_ms = wall_ms.clone();
    let mut committed = vec![0u64; inp.streams.len()];
    let mut clock = RefClock::new();
    let start = Instant::now();
    let mut rounds = 0u32;
    while rounds == 0
        || start.elapsed().as_secs_f64() * f64::from(rounds + 1) / f64::from(rounds) <= seconds
    {
        for (s, stream) in inp.streams.iter().enumerate() {
            for (a, arm) in inp.arms.iter().enumerate() {
                let request = attempted;
                attempted += 1;
                let cfg = inp.config(s, arm);
                let r = t.span("sim.run", None, request, |t, id| {
                    run_one(inp, stream, &cfg, request, t, id)
                });
                let unit = clock.tick();
                match r {
                    Ok((metrics, ns)) => {
                        let ms = ns as f64 / 1e6;
                        wall_ms[a][s].push(ms);
                        ref_ms[a][s].push(ms / unit);
                        if rounds == 0 {
                            committed[s] += metrics.committed as u64;
                            first_round.push(Run { arm: a, metrics });
                        }
                    }
                    Err(e) => {
                        failed += 1;
                        eprintln!("sim: stream {s} arm {} failed: {e}", arm.name);
                    }
                }
            }
        }
        rounds += 1;
    }
    let run_ms = medians(&wall_ms);
    SimPhase {
        phase: Phase {
            attempted,
            failed,
            wall: rates(&run_ms, &committed),
            reference: rates(&medians(&ref_ms), &committed),
        },
        first_round,
        run_ms,
    }
}

/// Per arm, each stream's median over its rounds.
fn medians(times: &[Vec<Vec<f64>>]) -> Vec<Vec<f64>> {
    times
        .iter()
        .map(|arm| arm.iter().map(|v| median(v)).collect())
        .collect()
}

/// Throughput and run times from per-arm, per-stream run times.
fn rates(run_ms: &[Vec<f64>], committed: &[u64]) -> Rates {
    // Per stream, the time to run it under every arm.
    let stream_ms: Vec<f64> = (0..committed.len())
        .map(|s| run_ms.iter().map(|arm| arm[s]).sum())
        .collect();
    let per_stream: Vec<f64> = committed
        .iter()
        .zip(&stream_ms)
        .map(|(&c, &ms)| ratio(c as f64, ms / 1e3))
        .collect();
    let arms = run_ms.len() as f64;
    let mean_run_ms: Vec<f64> = stream_ms.iter().map(|ms| ms / arms).collect();
    Rates {
        ops_per_s: median(&per_stream),
        op_ms_p50: median(&mean_run_ms),
        op_ms_p99: run_ms.iter().map(|v| median(v)).fold(0.0, f64::max),
    }
}

fn run_one(
    inp: &Inputs,
    stream: &Stream,
    cfg: &SimConfig,
    request: u64,
    t: &mut Tracer,
    parent: Option<SpanId>,
) -> Result<(Metrics, u64), String> {
    let sys = &stream.sys;
    let t0 = Instant::now();
    let r = t.span("sim.engine.run", parent, request, |t, id| {
        let r = run_with_arrivals(sys, cfg, &stream.arrivals);
        if let Ok(r) = &r {
            t.count(id, "sim.messages", r.metrics.messages);
        }
        r
    });
    let engine_ns = u64::try_from(t0.elapsed().as_nanos()).expect("run shorter than 584 years");
    let r = r.map_err(|e| format!("config refused: {e}"))?;
    check(sys, &r, t, parent, request)?;
    if t.enabled() {
        t.span("dlm.replay", parent, request, |t, id| {
            replay_tables(sys, &r, cfg).map(|n| t.count(id, "dlm.ops", n))
        })?;
        if inp.invariant_audit {
            let flipped = SimConfig {
                invariant_audit: false,
                ..cfg.clone()
            };
            let off = t.span("sim.engine.run_audit_off", parent, request, |_, _| {
                run_with_arrivals(sys, &flipped, &stream.arrivals)
            });
            let off = off.map_err(|e| format!("config refused: {e}"))?;
            if off.metrics != r.metrics {
                return Err("the invariant audit changed the run's counters".into());
            }
        }
    }
    Ok((r.metrics, engine_ns))
}

/// Deterministic protocol figures of one round: fixed by the seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Protocol {
    pub commits_per_ktick: f64,
    pub msgs_per_commit: f64,
    pub wait_ticks_per_commit: f64,
}

fn total(runs: &[&Run], f: impl Fn(&Metrics) -> u64) -> f64 {
    runs.iter().map(|r| f(&r.metrics)).sum::<u64>() as f64
}

/// The protocol figures of a round, summed over its runs.
pub fn protocol(round: &[Run]) -> Protocol {
    let all: Vec<&Run> = round.iter().collect();
    let commits = total(&all, |m| m.committed as u64);
    Protocol {
        commits_per_ktick: ratio(commits * 1000.0, total(&all, |m| m.elapsed_ticks)),
        msgs_per_commit: ratio(total(&all, |m| m.messages), commits),
        wait_ticks_per_commit: ratio(total(&all, |m| m.lock_wait_ticks), commits),
    }
}

/// Fills the simulated workloads' per-layer metrics from a traced phase.
pub fn per_layer(report: &mut Report, inp: &Inputs, t: &Tracer, ph: &SimPhase) {
    let round = &ph.first_round;
    let runs_where = |pred: &dyn Fn(&Arm) -> bool| -> Vec<&Run> {
        round.iter().filter(|r| pred(&inp.arms[r.arm])).collect()
    };
    let all = runs_where(&|_| true);
    let detect = runs_where(&|a| matches!(a.resolution, DeadlockResolution::Detect(_)));
    let probe =
        runs_where(&|a| a.resolution == DeadlockResolution::Detect(DeadlockDetection::Probe));
    let prevent = runs_where(&|a| {
        matches!(a.resolution, DeadlockResolution::Prevent(_)) && a.delegation == Delegation::Off
    });
    let deleg = runs_where(&|a| a.delegation == Delegation::On);
    let commits = |rs: &[&Run]| total(rs, |m| m.committed as u64);
    let per_commit = |rs: &[&Run], f: &dyn Fn(&Metrics) -> u64| ratio(total(rs, f), commits(rs));

    let p = protocol(round);
    report.layer("sim.commits_per_ktick", p.commits_per_ktick);
    report.layer("sim.msgs_per_commit", p.msgs_per_commit);
    report.layer("sim.wait_ticks_per_commit", p.wait_ticks_per_commit);

    for (a, arm) in inp.arms.iter().enumerate() {
        report.layer_arm("sim.engine.run_ms", arm.name, median(&ph.run_ms[a]));
        let mine = runs_where(&|x| x.name == arm.name);
        let aborts = total(&mine, |m| m.aborts as u64);
        report.layer_arm(
            "sim.engine.commit_ratio",
            arm.name,
            ratio(commits(&mine), commits(&mine) + aborts),
        );
    }
    let engine_ns: u64 = t.durations_ns("sim.engine.run").iter().sum();
    report.layer(
        "sim.engine.ns_per_msg",
        ratio(engine_ns as f64, t.count_total("sim.messages") as f64),
    );
    report.layer("sim.history.audit_ms", t.mean_ms("sim.history.audit"));
    if inp.invariant_audit {
        let off_ns: u64 = t.durations_ns("sim.engine.run_audit_off").iter().sum();
        report.layer(
            "sim.invariant_audit.overhead_x",
            ratio(engine_ns as f64, off_ns as f64),
        );
    }
    let replay_ns: u64 = t.durations_ns("dlm.replay").iter().sum();
    report.layer(
        "dlm.op_ns",
        ratio(replay_ns as f64, t.count_total("dlm.ops") as f64),
    );
    report.layer(
        "dlm.requests_per_commit",
        per_commit(&all, &|m| m.lock_requests),
    );

    report.layer(
        "sim.detect.deadlocks_per_commit",
        per_commit(&detect, &|m| m.deadlocks_resolved as u64),
    );
    report.layer(
        "sim.detect.latency_ticks_per_deadlock",
        ratio(
            total(&detect, |m| m.detection_latency_ticks),
            total(&detect, |m| m.deadlocks_resolved as u64),
        ),
    );
    report.layer(
        "sim.probe.msgs_per_commit",
        per_commit(&probe, &|m| m.probe_messages),
    );
    report.layer(
        "sim.prevent.restarts_per_commit",
        per_commit(&prevent, &|m| m.prevention_restarts as u64),
    );
    report.layer(
        "sim.fault.dropped_per_commit",
        per_commit(&all, &|m| m.messages_dropped),
    );
    report.layer(
        "sim.fault.duplicated_per_commit",
        per_commit(&all, &|m| m.messages_duplicated),
    );
    report.layer(
        "sim.fault.leases_expired",
        total(&all, |m| m.leases_expired as u64),
    );
    report.layer("sim.fault.recoveries", total(&all, |m| m.recoveries as u64));
    report.layer(
        "sim.deleg.cache_hits_per_commit",
        per_commit(&deleg, &|m| m.cache_hits),
    );
    report.layer(
        "sim.deleg.revocations_per_commit",
        per_commit(&deleg, &|m| m.revocations),
    );
}

/// The simulated workloads' named end-to-end metrics.
pub fn describe(ph: &SimPhase) -> Vec<(&'static str, f64, &'static str)> {
    let p = protocol(&ph.first_round);
    vec![
        ("sim_commits_per_s", ph.phase.wall.ops_per_s, "1/s"),
        ("sim_commits_per_ktick", p.commits_per_ktick, "1/ktick"),
        ("sim_msgs_per_commit", p.msgs_per_commit, "msgs"),
        (
            "sim_wait_ticks_per_commit",
            p.wait_ticks_per_commit,
            "ticks",
        ),
        ("sim_run_ms_mean_arm", ph.phase.wall.op_ms_p50, "ms"),
        ("sim_run_ms_slowest_arm", ph.phase.wall.op_ms_p99, "ms"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one round of the first stream of `w` at `seed` and returns
    /// every run's counters.
    fn round(w: Workload, seed: u64) -> Vec<Metrics> {
        let mut inp = generate(w, seed);
        inp.streams.truncate(1);
        let ph = measure(&inp, 0.0, &mut Tracer::new(false));
        assert_eq!(ph.phase.failed, 0, "{w:?} seed {seed}");
        ph.first_round.into_iter().map(|r| r.metrics).collect()
    }

    #[test]
    fn counts_repeat_at_a_seed_and_move_with_it() {
        for w in [Workload::Oltp, Workload::Scan, Workload::LossyAudited] {
            let a = round(w, 7);
            let b = round(w, 7);
            // Every `Metrics` counter of every run, and so the protocol
            // figures derived from them, repeat exactly.
            assert_eq!(a, b, "{w:?}");
            let runs = |m: Vec<Metrics>| -> Vec<Run> {
                m.into_iter()
                    .map(|metrics| Run { arm: 0, metrics })
                    .collect()
            };
            let c = round(w, 8);
            assert_ne!(a, c, "{w:?}: another seed must give other counts");
            let (pa, pb, pc) = (protocol(&runs(a)), protocol(&runs(b)), protocol(&runs(c)));
            assert_eq!(pa, pb, "{w:?}");
            assert_ne!(pa, pc, "{w:?}");
            assert!(
                pa.commits_per_ktick > 0.0 && pa.msgs_per_commit > 0.0,
                "{w:?}"
            );
        }
    }

    #[test]
    fn lossy_streams_exercise_faults_and_recovery() {
        let inp = generate(Workload::LossyAudited, 3);
        let ph = measure(&inp, 0.0, &mut Tracer::new(false));
        assert_eq!(ph.phase.failed, 0);
        let sum =
            |f: fn(&Metrics) -> u64| ph.first_round.iter().map(|r| f(&r.metrics)).sum::<u64>();
        assert!(sum(|m| m.messages_dropped) > 0);
        assert!(sum(|m| m.messages_duplicated) > 0);
        assert!(sum(|m| m.recoveries as u64) > 0);
    }
}
