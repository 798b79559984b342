//! `kplock-perfbench`: kplock's end-to-end and per-layer benchmark.
//!
//! ```text
//! kplock-perfbench --workload <verdict|oltp|scan|lossy_audited>
//!                  [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! One workload per process, so the peak resident memory read at exit
//! belongs to that workload alone. The inputs are generated from the seed
//! several times before the measured phase; the median generation time is
//! `setup_s`. With `--trace 0` the measured phase runs untraced and the
//! last stdout line is a JSON object carrying the end-to-end metrics. With
//! `--trace 1` the same phase runs untraced for half the time, then traced
//! for the other half; the JSON carries the per-layer metrics and the
//! tracing overhead, and the spans go to `.perfbench/` under the working
//! directory. See README.md next to this crate for why each workload is
//! there and what it is sized by.

mod calibrate;
mod sim;
mod stats;
mod trace;
mod verdict;

use std::collections::BTreeMap;
use std::time::Instant;
use trace::Tracer;

/// Seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;
/// Seed kept back for confirming a claimed gain on inputs that were not
/// looked at while the change was written.
pub const CONFIRM_SEED: u64 = 20_251_017;

/// Times the inputs are generated before the measured phase.
const SETUP_REPS: usize = 5;

/// End-to-end metrics: every workload reports each of them. Operation
/// times are in reference milliseconds (see `calibrate`), so the machine's
/// speed swings do not drown the figures; the wall-clock ones are printed
/// beside them. The tail time is printed but not listed: a simulated
/// workload's few dozen runs give no tail steady enough to gate on.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_ref_s", "1/ref_s"),
    ("op_ref_ms_p50", "ref_ms"),
];

const ARM_METRICS: [&str; 2] = ["sim.engine.run_ms", "sim.engine.commit_ratio"];

/// Per-layer metrics other than the per-arm ones; 0 where the workload
/// does not exercise the layer.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("workload.generate_s", "s"),
    ("core.analyze_pair_ms", "ms"),
    ("core.sat_check.safety_ms", "ms"),
    ("core.sat_check.deadlock_ms", "ms"),
    ("sat.vars", "count"),
    ("sat.clauses", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sim.replay_ms", "ms"),
    ("core.synthesize_optimal_ms", "ms"),
    ("sim.commits_per_ktick", "1/ktick"),
    ("sim.msgs_per_commit", "msgs"),
    ("sim.wait_ticks_per_commit", "ticks"),
    ("sim.engine.ns_per_msg", "ns"),
    ("sim.history.audit_ms", "ms"),
    ("sim.invariant_audit.overhead_x", "x"),
    ("dlm.op_ns", "ns"),
    ("dlm.requests_per_commit", "count"),
    ("sim.detect.deadlocks_per_commit", "count"),
    ("sim.detect.latency_ticks_per_deadlock", "ticks"),
    ("sim.probe.msgs_per_commit", "msgs"),
    ("sim.prevent.restarts_per_commit", "count"),
    ("sim.fault.dropped_per_commit", "msgs"),
    ("sim.fault.duplicated_per_commit", "msgs"),
    ("sim.fault.leases_expired", "count"),
    ("sim.fault.recoveries", "count"),
    ("sim.deleg.cache_hits_per_commit", "count"),
    ("sim.deleg.revocations_per_commit", "count"),
    ("trace.overhead_x", "x"),
];

/// Every per-layer metric name with its unit, per-arm ones included.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for m in ARM_METRICS {
        let unit = if m.ends_with("run_ms") {
            "ms"
        } else {
            "fraction"
        };
        v.extend(sim::ARMS.iter().map(|a| (format!("{m}.{}", a.name), unit)));
    }
    v
}

/// SplitMix64 of `seed` and `salt`: independent sub-seeds from one seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Throughput and operation times of one phase, in one time unit
/// (wall-clock or reference).
#[derive(Clone, Copy, Debug)]
pub struct Rates {
    /// Verdicts, or committed simulated transactions, per second.
    pub ops_per_s: f64,
    /// Median time of one verdict; for simulated workloads, the median over
    /// streams of a stream's mean run time across arms, in ms.
    pub op_ms_p50: f64,
    /// 99th-percentile time of one verdict; for simulated workloads, the
    /// slowest arm's run time, median over streams, in ms.
    pub op_ms_p99: f64,
}

/// What one measured phase produced, whatever the workload.
#[derive(Clone, Debug)]
pub struct Phase {
    /// Verdicts or simulated runs attempted.
    pub attempted: u64,
    /// Attempts refused or answered wrongly.
    pub failed: u64,
    /// In wall-clock time.
    pub wall: Rates,
    /// In reference time: `ops_per_s` per `ref_s`, times in `ref_ms`.
    pub reference: Rates,
}

/// Per-layer metric values, keyed by name.
#[derive(Default)]
pub struct Report {
    layers: BTreeMap<String, f64>,
}

impl Report {
    /// Sets a per-layer metric; the name must be a declared one.
    pub fn layer(&mut self, name: &str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "undeclared per-layer metric {name}"
        );
        self.layers.insert(name.to_string(), value);
    }

    /// Sets a per-arm metric such as `sim.engine.run_ms.<arm>`.
    pub fn layer_arm(&mut self, metric: &str, arm: &str, value: f64) {
        assert!(
            ARM_METRICS.contains(&metric),
            "undeclared per-arm metric {metric}"
        );
        self.layers.insert(format!("{metric}.{arm}"), value);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(why: &str) -> ! {
    eprintln!("kplock-perfbench: {why}");
    eprintln!(
        "usage: kplock-perfbench --workload <verdict|oltp|scan|lossy_audited> \
         [--seed <n>] [--seconds <s>] [--trace <0|1>]\n\
         default seed {DEFAULT_SEED}; seed {CONFIRM_SEED} is kept for confirming a claimed gain"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad seed {value:?}")))
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .unwrap_or_else(|| usage(&format!("bad seconds {value:?}")))
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(&format!("bad trace flag {value:?}")),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        usage("--workload is required");
    }
    args
}

/// Inputs of either kind of workload.
enum WorkloadInputs {
    Verdict(Vec<verdict::Case>),
    Sim(sim::Inputs),
}

fn generate(workload: &str, seed: u64) -> WorkloadInputs {
    match workload {
        "verdict" => WorkloadInputs::Verdict(verdict::corpus(seed)),
        "oltp" => WorkloadInputs::Sim(sim::generate(sim::Workload::Oltp, seed)),
        "scan" => WorkloadInputs::Sim(sim::generate(sim::Workload::Scan, seed)),
        "lossy_audited" => WorkloadInputs::Sim(sim::generate(sim::Workload::LossyAudited, seed)),
        _ => usage(&format!("unknown workload {workload:?}")),
    }
}

/// Generates the inputs `SETUP_REPS` times and keeps the last; returns them
/// with the median generation time in seconds.
fn setup(args: &Args, t: &mut Tracer) -> (WorkloadInputs, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for rep in 0..SETUP_REPS {
        // Drop the previous copy first so peak memory holds one copy.
        drop(inputs.take());
        let t0 = Instant::now();
        inputs = Some(t.span("workload.generate", None, rep as u64, |_, _| {
            generate(&args.workload, args.seed)
        }));
        times.push(t0.elapsed().as_secs_f64());
    }
    (
        inputs.expect("at least one repetition"),
        stats::median(&times),
    )
}

/// A measured phase of either kind, with the named metrics it prints.
struct Measured {
    phase: Phase,
    named: Vec<(&'static str, f64, &'static str)>,
}

fn measure(inputs: &WorkloadInputs, seconds: f64, t: &mut Tracer, report: &mut Report) -> Measured {
    match inputs {
        WorkloadInputs::Verdict(cases) => {
            let vp = verdict::measure(cases, seconds, t);
            if t.enabled() {
                verdict::per_layer(report, t, &vp.sat);
            }
            Measured {
                named: verdict::describe(&vp.phase),
                phase: vp.phase,
            }
        }
        WorkloadInputs::Sim(inp) => {
            let sp = sim::measure(inp, seconds, t);
            if t.enabled() {
                sim::per_layer(report, inp, t, &sp);
            }
            Measured {
                named: sim::describe(&sp),
                phase: sp.phase,
            }
        }
    }
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    assert!(value.is_finite(), "metric {name} is not finite: {value}");
    format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
}

fn write_spans(args: &Args, t: &Tracer) -> std::io::Result<String> {
    std::fs::create_dir_all(".perfbench")?;
    let path = format!(".perfbench/{}-seed{}.spans.jsonl", args.workload, args.seed);
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    t.write_jsonl(&mut w)?;
    w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    Ok(path)
}

fn main() {
    let args = parse_args();
    let mut tracer = Tracer::new(args.trace);
    let (inputs, setup_s) = setup(&args, &mut tracer);
    let mut report = Report::default();

    // Untraced phase: the whole run, or its first half when tracing.
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut quiet = Tracer::new(false);
    let untraced = measure(&inputs, untraced_s, &mut quiet, &mut report);
    let mut phases = vec![untraced.phase.clone()];
    if args.trace {
        let traced = measure(&inputs, args.seconds - untraced_s, &mut tracer, &mut report);
        let gen_ns: u64 = tracer.durations_ns("workload.generate").iter().sum();
        report.layer(
            "workload.generate_s",
            gen_ns as f64 / 1e9 / SETUP_REPS as f64,
        );
        report.layer(
            "trace.overhead_x",
            stats::ratio(
                untraced.phase.reference.ops_per_s,
                traced.phase.reference.ops_per_s,
            ),
        );
        phases.push(traced.phase);
    }
    let attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    let failed_share = stats::ratio(failed as f64, attempted as f64);
    let peak_rss_mb = stats::peak_rss_mb().unwrap_or_else(|e| {
        eprintln!("kplock-perfbench: {e}");
        std::process::exit(1);
    });

    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut named = vec![
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
        ("failed_share", failed_share, "fraction"),
    ];
    named.extend(untraced.named.iter().copied());
    let r = untraced.phase.reference;
    named.extend([
        ("ops_per_ref_s", r.ops_per_s, "1/ref_s"),
        ("op_ref_ms_p50", r.op_ms_p50, "ref_ms"),
        ("op_ref_ms_p99", r.op_ms_p99, "ref_ms"),
    ]);
    for (name, value, unit) in &named {
        println!("  {name:<28} {value:>14.6} {unit}");
    }

    let metrics: Vec<String> = if args.trace {
        match write_spans(&args, &tracer) {
            Ok(path) => println!("  spans written to {path}"),
            Err(e) => {
                eprintln!("kplock-perfbench: cannot write spans: {e}");
                std::process::exit(1);
            }
        }
        per_layer_metrics()
            .iter()
            .map(|(name, unit)| {
                let value = report.layers.get(name).copied().unwrap_or(0.0);
                println!("  {name:<44} {value:>14.6} {unit}");
                json_metric(name, value, unit)
            })
            .collect()
    } else {
        let values = [setup_s, peak_rss_mb, r.ops_per_s, r.op_ms_p50];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| json_metric(name, value, unit))
            .collect()
    };
    let correct = failed == 0;
    println!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_metric_the_program_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = json.matches(r#""unit":"#).count();
        assert_eq!(declared, END_TO_END.len() + per_layer_metrics().len());
        let all = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer_metrics());
        for (name, unit) in all {
            let entry = format!(r#""name": "{name}", "unit": "{unit}""#);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn sub_seeds_differ() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(5, 3), mix(5, 3));
    }
}
