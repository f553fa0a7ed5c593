//! End-to-end benchmark of the P-Net reproduction.
//!
//! `perfbench --workload <ideal_a2a|trace_fct|planner_churn|all> --seed <n>
//!            --seconds <s> --trace <0|1> [--size full|tiny]`
//!
//! A workload is run in rounds until `--seconds` have passed (at least
//! three rounds; two with `--trace 1`). Each round sets the workload up
//! from the seed, runs its fixed work, and checks the outputs; set-up and
//! run times are the medians over rounds. With `--trace 1` every second
//! round records spans around the benchmark's calls into each crate, the
//! per-layer metrics come from those rounds, and the spans are written to
//! `perfbench/out/`. The last line of standard output is one JSON object:
//! the end-to-end metrics, or with `--trace 1` the per-layer metrics.
//! `README.md` beside this package explains the workloads and metrics.

mod churn;
mod clock;
mod ideal;
mod machine;
mod round;
mod trace;
mod trace_fct;

use std::collections::BTreeMap;
use std::process::ExitCode;

use clock::Timer;
use round::{median, quantile, ratio, Round};
use trace::Tracer;

/// Where `--trace 1` writes its spans.
const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Worker threads the libraries may use. One, so that results do not depend
/// on the core count and a shared machine adds the least noise; the
/// calibration probe in the machine record shows what more would buy.
const THREADS: usize = 1;

type RoundFn = fn(u64, bool, &Tracer) -> Round;

const WORKLOADS: [(&str, RoundFn); 3] = [
    ("ideal_a2a", ideal::round),
    ("trace_fct", trace_fct::round),
    ("planner_churn", churn::round),
];

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, printed with `--trace 1`. A metric a workload does
/// not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("topology.build_ms", "ms"),
    ("topology.links", "count"),
    ("topology.self_ms", "ms"),
    ("workloads.sample_ms", "ms"),
    ("workloads.samples", "count"),
    ("workloads.self_ms", "ms"),
    ("routing.precompute_ms", "ms"),
    ("routing.entries", "count"),
    ("routing.us_per_entry", "us"),
    ("routing.repair_ms_p50", "ms"),
    ("routing.entries_repaired", "count"),
    ("routing.entries_reused", "count"),
    ("routing.planes_rebuilt", "count"),
    ("routing.self_ms", "ms"),
    ("core.select_ms", "ms"),
    ("core.selects", "count"),
    ("core.subflows", "count"),
    ("core.self_ms", "ms"),
    ("flowsim.solve_ms", "ms"),
    ("flowsim.phases", "count"),
    ("flowsim.us_per_phase", "us"),
    ("flowsim.ksp_mode_ms_p50", "ms"),
    ("flowsim.warm_solve_ms_p50", "ms"),
    ("flowsim.warm_phases", "count"),
    ("flowsim.warm_lambda_err_max", "ratio"),
    ("flowsim.self_ms", "ms"),
    ("htsim.run_ms", "ms"),
    ("htsim.self_ms", "ms"),
    ("htsim.events", "count"),
    ("htsim.ns_per_event", "ns"),
    ("htsim.flows_completed", "count"),
    ("htsim.packets_enqueued", "count"),
    ("htsim.drops", "count"),
    ("htsim.retransmits", "count"),
    ("htsim.timeouts", "count"),
    ("htsim.queue_peak_bytes", "bytes"),
    ("htsim.fct_p50_us", "us"),
    ("htsim.fct_p99_us", "us"),
    ("planner.admit_ms_p50", "ms"),
    ("planner.memo_hits", "count"),
    ("planner.memo_misses", "count"),
    ("planner.memo_hit_ratio", "ratio"),
    ("planner.publish_ms_p50", "ms"),
    ("planner.generations", "count"),
    ("planner.self_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("reconverge_p50_ms", "ms"),
    ("reconverge_p90_ms", "ms"),
    ("failed_frac", "ratio"),
    ("digest.lambda", "digest"),
    ("digest.fct", "digest"),
    ("digest.routes", "digest"),
    ("trace.run_s_untraced", "s"),
    ("trace.run_s_traced", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("machine.nproc", "count"),
    ("machine.threads", "count"),
    ("machine.calib_1t_ms", "ms"),
    ("machine.calib_nt_ms", "ms"),
    ("machine.calib_speedup", "ratio"),
];

/// Metrics that are the summed duration of every span of one name.
const SPAN_TOTALS: [(&str, &str); 6] = [
    ("topology.build_ms", "topology.build"),
    ("workloads.sample_ms", "workloads.sample"),
    ("routing.precompute_ms", "routing.precompute"),
    ("core.select_ms", "core.select"),
    ("flowsim.solve_ms", "flowsim.solve"),
    ("htsim.run_ms", "htsim.run"),
];

/// Metrics that are the median duration of the spans of one name.
const SPAN_MEDIANS: [(&str, &str); 5] = [
    ("routing.repair_ms_p50", "routing.repair"),
    ("flowsim.ksp_mode_ms_p50", "flowsim.ksp_mode"),
    ("flowsim.warm_solve_ms_p50", "flowsim.warm_solve"),
    ("planner.admit_ms_p50", "planner.admit"),
    ("planner.publish_ms_p50", "planner.publish"),
];

const LAYERS: [(&str, &str); 7] = [
    ("topology", "topology.self_ms"),
    ("workloads", "workloads.self_ms"),
    ("routing", "routing.self_ms"),
    ("core", "core.self_ms"),
    ("flowsim", "flowsim.self_ms"),
    ("htsim", "htsim.self_ms"),
    ("planner", "planner.self_ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            "--size" => {
                args.tiny = match value.as_str() {
                    "full" => false,
                    "tiny" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let known = args.workload == "all" || WORKLOADS.iter().any(|w| w.0 == args.workload);
    if !known {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

/// Everything one workload run reports.
struct Report {
    name: &'static str,
    rounds: usize,
    attempted: u64,
    failed: u64,
    /// Every metric by name, end-to-end and per-layer alike.
    values: BTreeMap<&'static str, f64>,
    spans: String,
}

/// Per-layer metrics of one traced round.
fn layer_metrics(tr: &Tracer, r: &Round) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> =
        r.counters.iter().map(|(&k, &v)| (k, v as f64)).collect();
    m.extend(r.layer.iter().map(|(&k, &v)| (k, v)));
    for (metric, span) in SPAN_TOTALS {
        m.insert(metric, tr.total(span).0);
    }
    for (metric, span) in SPAN_MEDIANS {
        m.insert(metric, median(&tr.durations_ms(span)));
    }
    let self_ms = tr.self_ms_by_layer();
    for (layer, metric) in LAYERS {
        m.insert(metric, self_ms.get(layer).copied().unwrap_or(0.0));
    }
    let get = |k: &str| m.get(k).copied().unwrap_or(0.0);
    let derived = [
        (
            "routing.us_per_entry",
            ratio(get("routing.precompute_ms") * 1e3, get("routing.entries")),
        ),
        (
            "flowsim.us_per_phase",
            ratio(get("flowsim.solve_ms") * 1e3, get("flowsim.phases")),
        ),
        (
            "htsim.ns_per_event",
            ratio(get("htsim.run_ms") * 1e6, get("htsim.events")),
        ),
        (
            "planner.memo_hit_ratio",
            ratio(
                get("planner.memo_hits"),
                get("planner.memo_hits") + get("planner.memo_misses"),
            ),
        ),
        ("trace.spans", tr.spans().len() as f64),
    ];
    m.extend(derived);
    m
}

fn run_workload(name: &'static str, f: RoundFn, args: &Args) -> Report {
    let min_rounds = if args.trace { 2 } else { 3 };
    let is_traced = |i: usize| args.trace && i % 2 == 1;
    let start = Timer::start();
    let mut rounds: Vec<Round> = Vec::new();
    let mut traced: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut spans = String::new();
    let mut attempted = 0;
    let mut failed = 0;
    while rounds.len() < min_rounds || start.secs() < args.seconds {
        let i = rounds.len();
        let tr = Tracer::new(is_traced(i));
        let r = f(args.seed, args.tiny, &tr);
        if tr.on() {
            traced.push(layer_metrics(&tr, &r));
            tr.write_json(i, &mut spans);
        }
        attempted += r.attempted;
        failed += r.failed;
        if let Some(first) = rounds.first() {
            attempted += 1;
            if r.counters != first.counters {
                failed += 1;
                eprintln!(
                    "check failed: round {i} work counters or digests differ from round 0:\n  \
                     {:?}\n  {:?}",
                    first.counters, r.counters
                );
            }
        }
        rounds.push(r);
    }

    let median_of = |get: fn(&Round) -> f64, keep: &dyn Fn(usize) -> bool| -> f64 {
        let xs: Vec<f64> = rounds
            .iter()
            .enumerate()
            .filter(|&(i, _)| keep(i))
            .map(|(_, r)| get(r))
            .collect();
        median(&xs)
    };
    let untraced = median_of(|r| r.run_s, &|i| !is_traced(i));
    let traced_run = median_of(|r| r.run_s, &is_traced);
    let queries: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.query_ms.iter().copied())
        .collect();
    let reconverge: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.reconverge_ms.iter().copied())
        .collect();

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    for &(metric, _) in PER_LAYER {
        let xs: Vec<f64> = traced
            .iter()
            .filter_map(|m| m.get(metric).copied())
            .collect();
        values.insert(metric, median(&xs));
    }
    values.extend([
        ("setup_s", median_of(|r| r.setup_s, &|_| true)),
        ("run_s", median_of(|r| r.run_s, &|_| true)),
        ("peak_rss_mb", machine::peak_rss_mb()),
        ("query_p50_ms", quantile(&queries, 0.50)),
        ("query_p90_ms", quantile(&queries, 0.90)),
        ("reconverge_p50_ms", quantile(&reconverge, 0.50)),
        ("reconverge_p90_ms", quantile(&reconverge, 0.90)),
        ("failed_frac", ratio(failed as f64, attempted as f64)),
        ("trace.run_s_untraced", untraced),
        ("trace.run_s_traced", traced_run),
        (
            "trace.overhead_s",
            if args.trace {
                traced_run - untraced
            } else {
                0.0
            },
        ),
    ]);
    let list = |get: fn(&Round) -> f64| -> String {
        let xs: Vec<String> = rounds.iter().map(|r| format!("{:.4}", get(r))).collect();
        xs.join(", ")
    };
    println!(
        "{name}: per round run_s [{}], setup_s [{}]",
        list(|r| r.run_s),
        list(|r| r.setup_s)
    );
    Report {
        name,
        rounds: rounds.len(),
        attempted,
        failed,
        values,
        spans,
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metrics_json(entries: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = entries
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <ideal_a2a|trace_fct|planner_churn|all> \
                 --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]"
            );
            return ExitCode::from(2);
        }
    };
    // The libraries' default parallelism reads this; set before any thread.
    std::env::set_var("RAYON_NUM_THREADS", THREADS.to_string());

    let reports: Vec<Report> = WORKLOADS
        .iter()
        .filter(|w| args.workload == "all" || w.0 == args.workload)
        .map(|&(name, f)| run_workload(name, f, &args))
        .collect();

    let nproc = machine::nproc();
    let (calib_1t, calib_nt) = machine::calibrate(nproc);
    let calib_speedup = ratio(nproc as f64 * calib_1t, calib_nt);
    let repo = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let commit = machine::commit(repo);
    println!(
        "machine: nproc {nproc}, threads {THREADS}, profile {}, features strict-invariants, \
         commit {commit}, calibration 1 thread {calib_1t:.1} ms, {nproc} threads {calib_nt:.1} ms \
         ({calib_speedup:.2}x of {nproc}x)",
        machine::build_profile()
    );

    let machine_values = [
        ("machine.nproc", nproc as f64),
        ("machine.threads", THREADS as f64),
        ("machine.calib_1t_ms", calib_1t),
        ("machine.calib_nt_ms", calib_nt),
        ("machine.calib_speedup", calib_speedup),
    ];
    let printed: &[(&str, &str)] = if args.trace { PER_LAYER } else { &END_TO_END };
    let many = reports.len() > 1;
    let mut entries: Vec<(String, f64, &str)> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for mut rep in reports {
        rep.values.extend(machine_values);
        attempted += rep.attempted;
        failed += rep.failed;
        println!(
            "{}: seed {}, {} rounds, {} checked operations, {} failed",
            rep.name, args.seed, rep.rounds, rep.attempted, rep.failed
        );
        let mut shown: Vec<(&str, &str)> = END_TO_END.to_vec();
        shown.push(("failed_frac", "ratio"));
        if rep.name == "planner_churn" {
            shown.extend(
                PER_LAYER
                    .iter()
                    .filter(|p| p.0.starts_with("query_") || p.0.starts_with("reconverge_")),
            );
        }
        if args.trace {
            shown.extend(PER_LAYER);
        }
        for (m, u) in shown {
            println!("  {m:<28} {:>20} {u}", json_number(rep.values[m]));
        }
        for &(m, u) in printed {
            let name = if many {
                format!("{}.{m}", rep.name)
            } else {
                m.to_string()
            };
            entries.push((name, rep.values[m], u));
        }
        if args.trace {
            let path = format!("{TRACE_DIR}/trace-{}-seed{}.jsonl", rep.name, args.seed);
            let machine = format!(
                "{{\"machine\": {{\"nproc\": {nproc}, \"threads\": {THREADS}, \
                 \"profile\": \"{}\", \"commit\": \"{commit}\", \"calib_1t_ms\": {}, \
                 \"calib_nt_ms\": {}}}, \"workload\": \"{}\", \"seed\": {}}}",
                machine::build_profile(),
                json_number(calib_1t),
                json_number(calib_nt),
                rep.name,
                args.seed
            );
            let layer: Vec<(String, f64, &str)> = PER_LAYER
                .iter()
                .map(|&(m, u)| (m.to_string(), rep.values[m], u))
                .collect();
            let text = format!(
                "{machine}\n{}{{\"per_layer\": {}}}\n",
                rep.spans,
                metrics_json(&layer)
            );
            match std::fs::create_dir_all(TRACE_DIR).and_then(|()| std::fs::write(&path, text)) {
                Ok(()) => println!("  spans written to {path}"),
                Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
            }
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics_json(&entries)
    );
    ExitCode::SUCCESS
}
