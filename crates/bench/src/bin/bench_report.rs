//! Wall-clock report for the two bulk hot paths: all-pairs KSP route
//! precomputation and one Garg–Könemann MCF solve.
//!
//! Three questions, answered in `BENCH_routing.json` / `BENCH_mcf.json`
//! (written to the working directory):
//!
//! 1. **Algorithmic speedup** — the overhauled KSP path (CSR plane graphs,
//!    epoch-stamped scratch, Lawler-optimized Yen with a shared first-path
//!    BFS per source) vs the straightforward pre-overhaul implementation,
//!    which is kept alive as [`pnet_routing::ksp_reference`] and re-timed
//!    *live* on the same machine. The route tables must be identical.
//! 2. **Where the time goes** — a per-stage breakdown of the overhauled
//!    serial precompute: first-path BFS, spur search, table commit.
//! 3. **Parallel sanity** — serial vs `Parallelism::Rayon` wall clock with
//!    byte-identical outputs (degenerates to the serial loop on one core;
//!    pin workers with `RAYON_NUM_THREADS`).
//! 4. **Telemetry overhead** (`BENCH_telemetry.json`) — packet-level wall
//!    clock of a permutation workload with telemetry fully off vs fully on
//!    (every trace category + 50 µs sampler), min-of-N; the FCT vectors
//!    must be bit-identical (the observer cannot perturb the simulation).
//! 5. **Reconvergence under churn** (`BENCH_reconverge.json`, via
//!    `--reconverge-only`) — failure-burst scenarios (single-cable flaps,
//!    1% / 4% random-fraction bursts with restores) replayed one event at a
//!    time against a live router + GK solution. Each event times the
//!    incremental path (`Router::refresh` delta repair + warm-started GK
//!    re-solve) against the full path (rebuild every plane graph, recompute
//!    the all-pairs table from scratch, cold GK solve); sampled events
//!    assert route-table fingerprint identity and warm-λ tolerance
//!    in-process. Runs the 64-ToR preset and the paper-scale 98-ToR preset
//!    at 1 thread, and requires a >= 10x median single-event speedup on the
//!    64-ToR preset.
//! 6. **Planner service saturation** (`BENCH_planner.json`, via
//!    `--planner-only`) — queries/sec and p50/p99 latency of the
//!    throughput-planner service answering admission what-ifs over one
//!    pinned fabric generation: a serial cold pass (every query a fresh GK
//!    solve), a serial warm pass (every query a memo hit, asserted
//!    fingerprint-identical to its cold solve), and a multi-threaded cold
//!    pass on a fresh planner racing concurrent readers against live
//!    `publish_delta` churn — the pinned generation's answers must be
//!    bitwise stable across the publishes.
//! 7. **Event engine throughput** (`BENCH_htsim.json`) — the overhauled
//!    simulator core (timing-wheel/ladder event queue, packet slab arena,
//!    batched same-timestamp dispatch) vs the pre-overhaul engine, kept
//!    alive verbatim as [`pnet_htsim::reference::RefSimulator`] and re-timed
//!    *live* on the same machine and workload: a full host permutation on a
//!    paper-scale fabric (98 ToRs x 7 hosts = 686 hosts, matching the
//!    paper's testbed host count) under 2-subflow LIA MPTCP. Reports
//!    events/sec for both engines; the per-flow FCT records must be
//!    byte-identical or the run aborts.
//!
//! Usage: `bench_report [--quick] [--tors 64] [--degree 8] [--planes 4]
//!                      [--k 32] [--seed 1] [--eps 0.1] [--no-reference]
//!                      [--repeats 5] [--htsim-tors 98] [--htsim-degree 14]
//!                      [--htsim-hosts 7] [--htsim-kb 1000]
//!                      [--htsim-only] [--reconverge-only] [--planner-only]
//!                      [--planner-tors 48] [--planner-queries 160]
//!                      [--planner-threads N]`
//!
//! `--quick` shrinks the instances (16 ToRs, degree 4, 2 planes, k=8;
//! htsim: 16 ToRs x 2 hosts, 100 KB flows) for a CI smoke run; explicit
//! size flags still override it.

use pnet_bench::{banner, f3, or_exit, Args};
use pnet_flowsim::{commodity, mcf, Commodity};
use pnet_htsim::reference::RefSimulator;
use pnet_htsim::{
    run_to_completion, CcAlgo, FlowSpec, SimConfig, SimTime, Simulator, TelemetryConfig,
};
use pnet_planner::{solution_fingerprint, Planner, PlannerConfig};
use pnet_routing::{host_route, sort_paths, yen, Parallelism, Path, RouteAlgo, Router};
use pnet_topology::{
    assemble_homogeneous, failures, HostId, Jellyfish, LinkDelta, LinkProfile, Network, PlaneId,
    RackId,
};
use pnet_workloads::tm;
use std::time::Instant;

fn write_json(path: &str, body: &str) {
    std::fs::write(path, body).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {path}");
}

/// Precompute the all-pairs route table and return (wall ms, full table dump
/// for the identity check) — the dump is ordered (src, dst, plane).
fn timed_precompute(net: &Network, k: usize, par: Parallelism) -> (f64, Vec<Vec<Path>>) {
    let router = Router::with_parallelism(net, RouteAlgo::Ksp { k }, par);
    let t0 = Instant::now();
    router.precompute_all_pairs_with(par);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let n = router.n_racks();
    let mut dump = Vec::new();
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            for p in 0..router.n_planes() {
                dump.push(
                    router
                        .paths_in_plane(PlaneId(p as u16), RackId(a as u32), RackId(b as u32))
                        .to_vec(),
                );
            }
        }
    }
    (ms, dump)
}

/// The same all-pairs table via the pre-overhaul reference implementation,
/// one independent Yen run per (plane, src, dst) — the "before" timing.
fn timed_reference(net: &Network, k: usize) -> (f64, Vec<Vec<Path>>) {
    let router = Router::with_parallelism(net, RouteAlgo::Ksp { k }, Parallelism::Serial);
    let planes = router.plane_graphs();
    let n = router.n_racks();
    let t0 = Instant::now();
    let mut dump = Vec::new();
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            for pg in planes.iter() {
                let mut paths = yen::ksp_reference(pg, RackId(a as u32), RackId(b as u32), k);
                sort_paths(&mut paths);
                dump.push(paths);
            }
        }
    }
    (t0.elapsed().as_secs_f64() * 1e3, dump)
}

/// Per-stage serial breakdown of the overhauled precompute.
///
/// * `first_bfs_ms` — a k=1 pass per (plane, src): exactly the shared
///   first-path BFS tree plus per-destination backtracks (Yen's main loop
///   exits before any spur search at k=1).
/// * `spur_ms` — full-k batched KSP time minus the k=1 pass: the Lawler spur
///   searches and candidate heap work.
/// * `commit_ms` — sorting each path set and inserting it into the shared
///   route table (measured over a replica of the router's commit loop).
struct StageBreakdown {
    first_bfs_ms: f64,
    spur_ms: f64,
    commit_ms: f64,
}

fn staged_precompute(net: &Network, k: usize) -> StageBreakdown {
    let router = Router::with_parallelism(net, RouteAlgo::Ksp { k }, Parallelism::Serial);
    let planes = router.plane_graphs();
    let n = router.n_racks();

    let t0 = Instant::now();
    for pg in planes.iter() {
        for src in 0..n {
            std::hint::black_box(yen::ksp_all_destinations(pg, RackId(src as u32), 1));
        }
    }
    let first_bfs_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    let mut results: Vec<(u16, u32, Vec<Vec<Path>>)> = Vec::new();
    for pg in planes.iter() {
        for src in 0..n {
            results.push((
                pg.plane.0,
                src as u32,
                yen::ksp_all_destinations(pg, RackId(src as u32), k),
            ));
        }
    }
    let full_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    let mut table: std::collections::HashMap<(u16, u32, u32), std::sync::Arc<Vec<Path>>> =
        std::collections::HashMap::new();
    for (plane, src, per_dst) in results {
        for (dst, mut paths) in per_dst.into_iter().enumerate() {
            sort_paths(&mut paths);
            table.insert((plane, src, dst as u32), std::sync::Arc::new(paths));
        }
    }
    std::hint::black_box(&table);
    let commit_ms = t0.elapsed().as_secs_f64() * 1e3;

    StageBreakdown {
        first_bfs_ms,
        spur_ms: (full_ms - first_bfs_ms).max(0.0),
        commit_ms,
    }
}

/// One packet-level run of a fixed permutation workload; returns (wall ms,
/// sorted per-flow FCTs in ps, trace records kept). The FCT vector is the
/// perturbation check: telemetry on and off must produce the same one.
fn timed_sim(
    net: &Network,
    flows: &[(HostId, HostId, Vec<pnet_topology::LinkId>)],
    telemetry: TelemetryConfig,
) -> (f64, Vec<u64>, usize) {
    let cfg = SimConfig {
        telemetry,
        ..SimConfig::default()
    };
    let t0 = Instant::now();
    let mut sim = Simulator::new(net, cfg);
    for (i, (src, dst, route)) in flows.iter().enumerate() {
        sim.start_flow(FlowSpec {
            src: *src,
            dst: *dst,
            size_bytes: 500_000,
            routes: vec![route.clone()],
            cc: CcAlgo::Reno,
            owner_tag: i as u64,
        });
    }
    run_to_completion(&mut sim);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut fcts: Vec<(u64, u64)> = sim
        .records
        .iter()
        .map(|r| (r.owner_tag, r.fct().as_ps()))
        .collect();
    fcts.sort_unstable();
    let n_records = sim.telemetry().map_or(0, |t| t.len());
    (ms, fcts.into_iter().map(|(_, f)| f).collect(), n_records)
}

/// Outcome of one engine run: wall ms, events dispatched, and the full
/// per-flow record vector (sorted by owner tag) for the identity check.
struct EngineRun {
    ms: f64,
    events: u64,
    fcts: Vec<(u64, u64, u64, u64, u64)>,
}

fn fct_vector(records: &[pnet_htsim::FlowRecord]) -> Vec<(u64, u64, u64, u64, u64)> {
    let mut v: Vec<(u64, u64, u64, u64, u64)> = records
        .iter()
        .map(|r| {
            (
                r.owner_tag,
                r.start.as_ps(),
                r.finish.as_ps(),
                r.retransmits,
                r.timeouts,
            )
        })
        .collect();
    v.sort_unstable();
    v
}

/// One run of the overhauled engine on a prebuilt flow set.
fn timed_new_engine(net: &Network, flows: &[FlowSpec]) -> EngineRun {
    let t0 = Instant::now();
    let mut sim = Simulator::new(net, SimConfig::default());
    for spec in flows {
        sim.start_flow(spec.clone());
    }
    run_to_completion(&mut sim);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    EngineRun {
        ms,
        events: sim.events_dispatched(),
        fcts: fct_vector(&sim.records),
    }
}

/// One run of the pre-overhaul engine (binary-heap queue, boxed per-packet
/// allocation) on the same flow set.
fn timed_reference_engine(net: &Network, flows: &[FlowSpec]) -> EngineRun {
    let t0 = Instant::now();
    let mut sim = RefSimulator::new(net, SimConfig::default());
    for spec in flows {
        sim.start_flow(spec.clone());
    }
    sim.run_to_completion();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    EngineRun {
        ms,
        events: sim.events_dispatched(),
        fcts: fct_vector(&sim.records),
    }
}

fn timed_mcf(
    net: &Network,
    commodities: &[Commodity],
    eps: f64,
    par: Parallelism,
) -> (f64, mcf::McfSolution) {
    let t0 = Instant::now();
    let sol = mcf::try_solve_with_options(
        net,
        commodities,
        &mcf::PathMode::AnyPath,
        eps,
        mcf::McfOptions {
            parallelism: par,
            ..Default::default()
        },
    );
    (t0.elapsed().as_secs_f64() * 1e3, or_exit("GK solve", sol))
}

fn main() {
    let args = Args::parse();
    let quick = args.has("quick");
    let tors: usize = args.get("tors", if quick { 16 } else { 64 });
    let degree: usize = args.get("degree", if quick { 4 } else { 8 });
    let planes: usize = args.get("planes", if quick { 2 } else { 4 });
    let k: usize = args.get("k", if quick { 8 } else { 32 });
    let seed: u64 = args.get("seed", 1);
    let eps: f64 = args.get("eps", 0.1);
    let run_reference = !args.has("no-reference");
    let htsim_only = args.has("htsim-only");

    let threads = Parallelism::Rayon.threads();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    if args.has("reconverge-only") {
        reconverge_section(&args, quick, seed, eps, cores);
        return;
    }

    if args.has("planner-only") {
        planner_section(&args, quick, seed, eps, cores);
        return;
    }

    banner(
        "KSP precompute and GK MCF solve: overhauled vs reference, serial vs parallel",
        &format!(
            "{planes}-plane jellyfish, {tors} racks, degree {degree}; \
             {threads} worker thread(s) on {cores} core(s){}",
            if quick {
                "; --quick smoke instance"
            } else {
                ""
            }
        ),
    );

    let net = assemble_homogeneous(
        &Jellyfish::new(tors, degree, 1, seed),
        planes,
        &LinkProfile::paper_default(),
    );

    // --- Routing: all-pairs KSP precompute. -------------------------------
    if htsim_only {
        htsim_engine_section(&args, quick, seed, cores);
        return;
    }
    let (serial_ms, serial_dump) = timed_precompute(&net, k, Parallelism::Serial);
    let (parallel_ms, parallel_dump) = timed_precompute(&net, k, Parallelism::Rayon);
    let identical = serial_dump == parallel_dump;
    let entries = serial_dump.len();
    let speedup = serial_ms / parallel_ms;
    println!(
        "routing: all-pairs KSP k={k}: serial {} ms, parallel {} ms, \
         speedup {}x, identical tables: {identical}",
        f3(serial_ms),
        f3(parallel_ms),
        f3(speedup)
    );
    assert!(identical, "serial and parallel route tables diverged");

    let stages = staged_precompute(&net, k);
    println!(
        "routing stages (serial): first-path BFS {} ms, spur search {} ms, \
         table commit {} ms",
        f3(stages.first_bfs_ms),
        f3(stages.spur_ms),
        f3(stages.commit_ms)
    );

    let (reference_ms, algo_speedup) = if run_reference {
        let (reference_ms, reference_dump) = timed_reference(&net, k);
        let same = reference_dump == serial_dump;
        println!(
            "routing reference (pre-overhaul Yen): serial {} ms, \
             algorithmic speedup {}x, identical tables: {same}",
            f3(reference_ms),
            f3(reference_ms / serial_ms)
        );
        assert!(same, "overhauled route tables diverged from the reference");
        (Some(reference_ms), Some(reference_ms / serial_ms))
    } else {
        (None, None)
    };

    let json_opt = |v: Option<f64>| v.map_or("null".to_string(), |x| format!("{x:.3}"));
    write_json(
        "BENCH_routing.json",
        &format!(
            "{{\n  \"benchmark\": \"all_pairs_ksp_precompute\",\n  \
             \"topology\": {{\"kind\": \"jellyfish\", \"n_tors\": {tors}, \"degree\": {degree}, \"planes\": {planes}}},\n  \
             \"k\": {k},\n  \"route_table_entries\": {entries},\n  \
             \"threads\": {threads},\n  \"available_cores\": {cores},\n  \
             \"reference_serial_ms\": {},\n  \"serial_ms\": {serial_ms:.3},\n  \
             \"parallel_ms\": {parallel_ms:.3},\n  \
             \"algorithmic_speedup\": {},\n  \"parallel_speedup\": {speedup:.3},\n  \
             \"stages_serial_ms\": {{\"first_path_bfs\": {:.3}, \"spur_search\": {:.3}, \"table_commit\": {:.3}}},\n  \
             \"identical_tables\": {identical}\n}}\n",
            json_opt(reference_ms),
            json_opt(algo_speedup),
            stages.first_bfs_ms,
            stages.spur_ms,
            stages.commit_ms,
        ),
    );

    // --- MCF: one GK solve on a permutation, AnyPath oracle. --------------
    let c: Vec<Commodity> = commodity::permutation(&tm::random_permutation(tors, seed));
    let (mcf_serial_ms, sol_s) = timed_mcf(&net, &c, eps, Parallelism::Serial);
    let (mcf_parallel_ms, sol_p) = timed_mcf(&net, &c, eps, Parallelism::Rayon);
    let bit_identical = sol_s.lambda.to_bits() == sol_p.lambda.to_bits()
        && sol_s.phases == sol_p.phases
        && sol_s
            .rates
            .iter()
            .zip(&sol_p.rates)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    let mcf_speedup = mcf_serial_ms / mcf_parallel_ms;
    println!(
        "mcf: GK solve ({} commodities, eps {eps}): serial {} ms, parallel {} ms, \
         speedup {}x, lambda {}, bit-identical: {bit_identical}",
        c.len(),
        f3(mcf_serial_ms),
        f3(mcf_parallel_ms),
        f3(mcf_speedup),
        f3(sol_s.lambda)
    );
    assert!(bit_identical, "serial and parallel MCF solutions diverged");
    write_json(
        "BENCH_mcf.json",
        &format!(
            "{{\n  \"benchmark\": \"gk_mcf_solve\",\n  \
             \"topology\": {{\"kind\": \"jellyfish\", \"n_tors\": {tors}, \"degree\": {degree}, \"planes\": {planes}}},\n  \
             \"commodities\": {},\n  \"eps\": {eps},\n  \"phases\": {},\n  \
             \"lambda\": {},\n  \
             \"threads\": {threads},\n  \"available_cores\": {cores},\n  \
             \"serial_ms\": {mcf_serial_ms:.3},\n  \"parallel_ms\": {mcf_parallel_ms:.3},\n  \
             \"speedup\": {mcf_speedup:.3},\n  \"bit_identical\": {bit_identical}\n}}\n",
            c.len(),
            sol_s.phases,
            sol_s.lambda,
        ),
    );

    // --- Telemetry overhead: traced vs untraced packet simulation. --------
    // Min-of-N wall clock over a fixed permutation workload. Telemetry off
    // must cost nothing beyond one branch per hook site; telemetry on (all
    // categories + sampler) buys the trace for the reported premium. Both
    // must produce bit-identical FCT vectors — the observer cannot perturb.
    let repeats: usize = args.get("repeats", if quick { 3 } else { 5 });
    let router = Router::new(&net, RouteAlgo::Ksp { k: 2 });
    let flows: Vec<(HostId, HostId, Vec<pnet_topology::LinkId>)> =
        tm::permutation_pairs(tors, seed)
            .iter()
            .map(|&(a, b)| {
                let i = a;
                let (src, dst) = (HostId(a as u32), HostId(b as u32));
                let p = router.paths_in_plane(
                    PlaneId((i % planes) as u16),
                    net.rack_of_host(src),
                    net.rack_of_host(dst),
                )[0]
                .clone();
                let route =
                    host_route(&net, src, dst, &p).expect("permutation pair must be routable");
                (src, dst, route)
            })
            .collect();
    let on_cfg = TelemetryConfig::all(SimTime::from_us(50));
    let mut off_ms = f64::INFINITY;
    let mut on_ms = f64::INFINITY;
    let mut fcts_off = Vec::new();
    let mut fcts_on = Vec::new();
    let mut trace_records = 0usize;
    for _ in 0..repeats {
        let (ms, fcts, _) = timed_sim(&net, &flows, TelemetryConfig::default());
        off_ms = off_ms.min(ms);
        fcts_off = fcts;
        let (ms, fcts, n) = timed_sim(&net, &flows, on_cfg);
        on_ms = on_ms.min(ms);
        fcts_on = fcts;
        trace_records = n;
    }
    let identical_fcts = fcts_off == fcts_on;
    let overhead_pct = (on_ms / off_ms - 1.0) * 100.0;
    println!(
        "telemetry: {} flows, {repeats} repeats: off {} ms, on {} ms \
         ({} trace records), overhead {}%, identical FCTs: {identical_fcts}",
        flows.len(),
        f3(off_ms),
        f3(on_ms),
        trace_records,
        f3(overhead_pct)
    );
    assert!(
        identical_fcts,
        "telemetry perturbed the simulation: FCT vectors diverged"
    );
    write_json(
        "BENCH_telemetry.json",
        &format!(
            "{{\n  \"benchmark\": \"telemetry_overhead\",\n  \
             \"topology\": {{\"kind\": \"jellyfish\", \"n_tors\": {tors}, \"degree\": {degree}, \"planes\": {planes}}},\n  \
             \"flows\": {},\n  \"repeats\": {repeats},\n  \
             \"sample_interval_us\": 50,\n  \
             \"off_ms\": {off_ms:.3},\n  \"on_ms\": {on_ms:.3},\n  \
             \"overhead_percent\": {overhead_pct:.3},\n  \
             \"trace_records\": {trace_records},\n  \
             \"identical_fcts\": {identical_fcts}\n}}\n",
            flows.len(),
        ),
    );

    htsim_engine_section(&args, quick, seed, cores);
}

/// Splitmix-free xorshift64: deterministic offset stream for the hold model.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Draw a schedule offset from the simulator's own event-horizon mix: ACK
/// serialization at 100G (3.2 ns), MTU serialization (120 ns), a ~1 µs
/// propagation hop, and a 1% tail of 10 ms RTO-class timers.
fn hold_offset_ps(state: &mut u64) -> u64 {
    match xorshift(state) % 100 {
        0 => 10_000_000_000,
        1..=30 => 3_200,
        31..=60 => 120_000,
        _ => 1_050_000,
    }
}

/// Hold-model microbenchmark of the event queue in isolation — the classic
/// calendar-queue methodology (pop the earliest event, reschedule it at
/// `popped + offset`, steady-state population held constant). This isolates
/// the queue structure from the end-to-end number, which is Amdahl-limited
/// by transport work and DRAM misses on simulator state that both engines
/// pay identically. The baseline is a `BinaryHeap` over 32-byte
/// (time, seq, payload) nodes with the identical (time, seq) order — a
/// *favorable* stand-in for the old engine, whose nodes were 64 bytes; the
/// wheel's own entries are 24 bytes. Returns (wheel Mops, heap Mops).
fn queue_hold_microbench(quick: bool) -> (f64, f64) {
    use pnet_htsim::event::{EventKind, EventQueue};
    const PENDING: usize = 1 << 16;
    let holds: usize = if quick { 1_000_000 } else { 8_000_000 };

    // Timing wheel, the production engine's structure.
    let mut q = EventQueue::new();
    let mut rng = 0x243F_6A88_85A3_08D3u64;
    let mut t = 0u64;
    for i in 0..PENDING {
        q.schedule(
            SimTime::from_ps(hold_offset_ps(&mut rng)),
            EventKind::AppTimer {
                app: 0,
                tag: i as u64,
            },
        );
    }
    let mut cal_sum = 0u64;
    let start = Instant::now();
    for i in 0..holds {
        let ev = q.pop().expect("hold model keeps the population constant");
        t = ev.time.as_ps();
        cal_sum = cal_sum.wrapping_add(t);
        q.schedule(
            SimTime::from_ps(t + hold_offset_ps(&mut rng)),
            EventKind::AppTimer {
                app: 0,
                tag: i as u64,
            },
        );
    }
    let cal_mops = holds as f64 / start.elapsed().as_secs_f64() / 1e6;

    // Binary-heap baseline over nodes of the same size and total order.
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    struct HeapEv {
        time: u64,
        seq: u64,
        payload: u64,
    }
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<HeapEv>> =
        std::collections::BinaryHeap::new();
    let mut rng = 0x243F_6A88_85A3_08D3u64;
    let mut seq = 0u64;
    for i in 0..PENDING {
        heap.push(std::cmp::Reverse(HeapEv {
            time: hold_offset_ps(&mut rng),
            seq,
            payload: i as u64,
        }));
        seq += 1;
    }
    let mut heap_sum = 0u64;
    let start = Instant::now();
    for i in 0..holds {
        let std::cmp::Reverse(ev) = heap
            .pop()
            .expect("hold model keeps the population constant");
        heap_sum = heap_sum.wrapping_add(ev.time);
        heap.push(std::cmp::Reverse(HeapEv {
            time: ev.time + hold_offset_ps(&mut rng),
            seq,
            payload: i as u64,
        }));
        seq += 1;
    }
    let heap_mops = holds as f64 / start.elapsed().as_secs_f64() / 1e6;

    // Same seed, same offsets, same total order: the two structures must pop
    // the identical timestamp sequence or one of them is not a priority
    // queue. (`t` is read so the wheel loop cannot be optimized away.)
    assert_eq!(
        cal_sum, heap_sum,
        "timing wheel and heap disagreed on pop order (last t = {t})"
    );
    (cal_mops, heap_mops)
}

/// Event engine: timing-wheel/arena core vs pre-overhaul engine. A full host
/// permutation at the paper's testbed scale (686 hosts) under 2-subflow LIA
/// MPTCP, run to completion on both engines. Min-of-N wall clock, events/sec,
/// and a byte-identical FCT check: the overhaul must be a pure
/// reimplementation, not a behaviour change.
fn htsim_engine_section(args: &Args, quick: bool, seed: u64, cores: usize) {
    let h_tors: usize = args.get("htsim-tors", if quick { 16 } else { 98 });
    let h_degree: usize = args.get("htsim-degree", if quick { 4 } else { 14 });
    let h_hosts: usize = args.get("htsim-hosts", if quick { 2 } else { 7 });
    let h_kb: u64 = args.get("htsim-kb", if quick { 100 } else { 1000 });
    let h_repeats: usize = args.get("htsim-repeats", if quick { 1 } else { 2 });
    let h_perms: usize = args.get("htsim-perms", if quick { 1 } else { 4 });
    let h_planes: usize = if quick { 2 } else { 3 };
    let h_net = assemble_homogeneous(
        &Jellyfish::new(h_tors, h_degree, h_hosts, seed),
        h_planes,
        &LinkProfile::paper_default(),
    );
    let n_hosts = h_net.n_hosts();
    let h_router = Router::new(&h_net, RouteAlgo::Ksp { k: 2 });
    let h_flows: Vec<FlowSpec> = (0..h_perms)
        .flat_map(|p| {
            tm::random_permutation(n_hosts, seed + p as u64)
                .into_iter()
                .enumerate()
                .map(move |(i, j)| (p * n_hosts + i, i, j))
        })
        .map(|(tag, i, j)| {
            let (src, dst) = (HostId(i as u32), HostId(j as u32));
            let paths =
                h_router.k_best_across_planes(h_net.rack_of_host(src), h_net.rack_of_host(dst), 2);
            let routes: Vec<Vec<pnet_topology::LinkId>> = paths
                .iter()
                .filter_map(|p| host_route(&h_net, src, dst, p))
                .collect();
            FlowSpec {
                src,
                dst,
                size_bytes: h_kb * 1000,
                routes,
                cc: CcAlgo::Lia,
                owner_tag: tag as u64,
            }
        })
        .collect();
    let mut new_run = timed_new_engine(&h_net, &h_flows);
    let mut ref_run = timed_reference_engine(&h_net, &h_flows);
    for _ in 1..h_repeats {
        let r = timed_new_engine(&h_net, &h_flows);
        new_run.ms = new_run.ms.min(r.ms);
        let r = timed_reference_engine(&h_net, &h_flows);
        ref_run.ms = ref_run.ms.min(r.ms);
    }
    let identical_fcts = new_run.fcts == ref_run.fcts;
    let new_eps = new_run.events as f64 / (new_run.ms / 1e3);
    let ref_eps = ref_run.events as f64 / (ref_run.ms / 1e3);
    let engine_speedup = new_eps / ref_eps;
    println!(
        "htsim engine: {n_hosts}-host permutation ({} flows, {h_kb} KB LIA), \
         min of {h_repeats}: reference {} ms ({} ev/s), overhauled {} ms ({} ev/s), \
         events/sec speedup {}x, identical FCT records: {identical_fcts}",
        h_flows.len(),
        f3(ref_run.ms),
        f3(ref_eps / 1e6),
        f3(new_run.ms),
        f3(new_eps / 1e6),
        f3(engine_speedup)
    );
    assert!(
        identical_fcts,
        "event engine overhaul changed behaviour: FCT records diverged from the reference engine"
    );
    let (cal_mops, heap_mops) = queue_hold_microbench(quick);
    let hold_speedup = cal_mops / heap_mops;
    println!(
        "htsim event queue (hold model, 64Ki pending): timing wheel {} Mops, \
         binary heap {} Mops, speedup {}x",
        f3(cal_mops),
        f3(heap_mops),
        f3(hold_speedup)
    );
    write_json(
        "BENCH_htsim.json",
        &format!(
            "{{\n  \"benchmark\": \"htsim_event_engine\",\n  \
             \"topology\": {{\"kind\": \"jellyfish\", \"n_tors\": {h_tors}, \"degree\": {h_degree}, \
             \"hosts_per_tor\": {h_hosts}, \"planes\": {h_planes}}},\n  \
             \"hosts\": {n_hosts},\n  \"flows\": {},\n  \"flow_kb\": {h_kb},\n  \
             \"cc\": \"lia\",\n  \"repeats\": {h_repeats},\n  \
             \"threads\": 1,\n  \"available_cores\": {cores},\n  \
             \"reference_ms\": {:.3},\n  \"overhauled_ms\": {:.3},\n  \
             \"reference_events\": {},\n  \"overhauled_events\": {},\n  \
             \"reference_events_per_sec\": {:.0},\n  \"overhauled_events_per_sec\": {:.0},\n  \
             \"events_per_sec_speedup\": {engine_speedup:.3},\n  \
             \"queue_hold_calendar_mops\": {cal_mops:.3},\n  \
             \"queue_hold_heap_mops\": {heap_mops:.3},\n  \
             \"queue_hold_speedup\": {hold_speedup:.3},\n  \
             \"identical_fcts\": {identical_fcts}\n}}\n",
            h_flows.len(),
            ref_run.ms,
            new_run.ms,
            ref_run.events,
            new_run.events,
            ref_eps,
            new_eps,
        ),
    );
}

/// Middle value of a sample (mean of the two middles for even sizes).
fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Full-recompute measurements taken at a sampled churn event: the live
/// router's incremental result is raced against a from-scratch rebuild and
/// the chained warm GK solution against a cold solve on the same link state.
struct SampledEvent {
    full_route_ms: f64,
    cold_mcf_ms: f64,
    warm_mcf_ms: f64,
    cold_phases: usize,
    warm_phases: usize,
    lambda_rel_err: f64,
    /// (full route + cold GK) / (incremental repair + warm GK).
    speedup: f64,
}

/// One churn event's measurements: every event times the incremental repair;
/// sampled events additionally carry the full-recompute race.
struct ChurnEventMeasure {
    incr_route_ms: f64,
    entries_repaired: u64,
    sampled: Option<SampledEvent>,
}

/// Outcome of replaying one churn scenario against a live router + GK state.
struct ScenarioResult {
    name: &'static str,
    events: Vec<ChurnEventMeasure>,
}

impl ScenarioResult {
    fn sampled(&self) -> impl Iterator<Item = &SampledEvent> {
        self.events.iter().filter_map(|e| e.sampled.as_ref())
    }

    fn speedups(&self) -> Vec<f64> {
        self.sampled().map(|s| s.speedup).collect()
    }

    fn json(&self) -> String {
        let incr: Vec<f64> = self.events.iter().map(|e| e.incr_route_ms).collect();
        let repaired: Vec<f64> = self
            .events
            .iter()
            .map(|e| e.entries_repaired as f64)
            .collect();
        let full: Vec<f64> = self.sampled().map(|s| s.full_route_ms).collect();
        let cold: Vec<f64> = self.sampled().map(|s| s.cold_mcf_ms).collect();
        let warm: Vec<f64> = self.sampled().map(|s| s.warm_mcf_ms).collect();
        let cold_ph: Vec<f64> = self.sampled().map(|s| s.cold_phases as f64).collect();
        let warm_ph: Vec<f64> = self.sampled().map(|s| s.warm_phases as f64).collect();
        let speedups = self.speedups();
        let max_err = self
            .sampled()
            .map(|s| s.lambda_rel_err)
            .fold(0.0f64, f64::max);
        let repaired_list = self
            .events
            .iter()
            .map(|e| e.entries_repaired.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let incr_list = incr
            .iter()
            .map(|v| format!("{v:.3}"))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"name\": \"{}\", \"events\": {}, \"sampled_events\": {},\n      \
             \"entries_repaired\": [{repaired_list}],\n      \
             \"incremental_route_ms\": [{incr_list}],\n      \
             \"entries_repaired_median\": {:.1}, \"entries_repaired_max\": {},\n      \
             \"incremental_route_ms_median\": {:.3}, \"full_route_ms_median\": {:.3},\n      \
             \"warm_mcf_ms_median\": {:.3}, \"cold_mcf_ms_median\": {:.3},\n      \
             \"warm_phases_median\": {:.1}, \"cold_phases_median\": {:.1},\n      \
             \"event_speedup_median\": {:.3}, \"event_speedup_min\": {:.3},\n      \
             \"warm_lambda_max_rel_err\": {max_err:.6}, \"equivalent\": true}}",
            self.name,
            self.events.len(),
            speedups.len(),
            median(&repaired),
            repaired.iter().fold(0.0f64, |a, &b| a.max(b)) as u64,
            median(&incr),
            median(&full),
            median(&warm),
            median(&cold),
            median(&warm_ph),
            median(&cold_ph),
            median(&speedups),
            speedups.iter().fold(f64::INFINITY, |a, &b| a.min(b)),
        )
    }
}

/// Replay one churn schedule event by event. The live router absorbs each
/// event through `Router::refresh` (timed); at sampled events a from-scratch
/// router (plane-graph rebuild + all-pairs precompute) races it, the table
/// fingerprints are asserted identical, and a cold GK solve races a warm
/// re-solve chained from the previous solution (λ asserted within
/// [`mcf::WARM_LAMBDA_TOLERANCE`]). Sampling strides keep the full-recompute
/// cost bounded while the incremental path is timed at every event; the last
/// event is always sampled so the end state is verified.
fn run_churn_scenario(
    name: &'static str,
    base: &Network,
    schedule: &pnet_topology::ChurnSchedule,
    k: usize,
    eps: f64,
    commodities: &[Commodity],
    max_samples: usize,
) -> ScenarioResult {
    let mut net = base.clone();
    let router = Router::with_parallelism(&net, RouteAlgo::Ksp { k }, Parallelism::Serial);
    router.precompute_all_pairs_with(Parallelism::Serial);
    let (_, mut last_sol) = timed_mcf(&net, commodities, eps, Parallelism::Serial);

    let n_events = schedule.events.len();
    let stride = n_events.div_ceil(max_samples).max(1);
    let mut events = Vec::with_capacity(n_events);
    for (i, &ev) in schedule.events.iter().enumerate() {
        ev.apply(&mut net);

        let t0 = Instant::now();
        let stats = router.refresh(&net);
        let incr_route_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(
            !stats.full_rebuild,
            "{name}: churn event {i} fell back to a full rebuild"
        );

        let sampled = if i % stride == 0 || i + 1 == n_events {
            let t0 = Instant::now();
            let fresh = Router::with_parallelism(&net, RouteAlgo::Ksp { k }, Parallelism::Serial);
            fresh.precompute_all_pairs_with(Parallelism::Serial);
            let full_route_ms = t0.elapsed().as_secs_f64() * 1e3;
            assert_eq!(
                router.table_fingerprint(),
                fresh.table_fingerprint(),
                "{name}: incremental table diverged from rebuild at event {i}"
            );

            let (cold_mcf_ms, cold) = timed_mcf(&net, commodities, eps, Parallelism::Serial);
            let t0 = Instant::now();
            let warm = mcf::try_solve_warm_with_options(
                &net,
                commodities,
                &mcf::PathMode::AnyPath,
                eps,
                mcf::McfOptions {
                    parallelism: Parallelism::Serial,
                    ..Default::default()
                },
                &last_sol,
            );
            let warm = or_exit("warm GK solve", warm);
            let warm_mcf_ms = t0.elapsed().as_secs_f64() * 1e3;
            let lambda_rel_err = ((warm.lambda - cold.lambda) / cold.lambda).abs();
            assert!(
                lambda_rel_err <= mcf::WARM_LAMBDA_TOLERANCE,
                "{name}: warm lambda {} vs cold {} off by {lambda_rel_err:.4} at event {i}",
                warm.lambda,
                cold.lambda
            );
            let speedup = (full_route_ms + cold_mcf_ms) / (incr_route_ms + warm_mcf_ms);
            eprintln!(
                "    [{name} ev{i}] full route {} + cold {} ({} ph) vs incr {} \
                 ({} repaired) + warm {} ({} ph): {}x, rel err {:.4}",
                f3(full_route_ms),
                f3(cold_mcf_ms),
                cold.phases,
                f3(incr_route_ms),
                stats.entries_repaired,
                f3(warm_mcf_ms),
                warm.phases,
                f3(speedup),
                lambda_rel_err
            );
            let s = SampledEvent {
                full_route_ms,
                cold_mcf_ms,
                warm_mcf_ms,
                cold_phases: cold.phases,
                warm_phases: warm.phases,
                lambda_rel_err,
                speedup,
            };
            last_sol = warm;
            Some(s)
        } else {
            None
        };
        events.push(ChurnEventMeasure {
            incr_route_ms,
            entries_repaired: stats.entries_repaired as u64,
            sampled,
        });
    }
    ScenarioResult { name, events }
}

/// `p`-th quantile of a sample by nearest-rank on the sorted values.
fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let idx = ((s.len() as f64 - 1.0) * p).round() as usize;
    s[idx]
}

/// Run every traffic matrix as an admission query against a pinned
/// generation, returning per-query wall latencies (ms) and the full
/// solution fingerprint per matrix (the byte-identity ledger for the
/// warm-pass check).
fn planner_query_pass(
    planner: &Planner,
    generation: &pnet_planner::Generation,
    tms: &[Vec<pnet_flowsim::Commodity>],
    k: usize,
) -> (Vec<f64>, Vec<u64>) {
    let mut latencies = Vec::with_capacity(tms.len());
    let mut fingerprints = Vec::with_capacity(tms.len());
    for tm in tms {
        let t0 = Instant::now();
        let sol = planner
            .solve_ksp_at(generation, tm, k)
            .expect("benchmark matrices are solvable");
        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
        fingerprints.push(solution_fingerprint(&sol));
    }
    (latencies, fingerprints)
}

/// Planner service saturation (`--planner-only`): cold vs warm queries/sec
/// and latency quantiles over one pinned generation, then a multi-threaded
/// cold pass racing live `publish_delta` churn. Three identities are
/// asserted in-process (also under `--quick`): every warm answer is
/// fingerprint-identical to its cold solve, every concurrent answer is
/// fingerprint-identical to the serial pass, and the pinned generation's
/// topology fingerprint never moves while publishes land.
fn planner_section(args: &Args, quick: bool, seed: u64, eps: f64, cores: usize) {
    let tors: usize = args.get("planner-tors", if quick { 16 } else { 48 });
    let degree: usize = args.get("planner-degree", if quick { 4 } else { 8 });
    let planes: usize = args.get("planner-planes", if quick { 2 } else { 4 });
    let k: usize = args.get("planner-k", if quick { 4 } else { 8 });
    let n_queries: usize = args.get("planner-queries", if quick { 24 } else { 160 });
    let n_threads: usize = args.get("planner-threads", cores.min(8)).max(1);
    banner(
        "Planner service saturation: concurrent what-if queries over pinned generations",
        &format!(
            "{planes}-plane jellyfish, {tors} racks, degree {degree}, K={k}; \
             {n_queries} admission queries, {n_threads} reader thread(s) on \
             {cores} core(s){}",
            if quick {
                "; --quick smoke instance"
            } else {
                ""
            }
        ),
    );

    let net = assemble_homogeneous(
        &Jellyfish::new(tors, degree, 1, seed),
        planes,
        &LinkProfile::paper_default(),
    );
    let cfg = PlannerConfig {
        k,
        eps,
        parallelism: Parallelism::Serial,
        ..PlannerConfig::default()
    };
    let tms: Vec<Vec<pnet_flowsim::Commodity>> = (0..n_queries)
        .map(|i| commodity::permutation(&tm::random_permutation(tors, seed + i as u64)))
        .collect();

    // Serial cold pass: every query pays a full GK solve.
    let serial = Planner::with_config(net.clone(), cfg);
    let gen0 = serial.latest();
    let t0 = Instant::now();
    let (cold_lat, cold_fps) = planner_query_pass(&serial, &gen0, &tms, k);
    let cold_wall_s = t0.elapsed().as_secs_f64();
    let cold_qps = n_queries as f64 / cold_wall_s;
    let stats = serial.memo_stats();
    assert_eq!(
        stats.misses as usize, n_queries,
        "every cold query must run a fresh solve"
    );

    // Serial warm pass: the identical queries again, all memo hits, each
    // asserted bitwise identical to the cold solve it replaces.
    let t0 = Instant::now();
    let (warm_lat, warm_fps) = planner_query_pass(&serial, &gen0, &tms, k);
    let warm_wall_s = t0.elapsed().as_secs_f64();
    let warm_qps = n_queries as f64 / warm_wall_s;
    let stats = serial.memo_stats();
    assert_eq!(
        stats.hits as usize, n_queries,
        "every warm query must be served from the memo"
    );
    let memo_identical = cold_fps == warm_fps;
    assert!(
        memo_identical,
        "a memoized solution diverged from its cold solve"
    );
    println!(
        "planner serial: cold {} q/s (p50 {} ms, p99 {} ms), warm {} q/s \
         (p50 {} ms, p99 {} ms), warm speedup {}x, hits bitwise identical: \
         {memo_identical}",
        f3(cold_qps),
        f3(percentile(&cold_lat, 0.50)),
        f3(percentile(&cold_lat, 0.99)),
        f3(warm_qps),
        f3(percentile(&warm_lat, 0.50)),
        f3(percentile(&warm_lat, 0.99)),
        f3(warm_qps / cold_qps)
    );

    // Concurrent cold pass on a fresh planner: reader threads split the
    // query stream over a pinned generation while the main thread publishes
    // link churn. The pinned snapshot must answer identically throughout.
    let concurrent = std::sync::Arc::new(Planner::with_config(net, cfg));
    let pinned = concurrent.latest();
    let pinned_fp = pinned.topology_fingerprint();
    let cable = failures::fabric_cables(pinned.network(), None)[0];
    let chunks: Vec<&[Vec<pnet_flowsim::Commodity>]> =
        tms.chunks(n_queries.div_ceil(n_threads)).collect();
    let n_publishes = 2 * chunks.len();
    let t0 = Instant::now();
    let (conc_lat, conc_fps_chunks): (Vec<Vec<f64>>, Vec<Vec<u64>>) = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                let planner = std::sync::Arc::clone(&concurrent);
                let pinned = std::sync::Arc::clone(&pinned);
                scope.spawn(move || planner_query_pass(&planner, &pinned, chunk, k))
            })
            .collect();
        for _ in 0..chunks.len() {
            for delta in [
                LinkDelta {
                    down: vec![cable],
                    up: Vec::new(),
                },
                LinkDelta {
                    down: Vec::new(),
                    up: vec![cable],
                },
            ] {
                concurrent
                    .publish_delta(&delta)
                    .expect("benchmark cable churn is valid");
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("planner reader thread panicked"))
            .unzip()
    });
    let conc_wall_s = t0.elapsed().as_secs_f64();
    let conc_lat: Vec<f64> = conc_lat.into_iter().flatten().collect();
    let conc_fps: Vec<u64> = conc_fps_chunks.into_iter().flatten().collect();
    let conc_qps = n_queries as f64 / conc_wall_s;
    let pinned_stable = pinned.topology_fingerprint() == pinned_fp && conc_fps == cold_fps;
    assert!(
        pinned_stable,
        "a pinned generation's answers moved while publishes landed"
    );
    assert_eq!(
        concurrent.n_generations(),
        1 + n_publishes,
        "every publish must append a generation"
    );
    println!(
        "planner concurrent: {} q/s across {n_threads} thread(s) \
         ({} publishes mid-flight), p50 {} ms, p99 {} ms, \
         vs serial cold {}x, pinned generation stable: {pinned_stable}",
        f3(conc_qps),
        n_publishes,
        f3(percentile(&conc_lat, 0.50)),
        f3(percentile(&conc_lat, 0.99)),
        f3(conc_qps / cold_qps)
    );

    write_json(
        "BENCH_planner.json",
        &format!(
            "{{\n  \"benchmark\": \"planner_whatif_service\",\n  \
             \"topology\": {{\"kind\": \"jellyfish\", \"n_tors\": {tors}, \"degree\": {degree}, \"planes\": {planes}}},\n  \
             \"k\": {k},\n  \"eps\": {eps},\n  \"queries\": {n_queries},\n  \
             \"threads\": {n_threads},\n  \"available_cores\": {cores},\n  \
             \"serial_cold_qps\": {cold_qps:.3},\n  \
             \"serial_cold_p50_ms\": {:.3},\n  \"serial_cold_p99_ms\": {:.3},\n  \
             \"serial_warm_qps\": {warm_qps:.3},\n  \
             \"serial_warm_p50_ms\": {:.3},\n  \"serial_warm_p99_ms\": {:.3},\n  \
             \"warm_speedup\": {:.3},\n  \
             \"concurrent_qps\": {conc_qps:.3},\n  \
             \"concurrent_p50_ms\": {:.3},\n  \"concurrent_p99_ms\": {:.3},\n  \
             \"concurrent_vs_serial_cold\": {:.3},\n  \
             \"publishes_during_concurrent\": {n_publishes},\n  \
             \"memo_hit_bitwise_identical\": {memo_identical},\n  \
             \"pinned_generation_stable\": {pinned_stable}\n}}\n",
            percentile(&cold_lat, 0.50),
            percentile(&cold_lat, 0.99),
            percentile(&warm_lat, 0.50),
            percentile(&warm_lat, 0.99),
            warm_qps / cold_qps,
            percentile(&conc_lat, 0.50),
            percentile(&conc_lat, 0.99),
            conc_qps / cold_qps,
        ),
    );
}

/// Reconvergence-under-churn benchmark (`--reconverge-only`): per-event
/// incremental repair + warm GK vs full recompute, with in-process
/// equivalence checks, written to `BENCH_reconverge.json`.
fn reconverge_section(_args: &Args, quick: bool, seed: u64, eps: f64, cores: usize) {
    // (label, tors, degree, planes, k, full-recompute samples per scenario)
    let presets: &[(&str, usize, usize, usize, usize, usize)] = if quick {
        &[("16tor_quick", 16, 4, 2, 8, 3)]
    } else {
        &[
            ("64tor", 64, 8, 4, 32, 6),
            ("98tor_paper", 98, 14, 4, 32, 4),
        ]
    };
    banner(
        "Reconvergence under link churn: incremental repair + warm GK vs full recompute",
        &format!(
            "presets: {}; 1 worker thread on {cores} core(s){}",
            presets.iter().map(|p| p.0).collect::<Vec<_>>().join(", "),
            if quick {
                "; --quick smoke instance"
            } else {
                ""
            }
        ),
    );

    let speedup_target = 10.0;
    let mut preset_jsons = Vec::new();
    let mut target_median: Option<f64> = None;
    for &(label, tors, degree, planes, k, max_samples) in presets {
        let net = assemble_homogeneous(
            &Jellyfish::new(tors, degree, 1, seed),
            planes,
            &LinkProfile::paper_default(),
        );
        let commodities: Vec<Commodity> =
            commodity::permutation(&tm::random_permutation(tors, seed));
        let entries = tors * (tors - 1) * planes;
        println!(
            "[{label}] {planes}-plane jellyfish, {tors} racks, degree {degree}, \
             k={k}: {entries} route entries, {} commodities",
            commodities.len()
        );

        let scenarios = [
            (
                "single_cable",
                pnet_topology::ChurnSchedule::single_cable_cycles(
                    &net,
                    if quick { 2 } else { 4 },
                    seed.wrapping_mul(1000) + 17,
                ),
            ),
            (
                "burst_restore_1pct",
                pnet_topology::ChurnSchedule::burst_then_restore(
                    &net,
                    0.01,
                    seed.wrapping_mul(1000) + 29,
                ),
            ),
            (
                "burst_restore_4pct",
                pnet_topology::ChurnSchedule::burst_then_restore(
                    &net,
                    0.04,
                    seed.wrapping_mul(1000) + 43,
                ),
            ),
        ];
        let mut results = Vec::new();
        for (name, schedule) in &scenarios {
            let r = run_churn_scenario(name, &net, schedule, k, eps, &commodities, max_samples);
            let speedups = r.speedups();
            println!(
                "[{label}] {name}: {} events ({} sampled), incr route median {} ms, \
                 event speedup median {}x (min {}x)",
                r.events.len(),
                speedups.len(),
                f3(median(
                    &r.events.iter().map(|e| e.incr_route_ms).collect::<Vec<_>>()
                )),
                f3(median(&speedups)),
                f3(speedups.iter().fold(f64::INFINITY, |a, &b| a.min(b))),
            );
            results.push(r);
        }
        let all_speedups: Vec<f64> = results.iter().flat_map(|r| r.speedups()).collect();
        let preset_median = median(&all_speedups);
        println!(
            "[{label}] median single-event reconvergence speedup: {}x",
            f3(preset_median)
        );
        if label == "64tor" {
            target_median = Some(preset_median);
            assert!(
                preset_median >= speedup_target,
                "64tor median reconvergence speedup {preset_median:.2}x \
                 below the {speedup_target}x target"
            );
        }
        let scenario_jsons = results
            .iter()
            .map(|r| r.json())
            .collect::<Vec<_>>()
            .join(",\n      ");
        preset_jsons.push(format!(
            "{{\"label\": \"{label}\",\n    \
             \"topology\": {{\"kind\": \"jellyfish\", \"n_tors\": {tors}, \
             \"degree\": {degree}, \"planes\": {planes}}},\n    \
             \"k\": {k}, \"route_table_entries\": {entries}, \"commodities\": {},\n    \
             \"scenarios\": [\n      {scenario_jsons}\n    ],\n    \
             \"median_event_speedup\": {preset_median:.3}}}",
            commodities.len()
        ));
    }

    let target_json =
        target_median.map_or("null".to_string(), |m| format!("{}", m >= speedup_target));
    write_json(
        "BENCH_reconverge.json",
        &format!(
            "{{\n  \"benchmark\": \"incremental_reconvergence\",\n  \
             \"eps\": {eps},\n  \"threads\": 1,\n  \"available_cores\": {cores},\n  \
             \"warm_phase_budget\": {:.1},\n  \"warm_lambda_tolerance\": {},\n  \
             \"speedup_target\": {speedup_target},\n  \
             \"speedup_target_preset\": \"64tor\",\n  \
             \"target_met\": {target_json},\n  \
             \"equivalence_checked_in_process\": true,\n  \
             \"presets\": [\n  {}\n  ]\n}}\n",
            mcf::WARM_PHASE_BUDGET,
            mcf::WARM_LAMBDA_TOLERANCE,
            preset_jsons.join(",\n  "),
        ),
    );
}
