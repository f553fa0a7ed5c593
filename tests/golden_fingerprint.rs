//! Golden output fingerprints for the routing/MCF hot paths.
//!
//! The KSP/MCF overhaul (CSR plane graphs, epoch-stamped scratch, Lawler's
//! optimization) promises *byte-identical* outputs to the straightforward
//! reference implementations. These tests pin that promise down across
//! sessions: each hashes a complete all-pairs route table (or a GK solve)
//! into a single FNV-1a fingerprint and compares it against a committed
//! constant. Any change to path contents, path order, tie-breaking, or
//! float operation order in GK shows up as a fingerprint mismatch — if one
//! of these fails after an optimization, the optimization changed observable
//! behaviour and must be fixed (do not re-pin without understanding why).

use pnet::flowsim::{commodity, mcf};
use pnet::routing::{Parallelism, RouteAlgo, Router};
use pnet::topology::{
    assemble_homogeneous, FatTree, Jellyfish, LinkProfile, Network, PlaneId, RackId,
};
use pnet::workloads::tm;

/// 64-bit FNV-1a, seeded with the standard offset basis. No external crates:
/// the point is a stable, dependency-free digest of structured output.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hash the full all-pairs route table of `net` under KSP-k, in canonical
/// (src, dst, plane) order: every path's plane and exact link sequence
/// contributes, so path set, order, and tie-breaking are all pinned.
fn ksp_table_fingerprint(net: &Network, k: usize) -> u64 {
    let router = Router::with_parallelism(net, RouteAlgo::Ksp { k }, Parallelism::Serial);
    router.precompute_all_pairs_with(Parallelism::Serial);
    let mut h = Fnv::new();
    let racks = router.n_racks();
    for a in 0..racks {
        for b in 0..racks {
            if a == b {
                continue;
            }
            for p in 0..router.n_planes() {
                let paths =
                    router.paths_in_plane(PlaneId(p as u16), RackId(a as u32), RackId(b as u32));
                h.u64(paths.len() as u64);
                for path in paths.iter() {
                    h.u64(path.plane.0 as u64);
                    h.u64(path.links.len() as u64);
                    for l in &path.links {
                        h.u64(l.0 as u64);
                    }
                }
            }
        }
    }
    h.0
}

#[test]
fn jellyfish_ksp_table_fingerprint_is_stable() {
    let net = assemble_homogeneous(
        &Jellyfish::new(16, 4, 1, 7),
        2,
        &LinkProfile::paper_default(),
    );
    assert_eq!(
        ksp_table_fingerprint(&net, 8),
        GOLDEN_JELLYFISH_KSP,
        "all-pairs KSP table changed on seeded Jellyfish(16, 4, seed 7) x2 planes, k=8"
    );
}

#[test]
fn fat_tree_ksp_table_fingerprint_is_stable() {
    let net = assemble_homogeneous(&FatTree::three_tier(4), 2, &LinkProfile::paper_default());
    assert_eq!(
        ksp_table_fingerprint(&net, 8),
        GOLDEN_FAT_TREE_KSP,
        "all-pairs KSP table changed on fat tree k=4 x2 planes, KSP k=8"
    );
}

#[test]
fn gk_mcf_lambda_fingerprint_is_stable() {
    // Same construction as bench_report, scaled down: seeded Jellyfish,
    // random-permutation commodities, AnyPath oracle at eps = 0.1. lambda and
    // every per-commodity rate are hashed bit-exactly.
    let net = assemble_homogeneous(
        &Jellyfish::new(16, 4, 1, 7),
        2,
        &LinkProfile::paper_default(),
    );
    let c = commodity::permutation(&tm::random_permutation(16, 7));
    let sol = mcf::try_solve_with_options(
        &net,
        &c,
        &mcf::PathMode::AnyPath,
        0.1,
        mcf::McfOptions {
            parallelism: Parallelism::Serial,
            ..Default::default()
        },
    )
    .expect("valid instance must solve");
    let mut h = Fnv::new();
    h.u64(sol.lambda.to_bits());
    h.u64(sol.phases as u64);
    for r in &sol.rates {
        h.u64(r.to_bits());
    }
    assert_eq!(
        h.0, GOLDEN_GK_LAMBDA,
        "GK solve changed (lambda {} over {} phases)",
        sol.lambda, sol.phases
    );
}

#[test]
fn gk_warm_lambda_fingerprint_is_stable() {
    // The cold instance above, then one fabric cable fails and GK re-solves
    // warm-started from the cold solution's length profile. lambda, phases
    // and every per-commodity rate are hashed bit-exactly, so a change to the
    // warm start point or to the shared cold/warm prologue shows up here.
    use pnet::topology::failures;
    let mut net = assemble_homogeneous(
        &Jellyfish::new(16, 4, 1, 7),
        2,
        &LinkProfile::paper_default(),
    );
    let c = commodity::permutation(&tm::random_permutation(16, 7));
    let opts = mcf::McfOptions {
        parallelism: Parallelism::Serial,
        ..Default::default()
    };
    let cold = mcf::try_solve_with_options(&net, &c, &mcf::PathMode::AnyPath, 0.1, opts)
        .expect("valid instance must solve");
    let cable = failures::fabric_cables(&net, None)[3];
    failures::fail_cable(&mut net, cable);
    let sol = mcf::try_solve_warm_with_options(&net, &c, &mcf::PathMode::AnyPath, 0.1, opts, &cold)
        .expect("valid warm instance must solve");
    let mut h = Fnv::new();
    h.u64(sol.lambda.to_bits());
    h.u64(sol.phases as u64);
    for r in &sol.rates {
        h.u64(r.to_bits());
    }
    assert_eq!(
        h.0, GOLDEN_GK_WARM_LAMBDA,
        "warm GK solve changed (lambda {} over {} phases)",
        sol.lambda, sol.phases
    );
}

#[test]
fn post_churn_ksp_table_fingerprint_is_stable() {
    // A seeded churn walk absorbed through the incremental delta path must
    // land on a pinned table fingerprint — and that fingerprint must equal a
    // from-scratch rebuild on the final link state, tying the pin to the
    // cold-precompute semantics rather than to the repair code itself.
    use pnet::topology::ChurnSchedule;
    let mut net = assemble_homogeneous(
        &Jellyfish::new(16, 4, 1, 7),
        2,
        &LinkProfile::paper_default(),
    );
    let router = Router::with_parallelism(&net, RouteAlgo::Ksp { k: 8 }, Parallelism::Serial);
    router.precompute_all_pairs_with(Parallelism::Serial);
    for &ev in &ChurnSchedule::random_walk(&net, 12, 0.2, 21).events {
        ev.apply(&mut net);
        let stats = router.refresh(&net);
        assert!(!stats.full_rebuild, "cable churn must take the delta path");
    }
    let fresh = Router::with_parallelism(&net, RouteAlgo::Ksp { k: 8 }, Parallelism::Serial);
    fresh.precompute_all_pairs_with(Parallelism::Serial);
    assert_eq!(
        router.table_fingerprint(),
        fresh.table_fingerprint(),
        "incremental repair diverged from a from-scratch rebuild"
    );
    assert_eq!(
        router.table_fingerprint(),
        GOLDEN_POST_CHURN_KSP,
        "post-churn route table changed on seeded Jellyfish(16, 4, seed 7) x2 \
         planes, k=8, random_walk(12 events, 0.2, seed 21)"
    );
}

/// Hash every flow-completion record of a mid-size multi-plane MPTCP run,
/// sorted by owner tag: start/finish timestamps (picosecond-exact), sizes,
/// retransmit/timeout counts, and subflow counts all contribute. Any change
/// to event dispatch order anywhere in the packet engine — queue swap, arena
/// refactor, batching — moves at least one completion time and shows up here.
fn sim_fct_fingerprint() -> u64 {
    use pnet::htsim::{run_to_completion, CcAlgo, FlowSpec, SimConfig, Simulator};
    use pnet::routing::host_route;
    use pnet::topology::HostId;

    let net = assemble_homogeneous(
        &Jellyfish::new(16, 4, 2, 7),
        3,
        &LinkProfile::paper_default(),
    );
    let router = Router::with_parallelism(&net, RouteAlgo::Ksp { k: 2 }, Parallelism::Serial);
    let mut sim = Simulator::new(&net, SimConfig::default());
    let pairs = tm::permutation_pairs(32, 9);
    for (i, &(a, b)) in pairs.iter().enumerate() {
        let (src, dst) = (HostId(a as u32), HostId(b as u32));
        let (ra, rb) = (net.rack_of_host(src), net.rack_of_host(dst));
        // One subflow per plane: a 3-subflow MPTCP connection under LIA.
        let routes: Vec<_> = (0..3u16)
            .map(|p| {
                let path = router.paths_in_plane(PlaneId(p), ra, rb)[0].clone();
                host_route(&net, src, dst, &path).expect("invariant: permutation pair is routable")
            })
            .collect();
        sim.start_flow(FlowSpec {
            src,
            dst,
            size_bytes: 200_000 + 37_000 * (i as u64 % 5),
            routes,
            cc: CcAlgo::Lia,
            owner_tag: i as u64,
        });
    }
    run_to_completion(&mut sim);
    let mut recs: Vec<_> = sim.records.iter().collect();
    recs.sort_by_key(|r| r.owner_tag);
    let mut h = Fnv::new();
    h.u64(recs.len() as u64);
    for r in recs {
        h.u64(r.owner_tag);
        h.u64(u64::from(r.src.0));
        h.u64(u64::from(r.dst.0));
        h.u64(r.size_bytes);
        h.u64(r.start.as_ps());
        h.u64(r.finish.as_ps());
        h.u64(r.retransmits);
        h.u64(r.timeouts);
        h.u64(r.n_subflows as u64);
    }
    h.0
}

#[test]
fn packet_sim_fct_fingerprint_is_stable() {
    assert_eq!(
        sim_fct_fingerprint(),
        GOLDEN_SIM_FCT,
        "packet-level event order changed: a 32-flow 3-plane MPTCP run no \
         longer reproduces the pinned flow-completion records"
    );
}

/// Hash every flow-completion record of a small closed-loop websearch replay
/// (the shape of the benchmark's Fig 13 workload at tiny size): 8 ToRs,
/// degree 3, 2 hosts per ToR, 4 closed-loop flows per host, websearch sizes
/// x0.01, a 1 ms minimum RTO, shortest-plane selection, and a `run` bounded
/// by an `until` horizon. Unlike the open-loop pin above it exercises flows
/// started by the driver mid-run, RTO timers in the far-future ladder, and
/// the horizon check. Serial low-bandwidth and 4-plane heterogeneous runs
/// are hashed in that order, every record in completion order.
fn closed_loop_fct_fingerprint() -> u64 {
    use pnet::core::{PathPolicy, PathSelector};
    use pnet::htsim::apps::{ClosedLoopDriver, ClosedLoopSlot};
    use pnet::htsim::{run, SimConfig, SimTime, Simulator};
    use pnet::topology::{parallel, HostId, NetworkClass};
    use pnet::workloads::Trace;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    const SEED: u64 = 1;
    let stop = SimTime::from_us(300);
    let until = stop + SimTime::from_us(50_000);
    let mut cfg = SimConfig::default();
    cfg.tcp.min_rto = SimTime::from_us(1_000);
    let cdf = Trace::Websearch.cdf().scaled(0.01);
    let proto = Jellyfish::new(8, 3, 2, SEED);

    let mut h = Fnv::new();
    for class in [NetworkClass::SerialLow, NetworkClass::ParallelHeterogeneous] {
        let net = parallel::jellyfish_network(class, proto, 4, SEED, &LinkProfile::paper_default());
        let router = Router::with_parallelism(&net, RouteAlgo::Ksp { k: 32 }, Parallelism::Serial);
        let mut selector = PathSelector::new(router, PathPolicy::ShortestPlane);
        let n_hosts = net.n_hosts() as u32;
        let mut sim = Simulator::new(&net, cfg);
        let mut rng = StdRng::seed_from_u64(SEED ^ 0xF13);
        let mut slots = Vec::new();
        for src in 0..n_hosts {
            for _ in 0..4 {
                let mut dst_rng = StdRng::seed_from_u64(rng.random());
                let mut size_rng = StdRng::seed_from_u64(rng.random());
                let cdf = cdf.clone();
                slots.push(ClosedLoopSlot {
                    src: HostId(src),
                    next_dst: Box::new(move || loop {
                        let d = dst_rng.random_range(0..n_hosts);
                        if d != src {
                            return HostId(d);
                        }
                    }),
                    next_size: Box::new(move || cdf.sample(&mut size_rng)),
                });
            }
        }
        let net = &net;
        let mut flow_id = 0u64;
        let factory = Box::new(move |src, dst, size| {
            flow_id += 1;
            selector.select(net, src, dst, flow_id, size)
        });
        let mut driver = ClosedLoopDriver::start(&mut sim, slots, factory, stop);
        run(&mut sim, &mut driver, Some(until));
        assert_eq!(
            driver.completed.len(),
            sim.n_conns(),
            "every started flow completes before the horizon"
        );
        h.u64(sim.records.len() as u64);
        for r in &sim.records {
            h.u64(u64::from(r.conn.0));
            h.u64(r.owner_tag);
            h.u64(u64::from(r.src.0));
            h.u64(u64::from(r.dst.0));
            h.u64(r.size_bytes);
            h.u64(r.start.as_ps());
            h.u64(r.finish.as_ps());
            h.u64(r.retransmits);
            h.u64(r.timeouts);
            h.u64(r.n_subflows as u64);
            h.u64(r.min_switch_hops as u64);
        }
        h.u64(sim.events_dispatched());
    }
    h.0
}

#[test]
fn closed_loop_fct_fingerprint_is_stable() {
    assert_eq!(
        closed_loop_fct_fingerprint(),
        GOLDEN_CLOSED_LOOP_FCT,
        "packet-level event order changed: the closed-loop websearch replay \
         (8 ToRs, serial low-bw and 4-plane hetero) no longer reproduces the \
         pinned flow-completion records"
    );
}

// Pinned fingerprints. Regenerate only when an *intentional* output change
// lands, and record why in the commit message.
const GOLDEN_JELLYFISH_KSP: u64 = 14853875402589996389;
// Incremental-repair end state of a 12-event churn walk; must also equal a
// from-scratch rebuild (asserted in the same test).
const GOLDEN_POST_CHURN_KSP: u64 = 3576556970543380266;
const GOLDEN_FAT_TREE_KSP: u64 = 11144640133350879781;
// lambda 199901380670.61145 over 2028 phases.
const GOLDEN_GK_LAMBDA: u64 = 2946497110374994333;
// Warm re-solve of the GK instance after one fabric cable fails: lambda
// 200000000000 over 138 phases.
const GOLDEN_GK_WARM_LAMBDA: u64 = 8434682054201570072;
// Pinned by the pre-calendar-queue BinaryHeap engine; the timing-wheel/arena
// engine must reproduce it bit-for-bit.
const GOLDEN_SIM_FCT: u64 = 2982833380558106106;
// Closed-loop websearch replay with driver-started flows, RTO timers and an
// `until` horizon.
const GOLDEN_CLOSED_LOOP_FCT: u64 = 13116726168268943060;
