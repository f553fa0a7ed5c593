//! End-to-end integration tests asserting the paper's qualitative claims,
//! each a miniature of one evaluation result (see DESIGN.md's experiment
//! index). These run the full stack: topology -> routing -> flow-level /
//! packet-level simulation.

use pnet::core::{analysis, PNetSpec, PathPolicy, TopologyKind};
use pnet::flowsim::mcf::{self, McfOptions, PathMode};
use pnet::flowsim::{commodity, throughput};
use pnet::htsim::apps::{RpcDriver, RpcSlot};
use pnet::htsim::{metrics, run, run_to_completion, FlowSpec, SimConfig, Simulator};
use pnet::topology::{
    components, failures, parallel, FatTree, HostId, Jellyfish, LinkProfile, NetworkClass,
};
use pnet::workloads::tm;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

// ---------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------

#[test]
fn table1_exact_numbers() {
    let rows = components::table1();
    let as_tuple = |r: &components::ComponentCount| (r.tiers, r.hops, r.chips, r.boxes, r.links);
    assert_eq!(as_tuple(&rows[0]), (4, 7, 3584, 3584, 24_576));
    assert_eq!(as_tuple(&rows[1]), (2, 7, 3584, 192, 8_192));
    assert_eq!(as_tuple(&rows[2]), (2, 3, 1536, 192, 8_192));
}

// ---------------------------------------------------------------------
// Figure 6: ECMP fails on sparse traffic; multipath recovers capacity
// ---------------------------------------------------------------------

#[test]
fn ecmp_all_to_all_scales_but_permutation_does_not() {
    let base = LinkProfile::paper_default();
    let ft = FatTree::three_tier(4);
    let serial = pnet::topology::assemble_homogeneous(&ft, 1, &base);
    let par4 = pnet::topology::assemble_homogeneous(&ft, 4, &base);

    let a2a = commodity::all_to_all(16);
    let t1 = throughput::ecmp_throughput(&serial, &a2a);
    let t4 = throughput::ecmp_throughput(&par4, &a2a);
    assert!(
        t4 / t1 > 2.5,
        "all-to-all under ECMP should scale well: got {}",
        t4 / t1
    );

    let perm = commodity::permutation(&tm::random_permutation(16, 3));
    let p1 = throughput::ecmp_throughput(&serial, &perm);
    let p4 = throughput::ecmp_throughput(&par4, &perm);
    assert!(
        p4 / p1 < 2.2,
        "permutation under ECMP should NOT extract 4x: got {}",
        p4 / p1
    );
}

#[test]
fn multipath_saturation_k_grows_with_planes() {
    // The N x subflows rule: the K needed to reach 95% of the N-plane
    // asymptote grows ~proportionally to N.
    let base = LinkProfile::paper_default();
    let ft = FatTree::three_tier(4);
    let perm = commodity::permutation(&tm::random_permutation(16, 5));
    let saturation_k = |n_planes: usize| -> usize {
        let net = pnet::topology::assemble_homogeneous(&ft, n_planes, &base);
        let ksp = |k: usize| {
            throughput::ksp_multipath_throughput(&net, &perm, k, 0.1)
                .expect("valid instance must solve")
                .0
        };
        let asymptote = ksp(32);
        for k in [1usize, 2, 4, 8, 16, 32] {
            let t = ksp(k);
            if t >= 0.95 * asymptote {
                return k;
            }
        }
        64
    };
    let k1 = saturation_k(1);
    let k2 = saturation_k(2);
    assert!(
        k2 >= 2 * k1,
        "2-plane saturation K ({k2}) should be ~2x serial's ({k1})"
    );
}

// ---------------------------------------------------------------------
// Figure 7: heterogeneous core capacity exceeds serial high-bandwidth
// ---------------------------------------------------------------------

#[test]
fn heterogeneous_core_capacity_beats_serial_high() {
    let base = LinkProfile::paper_default();
    let proto = Jellyfish::new(32, 6, 1, 0);
    let commodities = commodity::all_to_all(32);
    let high = parallel::jellyfish_network(NetworkClass::SerialHigh, proto, 4, 9, &base);
    let het = parallel::jellyfish_network(NetworkClass::ParallelHeterogeneous, proto, 4, 9, &base);
    // Ideal core throughput: free routing with host links uncapacitated.
    let opts = McfOptions {
        host_links_free: true,
        ..Default::default()
    };
    let core = |net| {
        mcf::try_solve_with_options(net, &commodities, &PathMode::AnyPath, 0.1, opts)
            .expect("valid instance must solve")
            .total_rate()
    };
    let (t_high, t_het) = (core(&high), core(&het));
    assert!(
        t_het > 1.1 * t_high,
        "hetero core capacity {t_het:.3e} should exceed serial-high {t_high:.3e}"
    );
}

// ---------------------------------------------------------------------
// Figures 10/14: heterogeneous hop advantage & failure resilience
// ---------------------------------------------------------------------

#[test]
fn heterogeneous_has_fewer_hops_and_degrades_gracefully() {
    let base = LinkProfile::paper_default();
    let proto = Jellyfish::new(40, 5, 1, 0);
    let build = |class| parallel::jellyfish_network(class, proto, 4, 21, &base);

    let serial = build(NetworkClass::SerialLow);
    let homo = build(NetworkClass::ParallelHomogeneous);
    let hetero = build(NetworkClass::ParallelHeterogeneous);

    // No failures: hetero < serial; homo == serial.
    let s0 = analysis::mean_hops_single_plane(&serial);
    let h0 = analysis::mean_hops_best_plane(&homo);
    let x0 = analysis::mean_hops_best_plane(&hetero);
    assert!(x0 < s0 - 0.1, "hetero {x0} not below serial {s0}");
    assert!((h0 - s0).abs() < 1e-9);

    // 40% failures: serial degrades much more than homogeneous.
    let mut serial_f = build(NetworkClass::SerialLow);
    let mut homo_f = build(NetworkClass::ParallelHomogeneous);
    failures::fail_random_fraction(&mut serial_f, 0.4, 7);
    failures::fail_random_fraction(&mut homo_f, 0.4, 7);
    let s_deg = analysis::mean_hops_single_plane(&serial_f) / s0;
    let h_deg = analysis::mean_hops_best_plane(&homo_f) / h0;
    assert!(
        s_deg > h_deg + 0.05,
        "serial degradation {s_deg} should exceed homogeneous {h_deg}"
    );
}

// ---------------------------------------------------------------------
// Figure 10 (packet level): hetero RPCs complete faster
// ---------------------------------------------------------------------

#[test]
fn hetero_rpc_latency_beats_serial() {
    let topology = TopologyKind::Jellyfish {
        n_tors: 16,
        degree: 4,
        hosts_per_tor: 2,
    };
    let median_rpc = |class: NetworkClass| -> f64 {
        let pnet = PNetSpec::new(topology, class, 4, 11).build();
        let n_hosts = pnet.net.n_hosts() as u32;
        let policy = match class {
            NetworkClass::ParallelHeterogeneous => PathPolicy::ShortestPlane,
            _ => PathPolicy::EcmpHash,
        };
        let mut selector = pnet.selector(policy);
        let net = &pnet.net;
        let mut flow = 0u64;
        let factory = Box::new(move |a, b, s| {
            flow += 1;
            selector.select(net, a, b, flow, s)
        });
        let mut sim = Simulator::new(&pnet.net, SimConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        let slots: Vec<RpcSlot> = (0..n_hosts)
            .map(|h| {
                let mut r = StdRng::seed_from_u64(rng.random());
                RpcSlot {
                    client: HostId(h),
                    next_server: Box::new(move || loop {
                        let s = r.random_range(0..n_hosts);
                        if s != h {
                            return HostId(s);
                        }
                    }),
                }
            })
            .collect();
        let mut driver = RpcDriver::start(&mut sim, slots, factory, 1500, 1500, 20);
        run(&mut sim, &mut driver, None);
        metrics::percentile(&driver.round_times_us, 50.0)
    };
    let serial = median_rpc(NetworkClass::SerialLow);
    let hetero = median_rpc(NetworkClass::ParallelHeterogeneous);
    assert!(
        hetero < serial * 0.95,
        "hetero median {hetero}us not below serial {serial}us"
    );
}

// ---------------------------------------------------------------------
// MPTCP: multipath bulk transfer approaches the combined plane capacity
// ---------------------------------------------------------------------

#[test]
fn mptcp_bulk_transfer_uses_parallel_capacity() {
    let topology = TopologyKind::Jellyfish {
        n_tors: 8,
        degree: 3,
        hosts_per_tor: 2,
    };
    let pnet = PNetSpec::new(topology, NetworkClass::ParallelHomogeneous, 4, 2).build();
    let mut selector = pnet.selector(PathPolicy::PlaneKsp { per_plane: 1 });
    let (routes, cc) = selector.select(&pnet.net, HostId(0), HostId(15), 1, 30_000_000);
    assert_eq!(routes.len(), 4);
    let mut sim = Simulator::new(&pnet.net, SimConfig::default());
    sim.start_flow(FlowSpec {
        src: HostId(0),
        dst: HostId(15),
        size_bytes: 30_000_000,
        routes,
        cc,
        owner_tag: 0,
    });
    run_to_completion(&mut sim);
    let goodput = metrics::goodput_gbps(&sim.records[0]);
    // 4 planes x 100G: expect well beyond a single plane's 100G.
    assert!(
        goodput > 250.0,
        "4-subflow MPTCP goodput {goodput} Gb/s should exceed 250"
    );
}

// ---------------------------------------------------------------------
// The host default policy dispatches by size
// ---------------------------------------------------------------------

#[test]
fn size_threshold_policy_single_path_small_multipath_large() {
    let topology = TopologyKind::Jellyfish {
        n_tors: 12,
        degree: 4,
        hosts_per_tor: 2,
    };
    let pnet = PNetSpec::new(topology, NetworkClass::ParallelHeterogeneous, 4, 1).build();
    let mut selector = pnet.selector(PathPolicy::paper_default(16));
    let (small, _) = selector.select(&pnet.net, HostId(0), HostId(20), 1, 50_000_000);
    let (large, _) = selector.select(&pnet.net, HostId(0), HostId(20), 1, 1_500_000_000);
    assert_eq!(small.len(), 1, "<=100MB should be single path");
    assert!(large.len() >= 4, ">=1GB should be multipath");
}
