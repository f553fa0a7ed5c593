//! Figure 7: ideal (no-path-constraint) throughput of rack-level all-to-all
//! traffic on Jellyfish networks.
//!
//! Paper shape: parallel *heterogeneous* Jellyfish delivers up to ~60%
//! higher total throughput than even the serial high-bandwidth equivalent,
//! because the min-over-planes path length is shorter, so each flow consumes
//! less core capacity. Parallel homogeneous equals serial high-bandwidth
//! (identical topology, same total capacity) and is omitted in the paper.
//!
//! Scale note: the paper uses 128 racks; the default here is 64 for a
//! seconds-scale run (`--racks 128` for paper scale).
//!
//! Usage: `exp_fig7 [--racks 64] [--degree 8] [--planes 2,4,8] [--seed 1]
//!                  [--eps 0.1] [--trials 3] [--csv]`

use pnet_bench::{banner, f3, or_exit, Args, Table};
use pnet_flowsim::mcf::{self, McfOptions, PathMode};
use pnet_flowsim::{commodity, Commodity};
use pnet_topology::{parallel, Jellyfish, LinkProfile, Network, NetworkClass};

/// Ideal *core* throughput: free per-plane routing with host attachment
/// links uncapacitated, so only the switch fabric constrains the rack-level
/// demands — the paper's "total capacity of the network core".
fn core_throughput(net: &Network, commodities: &[Commodity], eps: f64) -> f64 {
    let opts = McfOptions {
        host_links_free: true,
        ..Default::default()
    };
    let sol = mcf::try_solve_with_options(net, commodities, &PathMode::AnyPath, eps, opts);
    or_exit("ideal throughput solve", sol).total_rate()
}

fn main() {
    let args = Args::parse();
    let racks: usize = args.get("racks", 64);
    let degree: usize = args.get("degree", 8);
    let seed: u64 = args.get("seed", 1);
    let eps: f64 = args.get("eps", 0.1);
    let trials: u64 = args.get("trials", 3);
    let planes: Vec<u64> = args.get_list("planes", &[2, 4, 8]);
    let csv = args.has("csv");

    banner(
        "Figure 7 — ideal throughput, rack-level all-to-all on Jellyfish",
        &format!(
            "{racks} racks, ToR degree {degree}, {trials} trials; \
             normalized to serial low-bw; no path constraints (free routing per plane)"
        ),
    );

    let base = LinkProfile::paper_default();
    let proto = Jellyfish::new(racks, degree, 1, 0);
    let commodities = commodity::all_to_all(racks);

    let mut table = Table::new(
        vec![
            "planes N",
            "serial high-bw (Nx)",
            "par-heterogeneous",
            "hetero / serial-high",
        ],
        csv,
    );

    // Baseline: serial low-bandwidth.
    let mut serial_low = 0.0;
    for t in 0..trials {
        let net = parallel::jellyfish_network(NetworkClass::SerialLow, proto, 1, seed + t, &base);
        serial_low += core_throughput(&net, &commodities, eps);
    }
    serial_low /= trials as f64;

    for &n in &planes {
        let n = n as usize;
        let mut high_sum = 0.0;
        let mut het_sum = 0.0;
        for t in 0..trials {
            let high =
                parallel::jellyfish_network(NetworkClass::SerialHigh, proto, n, seed + t, &base);
            let het = parallel::jellyfish_network(
                NetworkClass::ParallelHeterogeneous,
                proto,
                n,
                seed + t,
                &base,
            );
            high_sum += core_throughput(&high, &commodities, eps);
            het_sum += core_throughput(&het, &commodities, eps);
        }
        let high = high_sum / trials as f64 / serial_low;
        let het = het_sum / trials as f64 / serial_low;
        table.row(vec![
            n.to_string(),
            f3(high),
            f3(het),
            format!("{:+.1}%", 100.0 * (het - high) / high),
        ]);
    }
    table.print();
    println!();
    println!(
        "paper: parallel heterogeneous up to +60% over serial high-bw at 8 planes; \
         homogeneous == serial high-bw (omitted)"
    );
}
