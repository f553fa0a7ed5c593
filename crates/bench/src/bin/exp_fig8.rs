//! Figure 8: Jellyfish throughput under routing constraints — (a)
//! all-to-all and (b) permutation with the default 8-way KSP, and (c) the
//! multipath-level sweep.
//!
//! Paper shape: all-to-all saturates parallel planes even at K = 8;
//! permutation with the serial-default K = 8 reaches only ~60% of the
//! parallel capacity; sweeping K recovers it, with N-plane P-Nets needing
//! ~N x 8 subflows (circled points in the paper).
//!
//! Scale note: defaults use 32 ToRs x 4 hosts (128 hosts) instead of the
//! paper's 1024-host equivalent; pass `--tors 128 --hosts-per-tor 8
//! --degree 8` for paper scale.
//!
//! Usage: `exp_fig8 [--tors 32] [--degree 6] [--hosts-per-tor 4] [--seed 1]
//!                  [--eps 0.1] [--ksweep 1,2,4,8,16,32] [--csv]`

use pnet_bench::{banner, f3, or_exit, Args, Table};
use pnet_flowsim::{commodity, throughput, Commodity};
use pnet_topology::{parallel, Jellyfish, LinkProfile, Network, NetworkClass};
use pnet_workloads::tm;

fn main() {
    let args = Args::parse();
    let tors: usize = args.get("tors", 32);
    let degree: usize = args.get("degree", 6);
    let hpt: usize = args.get("hosts-per-tor", 4);
    let seed: u64 = args.get("seed", 1);
    let eps: f64 = args.get("eps", 0.1);
    let ksweep: Vec<u64> = args.get_list("ksweep", &[1, 2, 4, 8, 16, 32]);
    let csv = args.has("csv");

    let hosts = tors * hpt;
    let base = LinkProfile::paper_default();
    let proto = Jellyfish::new(tors, degree, hpt, 0);

    let build = |class: NetworkClass, n: usize| -> Network {
        parallel::jellyfish_network(class, proto, n, seed, &base)
    };

    banner(
        "Figure 8a/8b — Jellyfish throughput with default 8-way KSP",
        &format!(
            "{tors} ToRs x {hpt} hosts (= {hosts}), degree {degree}; normalized to serial low-bw"
        ),
    );

    let a2a: Vec<Commodity> = commodity::all_to_all(hosts);
    let perm: Vec<Commodity> = commodity::permutation(&tm::random_permutation(hosts, seed));

    let mut nets: Vec<(String, Network)> =
        vec![("serial low-bw".into(), build(NetworkClass::SerialLow, 1))];
    for n in [2usize, 4, 8] {
        nets.push((
            format!("par-hetero {n}x"),
            build(NetworkClass::ParallelHeterogeneous, n),
        ));
    }

    let mut table = Table::new(vec!["network", "all-to-all", "permutation"], csv);
    let mut base_a2a = 0.0;
    let mut base_perm = 0.0;
    for (i, (name, net)) in nets.iter().enumerate() {
        let (t_a2a, _) = or_exit(
            "KSP multipath solve",
            throughput::ksp_multipath_throughput(net, &a2a, 8, eps),
        );
        let (t_perm, _) = or_exit(
            "KSP multipath solve",
            throughput::ksp_multipath_throughput(net, &perm, 8, eps),
        );
        if i == 0 {
            base_a2a = t_a2a;
            base_perm = t_perm;
        }
        table.row(vec![
            name.clone(),
            f3(t_a2a / base_a2a),
            f3(t_perm / base_perm),
        ]);
    }
    table.print();
    println!();
    println!("paper: all-to-all scales ~Nx even at K=8; permutation reaches only ~60% of capacity");
    println!();

    banner(
        "Figure 8c — permutation throughput vs multipath level K",
        "normalized to serial low-bw saturated value; * marks K that saturates (>=95% of Nx)",
    );

    let serial = build(NetworkClass::SerialLow, 1);
    let (serial_sat, _) = or_exit(
        "KSP multipath solve",
        throughput::ksp_multipath_throughput(&serial, &perm, *ksweep.last().unwrap() as usize, eps),
    );

    let sweep: Vec<(String, NetworkClass, usize)> = vec![
        ("serial low-bw".into(), NetworkClass::SerialLow, 1),
        (
            "par-hetero 2x".into(),
            NetworkClass::ParallelHeterogeneous,
            2,
        ),
        (
            "par-hetero 4x".into(),
            NetworkClass::ParallelHeterogeneous,
            4,
        ),
    ];
    let mut header = vec!["K".to_string()];
    header.extend(sweep.iter().map(|(n, _, _)| n.clone()));
    let mut table = Table::new(header, csv);
    let mut saturated: Vec<Option<u64>> = vec![None; sweep.len()];
    for &kk in &ksweep {
        let mut row = vec![kk.to_string()];
        for (col, (_, class, n)) in sweep.iter().enumerate() {
            let net = build(*class, *n);
            let (t, _) = or_exit(
                "KSP multipath solve",
                throughput::ksp_multipath_throughput(&net, &perm, kk as usize, eps),
            );
            let norm = t / serial_sat;
            let mark = if norm >= 0.95 * *n as f64 && saturated[col].is_none() {
                saturated[col] = Some(kk);
                "*"
            } else {
                ""
            };
            row.push(format!("{}{}", f3(norm), mark));
        }
        table.row(row);
    }
    table.print();
    println!();
    for ((name, _, n), sat) in sweep.iter().zip(&saturated) {
        match sat {
            Some(kk) => println!("{name}: saturates ({n}x) at K = {kk}"),
            None => println!("{name}: did not reach {n}x within the sweep"),
        }
    }
    println!("paper: N-plane Jellyfish needs ~N x 8 subflows to saturate");
}
