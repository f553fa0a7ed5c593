//! Figure 6: fat-tree throughput under (a) all-to-all + ECMP, (b)
//! permutation + ECMP, and (c) permutation + MPTCP/KSP multipath sweeps.
//!
//! Paper shape: all-to-all saturates parallel fabrics even with ECMP
//! (6a, ~N x); permutation barely improves with more planes under ECMP
//! (6b, ~1 x); with K-way multipath, a serial fat tree saturates at K = 8
//! while N-plane P-Nets need ~N x as many subflows (6c, circled points).
//!
//! Scale note: defaults use a k=8 fat tree (128 hosts) instead of the
//! paper's k=16 (1024 hosts) so the run finishes in seconds; pass `--k 16`
//! for paper scale. Throughput is normalized against the serial
//! low-bandwidth network as in the paper.
//!
//! Usage: `exp_fig6 [--k 8] [--seed 1] [--eps 0.1] [--ksweep 1,2,4,8,16,32]
//!                  [--csv]`

use pnet_bench::{banner, f3, or_exit, Args, Table};
use pnet_flowsim::{commodity, throughput, Commodity};
use pnet_topology::{assemble_homogeneous, FatTree, LinkProfile, Network};
use pnet_workloads::tm;

fn networks(k: usize, plane_counts: &[usize]) -> Vec<(String, Network)> {
    let base = LinkProfile::paper_default();
    let ft = FatTree::three_tier(k);
    let mut nets = vec![(
        "serial low-bw".to_string(),
        assemble_homogeneous(&ft, 1, &base),
    )];
    for &n in plane_counts {
        nets.push((
            format!("parallel {n}x"),
            assemble_homogeneous(&ft, n, &base),
        ));
    }
    nets
}

fn main() {
    let args = Args::parse();
    let k: usize = args.get("k", 8);
    let seed: u64 = args.get("seed", 1);
    let eps: f64 = args.get("eps", 0.1);
    let csv = args.has("csv");
    let ksweep: Vec<u64> = args.get_list("ksweep", &[1, 2, 4, 8, 16, 32]);

    let hosts = FatTree::three_tier(k).n_hosts();
    let plane_counts = [2usize, 4, 8];

    banner(
        "Figure 6a/6b — fat-tree ECMP throughput (normalized to serial low-bw)",
        &format!("k={k} fat tree, {hosts} hosts; single-path ECMP, max-min rates"),
    );

    let a2a: Vec<Commodity> = commodity::all_to_all(hosts);
    let perm: Vec<Commodity> = commodity::permutation(&tm::random_permutation(hosts, seed));

    let nets = networks(k, &plane_counts);
    let mut ecmp_table = Table::new(vec!["network", "all-to-all", "permutation"], csv);
    let mut base_a2a = 0.0;
    let mut base_perm = 0.0;
    for (i, (name, net)) in nets.iter().enumerate() {
        let t_a2a = throughput::ecmp_throughput(net, &a2a);
        let t_perm = throughput::ecmp_throughput(net, &perm);
        if i == 0 {
            base_a2a = t_a2a;
            base_perm = t_perm;
        }
        ecmp_table.row(vec![
            name.clone(),
            f3(t_a2a / base_a2a),
            f3(t_perm / base_perm),
        ]);
    }
    ecmp_table.print();
    println!();
    println!("paper: all-to-all scales ~Nx; permutation stays ~1x under ECMP");
    println!();

    banner(
        "Figure 6c — permutation throughput vs multipath level K (MPTCP + KSP)",
        "normalized to serial low-bw saturated value; * marks K that saturates (>=95% of Nx)",
    );

    let mut sweep_nets = vec![("serial low-bw".to_string(), 1usize)];
    sweep_nets.extend([2usize, 4].iter().map(|&n| (format!("parallel {n}x"), n)));

    // Serial baseline: its saturated (max-K) throughput.
    let base = LinkProfile::paper_default();
    let ft = FatTree::three_tier(k);
    let serial = assemble_homogeneous(&ft, 1, &base);
    let (serial_sat, _) = or_exit(
        "KSP multipath solve",
        throughput::ksp_multipath_throughput(&serial, &perm, *ksweep.last().unwrap() as usize, eps),
    );

    let mut header = vec!["K".to_string()];
    header.extend(sweep_nets.iter().map(|(n, _)| n.clone()));
    let mut table = Table::new(header, csv);

    let mut saturated: Vec<Option<u64>> = vec![None; sweep_nets.len()];
    for &kk in &ksweep {
        let mut row = vec![kk.to_string()];
        for (col, (_, n_planes)) in sweep_nets.iter().enumerate() {
            let net = assemble_homogeneous(&ft, *n_planes, &base);
            let (t, _) = or_exit(
                "KSP multipath solve",
                throughput::ksp_multipath_throughput(&net, &perm, kk as usize, eps),
            );
            let norm = t / serial_sat;
            let target = 0.95 * *n_planes as f64;
            let mark = if norm >= target && saturated[col].is_none() {
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
    for ((name, n), sat) in sweep_nets.iter().zip(&saturated) {
        match sat {
            Some(kk) => println!("{name}: saturates ({n}x) at K = {kk}"),
            None => println!("{name}: did not reach {n}x within the sweep"),
        }
    }
    println!("paper: serial saturates at K=8; 2 planes need K=16; 4 planes need K=32");
}
