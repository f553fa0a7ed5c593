//! `ideal_a2a`: Figure 7 at N = 4. Rack-level all-to-all on a Jellyfish,
//! solved by GK with free routing (AnyPath) and host links uncapacitated, on
//! the serial low-bandwidth, serial high-bandwidth and 4-plane heterogeneous
//! networks. The GK shortest-path oracle does almost all of the work.

use pnet_flowsim::mcf::{self, McfOptions};
use pnet_flowsim::{commodity, Commodity, McfSolution, PathMode};
use pnet_routing::Parallelism;
use pnet_topology::{parallel, Jellyfish, LinkProfile, Network, NetworkClass};

use crate::round::{digest, repeat_setup, Clock, Round};
use crate::trace::Tracer;

const EPS: f64 = 0.1;
const PLANES: usize = 4;

pub fn round(seed: u64, tiny: bool, tr: &Tracer) -> Round {
    let (racks, degree) = if tiny { (16, 4) } else { (64, 8) };
    let mut r = Round::default();

    let classes = [
        NetworkClass::SerialLow,
        NetworkClass::SerialHigh,
        NetworkClass::ParallelHeterogeneous,
    ];
    let ((nets, commodities), setup_s) = repeat_setup(tr, |tr| {
        let base = LinkProfile::paper_default();
        let proto = Jellyfish::new(racks, degree, 1, seed);
        let nets: Vec<Network> = classes
            .iter()
            .map(|&class| {
                tr.span("topology.build", || {
                    parallel::jellyfish_network(class, proto, PLANES, seed, &base)
                })
                .0
            })
            .collect();
        (nets, commodity::all_to_all(racks))
    });
    r.setup_s = setup_s;

    let opts = McfOptions {
        host_links_free: true,
        parallelism: Parallelism::Serial,
    };
    let clock = Clock::start();
    let sols: Vec<_> = nets
        .iter()
        .map(|net| {
            tr.span("flowsim.solve", || {
                mcf::try_solve_with_options(net, &commodities, &PathMode::AnyPath, EPS, opts)
            })
            .0
        })
        .collect();
    r.run_s = clock.seconds();

    let mut lambdas = Vec::new();
    for ((net, sol), class) in nets.iter().zip(&sols).zip(classes) {
        r.count("topology.links", net.n_links() as u64);
        match sol {
            Ok(sol) => {
                r.check(
                    feasible(net, &commodities, sol),
                    &format!("{} solution is feasible", class.label()),
                );
                r.count("flowsim.phases", sol.phases as u64);
                lambdas.push(sol.lambda);
            }
            Err(e) => r.check(false, &format!("{} solve: {e}", class.label())),
        }
    }
    if let [low, high, _] = lambdas[..] {
        let scale = high / low / PLANES as f64;
        r.check(
            (scale - 1.0).abs() <= EPS,
            &format!("lambda(serial-high)/lambda(serial-low) = {PLANES} within eps (got {scale})"),
        );
    }
    r.count("digest.lambda", digest(lambdas.iter().map(|l| l.to_bits())));
    r
}

/// Per-link flow within capacity on every capacitated link, and every
/// commodity shipping at least λ times its demand. Host links were solved
/// as uncapacitated, so only fabric links are held to capacity.
fn feasible(net: &Network, commodities: &[Commodity], sol: &McfSolution) -> bool {
    const SLACK: f64 = 1e-9;
    let caps = mcf::link_capacities(net);
    let links_ok = net.links().all(|(id, l)| {
        let host = net.node(l.src).kind.is_host() || net.node(l.dst).kind.is_host();
        host || sol.link_flow[id.index()] <= caps[id.index()] * (1.0 + SLACK)
    });
    let rates_ok = sol.rates.len() == commodities.len()
        && sol
            .rates
            .iter()
            .zip(commodities)
            .all(|(&rate, c)| rate >= sol.lambda * c.demand * (1.0 - SLACK));
    sol.lambda > 0.0 && links_ok && rates_ok
}
