//! `trace_fct`: Figure 13 at the experiment binary's default fabric. A
//! closed loop in simulated time, 4 flows per host, websearch sizes ×0.01,
//! single-path (shortest-plane) selection and a 1 ms minimum RTO, on the
//! serial low-bandwidth and the 4-plane heterogeneous network. The packet
//! simulator does almost all of the work; flowsim and the planner are idle.

use std::cell::Cell;

use pnet_core::{PathPolicy, PathSelector};
use pnet_htsim::apps::{ClosedLoopDriver, ClosedLoopSlot};
use pnet_htsim::{metrics, run, FlowRecord, SimConfig, SimTime, Simulator};
use pnet_routing::{Parallelism, RouteAlgo, Router};
use pnet_topology::{parallel, HostId, Jellyfish, LinkId, LinkProfile, Network, NetworkClass};
use pnet_workloads::Trace;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::round::{digest, quantile, repeat_setup, Clock, Round};
use crate::trace::{Hot, Tracer};

const PLANES: usize = 4;
const FLOWS_PER_HOST: usize = 4;
const SIZE_SCALE: f64 = 0.01;
const MIN_RTO_US: u64 = 1_000;
/// Route-table width of the selector, as `PNet::selector` builds it for a
/// single-path policy.
const KSP_WIDTH: usize = 32;
/// Simulated time during which closed-loop slots start new flows.
const SIM_US: u64 = 3_000;
/// Simulated time after `SIM_US` by which every started flow must have
/// completed: long enough for a flow to ride out several backed-off RTOs.
const DRAIN_US: u64 = 50_000;

struct Fabric {
    class: NetworkClass,
    net: Network,
    selector: PathSelector,
}

pub fn round(seed: u64, tiny: bool, tr: &Tracer) -> Round {
    let (tors, degree, hosts_per_tor, sim_us) = if tiny {
        (8, 3, 2, 300)
    } else {
        (24, 5, 4, SIM_US)
    };
    let mut r = Round::default();

    let (mut fabrics, setup_s) = repeat_setup(tr, |tr| {
        let base = LinkProfile::paper_default();
        let proto = Jellyfish::new(tors, degree, hosts_per_tor, seed);
        [NetworkClass::SerialLow, NetworkClass::ParallelHeterogeneous].map(|class| {
            let (net, _) = tr.span("topology.build", || {
                parallel::jellyfish_network(class, proto, PLANES, seed, &base)
            });
            let router = Router::with_parallelism(
                &net,
                RouteAlgo::Ksp { k: KSP_WIDTH },
                Parallelism::Serial,
            );
            tr.span("routing.precompute", || {
                router.precompute_all_pairs_with(Parallelism::Serial)
            });
            Fabric {
                class,
                net,
                selector: PathSelector::new(router, PathPolicy::ShortestPlane),
            }
        })
    });
    r.setup_s = setup_s;
    for fabric in &fabrics {
        r.count(
            "routing.entries",
            fabric.selector.router().cached_entries() as u64,
        );
    }

    let mut cfg = SimConfig::default();
    cfg.tcp.min_rto = SimTime::from_us(MIN_RTO_US);
    let stop = SimTime::from_us(sim_us);
    let drain = SimTime::from_us(DRAIN_US);
    let cdf = Trace::Websearch.cdf().scaled(SIZE_SCALE);

    let mut clock = Clock::start();
    let mut fcts = Vec::new();
    let mut fct_words = Vec::new();
    let mut route_fps = Vec::new();
    for fabric in &mut fabrics {
        let select = Hot::new("core.select", tr);
        let sample = Hot::new("workloads.sample", tr);
        let subflows = Cell::new(0u64);
        let (sim, completed) = tr
            .span("htsim.run", || {
                let net = &fabric.net;
                let selector = &mut fabric.selector;
                let (select, sample, subflows) = (&select, &sample, &subflows);
                let n_hosts = net.n_hosts() as u32;
                let mut sim = Simulator::new(net, cfg);
                let mut rng = StdRng::seed_from_u64(seed ^ 0xF13);
                let mut slots = Vec::new();
                for h in 0..n_hosts {
                    for _ in 0..FLOWS_PER_HOST {
                        let mut dst_rng = StdRng::seed_from_u64(rng.random());
                        let mut size_rng = StdRng::seed_from_u64(rng.random());
                        let cdf = cdf.clone();
                        slots.push(ClosedLoopSlot {
                            src: HostId(h),
                            next_dst: Box::new(move || {
                                sample.time(|| loop {
                                    let d = dst_rng.random_range(0..n_hosts);
                                    if d != h {
                                        return HostId(d);
                                    }
                                })
                            }),
                            next_size: Box::new(move || sample.time(|| cdf.sample(&mut size_rng))),
                        });
                    }
                }
                let mut flow_id = 0u64;
                let factory = Box::new(move |src, dst, size| {
                    flow_id += 1;
                    let chosen = select.time(|| selector.select(net, src, dst, flow_id, size));
                    subflows.set(subflows.get() + chosen.0.len() as u64);
                    chosen
                });
                let mut driver = ClosedLoopDriver::start(&mut sim, slots, factory, stop);
                run(&mut sim, &mut driver, Some(stop + drain));
                tr.fold_hot(select);
                tr.fold_hot(sample);
                (sim, std::mem::take(&mut driver.completed))
            })
            .0;

        clock.exclude(|| {
            let ledger = sim.conservation();
            r.check(
                ledger.balanced(),
                &format!("{}: packet conservation {ledger:?}", fabric.class.label()),
            );
            r.check(
                sim.n_conns() == completed.len(),
                &format!(
                    "{}: {} of {} started flows completed by the drain deadline",
                    fabric.class.label(),
                    completed.len(),
                    sim.n_conns()
                ),
            );
            count_sim(&mut r, &fabric.net, &sim, &completed);
            r.count("core.selects", select.count());
            r.count("core.subflows", subflows.get());
            r.count("workloads.samples", sample.count());
            fcts.extend(metrics::fcts_us(&completed));
            fct_words.extend(
                completed
                    .iter()
                    .flat_map(|f| [u64::from(f.conn.0), f.size_bytes, f.start.0, f.finish.0]),
            );
            route_fps.push(fabric.selector.router().table_fingerprint());
        });
    }
    r.run_s = clock.seconds();

    r.count("digest.fct", digest(fct_words));
    r.count("digest.routes", digest(route_fps));
    r.set("htsim.fct_p50_us", quantile(&fcts, 0.50));
    r.set("htsim.fct_p99_us", quantile(&fcts, 0.99));
    r
}

fn count_sim(r: &mut Round, net: &Network, sim: &Simulator, completed: &[FlowRecord]) {
    let queues: Vec<_> = (0..net.n_links())
        .map(|i| sim.queue_stats(LinkId(i as u32)))
        .collect();
    r.count("htsim.events", sim.events_dispatched());
    r.count("htsim.flows_completed", completed.len() as u64);
    r.count(
        "htsim.packets_enqueued",
        queues.iter().map(|q| q.enqueued).sum(),
    );
    r.count(
        "htsim.drops",
        queues.iter().map(|q| q.total_dropped()).sum(),
    );
    let peak = queues.iter().map(|q| q.peak_bytes).max().unwrap_or(0);
    let e = r.counters.entry("htsim.queue_peak_bytes").or_insert(0);
    *e = (*e).max(peak);
    r.count(
        "htsim.retransmits",
        completed.iter().map(|f| f.retransmits).sum(),
    );
    r.count("htsim.timeouts", completed.iter().map(|f| f.timeouts).sum());
}
