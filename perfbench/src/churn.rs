//! `planner_churn`: admission reads beside reconvergence writes on one
//! 4-plane heterogeneous Jellyfish. One client runs a closed loop of
//! `Planner::admit` queries over a seeded pool of permutation matrices;
//! after every `QUERIES_PER_EVENT` queries, in the same thread, one
//! random-walk cable event is reconverged: incremental route repair on the
//! controller's router, KSP candidate sets, a warm GK re-solve from the
//! previous solution, and publication of the new planner generation.
//!
//! The pool repeats within a generation, so some queries hit the memo, but
//! most miss: p50 and p90 both sit among the misses, away from the hit/miss
//! boundary. No free-routing what-ifs: `ideal_a2a` already times those.

use pnet_flowsim::mcf::{self, McfOptions, WARM_LAMBDA_TOLERANCE};
use pnet_flowsim::{commodity, throughput, Commodity, McfError, McfSolution};
use pnet_planner::{solution_fingerprint, Planner, PlannerConfig};
use pnet_routing::{Parallelism, RouteAlgo, Router};
use pnet_topology::{
    parallel, ChurnSchedule, Jellyfish, LinkDelta, LinkProfile, Network, NetworkClass,
};
use pnet_workloads::tm;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::round::{digest, repeat_setup, Clock, Round};
use crate::trace::Tracer;

const PLANES: usize = 4;
const EPS: f64 = 0.1;
const POOL: usize = 8;
const QUERIES_PER_EVENT: usize = 4;
const EVENTS: usize = 100;
/// Cap on concurrently failed fabric cables in the random walk.
const MAX_DOWN_FRACTION: f64 = 0.05;
/// Every this many events, and at the last one, the repaired table and the
/// warm λ are checked against a rebuild and a cold solve; every this many
/// memo hits, the hit is checked against a cold solve.
const SAMPLE_EVERY: usize = 10;

/// Everything a round sets up before its first query.
struct State {
    net: Network,
    planner: Planner,
    router: Router,
    ctrl_tm: Vec<Commodity>,
    pool: Vec<Vec<Commodity>>,
    schedule: ChurnSchedule,
    draws: Vec<usize>,
    cold: Result<McfSolution, McfError>,
}

pub fn round(seed: u64, tiny: bool, tr: &Tracer) -> Round {
    let (racks, degree, k, events) = if tiny {
        (12, 4, 4, 12)
    } else {
        (32, 8, 8, EVENTS)
    };
    let width = (2 * k).max(8);
    let par = Parallelism::Serial;
    let opts = McfOptions {
        host_links_free: false,
        parallelism: par,
    };
    let mut r = Round::default();

    let (state, setup_s) = repeat_setup(tr, |tr| {
        let (net, _) = tr.span("topology.build", || {
            parallel::jellyfish_network(
                NetworkClass::ParallelHeterogeneous,
                Jellyfish::new(racks, degree, 1, seed),
                PLANES,
                seed,
                &LinkProfile::paper_default(),
            )
        });
        let (planner, _) = tr.span("planner.new", || {
            Planner::with_config(
                net.clone(),
                PlannerConfig {
                    k,
                    eps: EPS,
                    parallelism: par,
                    track_repair: false,
                },
            )
        });
        let router = Router::with_parallelism(&net, RouteAlgo::Ksp { k: width }, par);
        tr.span("routing.precompute", || {
            router.precompute_all_pairs_with(par)
        });
        let ((ctrl_tm, pool), _) = tr.span("workloads.tm", || {
            let perm = |s: u64| commodity::permutation(&tm::random_permutation(racks, s));
            let pool: Vec<Vec<Commodity>> = (0..POOL as u64)
                .map(|i| perm(seed.wrapping_mul(1000) + i))
                .collect();
            (perm(seed ^ 0xC0_17), pool)
        });
        let (schedule, _) = tr.span("topology.churn", || {
            ChurnSchedule::random_walk(&net, events, MAX_DOWN_FRACTION, seed ^ 0x5EED)
        });
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA_D317);
        let draws: Vec<usize> = (0..events * QUERIES_PER_EVENT)
            .map(|_| rng.random_range(0..POOL))
            .collect();
        let (mode, _) = tr.span("flowsim.ksp_mode", || {
            mcf::ksp_mode_with(&net, &router, &ctrl_tm, k, par)
        });
        let (cold, _) = tr.span("flowsim.solve", || {
            mcf::try_solve_with_options(&net, &ctrl_tm, &mode, EPS, opts)
        });
        State {
            net,
            planner,
            router,
            ctrl_tm,
            pool,
            schedule,
            draws,
            cold,
        }
    });
    r.setup_s = setup_s;
    let State {
        net,
        planner,
        router,
        ctrl_tm,
        pool,
        schedule,
        draws,
        cold,
    } = state;
    r.count("topology.links", net.n_links() as u64);
    r.count("routing.entries", router.cached_entries() as u64);
    let mut last = match cold {
        Ok(sol) => sol,
        Err(e) => {
            r.check(false, &format!("controller cold solve: {e}"));
            return r;
        }
    };
    r.count("flowsim.phases", last.phases as u64);

    let mut ctrl_net = net;
    let mut lambda_bits = Vec::new();
    let mut hits = 0usize;
    let mut warm_err_max = 0.0f64;
    let mut clock = Clock::start();
    for (e, &ev) in schedule.events.iter().enumerate() {
        for &d in &draws[e * QUERIES_PER_EVENT..(e + 1) * QUERIES_PER_EVENT] {
            let tm = &pool[d];
            let before = planner.memo_stats();
            let (admission, ms) = tr.span("planner.admit", || planner.admit(tm));
            let after = planner.memo_stats();
            r.query_ms.push(ms);
            r.count("planner.memo_hits", after.hits - before.hits);
            r.count("planner.memo_misses", after.misses - before.misses);
            clock.exclude(|| match admission {
                Ok(a) => {
                    r.check(true, "admission query");
                    lambda_bits.push(a.lambda.to_bits());
                    if after.hits > before.hits {
                        if hits.is_multiple_of(SAMPLE_EVERY) {
                            tr.span("check.memo_hit", || check_memo_hit(&mut r, &planner, tm, k));
                        }
                        hits += 1;
                    }
                }
                Err(e) => r.check(false, &format!("admission query: {e}")),
            });
        }

        let (outcome, ms) = tr.span("bench.reconverge", || {
            ev.apply(&mut ctrl_net);
            let delta = LinkDelta::single(ev);
            let (stats, _) = tr.span("routing.repair", || {
                router.apply_delta_with(&ctrl_net, &delta, par)
            });
            let (mode, _) = tr.span("flowsim.ksp_mode", || {
                mcf::ksp_mode_with(&ctrl_net, &router, &ctrl_tm, k, par)
            });
            let (warm, _) = tr.span("flowsim.warm_solve", || {
                mcf::try_solve_warm_with_options(&ctrl_net, &ctrl_tm, &mode, EPS, opts, &last)
            });
            let (published, _) = tr.span("planner.publish", || planner.publish_delta(&delta));
            (stats, mode, warm, published)
        });
        r.reconverge_ms.push(ms);
        let (stats, mode, warm, published) = outcome;

        clock.exclude(|| {
            r.count("routing.entries_repaired", stats.entries_repaired as u64);
            r.count("routing.entries_reused", stats.entries_reused as u64);
            r.count("routing.planes_rebuilt", stats.planes_rebuilt as u64);
            r.check(
                published.is_ok(),
                &format!("publish event {e}: {published:?}"),
            );
            let warm = match warm {
                Ok(w) => w,
                Err(err) => {
                    r.check(false, &format!("warm re-solve at event {e}: {err}"));
                    return;
                }
            };
            r.check(true, "warm re-solve");
            r.count("flowsim.warm_phases", warm.phases as u64);
            lambda_bits.push(warm.lambda.to_bits());
            if e.is_multiple_of(SAMPLE_EVERY) || e + 1 == schedule.events.len() {
                tr.span("check.rebuild", || {
                    let fresh =
                        Router::with_parallelism(&ctrl_net, RouteAlgo::Ksp { k: width }, par);
                    fresh.precompute_all_pairs_with(par);
                    r.check(
                        fresh.table_fingerprint() == router.table_fingerprint(),
                        &format!("repaired route table equals a rebuild at event {e}"),
                    );
                });
                tr.span("check.cold_solve", || {
                    match mcf::try_solve_with_options(&ctrl_net, &ctrl_tm, &mode, EPS, opts) {
                        Ok(cold) => {
                            let err = ((warm.lambda - cold.lambda) / cold.lambda).abs();
                            warm_err_max = warm_err_max.max(err);
                            r.check(
                                err <= WARM_LAMBDA_TOLERANCE,
                                &format!("warm lambda within tolerance at event {e} (err {err})"),
                            );
                        }
                        Err(err) => r.check(false, &format!("cold solve at event {e}: {err}")),
                    }
                });
            }
            last = warm;
        });
    }
    r.run_s = clock.seconds();

    r.count("planner.generations", planner.n_generations() as u64);
    r.count("digest.lambda", digest(lambda_bits));
    r.count("digest.routes", digest([router.table_fingerprint()]));
    r.set("flowsim.warm_lambda_err_max", warm_err_max);
    r
}

/// A memo hit must be bitwise identical to a cold solve of the same query
/// on the same generation.
fn check_memo_hit(r: &mut Round, planner: &Planner, tm: &[Commodity], k: usize) {
    let generation = planner.latest();
    let cached = planner.solve_ksp_at(&generation, tm, k);
    let cold = throughput::try_ksp_solution(
        generation.network(),
        generation.router(),
        tm,
        k,
        EPS,
        McfOptions {
            parallelism: planner.config().parallelism,
            ..Default::default()
        },
    );
    let same = match (cached, cold) {
        (Ok(a), Ok(b)) => solution_fingerprint(&a) == solution_fingerprint(&b),
        _ => false,
    };
    r.check(same, "memo hit is identical to a cold solve");
}
