//! The incremental report engine's headline claim: producing day N+1's
//! report costs O(churn), not O(world). `day_update` clones a primed
//! (state, engine) pair, applies one day of churn through the delta
//! hook and finalizes the report; `batch_recompute` folds the same
//! end-of-day snapshot from scratch (`full_report`, the one aggregation
//! path). The bar is a ≥10x gap, asserted by the CI gate from this
//! bench's snapshot.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use analysis::incremental::IncrementalReport;
use analysis::summary::full_report;
use bgp_model::asn::Asn;
use bgp_model::prefix::{Afi, Prefix};
use bgp_model::route::Route;
use community_dict::dictionary::Dictionary;
use community_dict::ixp::IxpId;
use community_dict::schemes;
use looking_glass::snapshot::SnapshotStore;
use route_server::events::RibEvent;
use stream::RouterState;

const IXP: IxpId = IxpId::Linx;
const PEERS: u32 = 64;
/// The standing RIB: the O(world) term a from-scratch fold pays every day.
const WORLD_ROUTES: u32 = 100_000;
/// One day's churn: the O(churn) term the incremental path pays.
const CHURN_EVENTS: u32 = 500;

fn dicts() -> Vec<(IxpId, Dictionary)> {
    vec![(IXP, schemes::dictionary(IXP))]
}

fn prefix(i: u32) -> Prefix {
    format!("{}.{}.{}.0/24", 11 + i / 65_536, (i / 256) % 256, i % 256)
        .parse()
        .expect("valid prefix")
}

/// A route with realistic tagging — one to three avoid-announce targets
/// aimed at other members — so both paths pay the per-community
/// classification their real workloads pay.
fn route(i: u32, peer: Asn) -> Route {
    let mut b = Route::builder(prefix(i), "198.32.0.7".parse().expect("valid next hop"))
        .path([peer.0, 15_169]);
    for t in 0..1 + i % 3 {
        b = b.standard(schemes::avoid_community(
            IXP,
            Asn(64_000 + ((i / 7 + t * 13) % PEERS)),
        ));
    }
    b.build()
}

/// The primed world every iteration starts from: peers up, then a
/// standing RIB driven through the delta hook (no flaps — the base is
/// the stable O(world) term, churn is measured separately).
fn primed() -> (RouterState, IncrementalReport) {
    let mut state = RouterState::new(IXP);
    let mut inc = IncrementalReport::new(&dicts());
    for p in 0..PEERS {
        state.apply_with(
            &RibEvent::PeerUp {
                peer: Asn(64_000 + p),
                ipv4: true,
                ipv6: p % 2 == 0,
            },
            &mut inc,
        );
    }
    for i in 0..WORLD_ROUTES {
        let peer = Asn(64_000 + (i % PEERS));
        state.apply_with(
            &RibEvent::Announce {
                peer,
                route: route(i, peer),
            },
            &mut inc,
        );
    }
    (state, inc)
}

/// One day of churn over the standing RIB: replacement announces that
/// retag existing prefixes (retract + apply), a sprinkle of withdraws,
/// and a few genuinely new prefixes.
fn churn() -> Vec<RibEvent> {
    (0..CHURN_EVENTS)
        .map(|k| {
            let i = (k * 197) % WORLD_ROUTES;
            let peer = Asn(64_000 + (i % PEERS));
            match k % 9 {
                0 => RibEvent::Withdraw {
                    peer,
                    prefix: prefix(i),
                },
                1 => {
                    let j = WORLD_ROUTES + k;
                    let peer = Asn(64_000 + (j % PEERS));
                    RibEvent::Announce {
                        peer,
                        route: route(j, peer),
                    }
                }
                _ => RibEvent::Announce {
                    peer,
                    route: route(i + k, peer),
                },
            }
        })
        .collect()
}

fn bench_day_update(c: &mut Criterion) {
    // a persistent world churned day over day — no per-iteration clone
    // or teardown of the 100k-route state, so the measurement is the
    // sustained incremental cost: apply one day's churn, finalize
    let (mut state, mut inc) = primed();
    let churn = churn();
    let units = [(IXP, Afi::Ipv4), (IXP, Afi::Ipv6)];
    let mut group = c.benchmark_group("incremental");
    group.throughput(Throughput::Elements(CHURN_EVENTS as u64));
    group.bench_function("day_update", |b| {
        b.iter(|| {
            for ev in &churn {
                state.apply_with(ev, &mut inc);
            }
            black_box(inc.report_units(&units, 1))
        })
    });
    group.finish();
}

fn bench_batch_recompute(c: &mut Criterion) {
    // the same end-of-day world, paid for from scratch: snapshot the
    // post-churn state once and fold it from scratch per iter
    let (mut state, mut inc) = primed();
    for ev in &churn() {
        state.apply_with(ev, &mut inc);
    }
    let mut store = SnapshotStore::new();
    store.insert(state.to_snapshot(Afi::Ipv4, 1));
    store.insert(state.to_snapshot(Afi::Ipv6, 1));
    let dicts = dicts();
    let mut group = c.benchmark_group("incremental");
    group.throughput(Throughput::Elements(CHURN_EVENTS as u64));
    group.bench_function("batch_recompute", |b| {
        b.iter(|| black_box(full_report(&store, &dicts)))
    });
    group.finish();
}

criterion_group!(benches, bench_day_update, bench_batch_recompute);
criterion_main!(benches);
