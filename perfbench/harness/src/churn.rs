//! `stream-churn`: the monitoring path.
//!
//! DE-CIX at scale 0.1. One episode builds the world, primes the LG feed,
//! the stream collector's `RouterState` and an `IncrementalReport` from
//! the feed's table dump, and finalizes a first report (the set-up).
//! Then it runs a closed loop of days: each day's churn goes into the
//! route server through `announce`/`withdraw`, the feed is drained into
//! the state and the report, and `report_units` is finalized. A day's
//! latency runs from its first churn call to its finalized report.
//!
//! The churn is generated from the seed before the loop starts: community
//! retags, withdraw + re-announce pairs and new prefixes (withdrawn again
//! the next day), about 2,000 events a day; one day in ten also carries a
//! session flap of the member whose table is closest to 1,000 routes.
//! A first, untimed episode warms the process up and carries the checks;
//! timed episodes then repeat until the time is up. Every one builds its
//! inputs from the same seed.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use analysis::incremental::IncrementalReport;
use analysis::summary::full_report;
use bgp_model::asn::Asn;
use bgp_model::prefix::{Afi, Prefix};
use bgp_model::route::Route;
use community_dict::ixp::IxpId;
use community_dict::schemes;
use ixp_sim::world::{build_ixp, WorldConfig};
use looking_glass::api::{LgError, LgRequest, LgResponse};
use looking_glass::client::{Collector, LgTransport};
use looking_glass::clock::VirtualClock;
use looking_glass::server::LgServer;
use looking_glass::snapshot::SnapshotStore;
use route_server::server::{IngestOutcome, Member, RouteServer};
use stream::collector::StreamCollector;
use stream::state::{DeltaConsumer, RouteDelta, RouterState};

use crate::{peak_rss_mb, secs, timed, Opts, Report};

const IXP: IxpId = IxpId::DeCixFra;
const SCALE: f64 = 0.1;
/// Days per episode. The feed log keeps every frame, so memory grows with
/// the days; a run pools the days of at least two episodes.
const DAYS: u32 = 100;
const DAY_MS: u64 = 86_400_000;
/// Routes re-announced with one avoid community added or removed.
const RETAGS: usize = 1_200;
/// Routes withdrawn and announced again within the day.
const BOUNCES: usize = 300;
/// Prefixes a member did not hold, announced and withdrawn the next day.
const NEW_PREFIXES: usize = 100;
/// One day in this many carries a member session flap.
const FLAP_EVERY: u32 = 10;
/// The flapping member is the one whose table is closest to this size, so
/// every flap day is a burst of about the same work whatever the seed.
const FLAP_ROUTES: usize = 1_000;
const UNITS: [(IxpId, Afi); 2] = [(IXP, Afi::Ipv4), (IXP, Afi::Ipv6)];
/// Targets of the retags' avoid communities (HE, Google, Cloudflare,
/// Amazon, Akamai, Facebook): the ASes real members avoid most.
const TARGETS: [u32; 6] = [6939, 15169, 13335, 16509, 20940, 32934];

/// One route-server call of the day's churn.
enum Churn {
    Announce(Asn, Route),
    Withdraw(Asn, Prefix),
    Down(Asn),
    Up(Member),
}

/// The LG as the stream collector's transport; with tracing on it times
/// each poll and records the deepest backlog the feed reported.
struct Feed<'a> {
    lg: &'a LgServer,
    on: bool,
    poll_s: f64,
    max_backlog: u64,
}

impl LgTransport for Feed<'_> {
    fn request(&mut self, req: &LgRequest, now_ms: u64) -> Result<LgResponse, LgError> {
        if !self.on {
            return self.lg.handle(req, now_ms);
        }
        let start = Instant::now();
        let resp = self.lg.handle(req, now_ms);
        self.poll_s += secs(start);
        if let Ok(LgResponse::StreamEvents { backlog, .. }) = &resp {
            self.max_backlog = self.max_backlog.max(*backlog);
        }
        resp
    }
}

/// The incremental report as the drain's delta consumer; with tracing on
/// it times each fold.
struct Fold {
    inc: IncrementalReport,
    on: bool,
    fold_s: f64,
}

impl DeltaConsumer for Fold {
    fn on_delta(&mut self, ixp: IxpId, delta: &RouteDelta<'_>) {
        if self.on {
            let start = Instant::now();
            self.inc.on_delta(ixp, delta);
            self.fold_s += secs(start);
        } else {
            self.inc.on_delta(ixp, delta);
        }
    }
}

#[derive(Default)]
struct Layers {
    build_world_s: f64,
    churn_apply_s: f64,
    drain_s: f64,
    finalize_s: f64,
}

fn is_blackhole(route: &Route) -> bool {
    route.standard_communities.iter().any(|c| c.is_blackhole())
}

/// Draws each day's churn from the seed against the primed route
/// server's tables.
struct ChurnGen {
    rng: StdRng,
    base: Vec<(Asn, Route)>,
    held: BTreeSet<(Asn, Prefix)>,
    flapper: Member,
    phase: u32,
    /// Yesterday's new prefixes, withdrawn today.
    pending: Vec<(Asn, Prefix)>,
}

impl ChurnGen {
    fn new(rs: &RouteServer, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x00C4_A8E5);
        let mut base: Vec<(Asn, Route)> = Vec::new();
        let mut sizes: Vec<(usize, Member)> = Vec::new();
        for m in rs.members() {
            let Some(table) = rs.accepted().peer(m.asn) else {
                continue;
            };
            let before = base.len();
            base.extend(table.iter().map(|r| (m.asn, r.clone())));
            if base.len() > before {
                sizes.push((base.len() - before, *m));
            }
        }
        let held = base.iter().map(|(p, r)| (*p, r.prefix)).collect();
        let (_, flapper) = sizes
            .into_iter()
            .min_by_key(|(n, m)| (n.abs_diff(FLAP_ROUTES), m.asn))
            .expect("the world has members with routes");
        let phase = rng.random_range(0..FLAP_EVERY);
        ChurnGen {
            rng,
            base,
            held,
            flapper,
            phase,
            pending: Vec::new(),
        }
    }

    fn day(&mut self, day: u32) -> Vec<Churn> {
        let ChurnGen {
            rng,
            base,
            held,
            flapper,
            phase,
            pending,
        } = self;
        let mut events: Vec<Churn> = pending
            .drain(..)
            .map(|(peer, prefix)| Churn::Withdraw(peer, prefix))
            .collect();
        let flap = (day % FLAP_EVERY == *phase).then_some(*flapper);
        if let Some(m) = flap {
            events.push(Churn::Down(m.asn));
        }
        let skip = flap.map(|m| m.asn);
        let pick = |rng: &mut StdRng| loop {
            let i = rng.random_range(0..base.len());
            if Some(base[i].0) != skip {
                return &base[i];
            }
        };
        for _ in 0..RETAGS {
            let (peer, route) = pick(rng);
            let mut retagged = route.clone();
            let target = Asn(TARGETS[rng.random_range(0..TARGETS.len())]);
            let tag = schemes::avoid_community(IXP, target);
            match retagged.standard_communities.iter().position(|c| *c == tag) {
                Some(pos) => {
                    retagged.standard_communities.remove(pos);
                }
                None => retagged.standard_communities.push(tag),
            }
            events.push(Churn::Announce(*peer, retagged));
        }
        for _ in 0..BOUNCES {
            let (peer, route) = pick(rng);
            events.push(Churn::Withdraw(*peer, route.prefix));
            events.push(Churn::Announce(*peer, route.clone()));
        }
        while pending.len() < NEW_PREFIXES {
            let (peer, route) = pick(rng);
            let (_, donor) = &base[rng.random_range(0..base.len())];
            let key = (*peer, donor.prefix);
            if route.afi() != donor.afi()
                || is_blackhole(route)
                || is_blackhole(donor)
                || held.contains(&key)
                || pending.contains(&key)
            {
                continue;
            }
            let mut fresh = route.clone();
            fresh.prefix = donor.prefix;
            pending.push(key);
            events.push(Churn::Announce(*peer, fresh));
        }
        if let Some(m) = flap {
            events.push(Churn::Up(m));
            events.extend(
                base.iter()
                    .filter(|(peer, _)| *peer == m.asn)
                    .map(|(peer, route)| Churn::Announce(*peer, route.clone())),
            );
        }
        events
    }
}

/// Apply one churn event; false when the route server refused an
/// announcement.
fn apply(rs: &mut RouteServer, event: Churn) -> bool {
    match event {
        Churn::Announce(peer, route) => rs.announce(peer, route) == IngestOutcome::Accepted,
        Churn::Withdraw(peer, prefix) => {
            rs.withdraw(peer, &prefix);
            true
        }
        Churn::Down(peer) => {
            rs.remove_member(peer);
            true
        }
        Churn::Up(m) => {
            rs.add_member(m.asn, m.ipv4, m.ipv6);
            true
        }
    }
}

/// One episode: set-up and the day loop. The warm-up episode records no
/// timings; it runs the comparisons against a fresh poll and a batch
/// report instead.
fn episode(opts: &Opts, traced: bool, warmup: bool, report: &mut Report) -> Result<(), String> {
    let mut l = Layers::default();
    let start = Instant::now();
    let world = timed(traced, &mut l.build_world_s, || {
        build_ixp(
            IXP,
            &WorldConfig {
                seed: opts.seed,
                scale: SCALE,
            },
        )
    });
    let rib_routes = world.rs.accepted().route_count();
    let rs = Arc::new(RwLock::new(world.rs));
    let lg = LgServer::new(Arc::clone(&rs), opts.seed ^ 0x16_5EED);
    let clock = VirtualClock::new(0);
    let collector = StreamCollector::default();
    let mut state = RouterState::new(IXP);
    let mut fold = Fold {
        inc: IncrementalReport::new(&[(IXP, schemes::dictionary(IXP))]),
        on: traced,
        fold_s: 0.0,
    };
    let mut feed = Feed {
        lg: &lg,
        on: traced,
        poll_s: 0.0,
        max_backlog: 0,
    };
    let primed = timed(traced, &mut l.drain_s, || {
        collector.drain_with_clock_into(&mut state, &mut feed, &clock, &mut fold)
    })
    .map_err(|e| format!("priming drain failed: {e}"))?;
    let first = timed(traced, &mut l.finalize_s, || {
        fold.inc.report_units(&UNITS, 0)
    });
    black_box(first);
    let setup_s = secs(start);

    let mut churn = ChurnGen::new(&rs.read(), opts.seed);
    let (mut polls, mut poll_failures) = (primed.polls, primed.failures);
    let (mut events, mut refused) = (0usize, 0u64);
    let mut day_ms = Vec::with_capacity(DAYS as usize);
    for day in 1..=DAYS {
        // each day's churn is drawn before its timer starts
        let day_events = churn.day(day);
        events += day_events.len();
        clock.advance_to(u64::from(day) * DAY_MS);
        let day_start = Instant::now();
        timed(traced, &mut l.churn_apply_s, || {
            let mut rs = rs.write();
            for event in day_events {
                refused += u64::from(!apply(&mut rs, event));
            }
        });
        let drained = timed(traced, &mut l.drain_s, || {
            collector.drain_with_clock_into(&mut state, &mut feed, &clock, &mut fold)
        })
        .map_err(|e| format!("day {day}: drain failed: {e}"))?;
        let day_report = timed(traced, &mut l.finalize_s, || {
            fold.inc.report_units(&UNITS, day)
        });
        day_ms.push(secs(day_start) * 1e3);
        black_box(day_report);
        polls += drained.polls;
        poll_failures += drained.failures;
    }
    let steady_s = day_ms.iter().sum::<f64>() / 1e3;
    let wall_s = setup_s + steady_s;

    report.attempted += polls;
    report.failed += poll_failures;
    let minted = lg.stream_frames_minted();
    let stats = state.stats();
    report.check(
        "stream-churn: churn announcements accepted by the route server",
        refused == 0,
        format!("{refused} of {events} churn events refused"),
    );
    report.check(
        "stream-churn: frames minted = frames applied",
        minted == stats.applied,
        format!(
            "looking_glass minted {minted}, stream applied {}",
            stats.applied
        ),
    );
    if warmup {
        // the peak of set-up and the day loop, before the checks' own
        // allocations raise it
        report.push("peak_rss_mb", peak_rss_mb());
        check_outputs(&lg, &clock, &state, &fold.inc, DAYS, report);
        return Ok(());
    }

    if traced {
        let covered = l.build_world_s + l.churn_apply_s + l.drain_s + l.finalize_s;
        let layers: [(&str, f64); 17] = [
            ("ixp_sim.build_world_s", l.build_world_s),
            ("ixp_sim.rib_routes", rib_routes as f64),
            ("route_server.churn_apply_s", l.churn_apply_s),
            ("route_server.churn_events", events as f64),
            ("looking_glass.stream_poll_s", feed.poll_s),
            ("looking_glass.stream_polls", polls as f64),
            ("looking_glass.feed_frames_retained", minted as f64),
            ("stream.drain_s", l.drain_s),
            ("stream.apply_s", l.drain_s - feed.poll_s - fold.fold_s),
            ("stream.frames_applied", stats.applied as f64),
            ("stream.dupes_dropped", stats.dupes_dropped as f64),
            ("stream.resyncs", stats.resyncs as f64),
            ("stream.state_routes", state.route_count() as f64),
            ("stream.max_backlog", feed.max_backlog as f64),
            ("analysis.fold_delta_s", fold.fold_s),
            ("analysis.finalize_s", l.finalize_s),
            ("trace.coverage", covered / wall_s),
        ];
        for (name, value) in layers {
            report.push(name, value);
        }
        report.push("traced_wall_s", wall_s);
    } else {
        report.push("setup_s", setup_s);
        report.push("wall_s", steady_s);
        report.extend("op_ms", &day_ms);
        report.push("churn_events", events as f64);
        report.push("untraced_wall_s", wall_s);
    }
    Ok(())
}

/// The streamed snapshots must equal a fresh poll of the same LG byte for
/// byte, and the incremental report must equal the batch report over them.
fn check_outputs(
    lg: &LgServer,
    clock: &VirtualClock,
    state: &RouterState,
    inc: &IncrementalReport,
    day: u32,
    report: &mut Report,
) {
    let collector = Collector::default();
    let mut store = SnapshotStore::new();
    for afi in [Afi::Ipv4, Afi::Ipv6] {
        let streamed = state.to_snapshot(afi, day);
        let mut transport = lg;
        let same = match collector.collect_with_clock(&mut transport, afi, day, clock) {
            Ok(polled) => {
                serde_json::to_string(&polled.snapshot).ok()
                    == serde_json::to_string(&streamed).ok()
            }
            Err(_) => false,
        };
        report.check(
            &format!("stream-churn: streamed {afi} snapshot = fresh Collector poll"),
            same,
            format!("{} streamed routes", streamed.route_count()),
        );
        store.insert(streamed);
    }
    let batch = full_report(&store, &[(IXP, schemes::dictionary(IXP))]);
    let same = serde_json::to_string(&inc.report_units(&UNITS, day)).ok()
        == serde_json::to_string(&batch).ok();
    report.check(
        "stream-churn: IncrementalReport = full_report on the streamed snapshots",
        same,
        format!("day {day}"),
    );
}

pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    // an untimed first episode warms the process up and carries the checks
    if let Err(e) = episode(opts, false, true, &mut report) {
        report.check("stream-churn: episode completed", false, e);
        return report;
    }
    let start = Instant::now();
    let mut n = 0u32;
    loop {
        // a traced run alternates untraced and traced episodes, so the
        // tracing overhead is measured on the same inputs in the same run
        let traced = opts.trace && n % 2 == 1;
        if let Err(e) = episode(opts, traced, false, &mut report) {
            report.check("stream-churn: episode completed", false, e);
            return report;
        }
        n += 1;
        if secs(start) >= opts.seconds && n >= 2 && (!opts.trace || n.is_multiple_of(2)) {
            return report;
        }
    }
}
