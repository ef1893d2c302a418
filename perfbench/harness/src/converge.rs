//! `rs-converge`: the route server's own job, over the wire.
//!
//! The big four at scale 0.02. The set-up builds the world and encodes
//! each member's accepted table as BGP UPDATE bytes. One convergence
//! decodes those bytes, feeds every UPDATE to `ingest_update` on a fresh
//! route server with the world's configuration, calls `export_best_to`
//! for every member, and encodes each Adj-RIB-Out with
//! `routes_to_updates` + `Message::encode`. A first, untimed round on the
//! seed's world warms the process up and carries the checks; timed rounds
//! of set-up and convergence, each on another world drawn from the seed,
//! then repeat until the time is up.

use std::hint::black_box;
use std::time::Instant;

use bytes::{Bytes, BytesMut};

use bgp_model::asn::Asn;
use bgp_model::route::Route;
use bgp_wire::convert::{routes_to_updates, update_to_routes};
use bgp_wire::message::Message;
use community_dict::ixp::IxpId;
use ixp_sim::world::{build_world, WorldConfig};
use route_server::config::RsConfig;
use route_server::server::{IngestOutcome, Member, RouteServer};

use crate::{rss_mb, secs, timed, Opts, Report};

const SCALE: f64 = 0.02;
/// An operation is one member's export and encode, timed per 1,000
/// routes exported: member tables differ in size from seed to seed, so a
/// raw per-member time would move with the seed. Members that receive
/// fewer routes than this are left out, as their fixed costs dominate.
const OP_MIN_ROUTES: usize = 100;

/// One IXP's route server, as its members' UPDATE bytes.
struct Input {
    config: RsConfig,
    members: Vec<Member>,
    /// Each member's accepted table, encoded as consecutive UPDATEs.
    wire: Vec<(Asn, Bytes)>,
    /// The route server the bytes were taken from: the reference.
    source: RouteServer,
}

#[derive(Default)]
struct Layers {
    build_world_s: f64,
    encode_in_s: f64,
    decode_s: f64,
    ingest_s: f64,
    export_s: f64,
    encode_out_s: f64,
    updates_in: u64,
    bytes_in: u64,
    routes_in: u64,
    updates_out: u64,
    bytes_out: u64,
    routes_out: u64,
    decode_errors: u64,
    export_evaluations: u64,
    export_shared: u64,
    export_copied: u64,
    accept_events: u64,
    rib_routes: u64,
}

fn setup(seed: u64, traced: bool, l: &mut Layers) -> Result<Vec<Input>, String> {
    let worlds = timed(traced, &mut l.build_world_s, || {
        build_world(&IxpId::BIG_FOUR, &WorldConfig { seed, scale: SCALE })
    });
    let mut inputs = Vec::with_capacity(worlds.len());
    for world in worlds {
        let members: Vec<Member> = world.rs.members().copied().collect();
        let mut wire = Vec::with_capacity(members.len());
        for m in &members {
            let routes: Vec<Route> = world
                .rs
                .accepted()
                .peer(m.asn)
                .map(|t| t.iter().cloned().collect())
                .unwrap_or_default();
            let bytes = timed(traced, &mut l.encode_in_s, || encode(&routes))?;
            wire.push((m.asn, bytes));
        }
        inputs.push(Input {
            config: world.rs.config().clone(),
            members,
            wire,
            source: world.rs,
        });
    }
    Ok(inputs)
}

/// Encode routes as consecutive UPDATE messages.
fn encode(routes: &[Route]) -> Result<Bytes, String> {
    let mut out = BytesMut::new();
    for update in routes_to_updates(routes) {
        let frame = Message::Update(update)
            .encode()
            .map_err(|e| format!("encode: {e}"))?;
        out.extend_from_slice(&frame);
    }
    Ok(out.freeze())
}

/// The result of one convergence of one IXP.
struct Converged {
    rs: RouteServer,
    /// Per member: the routes `export_best_to` chose and their encoding.
    out: Vec<(Vec<Route>, Bytes)>,
}

/// Decode, ingest, export and encode one IXP. Appends one latency sample
/// per member (its export and encode, per 1,000 routes) to `op_ms`.
fn converge(
    input: &Input,
    traced: bool,
    l: &mut Layers,
    op_ms: &mut Vec<f64>,
    failed: &mut u64,
) -> Converged {
    let mut rs = RouteServer::new(input.config.clone());
    for m in &input.members {
        rs.add_member(m.asn, m.ipv4, m.ipv6);
    }
    for (peer, bytes) in &input.wire {
        let mut buf = BytesMut::from(&bytes[..]);
        loop {
            let decoded = timed(traced, &mut l.decode_s, || Message::decode(&mut buf));
            let update = match decoded {
                Ok(Some(Message::Update(update))) => update,
                Ok(None) => break,
                Ok(Some(_)) | Err(_) => {
                    l.decode_errors += 1;
                    *failed += 1;
                    break;
                }
            };
            l.updates_in += 1;
            if traced {
                l.routes_in += update_to_routes(&update).map_or(0, |c| c.announced.len() as u64);
            }
            match timed(traced, &mut l.ingest_s, || rs.ingest_update(*peer, &update)) {
                Ok(outcomes) => {
                    if outcomes.iter().any(|o| *o != IngestOutcome::Accepted) {
                        *failed += 1;
                    }
                }
                Err(_) => *failed += 1,
            }
        }
        l.bytes_in += bytes.len() as u64;
    }
    let mut out = Vec::with_capacity(input.members.len());
    for m in &input.members {
        let start = Instant::now();
        let best = timed(traced, &mut l.export_s, || rs.export_best_to(m.asn));
        let (routes, bytes) = timed(traced, &mut l.encode_out_s, || {
            let routes: Vec<Route> = best.iter().map(|r| Route::clone(r)).collect();
            let updates = routes_to_updates(&routes);
            let mut bytes = BytesMut::new();
            for update in updates {
                l.updates_out += 1;
                match Message::Update(update).encode() {
                    Ok(frame) => bytes.extend_from_slice(&frame),
                    Err(_) => *failed += 1,
                }
            }
            (routes, bytes.freeze())
        });
        if routes.len() >= OP_MIN_ROUTES {
            op_ms.push(secs(start) * 1e6 / routes.len() as f64);
        }
        l.routes_out += routes.len() as u64;
        l.bytes_out += bytes.len() as u64;
        out.push((routes, bytes));
    }
    let stats = rs.stats();
    l.export_evaluations += stats.export_evaluations;
    l.export_shared += stats.export_routes_shared;
    l.export_copied += stats.export_routes_copied;
    l.accept_events += stats.routes_accepted;
    l.rib_routes += rs.accepted().route_count() as u64;
    Converged { rs, out }
}

/// The route server fed over the wire must hold the source's RIB exactly,
/// and every encoded Adj-RIB-Out must decode back to the exported routes.
fn check(input: &Input, done: &Converged) -> Result<(), String> {
    let ixp = input.config.ixp.short_name();
    for m in &input.members {
        let table = |rs: &RouteServer| -> Vec<Route> {
            rs.accepted()
                .peer(m.asn)
                .map(|t| t.iter().cloned().collect())
                .unwrap_or_default()
        };
        if table(&input.source) != table(&done.rs) {
            return Err(format!("{ixp}: RIB of {} differs from the source", m.asn));
        }
    }
    for (m, (routes, bytes)) in input.members.iter().zip(&done.out) {
        let mut buf = BytesMut::from(&bytes[..]);
        let mut decoded: Vec<Route> = Vec::with_capacity(routes.len());
        loop {
            match Message::decode(&mut buf) {
                Ok(Some(Message::Update(update))) => match update_to_routes(&update) {
                    Ok(content) => decoded.extend(content.announced),
                    Err(e) => return Err(format!("{ixp}: export to {}: {e}", m.asn)),
                },
                Ok(None) => break,
                Ok(Some(_)) => return Err(format!("{ixp}: export to {}: not an UPDATE", m.asn)),
                Err(e) => return Err(format!("{ixp}: export to {}: {e}", m.asn)),
            }
        }
        let key = |r: &Route| format!("{:?}", r.prefix);
        let mut want = routes.clone();
        want.sort_by_cached_key(key);
        decoded.sort_by_cached_key(key);
        if decoded != want {
            return Err(format!(
                "{ixp}: export to {} decodes to {} routes, {} exported",
                m.asn,
                decoded.len(),
                want.len()
            ));
        }
    }
    Ok(())
}

/// One set-up plus one convergence of all four IXPs. The warm-up round
/// records no timings; it runs the round-trip checks instead.
fn round(seed: u64, traced: bool, warmup: bool, report: &mut Report) -> Result<(), String> {
    let mut l = Layers::default();
    let start = Instant::now();
    let inputs = setup(seed, traced, &mut l)?;
    let setup_s = secs(start);

    let mut op_ms = Vec::new();
    let mut failed = 0u64;
    let mut done = Vec::with_capacity(inputs.len());
    let converge_start = Instant::now();
    for input in &inputs {
        done.push(converge(input, traced, &mut l, &mut op_ms, &mut failed));
    }
    let converge_s = secs(converge_start);
    black_box(&done);
    // the round's peak: its worlds, inputs and Adj-RIB-Outs are all live
    let round_rss_mb = rss_mb();

    report.attempted += l.updates_in;
    report.failed += failed;
    report.check(
        "rs-converge: every UPDATE decoded and every route accepted",
        failed == 0,
        format!("{failed} failed of {} UPDATEs", l.updates_in),
    );
    let source_routes: u64 = inputs
        .iter()
        .map(|i| i.source.accepted().route_count() as u64)
        .sum();
    report.check(
        "rs-converge: RIB routes over the wire = source RIB routes",
        l.rib_routes == source_routes,
        format!(
            "{} over the wire, {source_routes} at the source",
            l.rib_routes
        ),
    );
    if warmup {
        for (input, converged) in inputs.iter().zip(&done) {
            let outcome = check(input, converged);
            report.check(
                &format!(
                    "rs-converge: {} RIB and Adj-RIB-Outs survive the wire",
                    input.config.ixp.short_name()
                ),
                outcome.is_ok(),
                outcome.err().unwrap_or_default(),
            );
        }
        return Ok(());
    }

    if traced {
        let per = |num: u64, den: u64| num as f64 / den.max(1) as f64;
        let pairs: [(&str, f64); 21] = [
            ("ixp_sim.build_world_s", l.build_world_s),
            ("ixp_sim.rib_routes", source_routes as f64),
            ("bgp_wire.encode_in_s", l.encode_in_s),
            ("bgp_wire.decode_s", l.decode_s),
            ("bgp_wire.encode_out_s", l.encode_out_s),
            ("bgp_wire.updates_in", l.updates_in as f64),
            ("bgp_wire.updates_out", l.updates_out as f64),
            ("bgp_wire.bytes_in", l.bytes_in as f64),
            ("bgp_wire.bytes_out", l.bytes_out as f64),
            (
                "bgp_wire.routes_per_update_in",
                per(l.routes_in, l.updates_in),
            ),
            (
                "bgp_wire.routes_per_update_out",
                per(l.routes_out, l.updates_out),
            ),
            ("bgp_wire.decode_errors", l.decode_errors as f64),
            ("route_server.ingest_s", l.ingest_s),
            ("route_server.updates_ingested", l.updates_in as f64),
            ("route_server.export_s", l.export_s),
            (
                "route_server.export_evaluations",
                l.export_evaluations as f64,
            ),
            ("route_server.routes_exported", l.routes_out as f64),
            (
                "route_server.export_shared_frac",
                per(l.export_shared, l.export_shared + l.export_copied),
            ),
            ("route_server.accept_events", l.accept_events as f64),
            ("route_server.rib_routes", l.rib_routes as f64),
            (
                "trace.coverage",
                (l.build_world_s
                    + l.encode_in_s
                    + l.decode_s
                    + l.ingest_s
                    + l.export_s
                    + l.encode_out_s)
                    / (setup_s + converge_s),
            ),
        ];
        for (name, value) in pairs {
            report.push(name, value);
        }
        report.push("traced_wall_s", setup_s + converge_s);
    } else {
        report.push("setup_s", setup_s);
        report.push("wall_s", converge_s);
        report.extend("op_ms", &op_ms);
        report.push("peak_rss_mb", round_rss_mb);
        report.push("untraced_wall_s", setup_s + converge_s);
    }
    Ok(())
}

/// The world seed of the `k`-th timed world of a run (SplitMix64 of the
/// run's seed and `k`), so runs with different seeds share no world.
fn world_seed(seed: u64, k: u32) -> u64 {
    let mut z = seed ^ u64::from(k).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    // an untimed first round, on the seed's own world, warms the process
    // up and carries the checks
    if let Err(e) = round(opts.seed, false, true, &mut report) {
        report.check("rs-converge: round completed", false, e);
        return report;
    }
    let start = Instant::now();
    let mut n = 0u32;
    loop {
        let traced = opts.trace && n % 2 == 1;
        // Each timed round builds another world from the seed (a traced
        // run times each world untraced, then traced). How many routes
        // the route server exports changes by about 15% from world to
        // world, so the medians over several worlds, not one world,
        // make the seeds of a set comparable.
        let k = if opts.trace { n / 2 } else { n };
        if let Err(e) = round(world_seed(opts.seed, k), traced, false, &mut report) {
            report.check("rs-converge: round completed", false, e);
            return report;
        }
        n += 1;
        if secs(start) >= opts.seconds && n >= 2 && (!opts.trace || n.is_multiple_of(2)) {
            return report;
        }
    }
}
