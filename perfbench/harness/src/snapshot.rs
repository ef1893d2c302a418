//! `snapshot-layers`: the `repro all` pipeline of `snapshot-big4`, run in
//! process so that each layer's calls can be timed and counted.
//!
//! It follows `repro all` at its defaults (big four, scale 0.1): the
//! staticheck pre-flight, world build, LG collection of 8 snapshots, the
//! timeline experiments with their sanitation, the 14 experiments that
//! scan `View`s, and rendering. Two differences: the LG collection runs
//! one IXP after another, so per-request times do not overlap, and
//! rendering formats each result into a `TextTable` row instead of the
//! hand-laid tables of `repro`. On top it times both aggregation paths
//! over the collected store (`full_report`, and a from-scratch
//! `IncrementalReport` fold plus finalize).
//!
//! With `--conserve-only` it stops after the fold: that part yields the
//! route counts of each layer for the conservation check.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;

use analysis::prelude::*;
use bgp_model::asn::Asn;
use bgp_model::prefix::{Afi, Prefix};
use bgp_model::route::Route;
use community_dict::dictionary::Dictionary;
use community_dict::ixp::IxpId;
use community_dict::schemes;
use ixp_sim::timeline::{generate_all, TimelineConfig};
use ixp_sim::world::{build_world, WorldConfig};
use looking_glass::api::{LgError, LgRequest, LgResponse};
use looking_glass::client::{Collector, LgTransport};
use looking_glass::server::LgServer;
use looking_glass::snapshot::{Snapshot, SnapshotStore};
use route_server::config::RsConfig;
use stream::state::{DeltaConsumer, PeerSession, RouteDelta};

use crate::{secs, timed, Opts, Report};

const SCALE: f64 = 0.1;
/// The day `repro` stamps on its snapshots.
const DAY: u32 = 83;
const AFIS: [Afi; 2] = [Afi::Ipv4, Afi::Ipv6];

/// What the LGs served, summed over the IXPs.
#[derive(Default)]
struct Served {
    handle_s: f64,
    requests: u64,
    rate_limited: u64,
    routes: u64,
}

/// An LG as the collector's transport, timing and counting each request.
struct Counting<'a> {
    lg: &'a LgServer,
    served: &'a mut Served,
}

impl LgTransport for Counting<'_> {
    fn request(&mut self, req: &LgRequest, now_ms: u64) -> Result<LgResponse, LgError> {
        let start = Instant::now();
        let resp = self.lg.handle(req, now_ms);
        let served = &mut *self.served;
        served.handle_s += secs(start);
        served.requests += 1;
        match &resp {
            Ok(LgResponse::Routes { routes, .. }) => served.routes += routes.len() as u64,
            Err(LgError::RateLimited) => served.rate_limited += 1,
            _ => {}
        }
        resp
    }
}

/// `repro check`: policy verification of every IXP, the cross-IXP drift
/// check and the workspace lint scan through the cache at `cache`.
/// Returns the number of gating findings.
fn preflight(root: &Path, cache: &Path) -> Result<usize, String> {
    let allow =
        staticheck::Allowlist::load(&root.join("staticheck.toml")).map_err(|e| e.to_string())?;
    let gating = |diags: &[staticheck::Diagnostic]| {
        diags
            .iter()
            .filter(|d| d.severity == staticheck::Severity::Error && allow.waiver(d).is_none())
            .count()
    };
    let mut errors = 0;
    let mut dicts = Vec::new();
    for ixp in IxpId::BIG_FOUR {
        let dict = schemes::dictionary(ixp);
        errors += gating(&staticheck::policy::verify(
            &RsConfig::for_ixp(ixp),
            &dict,
            None,
        ));
        dicts.push(dict);
    }
    errors += gating(&staticheck::policy::verify_cross_dictionaries(&dicts));
    let args: Vec<String> = [
        "lints",
        "--root",
        &root.to_string_lossy(),
        "--cache",
        &cache.to_string_lossy(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let (ws, _) = staticheck::cli::run_captured(&args)?;
    errors += ws
        .findings
        .iter()
        .filter(|d| d.severity == staticheck::Severity::Error)
        .count();
    Ok(errors)
}

/// Fold the latest snapshot of every (IXP, family) into a fresh
/// `IncrementalReport`, one `PeerUp` delta per member, and finalize it.
fn fold(store: &SnapshotStore, dicts: &[(IxpId, Dictionary)]) -> FullReport {
    let mut inc = IncrementalReport::new(dicts);
    for (ixp, _) in dicts {
        let mut tables: BTreeMap<Asn, (PeerSession, BTreeMap<Prefix, Route>)> = BTreeMap::new();
        for afi in AFIS {
            let Some(snap) = store.latest(*ixp, afi) else {
                continue;
            };
            let no_session = PeerSession {
                ipv4: false,
                ipv6: false,
            };
            for peer in &snap.members {
                let (session, _) = tables.entry(*peer).or_insert((no_session, BTreeMap::new()));
                match afi {
                    Afi::Ipv4 => session.ipv4 = true,
                    Afi::Ipv6 => session.ipv6 = true,
                }
            }
            for (peer, route) in &snap.routes {
                if let Some((_, routes)) = tables.get_mut(peer) {
                    routes.insert(route.prefix, route.clone());
                }
            }
        }
        for (peer, (now, routes)) in &tables {
            let delta = RouteDelta::PeerUp {
                peer: *peer,
                prev: None,
                now: *now,
                routes,
            };
            inc.on_delta(*ixp, &delta);
        }
    }
    inc.report(DAY)
}

/// Per-layer seconds, keyed by metric name.
#[derive(Default)]
struct Timers(BTreeMap<String, f64>);

impl Timers {
    fn slot(&mut self, name: &str) -> &mut f64 {
        self.0.entry(name.to_string()).or_insert(0.0)
    }
}

/// One experiment's results, kept for the render stage.
type Rendered = Vec<(String, Box<dyn Debug>)>;

pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let mut t = Timers::default();
    let start = Instant::now();
    let root = std::env::current_dir().unwrap_or_else(|_| ".".into());

    if !opts.conserve_only {
        // cold: a cache file that does not exist yet; warm: the same again
        let cache = opts
            .work
            .join(format!("staticheck-{}.cache", std::process::id()));
        let _ = std::fs::create_dir_all(&opts.work);
        let _ = std::fs::remove_file(&cache);
        for phase in ["cold", "warm"] {
            let outcome = timed(
                true,
                t.slot(&format!("staticheck.preflight_{phase}_s")),
                || preflight(&root, &cache),
            );
            report.check(
                &format!("snapshot-big4: staticheck pre-flight ({phase}) is clean"),
                outcome == Ok(0),
                format!("{outcome:?} gating findings"),
            );
        }
        let _ = std::fs::remove_file(&cache);
    }

    let worlds = timed(true, t.slot("ixp_sim.build_world_s"), || {
        build_world(
            &IxpId::BIG_FOUR,
            &WorldConfig {
                seed: opts.seed,
                scale: SCALE,
            },
        )
    });
    let dicts: Vec<(IxpId, Dictionary)> = IxpId::BIG_FOUR
        .iter()
        .map(|ixp| (*ixp, schemes::dictionary(*ixp)))
        .collect();

    let collector = Collector::default();
    let mut store = SnapshotStore::new();
    let (mut rib_routes, mut accept_events, mut retries) = (0u64, 0u64, 0u64);
    let mut served = Served::default();
    for world in worlds {
        let ixp = world.ixp;
        rib_routes += world.rs.accepted().route_count() as u64;
        accept_events += world.rs.stats().routes_accepted;
        let lg = LgServer::new(Arc::new(RwLock::new(world.rs)), opts.seed ^ (ixp as u64));
        let mut transport = Counting {
            lg: &lg,
            served: &mut served,
        };
        for afi in AFIS {
            let at = (ixp as u64) * 100_000_000 + (afi as u64) * 50_000_000;
            let collected = timed(true, t.slot("looking_glass.collect_s"), || {
                collector.collect(&mut transport, afi, DAY, at)
            });
            match collected {
                Ok(c) => {
                    retries += c.failures;
                    report.check(
                        &format!(
                            "snapshot-big4: {} {afi} snapshot complete",
                            ixp.short_name()
                        ),
                        !c.snapshot.partial,
                        format!("{} routes", c.snapshot.route_count()),
                    );
                    store.insert(c.snapshot);
                }
                Err(e) => report.check(
                    &format!("snapshot-big4: {} {afi} collected", ixp.short_name()),
                    false,
                    e.to_string(),
                ),
            }
        }
    }
    report.attempted += served.requests;
    report.failed += retries;

    let folded = timed(true, t.slot("analysis.fold_s"), || fold(&store, &dicts));
    let snapshot_routes: u64 = store.iter().map(|s| s.route_count() as u64).sum();
    let routes_folded: u64 = folded
        .snapshots
        .iter()
        .map(|s| s.fig4a.routes_total as u64)
        .sum();
    for (name, value) in [
        ("conserve.rib_routes", rib_routes),
        ("conserve.lg_routes_served", served.routes),
        ("conserve.snapshot_routes", snapshot_routes),
        ("conserve.routes_folded", routes_folded),
    ] {
        report.push(name, value as f64);
    }
    for snap in store.iter() {
        report.push(
            &format!("table1.{}.{}", snap.ixp.short_name(), snap.afi),
            snap.route_count() as f64,
        );
    }
    if opts.conserve_only {
        return report;
    }

    // the timeline experiments: Table 3, Table 4 and sanitation each
    // regenerate the series, as `repro` does
    let mut sanitized = 0usize;
    for _ in 0..3 {
        let series = timed(true, t.slot("ixp_sim.timeline_s"), || {
            generate_all(&TimelineConfig {
                seed: opts.seed,
                ..TimelineConfig::default()
            })
        });
        timed(true, t.slot("looking_glass.sanitize_s"), || {
            sanitized += series.iter().map(|s| s.sanitized().len()).sum::<usize>();
        });
    }
    black_box(sanitized);

    let mut rendered: Vec<(&str, Rendered)> = Vec::new();
    let latest = |ixp: IxpId, afi: Afi| -> Option<(&Snapshot, &Dictionary)> {
        let snap = store.latest(ixp, afi)?;
        let dict = &dicts.iter().find(|(i, _)| *i == ixp)?.1;
        Some((snap, dict))
    };
    let mut rows: Rendered = Vec::new();
    timed(true, t.slot("analysis.table1_s"), || {
        for ixp in IxpId::BIG_FOUR {
            if let (Some((v4, _)), Some((v6, _))) = (latest(ixp, Afi::Ipv4), latest(ixp, Afi::Ipv6))
            {
                rows.push((ixp.short_name().to_string(), Box::new(table1_row(v4, v6))));
            }
        }
    });
    rendered.push(("table1", rows));
    type Experiment = (
        &'static str,
        &'static [Afi],
        fn(&View<'_>) -> Box<dyn Debug>,
    );
    let experiments: [Experiment; 12] = [
        ("fig1", &AFIS, |v| Box::new(fig1(v))),
        ("fig2", &AFIS, |v| Box::new(fig2(v))),
        ("fig3", &AFIS, |v| Box::new(fig3(v))),
        ("fig4a", &AFIS, |v| Box::new(fig4a(v))),
        ("fig4b", &[Afi::Ipv4], |v| Box::new(fig4b(v))),
        ("fig4c", &[Afi::Ipv4], |v| Box::new(fig4c(v))),
        ("table2", &AFIS, |v| Box::new(table2(v))),
        ("type_counts", &AFIS, |v| Box::new(type_counts(v))),
        ("fig5", &[Afi::Ipv4], |v| Box::new(fig5(v))),
        ("fig6", &[Afi::Ipv4], |v| Box::new(fig6(v))),
        ("ineffective", &AFIS, |v| Box::new(ineffective(v))),
        ("fig7", &[Afi::Ipv4], |v| Box::new(fig7(v, 10))),
    ];
    for (name, afis, experiment) in experiments {
        let mut rows: Rendered = Vec::new();
        for ixp in IxpId::BIG_FOUR {
            for afi in afis {
                let Some((snap, dict)) = latest(ixp, *afi) else {
                    continue;
                };
                let view = timed(true, t.slot("analysis.view_s"), || View::new(snap, dict));
                let result = timed(true, t.slot(&format!("analysis.{name}_s")), || {
                    experiment(&view)
                });
                rows.push((format!("{} {afi}", ixp.short_name()), result));
            }
        }
        rendered.push((name, rows));
    }
    let mut views = Vec::new();
    for ixp in IxpId::BIG_FOUR {
        if let Some((snap, dict)) = latest(ixp, Afi::Ipv4) {
            views.push(timed(true, t.slot("analysis.view_s"), || {
                View::new(snap, dict)
            }));
        }
    }
    let overlap = timed(true, t.slot("analysis.overlap_s"), || {
        target_overlap(&views)
    });
    rendered.push(("overlap", vec![("big four".to_string(), Box::new(overlap))]));

    let text_len = timed(true, t.slot("analysis.render_s"), || {
        let mut len = 0;
        for (name, rows) in &rendered {
            let mut table = TextTable::new(*name, &["Unit", "Result"]);
            for (unit, result) in rows {
                table.row([unit.clone(), format!("{result:?}")]);
            }
            len += table.render().len();
        }
        len
    });
    black_box(text_len);
    let wall_s = secs(start);

    let batch = timed(true, t.slot("analysis.full_report_s"), || {
        full_report(&store, &dicts)
    });
    report.check(
        "snapshot-big4: IncrementalReport fold = full_report",
        serde_json::to_string(&folded).ok() == serde_json::to_string(&batch).ok(),
        format!("{} units", batch.snapshots.len()),
    );

    for (name, secs) in &t.0 {
        report.push(name, *secs);
    }
    let counts: [(&str, f64); 9] = [
        ("ixp_sim.rib_routes", rib_routes as f64),
        ("route_server.accept_events", accept_events as f64),
        ("route_server.rib_routes", rib_routes as f64),
        ("looking_glass.handle_s", served.handle_s),
        ("looking_glass.requests", served.requests as f64),
        ("looking_glass.retries", retries as f64),
        ("looking_glass.rate_limited", served.rate_limited as f64),
        ("looking_glass.routes_served", served.routes as f64),
        (
            "looking_glass.ns_per_route_served",
            served.handle_s * 1e9 / served.routes.max(1) as f64,
        ),
    ];
    for (name, value) in counts {
        report.push(name, value);
    }
    // the layers that make up the traced pipeline; full_report and the
    // fold are timed beside it and left out of both sides
    let covered: f64 = t
        .0
        .iter()
        .filter(|(name, _)| !matches!(name.as_str(), "analysis.full_report_s" | "analysis.fold_s"))
        .map(|(_, s)| s)
        .sum();
    report.push(
        "trace.coverage",
        covered / (wall_s - t.0["analysis.fold_s"]),
    );
    report.push("traced_wall_s", wall_s - t.0["analysis.fold_s"]);
    report
}
