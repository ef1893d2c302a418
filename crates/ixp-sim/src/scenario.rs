//! End-to-end scenario driver: world → route servers → Looking Glasses →
//! collector → snapshot store. This is the paper's §3 pipeline, run
//! against the synthetic world — through either collection path:
//! periodic snapshot polls, or the BMP-style monitoring stream whose
//! end state must serialize identically.

use std::sync::Arc;

use parking_lot::RwLock;

use bgp_model::prefix::Afi;
use community_dict::ixp::IxpId;
use looking_glass::client::{Collector, CollectorConfig};
use looking_glass::server::{FailureModel, LgServer};
use looking_glass::snapshot::SnapshotStore;
use stream::{RouterState, StreamCollector};

use crate::timeline::CollectionMode;
use crate::world::{build_ixp, WorldConfig};

/// Scenario configuration.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// World generation parameters.
    pub world: WorldConfig,
    /// IXPs to include.
    pub ixps: Vec<IxpId>,
    /// Failure model for the LG servers during collection.
    pub failures: FailureModel,
    /// The day index stamped on the collected snapshots.
    pub day: u32,
    /// Collection path: snapshot polls or the streamed update feed.
    pub mode: CollectionMode,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            world: WorldConfig::default(),
            ixps: IxpId::ALL.to_vec(),
            failures: FailureModel::NONE,
            day: 83, // the latest snapshot (4 Oct 2021 in the paper)
            mode: CollectionMode::Snapshot,
        }
    }
}

/// The result of a full collection run.
pub struct Scenario {
    /// The collected snapshots (both families per IXP).
    pub store: SnapshotStore,
}

/// Build the world and collect one snapshot per (IXP, family) through the
/// Looking Glass pipeline.
pub fn run(config: &ScenarioConfig) -> Scenario {
    let registry = obs::global();
    let _scenario_span = obs::span!(obs::names::SIM_SCENARIO);
    registry.gauge(obs::names::SIM_DAY).set(config.day as i64);
    let collector = Collector::new(CollectorConfig::default());
    let stream_collector = StreamCollector::default();
    let snapshots_collected = registry.counter(obs::names::SIM_SNAPSHOTS_COLLECTED);
    let collections_failed = registry.counter(obs::names::SIM_COLLECTIONS_FAILED);
    // One task per IXP builds its world, moves the route server into its
    // own LG (rate-limiter state and all), runs both families against it
    // sequentially and drops both before returning, so worlds are built
    // and freed in parallel. Each IXP derives its world RNG, LG seed and
    // virtual start times from (seed, ixp, afi), not from wall time or
    // scheduling, and the ordered join merges snapshots in IXP order —
    // the store is identical for any `PAR_THREADS`.
    let results = par::map_indexed(&config.ixps, |_, &ixp| {
        let rs = build_ixp(ixp, &config.world).rs;
        let _ixp_span = obs::span!(obs::names::SIM_COLLECT_IXP);
        let lg = LgServer::new(Arc::new(RwLock::new(rs)), config.world.seed ^ (ixp as u64));
        lg.set_failures(config.failures.clone());
        let mut snaps = Vec::with_capacity(2);
        let mut failed = 0u64;
        match config.mode {
            CollectionMode::Snapshot => {
                for afi in [Afi::Ipv4, Afi::Ipv6] {
                    let mut transport = &lg;
                    // start collections far enough apart that the bucket refills
                    let start = (ixp as u64) * 100_000_000 + (afi as u64) * 50_000_000;
                    if let Ok(report) = collector.collect(&mut transport, afi, config.day, start) {
                        snaps.push(report.snapshot);
                    } else {
                        failed += 1;
                    }
                }
            }
            CollectionMode::Stream => {
                // one drain rebuilds both families: the initial table dump
                // replays the whole RIB, and the state store snapshots
                // per-family views of the same incremental state
                let mut transport = &lg;
                let mut state = RouterState::new(ixp);
                let start = (ixp as u64) * 100_000_000;
                match stream_collector.drain(&mut state, &mut transport, start) {
                    Ok(_) => {
                        for afi in [Afi::Ipv4, Afi::Ipv6] {
                            snaps.push(state.to_snapshot(afi, config.day));
                        }
                    }
                    Err(_) => failed += 2,
                }
            }
        }
        (snaps, failed)
    });
    let mut store = SnapshotStore::new();
    for (snaps, failed) in results {
        snapshots_collected.add(snaps.len() as u64);
        collections_failed.add(failed);
        for snapshot in snaps {
            store.insert(snapshot);
        }
    }
    Scenario { store }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    #[test]
    fn full_pipeline_produces_snapshots() {
        let config = ScenarioConfig {
            world: WorldConfig {
                seed: 21,
                scale: 0.02,
            },
            ixps: vec![IxpId::Linx, IxpId::AmsIx],
            failures: FailureModel::NONE,
            day: 83,
            mode: CollectionMode::Snapshot,
        };
        let scenario = run(&config);
        assert_eq!(scenario.store.len(), 4); // 2 IXPs × 2 families
        let snap = scenario.store.get(IxpId::Linx, Afi::Ipv4, 83).unwrap();
        assert!(!snap.partial);
        assert!(snap.route_count() > 500);
        assert!(snap.community_instances() > snap.route_count());
        // the snapshot matches what the RS holds (an independent build
        // from the same seed)
        let world = build_ixp(IxpId::Linx, &config.world);
        let rs_v4_routes = world
            .rs
            .accepted()
            .iter()
            .filter(|(_, r)| r.afi() == Afi::Ipv4)
            .count();
        assert_eq!(snap.route_count(), rs_v4_routes);
    }

    #[test]
    fn streamed_scenario_serializes_identically_to_snapshots() {
        let base = ScenarioConfig {
            world: WorldConfig {
                seed: 23,
                scale: 0.01,
            },
            ixps: vec![IxpId::Bcix, IxpId::Netnod],
            failures: FailureModel::NONE,
            day: 41,
            mode: CollectionMode::Snapshot,
        };
        let polled = run(&base);
        let streamed = run(&ScenarioConfig {
            mode: CollectionMode::Stream,
            ..base
        });
        assert_eq!(polled.store.len(), streamed.store.len());
        for ixp in [IxpId::Bcix, IxpId::Netnod] {
            for afi in [Afi::Ipv4, Afi::Ipv6] {
                let a = polled.store.get(ixp, afi, 41).expect("polled snapshot");
                let b = streamed.store.get(ixp, afi, 41).expect("streamed snapshot");
                let left = serde_json::to_string(a).expect("snapshot serializes");
                let right = serde_json::to_string(b).expect("snapshot serializes");
                assert_eq!(left, right, "{ixp}/{afi}: streamed state diverged");
            }
        }
    }

    #[test]
    fn flaky_lg_still_collects_fully() {
        let config = ScenarioConfig {
            world: WorldConfig {
                seed: 22,
                scale: 0.01,
            },
            ixps: vec![IxpId::Netnod],
            failures: FailureModel::FLAKY,
            day: 0,
            mode: CollectionMode::Snapshot,
        };
        let scenario = run(&config);
        let snap = scenario.store.get(IxpId::Netnod, Afi::Ipv4, 0).unwrap();
        assert!(!snap.partial, "retries should absorb baseline flakiness");
    }
}
