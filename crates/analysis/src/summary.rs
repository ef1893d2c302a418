//! The whole evaluation as one serializable report: every per-snapshot
//! analysis for every (IXP, family) in a store. This is the
//! machine-readable counterpart of the `repro` binary's tables, meant for
//! downstream tooling (plotting, regression tracking).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use bgp_model::asn::Asn;
use bgp_model::prefix::Afi;
use community_dict::dictionary::Dictionary;
use community_dict::ixp::IxpId;
use looking_glass::snapshot::SnapshotStore;

use crate::actions::{Table2, TypeCounts};
use crate::core::View;
use crate::fig4::{Fig4a, Fig4b, Fig4c};
use crate::figs_overview::{Fig1, Fig2, Fig3};
use crate::overlap::{target_overlap_from_tops, TargetOverlap};
use crate::tops::{Fig7, Ineffective, TopCommunities};

/// Everything computed for one (IXP, family) snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotReport {
    /// IXP.
    pub ixp: IxpId,
    /// Family.
    pub afi: Afi,
    /// Day index of the snapshot analysed.
    pub day: u32,
    /// Fig. 1.
    pub fig1: Fig1,
    /// Fig. 2.
    pub fig2: Fig2,
    /// Fig. 3.
    pub fig3: Fig3,
    /// Fig. 4a.
    pub fig4a: Fig4a,
    /// Fig. 4b reduced to the headline shares (the full curve is large).
    pub fig4b_top1pct: f64,
    /// Fig. 4b: share of the top 10% of ASes.
    pub fig4b_top10pct: f64,
    /// Fig. 4c reduced to the correlation and asymmetry.
    pub fig4c_log_correlation: f64,
    /// Fig. 4c: (upper-left, bottom-right) outlier counts.
    pub fig4c_asymmetry: (usize, usize),
    /// Table 2.
    pub table2: Table2,
    /// §5.3 instance mix.
    pub type_counts: TypeCounts,
    /// Fig. 5.
    pub fig5: TopCommunities,
    /// Fig. 6.
    pub fig6: TopCommunities,
    /// §5.5.
    pub ineffective: Ineffective,
    /// Fig. 7.
    pub fig7: Fig7,
}

/// Every figure of one (IXP, family) unit: the [`SnapshotReport`] plus
/// the full series it reduces to headline numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitFigures {
    /// The unit's report.
    pub report: SnapshotReport,
    /// Fig. 4b with the full per-AS distribution.
    pub fig4b: Fig4b,
    /// Fig. 4c with every per-AS point.
    pub fig4c: Fig4c,
    /// Ineffective instances per tagging AS: Fig. 7 before its top-k cut.
    pub fig7_per_as: BTreeMap<Asn, u64>,
}

/// The full evaluation report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FullReport {
    /// One report per (IXP, family) present in the store.
    pub snapshots: Vec<SnapshotReport>,
    /// §5.4 cross-IXP overlap (IPv4).
    pub overlap_v4: Option<TargetOverlap>,
}

/// Fold the latest snapshot of every (IXP, family) in the store, one
/// [`View`] per unit in (dict order × family) order. The units fan out
/// over [`par`]; the ordered join keeps the order at any thread count.
pub fn views<'a>(store: &'a SnapshotStore, dicts: &'a [(IxpId, Dictionary)]) -> Vec<View<'a>> {
    let _span = obs::span!(obs::names::ANALYSIS_FULL_REPORT);
    let units: Vec<(usize, Afi)> = (0..dicts.len())
        .flat_map(|i| [(i, Afi::Ipv4), (i, Afi::Ipv6)])
        .collect();
    let views = par::map_indexed(&units, |_, &(i, afi)| {
        let _span = obs::span!(obs::names::ANALYSIS_REPORT_UNIT);
        let (ixp, dict) = &dicts[i];
        Some(View::new(store.latest(*ixp, afi)?, dict))
    });
    views.into_iter().flatten().collect()
}

/// Compute the full report for the latest snapshot of every (IXP, family)
/// in the store. `dicts` must contain the dictionary for every IXP
/// present.
pub fn full_report(store: &SnapshotStore, dicts: &[(IxpId, Dictionary)]) -> FullReport {
    FullReport::from_views(&views(store, dicts))
}

impl FullReport {
    /// Assemble the report from per-unit reports, adding the §5.4
    /// overlap of the IPv4 units' Fig. 5 rankings.
    pub fn from_units(snapshots: Vec<SnapshotReport>) -> Self {
        let v4_tops: Vec<&TopCommunities> = snapshots
            .iter()
            .filter(|s| s.afi == Afi::Ipv4)
            .map(|s| &s.fig5)
            .collect();
        let overlap_v4 = (v4_tops.len() >= 2).then(|| target_overlap_from_tops(&v4_tops));
        FullReport {
            snapshots,
            overlap_v4,
        }
    }

    /// Assemble the report from already-folded views.
    pub fn from_views(views: &[View<'_>]) -> Self {
        Self::from_units(views.iter().map(|v| v.figures().report.clone()).collect())
    }

    /// The report for one (IXP, family).
    pub fn get(&self, ixp: IxpId, afi: Afi) -> Option<&SnapshotReport> {
        self.snapshots.iter().find(|r| r.ixp == ixp && r.afi == afi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_model::asn::Asn;
    use bgp_model::route::Route;
    use community_dict::schemes;
    use looking_glass::snapshot::Snapshot;

    fn store() -> (SnapshotStore, Vec<(IxpId, Dictionary)>) {
        let mut store = SnapshotStore::new();
        for ixp in [IxpId::Linx, IxpId::Bcix] {
            for afi in [Afi::Ipv4, Afi::Ipv6] {
                let (pfx, nh) = match afi {
                    Afi::Ipv4 => ("193.0.10.0/24", "198.32.0.7"),
                    Afi::Ipv6 => ("2a00:1450::/32", "2001:7f8::1"),
                };
                let route = Route::builder(pfx.parse().unwrap(), nh.parse().unwrap())
                    .path([39120])
                    .standard(schemes::avoid_community(ixp, Asn(6939)))
                    .standard(schemes::avoid_community(ixp, Asn(16276)))
                    .build();
                store.insert(Snapshot {
                    ixp,
                    day: 83,
                    afi,
                    members: vec![Asn(39120), Asn(6939)],
                    routes: vec![(Asn(39120), route)],
                    partial: false,
                    failed_peers: vec![],
                });
            }
        }
        let dicts = [IxpId::Linx, IxpId::Bcix]
            .iter()
            .map(|i| (*i, schemes::dictionary(*i)))
            .collect();
        (store, dicts)
    }

    #[test]
    fn full_report_covers_everything_and_serializes() {
        let (store, dicts) = store();
        let report = full_report(&store, &dicts);
        assert_eq!(report.snapshots.len(), 4);
        let linx_v4 = report.get(IxpId::Linx, Afi::Ipv4).unwrap();
        assert_eq!(linx_v4.ineffective.total_actions, 2);
        assert_eq!(linx_v4.ineffective.ineffective, 1); // OVH not a member
        assert_eq!(linx_v4.fig4a.ases_using_actions, 1);
        let overlap = report.overlap_v4.as_ref().unwrap();
        // HE and OVH are targeted at both IXPs
        assert_eq!(overlap.common().len(), 2);

        // JSON round trip
        let js = serde_json::to_string(&report).unwrap();
        let back: FullReport = serde_json::from_str(&js).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn missing_ixp_is_skipped() {
        let (store, _) = store();
        let dicts = vec![(IxpId::AmsIx, schemes::dictionary(IxpId::AmsIx))];
        let report = full_report(&store, &dicts);
        assert!(report.snapshots.is_empty());
        assert!(report.overlap_v4.is_none());
    }
}
