//! The unit every analysis reads: one snapshot folded once.

use community_dict::dictionary::Dictionary;
use looking_glass::snapshot::Snapshot;

use crate::incremental::fold_snapshot;
use crate::summary::UnitFigures;

/// One (IXP, family) snapshot folded against its IXP's dictionary — the
/// unit every analysis consumes. The fold runs once, at construction;
/// every figure function is a read of the folded [`UnitFigures`] and
/// nothing is computed lazily, so a `View` is freely shared across `par`
/// tasks.
pub struct View<'a> {
    /// The snapshot.
    pub snap: &'a Snapshot,
    figures: UnitFigures,
}

impl<'a> View<'a> {
    /// Pair a snapshot with its dictionary and fold it.
    pub fn new(snap: &'a Snapshot, dict: &'a Dictionary) -> Self {
        debug_assert_eq!(snap.ixp, dict.ixp());
        View {
            snap,
            figures: fold_snapshot(snap, dict),
        }
    }

    /// Every figure of this unit.
    pub fn figures(&self) -> &UnitFigures {
        &self.figures
    }
}

/// Percentage helper: `part / whole * 100`, 0 when whole is 0.
pub fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_model::asn::Asn;
    use bgp_model::community::StandardCommunity;
    use bgp_model::prefix::Afi;
    use bgp_model::route::Route;
    use community_dict::ixp::IxpId;
    use community_dict::schemes;

    fn snapshot() -> Snapshot {
        let ixp = IxpId::Linx;
        let mk = |pfx: &str, tagger: u32, cs: Vec<StandardCommunity>| {
            (
                Asn(tagger),
                Route::builder(pfx.parse().unwrap(), "198.32.0.7".parse().unwrap())
                    .path([tagger, 15169])
                    .standards(cs)
                    .build(),
            )
        };
        Snapshot {
            ixp,
            day: 0,
            afi: Afi::Ipv4,
            members: vec![Asn(39120), Asn(6939)],
            routes: vec![
                mk(
                    "193.0.10.0/24",
                    39120,
                    vec![
                        schemes::avoid_community(ixp, Asn(6939)),  // member target
                        schemes::avoid_community(ixp, Asn(16276)), // non-member
                        schemes::info_community(ixp, 0),
                        StandardCommunity::from_parts(3356, 70), // unknown
                    ],
                ),
                mk("193.0.11.0/24", 6939, vec![]),
            ],
            partial: false,
            failed_peers: vec![],
        }
    }

    #[test]
    fn instance_counts_and_classification() {
        let snap = snapshot();
        let dict = schemes::dictionary(IxpId::Linx);
        let report = View::new(&snap, &dict).figures().report.clone();
        // four standard instances: two actions, one informational, one
        // unknown
        assert_eq!(report.fig1.total, 4);
        assert_eq!((report.fig3.informational, report.fig3.action), (1, 2));
        assert_eq!(report.ineffective.total_actions, 2);
        assert_eq!(report.ineffective.ineffective, 1); // OVH is not a member
    }

    #[test]
    fn membership() {
        let snap = snapshot();
        let dict = schemes::dictionary(IxpId::Linx);
        let figures = View::new(&snap, &dict).figures().clone();
        assert_eq!(figures.report.fig4a.members_at_rs, 2);
        // HE (6939) is a member, OVH (16276) is not: only OVH's avoid
        // community is in Fig. 6, and its tagger is Fig. 7's only culprit
        let targets: Vec<_> = figures
            .report
            .fig6
            .top
            .iter()
            .filter_map(|r| r.action.target.peer_asn())
            .collect();
        assert_eq!(targets, vec![Asn(16276)]);
        assert_eq!(
            figures.fig7_per_as.into_iter().collect::<Vec<_>>(),
            vec![(Asn(39120), 1)]
        );
    }

    #[test]
    fn pct_helper() {
        assert_eq!(pct(1, 4), 25.0);
        assert_eq!(pct(0, 0), 0.0);
    }
}
