//! End-to-end integration: world → route servers → Looking Glass →
//! collector → snapshots → every analysis, with the paper's qualitative
//! findings asserted as invariants.

use std::sync::OnceLock;

use ixp_actions::prelude::*;

/// The world every test collects from.
const WORLD: WorldConfig = WorldConfig {
    seed: 0x1C0FFEE,
    scale: 0.05,
};

/// The scenario is expensive to build; share one across all tests.
fn scenario() -> &'static Scenario {
    static SCENARIO: OnceLock<Scenario> = OnceLock::new();
    SCENARIO.get_or_init(|| {
        ixp_sim::scenario::run(&ScenarioConfig {
            world: WORLD,
            ixps: IxpId::BIG_FOUR.to_vec(),
            failures: FailureModel::NONE,
            day: 83,
            mode: ixp_sim::timeline::CollectionMode::Snapshot,
        })
    })
}

#[test]
fn full_pipeline_reproduces_headline_findings() {
    let scenario = scenario();
    assert_eq!(scenario.store.len(), 8); // 4 IXPs × 2 families

    for ixp in IxpId::BIG_FOUR {
        let dict = schemes::dictionary(ixp);
        let snap = scenario.store.latest(ixp, Afi::Ipv4).expect("v4 snapshot");
        let view = View::new(snap, &dict);

        // finding: most observed communities have a defined meaning (>70%)
        let f1 = fig1(&view);
        assert!(
            f1.defined_pct() > 70.0,
            "{ixp}: defined {:.1}%",
            f1.defined_pct()
        );

        // finding: standard communities dominate the defined set (>80%)
        let f2 = fig2(&view);
        assert!(
            f2.standard_pct() > 80.0,
            "{ixp}: standard {:.1}%",
            f2.standard_pct()
        );

        // finding (ii): action ≥ two-thirds of standard defined
        let f3 = fig3(&view);
        assert!(
            f3.action_pct() > 63.0,
            "{ixp}: action {:.1}%",
            f3.action_pct()
        );

        // finding (i): over one-third of members use action communities
        let f4a = fig4a(&view);
        assert!(
            f4a.ases_pct() > 30.0 && f4a.ases_pct() < 62.0,
            "{ixp}: users {:.1}%",
            f4a.ases_pct()
        );
        // and they tag the majority of routes
        assert!(
            f4a.routes_pct() > 55.0,
            "{ixp}: routes {:.1}%",
            f4a.routes_pct()
        );

        // finding (iii): a large share of action instances target
        // non-members (≥ roughly one-third)
        let ineff = ineffective(&view);
        assert!(
            ineff.pct() > 25.0 && ineff.pct() < 72.0,
            "{ixp}: ineffective {:.1}%",
            ineff.pct()
        );

        // do-not-announce is the favourite type everywhere (§5.3)
        let tc = type_counts(&view);
        assert!(
            tc.pct(ActionGroup::DoNotAnnounceTo) > tc.pct(ActionGroup::AnnounceOnlyTo),
            "{ixp}: avoid must dominate"
        );
        assert!(tc.pct(ActionGroup::PrependTo) < 5.0);
    }
}

#[test]
fn v6_usage_lower_than_v4() {
    let scenario = scenario();
    for ixp in IxpId::BIG_FOUR {
        let dict = schemes::dictionary(ixp);
        let v4 = View::new(scenario.store.latest(ixp, Afi::Ipv4).unwrap(), &dict);
        let v6 = View::new(scenario.store.latest(ixp, Afi::Ipv6).unwrap(), &dict);
        let (a4, a6) = (fig4a(&v4), fig4a(&v6));
        // fewer ASes tag v6 routes than v4 routes. (Percentages can flip
        // at small scale because the v6 member sample skews to the large
        // networks, so compare absolute counts.)
        assert!(
            a6.ases_using_actions < a4.ases_using_actions,
            "{ixp}: v6 {} !< v4 {}",
            a6.ases_using_actions,
            a4.ases_using_actions
        );
        // fewer members run v6 sessions at every IXP (Table 1)
        assert!(a6.members_at_rs < a4.members_at_rs, "{ixp}");
    }
}

#[test]
fn signature_targets_lead_fig5() {
    use ixp_sim::universe::asns;
    let scenario = scenario();
    let expect = [
        (IxpId::IxBrSp, asns::HE),
        (IxpId::Linx, asns::GOOGLE),
        (IxpId::AmsIx, asns::OVH),
    ];
    for (ixp, target) in expect {
        let dict = schemes::dictionary(ixp);
        let snap = scenario.store.latest(ixp, Afi::Ipv4).unwrap();
        let view = View::new(snap, &dict);
        let f5 = fig5(&view);
        // at the test's small scale ties among the leaders are possible;
        // the signature target must sit in the top three (the repro
        // harness verifies exact leadership at scale 0.2)
        let rank = f5
            .top
            .iter()
            .position(|r| r.action.target.peer_asn() == Some(target))
            .unwrap_or(usize::MAX);
        assert!(
            rank < 3,
            "{ixp}: signature target rank {rank}, top is {} ({})",
            f5.top[0].community,
            f5.top[0].label
        );
        assert_eq!(f5.top[0].action.kind.group(), ActionGroup::DoNotAnnounceTo);
    }
    // DE-CIX: the deny-all idiom tops the chart
    let dict = schemes::dictionary(IxpId::DeCixFra);
    let snap = scenario.store.latest(IxpId::DeCixFra, Afi::Ipv4).unwrap();
    let f5 = fig5(&View::new(snap, &dict));
    assert_eq!(f5.top[0].action.target, Target::AllPeers);
    assert_eq!(f5.top[0].action.kind.group(), ActionGroup::DoNotAnnounceTo);
}

#[test]
fn hurricane_electric_is_top_culprit_everywhere() {
    let scenario = scenario();
    for ixp in IxpId::BIG_FOUR {
        let dict = schemes::dictionary(ixp);
        let snap = scenario.store.latest(ixp, Afi::Ipv4).unwrap();
        let f7 = fig7(&View::new(snap, &dict), 10);
        assert_eq!(
            f7.top[0].asn,
            ixp_sim::universe::asns::HE,
            "{ixp}: top culprit is {}",
            f7.top[0].name
        );
        // and the rest of the top-10 is dominated by large ISPs
        let isps = f7
            .top
            .iter()
            .filter(|c| {
                community_dict::known::lookup(c.asn)
                    .map(|k| k.category == community_dict::known::Category::LargeIsp)
                    .unwrap_or(false)
            })
            .count();
        assert!(isps >= 5, "{ixp}: only {isps} large ISPs in top-10");
    }
}

#[test]
fn culprit_overlap_across_ixps() {
    // §5.5: "seven ASes of the Top-10 ... are the same on DE-CIX and
    // AMS-IX"
    let scenario = scenario();
    let tops: Vec<Vec<Asn>> = [IxpId::DeCixFra, IxpId::AmsIx]
        .iter()
        .map(|ixp| {
            let dict = schemes::dictionary(*ixp);
            let snap = scenario.store.latest(*ixp, Afi::Ipv4).unwrap();
            fig7(&View::new(snap, &dict), 10)
                .top
                .iter()
                .map(|c| c.asn)
                .collect()
        })
        .collect();
    let overlap = tops[0].iter().filter(|a| tops[1].contains(a)).count();
    assert!(overlap >= 5, "only {overlap} of top-10 culprits overlap");
}

#[test]
fn fig4_skew_and_correlation() {
    let scenario = scenario();
    let dict = schemes::dictionary(IxpId::DeCixFra);
    let snap = scenario.store.latest(IxpId::DeCixFra, Afi::Ipv4).unwrap();
    let view = View::new(snap, &dict);

    // Fig. 4b: heavy skew — the top 10% of ASes hold >80%, the bottom
    // 90% hold <20% (paper: bottom 90% hold <5% at full scale)
    let f4b = fig4b(&view);
    assert!(
        f4b.share_of_top(0.10) > 0.5,
        "top-10% share {:.2}",
        f4b.share_of_top(0.10)
    );
    // the bottom half of ASes hold almost nothing (the Fig. 4b tail)
    assert!(f4b.share_of_top(0.5) > 0.95);

    // Fig. 4c: log-log correlation along the diagonal, upper-left
    // outliers only
    let f4c = fig4c(&view);
    assert!(
        f4c.log_correlation() > 0.45,
        "correlation {:.2}",
        f4c.log_correlation()
    );
    let (upper_left, bottom_right) = f4c.asymmetry();
    assert!(upper_left > 0);
    assert_eq!(bottom_right, 0, "no small ASes with huge community counts");
}

#[test]
fn snapshot_consistency_with_rs_ground_truth() {
    let scenario = scenario();
    for ixp in IxpId::BIG_FOUR {
        // an independent build of the collected world, from the same seed
        let world = ixp_sim::world::build_ixp(ixp, &WORLD);
        let snap = scenario.store.latest(world.ixp, Afi::Ipv4).unwrap();
        let rs_count = world
            .rs
            .accepted()
            .iter()
            .filter(|(_, r)| r.afi() == Afi::Ipv4)
            .count();
        assert_eq!(snap.route_count(), rs_count, "{}", world.ixp);
        assert_eq!(
            snap.member_count(),
            world.rs.members_for(Afi::Ipv4).count(),
            "{}",
            world.ixp
        );
        // RS's own ineffectiveness accounting agrees with the analysis
        // in direction (both nonzero)
        assert!(world.rs.stats().ineffective_action_instances > 0);
    }
}
