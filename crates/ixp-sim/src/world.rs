//! World building: turn member profiles into announced routes and feed
//! them through a real [`RouteServer`].

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use bgp_model::community::{well_known, ExtendedCommunity, LargeCommunity, StandardCommunity};
use bgp_model::prefix::{Afi, Prefix};
use bgp_model::route::{Origin, Route};
use community_dict::classify::{ext_subtype, large_fn};
use community_dict::ixp::IxpId;
use community_dict::schemes;
use route_server::config::RsConfig;
use route_server::server::RouteServer;

use crate::calibration::calibration;
use crate::members::{generate_members, MemberProfile, UNKNOWN_HIGHS};
use crate::profile::profile;

/// Allocates globally unique, non-bogon synthetic prefixes.
#[derive(Debug, Clone, Default)]
pub struct PrefixAllocator {
    next_v4: u32,
    next_v6: u32,
    allocated_v4: Vec<Prefix>,
    allocated_v6: Vec<Prefix>,
}

impl PrefixAllocator {
    /// Fresh allocator.
    pub fn new() -> Self {
        PrefixAllocator::default()
    }

    /// Allocate a fresh /24 (v4) or /48 (v6).
    pub fn fresh(&mut self, afi: Afi) -> Prefix {
        match afi {
            Afi::Ipv4 => {
                let i = self.next_v4;
                self.next_v4 += 1;
                // 11.0.0.0 upwards in /24 steps: clear of every bogon range
                // for the first ~5.8M allocations
                let a = 11 + (i >> 16) as u8;
                let b = (i >> 8) as u8;
                let c = i as u8;
                let p = Prefix::new_clamped(IpAddr::V4(Ipv4Addr::new(a, b, c, 0)), 24);
                self.allocated_v4.push(p);
                p
            }
            Afi::Ipv6 => {
                let i = self.next_v6;
                self.next_v6 += 1;
                let hi = (i >> 16) as u16;
                let lo = i as u16;
                let p = Prefix::new_clamped(
                    IpAddr::V6(Ipv6Addr::new(0x2a10, hi, lo, 0, 0, 0, 0, 0)),
                    48,
                );
                self.allocated_v6.push(p);
                p
            }
        }
    }

    /// A previously allocated prefix (for multi-origin announcements), or
    /// a fresh one if none exist yet.
    pub fn reused(&mut self, afi: Afi, rng: &mut StdRng) -> Prefix {
        let pool = match afi {
            Afi::Ipv4 => &self.allocated_v4,
            Afi::Ipv6 => &self.allocated_v6,
        };
        if pool.is_empty() {
            self.fresh(afi)
        } else {
            pool[rng.random_range(0..pool.len())]
        }
    }
}

/// One fully built IXP: members, their announced routes, and the RS that
/// ingested them.
pub struct IxpWorld {
    /// Which IXP.
    pub ixp: IxpId,
    /// Member profiles (the ground truth the analyses never see).
    pub members: Vec<MemberProfile>,
    /// The route server after ingesting every announcement.
    pub rs: RouteServer,
}

/// World-building configuration.
#[derive(Debug, Clone, Copy)]
pub struct WorldConfig {
    /// Master seed.
    pub seed: u64,
    /// Scale factor applied to Table 1 member/route counts (1.0 = paper
    /// scale; 0.05 is plenty for tests).
    pub scale: f64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 0x1C0FFEE,
            scale: 0.05,
        }
    }
}

/// Build one IXP world: generate members, synthesize their announcements
/// and run them through the route server.
pub fn build_ixp(ixp: IxpId, config: &WorldConfig) -> IxpWorld {
    let _span = obs::span!(obs::names::SIM_BUILD_IXP);
    let mut rng = StdRng::seed_from_u64(config.seed ^ (ixp as u64).wrapping_mul(0x9E37_79B9));
    let prof = profile(ixp);
    let cal = calibration(ixp);
    let scale = config.scale;
    let n_v4 = ((prof.members_rs_v4 as f64 * scale).round() as usize).max(8);
    let n_v6 = ((prof.members_rs_v6 as f64 * scale).round() as usize)
        .max(4)
        .min(n_v4);
    let routes_v4 = ((prof.routes_v4 as f64 * scale).round() as usize).max(50);
    let routes_v6 = ((prof.routes_v6 as f64 * scale).round() as usize).max(20);

    let members = generate_members(ixp, n_v4, n_v6, routes_v4, routes_v6, &mut rng);

    let rs_config = RsConfig::for_ixp(ixp).with_info_tags(cal.info_tags);
    let mut rs = RouteServer::new(rs_config);
    for m in &members {
        rs.add_member(m.asn, m.v4, m.v6);
    }

    // multi-origin rate makes distinct prefixes < routes (Table 1)
    let p_dup_v4 = 1.0 - (prof.prefixes_v4 as f64 / prof.routes_v4 as f64);
    let p_dup_v6 = 1.0 - (prof.prefixes_v6 as f64 / prof.routes_v6 as f64);
    let mut alloc = PrefixAllocator::new();

    for (mi, m) in members.iter().enumerate() {
        let next_hop_v4 = IpAddr::V4(Ipv4Addr::new(
            185,
            1,
            (mi / 250) as u8,
            (mi % 250 + 1) as u8,
        ));
        let next_hop_v6 = IpAddr::V6(Ipv6Addr::new(0x2001, 0x7f8, 0, 0, 0, 0, 0, (mi + 1) as u16));
        for (afi, count, p_dup, next_hop) in [
            (Afi::Ipv4, m.routes_v4, p_dup_v4, next_hop_v4),
            (Afi::Ipv6, m.routes_v6, p_dup_v6, next_hop_v6),
        ] {
            for _ in 0..count {
                let prefix = if rng.random::<f64>() < p_dup {
                    alloc.reused(afi, &mut rng)
                } else {
                    alloc.fresh(afi)
                };
                let route = synthesize_route(ixp, m, prefix, next_hop, &mut rng);
                rs.announce(m.asn, route);
            }
        }
        // blackhole host routes ride alongside regular announcements
        for k in 0..m.behavior.blackhole_count {
            let victim = Ipv4Addr::new(185, 1, (mi / 250) as u8, (200 + k) as u8);
            let route = Route::builder(Prefix::host(IpAddr::V4(victim)), next_hop_v4)
                .path([m.asn.value()])
                .origin(Origin::Igp)
                .standard(well_known::BLACKHOLE)
                .build();
            rs.announce(m.asn, route);
        }
        if m.behavior.blackhole_v6 && m.v6 {
            let victim = Ipv6Addr::new(0x2a10, 0xffff, mi as u16, 0, 0, 0, 0, 0x666);
            let route = Route::builder(Prefix::host(IpAddr::V6(victim)), next_hop_v6)
                .path([m.asn.value()])
                .origin(Origin::Igp)
                .standard(well_known::BLACKHOLE)
                .build();
            rs.announce(m.asn, route);
        }
    }

    IxpWorld { ixp, members, rs }
}

/// Synthesize one route announcement for a member: AS path, the member's
/// action communities (per its behaviour), operator-private communities,
/// and optional large/extended action variants.
fn synthesize_route(
    ixp: IxpId,
    m: &MemberProfile,
    prefix: Prefix,
    next_hop: IpAddr,
    rng: &mut StdRng,
) -> Route {
    // AS path: 65% self-originated, else via a (4-byte) customer;
    // occasional self-prepending unrelated to the RS actions
    let mut path: Vec<u32> = vec![m.asn.value()];
    if rng.random::<f64>() < 0.35 {
        path.push(263_500 + rng.random_range(0u32..400));
        if rng.random::<f64>() < 0.3 {
            path.push(264_000 + rng.random_range(0u32..400));
        }
    }
    if rng.random::<f64>() < 0.05 {
        path.insert(0, m.asn.value()); // self prepend
    }

    let mut builder =
        Route::builder(prefix, next_hop)
            .path(path)
            .origin(if rng.random::<f64>() < 0.9 {
                Origin::Igp
            } else {
                Origin::Incomplete
            });

    let b = &m.behavior;
    let uses_action = match prefix.afi() {
        Afi::Ipv4 => b.uses_action_v4,
        Afi::Ipv6 => b.uses_action_v6,
    };
    let tagged = uses_action && rng.random::<f64>() < b.p_route_tagged;
    if tagged {
        if b.avoid_all {
            builder = builder.standard(schemes::avoid_all_community(ixp));
        }
        for t in &b.avoid_list {
            debug_assert!(t.is_16bit(), "standard communities cannot target {t}");
            builder = builder.standard(schemes::avoid_community(ixp, *t));
        }
        for t in &b.only_list {
            debug_assert!(t.is_16bit(), "standard communities cannot target {t}");
            builder = builder.standard(schemes::only_community(ixp, *t));
        }
        if let Some((target, count)) = b.prepend {
            match target {
                Some(t) => {
                    if let Some(c) = schemes::prepend_community(ixp, t, count) {
                        builder = builder.standard(c);
                    }
                }
                None => {
                    if let Some(c) = schemes::prepend_all_community(ixp, count) {
                        builder = builder.standard(c);
                    }
                }
            }
        }
    }

    // operator-private communities: unknown to the IXP dictionary (Fig. 1)
    let mut unknowns = b.unknown_per_route.floor() as usize;
    if rng.random::<f64>() < b.unknown_per_route.fract() {
        unknowns += 1;
    }
    for _ in 0..unknowns {
        let high = UNKNOWN_HIGHS[rng.random_range(0..UNKNOWN_HIGHS.len())];
        let low = rng.random_range(1u16..1000);
        builder = builder.standard(StandardCommunity::from_parts(high, low));
    }

    let mut route = builder.build();

    // large/extended action variants (Fig. 2's non-standard shares)
    if tagged && b.use_large {
        let rs_asn = ixp.rs_asn().value();
        for t in b.avoid_list.iter().take(8) {
            route
                .large_communities
                .push(LargeCommunity::new(rs_asn, large_fn::AVOID, t.value()));
        }
        route.large_communities.push(LargeCommunity::new(
            rs_asn,
            large_fn::INFO_ORIGIN,
            rng.random_range(0u32..16),
        ));
    }
    if tagged && b.use_extended {
        let rs16 = ixp.rs_asn().value() as u16;
        let t = b
            .avoid_list
            .first()
            .copied()
            .unwrap_or(crate::universe::asns::GOOGLE);
        route
            .extended_communities
            .push(ExtendedCommunity::two_octet_as(
                ext_subtype::PREPEND1,
                rs16,
                t.value(),
            ));
        route
            .extended_communities
            .push(ExtendedCommunity::two_octet_as(
                ext_subtype::AVOID,
                rs16,
                t.value(),
            ));
    }
    route
}

/// Build all requested IXPs.
pub fn build_world(ixps: &[IxpId], config: &WorldConfig) -> Vec<IxpWorld> {
    let _span = obs::span!(obs::names::SIM_BUILD_WORLD);
    // Each IXP derives its own RNG stream from the seed, so worlds build
    // in parallel with an ordered join — same Vec as the serial loop.
    par::map_indexed(ixps, |_, ixp| build_ixp(*ixp, config))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocator_prefixes_unique_and_clean() {
        let mut alloc = PrefixAllocator::new();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..2000 {
            let p = alloc.fresh(Afi::Ipv4);
            assert!(!p.is_bogon(), "{p}");
            assert!(!p.is_too_specific() && !p.is_too_broad());
            assert!(seen.insert(p), "duplicate {p}");
        }
        for _ in 0..1000 {
            let p = alloc.fresh(Afi::Ipv6);
            assert!(!p.is_bogon(), "{p}");
            assert!(seen.insert(p), "duplicate {p}");
        }
    }

    #[test]
    fn build_small_world() {
        let cfg = WorldConfig {
            seed: 42,
            scale: 0.02,
        };
        let world = build_ixp(IxpId::DeCixFra, &cfg);
        let rs = &world.rs;
        // every member has a session
        assert_eq!(rs.members_for(Afi::Ipv4).count(), world.members.len());
        // routes were accepted (import filters pass on synthetic routes)
        assert!(rs.stats().routes_accepted > 1000);
        // nearly nothing gets filtered: blackholes at DE-CIX are legal
        assert_eq!(rs.stats().filtered_total(), 0);
        // action communities were seen and some targets are non-members
        assert!(rs.stats().action_instances > 0);
        assert!(rs.stats().ineffective_action_instances > 0);
    }

    #[test]
    fn deterministic_build() {
        let cfg = WorldConfig {
            seed: 7,
            scale: 0.01,
        };
        let a = build_ixp(IxpId::Linx, &cfg);
        let b = build_ixp(IxpId::Linx, &cfg);
        assert_eq!(a.members, b.members);
        assert_eq!(a.rs.stats().action_instances, b.rs.stats().action_instances);
        assert_eq!(a.rs.accepted().route_count(), b.rs.accepted().route_count());
    }

    #[test]
    fn distinct_prefixes_below_routes_except_amsix() {
        let cfg = WorldConfig {
            seed: 9,
            scale: 0.03,
        };
        let decix = build_ixp(IxpId::DeCixFra, &cfg);
        let routes = decix.rs.accepted().route_count();
        let prefixes = decix.rs.accepted().distinct_prefixes();
        assert!(
            prefixes < routes,
            "DE-CIX should have multi-origin prefixes ({prefixes} vs {routes})"
        );
        let ams = build_ixp(IxpId::AmsIx, &cfg);
        let routes = ams.rs.accepted().route_count();
        let prefixes = ams.rs.accepted().distinct_prefixes();
        // AMS-IX: routes == prefixes in Table 1 (p_dup = 0); blackhole
        // host routes can add a couple of prefixes
        assert!(routes - prefixes <= 8, "{routes} vs {prefixes}");
    }

    #[test]
    fn decix_has_v6_blackholes_too() {
        // Table 2's small IPv6 blackholing population at DE-CIX
        let cfg = WorldConfig {
            seed: 5,
            scale: 0.15,
        };
        let world = build_ixp(IxpId::DeCixFra, &cfg);
        let v6_bh = world
            .rs
            .accepted()
            .iter()
            .filter(|(_, r)| {
                r.afi() == bgp_model::prefix::Afi::Ipv6 && r.has_standard(well_known::BLACKHOLE)
            })
            .count();
        assert!(v6_bh >= 1, "expected at least one v6 blackhole route");
        // and far fewer than the v4 ones
        let v4_bh = world
            .rs
            .accepted()
            .iter()
            .filter(|(_, r)| {
                r.afi() == bgp_model::prefix::Afi::Ipv4 && r.has_standard(well_known::BLACKHOLE)
            })
            .count();
        assert!(v4_bh > v6_bh);
    }

    #[test]
    fn blackholes_present_only_at_decix_family_and_amsix() {
        let cfg = WorldConfig {
            seed: 11,
            scale: 0.03,
        };
        for ixp in [IxpId::DeCixFra, IxpId::Linx] {
            let world = build_ixp(ixp, &cfg);
            let has_bh = world
                .rs
                .accepted()
                .iter()
                .any(|(_, r)| r.has_standard(well_known::BLACKHOLE));
            assert_eq!(
                has_bh,
                community_dict::schemes::supports_blackhole(ixp),
                "{ixp}"
            );
        }
    }
}
