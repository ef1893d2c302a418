//! The incremental report engine: every aggregate behind the paper's
//! tables and figures maintained as *mergeable, decrementable* counter
//! state, updated per applied [`RibEvent`](route_server::events::RibEvent)
//! as the stream path mutates its [`stream::state::RouterState`] — so day
//! N+1's report costs O(churn) instead of O(world).
//!
//! # Design
//!
//! Every aggregate is a commutative-monoid counter with an exact inverse:
//!
//! - `apply(delta)` — add an announced route's contribution;
//! - `retract(delta)` — subtract a withdrawn route's contribution, the
//!   exact inverse of `apply`;
//! - `merge(other)` — combine two partial states built over *disjoint
//!   peer sets* (associative and commutative, so per-IXP shards compose
//!   at an ordered [`par`] join in any grouping).
//!
//! The engine consumes [`RouteDelta`]s from
//! [`RouterState::apply_with`](stream::state::RouterState::apply_with):
//! each delta carries both sides of the store mutation plus the session
//! context that decides visibility, so no shadow copy of the peer table
//! is kept here. Announces retract the replaced route and apply the new
//! one; withdraws and synthesized peer-down withdraws retract; session
//! flag changes re-scope a peer's stored routes per family.
//!
//! # One counting path
//!
//! The same counters serve both ways a unit is built. Delta-maintained,
//! they follow the stream; [`fold_snapshot`] loads a whole snapshot into
//! fresh ones, and that fold is what [`View`](crate::core::View) and
//! [`full_report`](crate::summary::full_report) read. Either way,
//! finalization rebuilds the count maps and hands them to the shared
//! `from_counts` derivations, so every float division, sort and
//! tie-break runs in one place. The golden equivalence suite
//! (`tests/incremental_equivalence.rs`) and the chaos
//! `IncrementalDivergence` oracle compare the delta-maintained engine
//! against a fresh fold of the end-of-day snapshot, which checks the
//! retract, merge and session-rescope algebra; the committed
//! `full_report.json` golden and the per-figure unit tests pin the
//! counting rules themselves.
//!
//! # Interning
//!
//! The hot delta path never scans the dictionary: community values and
//! ASNs are interned to dense `u32` ids on first sight (paying one
//! dictionary classification), and every repeat is a `Vec` index into the
//! ID-indexed classification table. The intern maps are lookup-only —
//! nothing iterates them, all serialized output is rebuilt through
//! `BTreeMap`s at finalize.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use bgp_model::asn::Asn;
use bgp_model::community::StandardCommunity;
use bgp_model::prefix::Afi;
use bgp_model::route::Route;
use community_dict::action::{Action, ActionGroup};
use community_dict::classify::{classify_extended, classify_large};
use community_dict::dictionary::Dictionary;
use community_dict::ixp::IxpId;
use community_dict::semantics::{Classification, Semantics};
use looking_glass::snapshot::Snapshot;
use stream::prelude::{DeltaConsumer, RouteDelta};

use crate::actions::{Table2, TypeCounts};
use crate::fig4::{Fig4a, Fig4b, Fig4c};
use crate::figs_overview::{Fig1, Fig2, Fig3};
use crate::summary::{FullReport, SnapshotReport, UnitFigures};
use crate::tops::{Fig7, Ineffective, TopCommunities};

/// Direction of a route update: the two halves of the monoid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    /// Add the route's contribution.
    Apply,
    /// Subtract it (exact inverse of [`Dir::Apply`]).
    Retract,
}

/// Step a counter in `dir`. Saturating on both edges: a correct
/// apply/retract pairing never saturates (retract only ever follows the
/// matching apply), and under a deliberately broken pairing (the chaos
/// `disable_retraction` fixture) clamping at zero keeps the engine
/// panic-free while the divergence oracle reports the corruption.
fn step(counter: &mut u64, dir: Dir) {
    *counter = match dir {
        Dir::Apply => counter.saturating_add(1),
        Dir::Retract => counter.saturating_sub(1),
    };
}

/// Position of `group` in [`ActionGroup::ALL`] — the fixed index used by
/// the per-AS and per-unit group counter arrays.
fn group_idx(group: ActionGroup) -> usize {
    ActionGroup::ALL
        .iter()
        .position(|g| *g == group)
        .unwrap_or(0)
}

/// §5.5's ineffective-target rule: an action is ineffective when it
/// targets a single AS with no session at the RS. Evaluated at finalize
/// time against the unit's member set.
fn is_ineffective(action: &Action, members: &BTreeSet<Asn>) -> bool {
    match action.target.peer_asn() {
        Some(asn) => !members.contains(&asn),
        None => false,
    }
}

/// Cached classification of one interned community value.
#[derive(Debug, Clone, Copy)]
enum CommMeta {
    /// No IXP meaning.
    Unknown,
    /// IXP-defined, informational.
    Info,
    /// IXP-defined action.
    Action(Action),
}

impl From<Classification> for CommMeta {
    fn from(c: Classification) -> Self {
        match c {
            Classification::Unknown => CommMeta::Unknown,
            Classification::IxpDefined(Semantics::Informational(_)) => CommMeta::Info,
            Classification::IxpDefined(Semantics::Action(a)) => CommMeta::Action(a),
        }
    }
}

/// Interner for standard community values: value → dense id, with the
/// classification paid once at intern time. The `ids` map is lookup-only;
/// iteration happens over the dense `Vec`s (or not at all).
#[derive(Debug, Clone, Default)]
struct CommTable {
    ids: HashMap<u32, u32>,
    values: Vec<u32>,
    meta: Vec<CommMeta>,
}

impl CommTable {
    fn intern(&mut self, dict: &Dictionary, c: StandardCommunity) -> u32 {
        if let Some(&id) = self.ids.get(&c.0) {
            return id;
        }
        self.push(c.0, CommMeta::from(dict.classify(c)))
    }

    /// Intern with a known classification (merge path: the other shard
    /// already paid the dictionary lookup).
    fn intern_with_meta(&mut self, value: u32, meta: CommMeta) -> u32 {
        if let Some(&id) = self.ids.get(&value) {
            return id;
        }
        self.push(value, meta)
    }

    fn push(&mut self, value: u32, meta: CommMeta) -> u32 {
        let id = self.values.len() as u32;
        self.ids.insert(value, id);
        self.values.push(value);
        self.meta.push(meta);
        id
    }

    fn meta(&self, id: u32) -> CommMeta {
        self.meta
            .get(id as usize)
            .copied()
            .unwrap_or(CommMeta::Unknown)
    }

    fn value(&self, id: u32) -> u32 {
        self.values.get(id as usize).copied().unwrap_or(0)
    }
}

/// Interner for ASNs: ASN → dense id indexing the per-AS counter table.
#[derive(Debug, Clone, Default)]
struct AsnTable {
    ids: HashMap<u32, u32>,
    values: Vec<Asn>,
}

impl AsnTable {
    fn intern(&mut self, asn: Asn) -> u32 {
        if let Some(&id) = self.ids.get(&asn.value()) {
            return id;
        }
        let id = self.values.len() as u32;
        self.ids.insert(asn.value(), id);
        self.values.push(asn);
        id
    }

    fn value(&self, id: u32) -> Asn {
        self.values.get(id as usize).copied().unwrap_or(Asn(0))
    }
}

/// Per-AS decrementable counters (indexed by interned ASN id).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PerAs {
    /// Visible routes announced by this AS.
    routes: u64,
    /// Visible routes carrying at least one action community.
    tagged: u64,
    /// Action instances across this AS's visible routes.
    instances: u64,
    /// Action instances per [`ActionGroup::ALL`] position.
    groups: [u64; 4],
}

impl PerAs {
    fn is_zero(&self) -> bool {
        *self == PerAs::default()
    }

    fn add(&mut self, other: &PerAs) {
        self.routes = self.routes.saturating_add(other.routes);
        self.tagged = self.tagged.saturating_add(other.tagged);
        self.instances = self.instances.saturating_add(other.instances);
        for (s, o) in self.groups.iter_mut().zip(other.groups.iter()) {
            *s = s.saturating_add(*o);
        }
    }
}

/// All decrementable aggregate state for one (IXP, family) unit — the
/// counters behind every figure and table of one [`SnapshotReport`].
#[derive(Debug, Clone, Default)]
struct UnitAgg {
    /// Peers holding a session for this family (Table/figure denominators
    /// and the §5.5 membership test).
    members: BTreeSet<Asn>,
    /// Community instances with no IXP meaning, all three types (Fig. 1).
    unknown: u64,
    /// IXP-defined extended instances (Figs. 1–2).
    ext_defined: u64,
    /// IXP-defined large instances (Figs. 1–2).
    large_defined: u64,
    /// Standard IXP-defined action instances (Figs. 3–7, Table 2, §5.5).
    std_action: u64,
    /// Standard IXP-defined informational instances (Figs. 1–3).
    std_info: u64,
    /// Visible routes (Fig. 4a).
    routes_total: u64,
    /// Per-AS counters, indexed by interned ASN id.
    per_as: Vec<PerAs>,
    /// Action instances per interned community id (Figs. 5–6).
    per_comm: Vec<u64>,
    /// Action instances per (ASN id, community id) — Fig. 7's
    /// tagger×community matrix. Entries are removed when they retract to
    /// zero, keeping the map churn-bounded.
    per_as_comm: BTreeMap<(u32, u32), u64>,
    /// Action instances per [`ActionGroup::ALL`] position (§5.3).
    insts_per_group: [u64; 4],
}

impl UnitAgg {
    /// Fold `other` (built over a disjoint peer set) into `self`,
    /// re-keying `other`'s dense ids through the id maps.
    fn merge_from(&mut self, other: &UnitAgg, asn_map: &[u32], comm_map: &[u32]) {
        self.members.extend(other.members.iter().copied());
        self.unknown = self.unknown.saturating_add(other.unknown);
        self.ext_defined = self.ext_defined.saturating_add(other.ext_defined);
        self.large_defined = self.large_defined.saturating_add(other.large_defined);
        self.std_action = self.std_action.saturating_add(other.std_action);
        self.std_info = self.std_info.saturating_add(other.std_info);
        self.routes_total = self.routes_total.saturating_add(other.routes_total);
        for (i, p) in other.per_as.iter().enumerate() {
            if p.is_zero() {
                continue;
            }
            let sid = asn_map.get(i).copied().unwrap_or(0) as usize;
            if sid >= self.per_as.len() {
                self.per_as.resize(sid + 1, PerAs::default());
            }
            if let Some(sp) = self.per_as.get_mut(sid) {
                sp.add(p);
            }
        }
        for (i, &n) in other.per_comm.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let sid = comm_map.get(i).copied().unwrap_or(0) as usize;
            if sid >= self.per_comm.len() {
                self.per_comm.resize(sid + 1, 0);
            }
            if let Some(slot) = self.per_comm.get_mut(sid) {
                *slot = slot.saturating_add(n);
            }
        }
        for (&(aid, cid), &n) in &other.per_as_comm {
            if n == 0 {
                continue;
            }
            let key = (
                asn_map.get(aid as usize).copied().unwrap_or(0),
                comm_map.get(cid as usize).copied().unwrap_or(0),
            );
            let slot = self.per_as_comm.entry(key).or_insert(0);
            *slot = slot.saturating_add(n);
        }
        for (s, o) in self
            .insts_per_group
            .iter_mut()
            .zip(other.insts_per_group.iter())
        {
            *s = s.saturating_add(*o);
        }
    }
}

/// One route's full contribution, applied or retracted. The caller has
/// already established visibility (family match + live session).
fn update_route(
    comms: &mut CommTable,
    asns: &mut AsnTable,
    unit: &mut UnitAgg,
    dict: &Dictionary,
    peer: Asn,
    route: &Route,
    dir: Dir,
) {
    let aid = asns.intern(peer);
    if aid as usize >= unit.per_as.len() {
        unit.per_as.resize(aid as usize + 1, PerAs::default());
    }
    step(&mut unit.routes_total, dir);
    let mut has_action = false;
    for c in &route.standard_communities {
        let cid = comms.intern(dict, *c);
        match comms.meta(cid) {
            CommMeta::Unknown => step(&mut unit.unknown, dir),
            CommMeta::Info => step(&mut unit.std_info, dir),
            CommMeta::Action(action) => {
                has_action = true;
                step(&mut unit.std_action, dir);
                let gi = group_idx(action.kind.group());
                if let Some(slot) = unit.insts_per_group.get_mut(gi) {
                    step(slot, dir);
                }
                if cid as usize >= unit.per_comm.len() {
                    unit.per_comm.resize(cid as usize + 1, 0);
                }
                if let Some(slot) = unit.per_comm.get_mut(cid as usize) {
                    step(slot, dir);
                }
                if let Some(p) = unit.per_as.get_mut(aid as usize) {
                    step(&mut p.instances, dir);
                    if let Some(g) = p.groups.get_mut(gi) {
                        step(g, dir);
                    }
                }
                let e = unit.per_as_comm.entry((aid, cid)).or_insert(0);
                step(e, dir);
                if *e == 0 {
                    unit.per_as_comm.remove(&(aid, cid));
                }
            }
        }
    }
    for lc in &route.large_communities {
        match classify_large(dict.ixp(), *lc) {
            Classification::IxpDefined(_) => step(&mut unit.large_defined, dir),
            Classification::Unknown => step(&mut unit.unknown, dir),
        }
    }
    for ec in &route.extended_communities {
        match classify_extended(dict.ixp(), *ec) {
            Classification::IxpDefined(_) => step(&mut unit.ext_defined, dir),
            Classification::Unknown => step(&mut unit.unknown, dir),
        }
    }
    if let Some(p) = unit.per_as.get_mut(aid as usize) {
        step(&mut p.routes, dir);
        if has_action {
            step(&mut p.tagged, dir);
        }
    }
}

/// The per-IXP incremental engine: both family units plus the shared
/// community/ASN interners (the dictionary is behind an [`Arc`], so
/// cloning an engine — e.g. for a benchmark baseline — shares it).
#[derive(Clone)]
pub struct IxpEngine {
    ixp: IxpId,
    dict: Arc<Dictionary>,
    comms: CommTable,
    asns: AsnTable,
    v4: UnitAgg,
    v6: UnitAgg,
}

impl IxpEngine {
    /// An empty engine for one IXP.
    pub fn new(ixp: IxpId, dict: Arc<Dictionary>) -> Self {
        IxpEngine {
            ixp,
            dict,
            comms: CommTable::default(),
            asns: AsnTable::default(),
            v4: UnitAgg::default(),
            v6: UnitAgg::default(),
        }
    }

    fn unit(&self, afi: Afi) -> &UnitAgg {
        match afi {
            Afi::Ipv4 => &self.v4,
            Afi::Ipv6 => &self.v6,
        }
    }

    /// Route one visible-route update to the family's unit. No-op when
    /// the route is not of family `afi` (a v6 route never contributes to
    /// the v4 unit, matching the snapshot filter).
    fn route_update(&mut self, afi: Afi, peer: Asn, route: &Route, dir: Dir) {
        if route.afi() != afi {
            return;
        }
        let dict = &self.dict;
        let (comms, asns, unit) = match afi {
            Afi::Ipv4 => (&mut self.comms, &mut self.asns, &mut self.v4),
            Afi::Ipv6 => (&mut self.comms, &mut self.asns, &mut self.v6),
        };
        update_route(comms, asns, unit, dict, peer, route, dir);
    }

    /// Apply one store delta. `retraction_enabled` is the chaos switch:
    /// when off, every `Retract`-direction route update is skipped
    /// (membership still tracks), deliberately corrupting the aggregates
    /// so the `IncrementalDivergence` oracle can prove it notices.
    fn apply_delta(&mut self, delta: &RouteDelta<'_>, retraction_enabled: bool) {
        match delta {
            RouteDelta::PeerUp {
                peer,
                prev,
                now,
                routes,
            } => {
                for afi in [Afi::Ipv4, Afi::Ipv6] {
                    let had = prev.map(|s| s.has(afi)).unwrap_or(false);
                    let has = now.has(afi);
                    if had == has {
                        continue;
                    }
                    if has {
                        match afi {
                            Afi::Ipv4 => self.v4.members.insert(*peer),
                            Afi::Ipv6 => self.v6.members.insert(*peer),
                        };
                        for route in routes.values() {
                            self.route_update(afi, *peer, route, Dir::Apply);
                        }
                    } else {
                        match afi {
                            Afi::Ipv4 => self.v4.members.remove(peer),
                            Afi::Ipv6 => self.v6.members.remove(peer),
                        };
                        if retraction_enabled {
                            for route in routes.values() {
                                self.route_update(afi, *peer, route, Dir::Retract);
                            }
                        }
                    }
                }
            }
            RouteDelta::PeerDown { peer, prev, routes } => {
                for afi in [Afi::Ipv4, Afi::Ipv6] {
                    if !prev.map(|s| s.has(afi)).unwrap_or(false) {
                        continue;
                    }
                    match afi {
                        Afi::Ipv4 => self.v4.members.remove(peer),
                        Afi::Ipv6 => self.v6.members.remove(peer),
                    };
                    if retraction_enabled {
                        for route in routes.values() {
                            self.route_update(afi, *peer, route, Dir::Retract);
                        }
                    }
                }
            }
            RouteDelta::Announce {
                peer,
                session,
                old,
                new,
            } => {
                let Some(session) = session else { return };
                if let Some(old) = old {
                    if session.has(old.afi()) && retraction_enabled {
                        self.route_update(old.afi(), *peer, old, Dir::Retract);
                    }
                }
                if session.has(new.afi()) {
                    self.route_update(new.afi(), *peer, new, Dir::Apply);
                }
            }
            RouteDelta::Withdraw { peer, session, old } => {
                let Some(session) = session else { return };
                if session.has(old.afi()) && retraction_enabled {
                    self.route_update(old.afi(), *peer, old, Dir::Retract);
                }
            }
        }
    }

    /// Fold `other` into `self`. Correct (equal to having fed both
    /// shards' deltas into one engine) when the shards saw *disjoint
    /// peers* — the per-IXP sharding [`par`] composition uses. The fold
    /// is associative and commutative: every counter is a sum, members a
    /// set union, and `other`'s dense ids are re-keyed through `self`'s
    /// interners (classifications are carried over, not re-derived).
    pub fn merge(&mut self, other: &IxpEngine) {
        let comm_map: Vec<u32> = other
            .comms
            .values
            .iter()
            .zip(other.comms.meta.iter())
            .map(|(&v, &m)| self.comms.intern_with_meta(v, m))
            .collect();
        let asn_map: Vec<u32> = other
            .asns
            .values
            .iter()
            .map(|&a| self.asns.intern(a))
            .collect();
        self.v4.merge_from(&other.v4, &asn_map, &comm_map);
        self.v6.merge_from(&other.v6, &asn_map, &comm_map);
    }

    /// Finalize one family's figures from the live counters.
    pub fn unit_report(&self, afi: Afi, day: u32) -> UnitFigures {
        finalize(self.ixp, &self.comms, &self.asns, self.unit(afi), afi, day)
    }
}

/// Fold one snapshot from scratch: every `snap.routes` entry goes by
/// reference through `update_route`, the delta path's apply step, into
/// the snapshot's family, and the members are `snap.members`. Every route
/// counts, whether or not its announcer holds a session for the family
/// (the snapshot's definition, not the stream's `PeerUp` visibility rule).
pub fn fold_snapshot(snap: &Snapshot, dict: &Dictionary) -> UnitFigures {
    let mut comms = CommTable::default();
    let mut asns = AsnTable::default();
    let mut unit = UnitAgg {
        members: snap.members.iter().copied().collect(),
        ..UnitAgg::default()
    };
    for (peer, route) in &snap.routes {
        update_route(
            &mut comms,
            &mut asns,
            &mut unit,
            dict,
            *peer,
            route,
            Dir::Apply,
        );
    }
    finalize(snap.ixp, &comms, &asns, &unit, snap.afi, snap.day)
}

/// Finalize one unit: rebuild the count maps (zero entries absent,
/// `BTreeMap` order) and derive every figure through the shared
/// `from_counts` constructors, so every float division, sort and
/// tie-break runs in one place.
fn finalize(
    ixp: IxpId,
    comms: &CommTable,
    asns: &AsnTable,
    unit: &UnitAgg,
    afi: Afi,
    day: u32,
) -> UnitFigures {
    let members_at_rs = unit.members.len();

    // Per-AS maps, keyed back from dense ids; entries exist only where
    // the AS has a nonzero count.
    let mut per_as_routes: BTreeMap<Asn, u64> = BTreeMap::new();
    let mut per_as_insts: BTreeMap<Asn, u64> = BTreeMap::new();
    let mut ases_using_actions = 0usize;
    let mut routes_with_actions = 0u64;
    for (i, p) in unit.per_as.iter().enumerate() {
        let asn = asns.value(i as u32);
        if p.routes > 0 {
            per_as_routes.insert(asn, p.routes);
        }
        if p.instances > 0 {
            per_as_insts.insert(asn, p.instances);
        }
        if p.tagged > 0 {
            ases_using_actions += 1;
            routes_with_actions = routes_with_actions.saturating_add(p.tagged);
        }
    }

    // §5.3: AS counts per group (distinct ASes with ≥1 instance) and
    // instance counts per group.
    let mut ases_per_group: BTreeMap<ActionGroup, usize> = BTreeMap::new();
    let mut insts_per_group: BTreeMap<ActionGroup, u64> = BTreeMap::new();
    for (gi, group) in ActionGroup::ALL.iter().enumerate() {
        let ases = unit
            .per_as
            .iter()
            .filter(|p| p.groups.get(gi).copied().unwrap_or(0) > 0)
            .count();
        if ases > 0 {
            ases_per_group.insert(*group, ases);
        }
        let insts = unit.insts_per_group.get(gi).copied().unwrap_or(0);
        if insts > 0 {
            insts_per_group.insert(*group, insts);
        }
    }

    // Figs. 5–6 / §5.5: per-community counts, the Fig. 6 subset filtered
    // by the finalize-time membership test.
    let mut fig5_counts: BTreeMap<StandardCommunity, (Action, u64)> = BTreeMap::new();
    let mut fig6_counts: BTreeMap<StandardCommunity, (Action, u64)> = BTreeMap::new();
    let mut ineffective_count = 0u64;
    for (i, &n) in unit.per_comm.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let CommMeta::Action(action) = comms.meta(i as u32) else {
            continue;
        };
        let community = StandardCommunity(comms.value(i as u32));
        fig5_counts.insert(community, (action, n));
        if is_ineffective(&action, &unit.members) {
            fig6_counts.insert(community, (action, n));
            ineffective_count = ineffective_count.saturating_add(n);
        }
    }

    // Fig. 7: ineffective instances per tagging AS.
    let mut fig7_per_as: BTreeMap<Asn, u64> = BTreeMap::new();
    for (&(aid, cid), &n) in &unit.per_as_comm {
        if n == 0 {
            continue;
        }
        let CommMeta::Action(action) = comms.meta(cid) else {
            continue;
        };
        if !is_ineffective(&action, &unit.members) {
            continue;
        }
        let slot = fig7_per_as.entry(asns.value(aid)).or_insert(0);
        *slot = slot.saturating_add(n);
    }

    let std_defined = unit.std_info.saturating_add(unit.std_action);
    let fig4b = Fig4b::from_per_as(ixp, afi, &per_as_insts, members_at_rs);
    let fig4c = Fig4c::from_counts(ixp, afi, &per_as_routes, &per_as_insts);
    let fig5 = TopCommunities::from_counts(ixp, afi, fig5_counts, unit.std_action, 20);
    let top20_nonmember_count = fig5
        .top
        .iter()
        .filter(|r| is_ineffective(&r.action, &unit.members))
        .count();

    let report = SnapshotReport {
        ixp,
        afi,
        day,
        fig1: Fig1::from_counts(
            ixp,
            afi,
            std_defined
                .saturating_add(unit.ext_defined)
                .saturating_add(unit.large_defined),
            unit.unknown,
        ),
        fig2: Fig2::from_counts(ixp, afi, std_defined, unit.ext_defined, unit.large_defined),
        fig3: Fig3::from_counts(ixp, afi, unit.std_action, unit.std_info),
        fig4a: Fig4a {
            ixp,
            afi,
            members_at_rs,
            ases_using_actions,
            routes_total: unit.routes_total as usize,
            routes_with_actions: routes_with_actions as usize,
        },
        fig4b_top1pct: fig4b.share_of_top(0.01),
        fig4b_top10pct: fig4b.share_of_top(0.10),
        fig4c_log_correlation: fig4c.log_correlation(),
        fig4c_asymmetry: fig4c.asymmetry(),
        table2: Table2::from_counts(ixp, afi, members_at_rs, ases_per_group),
        type_counts: TypeCounts::from_counts(ixp, afi, insts_per_group),
        fig6: TopCommunities::from_counts(ixp, afi, fig6_counts, unit.std_action, 20),
        ineffective: Ineffective {
            ixp,
            afi,
            total_actions: unit.std_action,
            ineffective: ineffective_count,
            top20_nonmember_count,
        },
        fig7: Fig7::from_per_as(ixp, afi, &fig7_per_as, 10),
        fig5,
    };
    UnitFigures {
        report,
        fig4b,
        fig4c,
        fig7_per_as,
    }
}

/// The stream-attached incremental report: one [`IxpEngine`] per
/// monitored IXP, fed as a [`DeltaConsumer`] by
/// [`RouterState::apply_with`](stream::state::RouterState::apply_with) /
/// [`StreamCollector::drain_with_clock_into`](stream::collector::StreamCollector::drain_with_clock_into),
/// finalized into a [`FullReport`] on demand.
#[derive(Clone)]
pub struct IncrementalReport {
    engines: BTreeMap<IxpId, IxpEngine>,
    retraction_enabled: bool,
    deltas: u64,
}

impl IncrementalReport {
    /// An empty report over the given IXPs (each dictionary is wrapped in
    /// an [`Arc`] and shared immutably with the engines).
    pub fn new(dicts: &[(IxpId, Dictionary)]) -> Self {
        IncrementalReport {
            engines: dicts
                .iter()
                .map(|(ixp, dict)| (*ixp, IxpEngine::new(*ixp, Arc::new(dict.clone()))))
                .collect(),
            retraction_enabled: true,
            deltas: 0,
        }
    }

    /// Toggle retraction. **Chaos-only:** turning this off makes every
    /// withdraw/replace a no-op on the aggregates, deliberately breaking
    /// the apply/retract inverse so the `IncrementalDivergence` oracle
    /// can demonstrate it fires.
    pub fn set_retraction_enabled(&mut self, on: bool) {
        self.retraction_enabled = on;
    }

    /// Deltas consumed so far (the `analysis.incremental.deltas` metric's
    /// source of truth; callers fold it into the registry at day ends).
    pub fn deltas_applied(&self) -> u64 {
        self.deltas
    }

    /// The engine for one IXP.
    pub fn engine(&self, ixp: IxpId) -> Option<&IxpEngine> {
        self.engines.get(&ixp)
    }

    /// Fold another report's partial state into this one (see
    /// [`IxpEngine::merge`]; shards must have seen disjoint peers).
    pub fn merge(&mut self, other: &IncrementalReport) {
        for (ixp, engine) in &other.engines {
            match self.engines.get_mut(ixp) {
                Some(mine) => mine.merge(engine),
                None => {
                    self.engines.insert(*ixp, engine.clone());
                }
            }
        }
        self.deltas = self.deltas.saturating_add(other.deltas);
    }

    /// Finalize the report for an explicit unit list, fanned out with
    /// [`par::map_indexed`] (each unit reads `&self` only; the ordered
    /// join keeps the output deterministic at any thread count).
    pub fn report_units(&self, units: &[(IxpId, Afi)], day: u32) -> FullReport {
        let _span = obs::span!(obs::names::ANALYSIS_INCREMENTAL_REPORT);
        let computed = par::map_indexed(units, |_, &(ixp, afi)| {
            self.engines
                .get(&ixp)
                .map(|e| e.unit_report(afi, day).report)
        });
        FullReport::from_units(computed.into_iter().flatten().collect())
    }

    /// Finalize every (IXP, family) unit — in
    /// [`full_report`](crate::summary::full_report)'s unit order (IXP
    /// construction order × family) when engines were constructed from
    /// the same dictionary slice.
    pub fn report(&self, day: u32) -> FullReport {
        let units: Vec<(IxpId, Afi)> = self
            .engines
            .keys()
            .flat_map(|&ixp| [(ixp, Afi::Ipv4), (ixp, Afi::Ipv6)])
            .collect();
        self.report_units(&units, day)
    }
}

impl DeltaConsumer for IncrementalReport {
    fn on_delta(&mut self, ixp: IxpId, delta: &RouteDelta<'_>) {
        let Some(engine) = self.engines.get_mut(&ixp) else {
            return;
        };
        self.deltas = self.deltas.saturating_add(1);
        engine.apply_delta(delta, self.retraction_enabled);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_model::route::Route;
    use community_dict::schemes;
    use looking_glass::snapshot::SnapshotStore;
    use route_server::events::RibEvent;
    use stream::prelude::RouterState;

    use crate::summary::full_report;

    const IXP: IxpId = IxpId::Linx;

    fn dicts() -> Vec<(IxpId, Dictionary)> {
        vec![(IXP, schemes::dictionary(IXP))]
    }

    fn route(pfx: &str, tagger: u32, targets: &[u32]) -> Route {
        let mut b = Route::builder(pfx.parse().unwrap(), "198.32.0.7".parse().unwrap())
            .path([tagger, 15169]);
        for t in targets {
            b = b.standard(schemes::avoid_community(IXP, Asn(*t)));
        }
        b.build()
    }

    /// Drive events through a real `RouterState` with the report attached
    /// and return both a fresh fold of the streamed snapshots and the
    /// delta-maintained report.
    fn dual_run(events: &[RibEvent]) -> (FullReport, FullReport) {
        let mut state = RouterState::new(IXP);
        let mut inc = IncrementalReport::new(&dicts());
        for ev in events {
            state.apply_with(ev, &mut inc);
        }
        let mut store = SnapshotStore::new();
        store.insert(state.to_snapshot(Afi::Ipv4, 7));
        store.insert(state.to_snapshot(Afi::Ipv6, 7));
        let batch = full_report(&store, &dicts());
        let units = [(IXP, Afi::Ipv4), (IXP, Afi::Ipv6)];
        (batch, inc.report_units(&units, 7))
    }

    fn assert_equal(events: &[RibEvent]) {
        let (batch, inc) = dual_run(events);
        assert_eq!(
            serde_json::to_string(&batch).unwrap(),
            serde_json::to_string(&inc).unwrap()
        );
    }

    #[test]
    fn announce_withdraw_matches_batch() {
        assert_equal(&[
            RibEvent::PeerUp {
                peer: Asn(39120),
                ipv4: true,
                ipv6: false,
            },
            RibEvent::PeerUp {
                peer: Asn(6939),
                ipv4: true,
                ipv6: true,
            },
            RibEvent::Announce {
                peer: Asn(39120),
                route: route("193.0.10.0/24", 39120, &[6939, 16276]),
            },
            RibEvent::Announce {
                peer: Asn(39120),
                route: route("193.0.11.0/24", 39120, &[6939]),
            },
            RibEvent::Announce {
                peer: Asn(6939),
                route: route("81.0.0.0/24", 6939, &[15169]),
            },
            RibEvent::Withdraw {
                peer: Asn(39120),
                prefix: "193.0.11.0/24".parse().unwrap(),
            },
        ]);
    }

    #[test]
    fn replacement_retracts_old_contribution() {
        assert_equal(&[
            RibEvent::PeerUp {
                peer: Asn(39120),
                ipv4: true,
                ipv6: false,
            },
            RibEvent::Announce {
                peer: Asn(39120),
                route: route("193.0.10.0/24", 39120, &[6939, 16276]),
            },
            // same prefix, different tag set: old instances must vanish
            RibEvent::Announce {
                peer: Asn(39120),
                route: route("193.0.10.0/24", 39120, &[15169]),
            },
        ]);
    }

    #[test]
    fn peer_down_synthesizes_retractions() {
        assert_equal(&[
            RibEvent::PeerUp {
                peer: Asn(39120),
                ipv4: true,
                ipv6: false,
            },
            RibEvent::Announce {
                peer: Asn(39120),
                route: route("193.0.10.0/24", 39120, &[6939]),
            },
            RibEvent::PeerDown { peer: Asn(39120) },
        ]);
    }

    #[test]
    fn session_rescope_toggles_visibility() {
        assert_equal(&[
            RibEvent::PeerUp {
                peer: Asn(39120),
                ipv4: false,
                ipv6: false,
            },
            // invisible while no session holds the family
            RibEvent::Announce {
                peer: Asn(39120),
                route: route("193.0.10.0/24", 39120, &[6939]),
            },
            // v4 session appears: the stored route becomes visible
            RibEvent::PeerUp {
                peer: Asn(39120),
                ipv4: true,
                ipv6: false,
            },
        ]);
    }

    #[test]
    fn retract_is_exact_inverse_of_apply() {
        let mut state = RouterState::new(IXP);
        let mut inc = IncrementalReport::new(&dicts());
        state.apply_with(
            &RibEvent::PeerUp {
                peer: Asn(39120),
                ipv4: true,
                ipv6: false,
            },
            &mut inc,
        );
        let units = [(IXP, Afi::Ipv4), (IXP, Afi::Ipv6)];
        let before = serde_json::to_string(&inc.report_units(&units, 0)).unwrap();
        state.apply_with(
            &RibEvent::Announce {
                peer: Asn(39120),
                route: route("193.0.10.0/24", 39120, &[6939, 16276]),
            },
            &mut inc,
        );
        state.apply_with(
            &RibEvent::Withdraw {
                peer: Asn(39120),
                prefix: "193.0.10.0/24".parse().unwrap(),
            },
            &mut inc,
        );
        let after = serde_json::to_string(&inc.report_units(&units, 0)).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn merge_of_disjoint_peer_shards_equals_single_engine() {
        let up = |peer: u32| RibEvent::PeerUp {
            peer: Asn(peer),
            ipv4: true,
            ipv6: false,
        };
        let ann = |peer: u32, pfx: &str, targets: &[u32]| RibEvent::Announce {
            peer: Asn(peer),
            route: route(pfx, peer, targets),
        };
        let shard_a = [up(39120), ann(39120, "193.0.10.0/24", &[6939, 16276])];
        let shard_b = [up(6939), ann(6939, "81.0.0.0/24", &[15169])];

        let run = |events: &[RibEvent]| {
            let mut state = RouterState::new(IXP);
            let mut inc = IncrementalReport::new(&dicts());
            for ev in events {
                state.apply_with(ev, &mut inc);
            }
            inc
        };
        let mut all: Vec<RibEvent> = Vec::new();
        all.extend_from_slice(&shard_a);
        all.extend_from_slice(&shard_b);
        let whole = run(&all);

        let a = run(&shard_a);
        let b = run(&shard_b);
        let units = [(IXP, Afi::Ipv4), (IXP, Afi::Ipv6)];
        let expect = serde_json::to_string(&whole.report_units(&units, 0)).unwrap();

        // a ⊔ b and b ⊔ a both equal the single-engine run.
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(
            serde_json::to_string(&ab.report_units(&units, 0)).unwrap(),
            expect
        );
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(
            serde_json::to_string(&ba.report_units(&units, 0)).unwrap(),
            expect
        );
    }

    #[test]
    fn disabled_retraction_diverges() {
        let mut state = RouterState::new(IXP);
        let mut inc = IncrementalReport::new(&dicts());
        inc.set_retraction_enabled(false);
        for ev in [
            RibEvent::PeerUp {
                peer: Asn(39120),
                ipv4: true,
                ipv6: false,
            },
            RibEvent::Announce {
                peer: Asn(39120),
                route: route("193.0.10.0/24", 39120, &[6939]),
            },
            RibEvent::Withdraw {
                peer: Asn(39120),
                prefix: "193.0.10.0/24".parse().unwrap(),
            },
        ] {
            state.apply_with(&ev, &mut inc);
        }
        let mut store = SnapshotStore::new();
        store.insert(state.to_snapshot(Afi::Ipv4, 0));
        store.insert(state.to_snapshot(Afi::Ipv6, 0));
        let batch = full_report(&store, &dicts());
        let units = [(IXP, Afi::Ipv4), (IXP, Afi::Ipv6)];
        assert_ne!(
            serde_json::to_string(&batch).unwrap(),
            serde_json::to_string(&inc.report_units(&units, 0)).unwrap()
        );
    }

    #[test]
    fn unknown_ixp_deltas_are_ignored() {
        let mut state = RouterState::new(IxpId::Bcix);
        let mut inc = IncrementalReport::new(&dicts());
        state.apply_with(
            &RibEvent::PeerUp {
                peer: Asn(39120),
                ipv4: true,
                ipv6: false,
            },
            &mut inc,
        );
        assert_eq!(inc.deltas_applied(), 0);
    }
}
