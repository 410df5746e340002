//! Compact-state scale experiments: metro-sized stress specs and the
//! Helmy-style aggregation audit.
//!
//! The audit populates real SoA tables (MLD listener tables, PIM (S,G)
//! tables, home-agent binding caches) through one set of world-level
//! interners exactly as a metro build would, then compares their
//! deterministic byte audit against the closed-form memory model
//! documented in DESIGN.md ("Compact state & sharding"). Holding the
//! listener population fixed and widening the group fan-in reproduces the
//! aggregation collapse Helmy's multicast state-aggregation work predicts:
//! router state is per *(link, group)*, not per listener, so bytes per
//! listener falls roughly linearly as listeners share groups.

use crate::interners::WorldInterners;
use crate::strategy::Policy;
use crate::stress::StressSpec;
use mobicast_ipv6::addr::GroupAddr;
use mobicast_mipv6::BindingCache;
use mobicast_mld::table::Rexmt;
use mobicast_mld::ListenerTable;
use mobicast_pimdm::table::{OifState, SgDetail, UpstreamState};
use mobicast_pimdm::SgTable;
use mobicast_sim::{SimDuration, SimTime};
use std::net::Ipv6Addr;

/// Fraction of listeners that roam and therefore hold a home-agent
/// binding (per-host state that never aggregates).
const MOVER_DENOM: usize = 10;

/// Outgoing interfaces per modelled (S,G) entry — the typical metro-grid
/// router splits the flood two ways.
const OIFS_PER_SG: usize = 2;

/// One point of the aggregation curve: `listeners` receivers spread
/// round-robin over `links` access links, joining `groups` groups.
#[derive(Clone, Debug)]
pub struct MemAudit {
    pub listeners: usize,
    pub groups: usize,
    pub links: usize,
    /// Unique (port, group) membership rows the tables actually hold.
    pub mld_rows: usize,
    /// (S,G) entries actually held across all access routers.
    pub sg_rows: usize,
    /// Binding-cache entries (one per roaming listener).
    pub bindings: usize,
    /// Deterministic byte audit over the populated tables + interner pools.
    pub measured_bytes: usize,
    /// The documented closed-form model, computed from the three inputs
    /// alone — never from the populated tables.
    pub model_bytes: usize,
    /// `measured_bytes / listeners` — the Helmy curve's y-axis.
    pub bytes_per_listener: f64,
}

fn group_addr(g: usize) -> GroupAddr {
    GroupAddr::test_group(u16::try_from(g % usize::from(u16::MAX)).unwrap_or(0))
}

fn source_addr(g: usize) -> Ipv6Addr {
    Ipv6Addr::from(0x2001_0db8_00aa_0000_0000_0000_0000_0000u128 + g as u128)
}

fn home_addr(i: usize) -> Ipv6Addr {
    Ipv6Addr::from(0x2001_0db8_00bb_0000_0000_0000_0000_0000u128 + i as u128)
}

fn care_of_addr(link: usize) -> Ipv6Addr {
    Ipv6Addr::from(0x2001_0db8_00cc_0000_0000_0000_0000_0000u128 + link as u128)
}

/// Populate per-link SoA tables with the state `listeners` receivers
/// induce — listener `i` lives on link `i % links` and joins group
/// `(i / links) % groups` — and audit the bytes, measured vs model.
pub fn aggregation_audit(listeners: usize, groups: usize, links: usize) -> MemAudit {
    assert!(groups >= 1 && links >= 1 && listeners >= 1);
    let interners = WorldInterners::new();
    let expires = SimTime::from_secs(260);

    let mut ports: Vec<ListenerTable> = (0..links)
        .map(|_| ListenerTable::with_keys(interners.groups.clone()))
        .collect();
    let mut sgs: Vec<SgTable> = (0..links)
        .map(|_| SgTable::with_keys((interners.addrs.clone(), interners.groups.clone())))
        .collect();
    let mut has: Vec<BindingCache> = (0..links)
        .map(|_| BindingCache::with_interners(interners.addrs.clone(), interners.groups.clone()))
        .collect();

    for i in 0..listeners {
        let link = i % links;
        let g = (i / links) % groups;
        let grp = group_addr(g);
        // Membership and (S,G) state aggregate per (link, group): the
        // second listener of a group on a link costs no new row.
        if !ports[link].contains(grp) {
            let _ = ports[link].insert(grp, expires, Rexmt::default());
            let detail = SgDetail {
                iif: 0,
                upstream: None,
                upstream_state: UpstreamState::Forwarding,
                oifs: (1..=OIFS_PER_SG as u8)
                    .map(|i| (i, OifState::default()))
                    .collect(),
                override_join_at: None,
                last_prune_tx: None,
                iif_assert_winner: None,
            };
            let _ = sgs[link].insert((source_addr(g), grp), expires, detail);
        }
        // Every MOVER_DENOM-th listener roams: per-host binding state.
        if i % MOVER_DENOM == 0 {
            let _ = has[link].update(
                home_addr(i),
                care_of_addr(link),
                SimDuration::from_secs(420),
                1,
                vec![grp],
                SimTime::ZERO,
            );
        }
    }

    let mld_rows: usize = ports.iter().map(ListenerTable::len).sum();
    let sg_rows: usize = sgs.iter().map(SgTable::len).sum();
    let bindings: usize = has.iter().map(BindingCache::len).sum();
    let measured_bytes: usize = ports.iter().map(ListenerTable::state_bytes).sum::<usize>()
        + sgs.iter().map(SgTable::state_bytes).sum::<usize>()
        + has.iter().map(BindingCache::state_bytes).sum::<usize>()
        + interners.state_bytes();

    MemAudit {
        listeners,
        groups,
        links,
        mld_rows,
        sg_rows,
        bindings,
        measured_bytes,
        model_bytes: model_bytes(listeners, groups, links),
        bytes_per_listener: measured_bytes as f64 / listeners as f64,
    }
}

/// The closed-form memory model from DESIGN.md: predicted row counts from
/// the round-robin placement, times the per-row costs of the SoA layouts.
/// Computed purely from `(listeners, groups, links)`.
pub fn model_bytes(listeners: usize, groups: usize, links: usize) -> usize {
    // Placement: listener i -> (link i % links, group (i / links) % groups).
    // The (link, group) pairs cycle with period links·groups, so rows
    // saturate at links·groups; below saturation each link holds
    // min(listeners on that link, groups) rows.
    let per_link_rows = |link: usize| -> usize {
        let on_link = listeners / links + usize::from(link < listeners % links);
        on_link.min(groups)
    };
    let rows: usize = (0..links).map(per_link_rows).sum();
    let movers = listeners.div_ceil(MOVER_DENOM);

    // Per-row costs (documented in DESIGN.md; `size_of` keeps the model
    // portable while the concrete x86-64 numbers appear in the table).
    let mld_row = 25 + 4; // columns + order index
    let sg_row = 17
        + std::mem::size_of::<SgDetail>()
        + OIFS_PER_SG * std::mem::size_of::<(u8, OifState)>()
        + 4;
    let binding_row = 43 + 4 /* one subscribed gid */ + 4 /* order */;
    // Distinct groups per home agent bound by its movers and its groups.
    let ha_group_refs: usize = (0..links)
        .map(|l| {
            let movers_here = movers / links + usize::from(l < movers % links);
            movers_here.min(groups)
        })
        .map(|g| g * 24)
        .sum();

    // Interner pools: key + reverse map per unique value. The placement
    // only instantiates group indices 0..ceil(listeners/links), so below
    // saturation the pools stay smaller than the nominal fan-in.
    let intern_entry = |key_bytes: usize| 2 * key_bytes + 4;
    let unique_groups = groups.min(listeners.div_ceil(links));
    let unique_addrs =
        unique_groups /* sources */ + movers /* homes */ + links.min(movers) /* care-ofs */;

    rows * (mld_row + sg_row)
        + movers * binding_row
        + ha_group_refs
        + unique_addrs * intern_entry(16)
        + unique_groups * intern_entry(16)
}

/// The canonical aggregation-curve points: a fixed listener population
/// against three group fan-ins (no sharing, moderate sharing, full
/// sharing). `scale` divides the populations for debug-mode tests.
pub fn aggregation_curve(listeners: usize, links: usize) -> Vec<MemAudit> {
    // Group counts chosen so the three levels straddle saturation:
    // listeners/1 unique rows, ~links·64 rows, links·4 rows.
    [listeners.min(4096), 64, 4]
        .into_iter()
        .map(|groups| aggregation_audit(listeners, groups, links))
        .collect()
}

/// A metro-scale stress spec: `NetworkSpec::metro(n_routers)` with
/// `receivers` roaming receivers, ready for [`crate::stress::run_stress_with`].
pub fn metro_spec(n_routers: usize, receivers: usize, seed: u64) -> StressSpec {
    let topology = crate::builder::NetworkSpec::metro(n_routers);
    StressSpec {
        name: format!(
            "metro{}x{}/local/seed{seed}",
            topology.n_links,
            topology.routers.len()
        ),
        topology,
        policy: Policy::LOCAL,
        seed,
        duration: SimDuration::from_secs(90),
        receivers,
        movers: receivers.min(8),
        moves_per_mover: 2,
        data_interval: SimDuration::from_secs(2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_is_deterministic() {
        let a = aggregation_audit(500, 16, 23);
        let b = aggregation_audit(500, 16, 23);
        assert_eq!(a.measured_bytes, b.measured_bytes);
        assert_eq!(a.model_bytes, b.model_bytes);
    }

    #[test]
    fn saturated_rows_match_links_times_groups() {
        // 4000 listeners over 10 links x 8 groups: far past saturation.
        let audit = aggregation_audit(4000, 8, 10);
        assert_eq!(audit.mld_rows, 80);
        assert_eq!(audit.sg_rows, 80);
        assert_eq!(audit.bindings, 400);
    }
}
