//! The paper's claims as data: each claim is one row of [`CLAIMS`], both
//! the self-check and the source of EXPERIMENTS.md's claim tables.
//! `every_claim_holds_on_a_quick_run` runs every registered experiment at
//! `Settings::new(true)`, names every failing row with what it measured,
//! and compares each output byte for byte with the committed
//! `results/<id>.json` as `mobicast` writes it (`to_string_pretty`), and
//! their text with the committed `results/exp_all_output.txt` as
//! `experiments::archive` renders it: those bytes are the reproduction's
//! contract, and equality with a file another process wrote is also the
//! determinism check. `experiments_md_blocks_render_the_committed_results`
//! renders each experiment's rows from the committed `results/<id>.json`
//! into the block between `<!-- claims:<id> -->` and `<!-- /claims:<id> -->`
//! of EXPERIMENTS.md and compares; `MOBICAST_UPDATE_GOLDENS=1` rewrites it.
//!
//! Operands are JSON pointers into an experiment's output, or literals. A
//! pointer may hold one `*` step: the row then checks every array element
//! or object value there, each other operand's `*` standing for the same
//! one. Rows comparing two sweep points name both: the quick order is fixed.

use mobicast_core::experiments::{self, Settings, REGISTRY};
use mobicast_core::Policy;
use mobicast_sim::parallel::{configured_workers, run_ordered};
use serde_json::Value;
use std::path::PathBuf;

use Bound::*;
use Check::*;
use V::*;

/// An operand.
#[derive(Clone, Copy)]
enum V {
    /// The value at a JSON pointer.
    P(&'static str),
    /// The value at a JSON pointer plus a constant.
    Plus(&'static str, f64),
    /// A number.
    N(f64),
    /// A JSON literal.
    J(&'static str),
    /// The name of `Policy::PAPER[i]`, `i` being the row's `*` index.
    PaperName,
}

/// A ratio bound: `a` against `k · b`.
#[derive(Clone, Copy)]
enum Bound {
    Over(f64),
    AtLeast(f64),
    Under(f64),
    Exactly(f64),
}

/// What a row asserts.
#[derive(Clone, Copy)]
enum Check {
    /// `a < b`.
    Lt(V, V),
    /// `a` against `k · b`.
    Ratio(V, V, Bound),
    /// `lo ≤ a ≤ hi`.
    Within(V, V, V),
    /// `a = b`: the same JSON, or the same number.
    Eq(V, V),
}

/// One cited claim and the check that measures it: (id, citation,
/// experiment id, check, prose).
type Claim = (
    &'static str,
    &'static str,
    &'static str,
    Check,
    &'static str,
);

const INF: f64 = f64::INFINITY;

/// The experiments with rows, in EXPERIMENTS.md order, and the number of
/// scenario runs each makes at `--quick` (a pointer's values are summed).
const EXPERIMENTS: &[(&str, V)] = &[
    ("fig1", N(1.0)),
    ("fig2", P("/runs")),
    ("fig3", N(4.0)),
    ("fig4", N(3.0)),
    ("fig5", N(0.0)),
    ("table1", P("/strategies/*/runs")),
    ("timer_sweep", N(14.0)),
    ("sender_cost", N(15.0)),
    ("mobility_rate", N(24.0)),
    ("fault_sweep", P("/scores/*/runs")),
    ("adversarial", P("/scores/*/runs")),
    ("overload", P("/scores/*/runs")),
    ("chaos", N(40.0)),
    ("stress", N(4.0)),
    ("handoff_latency", N(5.0)),
];

#[rustfmt::skip]
const CLAIMS: &[Claim] = &[
    ("fig1.tree", "Fig. 1", "fig1", Eq(P("/tree_links"), J("[1,2,3,4]")), "The tree for (S on Link 1, G) spans Links 1–4; Links 5 and 6 are pruned"),
    ("fig1.assert", "Fig. 1; PIM-DM Assert", "fig1", Lt(N(0.0), P("/assert_messages")), "Parallel routers B and C elect one forwarder by Assert"),
    ("fig1.stretch_lo", "Fig. 1", "fig1", Lt(N(0.95), P("/mean_stretch")), "The static tree routes on shortest paths: stretch above 1 − 0.05"),
    ("fig1.stretch_hi", "Fig. 1", "fig1", Lt(P("/mean_stretch"), N(1.05)), "… and below 1 + 0.05"),

    ("fig2.join_unsolicited", "§4.3.1, Fig. 2", "fig2", Lt(P("/join_delay_unsolicited_mean_s"), N(2.0)),
      "With unsolicited Reports a moved receiver joins at Graft speed: under 2 s"),
    ("fig2.join_wait_query", "§4.3.1, §4.4", "fig2", Ratio(P("/join_delay_wait_query_mean_s"), P("/join_delay_unsolicited_mean_s"), Over(10.0)),
      "Waiting for the next Query makes the join delay long: over 10 × the unsolicited one"),
    ("fig2.leave_bound", "§4.3.1; RFC 2710 §7.4", "fig2", Within(P("/leave_delay_max_s"), N(-INF), N(261.0)),
      "The leave delay is bounded by T_MLI = 260 s (+ 1 s)"),

    ("fig3.tunnel_stretch", "§4.3.2, Fig. 3", "fig3", Lt(Plus("/local_stretch", 0.3), P("/tunnel_stretch")),
      "Routing through the home agent is suboptimal: stretch over local + 0.3"),
    ("fig3.tunnel_join", "§4.3.2", "fig3", Lt(P("/tunnel_join_delay_s"), N(2.0)), "A tunnelled receiver sees no significant join delay: under 2 s"),
    ("fig3.copies_lo", "§4.3.2", "fig3", Ratio(P("/ha_tunneled_6_receivers"), P("/ha_tunneled_1_receiver"), AtLeast(4.5)),
      "Each co-located receiver gets its own unicast copy: 6 receivers, ≥ 4.5 × the tunnelled packets"),
    ("fig3.copies_hi", "§4.3.2", "fig3", Ratio(P("/ha_tunneled_6_receivers"), P("/ha_tunneled_1_receiver"), Under(7.5)), "… and < 7.5 ×"),

    ("fig4.local_new_tree", "§4.2.2 A, Fig. 4", "fig4", Within(P("/local_max_sg"), N(2.0), N(INF)),
      "Local sending builds a new tree beside the old: ≥ 2 (S,G) entries on a router"),
    ("fig4.tunnel_keeps_tree", "§4.2.2 B, Fig. 4", "fig4", Eq(P("/tunnel_max_sg"), N(1.0)), "The reverse tunnel keeps the one tree"),
    ("fig4.local_waste", "§4.2.2 A", "fig4", Lt(N(0.0), P("/local_wasted_bytes")), "The local handover wastes some bytes"),
    ("fig4.stale_asserts", "§4.2.2 A", "fig4", Lt(P("/local_link6_asserts"), P("/assert_case_asserts")),
      "A stale source on an on-tree link provokes Asserts: more than a move to pruned Link 6"),
    ("fig4.tunnel_stretch", "§4.2.2 B", "fig4", Lt(N(1.05), P("/tunnel_stretch")),
      "The reverse tunnel routes the sender suboptimally: stretch over 1.05"),
    ("fig4.tunnel_delivery", "§4.2.2 B", "fig4", Lt(N(0.9), P("/tunnel_worst_delivery")), "… while every receiver keeps over 90 % of the stream"),

    ("fig5.round_trip", "Fig. 5", "fig5", Eq(P("/rows/*/round_trip_ok"), J("true")),
      "The sub-option survives a wire round trip in a home-registration Binding Update"),
    ("fig5.len", "Fig. 5", "fig5", Ratio(P("/rows/*/sub_option_len"), P("/rows/*/n"), Exactly(16.0)), "Sub-Option Len = 16 · N"),

    ("table1.order", "Table 1", "table1", Eq(P("/strategies/*/name"), PaperName), "The rows are the paper's four approaches in Table-1 order"),
    ("table1.join", "Table 1; §4.3.2", "table1", Lt(P("/strategies/1/join_delay_s"), Plus("/strategies/0/join_delay_s", 1.0)),
      "The bi-directional tunnel joins no slower than local membership (+ 1 s)"),
    ("table1.stretch_local", "Table 1; §4.3.1", "table1", Within(P("/strategies/0/stretch"), N(-INF), Plus("/strategies/1/stretch", 1e-9)),
      "Local membership routes optimally: stretch ≤ the bi-directional tunnel's"),
    ("table1.stretch_mh_ha", "Table 1; §4.3.3", "table1", Within(P("/strategies/2/stretch"), N(-INF), Plus("/strategies/1/stretch", 0.3)),
      "MH→HA receives locally: stretch ≤ the bi-directional tunnel's + 0.3"),
    ("table1.no_tunnel_local", "Table 1; §4.3.1", "table1", Eq(P("/strategies/0/tunnel_bytes"), N(0.0)), "Local membership pays no tunnel overhead"),
    ("table1.tunnel_bidir", "Table 1; §4.3.2", "table1", Lt(N(0.0), P("/strategies/1/tunnel_bytes")),
      "The bi-directional tunnel pays encapsulation"),
    ("table1.tunnel_mh_ha", "Table 1; §4.3.3", "table1", Lt(N(0.0), P("/strategies/2/tunnel_bytes")), "MH→HA pays encapsulation"),
    ("table1.tunnel_ha_mh", "Table 1; §4.3.4", "table1", Lt(N(0.0), P("/strategies/3/tunnel_bytes")), "HA→MH pays encapsulation"),
    ("table1.ha_load_mh_ha", "Table 1; §4.3.2", "table1", Within(P("/strategies/1/ha_tunneled"), P("/strategies/2/ha_tunneled"), N(INF)),
      "The bi-directional tunnel loads the home agent most: ≥ MH→HA"),
    ("table1.ha_load_local", "Table 1; §4.3.2", "table1", Lt(P("/strategies/0/ha_tunneled"), P("/strategies/1/ha_tunneled")),
      "… and > local membership"),
    ("table1.rebuild_local", "Table 1; §4.2.2 A", "table1", Within(P("/strategies/0/max_router_sg"), N(2.0), N(INF)),
      "Local send: a sender move rebuilds the tree (≥ 2 (S,G) on a router)"),
    ("table1.rebuild_ha_mh", "Table 1; §4.3.4", "table1", Within(P("/strategies/3/max_router_sg"), N(2.0), N(INF)),
      "HA→MH sends locally, so it rebuilds too"),
    ("table1.keep_bidir", "Table 1; §4.2.2 B", "table1", Within(P("/strategies/1/max_router_sg"), N(-INF), N(1.0 + 1e-9)),
      "Home-tunnel send keeps the tree (≤ 1 (S,G) per router)"),
    ("table1.keep_mh_ha", "Table 1; §4.3.3", "table1", Within(P("/strategies/2/max_router_sg"), N(-INF), N(1.0 + 1e-9)),
      "MH→HA sends through the home agent, so it keeps the tree"),
    ("table1.delivery", "Table 1", "table1", Lt(N(0.85), P("/strategies/*/delivery")), "Every approach still delivers the stream: over 85 %"),
    ("table1.draft_local", "§4.3.1", "table1", Eq(P("/strategies/0/needs_draft_changes"), J("false")),
      "Local membership needs no change to the Mobile IPv6 draft"),
    ("table1.draft_bidir", "§4.3.2, Fig. 5", "table1", Eq(P("/strategies/1/needs_draft_changes"), J("true")),
      "The bi-directional tunnel needs the Group List Sub-Option"),
    ("table1.draft_mh_ha", "§4.3.3", "table1", Eq(P("/strategies/2/needs_draft_changes"), J("false")), "MH→HA needs no draft change"),
    ("table1.draft_ha_mh", "§4.3.4, Fig. 5", "table1", Eq(P("/strategies/3/needs_draft_changes"), J("true")),
      "HA→MH needs the Group List Sub-Option"),

    ("timer_sweep.join", "§4.4", "timer_sweep", Ratio(P("/points/0/join_delay_s"), P("/points/6/join_delay_s"), Under(0.4)),
      "T_Query 125 s → 10 s cuts the join delay: below 0.4 ×"),
    ("timer_sweep.leave", "§4.4", "timer_sweep", Ratio(P("/points/0/leave_delay_s"), P("/points/6/leave_delay_s"), Under(0.4)),
      "… and the leave delay, with T_MLI: below 0.4 ×"),
    ("timer_sweep.signalling", "§4.4", "timer_sweep", Lt(P("/points/6/mld_bytes"), P("/points/0/mld_bytes")),
      "More Queries cost more MLD signalling"),
    ("timer_sweep.waste", "§4.4", "timer_sweep", Lt(P("/points/0/wasted_bytes"), P("/points/6/wasted_bytes")),
      "Stale forwarding shrinks with the leave delay"),

    ("sender_cost.bitrate", "§4.3.1", "sender_cost", Lt(P("/bitrate/0/wasted"), P("/bitrate/3/wasted")),
      "A moving sender's flood wastes more at a higher bit rate"),
    ("sender_cost.network_size", "§4.3.1", "sender_cost", Lt(P("/network_size/0/wasted"), P("/network_size/3/wasted")),
      "… with more links to prune"),
    ("sender_cost.mobility", "§4.3.1", "sender_cost", Lt(P("/mobility/0/wasted"), P("/mobility/2/wasted")), "… at a higher mobility rate"),
    ("sender_cost.prune_delay", "§4.3.1", "sender_cost", Within(P("/prune_delay/3/wasted"), P("/prune_delay/0/wasted"), N(INF)),
      "… and no less with a longer T_PruneDel"),

    ("mobility_rate.wait_query", "§5", "mobility_rate", Lt(P("/points/3/wait_query/delivery"), Plus("/points/3/unsolicited/delivery", -0.03)),
      "Waiting for Queries fails highly mobile hosts: at 50 s dwell, 0.03 below unsolicited Reports"),
    ("mobility_rate.tunnel", "§5", "mobility_rate", Lt(N(0.9), P("/points/3/tunnel/delivery")),
      "The bi-directional tunnel suits highly mobile hosts: over 90 %"),
    ("mobility_rate.unsolicited", "§5", "mobility_rate", Lt(N(0.9), P("/points/3/unsolicited/delivery")),
      "Unsolicited Reports keep local membership viable: over 90 %"),

    ("fault_sweep.steady", "RFC 2710 §7; MIPv6 draft §11.8", "fault_sweep", Within(P("/scores/*/steady_delivery"), N(0.99), N(INF)),
      "After the loss window delivery is back to ≥ 99 % at every loss rate"),
    ("fault_sweep.drops.local", "extension", "fault_sweep", Lt(N(0.0), P("/scores/1/frames_dropped")), "Loss is injected: local membership"),
    ("fault_sweep.drops.bidir", "extension", "fault_sweep", Lt(N(0.0), P("/scores/3/frames_dropped")), "… bi-directional tunnel"),
    ("fault_sweep.drops.mh_ha", "extension", "fault_sweep", Lt(N(0.0), P("/scores/5/frames_dropped")), "… MH→HA"),
    ("fault_sweep.drops.ha_mh", "extension", "fault_sweep", Lt(N(0.0), P("/scores/7/frames_dropped")), "… HA→MH"),
    ("fault_sweep.drops.hier", "extension", "fault_sweep", Lt(N(0.0), P("/scores/9/frames_dropped")), "… hierarchical proxy"),
    ("fault_sweep.lossy.local", "extension", "fault_sweep", Lt(P("/scores/1/delivery"), P("/scores/0/delivery")),
      "Lossy whole-run delivery is below the same approach's clean run: local membership"),
    ("fault_sweep.lossy.bidir", "extension", "fault_sweep", Lt(P("/scores/3/delivery"), P("/scores/2/delivery")), "… bi-directional tunnel"),
    ("fault_sweep.lossy.mh_ha", "extension", "fault_sweep", Lt(P("/scores/5/delivery"), P("/scores/4/delivery")), "… MH→HA"),
    ("fault_sweep.lossy.ha_mh", "extension", "fault_sweep", Lt(P("/scores/7/delivery"), P("/scores/6/delivery")), "… HA→MH"),
    ("fault_sweep.lossy.hier", "extension", "fault_sweep", Lt(P("/scores/9/delivery"), P("/scores/8/delivery")), "… hierarchical proxy"),

    ("adversarial.violations", "extension, oracle", "adversarial", Eq(P("/total_violations"), N(0.0)),
      "The invariant oracle stays clean under wire corruption"),
    ("adversarial.slo", "extension, SLO", "adversarial", Eq(P("/total_slo_misses"), N(0.0)), "Every run reconverges within the SLO"),
    ("adversarial.steady", "extension, SLO", "adversarial", Within(P("/scores/*/steady_delivery"), N(0.99), N(INF)),
      "After the corruption window delivery is back to ≥ 99 %"),
    ("adversarial.corrupted.local", "extension", "adversarial", Lt(N(0.0), P("/scores/1/frames_corrupted")),
      "Corruption is injected: local membership"),
    ("adversarial.corrupted.bidir", "extension", "adversarial", Lt(N(0.0), P("/scores/3/frames_corrupted")), "… bi-directional tunnel"),
    ("adversarial.corrupted.mh_ha", "extension", "adversarial", Lt(N(0.0), P("/scores/5/frames_corrupted")), "… MH→HA"),
    ("adversarial.corrupted.ha_mh", "extension", "adversarial", Lt(N(0.0), P("/scores/7/frames_corrupted")), "… HA→MH"),
    ("adversarial.corrupted.hier", "extension", "adversarial", Lt(N(0.0), P("/scores/9/frames_corrupted")), "… hierarchical proxy"),
    ("adversarial.malformed.local", "RFC 8200 §4.2", "adversarial", Lt(N(0.0), P("/scores/1/frames_malformed")),
      "Corruption yields typed decode errors: local membership"),
    ("adversarial.malformed.bidir", "RFC 8200 §4.2", "adversarial", Lt(N(0.0), P("/scores/3/frames_malformed")), "… bi-directional tunnel"),
    ("adversarial.malformed.mh_ha", "RFC 8200 §4.2", "adversarial", Lt(N(0.0), P("/scores/5/frames_malformed")), "… MH→HA"),
    ("adversarial.malformed.ha_mh", "RFC 8200 §4.2", "adversarial", Lt(N(0.0), P("/scores/7/frames_malformed")), "… HA→MH"),
    ("adversarial.malformed.hier", "RFC 8200 §4.2", "adversarial", Lt(N(0.0), P("/scores/9/frames_malformed")), "… hierarchical proxy"),
    ("adversarial.clean.local", "extension", "adversarial", Eq(P("/scores/0/frames_corrupted"), N(0.0)),
      "Nothing is corrupted at rate 0: local membership"),
    ("adversarial.clean.bidir", "extension", "adversarial", Eq(P("/scores/2/frames_corrupted"), N(0.0)), "… bi-directional tunnel"),
    ("adversarial.clean.mh_ha", "extension", "adversarial", Eq(P("/scores/4/frames_corrupted"), N(0.0)), "… MH→HA"),
    ("adversarial.clean.ha_mh", "extension", "adversarial", Eq(P("/scores/6/frames_corrupted"), N(0.0)), "… HA→MH"),
    ("adversarial.clean.hier", "extension", "adversarial", Eq(P("/scores/8/frames_corrupted"), N(0.0)), "… hierarchical proxy"),

    ("overload.violations", "extension, oracle", "overload", Eq(P("/total_violations"), N(0.0)), "No state table outgrows its budget"),
    ("overload.slo", "extension, oracle", "overload", Eq(P("/total_slo_misses"), N(0.0)), "Every run reconverges within the SLO after the storm"),
    ("overload.floor", "extension, oracle", "overload", Eq(P("/total_floor_misses"), N(0.0)), "No protected-flow floor miss"),
    ("overload.protected", "extension, oracle", "overload", Within(P("/scores/*/protected_flow_min"), P("/protected_floor"), N(INF)),
      "Pre-storm receivers keep their floor share of the stream through the storm"),
    ("overload.mld_budget", "extension, budget", "overload", Within(P("/scores/*/mld_high_water"), N(-INF), N(8.0)),
      "MLD listeners stay within the budget of 8"),
    ("overload.pim_budget", "extension, budget", "overload", Within(P("/scores/*/pim_high_water"), N(-INF), N(8.0)),
      "(S,G) entries stay within the budget of 8"),
    ("overload.binding_budget", "extension, budget", "overload", Within(P("/scores/*/binding_high_water"), N(-INF), N(4.0)),
      "Binding-cache entries stay within the budget of 4"),
    ("overload.shed.local", "extension, oracle", "overload", Lt(N(0.0), P("/scores/1/shed")), "A severe storm overflows the budgets: local membership"),
    ("overload.shed.bidir", "extension, oracle", "overload", Lt(N(0.0), P("/scores/3/shed")), "… bi-directional tunnel"),
    ("overload.shed.mh_ha", "extension, oracle", "overload", Lt(N(0.0), P("/scores/5/shed")), "… MH→HA"),
    ("overload.shed.ha_mh", "extension, oracle", "overload", Lt(N(0.0), P("/scores/7/shed")), "… HA→MH"),
    ("overload.shed.hier", "extension, oracle", "overload", Lt(N(0.0), P("/scores/9/shed")), "… hierarchical proxy"),
    ("overload.limited.local", "extension, oracle", "overload", Lt(N(0.0), P("/scores/1/rate_limited")),
      "A severe storm trips the token bucket: local membership"),
    ("overload.limited.bidir", "extension, oracle", "overload", Lt(N(0.0), P("/scores/3/rate_limited")), "… bi-directional tunnel"),
    ("overload.limited.mh_ha", "extension, oracle", "overload", Lt(N(0.0), P("/scores/5/rate_limited")), "… MH→HA"),
    ("overload.limited.ha_mh", "extension, oracle", "overload", Lt(N(0.0), P("/scores/7/rate_limited")), "… HA→MH"),
    ("overload.limited.hier", "extension, oracle", "overload", Lt(N(0.0), P("/scores/9/rate_limited")), "… hierarchical proxy"),
    ("overload.onset.local", "extension, oracle", "overload", Within(P("/scores/1/shed_onset_s"), N(10.0), N(90.0)),
      "Shedding begins inside the storm window, 10–90 s: local membership"),
    ("overload.onset.bidir", "extension, oracle", "overload", Within(P("/scores/3/shed_onset_s"), N(10.0), N(90.0)), "… bi-directional tunnel"),
    ("overload.onset.mh_ha", "extension, oracle", "overload", Within(P("/scores/5/shed_onset_s"), N(10.0), N(90.0)), "… MH→HA"),
    ("overload.onset.ha_mh", "extension, oracle", "overload", Within(P("/scores/7/shed_onset_s"), N(10.0), N(90.0)), "… HA→MH"),
    ("overload.onset.hier", "extension, oracle", "overload", Within(P("/scores/9/shed_onset_s"), N(10.0), N(90.0)), "… hierarchical proxy"),
    ("overload.calm_shed.local", "extension, oracle", "overload", Eq(P("/scores/0/shed"), N(0.0)), "Nothing to shed without a storm: local membership"),
    ("overload.calm_shed.bidir", "extension, oracle", "overload", Eq(P("/scores/2/shed"), N(0.0)), "… bi-directional tunnel"),
    ("overload.calm_shed.mh_ha", "extension, oracle", "overload", Eq(P("/scores/4/shed"), N(0.0)), "… MH→HA"),
    ("overload.calm_shed.ha_mh", "extension, oracle", "overload", Eq(P("/scores/6/shed"), N(0.0)), "… HA→MH"),
    ("overload.calm_shed.hier", "extension, oracle", "overload", Eq(P("/scores/8/shed"), N(0.0)), "… hierarchical proxy"),
    ("overload.calm_onset.local", "extension, oracle", "overload", Eq(P("/scores/0/shed_onset_s"), N(0.0)), "No shed onset when calm: local membership"),
    ("overload.calm_onset.bidir", "extension, oracle", "overload", Eq(P("/scores/2/shed_onset_s"), N(0.0)), "… bi-directional tunnel"),
    ("overload.calm_onset.mh_ha", "extension, oracle", "overload", Eq(P("/scores/4/shed_onset_s"), N(0.0)), "… MH→HA"),
    ("overload.calm_onset.ha_mh", "extension, oracle", "overload", Eq(P("/scores/6/shed_onset_s"), N(0.0)), "… HA→MH"),
    ("overload.calm_onset.hier", "extension, oracle", "overload", Eq(P("/scores/8/shed_onset_s"), N(0.0)), "… hierarchical proxy"),
    ("overload.calm_delivery.local", "extension, oracle", "overload", Within(P("/scores/0/delivery"), N(0.99), N(INF)),
      "Calm delivery is ≥ 99 %: local membership"),
    ("overload.calm_delivery.bidir", "extension, oracle", "overload", Within(P("/scores/2/delivery"), N(0.99), N(INF)), "… bi-directional tunnel"),
    ("overload.calm_delivery.mh_ha", "extension, oracle", "overload", Within(P("/scores/4/delivery"), N(0.99), N(INF)), "… MH→HA"),
    ("overload.calm_delivery.ha_mh", "extension, oracle", "overload", Within(P("/scores/6/delivery"), N(0.99), N(INF)), "… HA→MH"),
    ("overload.calm_delivery.hier", "extension, oracle", "overload", Within(P("/scores/8/delivery"), N(0.99), N(INF)), "… hierarchical proxy"),

    ("chaos.violations", "extension, oracle", "chaos", Eq(P("/total_violations"), N(0.0)),
      "No oracle violation under any seed's faults and moves, for any approach"),

    ("stress.clean", "extension, oracle", "stress", Eq(P("/scenarios/*/oracle_violations"), N(0.0)),
      "No oracle violation on the multipath grid or the tree, under either approach"),

    ("handoff_latency.hier_skips_ha", "extension, HMIP", "handoff_latency", Eq(P("/policies/hier-proxy/ha_binding_updates"), N(0.0)),
      "Under the proxy no move of R1 signals the home agent"),
    ("handoff_latency.hier_uses_map", "extension, HMIP", "handoff_latency", Within(P("/policies/hier-proxy/map_binding_updates"), N(2.0), N(INF)),
      "… both registrations go to the MAP"),
    ("handoff_latency.tunnel_uses_ha", "§4.3.2", "handoff_latency", Within(P("/policies/bidir-tunnel/ha_binding_updates"), N(2.0), N(INF)),
      "The flat tunnel signals the home agent on every move"),
    ("handoff_latency.tunnel_skips_map", "§4.3.2", "handoff_latency", Eq(P("/policies/bidir-tunnel/map_binding_updates"), N(0.0)),
      "… and never the MAP"),
    ("handoff_latency.intra_faster", "extension, HMIP", "handoff_latency",
      Ratio(P("/policies/hier-proxy/intra_domain_rejoin_s"), P("/policies/bidir-tunnel/intra_domain_rejoin_s"),
            Under(0.5)),
      "The local re-registration beats the home-agent round trip: under half the tunnel's intra-domain rejoin"),
    ("handoff_latency.delivery", "extension, HMIP", "handoff_latency", Lt(N(0.8), P("/policies/*/r1_delivery")),
      "Every policy keeps delivering to the roaming receiver: over 80 %"),
    ("handoff_latency.handoffs", "extension, spans", "handoff_latency", Eq(P("/policies/*/observability/handoffs"), N(2.0)),
      "The span view sees both handoffs"),
    ("handoff_latency.recovered", "extension, spans", "handoff_latency", Eq(P("/policies/*/observability/recovered"), N(2.0)), "… both recover"),
    ("handoff_latency.interruption", "extension, spans", "handoff_latency", Lt(N(0.0), P("/policies/*/observability/interruption_p95_s")),
      "… and the interruption digest is not empty"),
];

impl V {
    fn pointer(self) -> Option<&'static str> {
        match self {
            P(p) | Plus(p, _) => Some(p),
            _ => None,
        }
    }

    fn offset(self) -> f64 {
        match self {
            Plus(_, k) => k,
            _ => 0.0,
        }
    }

    /// The value for the `*` key `key`; `None` when a pointer resolves to
    /// nothing.
    fn resolve(self, json: &Value, key: Option<&str>) -> Option<Value> {
        let star = |p: &str| key.map_or(p.to_owned(), |k| p.replacen('*', k, 1));
        match self {
            P(p) | Plus(p, _) => lookup(json, &star(p)).cloned(),
            N(x) => Some(Value::F64(x)),
            J(text) => serde_json::from_str(text).ok(),
            PaperName => {
                let i: usize = key?.parse().ok()?;
                Some(Value::Str(Policy::PAPER.get(i)?.name().to_owned()))
            }
        }
    }

    /// The operand as the measured column shows it, over every case.
    fn show(self, values: &[Option<Value>]) -> String {
        let shown = match self {
            N(x) => num(x),
            J(text) => text.to_owned(),
            PaperName => "`Policy::PAPER[i]`".to_owned(),
            P(_) | Plus(..) => spread(values),
        };
        match self.offset() {
            k if k > 0.0 => format!("{shown} + {}", num(k)),
            k if k < 0.0 => format!("{shown} − {}", num(-k)),
            _ => shown,
        }
    }
}

/// An RFC 6901 pointer's target (no key here needs a `~` escape).
fn lookup<'a>(json: &'a Value, pointer: &str) -> Option<&'a Value> {
    pointer
        .split('/')
        .skip(1)
        .try_fold(json, |v, step| match v {
            Value::Array(items) => items.get(step.parse::<usize>().ok()?),
            _ => v.get(step),
        })
}

/// The keys a pointer's `*` step ranges over.
fn star_keys(json: &Value, pointer: &str) -> Vec<String> {
    let (head, _) = pointer.split_once("/*").expect("a `*` step");
    match lookup(json, head) {
        Some(Value::Array(items)) => (0..items.len()).map(|i| i.to_string()).collect(),
        Some(Value::Object(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    }
}

/// A number in at most four significant digits, integers whole.
fn num(x: f64) -> String {
    if x.is_infinite() {
        return if x > 0.0 { "∞" } else { "−∞" }.to_owned();
    }
    if x == x.trunc() && x.abs() < 1e15 {
        return format!("{x:.0}");
    }
    let decimals = (3 - x.abs().log10().floor() as i32).clamp(0, 12) as usize;
    let s = format!("{x:.decimals$}");
    s.trim_end_matches('0').trim_end_matches('.').to_owned()
}

fn value(v: &Option<Value>) -> String {
    match v {
        None => "missing".to_owned(),
        Some(v) => v
            .as_f64()
            .map(num)
            .unwrap_or_else(|| serde_json::to_string(v).unwrap()),
    }
}

/// One value, the range of many numbers, or how many values there are.
fn spread(values: &[Option<Value>]) -> String {
    let first = values
        .first()
        .map(value)
        .unwrap_or_else(|| "nothing".to_owned());
    if values.iter().all(|v| value(v) == first) {
        return first;
    }
    let nums: Option<Vec<f64>> = values.iter().map(|v| v.as_ref()?.as_f64()).collect();
    match nums {
        Some(xs) => {
            let lo = xs.iter().copied().fold(INF, f64::min);
            let hi = xs.iter().copied().fold(-INF, f64::max);
            format!("{} … {}", num(lo), num(hi))
        }
        None => format!("{} values", values.len()),
    }
}

impl Check {
    fn operands(self) -> Vec<V> {
        match self {
            Lt(a, b) | Ratio(a, b, _) | Eq(a, b) => vec![a, b],
            Within(a, lo, hi) => vec![a, lo, hi],
        }
    }

    /// Does the check hold on one case's operand values? Not if a pointer
    /// resolved to nothing.
    fn holds(self, vals: &[Option<Value>]) -> bool {
        if vals.iter().any(Option::is_none) {
            return false;
        }
        let ops = self.operands();
        let x = |i: usize| Some(vals[i].as_ref()?.as_f64()? + ops[i].offset());
        match self {
            Lt(..) => matches!((x(0), x(1)), (Some(a), Some(b)) if a < b),
            Ratio(_, _, bound) => matches!((x(0), x(1)), (Some(a), Some(b)) if match bound {
                Over(k) => a > k * b,
                AtLeast(k) => a >= k * b,
                Under(k) => a < k * b,
                Exactly(k) => a == k * b,
            }),
            Within(..) => {
                matches!((x(0), x(1), x(2)), (Some(a), Some(lo), Some(hi)) if lo <= a && a <= hi)
            }
            Eq(..) => vals[0] == vals[1] || matches!((x(0), x(1)), (Some(a), Some(b)) if a == b),
        }
    }

    /// The check with each operand shown as measured.
    fn render(self, s: &[String]) -> String {
        match self {
            Lt(..) => format!("{} < {}", s[0], s[1]),
            Ratio(_, _, Over(k)) => format!("{} > {} × {}", s[0], num(k), s[1]),
            Ratio(_, _, AtLeast(k)) => format!("{} ≥ {} × {}", s[0], num(k), s[1]),
            Ratio(_, _, Under(k)) => format!("{} < {} × {}", s[0], num(k), s[1]),
            Ratio(_, _, Exactly(k)) => format!("{} = {} × {}", s[0], num(k), s[1]),
            Within(_, N(lo), _) if lo == -INF => format!("{} ≤ {}", s[0], s[2]),
            Within(_, _, N(hi)) if hi == INF => format!("{} ≥ {}", s[0], s[1]),
            Within(..) => format!("{} ≤ {} ≤ {}", s[1], s[0], s[2]),
            Eq(..) => format!("{} = {}", s[0], s[1]),
        }
    }
}

/// The operands' values, once per key of the first `*` step among them
/// (once if there is none), and whether there was one.
fn cases(ops: &[V], json: &Value) -> (bool, Vec<Vec<Option<Value>>>) {
    let star = ops
        .iter()
        .filter_map(|o| o.pointer())
        .find(|p| p.contains("/*"));
    let keys: Vec<Option<String>> = match star {
        Some(p) => star_keys(json, p).into_iter().map(Some).collect(),
        None => vec![None],
    };
    let cases = keys
        .iter()
        .map(|k| ops.iter().map(|o| o.resolve(json, k.as_deref())).collect());
    (star.is_some(), cases.collect())
}

/// Does the row hold on `json`, and what did it measure?
fn judge(check: Check, json: &Value) -> (bool, String) {
    let ops = check.operands();
    let (star, cases) = cases(&ops, json);
    let passed = cases.iter().filter(|vals| check.holds(vals)).count();
    let column = |i: usize| cases.iter().map(|c| c[i].clone()).collect::<Vec<_>>();
    let shown: Vec<String> = ops
        .iter()
        .enumerate()
        .map(|(i, o)| o.show(&column(i)))
        .collect();
    let measured = match star {
        true => format!("{passed} of {}: {}", cases.len(), check.render(&shown)),
        false => check.render(&shown),
    };
    (!cases.is_empty() && passed == cases.len(), measured)
}

/// The block EXPERIMENTS.md holds for experiment `exp`, between its markers.
fn render_block(exp: &str, count: V, json: &Value) -> String {
    let runs: f64 = cases(&[count], json)
        .1
        .iter()
        .filter_map(|c| c[0].as_ref()?.as_f64())
        .sum();
    let mut out = format!(
        "From the committed `results/{exp}.json` (`mobicast all --quick`, {} scenario run{}).\n\n\
         | citation | claim | measured | holds |\n|---|---|---|---|\n",
        num(runs),
        if runs == 1.0 { "" } else { "s" }
    );
    for claim in CLAIMS.iter().filter(|c| c.2 == exp) {
        out += &row_line(claim, json);
    }
    out
}

/// One table row: citation, claim, measured, holds.
fn row_line(&(id, cite, _, check, prose): &Claim, json: &Value) -> String {
    let (holds, measured) = judge(check, json);
    let mark = if holds { "✓" } else { "✗" };
    format!("| {cite} | {prose} (`{id}`) | {measured} | {mark} |\n")
}

#[test]
fn every_claim_holds_on_a_quick_run() {
    let mut ids: Vec<&str> = CLAIMS.iter().map(|c| c.0).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), CLAIMS.len(), "a claim id is listed twice");
    let orphan = CLAIMS
        .iter()
        .find(|c| EXPERIMENTS.iter().all(|(exp, _)| *exp != c.2));
    assert!(
        orphan.is_none(),
        "{:?} names an experiment without a block",
        orphan.map(|c| c.0)
    );

    assert_eq!(
        EXPERIMENTS.len(),
        REGISTRY.len(),
        "a registered experiment has no block"
    );
    let outputs = run_ordered(REGISTRY.to_vec(), configured_workers(), |(_, run)| {
        run(Settings::new(true))
    });

    let mut failures = Vec::new();
    for (exp, _) in EXPERIMENTS {
        let json = &outputs
            .iter()
            .find(|out| out.id == *exp)
            .expect("an experiment with a block is registered")
            .json;
        let failing = CLAIMS.iter().filter(|c| c.2 == *exp && !judge(c.3, json).0);
        failures.extend(failing.map(|claim| row_line(claim, json)));
        let got = serde_json::to_string_pretty(json).unwrap();
        failures.extend(difference(&format!("{exp}.json"), &got));
    }
    let archive = experiments::archive(&outputs);
    failures.extend(difference("exp_all_output.txt", &archive));
    assert!(
        failures.is_empty(),
        "{} checks fail:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

fn repo() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// The committed `results/<file>`, as `mobicast all --quick` wrote it.
fn committed(file: &str) -> String {
    let path = repo().join("results").join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Where the quick run's `got` first differs from the committed
/// `results/<file>`, if it does.
fn difference(file: &str, got: &str) -> Option<String> {
    let want = committed(file);
    let line = 1 + got
        .lines()
        .zip(want.lines())
        .take_while(|(a, b)| a == b)
        .count();
    (got != want).then(|| {
        format!(
            "the quick run differs from the committed results/{file} from line {line}; \
             if the change is intended, run `mobicast all --quick` and commit results/"
        )
    })
}

#[test]
fn experiments_md_blocks_render_the_committed_results() {
    let path = repo().join("EXPERIMENTS.md");
    let doc = std::fs::read_to_string(&path).expect("EXPERIMENTS.md");
    let mut rendered = doc.clone();
    for (exp, count) in EXPERIMENTS {
        let json = serde_json::from_str(&committed(&format!("{exp}.json"))).expect("result JSON");
        let open = format!("<!-- claims:{exp} -->\n");
        let missing = || -> usize { panic!("EXPERIMENTS.md lacks the claims:{exp} markers") };
        let start = rendered.find(&open).unwrap_or_else(missing) + open.len();
        let end = start
            + rendered[start..]
                .find(&format!("<!-- /claims:{exp} -->"))
                .unwrap_or_else(missing);
        rendered.replace_range(start..end, &render_block(exp, *count, &json));
    }
    if std::env::var_os("MOBICAST_UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    assert!(
        doc == rendered,
        "EXPERIMENTS.md's claim blocks differ from the committed results; \
         regenerate with MOBICAST_UPDATE_GOLDENS=1 and commit"
    );
}

/// The evaluator fails what it should: equality is not `<`, a pointer
/// to nothing fails, a `*` row checks every element, and the renderer
/// marks a failing row.
#[test]
fn a_row_fails_on_equality_on_nothing_and_on_any_element() {
    let json: Value = serde_json::from_str(r#"{"x": 1, "xs": [1, 2, 3], "names": {}}"#).unwrap();
    let holds = |check| judge(check, &json).0;
    assert!(holds(Lt(P("/x"), N(2.0))));
    assert!(!holds(Lt(P("/x"), N(1.0))), "Lt accepted equality");
    assert!(
        !holds(Eq(P("/none"), P("/none"))),
        "a missing pointer passed"
    );
    assert!(!holds(Lt(N(0.0), P("/names/*"))), "an empty `*` passed");
    assert!(
        !holds(Lt(P("/xs/*"), N(3.0))),
        "a `*` row checked its first element only"
    );
    assert_eq!(judge(Lt(P("/xs/*"), N(3.0)), &json).1, "2 of 3: 1 … 3 < 3");
    assert!(holds(Ratio(P("/xs/*"), P("/xs/*"), Exactly(1.0))));
    let failing = ("t", "-", "t", Lt(P("/x"), N(1.0)), "-");
    assert!(
        row_line(&failing, &json).ends_with("| ✗ |\n"),
        "a failing row shows ✓"
    );
}
