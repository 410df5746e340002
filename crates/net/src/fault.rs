//! Deterministic fault injection: per-link i.i.d. frame loss, bounded
//! delay jitter, in-flight corruption, scheduled link down/up flaps, and
//! router crash/restart with full protocol-state loss.
//!
//! All randomness is drawn from labelled [`rand`] streams handed in by the
//! harness (one stream per link, derived from the scenario seed via
//! `RngFactory`), so a given seed reproduces the exact same drop and jitter
//! sequence — the simulator's determinism contract extends to its faults.

use bytes::Bytes;
use mobicast_sim::{counter, Counter, SimDuration};
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Independent (Bernoulli) frame loss: each copy is dropped with
/// probability `p`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LossModel {
    /// Per-copy drop probability.
    pub p: f64,
}

impl Default for LossModel {
    fn default() -> Self {
        LossModel::none()
    }
}

impl LossModel {
    /// No loss.
    pub const fn none() -> Self {
        LossModel { p: 0.0 }
    }

    /// Independent (Bernoulli) loss with probability `p` per frame.
    pub const fn iid(p: f64) -> Self {
        LossModel { p }
    }

    pub fn is_none(&self) -> bool {
        self.p == 0.0
    }

    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.p) {
            return Err(format!("loss p = {} outside [0, 1]", self.p));
        }
        Ok(())
    }
}

/// One way a frame copy can be mangled in flight.
///
/// The first three mutate the wire bytes the receiver sees; the last two
/// leave the bytes intact but violate delivery semantics (extra copy,
/// late/reordered copy).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
#[repr(u8)]
pub enum CorruptionKind {
    /// One random bit of the frame is inverted.
    BitFlip,
    /// The frame is cut short at a random offset (possibly to nothing).
    Truncate,
    /// The frame is replaced by random garbage of random length.
    Garbage,
    /// The receiver hears the frame twice (second copy delayed).
    Duplicate,
    /// The frame arrives late by a bounded delay, reordering it behind
    /// frames transmitted after it (a bounded replay).
    Replay,
}

/// Number of distinct corruption kinds (array sizing).
pub const CORRUPTION_KIND_COUNT: usize = 5;

impl CorruptionKind {
    pub const ALL: [CorruptionKind; CORRUPTION_KIND_COUNT] = [
        CorruptionKind::BitFlip,
        CorruptionKind::Truncate,
        CorruptionKind::Garbage,
        CorruptionKind::Duplicate,
        CorruptionKind::Replay,
    ];

    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            CorruptionKind::BitFlip => "bit_flip",
            CorruptionKind::Truncate => "truncate",
            CorruptionKind::Garbage => "garbage",
            CorruptionKind::Duplicate => "duplicate",
            CorruptionKind::Replay => "replay",
        }
    }

    /// World counter for this kind.
    pub fn counter(self) -> &'static Counter {
        match self {
            CorruptionKind::BitFlip => counter!("faults.corrupt_bit_flip"),
            CorruptionKind::Truncate => counter!("faults.corrupt_truncate"),
            CorruptionKind::Garbage => counter!("faults.corrupt_garbage"),
            CorruptionKind::Duplicate => counter!("faults.corrupt_duplicate"),
            CorruptionKind::Replay => counter!("faults.corrupt_replay"),
        }
    }
}

/// Upper bound on the extra delay of a duplicated or replayed copy.
const MAX_REPLAY_DELAY: SimDuration = SimDuration::from_millis(50);

/// Adversarial wire-corruption process for one link: with probability
/// `rate` per receiver copy, one [`CorruptionKind`] (all five equally
/// likely) is applied to the copy between send and deliver.
///
/// Like [`LossModel`], the process is fully seeded: a disabled model makes
/// zero RNG draws, so installing `CorruptionModel::none()` leaves existing
/// seed realizations byte-identical.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CorruptionModel {
    /// Per-receiver-copy probability that the copy is corrupted at all.
    pub rate: f64,
}

impl Default for CorruptionModel {
    fn default() -> Self {
        CorruptionModel::none()
    }
}

impl CorruptionModel {
    /// No corruption (and no RNG draws).
    pub const fn none() -> Self {
        CorruptionModel { rate: 0.0 }
    }

    /// All five kinds equally likely at total rate `rate`.
    pub const fn uniform(rate: f64) -> Self {
        CorruptionModel { rate }
    }

    pub fn is_none(&self) -> bool {
        self.rate == 0.0
    }

    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.rate) {
            return Err(format!("corruption rate = {} outside [0, 1]", self.rate));
        }
        Ok(())
    }

    /// Pick a kind, all equally likely, using exactly one RNG draw. The
    /// largest draw, 1 − 2⁻⁵³, times 5 rounds to just below 5, so the
    /// index is always in range.
    fn pick(rng: &mut SmallRng) -> CorruptionKind {
        let x = rng.random::<f64>() * CORRUPTION_KIND_COUNT as f64;
        CorruptionKind::ALL[x as usize]
    }
}

/// Per-link fault configuration: a loss process, bounded delay jitter, and
/// an adversarial corruption process.
#[derive(Clone, Copy, Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct LinkFault {
    pub loss: LossModel,
    /// Maximum extra per-frame, per-receiver delay; each delivery is
    /// delayed by an additional uniform draw from `[0, jitter]`.
    pub jitter: SimDuration,
    /// In-flight frame corruption applied to surviving copies.
    pub corruption: CorruptionModel,
}

impl LinkFault {
    pub fn is_none(&self) -> bool {
        self.loss.is_none() && self.jitter.is_zero() && self.corruption.is_none()
    }

    pub fn validate(&self) -> Result<(), String> {
        self.loss.validate()?;
        self.corruption.validate()
    }
}

/// Runtime fault state of one link: the configuration and the link's
/// private RNG stream.
#[derive(Debug)]
pub struct LinkFaultState {
    cfg: LinkFault,
    rng: SmallRng,
}

impl LinkFaultState {
    /// `rng` must be a stream dedicated to this link (e.g.
    /// `factory.indexed_stream("fault.link", link.0 as u64)`), otherwise
    /// drop sequences on different links become correlated.
    pub fn new(cfg: LinkFault, rng: SmallRng) -> Self {
        LinkFaultState { cfg, rng }
    }

    pub fn cfg(&self) -> &LinkFault {
        &self.cfg
    }

    /// Decide the fate of one frame copy headed to one receiver: one
    /// Bernoulli trial, one draw (none when the link is lossless).
    pub fn should_drop(&mut self) -> bool {
        let p = self.cfg.loss.p;
        p > 0.0 && self.rng.random::<f64>() < p
    }

    /// Extra delivery delay for one frame copy: uniform in `[0, jitter]`.
    pub fn jitter(&mut self) -> SimDuration {
        if self.cfg.jitter.is_zero() {
            return SimDuration::ZERO;
        }
        let max = self.cfg.jitter.as_nanos() as f64;
        SimDuration::from_nanos((max * self.rng.random::<f64>()) as u64)
    }

    /// Decide whether (and how) one surviving frame copy is corrupted.
    /// Makes zero draws when the model is disabled, one draw for the
    /// corrupt/clean decision otherwise, and one more to pick the kind —
    /// fixed order, so the seed fully determines the outcome sequence.
    pub fn corruption(&mut self) -> Option<CorruptionKind> {
        let c = self.cfg.corruption;
        if c.is_none() {
            return None;
        }
        if self.rng.random::<f64>() >= c.rate {
            return None;
        }
        Some(CorruptionModel::pick(&mut self.rng))
    }

    /// Mutate the wire bytes of a corrupted copy according to `kind`.
    /// Only meaningful for byte-mutating kinds; delivery-semantics kinds
    /// (duplicate/replay) return the bytes unchanged without drawing.
    pub fn corrupt_bytes(&mut self, kind: CorruptionKind, bytes: &Bytes) -> Bytes {
        match kind {
            CorruptionKind::BitFlip => {
                if bytes.is_empty() {
                    return bytes.clone();
                }
                let bit = self.rng.random_range(0..bytes.len() * 8);
                let mut out = bytes.to_vec();
                out[bit / 8] ^= 1 << (bit % 8);
                Bytes::from(out)
            }
            CorruptionKind::Truncate => {
                if bytes.is_empty() {
                    return bytes.clone();
                }
                let cut = self.rng.random_range(0..bytes.len());
                Bytes::copy_from_slice(&bytes[..cut])
            }
            CorruptionKind::Garbage => {
                let max_len = bytes.len().max(16);
                let len = self.rng.random_range(1..=max_len);
                let mut out = vec![0u8; len];
                use rand::RngCore;
                self.rng.fill_bytes(&mut out);
                Bytes::from(out)
            }
            CorruptionKind::Duplicate | CorruptionKind::Replay => bytes.clone(),
        }
    }

    /// Extra delay of a duplicated or replayed copy: uniform in
    /// `(0, 50 ms]` (never zero, so the copy genuinely lands after the
    /// original / after its nominal arrival).
    pub fn replay_delay(&mut self) -> SimDuration {
        SimDuration::from_nanos(self.rng.random_range(1..=MAX_REPLAY_DELAY.as_nanos()))
    }
}

/// One scheduled link outage: the link drops every frame (at transmission
/// and at arrival) between `down_at_secs` and `up_at_secs`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LinkFlap {
    /// 0-based link index (`LinkId` value).
    pub link: u32,
    pub down_at_secs: f64,
    pub up_at_secs: f64,
}

/// One scheduled router failure: the router stops processing frames and
/// timers at `crash_at_secs` and comes back at `restart_at_secs` with a
/// completely fresh protocol stack — all MLD, PIM and binding soft state
/// is lost and must be rebuilt by the protocols' own recovery machinery.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RouterCrash {
    /// Index into the scenario's router list.
    pub router: u32,
    pub crash_at_secs: f64,
    pub restart_at_secs: f64,
}

/// Time window during which the link loss/jitter configuration applies.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultWindow {
    pub start_secs: f64,
    pub end_secs: f64,
}

/// A well-formed signaling storm: every message is syntactically valid,
/// there are just far too many of them. Rates are mean events per second
/// sustained across the storm window `[start_secs, end_secs)`; the
/// concrete arrival times come from dedicated seeded RNG streams drawn by
/// the scenario layer, and a disabled storm makes **zero** RNG draws.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct StormModel {
    /// Channel-zapping churn: mean joins-then-leaves per second, spread
    /// across `zap_groups` distinct extra groups (IPTV zapping workload).
    pub zap_rate: f64,
    /// How many distinct extra groups the zapping churn cycles through.
    pub zap_groups: u32,
    /// Binding Update storm: mean re-registrations per second from
    /// rapidly roaming mobile hosts.
    pub bu_rate: f64,
    /// Graft/prune flapping: mean subscribe/unsubscribe toggles per
    /// second across `flap_hosts` dedicated storm hosts.
    pub flap_rate: f64,
    /// How many dedicated storm hosts participate in graft/prune flaps.
    pub flap_hosts: u32,
    /// Storm window start, seconds.
    pub start_secs: f64,
    /// Storm window end, seconds. Must exceed `start_secs` when any rate
    /// is positive.
    pub end_secs: f64,
}

impl Default for StormModel {
    fn default() -> Self {
        StormModel::none()
    }
}

impl StormModel {
    /// No storm (and no RNG draws).
    pub const fn none() -> Self {
        StormModel {
            zap_rate: 0.0,
            zap_groups: 0,
            bu_rate: 0.0,
            flap_rate: 0.0,
            flap_hosts: 0,
            start_secs: 0.0,
            end_secs: 0.0,
        }
    }

    pub fn is_none(&self) -> bool {
        self.zap_rate == 0.0 && self.bu_rate == 0.0 && self.flap_rate == 0.0
    }

    pub fn validate(&self) -> Result<(), String> {
        for (name, r) in [
            ("zap_rate", self.zap_rate),
            ("bu_rate", self.bu_rate),
            ("flap_rate", self.flap_rate),
        ] {
            if !(r >= 0.0 && r.is_finite()) {
                return Err(format!("storm {name} = {r} invalid"));
            }
        }
        if self.is_none() {
            return Ok(());
        }
        if !(self.start_secs >= 0.0 && self.end_secs > self.start_secs) {
            return Err(format!(
                "bad storm window [{}, {}]",
                self.start_secs, self.end_secs
            ));
        }
        if self.zap_rate > 0.0 && self.zap_groups == 0 {
            return Err("zapping storm needs zap_groups >= 1".into());
        }
        if self.flap_rate > 0.0 && self.flap_hosts == 0 {
            return Err("flap storm needs flap_hosts >= 1".into());
        }
        Ok(())
    }
}

/// A complete, world-agnostic fault schedule for one scenario run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Loss/jitter applied to every link.
    pub link: LinkFault,
    /// When `Some`, loss/jitter only applies inside the window; when
    /// `None`, it applies for the whole run.
    pub window: Option<FaultWindow>,
    pub flaps: Vec<LinkFlap>,
    pub crashes: Vec<RouterCrash>,
    /// Well-formed signaling storm injected during its own window.
    pub storm: StormModel,
}

impl FaultPlan {
    pub fn is_none(&self) -> bool {
        self.link.is_none()
            && self.flaps.is_empty()
            && self.crashes.is_empty()
            && self.storm.is_none()
    }

    /// Every link loses `p` of its frames, independently, all run long.
    pub fn iid_loss(p: f64) -> Self {
        FaultPlan {
            link: LinkFault {
                loss: LossModel::iid(p),
                ..LinkFault::default()
            },
            ..FaultPlan::default()
        }
    }

    pub fn validate(&self) -> Result<(), String> {
        self.link.validate()?;
        if let Some(w) = self.window {
            if !(w.start_secs >= 0.0 && w.end_secs > w.start_secs) {
                return Err(format!(
                    "bad fault window [{}, {}]",
                    w.start_secs, w.end_secs
                ));
            }
        }
        for f in &self.flaps {
            if !(f.down_at_secs >= 0.0 && f.up_at_secs > f.down_at_secs) {
                return Err(format!("bad flap [{}, {}]", f.down_at_secs, f.up_at_secs));
            }
        }
        for c in &self.crashes {
            if !(c.crash_at_secs >= 0.0 && c.restart_at_secs > c.crash_at_secs) {
                return Err(format!(
                    "bad crash [{}, {}]",
                    c.crash_at_secs, c.restart_at_secs
                ));
            }
        }
        self.storm.validate()?;
        Ok(())
    }

    /// The instant after which every scheduled fault has cleared — the
    /// earliest time from which steady-state behavior may be demanded.
    /// `None` when a fault has no scheduled end (unwindowed loss/jitter).
    pub fn recovery_bound_secs(&self) -> Option<f64> {
        let mut bound: f64 = 0.0;
        if !self.link.is_none() {
            match self.window {
                Some(w) => bound = bound.max(w.end_secs),
                None => return None,
            }
        }
        for f in &self.flaps {
            bound = bound.max(f.up_at_secs);
        }
        for c in &self.crashes {
            bound = bound.max(c.restart_at_secs);
        }
        if !self.storm.is_none() {
            bound = bound.max(self.storm.end_secs);
        }
        Some(bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn none_never_drops() {
        let mut s = LinkFaultState::new(LinkFault::default(), rng(1));
        assert!((0..10_000).all(|_| !s.should_drop()));
        assert_eq!(s.jitter(), SimDuration::ZERO);
    }

    #[test]
    fn iid_loss_rate_close_to_nominal() {
        let mut s = LinkFaultState::new(
            LinkFault {
                loss: LossModel::iid(0.1),
                jitter: SimDuration::ZERO,
                corruption: CorruptionModel::none(),
            },
            rng(2),
        );
        let n = 100_000;
        let drops = (0..n).filter(|_| s.should_drop()).count();
        let rate = drops as f64 / f64::from(n);
        assert!((rate - 0.1).abs() < 0.01, "measured {rate}");
    }

    #[test]
    fn same_seed_same_drop_and_jitter_sequence() {
        let cfg = LinkFault {
            loss: LossModel::iid(0.2),
            jitter: SimDuration::from_millis(5),
            corruption: CorruptionModel::none(),
        };
        let mut a = LinkFaultState::new(cfg, rng(7));
        let mut b = LinkFaultState::new(cfg, rng(7));
        for _ in 0..10_000 {
            let (da, db) = (a.should_drop(), b.should_drop());
            assert_eq!(da, db);
            if !da {
                assert_eq!(a.jitter(), b.jitter());
            }
        }
    }

    #[test]
    fn jitter_is_bounded() {
        let cfg = LinkFault {
            loss: LossModel::none(),
            jitter: SimDuration::from_millis(2),
            corruption: CorruptionModel::none(),
        };
        let mut s = LinkFaultState::new(cfg, rng(8));
        for _ in 0..10_000 {
            assert!(s.jitter() <= SimDuration::from_millis(2));
        }
    }

    #[test]
    fn plan_validation_and_recovery_bound() {
        let mut plan = FaultPlan::iid_loss(0.1);
        assert!(plan.validate().is_ok());
        assert_eq!(
            plan.recovery_bound_secs(),
            None,
            "unwindowed loss never clears"
        );
        plan.window = Some(FaultWindow {
            start_secs: 10.0,
            end_secs: 60.0,
        });
        plan.flaps.push(LinkFlap {
            link: 2,
            down_at_secs: 20.0,
            up_at_secs: 90.0,
        });
        plan.crashes.push(RouterCrash {
            router: 1,
            crash_at_secs: 30.0,
            restart_at_secs: 45.0,
        });
        assert!(plan.validate().is_ok());
        assert_eq!(plan.recovery_bound_secs(), Some(90.0));
        assert!(FaultPlan::iid_loss(1.5).validate().is_err());
        let bad_flap = FaultPlan {
            flaps: vec![LinkFlap {
                link: 0,
                down_at_secs: 5.0,
                up_at_secs: 5.0,
            }],
            ..FaultPlan::default()
        };
        assert!(bad_flap.validate().is_err());
    }

    #[test]
    fn storm_model_validation_and_recovery_bound() {
        assert!(StormModel::none().is_none());
        assert!(StormModel::none().validate().is_ok());
        let storm = StormModel {
            zap_rate: 5.0,
            zap_groups: 8,
            bu_rate: 2.0,
            flap_rate: 1.0,
            flap_hosts: 2,
            start_secs: 10.0,
            end_secs: 70.0,
        };
        assert!(!storm.is_none());
        assert!(storm.validate().is_ok());
        // Positive rate demands a real window and nonzero target counts.
        assert!(StormModel {
            end_secs: 10.0,
            ..storm
        }
        .validate()
        .is_err());
        assert!(StormModel {
            zap_groups: 0,
            ..storm
        }
        .validate()
        .is_err());
        assert!(StormModel {
            flap_hosts: 0,
            ..storm
        }
        .validate()
        .is_err());
        assert!(StormModel {
            bu_rate: f64::NAN,
            ..storm
        }
        .validate()
        .is_err());
        // A storm alone makes the plan non-none and bounds recovery at
        // its window end.
        let plan = FaultPlan {
            storm,
            ..FaultPlan::default()
        };
        assert!(!plan.is_none());
        assert!(plan.validate().is_ok());
        assert_eq!(plan.recovery_bound_secs(), Some(70.0));
    }

    #[test]
    fn default_plan_is_none() {
        assert!(FaultPlan::default().is_none());
        assert!(!FaultPlan::iid_loss(0.01).is_none());
        assert_eq!(FaultPlan::default().recovery_bound_secs(), Some(0.0));
    }

    fn corrupting(model: CorruptionModel, seed: u64) -> LinkFaultState {
        LinkFaultState::new(
            LinkFault {
                corruption: model,
                ..LinkFault::default()
            },
            rng(seed),
        )
    }

    #[test]
    fn disabled_corruption_makes_no_draws() {
        // With corruption disabled, calling corruption() must not disturb
        // the RNG stream: the loss sequence stays identical whether or not
        // the corruption roll happens between drops.
        let cfg = LinkFault {
            loss: LossModel::iid(0.3),
            ..LinkFault::default()
        };
        let mut a = LinkFaultState::new(cfg, rng(11));
        let mut b = LinkFaultState::new(cfg, rng(11));
        for _ in 0..10_000 {
            let da = a.should_drop();
            let db = b.should_drop();
            assert!(b.corruption().is_none());
            assert_eq!(da, db);
        }
    }

    #[test]
    fn corruption_rate_close_to_nominal() {
        let mut s = corrupting(CorruptionModel::uniform(0.2), 12);
        let n = 100_000;
        let hits = (0..n).filter(|_| s.corruption().is_some()).count();
        let rate = hits as f64 / f64::from(n);
        assert!((rate - 0.2).abs() < 0.01, "measured {rate}");
    }

    #[test]
    fn corruption_kinds_are_equally_likely() {
        let mut s = corrupting(CorruptionModel::uniform(1.0), 13);
        let n = 50_000;
        let mut seen = [0u32; CORRUPTION_KIND_COUNT];
        for _ in 0..n {
            seen[s.corruption().expect("rate 1 corrupts every copy").index()] += 1;
        }
        for (kind, &hits) in CorruptionKind::ALL.iter().zip(&seen) {
            let share = f64::from(hits) / f64::from(n);
            assert!((share - 0.2).abs() < 0.01, "{}: {share}", kind.name());
        }
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let mut s = corrupting(CorruptionModel::uniform(1.0), 14);
        let original = Bytes::copy_from_slice(&[0xA5; 64]);
        for _ in 0..200 {
            let out = s.corrupt_bytes(CorruptionKind::BitFlip, &original);
            assert_eq!(out.len(), original.len());
            let differing: u32 = original
                .iter()
                .zip(out.iter())
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(differing, 1);
        }
    }

    #[test]
    fn truncate_yields_strict_prefix() {
        let mut s = corrupting(CorruptionModel::uniform(1.0), 15);
        let original = Bytes::copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        for _ in 0..200 {
            let out = s.corrupt_bytes(CorruptionKind::Truncate, &original);
            assert!(out.len() < original.len());
            assert_eq!(&original[..out.len()], &out[..]);
        }
    }

    #[test]
    fn garbage_is_bounded_and_nonempty() {
        let mut s = corrupting(CorruptionModel::uniform(1.0), 16);
        let original = Bytes::copy_from_slice(&[0; 40]);
        for _ in 0..200 {
            let out = s.corrupt_bytes(CorruptionKind::Garbage, &original);
            assert!(!out.is_empty());
            assert!(out.len() <= 40);
        }
    }

    #[test]
    fn replay_delay_is_positive_and_bounded() {
        let mut s = corrupting(CorruptionModel::uniform(1.0), 17);
        for _ in 0..1000 {
            let d = s.replay_delay();
            assert!(d > SimDuration::ZERO);
            assert!(d <= SimDuration::from_millis(50));
        }
    }

    #[test]
    fn empty_frames_survive_byte_mutation() {
        let mut s = corrupting(CorruptionModel::uniform(1.0), 18);
        let empty = Bytes::copy_from_slice(&[]);
        assert!(s.corrupt_bytes(CorruptionKind::BitFlip, &empty).is_empty());
        assert!(s.corrupt_bytes(CorruptionKind::Truncate, &empty).is_empty());
        // Garbage replaces the frame, so even an empty one grows bytes.
        assert!(!s.corrupt_bytes(CorruptionKind::Garbage, &empty).is_empty());
    }

    #[test]
    fn same_seed_same_corruption_sequence() {
        let model = CorruptionModel::uniform(0.5);
        let mut a = corrupting(model, 19);
        let mut b = corrupting(model, 19);
        let payload = Bytes::copy_from_slice(&[9; 32]);
        for _ in 0..5_000 {
            let (ka, kb) = (a.corruption(), b.corruption());
            assert_eq!(ka, kb);
            if let Some(kind) = ka {
                if matches!(
                    kind,
                    CorruptionKind::BitFlip | CorruptionKind::Truncate | CorruptionKind::Garbage
                ) {
                    assert_eq!(
                        a.corrupt_bytes(kind, &payload).to_vec(),
                        b.corrupt_bytes(kind, &payload).to_vec()
                    );
                } else {
                    assert_eq!(a.replay_delay(), b.replay_delay());
                }
            }
        }
    }

    #[test]
    fn corruption_model_validation() {
        assert!(CorruptionModel::none().validate().is_ok());
        assert!(CorruptionModel::uniform(0.05).validate().is_ok());
        assert!(CorruptionModel::uniform(1.5).validate().is_err());
        assert!(corruption_plan(2.0).validate().is_err());
    }

    fn corruption_plan(rate: f64) -> FaultPlan {
        FaultPlan {
            link: LinkFault {
                corruption: CorruptionModel::uniform(rate),
                ..LinkFault::default()
            },
            ..FaultPlan::default()
        }
    }

    #[test]
    fn corruption_plan_recovery_bound() {
        let mut plan = corruption_plan(0.02);
        assert!(!plan.is_none());
        assert!(plan.validate().is_ok());
        assert_eq!(
            plan.recovery_bound_secs(),
            None,
            "unwindowed corruption never clears"
        );
        plan.window = Some(FaultWindow {
            start_secs: 5.0,
            end_secs: 25.0,
        });
        assert_eq!(plan.recovery_bound_secs(), Some(25.0));
    }

    #[test]
    fn corruption_kind_indices_and_names_are_dense() {
        let mut seen = [false; CORRUPTION_KIND_COUNT];
        for k in CorruptionKind::ALL {
            assert!(!seen[k.index()]);
            seen[k.index()] = true;
        }
        assert!(seen.iter().all(|s| *s));
        let mut names: Vec<_> = CorruptionKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CORRUPTION_KIND_COUNT);
    }
}
