//! # mobicast-sim
//!
//! Deterministic discrete-event simulation kernel used by the `mobicast`
//! protocol simulator (reproduction of *"Interoperation of Mobile IPv6 and
//! Protocol Independent Multicast Dense Mode"*, ICPP 2000).
//!
//! Contents:
//! * [`arena`] — the one keyed soft-state table ([`SoftTable`]) behind
//!   the MLD, PIM-DM and binding-cache state.
//! * [`time`] — integer virtual time ([`SimTime`], [`SimDuration`]).
//! * [`queue`] — a cancellable, FIFO-stable event queue ([`EventQueue`])
//!   and the handle that names one scheduling ([`EventId`]).
//! * [`wheel`] — the hierarchical timer wheel behind [`EventQueue`]
//!   (O(1) scheduling, payloads in a slab, cancel by stamp compare; test
//!   builds check it against a sorted-`Vec` reference model).
//! * [`rng`] — labelled deterministic RNG streams ([`RngFactory`]).
//! * [`metrics`] — counters and sample series with summaries.
//! * [`trace`] — structured, filterable simulation traces with a versioned
//!   JSONL export.
//! * [`span`] — deterministic sim-time causal spans with stable ids and
//!   parent links ([`SpanBook`]).
//! * [`series`] — sim-time gauge timelines and a mergeable quantile
//!   digest ([`TimeSeriesSet`], [`QuantileDigest`]).
//! * [`perfetto`] / [`openmetrics`] — exporters rendering spans, series
//!   and counters as a Chrome/Perfetto trace and an OpenMetrics snapshot.
//! * [`profile`] — opt-in wall-clock profiling of the event loop (the only
//!   module that reads the clock).
//! * [`parallel`] — a dependency-free scoped worker pool fanning
//!   independent deterministic runs across cores with ordered results.
//!
//! Determinism contract: given the same scenario seed, the same sequence of
//! `schedule`/`pop` calls yields the same event order and the same random
//! draws, on every platform. This is what makes the experiment tables in the
//! paper reproduction exactly repeatable.

pub mod arena;
pub mod budget;
pub mod metrics;
pub mod openmetrics;
pub mod parallel;
pub mod perfetto;
pub mod profile;
pub mod queue;
pub mod rng;
pub mod series;
pub mod span;
pub mod time;
pub mod trace;
pub mod wheel;

pub use arena::SoftTable;
pub use budget::{RateLimit, ShedPolicy, TokenBucket};
pub use metrics::{Counter, Counters, Series, SeriesSet, Summary};
pub use profile::{Profiler, SimProfile, Stage};
pub use queue::{EventId, EventQueue};
pub use rng::RngFactory;
pub use series::{QuantileDigest, TimeSeries, TimeSeriesSet};
pub use span::{AttrValue, SpanBook, SpanId, SpanRecord};
pub use time::{SimDuration, SimTime};
pub use trace::{
    FieldValue, Fields, RingBufferTracer, TraceCategory, TraceEvent, TraceSink, Tracer,
};
pub use wheel::TimerWheel;
