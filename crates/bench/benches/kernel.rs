//! Criterion benchmarks for the simulation kernel: event queue throughput
//! (timer wheel vs the reference binary heap), link transmit + arrival
//! fan-out, deterministic RNG streams, the routers' forwarding-table
//! lookup and counter bumps by name and by handle. These guard the
//! substrate every experiment is built on.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use mobicast_core::addressing::{global_addr, link_prefix};
use mobicast_core::netplan::{RouteEntry, RoutingTable};
use mobicast_net::{
    Ctx, Frame, FrameClass, IfIndex, LinkFault, LinkFaultState, LinkId, LinkParams, NodeBehavior,
    NodeId, TimerKey, World,
};
use mobicast_sim::{Counter, Counters, EventQueue, HeapEventQueue, RngFactory, SimTime};
use rand::RngCore;
use std::any::Any;
use std::hint::black_box;

/// Schedule `n` events then drain: the bulk pattern of a scenario startup.
macro_rules! schedule_pop_bench {
    ($group:expr, $label:literal, $queue:ty, $n:expr) => {
        $group.bench_function(format!("{}_{}", $label, $n), |b| {
            b.iter_batched(
                <$queue>::new,
                |mut q| {
                    // Interleaved schedule/pop pattern approximating a
                    // protocol simulation (each event schedules a follower).
                    for i in 0..$n {
                        q.schedule(SimTime::from_nanos(i * 7919 % 1_000_000), i);
                    }
                    let mut sum = 0u64;
                    while let Some((_, v)) = q.pop() {
                        sum = sum.wrapping_add(v);
                    }
                    black_box(sum)
                },
                BatchSize::SmallInput,
            );
        });
    };
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    for n in [1_000u64, 10_000, 100_000] {
        group.throughput(Throughput::Elements(n));
        schedule_pop_bench!(group, "schedule_pop", EventQueue<u64>, n);
        schedule_pop_bench!(group, "schedule_pop_heap", HeapEventQueue<u64>, n);
    }
    group.finish();
}

/// The protocol-timer pattern the wheel is built for: a standing
/// population of long-dated timers (Queries, Holdtimes, soft-state
/// expiries) while short-dated frame deliveries churn at the front.
macro_rules! timer_churn_bench {
    ($c:expr, $label:literal, $queue:ty) => {
        $c.bench_function(concat!("event_queue/", $label), |b| {
            b.iter_batched(
                || {
                    let mut q = <$queue>::new();
                    // 10k standing timers spread over the next ~200 s.
                    for i in 0..10_000u64 {
                        q.schedule(SimTime::from_nanos(1_000_000 + i * 20_000_000), i);
                    }
                    q
                },
                |mut q| {
                    // Frame churn: each pop schedules a near-future event,
                    // cancelling every other one (ack timers).
                    let mut cancel = None;
                    for _ in 0..10_000u64 {
                        let (t, v) = q.pop().unwrap();
                        let id = q.schedule(t + mobicast_sim::SimDuration::from_micros(50), v);
                        if let Some(prev) = cancel.take() {
                            q.cancel(prev);
                        } else {
                            cancel = Some(id);
                        }
                    }
                    black_box(q.len())
                },
                BatchSize::SmallInput,
            );
        });
    };
}

fn bench_timer_churn(c: &mut Criterion) {
    timer_churn_bench!(c, "timer_churn_wheel", EventQueue<u64>);
    timer_churn_bench!(c, "timer_churn_heap", HeapEventQueue<u64>);
}

fn bench_cancellation(c: &mut Criterion) {
    c.bench_function("event_queue/cancel_half", |b| {
        b.iter_batched(
            || {
                let mut q = EventQueue::<u64>::new();
                let ids: Vec<_> = (0..10_000u64)
                    .map(|i| q.schedule(SimTime::from_nanos(i), i))
                    .collect();
                (q, ids)
            },
            |(mut q, ids)| {
                for id in ids.iter().step_by(2) {
                    q.cancel(*id);
                }
                let mut n = 0u64;
                while q.pop().is_some() {
                    n += 1;
                }
                black_box(n)
            },
            BatchSize::SmallInput,
        );
    });
}

/// A node that hears frames and does nothing with them.
struct Sink;

impl NodeBehavior for Sink {
    fn on_start(&mut self, _: &mut Ctx<'_>) {}
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: IfIndex, _: &Frame) {}
    fn on_timer(&mut self, _: &mut Ctx<'_>, _: TimerKey) {}
    fn on_link_change(&mut self, _: &mut Ctx<'_>, _: IfIndex, _: Option<LinkId>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The link layer alone: one member of a `k`-member link broadcasts, the
/// queue drains, every other member hears the frame. Fault-free, one
/// transmission is one queue entry fanned out at arrival; an inert fault
/// state (zero loss, jitter and corruption) forces the one-entry-per-copy
/// form of the same work, so the pair prices the fan-out encoding.
fn bench_link_transmit(c: &mut Criterion) {
    const SENDS: u64 = 1_000;
    let mut group = c.benchmark_group("link_transmit");
    for members in [2u64, 4, 16] {
        group.throughput(Throughput::Elements(SENDS * (members - 1)));
        for (label, inert_fault) in [("fanout", false), ("fanout_inert_fault", true)] {
            group.bench_function(format!("{label}_{members}"), |b| {
                b.iter_batched(
                    || {
                        let mut world = World::new();
                        let link = world.add_link(LinkParams::default());
                        for _ in 0..members {
                            let node = world.add_node(1, Box::new(Sink));
                            world.attach(node, 0, link);
                        }
                        if inert_fault {
                            let rng = RngFactory::new(7).indexed_stream("fault.link", 0);
                            let fault = LinkFaultState::new(LinkFault::default(), rng);
                            world.set_link_fault(link, Some(fault));
                        }
                        world.start();
                        world
                    },
                    |mut world| {
                        let frame =
                            Frame::new(Bytes::from_static(&[0u8; 304]), FrameClass::MulticastData);
                        world.with_node(NodeId(0), |_, ctx| {
                            for _ in 0..SENDS {
                                ctx.send(0, frame.clone());
                            }
                        });
                        world.run_to_quiescence(u64::MAX);
                        black_box(world.events_executed())
                    },
                    BatchSize::SmallInput,
                );
            });
        }
    }
    group.finish();
}

fn bench_rng_streams(c: &mut Criterion) {
    c.bench_function("rng/labelled_stream_draws", |b| {
        let f = RngFactory::new(42);
        b.iter(|| {
            let mut rng = f.indexed_stream("bench", 7);
            let mut acc = 0u64;
            for _ in 0..1000 {
                acc = acc.wrapping_add(rng.next_u64());
            }
            black_box(acc)
        });
    });
}

/// Longest-prefix match in a router's table of one /64 per link, at the
/// paper network's size (6), a stress grid's (100), the 1k-router metro's
/// (529) and the 10k-router metro's (5000): every multicast datagram pays
/// one lookup (the RPF check) at every router, every tunnelled one more.
fn bench_route_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("route_lookup");
    for n_links in [6u32, 100, 529, 5000] {
        let table = RoutingTable::new(
            (0..n_links)
                .map(|l| RouteEntry {
                    prefix: link_prefix(LinkId(l)),
                    iface: (l % 3) as u8,
                    next_hop: None,
                    next_hop_node: None,
                    metric: l,
                })
                .collect(),
        );
        // A stride coprime to every size visits all links in scattered order.
        let dsts: Vec<_> = (0..n_links)
            .map(|i| global_addr(NodeId(7), 0, LinkId(i * 7919 % n_links)))
            .collect();
        group.throughput(Throughput::Elements(u64::from(n_links)));
        group.bench_function(n_links.to_string(), |b| {
            b.iter(|| {
                let mut hops = 0u32;
                for dst in &dsts {
                    hops += table.lookup(black_box(*dst)).map_or(0, |r| r.metric);
                }
                black_box(hops)
            });
        });
    }
    group.finish();
}

/// One bump of each counter a run's recorder holds, by name (what every
/// bump was) and by handle (what the frame path does now). The key set is
/// a real one — whatever a roaming Figure-1 run touches — because a name
/// lookup costs by how many names there are and how long their common
/// prefixes run, which one hot key hides.
fn bench_counters(c: &mut Criterion) {
    use mobicast_core::scenario::{self, PaperHost, ScenarioConfig};
    let cfg = ScenarioConfig::builder()
        .duration_secs(120)
        .policy(mobicast_core::Policy::BIDIRECTIONAL_TUNNEL)
        .move_at(30.0, PaperHost::R3, 6)
        .move_at(60.0, PaperHost::S, 6)
        .build();
    let report = scenario::run(&cfg).report;
    let names: Vec<&'static str> = report
        .counters
        .iter()
        .map(|(name, _)| &*name.to_owned().leak())
        .collect();
    let handles: Vec<&'static Counter> = names
        .iter()
        .map(|name| &*Box::leak(Box::new(Counter::new(name))))
        .collect();
    let mut group = c.benchmark_group("counters");
    group.throughput(Throughput::Elements(names.len() as u64));
    let mut set = Counters::new();
    group.bench_function(format!("by_name_{}", names.len()), |b| {
        b.iter(|| {
            for name in &names {
                set.add(black_box(name), 1);
            }
        });
    });
    group.bench_function(format!("by_handle_{}", names.len()), |b| {
        b.iter(|| {
            for handle in &handles {
                set.bump(black_box(handle), 1);
            }
        });
    });
    group.finish();
    assert_eq!(set.iter().count(), names.len(), "one storage, two doors");
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_timer_churn,
    bench_cancellation,
    bench_link_transmit,
    bench_rng_streams,
    bench_route_lookup,
    bench_counters
);
criterion_main!(benches);
