//! Property tests of the simulation substrate: event ordering, CPU-server
//! conservation laws, utilization-window behaviour, and topology metrics.

use nezha_sim::engine::Engine;
use nezha_sim::resources::{CpuServer, MemoryPool, UtilizationWindow};
use nezha_sim::time::{SimDuration, SimTime};
use nezha_sim::topology::{Topology, TopologyConfig};
use nezha_types::ServerId;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One step of the engine model test. Offsets are relative to the
/// clock at the time the step runs.
#[derive(Clone, Debug)]
enum Op {
    Schedule(i64),
    Pop,
    PopUntil(i64),
    PopBatchUntil(i64),
}

/// Offsets spanning every queue tier at the default 20 µs width: the
/// clock's own instant, under one bucket, within the 1,024-bucket
/// (20.48 ms) bucket rung, just past it (where blocks open soonest),
/// anywhere in the block rung up to 10 s, past the block rung's
/// 1,024² buckets (~21 s, the far heap), and before the clock (clamped).
fn offset() -> impl Strategy<Value = i64> {
    (0u8..7, 0u64..10_000_000_000).prop_map(|(tier, raw)| {
        let raw = raw as i64;
        match tier {
            0 => 0,
            1 => 1 + raw % 19_999,
            2 => 20_000 + raw % (20_480_000 - 20_000),
            3 => 20_480_000 + raw % 20_480_000,
            4 => 20_480_000 + raw % (10_000_000_000 - 20_480_000),
            5 => 21_474_836_480 + raw,
            _ => -1 - raw % 1_000_000,
        }
    })
}

/// Half schedules, a tenth unbounded pops, the rest deadline pops.
fn op() -> impl Strategy<Value = Op> {
    (0u8..10, offset()).prop_map(|(kind, off)| match kind {
        0..=4 => Op::Schedule(off),
        5 => Op::Pop,
        6 | 7 => Op::PopUntil(off),
        _ => Op::PopBatchUntil(off),
    })
}

/// Events one step delivered, as `(due time, event id)`.
type Delivered = Vec<(SimTime, u64)>;

/// The reference queue: pending events keyed by `(due time, schedule
/// sequence)`, plus the clock.
#[derive(Default)]
struct Model {
    queue: BTreeMap<(SimTime, u64), u64>,
    now: SimTime,
    seq: u64,
}

impl Model {
    fn schedule_at(&mut self, at: SimTime) -> u64 {
        let id = self.seq;
        self.queue.insert((at.max(self.now), id), id);
        self.seq += 1;
        id
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let ((at, _), id) = self.queue.pop_first()?;
        self.now = at;
        Some((at, id))
    }

    fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, u64)> {
        match self.queue.first_key_value() {
            Some((&(at, _), _)) if at <= deadline => self.pop(),
            _ => {
                self.now = self.now.max(deadline);
                None
            }
        }
    }
}

fn shifted(now: SimTime, off: i64) -> SimTime {
    SimTime(now.0.saturating_add_signed(off))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Pops are globally ordered by (time, schedule sequence), regardless
    /// of insertion order.
    #[test]
    fn engine_pops_in_order(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut eng = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            eng.schedule_at(SimTime(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        let mut popped = 0;
        while let Some(s) = eng.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(s.at > lt || (s.at == lt && s.event > li));
            }
            last = Some((s.at, s.event));
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Schedules interleaved with `pop`, `pop_until` and
    /// `pop_batch_until` at offsets in every queue tier deliver exactly
    /// what a `(time, sequence)`-ordered map delivers, and `now()`,
    /// `pending()` and `peek_time()` agree with it after every step —
    /// at the default bucket width, and at 1 µs and 1 ms widths, which
    /// shift the same offsets across the tiers.
    #[test]
    fn engine_matches_ordered_map_model(ops in prop::collection::vec(op(), 1..300)) {
        let mut engines: [Engine<u64>; 3] = [
            Engine::new(),
            Engine::with_bucket_width(SimDuration::from_micros(1)),
            Engine::with_bucket_width(SimDuration::from_millis(1)),
        ];
        for eng in &mut engines {
            let mut model = Model::default();
            let mut batch = Vec::new();
            for (step, op) in ops.iter().enumerate() {
                let (got, want): (Delivered, Delivered) = match *op {
                    Op::Schedule(off) => {
                        let at = shifted(model.now, off);
                        let id = model.schedule_at(at);
                        eng.schedule_at(at, id);
                        (Vec::new(), Vec::new())
                    }
                    Op::Pop => (
                        eng.pop().map(|s| (s.at, s.event)).into_iter().collect(),
                        model.pop().into_iter().collect(),
                    ),
                    Op::PopUntil(off) => {
                        let deadline = shifted(model.now, off);
                        (
                            eng.pop_until(deadline).map(|s| (s.at, s.event)).into_iter().collect(),
                            model.pop_until(deadline).into_iter().collect(),
                        )
                    }
                    Op::PopBatchUntil(off) => {
                        let deadline = shifted(model.now, off);
                        eng.pop_batch_until(deadline, &mut batch);
                        let mut want: Delivered = model.pop_until(deadline).into_iter().collect();
                        if let Some(&(due, _)) = want.first() {
                            while model.queue.first_key_value().is_some_and(|(k, _)| k.0 == due) {
                                want.extend(model.pop());
                            }
                        }
                        (batch.drain(..).map(|s| (s.at, s.event)).collect(), want)
                    }
                };
                prop_assert_eq!(got, want, "step {}: {:?}", step, op);
                prop_assert_eq!(eng.now(), model.now, "step {}", step);
                prop_assert_eq!(eng.pending(), model.queue.len(), "step {}", step);
                prop_assert_eq!(
                    eng.peek_time(),
                    model.queue.first_key_value().map(|(k, _)| k.0),
                    "step {}", step
                );
            }
        }
    }

    /// The CPU server never drops while the backlog bound is respected,
    /// accepted+dropped equals offered, and completion times are
    /// monotone in offer order.
    #[test]
    fn cpu_server_conservation(
        jobs in prop::collection::vec((0u64..4_000_000, 1u64..200_000), 1..200),
    ) {
        let mut cpu = CpuServer::new(2, 1_000_000_000, SimDuration::from_millis(2));
        let mut t = SimTime(0);
        let mut last_done: Option<SimTime> = None;
        let mut accepted = 0u64;
        let mut dropped = 0u64;
        for (gap, cycles) in jobs.iter() {
            t += SimDuration(*gap);
            match cpu.offer(t, *cycles) {
                nezha_sim::resources::CpuOutcome::Done { done_at } => {
                    prop_assert!(done_at >= t);
                    if let Some(ld) = last_done {
                        prop_assert!(done_at >= ld, "FIFO service order violated");
                    }
                    last_done = Some(done_at);
                    accepted += 1;
                }
                nezha_sim::resources::CpuOutcome::Dropped => {
                    // Drops only under a genuinely deep backlog.
                    prop_assert!(cpu.queue_delay(t) > SimDuration::from_millis(2));
                    dropped += 1;
                }
            }
        }
        prop_assert_eq!(cpu.counters(), (accepted, dropped));
        prop_assert_eq!(accepted + dropped, jobs.len() as u64);
    }

    /// Memory pool: any alloc/free sequence that the pool accepts keeps
    /// `used + available == capacity` and `used <= peak <= capacity`.
    #[test]
    fn memory_pool_invariants(ops in prop::collection::vec((prop::bool::ANY, 1u64..5_000), 1..200)) {
        let mut pool = MemoryPool::new(100_000);
        let mut ledger: Vec<u64> = Vec::new();
        for (is_alloc, size) in ops {
            if is_alloc {
                if pool.alloc(size).is_ok() {
                    ledger.push(size);
                }
            } else if let Some(sz) = ledger.pop() {
                pool.free(sz);
            }
            prop_assert_eq!(pool.used() + pool.available(), pool.capacity());
            prop_assert_eq!(pool.used(), ledger.iter().sum::<u64>());
            prop_assert!(pool.peak() >= pool.used());
            prop_assert!(pool.peak() <= pool.capacity());
        }
    }

    /// Utilization windows never report more work than was added, and
    /// report zero once a full window has passed since the last add.
    #[test]
    fn window_bounds(adds in prop::collection::vec((0u64..50_000_000, 0.0f64..100.0), 1..100)) {
        let mut w = UtilizationWindow::new(SimDuration::from_millis(10));
        let mut t = SimTime(0);
        let mut total = 0.0;
        for (gap, amt) in adds {
            t += SimDuration(gap);
            w.add(t, amt);
            total += amt;
            let s = w.sum(t);
            prop_assert!(s <= total + 1e-9, "window {s} exceeds all work {total}");
            prop_assert!(s >= 0.0);
        }
        prop_assert_eq!(w.sum(t + SimDuration::from_millis(11)), 0.0);
    }

    /// Topology: hop counts are symmetric, zero iff same server, and
    /// latency is monotone in both hops and bytes.
    #[test]
    fn topology_metrics(a in 0u32..256, b in 0u32..256, bytes in 0usize..10_000) {
        let topo = Topology::new(TopologyConfig {
            servers_per_rack: 8,
            racks_per_pod: 4,
            pods: 8,
            ..TopologyConfig::default()
        });
        let (a, b) = (ServerId(a), ServerId(b));
        prop_assert_eq!(topo.hops(a, b), topo.hops(b, a));
        prop_assert_eq!(topo.hops(a, b) == 0, a == b);
        prop_assert!(topo.latency(a, b, bytes + 1) >= topo.latency(a, b, bytes));
        if a != b {
            prop_assert!(topo.latency(a, b, bytes) >= topo.latency(a, a, bytes));
        }
        // Rack peers really share the rack.
        for p in topo.rack_peers(a) {
            prop_assert!(topo.same_rack(a, p));
            prop_assert_eq!(topo.hops(a, p), 2);
        }
    }
}
