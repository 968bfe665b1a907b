//! Host-speed calibration.
//!
//! A shared host runs the benchmark faster or slower for seconds to
//! minutes at a time, whatever the program does: other tenants' work
//! evicts ours from the shared last-level cache and contends for memory.
//! The same repetition can take a third longer from one minute to the
//! next, so raw wall times of one commit spread wider than any useful
//! regression bound. Every time the benchmark reports is therefore
//! scaled to a reference host speed.
//!
//! While repetitions run, the benchmark takes calibration points: it
//! times a fixed reference job that uses none of the program's code,
//! about every [`INTERVAL_S`] seconds between short stretches of work
//! (outside the program's timers) and at the end of each repetition. A
//! phase that took `t` seconds is reported as `t * REFERENCE_S / c`,
//! where `c` is the mean of the points from the last one before the
//! phase to the first one after it. On a host where the job takes
//! `REFERENCE_S`, that is the wall time. A change to the program moves
//! the reported time exactly as it moves the wall time, because the job
//! does not change; a slower or busier host moves both the phase and the
//! job, and the ratio stays.
//!
//! The job mixes what the simulator does: hash-map inserts and lookups,
//! a binary-heap event queue, gathers from an array beyond the private
//! caches with floating-point arithmetic, and short-lived allocations.
//! Its memory is allocated once per sampler, so that it times the
//! processor and caches, not page faults; the peak memory the benchmark
//! reports leaves it out.

use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use crate::rss;

/// Seconds the reference job takes on the reference host.
pub const REFERENCE_S: f64 = 0.02;

/// Keys in the job's hash map.
const MAP_KEYS: usize = 1 << 16;
/// Lookups in the job's hash map.
const MAP_LOOKUPS: usize = 1 << 17;
/// Depth of the job's event queue.
const QUEUE_DEPTH: usize = 1 << 16;
/// Push/pop pairs on the event queue.
const QUEUE_OPS: usize = 1 << 16;
/// Elements of the gathered array.
const ARRAY: usize = 1 << 20;
/// Gathers from it.
const GATHERS: usize = 1 << 18;
/// Allocations in the churn phase.
const ALLOCS: usize = 1 << 16;
/// Allocations the churn phase keeps live.
const LIVE: usize = 1024;

/// A xorshift64 stream: the job's inputs are the same on every call.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// The reference job's memory, allocated and faulted in once so that a
/// job times the host's processor and caches, not its page faults.
struct Arena {
    map: HashMap<u64, u64>,
    queue: BinaryHeap<(u64, u32)>,
    array: Vec<f64>,
    live: Vec<Vec<u64>>,
}

impl Arena {
    fn new() -> Self {
        let mut arena = Arena {
            map: HashMap::with_capacity(MAP_KEYS),
            queue: BinaryHeap::with_capacity(QUEUE_DEPTH + 1),
            array: (0..ARRAY).map(|i| (i as f64).sqrt()).collect(),
            live: Vec::with_capacity(LIVE),
        };
        arena.job();
        arena
    }

    /// The reference job; returns a checksum so nothing is optimized
    /// away.
    fn job(&mut self) -> u64 {
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        let mut sum = 0u64;

        self.map.clear();
        for i in 0..MAP_KEYS as u64 {
            self.map.insert(rng.next() % (4 * MAP_KEYS as u64), i);
        }
        for _ in 0..MAP_LOOKUPS {
            if let Some(v) = self.map.get_mut(&(rng.next() % (4 * MAP_KEYS as u64))) {
                *v += 1;
                sum = sum.wrapping_add(*v);
            }
        }

        self.queue.clear();
        let mut now = 0u64;
        for i in 0..QUEUE_DEPTH as u32 {
            self.queue.push((u64::MAX - rng.next() % 1_000_000, i));
        }
        for _ in 0..QUEUE_OPS {
            let (at, id) = self.queue.pop().expect("the queue is never empty");
            now = u64::MAX - at;
            self.queue.push((at - 1 - rng.next() % 1_000_000, id));
        }
        sum = sum.wrapping_add(now);

        let mut acc = 0.0f64;
        for _ in 0..GATHERS {
            let x = self.array[(rng.next() as usize) % ARRAY];
            acc = acc.mul_add(0.999_999, x * 1e-3);
        }
        sum = sum.wrapping_add(acc.to_bits());

        self.live.clear();
        for i in 0..ALLOCS {
            let v = vec![i as u64; 4 + (rng.next() % 28) as usize];
            if self.live.len() < LIVE {
                self.live.push(v);
            } else {
                let slot = (rng.next() as usize) % LIVE;
                sum = sum.wrapping_add(self.live[slot][0]);
                self.live[slot] = v;
            }
        }
        sum
    }

    /// Times one run of the job, seconds.
    fn time_job(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.job());
        t.elapsed().as_secs_f64()
    }
}

/// Seconds between calibration points while a repetition runs.
pub const INTERVAL_S: f64 = 0.5;

/// Calibration points taken while repetitions run.
///
/// The workloads call [`Sampler::tick`] between short stretches of
/// work, outside their timers; a tick takes a point once
/// [`INTERVAL_S`] has passed since the last one. A phase's [`Span`]
/// runs from the last point before it started ([`Sampler::open`]) to
/// the first point after it ended ([`Sampler::close`]).
pub struct Sampler {
    arena: Option<Arena>,
    /// Resident bytes the arena holds.
    arena_bytes: u64,
    points: Vec<f64>,
    last: Instant,
}

/// The calibration points a phase spans, as indices into the sampler's
/// points (both ends included).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span(usize, usize);

impl Sampler {
    /// A sampler that has allocated the job's memory and taken its
    /// first point.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        let before = rss::current_bytes();
        let arena = Arena::new();
        let arena_bytes = rss::current_bytes().saturating_sub(before);
        let mut s = Sampler {
            arena: Some(arena),
            arena_bytes,
            points: Vec::new(),
            last: Instant::now(),
        };
        s.point();
        s
    }

    /// A sampler that never calibrates: every factor is 1.
    pub fn off() -> Self {
        Sampler {
            arena: None,
            arena_bytes: 0,
            points: Vec::new(),
            last: Instant::now(),
        }
    }

    /// Takes a point now.
    pub fn point(&mut self) {
        if let Some(arena) = &mut self.arena {
            self.points.push(arena.time_job());
            self.last = Instant::now();
        }
    }

    /// Takes a point if [`INTERVAL_S`] has passed since the last one.
    pub fn tick(&mut self) {
        if self.arena.is_some() && self.last.elapsed().as_secs_f64() >= INTERVAL_S {
            self.point();
        }
    }

    /// Resident bytes the sampler's own memory adds to every
    /// measurement of the peak.
    pub fn resident_bytes(&self) -> u64 {
        self.arena_bytes
    }

    /// Call when a phase starts: the index of the last point.
    pub fn open(&self) -> usize {
        self.points.len().saturating_sub(1)
    }

    /// Call when a phase ends: the span from `open` to the next point.
    pub fn close(&self, open: usize) -> Span {
        Span(open, self.points.len())
    }

    /// The factor that scales a phase over `span` to the reference host
    /// speed. The span's closing point must have been taken.
    pub fn factor(&self, span: Span) -> f64 {
        if self.arena.is_none() {
            return 1.0;
        }
        let pts = &self.points[span.0..=span.1];
        REFERENCE_S * pts.len() as f64 / pts.iter().sum::<f64>()
    }

    /// Every point taken, seconds.
    pub fn points(&self) -> &[f64] {
        &self.points
    }
}
