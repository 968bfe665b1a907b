//! The discrete-event engine: a time-ordered queue of user-defined events.
//!
//! Determinism contract: two events scheduled for the same instant are
//! delivered in the order they were *scheduled* (stable FIFO tie-break via
//! a monotone sequence number). Combined with the seeded [`crate::SimRng`],
//! a run is a pure function of its inputs — a property every experiment
//! harness and regression test in this repository relies on.

use crate::dense::Slab;
use crate::metrics::{CounterHandle, MetricsRegistry};
use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

/// An event with its due time and stable tie-break sequence.
#[derive(Clone, Debug)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub at: SimTime,
    /// The user event payload.
    pub event: E,
}

/// The queue entry: 24 bytes of `(at, seq, slab id)`. The event payload
/// itself parks in the engine's slab, so every sort swap and run shift
/// moves three words instead of a whole event.
#[derive(Clone, Copy, Debug)]
struct HeapKey {
    at: SimTime,
    seq: u64,
    id: u32,
}

impl PartialEq for HeapKey {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for HeapKey {}

impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted so that an ascending sort puts the earliest time (then
        // lowest sequence number) last, where `Vec::pop` is O(1), and so
        // that the max-heap `BinaryHeap` keeps the earliest key on top.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The event engine: a clock plus a priority queue of [`Scheduled`] events.
///
/// The engine does not interpret events; callers drive the loop:
///
/// ```
/// use nezha_sim::{Engine, SimDuration, SimTime};
///
/// #[derive(Debug)]
/// enum Ev { Ping, Pong }
///
/// let mut eng = Engine::new();
/// eng.schedule_in(SimDuration::from_millis(1), Ev::Ping);
/// while let Some(s) = eng.pop() {
///     match s.event {
///         Ev::Ping if s.at < SimTime(10_000_000) => {
///             eng.schedule_in(SimDuration::from_millis(1), Ev::Pong);
///         }
///         _ => {}
///     }
/// }
/// assert!(eng.now() >= SimTime(2_000_000));
/// ```
///
/// Pending keys live in three tiers, by due time: the sorted `run` below
/// the horizon; the bucket window above it, a two-rung ladder of at most
/// 1,024 unordered buckets and 1,024 unordered blocks of 1,024 buckets
/// each; and the `far` heap beyond the window.
/// Promotion moves one whole bucket into the run, and only when the run
/// is empty; it never promotes a bucket that starts after the pop's
/// bound (the deadline of [`Engine::pop_until`] /
/// [`Engine::pop_batch_until`]). So after every pop the horizon is at
/// most one bucket past the clock, and any later schedule (which is
/// never before the clock) that lands in the run shifts at most one
/// bucket's keys.
pub struct Engine<E> {
    now: SimTime,
    seq: u64,
    /// Tier 1: every pending key with `at < horizon`, sorted descending
    /// by `(at, seq)` so the earliest key sits at the back: a pop is
    /// `Vec::pop`, and a whole bucket is ordered by one cache-friendly
    /// unstable sort at promotion time instead of per-key heap sifts.
    /// Keys scheduled below the horizon after the promotion are merged
    /// in by binary-search insertion. The deadline-bounded promotion
    /// keeps the horizon within one bucket of the clock, so the run
    /// spans at most one bucket of time (tens of keys at the default
    /// width) and each insertion is a short L1 `memmove`.
    run: Vec<HeapKey>,
    /// Tier 2, the bucket window, in two rungs. The bucket rung:
    /// `buckets[i]` holds keys due in
    /// `[(bucket_base + i) * bucket_ns, (bucket_base + i + 1) * bucket_ns)`,
    /// unordered, for every key whose block is open (below
    /// `block_base`), so `i < WINDOW` always. A near event costs one O(1)
    /// bucket push at schedule time and its share of one bulk sort when
    /// its whole bucket promotes — never a per-key sift.
    buckets: VecDeque<Vec<HeapKey>>,
    /// Absolute bucket index of `buckets[0]`. The run/window boundary
    /// (`horizon`) is `bucket_base * bucket_ns`.
    bucket_base: u64,
    /// The block rung: `blocks[j]` holds, unordered, the keys of block
    /// `block_base + j` — absolute buckets
    /// `[(block_base + j) * WINDOW, (block_base + j + 1) * WINDOW)` —
    /// for `j < WINDOW`. A block opens (its keys move to their buckets,
    /// one more O(1) push each) once `bucket_base` enters it, so keys
    /// scheduled up to `WINDOW²` buckets ahead (21 s at the default
    /// width) never touch a heap, and neither rung's length grows with
    /// how far ahead events are scheduled.
    blocks: VecDeque<Vec<HeapKey>>,
    /// Absolute block index of `blocks[0]`; every block below it is open.
    /// `bucket_base <= block_base * WINDOW` always.
    block_base: u64,
    /// Tier 3: every key due in a block at or past
    /// `block_base + WINDOW`, at 24 bytes per key. As the block rung
    /// advances, keys move from here into it earliest first
    /// (`migrate_far`), so a block is complete before it opens.
    far: BinaryHeap<HeapKey>,
    /// Width of one bucket in nanoseconds ([`BUCKET_NS`] by default). It
    /// must match the timeline's granularity: 20 µs for the packet
    /// datapath, epoch-scale for coarse region timelines (via
    /// [`Engine::with_bucket_width`]), where a 20 µs window would push
    /// nearly every event through the far heap.
    bucket_ns: u64,
    /// Total keys across `buckets`.
    staged_len: usize,
    /// Total keys across `blocks`.
    blocks_len: usize,
    /// Events scheduled *at* the instant most recently drained by
    /// [`Engine::pop_batch_until`]. The batch pop removed every queued
    /// entry at that instant, and any later same-instant schedule gets a
    /// strictly larger sequence number, so FIFO order here *is* `(at,
    /// seq)` order — these events skip the run and the parked slab
    /// entirely. Completion-style events (fire "now") are a quarter of a
    /// packet workload, so this path matters.
    immediate: VecDeque<E>,
    /// The instant whose batch was most recently drained; the only due
    /// time `immediate` events can have.
    draining_at: Option<SimTime>,
    /// Retired bucket allocations, reused for new buckets so steady-state
    /// scheduling never touches the allocator (capacity is invisible to
    /// behavior; only contents are).
    spare: Vec<Vec<HeapKey>>,
    /// Pending event payloads, addressed by the heap keys' slab ids.
    parked: Slab<E>,
    processed: u64,
    telemetry: Option<EngineTelemetry>,
}

/// Default width of one bucket: 20 µs of simulated time — a hair above
/// the fabric's common-case one-way latency, so most packet arrivals
/// land one or two buckets out (an O(1) push) instead of in the sorted
/// run. The run holds at most one promoted bucket plus the in-flight
/// events scheduled into it since: tens of keys, L1-resident.
const BUCKET_NS: u64 = 20_000;

/// Buckets in the bucket rung, and blocks in the block rung. At the
/// default width a block spans 20.48 ms and the block rung 21 s, so
/// packet and CPU latencies, connection arrivals seconds ahead and
/// periodic control timers are all O(1) pushes (two, for a key that
/// passes through a block); only keys further out pay a heap sift. Two
/// rungs of vectors hold at most `2 * WINDOW` allocations however far
/// ahead events are scheduled.
const WINDOW: u64 = 1024;

/// Pre-registered handles the engine updates when metrics are attached.
#[derive(Clone, Debug)]
struct EngineTelemetry {
    registry: MetricsRegistry,
    scheduled: CounterHandle,
    processed: CounterHandle,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine at time zero with an empty queue and the default
    /// 20 µs bucket width (tuned for the packet datapath).
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            run: Vec::new(),
            buckets: VecDeque::new(),
            bucket_base: 0,
            blocks: VecDeque::new(),
            block_base: 0,
            far: BinaryHeap::new(),
            bucket_ns: BUCKET_NS,
            staged_len: 0,
            blocks_len: 0,
            immediate: VecDeque::new(),
            draining_at: None,
            spare: Vec::new(),
            parked: Slab::new(),
            processed: 0,
            telemetry: None,
        }
    }

    /// Creates an engine whose bucket window uses `width`-wide buckets
    /// instead of the default 20 µs.
    ///
    /// Coarse timelines (the region simulator schedules churn and fault
    /// events across whole simulated days at epoch granularity) should
    /// use an epoch-scale width, so their events land in the window
    /// rather than the far heap. Delivery semantics are identical for
    /// every width — only promotion batching changes.
    pub fn with_bucket_width(width: SimDuration) -> Self {
        let mut eng = Engine::new();
        assert!(width.nanos() > 0, "bucket width must be positive");
        eng.bucket_ns = width.nanos();
        eng
    }

    /// Attaches a [`MetricsRegistry`]: from now on the engine keeps the
    /// `engine.scheduled` / `engine.processed` counters up to date there.
    /// Optional — an unattached engine pays no telemetry cost.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        let tel = EngineTelemetry {
            registry: registry.clone(),
            scheduled: registry.counter("engine.scheduled", &[]),
            processed: registry.counter("engine.processed", &[]),
        };
        tel.registry.add(tel.scheduled, self.seq);
        tel.registry.add(tel.processed, self.processed);
        self.telemetry = Some(tel);
    }

    /// The current simulated time (the due time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.run.len() + self.staged_len + self.blocks_len + self.far.len() + self.immediate.len()
    }

    /// The run/window boundary: keys due strictly before this live in
    /// `run`.
    #[inline]
    fn horizon_ns(&self) -> u64 {
        self.bucket_base.saturating_mul(self.bucket_ns)
    }

    /// The deadline invariant that bounds run insertions: the horizon is
    /// at most one bucket past the clock's bucket.
    fn horizon_near_clock(&self) -> bool {
        self.bucket_base.saturating_sub(1) <= self.now.0 / self.bucket_ns
    }

    /// When the run has gone dry, promotes the earliest nonempty bucket
    /// into it — but only a bucket whose absolute index is at most
    /// `limit` (the bucket of the caller's deadline; `u64::MAX` for an
    /// unbounded pop). Empty buckets are skipped up to `limit` and no
    /// further. When no bucket holds a key, `bucket_base` jumps straight
    /// to the next pending key's bucket — the start of the first
    /// nonempty block, or the far heap's earliest bucket — again capped
    /// at `limit`, instead of walking the empty buckets between.
    ///
    /// The run refills only once empty, and every key it holds is due
    /// before every bucket, block and far key, so a nonempty run always
    /// owns the global minimum and promotion is exactly one bucket at a
    /// time: one unstable sort, then every pop is O(1). Bounding it by
    /// the deadline keeps the horizon within one bucket of the clock
    /// after a pop that stops early, so the schedules that follow land in
    /// buckets, not in run insertions.
    fn refill(&mut self, limit: u64) {
        if !self.run.is_empty() {
            return;
        }
        loop {
            if self.staged_len == 0 {
                let next = match self.blocks.iter().position(|b| !b.is_empty()) {
                    Some(i) => (self.block_base + i as u64) * WINDOW,
                    None => match self.far.peek() {
                        Some(k) => k.at.0 / self.bucket_ns,
                        None => return,
                    },
                };
                // Every bucket is empty, so relabelling them is free.
                self.bucket_base = self.bucket_base.max(next.min(limit));
                self.open_blocks();
                if self.staged_len == 0 {
                    return;
                }
            }
            let Some(front) = self.buckets.front_mut() else {
                return;
            };
            if front.is_empty() {
                if self.bucket_base >= limit {
                    return;
                }
                self.buckets.pop_front();
                self.bucket_base += 1;
                continue;
            }
            if self.bucket_base > limit {
                return;
            }
            let mut keys = std::mem::take(front);
            self.buckets.pop_front();
            self.bucket_base += 1;
            self.staged_len -= keys.len();
            // `HeapKey`'s Ord is inverted (max-heap order), so an
            // ascending sort under it is descending `(at, seq)` — the
            // earliest key ends up at the back, where `Vec::pop` is O(1).
            keys.sort_unstable();
            let retired = std::mem::replace(&mut self.run, keys);
            if retired.capacity() > 0 && self.spare.len() < 32 {
                self.spare.push(retired);
            }
            return;
        }
    }

    /// Opens every block up to the one `bucket_base` has entered: files
    /// each opened block's keys into their buckets, then moves the far
    /// heap keys whose block has come within the block rung into it.
    /// Buckets are only ever empty here, and no key is due before
    /// `bucket_base`, so every filed key lands within [`WINDOW`] buckets.
    fn open_blocks(&mut self) {
        let block = self.bucket_base / WINDOW;
        while self.block_base <= block {
            match self.blocks.pop_front() {
                Some(mut keys) => {
                    self.block_base += 1;
                    self.blocks_len -= keys.len();
                    for k in keys.drain(..) {
                        self.stage_key(k);
                    }
                }
                None => self.block_base = block + 1,
            }
            self.migrate_far();
        }
    }

    /// Moves every far-heap key whose block has come within the block
    /// rung down into it (or into its bucket, if its block is open),
    /// earliest first.
    fn migrate_far(&mut self) {
        let end = self.block_base.saturating_add(WINDOW);
        while let Some(&k) = self.far.peek() {
            if k.at.0 / self.bucket_ns / WINDOW >= end {
                return;
            }
            self.far.pop();
            self.stage_key(k);
        }
    }

    /// Files a key due at or after the horizon into the lowest tier that
    /// covers it: its bucket when its block is open, else its block
    /// (both O(1) pushes), else the far heap.
    fn stage_key(&mut self, key: HeapKey) {
        let bucket = key.at.0 / self.bucket_ns;
        let block = bucket / WINDOW;
        if block < self.block_base {
            let idx = (bucket - self.bucket_base) as usize;
            if idx >= self.buckets.len() {
                let spare = &mut self.spare;
                self.buckets
                    .resize_with(idx + 1, || spare.pop().unwrap_or_default());
            }
            self.buckets[idx].push(key);
            self.staged_len += 1;
        } else if block - self.block_base < WINDOW {
            let idx = (block - self.block_base) as usize;
            if idx >= self.blocks.len() {
                self.blocks.resize_with(idx + 1, Vec::new);
            }
            self.blocks[idx].push(key);
            self.blocks_len += 1;
        } else {
            self.far.push(key);
        }
    }

    /// Schedules `event` at absolute time `at`. Times before `now` are
    /// clamped to `now` — the simulator never travels backwards.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        if let Some(tel) = &self.telemetry {
            tel.registry.inc(tel.scheduled);
        }
        if self.draining_at == Some(at) {
            // `at == now` and the batch pop already emptied the heap of
            // this instant, so FIFO order is exactly `(at, seq)` order.
            self.immediate.push_back(event);
            return;
        }
        let id = self.parked.insert(event);
        let key = HeapKey { at, seq, id };
        if at.0 < self.horizon_ns() {
            // Below the horizon: merge into the (descending-sorted) run.
            // `seq` is unique, so the search always misses and yields the
            // insertion point that keeps `(at, seq)` order.
            let pos = self.run.binary_search(&key).unwrap_err();
            self.run.insert(pos, key);
        } else {
            self.stage_key(key);
        }
    }

    /// Schedules `event` after `delay` from the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pops the next event, advancing the clock to its due time.
    ///
    /// Tracks the instant being drained in `draining_at` so that
    /// [`Engine::schedule_at`] can route same-instant schedules to the
    /// O(1) `immediate` lane. Delivery order at one instant is still
    /// exactly `(at, seq)`: run entries at the draining instant all
    /// pre-date anything in `immediate` (a key can only enter the run
    /// *before* its instant starts draining — later same-instant
    /// schedules are diverted to `immediate` with larger `seq`), so the
    /// run goes first and `immediate` follows in FIFO (= `seq`) order.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        if let Some(&k) = self.run.last() {
            if self.draining_at == Some(k.at) {
                self.run.pop();
                self.processed += 1;
                if let Some(tel) = &self.telemetry {
                    tel.registry.inc(tel.processed);
                }
                return Some(Scheduled {
                    at: k.at,
                    event: self.parked.take(k.id),
                });
            }
        }
        if let Some(event) = self.immediate.pop_front() {
            let at = self.draining_at.expect("immediate implies draining_at");
            self.processed += 1;
            if let Some(tel) = &self.telemetry {
                tel.registry.inc(tel.processed);
            }
            return Some(Scheduled { at, event });
        }
        self.refill(u64::MAX);
        let k = self.run.pop()?;
        debug_assert!(k.at >= self.now, "event queue went backwards");
        self.now = k.at;
        self.draining_at = Some(k.at);
        debug_assert!(self.horizon_near_clock(), "horizon ran ahead of the clock");
        self.processed += 1;
        if let Some(tel) = &self.telemetry {
            tel.registry.inc(tel.processed);
        }
        Some(Scheduled {
            at: k.at,
            event: self.parked.take(k.id),
        })
    }

    /// Pops the next event only if it is due at or before `deadline`.
    ///
    /// Used by harnesses that interleave simulation with periodic sampling:
    /// the clock advances to `deadline` when the queue has nothing earlier.
    /// No bucket starting after `deadline` is promoted, so the events a
    /// caller schedules after this returns `None` still land in buckets.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<Scheduled<E>> {
        self.due_by(deadline)?;
        self.pop()
    }

    /// The earliest pending instant, if it is due at or before
    /// `deadline`; otherwise advances the clock to `deadline` and returns
    /// `None`. Promotion is bounded by the deadline's bucket (see
    /// [`Engine::refill`]) and skipped while the `immediate` lane is
    /// nonempty: its events are due `now`, which no queued key can
    /// precede.
    fn due_by(&mut self, deadline: SimTime) -> Option<SimTime> {
        let due = if self.immediate.is_empty() {
            self.refill(deadline.0 / self.bucket_ns);
            self.run.last().map(|k| k.at)
        } else {
            self.draining_at
        };
        match due {
            Some(at) if at <= deadline => Some(at),
            _ => {
                self.now = self.now.max(deadline);
                debug_assert!(self.horizon_near_clock(), "horizon ran ahead of the clock");
                None
            }
        }
    }

    /// Pops *every* event due at the earliest pending instant `<= deadline`
    /// into `batch` (cleared first), advancing the clock to that instant.
    /// Advances the clock to `deadline` and leaves `batch` empty when
    /// nothing is due.
    ///
    /// Delivery order is unchanged from popping one at a time: the batch
    /// is the same-timestamp prefix of the queue in sequence order, and
    /// any event a batch member schedules — even at the very same instant
    /// — receives a strictly larger sequence number, so it sorts after
    /// every batch member and fires on a later call. Callers amortize one
    /// peek per *batch* instead of one per event.
    pub fn pop_batch_until(&mut self, deadline: SimTime, batch: &mut Vec<Scheduled<E>>) {
        batch.clear();
        let Some(due) = self.due_by(deadline) else {
            return;
        };
        // Run entries at `due` pre-date (= smaller `seq` than) anything
        // in `immediate` — see `pop` — so they drain first.
        while let Some(&k) = self.run.last() {
            if k.at != due {
                break;
            }
            self.run.pop();
            batch.push(Scheduled {
                at: k.at,
                event: self.parked.take(k.id),
            });
        }
        batch.extend(
            self.immediate
                .drain(..)
                .map(|event| Scheduled { at: due, event }),
        );
        self.now = due;
        self.draining_at = Some(due);
        debug_assert!(self.horizon_near_clock(), "horizon ran ahead of the clock");
        let n = batch.len() as u64;
        self.processed += n;
        if let Some(tel) = &self.telemetry {
            tel.registry.add(tel.processed, n);
        }
    }

    /// Due time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if !self.immediate.is_empty() {
            return self.draining_at;
        }
        if let Some(k) = self.run.last() {
            return Some(k.at);
        }
        // Every bucket key precedes every block key, which precedes
        // every far key.
        let first = |rung: &VecDeque<Vec<HeapKey>>| {
            rung.iter()
                .find(|b| !b.is_empty())
                .and_then(|b| b.iter().map(|k| k.at).min())
        };
        first(&self.buckets)
            .or_else(|| first(&self.blocks))
            .or_else(|| self.far.peek().map(|k| k.at))
    }

    /// Drops all pending events (used when tearing down a scenario).
    pub fn clear(&mut self) {
        self.run.clear();
        self.buckets.clear();
        self.blocks.clear();
        self.far.clear();
        self.staged_len = 0;
        self.blocks_len = 0;
        self.immediate.clear();
        self.draining_at = None;
        self.parked = Slab::new();
    }
}

impl<E> fmt::Debug for Engine<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.pending())
            .field("processed", &self.processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime(30), "c");
        eng.schedule_at(SimTime(10), "a");
        eng.schedule_at(SimTime(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| eng.pop()).map(|s| s.event).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(eng.now(), SimTime(30));
        assert_eq!(eng.processed(), 3);
    }

    #[test]
    fn same_time_events_are_fifo() {
        let mut eng = Engine::new();
        for i in 0..100 {
            eng.schedule_at(SimTime(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| eng.pop()).map(|s| s.event).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime(100), ());
        eng.pop();
        eng.schedule_at(SimTime(50), ()); // in the past
        let s = eng.pop().unwrap();
        assert_eq!(s.at, SimTime(100));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime(1000), "first");
        eng.pop();
        eng.schedule_in(SimDuration::from_nanos(5), "second");
        assert_eq!(eng.pop().unwrap().at, SimTime(1005));
    }

    #[test]
    fn pop_until_respects_deadline_and_advances_clock() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime(10), "early");
        eng.schedule_at(SimTime(100), "late");
        assert_eq!(eng.pop_until(SimTime(50)).unwrap().event, "early");
        assert!(eng.pop_until(SimTime(50)).is_none());
        // Clock advanced to the deadline even though nothing popped.
        assert_eq!(eng.now(), SimTime(50));
        assert_eq!(eng.pop().unwrap().event, "late");
    }

    #[test]
    fn clear_empties_queue() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime(1), ());
        eng.schedule_at(SimTime(2), ());
        assert_eq!(eng.pending(), 2);
        eng.clear();
        assert_eq!(eng.pending(), 0);
        assert!(eng.pop().is_none());
    }

    #[test]
    fn peek_time_reports_next_due() {
        let mut eng = Engine::new();
        assert_eq!(eng.peek_time(), None);
        eng.schedule_at(SimTime(42), ());
        assert_eq!(eng.peek_time(), Some(SimTime(42)));
    }

    #[test]
    fn attached_metrics_track_scheduled_and_processed() {
        let reg = MetricsRegistry::new();
        let mut eng = Engine::new();
        eng.schedule_at(SimTime(1), ()); // before attach: seeded into the counter
        eng.attach_metrics(&reg);
        eng.schedule_at(SimTime(2), ());
        eng.pop();
        eng.pop();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("engine.scheduled"), 2);
        assert_eq!(snap.counter("engine.processed"), 2);
    }

    #[test]
    fn wide_buckets_deliver_identically_and_stay_small() {
        // Delivery order is width-independent: the same µs-scale schedule
        // (small enough for the default 20 µs ladder to walk) drains
        // identically through a wide-bucket engine.
        let times: Vec<u64> = (0..50)
            .map(|i| (i * 7 % 50) * 25_000 + (i % 3) * 17)
            .collect();
        let drain = |mut eng: Engine<usize>| -> Vec<(SimTime, usize)> {
            for (ev, &t) in times.iter().enumerate() {
                eng.schedule_at(SimTime(t), ev);
            }
            std::iter::from_fn(|| eng.pop())
                .map(|s| (s.at, s.event))
                .collect()
        };
        let wide = drain(Engine::with_bucket_width(SimDuration::from_millis(1)));
        let narrow = drain(Engine::new());
        assert_eq!(wide, narrow);

        // Hour-scale schedule: epoch-wide buckets keep the ladder at ~50
        // entries where the 20 µs default would need ~9 billion. Delivery
        // is still strict (at, seq) order across the whole span.
        let epoch = SimDuration::from_secs(3600);
        let mut eng: Engine<usize> = Engine::with_bucket_width(epoch);
        let hours: Vec<u64> = (0..50)
            .map(|i| (i * 7 % 50) * epoch.nanos() + (i % 3) * 17)
            .collect();
        for (ev, &t) in hours.iter().enumerate() {
            eng.schedule_at(SimTime(t), ev);
        }
        assert!(eng.buckets.len() <= 50, "buckets={}", eng.buckets.len());
        let drained: Vec<(SimTime, usize)> = std::iter::from_fn(|| eng.pop())
            .map(|s| (s.at, s.event))
            .collect();
        assert_eq!(drained.len(), hours.len());
        let mut expected: Vec<(SimTime, usize)> = hours
            .iter()
            .enumerate()
            .map(|(ev, &t)| (SimTime(t), ev))
            .collect();
        expected.sort();
        assert_eq!(drained, expected);
    }

    #[test]
    fn schedules_after_a_deadline_pop_stay_out_of_the_run() {
        // The next event is 500 ms past the deadline. Promotion must stop
        // at the deadline's bucket, or every schedule in between would be
        // a binary-search insertion into the run (quadratic in total).
        let mut eng = Engine::new();
        let d = SimTime(3_000_000_000);
        let span = 500_000_000;
        eng.schedule_at(SimTime(d.0 + span), u64::MAX);
        let mut batch = Vec::new();
        eng.pop_batch_until(d, &mut batch);
        assert!(batch.is_empty());
        assert_eq!(eng.now(), d);

        let n = 100_000u64;
        let keys_per_bucket = (n * BUCKET_NS).div_ceil(span) as usize;
        let mut peak_run = 0;
        for i in 0..n {
            eng.schedule_at(SimTime(d.0 + i * span / n), i);
            peak_run = peak_run.max(eng.run.len());
        }
        assert!(
            peak_run <= keys_per_bucket,
            "run grew to {peak_run} keys, one bucket holds {keys_per_bucket}"
        );
        let order: Vec<u64> = std::iter::from_fn(|| eng.pop_until(SimTime(d.0 + span)))
            .map(|s| s.event)
            .collect();
        assert_eq!(order.len() as u64, n + 1);
        assert!(order[..n as usize].iter().copied().eq(0..n));
        assert_eq!(order[n as usize], u64::MAX);
    }

    #[test]
    fn far_future_schedule_keeps_the_window_bounded() {
        // An hour at the default 20 µs width would be ~180M buckets.
        let mut eng = Engine::new();
        eng.schedule_at(SimTime(5), "soon");
        let hour = SimTime(SimDuration::from_secs(3600).nanos());
        eng.schedule_at(hour, "later");
        let bounded = |eng: &Engine<&str>| {
            eng.buckets.len() as u64 <= WINDOW && eng.blocks.len() as u64 <= WINDOW
        };
        assert!(bounded(&eng));
        assert_eq!(eng.far.len(), 1);
        assert_eq!(eng.pop().unwrap().event, "soon");
        assert_eq!(eng.peek_time(), Some(hour));
        let s = eng.pop().unwrap();
        assert_eq!((s.at, s.event), (hour, "later"));
        assert!(bounded(&eng));
        assert_eq!(eng.pending(), 0);
    }

    #[test]
    fn clear_empties_every_tier_including_the_far_heap() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime(1), ());
        eng.pop();
        // A bucket, a block and a far-heap key.
        for at in [50_000, 1_000_000_000, 3_600_000_000_000] {
            eng.schedule_at(SimTime(at), ());
        }
        assert_eq!((eng.staged_len, eng.blocks_len, eng.far.len()), (1, 1, 1));
        eng.clear();
        assert_eq!((eng.staged_len, eng.blocks_len, eng.far.len()), (0, 0, 0));
        assert_eq!(eng.pending(), 0);
        assert_eq!(eng.peek_time(), None);
        assert!(eng.pop().is_none());
    }

    #[test]
    fn interleaved_schedule_and_pop_is_deterministic() {
        // Two identical runs must produce identical event orders.
        let run = || {
            let mut eng = Engine::new();
            let mut order = Vec::new();
            eng.schedule_at(SimTime(1), 0u32);
            while let Some(s) = eng.pop() {
                order.push((s.at, s.event));
                if s.event < 20 {
                    eng.schedule_in(SimDuration::from_nanos(s.event as u64 % 3), s.event + 1);
                    eng.schedule_in(SimDuration::from_nanos(s.event as u64 % 3), s.event + 2);
                }
                if order.len() > 2000 {
                    break;
                }
            }
            order
        };
        assert_eq!(run(), run());
    }
}
