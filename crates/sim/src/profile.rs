//! Cycle-attribution profiler, causal span tracer and per-packet event
//! recorder.
//!
//! Every headline claim in the paper is a cycle-budget claim: offload wins
//! because slow-path rule lookups and session handling dominate vSwitch
//! CPU. The aggregate counters in [`crate::metrics`] say *how many* cycles
//! were charged; this module says *where they went* — per pipeline stage,
//! per call stack, and per packet, across the BE↔FE hop.
//!
//! ## Span model
//!
//! A **span** is one closed interval of simulated work: a stage name, a
//! `[start, end]` pair of [`SimTime`]s, and the cycles/bytes/packets it
//! accounts for. Spans are recorded *after the fact* in a single call
//! ([`Profiler::record`]) because the deterministic CPU model knows a
//! charge's completion time synchronously — there is no open/close pair to
//! mismatch. Stage names are interned once at startup into cheap `Copy`
//! [`StageHandle`]s (same discipline as `MetricsRegistry`; lint rule D6
//! enforces it), so the per-packet cost when enabled is a `RefCell` borrow
//! plus vector pushes, and a single flag test when disabled.
//!
//! ## Causal parents
//!
//! Each recorded span gets a [`SpanId`]. A span may name a parent span;
//! the id packs the parent's interned *stack path* so linking never needs
//! a lookup table. Ids flatten to a nonzero `u64` ([`SpanId::to_raw`])
//! that components thread through packets crossing the fabric, which is
//! how one packet's life (BE enqueue → NSH encap → FE rule lookup →
//! notify return → session update) reconstructs as a single tree even
//! though its spans were recorded on different servers.
//!
//! ## Aggregation and export
//!
//! Recording feeds three sinks:
//! - per-stage self totals (the cycle-share table),
//! - per-stack-path totals (the collapsed-stack flamegraph,
//!   [`Profiler::flamegraph`]),
//! - a bounded ring of full span records (the Chrome `trace_event`
//!   export, [`Profiler::chrome_trace`], and tree queries).
//!
//! ## Trace events
//!
//! The same ring also holds the packet-level [`TraceEvent`]s (enqueue,
//! table hit/miss, NSH encap/decap, notify, drop-with-reason), so one
//! recorder narrates a packet's trip and attributes its cycles. Spans
//! and events are switched on separately ([`Profiler::enable`],
//! [`Profiler::enable_events`]); the ring keeps the larger of the two
//! capacities' worth of most-recent records, whichever kind they are.
//! A site that records a span and an event for the same fact at the
//! same instant does so in one call ([`Profiler::mark`]).
//!
//! ## Determinism invariants
//!
//! All timestamps come from [`SimTime`]; the profiler holds no wall-clock,
//! no randomness, and iterates only `BTreeMap`s, so two same-seed runs
//! produce byte-identical exports. Recording never changes simulation
//! behaviour: the profiler is a pure observer and is disabled by default.

use crate::time::SimTime;
use crate::trace::{TraceEvent, TraceEventKind, TraceFilter};
use nezha_types::{Packet, ServerId, VnicId};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// Number of `rule_tier{n}` stages pre-registered by [`StageSet`]. Covers
/// the base pipeline tier plus every `extra_tables` profile up to 7.
pub const RULE_TIERS: usize = 8;

/// Sentinel for "no parent path" in the intern table.
const NO_PATH: u32 = u32::MAX;

/// A pre-registered profiling stage. Cheap to copy and store; acquire
/// once at startup via [`Profiler::stage`] (lint rule D6).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct StageHandle(usize);

/// Identity of one recorded span.
///
/// Packs the span's sequence number (low 40 bits) with its interned stack
/// path (high 24 bits), so a child span can be attributed to the right
/// flamegraph stack from the id alone — no side table that could grow
/// without bound.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct SpanId {
    seq: u64,
    path: u32,
}

impl SpanId {
    /// Flattens to a nonzero `u64` suitable for carrying in a packet
    /// field (`0` meaning "no span").
    pub fn to_raw(self) -> u64 {
        ((self.seq + 1) & 0xff_ffff_ffff) | ((self.path as u64) << 40)
    }

    /// Recovers a span id from [`SpanId::to_raw`]; `0` maps to `None`.
    pub fn from_raw(raw: u64) -> Option<SpanId> {
        if raw == 0 {
            None
        } else {
            Some(SpanId {
                seq: (raw & 0xff_ffff_ffff) - 1,
                path: (raw >> 40) as u32,
            })
        }
    }
}

/// Input to [`Profiler::record`]: one closed interval of attributed work.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Pre-registered stage this work belongs to.
    pub stage: StageHandle,
    /// Causal parent, if any (possibly recorded on another server).
    pub parent: Option<SpanId>,
    /// Trace id of the packet this work was done for (0 if none).
    pub trace: u64,
    /// Server the work ran on.
    pub server: ServerId,
    /// vNIC the work was charged to.
    pub vnic: VnicId,
    /// When the work began.
    pub start: SimTime,
    /// When the work completed.
    pub end: SimTime,
    /// Simulated cycles attributed to this span (self time, post any
    /// gray-failure multiplier — i.e. exactly what the CPU model charged).
    pub cycles: u64,
    /// Wire bytes attributed to this span.
    pub bytes: u64,
    /// Packets attributed to this span.
    pub packets: u64,
}

impl Span {
    /// A handler's root span for `pkt` on `server`: no self cycles (its
    /// leaves carry them), one packet and its wire bytes, parented on the
    /// causal id the packet carries (`pkt.prof_span`).
    pub fn root(
        stage: StageHandle,
        pkt: &Packet,
        server: ServerId,
        start: SimTime,
        end: SimTime,
    ) -> Span {
        Span {
            stage,
            parent: SpanId::from_raw(pkt.prof_span),
            trace: pkt.trace,
            server,
            vnic: pkt.vnic,
            start,
            end,
            cycles: 0,
            bytes: pkt.wire_len() as u64,
            packets: 1,
        }
    }
}

/// One recorded span, as stored in the ring and returned by queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// This span's identity.
    pub id: SpanId,
    /// Causal parent, if any.
    pub parent: Option<SpanId>,
    /// Stage (resolve the name with [`Profiler::stage_name`]).
    pub stage: StageHandle,
    /// Packet trace id (0 if none).
    pub trace: u64,
    /// Server the work ran on.
    pub server: ServerId,
    /// vNIC the work was charged to.
    pub vnic: VnicId,
    /// Interval start.
    pub start: SimTime,
    /// Interval end.
    pub end: SimTime,
    /// Self cycles.
    pub cycles: u64,
    /// Self bytes.
    pub bytes: u64,
    /// Self packets.
    pub packets: u64,
}

/// Accumulated self totals for one stage or one stack path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTotals {
    /// Simulated cycles.
    pub cycles: u64,
    /// Wire bytes.
    pub bytes: u64,
    /// Packets.
    pub packets: u64,
}

impl StageTotals {
    fn add(&mut self, s: &Span) {
        self.cycles += s.cycles;
        self.bytes += s.bytes;
        self.packets += s.packets;
    }
}

#[derive(Debug)]
struct PathNode {
    parent: u32,
    stage: usize,
}

/// One entry of the shared ring.
#[derive(Clone, Copy, Debug)]
enum Record {
    Span(SpanRecord),
    Event(TraceEvent),
}

#[derive(Debug, Default)]
struct Inner {
    enabled: bool,
    stages: Vec<String>,
    stage_index: BTreeMap<String, usize>,
    stage_agg: Vec<StageTotals>,
    paths: Vec<PathNode>,
    path_index: BTreeMap<(u32, usize), u32>,
    path_agg: Vec<StageTotals>,
    ring: VecDeque<Record>,
    span_capacity: usize,
    /// Trace events are recorded while this is nonzero.
    event_capacity: usize,
    filter: TraceFilter,
    recorded: u64,
    evicted: u64,
    next_seq: u64,
}

impl Inner {
    fn capacity(&self) -> usize {
        self.span_capacity.max(self.event_capacity)
    }

    /// Applies a changed capacity: evicts the oldest records that no
    /// longer fit and pre-sizes the ring, so steady-state recording never
    /// grows the allocation mid-measurement (a realloc pause inside the
    /// measured region would skew the very spans being recorded). Huge
    /// capacities (effectively "unbounded") are not paid for eagerly.
    fn resize(&mut self) {
        const EAGER_PREALLOC_MAX: usize = 1 << 20;
        let capacity = self.capacity();
        while self.ring.len() > capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        if capacity <= EAGER_PREALLOC_MAX {
            self.ring.reserve_exact(capacity - self.ring.len());
        }
    }

    /// Appends one record, evicting the oldest when the ring is full.
    fn push(&mut self, record: Record) {
        if self.ring.len() >= self.capacity() {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(record);
    }

    fn spans(&self) -> impl Iterator<Item = &SpanRecord> {
        self.ring.iter().filter_map(|r| match r {
            Record::Span(s) => Some(s),
            Record::Event(_) => None,
        })
    }

    fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter().filter_map(|r| match r {
            Record::Event(e) => Some(e),
            Record::Span(_) => None,
        })
    }
}

/// The shared recorder. `Clone` shares the same underlying store (the
/// same single-ownership model as `MetricsRegistry`): the cluster creates
/// one and hands clones to every component it instruments.
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    inner: Rc<RefCell<Inner>>,
}

impl Profiler {
    /// Creates a disabled profiler with no registered stages.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Registers (or looks up) a stage by name, returning its handle.
    ///
    /// Idempotent; meant for startup only (lint rule D6 flags hot-path
    /// acquisition). Stage names become flamegraph frames, so they must
    /// not contain `;`, spaces, or newlines.
    pub fn stage(&self, name: &str) -> StageHandle {
        let mut inner = self.inner.borrow_mut();
        if let Some(&i) = inner.stage_index.get(name) {
            return StageHandle(i);
        }
        let i = inner.stages.len();
        inner.stages.push(name.to_string());
        inner.stage_index.insert(name.to_string(), i);
        inner.stage_agg.push(StageTotals::default());
        StageHandle(i)
    }

    /// The registered name of a stage handle.
    pub fn stage_name(&self, h: StageHandle) -> String {
        let inner = self.inner.borrow();
        inner.stages.get(h.0).cloned().unwrap_or_default()
    }

    /// Enables span recording with a span-ring capacity. Aggregates
    /// (stage and flamegraph totals) are unbounded but tiny; only the
    /// full span records are ring-bounded. Capacity 0 keeps aggregation
    /// but drops span records (flamegraph works, Chrome trace is empty).
    pub fn enable(&self, span_capacity: usize) {
        let mut inner = self.inner.borrow_mut();
        inner.enabled = true;
        inner.span_capacity = span_capacity;
        inner.resize();
    }

    /// True when spans are being recorded. Instrumentation sites check
    /// this before doing any per-span work.
    pub fn is_enabled(&self) -> bool {
        self.inner.borrow().enabled
    }

    /// Turns on trace-event recording, keeping at most `capacity`
    /// most-recent records in the ring (the larger of this and the span
    /// capacity). Pass 0 to stop recording events again.
    pub fn enable_events(&self, capacity: usize) {
        let mut inner = self.inner.borrow_mut();
        inner.event_capacity = capacity;
        inner.resize();
    }

    /// Sets the record-time event filter (applies to subsequent events
    /// only; spans are never filtered).
    pub fn set_filter(&self, filter: TraceFilter) {
        self.inner.borrow_mut().filter = filter;
    }

    /// Records one trace event. No-op while events are off or the filter
    /// rejects it (the only per-call cost then is the check).
    pub fn event(&self, ev: TraceEvent) {
        let mut inner = self.inner.borrow_mut();
        if inner.event_capacity == 0 || !inner.filter.accepts(&ev) {
            return;
        }
        inner.recorded += 1;
        inner.push(Record::Event(ev));
    }

    /// Records the trace event `kind` stamped at the span's end together
    /// with the span itself: one call for a fact both record kinds see
    /// at the same instant (an NSH hop marker, a fault drop).
    pub fn mark(&self, kind: TraceEventKind, span: Span) -> Option<SpanId> {
        self.event(TraceEvent {
            at: span.end,
            trace_id: span.trace,
            server: span.server,
            vnic: span.vnic,
            kind,
        });
        self.record(span)
    }

    /// Records a root span and, under it, one leaf per cycle-bearing
    /// `(stage, cycles)` entry (zero-cycle leaves are skipped). Leaves
    /// share the root's packet, server and interval but not its bytes or
    /// packets, which the root already counts. Returns the root's id
    /// (`None` while disabled) so callers can thread it across a hop.
    pub fn record_tree(&self, root: Span, leaves: &[(StageHandle, u64)]) -> Option<SpanId> {
        let id = self.record(root)?;
        for &(stage, cycles) in leaves {
            if cycles > 0 {
                self.record(Span {
                    stage,
                    parent: Some(id),
                    cycles,
                    bytes: 0,
                    packets: 0,
                    ..root
                });
            }
        }
        Some(id)
    }

    /// Records one span. Returns `None` when disabled (the only per-call
    /// cost on that path is the flag test), otherwise the new span's id.
    pub fn record(&self, span: Span) -> Option<SpanId> {
        let mut inner = self.inner.borrow_mut();
        if !inner.enabled {
            return None;
        }
        if span.stage.0 >= inner.stages.len() {
            return None; // handle from a different profiler; ignore
        }
        let parent_path = span.parent.map_or(NO_PATH, |p| p.path);
        let key = (parent_path, span.stage.0);
        let path = match inner.path_index.get(&key) {
            Some(&p) => p,
            None => {
                let p = inner.paths.len() as u32;
                inner.paths.push(PathNode {
                    parent: parent_path,
                    stage: span.stage.0,
                });
                inner.path_agg.push(StageTotals::default());
                inner.path_index.insert(key, p);
                p
            }
        };
        inner.path_agg[path as usize].add(&span);
        inner.stage_agg[span.stage.0].add(&span);
        let id = SpanId {
            seq: inner.next_seq,
            path,
        };
        inner.next_seq += 1;
        inner.recorded += 1;
        if inner.span_capacity > 0 {
            inner.push(Record::Span(SpanRecord {
                id,
                parent: span.parent,
                stage: span.stage,
                trace: span.trace,
                server: span.server,
                vnic: span.vnic,
                start: span.start,
                end: span.end,
                cycles: span.cycles,
                bytes: span.bytes,
                packets: span.packets,
            }));
        }
        Some(id)
    }

    /// Total records accepted: spans (including those only aggregated,
    /// under span capacity 0) plus trace events.
    pub fn recorded(&self) -> u64 {
        self.inner.borrow().recorded
    }

    /// Records of either kind pushed out of the ring because it was full.
    pub fn evicted(&self) -> u64 {
        self.inner.borrow().evicted
    }

    /// The buffered trace events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.borrow().events().copied().collect()
    }

    /// The buffered trace events passing `filter`, oldest first.
    pub fn query(&self, filter: TraceFilter) -> Vec<TraceEvent> {
        let inner = self.inner.borrow();
        inner
            .events()
            .filter(|ev| filter.accepts(ev))
            .copied()
            .collect()
    }

    /// The buffered trace events of one packet (by `trace_id`), oldest
    /// first.
    pub fn packet(&self, trace_id: u64) -> Vec<TraceEvent> {
        let inner = self.inner.borrow();
        inner
            .events()
            .filter(|ev| ev.trace_id == trace_id)
            .copied()
            .collect()
    }

    /// Sum of self cycles across all stages — equals the CPU model's
    /// total charged cycles when every charge site is instrumented.
    pub fn total_cycles(&self) -> u64 {
        self.inner.borrow().stage_agg.iter().map(|a| a.cycles).sum()
    }

    /// Per-stage self totals, sorted by stage name.
    pub fn stage_totals(&self) -> Vec<(String, StageTotals)> {
        let inner = self.inner.borrow();
        inner
            .stage_index
            .iter()
            .map(|(name, &i)| (name.clone(), inner.stage_agg[i]))
            .collect()
    }

    /// All span records currently in the ring, oldest first.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.borrow().spans().copied().collect()
    }

    /// The span record with the given id, if still in the ring.
    pub fn span(&self, id: SpanId) -> Option<SpanRecord> {
        self.inner.borrow().spans().find(|s| s.id == id).copied()
    }

    /// Direct children of a span still in the ring, oldest first.
    pub fn children(&self, id: SpanId) -> Vec<SpanRecord> {
        let inner = self.inner.borrow();
        inner
            .spans()
            .filter(|s| s.parent == Some(id))
            .copied()
            .collect()
    }

    /// Spans recorded for one packet trace id, oldest first. The full
    /// causal tree can reach across trace ids (e.g. notify packets carry
    /// trace 0); follow `parent` links via [`Profiler::span`] for those.
    pub fn packet_spans(&self, trace: u64) -> Vec<SpanRecord> {
        let inner = self.inner.borrow();
        inner
            .spans()
            .filter(|s| s.trace == trace)
            .copied()
            .collect()
    }

    /// The stage-name stack of a span, outermost first (e.g.
    /// `["be_tx", "nsh_encap"]`), derived from its interned path.
    pub fn stack(&self, id: SpanId) -> Vec<String> {
        let inner = self.inner.borrow();
        let mut out = Vec::new();
        let mut cur = id.path;
        while (cur as usize) < inner.paths.len() {
            let node = &inner.paths[cur as usize];
            out.push(inner.stages[node.stage].clone());
            if node.parent == NO_PATH {
                break;
            }
            cur = node.parent;
        }
        out.reverse();
        out
    }

    /// Collapsed-stack flamegraph text: one `frame;frame;... cycles` line
    /// per stack path with nonzero self cycles, sorted lexicographically.
    /// Feed to `flamegraph.pl` / `inferno-flamegraph` as-is.
    pub fn flamegraph(&self) -> String {
        let inner = self.inner.borrow();
        let mut lines: Vec<String> = Vec::new();
        for (pid, agg) in inner.path_agg.iter().enumerate() {
            if agg.cycles == 0 {
                continue;
            }
            let mut stack = Vec::new();
            let mut cur = pid as u32;
            loop {
                let node = &inner.paths[cur as usize];
                stack.push(inner.stages[node.stage].as_str());
                if node.parent == NO_PATH {
                    break;
                }
                cur = node.parent;
            }
            stack.reverse();
            lines.push(format!("{} {}", stack.join(";"), agg.cycles));
        }
        lines.sort();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// Chrome `trace_event` JSON for the span ring: complete (`"X"`)
    /// events with microsecond timestamps derived from [`SimTime`], one
    /// process per server and one thread per vNIC. Load via
    /// `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn chrome_trace(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in inner.spans().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ts = s.start.0 as f64 / 1000.0;
            let dur = s.end.0.saturating_sub(s.start.0) as f64 / 1000.0;
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":\"nezha\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{},\"tid\":{},\"args\":{{\"span\":{},\"parent\":{},\"trace\":{},\
                 \"cycles\":{},\"bytes\":{},\"packets\":{}}}}}",
                json_str(&inner.stages[s.stage.0]),
                json_f64(ts),
                json_f64(dur),
                s.server.0,
                s.vnic.0,
                s.id.to_raw(),
                s.parent.map_or(0, SpanId::to_raw),
                s.trace,
                s.cycles,
                s.bytes,
                s.packets,
            ));
        }
        out.push_str("]}");
        out
    }
}

/// The standard Nezha stage vocabulary, pre-registered as a bundle.
///
/// Both the vSwitch and the cluster register a `StageSet` against the
/// same shared [`Profiler`] at startup (registration is idempotent, so
/// the handles agree) and index it from their hot paths.
#[derive(Clone, Debug)]
pub struct StageSet {
    /// Header parse cost.
    pub parse: StageHandle,
    /// Per-byte DMA + copy cost.
    pub dma: StageHandle,
    /// Session/flow-table lookup (fast hit) or creation (slow path).
    pub session_lookup: StageHandle,
    /// BE connection-state adoption/update.
    pub session_update: StageHandle,
    /// First-packet slow-path overhead (upcalls, validation).
    pub slowpath: StageHandle,
    /// NSH encapsulation work.
    pub nsh_encap: StageHandle,
    /// NSH decapsulation work.
    pub nsh_decap: StageHandle,
    /// Notify processing.
    pub notify: StageHandle,
    /// Rule-pipeline tiers: `rule_tier0` (base pipeline + ACL) through
    /// `rule_tier{RULE_TIERS-1}` (extra per-table costs).
    pub rule_tiers: Vec<StageHandle>,
    /// Root: traditional local (non-offloaded) processing.
    pub local: StageHandle,
    /// Root: BE egress handling (state update + encap toward an FE).
    pub be_tx: StageHandle,
    /// Root: FE handling of a BE-encapsulated egress carry.
    pub fe_tx_carry: StageHandle,
    /// Root: FE handling of ingress traffic from the gateway.
    pub fe_rx: StageHandle,
    /// Root: BE handling of an FE-encapsulated ingress carry.
    pub be_rx_carry: StageHandle,
    /// Root: BE handling of an FE notify.
    pub be_notify: StageHandle,
    /// Root: BE handling of ingress that bypassed the FEs.
    pub be_direct_rx: StageHandle,
    /// Marker: a packet discarded by the fault engine (0 cycles).
    pub fault_drop: StageHandle,
}

impl StageSet {
    /// Registers the standard stages (idempotent).
    pub fn register(p: &Profiler) -> StageSet {
        StageSet {
            parse: p.stage("parse"),
            dma: p.stage("dma"),
            session_lookup: p.stage("session_lookup"),
            session_update: p.stage("session_update"),
            slowpath: p.stage("slowpath"),
            nsh_encap: p.stage("nsh_encap"),
            nsh_decap: p.stage("nsh_decap"),
            notify: p.stage("notify"),
            rule_tiers: (0..RULE_TIERS)
                .map(|i| p.stage(&format!("rule_tier{i}")))
                .collect(),
            local: p.stage("local"),
            be_tx: p.stage("be_tx"),
            fe_tx_carry: p.stage("fe_tx_carry"),
            fe_rx: p.stage("fe_rx"),
            be_rx_carry: p.stage("be_rx_carry"),
            be_notify: p.stage("be_notify"),
            be_direct_rx: p.stage("be_direct_rx"),
            fault_drop: p.stage("fault_drop"),
        }
    }
}

/// Escapes a string for JSON output.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` deterministically (shortest round-trip form).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(stage: StageHandle, parent: Option<SpanId>, cycles: u64) -> Span {
        Span {
            stage,
            parent,
            trace: 7,
            server: ServerId(1),
            vnic: VnicId(2),
            start: SimTime(1_000),
            end: SimTime(2_000),
            cycles,
            bytes: 64,
            packets: 1,
        }
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = Profiler::new();
        let s = p.stage("parse");
        assert_eq!(p.record(span(s, None, 100)), None);
        assert_eq!(p.recorded(), 0);
        assert_eq!(p.total_cycles(), 0);
        assert_eq!(p.flamegraph(), "");
        assert_eq!(
            p.chrome_trace(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }

    #[test]
    fn stage_registration_is_idempotent() {
        let p = Profiler::new();
        let a = p.stage("parse");
        let b = p.stage("parse");
        assert_eq!(a, b);
        assert_eq!(p.stage_name(a), "parse");
    }

    #[test]
    fn span_ids_round_trip_through_raw() {
        let p = Profiler::new();
        p.enable(16);
        let s = p.stage("parse");
        let id = p.record(span(s, None, 10)).unwrap();
        assert_eq!(SpanId::from_raw(id.to_raw()), Some(id));
        assert_eq!(SpanId::from_raw(0), None);
    }

    #[test]
    fn totals_and_flamegraph_accumulate_per_stack() {
        let p = Profiler::new();
        p.enable(16);
        let root = p.stage("be_tx");
        let leaf = p.stage("session_update");
        let r = p.record(span(root, None, 0)).unwrap();
        p.record(span(leaf, Some(r), 250)).unwrap();
        p.record(span(leaf, Some(r), 250)).unwrap();
        let r2 = p.record(span(root, None, 0)).unwrap();
        p.record(span(leaf, Some(r2), 100)).unwrap();
        assert_eq!(p.total_cycles(), 600);
        assert_eq!(p.flamegraph(), "be_tx;session_update 600\n");
        let totals = p.stage_totals();
        let (_, t) = totals.iter().find(|(n, _)| n == "session_update").unwrap();
        assert_eq!(t.cycles, 600);
        assert_eq!(t.packets, 3);
        assert_eq!(
            p.stack(p.children(r)[0].id),
            vec!["be_tx", "session_update"]
        );
    }

    #[test]
    fn ring_evicts_oldest_but_keeps_aggregates() {
        let p = Profiler::new();
        p.enable(2);
        let s = p.stage("parse");
        let a = p.record(span(s, None, 1)).unwrap();
        let _b = p.record(span(s, None, 2)).unwrap();
        let _c = p.record(span(s, None, 3)).unwrap();
        assert_eq!(p.evicted(), 1);
        assert_eq!(p.recorded(), 3);
        assert_eq!(p.span(a), None);
        assert_eq!(p.spans().len(), 2);
        assert_eq!(p.total_cycles(), 6);
    }

    #[test]
    fn children_and_packet_queries_follow_links() {
        let p = Profiler::new();
        p.enable(16);
        let root = p.stage("fe_tx_carry");
        let leaf = p.stage("nsh_decap");
        let r = p.record(span(root, None, 0)).unwrap();
        let c = p.record(span(leaf, Some(r), 400)).unwrap();
        let kids = p.children(r);
        assert_eq!(kids.len(), 1);
        assert_eq!(kids[0].id, c);
        assert_eq!(p.packet_spans(7).len(), 2);
        assert_eq!(p.packet_spans(8).len(), 0);
    }

    #[test]
    fn chrome_trace_is_valid_shape_and_deterministic() {
        let mk = || {
            let p = Profiler::new();
            p.enable(16);
            let s = p.stage("parse");
            let r = p.record(span(s, None, 123)).unwrap();
            p.record(span(s, Some(r), 45)).unwrap();
            p.chrome_trace()
        };
        let a = mk();
        assert_eq!(a, mk());
        assert!(a.starts_with("{\"displayTimeUnit\""));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"ts\":1.0"));
        assert!(a.ends_with("]}"));
    }

    #[test]
    fn stage_set_handles_agree_across_registrations() {
        let p = Profiler::new();
        let a = StageSet::register(&p);
        let b = StageSet::register(&p);
        assert_eq!(a.parse, b.parse);
        assert_eq!(a.rule_tiers, b.rule_tiers);
        assert_eq!(a.rule_tiers.len(), RULE_TIERS);
    }

    /// The trace-event side of the shared ring.
    mod events {
        use super::*;
        use crate::trace::{DropReason, TraceEvent, TraceEventKind, TraceFilter};

        fn ev(at: u64, id: u64, server: u32, kind: TraceEventKind) -> TraceEvent {
            TraceEvent {
                at: SimTime(at),
                trace_id: id,
                server: ServerId(server),
                vnic: VnicId(1),
                kind,
            }
        }

        fn recorder(capacity: usize) -> Profiler {
            let p = Profiler::new();
            p.enable_events(capacity);
            p
        }

        fn times(p: &Profiler) -> Vec<u64> {
            p.events().iter().map(|e| e.at.nanos()).collect()
        }

        #[test]
        fn disabled_trace_records_nothing() {
            let p = Profiler::new();
            p.event(ev(1, 1, 1, TraceEventKind::Enqueue));
            assert!(p.events().is_empty());
            assert_eq!(p.recorded(), 0);
        }

        #[test]
        fn ring_evicts_oldest() {
            let p = recorder(3);
            for i in 0..5 {
                p.event(ev(i, i, 1, TraceEventKind::Enqueue));
            }
            assert_eq!(p.events().len(), 3);
            assert_eq!(p.recorded(), 5);
            assert_eq!(p.evicted(), 2);
            assert_eq!(times(&p), vec![2, 3, 4]);
        }

        #[test]
        fn record_filter_applies() {
            let p = recorder(16);
            p.set_filter(TraceFilter::all().on_server(ServerId(2)).drops());
            p.event(ev(1, 1, 1, TraceEventKind::Drop(DropReason::Backlog)));
            p.event(ev(2, 2, 2, TraceEventKind::Enqueue));
            p.event(ev(3, 3, 2, TraceEventKind::Drop(DropReason::PeerDown)));
            let kept = p.events();
            assert_eq!(kept.len(), 1);
            assert_eq!(kept[0].kind, TraceEventKind::Drop(DropReason::PeerDown));
        }

        #[test]
        fn query_and_packet_lookup() {
            let p = recorder(16);
            p.event(ev(1, 7, 1, TraceEventKind::Enqueue));
            p.event(ev(2, 7, 1, TraceEventKind::TableMiss));
            p.event(ev(3, 8, 2, TraceEventKind::NshEncap));
            p.event(ev(4, 7, 2, TraceEventKind::Notify));
            assert_eq!(p.packet(7).len(), 3);
            assert_eq!(p.query(TraceFilter::all().on_server(ServerId(2))).len(), 2);
            assert_eq!(p.query(TraceFilter::all()).len(), 4);
        }

        #[test]
        fn clones_share_the_buffer() {
            let p = recorder(8);
            let other = p.clone();
            other.event(ev(1, 1, 1, TraceEventKind::TableHit));
            assert_eq!(p.events().len(), 1);
        }

        #[test]
        fn combined_filter_requires_every_field() {
            let p = recorder(16);
            let all_three = TraceFilter::all()
                .on_server(ServerId(2))
                .on_vnic(VnicId(1))
                .drops();
            p.set_filter(all_three);
            // Wrong server, wrong kind, wrong vnic — each fails one clause.
            p.event(ev(1, 1, 1, TraceEventKind::Drop(DropReason::Fault)));
            p.event(ev(2, 2, 2, TraceEventKind::Enqueue));
            let mut other_vnic = ev(3, 3, 2, TraceEventKind::Drop(DropReason::Fault));
            other_vnic.vnic = VnicId(9);
            p.event(other_vnic);
            // Passes all three.
            p.event(ev(4, 4, 2, TraceEventKind::Drop(DropReason::Backlog)));
            let kept = p.events();
            assert_eq!(kept.len(), 1);
            assert_eq!(kept[0].kind, TraceEventKind::Drop(DropReason::Backlog));
            // query() applies the same conjunction over a buffered mix.
            let u = recorder(16);
            u.event(ev(1, 1, 2, TraceEventKind::Drop(DropReason::PeerDown)));
            u.event(ev(2, 2, 2, TraceEventKind::TableHit));
            u.event(ev(3, 3, 3, TraceEventKind::Drop(DropReason::PeerDown)));
            let q = u.query(all_three);
            assert_eq!(q.len(), 1);
            assert_eq!(q[0].at, SimTime(1));
        }

        #[test]
        fn ring_at_exactly_capacity_evicts_nothing() {
            let p = recorder(4);
            for i in 0..4 {
                p.event(ev(i, i, 1, TraceEventKind::Enqueue));
            }
            assert_eq!(p.events().len(), 4);
            assert_eq!(p.evicted(), 0);
            assert_eq!(times(&p), vec![0, 1, 2, 3], "insertion order preserved");
        }

        #[test]
        fn ring_at_capacity_plus_one_evicts_exactly_the_oldest() {
            let p = recorder(4);
            for i in 0..5 {
                p.event(ev(i, i, 1, TraceEventKind::Enqueue));
            }
            assert_eq!(p.events().len(), 4);
            assert_eq!(p.evicted(), 1);
            assert_eq!(p.recorded(), 5);
            assert_eq!(times(&p), vec![1, 2, 3, 4], "oldest event gone, order kept");
        }

        #[test]
        fn spans_and_events_share_one_ring() {
            let p = recorder(2);
            p.enable(3);
            let s = p.stage("parse");
            p.event(ev(1, 7, 1, TraceEventKind::Enqueue));
            p.record(span(s, None, 5)).unwrap();
            assert_eq!((p.events().len(), p.spans().len()), (1, 1));
            // The ring holds the larger capacity (3) of either kind.
            p.event(ev(2, 7, 1, TraceEventKind::NshEncap));
            p.mark(TraceEventKind::Notify, span(s, None, 0));
            assert_eq!(p.evicted(), 2, "event + mark pushed out the oldest two");
            assert_eq!(times(&p), vec![2, 2_000], "mark stamps the span's end");
            assert_eq!(p.spans().len(), 1);
            assert_eq!(p.recorded(), 5);
            assert_eq!(p.total_cycles(), 5, "aggregates survive eviction");
        }
    }
}
