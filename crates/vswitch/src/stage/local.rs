//! The local-architecture [`SwitchEnv`]: one packet's run through
//! `VSwitch::process_local`, executing the process graph's [`ProcOp`]s
//! against the switch's sessions, CPU, memory and telemetry.

use super::process::ProcOp;
use super::{PktCtx, StageVerdict, SwitchEnv, SwitchGraphs};
use crate::pipeline::{self, PathTaken, ProcessOutcome};
use crate::vnic::Vnic;
use crate::vswitch::VSwitch;
use nezha_sim::resources::CpuOutcome;
use nezha_sim::time::SimTime;
use nezha_sim::trace::TraceEventKind;
use nezha_types::{Decision, Packet, PreAction, PreActionPair, SessionKey};

/// Accumulated result of one run (consumed by the facade).
pub(crate) struct RunResult {
    pub(crate) outcome: ProcessOutcome,
    pub(crate) path: PathTaken,
    pub(crate) done: SimTime,
    pub(crate) created: bool,
    pub(crate) overflow: bool,
}

/// Mutable run state for one packet through the local process graph.
pub(crate) struct LocalRun<'a> {
    vs: &'a mut VSwitch,
    graphs: &'a SwitchGraphs,
    pkt: &'a Packet,
    key: SessionKey,
    now: SimTime,
    bytes: usize,
    path: PathTaken,
    done: SimTime,
    outcome: Option<ProcessOutcome>,
    action: Option<nezha_types::Action>,
    pre: Option<PreAction>,
    pair: Option<PreActionPair>,
    created: bool,
    overflow: bool,
}

impl<'a> LocalRun<'a> {
    pub(crate) fn new(
        vs: &'a mut VSwitch,
        graphs: &'a SwitchGraphs,
        pkt: &'a Packet,
        now: SimTime,
    ) -> Self {
        LocalRun {
            vs,
            graphs,
            pkt,
            key: SessionKey::of(pkt.vpc, pkt.tuple),
            now,
            bytes: pkt.wire_len(),
            path: PathTaken::Slow,
            done: now,
            outcome: None,
            action: None,
            pre: None,
            pair: None,
            created: false,
            overflow: false,
        }
    }

    /// Consumes the run; the graph must have decided an outcome.
    pub(crate) fn finish(self) -> RunResult {
        RunResult {
            outcome: self.outcome.expect("process graph decided an outcome"),
            path: self.path,
            done: self.done,
            created: self.created,
            overflow: self.overflow,
        }
    }

    fn probe_flow_cache(&mut self) -> StageVerdict {
        let have_cached = self
            .vs
            .sessions
            .get(&self.key)
            .is_some_and(|e| e.pre_actions.is_some());
        self.path = if have_cached {
            PathTaken::Fast
        } else {
            PathTaken::Slow
        };
        self.vs.trace(
            self.now,
            self.pkt,
            if have_cached {
                TraceEventKind::TableHit
            } else {
                TraceEventKind::TableMiss
            },
        );
        StageVerdict::Continue
    }

    fn charge_cpu(&mut self) -> StageVerdict {
        let costs = self.vs.cfg.costs;
        // Slow-path pricing happens here, after the probe, so fast-path
        // packets skip the slow-path formula's `ln`.
        let cycles = match self.path {
            PathTaken::Fast => costs.fast_path_cycles(self.bytes),
            PathTaken::Slow => self.vnic().slow_path_cycles(&costs, self.bytes),
        };
        match self.vs.charge(self.now, self.pkt.vnic, cycles) {
            CpuOutcome::Dropped => {
                self.outcome = Some(ProcessOutcome::CpuOverload);
                StageVerdict::Stop
            }
            CpuOutcome::Done { done_at } => {
                self.done = done_at;
                self.vs
                    .trace(self.now, self.pkt, TraceEventKind::CpuCharge { cycles });
                self.vs
                    .profile_local(self.pkt, self.now, done_at, cycles, self.bytes, self.path);
                StageVerdict::Continue
            }
        }
    }

    fn process_cached(&mut self) -> StageVerdict {
        let entry = self.vs.sessions.get_mut(&self.key).expect("probe hit");
        let pre = *entry
            .pre_actions
            .as_ref()
            .expect("probe hit")
            .for_direction(self.pkt.dir);
        self.action = Some(pipeline::process_pkt(&pre, &mut entry.state, self.pkt));
        entry.last_seen = self.now;
        StageVerdict::Continue
    }

    fn lookup_rules(&mut self) -> StageVerdict {
        let vnic = self.vs.vnics.get(&self.pkt.vnic).expect("facade checked");
        let pair = self.graphs.lookup_pair(vnic, &self.pkt.tuple, self.pkt.dir);
        self.pre = Some(*pair.for_direction(self.pkt.dir));
        self.pair = Some(pair);
        StageVerdict::Continue
    }

    fn gate_stateless_drop(&mut self) -> StageVerdict {
        let pre = self.pre.expect("rule lookup ran");
        if pre.verdict == Decision::Drop && !pre.stateful_acl {
            self.outcome = Some(ProcessOutcome::Unroutable);
            StageVerdict::Stop
        } else {
            StageVerdict::Continue
        }
    }

    fn establish_session(&mut self) -> StageVerdict {
        let pair = self.pair.expect("rule lookup ran");
        if self.vs.sessions.get(&self.key).is_none() {
            match self.vs.sessions.establish(
                self.key,
                self.pkt.vnic,
                self.pkt.dir,
                Some(pair),
                self.now,
                &mut self.vs.mem,
                &self.vs.cfg.memory,
            ) {
                Ok(_) => self.created = true,
                Err(_) => self.overflow = true, // process uncached
            }
        } else if let Some(e) = self.vs.sessions.get_mut(&self.key) {
            // Entry existed without cached flows (post rule-update): try to
            // re-cache the fresh lookup.
            if e.pre_actions.is_none() && self.vs.mem.alloc(self.vs.cfg.memory.flow_entry).is_ok() {
                e.pre_actions = Some(pair);
            }
            e.last_seen = self.now;
        }
        StageVerdict::Continue
    }

    fn process_fresh(&mut self) -> StageVerdict {
        let pre = self.pre.expect("rule lookup ran");
        self.action = Some(if let Some(e) = self.vs.sessions.get_mut(&self.key) {
            pipeline::process_pkt(&pre, &mut e.state, self.pkt)
        } else {
            // Uncached processing: ephemeral state (stateful guarantees
            // degrade exactly as they would on a real overflowing switch).
            let mut scratch = nezha_types::SessionState::default();
            pipeline::process_pkt(&pre, &mut scratch, self.pkt)
        });
        StageVerdict::Continue
    }

    fn admit(&mut self) -> StageVerdict {
        let action = self.action.expect("a process stage ran");
        self.outcome = Some(if action.verdict == Decision::Drop {
            ProcessOutcome::AclDrop
        } else if !self
            .vs
            .vnics
            .get_mut(&self.pkt.vnic)
            .expect("vnic present")
            .tables
            .qos
            .admit(self.now, action.qos_class, self.bytes as u64)
        {
            ProcessOutcome::RateLimited
        } else {
            ProcessOutcome::Forwarded(action)
        });
        StageVerdict::Continue
    }
}

impl SwitchEnv for LocalRun<'_> {
    fn vnic(&self) -> &Vnic {
        self.vs.vnics.get(&self.pkt.vnic).expect("facade checked")
    }

    fn op(&mut self, op: ProcOp, ctx: &mut PktCtx) -> StageVerdict {
        match op {
            ProcOp::ProbeFlowCache => {
                let v = self.probe_flow_cache();
                ctx.path = Some(self.path);
                v
            }
            ProcOp::ChargeCpu => self.charge_cpu(),
            ProcOp::ProcessCached => self.process_cached(),
            ProcOp::LookupRules => self.lookup_rules(),
            ProcOp::GateStatelessDrop => self.gate_stateless_drop(),
            ProcOp::EstablishSession => self.establish_session(),
            ProcOp::ProcessFresh => self.process_fresh(),
            ProcOp::Admit => self.admit(),
        }
    }
}

impl std::fmt::Debug for LocalRun<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalRun")
            .field("key", &self.key)
            .field("path", &self.path)
            .field("outcome", &self.outcome)
            .finish_non_exhaustive()
    }
}
