//! Pipeline-as-combinators: the vSwitch datapath as typed, composable
//! stage graphs.
//!
//! The paper's equivalence argument (§3.1) rests on the *same*
//! packet-processing pipeline running in three places — the traditional
//! local vSwitch, a Nezha FE, and a Nezha BE. This module makes that
//! pipeline a first-class value: stages with typed interfaces
//! ([`PktCtx`] in, [`StageVerdict`] out) composed with [`seq`],
//! [`branch`], [`tee`] and [`guard`] into a [`StageGraph`] that is
//! compiled (validated + cost-planned) **once at construction** and then
//! drives every packet.
//!
//! * [`graph`] — the combinator core: [`Stage`], [`Node`], compilation,
//!   cost-plan derivation;
//! * [`lookup`] — the rule-table pipeline (ACL, QoS, policy, PBR, route,
//!   vNIC-server, NAT, mirror) as stages over [`PktCtx`];
//! * [`process`] — the session fast/slow split as macro-stages delegating
//!   to a [`SwitchEnv`];
//! * [`costing`] — realizes a graph's [`CostSlot`] plan against a charged
//!   cycle total (exact reconciliation) and maps it onto profiler
//!   stage handles;
//! * `local` — the [`SwitchEnv`] implementation driving
//!   `VSwitch::process_local`.
//!
//! Alternative pipelines (new tables, NAT/firewall variants, baseline
//! architectures) are new graphs over the same combinators — not forks
//! of `vswitch.rs`.

pub mod costing;
pub mod graph;
pub(crate) mod local;
pub mod lookup;
pub mod process;

pub use graph::{
    branch, guard, seq, stage, tee, CostSlot, GraphError, Node, Pred, Stage, StageCtx, StageGraph,
    StageVerdict, FAST_PLAN, PATH_SPLIT, SLOW_PLAN,
};
pub use process::ProcOp;

use crate::config::CostModel;
use crate::pipeline::{PathTaken, StageCosts};
use crate::tables::acl::AclVerdict;
use crate::vnic::Vnic;
use nezha_types::{Decision, Direction, FiveTuple, Ipv4Addr, PreAction, PreActionPair, ServerId};

/// The packet context every vSwitch stage reads and writes: the tuple
/// under consideration, the direction, the accumulating pre-action
/// draft, and the path the flow-cache probe decided.
#[derive(Clone, Copy, Debug)]
pub struct PktCtx {
    /// The five-tuple as seen from `dir`.
    pub tuple: FiveTuple,
    /// The direction this evaluation models.
    pub dir: Direction,
    /// The pre-action under construction (lookup stages).
    pub draft: PreActionDraft,
    /// Fast or slow, once the flow-cache probe has decided.
    pub path: Option<PathTaken>,
}

impl PktCtx {
    /// A context for one rule-table lookup pass.
    pub fn lookup(tuple: FiveTuple, dir: Direction) -> Self {
        PktCtx {
            tuple,
            dir,
            draft: PreActionDraft::default(),
            path: None,
        }
    }
}

impl StageCtx for PktCtx {
    type Env<'a> = dyn SwitchEnv + 'a;
}

/// The environment vSwitch stages call into: read access to the vNIC
/// under processing (rule tables), and process-level operations for the
/// macro-stages of the fast/slow split.
pub trait SwitchEnv {
    /// The vNIC whose tables this evaluation consults.
    fn vnic(&self) -> &Vnic;

    /// Executes one process-level operation. Pure lookup environments
    /// keep the default (their graphs contain no process stages).
    fn op(&mut self, op: ProcOp, ctx: &mut PktCtx) -> StageVerdict {
        let _ = (op, ctx);
        StageVerdict::Continue
    }
}

/// The pre-action a lookup pass accumulates stage by stage;
/// [`PreActionDraft::finish`] assembles the final [`PreAction`] with the
/// routing-overrides-ACL verdict rule.
#[derive(Clone, Copy, Debug)]
pub struct PreActionDraft {
    /// The ACL stage's (possibly stateful) preliminary verdict.
    pub acl: AclVerdict,
    /// QoS class from the classifier stage.
    pub qos_class: u8,
    /// Statistics policy id (0 = none).
    pub stats_policy: u8,
    /// Whether any routing stage accepted the destination.
    pub routable: bool,
    /// Resolved next hop, if any.
    pub next_hop: Option<ServerId>,
    /// Policy-based-routing hop address, when the PBR stage matched.
    pub pbr_via: Option<Ipv4Addr>,
    /// Overlay routing hint, when the route stage matched an overlay.
    pub overlay_hint: Option<Ipv4Addr>,
    /// Source-NAT rewrite, when the NAT stage matched.
    pub nat_rewrite: Option<Ipv4Addr>,
    /// Mirror collector, when the mirror tap matched.
    pub mirror_to: Option<Ipv4Addr>,
}

impl Default for PreActionDraft {
    fn default() -> Self {
        PreActionDraft {
            acl: AclVerdict {
                decision: Decision::Accept,
                stateful: false,
            },
            qos_class: 0,
            stats_policy: 0,
            routable: false,
            next_hop: None,
            pbr_via: None,
            overlay_hint: None,
            nat_rewrite: None,
            mirror_to: None,
        }
    }
}

impl PreActionDraft {
    /// Assembles the final pre-action: routing drops are final
    /// (stateless); only ACL verdicts may be softened by connection
    /// state.
    pub fn finish(&self, vnic: &Vnic) -> PreAction {
        let verdict = if !self.routable {
            Decision::Drop
        } else {
            self.acl.decision
        };
        PreAction {
            verdict,
            stateful_acl: self.acl.stateful && self.routable,
            next_hop: self.next_hop,
            nat_rewrite: self.nat_rewrite,
            stateful_decap: vnic.profile.stateful_decap,
            qos_class: self.qos_class,
            stats_policy: self.stats_policy,
            mirror_to: self.mirror_to,
        }
    }
}

/// A compiled stage graph over the vSwitch packet context.
pub type PktGraph = StageGraph<PktCtx>;

/// The two compiled graphs one switch (or cluster role) drives: the
/// full process pipeline (fast/slow split) and the rule-table lookup
/// subgraph the slow path — and the Nezha FE — evaluates per direction.
#[derive(Debug)]
pub struct SwitchGraphs {
    /// The process pipeline: probe → charge → fast/slow split → admit.
    pub process: PktGraph,
    /// The per-direction rule-table lookup pipeline.
    pub lookup: PktGraph,
}

impl SwitchGraphs {
    /// Compiles the standard pipeline (the paper's Fig. 1).
    pub fn standard() -> Self {
        SwitchGraphs {
            process: StageGraph::compile(process::process_node())
                .expect("standard process graph is valid"),
            lookup: StageGraph::compile(lookup::direction_node())
                .expect("standard lookup graph is valid"),
        }
    }

    /// Splits one charged cycle total into per-stage shares following
    /// the process graph's derived cost plan for `path`.
    ///
    /// Shares are assigned by sequential budgeting — each stage takes
    /// `min(model cost, remaining budget)` and the path's absorber slot
    /// takes the remainder — so the parts sum to `total` *exactly* even
    /// when a vNIC `lookup_weight` or gray-failure multiplier scaled the
    /// charge away from the nominal model costs (see [`costing`]). Costs
    /// the model does not split (BE state work, notify processing) are
    /// not artificially split here.
    pub fn stage_costs(
        &self,
        costs: &CostModel,
        vnic: &Vnic,
        bytes: usize,
        total: u64,
        path: PathTaken,
    ) -> StageCosts {
        costing::costs_from_plan(self.process.plan(path), costs, vnic, bytes, total)
    }

    /// Runs the lookup subgraph for both directions of `tuple`'s
    /// session, producing the bidirectional pre-actions.
    pub fn lookup_pair(&self, vnic: &Vnic, tuple: &FiveTuple, pkt_dir: Direction) -> PreActionPair {
        lookup::pair_lookup(&self.lookup, vnic, tuple, pkt_dir)
    }
}
