//! Realizes a graph's cost plan against a charged cycle total.
//!
//! A compiled [`StageGraph`](super::StageGraph) carries one
//! [`CostSlot`] plan per path, collected from stage declarations in
//! topology order. [`costs_from_plan`] walks the plan with sequential
//! budgeting — each slot takes `min(model cost, remaining budget)` and
//! the path's absorber slot takes the remainder — so the shares sum to
//! the charged total *exactly* even when a vNIC `lookup_weight` or a
//! gray-failure multiplier scaled the charge away from the nominal
//! model costs. [`plan_leaves`] then maps each realized slot onto the
//! profiler's registered stage handles, which is how flamegraph leaves
//! follow graph topology automatically.

use super::graph::CostSlot;
use crate::config::CostModel;
use crate::pipeline::StageCosts;
use crate::vnic::Vnic;
use nezha_sim::profile::{StageHandle, StageSet};

/// Splits one charged cycle `total` into per-stage shares following
/// `plan` (see the module docs for the exact-sum budgeting rule).
pub fn costs_from_plan(
    plan: &[CostSlot],
    costs: &CostModel,
    vnic: &Vnic,
    bytes: usize,
    total: u64,
) -> StageCosts {
    fn take(budget: &mut u64, want: u64) -> u64 {
        let t = want.min(*budget);
        *budget -= t;
        t
    }
    let mut budget = total;
    let mut out = StageCosts::default();
    for slot in plan {
        match slot {
            CostSlot::Dma => {
                out.dma = take(&mut budget, (costs.per_byte_milli * bytes as u64) / 1000);
            }
            CostSlot::Parse => out.parse = take(&mut budget, costs.parse),
            CostSlot::SessionResidue => {
                // Cached-flow lookup: the rest of the fast-path charge.
                out.session = budget;
                budget = 0;
            }
            CostSlot::SessionCreate => out.session = take(&mut budget, costs.session_create),
            CostSlot::SlowOverhead => {
                out.overhead = take(&mut budget, costs.first_packet_overhead);
            }
            CostSlot::RuleTiers => {
                let extra = vnic.profile.extra_tables as usize;
                out.tiers = vec![0u64; extra + 1];
                for t in out.tiers.iter_mut().skip(1) {
                    *t = take(&mut budget, costs.per_extra_table);
                }
                out.tiers[0] = budget; // base pipeline + ACL + scaling residue
                budget = 0;
            }
        }
    }
    out
}

/// Appends `(handle, cycles)` for each realized slot of `plan` to
/// `leaves`, in plan order, against the profiler's registered stage set.
/// Zero-cycle leaves are appended too —
/// [`Profiler::record_tree`](nezha_sim::profile::Profiler::record_tree)
/// skips them.
pub fn plan_leaves(
    plan: &[CostSlot],
    st: &StageSet,
    c: &StageCosts,
    leaves: &mut Vec<(StageHandle, u64)>,
) {
    for slot in plan {
        match slot {
            CostSlot::Dma => leaves.push((st.dma, c.dma)),
            CostSlot::Parse => leaves.push((st.parse, c.parse)),
            CostSlot::SessionResidue | CostSlot::SessionCreate => {
                leaves.push((st.session_lookup, c.session))
            }
            CostSlot::SlowOverhead => leaves.push((st.slowpath, c.overhead)),
            CostSlot::RuleTiers => {
                for (i, &cycles) in c.tiers.iter().enumerate() {
                    leaves.push((st.rule_tiers[i.min(st.rule_tiers.len() - 1)], cycles));
                }
            }
        }
    }
}
