//! A Sailfish-like programmable-switch gateway (§2.3.3).
//!
//! Sailfish offloads **stateless** NFs (e.g. VXLAN routing) to Tofino,
//! building a high-performance cloud gateway. With limited on-chip
//! memory it cannot host stateful NFs at cloud scale — the Table 2 row
//! that motivates Nezha's stateful support.

use crate::arch::{self, ArchCtx, ArchParams};
use nezha_vswitch::stage::StageVerdict;

/// A Sailfish-like stateless gateway.
#[derive(Clone, Copy, Debug, Default)]
pub struct SailfishGateway {
    /// On-chip exact-match entries available for (stateless) tables.
    pub onchip_entries: u64,
}

impl SailfishGateway {
    /// A gateway with a typical Tofino-class table budget.
    pub fn tofino() -> Self {
        SailfishGateway {
            onchip_entries: 3_000_000,
        }
    }

    /// Whether an NF with the given statefulness can be offloaded at
    /// all: the [`arch::sailfish_graph`] statefulness branch either
    /// admits it or stops the pipeline. (The struct is `Copy`-plain, so
    /// the graph is built here rather than stored.)
    pub fn can_offload(&self, stateful: bool) -> bool {
        let graph = arch::sailfish_graph();
        let mut ctx = ArchCtx {
            stateful,
            ..ArchCtx::default()
        };
        graph.eval(&mut ctx, &mut ArchParams::default()) == StageVerdict::Continue
    }

    /// Whether a stateless table of `entries` fits on-chip.
    pub fn fits(&self, entries: u64) -> bool {
        entries <= self.onchip_entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stateless_only() {
        let g = SailfishGateway::tofino();
        assert!(g.can_offload(false));
        assert!(!g.can_offload(true));
    }

    #[test]
    fn table_budget_is_finite() {
        let g = SailfishGateway::tofino();
        assert!(g.fits(1_000_000));
        assert!(!g.fits(100_000_000), "cloud-scale session state cannot fit");
    }
}
