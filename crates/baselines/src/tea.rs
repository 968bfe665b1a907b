//! A Tea-like switch + remote-DRAM state store (§2.3.3, §8).
//!
//! Tea extends a programmable switch's tiny on-chip memory with DRAM on
//! ordinary servers: state that does not fit on-chip is fetched across
//! the fabric. The architectural costs relative to Nezha: per-access RTT
//! for off-chip state, a DRAM-server bandwidth ceiling, and — like
//! Sirius — **new components in the system** (the DRAM servers).

use crate::arch::{self, ArchCtx, ArchParams};
use nezha_sim::time::SimDuration;

/// A Tea-like state-external switch.
#[derive(Clone, Copy, Debug)]
pub struct TeaSwitch {
    /// On-chip state entries that fit in SRAM.
    pub onchip_sessions: u64,
    /// Entries available in the remote DRAM pool.
    pub dram_sessions: u64,
    /// Pipeline lookup time for on-chip state.
    pub onchip_access: SimDuration,
    /// Round trip to the DRAM server for off-chip state.
    pub dram_rtt: SimDuration,
    /// DRAM server access ceiling (lookups per second).
    pub dram_rate: f64,
}

impl Default for TeaSwitch {
    fn default() -> Self {
        TeaSwitch {
            onchip_sessions: 2_000_000, // tens of MB of SRAM at ~20 B/entry
            dram_sessions: 500_000_000,
            onchip_access: SimDuration::from_nanos(400),
            dram_rtt: SimDuration::from_micros(8),
            dram_rate: 40_000_000.0,
        }
    }
}

impl TeaSwitch {
    /// Total sessions the design can hold.
    pub fn session_capacity(&self) -> u64 {
        self.onchip_sessions + self.dram_sessions
    }

    /// Fraction of state accesses that go off-chip for a working set of
    /// `sessions` (uniform access assumption).
    pub fn offchip_fraction(&self, sessions: u64) -> f64 {
        if sessions <= self.onchip_sessions {
            0.0
        } else {
            (sessions - self.onchip_sessions) as f64 / sessions as f64
        }
    }

    /// The latency of one state access at the given `offchip` locality,
    /// evaluated through the [`arch::tea_graph`] locality branch. The
    /// struct is `Copy`-plain, so the graph is built here rather than
    /// stored.
    fn access_latency_s(&self, offchip: bool) -> f64 {
        let graph = arch::tea_graph();
        let mut ctx = ArchCtx {
            offchip,
            ..ArchCtx::default()
        };
        let mut params = ArchParams {
            onchip_access_s: self.onchip_access.as_secs_f64(),
            dram_rtt_s: self.dram_rtt.as_secs_f64(),
            ..ArchParams::default()
        };
        graph.eval(&mut ctx, &mut params);
        ctx.latency_s
    }

    /// Mean state-access latency for a working set of `sessions`: the
    /// off-chip fraction mixes the graph's two locality outcomes.
    pub fn mean_access_latency(&self, sessions: u64) -> SimDuration {
        let f = self.offchip_fraction(sessions);
        SimDuration::from_secs_f64(
            (1.0 - f) * self.access_latency_s(false) + f * self.access_latency_s(true),
        )
    }

    /// Packet-rate ceiling for a working set of `sessions`: off-chip
    /// accesses are bounded by the DRAM servers.
    pub fn pps_ceiling(&self, sessions: u64, switch_pps: f64) -> f64 {
        let f = self.offchip_fraction(sessions);
        if f == 0.0 {
            switch_pps
        } else {
            switch_pps.min(self.dram_rate / f)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn onchip_working_sets_are_fast() {
        let t = TeaSwitch::default();
        assert_eq!(t.offchip_fraction(1_000_000), 0.0);
        assert_eq!(t.mean_access_latency(1_000_000), t.onchip_access);
        assert_eq!(t.pps_ceiling(1_000_000, 1e9), 1e9);
    }

    #[test]
    fn latency_grows_with_working_set() {
        let t = TeaSwitch::default();
        let small = t.mean_access_latency(2_000_000);
        let big = t.mean_access_latency(200_000_000);
        assert!(big > small);
        // Nearly all accesses off-chip at 100x the SRAM size: latency
        // approaches the DRAM RTT.
        assert!(big > SimDuration::from_micros(7));
    }

    #[test]
    fn dram_rate_caps_throughput() {
        let t = TeaSwitch::default();
        // At 50% off-chip, the ceiling is dram_rate / 0.5.
        let sessions = t.onchip_sessions * 2;
        let cap = t.pps_ceiling(sessions, 1e9);
        assert!((cap - 80_000_000.0).abs() < 1.0, "cap {cap}");
    }

    #[test]
    fn capacity_is_sram_plus_dram() {
        let t = TeaSwitch::default();
        assert_eq!(t.session_capacity(), 502_000_000);
    }
}
