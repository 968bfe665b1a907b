//! The vNIC **backend** (BE): the single local copy of session state.
//!
//! [`BackendMeta`] is the per-offloaded-vNIC bookkeeping the BE's vSwitch
//! keeps: the offload phase, the FE location config (Fig. 7), and which
//! FEs are ready. It costs the 2 KB "BE data" of §6.2.1 — the entire
//! local footprint that replaces the vNIC's multi-megabyte rule tables.

use nezha_sim::time::SimTime;
use nezha_types::{ServerId, SessionKey};
use std::collections::BTreeMap;

/// Phase of a vNIC's offload lifecycle (§4.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OffloadPhase {
    /// Not offloaded; traditional local processing.
    Local,
    /// Offload triggered: FEs being configured, peers learning the new
    /// mapping; BE still holds rules/flows and processes stale arrivals
    /// (the dual-running stage).
    OffloadDual,
    /// Final stage: BE holds state only; all traffic flows through FEs.
    Offloaded,
    /// Fallback triggered: BE re-armed with rules; peers relearning the
    /// BE address; FEs still process stale arrivals.
    FallbackDual,
}

/// Per-offloaded-vNIC bookkeeping at the BE.
#[derive(Clone, Debug)]
pub struct BackendMeta {
    /// Current lifecycle phase.
    pub phase: OffloadPhase,
    /// FE location config: the ordered FE list (order defines the flow-
    /// hash mapping). Includes FEs still being configured.
    pub fe_list: Vec<ServerId>,
    /// FEs whose rule tables have finished configuring and can serve.
    ready: Vec<ServerId>,
    /// When the offload was triggered (for completion-time measurement).
    pub triggered_at: SimTime,
    /// When all traffic started flowing through FEs (completion instant,
    /// the Table 4 quantity).
    pub activated_at: Option<SimTime>,
    /// Elephant flows pinned to a dedicated FE (§7.5).
    pinned: BTreeMap<SessionKey, ServerId>,
    /// FEs dedicated to pinned elephants: excluded from the general hash
    /// ring so the elephant "nearly monopolizes the resources of a single
    /// SmartNIC" while other tenant traffic is isolated from it (§7.5).
    dedicated: Vec<ServerId>,
}

impl BackendMeta {
    /// Fresh metadata for an offload triggered at `now`.
    pub fn new(now: SimTime) -> Self {
        BackendMeta {
            phase: OffloadPhase::OffloadDual,
            fe_list: Vec::new(),
            ready: Vec::new(),
            triggered_at: now,
            activated_at: None,
            pinned: BTreeMap::new(),
            dedicated: Vec::new(),
        }
    }

    /// Adds an FE to the location config (not yet ready).
    pub fn add_fe(&mut self, fe: ServerId) {
        if !self.fe_list.contains(&fe) {
            self.fe_list.push(fe);
        }
    }

    /// Marks an FE's configuration complete.
    pub fn mark_ready(&mut self, fe: ServerId) {
        if self.fe_list.contains(&fe) && !self.ready.contains(&fe) {
            self.ready.push(fe);
        }
    }

    /// Removes an FE (scale-in or failover). Returns true if it was
    /// present.
    pub fn remove_fe(&mut self, fe: ServerId) -> bool {
        let had = self.fe_list.contains(&fe);
        self.fe_list.retain(|&s| s != fe);
        self.ready.retain(|&s| s != fe);
        self.pinned.retain(|_, &mut s| s != fe);
        self.dedicated.retain(|&s| s != fe);
        had
    }

    /// The FEs currently able to serve traffic.
    pub fn ready_fes(&self) -> &[ServerId] {
        &self.ready
    }

    /// True once every configured FE is ready.
    pub fn all_ready(&self) -> bool {
        !self.fe_list.is_empty() && self.ready.len() == self.fe_list.len()
    }

    /// Selects the FE for a flow: a pinned assignment wins (elephant
    /// isolation, §7.5), otherwise `Hash(5-tuple) mod #ready` over the
    /// non-dedicated members (§3.2.3).
    pub fn select_fe(&self, key: &SessionKey, flow_hash: u64) -> Option<ServerId> {
        if let Some(&fe) = self.pinned.get(key) {
            if self.ready.contains(&fe) {
                return Some(fe);
            }
        }
        // General traffic avoids dedicated FEs (unless nothing else is
        // ready — availability beats isolation). Counted + nth rather
        // than collected: selection runs per flow on the TX path.
        let general = self
            .ready
            .iter()
            .filter(|s| !self.dedicated.contains(s))
            .count();
        if general > 0 {
            let want = (flow_hash % general as u64) as usize;
            self.ready
                .iter()
                .filter(|s| !self.dedicated.contains(s))
                .nth(want)
                .copied()
        } else if self.ready.is_empty() {
            None
        } else {
            Some(self.ready[(flow_hash % self.ready.len() as u64) as usize])
        }
    }

    /// Pins an elephant flow's session to a dedicated FE (§7.5). The FE
    /// leaves the general hash ring: the elephant gets the whole card,
    /// and other tenants' flows stop sharing it.
    pub fn pin_flow(&mut self, key: SessionKey, fe: ServerId) {
        self.pinned.insert(key, fe);
        if !self.dedicated.contains(&fe) {
            self.dedicated.push(fe);
        }
    }

    /// Number of pinned flows.
    pub fn pinned_count(&self) -> usize {
        self.pinned.len()
    }

    /// The ready FEs serving general (non-pinned) traffic: dedicated FEs
    /// are excluded while at least one general member remains.
    pub fn general_fes(&self) -> Vec<ServerId> {
        let general: Vec<ServerId> = self
            .ready
            .iter()
            .copied()
            .filter(|s| !self.dedicated.contains(s))
            .collect();
        if general.is_empty() {
            self.ready.clone()
        } else {
            general
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nezha_types::{FiveTuple, Ipv4Addr, VpcId};

    fn key(p: u16) -> SessionKey {
        SessionKey::of(
            VpcId(1),
            FiveTuple::tcp(Ipv4Addr::new(1, 1, 1, 1), p, Ipv4Addr::new(2, 2, 2, 2), 80),
        )
    }

    #[test]
    fn lifecycle_ready_tracking() {
        let mut be = BackendMeta::new(SimTime(0));
        assert_eq!(be.phase, OffloadPhase::OffloadDual);
        be.add_fe(ServerId(1));
        be.add_fe(ServerId(2));
        be.add_fe(ServerId(2)); // idempotent
        assert_eq!(be.fe_list.len(), 2);
        assert!(!be.all_ready());
        assert_eq!(be.select_fe(&key(1), 0), None, "nothing ready yet");
        be.mark_ready(ServerId(1));
        be.mark_ready(ServerId(1)); // idempotent
        assert_eq!(be.ready_fes(), &[ServerId(1)]);
        be.mark_ready(ServerId(2));
        assert!(be.all_ready());
    }

    #[test]
    fn mark_ready_requires_membership() {
        let mut be = BackendMeta::new(SimTime(0));
        be.add_fe(ServerId(1));
        be.mark_ready(ServerId(9)); // never added
        assert!(be.ready_fes().is_empty());
    }

    #[test]
    fn select_is_stable_hash_mod() {
        let mut be = BackendMeta::new(SimTime(0));
        for s in [1, 2, 3, 4] {
            be.add_fe(ServerId(s));
            be.mark_ready(ServerId(s));
        }
        assert_eq!(be.select_fe(&key(1), 5), Some(ServerId(2)));
        assert_eq!(be.select_fe(&key(1), 5), Some(ServerId(2)));
        assert_eq!(be.select_fe(&key(1), 7), Some(ServerId(4)));
    }

    #[test]
    fn remove_fe_updates_everything() {
        let mut be = BackendMeta::new(SimTime(0));
        for s in [1, 2, 3, 4] {
            be.add_fe(ServerId(s));
            be.mark_ready(ServerId(s));
        }
        be.pin_flow(key(9), ServerId(3));
        assert!(be.remove_fe(ServerId(3)));
        assert!(!be.remove_fe(ServerId(3)));
        assert_eq!(be.fe_list.len(), 3);
        assert_eq!(be.ready_fes().len(), 3);
        assert_eq!(be.pinned_count(), 0, "pins to a removed FE are dropped");
    }

    #[test]
    fn pinned_elephant_overrides_hash() {
        let mut be = BackendMeta::new(SimTime(0));
        for s in [1, 2, 3, 4] {
            be.add_fe(ServerId(s));
            be.mark_ready(ServerId(s));
        }
        let k = key(5);
        let default_pick = be.select_fe(&k, 0).unwrap();
        let dedicated = ServerId(if default_pick == ServerId(4) { 1 } else { 4 });
        be.pin_flow(k, dedicated);
        assert_eq!(be.select_fe(&k, 0), Some(dedicated));
        // Other flows hash over the remaining (non-dedicated) FEs.
        for h in 0..32 {
            let pick = be.select_fe(&key(6), h).unwrap();
            assert_ne!(
                pick, dedicated,
                "general traffic must avoid the dedicated FE"
            );
        }
    }
}
