//! The VM kernel-stack model.
//!
//! Once Nezha removes the vSwitch bottleneck, "the CPS capability
//! bottleneck has shifted from the vSwitch to the VM kernel stack"
//! (abstract; §6.2.2). The kernel model captures the two effects Fig. 10
//! shows: per-core connection-handling capacity, and *sub-linear scaling*
//! with vCPU count caused by kernel locks and connection-management
//! limits.
//!
//! Effective capacity: `cps(n) = per_core_cps × n / (1 + contention × (n − 1))`
//! — Amdahl-flavored saturation. With the testbed defaults
//! (`per_core_cps = 30 K`, `contention = 0.055`), a 64-core VM saturates
//! near 430 K CPS ≈ 3.3× the default vSwitch's O(130 K) capacity, which is
//! exactly where Fig. 9's CPS curve plateaus.

use nezha_sim::resources::{CpuOutcome, CpuServer};
use nezha_sim::time::{SimDuration, SimTime};

/// Configuration of a VM's kernel capacity.
#[derive(Clone, Copy, Debug)]
pub struct VmConfig {
    /// Number of vCPU cores.
    pub vcpus: u32,
    /// Connections per second a single uncontended core can handle.
    pub per_core_cps: f64,
    /// Kernel contention factor (locks, listen-queue serialization).
    pub contention: f64,
    /// Kernel work per connection, expressed in abstract cycles; combined
    /// with the effective capacity this sets the service rate.
    pub cycles_per_conn: u64,
    /// Fraction of a connection's kernel work charged per packet (a
    /// connection is several packets; spreading the charge keeps the
    /// packet-level simulation smooth).
    pub packets_per_conn: u32,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            vcpus: 64,
            per_core_cps: 53_700.0,
            contention: 0.055,
            cycles_per_conn: 1_000_000,
            packets_per_conn: 7,
        }
    }
}

impl VmConfig {
    /// A testbed VM with the given core count (Fig. 10's sweep variable).
    pub fn with_vcpus(vcpus: u32) -> Self {
        VmConfig {
            vcpus,
            ..Default::default()
        }
    }

    /// The kernel's saturating CPS capacity for this configuration.
    pub fn kernel_cps_capacity(&self) -> f64 {
        let n = self.vcpus as f64;
        self.per_core_cps * n / (1.0 + self.contention * (n - 1.0))
    }
}

/// A VM instance: a kernel CPU server scaled to the saturating capacity.
#[derive(Debug)]
pub struct VmModel {
    cfg: VmConfig,
    kernel: CpuServer,
    accepted_conns: u64,
    dropped_pkts: u64,
}

impl VmModel {
    /// Builds a VM from its configuration.
    pub fn new(cfg: VmConfig) -> Self {
        // Size the kernel server so that exactly `kernel_cps_capacity`
        // connections/second saturate it.
        let hz = (cfg.kernel_cps_capacity() * cfg.cycles_per_conn as f64) as u64;
        VmModel {
            cfg,
            kernel: CpuServer::new(1, hz.max(1), SimDuration::from_millis(5)),
            accepted_conns: 0,
            dropped_pkts: 0,
        }
    }

    /// The VM's configuration.
    pub fn config(&self) -> &VmConfig {
        &self.cfg
    }

    /// Charges the kernel for one delivered packet of a connection.
    /// Returns when the kernel is done with it, or `None` if the kernel
    /// queue overflowed (listen-queue drop).
    pub fn deliver_packet(&mut self, now: SimTime) -> Option<SimTime> {
        let cycles = self.cfg.cycles_per_conn / self.cfg.packets_per_conn as u64;
        match self.kernel.offer(now, cycles) {
            CpuOutcome::Done { done_at } => Some(done_at),
            CpuOutcome::Dropped => {
                self.dropped_pkts += 1;
                None
            }
        }
    }

    /// Records a fully completed connection.
    pub fn conn_completed(&mut self) {
        self.accepted_conns += 1;
    }

    /// `(completed connections, kernel-dropped packets)`.
    pub fn counters(&self) -> (u64, u64) {
        (self.accepted_conns, self.dropped_pkts)
    }

    /// Kernel utilization over its trailing window.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.kernel.utilization(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_saturates_with_cores() {
        let c8 = VmConfig::with_vcpus(8).kernel_cps_capacity();
        let c16 = VmConfig::with_vcpus(16).kernel_cps_capacity();
        let c32 = VmConfig::with_vcpus(32).kernel_cps_capacity();
        let c64 = VmConfig::with_vcpus(64).kernel_cps_capacity();
        assert!(c8 < c16 && c16 < c32 && c32 < c64, "monotone");
        // Sub-linear: doubling cores must yield well under 2x.
        assert!(c16 / c8 < 1.8);
        assert!(c64 / c32 < 1.5);
    }

    #[test]
    fn testbed_vm_plateaus_near_3_3x_vswitch_capacity() {
        // Fig. 9: CPS improvement plateaus ≈3.3x once the VM becomes the
        // bottleneck. The 64-core default must land in [3.0, 3.7]x of the
        // default vSwitch's nominal CPS.
        let vm = VmConfig::default().kernel_cps_capacity();
        let vs = nezha_vswitch::VSwitchConfig::default().nominal_cps(64, 100, 0);
        let ratio = vm / vs;
        assert!(
            (3.0..3.7).contains(&ratio),
            "VM/vSwitch capacity ratio {ratio}"
        );
    }

    #[test]
    fn kernel_admits_at_capacity_and_drops_beyond() {
        let cfg = VmConfig::with_vcpus(8);
        let cap = cfg.kernel_cps_capacity();
        let mut vm = VmModel::new(cfg);
        // Offer 2x capacity worth of per-packet work for 100 ms.
        let pkt_rate = 2.0 * cap * cfg.packets_per_conn as f64;
        let dt = SimDuration::from_secs_f64(1.0 / pkt_rate);
        let mut t = SimTime(0);
        let mut delivered = 0u64;
        let total = (pkt_rate * 0.1) as u64;
        for _ in 0..total {
            if vm.deliver_packet(t).is_some() {
                delivered += 1;
            }
            t += dt;
        }
        let frac = delivered as f64 / total as f64;
        assert!(
            (0.4..0.7).contains(&frac),
            "at 2x overload roughly half the packets should survive, got {frac}"
        );
        assert!(vm.counters().1 > 0);
    }

    #[test]
    fn underload_delivers_everything() {
        let cfg = VmConfig::with_vcpus(8);
        let cap = cfg.kernel_cps_capacity();
        let mut vm = VmModel::new(cfg);
        let pkt_rate = 0.5 * cap * cfg.packets_per_conn as f64;
        let dt = SimDuration::from_secs_f64(1.0 / pkt_rate);
        let mut t = SimTime(0);
        for _ in 0..1000 {
            assert!(vm.deliver_packet(t).is_some());
            t += dt;
        }
        assert_eq!(vm.counters().1, 0);
        vm.conn_completed();
        assert_eq!(vm.counters().0, 1);
        assert!(vm.utilization(t) > 0.0);
    }
}
