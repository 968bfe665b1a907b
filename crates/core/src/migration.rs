//! VM live-migration cost model (Fig. A1, §7.2).
//!
//! Traditional live migration copies dirtied memory iteratively, pauses
//! the VM for the final copy, reconfigures the vNIC on the target
//! vSwitch (seconds for O(100 MB) rule tables), and waits for the global
//! routing tables to converge (tens of ms). Both completion time and
//! downtime grow with the VM's vCPU count and memory (Fig. A1).
//!
//! With Nezha the vNIC is already offloaded: redirecting traffic is one
//! `BE location config` update on the FEs, taking effect "in less than
//! 1 ms" (§7.2) and independent of VM size.

use nezha_sim::time::SimDuration;

/// Parameters of the migration cost model.
#[derive(Clone, Copy, Debug)]
pub struct MigrationModel {
    /// Copy bandwidth available for migration, bytes/second.
    pub copy_bw: f64,
    /// Fraction of memory dirtied per copy round (drives extra rounds).
    pub dirty_fraction: f64,
    /// Iterative copy rounds before the stop-and-copy phase.
    pub rounds: u32,
    /// Final stop-and-copy working set as a fraction of memory.
    pub final_set_fraction: f64,
    /// Per-vCPU state save/restore cost during the pause.
    pub per_vcpu_pause: SimDuration,
    /// Fixed downtime floor: device re-attach + route convergence.
    pub fixed_downtime: SimDuration,
    /// Per-byte vNIC rule-table reconfiguration cost on the target
    /// vSwitch (bytes/second).
    pub vnic_config_bw: f64,
}

impl Default for MigrationModel {
    fn default() -> Self {
        MigrationModel {
            copy_bw: 2.5e9, // ~20 Gbps effective migration stream
            dirty_fraction: 0.18,
            rounds: 4,
            final_set_fraction: 0.02,
            per_vcpu_pause: SimDuration::from_millis(2),
            fixed_downtime: SimDuration::from_millis(40),
            vnic_config_bw: 60e6,
        }
    }
}

/// Predicted cost of one migration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MigrationCost {
    /// Wall-clock time from start to cut-over.
    pub completion: SimDuration,
    /// Service interruption (stop-and-copy + reconfig + convergence).
    pub downtime: SimDuration,
}

impl MigrationModel {
    /// Cost of migrating a VM with `mem_gb` of memory, `vcpus` cores, and
    /// `rule_table_bytes` of vNIC configuration.
    pub fn migrate(&self, mem_gb: f64, vcpus: u32, rule_table_bytes: u64) -> MigrationCost {
        let mem = mem_gb * 1e9;
        // Iterative pre-copy: full pass + geometric dirty passes.
        let mut copied = mem;
        let mut dirty = mem * self.dirty_fraction;
        for _ in 0..self.rounds {
            copied += dirty;
            dirty *= self.dirty_fraction;
        }
        let copy_time = SimDuration::from_secs_f64(copied / self.copy_bw);
        // Stop-and-copy: final working set + vCPU state + devices.
        let pause = SimDuration::from_secs_f64(mem * self.final_set_fraction / self.copy_bw)
            + SimDuration(self.per_vcpu_pause.nanos() * vcpus as u64)
            + self.fixed_downtime;
        // vNIC reconfiguration on the target vSwitch (§7.2: "can take
        // several seconds" for O(100 MB) tables).
        let vnic_config = SimDuration::from_secs_f64(rule_table_bytes as f64 / self.vnic_config_bw);
        MigrationCost {
            completion: copy_time + pause + vnic_config,
            downtime: pause + vnic_config,
        }
    }

    /// Nezha's alternative for an offloaded vNIC: one BE-location update
    /// pushed to the FEs, independent of VM size (§7.2).
    pub fn nezha_redirect(&self) -> MigrationCost {
        let d = SimDuration::from_micros(800);
        MigrationCost {
            completion: d,
            downtime: d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downtime_grows_with_memory() {
        let m = MigrationModel::default();
        let small = m.migrate(16.0, 8, 8 * 1024 * 1024);
        let big = m.migrate(1024.0, 128, 200 * 1024 * 1024);
        assert!(big.downtime > small.downtime);
        assert!(big.completion > small.completion);
        // Fig. A1 / §7.2: a 1024 GB VM takes tens of minutes to migrate.
        let mins = big.completion.as_secs_f64() / 60.0;
        assert!(
            (5.0..120.0).contains(&mins),
            "1 TB migration took {mins} min"
        );
    }

    #[test]
    fn downtime_grows_with_vcpus() {
        let m = MigrationModel::default();
        let a = m.migrate(64.0, 8, 8 << 20);
        let b = m.migrate(64.0, 128, 8 << 20);
        assert!(b.downtime > a.downtime);
    }

    #[test]
    fn large_rule_tables_dominate_small_vm_downtime() {
        let m = MigrationModel::default();
        let light = m.migrate(16.0, 8, 2 << 20);
        let heavy = m.migrate(16.0, 8, 200 << 20);
        // §7.2: "configuring the vNIC … can take several seconds".
        assert!(heavy.downtime.as_secs_f64() - light.downtime.as_secs_f64() > 1.0);
    }

    #[test]
    fn nezha_redirect_is_sub_millisecond_and_size_independent() {
        let m = MigrationModel::default();
        let r = m.nezha_redirect();
        assert!(r.completion < SimDuration::from_millis(1));
        // At least three orders of magnitude below even a small migration.
        let small = m.migrate(16.0, 8, 8 << 20);
        assert!(small.downtime.nanos() / r.downtime.nanos() > 50);
    }
}
