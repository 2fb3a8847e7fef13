//! The 32-parameter SPEC announcement record.
//!
//! §4.1: "Each announcement provides the configuration of 32 system
//! parameters: company, system name, processor model, bus frequency,
//! processor speed, floating point unit, total cores (total chips, cores
//! per chip), SMT, Parallel, L1 instruction and data cache size (per
//! core/chip), L2 data cache size (on/off chip, shared/nonshared,
//! unified/nonunified), L3 cache size (…), L4 cache size (# shared, on/off
//! chip), memory size and frequency, hard drive size, speed and type, and
//! extra components."

use serde::{Deserialize, Serialize};

/// Hard-drive interface type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DiskType {
    /// Parallel SCSI.
    Scsi,
    /// Serial ATA.
    Sata,
    /// Parallel ATA / IDE.
    Ide,
}

impl DiskType {
    /// Stable numeric code.
    pub fn code(self) -> usize {
        match self {
            DiskType::Scsi => 0,
            DiskType::Sata => 1,
            DiskType::Ide => 2,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DiskType::Scsi => "SCSI",
            DiskType::Sata => "SATA",
            DiskType::Ide => "IDE",
        }
    }
}

/// One published SPEC result: 32 configuration parameters plus the
/// announcement date and the measured outputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Announcement {
    // -- identification (parameters 1-3) --
    /// Manufacturer (categorical).
    pub company: String,
    /// Marketing system name (categorical, high cardinality).
    pub system_name: String,
    /// Processor model string (categorical).
    pub processor_model: String,

    // -- processor (4-6) --
    /// Front-side bus frequency, MHz.
    pub bus_frequency_mhz: f64,
    /// Processor clock, MHz.
    pub processor_speed_mhz: f64,
    /// Hardware floating-point unit present.
    pub fpu: bool,

    // -- topology (7-11) --
    /// Total cores in the system.
    pub total_cores: u32,
    /// Total chips (sockets).
    pub total_chips: u32,
    /// Cores per chip.
    pub cores_per_chip: u32,
    /// Simultaneous multithreading enabled.
    pub smt: bool,
    /// Result is from the "rate" (parallel) run.
    pub parallel: bool,

    // -- L1 (12-14) --
    /// L1 instruction cache, KB per core.
    pub l1i_kb: u32,
    /// L1 data cache, KB per core.
    pub l1d_kb: u32,
    /// L1 is per-core (vs. per-chip shared).
    pub l1_per_core: bool,

    // -- L2 (15-18) --
    /// L2 capacity, KB.
    pub l2_kb: u32,
    /// L2 on the processor die.
    pub l2_on_chip: bool,
    /// L2 shared between cores.
    pub l2_shared: bool,
    /// L2 unified (instructions + data).
    pub l2_unified: bool,

    // -- L3 (19-23) --
    /// L3 capacity, KB (0 = absent).
    pub l3_kb: u32,
    /// L3 on die.
    pub l3_on_chip: bool,
    /// L3 per core (vs. per chip).
    pub l3_per_core: bool,
    /// L3 shared.
    pub l3_shared: bool,
    /// L3 unified.
    pub l3_unified: bool,

    // -- L4 (24-26) --
    /// L4 capacity, KB (0 = absent).
    pub l4_kb: u32,
    /// Number of chips sharing the L4.
    pub l4_shared_count: u32,
    /// L4 on die.
    pub l4_on_chip: bool,

    // -- memory (27-28) --
    /// Main memory, GB.
    pub memory_gb: f64,
    /// Memory frequency, MHz.
    pub memory_freq_mhz: f64,

    // -- disk (29-31) --
    /// Hard-drive capacity, GB.
    pub disk_gb: f64,
    /// Spindle speed, RPM.
    pub disk_rpm: f64,
    /// Disk interface.
    pub disk_type: DiskType,

    // -- misc (32) --
    /// Count of "extra components" listed (RAID cards, extra NICs, …).
    pub extra_components: u32,

    // -- outputs (not predictors) --
    /// Announcement year.
    pub year: u32,
    /// Announcement quarter (1-4).
    pub quarter: u32,
    /// SPECint2000 rate — the primary prediction target.
    pub specint_rate: f64,
    /// Per-application normalized integer ratios backing the rating
    /// (12 entries).
    pub app_ratios: Vec<f64>,
    /// SPECfp2000 rate (the paper mentions both rates; §4.3 presents int).
    pub specfp_rate: f64,
    /// Per-application floating-point ratios (14 entries).
    pub fp_app_ratios: Vec<f64>,
}

impl Announcement {
    /// The categorical (string) predictors, used only by models that accept
    /// non-numeric inputs (the neural networks).
    pub fn categorical_features(&self) -> Vec<&str> {
        vec![&self.company, &self.system_name, &self.processor_model]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_type_codes_distinct() {
        let codes: std::collections::HashSet<_> = [DiskType::Scsi, DiskType::Sata, DiskType::Ide]
            .iter()
            .map(|d| d.code())
            .collect();
        assert_eq!(codes.len(), 3);
    }
}
