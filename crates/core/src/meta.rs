//! SRAM meta-zone accounting (§5.1).
//!
//! vNPU "partitions the on-chip SRAM into two distinct regions: the
//! meta-zone and the weight-zone. The meta-zone is designated for storing
//! all meta tables and can only be configured by the hyper-mode NPU
//! controller." This module sizes the meta-zone from the deployed tables
//! and checks it against the per-tile budget.

use crate::VnpuError;
use vnpu_mem::rtt::RANGE_TLB_ENTRY_BITS;

/// Bits per NoC routing-table row in a core's meta-zone (v_CoreID,
/// p_CoreID, direction — Figure 5's table).
pub const NOC_RT_ENTRY_BITS: u64 = 40;

/// Bits per direction-override entry (destination vcore + 3-bit direction).
pub const DIRECTION_ENTRY_BITS: u64 = 20;

/// Default fraction of the scratchpad reserved for the meta-zone (the
/// remainder is the weight-zone).
pub const META_ZONE_FRACTION: f64 = 1.0 / 64.0;

/// Per-core meta-zone contents for one bound virtual core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetaZoneLayout {
    /// NoC routing-table rows (one per peer virtual core).
    pub noc_rt_entries: u64,
    /// Direction-override entries installed for confined routing.
    pub direction_entries: u64,
    /// Range-translation-table entries (vChunk).
    pub rtt_entries: u64,
}

impl MetaZoneLayout {
    /// Total meta-zone bytes required.
    pub fn bytes(&self) -> u64 {
        let bits = self.noc_rt_entries * NOC_RT_ENTRY_BITS
            + self.direction_entries * DIRECTION_ENTRY_BITS
            + self.rtt_entries * u64::from(RANGE_TLB_ENTRY_BITS);
        bits.div_ceil(8)
    }

    /// Validates the layout against a tile's meta-zone budget.
    ///
    /// # Errors
    ///
    /// Returns [`VnpuError::MetaZoneOverflow`] when the tables do not fit.
    pub fn check(&self, scratchpad_bytes: u64) -> Result<(), VnpuError> {
        let capacity = meta_zone_capacity(scratchpad_bytes);
        let required = self.bytes();
        if required > capacity {
            Err(VnpuError::MetaZoneOverflow { required, capacity })
        } else {
            Ok(())
        }
    }
}

/// Meta-zone byte budget for a tile with the given scratchpad size.
pub fn meta_zone_capacity(scratchpad_bytes: u64) -> u64 {
    (scratchpad_bytes as f64 * META_ZONE_FRACTION) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typical_layout_fits_fpga_tile() {
        let layout = MetaZoneLayout {
            noc_rt_entries: 8,
            direction_entries: 64,
            rtt_entries: 32,
        };
        // 512 KiB tile -> 8 KiB meta-zone; layout needs well under 1 KiB.
        assert!(layout.bytes() < 1024);
        layout.check(512 * 1024).unwrap();
    }

    #[test]
    fn oversized_layout_rejected() {
        let layout = MetaZoneLayout {
            noc_rt_entries: 0,
            direction_entries: 0,
            rtt_entries: 1 << 20, // a million ranges
        };
        assert!(matches!(
            layout.check(512 * 1024),
            Err(VnpuError::MetaZoneOverflow { .. })
        ));
    }

    #[test]
    fn empty_layout_is_free() {
        assert_eq!(MetaZoneLayout::default().bytes(), 0);
        MetaZoneLayout::default().check(4096).unwrap();
    }
}
