//! **Figure 11** — configuration overhead of the routing table with
//! different numbers of NPU cores.
//!
//! Paper result: the total routing-table setup (availability query +
//! entry writes) is a few hundred cycles at 8 cores and grows linearly —
//! negligible against virtual-NPU creation.

use crate::render_table;
use vnpu::routing_table::RoutingTable;
use vnpu::{PhysCoreId, VmId};
use vnpu_sim::controller;
use vnpu_topo::MeshShape;

/// Sweeps core counts.
pub fn run() -> String {
    let mut rows = Vec::new();
    for cores in 1..=8u32 {
        let standard = RoutingTable::from_dense(VmId(0), &(0..cores).collect::<Vec<_>>());
        let compact = RoutingTable::mesh2d(
            VmId(0),
            PhysCoreId(0),
            MeshShape {
                width: cores,
                height: 1,
            },
            8,
        );
        rows.push(vec![
            cores.to_string(),
            standard.config_cycles().to_string(),
            compact.config_cycles().to_string(),
            controller::rt_config_cycles(cores).to_string(),
        ]);
    }
    let mut out = render_table(
        "Figure 11: routing-table configuration cost (clocks) vs. #NPU cores",
        &["cores", "standard RT", "compact (mesh) RT", "model"],
        &rows,
    );
    let c8 = controller::rt_config_cycles(8);
    out += &format!(
        "\n8-core standard configuration = {c8} clocks (paper: ~300; 'can be neglected \
         during the virtual NPU creation').\n"
    );
    assert!(
        (150..450).contains(&c8),
        "Fig11 shape: a few hundred cycles"
    );
    out
}
