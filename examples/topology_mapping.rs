//! Figure 17 as a runnable demo: straightforward vs. similar-topology
//! mapping of a pipeline onto a partially-occupied mesh, drawn as ASCII.
//!
//! ```sh
//! cargo run --example topology_mapping
//! ```

use vnpu::{Hypervisor, VnpuRequest};
use vnpu_sim::SocConfig;
use vnpu_topo::mapping::Strategy;
use vnpu_topo::Topology;

/// Draws the 6x6 mesh with each cell labelled: `##` for pre-occupied,
/// `vN` for the virtual core mapped there, `..` for free.
fn draw(cfg: &SocConfig, occupied: &[u32], mapping: &[u32]) {
    let w = cfg.mesh_width;
    for y in 0..cfg.mesh_height {
        let mut line = String::new();
        for x in 0..w {
            let id = y * w + x;
            let cell = if occupied.contains(&id) {
                " ##".to_owned()
            } else if let Some(v) = mapping.iter().position(|&p| p == id) {
                format!("{v:>3}")
            } else {
                "  .".to_owned()
            };
            line.push_str(&cell);
        }
        println!("  {line}");
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = SocConfig::sim();

    for (label, strategy) in [
        (
            "Straightforward (zig-zag) mapping",
            Strategy::straightforward(),
        ),
        (
            "Similar-topology mapping (min edit distance)",
            Strategy::similar_topology().candidate_cap(4000),
        ),
    ] {
        let mut hypervisor = Hypervisor::new(cfg.clone());
        // Pre-occupy the two corners (the red nodes of Figure 17/18).
        let mut corners = Topology::empty(8);
        for (a, b) in [
            (0u32, 1),
            (0, 2),
            (1, 3),
            (2, 3),
            (4, 5),
            (4, 6),
            (5, 7),
            (6, 7),
        ] {
            corners.add_edge(a.into(), b.into())?;
        }
        let blocker = hypervisor.create_vnpu(
            VnpuRequest::custom(corners).mem_bytes(1 << 20).strategy(
                Strategy::similar_topology()
                    .allow_disconnected(true)
                    .candidate_cap(2000),
            ),
        )?;
        let occupied: Vec<u32> = hypervisor
            .vnpu(blocker)?
            .mapping()
            .phys_nodes()
            .iter()
            .map(|n| n.0)
            .collect();

        // The user requests a 4x3 virtual mesh for a ResNet pipeline.
        let vm = hypervisor.create_vnpu(
            VnpuRequest::mesh(4, 3)
                .mem_bytes(64 << 20)
                .strategy(strategy),
        )?;
        let vnpu = hypervisor.vnpu(vm)?;
        let mapping: Vec<u32> = vnpu.mapping().phys_nodes().iter().map(|n| n.0).collect();

        println!("\n{label}:");
        println!(
            "  edit distance = {}, connected = {}",
            vnpu.mapping().edit_distance(),
            vnpu.mapping().is_connected()
        );
        draw(&cfg, &occupied, &mapping);
    }
    println!(
        "\nLower edit distance means the allocated shape preserves more of the requested \
         4x3 mesh's neighbor links, so pipeline neighbors stay physically adjacent."
    );
    Ok(())
}
