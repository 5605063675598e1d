//! NoC non-interference, hands on: the Figure 5 scenario where default
//! dimension-order routing would push one tenant's packets through
//! another tenant's cores, and the direction-override fix.
//!
//! ```sh
//! cargo run --example noc_interference
//! ```

use vnpu::vrouter::{RoutePolicy, VRouterNoc};
use vnpu_sim::noc::NocRouter;
use vnpu_topo::{route, NodeId, Topology};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's Figure 5: a 4x3 physical mesh; vNPU2 owns the irregular
    // set {3, 6, 7, 11}.
    let topo = Topology::mesh2d(4, 3);
    let vnpu2 = vec![3u32, 6, 7, 11];
    println!("physical mesh 4x3; vNPU2 owns cores {vnpu2:?}");

    // Virtual core 3 (physical 11) sends to virtual core 1 (physical 6).
    let mut dor = VRouterNoc::new(topo.clone(), vnpu2.clone(), RoutePolicy::Dor);
    let mut confined = VRouterNoc::new(topo.clone(), vnpu2.clone(), RoutePolicy::Confined);

    let dor_path = dor.path(11, 6)?;
    let confined_path = confined.path(11, 6)?;
    println!("\nDOR path 11 -> 6:      {dor_path:?}");
    println!("confined path 11 -> 6: {confined_path:?}");

    let allowed: Vec<NodeId> = vnpu2.iter().map(|&p| NodeId(p)).collect();
    let foreign: Vec<u32> = dor_path
        .iter()
        .filter(|&&n| !vnpu2.contains(&n))
        .copied()
        .collect();
    println!(
        "\nDOR crosses foreign core(s) {foreign:?} — that is the paper's 'NoC \
         interference'. The confined path stays inside the virtual topology: {}",
        confined_path.iter().all(|n| vnpu2.contains(n)),
    );

    // The direction entries the hypervisor would install per relay node.
    let path_nodes: Vec<NodeId> = confined_path.iter().map(|&n| NodeId(n)).collect();
    let directions = route::path_directions(&topo, &path_nodes)?;
    println!("\nrouting-table direction entries for this flow:");
    for (node, dir) in directions {
        println!("  at core {}: forward {dir}", node.0);
    }

    assert!(route::dor_confined(&topo, &allowed, NodeId(11), NodeId(7)));
    println!(
        "\n(for pairs whose DOR route already stays inside the set, e.g. 11 -> 7, no \
         override is needed)"
    );
    Ok(())
}
