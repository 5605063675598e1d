//! NoC routing-path computation: dimension-order routing (DOR) on meshes
//! and confined (direction-override) paths that never leave a given node
//! set — the mechanism behind the paper's *NoC non-interference* guarantee
//! (§4.1.2).
//!
//! With plain DOR, a packet between two cores of an irregular virtual NPU
//! may cut through cores belonging to another tenant (the paper's vNPU2
//! example: 5→3 routed via physical core 11). Predefining per-hop
//! directions in the routing table confines the path to the virtual
//! topology. [`confined_path`] computes such a path (a shortest path inside
//! the allocated set) and [`path_directions`] converts it into the per-node
//! direction entries stored in the routing table.

use crate::{MeshShape, NodeId, Result, TopoError, Topology};
use std::collections::VecDeque;
use std::fmt;

/// A mesh routing direction, as stored in the NoC routing-table entries of
/// paper Figure 5 (`Direction` column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Negative X.
    West,
    /// Positive X.
    East,
    /// Negative Y (towards row 0).
    North,
    /// Positive Y.
    South,
    /// Deliver locally (terminal hop); the paper's `NULL` direction.
    Local,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::West => "West",
            Direction::East => "East",
            Direction::North => "North",
            Direction::South => "South",
            Direction::Local => "Local",
        };
        f.write_str(s)
    }
}

/// Computes the dimension-order (X-then-Y) route between two mesh nodes,
/// returning the full node sequence including both endpoints.
///
/// # Errors
///
/// Returns [`TopoError::Unroutable`] if `topo` is not a mesh or an
/// endpoint lies outside it.
pub fn dor_path(topo: &Topology, src: NodeId, dst: NodeId) -> Result<Vec<NodeId>> {
    let shape = topo.mesh_shape().ok_or(TopoError::Unroutable {
        src: src.0,
        dst: dst.0,
    })?;
    let mut path = Vec::new();
    dor_walk(shape, src, dst, |n| path.push(n))?;
    Ok(path)
}

/// Walks the dimension-order (X-then-Y) route between two nodes of a
/// row-major `shape` mesh, calling `visit` on every node of the route in
/// order, both endpoints included. Needs no graph and allocates nothing,
/// so per-packet routers can stream a route into a buffer they reuse.
///
/// # Errors
///
/// Returns [`TopoError::Unroutable`] if either endpoint lies outside the
/// mesh (nothing is visited).
pub fn dor_walk(
    shape: MeshShape,
    src: NodeId,
    dst: NodeId,
    mut visit: impl FnMut(NodeId),
) -> Result<()> {
    if src.index() >= shape.len() || dst.index() >= shape.len() {
        return Err(TopoError::Unroutable {
            src: src.0,
            dst: dst.0,
        });
    }
    let (mut x, mut y) = (src.0 % shape.width, src.0 / shape.width);
    let (dx, dy) = (dst.0 % shape.width, dst.0 / shape.width);
    visit(src);
    while x != dx {
        x = if dx > x { x + 1 } else { x - 1 };
        visit(NodeId(y * shape.width + x));
    }
    while y != dy {
        y = if dy > y { y + 1 } else { y - 1 };
        visit(NodeId(y * shape.width + x));
    }
    Ok(())
}

/// Computes a shortest path from `src` to `dst` that stays inside
/// `allowed` (both endpoints must be members). This is the path the
/// hypervisor encodes as per-node direction overrides for virtual NPUs
/// with irregular topologies.
///
/// # Errors
///
/// Returns [`TopoError::Unroutable`] when no such path exists — also when
/// an endpoint lies outside `topo` (members outside it are ignored).
pub fn confined_path(
    topo: &Topology,
    allowed: &[NodeId],
    src: NodeId,
    dst: NodeId,
) -> Result<Vec<NodeId>> {
    let mut in_set = vec![false; topo.node_count()];
    for &n in allowed {
        if let Some(member) = in_set.get_mut(n.index()) {
            *member = true;
        }
    }
    if in_set.get(src.index()) != Some(&true) || in_set.get(dst.index()) != Some(&true) {
        return Err(TopoError::Unroutable {
            src: src.0,
            dst: dst.0,
        });
    }
    if src == dst {
        return Ok(vec![src]);
    }
    let mut prev: Vec<Option<NodeId>> = vec![None; topo.node_count()];
    let mut seen = vec![false; topo.node_count()];
    seen[src.index()] = true;
    let mut q = VecDeque::from([src]);
    while let Some(u) = q.pop_front() {
        for v in topo.neighbors(u) {
            if in_set[v.index()] && !seen[v.index()] {
                seen[v.index()] = true;
                prev[v.index()] = Some(u);
                if v == dst {
                    let mut path = vec![dst];
                    let mut cur = dst;
                    while let Some(p) = prev[cur.index()] {
                        path.push(p);
                        cur = p;
                    }
                    path.reverse();
                    return Ok(path);
                }
                q.push_back(v);
            }
        }
    }
    Err(TopoError::Unroutable {
        src: src.0,
        dst: dst.0,
    })
}

/// Converts a node path into per-node `(node, direction)` pairs: the
/// direction each node must forward the packet in, ending with
/// [`Direction::Local`] at the destination. Requires a mesh topology for
/// direction naming.
///
/// # Errors
///
/// Returns [`TopoError::Unroutable`] if consecutive path nodes are not
/// mesh-adjacent.
pub fn path_directions(topo: &Topology, path: &[NodeId]) -> Result<Vec<(NodeId, Direction)>> {
    let mut out = Vec::with_capacity(path.len());
    for w in path.windows(2) {
        let dir = step_direction(topo, w[0], w[1]).ok_or(TopoError::Unroutable {
            src: w[0].0,
            dst: w[1].0,
        })?;
        out.push((w[0], dir));
    }
    if let Some(&last) = path.last() {
        out.push((last, Direction::Local));
    }
    Ok(out)
}

/// Direction of the single mesh hop `a → b`, if they are adjacent.
pub fn step_direction(topo: &Topology, a: NodeId, b: NodeId) -> Option<Direction> {
    let (ax, ay) = topo.mesh_coord(a)?;
    let (bx, by) = topo.mesh_coord(b)?;
    match (bx as i64 - ax as i64, by as i64 - ay as i64) {
        (1, 0) => Some(Direction::East),
        (-1, 0) => Some(Direction::West),
        (0, 1) => Some(Direction::South),
        (0, -1) => Some(Direction::North),
        (0, 0) => Some(Direction::Local),
        _ => None,
    }
}

/// Whether the DOR route between `src` and `dst` stays entirely inside
/// `allowed` — i.e. whether default routing already avoids NoC
/// interference for this pair. `false` when an endpoint lies outside the
/// mesh; members of `allowed` outside it are ignored.
pub fn dor_confined(topo: &Topology, allowed: &[NodeId], src: NodeId, dst: NodeId) -> bool {
    dor_path(topo, src, dst).is_ok_and(|path| path.iter().all(|n| allowed.contains(n)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;

    #[test]
    fn dor_goes_x_then_y() {
        let t = Topology::mesh2d(4, 4);
        // from (0,0)=0 to (2,2)=10: x to 2 first (1, 2), then y (6, 10)
        let p = dor_path(&t, NodeId(0), NodeId(10)).unwrap();
        assert_eq!(
            p,
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(6), NodeId(10)]
        );
    }

    #[test]
    fn dor_length_is_manhattan_plus_one() {
        let t = Topology::mesh2d(6, 6);
        for (a, b) in [(0u32, 35u32), (7, 28), (5, 30)] {
            let p = dor_path(&t, NodeId(a), NodeId(b)).unwrap();
            let d = t.hop_distance(NodeId(a), NodeId(b)).unwrap() as usize;
            assert_eq!(p.len(), d + 1);
        }
    }

    #[test]
    fn dor_self_path() {
        let t = Topology::mesh2d(3, 3);
        assert_eq!(dor_path(&t, NodeId(4), NodeId(4)).unwrap(), vec![NodeId(4)]);
    }

    #[test]
    fn paper_interference_example() {
        // Figure 5's vNPU2 on a 4x3 mesh (nodes 1..12 in the paper are
        // drawn 1-indexed; we use 0-indexed 0..12 on a 4-wide mesh):
        // vNPU2 owns physical {3, 6, 7, 11} (paper cores 4,7,8,12).
        // DOR from 11 to 6 goes 11 -> 10 -> 6, crossing 10 which is foreign.
        let t = Topology::mesh2d(4, 3);
        let allowed = vec![NodeId(3), NodeId(6), NodeId(7), NodeId(11)];
        assert!(!dor_confined(&t, &allowed, NodeId(11), NodeId(6)));
        // Confined path must instead go 11 -> 7 -> 6.
        let p = confined_path(&t, &allowed, NodeId(11), NodeId(6)).unwrap();
        assert_eq!(p, vec![NodeId(11), NodeId(7), NodeId(6)]);
    }

    #[test]
    fn confined_rejects_foreign_endpoints() {
        let t = Topology::mesh2d(3, 3);
        let allowed = vec![NodeId(0), NodeId(1)];
        assert!(confined_path(&t, &allowed, NodeId(0), NodeId(8)).is_err());
    }

    #[test]
    fn nodes_outside_the_mesh_are_unroutable_not_a_panic() {
        let t = Topology::mesh2d(6, 6);
        let allowed = vec![NodeId(0), NodeId(1), NodeId(99)];
        for (src, dst) in [(0, 99), (99, 0), (99, 99)] {
            assert!(matches!(
                confined_path(&t, &allowed, NodeId(src), NodeId(dst)),
                Err(TopoError::Unroutable { .. })
            ));
            assert!(!dor_confined(&t, &allowed, NodeId(src), NodeId(dst)));
        }
        // In-mesh members still route.
        let p = confined_path(&t, &allowed, NodeId(0), NodeId(1)).unwrap();
        assert_eq!(p, vec![NodeId(0), NodeId(1)]);
        assert!(dor_confined(&t, &allowed, NodeId(1), NodeId(0)));
    }

    #[test]
    fn confined_unreachable_within_set() {
        let t = Topology::mesh2d(3, 3);
        // two opposite corners without connectors
        let allowed = vec![NodeId(0), NodeId(8)];
        assert!(matches!(
            confined_path(&t, &allowed, NodeId(0), NodeId(8)),
            Err(TopoError::Unroutable { src: 0, dst: 8 })
        ));
    }

    #[test]
    fn directions_roundtrip() {
        let t = Topology::mesh2d(4, 4);
        let p = dor_path(&t, NodeId(0), NodeId(10)).unwrap();
        let dirs = path_directions(&t, &p).unwrap();
        assert_eq!(dirs.len(), p.len());
        assert_eq!(dirs[0].1, Direction::East);
        assert_eq!(dirs.last().unwrap().1, Direction::Local);
        // Walk the directions and land on the destination.
        let mut cur = NodeId(0);
        for &(node, dir) in &dirs {
            assert_eq!(node, cur);
            cur = match dir {
                Direction::East => NodeId(cur.0 + 1),
                Direction::West => NodeId(cur.0 - 1),
                Direction::South => NodeId(cur.0 + 4),
                Direction::North => NodeId(cur.0 - 4),
                Direction::Local => break,
            };
        }
        assert_eq!(cur, NodeId(10));
    }

    #[test]
    fn step_direction_all_cases() {
        let t = Topology::mesh2d(3, 3);
        assert_eq!(
            step_direction(&t, NodeId(4), NodeId(5)),
            Some(Direction::East)
        );
        assert_eq!(
            step_direction(&t, NodeId(4), NodeId(3)),
            Some(Direction::West)
        );
        assert_eq!(
            step_direction(&t, NodeId(4), NodeId(7)),
            Some(Direction::South)
        );
        assert_eq!(
            step_direction(&t, NodeId(4), NodeId(1)),
            Some(Direction::North)
        );
        assert_eq!(
            step_direction(&t, NodeId(4), NodeId(4)),
            Some(Direction::Local)
        );
        assert_eq!(step_direction(&t, NodeId(0), NodeId(8)), None);
    }

    #[test]
    fn dor_on_non_mesh_errors() {
        let t = Topology::ring(5);
        assert!(dor_path(&t, NodeId(0), NodeId(2)).is_err());
    }

    #[test]
    fn dor_walk_rejects_endpoints_outside_the_mesh() {
        let shape = MeshShape {
            width: 3,
            height: 2,
        };
        let mut visited = Vec::new();
        assert!(dor_walk(shape, NodeId(0), NodeId(6), |n| visited.push(n.0)).is_err());
        assert!(dor_walk(shape, NodeId(9), NodeId(0), |n| visited.push(n.0)).is_err());
        assert!(visited.is_empty(), "a refused walk visits nothing");
        dor_walk(shape, NodeId(5), NodeId(0), |n| visited.push(n.0)).unwrap();
        assert_eq!(visited, vec![5, 4, 3, 0]);
    }

    #[test]
    fn confined_prefers_shortest() {
        let t = Topology::mesh2d(4, 4);
        let allowed: Vec<NodeId> = t.nodes().collect();
        let p = confined_path(&t, &allowed, NodeId(0), NodeId(15)).unwrap();
        assert_eq!(p.len(), 7); // manhattan 6 + 1
    }
}
