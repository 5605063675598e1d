//! Kuhn–Munkres (Hungarian) assignment solver.
//!
//! Used by the bipartite graph-edit-distance heuristic (Riesen & Bunke,
//! the approximation the paper cites for computing topology edit distance
//! on larger candidates). Costs are `u64`; a square matrix is required —
//! callers pad rectangular problems with dummy rows/columns.

/// Sentinel for "infinite" cost. Kept well below `u64::MAX` so that the
/// potentials arithmetic cannot overflow.
pub const INF: u64 = u64::MAX / 4;

/// Solves the square assignment problem over the row-major `n × n`
/// matrix `cost`, minimizing total cost.
///
/// Returns `(assignment, total_cost)` where `assignment[row] = column`.
///
/// This is the O(n³) shortest-augmenting-path formulation (Jonker–Volgenant
/// style potentials). Its scratch is allocated once per call, not per row.
///
/// The potentials are settled lazily. A phase (one row's augmenting path)
/// grows a tree of columns, and each step raises the potentials of the
/// tree's rows and lowers those of its columns by the step's `delta`, and
/// lowers every outer column's slack `minv[j]` by it. Instead, the phase
/// keeps `D`, the sum of its deltas so far, and `dist[j] = minv[j] + D`
/// for an outer column, so a step is one pass over the outer columns:
/// relax against the row that just joined (whose potential no delta has
/// moved yet), then take the minimum. Each comparison is the eager one
/// shifted by the same `D`, so the same column wins, ties included. A
/// column that joins keeps the `D` it joined at, and once the path is
/// found the phase settles every potential in the tree by `D` less that:
/// the same integers the eager updates reach, so every assignment is the
/// eager solver's.
///
/// The potentials are `i64`. Each step adds its `delta ≥ 0` to the dual
/// objective, which ends at the optimal total, so no potential moves by
/// more than that total, no reduced cost leaves `INF ± 2·total`, and no
/// `dist` entry, which carries the phase's `D ≤ total` on top, passes
/// `INF + 3·total`. The solver therefore requires an assignment that
/// avoids every [`INF`] cell and costs less than `2^60`. A
/// `ged::StockRefiner::bipartite` matrix has one — delete every requested
/// node, insert every candidate node — which costs at most
/// `2·ged::EDGE_COST_BOUND` plus the node and candidate-edge counts.
///
/// # Panics
///
/// Panics if `cost` does not hold `n * n` entries.
///
/// # Example
///
/// ```
/// use vnpu_topo::hungarian::solve;
/// let cost = [4, 1, 3, 2, 0, 5, 3, 2, 2];
/// let (assign, total) = solve(3, &cost);
/// assert_eq!(total, 5); // 1 + 2 + 2
/// assert_eq!(assign, vec![1, 0, 2]);
/// ```
pub fn solve(n: usize, cost: &[u64]) -> (Vec<usize>, u64) {
    assert_eq!(cost.len(), n * n, "cost matrix must be square");
    // 1-indexed potentials per the classic formulation.
    let mut u = vec![0i64; n + 1];
    let mut v = vec![0i64; n + 1];
    let mut p = vec![0usize; n + 1]; // p[col] = row assigned to col (0 = none)
    let mut way = vec![0usize; n + 1];
    // An outer column's slack plus `D`; a tree column's `D` when it joined.
    let mut dist = vec![i64::MAX; n + 1];
    // The outer columns, ascending, and the tree's, in joining order.
    let (mut outer, mut tree) = (Vec::with_capacity(n), Vec::with_capacity(n + 1));

    for i in 1..=n {
        p[0] = i;
        let (mut j0, mut offset) = (0usize, 0i64);
        dist.fill(i64::MAX);
        outer.clear();
        outer.extend(1..=n);
        tree.clear();
        loop {
            dist[j0] = offset;
            tree.push(j0);
            let i0 = p[j0];
            let row = &cost[(i0 - 1) * n..i0 * n];
            let base = offset - u[i0];
            let (mut best, mut at) = (i64::MAX, 0);
            for (k, &j) in outer.iter().enumerate() {
                let cur = row[j - 1] as i64 + base - v[j];
                if cur < dist[j] {
                    dist[j] = cur;
                    way[j] = j0;
                }
                if dist[j] < best {
                    best = dist[j];
                    at = k;
                }
            }
            // The new `D` is the old one plus this step's delta.
            offset = best;
            j0 = outer.remove(at);
            if p[j0] == 0 {
                break;
            }
        }
        for &j in &tree {
            let moved = offset - dist[j];
            u[p[j]] += moved;
            v[j] -= moved;
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut assignment = vec![0usize; n];
    for j in 1..=n {
        if p[j] > 0 {
            assignment[p[j] - 1] = j - 1;
        }
    }
    let total: u64 = assignment
        .iter()
        .enumerate()
        .map(|(r, &c)| cost[r * n + c])
        .sum();
    (assignment, total)
}

#[cfg(test)]
mod reference {
    //! The solver [`super::solve`] replaced, kept as a differential
    //! oracle: a matrix of rows, `i128` potentials settled eagerly after
    //! every step, and the per-row scratch allocated afresh. It is verbatim
    //! but for a flag it returns beside the result: whether a phase of more
    //! than one step met a tie for a step's minimum slack, where the lazy
    //! solver's shifted comparisons must still pick the same column. The
    //! campaign holds the flat, lazy `i64` solver to the same assignment on
    //! every matrix, ties included.

    use super::INF;
    use crate::testing::Rng;

    pub(super) fn solve(cost: &[Vec<u64>]) -> ((Vec<usize>, u64), bool) {
        let n = cost.len();
        for row in cost {
            assert_eq!(row.len(), n, "cost matrix must be square");
        }
        if n == 0 {
            return ((Vec::new(), 0), false);
        }
        let mut tied_path = false;
        // 1-indexed potentials per the classic formulation.
        let mut u = vec![0i128; n + 1];
        let mut v = vec![0i128; n + 1];
        let mut p = vec![0usize; n + 1]; // p[col] = row assigned to col (0 = none)
        let mut way = vec![0usize; n + 1];

        for i in 1..=n {
            p[0] = i;
            let mut j0 = 0usize;
            let mut minv = vec![i128::MAX; n + 1];
            let mut used = vec![false; n + 1];
            let (mut steps, mut tied) = (0, false);
            loop {
                used[j0] = true;
                let i0 = p[j0];
                let mut delta = i128::MAX;
                let mut j1 = 0usize;
                let mut tie = false;
                for j in 1..=n {
                    if used[j] {
                        continue;
                    }
                    let cur = cost[i0 - 1][j - 1] as i128 - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                        tie = false;
                    } else if minv[j] == delta {
                        tie = true;
                    }
                }
                steps += 1;
                tied |= tie;
                for j in 0..=n {
                    if used[j] {
                        u[p[j]] += delta;
                        v[j] -= delta;
                    } else {
                        minv[j] -= delta;
                    }
                }
                j0 = j1;
                if p[j0] == 0 {
                    break;
                }
            }
            tied_path |= tied && steps > 1;
            loop {
                let j1 = way[j0];
                p[j0] = p[j1];
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
        }

        let mut assignment = vec![0usize; n];
        for j in 1..=n {
            if p[j] > 0 {
                assignment[p[j] - 1] = j - 1;
            }
        }
        let total: u64 = assignment
            .iter()
            .enumerate()
            .map(|(r, &c)| cost[r][c])
            .sum();
        ((assignment, total), tied_path)
    }

    /// A matrix as `ged::StockRefiner::bipartite` builds it, for `n1`
    /// request nodes and `n2` candidate nodes of random kinds and degrees:
    /// a request row holds kind mismatch plus degree difference against
    /// each candidate node and, on the deletion block's diagonal, 1 plus
    /// the costs of its edges, some weighted; an insertion row holds 1
    /// plus the candidate node's degree on its diagonal and zeros in the
    /// last block; every other cell is INF.
    fn bipartite_shaped(rng: &mut Rng, n1: usize, n2: usize) -> Vec<Vec<u64>> {
        // Mostly standard cores, as on a served chip; degrees of a mesh.
        let mut nodes = |count: usize| -> Vec<(usize, u64)> {
            let node = |rng: &mut Rng| ([0, 0, 1, 2][rng.below(4)], rng.below(5) as u64);
            (0..count).map(|_| node(rng)).collect()
        };
        let (request, candidate) = (nodes(n1), nodes(n2));
        let n = n1 + n2;
        let mut rows = vec![vec![INF; n]; n];
        for (i, &(kind, degree)) in request.iter().enumerate() {
            for (j, &(other, d)) in candidate.iter().enumerate() {
                rows[i][j] = u64::from(kind != other) + degree.abs_diff(d);
            }
            let weights = [1, 1, 1, 3, 7, 1 << 40];
            let edges: u64 = (0..degree).map(|_| weights[rng.below(weights.len())]).sum();
            rows[i][n2 + i] = 1 + edges;
        }
        for (j, &(_, degree)) in candidate.iter().enumerate() {
            rows[n1 + j][j] = 1 + degree;
            rows[n1 + j][n2..].fill(0);
        }
        rows
    }

    #[test]
    fn flat_i64_solver_matches_the_i128_reference() {
        const CASES: usize = 600;
        let mut rng = Rng(0x5EED_6101);
        // Cases with INF cells, with a row whose minimum is tied, and of
        // more than 64 rows; and whether n = 128 ran.
        let (mut forbidden, mut tied, mut large, mut full) = (0, 0, 0, false);
        for case in 0..CASES {
            let n = match case {
                0 => 128,
                _ if case % 8 == 0 => 65 + rng.below(64),
                _ => 1 + rng.below(24),
            };
            // Few distinct values make ties common. One random permutation
            // stays finite, so an assignment avoids every INF cell.
            let spread = [2, 4, 100, 1 << 40][rng.below(4)];
            let inf_share = rng.below(4);
            let mut perm: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                perm.swap(i, rng.below(i + 1));
            }
            let rows: Vec<Vec<u64>> = (0..n)
                .map(|r| {
                    (0..n)
                        .map(|c| match rng.below(spread) as u64 {
                            _ if c != perm[r] && rng.below(8) < inf_share => INF,
                            cost => cost,
                        })
                        .collect()
                })
                .collect();
            let flat: Vec<u64> = rows.concat();
            let (want, _) = solve(&rows);
            assert_eq!(super::solve(n, &flat), want, "case {case}: n = {n}");
            forbidden += usize::from(flat.contains(&INF));
            let min_twice = |row: &Vec<u64>| {
                let min = row.iter().min();
                row.iter().filter(|&c| Some(c) == min).count() > 1
            };
            tied += usize::from(rows.iter().any(min_twice));
            large += usize::from(n > 64);
            full |= n == 128;
        }
        // The mapper's matrices: equal sides up to 12 nodes, the sizes a
        // memo-bound search scores, then unequal ones.
        const SHAPED: usize = 1_200;
        let (mut unequal, mut tied_paths) = (0, 0);
        for case in 0..SHAPED {
            let n1 = 1 + rng.below(12);
            let n2 = match case % 3 {
                0 => 1 + rng.below(14),
                _ => n1,
            };
            let rows = bipartite_shaped(&mut rng, n1, n2);
            let (want, tied_path) = solve(&rows);
            let n = n1 + n2;
            assert_eq!(
                super::solve(n, &rows.concat()),
                want,
                "shaped case {case}: {n1} x {n2}"
            );
            unequal += usize::from(n1 != n2);
            tied_paths += usize::from(tied_path);
        }
        println!(
            "Hungarian campaign: {CASES} matrices up to 128 x 128, identical assignments; \
             {forbidden} with INF cells, {tied} with a tied row minimum, \
             {large} of more than 64 rows; {SHAPED} bipartite-shaped matrices of up to 12 \
             request nodes, {unequal} with unequal sides, {tied_paths} with a tie on a \
             multi-step augmenting path"
        );
        assert!(
            forbidden > 0 && tied > 0 && large > 0 && full && unequal > 0 && tied_paths > 0,
            "a case was never reached"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force(n: usize, cost: &[u64]) -> u64 {
        let mut cols: Vec<usize> = (0..n).collect();
        let mut best = u64::MAX;
        permute(&mut cols, 0, &mut |perm| {
            let total: u64 = perm.iter().enumerate().map(|(r, &c)| cost[r * n + c]).sum();
            best = best.min(total);
        });
        best
    }

    fn permute(items: &mut Vec<usize>, k: usize, f: &mut dyn FnMut(&[usize])) {
        if k == items.len() {
            f(items);
            return;
        }
        for i in k..items.len() {
            items.swap(k, i);
            permute(items, k + 1, f);
            items.swap(k, i);
        }
    }

    #[test]
    fn known_small_case() {
        let (_, total) = solve(3, &[4, 1, 3, 2, 0, 5, 3, 2, 2]);
        assert_eq!(total, 5);
    }

    #[test]
    fn identity_optimal() {
        let (assign, total) = solve(3, &[0, 9, 9, 9, 0, 9, 9, 9, 0]);
        assert_eq!(assign, vec![0, 1, 2]);
        assert_eq!(total, 0);
    }

    #[test]
    fn empty_matrix() {
        let (assign, total) = solve(0, &[]);
        assert!(assign.is_empty());
        assert_eq!(total, 0);
    }

    #[test]
    fn single_cell() {
        let (assign, total) = solve(1, &[7]);
        assert_eq!(assign, vec![0]);
        assert_eq!(total, 7);
    }

    #[test]
    fn assignment_is_permutation() {
        let cost = [5, 9, 1, 4, 3, 2, 8, 6, 7, 7, 7, 7, 1, 2, 3, 4];
        let (assign, _) = solve(4, &cost);
        let mut seen = [false; 4];
        for &c in &assign {
            assert!(!seen[c]);
            seen[c] = true;
        }
    }

    #[test]
    fn matches_brute_force_on_random_matrices() {
        // Deterministic pseudo-random matrices (no external RNG needed).
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % 100
        };
        for n in 1..=6usize {
            for _ in 0..20 {
                let cost: Vec<u64> = (0..n * n).map(|_| next()).collect();
                let (_, total) = solve(n, &cost);
                assert_eq!(total, brute_force(n, &cost), "n={n} cost={cost:?}");
            }
        }
    }

    #[test]
    fn handles_inf_padding() {
        // One forbidden cell; solver must route around it.
        let (assign, total) = solve(2, &[INF, 1, 1, INF]);
        assert_eq!(total, 2);
        assert_eq!(assign, vec![1, 0]);
    }
}
