//! Iterative Modulo Scheduling (Rau, MICRO'94 / HPL-94-115) — the
//! machine-level baseline SLMS is compared against (figures 18–20, §7).
//!
//! The implementation follows Rau's algorithm: MII = max(ResMII, RecMII);
//! operations are placed highest-priority-first into a modulo reservation
//! table of II rows, retrying/evicting with a budget, and II grows until a
//! schedule exists. Cross-iteration register lifetimes are assumed to be
//! handled by rotating registers / modulo variable expansion; their cost is
//! charged through the register-pressure estimate, which the register
//! allocator turns into spill penalties (reproducing the §7 Fig. 11
//! register-pressure failure mode).
//!
//! RecMII is the smallest II whose dependence graph, weighted
//! `lat − II·dist`, has no positive cycle. Each candidate II costs one
//! sparse Bellman–Ford pass (O(n·e)); since every edge has `dist ≥ 0`,
//! feasibility is monotone in II and the candidates are binary-searched.
//! Placement reads per-op predecessor and successor edge lists, and the
//! pressure estimate reads the block's def-use tables, so no step rescans
//! every edge or op per placed op.

#![allow(clippy::needless_range_loop)] // index loops mirror the papers' pseudo-code
use crate::deps::{intra_edges, push_cross_edges, DefUse, EdgeIndex, IrEdge, NONE};
use crate::ir::{Bundle, Op};
use crate::mach::MachineDesc;

/// A complete modulo schedule of one innermost loop body.
#[derive(Debug, Clone)]
pub struct ModuloSchedule {
    /// achieved initiation interval
    pub ii: i64,
    /// number of pipeline stages (`⌊max σ / II⌋ + 1`)
    pub stages: i64,
    /// kernel: II bundles; each op's `iter_offset` tells the simulator how
    /// many iterations ahead of the kernel's nominal index it runs
    pub kernel: Vec<Bundle>,
    /// resource-constrained MII
    pub res_mii: i64,
    /// recurrence-constrained MII
    pub rec_mii: i64,
    /// estimated simultaneously-live register count (after MVE versioning)
    pub reg_pressure: usize,
}

/// Resource-constrained MII.
pub fn res_mii(ops: &[Op], m: &MachineDesc) -> i64 {
    let mut counts = [0usize; 7];
    for o in ops {
        counts[o.class().index()] += 1;
    }
    let mut mii = ops.len().div_ceil(m.issue_width).max(1);
    for (ci, &cnt) in counts.iter().enumerate() {
        if cnt == 0 {
            continue;
        }
        let units = m.units[ci].max(1);
        mii = mii.max(cnt.div_ceil(units));
    }
    mii as i64
}

/// Does the graph weighted `lat − ii·dist` have a positive cycle?
/// Bellman–Ford longest paths from a virtual source joined to every op by a
/// 0-weight edge: without a positive cycle every longest path has fewer
/// than `n` edges, so some round up to the `n`-th changes nothing.
/// `best` is scratch space.
fn has_positive_cycle(n: usize, edges: &[IrEdge], ii: i64, best: &mut Vec<i64>) -> bool {
    best.clear();
    best.resize(n, 0);
    for _ in 0..=n {
        let mut changed = false;
        for e in edges {
            let cand = best[e.from] + e.lat as i64 - ii * e.dist;
            if cand > best[e.to] {
                best[e.to] = cand;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
    }
    true
}

/// Recurrence-constrained MII: smallest II with no positive cycle of
/// `lat − II·dist`. `None` when none exists below `max_ii`.
pub fn rec_mii(n: usize, edges: &[IrEdge], max_ii: i64) -> Option<i64> {
    let mut best = Vec::with_capacity(n);
    if max_ii < 1 || has_positive_cycle(n, edges, max_ii, &mut best) {
        return None;
    }
    // every edge has dist ≥ 0, so a feasible II stays feasible above
    let (mut lo, mut hi) = (1, max_ii);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if has_positive_cycle(n, edges, mid, &mut best) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// Critical-path heights over a possibly cyclic graph: edge sweeps until a
/// fixpoint, at most `n + 8` of them. On a cycle the guard truncates the
/// heights, and the truncated values are part of the schedule IMS emits.
pub(crate) fn bounded_heights(n: usize, edges: &[IrEdge]) -> Vec<u32> {
    let mut h = vec![0u32; n];
    let mut changed = true;
    let mut guard = 0;
    while changed && guard < n + 8 {
        changed = false;
        guard += 1;
        for e in edges {
            let cand = h[e.to] + e.lat.max(1);
            if h[e.from] < cand {
                h[e.from] = cand;
                changed = true;
            }
        }
    }
    h
}

/// Modulo-schedule a loop body. Returns `None` when the loop cannot be
/// software-pipelined (unknown cross-iteration memory dependences, or no
/// feasible II up to the sequential bound).
pub fn modulo_schedule(
    ops: &[Op],
    m: &MachineDesc,
    var: &str,
    step: i64,
) -> Option<ModuloSchedule> {
    let n = ops.len();
    if n == 0 {
        return None;
    }
    let du = DefUse::new(ops);
    let mut edges = intra_edges(ops, m, &du);
    push_cross_edges(ops, m, var, step, &du, &mut edges)?;
    let total_lat: i64 = ops.iter().map(|o| m.latency_of(o.class()) as i64).sum();
    let max_ii = total_lat.max(n as i64) + 2;
    let rmii = res_mii(ops, m);
    let cmii = rec_mii(n, &edges, max_ii)?;
    let mii = rmii.max(cmii);
    let h = bounded_heights(n, &edges);
    let preds = EdgeIndex::new(n, &edges, |e| e.to);
    let succs = EdgeIndex::new(n, &edges, |e| e.from);
    let class: Vec<usize> = ops.iter().map(|o| o.class().index()).collect();
    // placement priority: highest first, lowest index among equals
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&u| (std::cmp::Reverse(h[u]), u));

    'try_ii: for ii in mii..=max_ii {
        let iiu = ii as usize;
        let mut sigma: Vec<Option<i64>> = vec![None; n];
        let mut prev_try: Vec<i64> = vec![-1; n];
        let mut budget = 8 * n as i64 + 32;
        // modulo reservation table: per row, per class usage + issue count
        let mut rt_class = vec![[0usize; 7]; iiu];
        let mut rt_issue = vec![0usize; iiu];

        let fits = |rt_class: &[[usize; 7]], rt_issue: &[usize], u: usize, t: i64| -> bool {
            let row = (t.rem_euclid(ii)) as usize;
            let ci = class[u];
            rt_class[row][ci] < m.units[ci].max(1) && rt_issue[row] < m.issue_width
        };

        while let Some(&u) = order.iter().find(|&&u| sigma[u].is_none()) {
            if budget == 0 {
                continue 'try_ii;
            }
            budget -= 1;
            // earliest start from scheduled predecessors
            let mut estart = 0i64;
            for e in preds.of(u) {
                if let Some(sp) = sigma[e.from] {
                    estart = estart.max(sp + e.lat as i64 - ii * e.dist);
                }
            }
            // find a resource-feasible slot in [estart, estart+II)
            let slot = (estart..estart + ii).find(|&t| fits(&rt_class, &rt_issue, u, t));
            let t = slot.unwrap_or_else(|| {
                // forced placement with progress guarantee
                if estart > prev_try[u] {
                    estart
                } else {
                    prev_try[u] + 1
                }
            });
            prev_try[u] = t;
            // evict resource conflicts at the target row
            let row = (t.rem_euclid(ii)) as usize;
            let ci = class[u];
            loop {
                let class_over = rt_class[row][ci] >= m.units[ci].max(1);
                let issue_over = rt_issue[row] >= m.issue_width;
                if !class_over && !issue_over {
                    break;
                }
                // evict the lowest-priority op occupying this row (matching
                // class if the class is the bottleneck)
                let victim = (0..n)
                    .filter(|&v| {
                        sigma[v].is_some_and(|sv| (sv.rem_euclid(ii)) as usize == row)
                            && (!class_over || class[v] == ci)
                    })
                    .min_by_key(|&v| h[v]);
                let Some(v) = victim else { break };
                sigma[v] = None;
                rt_class[row][class[v]] -= 1;
                rt_issue[row] -= 1;
            }
            // evict dependence violations where u is the source
            for e in succs.of(u) {
                if let Some(sv) = sigma[e.to] {
                    if sv < t + e.lat as i64 - ii * e.dist {
                        let vrow = (sv.rem_euclid(ii)) as usize;
                        rt_class[vrow][class[e.to]] -= 1;
                        rt_issue[vrow] -= 1;
                        sigma[e.to] = None;
                    }
                }
            }
            sigma[u] = Some(t);
            rt_class[row][ci] += 1;
            rt_issue[row] += 1;
        }
        let sigma: Vec<i64> = sigma.into_iter().map(Option::unwrap).collect();
        // verify every edge (paranoia: eviction should have handled all)
        if !edges
            .iter()
            .all(|e| sigma[e.to] >= sigma[e.from] + e.lat as i64 - ii * e.dist)
        {
            continue 'try_ii;
        }
        let stages = sigma.iter().max().unwrap() / ii + 1;
        // kernel bundles
        let mut kernel: Vec<Bundle> = vec![Vec::new(); iiu];
        for (u, &s) in sigma.iter().enumerate() {
            let mut op = ops[u].clone();
            op.iter_offset = (stages - 1) - s / ii;
            kernel[(s % ii) as usize].push(op);
        }
        return Some(ModuloSchedule {
            ii,
            stages,
            kernel,
            res_mii: rmii,
            rec_mii: cmii,
            reg_pressure: reg_pressure(ops, &du, &sigma, ii),
        });
    }
    None
}

/// Register pressure after modulo variable expansion: lifetime of each
/// *register* value from its defining op to its consumers, in units of II.
/// A use reads its reaching def in the same iteration; a use at or before
/// the block's last def of its register also reads that def's value from
/// the previous iteration (one extra II). Memory dependence edges carry no
/// register value and are excluded.
fn reg_pressure(ops: &[Op], du: &DefUse, sigma: &[i64], ii: i64) -> usize {
    let mut life = vec![1i64; ops.len()];
    for u in &du.uses {
        let (v, sv) = (u.op as usize, sigma[u.op as usize]);
        if u.prev != NONE {
            let p = u.prev as usize;
            life[p] = life[p].max(sv - sigma[p]);
        }
        if u.last != NONE && u.last as usize >= v {
            let l = u.last as usize;
            life[l] = life[l].max(sv + ii - sigma[l]);
        }
    }
    ops.iter()
        .zip(&life)
        .filter(|(op, _)| op.dst().is_some())
        .map(|(_, &l)| (((l + ii - 1) / ii).max(1)) as usize)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinKind, OpKind, Operand};
    use proptest::prelude::*;
    use slc_analysis::LinForm;

    /// Dense Floyd–Warshall RecMII, walking II upward from 1: the kernel
    /// [`rec_mii`] replaced, kept as its oracle.
    fn rec_mii_dense(n: usize, edges: &[IrEdge], max_ii: i64) -> Option<i64> {
        'next: for ii in 1..=max_ii {
            const NEG: i64 = i64::MIN / 4;
            let mut d = vec![vec![NEG; n]; n];
            for e in edges {
                let w = e.lat as i64 - ii * e.dist;
                if w > d[e.from][e.to] {
                    d[e.from][e.to] = w;
                }
            }
            for k in 0..n {
                for i in 0..n {
                    if d[i][k] == NEG {
                        continue;
                    }
                    for j in 0..n {
                        if d[k][j] != NEG && d[i][k] + d[k][j] > d[i][j] {
                            d[i][j] = d[i][k] + d[k][j];
                        }
                    }
                }
            }
            for i in 0..n {
                if d[i][i] > 0 {
                    continue 'next;
                }
            }
            return Some(ii);
        }
        None
    }

    fn edge(from: usize, to: usize, lat: u32, dist: i64) -> IrEdge {
        IrEdge {
            from,
            to,
            lat,
            dist,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2000, .. ProptestConfig::default() })]

        /// Random graphs with self-loops, parallel edges, distances above
        /// 1, zero-latency edges and bounds too low for any II (`None`).
        #[test]
        fn sparse_rec_mii_matches_dense(
            n in 1usize..9,
            raw in proptest::collection::vec((0usize..9, 0usize..9, 0u32..7, 0i64..4), 0..24),
            max_ii in -1i64..14
        ) {
            let edges: Vec<IrEdge> =
                raw.iter().map(|&(f, t, lat, dist)| edge(f % n, t % n, lat, dist)).collect();
            prop_assert_eq!(rec_mii(n, &edges, max_ii), rec_mii_dense(n, &edges, max_ii));
        }
    }

    #[test]
    fn rec_mii_edge_cases() {
        // self-loop: lat 5 over distance 2 → II 3
        let self_loop = [edge(0, 0, 5, 2)];
        assert_eq!(rec_mii(1, &self_loop, 10), Some(3));
        assert_eq!(rec_mii(1, &self_loop, 2), None);
        // a zero-distance positive cycle has no II at all
        assert_eq!(rec_mii(2, &[edge(0, 1, 1, 0), edge(1, 0, 0, 0)], 50), None);
        // parallel edges: the heavier one binds
        let par = [edge(0, 1, 1, 0), edge(0, 1, 4, 0), edge(1, 0, 0, 1)];
        assert_eq!(rec_mii(2, &par, 10), Some(4));
        // no ops at all
        assert_eq!(rec_mii(0, &[], 5), Some(1));
        assert_eq!(rec_mii_dense(0, &[], 5), Some(1));
        // zero-latency cycle: any II works
        assert_eq!(
            rec_mii(2, &[edge(0, 1, 0, 0), edge(1, 0, 0, 1)], 10),
            Some(1)
        );
        for (n, edges) in [(1, &self_loop[..]), (2, &par[..])] {
            for max_ii in 0..6 {
                assert_eq!(rec_mii(n, edges, max_ii), rec_mii_dense(n, edges, max_ii));
            }
        }
    }

    fn lin(c: i64, k: i64) -> LinForm {
        LinForm::var("i").scale(c).add(&LinForm::constant(k))
    }

    fn load(dst: u32, k: i64) -> Op {
        Op::new(OpKind::Load {
            dst,
            array: "A".into(),
            addr: Some(lin(1, k).into()),
        })
    }

    fn store(src: u32, arr: &str, k: i64) -> Op {
        Op::new(OpKind::Store {
            src: Operand::Reg(src),
            array: arr.into(),
            addr: Some(lin(1, k).into()),
        })
    }

    fn fadd(dst: u32, a: u32, b: u32) -> Op {
        Op::new(OpKind::Bin {
            op: BinKind::Add,
            fp: true,
            dst,
            a: Operand::Reg(a),
            b: Operand::Reg(b),
        })
    }

    #[test]
    fn res_mii_counts_units() {
        let m = MachineDesc::default(); // 2 mem units
        let ops = vec![load(0, 0), load(1, 1), load(2, 2), load(3, 3)];
        assert_eq!(res_mii(&ops, &m), 2);
    }

    #[test]
    fn independent_body_pipelines_to_ii_near_resources() {
        let m = MachineDesc::default();
        // B[i] = A[i] + A[i+1]: load, load, add, store → ResMII ≥ 2 (3 mem/2)
        let ops = vec![load(0, 0), load(1, 1), fadd(2, 0, 1), store(2, "B", 0)];
        let ms = modulo_schedule(&ops, &m, "i", 1).unwrap();
        assert_eq!(ms.ii, 2, "{ms:?}");
        assert!(ms.stages >= 2);
        assert_eq!(ms.kernel.iter().map(|b| b.len()).sum::<usize>(), 4);
    }

    #[test]
    fn recurrence_limits_ii() {
        let m = MachineDesc::default(); // FpAdd lat 3
                                        // A[i] = A[i-1] + c: load A[i-1], add, store A[i] — cross flow via
                                        // memory at distance 1 with the store→load chain.
        let ops = vec![load(0, -1), fadd(1, 0, 0), store(1, "A", 0)];
        let ms = modulo_schedule(&ops, &m, "i", 1).unwrap();
        // cycle: load(2) → add(3) → store(1 to next load) over distance 1
        assert!(ms.rec_mii >= 5, "{ms:?}");
        assert_eq!(ms.ii, ms.rec_mii.max(ms.res_mii));
    }

    #[test]
    fn accumulator_recurrence() {
        let m = MachineDesc::default();
        // s += A[i]: add dst=s uses s → self flow dist 1, lat 3 → RecMII 3
        let ops = vec![load(0, 0), fadd(9, 9, 0)];
        let ms = modulo_schedule(&ops, &m, "i", 1).unwrap();
        assert_eq!(ms.rec_mii, 3);
    }

    #[test]
    fn unknown_memory_refuses() {
        let m = MachineDesc::default();
        let ops = vec![
            Op::new(OpKind::Store {
                src: Operand::Reg(0),
                array: "A".into(),
                addr: None,
            }),
            load(1, 0),
        ];
        assert!(modulo_schedule(&ops, &m, "i", 1).is_none());
    }

    #[test]
    fn kernel_offsets_within_stage_range() {
        let m = MachineDesc::default();
        let ops = vec![load(0, 1), fadd(1, 0, 0), store(1, "B", 0)];
        let ms = modulo_schedule(&ops, &m, "i", 1).unwrap();
        for b in &ms.kernel {
            for o in b {
                assert!(o.iter_offset >= 0 && o.iter_offset < ms.stages);
            }
        }
    }
}
