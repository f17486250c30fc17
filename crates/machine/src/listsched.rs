//! Greedy cycle-by-cycle list scheduling of basic blocks into VLIW bundles.
//!
//! This is the "final compiler" stage the paper assumes under SLMS
//! (Fig. 3): after the source-level transformation, plain list scheduling of
//! the loop body — no modulo scheduling — packs the exposed parallelism
//! into issue groups. Priority is critical-path height (ties go to the
//! earlier op); resources are the per-class unit counts and the global
//! issue width of the machine model. Heights take one reverse pass over the
//! block, and each cycle picks from a ready list fed by per-op counts of
//! unscheduled predecessors, so no cycle rescans the whole block.

use crate::deps::{intra_deps, EdgeIndex};
use crate::ir::{Bundle, Op};
use crate::mach::MachineDesc;

/// Result of list scheduling: bundles (possibly empty = stall cycles) and
/// simple statistics.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// issue groups; index = cycle
    pub bundles: Vec<Bundle>,
    /// cycle assigned to each input op
    pub cycle_of: Vec<u32>,
}

impl Schedule {
    /// Schedule length in cycles.
    pub fn len(&self) -> usize {
        self.bundles.len()
    }

    /// True when no cycles are needed (empty block).
    pub fn is_empty(&self) -> bool {
        self.bundles.is_empty()
    }
}

/// Critical-path height of each op: the longest path to any sink, counting
/// every edge at least 1 cycle.
///
/// One pass in reverse index order is exact for a block's dependence
/// graph: every edge there runs forward in index order (lowering puts the
/// branch last) or ends at a sink, so every op's successors are final
/// before the op itself is visited. `succs` holds the out-edges grouped by
/// source.
fn heights(succs: &EdgeIndex) -> Vec<u32> {
    let mut h = vec![0u32; succs.len()];
    for v in (0..succs.len()).rev() {
        for e in succs.of(v) {
            debug_assert!(e.to > v || succs.of(e.to).is_empty(), "{e:?} runs backward");
            h[v] = h[v].max(h[e.to] + e.lat.max(1));
        }
    }
    h
}

/// List-schedule one basic block.
pub fn list_schedule(ops: &[Op], m: &MachineDesc) -> Schedule {
    let n = ops.len();
    if n == 0 {
        return Schedule {
            bundles: vec![],
            cycle_of: vec![],
        };
    }
    let edges = intra_deps(ops, m);
    let succs = EdgeIndex::new(n, &edges, |e| e.from);
    let h = heights(&succs);
    let class: Vec<usize> = ops.iter().map(|o| o.class().index()).collect();
    // per op: predecessors still unscheduled, and the first cycle the
    // scheduled ones allow it to issue in
    let mut waiting = vec![0u32; n];
    for e in &edges {
        waiting[e.to] += 1;
    }
    let mut earliest = vec![0u32; n];
    // unscheduled ops whose predecessors are all scheduled
    let mut ready: Vec<usize> = (0..n).filter(|&v| waiting[v] == 0).collect();
    let mut cycle_of = vec![u32::MAX; n];
    let mut bundles: Vec<Bundle> = Vec::new();
    let mut remaining = n;
    let mut cycle: u32 = 0;
    while remaining > 0 {
        let mut used = [0usize; 7];
        let mut bundle: Bundle = Vec::new();
        // repeatedly pick the best ready op this cycle (0-lat preds may be
        // satisfied by ops placed earlier in this same bundle: VLIW bundle
        // semantics read all operands before any write lands)
        while bundle.len() < m.issue_width {
            // highest height first, lowest index among equals
            let best = ready
                .iter()
                .enumerate()
                .filter(|&(_, &v)| earliest[v] <= cycle && used[class[v]] < m.units[class[v]])
                .max_by_key(|&(_, &v)| (h[v], std::cmp::Reverse(v)));
            let Some((slot, &v)) = best else { break };
            ready.swap_remove(slot);
            used[class[v]] += 1;
            cycle_of[v] = cycle;
            bundle.push(ops[v].clone());
            remaining -= 1;
            for e in succs.of(v) {
                earliest[e.to] = earliest[e.to].max(cycle + e.lat);
                waiting[e.to] -= 1;
                if waiting[e.to] == 0 {
                    ready.push(e.to);
                }
            }
        }
        bundles.push(bundle);
        cycle += 1;
        if cycle as usize > 64 * n + 64 {
            unreachable!("list scheduler failed to converge");
        }
    }
    Schedule { bundles, cycle_of }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::IrEdge;
    use crate::ims::bounded_heights;
    use crate::ir::{BinKind, OpKind, Operand};
    use proptest::prelude::*;
    use slc_analysis::LinForm;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 1000, .. ProptestConfig::default() })]

        /// On a block's graph shape (forward edges, plus edges from every
        /// op into a branch that has no out-edges, wherever it sits) the
        /// one reverse pass equals the edge-sweep fixpoint IMS runs on
        /// cyclic graphs.
        #[test]
        fn one_pass_heights_match_fixpoint(
            n in 1usize..16,
            raw in proptest::collection::vec((0usize..16, 0usize..16, 0u32..6), 0..48),
            branch in 0usize..17
        ) {
            let mut edges: Vec<IrEdge> = raw
                .iter()
                .filter(|&&(a, b, _)| a % n != b % n)
                .map(|&(a, b, lat)| {
                    let (from, to) = ((a % n).min(b % n), (a % n).max(b % n));
                    IrEdge { from, to, lat, dist: 0 }
                })
                .filter(|e| e.from != branch)
                .collect();
            if branch < n {
                edges.extend((0..n).filter(|&u| u != branch).map(|u| IrEdge {
                    from: u,
                    to: branch,
                    lat: 0,
                    dist: 0,
                }));
            }
            prop_assert_eq!(
                heights(&EdgeIndex::new(n, &edges, |e| e.from)),
                bounded_heights(n, &edges)
            );
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

    fn add(dst: u32, a: u32, b: u32) -> Op {
        Op::new(OpKind::Bin {
            op: BinKind::Add,
            fp: true,
            dst,
            a: Operand::Reg(a),
            b: Operand::Reg(b),
        })
    }

    #[test]
    fn independent_loads_pack() {
        let m = MachineDesc::default(); // 2 mem units
        let ops = vec![load(0, 0), load(1, 1), load(2, 2), load(3, 3)];
        let s = list_schedule(&ops, &m);
        // 4 loads over 2 mem units → 2 cycles
        assert_eq!(s.bundles.iter().filter(|b| !b.is_empty()).count(), 2);
        assert_eq!(s.bundles[0].len(), 2);
    }

    #[test]
    fn latency_respected() {
        let m = MachineDesc::default(); // Mem lat 2
        let ops = vec![load(0, 0), add(1, 0, 0)];
        let s = list_schedule(&ops, &m);
        assert_eq!(s.cycle_of[0], 0);
        assert_eq!(s.cycle_of[1], 2); // waits for the load
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn dependent_chain_serializes() {
        let m = MachineDesc::default(); // FpAdd lat 3
        let ops = vec![load(0, 0), add(1, 0, 0), add(2, 1, 1), add(3, 2, 2)];
        let s = list_schedule(&ops, &m);
        // 2 (load) + 3 + 3 + 1 = cycles 0,2,5,8
        assert_eq!(s.cycle_of[3], 8);
    }

    #[test]
    fn issue_width_limits() {
        let m = MachineDesc {
            issue_width: 1,
            ..MachineDesc::default()
        };
        let ops = vec![load(0, 0), load(1, 1)];
        let s = list_schedule(&ops, &m);
        assert_eq!(s.cycle_of[1], 1);
    }

    #[test]
    fn priority_prefers_critical_path() {
        // long chain rooted at load(0) vs a lone independent load: the
        // chain head should issue first even though both are ready.
        let m = MachineDesc {
            issue_width: 1,
            ..MachineDesc::default()
        };
        let ops = vec![
            load(9, 5), // independent, low height
            load(0, 0),
            add(1, 0, 0),
            add(2, 1, 1),
        ];
        let s = list_schedule(&ops, &m);
        assert!(s.cycle_of[1] < s.cycle_of[0], "{:?}", s.cycle_of);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::ir::Lir;
    use crate::ir::OpKind;
    use crate::lower::lower_program;
    use slc_ast::parse_program;

    #[test]
    fn branch_scheduled_last() {
        let lir = lower_program(
            &parse_program(
                "float A[16]; float B[16]; int i; for (i = 0; i < 16; i++) A[i] = B[i] + 1.0;",
            )
            .unwrap(),
        )
        .unwrap();
        let ops = lir
            .items
            .iter()
            .find_map(|it| match it {
                Lir::Loop(l) => l.body.iter().find_map(|b| match b {
                    Lir::Block(o) => Some(o.clone()),
                    _ => None,
                }),
                _ => None,
            })
            .unwrap();
        let m = MachineDesc::default();
        let s = list_schedule(&ops, &m);
        let br_idx = ops
            .iter()
            .position(|o| matches!(o.kind, OpKind::Branch))
            .unwrap();
        let br_cycle = s.cycle_of[br_idx];
        assert!(s.cycle_of.iter().all(|&c| c <= br_cycle));
    }

    #[test]
    fn empty_block_schedules_empty() {
        let m = MachineDesc::default();
        let s = list_schedule(&[], &m);
        assert!(s.is_empty());
    }
}
