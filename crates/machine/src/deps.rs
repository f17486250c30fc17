//! Dependence analysis on IR blocks — used by both schedulers.
//!
//! Intra-iteration edges drive list scheduling; cross-iteration edges
//! (register flows into the next iteration, loop-carried memory
//! dependences via the address linear forms) drive the modulo scheduler's
//! RecMII. Register anti/output dependences across iterations are ignored
//! by the modulo scheduler — the machine model gives it rotating registers
//! (as on the paper's IA-64, Fig. 13), with the register cost accounted by
//! modulo variable expansion in the register-pressure estimate.

#![allow(clippy::needless_range_loop)] // index loops mirror the papers' pseudo-code
use crate::ir::{Op, OpClass, VReg};
use crate::mach::MachineDesc;
use slc_analysis::LinForm;

/// A dependence edge between ops of one loop body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrEdge {
    /// source op index
    pub from: usize,
    /// sink op index
    pub to: usize,
    /// minimum cycles between issue of source and sink
    pub lat: u32,
    /// iteration distance (0 = same iteration)
    pub dist: i64,
}

/// Edges grouped by one endpoint, each group in edge order.
pub(crate) struct EdgeIndex {
    /// the group of op `v` is `edges[start[v]..start[v + 1]]`
    start: Vec<u32>,
    edges: Vec<IrEdge>,
}

impl EdgeIndex {
    /// Group `edges` of an `n`-op block by `key` (`from` or `to`).
    pub fn new(n: usize, edges: &[IrEdge], key: impl Fn(&IrEdge) -> usize) -> EdgeIndex {
        let mut sorted = edges.to_vec();
        sorted.sort_by_key(&key); // stable: keeps edge order within a group
        let mut start = vec![0u32; n + 1];
        for e in edges {
            start[key(e) + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        EdgeIndex {
            start,
            edges: sorted,
        }
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// The edges grouped under op `v`.
    pub fn of(&self, v: usize) -> &[IrEdge] {
        &self.edges[self.start[v] as usize..self.start[v + 1] as usize]
    }
}

/// "No op" in the [`DefUse`] tables.
pub(crate) const NONE: u32 = u32::MAX;

/// One source-register mention of an op, with the defs of that register
/// around it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RegUse {
    /// op index the mention belongs to
    pub op: u32,
    /// the register read
    pub reg: VReg,
    /// latest op before `op` that writes the register (the reaching def)
    pub prev: u32,
    /// first op after `op` that writes the register
    pub next: u32,
    /// last op of the block that writes the register (the def whose value
    /// crosses the back edge)
    pub last: u32,
}

/// Register def-use tables of one block, built in one forward and one
/// backward sweep. Every scheduler query about "the latest def before",
/// "the next def after" or "the last def" is a lookup here.
pub(crate) struct DefUse {
    /// every source-register mention, in op order and, within an op, in
    /// [`Op::visit_srcs`] order
    pub uses: Vec<RegUse>,
    /// the mentions of op `v` are `uses[use_start[v]..use_start[v + 1]]`
    pub use_start: Vec<u32>,
    /// per op: the next op writing the same destination register
    pub next_def: Vec<u32>,
}

impl DefUse {
    pub fn new(ops: &[Op]) -> DefUse {
        let n = ops.len();
        let mut max_reg: VReg = 0;
        let mut n_uses = 0;
        for op in ops {
            op.visit_srcs(|r| {
                max_reg = max_reg.max(r);
                n_uses += 1;
            });
            if let Some(d) = op.dst() {
                max_reg = max_reg.max(d);
            }
        }
        // per register: the latest def seen by the current sweep
        let mut cur = vec![NONE; max_reg as usize + 1];
        let mut uses = Vec::with_capacity(n_uses);
        let mut use_start = Vec::with_capacity(n + 1);
        for (v, op) in ops.iter().enumerate() {
            use_start.push(uses.len() as u32);
            op.visit_srcs(|reg| {
                uses.push(RegUse {
                    op: v as u32,
                    reg,
                    prev: cur[reg as usize],
                    next: NONE,
                    last: NONE,
                })
            });
            if let Some(d) = op.dst() {
                cur[d as usize] = v as u32;
            }
        }
        use_start.push(uses.len() as u32);
        for u in &mut uses {
            u.last = cur[u.reg as usize];
        }
        cur.fill(NONE);
        let mut next_def = vec![NONE; n];
        for v in (0..n).rev() {
            for u in &mut uses[use_start[v] as usize..use_start[v + 1] as usize] {
                u.next = cur[u.reg as usize];
            }
            if let Some(d) = ops[v].dst() {
                next_def[v] = cur[d as usize];
                cur[d as usize] = v as u32;
            }
        }
        DefUse {
            uses,
            use_start,
            next_def,
        }
    }

    /// Source-register mentions of op `v`.
    pub fn uses_of(&self, v: usize) -> &[RegUse] {
        &self.uses[self.use_start[v] as usize..self.use_start[v + 1] as usize]
    }
}

/// `x − y` when it is a constant, ignoring the terms of `skip` — the value
/// of `x.split_var(skip).1.sub(&y.split_var(skip).1)` when that is
/// `is_const()`, computed without building it.
fn const_diff(x: &LinForm, y: &LinForm, skip: Option<&str>) -> Option<i64> {
    let kept = |v: &String| Some(v.as_str()) != skip;
    let cancels = x
        .terms
        .iter()
        .all(|(v, c)| !kept(v) || y.terms.get(v) == Some(c))
        && y.terms
            .iter()
            .all(|(v, c)| !kept(v) || *c == 0 || x.terms.contains_key(v));
    cancels.then(|| x.konst - y.konst)
}

/// Memory disambiguation verdict for two address forms evaluated in the
/// *same* iteration.
fn same_iter_alias(a: Option<&LinForm>, b: Option<&LinForm>) -> bool {
    match (a, b) {
        // a symbolic difference is conservative
        (Some(x), Some(y)) => const_diff(x, y, None).is_none_or(|d| d == 0),
        _ => true, // unknown address: conservative
    }
}

/// Intra-iteration dependence edges of a block (distance 0 throughout).
pub fn intra_deps(ops: &[Op], m: &MachineDesc) -> Vec<IrEdge> {
    intra_edges(ops, m, &DefUse::new(ops))
}

/// [`intra_deps`] on prebuilt def-use tables.
pub(crate) fn intra_edges(ops: &[Op], m: &MachineDesc, du: &DefUse) -> Vec<IrEdge> {
    let mut edges = Vec::new();
    let n = ops.len();
    // register dependences
    for v in 0..n {
        for u in du.uses_of(v) {
            // latest def before v → flow
            if u.prev != NONE {
                let p = u.prev as usize;
                edges.push(IrEdge {
                    from: p,
                    to: v,
                    lat: m.latency_of(ops[p].class()),
                    dist: 0,
                });
            }
            // next def after v → anti (same cycle allowed: reads at issue)
            if u.next != NONE {
                edges.push(IrEdge {
                    from: v,
                    to: u.next as usize,
                    lat: 0,
                    dist: 0,
                });
            }
        }
        // next def of same reg → output (must stay ordered)
        if du.next_def[v] != NONE {
            edges.push(IrEdge {
                from: v,
                to: du.next_def[v] as usize,
                lat: 1,
                dist: 0,
            });
        }
    }
    // memory dependences
    for u in 0..n {
        let Some((arr_u, addr_u, w_u)) = ops[u].mem() else {
            continue;
        };
        for v in u + 1..n {
            let Some((arr_v, addr_v, w_v)) = ops[v].mem() else {
                continue;
            };
            if arr_u != arr_v || (!w_u && !w_v) {
                continue;
            }
            if !same_iter_alias(addr_u, addr_v) {
                continue;
            }
            let lat = match (w_u, w_v) {
                (true, false) => m.latency_of(OpClass::Mem), // store→load forward
                (false, true) => 0,                          // load before store, same cycle ok
                (true, true) => 1,                           // store order
                _ => unreachable!(),
            };
            edges.push(IrEdge {
                from: u,
                to: v,
                lat,
                dist: 0,
            });
        }
    }
    // branch goes last
    if let Some(b) = ops.iter().position(|o| o.class() == OpClass::Branch) {
        for u in 0..n {
            if u != b {
                edges.push(IrEdge {
                    from: u,
                    to: b,
                    lat: 0,
                    dist: 0,
                });
            }
        }
    }
    edges
}

/// Cross-iteration dependences for modulo scheduling: register flows whose
/// value crosses the back edge, and loop-carried memory dependences derived
/// from address linear forms over `var` (step-normalized). Returns `None`
/// when a memory pair cannot be disambiguated across iterations — the
/// modulo scheduler then refuses the loop (like production compilers).
pub fn cross_deps(ops: &[Op], m: &MachineDesc, var: &str, step: i64) -> Option<Vec<IrEdge>> {
    let mut edges = Vec::new();
    push_cross_edges(ops, m, var, step, &DefUse::new(ops), &mut edges)?;
    Some(edges)
}

/// Append the [`cross_deps`] edges to `edges`, on prebuilt def-use tables.
/// `None` (with `edges` partly extended) when the loop cannot be
/// modulo-scheduled.
pub(crate) fn push_cross_edges(
    ops: &[Op],
    m: &MachineDesc,
    var: &str,
    step: i64,
    du: &DefUse,
    edges: &mut Vec<IrEdge>,
) -> Option<()> {
    let n = ops.len();
    // register flow into the next iteration: a use with no def earlier in
    // the block reads the block's last def (at or after the use)
    for u in &du.uses {
        if u.prev == NONE && u.last != NONE {
            let l = u.last as usize;
            edges.push(IrEdge {
                from: l,
                to: u.op as usize,
                lat: m.latency_of(ops[l].class()),
                dist: 1,
            });
        }
    }
    // loop-carried memory dependences
    for u in 0..n {
        let Some((arr_u, addr_u, w_u)) = ops[u].mem() else {
            continue;
        };
        for v in 0..n {
            let Some((arr_v, addr_v, w_v)) = ops[v].mem() else {
                continue;
            };
            if arr_u != arr_v || (!w_u && !w_v) {
                continue;
            }
            let (Some(la), Some(lb)) = (addr_u, addr_v) else {
                return None; // unknown address: cannot modulo schedule
            };
            let (ca, cb) = (la.coeff(var), lb.coeff(var));
            if ca != cb {
                return None;
            }
            // symbolic difference of the var-free parts
            let diff = const_diff(la, lb, Some(var))?;
            if ca == 0 {
                if diff != 0 {
                    continue; // distinct fixed addresses
                }
                // same fixed address every iteration: serialize fully
                if v > u || (v == u && w_u) {
                    edges.push(IrEdge {
                        from: u,
                        to: v,
                        lat: 1,
                        dist: 1,
                    });
                }
                continue;
            }
            // u@i aliases v@(i+d): ca*i + ra == ca*(i+d)*…  → d = (ra-rb)/(ca*step)
            let denom = ca * step;
            if diff % denom != 0 {
                continue;
            }
            let d = diff / denom;
            // d == 0 is intra-iteration (handled by `intra_deps`); d < 0 is
            // covered when the loop visits the symmetric pair (v, u).
            if d > 0 {
                edges.push(IrEdge {
                    from: u,
                    to: v,
                    lat: 1,
                    dist: d,
                });
            }
        }
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinKind, OpKind, Operand};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2000, .. ProptestConfig::default() })]

        /// `const_diff` gives the verdict and value of the `LinForm`
        /// arithmetic it replaced, zero coefficients included.
        #[test]
        fn const_diff_matches_linform_sub(
            xs in proptest::collection::vec((0usize..3, -2i64..3), 0..4),
            ys in proptest::collection::vec((0usize..3, -2i64..3), 0..4),
            k in (-5i64..5, -5i64..5),
            skip in 0usize..4
        ) {
            let vars = ["i", "j", "n"];
            let form = |ts: &[(usize, i64)], konst: i64| LinForm {
                terms: ts.iter().map(|&(v, c)| (vars[v].to_string(), c)).collect::<BTreeMap<_, _>>(),
                konst,
            };
            let (x, y) = (form(&xs, k.0), form(&ys, k.1));
            let skip = vars.get(skip).copied();
            let (rx, ry) = match skip {
                Some(v) => (x.split_var(v).1, y.split_var(v).1),
                None => (x.clone(), y.clone()),
            };
            let d = rx.sub(&ry);
            prop_assert_eq!(const_diff(&x, &y, skip), d.is_const().then_some(d.konst));
        }
    }

    fn load(dst: u32, arr: &str, lin: LinForm) -> Op {
        Op::new(OpKind::Load {
            dst,
            array: arr.into(),
            addr: Some(lin.into()),
        })
    }

    fn store(src: u32, arr: &str, lin: LinForm) -> Op {
        Op::new(OpKind::Store {
            src: Operand::Reg(src),
            array: arr.into(),
            addr: Some(lin.into()),
        })
    }

    fn lin(c: i64, k: i64) -> LinForm {
        LinForm::var("i").scale(c).add(&LinForm::constant(k))
    }

    #[test]
    fn flow_and_anti_regs() {
        let m = MachineDesc::default();
        let ops = vec![
            load(0, "A", lin(1, 0)),
            Op::new(OpKind::Bin {
                op: BinKind::Add,
                fp: true,
                dst: 1,
                a: Operand::Reg(0),
                b: Operand::ImmF(1.0),
            }),
            store(1, "B", lin(1, 0)),
        ];
        let e = intra_deps(&ops, &m);
        // flow 0→1 with Mem latency, flow 1→2 with FpAdd latency
        assert!(e.iter().any(|x| x.from == 0 && x.to == 1 && x.lat == 2));
        assert!(e.iter().any(|x| x.from == 1 && x.to == 2 && x.lat == 3));
    }

    #[test]
    fn mem_disambiguation_by_offset() {
        let m = MachineDesc::default();
        // store A[i], load A[i+1]: provably distinct this iteration
        let ops = vec![store(0, "A", lin(1, 0)), load(1, "A", lin(1, 1))];
        let e = intra_deps(&ops, &m);
        assert!(!e.iter().any(|x| x.from == 0 && x.to == 1 && x.lat > 0));
        // same offset: dependent
        let ops = vec![store(0, "A", lin(1, 0)), load(1, "A", lin(1, 0))];
        let e = intra_deps(&ops, &m);
        assert!(e.iter().any(|x| x.from == 0 && x.to == 1 && x.lat == 2));
    }

    #[test]
    fn cross_iteration_mem_distance() {
        let m = MachineDesc::default();
        // store A[i]; load A[i-1] → next iteration reads this store: dist 1
        let ops = vec![store(0, "A", lin(1, 0)), load(1, "A", lin(1, -1))];
        let e = cross_deps(&ops, &m, "i", 1).unwrap();
        assert!(
            e.iter().any(|x| x.from == 0 && x.to == 1 && x.dist == 1),
            "{e:?}"
        );
    }

    #[test]
    fn unknown_address_blocks_ims() {
        let m = MachineDesc::default();
        let ops = vec![
            Op::new(OpKind::Store {
                src: Operand::Reg(0),
                array: "A".into(),
                addr: None,
            }),
            load(1, "A", lin(1, 0)),
        ];
        assert!(cross_deps(&ops, &m, "i", 1).is_none());
    }

    #[test]
    fn accumulator_cross_flow() {
        let m = MachineDesc::default();
        // s(reg 5) += A[i]: load; add dst=5 a=5; — use of 5 before def → dist-1 flow
        let ops = vec![
            load(0, "A", lin(1, 0)),
            Op::new(OpKind::Bin {
                op: BinKind::Add,
                fp: true,
                dst: 5,
                a: Operand::Reg(5),
                b: Operand::Reg(0),
            }),
        ];
        let e = cross_deps(&ops, &m, "i", 1).unwrap();
        assert!(e.iter().any(|x| x.from == 1 && x.to == 1 && x.dist == 1));
    }
}
