//! Lowering from the AST to the three-address IR.
//!
//! Design decisions (documented deviations are part of the machine model,
//! not shortcuts in the algorithms):
//!
//! * **Branch-free blocks.** Source `if`s lower to predicated ops (IA-64
//!   style); the predicate network is computed with `Logic` ops. Both the
//!   weak and the strong final-compiler models therefore schedule the same
//!   shape of code, like the paper's predicated targets.
//! * **Address modes are free.** Subscript arithmetic is folded into the
//!   symbolic address linear form carried by each memory op (base+offset
//!   addressing); no explicit address ops are emitted.
//! * **Scalars live in registers.** Every scalar gets a dedicated virtual
//!   register (Tiny's model: the "final compiler shall use a register for
//!   the new local variable"). The register allocator later decides whether
//!   the architected file can hold them.
//! * **Constant trip counts.** The trace-based cycle simulator needs them;
//!   every workload in the suite is constant-bound. `while`/`break`/opaque
//!   calls are rejected.

use crate::ir::{BinKind, Lir, LirLoop, LirProgram, Op, OpKind, Operand, VReg};
use slc_analysis::linform::{linearize, LinForm};
use slc_ast::{AssignOp, BinOp, Expr, LValue, Program, Stmt, Ty, UnOp};
use std::collections::HashMap;
use std::sync::Arc;

/// Lowering errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// `while` loops are not lowerable (no trip count).
    WhileLoop,
    /// `break` is not lowerable.
    Break,
    /// Opaque calls in statement position have no machine semantics.
    OpaqueCall(String),
    /// Loop bounds must be constants.
    SymbolicBounds,
    /// Reference to an undeclared variable.
    Undeclared(String),
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LowerError::WhileLoop => write!(f, "cannot lower while loop"),
            LowerError::Break => write!(f, "cannot lower break"),
            LowerError::OpaqueCall(n) => write!(f, "cannot lower opaque call {n}"),
            LowerError::SymbolicBounds => write!(f, "loop bounds must be constant"),
            LowerError::Undeclared(n) => write!(f, "undeclared variable {n}"),
        }
    }
}

impl std::error::Error for LowerError {}

struct Lowerer<'p> {
    prog: &'p Program,
    next_reg: VReg,
    scalar_reg: HashMap<String, VReg>,
    arrays: HashMap<String, Vec<usize>>, // dims
}

impl<'p> Lowerer<'p> {
    fn new(prog: &'p Program) -> Self {
        let mut me = Lowerer {
            prog,
            next_reg: 0,
            scalar_reg: HashMap::new(),
            arrays: HashMap::new(),
        };
        for d in &prog.decls {
            if d.is_array() {
                me.arrays.insert(d.name.clone(), d.dims.clone());
            } else {
                let r = me.fresh();
                me.scalar_reg.insert(d.name.clone(), r);
            }
        }
        me
    }

    fn fresh(&mut self) -> VReg {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    fn scalar(&self, name: &str) -> Result<VReg, LowerError> {
        self.scalar_reg
            .get(name)
            .copied()
            .ok_or_else(|| LowerError::Undeclared(name.to_string()))
    }

    fn scalar_is_fp(&self, name: &str) -> bool {
        self.prog
            .decl(name)
            .map(|d| d.ty == Ty::Float)
            .unwrap_or(false)
    }

    fn array_is_fp(&self, name: &str) -> bool {
        self.prog
            .decl(name)
            .map(|d| d.ty == Ty::Float)
            .unwrap_or(true)
    }

    /// Row-major linearized address form of a subscript list, if affine.
    fn address(&self, array: &str, idx: &[Expr]) -> Option<LinForm> {
        let dims = self.arrays.get(array)?;
        if dims.len() != idx.len() {
            return None;
        }
        let mut lin = LinForm::constant(0);
        for (k, e) in idx.iter().enumerate() {
            let f = linearize(e)?;
            let stride: usize = dims[k + 1..].iter().product::<usize>().max(1);
            lin = lin.add(&f.scale(stride as i64));
        }
        Some(lin)
    }

    /// Lower an expression; returns (operand holding the value, is_fp).
    fn expr(
        &mut self,
        e: &Expr,
        pred: Option<(VReg, bool)>,
        out: &mut Vec<Op>,
    ) -> Result<(Operand, bool), LowerError> {
        match e {
            Expr::Int(v) => Ok((Operand::ImmI(*v), false)),
            Expr::Float(v) => Ok((Operand::ImmF(*v), true)),
            Expr::Var(n) => Ok((Operand::Reg(self.scalar(n)?), self.scalar_is_fp(n))),
            Expr::Index(n, idx) => {
                let addr = self.address(n, idx);
                let dst = self.fresh();
                let mut op = Op::new(OpKind::Load {
                    dst,
                    array: n.as_str().into(),
                    addr: addr.map(Arc::new),
                });
                op.pred = pred;
                out.push(op);
                Ok((Operand::Reg(dst), self.array_is_fp(n)))
            }
            Expr::Unary(UnOp::Neg, a) => {
                let (va, fp) = self.expr(a, pred, out)?;
                let dst = self.fresh();
                let zero = if fp {
                    Operand::ImmF(0.0)
                } else {
                    Operand::ImmI(0)
                };
                let mut op = Op::new(OpKind::Bin {
                    op: BinKind::Sub,
                    fp,
                    dst,
                    a: zero,
                    b: va,
                });
                op.pred = pred;
                out.push(op);
                Ok((Operand::Reg(dst), fp))
            }
            Expr::Unary(UnOp::Not, a) => {
                let (va, _) = self.expr(a, pred, out)?;
                let dst = self.fresh();
                let mut op = Op::new(OpKind::Bin {
                    op: BinKind::Not,
                    fp: false,
                    dst,
                    a: va,
                    b: Operand::ImmI(0),
                });
                op.pred = pred;
                out.push(op);
                Ok((Operand::Reg(dst), false))
            }
            Expr::Binary(bop, a, b) => {
                let (va, fa) = self.expr(a, pred, out)?;
                let (vb, fb) = self.expr(b, pred, out)?;
                let fp = fa || fb;
                let (kind, rfp, resfp) = match bop {
                    BinOp::Add => (BinKind::Add, fp, fp),
                    BinOp::Sub => (BinKind::Sub, fp, fp),
                    BinOp::Mul => (BinKind::Mul, fp, fp),
                    BinOp::Div => (BinKind::Div, fp, fp),
                    BinOp::Mod => (BinKind::Mod, fp, fp),
                    BinOp::Cmp(c) => (BinKind::Cmp(*c), fp, false),
                    BinOp::And => (BinKind::And, fp, false),
                    BinOp::Or => (BinKind::Or, fp, false),
                };
                let dst = self.fresh();
                let mut op = Op::new(OpKind::Bin {
                    op: kind,
                    fp: rfp,
                    dst,
                    a: va,
                    b: vb,
                });
                op.pred = pred;
                out.push(op);
                Ok((Operand::Reg(dst), resfp))
            }
            Expr::Select(c, t, f) => {
                let (vc, _) = self.expr(c, pred, out)?;
                let (vt, ft) = self.expr(t, pred, out)?;
                let (vf, ff) = self.expr(f, pred, out)?;
                let creg = self.operand_to_reg(vc, false, pred, out);
                let dst = self.fresh();
                let mut m1 = Op::new(OpKind::Mov { dst, src: vf });
                m1.pred = pred;
                out.push(m1);
                // overwrite under the select predicate; an outer predicate
                // is conjoined conservatively by nesting the mov
                let mut m2 = Op::new(OpKind::Mov { dst, src: vt });
                m2.pred = Some((creg, true));
                out.push(m2);
                Ok((Operand::Reg(dst), ft || ff))
            }
            Expr::Call(name, args) => {
                // Pure intrinsic: semantically faithful long-latency FP op.
                let mut vals = Vec::new();
                for a in args {
                    vals.push(self.expr(a, pred, out)?.0);
                }
                let dst = self.fresh();
                let heavy = matches!(name.as_str(), "sqrt" | "exp");
                let mut op = Op::new(OpKind::Intrinsic {
                    name: name.clone(),
                    dst,
                    args: vals,
                    heavy,
                });
                op.pred = pred;
                out.push(op);
                Ok((Operand::Reg(dst), true))
            }
        }
    }

    fn operand_to_reg(
        &mut self,
        o: Operand,
        _fp: bool,
        pred: Option<(VReg, bool)>,
        out: &mut Vec<Op>,
    ) -> VReg {
        match o {
            Operand::Reg(r) => r,
            imm => {
                let dst = self.fresh();
                let mut op = Op::new(OpKind::Mov { dst, src: imm });
                op.pred = pred;
                out.push(op);
                dst
            }
        }
    }

    fn assign(
        &mut self,
        target: &LValue,
        aop: AssignOp,
        value: &Expr,
        pred: Option<(VReg, bool)>,
        out: &mut Vec<Op>,
    ) -> Result<(), LowerError> {
        // Build the effective RHS: `target op value` for compound forms.
        let rhs_val = if aop == AssignOp::Set {
            self.expr(value, pred, out)?
        } else {
            let (old, fo) = self.expr(&target.as_expr(), pred, out)?;
            let (vb, fb) = self.expr(value, pred, out)?;
            let fp = fo || fb;
            let kind = match aop {
                AssignOp::Add => BinKind::Add,
                AssignOp::Sub => BinKind::Sub,
                AssignOp::Mul => BinKind::Mul,
                AssignOp::Div => BinKind::Div,
                AssignOp::Set => unreachable!(),
            };
            let dst = self.fresh();
            let mut op = Op::new(OpKind::Bin {
                op: kind,
                fp,
                dst,
                a: old,
                b: vb,
            });
            op.pred = pred;
            out.push(op);
            (Operand::Reg(dst), fp)
        };
        match target {
            LValue::Var(n) => {
                let dst = self.scalar(n)?;
                let mut op = Op::new(OpKind::Mov {
                    dst,
                    src: rhs_val.0,
                });
                op.pred = pred;
                out.push(op);
            }
            LValue::Index(n, idx) => {
                let addr = self.address(n, idx);
                let mut op = Op::new(OpKind::Store {
                    src: rhs_val.0,
                    array: n.as_str().into(),
                    addr: addr.map(Arc::new),
                });
                op.pred = pred;
                out.push(op);
            }
        }
        Ok(())
    }

    /// Conjoin an optional outer predicate with a fresh condition value.
    fn conjoin(&mut self, outer: Option<(VReg, bool)>, cond: Operand, out: &mut Vec<Op>) -> VReg {
        let creg = self.operand_to_reg(cond, false, outer, out);
        match outer {
            None => creg,
            Some((p, sense)) => {
                // eff = (sense ? p : !p) && c
                let pv = if sense {
                    Operand::Reg(p)
                } else {
                    let np = self.fresh();
                    out.push(Op::new(OpKind::Bin {
                        op: BinKind::Not,
                        fp: false,
                        dst: np,
                        a: Operand::Reg(p),
                        b: Operand::ImmI(0),
                    }));
                    Operand::Reg(np)
                };
                let eff = self.fresh();
                out.push(Op::new(OpKind::Bin {
                    op: BinKind::And,
                    fp: false,
                    dst: eff,
                    a: pv,
                    b: Operand::Reg(creg),
                }));
                eff
            }
        }
    }

    fn stmts(
        &mut self,
        stmts: &[Stmt],
        pred: Option<(VReg, bool)>,
        block: &mut Vec<Op>,
        items: &mut Vec<Lir>,
    ) -> Result<(), LowerError> {
        for s in stmts {
            match s {
                Stmt::Assign { target, op, value } => {
                    self.assign(target, *op, value, pred, block)?;
                }
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    let (vc, _) = self.expr(cond, pred, block)?;
                    let eff = self.conjoin(pred, vc, block);
                    self.stmts(then_branch, Some((eff, true)), block, items)?;
                    if !else_branch.is_empty() {
                        self.stmts(else_branch, Some((eff, false)), block, items)?;
                    }
                }
                Stmt::Block(b) | Stmt::Par(b) => {
                    self.stmts(b, pred, block, items)?;
                }
                Stmt::For(f) => {
                    if pred.is_some() {
                        // loops under predicates do not occur in the suite
                        return Err(LowerError::SymbolicBounds);
                    }
                    let trips = f.trip_count().ok_or(LowerError::SymbolicBounds)?;
                    let init = f.init.const_int().ok_or(LowerError::SymbolicBounds)?;
                    let bound_c = f.bound.const_int().ok_or(LowerError::SymbolicBounds)?;
                    // initialize the induction variable's register, then
                    // flush the current straight-line block
                    let var_reg_init = self.scalar(&f.var)?;
                    block.push(Op::new(OpKind::Mov {
                        dst: var_reg_init,
                        src: Operand::ImmI(init),
                    }));
                    if !block.is_empty() {
                        items.push(Lir::Block(std::mem::take(block)));
                    }
                    let mut inner_items = Vec::new();
                    let mut inner_block = Vec::new();
                    self.stmts(&f.body, None, &mut inner_block, &mut inner_items)?;
                    // loop control: var update + compare + branch
                    let var_reg = self.scalar(&f.var)?;
                    inner_block.push(Op::new(OpKind::Bin {
                        op: BinKind::Add,
                        fp: false,
                        dst: var_reg,
                        a: Operand::Reg(var_reg),
                        b: Operand::ImmI(f.step),
                    }));
                    let cmp = self.fresh();
                    inner_block.push(Op::new(OpKind::Bin {
                        op: BinKind::Cmp(f.cmp),
                        fp: false,
                        dst: cmp,
                        a: Operand::Reg(var_reg),
                        b: Operand::ImmI(bound_c),
                    }));
                    let mut br = Op::new(OpKind::Branch);
                    br.pred = Some((cmp, true));
                    inner_block.push(br);
                    inner_items.push(Lir::Block(inner_block));
                    items.push(Lir::Loop(LirLoop {
                        var: f.var.clone(),
                        init,
                        step: f.step,
                        trips,
                        body: inner_items,
                    }));
                }
                Stmt::While { .. } => return Err(LowerError::WhileLoop),
                Stmt::Break => return Err(LowerError::Break),
                Stmt::Call(n, _) => return Err(LowerError::OpaqueCall(n.clone())),
            }
        }
        Ok(())
    }
}

/// Lower a whole program.
pub fn lower_program(prog: &Program) -> Result<LirProgram, LowerError> {
    let mut lw = Lowerer::new(prog);
    let mut items = Vec::new();
    let mut block = Vec::new();
    lw.stmts(&prog.stmts, None, &mut block, &mut items)?;
    if !block.is_empty() {
        items.push(Lir::Block(block));
    }
    let arrays = prog
        .decls
        .iter()
        .filter(|d| d.is_array())
        .map(|d| (d.name.clone(), d.len()))
        .collect();
    let scalar_regs = lw.scalar_reg.iter().map(|(n, r)| (n.clone(), *r)).collect();
    Ok(LirProgram {
        items,
        n_regs: lw.next_reg,
        arrays,
        scalar_regs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use slc_ast::parse_program;

    fn lower(src: &str) -> LirProgram {
        lower_program(&parse_program(src).unwrap()).unwrap()
    }

    fn body_ops(lir: &LirProgram) -> &[Op] {
        for item in &lir.items {
            if let Lir::Loop(l) = item {
                if let Some(Lir::Block(b)) = l.body.first() {
                    return b;
                }
            }
        }
        panic!("no loop found");
    }

    #[test]
    fn simple_loop_shape() {
        let lir =
            lower("float A[16]; float B[16]; int i; for (i = 0; i < 16; i++) A[i] = B[i] * 2.0;");
        let ops = body_ops(&lir);
        // load, mul, store + (add, cmp, branch) loop control
        assert_eq!(ops.len(), 6);
        assert!(matches!(ops[0].kind, OpKind::Load { .. }));
        assert!(matches!(
            ops[1].kind,
            OpKind::Bin {
                op: BinKind::Mul,
                fp: true,
                ..
            }
        ));
        assert!(matches!(ops[2].kind, OpKind::Store { .. }));
        assert!(matches!(ops[5].kind, OpKind::Branch));
    }

    #[test]
    fn address_linform() {
        let lir = lower("float M[4][8]; int i; for (i = 0; i < 4; i++) M[i][3] = 0.0;");
        let ops = body_ops(&lir);
        let OpKind::Store { addr: Some(a), .. } = &ops[0].kind else {
            panic!("{:?}", ops[0]);
        };
        // row-major: 8*i + 3
        assert_eq!(a.coeff("i"), 8);
        assert_eq!(a.konst, 3);
    }

    #[test]
    fn predication() {
        let lir = lower("float A[8]; int c; int i; for (i = 0; i < 8; i++) if (c) A[i] = 1.0;");
        let ops = body_ops(&lir);
        let store = ops
            .iter()
            .find(|o| matches!(o.kind, OpKind::Store { .. }))
            .unwrap();
        assert!(store.pred.is_some());
    }

    #[test]
    fn compound_assign_reads_then_writes() {
        let lir = lower("float A[8]; int i; for (i = 0; i < 8; i++) A[i] += 1.0;");
        let ops = body_ops(&lir);
        assert!(matches!(ops[0].kind, OpKind::Load { .. }));
        assert!(matches!(ops[1].kind, OpKind::Bin { .. }));
        assert!(matches!(ops[2].kind, OpKind::Store { .. }));
    }

    #[test]
    fn while_rejected() {
        let p = parse_program("int i; while (i < 3) i += 1;").unwrap();
        assert_eq!(lower_program(&p).unwrap_err(), LowerError::WhileLoop);
    }

    #[test]
    fn nested_loops_nest_in_lir() {
        let lir = lower(
            "float A[4][4]; int i; int j;\n\
             for (i = 0; i < 4; i++) for (j = 0; j < 4; j++) A[i][j] = 0.0;",
        );
        let outer = lir
            .items
            .iter()
            .find_map(|it| match it {
                Lir::Loop(l) => Some(l),
                _ => None,
            })
            .expect("outer loop present");
        assert!(outer.body.iter().any(|it| matches!(it, Lir::Loop(_))));
    }

    #[test]
    fn scalar_accumulator_uses_same_reg() {
        let lir = lower("float A[8]; float s; int i; for (i = 0; i < 8; i++) s += A[i];");
        let ops = body_ops(&lir);
        // mov into `s` writes the same register the next iteration reads
        let movs: Vec<_> = ops
            .iter()
            .filter_map(|o| match &o.kind {
                OpKind::Mov { dst, .. } => Some(*dst),
                _ => None,
            })
            .collect();
        assert_eq!(movs.len(), 1);
    }
}
